//! Property-based tests for the page table, run over both the plain
//! miniature ladder and its NAPOT variant so group leaves (multi-entry
//! NAPOT / contiguous-bit mappings) face the same model checking as
//! natural leaves.

use std::collections::BTreeMap;

use proptest::prelude::*;
use trident_types::{PageGeometry, PageSize, Pfn, Vpn};
use trident_vm::{MapError, MappingRecord, PageTable, Translation};

fn any_geometry() -> impl Strategy<Value = PageGeometry> {
    prop_oneof![Just(PageGeometry::TINY), Just(PageGeometry::TINY_NAPOT),]
}

/// A geometry plus op stream whose sizes are valid rungs of that ladder.
fn geometry_and_ops(
    max_ops: usize,
) -> impl Strategy<Value = (PageGeometry, Vec<(u64, PageSize, bool)>)> {
    any_geometry().prop_flat_map(move |geo| {
        let sizes = (0..geo.rung_count()).prop_map(PageSize::new);
        prop::collection::vec((0u64..64, sizes, any::<bool>()), 1..max_ops)
            .prop_map(move |ops| (geo, ops))
    })
}

/// x86-64, sv48 and aarch64 at scale 64, plus the miniature ladders.
fn run_geometries() -> impl Strategy<Value = PageGeometry> {
    prop_oneof![
        Just(PageGeometry::TINY),
        Just(PageGeometry::TINY_NAPOT),
        Just(PageGeometry::X86_64.scaled(6)),
        Just(PageGeometry::RISCV_SV48.scaled(6)),
        Just(PageGeometry::AARCH64.scaled(6)),
    ]
}

/// The table's full packed state — entries with their occupancy-count
/// bits, arenas and free lists, per-chunk rung totals, leaf counts and
/// the dirty set — without the walker cache, which only lookups fill.
fn packed_state(pt: &PageTable) -> String {
    let dbg = format!("{pt:?}");
    dbg[..dbg.find("last_walk").expect("walker cache field")].to_owned()
}

/// Maps `pre` leaves into two copies of an empty table, then installs
/// each run with one `map_run` in the first and one `map` per frame in
/// the second, comparing the tables after every run.
fn check_map_run_against_map(geo: PageGeometry, pre: &[(u64, PageSize)], runs: &[(u64, u64)]) {
    let window = 2 * geo.base_pages(geo.largest());
    let table_pages = 1u64 << geo.level_order(2);
    let mut batched = PageTable::new(geo);
    for &(salt, size) in pre {
        let span = geo.base_pages(size);
        let vpn = salt % window / span * span;
        let _ = batched.map(Vpn::new(vpn), Pfn::new(vpn), size);
    }
    let mut single = batched.clone();
    let mut next_pfn = window;
    for &(salt, max) in runs {
        let vpn = salt % window;
        let n = batched.unmapped_run(Vpn::new(vpn), max);
        let room = max.min(table_pages - vpn % table_pages);
        let expected = (0..room)
            .take_while(|&i| single.translate(Vpn::new(vpn + i)).is_none())
            .count() as u64;
        assert_eq!(n, expected, "unmapped_run at {vpn} capped at {max}");
        let frames: Vec<Pfn> = (next_pfn..next_pfn + n).map(Pfn::new).collect();
        next_pfn += n;
        batched.map_run(Vpn::new(vpn), &frames).unwrap();
        for (i, &pfn) in frames.iter().enumerate() {
            single
                .map(Vpn::new(vpn + i as u64), pfn, PageSize::BASE)
                .unwrap();
        }
        assert_eq!(packed_state(&batched), packed_state(&single));
        if n > 0 {
            // The pages are mapped now: a second run overlaps and
            // changes nothing.
            assert!(matches!(
                batched.map_run(Vpn::new(vpn), &frames),
                Err(MapError::Overlap { .. })
            ));
            assert_eq!(packed_state(&batched), packed_state(&single));
        }
    }
    for vpn in (0..window).map(Vpn::new) {
        assert_eq!(batched.translate(vpn), single.translate(vpn));
    }
    for size in geo.rungs() {
        assert_eq!(batched.mapped_pages(size), single.mapped_pages(size));
        let span = geo.base_pages(size);
        for head in (0..window).step_by(span as usize).map(Vpn::new) {
            assert_eq!(
                batched.chunk_profile(head, size),
                single.chunk_profile(head, size)
            );
        }
    }
    assert_eq!(batched.take_dirty_chunks(), single.take_dirty_chunks());
}

proptest! {
    /// `map_run` equals one `map` per frame — packed entries, occupancy
    /// counts, translations, leaf counts, chunk profiles and the
    /// dirty-chunk drain — on an empty table and on one already holding
    /// leaves of every rung; `unmapped_run` agrees with per-page lookups.
    #[test]
    fn map_run_equals_per_page_map(
        (geo, pre, runs) in run_geometries().prop_flat_map(|geo| {
            let sizes = (0..geo.rung_count()).prop_map(PageSize::new);
            (
                Just(geo),
                prop::collection::vec((any::<u64>(), sizes), 0..60),
                prop::collection::vec((any::<u64>(), 1u64..80), 1..12),
            )
        }),
    ) {
        check_map_run_against_map(geo, &[], &runs);
        check_map_run_against_map(geo, &pre, &runs);
    }

    /// Random aligned maps either succeed or report a precise overlap; a
    /// shadow model over base pages always agrees with the table.
    #[test]
    fn table_agrees_with_flat_shadow_model(
        (geo, ops) in geometry_and_ops(60)
    ) {
        let mut pt = PageTable::new(geo);
        let mut shadow: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut next_frame = 0u64;
        for (chunk, size, _salt) in ops {
            let span = geo.base_pages(size);
            let vpn = (chunk % 8) * span; // size-aligned by construction
            let pfn = next_frame.next_multiple_of(span);
            let result = pt.map(Vpn::new(vpn), Pfn::new(pfn), size);
            let overlap = (vpn..vpn + span).any(|p| shadow.contains_key(&p));
            if overlap {
                let is_overlap = matches!(result, Err(MapError::Overlap { .. }));
                prop_assert!(is_overlap);
            } else {
                prop_assert!(result.is_ok());
                for i in 0..span {
                    shadow.insert(vpn + i, pfn + i);
                }
                next_frame = pfn + span;
            }
        }
        // Every shadow page translates to the right frame.
        for (&vpn, &pfn) in &shadow {
            let t = pt.translate(Vpn::new(vpn));
            prop_assert_eq!(t.map(|t| t.pfn.raw()), Some(pfn));
        }
        // Leaf accounting matches the shadow.
        prop_assert_eq!(pt.mapped_base_pages() as usize, shadow.len());
    }

    /// Unmapping everything returns the table to a pristine state where a
    /// top-rung leaf can be installed anywhere previously used.
    #[test]
    fn unmap_all_allows_giant_remapping(
        (geo, chunks) in geometry_and_ops(40)
    ) {
        let mut pt = PageTable::new(geo);
        let mut heads = Vec::new();
        let mut next_frame = 0u64;
        for (chunk, size, _salt) in chunks {
            let span = geo.base_pages(size);
            let vpn = (chunk % 4) * span;
            let pfn = next_frame.next_multiple_of(span);
            if pt.map(Vpn::new(vpn), Pfn::new(pfn), size).is_ok() {
                heads.push(Vpn::new(vpn));
                next_frame = pfn + span;
            }
        }
        for head in heads {
            pt.unmap(head).unwrap();
        }
        prop_assert_eq!(pt.mapped_base_pages(), 0);
        let giant_span = geo.base_pages(geo.largest());
        for giant in 0..4u64 {
            pt.map(
                Vpn::new(giant * giant_span),
                Pfn::new(giant * giant_span),
                geo.largest(),
            ).unwrap();
        }
    }

    /// Packed radix tables == BTreeMap model, forward order: see
    /// [`check_radix_against_btreemap`].
    #[test]
    fn packed_radix_matches_btreemap_model(
        (geo, ops) in geometry_and_ops(80)
    ) {
        check_radix_against_btreemap(geo, &ops);
    }

    /// The same op sequences replayed in reverse must also agree — the
    /// arena layout (free-list reuse, table recycling) cannot leak into
    /// observable results whatever the allocation order.
    #[test]
    fn packed_radix_matches_btreemap_model_reversed(
        (geo, ops) in geometry_and_ops(80)
    ) {
        let reversed: Vec<_> = ops.iter().rev().copied().collect();
        check_radix_against_btreemap(geo, &reversed);
    }

    /// The dirty-chunk bitmap's drain == a sorted-Vec reference under
    /// arbitrary span-marking sequences interleaved with drains, in both
    /// replay orders.
    #[test]
    fn dirty_drain_matches_vec_reference(
        ops in prop::collection::vec((0u64..256, 0u64..70, any::<bool>()), 1..80)
    ) {
        check_dirty_against_vec(&ops);
        let reversed: Vec<_> = ops.iter().rev().copied().collect();
        check_dirty_against_vec(&reversed);
    }

    /// chunk_profile partitions every chunk exactly, at every rung of the
    /// ladder, over arbitrary mapping mixes.
    #[test]
    fn chunk_profile_partitions_the_chunk(
        (geo, maps) in geometry_and_ops(40)
    ) {
        let mut pt = PageTable::new(geo);
        let giant_span = geo.base_pages(geo.largest());
        let mut next = 0u64;
        for (slot, size, _salt) in maps {
            let span = geo.base_pages(size);
            let vpn = (slot * span) % (4 * giant_span);
            let pfn = next.next_multiple_of(span);
            if pt.map(Vpn::new(vpn), Pfn::new(pfn), size).is_ok() {
                next = pfn + span;
            }
        }
        for size in geo.rungs() {
            let span = geo.base_pages(size);
            for chunk in 0..(4 * giant_span / span) {
                let p = pt.chunk_profile(Vpn::new(chunk * span), size);
                prop_assert_eq!(p.mapped_total() + p.unmapped, span);
            }
        }
    }
}

/// Applies a map/unmap sequence to both the arena-backed radix table and
/// a `BTreeMap` model, requiring after every op that translation, the
/// ordered mapping scan (both its allocating and buffer-reusing forms),
/// and leaf accounting all agree with the model.
fn check_radix_against_btreemap(geo: PageGeometry, ops: &[(u64, PageSize, bool)]) {
    let total = 4 * geo.base_pages(geo.largest());
    let mut pt = PageTable::new(geo);
    let mut model: std::collections::BTreeMap<u64, (u64, PageSize)> =
        std::collections::BTreeMap::new();
    let mut next_frame = 0u64;
    let mut scratch = Vec::new();
    for &(slot, size, unmap) in ops {
        let span = geo.base_pages(size);
        if unmap && !model.is_empty() {
            // Unmap the nth live head (modulo), per the model.
            let nth = slot as usize % model.len();
            let head = *model.keys().nth(nth).expect("nth < len");
            let (pfn, sz) = model.remove(&head).expect("key exists");
            let rec = pt.unmap(Vpn::new(head)).expect("model says mapped");
            prop_assert_eq!(rec.pfn.raw(), pfn);
            prop_assert_eq!(rec.size, sz);
        } else {
            let vpn = (slot * span) % total;
            let pfn = next_frame.next_multiple_of(span);
            let overlaps = model
                .range(..vpn + span)
                .next_back()
                .is_some_and(|(&h, &(_, s))| h + geo.base_pages(s) > vpn);
            let result = pt.map(Vpn::new(vpn), Pfn::new(pfn), size);
            prop_assert_eq!(result.is_ok(), !overlaps);
            if result.is_ok() {
                model.insert(vpn, (pfn, size));
                next_frame = pfn + span;
            }
        }
        // The ordered scan equals the model's iteration exactly.
        let records = pt.mappings_in(Vpn::new(0), total);
        let got: Vec<(u64, u64, PageSize)> = records
            .iter()
            .map(|r| (r.vpn.raw(), r.pfn.raw(), r.size))
            .collect();
        let expect: Vec<(u64, u64, PageSize)> =
            model.iter().map(|(&v, &(p, s))| (v, p, s)).collect();
        prop_assert_eq!(got, expect);
        pt.mappings_into(Vpn::new(0), total, &mut scratch);
        prop_assert_eq!(&records, &scratch);
        let mapped: u64 = model.values().map(|&(_, s)| geo.base_pages(s)).sum();
        prop_assert_eq!(pt.mapped_base_pages(), mapped);
    }
    // Spot-check translation over the whole space against the model.
    for vpn in 0..total {
        let expect = model
            .range(..=vpn)
            .next_back()
            .filter(|(&h, &(_, s))| h + geo.base_pages(s) > vpn)
            .map(|(&h, &(p, _))| p + (vpn - h));
        let got = pt.translate(Vpn::new(vpn)).map(|t| t.pfn.raw());
        prop_assert_eq!(got, expect);
    }
}

/// Applies `(start, pages, drain?)` ops to the page table's dirty-chunk
/// bitmap and a sorted-Vec reference, requiring every drain to yield the
/// reference exactly and leave the bitmap empty.
fn check_dirty_against_vec(ops: &[(u64, u64, bool)]) {
    let geo = PageGeometry::TINY;
    let giant_span = geo.base_pages(geo.largest());
    let total = 4 * giant_span;
    let mut pt = PageTable::new(geo);
    let mut reference: Vec<u64> = Vec::new();
    let mut drained = Vec::new();
    for &(start, pages, drain) in ops {
        if drain {
            pt.drain_dirty_chunks_into(&mut drained);
            prop_assert_eq!(&drained, &reference);
            prop_assert!(pt.take_dirty_chunks().is_empty());
            reference.clear();
        } else {
            let start = start % total;
            let pages = pages.min(total - start);
            pt.mark_span_dirty(Vpn::new(start), pages);
            if pages > 0 {
                for gi in start / giant_span..=(start + pages - 1) / giant_span {
                    if !reference.contains(&gi) {
                        let at = reference.partition_point(|&g| g < gi);
                        reference.insert(at, gi);
                    }
                }
            }
        }
    }
    pt.drain_dirty_chunks_into(&mut drained);
    prop_assert_eq!(&drained, &reference);
}

/// Every shipped ladder at full scale and at scale 64 (x86-64; sv48 with
/// its NAPOT rung; AArch64 with contiguous PTE and PMD spans), plus the
/// miniature ladders.
fn shipped_ladders() -> impl Strategy<Value = PageGeometry> {
    prop_oneof![
        Just(PageGeometry::TINY),
        Just(PageGeometry::TINY_NAPOT),
        Just(PageGeometry::X86_64),
        Just(PageGeometry::RISCV_SV48),
        Just(PageGeometry::AARCH64),
        Just(PageGeometry::X86_64.scaled(6)),
        Just(PageGeometry::RISCV_SV48.scaled(6)),
        Just(PageGeometry::AARCH64.scaled(6)),
    ]
}

/// One operation of [`walker_cache_keeps_results_and_flags_exact`]. The
/// `u64`s pick a leaf of the model (modulo its size), an offset inside
/// it, or a page of the window; see [`check_against_leaf_model`].
#[derive(Debug, Clone, Copy)]
enum TableOp {
    Map(u64, PageSize),
    Unmap(u64, u64),
    Remap(u64, bool),
    ClearAccessed(u64, u64),
    Access(u64, u64, bool),
    Translate(u64, u64),
}

fn ladder_and_table_ops() -> impl Strategy<Value = (PageGeometry, Vec<TableOp>)> {
    shipped_ladders().prop_flat_map(|geo| {
        let rungs = geo.rung_count();
        let op = (0u8..16, 0..rungs, any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
            move |(kind, rung, a, b, flag)| match kind {
                0..=3 => TableOp::Map(a, PageSize::new(rung)),
                4 => TableOp::Unmap(a, b),
                5 => TableOp::Remap(a, flag),
                6 => TableOp::ClearAccessed(a, b),
                7..=12 => TableOp::Access(a, b, flag),
                _ => TableOp::Translate(a, b),
            },
        );
        (Just(geo), prop::collection::vec(op, 1..120))
    })
}

/// A leaf of the shadow model, keyed by its head page.
#[derive(Debug, Clone, Copy)]
struct ModelLeaf {
    pfn: u64,
    size: PageSize,
    accessed: bool,
    dirty: bool,
}

/// The page the op's `(pick, offset)` pair aims at: most often a page
/// inside a live leaf (so the walker cache is hit, refilled and
/// invalidated), otherwise any page of the window.
fn target(
    geo: PageGeometry,
    model: &BTreeMap<u64, ModelLeaf>,
    window: u64,
    pick: u64,
    offset: u64,
) -> u64 {
    if model.is_empty() || pick.is_multiple_of(4) {
        return offset % window;
    }
    let (&head, leaf) = model
        .iter()
        .nth(pick as usize % model.len())
        .expect("nth < len");
    head + offset % geo.base_pages(leaf.size)
}

/// What the model says `vpn` translates to.
fn model_translation(
    geo: PageGeometry,
    model: &BTreeMap<u64, ModelLeaf>,
    vpn: u64,
) -> Option<Translation> {
    let (&head, leaf) = model.range(..=vpn).next_back()?;
    (vpn - head < geo.base_pages(leaf.size)).then(|| Translation {
        pfn: Pfn::new(leaf.pfn + (vpn - head)),
        size: leaf.size,
        head_vpn: Vpn::new(head),
        head_pfn: Pfn::new(leaf.pfn),
    })
}

/// Replays `ops` on a table and on a model of its leaves, requiring every
/// result to match and, after every op, every leaf's frame, size and
/// accessed/dirty flags as `mappings_in` reads them from the entries.
fn check_against_leaf_model(geo: PageGeometry, ops: &[TableOp]) {
    let window = 4 * geo.base_pages(geo.largest());
    let mut pt = PageTable::new(geo);
    let mut model: BTreeMap<u64, ModelLeaf> = BTreeMap::new();
    let mut next_frame = 0u64;
    let mut fresh_frame = |size: PageSize| {
        let pfn = next_frame.next_multiple_of(geo.base_pages(size));
        next_frame = pfn + geo.base_pages(size);
        pfn
    };
    for &op in ops {
        match op {
            TableOp::Map(slot, size) => {
                let span = geo.base_pages(size);
                let vpn = (slot % 64 * span) % window;
                let overlaps = model
                    .range(..vpn + span)
                    .next_back()
                    .is_some_and(|(&h, l)| h + geo.base_pages(l.size) > vpn);
                let pfn = fresh_frame(size);
                let result = pt.map(Vpn::new(vpn), Pfn::new(pfn), size);
                if overlaps {
                    prop_assert_eq!(result, Err(MapError::Overlap { vpn: Vpn::new(vpn) }));
                } else {
                    prop_assert_eq!(result, Ok(()));
                    let leaf = ModelLeaf {
                        pfn,
                        size,
                        accessed: false,
                        dirty: false,
                    };
                    model.insert(vpn, leaf);
                }
            }
            TableOp::Unmap(pick, offset) => {
                let vpn = target(geo, &model, window, pick, offset);
                let result = pt.unmap(Vpn::new(vpn));
                match model_translation(geo, &model, vpn) {
                    None => {
                        prop_assert_eq!(result, Err(MapError::NotMapped { vpn: Vpn::new(vpn) }))
                    }
                    Some(t) if t.head_vpn.raw() != vpn => prop_assert_eq!(
                        result,
                        Err(MapError::NotAMappingHead { vpn: Vpn::new(vpn) })
                    ),
                    Some(_) => {
                        let leaf = model.remove(&vpn).expect("head is in the model");
                        let record = MappingRecord {
                            vpn: Vpn::new(vpn),
                            pfn: Pfn::new(leaf.pfn),
                            size: leaf.size,
                            accessed: leaf.accessed,
                            dirty: leaf.dirty,
                        };
                        prop_assert_eq!(result, Ok(record));
                    }
                }
            }
            TableOp::Remap(pick, aligned) => {
                let Some((&head, &leaf)) = (!model.is_empty())
                    .then(|| model.iter().nth(pick as usize % model.len()))
                    .flatten()
                else {
                    continue;
                };
                let span = geo.base_pages(leaf.size);
                if !aligned && span > 1 {
                    let result = pt.remap(Vpn::new(head), Pfn::new(fresh_frame(leaf.size) + 1));
                    let is_unaligned = matches!(result, Err(MapError::Unaligned { .. }));
                    prop_assert!(is_unaligned, "{:?}", result);
                    continue;
                }
                let pfn = fresh_frame(leaf.size);
                prop_assert_eq!(
                    pt.remap(Vpn::new(head), Pfn::new(pfn)),
                    Ok(Pfn::new(leaf.pfn))
                );
                model.get_mut(&head).expect("live leaf").pfn = pfn;
            }
            TableOp::ClearAccessed(start, pages) => {
                let start = start % window;
                let pages = pages % (window - start + 1);
                pt.clear_accessed_in(Vpn::new(start), pages);
                for leaf in model.range_mut(start..start + pages).map(|(_, l)| l) {
                    leaf.accessed = false;
                }
            }
            TableOp::Access(pick, offset, write) => {
                let vpn = target(geo, &model, window, pick, offset);
                let expect = model_translation(geo, &model, vpn);
                prop_assert_eq!(pt.access(Vpn::new(vpn), write), expect, "{:?}", op);
                if let Some(t) = expect {
                    let leaf = model.get_mut(&t.head_vpn.raw()).expect("live leaf");
                    leaf.accessed = true;
                    leaf.dirty |= write;
                }
            }
            TableOp::Translate(pick, offset) => {
                let vpn = target(geo, &model, window, pick, offset);
                let expect = model_translation(geo, &model, vpn);
                prop_assert_eq!(pt.translate(Vpn::new(vpn)), expect, "{:?}", op);
            }
        }
        let leaves: Vec<MappingRecord> = model
            .iter()
            .map(|(&vpn, l)| MappingRecord {
                vpn: Vpn::new(vpn),
                pfn: Pfn::new(l.pfn),
                size: l.size,
                accessed: l.accessed,
                dirty: l.dirty,
            })
            .collect();
        prop_assert_eq!(
            pt.mappings_in(Vpn::new(0), window),
            leaves,
            "after {:?}",
            op
        );
    }
}

proptest! {
    /// `map`, `unmap`, `remap`, `clear_accessed_in`, `access` and
    /// `translate`, interleaved on every shipped ladder, agree with a
    /// model of the leaves: every result, and after every op each leaf's
    /// accessed/dirty flags as stored in the table. The walker cache lets
    /// `access` skip the table when the covering leaf already carries the
    /// flags; a cache entry that claimed flags the entry lacks, or that
    /// outlived a remap, unmap or accessed-bit clear, fails here.
    #[test]
    fn walker_cache_keeps_results_and_flags_exact((geo, ops) in ladder_and_table_ops()) {
        check_against_leaf_model(geo, &ops);
    }
}
