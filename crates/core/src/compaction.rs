//! Physical-memory compaction: Linux's sequential scan versus Trident's
//! smart compaction (§5.1.3, Figure 6).
//!
//! *Normal* compaction scans physical memory from a persistent cursor,
//! migrating every movable allocation it meets toward the high end of
//! memory, oblivious to how full each region is; a single unmovable frame
//! wastes all copying already done for that region. *Smart* compaction
//! instead consults the per-region counters to **select** the emptiest
//! movable-only region as its source (minimizing the bytes that must move)
//! and the fullest regions as targets.

use trident_obs::{Event, SpanKind};
use trident_phys::{AllocationUnit, RegionId};
use trident_types::PageSize;

use crate::{MmContext, SpaceSet};

/// Which compaction algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompactionKind {
    /// Linux's sequential-scan compaction (Figure 6a).
    Normal,
    /// Trident's counter-guided compaction (Figure 6b).
    Smart,
}

/// What a compaction run accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Whether a free chunk of the requested size now exists.
    pub success: bool,
    /// Bytes of data movement performed (Figure 7's metric).
    pub bytes_copied: u64,
    /// CPU time of the run (scanning + copying) in nanoseconds.
    pub ns: u64,
    /// Allocation units migrated.
    pub migrated_units: u64,
}

/// A compaction engine with persistent scan state.
///
/// # Examples
///
/// ```
/// use trident_core::{CompactionKind, Compactor, MmContext, SpaceSet};
/// use trident_phys::PhysicalMemory;
/// use trident_types::{PageGeometry, PageSize};
///
/// let geo = PageGeometry::TINY;
/// let mut ctx = MmContext::new(PhysicalMemory::new(geo, 8 * geo.base_pages(PageSize::new(2))));
/// let mut spaces = SpaceSet::new();
/// let mut compactor = Compactor::new(CompactionKind::Smart);
/// // Memory is pristine: a giant chunk already exists, so this is a no-op.
/// let outcome = compactor.compact(&mut ctx, &mut spaces, PageSize::new(2));
/// assert!(outcome.success);
/// assert_eq!(outcome.bytes_copied, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Compactor {
    kind: CompactionKind,
    /// Next region the sequential (normal) scan will visit.
    scan_cursor: u64,
    /// Source regions a single smart run may attempt.
    max_source_regions: usize,
    /// Unit migrations a single run may perform before giving up —
    /// kcompactd-style work bounding so a hopeless machine does not make
    /// the daemon spin forever.
    max_migrations: u64,
}

impl Compactor {
    /// Creates a compactor of the given kind.
    #[must_use]
    pub fn new(kind: CompactionKind) -> Compactor {
        Compactor {
            kind,
            scan_cursor: 0,
            max_source_regions: 64,
            max_migrations: 4096,
        }
    }

    /// The algorithm this compactor runs.
    #[must_use]
    pub fn kind(&self) -> CompactionKind {
        self.kind
    }

    /// Attempts to create one free chunk large enough for a page of
    /// `target`. Smart selection only pays off at giant granularity;
    /// requests for smaller chunks always use the normal algorithm, as
    /// Linux itself serves them.
    pub fn compact(
        &mut self,
        ctx: &mut MmContext,
        spaces: &mut SpaceSet,
        target: PageSize,
    ) -> CompactionOutcome {
        let smart = self.kind == CompactionKind::Smart;
        let mut out = CompactionOutcome::default();
        ctx.span_begin(SpanKind::Compaction);
        if ctx.mem.has_free(target) {
            out.success = true;
            ctx.record(Event::CompactionRun {
                smart,
                succeeded: true,
            });
            ctx.span_end(SpanKind::Compaction, out.ns);
            return out;
        }
        // An injected abort models kcompactd bailing before migrating
        // anything (lock contention, OOM-killer interference): the pass is
        // attempted and fails, producing no contiguity and copying nothing.
        if ctx.inject(trident_obs::InjectSite::Compaction) {
            ctx.record(Event::CompactionRun {
                smart,
                succeeded: false,
            });
            ctx.span_end(SpanKind::Compaction, out.ns);
            return out;
        }
        // Smart compaction's emptiness/fullness region pairing only pays
        // when hunting the ladder's top-rung chunk; smaller targets use
        // the normal linear scan.
        if self.kind == CompactionKind::Smart && target == ctx.geometry().largest() {
            self.smart(ctx, spaces, &mut out);
        } else {
            self.normal(ctx, spaces, target, &mut out);
        }
        out.ns += ctx.cost.copy_ns(out.bytes_copied);
        ctx.record(Event::CompactionRun {
            smart,
            succeeded: out.success,
        });
        ctx.span_end(SpanKind::Compaction, out.ns);
        #[cfg(debug_assertions)]
        crate::assert_mm_consistent(ctx, spaces);
        out
    }

    /// Smart compaction: pick sources by emptiness, targets by fullness.
    fn smart(&mut self, ctx: &mut MmContext, spaces: &mut SpaceSet, out: &mut CompactionOutcome) {
        let geo = ctx.geometry();
        let giant_order = geo.order(geo.largest());
        let sources: Vec<RegionId> = ctx
            .mem
            .regions()
            .source_candidates()
            .into_iter()
            .take(self.max_source_regions)
            .collect();
        for source in sources {
            let units = ctx.mem.units_in_region(source);
            // A region holding a giant allocation cannot be emptied into
            // anywhere smaller; counters already exclude unmovable regions.
            if units.iter().any(|u| u.order == giant_order) {
                continue;
            }
            if out.migrated_units >= self.max_migrations {
                break; // work bound exhausted
            }
            let mut emptied = true;
            // Move the largest units first: they need the scarcest holes.
            let mut ordered = units;
            ordered.sort_by_key(|u| std::cmp::Reverse(u.order));
            for unit in ordered {
                let targets = ctx.mem.regions().target_candidates(source);
                if !migrate_unit(ctx, spaces, &unit, &targets, out) {
                    emptied = false;
                    break;
                }
            }
            if emptied
                && ctx
                    .mem
                    .buddy()
                    .is_block_free(geo.giant_region_start(source), giant_order)
            {
                out.success = true;
                return;
            }
        }
        // Selection found nothing freeable; report whatever state we left.
        out.success = ctx.mem.has_free(PageSize::new(2));
    }

    /// Normal compaction: sequential region scan from the persistent
    /// cursor, migrating toward high addresses, abandoning a region at the
    /// first unmovable frame (the copying already done for it is wasted —
    /// exactly the pathology §5.1.3 describes).
    fn normal(
        &mut self,
        ctx: &mut MmContext,
        spaces: &mut SpaceSet,
        target: PageSize,
        out: &mut CompactionOutcome,
    ) {
        let geo = ctx.geometry();
        let giant_order = geo.order(geo.largest());
        let region_count = ctx.mem.regions().region_count();
        if region_count == 0 {
            return;
        }
        for _ in 0..region_count {
            let source = self.scan_cursor % region_count;
            self.scan_cursor = (self.scan_cursor + 1) % region_count;
            // Scanning a region's frame metadata costs CPU regardless of
            // outcome.
            out.ns += ctx.mem.regions().capacity(source) * ctx.cost.scan_page_ns;
            let units = ctx.mem.units_in_region(source);
            for unit in units {
                if unit.order == giant_order {
                    break; // nothing to gain moving a giant allocation
                }
                if !unit.use_.is_movable() {
                    break; // abandon the region; prior copying is wasted
                }
                // Free pages are taken from the high end of memory.
                let targets: Vec<RegionId> = (0..region_count)
                    .rev()
                    .filter(|r| *r != source && ctx.mem.regions().counters(*r).free_pages > 0)
                    .collect();
                if !migrate_unit(ctx, spaces, &unit, &targets, out) {
                    break;
                }
            }
            if ctx.mem.has_free(target) {
                out.success = true;
                return;
            }
            if out.migrated_units >= self.max_migrations {
                break; // work bound exhausted
            }
        }
        out.success = ctx.mem.has_free(target);
    }
}

/// Moves one allocation unit into the first target region that can host
/// it: allocate a same-order block there, fix the owner's page table
/// through the reverse map, free the old frames, and account the copy.
/// Returns whether the unit moved.
fn migrate_unit(
    ctx: &mut MmContext,
    spaces: &mut SpaceSet,
    unit: &AllocationUnit,
    targets: &[RegionId],
    out: &mut CompactionOutcome,
) -> bool {
    let geo = ctx.geometry();
    for &target in targets {
        let Ok(dst) = ctx.mem.allocate_in_region(
            target,
            unit.order,
            unit.use_,
            unit.owner,
            &mut ctx.recorder,
        ) else {
            continue;
        };
        if let Some(owner) = unit.owner {
            let space = spaces
                .get_mut(owner.asid)
                .expect("reverse map points at a live space");
            let old = space
                .page_table_mut()
                .remap(owner.vpn, dst)
                .expect("reverse map matches a leaf mapping");
            // Invariant: a user allocation unit backs exactly one leaf of
            // the same span, so the leaf's old frame is the unit head.
            debug_assert_eq!(old, unit.head, "unit/leaf correspondence broken");
        }
        ctx.mem
            .free(unit.head, &mut ctx.recorder)
            .expect("unit is live");
        let bytes = unit.pages() * geo.base_bytes();
        out.bytes_copied += bytes;
        out.migrated_units += 1;
        ctx.record(Event::CompactionMove { bytes });
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_obs::NoopRecorder;
    use trident_phys::{FrameUse, PhysicalMemory};
    use trident_types::{AsId, PageGeometry, Vpn};
    use trident_vm::{AddressSpace, VmaKind};

    /// Builds a context where every region is half-used by 4KB user pages
    /// of a single process, leaving no free giant chunk.
    fn fragmented_setup(regions: u64) -> (MmContext, SpaceSet) {
        let geo = PageGeometry::TINY;
        let mut ctx = MmContext::new(PhysicalMemory::new(
            geo,
            regions * geo.base_pages(PageSize::new(2)),
        ));
        let mut space = AddressSpace::new(AsId::new(1), geo);
        let total = regions * 64;
        space.mmap_at(Vpn::new(0), total, VmaKind::Anon).unwrap();
        // Allocate every frame as a mapped single-page unit, then free all
        // but one page per 8-page block: every huge (order-3) and giant
        // chunk is broken, holes are order <= 2.
        let mut held = Vec::new();
        for p in 0..total {
            let vpn = Vpn::new(p);
            let pfn = ctx
                .mem
                .allocate_order(
                    0,
                    FrameUse::User,
                    Some(trident_phys::MappingOwner {
                        asid: AsId::new(1),
                        vpn,
                    }),
                    &mut NoopRecorder,
                )
                .unwrap();
            space
                .page_table_mut()
                .map(vpn, pfn, PageSize::BASE)
                .unwrap();
            held.push((vpn, pfn));
        }
        for (vpn, pfn) in held {
            if vpn.raw() % 8 != 0 {
                space.page_table_mut().unmap(vpn).unwrap();
                ctx.mem.free(pfn, &mut NoopRecorder).unwrap();
            }
        }
        assert!(!ctx.mem.has_free(PageSize::new(2)));
        let mut spaces = SpaceSet::new();
        spaces.insert(space);
        (ctx, spaces)
    }

    #[test]
    fn smart_compaction_creates_a_giant_chunk() {
        let (mut ctx, mut spaces) = fragmented_setup(8);
        let mut c = Compactor::new(CompactionKind::Smart);
        let out = c.compact(&mut ctx, &mut spaces, PageSize::new(2));
        assert!(out.success);
        assert!(ctx.mem.has_free(PageSize::new(2)));
        assert!(out.bytes_copied > 0);
        ctx.mem.assert_consistent();
    }

    #[test]
    fn normal_compaction_also_succeeds_but_copies_at_least_as_much() {
        let (mut ctx_s, mut spaces_s) = fragmented_setup(8);
        let out_smart = Compactor::new(CompactionKind::Smart).compact(
            &mut ctx_s,
            &mut spaces_s,
            PageSize::new(2),
        );
        let (mut ctx_n, mut spaces_n) = fragmented_setup(8);
        let out_normal = Compactor::new(CompactionKind::Normal).compact(
            &mut ctx_n,
            &mut spaces_n,
            PageSize::new(2),
        );
        assert!(out_smart.success && out_normal.success);
        // In a uniform checkerboard they copy similar amounts; smart never
        // copies more.
        assert!(out_smart.bytes_copied <= out_normal.bytes_copied);
    }

    #[test]
    fn smart_picks_the_emptiest_region_when_occupancy_differs() {
        let geo = PageGeometry::TINY;
        let mut ctx = MmContext::new(PhysicalMemory::new(geo, 4 * 64));
        let mut space = AddressSpace::new(AsId::new(1), geo);
        space.mmap_at(Vpn::new(0), 4 * 64, VmaKind::Anon).unwrap();
        let spaces_alloc =
            |ctx: &mut MmContext, space: &mut AddressSpace, region: u64, pages: u64| {
                for i in 0..pages {
                    let vpn = Vpn::new(region * 64 + i * 2); // every other page
                    let pfn = ctx
                        .mem
                        .allocate_in_region(
                            region,
                            0,
                            FrameUse::User,
                            Some(trident_phys::MappingOwner {
                                asid: AsId::new(1),
                                vpn,
                            }),
                            &mut NoopRecorder,
                        )
                        .unwrap();
                    space
                        .page_table_mut()
                        .map(vpn, pfn, PageSize::BASE)
                        .unwrap();
                }
            };
        // Region 0 nearly full (30 pages), region 1 nearly empty (2 pages),
        // regions 2-3 moderately used so nothing is free at giant order.
        spaces_alloc(&mut ctx, &mut space, 0, 30);
        spaces_alloc(&mut ctx, &mut space, 1, 2);
        spaces_alloc(&mut ctx, &mut space, 2, 16);
        spaces_alloc(&mut ctx, &mut space, 3, 16);
        assert!(!ctx.mem.has_free(PageSize::new(2)));
        let mut spaces = SpaceSet::new();
        spaces.insert(space);
        let out =
            Compactor::new(CompactionKind::Smart).compact(&mut ctx, &mut spaces, PageSize::new(2));
        assert!(out.success);
        // Freeing region 1 takes 2 page copies; anything else would take
        // far more.
        assert_eq!(out.migrated_units, 2);
        assert_eq!(out.bytes_copied, 2 * geo.base_bytes());
    }

    #[test]
    fn unmovable_region_is_never_selected_by_smart() {
        let geo = PageGeometry::TINY;
        let mut ctx = MmContext::new(PhysicalMemory::new(geo, 2 * 64));
        // One kernel page in each region: nothing can be freed.
        ctx.mem
            .allocate_in_region(0, 0, FrameUse::Kernel, None, &mut NoopRecorder)
            .unwrap();
        ctx.mem
            .allocate_in_region(1, 0, FrameUse::Kernel, None, &mut NoopRecorder)
            .unwrap();
        // Consume the rest so no free giant chunk exists.
        while ctx
            .mem
            .allocate_order(2, FrameUse::User, None, &mut NoopRecorder)
            .is_ok()
        {}
        let mut spaces = SpaceSet::new();
        let out =
            Compactor::new(CompactionKind::Smart).compact(&mut ctx, &mut spaces, PageSize::new(2));
        assert!(!out.success);
        assert_eq!(out.bytes_copied, 0);
    }

    #[test]
    fn normal_compaction_wastes_copies_on_unmovable_frames() {
        let geo = PageGeometry::TINY;
        let mut ctx = MmContext::new(PhysicalMemory::new(geo, 2 * 64));
        // Both regions: a movable page-cache page followed by a pinned
        // kernel page — neither region can ever be freed.
        for r in 0..2 {
            ctx.mem
                .allocate_in_region(r, 0, FrameUse::PageCache, None, &mut NoopRecorder)
                .unwrap();
            ctx.mem
                .allocate_in_region(r, 0, FrameUse::Kernel, None, &mut NoopRecorder)
                .unwrap();
        }
        let mut spaces = SpaceSet::new();
        let mut c = Compactor::new(CompactionKind::Normal);
        let out = c.compact(&mut ctx, &mut spaces, PageSize::new(2));
        // It copied page-cache pages before hitting the kernel pages —
        // wasted work, both regions stay pinned. Smart compaction would
        // have copied nothing (see unmovable_region_is_never_selected).
        assert!(out.bytes_copied >= geo.base_bytes());
        assert!(!out.success);
    }

    #[test]
    fn compaction_for_huge_chunks_uses_normal_path() {
        let (mut ctx, mut spaces) = fragmented_setup(4);
        let mut c = Compactor::new(CompactionKind::Smart);
        // Exhaust huge chunks by checkerboard: order-3 blocks are... the
        // checkerboard leaves order-2 holes, so no order-3 (huge) chunk.
        assert!(!ctx.mem.has_free(PageSize::new(1)));
        let out = c.compact(&mut ctx, &mut spaces, PageSize::new(1));
        assert!(out.success);
        assert!(ctx.mem.has_free(PageSize::new(1)));
    }

    #[test]
    fn page_table_follows_migrated_frames() {
        let (mut ctx, mut spaces) = fragmented_setup(4);
        let before: Vec<_> = spaces
            .get(AsId::new(1))
            .unwrap()
            .page_table()
            .mappings_in(Vpn::new(0), 4 * 64);
        Compactor::new(CompactionKind::Smart).compact(&mut ctx, &mut spaces, PageSize::new(2));
        let space = spaces.get(AsId::new(1)).unwrap();
        // Every previously mapped page is still mapped, and its frame's
        // reverse map agrees with the page table.
        for rec in &before {
            let t = space.page_table().translate(rec.vpn).expect("still mapped");
            let unit = ctx.mem.unit_at(t.head_pfn).expect("frame backs a unit");
            assert_eq!(unit.owner.expect("user unit has an owner").vpn, rec.vpn);
        }
        ctx.mem.assert_consistent();
    }
}
