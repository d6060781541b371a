//! Property-based tests for the buddy allocator and physical memory.

use std::collections::BTreeSet;
use std::ops::Range;

use proptest::prelude::*;
use trident_obs::{Event, NoopRecorder, RingTracer};
use trident_phys::{BuddyAllocator, FrameUse, MappingOwner, PhysicalMemory};
use trident_types::{AsId, PageGeometry, PageSize, Pfn, Vpn};

/// A random sequence of alloc/free operations.
#[derive(Debug, Clone)]
enum Op {
    Alloc(u8),
    FreeNth(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..=6).prop_map(Op::Alloc),
            (0usize..64).prop_map(Op::FreeNth),
        ],
        1..200,
    )
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

/// Asserts that two memories are in the same observable state: every
/// free list, the free count, FMFI at every order, the frame table and
/// the region counters.
fn assert_same_memory(a: &PhysicalMemory, b: &PhysicalMemory) {
    let (ba, bb) = (a.buddy(), b.buddy());
    assert_eq!(ba.free_pages(), bb.free_pages());
    for order in 0..=ba.max_order() {
        assert!(
            ba.free_blocks_iter(order).eq(bb.free_blocks_iter(order)),
            "free list of order {order} differs"
        );
        assert_eq!(ba.fmfi(order).to_bits(), bb.fmfi(order).to_bits());
    }
    assert_eq!(format!("{:?}", a.frames()), format!("{:?}", b.frames()));
    assert_eq!(format!("{:?}", a.regions()), format!("{:?}", b.regions()));
    a.assert_consistent();
}

/// The split a single allocation reports, as `allocate_run` and the
/// closed form below give it: the order of the free block it splits, or
/// `order` when it splits none.
fn split_event(from_order: u8, order: u8) -> Option<Event> {
    (from_order > order).then_some(Event::BuddySplit {
        from_order,
        to_order: order,
    })
}

/// Runs `runs` (order, blocks) through `allocate_run` on one copy of
/// `mem` and through single `allocate_order` calls on another, comparing
/// heads and each block's split after each run; then checks that a run
/// larger than the free capacity fails without effect.
fn check_runs_against_single_allocations(mem: PhysicalMemory, runs: &[(u8, u64)]) {
    let (mut batched, mut single) = (mem.clone(), mem);
    let asid = AsId::new(1);
    let mut vpn = 1000u64;
    let mut tracer = RingTracer::new(1);
    for &(order, n) in runs {
        let n = n.min(batched.buddy().free_capacity(order));
        let owner = MappingOwner {
            asid,
            vpn: Vpn::new(vpn),
        };
        let mut frames = vec![Pfn::new(7)];
        let mut splits = Vec::new();
        batched
            .allocate_run(
                order,
                n,
                FrameUse::User,
                Some(owner),
                &mut frames,
                Some(&mut splits),
            )
            .unwrap();
        let mut want = vec![(Pfn::new(7), None)];
        want.extend((0..n).map(|i| {
            let owner = MappingOwner {
                asid,
                vpn: Vpn::new(vpn + (i << order)),
            };
            let head = single
                .allocate_order(order, FrameUse::User, Some(owner), &mut tracer)
                .unwrap();
            (head, tracer.drain().pop())
        }));
        let splits =
            std::iter::once(None).chain(splits.iter().map(|&from| split_event(from, order)));
        let got: Vec<(Pfn, Option<Event>)> = frames.into_iter().zip(splits).collect();
        assert_eq!(
            got, want,
            "heads appended in allocation order, with their splits"
        );
        assert_same_memory(&batched, &single);
        vpn += n << order;
    }
    assert_eq!(tracer.dropped(), 0, "one split at most per allocation");
    for order in 0..=batched.buddy().max_order() {
        let over = batched.buddy().free_capacity(order) + 1;
        let (mut frames, mut splits) = (Vec::new(), Vec::new());
        assert!(batched
            .allocate_run(
                order,
                over,
                FrameUse::User,
                None,
                &mut frames,
                Some(&mut splits)
            )
            .is_err());
        assert!(frames.is_empty() && splits.is_empty());
    }
    assert_same_memory(&batched, &single);
}

/// Asserts that two allocators hold the same free blocks.
fn assert_same_buddy(a: &BuddyAllocator, b: &BuddyAllocator) {
    assert_eq!(a.free_pages(), b.free_pages());
    for order in 0..=a.max_order() {
        assert!(
            a.free_blocks_iter(order).eq(b.free_blocks_iter(order)),
            "free list of order {order} differs"
        );
    }
    a.assert_consistent();
}

/// A buddy allocator of three top-order blocks plus a `tail` of
/// pages, churned by `churn` allocations of the given orders of which the
/// `frees` are returned.
fn churned_buddy(
    max_order: u8,
    tail: u64,
    churn: &[u8],
    frees: &[prop::sample::Index],
) -> BuddyAllocator {
    let mut buddy = BuddyAllocator::new((3 << max_order) + tail, max_order);
    let mut held: Vec<(u64, u8)> = churn
        .iter()
        .filter_map(|&order| {
            buddy
                .alloc(order, &mut NoopRecorder)
                .ok()
                .map(|start| (start, order))
        })
        .collect();
    for idx in frees {
        if held.is_empty() {
            break;
        }
        let (start, order) = held.swap_remove(idx.index(held.len()));
        buddy.free(start, order, &mut NoopRecorder);
    }
    buddy
}

/// A reference buddy allocator with the same rules as `BuddyAllocator`:
/// one ordered set of free block starts per order. It seeds memory with
/// maximal aligned blocks, allocates the lowest block of the smallest
/// order that serves a request and splits it from the low end, and
/// coalesces a freed block with its free buddy as far as the top order.
#[derive(Debug)]
struct RefBuddy {
    total: u64,
    max_order: u8,
    lists: Vec<BTreeSet<u64>>,
    free: u64,
}

impl RefBuddy {
    fn new(total: u64, max_order: u8) -> RefBuddy {
        let mut lists = vec![BTreeSet::new(); usize::from(max_order) + 1];
        let mut page = 0;
        while page < total {
            let mut order = (page.trailing_zeros() as u8).min(max_order);
            while page + (1 << order) > total {
                order -= 1;
            }
            lists[usize::from(order)].insert(page);
            page += 1 << order;
        }
        RefBuddy {
            total,
            max_order,
            lists,
            free: total,
        }
    }

    /// Takes the free block at `start` of order `from` and splits it down
    /// to order `to`, returning each upper half to the free lists.
    fn take(&mut self, start: u64, from: u8, to: u8) -> u64 {
        assert!(self.lists[usize::from(from)].remove(&start));
        for order in (to..from).rev() {
            self.lists[usize::from(order)].insert(start + (1 << order));
        }
        self.free -= 1 << to;
        start
    }

    fn alloc(&mut self, order: u8) -> Option<u64> {
        let found = (order..=self.max_order).find(|&o| !self.lists[usize::from(o)].is_empty())?;
        let start = *self.lists[usize::from(found)].first()?;
        Some(self.take(start, found, order))
    }

    fn alloc_in_range(&mut self, order: u8, range: Range<u64>) -> Option<u64> {
        for o in order..=self.max_order {
            let inside = self.lists[usize::from(o)]
                .range(range.start..)
                .find(|&&start| start + (1 << o) <= range.end)
                .copied();
            if let Some(start) = inside {
                return Some(self.take(start, o, order));
            }
        }
        None
    }

    fn free(&mut self, start: u64, order: u8) {
        self.free += 1 << order;
        let (mut start, mut order) = (start, order);
        while order < self.max_order {
            let buddy = start ^ (1 << order);
            if buddy + (1 << order) > self.total || !self.lists[usize::from(order)].remove(&buddy) {
                break;
            }
            start = start.min(buddy);
            order += 1;
        }
        self.lists[usize::from(order)].insert(start);
    }

    fn capacity(&self, order: u8) -> u64 {
        (order..=self.max_order)
            .map(|o| (self.lists[usize::from(o)].len() as u64) << (o - order))
            .sum()
    }

    fn fmfi(&self, order: u8) -> f64 {
        if self.free == 0 {
            return 1.0;
        }
        (self.free - (self.capacity(order) << order)) as f64 / self.free as f64
    }
}

/// One step of the reference-model test.
#[derive(Debug, Clone)]
enum RefOp {
    Alloc(u8),
    /// `alloc_in_range(order, start..start + len)`, with both ends rounded
    /// down to a multiple of `2^k` when `snap` is `(true, k)`.
    AllocInRange {
        order: u8,
        start: u64,
        len: u64,
        snap: (bool, u8),
    },
    /// `alloc_run(order, n)`; `n` may exceed the free capacity.
    AllocRun(u8, u64),
    Free(prop::sample::Index),
}

/// A geometry's top order, a frame count of three top-order blocks plus
/// `tail` pages (often not a multiple of the top order), and operations
/// for it.
fn ref_cases() -> impl Strategy<Value = (u8, u64, Vec<RefOp>)> {
    (run_geometries(), 0u64..3, any::<u64>()).prop_flat_map(|(geo, shape, tail)| {
        let max = geo.max_order();
        let top = 1u64 << max;
        // A full multiple, a one-page tail, or any tail.
        let tail = [0, 1, tail % top][shape as usize];
        let total = 3 * top + tail;
        // The free arm is doubled, so sequences keep returning blocks and
        // coalescing instead of draining memory.
        let op = prop_oneof![
            (0..=max).prop_map(RefOp::Alloc),
            (0..=max, 0..=total, 0..=2 * top, (any::<bool>(), 0..=max)).prop_map(
                |(order, start, len, snap)| RefOp::AllocInRange {
                    order,
                    start,
                    len,
                    snap,
                }
            ),
            (0..=max, 0u64..40).prop_map(|(order, n)| RefOp::AllocRun(order, n)),
            any::<prop::sample::Index>().prop_map(RefOp::Free),
            any::<prop::sample::Index>().prop_map(RefOp::Free),
        ];
        (Just(max), Just(total), prop::collection::vec(op, 1..120))
    })
}

/// Asserts that `buddy` and the reference hold the same free blocks, by
/// every query the allocator answers. `held` are allocated blocks.
fn assert_matches_reference(buddy: &BuddyAllocator, model: &RefBuddy, held: &[(u64, u8)]) {
    assert_eq!(buddy.free_pages(), model.free);
    for order in 0..=model.max_order {
        let list = &model.lists[usize::from(order)];
        assert!(
            buddy.free_blocks_iter(order).eq(list.iter().copied()),
            "free list of order {order} differs"
        );
        assert_eq!(buddy.free_blocks(order), list.len());
        assert_eq!(buddy.free_capacity(order), model.capacity(order));
        assert_eq!(buddy.fmfi(order).to_bits(), model.fmfi(order).to_bits());
    }
    // Free starts, the misaligned page after each, and allocated starts,
    // asked at every order.
    let probes = model
        .lists
        .iter()
        .flatten()
        .flat_map(|&start| [start, start + 1])
        .chain(held.iter().map(|&(start, _)| start));
    for page in probes {
        for order in 0..=model.max_order {
            assert_eq!(
                buddy.is_block_free(page, order),
                model.lists[usize::from(order)].contains(&page),
                "is_block_free({page}, {order})"
            );
        }
    }
    assert_eq!(buddy.check_consistent(), Ok(()));
}

proptest! {
    /// `alloc_run(order, n)` hands out the blocks that `n` calls of
    /// `alloc(order)` hand out, in the same order, and leaves the same
    /// free lists and free count, at every order, from a clean allocator
    /// and from churned ones. The splits its spans' `found` orders give
    /// (the first block of a span splits `found`, block `j > 0` splits
    /// `order + tz(j)`) are the `BuddySplit`s the single allocations
    /// record, block by block. A run past the free capacity fails and
    /// changes nothing.
    #[test]
    fn alloc_run_equals_single_allocs_at_every_order(
        (max_order, tail, churn, frees, runs) in (2u8..=9).prop_flat_map(|max| (
            Just(max),
            0u64..(1 << max),
            prop::collection::vec(0..=max, 0..120),
            prop::collection::vec(any::<prop::sample::Index>(), 0..80),
            prop::collection::vec((0..=max, 1u64..70, any::<bool>()), 1..10),
        )),
    ) {
        let mut tracer = RingTracer::new(1);
        for mut batched in [
            churned_buddy(max_order, tail, &[], &[]),
            churned_buddy(max_order, tail, &churn, &frees),
        ] {
            let mut single = batched.clone();
            for &(order, n, exhaust) in &runs {
                let capacity = batched.free_capacity(order);
                let n = if exhaust { capacity } else { n.min(capacity) };
                let mut got = Vec::new();
                batched
                    .alloc_run(order, n, |start, pages, found| {
                        got.extend((0..pages >> order).map(|j| {
                            let from = if j == 0 {
                                found
                            } else {
                                order + j.trailing_zeros() as u8
                            };
                            (start + (j << order), split_event(from, order))
                        }));
                    })
                    .unwrap();
                let want: Vec<(u64, Option<Event>)> = (0..n)
                    .map(|_| {
                        let start = single.alloc(order, &mut tracer).unwrap();
                        (start, tracer.drain().pop())
                    })
                    .collect();
                prop_assert_eq!(&got, &want, "blocks of order {} in order, with their splits", order);
                assert_same_buddy(&batched, &single);
                let over = batched.free_capacity(order) + 1;
                prop_assert!(batched.alloc_run(order, over, |_, _, _| {}).is_err());
                assert_same_buddy(&batched, &single);
            }
        }
        prop_assert_eq!(tracer.dropped(), 0, "one split at most per allocation");
    }

    /// `allocate_run(order, n)` equals `n` calls of
    /// `allocate_order(order)` at every order, each block's split
    /// included, from a clean machine and from one fragmented by churn of
    /// every order and use.
    #[test]
    fn allocate_run_equals_single_allocations(
        (geo, churn, frees, runs) in run_geometries().prop_flat_map(|geo| {
            let block = (0..=geo.max_order(), 0u8..3);
            let run = prop_oneof![
                (Just(0u8), 1u64..300),
                (0..=geo.max_order(), 1u64..12),
            ];
            (
                Just(geo),
                prop::collection::vec(block, 0..150),
                prop::collection::vec(any::<prop::sample::Index>(), 0..100),
                prop::collection::vec(run, 1..8),
            )
        }),
    ) {
        let total = 4 * geo.base_pages(geo.largest());
        check_runs_against_single_allocations(PhysicalMemory::new(geo, total), &runs);
        let mut mem = PhysicalMemory::new(geo, total);
        let mut held = Vec::new();
        for (order, use_) in churn {
            let use_ = [FrameUse::User, FrameUse::PageCache, FrameUse::Kernel][usize::from(use_)];
            if let Ok(head) = mem.allocate_order(order, use_, None, &mut NoopRecorder) {
                held.push(head);
            }
        }
        for idx in frees {
            if held.is_empty() {
                break;
            }
            mem.free(held.swap_remove(idx.index(held.len())), &mut NoopRecorder).unwrap();
        }
        check_runs_against_single_allocations(mem, &runs);
    }

    /// `BuddyAllocator` answers every query as the reference buddy does
    /// after each of a random sequence of `alloc`, `alloc_in_range` (ends
    /// on and off block boundaries), `alloc_run` (within and past the free
    /// capacity) and `free`, on every geometry's top order and on frame
    /// counts that are not a multiple of it.
    #[test]
    fn buddy_matches_the_reference_buddy((max_order, total, ops) in ref_cases()) {
        let mut buddy = BuddyAllocator::new(total, max_order);
        let mut model = RefBuddy::new(total, max_order);
        let mut held: Vec<(u64, u8)> = Vec::new();
        assert_matches_reference(&buddy, &model, &held);
        for op in ops {
            match op {
                RefOp::Alloc(order) => {
                    let got = buddy.alloc(order, &mut NoopRecorder).ok();
                    prop_assert_eq!(got, model.alloc(order));
                    held.extend(got.map(|start| (start, order)));
                }
                RefOp::AllocInRange { order, start, len, snap: (snap, k) } => {
                    let (mut lo, mut hi) = (start, start + len);
                    if snap {
                        lo &= !((1 << k) - 1);
                        hi &= !((1 << k) - 1);
                    }
                    let got = buddy.alloc_in_range(order, lo..hi, &mut NoopRecorder).ok();
                    prop_assert_eq!(got, model.alloc_in_range(order, lo..hi), "range {}..{}", lo, hi);
                    held.extend(got.map(|start| (start, order)));
                }
                RefOp::AllocRun(order, n) => {
                    let mut got = Vec::new();
                    let ran = buddy.alloc_run(order, n, |start, pages, _| {
                        got.extend((0..pages >> order).map(|j| start + (j << order)));
                    });
                    if n > model.capacity(order) {
                        prop_assert!(ran.is_err() && got.is_empty());
                    } else {
                        prop_assert!(ran.is_ok());
                        let want: Vec<u64> = (0..n).filter_map(|_| model.alloc(order)).collect();
                        prop_assert_eq!(&got, &want);
                        held.extend(got.iter().map(|&start| (start, order)));
                    }
                }
                RefOp::Free(idx) => {
                    if !held.is_empty() {
                        let (start, order) = held.swap_remove(idx.index(held.len()));
                        buddy.free(start, order, &mut NoopRecorder);
                        model.free(start, order);
                    }
                }
            }
            assert_matches_reference(&buddy, &model, &held);
        }
    }

    /// After any op sequence, the buddy's internal accounting is
    /// consistent, and freeing everything restores full coalescing.
    #[test]
    fn buddy_accounting_survives_random_ops(ops in ops()) {
        let total = 4u64 << 6;
        let mut buddy = BuddyAllocator::new(total, 6);
        let mut held: Vec<(u64, u8)> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(order) => {
                    if let Ok(start) = buddy.alloc(order, &mut NoopRecorder) {
                        prop_assert_eq!(start % (1 << order), 0);
                        held.push((start, order));
                    }
                }
                Op::FreeNth(n) => {
                    if !held.is_empty() {
                        let (start, order) = held.swap_remove(n % held.len());
                        buddy.free(start, order, &mut NoopRecorder);
                    }
                }
            }
            buddy.assert_consistent();
        }
        let held_pages: u64 = held.iter().map(|(_, o)| 1u64 << o).sum();
        prop_assert_eq!(buddy.free_pages(), total - held_pages);
        for (start, order) in held {
            buddy.free(start, order, &mut NoopRecorder);
        }
        prop_assert_eq!(buddy.free_pages(), total);
        prop_assert_eq!(buddy.free_blocks(6), 4);
    }

    /// Allocations never overlap while held.
    #[test]
    fn buddy_allocations_are_disjoint(orders in prop::collection::vec(0u8..=5, 1..40)) {
        let mut buddy = BuddyAllocator::new(1 << 10, 10);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for order in orders {
            if let Ok(start) = buddy.alloc(order, &mut NoopRecorder) {
                spans.push((start, start + (1 << order)));
            }
        }
        spans.sort_unstable();
        for pair in spans.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].0, "overlap: {:?}", pair);
        }
    }

    /// PhysicalMemory keeps buddy, frame table and region counters in sync
    /// under random ladder traffic, on the miniature ladders and on every
    /// shipped architecture (scaled so the buddy orders stay testable).
    #[test]
    fn physical_memory_layers_stay_in_sync(
        (geo, seq, frees) in prop_oneof![
            Just(PageGeometry::TINY),
            Just(PageGeometry::TINY_NAPOT),
            Just(PageGeometry::X86_64.scaled(8)),
            Just(PageGeometry::RISCV_SV48.scaled(8)),
            Just(PageGeometry::AARCH64.scaled(8)),
        ]
        .prop_flat_map(|geo| {
            let sizes = (0..geo.rung_count()).prop_map(PageSize::new);
            (
                Just(geo),
                prop::collection::vec(sizes, 1..100),
                prop::collection::vec(any::<prop::sample::Index>(), 0..60),
            )
        }),
    ) {
        let mut mem = PhysicalMemory::new(geo, 8 * geo.base_pages(geo.largest()));
        let mut held = Vec::new();
        for size in seq {
            if let Ok(head) = mem.allocate(size, FrameUse::User, None, &mut NoopRecorder) {
                held.push(head);
            }
        }
        for idx in frees {
            if held.is_empty() { break; }
            let head = held.swap_remove(idx.index(held.len()));
            mem.free(head, &mut NoopRecorder).unwrap();
        }
        mem.assert_consistent();
        for head in held {
            mem.free(head, &mut NoopRecorder).unwrap();
        }
        mem.assert_consistent();
        prop_assert_eq!(mem.free_pages(), mem.total_pages());
    }

    /// FMFI is always within [0, 1] and monotone in order.
    #[test]
    fn fmfi_bounds_and_monotonicity(orders in prop::collection::vec(0u8..=6, 0..80)) {
        let mut buddy = BuddyAllocator::new(1 << 9, 9);
        for order in orders {
            let _ = buddy.alloc(order, &mut NoopRecorder);
        }
        let mut last = 0.0f64;
        for order in 0..=9u8 {
            let f = buddy.fmfi(order);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last - 1e-12, "fmfi not monotone at order {order}");
            last = f;
        }
    }
}
