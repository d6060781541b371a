//! Property-based tests for the buddy allocator and physical memory.

use proptest::prelude::*;
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

/// Runs `runs` through `allocate_run` on one copy of `mem` and through
/// single base-page allocations on another, comparing after each run;
/// then checks that a run larger than free memory fails without effect.
fn check_runs_against_single_allocations(mem: PhysicalMemory, runs: &[u64]) {
    let (mut batched, mut single) = (mem.clone(), mem);
    let asid = AsId::new(1);
    let mut vpn = 1000u64;
    for &n in runs {
        let n = n.min(batched.free_pages());
        let owner = MappingOwner {
            asid,
            vpn: Vpn::new(vpn),
        };
        let mut frames = vec![Pfn::new(7)];
        batched
            .allocate_run(n, FrameUse::User, Some(owner), &mut frames)
            .unwrap();
        let want: Vec<Pfn> = std::iter::once(Pfn::new(7))
            .chain((0..n).map(|i| {
                let owner = MappingOwner {
                    asid,
                    vpn: Vpn::new(vpn + i),
                };
                single
                    .allocate(PageSize::BASE, FrameUse::User, Some(owner))
                    .unwrap()
            }))
            .collect();
        assert_eq!(frames, want, "frames appended in allocation order");
        assert_same_memory(&batched, &single);
        vpn += n;
    }
    let over = batched.free_pages() + 1;
    let mut frames = Vec::new();
    assert!(batched
        .allocate_run(over, FrameUse::User, None, &mut frames)
        .is_err());
    assert!(frames.is_empty());
    assert_same_memory(&batched, &single);
}

proptest! {
    /// `allocate_run(n)` equals `n` calls of `allocate(BASE)`, from a
    /// clean machine and from one fragmented by churn of every order and
    /// use.
    #[test]
    fn allocate_run_equals_single_allocations(
        (geo, churn, frees, runs) in run_geometries().prop_flat_map(|geo| {
            let block = (0..=geo.max_order(), 0u8..3);
            (
                Just(geo),
                prop::collection::vec(block, 0..150),
                prop::collection::vec(any::<prop::sample::Index>(), 0..100),
                prop::collection::vec(1u64..300, 1..8),
            )
        }),
    ) {
        let total = 4 * geo.base_pages(geo.largest());
        check_runs_against_single_allocations(PhysicalMemory::new(geo, total), &runs);
        let mut mem = PhysicalMemory::new(geo, total);
        let mut held = Vec::new();
        for (order, use_) in churn {
            let use_ = [FrameUse::User, FrameUse::PageCache, FrameUse::Kernel][usize::from(use_)];
            if let Ok(head) = mem.allocate_order(order, use_, None) {
                held.push(head);
            }
        }
        for idx in frees {
            if held.is_empty() {
                break;
            }
            mem.free(held.swap_remove(idx.index(held.len()))).unwrap();
        }
        check_runs_against_single_allocations(mem, &runs);
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
                    if let Ok(start) = buddy.alloc(order) {
                        prop_assert_eq!(start % (1 << order), 0);
                        held.push((start, order));
                    }
                }
                Op::FreeNth(n) => {
                    if !held.is_empty() {
                        let (start, order) = held.swap_remove(n % held.len());
                        buddy.free(start, order);
                    }
                }
            }
            buddy.assert_consistent();
        }
        let held_pages: u64 = held.iter().map(|(_, o)| 1u64 << o).sum();
        prop_assert_eq!(buddy.free_pages(), total - held_pages);
        for (start, order) in held {
            buddy.free(start, order);
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
            if let Ok(start) = buddy.alloc(order) {
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
            if let Ok(head) = mem.allocate(size, FrameUse::User, None) {
                held.push(head);
            }
        }
        for idx in frees {
            if held.is_empty() { break; }
            let head = held.swap_remove(idx.index(held.len()));
            mem.free(head).unwrap();
        }
        mem.assert_consistent();
        for head in held {
            mem.free(head).unwrap();
        }
        mem.assert_consistent();
        prop_assert_eq!(mem.free_pages(), mem.total_pages());
    }

    /// FMFI is always within [0, 1] and monotone in order.
    #[test]
    fn fmfi_bounds_and_monotonicity(orders in prop::collection::vec(0u8..=6, 0..80)) {
        let mut buddy = BuddyAllocator::new(1 << 9, 9);
        for order in orders {
            let _ = buddy.alloc(order);
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
