//! Property tests over workload plans, layouts and samplers.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use trident_types::{AsId, PageGeometry, Vpn};
use trident_vm::AddressSpace;
use trident_workloads::{AccessSampler, ChunkRange, Layout, MemoryScale, WorkloadSpec};

fn any_workload() -> impl Strategy<Value = WorkloadSpec> {
    (0..WorkloadSpec::all().len()).prop_map(|i| WorkloadSpec::all()[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A plan's heap steps sum exactly to the scaled footprint, and the
    /// realized layout agrees.
    #[test]
    fn plans_cover_the_scaled_footprint(spec in any_workload(), seed in any::<u64>()) {
        let geo = PageGeometry::X86_64;
        let scale = MemoryScale::new(128);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut space = AddressSpace::new(AsId::new(1), geo);
        let layout = spec.build_layout(&mut space, scale, &mut rng);
        let expected = geo.pages_for_bytes(scale.apply(spec.footprint_bytes)).max(1);
        prop_assert_eq!(layout.heap_pages, expected);
        let vma_total = space.total_vma_pages();
        prop_assert_eq!(vma_total, layout.heap_pages + layout.stack.pages);
    }

    /// Every sampled access lands inside an allocated VMA.
    #[test]
    fn samples_stay_in_bounds(spec in any_workload(), seed in any::<u64>()) {
        let geo = PageGeometry::X86_64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut space = AddressSpace::new(AsId::new(1), geo);
        let layout = spec.build_layout(&mut space, MemoryScale::new(256), &mut rng);
        let mut sampler = AccessSampler::new(spec, layout);
        for _ in 0..500 {
            let access = sampler.sample(&mut rng);
            prop_assert!(
                space.vma_containing(access.vpn).is_some(),
                "{}: access {} outside every VMA",
                spec.name,
                access.vpn
            );
        }
    }

    /// Heap chunks never overlap and appear in ascending address order.
    #[test]
    fn heap_chunks_are_disjoint_and_ordered(spec in any_workload(), seed in any::<u64>()) {
        let geo = PageGeometry::X86_64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut space = AddressSpace::new(AsId::new(1), geo);
        let layout = spec.build_layout(&mut space, MemoryScale::new(256), &mut rng);
        for pair in layout.heap.windows(2) {
            prop_assert!(pair[0].start.raw() + pair[0].pages <= pair[1].start.raw());
        }
    }

    /// The bucketed search resolves every heap index — so every bucket
    /// boundary and both ends of the heap — to the same page as the
    /// linear chunk walk, over chunks of 0 to 5,000 pages mixed with
    /// 1-page ones and empty ones.
    #[test]
    fn heap_page_matches_the_linear_scan(
        chunks in prop::collection::vec(
            (0u64..5, prop_oneof![Just(1u64), Just(0u64), 0u64..5_001, 1u64..4]),
            1..48,
        ),
    ) {
        let mut next = 0u64;
        let mut ranges: Vec<ChunkRange> = chunks
            .iter()
            .map(|&(gap, pages)| {
                let start = Vpn::new(next + gap);
                next = start.raw() + pages;
                ChunkRange { start, pages }
            })
            .collect();
        ranges.push(ChunkRange { start: Vpn::new(next + 1_000), pages: 8 });
        let layout = Layout::from_ranges(ranges);
        prop_assert_eq!(layout.heap_pages, chunks.iter().map(|c| c.1).sum::<u64>());
        let mut index = 0;
        for chunk in &layout.heap {
            for offset in 0..chunk.pages {
                prop_assert_eq!(layout.heap_page(index), chunk.start + offset, "index {}", index);
                index += 1;
            }
        }
        prop_assert_eq!(index, layout.heap_pages);
    }
}
