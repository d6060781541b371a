//! Property tests for the per-region counters: they must always agree
//! with a brute-force recount of the frame table.

use proptest::prelude::*;
use trident_obs::NoopRecorder;
use trident_phys::{FrameUse, PhysicalMemory};
use trident_types::{PageGeometry, Pfn};

fn any_use() -> impl Strategy<Value = FrameUse> {
    prop_oneof![
        Just(FrameUse::User),
        Just(FrameUse::PageCache),
        Just(FrameUse::Kernel)
    ]
}

proptest! {
    /// After arbitrary allocation traffic, every region's free counter
    /// equals its recounted free frames and its unmovable counter equals
    /// the recounted kernel frames.
    #[test]
    fn region_counters_match_recount(
        allocs in prop::collection::vec((0u8..=6, any_use()), 1..120),
        frees in prop::collection::vec(any::<prop::sample::Index>(), 0..80),
    ) {
        let geo = PageGeometry::TINY;
        let mut mem = PhysicalMemory::new(geo, 8 * geo.base_pages(geo.largest()));
        let mut held: Vec<Pfn> = Vec::new();
        for (order, use_) in allocs {
            if let Ok(head) = mem.allocate_order(order, use_, None, &mut NoopRecorder) {
                held.push(head);
            }
        }
        for idx in frees {
            if held.is_empty() { break; }
            let head = held.swap_remove(idx.index(held.len()));
            mem.free(head, &mut NoopRecorder).unwrap();
        }
        let region_pages = geo.base_pages(geo.largest());
        for region in 0..mem.regions().region_count() {
            let counters = mem.regions().counters(region);
            let start = region * region_pages;
            let mut used = 0;
            let mut unmovable = 0;
            for unit in mem.units_in_region(region) {
                used += unit.pages();
                if !unit.use_.is_movable() {
                    unmovable += unit.pages();
                }
            }
            prop_assert_eq!(
                counters.free_pages,
                region_pages - used,
                "region {} free count drifted (start {})", region, start
            );
            prop_assert_eq!(counters.unmovable_pages, unmovable);
        }
        mem.assert_consistent();
    }

    /// Source candidates never include regions with unmovable content or
    /// fully-free regions; target candidates never include full regions.
    #[test]
    fn candidate_filters_hold(
        allocs in prop::collection::vec((0u8..=5, any_use()), 1..100),
    ) {
        let geo = PageGeometry::TINY;
        let mut mem = PhysicalMemory::new(geo, 8 * geo.base_pages(geo.largest()));
        for (order, use_) in allocs {
            let _ = mem.allocate_order(order, use_, None, &mut NoopRecorder);
        }
        let region_pages = geo.base_pages(geo.largest());
        for source in mem.regions().source_candidates() {
            let c = mem.regions().counters(source);
            prop_assert_eq!(c.unmovable_pages, 0);
            prop_assert!(c.free_pages < region_pages);
        }
        for target in mem.regions().target_candidates(0) {
            prop_assert!(target != 0);
            prop_assert!(mem.regions().counters(target).free_pages > 0);
        }
    }
}
