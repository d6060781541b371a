//! Every core error/degradation path must be reachable from a fault plan
//! alone — no hand-crafted memory exhaustion required.

use trident_core::{
    check_mm_consistent, map_chunk, CompactionKind, Compactor, FaultInjector, FaultPlan,
    InjectSite, MmContext, Promoter, PromoterConfig, SpaceSet,
};
use trident_phys::PhysicalMemory;
use trident_types::{AsId, PageGeometry, PageSize, TridentError, Vpn};
use trident_vm::{AddressSpace, VmaKind};

fn always(site: InjectSite) -> FaultInjector {
    FaultInjector::new(
        FaultPlan::builder(99)
            .site(site, 1000)
            .build()
            .expect("valid probability"),
    )
}

fn setup() -> (MmContext, SpaceSet) {
    let geo = PageGeometry::TINY;
    let ctx = MmContext::new(PhysicalMemory::new(
        geo,
        4 * geo.base_pages(PageSize::new(2)),
    ));
    let mut spaces = SpaceSet::new();
    let mut space = AddressSpace::new(AsId::new(1), geo);
    space.mmap_at(Vpn::new(0), 128, VmaKind::Anon).unwrap();
    spaces.insert(space);
    (ctx, spaces)
}

#[test]
fn alloc_injection_surfaces_as_out_of_contiguous_memory() {
    let (mut ctx, mut spaces) = setup();
    ctx.fault = always(InjectSite::Alloc);
    for size in [PageSize::new(1), PageSize::new(2)] {
        let space = spaces.get_mut(AsId::new(1)).unwrap();
        let err = map_chunk(&mut ctx, space, Vpn::new(0), size).unwrap_err();
        let TridentError::OutOfContiguousMemory(alloc) = err else {
            panic!("expected OutOfContiguousMemory, got {err}");
        };
        assert_eq!(alloc.order, ctx.geometry().order(size));
        // The error chains to the allocation failure (satellite: source()).
        assert!(std::error::Error::source(&err).is_some());
    }
    // Base pages are the last-resort path and are never injected.
    let space = spaces.get_mut(AsId::new(1)).unwrap();
    assert!(map_chunk(&mut ctx, space, Vpn::new(0), PageSize::BASE).is_ok());
    assert_eq!(ctx.fault.injected(InjectSite::Alloc), 2);
    assert_eq!(
        ctx.snapshot().injected_faults[InjectSite::Alloc as usize],
        2
    );
}

#[test]
fn compaction_injection_aborts_the_run_and_is_traced() {
    let geo = PageGeometry::TINY;
    // A single giant block: one base mapping breaks it, so `has_free`
    // cannot short-circuit and the compactor actually runs.
    let mut ctx = MmContext::new(PhysicalMemory::new(geo, geo.base_pages(PageSize::new(2))));
    let mut spaces = SpaceSet::new();
    let mut space = AddressSpace::new(AsId::new(1), geo);
    space.mmap_at(Vpn::new(0), 128, VmaKind::Anon).unwrap();
    spaces.insert(space);
    let space = spaces.get_mut(AsId::new(1)).unwrap();
    map_chunk(&mut ctx, space, Vpn::new(0), PageSize::BASE).unwrap();
    ctx.fault = always(InjectSite::Compaction);
    let mut compactor = Compactor::new(CompactionKind::Smart);
    let out = compactor.compact(&mut ctx, &mut spaces, PageSize::new(2));
    assert!(!out.success, "injected abort must fail the run");
    let snap = ctx.snapshot();
    assert_eq!(snap.injected_at(InjectSite::Compaction), 1);
    assert_eq!(snap.compaction_attempts, 1);
    assert_eq!(snap.compaction_successes, 0);
    assert_eq!(snap.compaction_bytes_copied, 0, "aborted before any move");
    assert!(check_mm_consistent(&ctx, &spaces).is_ok());
}

#[test]
fn promotion_injection_defers_instead_of_promoting() {
    let (mut ctx, mut spaces) = setup();
    let space = spaces.get_mut(AsId::new(1)).unwrap();
    for i in 0..64 {
        map_chunk(&mut ctx, space, Vpn::new(i), PageSize::BASE).unwrap();
    }
    ctx.fault = always(InjectSite::Promotion);
    let mut promoter = Promoter::new(PromoterConfig::trident());
    let (out, promoted) = promoter.tick(&mut ctx, &mut spaces);
    assert_eq!(out.promotions, 0);
    assert!(promoted.is_empty());
    let snap = ctx.snapshot();
    assert!(snap.promotions_deferred > 0);
    assert!(snap.injected_at(InjectSite::Promotion) > 0);
    assert!(check_mm_consistent(&ctx, &spaces).is_ok());
    // Disarming the plan lets the exact same promoter promote again.
    ctx.fault = FaultInjector::disabled();
    let (out, promoted) = promoter.tick(&mut ctx, &mut spaces);
    assert!(out.promotions > 0, "promotion resumes once faults stop");
    assert!(!promoted.is_empty());
}
