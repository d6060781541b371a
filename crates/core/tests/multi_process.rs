//! Multi-process behaviour: Figure 5's flowchart starts with "select
//! candidate process P" — khugepaged round-robins across processes, and
//! compaction must fix up *any* process's page tables through the reverse
//! map.

use trident_core::{
    assert_mm_consistent, map_chunk, CompactionKind, Compactor, MmContext, NoopRecorder,
    PagePolicy, SpaceSet, TridentConfig, TridentPolicy,
};
use trident_phys::PhysicalMemory;
use trident_types::{AsId, PageGeometry, PageSize, Vpn};
use trident_vm::{AddressSpace, VmaKind};

fn setup(processes: u32) -> (MmContext, SpaceSet) {
    let geo = PageGeometry::TINY;
    let ctx = MmContext::new(PhysicalMemory::new(
        geo,
        32 * geo.base_pages(PageSize::new(2)),
    ));
    let mut spaces = SpaceSet::new();
    for p in 1..=processes {
        spaces.insert(AddressSpace::new(AsId::new(p), geo));
    }
    (ctx, spaces)
}

/// Fault 4KB pages over a fresh giant-aligned VMA in one process.
fn populate_base(ctx: &mut MmContext, spaces: &mut SpaceSet, asid: AsId, giants: u64) {
    let geo = ctx.geometry();
    let pages = giants * geo.base_pages(PageSize::new(2));
    let space = spaces.get_mut(asid).expect("space");
    let start = space
        .mmap(pages, VmaKind::Anon, PageSize::new(2), 0)
        .expect("mmap");
    for i in 0..pages {
        let space = spaces.get_mut(asid).expect("space");
        map_chunk(ctx, space, start + i, PageSize::BASE).expect("fault");
    }
}

#[test]
fn khugepaged_round_robins_across_processes() {
    let (mut ctx, mut spaces) = setup(3);
    for p in 1..=3 {
        populate_base(&mut ctx, &mut spaces, AsId::new(p), 2);
    }
    let mut policy = TridentPolicy::new(TridentConfig::full());
    // Three ticks: one candidate process each; all should end up promoted.
    for _ in 0..3 {
        policy.on_tick(&mut ctx, &mut spaces);
    }
    for p in 1..=3 {
        let space = spaces.get(AsId::new(p)).expect("space");
        assert!(
            space.page_table().mapped_pages(PageSize::new(2)) >= 2,
            "process {p} was skipped by the round-robin"
        );
    }
    assert_mm_consistent(&ctx, &spaces);
}

#[test]
fn compaction_fixes_page_tables_of_every_owner() {
    let (mut ctx, mut spaces) = setup(4);
    let geo = ctx.geometry();
    // Interleave single-page allocations from four processes so every
    // region holds frames owned by several address spaces.
    let gp = geo.base_pages(PageSize::new(2));
    for i in 0..(32 * gp) {
        let asid = AsId::new((i % 4 + 1) as u32);
        let space = spaces.get_mut(asid).expect("space");
        let vpn = if space.vma_containing(Vpn::new(i)).is_none() {
            space.mmap_at(Vpn::new(i), 1, VmaKind::Anon).ok();
            Vpn::new(i)
        } else {
            Vpn::new(i)
        };
        map_chunk(&mut ctx, space, vpn, PageSize::BASE).expect("fault");
    }
    // Free three of every four pages to fragment, keeping process 1's.
    for p in 2..=4 {
        let heads: Vec<_> = {
            let space = spaces.get(AsId::new(p)).expect("space");
            let vmas: Vec<_> = space.vmas().copied().collect();
            vmas.iter()
                .flat_map(|v| space.page_table().mappings_in(v.start, v.pages))
                .collect()
        };
        let space = spaces.get_mut(AsId::new(p)).expect("space");
        for leaf in heads {
            space.page_table_mut().unmap(leaf.vpn).expect("unmap");
            ctx.mem.free(leaf.pfn, &mut NoopRecorder).expect("free");
        }
    }
    assert!(!ctx.mem.has_free(PageSize::new(2)));
    let out =
        Compactor::new(CompactionKind::Smart).compact(&mut ctx, &mut spaces, PageSize::new(2));
    assert!(out.success);
    assert!(out.migrated_units > 0);
    // Process 1's mappings all survived migration and still resolve.
    assert_mm_consistent(&ctx, &spaces);
}
