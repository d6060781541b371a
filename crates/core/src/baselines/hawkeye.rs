//! The HawkEye baseline (ASPLOS 2019).
//!
//! HawkEye improves on THP by (a) promoting the address ranges with the
//! highest observed TLB-miss (access) frequency first, measured through
//! per-region access bins maintained by a `kbinmanager` kernel thread, and
//! (b) recovering memory bloat by demoting under-used huge pages and
//! deduplicating zero-filled pages. It manages 2MB pages only. The paper
//! notes its `kbinmanager` CPU overhead can make it *lose* to plain THP
//! for large-memory applications under fragmentation (§7).
//!
//! This model ranks promotion candidates by how many of their leaf
//! entries have the accessed bit set ([`PromoterConfig::order_by_access`]).
//! No production path clears those bits, so the rank counts the leaves
//! touched at any time since they were mapped, not the recent accesses
//! that kbinmanager's bins measure. EXPERIMENTS.md lists this under its
//! known modeling deviations.

use trident_obs::Event;
use trident_types::Vpn;
use trident_vm::AddressSpace;

use crate::fault::fault_huge_or_base;
use crate::{
    recover_bloat, CompactionKind, FaultOutcome, MmContext, PagePolicy, PolicyError, PromotedChunk,
    Promoter, PromoterConfig, PromotionStyle, SpaceSet, TickOutcome,
};

/// Free-memory fraction below which bloat recovery kicks in.
const PRESSURE_WATERMARK: f64 = 0.08;

/// The HawkEye policy.
#[derive(Debug, Clone)]
pub struct HawkEyePolicy {
    promoter: Promoter,
    promoted: Vec<PromotedChunk>,
}

impl HawkEyePolicy {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> HawkEyePolicy {
        HawkEyePolicy {
            promoter: Promoter::new(PromoterConfig {
                use_giant: false,
                use_huge: true,
                compaction: CompactionKind::Normal,
                style: PromotionStyle::Copy,
                chunk_budget: 16,
                order_by_access: true,
            }),
            promoted: Vec::new(),
        }
    }
}

impl Default for HawkEyePolicy {
    fn default() -> Self {
        HawkEyePolicy::new()
    }
}

impl PagePolicy for HawkEyePolicy {
    fn name(&self) -> String {
        "HawkEye".to_owned()
    }

    /// Fault path is THP-like: aggressive 2MB when possible.
    fn on_fault(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        vpn: Vpn,
    ) -> Result<FaultOutcome, PolicyError> {
        fault_huge_or_base(ctx, space, vpn)
    }

    fn on_tick(&mut self, ctx: &mut MmContext, spaces: &mut SpaceSet) -> TickOutcome {
        let mut out = TickOutcome::default();
        // kbinmanager: walk every space's PTEs to maintain access bins.
        // This is HawkEye's extra CPU tax relative to THP.
        let binned_pages: u64 = spaces.iter().map(|s| s.total_vma_pages()).sum();
        out.daemon_ns += 2 * binned_pages * ctx.cost.scan_page_ns;

        let (tick, promoted) = self.promoter.tick(ctx, spaces);
        out.absorb(tick);
        self.promoted.extend(promoted);

        // Bloat recovery under memory pressure.
        if ctx.mem.free_fraction() < PRESSURE_WATERMARK {
            out.absorb(recover_bloat(
                ctx,
                spaces,
                &mut self.promoted,
                PRESSURE_WATERMARK,
            ));
        }
        ctx.record(Event::DaemonTick { ns: out.daemon_ns });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_phys::PhysicalMemory;
    use trident_types::{AsId, PageGeometry, PageSize};
    use trident_vm::VmaKind;

    fn setup() -> (MmContext, SpaceSet) {
        let geo = PageGeometry::TINY;
        let ctx = MmContext::new(PhysicalMemory::new(
            geo,
            8 * geo.base_pages(PageSize::new(2)),
        ));
        let mut spaces = SpaceSet::new();
        spaces.insert(AddressSpace::new(AsId::new(1), geo));
        (ctx, spaces)
    }

    #[test]
    fn hawkeye_costs_more_daemon_time_than_thp() {
        let (mut ctx, mut spaces) = setup();
        {
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            space.mmap_at(Vpn::new(0), 128, VmaKind::Anon).unwrap();
        }
        let mut hawkeye = HawkEyePolicy::new();
        let mut thp = crate::ThpPolicy::new();
        let h = hawkeye.on_tick(&mut ctx, &mut spaces);
        let t = thp.on_tick(&mut ctx, &mut spaces);
        assert!(h.daemon_ns > t.daemon_ns);
    }

    #[test]
    fn promotes_hot_regions_and_tracks_them() {
        let (mut ctx, mut spaces) = setup();
        let mut policy = HawkEyePolicy::new();
        {
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            // A tiny VMA so faults land as 4KB pages, grown afterwards so
            // the chunk becomes huge-mappable.
            space.mmap_at(Vpn::new(0), 4, VmaKind::Anon).unwrap();
            for i in 0..4 {
                policy.on_fault(&mut ctx, space, Vpn::new(i)).unwrap();
            }
            space.mmap_at(Vpn::new(4), 12, VmaKind::Anon).unwrap();
        }
        let out = policy.on_tick(&mut ctx, &mut spaces);
        assert!(out.promotions >= 1);
        assert!(!policy.promoted.is_empty());
    }

    #[test]
    fn never_uses_giant_pages() {
        let (mut ctx, mut spaces) = setup();
        let mut policy = HawkEyePolicy::new();
        {
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            space.mmap_at(Vpn::new(0), 64, VmaKind::Anon).unwrap();
            for i in (0..64).step_by(8) {
                policy.on_fault(&mut ctx, space, Vpn::new(i)).unwrap();
            }
        }
        policy.on_tick(&mut ctx, &mut spaces);
        let space = spaces.get(AsId::new(1)).unwrap();
        assert_eq!(space.page_table().mapped_pages(PageSize::new(2)), 0);
    }
}
