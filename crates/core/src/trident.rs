//! The Trident policy (§5): transparent dynamic allocation of all page
//! sizes.

use trident_obs::{Event, SpanKind};
use trident_types::{PageSize, Vpn};
use trident_vm::AddressSpace;

use crate::fault::{fault_base, populate_runs};
use crate::{
    map_chunk, recover_bloat, touched_chunk, AllocSite, CompactionKind, FaultOutcome, MmContext,
    PagePolicy, PolicyError, PromotedChunk, Promoter, PromoterConfig, PromotionStyle, SpaceSet,
    TickOutcome,
};

/// Free-memory fraction below which bloat recovery kicks in (when
/// enabled).
const PRESSURE_WATERMARK: f64 = 0.08;

/// Giant blocks the background thread zero-fills per tick.
const ZERO_BLOCK_BUDGET: usize = 4;

/// Configuration knobs covering Trident and its ablations (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TridentConfig {
    /// Allow 2MB pages. `false` gives *Trident-1Gonly*, the ablation that
    /// shows why all large page sizes must be used together.
    pub use_huge: bool,
    /// Compaction algorithm. [`CompactionKind::Normal`] gives
    /// *Trident-NC*, the ablation isolating smart compaction's value.
    pub compaction: CompactionKind,
    /// How promotions move data; the guest side of Trident_pv switches
    /// this to [`PromotionStyle::PvBatched`].
    pub style: PromotionStyle,
    /// Recover bloat via HawkEye-style demotion (§7 "Memory bloat").
    pub bloat_recovery: bool,
    /// Promotions attempted per daemon tick.
    pub chunk_budget: usize,
}

impl TridentConfig {
    /// Full Trident: all sizes, smart compaction, copy-based promotion.
    #[must_use]
    pub fn full() -> TridentConfig {
        TridentConfig {
            use_huge: true,
            compaction: CompactionKind::Smart,
            style: PromotionStyle::Copy,
            bloat_recovery: false,
            chunk_budget: 16,
        }
    }

    /// The *Trident-1Gonly* ablation: 2MB pages disallowed.
    #[must_use]
    pub fn giant_only() -> TridentConfig {
        TridentConfig {
            use_huge: false,
            ..TridentConfig::full()
        }
    }

    /// The *Trident-NC* ablation: normal (sequential-scan) compaction.
    #[must_use]
    pub fn normal_compaction() -> TridentConfig {
        TridentConfig {
            compaction: CompactionKind::Normal,
            ..TridentConfig::full()
        }
    }

    /// Guest-side Trident_pv: batched copy-less promotion.
    #[must_use]
    pub fn paravirt() -> TridentConfig {
        TridentConfig {
            style: PromotionStyle::PvBatched,
            ..TridentConfig::full()
        }
    }
}

impl Default for TridentConfig {
    fn default() -> Self {
        TridentConfig::full()
    }
}

/// The Trident policy: 1GB first, then 2MB, then 4KB, at fault time and via
/// background promotion with smart compaction and async zero-fill.
///
/// # Examples
///
/// ```
/// use trident_core::{MmContext, PagePolicy, TridentConfig, TridentPolicy};
/// use trident_phys::PhysicalMemory;
/// use trident_types::{AsId, PageGeometry, PageSize, Vpn};
/// use trident_vm::{AddressSpace, VmaKind};
///
/// let geo = PageGeometry::TINY;
/// let mut ctx = MmContext::new(PhysicalMemory::new(geo, 8 * geo.base_pages(PageSize::new(2))));
/// let mut space = AddressSpace::new(AsId::new(1), geo);
/// space.mmap_at(Vpn::new(0), 64, VmaKind::Anon)?;
/// let mut trident = TridentPolicy::new(TridentConfig::full());
/// let outcome = trident.on_fault(&mut ctx, &mut space, Vpn::new(20))?;
/// assert_eq!(outcome.size, PageSize::new(2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TridentPolicy {
    config: TridentConfig,
    promoter: Promoter,
    /// Keeps a free giant chunk in stock for the fault handler (§5's
    /// "steady supply of free contiguous 1GB chunks").
    stock_compactor: crate::Compactor,
    /// Ticks since the stocking compactor last ran; it runs periodically,
    /// not every tick — replenishing contiguity is background work that
    /// must not crowd out promotion.
    ticks_since_stock: u32,
    promoted: Vec<PromotedChunk>,
}

impl TridentPolicy {
    /// Creates the policy from a configuration.
    #[must_use]
    pub fn new(config: TridentConfig) -> TridentPolicy {
        TridentPolicy {
            config,
            stock_compactor: crate::Compactor::new(config.compaction),
            ticks_since_stock: 0,
            promoter: Promoter::new(PromoterConfig {
                use_giant: true,
                use_huge: config.use_huge,
                compaction: config.compaction,
                style: config.style,
                chunk_budget: config.chunk_budget,
                order_by_access: false,
            }),
            promoted: Vec::new(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> TridentConfig {
        self.config
    }
}

impl Default for TridentPolicy {
    fn default() -> Self {
        TridentPolicy::new(TridentConfig::full())
    }
}

impl PagePolicy for TridentPolicy {
    fn name(&self) -> String {
        match (
            self.config.use_huge,
            self.config.compaction,
            self.config.style,
        ) {
            (false, _, _) => "Trident-1Gonly".to_owned(),
            (true, CompactionKind::Normal, _) => "Trident-NC".to_owned(),
            (true, _, PromotionStyle::Copy) => "Trident".to_owned(),
            (true, _, PromotionStyle::PvBatched) => "Trident-pv".to_owned(),
        }
    }

    /// §5.1.2: try 1GB (preferring a pre-zeroed block), then 2MB, then
    /// 4KB.
    fn on_fault(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        vpn: Vpn,
    ) -> Result<FaultOutcome, PolicyError> {
        // Outside every VMA no chunk test passes, and `fault_base`
        // reports the bad address.
        if let Some(head) = touched_chunk(space, vpn, PageSize::new(2)) {
            match map_chunk(ctx, space, head, PageSize::new(2)) {
                Ok((_, prepared)) => {
                    ctx.record_giant_attempt(AllocSite::PageFault, false);
                    let latency = ctx
                        .cost
                        .fault_ns(&ctx.geometry(), PageSize::new(2), prepared);
                    ctx.record_fault(PageSize::new(2), latency);
                    return Ok(FaultOutcome {
                        size: PageSize::new(2),
                        latency_ns: latency,
                        prepared,
                    });
                }
                Err(_) => {
                    ctx.record_giant_attempt(AllocSite::PageFault, true);
                }
            }
        }
        if self.config.use_huge {
            if let Some(head) = touched_chunk(space, vpn, PageSize::new(1)) {
                if map_chunk(ctx, space, head, PageSize::new(1)).is_ok() {
                    let latency = ctx.cost.fault_ns(&ctx.geometry(), PageSize::new(1), false);
                    ctx.record_fault(PageSize::new(1), latency);
                    return Ok(FaultOutcome {
                        size: PageSize::new(1),
                        latency_ns: latency,
                        prepared: false,
                    });
                }
            }
        }
        fault_base(ctx, space, vpn)
    }

    /// The first fault in each rung-1 chunk decides its size. When that
    /// lands at 4KB, the chunk (and the rung-2 chunk around it) is partly
    /// mapped, so the rest of it is mapped as one 4KB run. When it lands
    /// at rung 1, the rung-2 chunk is partly mapped, so the wholly
    /// unmapped rung-1 chunks after it, up to the next rung-2 boundary,
    /// are mapped at rung 1 as one run.
    fn populate(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        start: Vpn,
        pages: u64,
    ) -> Result<(), PolicyError> {
        populate_runs(self, ctx, space, start, pages, Some(PageSize::new(1)))
    }

    /// Background work: async zero-fill, Figure 5 promotion, optional
    /// bloat recovery.
    fn on_tick(&mut self, ctx: &mut MmContext, spaces: &mut SpaceSet) -> TickOutcome {
        let mut out = TickOutcome::default();
        let cost = ctx.cost;
        ctx.span_begin(SpanKind::ZeroFill);
        let (zero_ns, zeroed) = ctx.zero_pool.tick(&ctx.mem, &cost, ZERO_BLOCK_BUDGET);
        if zeroed > 0 {
            ctx.record(Event::ZeroFill { blocks: zeroed });
        }
        ctx.span_end(SpanKind::ZeroFill, zero_ns);
        out.daemon_ns += zero_ns;

        let (tick, promoted) = self.promoter.tick(ctx, spaces);
        out.absorb(tick);
        self.promoted.extend(promoted);

        // Keep a free giant chunk in stock so the *fault handler* can
        // occasionally win a 1GB allocation even under fragmentation; the
        // zero-fill thread will pre-zero it next tick. Runs periodically.
        self.ticks_since_stock += 1;
        if self.ticks_since_stock >= 8 && !ctx.mem.has_free(PageSize::new(2)) {
            self.ticks_since_stock = 0;
            let c = self.stock_compactor.compact(ctx, spaces, PageSize::new(2));
            out.daemon_ns += c.ns;
            out.compaction_runs += 1;
        }

        if self.config.bloat_recovery && ctx.mem.free_fraction() < PRESSURE_WATERMARK {
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
    use trident_obs::NoopRecorder;
    use trident_phys::{FrameUse, PhysicalMemory};
    use trident_types::{AsId, PageGeometry};
    use trident_vm::VmaKind;

    fn setup(regions: u64) -> (MmContext, SpaceSet) {
        let geo = PageGeometry::TINY;
        let ctx = MmContext::new(PhysicalMemory::new(
            geo,
            regions * geo.base_pages(PageSize::new(2)),
        ));
        let mut spaces = SpaceSet::new();
        spaces.insert(AddressSpace::new(AsId::new(1), geo));
        (ctx, spaces)
    }

    #[test]
    fn fault_prefers_prepared_giant_blocks() {
        let (mut ctx, mut spaces) = setup(4);
        let mut policy = TridentPolicy::default();
        {
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            space.mmap_at(Vpn::new(0), 128, VmaKind::Anon).unwrap();
        }
        // First fault: no prepared blocks -> synchronous 400ms path.
        let space = spaces.get_mut(AsId::new(1)).unwrap();
        let slow = policy.on_fault(&mut ctx, space, Vpn::new(0)).unwrap();
        assert_eq!(slow.size, PageSize::new(2));
        assert!(!slow.prepared);
        assert_eq!(
            slow.latency_ns,
            ctx.cost.fault_ns(&ctx.geometry(), PageSize::new(2), false)
        );
        // Let the zero-fill thread run, then fault the second chunk.
        policy.on_tick(&mut ctx, &mut spaces);
        let space = spaces.get_mut(AsId::new(1)).unwrap();
        let fast = policy.on_fault(&mut ctx, space, Vpn::new(64)).unwrap();
        assert!(fast.prepared);
        assert_eq!(
            fast.latency_ns,
            ctx.cost.fault_ns(&ctx.geometry(), PageSize::new(2), true)
        );
        assert!(fast.latency_ns < slow.latency_ns / 100);
    }

    #[test]
    fn fault_falls_back_giant_to_huge_to_base() {
        let (mut ctx, mut spaces) = setup(2);
        // Break all giant chunks but leave huge chunks.
        ctx.mem
            .allocate_in_region(0, 0, FrameUse::Kernel, None, &mut NoopRecorder)
            .unwrap();
        ctx.mem
            .allocate_in_region(1, 0, FrameUse::Kernel, None, &mut NoopRecorder)
            .unwrap();
        let mut policy = TridentPolicy::default();
        let space = spaces.get_mut(AsId::new(1)).unwrap();
        space.mmap_at(Vpn::new(0), 64, VmaKind::Anon).unwrap();
        let out = policy.on_fault(&mut ctx, space, Vpn::new(9)).unwrap();
        assert_eq!(out.size, PageSize::new(1));
        assert_eq!(ctx.snapshot().giant_failures_fault, 1);
        // Now exhaust huge chunks too; remaining faults are 4KB.
        while ctx.mem.has_free(PageSize::new(1)) {
            ctx.mem
                .allocate(PageSize::new(1), FrameUse::Kernel, None, &mut NoopRecorder)
                .unwrap();
        }
        let out = policy.on_fault(&mut ctx, space, Vpn::new(20)).unwrap();
        assert_eq!(out.size, PageSize::BASE);
    }

    #[test]
    fn giant_only_ablation_skips_huge_pages() {
        let (mut ctx, mut spaces) = setup(2);
        ctx.mem
            .allocate_in_region(0, 0, FrameUse::Kernel, None, &mut NoopRecorder)
            .unwrap();
        ctx.mem
            .allocate_in_region(1, 0, FrameUse::Kernel, None, &mut NoopRecorder)
            .unwrap();
        let mut policy = TridentPolicy::new(TridentConfig::giant_only());
        assert_eq!(policy.name(), "Trident-1Gonly");
        let space = spaces.get_mut(AsId::new(1)).unwrap();
        space.mmap_at(Vpn::new(0), 64, VmaKind::Anon).unwrap();
        // Giant fails (fragmented), huge disallowed: 4KB it is.
        let out = policy.on_fault(&mut ctx, space, Vpn::new(9)).unwrap();
        assert_eq!(out.size, PageSize::BASE);
    }

    #[test]
    fn tick_promotes_and_prezeros() {
        let (mut ctx, mut spaces) = setup(8);
        let mut policy = TridentPolicy::default();
        {
            // Fault 4KB pages into an initially tiny VMA (too small even
            // for a huge chunk), then grow it so the chunk becomes
            // giant-mappable — the incremental-allocator pattern of Redis.
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            space.mmap_at(Vpn::new(0), 4, VmaKind::Anon).unwrap();
            for i in 0..4 {
                policy.on_fault(&mut ctx, space, Vpn::new(i)).unwrap();
            }
            space.mmap_at(Vpn::new(4), 124, VmaKind::Anon).unwrap();
        }
        let out = policy.on_tick(&mut ctx, &mut spaces);
        assert!(out.promotions >= 1);
        assert!(ctx.snapshot().giant_blocks_prezeroed >= 1);
        let space = spaces.get(AsId::new(1)).unwrap();
        assert!(space.page_table().mapped_pages(PageSize::new(2)) >= 1);
    }

    #[test]
    fn names_reflect_ablation_configs() {
        assert_eq!(TridentPolicy::new(TridentConfig::full()).name(), "Trident");
        assert_eq!(
            TridentPolicy::new(TridentConfig::normal_compaction()).name(),
            "Trident-NC"
        );
        assert_eq!(
            TridentPolicy::new(TridentConfig::paravirt()).name(),
            "Trident-pv"
        );
    }

    #[test]
    fn bloat_recovery_demotes_under_pressure() {
        let (mut ctx, mut spaces) = setup(4);
        let mut config = TridentConfig::full();
        config.bloat_recovery = true;
        let mut policy = TridentPolicy::new(config);
        {
            // Sparse touch then grow: promotion will create bloat.
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            space.mmap_at(Vpn::new(0), 4, VmaKind::Anon).unwrap();
            for i in 0..4 {
                policy.on_fault(&mut ctx, space, Vpn::new(i)).unwrap();
            }
            space.mmap_at(Vpn::new(4), 60, VmaKind::Anon).unwrap();
        }
        policy.on_tick(&mut ctx, &mut spaces);
        assert!(ctx.snapshot().bloat_pages > 0);
        // Create memory pressure by grabbing almost everything free.
        while ctx.mem.free_fraction() > 0.05 {
            if ctx
                .mem
                .allocate_order(0, FrameUse::Kernel, None, &mut NoopRecorder)
                .is_err()
            {
                break;
            }
        }
        policy.on_tick(&mut ctx, &mut spaces);
        assert!(ctx.snapshot().bloat_recovered_pages > 0);
    }
}
