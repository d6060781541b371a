//! A virtualized machine: guest policy over gPA, host policy over hPA.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use trident_core::{ObsRecorder, RingTracer};
use trident_phys::{Fragmenter, PhysMemError};
use trident_tlb::{TlbHierarchy, TranslationEngine, WalkCostModel};
use trident_types::{AsId, PageSize, TridentError, Vpn};
use trident_virt::{Hypervisor, VirtualMachine};
use trident_vm::AddressSpace;
use trident_workloads::{AccessSampler, AllocPlan, Layout, WorkloadSpec};

use crate::{DaemonGovernor, Measurement, PolicyKind, SimConfig};

/// A guest workload running in a VM over a hypervisor, with nested
/// translation costs (§2: up to 24 accesses for 4KB+4KB, 15 for 2MB+2MB,
/// 8 for 1GB+1GB).
///
/// # Examples
///
/// ```no_run
/// use trident_sim::{PolicyKind, SimConfig, VirtSystem};
/// use trident_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::by_name("SVM").unwrap();
/// let mut vs = VirtSystem::launch(
///     SimConfig::at_scale(64),
///     PolicyKind::Trident,
///     PolicyKind::Trident,
///     spec,
///     false,
/// )?;
/// vs.settle();
/// let m = vs.measure();
/// println!("nested walk cycles: {}", m.walk_cycles);
/// # Ok::<(), trident_phys::PhysMemError>(())
/// ```
pub struct VirtSystem {
    /// The run configuration.
    pub config: SimConfig,
    /// The hypervisor (host level).
    pub hyp: Hypervisor,
    /// The virtual machine (guest level).
    pub vm: VirtualMachine,
    engine: TranslationEngine,
    rng: SmallRng,
    guest_governor: DaemonGovernor,
    guest_fragmenter: Option<Fragmenter>,
    sampler: AccessSampler,
    asid: AsId,
    touched: u64,
}

impl std::fmt::Debug for VirtSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtSystem")
            .field("host", &self.hyp.policy_name())
            .field("guest", &self.vm.kernel.policy.name())
            .finish()
    }
}

impl VirtSystem {
    /// Boots a hypervisor with `host_kind`, a VM with `guest_kind`, and
    /// loads `spec` inside the VM. With `fragment_guest`, guest-physical
    /// memory is fragmented before the workload runs (Figure 13's
    /// setting; the guest daemon is additionally governed by
    /// `config.daemon_cap`).
    ///
    /// # Errors
    ///
    /// Propagates reservation failures from either level's policy, and
    /// [`TridentError::OutOfContiguousMemory`] when loading the workload
    /// runs either level out of memory that no guest page cache can give
    /// back.
    pub fn launch(
        config: SimConfig,
        host_kind: PolicyKind,
        guest_kind: PolicyKind,
        spec: WorkloadSpec,
        fragment_guest: bool,
    ) -> Result<VirtSystem, PhysMemError> {
        let geo = config.geo;
        let workload_pages = geo
            .pages_for_bytes(config.scale.apply(spec.footprint_bytes))
            .max(1);
        // Guest RAM: footprint plus 50% headroom, rounded up to whole
        // giant pages, and never more than the host can back.
        let gp = geo.base_pages(PageSize::new(2));
        let guest_pages = ((workload_pages + workload_pages / 2).div_ceil(gp).max(1) * gp)
            .min(config.host_pages() / gp * gp)
            .max(gp.min(config.host_pages()));
        let mut hyp = Hypervisor::new(geo, config.host_pages(), |ctx| {
            host_kind.build(ctx, guest_pages)
        })?;
        let mut vm = hyp.create_vm(guest_pages, |ctx| guest_kind.build(ctx, workload_pages))?;
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x7419_de57);
        let guest_fragmenter = if fragment_guest {
            let profile = config
                .fragment
                .unwrap_or_else(trident_phys::FragmentProfile::heavy);
            let mut f = Fragmenter::new(profile);
            f.run(&mut vm.kernel.ctx.mem, &mut rng);
            Some(f)
        } else {
            None
        };
        let asid = AsId::new(1);
        vm.kernel.spaces.insert(AddressSpace::new(asid, geo));
        // Profiling a virtualized run derives the profile from the merged
        // guest+host trace at measurement end, so it needs rings even when
        // the caller did not ask for a trace explicitly.
        let ring_capacity = config
            .trace_capacity
            .or_else(|| config.profile.then_some(1 << 20));
        if let Some(capacity) = ring_capacity {
            vm.kernel.ctx.recorder = ObsRecorder::ring(capacity);
            hyp.ctx.recorder = ObsRecorder::ring(capacity);
        }
        // Both levels fail independently but deterministically: each gets
        // its own injector over the same plan (per-context decision
        // streams are keyed by site, not by context).
        if let Some(plan) = config.fault {
            vm.kernel.ctx.fault = trident_core::FaultInjector::new(plan);
            hyp.ctx.fault = trident_core::FaultInjector::new(plan);
        }
        let engine =
            TranslationEngine::new(TlbHierarchy::with_geometry(geo), WalkCostModel::default());
        let mut vs = VirtSystem {
            guest_governor: DaemonGovernor::new(config.daemon_cap, config.tick_interval_app_ns),
            config,
            hyp,
            vm,
            engine,
            rng,
            guest_fragmenter,
            sampler: AccessSampler::new(
                spec,
                Layout::from_ranges(vec![trident_workloads::ChunkRange {
                    start: Vpn::new(0),
                    pages: 1,
                }]),
            ),
            asid,
            touched: 0,
        };
        vs.load(spec)?;
        Ok(vs)
    }

    fn load(&mut self, spec: WorkloadSpec) -> Result<(), TridentError> {
        let geo = self.config.geo;
        let plan = spec.plan(geo, self.config.scale, &mut self.rng);
        let mut ranges = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let range = {
                let space = self
                    .vm
                    .kernel
                    .spaces
                    .get_mut(self.asid)
                    .expect("workload space");
                AllocPlan::execute_step(space, step)
            };
            for i in 0..range.pages {
                self.touch_populate(range.start + i)?;
            }
            ranges.push(range);
        }
        self.sampler = AccessSampler::new(spec, Layout::from_ranges(ranges));
        Ok(())
    }

    /// Touches one workload page at load time. Out of memory, the guest
    /// first gives back page cache (a fragmented guest holds some), then
    /// retries once; the retry's error, or any other, is the caller's.
    fn touch_populate(&mut self, vpn: Vpn) -> Result<(), TridentError> {
        if self.vm.kernel.ctx.mem.free_fraction() < 0.02 {
            if let Some(f) = &mut self.guest_fragmenter {
                f.reclaim(&mut self.vm.kernel.ctx.mem, 1 << 15);
            }
        }
        let mut touched = self.vm.touch(&mut self.hyp, self.asid, vpn, false);
        if let (Err(TridentError::OutOfContiguousMemory(_)), Some(f)) =
            (&touched, &mut self.guest_fragmenter)
        {
            f.reclaim(&mut self.vm.kernel.ctx.mem, 1 << 16);
            touched = self.vm.touch(&mut self.hyp, self.asid, vpn, false);
        }
        touched?;
        self.touched += 1;
        if self.touched.is_multiple_of(self.config.tick_interval_pages) {
            self.tick();
        }
        Ok(())
    }

    /// One tick of both daemons: the governed guest daemon and the host's.
    pub fn tick(&mut self) -> (trident_core::TickOutcome, trident_core::TickOutcome) {
        let guest = self.guest_governor.tick(
            self.vm.kernel.policy.as_mut(),
            &mut self.vm.kernel.ctx,
            &mut self.vm.kernel.spaces,
        );
        let host = self.hyp.tick();
        (guest, host)
    }

    /// Runs daemons until quiet.
    pub fn settle(&mut self) {
        let mut quiet = 0;
        for _ in 0..self.config.settle_ticks {
            let (g, h) = self.tick();
            if g.promotions == 0
                && h.promotions == 0
                && g.compaction_runs == 0
                && h.compaction_runs == 0
                && self.guest_governor.debt_ns() == 0
            {
                quiet += 1;
                if quiet >= 3 {
                    break;
                }
            } else {
                quiet = 0;
            }
        }
    }

    /// Samples guest accesses through both translation levels and the
    /// nested TLB cost model.
    pub fn measure(&mut self) -> Measurement {
        let warmup = self.config.measure_samples / 10;
        for _ in 0..warmup {
            self.measured_access();
        }
        self.engine.reset_stats();
        let mut until_tick = self.config.measure_tick_every;
        for _ in 0..self.config.measure_samples {
            self.measured_access();
            until_tick -= 1;
            if until_tick == 0 {
                until_tick = self.config.measure_tick_every;
                let (g, h) = self.tick();
                if g.promotions > 0 || h.promotions > 0 {
                    self.engine.flush();
                }
            }
        }
        let tlb = *self.engine.stats();
        // Combine the two levels' MM costs: guest faults and daemons plus
        // host (EPT) faults and daemons all stall or contend with the VM.
        let mut snapshot = self.vm.kernel.ctx.snapshot();
        let host = self.hyp.ctx.snapshot();
        for i in 0..3 {
            snapshot.fault_ns[i] += host.fault_ns[i];
            snapshot.faults[i] += host.faults[i];
        }
        snapshot.daemon_ns += host.daemon_ns;
        // Guest events first, then host: a fixed merge order keeps traces
        // deterministic.
        let trace_dropped = self
            .vm
            .kernel
            .ctx
            .recorder
            .tracer()
            .map_or(0, RingTracer::dropped)
            + self
                .hyp
                .ctx
                .recorder
                .tracer()
                .map_or(0, RingTracer::dropped);
        let mut trace = self
            .vm
            .kernel
            .ctx
            .recorder
            .tracer_mut()
            .map(RingTracer::drain)
            .unwrap_or_default();
        trace.extend(
            self.hyp
                .ctx
                .recorder
                .tracer_mut()
                .map(RingTracer::drain)
                .unwrap_or_default(),
        );
        // The virtualized profile is a replay of the merged trace (a pure
        // fold, so "replay == live" holds by construction); span pairing
        // is per-level because the merge order keeps each level's events
        // contiguous.
        let profile = self
            .config
            .profile
            .then(|| Box::new(trident_prof::Profile::from_events(1, trace.iter())));
        let space = self
            .vm
            .kernel
            .spaces
            .get(self.asid)
            .expect("workload space");
        Measurement {
            samples: self.config.measure_samples,
            walks: tlb.total_walks(),
            walk_cycles: tlb.total_walk_cycles(),
            tlb,
            snapshot,
            trace,
            trace_dropped,
            profile,
            mapped_bytes: {
                let geo = self.config.geo;
                let mut mapped = [0u64; trident_types::MAX_RUNGS];
                for size in geo.rungs() {
                    mapped[size.rung()] = space.page_table().mapped_bytes(size);
                }
                mapped
            },
            miss_by_chunk: Vec::new(),
            tenants: Vec::new(),
        }
    }

    fn measured_access(&mut self) {
        let access = self.sampler.sample(&mut self.rng);
        let nested = self
            .vm
            .touch(&mut self.hyp, self.asid, access.vpn, access.write)
            .expect("measurement touch");
        self.engine.translate_nested_rec(
            access.vpn,
            nested.guest_size,
            nested.host_size,
            &mut self.vm.kernel.ctx.recorder,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SimConfig {
        let mut c = SimConfig::at_scale(256);
        c.measure_samples = 4_000;
        c.measure_tick_every = 2_000;
        c.settle_ticks = 12;
        c
    }

    #[test]
    fn trident_at_both_levels_maps_large_pages_everywhere() {
        let spec = WorkloadSpec::by_name("GUPS").unwrap();
        let mut vs = VirtSystem::launch(
            quick_config(),
            PolicyKind::Trident,
            PolicyKind::Trident,
            spec,
            false,
        )
        .unwrap();
        vs.settle();
        let guest = vs.vm.kernel.spaces.get(vs.asid).unwrap().page_table();
        let large = guest.mapped_bytes(PageSize::new(1)) + guest.mapped_bytes(PageSize::new(2));
        assert!(large > 0);
    }

    #[test]
    fn base_plus_base_pays_nested_walks() {
        let spec = WorkloadSpec::by_name("Btree").unwrap();
        let mut base = VirtSystem::launch(
            quick_config(),
            PolicyKind::Base,
            PolicyKind::Base,
            spec,
            false,
        )
        .unwrap();
        base.settle();
        let m_base = base.measure();
        let mut thp = VirtSystem::launch(
            quick_config(),
            PolicyKind::Thp,
            PolicyKind::Thp,
            spec,
            false,
        )
        .unwrap();
        thp.settle();
        let m_thp = thp.measure();
        assert!(
            m_base.walk_cycles > m_thp.walk_cycles,
            "4KB+4KB ({}) should out-walk 2MB+2MB ({})",
            m_base.walk_cycles,
            m_thp.walk_cycles
        );
    }

    #[test]
    fn fragmented_guest_still_loads() {
        let spec = WorkloadSpec::by_name("Canneal").unwrap();
        let mut config = quick_config();
        config.daemon_cap = Some(0.1);
        let mut vs =
            VirtSystem::launch(config, PolicyKind::Thp, PolicyKind::TridentPv, spec, true).unwrap();
        vs.settle();
        let m = vs.measure();
        assert!(m.walks > 0 || m.walk_cycles == 0);
        vs.vm.kernel.ctx.mem.assert_consistent();
        vs.hyp.ctx.mem.assert_consistent();
    }
}
