//! The performance model.
//!
//! The paper reports two headline quantities per (application,
//! configuration) pair: the *fraction of execution cycles spent in page
//! walks* (Figures 1a, 2a, 9b, 10b) and *normalized performance*
//! (Figures 1b, 2b, 9a, 10a, 11, 12, 13). We reproduce them with a simple
//! composition, documented in DESIGN.md §5:
//!
//! * The TLB simulation yields walk cycles per sampled access; an
//!   application-specific *overlap* factor models the walk latency an
//!   out-of-order core hides (§4.1 notes walk-cycle reductions do not
//!   translate 1:1 into speedup).
//! * Each application's measured 4KB-page walk-cycle fraction (Figure 1a)
//!   anchors its compute cycles per access: if the app spends fraction
//!   `f` of its time walking under 4KB pages, compute = walk₄ₖ·(1−f)/f.
//! * Memory-management overhead is folded in on the same time base:
//!   fault latency sits on the critical path; daemon CPU time contends
//!   for cores in proportion to how many the application itself uses.
//!
//! [`PerfPoint::evaluate`] is a pure function of one measurement and its
//! application's 4KB anchor measurement: it holds no state and launches
//! no run. Experiments schedule the anchor as a cell of their grid.

use trident_core::CostModel;
use trident_workloads::WorkloadSpec;

use crate::{Measurement, SimConfig};

/// Modeled accesses per (scaled) heap page over a full application run;
/// sets the ratio between translation time and one-off MM overheads.
const TOUCHES_PER_PAGE: f64 = 1024.0;

/// The paper's testbed has 36 cores; daemon CPU time contends with the
/// application in proportion to the cores it occupies.
const MACHINE_CORES: f64 = 36.0;

/// One evaluated configuration of one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfPoint {
    /// Fraction of execution cycles spent in page walks.
    pub walk_fraction: f64,
    /// Modeled total execution cycles (arbitrary but consistent units;
    /// ratios against a baseline give normalized performance).
    pub total_cycles: f64,
    /// Exposed walk cycles per sampled access.
    pub walk_cycles_per_access: f64,
}

/// Raw walk cycles per access for a measurement.
fn raw_walk(m: &Measurement) -> f64 {
    m.walk_cycles as f64 / m.samples as f64
}

impl PerfPoint {
    /// Evaluates measurement `m` of `spec` under `config` into a
    /// [`PerfPoint`].
    ///
    /// `anchor` is the application's 4KB run: a [`PolicyKind::Base`]
    /// run (4KB+4KB under virtualization) on unfragmented memory with no
    /// daemon cap, at the same scale and seed as `m`. Experiments plan it
    /// as a cell of their own grid. It sets the compute cycles per
    /// access from *raw* walk cycles: `walk_fraction_4k` is the
    /// hardware-counter fraction (`DTLB_*.WALK_ACTIVE` over cycles),
    /// which counts walk activity whether or not it stalls retirement.
    /// `m` contributes *exposed* walk cycles: the out-of-order core hides
    /// an application-specific fraction of walk latency, which is why
    /// walk-cycle reductions do not translate 1:1 into speedup (§4.1).
    ///
    /// [`PolicyKind::Base`]: crate::PolicyKind::Base
    #[must_use]
    pub fn evaluate(
        spec: &WorkloadSpec,
        config: &SimConfig,
        anchor: &Measurement,
        m: &Measurement,
    ) -> PerfPoint {
        let cost = CostModel::default();
        let f = spec.walk_fraction_4k;
        let compute = (raw_walk(anchor) * (1.0 - f) / f).max(1.0);
        let walk = raw_walk(m) * (1.0 - spec.overlap);
        let per_access = compute + walk;
        let heap_pages = config
            .geo
            .pages_for_bytes(config.scale.apply(spec.footprint_bytes))
            .max(1) as f64;
        let total_accesses = heap_pages * TOUCHES_PER_PAGE;
        let app_cycles = per_access * total_accesses;
        // Fault latency is on the faulting thread's critical path.
        let fault_cycles = cost.ns_to_cycles(m.snapshot.total_fault_ns()) as f64;
        // Daemon CPU contends in proportion to machine occupancy.
        let contention = f64::from(spec.threads).min(MACHINE_CORES) / MACHINE_CORES;
        let daemon_cycles = cost.ns_to_cycles(m.snapshot.daemon_ns) as f64 * contention;
        PerfPoint {
            walk_fraction: walk / per_access,
            total_cycles: app_cycles + fault_cycles + daemon_cycles,
            walk_cycles_per_access: walk,
        }
    }

    /// Normalized performance of `self` relative to `baseline` (higher is
    /// better).
    #[must_use]
    pub fn speedup_over(&self, baseline: &PerfPoint) -> f64 {
        baseline.total_cycles / self.total_cycles
    }

    /// Walk-cycle fraction of `self` normalized to `baseline`'s.
    #[must_use]
    pub fn walk_fraction_ratio(&self, baseline: &PerfPoint) -> f64 {
        if baseline.walk_fraction == 0.0 {
            0.0
        } else {
            self.walk_fraction / baseline.walk_fraction
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_core::StatsSnapshot;
    use trident_tlb::TranslationStats;

    fn fake_measurement(samples: usize, walk_cycles: u64) -> Measurement {
        Measurement {
            samples,
            walks: walk_cycles / 200,
            walk_cycles,
            tlb: TranslationStats::default(),
            snapshot: StatsSnapshot::default(),
            trace: Vec::new(),
            trace_dropped: 0,
            profile: None,
            mapped_bytes: [0; trident_types::MAX_RUNGS],
            miss_by_chunk: Vec::new(),
            tenants: Vec::new(),
        }
    }

    #[test]
    fn fewer_walk_cycles_mean_higher_performance() {
        let spec = WorkloadSpec::by_name("GUPS").unwrap();
        let config = {
            let mut c = SimConfig::at_scale(256);
            c.measure_samples = 4_000;
            c
        };
        let anchor = fake_measurement(4_000, 800_000);
        let slow = PerfPoint::evaluate(&spec, &config, &anchor, &fake_measurement(4_000, 800_000));
        let fast = PerfPoint::evaluate(&spec, &config, &anchor, &fake_measurement(4_000, 200_000));
        assert!(fast.speedup_over(&slow) > 1.0);
        assert!(fast.walk_fraction < slow.walk_fraction);
    }

    #[test]
    fn mm_overhead_degrades_performance() {
        let spec = WorkloadSpec::by_name("Btree").unwrap();
        let config = {
            let mut c = SimConfig::at_scale(256);
            c.measure_samples = 3_000;
            c.measure_tick_every = 1_500;
            c
        };
        let anchor = fake_measurement(3_000, 600_000);
        let clean = PerfPoint::evaluate(&spec, &config, &anchor, &fake_measurement(3_000, 300_000));
        let mut costly = fake_measurement(3_000, 300_000);
        costly.snapshot.fault_ns = [0, 0, 4_000_000_000, 0, 0, 0]; // 4s of 1GB faults
        let burdened = PerfPoint::evaluate(&spec, &config, &anchor, &costly);
        assert!(clean.speedup_over(&burdened) > 1.0);
    }
}
