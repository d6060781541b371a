//! Simulation configuration.

use trident_core::FaultPlan;
use trident_phys::FragmentProfile;
use trident_types::{PageGeometry, TridentError, GIB};
use trident_workloads::MemoryScale;

/// Configuration of one simulated system run.
///
/// Plain data: start from [`SimConfig::at_scale`] (or a preset such as
/// [`SimConfig::fragmented`]) and assign the fields a run varies. Values
/// from outside the program are checked where they enter: command-line
/// flags by the binaries' parser, job specs by the job service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Page geometry (the real x86-64 layout for experiments).
    pub geo: PageGeometry,
    /// Host physical memory in bytes, unscaled (the paper's testbed has
    /// 384GB).
    pub host_mem_bytes: u64,
    /// Memory-scale divisor applied to host memory, workload footprints
    /// and large page sizes alike; the TLB keeps its Table 1 entry counts,
    /// so footprint-to-reach ratios are preserved (see
    /// [`SimConfig::at_scale`]).
    pub scale: MemoryScale,
    /// Fragment physical memory before the run (§3 methodology).
    pub fragment: Option<FragmentProfile>,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Touched pages between background-daemon ticks during load.
    pub tick_interval_pages: u64,
    /// Sampled accesses in the measurement phase.
    pub measure_samples: usize,
    /// Samples between daemon ticks during measurement.
    pub measure_tick_every: usize,
    /// Maximum settling ticks after load (stops early at quiescence).
    pub settle_ticks: usize,
    /// Cap background daemons to this fraction of one CPU (Figure 13's
    /// 10% `khugepaged` limit), or `None` for no cap.
    pub daemon_cap: Option<f64>,
    /// Application wall-clock nanoseconds represented by one tick
    /// interval (used by the daemon cap accounting).
    pub tick_interval_app_ns: u64,
    /// When set, the system records events into a ring tracer of this
    /// capacity (in events); `None` runs with the free no-op recorder.
    pub trace_capacity: Option<usize>,
    /// When true, a live profiler aggregates spans, time-series windows
    /// and counters during the run (on top of the ring tracer if
    /// `trace_capacity` is also set); the result lands in
    /// `Measurement::profile`.
    pub profile: bool,
    /// When set, a deterministic [`FaultInjector`](trident_core::FaultInjector)
    /// seeded from this plan is installed into every memory-management
    /// context before load, failing large-page allocations, compaction
    /// passes and promotion candidates per the plan; `None` runs
    /// fault-free.
    pub fault: Option<FaultPlan>,
    /// When true, every daemon tick runs the non-panicking cross-layer
    /// audit ([`check_mm_consistent`](trident_core::check_mm_consistent))
    /// and collects any violations instead of asserting (chaos harness).
    pub audit: bool,
}

impl SimConfig {
    /// The default configuration at a given memory scale.
    ///
    /// Scaling divides every byte quantity (host memory, workload
    /// footprints) *and* the large-page sizes by the same power of two:
    /// at scale 16 a "giant" page is 64MB and a "huge" page 128KB, while
    /// the TLB keeps its real Skylake entry counts — so every ratio that
    /// drives the paper's results (footprint : TLB reach, footprint :
    /// giant-page size, huge : giant) is preserved exactly.
    ///
    /// # Panics
    ///
    /// Panics if [`check_scale`] refuses `scale`.
    #[must_use]
    pub fn at_scale(scale: u64) -> SimConfig {
        SimConfig {
            geo: scaled_geometry(scale),
            scale: MemoryScale::new(scale),
            ..SimConfig::default()
        }
    }

    /// Host memory in (scaled) base pages.
    #[must_use]
    pub fn host_pages(&self) -> u64 {
        self.geo
            .pages_for_bytes(self.scale.apply(self.host_mem_bytes))
    }

    /// Returns a copy with fragmentation enabled (heavy profile).
    #[must_use]
    pub fn fragmented(mut self) -> SimConfig {
        self.fragment = Some(FragmentProfile::heavy());
        self
    }
}

/// The x86-64 geometry with huge/giant orders reduced by log2(`scale`):
/// page-size *ratios* against footprints and TLB reach stay exactly as on
/// real hardware while everything shrinks.
///
/// # Panics
///
/// Panics if [`check_scale`] refuses `scale`.
#[must_use]
pub fn scaled_geometry(scale: u64) -> PageGeometry {
    scaled_geometry_for(&PageGeometry::X86_64, scale)
}

/// Any architecture's ladder with every rung order reduced by
/// log2(`scale`) — [`PageGeometry::scaled`] applied to the simulator's
/// power-of-two scale contract. Rung *labels* keep their architectural
/// names ("2MB", "64KB-napot", ...) so reports and golden CSVs read the
/// same at every scale.
///
/// # Panics
///
/// Panics if [`check_scale`] refuses `scale`.
#[must_use]
pub fn scaled_geometry_for(arch: &PageGeometry, scale: u64) -> PageGeometry {
    if let Err(e) = check_scale(scale) {
        panic!("{e}");
    }
    arch.scaled(scale.trailing_zeros() as u8)
}

/// The simulator's scale contract: a memory-scale divisor must be a
/// power of two from 1 to 256. Every entry point that takes a scale from
/// outside the program checks it here before building a configuration.
///
/// # Errors
///
/// [`TridentError::InvalidConfig`] naming `scale` for any other value.
pub fn check_scale(scale: u64) -> Result<(), TridentError> {
    if scale.is_power_of_two() && scale <= 256 {
        Ok(())
    } else {
        Err(TridentError::InvalidConfig {
            field: "scale",
            reason: "must be a power of two from 1 to 256",
        })
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            geo: scaled_geometry(MemoryScale::default().divisor()),
            host_mem_bytes: 384 * GIB,
            scale: MemoryScale::default(),
            fragment: None,
            seed: 42,
            tick_interval_pages: 8192,
            measure_samples: 120_000,
            measure_tick_every: 20_000,
            settle_ticks: 48,
            daemon_cap: None,
            tick_interval_app_ns: 50_000_000,
            trace_capacity: None,
            profile: false,
            fault: None,
            audit: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scales_the_paper_testbed() {
        let c = SimConfig::default();
        // 384GB / 16 = 24GB = 6M pages.
        assert_eq!(c.host_pages(), 24 * GIB / 4096);
    }

    #[test]
    fn fragmented_toggle_sets_heavy_profile() {
        let c = SimConfig::default().fragmented();
        assert!(c.fragment.is_some());
    }

    #[test]
    fn at_scale_only_changes_the_scale() {
        let c = SimConfig::at_scale(64);
        assert_eq!(c.scale.divisor(), 64);
        assert_eq!(c.host_mem_bytes, SimConfig::default().host_mem_bytes);
    }

    #[test]
    fn check_scale_takes_powers_of_two_up_to_256() {
        for scale in [1, 2, 32, 256] {
            assert_eq!(check_scale(scale), Ok(()));
        }
        for scale in [0, 3, 48, 512] {
            assert!(matches!(
                check_scale(scale),
                Err(TridentError::InvalidConfig { field: "scale", .. })
            ));
        }
    }
}
