//! Simulation configuration.

use trident_core::FaultPlan;
use trident_phys::FragmentProfile;
use trident_types::{PageGeometry, TridentError, GIB};
use trident_workloads::MemoryScale;

/// Configuration of one simulated system run.
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
    /// context before load, failing allocations, compactions, promotions,
    /// hypercalls and trace writes per the plan; `None` runs fault-free.
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
    /// Panics if `scale` is not a power of two or exceeds 256.
    #[must_use]
    pub fn at_scale(scale: u64) -> SimConfig {
        SimConfig {
            scale: MemoryScale::new(scale),
            geo: scaled_geometry(scale),
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

    /// Returns a copy with event tracing enabled at the given ring
    /// capacity.
    #[must_use]
    pub fn traced(mut self, capacity: usize) -> SimConfig {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Returns a copy with live profiling enabled.
    #[must_use]
    pub fn profiled(mut self) -> SimConfig {
        self.profile = true;
        self
    }

    /// Starts building a configuration at a given memory scale, with
    /// every knob validated at [`SimConfigBuilder::build`] time.
    ///
    /// # Examples
    ///
    /// ```
    /// use trident_sim::{SimConfig, SimConfigBuilder};
    ///
    /// let builder: SimConfigBuilder = SimConfig::builder(256);
    /// let c = builder.measure_samples(5_000).build()?;
    /// assert_eq!(c.measure_samples, 5_000);
    /// assert!(SimConfig::builder(256).measure_samples(0).build().is_err());
    /// # Ok::<(), trident_types::TridentError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a power of two or exceeds 256 (same
    /// contract as [`SimConfig::at_scale`]).
    #[must_use]
    pub fn builder(scale: u64) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::at_scale(scale),
        }
    }
}

/// Builder for [`SimConfig`]: starts from [`SimConfig::at_scale`] defaults
/// and rejects degenerate values (zero sample counts or intervals, a
/// daemon cap outside `(0, 1]`) at [`build`](SimConfigBuilder::build)
/// time.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the host physical memory in (unscaled) bytes.
    #[must_use]
    pub fn host_mem_bytes(mut self, bytes: u64) -> Self {
        self.config.host_mem_bytes = bytes;
        self
    }

    /// Enables pre-run fragmentation with the given profile.
    #[must_use]
    pub fn fragment(mut self, profile: FragmentProfile) -> Self {
        self.config.fragment = Some(profile);
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the touched pages between daemon ticks during load.
    #[must_use]
    pub fn tick_interval_pages(mut self, pages: u64) -> Self {
        self.config.tick_interval_pages = pages;
        self
    }

    /// Sets the measurement-phase sample count.
    #[must_use]
    pub fn measure_samples(mut self, samples: usize) -> Self {
        self.config.measure_samples = samples;
        self
    }

    /// Sets the samples between daemon ticks during measurement.
    #[must_use]
    pub fn measure_tick_every(mut self, samples: usize) -> Self {
        self.config.measure_tick_every = samples;
        self
    }

    /// Sets the maximum settling ticks after load.
    #[must_use]
    pub fn settle_ticks(mut self, ticks: usize) -> Self {
        self.config.settle_ticks = ticks;
        self
    }

    /// Caps background daemons to a fraction of one CPU.
    #[must_use]
    pub fn daemon_cap(mut self, cap: f64) -> Self {
        self.config.daemon_cap = Some(cap);
        self
    }

    /// Sets the app nanoseconds represented by one tick interval.
    #[must_use]
    pub fn tick_interval_app_ns(mut self, ns: u64) -> Self {
        self.config.tick_interval_app_ns = ns;
        self
    }

    /// Enables event tracing with a ring of the given capacity.
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.config.trace_capacity = Some(capacity);
        self
    }

    /// Enables or disables live profiling.
    #[must_use]
    pub fn profile(mut self, on: bool) -> Self {
        self.config.profile = on;
        self
    }

    /// Installs a deterministic fault-injection plan.
    #[must_use]
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.config.fault = Some(plan);
        self
    }

    /// Enables or disables the per-tick consistency audit.
    #[must_use]
    pub fn audit(mut self, on: bool) -> Self {
        self.config.audit = on;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`TridentError::InvalidConfig`] when a sample count or interval is
    /// zero, host memory is smaller than one giant page, the daemon cap is
    /// outside `(0, 1]`, or the trace capacity is zero.
    pub fn build(self) -> Result<SimConfig, TridentError> {
        let c = self.config;
        if c.measure_samples == 0 {
            return Err(TridentError::InvalidConfig {
                field: "measure_samples",
                reason: "must be nonzero",
            });
        }
        if c.measure_tick_every == 0 {
            return Err(TridentError::InvalidConfig {
                field: "measure_tick_every",
                reason: "must be nonzero",
            });
        }
        if c.tick_interval_pages == 0 {
            return Err(TridentError::InvalidConfig {
                field: "tick_interval_pages",
                reason: "must be nonzero",
            });
        }
        if c.scale.apply(c.host_mem_bytes) < c.geo.bytes(c.geo.largest()) {
            return Err(TridentError::InvalidConfig {
                field: "host_mem_bytes",
                reason: "scaled host memory must hold at least one top-rung page",
            });
        }
        if let Some(cap) = c.daemon_cap {
            if !(cap.is_finite() && cap > 0.0 && cap <= 1.0) {
                return Err(TridentError::InvalidConfig {
                    field: "daemon_cap",
                    reason: "must be in (0, 1]",
                });
            }
        }
        if c.trace_capacity == Some(0) {
            return Err(TridentError::InvalidConfig {
                field: "trace_capacity",
                reason: "must be nonzero when tracing is enabled",
            });
        }
        Ok(c)
    }
}

/// The x86-64 geometry with huge/giant orders reduced by log2(`scale`):
/// page-size *ratios* against footprints and TLB reach stay exactly as on
/// real hardware while everything shrinks.
///
/// # Panics
///
/// Panics if `scale` is not a power of two in `1..=256`.
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
/// Panics if `scale` is not a power of two in `1..=256`.
#[must_use]
pub fn scaled_geometry_for(arch: &PageGeometry, scale: u64) -> PageGeometry {
    assert!(
        scale.is_power_of_two() && scale <= 256,
        "scale must be a power of two <= 256"
    );
    arch.scaled(scale.trailing_zeros() as u8)
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
    fn builder_defaults_match_at_scale() {
        assert_eq!(
            SimConfig::builder(64).build().unwrap(),
            SimConfig::at_scale(64)
        );
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        for err in [
            SimConfig::builder(64).measure_samples(0).build(),
            SimConfig::builder(64).measure_tick_every(0).build(),
            SimConfig::builder(64).tick_interval_pages(0).build(),
            SimConfig::builder(64).daemon_cap(0.0).build(),
            SimConfig::builder(64).daemon_cap(1.5).build(),
            SimConfig::builder(64).daemon_cap(f64::NAN).build(),
            SimConfig::builder(64).trace_capacity(0).build(),
            SimConfig::builder(64).host_mem_bytes(0).build(),
        ] {
            assert!(matches!(err, Err(TridentError::InvalidConfig { .. })));
        }
    }

    #[test]
    fn builder_accepts_tracing_and_fragmentation() {
        let c = SimConfig::builder(256)
            .seed(7)
            .trace_capacity(1 << 16)
            .fragment(FragmentProfile::heavy())
            .daemon_cap(0.1)
            .build()
            .unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.trace_capacity, Some(1 << 16));
        assert!(c.fragment.is_some());
    }

    #[test]
    fn traced_toggle_sets_capacity() {
        assert_eq!(SimConfig::default().traced(512).trace_capacity, Some(512));
    }

    #[test]
    fn profile_toggles() {
        assert!(!SimConfig::default().profile);
        assert!(SimConfig::default().profiled().profile);
        assert!(
            SimConfig::builder(64)
                .profile(true)
                .build()
                .unwrap()
                .profile
        );
    }
}
