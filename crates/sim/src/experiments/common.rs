//! Shared experiment plumbing.

use trident_workloads::WorkloadSpec;

use crate::{Cell, PolicyKind, SimConfig, VirtCell};

/// The options shared by every experiment and job.
/// (Flag parsing lives downstream in `trident_bench::args`; this crate
/// only defines the option set and its mapping to [`SimConfig`].)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpOptions {
    /// Memory-scale divisor (DESIGN.md §2; default 32 for the binaries).
    pub scale: u64,
    /// Sampled accesses per measurement.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the parallel runner (`0` = one per core).
    /// Results are bit-identical for every value — see DESIGN.md's
    /// determinism contract.
    pub threads: usize,
    /// Ring-tracer capacity, in events (`None` = tracing off). Jobs and
    /// the golden determinism matrix set it; the `experiments` binary
    /// does not. Tracing never changes results — see DESIGN.md §7.
    pub trace_capacity: Option<usize>,
    /// Fold a live [`trident_prof::Profile`] during measurement
    /// (DESIGN.md §9). Set like `trace_capacity`; profiling never
    /// changes results.
    pub profile: bool,
}

impl ExpOptions {
    /// Options for quick runs (integration tests).
    #[must_use]
    pub fn quick() -> ExpOptions {
        ExpOptions {
            scale: 256,
            samples: 8_000,
            seed: 42,
            threads: 0,
            trace_capacity: None,
            profile: false,
        }
    }

    /// Builds the base [`SimConfig`] for these options.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        let mut c = SimConfig::at_scale(self.scale);
        c.measure_samples = self.samples;
        c.measure_tick_every = (self.samples / 6).max(1);
        c.seed = self.seed;
        c.trace_capacity = self.trace_capacity;
        c.profile = self.profile;
        c
    }
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 32,
            samples: 120_000,
            seed: 42,
            threads: 0,
            trace_capacity: None,
            profile: false,
        }
    }
}

/// The configuration for row `row` of an anchored experiment grid: the
/// base options with the seed replaced by [`derive_cell_seed`] of
/// `(opts.seed, row)`. All cells of one row (the row's baseline, its
/// anchor, and every policy under test) share the row seed, so paired
/// comparisons use common random numbers while distinct rows draw
/// decorrelated streams.
///
/// [`derive_cell_seed`]: crate::runner::derive_cell_seed
pub(crate) fn row_config(opts: &ExpOptions, row: u64) -> SimConfig {
    let mut c = opts.config();
    c.seed = crate::runner::derive_cell_seed(opts.seed, row);
    c
}

/// `config` with fragmentation and the daemon cap cleared: the
/// conditions of an application's 4KB anchor run.
fn anchor_config(mut config: SimConfig) -> SimConfig {
    config.fragment = None;
    config.daemon_cap = None;
    config
}

/// The native anchor cell of a row run under `config`: 4KB on
/// unfragmented memory with no daemon cap, the run
/// [`PerfPoint::evaluate`](crate::PerfPoint::evaluate) takes as `anchor`.
pub(crate) fn anchor_cell(spec: &WorkloadSpec, config: SimConfig) -> Cell {
    Cell {
        kind: PolicyKind::Base,
        spec: *spec,
        config: anchor_config(config),
    }
}

/// The virtualized anchor cell of a row run under `config`: 4KB+4KB on
/// unfragmented guest- and host-physical memory with no daemon cap.
pub(crate) fn virt_anchor_cell(spec: &WorkloadSpec, config: SimConfig) -> VirtCell {
    VirtCell {
        host: PolicyKind::Base,
        guest: PolicyKind::Base,
        spec: *spec,
        config: anchor_config(config),
        fragment_guest: false,
    }
}

/// Formats a float with 3 decimals for CSV output.
pub(crate) fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_documented_binaries() {
        let opts = ExpOptions::default();
        assert_eq!(opts.scale, 32);
        assert_eq!(opts.samples, 120_000);
        assert_eq!(opts.trace_capacity, None);
        assert!(!opts.profile);
    }

    #[test]
    fn config_wires_samples_into_tick_cadence() {
        let opts = ExpOptions {
            scale: 64,
            samples: 60_000,
            seed: 1,
            threads: 1,
            trace_capacity: None,
            profile: false,
        };
        let c = opts.config();
        assert_eq!(c.measure_samples, 60_000);
        assert_eq!(c.measure_tick_every, 10_000);
        assert_eq!(c.scale.divisor(), 64);
    }
}
