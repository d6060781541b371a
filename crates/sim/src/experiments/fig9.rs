//! Figures 9 and 10: THP versus HawkEye versus Trident, without and with
//! physical-memory fragmentation.
//!
//! Reports performance and walk-cycle fraction normalized to THP — the
//! paper's headline result (Trident +14% unfragmented, +18% fragmented,
//! GUPS up to +47%/+50%).

use trident_workloads::WorkloadSpec;

use crate::experiments::common::{anchor_cell, f3, row_config, ExpOptions};
use crate::{Cell, PerfPoint, PolicyKind, Runner};

/// One bar.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application.
    pub workload: String,
    /// Configuration label.
    pub config: &'static str,
    /// Performance normalized to THP.
    pub perf_norm: f64,
    /// Walk-cycle fraction normalized to THP.
    pub walk_fraction_norm: f64,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Result {
    /// Whether this is the fragmented variant (Figure 10).
    pub fragmented: bool,
    /// All bars.
    pub rows: Vec<Row>,
}

impl Result {
    /// CSV rendering.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("workload,config,perf_norm,walk_fraction_norm\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{}\n",
                r.workload,
                r.config,
                f3(r.perf_norm),
                f3(r.walk_fraction_norm)
            ));
        }
        out
    }

    /// Geometric-mean speedup of `config` over THP.
    #[must_use]
    pub fn mean_speedup(&self, config: &str) -> f64 {
        let gains: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.config == config)
            .map(|r| r.perf_norm)
            .collect();
        if gains.is_empty() {
            return 1.0;
        }
        (gains.iter().map(|g| g.ln()).sum::<f64>() / gains.len() as f64).exp()
    }
}

/// The policies compared against THP.
const KINDS: [PolicyKind; 3] = [PolicyKind::Thp, PolicyKind::HawkEye, PolicyKind::Trident];

/// Runs the experiment on the parallel runner (`fragmented = false`
/// reproduces Figure 9, `true` reproduces Figure 10).
///
/// Each row's plan is `[4KB anchor, THP, HawkEye, Trident]`: the anchor
/// cell runs 4KB on unfragmented memory, and a row whose anchor cannot
/// run is skipped.
pub fn run(opts: &ExpOptions, fragmented: bool) -> Result {
    let specs = WorkloadSpec::shaded();
    let per_row = 1 + KINDS.len();
    let mut cells = Vec::new();
    for (row, spec) in specs.iter().enumerate() {
        let mut config = row_config(opts, row as u64);
        if fragmented {
            config = config.fragmented();
        }
        cells.push(anchor_cell(spec, config));
        for kind in KINDS {
            cells.push(Cell {
                kind,
                spec: *spec,
                config,
            });
        }
    }
    let measured = Runner::new(opts.threads).map(&cells, |_, cell| cell.measure());

    let mut rows = Vec::new();
    for (row, spec) in specs.iter().enumerate() {
        let first = row * per_row;
        let config = cells[first + 1].config;
        let (Some(anchor), Some(thp_m)) = (&measured[first], &measured[first + 1]) else {
            continue;
        };
        let thp = PerfPoint::evaluate(spec, &config, anchor, thp_m);
        for (k, kind) in KINDS.iter().enumerate() {
            let Some(m) = &measured[first + 1 + k] else {
                continue;
            };
            let point = PerfPoint::evaluate(spec, &config, anchor, m);
            rows.push(Row {
                workload: spec.name.to_owned(),
                config: kind.label(),
                perf_norm: point.speedup_over(&thp),
                walk_fraction_norm: point.walk_fraction_ratio(&thp),
            });
        }
    }
    Result { fragmented, rows }
}
