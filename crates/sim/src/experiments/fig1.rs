//! Figure 1: page sizes under native execution.
//!
//! Four configurations per application — 4KB, 2MB via THP, 2MB via
//! hugetlbfs, 1GB via hugetlbfs — reporting (a) the fraction of cycles in
//! page walks and (b) performance, both normalized to the 4KB run.

use trident_workloads::WorkloadSpec;

use crate::experiments::common::{f3, row_config, ExpOptions};
use crate::{Cell, PerfPoint, PolicyKind, Runner};

/// One bar of Figure 1.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application.
    pub workload: String,
    /// Configuration label.
    pub config: &'static str,
    /// Whether the paper shades this application as 1GB-sensitive.
    pub shaded: bool,
    /// Walk-cycle fraction normalized to the 4KB run (Fig 1a).
    pub walk_fraction_norm: f64,
    /// Performance normalized to the 4KB run (Fig 1b).
    pub perf_norm: f64,
    /// Raw walk-cycle fraction.
    pub walk_fraction: f64,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Result {
    /// All bars, grouped by application.
    pub rows: Vec<Row>,
}

impl Result {
    /// CSV rendering (one row per bar).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("workload,config,shaded,walk_fraction_norm,perf_norm,walk_fraction\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                r.workload,
                r.config,
                r.shaded,
                f3(r.walk_fraction_norm),
                f3(r.perf_norm),
                f3(r.walk_fraction),
            ));
        }
        out
    }

    /// Mean 1GB-hugetlbfs speedup over THP across the shaded set — the
    /// paper reports 12.5%.
    #[must_use]
    pub fn shaded_giant_gain_over_thp(&self) -> f64 {
        let mut gains = Vec::new();
        for w in self.rows.iter().filter(|r| r.shaded).map(|r| &r.workload) {
            let find = |cfg: &str| {
                self.rows
                    .iter()
                    .find(|r| &r.workload == w && r.config == cfg)
                    .map(|r| r.perf_norm)
            };
            if let (Some(thp), Some(giant)) = (find("2MB-THP"), find("1GB-Hugetlbfs")) {
                gains.push(giant / thp);
            }
        }
        gains.dedup();
        if gains.is_empty() {
            1.0
        } else {
            gains.iter().sum::<f64>() / gains.len() as f64
        }
    }
}

/// The four bars per application, 4KB first (it doubles as the row's
/// performance-model anchor).
const KINDS: [PolicyKind; 4] = [
    PolicyKind::Base,
    PolicyKind::Thp,
    PolicyKind::HugetlbfsHuge,
    PolicyKind::HugetlbfsGiant,
];

/// Runs the experiment on the parallel runner: one cell per bar, one
/// anchored row per application.
pub fn run(opts: &ExpOptions) -> Result {
    let specs = WorkloadSpec::all();
    let mut cells = Vec::new();
    for (row, spec) in specs.iter().enumerate() {
        let config = row_config(opts, row as u64);
        for kind in KINDS {
            cells.push(Cell {
                kind,
                spec: *spec,
                config,
            });
        }
    }
    let measured = Runner::new(opts.threads).map(&cells, |_, cell| cell.measure());

    // Merge in plan order: the 4KB cell is the row's anchor and its
    // normalization baseline, exactly as a serial loop would use it.
    let mut rows = Vec::new();
    for (row, spec) in specs.iter().enumerate() {
        let first = row * KINDS.len();
        let config = cells[first].config;
        let Some(anchor) = &measured[first] else {
            continue;
        };
        let base = PerfPoint::evaluate(spec, &config, anchor, anchor);
        for (k, kind) in KINDS.iter().enumerate() {
            let Some(m) = &measured[first + k] else {
                continue;
            };
            let point = PerfPoint::evaluate(spec, &config, anchor, m);
            rows.push(Row {
                workload: spec.name.to_owned(),
                config: kind.label(),
                shaded: spec.giant_sensitive,
                walk_fraction_norm: point.walk_fraction_ratio(&base),
                perf_norm: point.speedup_over(&base),
                walk_fraction: point.walk_fraction,
            });
        }
    }
    Result { rows }
}
