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
    /// paper reports 12.5%. Each shaded application counts once, through
    /// its THP bar.
    #[must_use]
    pub fn shaded_giant_gain_over_thp(&self) -> f64 {
        let gains: Vec<f64> = self
            .rows
            .iter()
            .filter(|thp| thp.shaded && thp.config == "2MB-THP")
            .filter_map(|thp| {
                self.rows
                    .iter()
                    .find(|r| r.workload == thp.workload && r.config == "1GB-Hugetlbfs")
                    .map(|giant| giant.perf_norm / thp.perf_norm)
            })
            .collect();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn bar(workload: &str, config: &'static str, perf_norm: f64) -> Row {
        Row {
            workload: workload.to_owned(),
            config,
            shaded: true,
            walk_fraction_norm: 1.0,
            perf_norm,
            walk_fraction: 0.1,
        }
    }

    /// Two neighbouring applications with bit-equal gains both count.
    #[test]
    fn every_shaded_application_counts_once_even_when_gains_tie() {
        let mut rows = Vec::new();
        for (workload, thp, giant) in [("A", 1.0, 1.2), ("B", 1.0, 1.2), ("C", 1.0, 1.5)] {
            rows.push(bar(workload, "4KB", 1.0));
            rows.push(bar(workload, "2MB-THP", thp));
            rows.push(bar(workload, "2MB-Hugetlbfs", thp));
            rows.push(bar(workload, "1GB-Hugetlbfs", giant));
        }
        let gain = Result { rows }.shaded_giant_gain_over_thp();
        assert!(
            (gain - 1.3).abs() < 1e-12,
            "mean of 1.2, 1.2 and 1.5 is 1.3, got {gain}"
        );
    }
}
