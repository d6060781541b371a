//! Figure 13: Trident_pv under fragmented guest-physical memory with the
//! guest's `khugepaged` capped at 10% of a vCPU.
//!
//! Under the cap, copy-based guest promotion/compaction (≈600ms per 1GB)
//! starves and giant pages arrive slowly; Trident_pv's hypercall-based
//! exchanges (≈500µs batched) fit comfortably in the budget, recovering
//! the 1GB benefit — up to 10% over copy-based Trident in the paper.

use trident_workloads::WorkloadSpec;

use crate::experiments::common::{f3, virt_anchor_cell, ExpOptions};
use crate::{PerfPoint, PolicyKind, Runner, VirtCell};

/// One bar.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application.
    pub workload: String,
    /// Configuration label.
    pub config: &'static str,
    /// Performance normalized to THP+THP.
    pub perf_norm: f64,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Result {
    /// All bars.
    pub rows: Vec<Row>,
}

impl Result {
    /// CSV rendering.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("workload,config,perf_norm\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{}\n",
                r.workload,
                r.config,
                f3(r.perf_norm)
            ));
        }
        out
    }

    /// The bar for one (workload, config) pair.
    #[must_use]
    pub fn bar(&self, workload: &str, config: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.config == config)
            .map(|r| r.perf_norm)
    }
}

/// (label, host policy, guest policy), THP+THP first (the normalization
/// baseline); guest-physical memory is fragmented in every run.
const COMBOS: [(&str, PolicyKind, PolicyKind); 3] = [
    ("2MB+2MB-THP", PolicyKind::Thp, PolicyKind::Thp),
    ("Trident+Trident", PolicyKind::Trident, PolicyKind::Trident),
    (
        "Trident-pv+Trident-pv",
        PolicyKind::Trident,
        PolicyKind::TridentPv,
    ),
];

/// Runs the experiment on the parallel runner; each row's plan is
/// `[4KB+4KB anchor, then each combination]`. Every cell uses the
/// options' seed, and a row whose anchor or THP+THP cell cannot run is
/// skipped. The anchor runs on unfragmented memory without the cap.
pub fn run(opts: &ExpOptions) -> Result {
    let mut config = opts.config();
    config.daemon_cap = Some(0.10);
    // Tighter accounting interval: the 10% budget is scarce relative to
    // the run length, as on the paper's testbed where copy-based
    // promotion work (≈600ms per 1GB region) outruns the allowance.
    config.tick_interval_app_ns = 20_000_000;
    let specs = WorkloadSpec::shaded();
    let per_row = 1 + COMBOS.len();
    let mut cells = Vec::new();
    for spec in &specs {
        cells.push(virt_anchor_cell(spec, config));
        for (_, host, guest) in COMBOS {
            cells.push(VirtCell {
                host,
                guest,
                spec: *spec,
                config,
                fragment_guest: true,
            });
        }
    }
    let measured = Runner::new(opts.threads).map(&cells, |_, cell| cell.measure());

    let mut rows = Vec::new();
    for (row, spec) in specs.iter().enumerate() {
        let first = row * per_row;
        let (Some(anchor), Some(thp_m)) = (&measured[first], &measured[first + 1]) else {
            continue;
        };
        let thp = PerfPoint::evaluate(spec, &config, anchor, thp_m);
        for (k, (label, _, _)) in COMBOS.iter().enumerate() {
            let Some(m) = &measured[first + 1 + k] else {
                continue;
            };
            let point = PerfPoint::evaluate(spec, &config, anchor, m);
            rows.push(Row {
                workload: spec.name.to_owned(),
                config: label,
                perf_norm: point.speedup_over(&thp),
            });
        }
    }
    Result { rows }
}
