//! Figure 12: performance under virtualization with the same system
//! deployed at both levels — THP+THP, HawkEye+HawkEye, Trident+Trident.

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
}

/// The same policy at both levels, THP+THP first (the normalization
/// baseline).
const COMBOS: [(&str, PolicyKind); 3] = [
    ("2MB+2MB-THP", PolicyKind::Thp),
    ("HawkEye+HawkEye", PolicyKind::HawkEye),
    ("Trident+Trident", PolicyKind::Trident),
];

/// Runs the experiment on the parallel runner; each row's plan is
/// `[4KB+4KB anchor, THP+THP, HawkEye+HawkEye, Trident+Trident]`. Every
/// cell uses the options' seed, and a row whose anchor or THP+THP cell
/// cannot run is skipped.
pub fn run(opts: &ExpOptions) -> Result {
    let config = opts.config();
    let specs = WorkloadSpec::shaded();
    let per_row = 1 + COMBOS.len();
    let mut cells = Vec::new();
    for spec in &specs {
        cells.push(virt_anchor_cell(spec, config));
        for (_, kind) in COMBOS {
            cells.push(VirtCell {
                host: kind,
                guest: kind,
                spec: *spec,
                config,
                fragment_guest: false,
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
        for (k, (label, _)) in COMBOS.iter().enumerate() {
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
