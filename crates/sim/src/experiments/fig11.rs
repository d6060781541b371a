//! Figure 11: ablation of Trident's design components.
//!
//! *Trident-1Gonly* (no 2MB pages) isolates the value of using every
//! large page size; *Trident-NC* (normal compaction) isolates smart
//! compaction. Both variants lose to full Trident; 1Gonly even loses to
//! THP on apps with 1GB-unmappable hot regions (Graph500, SVM).

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
}

/// One fragmentation state's figure.
#[derive(Debug, Clone)]
pub struct Result {
    /// Whether memory was fragmented (Figure 11b vs 11a).
    pub fragmented: bool,
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

/// The ablation variants compared against THP.
const KINDS: [PolicyKind; 4] = [
    PolicyKind::Thp,
    PolicyKind::Trident1G,
    PolicyKind::TridentNC,
    PolicyKind::Trident,
];

/// Runs one sub-figure on the parallel runner; each row's plan is
/// `[4KB anchor, THP, Trident-1Gonly, Trident-NC, Trident]`, and a row
/// whose anchor cannot run is skipped.
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
            });
        }
    }
    Result { fragmented, rows }
}
