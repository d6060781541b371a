//! Figure 2: page sizes under virtualized execution.
//!
//! The guest and host each use one page size: 4KB+4KB, 2MB+2MB (THP at
//! both levels), 1GB+1GB (hugetlbfs at both levels). Walk-cycle fraction
//! and performance are normalized to the 4KB+4KB run.

use trident_workloads::WorkloadSpec;

use crate::experiments::common::{f3, row_config, ExpOptions};
use crate::{PerfPoint, PolicyKind, Runner, VirtCell};

/// One bar of Figure 2.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application.
    pub workload: String,
    /// Guest+host configuration label.
    pub config: &'static str,
    /// Shaded (1GB-sensitive) application.
    pub shaded: bool,
    /// Walk-cycle fraction normalized to 4KB+4KB.
    pub walk_fraction_norm: f64,
    /// Performance normalized to 4KB+4KB.
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
        let mut out = String::from("workload,config,shaded,walk_fraction_norm,perf_norm\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                r.workload,
                r.config,
                r.shaded,
                f3(r.walk_fraction_norm),
                f3(r.perf_norm),
            ));
        }
        out
    }
}

/// One guest+host combination: (label, host policy, guest policy).
type Combo = (&'static str, PolicyKind, PolicyKind);

/// The three combinations the paper discusses, 4KB+4KB first.
const COMBOS: [Combo; 3] = [
    ("4KB+4KB", PolicyKind::Base, PolicyKind::Base),
    ("2MB+2MB", PolicyKind::Thp, PolicyKind::Thp),
    (
        "1GB+1GB",
        PolicyKind::HugetlbfsGiant,
        PolicyKind::HugetlbfsGiant,
    ),
];

/// All nine combinations, labeled `guest+host`, guest-major with
/// 4KB+4KB first.
const ALL_COMBOS: [Combo; 9] = [
    ("4KB+4KB", PolicyKind::Base, PolicyKind::Base),
    ("4KB+2MB", PolicyKind::Thp, PolicyKind::Base),
    ("4KB+1GB", PolicyKind::HugetlbfsGiant, PolicyKind::Base),
    ("2MB+4KB", PolicyKind::Base, PolicyKind::Thp),
    ("2MB+2MB", PolicyKind::Thp, PolicyKind::Thp),
    ("2MB+1GB", PolicyKind::HugetlbfsGiant, PolicyKind::Thp),
    ("1GB+4KB", PolicyKind::Base, PolicyKind::HugetlbfsGiant),
    ("1GB+2MB", PolicyKind::Thp, PolicyKind::HugetlbfsGiant),
    (
        "1GB+1GB",
        PolicyKind::HugetlbfsGiant,
        PolicyKind::HugetlbfsGiant,
    ),
];

/// Runs the full nine-combination matrix the paper mentions exploring
/// ("nine combinations of page sizes are possible. While we explored all,
/// we discuss only 4KB-4KB, 2MB-2MB, and 1GB-1GB"), for the shaded
/// applications. Labels are `guest+host`.
pub fn run_all_combos(opts: &ExpOptions) -> Result {
    run_grid(opts, &WorkloadSpec::shaded(), &ALL_COMBOS)
}

/// Runs the experiment on the parallel runner: one cell per bar, with
/// each row's 4KB+4KB cell doubling as its virtualized anchor.
pub fn run(opts: &ExpOptions) -> Result {
    run_grid(opts, &WorkloadSpec::all(), &COMBOS)
}

/// One row per application and one cell per combination. The 4KB+4KB
/// combination comes first in each row: it is both the normalization
/// baseline and the row's anchor.
fn run_grid(opts: &ExpOptions, specs: &[WorkloadSpec], combos: &[Combo]) -> Result {
    let mut cells = Vec::new();
    for (row, spec) in specs.iter().enumerate() {
        let config = row_config(opts, row as u64);
        for &(_, host, guest) in combos {
            cells.push(VirtCell {
                host,
                guest,
                spec: *spec,
                config,
                fragment_guest: false,
            });
        }
    }
    let measured = Runner::new(opts.threads).map(&cells, |_, cell| cell.measure());

    let mut rows = Vec::new();
    for (row, spec) in specs.iter().enumerate() {
        let first = row * combos.len();
        let config = cells[first].config;
        let Some(anchor) = &measured[first] else {
            continue;
        };
        let base = PerfPoint::evaluate(spec, &config, anchor, anchor);
        for (k, &(label, _, _)) in combos.iter().enumerate() {
            let Some(m) = &measured[first + k] else {
                continue;
            };
            let point = PerfPoint::evaluate(spec, &config, anchor, m);
            rows.push(Row {
                workload: spec.name.to_owned(),
                config: label,
                shaded: spec.giant_sensitive,
                walk_fraction_norm: point.walk_fraction_ratio(&base),
                perf_norm: point.speedup_over(&base),
            });
        }
    }
    Result { rows }
}
