//! One reproduction routine per table and figure of the evaluation.
//!
//! Each module returns a typed result with a `to_csv` method. [`ALL`]
//! lists every experiment once, by the name of its CSV: the
//! `experiments` binary in `trident-bench` runs entries by name, the
//! golden net pins each entry's quick-scale CSV under `tests/golden/`,
//! and `report/` holds each entry's CSV at the documented options.
//! Paper-vs-measured numbers are recorded in EXPERIMENTS.md.

pub mod bloat;
pub mod coloc;
mod common;
pub mod extension;
pub mod fig1;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig7;
pub mod fig9;
pub mod kernel_map;
pub mod ladder;
pub mod table3;
pub mod table4;
pub mod table5;

pub use common::ExpOptions;

/// One registered experiment: a named run rendered as CSV.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The stem of its CSV under `tests/golden/` and `report/`.
    pub name: &'static str,
    /// The paper label the `experiments` binary prints in its banner.
    pub title: &'static str,
    /// Runs the experiment and renders its CSV.
    pub run: fn(&ExpOptions) -> String,
}

/// Every experiment, once, in the paper's order.
pub const ALL: &[Experiment] = &[
    Experiment {
        name: "fig1",
        title: "Figure 1: native walk cycles and performance by page size",
        run: |o| fig1::run(o).to_csv(),
    },
    Experiment {
        name: "fig2",
        title: "Figure 2: virtualized walk cycles and performance",
        run: |o| fig2::run(o).to_csv(),
    },
    Experiment {
        name: "fig2_all_combos",
        title: "Figure 2: all nine guest+host page-size combinations",
        run: |o| fig2::run_all_combos(o).to_csv(),
    },
    Experiment {
        name: "fig3",
        title: "Figure 3: 2MB- vs 1GB-mappable memory (Graph500, SVM)",
        run: |o| fig3::run(o).to_csv(),
    },
    Experiment {
        name: "fig4",
        title: "Figure 4: relative TLB-miss frequency (Graph500, SVM)",
        run: |o| fig4::run(o).to_csv(),
    },
    Experiment {
        name: "fig7",
        title: "Figure 7: smart vs normal compaction bytes copied",
        run: |o| fig7::run(o).to_csv(),
    },
    Experiment {
        name: "fig9_clean",
        title: "Figure 9: performance under no fragmentation",
        run: |o| fig9::run(o, false).to_csv(),
    },
    Experiment {
        name: "fig9_fragmented",
        title: "Figure 10: performance under fragmentation",
        run: |o| fig9::run(o, true).to_csv(),
    },
    Experiment {
        name: "fig11_clean",
        title: "Figure 11a: Trident-1Gonly / Trident-NC / Trident, no fragmentation",
        run: |o| fig11::run(o, false).to_csv(),
    },
    Experiment {
        name: "fig11_fragmented",
        title: "Figure 11b: Trident-1Gonly / Trident-NC / Trident, fragmentation",
        run: |o| fig11::run(o, true).to_csv(),
    },
    Experiment {
        name: "fig12",
        title: "Figure 12: THP/HawkEye/Trident at both levels",
        run: |o| fig12::run(o).to_csv(),
    },
    Experiment {
        name: "fig13",
        title: "Figure 13: Trident_pv with khugepaged capped at 10%",
        run: |o| fig13::run(o).to_csv(),
    },
    Experiment {
        name: "table3",
        title: "Table 3: 1GB/2MB pages by allocation mechanism",
        run: |o| table3::run(o).to_csv(),
    },
    Experiment {
        name: "table4",
        title: "Table 4: 1GB allocation failures under fragmentation",
        run: |o| table4::run(o).to_csv(),
    },
    Experiment {
        name: "table5",
        title: "Table 5: p99 latency (ms)",
        run: |o| table5::run(o).to_csv(),
    },
    Experiment {
        name: "bloat",
        title: "Memory bloat under aggressive promotion",
        run: |o| bloat::run(o).to_csv(),
    },
    Experiment {
        name: "kernel_map",
        title: "Kernel direct map: 4KB vs 2MB vs 1GB",
        run: |o| kernel_map::run(o).to_csv(),
    },
    Experiment {
        name: "extension",
        title: "Extension: 5-level tables and page-walk caches",
        run: |o| extension::run(o).to_csv(),
    },
    Experiment {
        name: "coloc",
        title: "Co-location: Redis, GUPS and XSBench on one pool",
        run: |o| coloc::run(o).to_csv(),
    },
    Experiment {
        name: "ladder",
        title: "Ladders: x86-64 vs Sv48 (NAPOT) vs AArch64 (contig)",
        run: |o| ladder::run(o).to_csv(),
    },
    Experiment {
        name: "ladder_walk",
        title: "Ladders: worst-case walk accesses per rung",
        run: |_| ladder::walk_csv(),
    },
];

/// The entry of [`ALL`] called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}
