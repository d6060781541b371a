//! Regenerates the committed golden CSVs under `tests/golden/`: every
//! experiment family at quick scale, seed 42, under the default x86-64
//! geometry (the ladder family adds sv48 and aarch64). fig1, table4 and
//! table5 are pinned by `tests/builder_identity.rs`; the other families
//! by `tests/golden_families.rs`.
//!
//! ```sh
//! cargo run --release -p trident-sim --example golden_dump [-- DIR]
//! ```

use std::fs;
use trident_sim::experiments::{self, ExpOptions};

/// An experiment run rendered as its CSV.
type Run = fn(&ExpOptions) -> String;

/// Every golden file and the run that produces it.
const RUNS: &[(&str, Run)] = &[
    ("fig1", |o| experiments::fig1::run(o).to_csv()),
    ("table4", |o| experiments::table4::run(o).to_csv()),
    ("table5", |o| experiments::table5::run(o).to_csv()),
    ("fig2", |o| experiments::fig2::run(o).to_csv()),
    ("fig3", |o| experiments::fig3::run(o).to_csv()),
    ("fig4", |o| experiments::fig4::run(o).to_csv()),
    ("fig7", |o| experiments::fig7::run(o).to_csv()),
    ("fig9_clean", |o| experiments::fig9::run(o, false).to_csv()),
    ("fig9_fragmented", |o| {
        experiments::fig9::run(o, true).to_csv()
    }),
    ("fig11_clean", |o| {
        experiments::fig11::run(o, false).to_csv()
    }),
    ("fig11_fragmented", |o| {
        experiments::fig11::run(o, true).to_csv()
    }),
    ("fig12", |o| experiments::fig12::run(o).to_csv()),
    ("fig13", |o| experiments::fig13::run(o).to_csv()),
    ("table3", |o| experiments::table3::run(o).to_csv()),
    ("bloat", |o| experiments::bloat::run(o).to_csv()),
    ("extension", |o| experiments::extension::run(o).to_csv()),
    ("kernel_map", |o| experiments::kernel_map::run(o).to_csv()),
    ("coloc", |o| experiments::coloc::run(o).to_csv()),
    ("ladder", |o| experiments::ladder::run(o).to_csv()),
];

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tests/golden".into());
    fs::create_dir_all(&dir).unwrap();
    let opts = ExpOptions::quick();
    for (name, run) in RUNS {
        fs::write(format!("{dir}/{name}.csv"), run(&opts)).unwrap();
    }
    println!("{} golden CSVs written to {dir}", RUNS.len());
}
