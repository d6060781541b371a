//! Bit-identity proof for the `SystemBuilder` migration and the
//! geometry-driven `PageSize` redesign.
//!
//! The golden hashes below were captured from the pre-refactor
//! single-tenant `System::launch` path (fig1/table4/table5 at quick
//! scale, seed 42, threads 1 and 4). A one-tenant `SystemBuilder` run
//! under the default x86-64 geometry must reproduce them bit for bit:
//! the builder and the rung ladder are re-plumbings of the launch
//! path, not behavioural changes. The committed CSVs under
//! `tests/golden/` pin the same outputs as reviewable text; each run is
//! looked up by name in the experiment registry, as `golden_families.rs`
//! does for the other entries.

use trident_repro::sim::experiments::{self, ExpOptions};

/// FNV-1a, the repository's stable test fingerprint for CSV blobs.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the registry entry `name` at quick options on `threads` threads.
fn run(name: &str, threads: usize) -> String {
    let exp = experiments::find(name).unwrap_or_else(|| panic!("{name} is not in the registry"));
    (exp.run)(&ExpOptions {
        threads,
        ..ExpOptions::quick()
    })
}

#[test]
fn fig1_matches_pre_refactor_golden_at_1_and_4_threads() {
    let csv = run("fig1", 1);
    let h4 = fnv1a(&run("fig1", 4));
    assert_eq!(fnv1a(&csv), h4, "fig1 must be thread-count invariant");
    assert_eq!(
        fnv1a(&csv),
        GOLDEN_FIG1,
        "fig1 drifted from the pre-refactor path"
    );
    assert_eq!(csv, include_str!("golden/fig1.csv"));
}

#[test]
fn table4_matches_pre_refactor_golden_at_1_and_4_threads() {
    let csv = run("table4", 1);
    let h4 = fnv1a(&run("table4", 4));
    assert_eq!(fnv1a(&csv), h4, "table4 must be thread-count invariant");
    assert_eq!(
        fnv1a(&csv),
        GOLDEN_TABLE4,
        "table4 drifted from the pre-refactor path"
    );
    assert_eq!(csv, include_str!("golden/table4.csv"));
}

#[test]
fn table5_matches_pre_refactor_golden_at_1_and_4_threads() {
    let csv = run("table5", 1);
    let h4 = fnv1a(&run("table5", 4));
    assert_eq!(fnv1a(&csv), h4, "table5 must be thread-count invariant");
    assert_eq!(
        fnv1a(&csv),
        GOLDEN_TABLE5,
        "table5 drifted from the pre-refactor path"
    );
    assert_eq!(csv, include_str!("golden/table5.csv"));
}

const GOLDEN_FIG1: u64 = 678_687_198_921_039_402;
const GOLDEN_TABLE4: u64 = 6_290_351_268_904_539_716;
const GOLDEN_TABLE5: u64 = 9_598_922_431_288_726_740;
