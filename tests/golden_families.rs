//! Golden net over every registry experiment that `builder_identity.rs`
//! does not already pin: each entry of `experiments::ALL`, run by name
//! at quick scale, seed 42, must print exactly the committed CSV under
//! `tests/golden/` (regenerate with `cargo run --release -p
//! trident-bench --bin experiments -- --out tests/golden --scale 256
//! --samples 8000 --seed 42`). These families reach the fragmented,
//! co-located, virtualized and non-x86 ladder paths, so a drift anywhere
//! in the MM engine shows up here as the first line that changed. A
//! completeness test keeps the registry, the golden files and the pinned
//! names equal, so no experiment lands unpinned.
//!
//! Each family also runs in a determinism matrix of three observed
//! modes, and must print the same CSV in each: tracing at 1 thread,
//! profiling at 3 threads, and both at 2 threads. A recorder may change
//! which code path runs, never what it computes.

use std::collections::BTreeSet;

use trident_repro::sim::experiments::{self, ExpOptions};

/// Asserts `actual == expected`, naming the first differing line.
fn assert_same_text(name: &str, actual: &str, expected: &str) {
    if actual == expected {
        return;
    }
    let mut got = actual.lines();
    let mut want = expected.lines();
    for line in 1.. {
        match (got.next(), want.next()) {
            (Some(g), Some(w)) if g == w => {}
            (g, w) => panic!(
                "{name} drifted at line {line}:\n  expected: {}\n  actual:   {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>")
            ),
        }
    }
}

/// The determinism matrix: (threads, trace ring capacity, profile).
const OBSERVED: [(usize, Option<usize>, bool); 3] = [
    (1, Some(1 << 16), false),
    (3, None, true),
    (2, Some(1 << 16), true),
];

/// The quick options plain, then in each mode of the matrix.
fn modes() -> impl Iterator<Item = ExpOptions> {
    std::iter::once(ExpOptions::quick()).chain(OBSERVED.into_iter().map(
        |(threads, trace_capacity, profile)| ExpOptions {
            threads,
            trace_capacity,
            profile,
            ..ExpOptions::quick()
        },
    ))
}

/// Runs the registry entry `name`.
fn run(name: &str, opts: &ExpOptions) -> String {
    let exp = experiments::find(name).unwrap_or_else(|| panic!("{name} is not in the registry"));
    (exp.run)(opts)
}

macro_rules! golden {
    ($($test:ident: $name:literal;)*) => {
        $(
            #[test]
            fn $test() {
                for o in modes() {
                    let label = format!(
                        "{}.csv (threads {}, trace {:?}, profile {})",
                        $name, o.threads, o.trace_capacity, o.profile
                    );
                    assert_same_text(
                        &label,
                        &run($name, &o),
                        include_str!(concat!("golden/", $name, ".csv")),
                    );
                }
            }
        )*

        /// The registry entries this file pins.
        const PINNED_HERE: &[&str] = &[$($name),*];
    };
}

golden! {
    fig2_matches_golden: "fig2";
    fig2_all_combos_matches_golden: "fig2_all_combos";
    fig3_matches_golden: "fig3";
    fig4_matches_golden: "fig4";
    fig7_matches_golden: "fig7";
    fig9_clean_matches_golden: "fig9_clean";
    fig9_fragmented_matches_golden: "fig9_fragmented";
    fig11_clean_matches_golden: "fig11_clean";
    fig11_fragmented_matches_golden: "fig11_fragmented";
    fig12_matches_golden: "fig12";
    fig13_matches_golden: "fig13";
    table3_matches_golden: "table3";
    bloat_matches_golden: "bloat";
    extension_matches_golden: "extension";
    kernel_map_matches_golden: "kernel_map";
    coloc_matches_golden: "coloc";
    ladder_matches_golden: "ladder";
    ladder_walk_matches_golden: "ladder_walk";
}

/// The registry entries `builder_identity.rs` pins, by hash at 1 and 4
/// threads and by text.
const PINNED_BY_BUILDER_IDENTITY: [&str; 3] = ["fig1", "table4", "table5"];

#[test]
fn registry_golden_files_and_pinned_names_agree() {
    let registry: BTreeSet<&str> = experiments::ALL.iter().map(|e| e.name).collect();
    assert_eq!(registry.len(), experiments::ALL.len(), "duplicate names");
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let golden: BTreeSet<String> = std::fs::read_dir(dir)
        .expect("tests/golden exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let pinned: BTreeSet<&str> = PINNED_HERE
        .iter()
        .chain(&PINNED_BY_BUILDER_IDENTITY)
        .copied()
        .collect();
    assert_eq!(
        pinned.len(),
        PINNED_HERE.len() + PINNED_BY_BUILDER_IDENTITY.len(),
        "a name is pinned twice"
    );
    assert_eq!(
        golden.iter().map(String::as_str).collect::<BTreeSet<_>>(),
        registry,
        "tests/golden/*.csv vs the registry"
    );
    assert_eq!(pinned, registry, "pinned names vs the registry");
    let builder_identity = include_str!("builder_identity.rs");
    for name in PINNED_BY_BUILDER_IDENTITY {
        assert!(
            builder_identity.contains(&format!("run(\"{name}\"")),
            "builder_identity.rs does not run {name}"
        );
    }
}

#[test]
fn a_drift_names_the_first_differing_line() {
    let err = std::panic::catch_unwind(|| assert_same_text("x", "a\nb\nc\n", "a\nB\nc\n"))
        .expect_err("differing text must fail");
    let msg = err.downcast_ref::<String>().expect("formatted panic");
    assert!(msg.contains("line 2"), "{msg}");
    assert!(
        msg.contains("expected: B") && msg.contains("actual:   b"),
        "{msg}"
    );
    let short = std::panic::catch_unwind(|| assert_same_text("x", "a\n", "a\nb\n"))
        .expect_err("a truncated run must fail");
    assert!(short
        .downcast_ref::<String>()
        .expect("formatted panic")
        .contains("<end of file>"));
}
