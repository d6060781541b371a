//! Golden net over every experiment family that `builder_identity.rs`
//! does not already pin: each run at quick scale, seed 42, must print
//! exactly the committed CSV under `tests/golden/` (regenerate with
//! `cargo run --release -p trident-sim --example golden_dump`). These
//! families reach the fragmented, co-located, virtualized and non-x86
//! ladder paths, so a drift anywhere in the MM engine shows up here as
//! the first line that changed.
//!
//! Each family also runs in a determinism matrix of three observed
//! modes, and must print the same CSV in each: tracing at 1 thread,
//! profiling at 3 threads, and both at 2 threads. A recorder may change
//! which code path runs, never what it computes.

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

macro_rules! golden {
    ($($test:ident: $file:literal => |$o:ident| $run:expr;)*) => {$(
        #[test]
        fn $test() {
            for $o in modes() {
                let csv = $run.to_csv();
                let name = format!(
                    "{}.csv (threads {}, trace {:?}, profile {})",
                    $file, $o.threads, $o.trace_capacity, $o.profile
                );
                assert_same_text(
                    &name,
                    &csv,
                    include_str!(concat!("golden/", $file, ".csv")),
                );
            }
        }
    )*};
}

golden! {
    fig2_matches_golden: "fig2" => |o| experiments::fig2::run(&o);
    fig3_matches_golden: "fig3" => |o| experiments::fig3::run(&o);
    fig4_matches_golden: "fig4" => |o| experiments::fig4::run(&o);
    fig7_matches_golden: "fig7" => |o| experiments::fig7::run(&o);
    fig9_clean_matches_golden: "fig9_clean" => |o| experiments::fig9::run(&o, false);
    fig9_fragmented_matches_golden: "fig9_fragmented" => |o| experiments::fig9::run(&o, true);
    fig11_clean_matches_golden: "fig11_clean" => |o| experiments::fig11::run(&o, false);
    fig11_fragmented_matches_golden: "fig11_fragmented" => |o| experiments::fig11::run(&o, true);
    fig12_matches_golden: "fig12" => |o| experiments::fig12::run(&o);
    fig13_matches_golden: "fig13" => |o| experiments::fig13::run(&o);
    table3_matches_golden: "table3" => |o| experiments::table3::run(&o);
    bloat_matches_golden: "bloat" => |o| experiments::bloat::run(&o);
    extension_matches_golden: "extension" => |o| experiments::extension::run(&o);
    kernel_map_matches_golden: "kernel_map" => |o| experiments::kernel_map::run(&o);
    coloc_matches_golden: "coloc" => |o| experiments::coloc::run(&o);
    ladder_matches_golden: "ladder" => |o| experiments::ladder::run(&o);
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
