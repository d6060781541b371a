//! The one-encoder guarantee: the pooled `trident_*` counter block in a
//! live `/metrics` scrape is byte-identical to the same counters
//! rendered by the offline `trace_analyze` report, because both go
//! through `trident_prof::prom`. A drift between the two renderings —
//! a reworded HELP line, a reordered family, a renamed label — breaks
//! dashboards silently, so this test compares bytes, not substrings.

use trident_core::StatsSnapshot;
use trident_prof::prom::{self, TextEncoder};
use trident_prof::report::render_prometheus;
use trident_prof::Profile;
use trident_serve::metrics::DaemonMetrics;
use trident_serve::proto::{JobResult, RungRow};

/// A snapshot with a distinct value in every rendered counter, so a
/// field mix-up cannot produce an accidental byte match.
fn distinctive_snapshot() -> StatsSnapshot {
    StatsSnapshot {
        faults: [101, 102, 103, 104, 105, 106],
        fault_ns: [201, 202, 203, 204, 205, 206],
        promotions: [301, 302, 303, 304, 305, 306],
        daemon_ns: 401,
        compaction_bytes_copied: 501,
        pv_bytes_exchanged: 601,
        injected_faults: [701, 702, 703],
        promotions_deferred: 801,
        ..StatsSnapshot::default()
    }
}

/// The canonical rendering of the snapshot block alone.
fn golden(snapshot: &StatsSnapshot) -> String {
    let mut enc = TextEncoder::new();
    prom::snapshot_counters(&mut enc, snapshot);
    enc.finish()
}

/// The snapshot block opens every rendering with this family.
const BLOCK_START: &str = "# HELP trident_faults_total ";

#[test]
fn offline_report_renders_the_golden_snapshot_block() {
    let snapshot = distinctive_snapshot();
    let mut profile = Profile::new(1_000);
    profile.snapshot = snapshot;

    let offline = render_prometheus(&profile);
    assert!(offline.starts_with(BLOCK_START), "{offline}");
    // The report appends span summaries after the snapshot block.
    let block_end = offline
        .find("# HELP trident_span_ns ")
        .expect("report must carry span summaries after the counters");
    assert_eq!(&offline[..block_end], golden(&snapshot));
}

#[test]
fn live_scrape_renders_the_golden_snapshot_block() {
    let snapshot = distinctive_snapshot();
    let metrics = DaemonMetrics::new(2, 8);
    metrics.on_accepted(0, 1);
    metrics.on_dequeue(0, 0);
    metrics.on_start(7, 5_000, 100);
    metrics.on_done(
        7,
        1_000_000,
        &JobResult {
            samples: 100,
            tlb_accesses: 100,
            walks: 10,
            walk_cycles: 350,
            rungs: vec![
                RungRow {
                    size: "4KB".to_owned(),
                    bytes: 1,
                },
                RungRow {
                    size: "2MB".to_owned(),
                    bytes: 2,
                },
                RungRow {
                    size: "1GB".to_owned(),
                    bytes: 3,
                },
            ],
            trace_dropped: 0,
            trace_lines: None,
            violations: 0,
            tenants: vec![],
            snapshot,
        },
    );

    let live = metrics.render();
    // The daemon renders the pooled snapshot block last, after the
    // tridentd_* service families.
    let block_start = live.find(BLOCK_START).expect("scrape must pool counters");
    assert_eq!(&live[block_start..], golden(&snapshot));
    prom::lint(&live).unwrap();
}

#[test]
fn lint_accepts_the_golden_block_and_rejects_mutations() {
    let text = golden(&distinctive_snapshot());
    prom::lint(&text).unwrap();

    // An undeclared sample: strip the TYPE/HELP header off one family.
    let headerless: String = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(prom::lint(&headerless).is_err());

    // A duplicate family declaration.
    let duplicated = format!("{text}{text}");
    assert!(prom::lint(&duplicated).is_err());
}
