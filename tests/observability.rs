//! The observability layer's end-to-end contracts (DESIGN.md §8–§9):
//!
//! * Tracing is free of observer effects — enabling the ring tracer must
//!   not change a single byte of any figure or table output.
//! * A drop-free trace is a complete record — replaying it through
//!   [`StatsSnapshot::from_events`] reconstructs the exact snapshot the
//!   run reported, and every event survives its JSONL wire format.
//! * A profile is a pure fold — the profile replayed from a run's JSONL
//!   trace equals the live one, and equal profiles render byte-identical
//!   reports.

use std::io::Cursor;

use trident_prof::report::{render_json, render_markdown, render_prometheus};
use trident_prof::{Profile, TraceReader};
use trident_repro::core::{Event, Recorder, StatsSnapshot, SNAPSHOT_VERSION};
use trident_repro::sim::experiments::{self, ExpOptions};
use trident_repro::sim::{Measurement, PolicyKind, SimConfig, System};
use trident_repro::workloads::WorkloadSpec;
use trident_serve::JobSpec;

fn traced(mut opts: ExpOptions) -> ExpOptions {
    opts.trace_capacity = Some(1 << 20);
    opts
}

#[test]
fn fig1_is_bit_identical_with_tracing_on() {
    let plain = experiments::fig1::run(&ExpOptions::quick()).to_csv();
    let with_trace = experiments::fig1::run(&traced(ExpOptions::quick())).to_csv();
    assert_eq!(plain, with_trace, "tracing must not perturb fig1");
}

#[test]
fn table4_is_bit_identical_with_tracing_on_at_any_thread_count() {
    let plain = experiments::table4::run(&ExpOptions::quick()).to_csv();
    for threads in [1, 3] {
        let mut opts = traced(ExpOptions::quick());
        opts.threads = threads;
        let out = experiments::table4::run(&opts).to_csv();
        assert_eq!(plain, out, "tracing or threads={threads} perturbed table4");
    }
}

#[test]
fn table5_is_bit_identical_with_tracing_on() {
    let plain = experiments::table5::run(&ExpOptions::quick()).to_csv();
    let with_trace = experiments::table5::run(&traced(ExpOptions::quick())).to_csv();
    assert_eq!(plain, with_trace, "tracing must not perturb table5");
}

/// The traced cells: a native Trident run, and a Trident-pv run whose
/// trace is about 18 times longer.
const TRACED_CELLS: [(&str, PolicyKind); 2] = [
    ("GUPS", PolicyKind::Trident),
    ("Redis", PolicyKind::TridentPv),
];

/// Runs `workload` under `policy` at quick options with a ring large
/// enough to keep every event. The trace is complete (nothing dropped)
/// and the snapshot speaks this build's schema version.
fn traced_run(workload: &str, policy: PolicyKind) -> Measurement {
    traced_run_with(traced(ExpOptions::quick()), workload, policy)
}

fn traced_run_with(opts: ExpOptions, workload: &str, policy: PolicyKind) -> Measurement {
    let spec = WorkloadSpec::by_name(workload).unwrap();
    let mut system = System::builder(opts.config())
        .policy(policy)
        .workload(spec)
        .build()
        .unwrap();
    system.settle();
    let m = system.measure();
    let cell = format!("{workload}/{}", policy.label());
    assert_eq!(m.trace_dropped, 0, "{cell}: the ring dropped events");
    assert_eq!(m.snapshot.version, SNAPSHOT_VERSION, "{cell}");
    assert!(!m.trace.is_empty(), "{cell}: a traced run must emit events");
    m
}

#[test]
fn replaying_the_trace_reconstructs_the_snapshot() {
    for (workload, policy) in TRACED_CELLS {
        let m = traced_run(workload, policy);
        assert_eq!(
            StatsSnapshot::from_events(&m.trace),
            m.snapshot,
            "{workload}/{}: drop-free trace must replay to the live snapshot",
            policy.label()
        );
    }
}

#[test]
fn the_exported_jsonl_parses_back_to_the_same_trace() {
    for (workload, policy) in TRACED_CELLS {
        let cell = format!("{workload}/{}", policy.label());
        let m = traced_run(workload, policy);
        let jsonl: String = m.trace.iter().map(|ev| ev.to_jsonl() + "\n").collect();
        let parsed: Vec<Event> = jsonl
            .lines()
            .map(|line| Event::parse_jsonl(line).unwrap_or_else(|e| panic!("{cell}: {e}: {line}")))
            .collect();
        assert_eq!(parsed.len(), m.trace.len(), "{cell}: event count");
        for (i, (back, ev)) in parsed.iter().zip(&m.trace).enumerate() {
            assert_eq!(back, ev, "{cell}: event {i} does not round-trip");
        }
        assert_eq!(StatsSnapshot::from_events(&parsed), m.snapshot, "{cell}");

        // `tridentctl run --trace-out FILE` writes exactly these lines,
        // and its streaming recorder leaves the run as the ring does.
        let path = std::env::temp_dir().join(format!(
            "observability-{}-{workload}.jsonl",
            std::process::id()
        ));
        let mut spec = JobSpec::new(workload, policy.label());
        spec.scale = 256;
        spec.samples = 8_000;
        spec.trace_out = Some(path.display().to_string());
        let result = trident_serve::job::execute(&spec).expect("the job runs");
        let written = std::fs::read_to_string(&path).expect("the job wrote its trace");
        std::fs::remove_file(&path).ok();
        assert!(written == jsonl, "{cell}: --trace-out wrote other bytes");
        assert_eq!(result.snapshot, m.snapshot, "{cell}");
        assert_eq!(result.walk_cycles, m.walk_cycles, "{cell}");
    }
}

/// One profiled GUPS/Trident run at quick options: its live profile, and
/// the profile replayed from its JSONL trace through [`TraceReader`].
fn profiled_run() -> (Profile, Profile) {
    let mut opts = traced(ExpOptions::quick());
    opts.profile = true;
    let m = traced_run_with(opts, "GUPS", PolicyKind::Trident);
    let live = *m.profile.expect("a profiled run carries its live profile");
    let jsonl: String = m.trace.iter().map(|ev| ev.to_jsonl() + "\n").collect();
    let mut replayed = Profile::new(1);
    for ev in TraceReader::new(Cursor::new(jsonl)) {
        replayed.fold(&ev.expect("the trace reads back"));
    }
    replayed.finish();
    (live, replayed)
}

/// The JSON, markdown and Prometheus renderings.
fn renderings(profile: &Profile) -> [String; 3] {
    [
        render_json(profile),
        render_markdown(profile),
        render_prometheus(profile),
    ]
}

#[test]
fn the_replayed_profile_equals_the_live_one_and_renders_deterministically() {
    let (live, replayed) = profiled_run();
    assert!(
        replayed == live,
        "replayed profile diverges from live\n  live:     {} events, {} windows\n  \
         replayed: {} events, {} windows",
        live.events_seen,
        live.series.windows().len(),
        replayed.events_seen,
        replayed.series.windows().len()
    );
    let reports = renderings(&replayed);
    assert!(
        reports == renderings(&live),
        "equal profiles rendered different bytes"
    );
    if let Err(problems) = trident_prof::prom::lint(&reports[2]) {
        panic!("the Prometheus rendering fails lint: {problems:?}");
    }
    let (_, second) = profiled_run();
    assert!(
        renderings(&second) == reports,
        "two identical runs rendered different reports"
    );
}

/// A plain run keeps the recorder and the fault injector off. A recorder
/// switched on by accident would record every event for nobody, and an
/// injector would put every populate back on the per-page path, which
/// fault plans keep because the injector draws per fault.
#[test]
fn plain_runs_keep_the_recorder_and_the_injector_off() {
    let config = SimConfig::at_scale(256);
    assert!(config.trace_capacity.is_none() && !config.profile && config.fault.is_none());
    let spec = WorkloadSpec::by_name("GUPS").unwrap();
    let mut system = System::builder(config)
        .policy(PolicyKind::Base)
        .workload(spec)
        .build()
        .unwrap();
    assert!(!system.ctx.recorder.enabled(), "recorder on after build");
    assert!(!system.ctx.fault.enabled(), "fault injector on after build");
    system.settle();
    let m = system.measure();
    assert!(!system.ctx.recorder.enabled(), "recorder on after measure");
    assert!(
        !system.ctx.fault.enabled(),
        "fault injector on after measure"
    );
    assert!(m.trace.is_empty());
    assert_eq!(m.trace_dropped, 0);
    assert!(m.profile.is_none());
}

#[test]
fn untraced_runs_report_an_empty_trace() {
    let mut config = SimConfig::at_scale(256);
    config.measure_samples = 2_000;
    config.measure_tick_every = 1_000;
    let spec = WorkloadSpec::by_name("GUPS").unwrap();
    let mut system = System::builder(config)
        .policy(PolicyKind::Trident)
        .workload(spec)
        .build()
        .unwrap();
    system.settle();
    let m = system.measure();
    assert!(m.trace.is_empty());
    assert!(m.snapshot.total_faults() > 0, "stats still flow untraced");
}
