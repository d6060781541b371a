//! The observability layer's end-to-end contracts (DESIGN.md §8):
//!
//! * Tracing is free of observer effects — enabling the ring tracer must
//!   not change a single byte of any figure or table output.
//! * A drop-free trace is a complete record — replaying it through
//!   [`StatsSnapshot::from_events`] reconstructs the exact snapshot the
//!   run reported, and every event survives its JSONL wire format.

use trident_repro::core::{Event, Recorder, StatsSnapshot, SNAPSHOT_VERSION};
use trident_repro::sim::experiments::{self, ExpOptions};
use trident_repro::sim::{PolicyKind, SimConfig, System};
use trident_repro::workloads::WorkloadSpec;

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

/// Launches a small traced Trident run and returns its measurement.
fn traced_run() -> trident_repro::sim::Measurement {
    let mut config = SimConfig::at_scale(256);
    config.measure_samples = 4_000;
    config.measure_tick_every = 1_000;
    config.trace_capacity = Some(1 << 20);
    let spec = WorkloadSpec::by_name("GUPS").unwrap();
    let mut system = System::builder(config)
        .policy(PolicyKind::Trident)
        .workload(spec)
        .build()
        .unwrap();
    system.settle();
    system.measure()
}

#[test]
fn replaying_the_trace_reconstructs_the_snapshot() {
    let m = traced_run();
    assert!(!m.trace.is_empty(), "a Trident run must emit events");
    assert_eq!(m.snapshot.version, SNAPSHOT_VERSION);
    let replayed = StatsSnapshot::from_events(&m.trace);
    assert_eq!(
        replayed, m.snapshot,
        "drop-free trace must replay to the live snapshot"
    );
}

#[test]
fn the_exported_jsonl_parses_back_to_the_same_trace() {
    let m = traced_run();
    let jsonl: String = m.trace.iter().map(|ev| ev.to_jsonl() + "\n").collect();
    let parsed: Vec<Event> = jsonl
        .lines()
        .map(|line| Event::parse_jsonl(line).expect("exported trace must parse"))
        .collect();
    assert_eq!(parsed, m.trace);
    assert_eq!(StatsSnapshot::from_events(&parsed), m.snapshot);
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
