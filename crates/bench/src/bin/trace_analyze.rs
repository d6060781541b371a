//! `trace_analyze` — the profiling pipeline's CLI: turn a JSONL trace
//! into a profile report, self-check the pipeline, or gate on a bench
//! regression.
//!
//! ```sh
//! trace_analyze run.jsonl [--window N] [--json F] [--md F] [--prom F]
//! trace_analyze --check
//! trace_analyze --lint-prom SCRAPE.txt
//! trace_analyze --bench-gate BENCH_1.json --baseline OLD.json [--threshold 15]
//! ```
//!
//! **Analyze** (default): stream `FILE` through [`TraceReader`], fold a
//! [`Profile`] with `--window N`-tick windows (default 1) and print the
//! markdown report on stdout; `--json`/`--md`/`--prom` additionally
//! write those renderings to files. Unknown schema versions and
//! malformed lines abort with a line number.
//!
//! **`--check`** (CI smoke): run a small fig1-style cell twice with the
//! live profiler on, replay each run's trace through the reader, and
//! require (a) replayed profile == live profile, (b) equal profiles
//! render byte-identical reports, (c) both runs produce the same bytes.
//! Exits nonzero on any divergence.
//!
//! **`--lint-prom`**: check a Prometheus text file — e.g. a `/metrics`
//! body scraped from a live `tridentd` — against the exposition rules
//! the shared encoder guarantees: every sample preceded by a `# TYPE`
//! declaration, no duplicate families, summaries complete. Exits
//! nonzero listing each violation.
//!
//! **`--bench-gate`**: compare a fresh bench file (`BENCH_1.json` or a
//! `bench_matrix` `BENCH_2.json`) against a committed baseline and fail
//! when `serial_seconds` regressed by more than `--threshold` percent
//! (default 15). With `--min-speedup X`, additionally require
//! `baseline serial_seconds / fresh best_seconds >= X * min(1, cpus/8)`
//! — the paper-style target assumes >= 8 cores, so the requirement
//! scales down linearly with the machine's actual parallelism (reported
//! by `bench_matrix` in the `cpus` field) rather than pretending a
//! single-core box can show an 8-way speedup. `best_seconds` is the
//! fresh file's `fig1_best_seconds` when present (the matrix's fastest
//! thread count), else its `serial_seconds`.

use std::fs::File;
use std::io::{BufReader, Cursor};
use std::process::ExitCode;

use trident_bench::args::{ArgError, Args};
use trident_prof::report::{render_json, render_markdown, render_prometheus};
use trident_prof::{Profile, TraceReader};
use trident_sim::experiments::ExpOptions;
use trident_sim::{PolicyKind, System};
use trident_types::json::Obj;
use trident_workloads::WorkloadSpec;

const USAGE: &str =
    "usage: trace_analyze FILE [--window N] [--json F] [--md F] [--prom F]\n       \
                     trace_analyze --check\n       \
                     trace_analyze --lint-prom FILE\n       \
                     trace_analyze --bench-gate FRESH --baseline OLD [--threshold PCT] [--min-speedup X]";

fn main() -> ExitCode {
    let mut args = Args::from_env();
    if args.flag("--check") {
        if let Err(err) = args.finish() {
            err.exit(USAGE);
        }
        return run_check();
    }
    match args.value("--lint-prom") {
        Ok(Some(path)) => {
            if let Err(err) = args.finish() {
                err.exit(USAGE);
            }
            return run_lint_prom(&path);
        }
        Ok(None) => {}
        Err(err) => err.exit(USAGE),
    }
    match parse_cli(&mut args).and_then(|cmd| args.finish().map(|()| cmd)) {
        Ok(Cmd::BenchGate {
            fresh,
            baseline,
            threshold,
            min_speedup,
        }) => run_bench_gate(&fresh, &baseline, threshold, min_speedup),
        Ok(Cmd::Analyze { path, window, outs }) => run_analyze(&path, window, &outs),
        Err(err) => err.exit(USAGE),
    }
}

enum Cmd {
    Analyze {
        path: String,
        window: u64,
        /// `(renderer flag, output path)` pairs that were requested.
        outs: Vec<(&'static str, String)>,
    },
    BenchGate {
        fresh: String,
        baseline: String,
        threshold: f64,
        min_speedup: Option<f64>,
    },
}

fn parse_cli(args: &mut Args) -> Result<Cmd, ArgError> {
    if let Some(fresh) = args.value("--bench-gate")? {
        let baseline = args.value("--baseline")?.ok_or(ArgError::MissingValue {
            flag: "--baseline".to_owned(),
        })?;
        let threshold = args.parsed_or("--threshold", 15.0)?;
        let min_speedup = args.parsed("--min-speedup")?;
        return Ok(Cmd::BenchGate {
            fresh,
            baseline,
            threshold,
            min_speedup,
        });
    }
    let window = args.parsed_or("--window", 1)?;
    let mut outs = Vec::new();
    for flag in ["--json", "--md", "--prom"] {
        if let Some(out) = args.value(flag)? {
            outs.push((flag, out));
        }
    }
    let path = args.positional().ok_or(ArgError::Unknown {
        token: "(missing FILE)".to_owned(),
    })?;
    Ok(Cmd::Analyze { path, window, outs })
}

fn run_analyze(path: &str, window: u64, outs: &[(&'static str, String)]) -> ExitCode {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut profile = Profile::new(window);
    for item in TraceReader::new(BufReader::new(file)) {
        match item {
            Ok(ev) => profile.fold(&ev),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    profile.finish();
    eprintln!(
        "# trace_analyze: {} events from {path}, {} windows",
        profile.events_seen,
        profile.series.windows().len()
    );
    for (flag, out) in outs {
        let render = match *flag {
            "--json" => render_json as fn(&Profile) -> String,
            "--md" => render_markdown,
            _ => render_prometheus,
        };
        if let Err(e) = std::fs::write(out, render(&profile)) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("# wrote {out}");
    }
    print!("{}", render_markdown(&profile));
    ExitCode::SUCCESS
}

/// `--lint-prom FILE`: applies the shared encoder's exposition lint to
/// an arbitrary Prometheus text file (typically a live scrape).
fn run_lint_prom(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match trident_prof::prom::lint(&text) {
        Ok(()) => {
            eprintln!(
                "prom lint: ok — {path}, {} lines",
                text.lines().filter(|l| !l.trim().is_empty()).count()
            );
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for problem in &problems {
                eprintln!("prom lint: {path}: {problem}");
            }
            eprintln!("prom lint: FAIL — {} problem(s)", problems.len());
            ExitCode::FAILURE
        }
    }
}

/// One profiled smoke run: a fig1-style GUPS/Trident cell with the live
/// profiler and ring tracing on. Returns the live profile and the three
/// rendered reports of the trace-replayed profile.
fn profiled_smoke_run() -> Result<(Profile, [String; 3]), String> {
    let mut opts = ExpOptions::quick();
    opts.profile = true;
    opts.trace_capacity = Some(1 << 20);
    let spec = WorkloadSpec::by_name("GUPS").expect("GUPS exists");
    let mut system = System::builder(opts.config())
        .policy(PolicyKind::Trident)
        .workload(spec)
        .build()
        .map_err(|e| format!("launch failed: {e}"))?;
    system.settle();
    let m = system.measure();
    if m.trace_dropped > 0 {
        return Err(format!(
            "ring dropped {} events; raise the check's capacity",
            m.trace_dropped
        ));
    }
    let live = *m.profile.ok_or("no live profile despite --profile")?;

    // Replay: serialize the trace exactly as dump_trace would, then
    // stream it back through the reader.
    let mut jsonl = String::with_capacity(m.trace.len() * 64);
    for ev in &m.trace {
        jsonl.push_str(&ev.to_jsonl());
        jsonl.push('\n');
    }
    let mut replayed = Profile::new(1);
    for item in TraceReader::new(Cursor::new(jsonl)) {
        let ev = item.map_err(|e| format!("replay: {e}"))?;
        replayed.fold(&ev);
    }
    replayed.finish();
    if replayed != live {
        return Err(format!(
            "replayed profile diverges from live\n  live:     {} events, {} windows\n  replayed: {} events, {} windows",
            live.events_seen,
            live.series.windows().len(),
            replayed.events_seen,
            replayed.series.windows().len()
        ));
    }
    let reports = [
        render_json(&replayed),
        render_markdown(&replayed),
        render_prometheus(&replayed),
    ];
    let live_reports = [
        render_json(&live),
        render_markdown(&live),
        render_prometheus(&live),
    ];
    if reports != live_reports {
        return Err("equal profiles rendered different bytes".to_owned());
    }
    if let Err(problems) = trident_prof::prom::lint(&reports[2]) {
        return Err(format!("prometheus rendering fails lint: {problems:?}"));
    }
    Ok((live, reports))
}

/// CI's profiling-pipeline gate: live == replay, and two identical runs
/// render byte-identical reports.
fn run_check() -> ExitCode {
    let first = match profiled_smoke_run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("profile check: FAIL — {e}");
            return ExitCode::FAILURE;
        }
    };
    let second = match profiled_smoke_run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("profile check: FAIL (second run) — {e}");
            return ExitCode::FAILURE;
        }
    };
    if first.1 != second.1 {
        eprintln!("profile check: FAIL — two identical runs rendered different reports");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "profile check: ok — {} events, {} windows, replay == live, reports deterministic",
        first.0.events_seen,
        first.0.series.windows().len()
    );
    ExitCode::SUCCESS
}

/// Reads the top-level number at `key` of a bench record like
/// `BENCH_1.json` through the workspace's JSON codec.
fn json_number(text: &str, key: &str) -> Option<f64> {
    Obj::parse(text).ok()?.raw(key)?.parse().ok()
}

/// Fails when the fresh bench file's `serial_seconds` exceeds the
/// baseline's by more than `threshold` percent, or (with `min_speedup`)
/// when the fresh file's best time does not beat the baseline serial by
/// the cores-scaled required factor.
fn run_bench_gate(
    fresh_path: &str,
    baseline_path: &str,
    threshold: f64,
    min_speedup: Option<f64>,
) -> ExitCode {
    let read = |path: &str| -> Result<(String, f64, u64), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let secs = json_number(&text, "serial_seconds")
            .ok_or_else(|| format!("{path}: no serial_seconds field"))?;
        let rows = json_number(&text, "rows").map_or(0, |r| r as u64);
        Ok((text, secs, rows))
    };
    let ((fresh_text, fresh_s, fresh_rows), (_, base_s, base_rows)) =
        match (read(fresh_path), read(baseline_path)) {
            (Ok(f), Ok(b)) => (f, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench gate: FAIL — {e}");
                return ExitCode::FAILURE;
            }
        };
    if fresh_rows != base_rows {
        eprintln!("bench gate: FAIL — row count changed {base_rows} -> {fresh_rows}; the grids are not comparable");
        return ExitCode::FAILURE;
    }
    let limit = base_s * (1.0 + threshold / 100.0);
    let delta = (fresh_s / base_s.max(1e-9) - 1.0) * 100.0;
    if fresh_s > limit {
        eprintln!(
            "bench gate: FAIL — serial {fresh_s:.3}s vs baseline {base_s:.3}s ({delta:+.1}%, limit +{threshold:.0}%)"
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "bench gate: ok — serial {fresh_s:.3}s vs baseline {base_s:.3}s ({delta:+.1}%, limit +{threshold:.0}%)"
    );
    if let Some(min) = min_speedup {
        // The matrix's fastest thread count when present, else serial.
        let best = json_number(&fresh_text, "fig1_best_seconds").unwrap_or(fresh_s);
        // The target speedup assumes an 8-core machine; scale the
        // requirement down by the actual core count the fresh run saw so
        // the gate stays meaningful (and honest) on smaller boxes.
        let cpus = json_number(&fresh_text, "cpus").unwrap_or(1.0).max(1.0);
        let required = min * (cpus / 8.0).min(1.0);
        let speedup = base_s / best.max(1e-9);
        if speedup < required {
            eprintln!(
                "bench gate: FAIL — best {best:.3}s is {speedup:.2}x over baseline serial {base_s:.3}s; \
                 required {required:.2}x ({min:.2}x scaled by {cpus:.0}/8 cpus)"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "bench gate: ok — best {best:.3}s is {speedup:.2}x over baseline serial {base_s:.3}s \
             (required {required:.2}x = {min:.2}x scaled by {cpus:.0}/8 cpus)"
        );
    }
    ExitCode::SUCCESS
}
