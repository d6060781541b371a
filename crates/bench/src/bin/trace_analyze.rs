//! `trace_analyze` — the profiling pipeline's CLI: turn a JSONL trace
//! into a profile report, self-check the pipeline, or lint a Prometheus
//! scrape.
//!
//! ```sh
//! trace_analyze run.jsonl [--window N] [--json F] [--md F] [--prom F]
//! trace_analyze --check
//! trace_analyze --lint-prom SCRAPE.txt
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

use std::fs::File;
use std::io::{BufReader, Cursor};
use std::process::ExitCode;

use trident_bench::args::{ArgError, Args};
use trident_prof::report::{render_json, render_markdown, render_prometheus};
use trident_prof::{Profile, TraceReader};
use trident_sim::experiments::ExpOptions;
use trident_sim::{PolicyKind, System};
use trident_workloads::WorkloadSpec;

const USAGE: &str =
    "usage: trace_analyze FILE [--window N] [--json F] [--md F] [--prom F]\n       \
                     trace_analyze --check\n       \
                     trace_analyze --lint-prom FILE";

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
        Ok(Analyze { path, window, outs }) => run_analyze(&path, window, &outs),
        Err(err) => err.exit(USAGE),
    }
}

struct Analyze {
    path: String,
    window: u64,
    /// `(renderer flag, output path)` pairs that were requested.
    outs: Vec<(&'static str, String)>,
}

fn parse_cli(args: &mut Args) -> Result<Analyze, ArgError> {
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
    Ok(Analyze { path, window, outs })
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
