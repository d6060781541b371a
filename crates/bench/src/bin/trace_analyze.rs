//! `trace_analyze` — the profiling pipeline's CLI: turn a JSONL trace
//! (from `tridentctl run --trace-out FILE`) into a profile report, or
//! lint a Prometheus scrape.
//!
//! ```sh
//! trace_analyze run.jsonl [--window N] [--json F] [--md F] [--prom F]
//! trace_analyze --lint-prom SCRAPE.txt
//! ```
//!
//! **Analyze** (default): stream `FILE` through [`TraceReader`], fold a
//! [`Profile`] with `--window N`-tick windows (default 1) and print the
//! markdown report on stdout; `--json`/`--md`/`--prom` additionally
//! write those renderings to files. Unknown schema versions and
//! malformed lines abort with a line number.
//!
//! **`--lint-prom`**: check a Prometheus text file — e.g. a `/metrics`
//! body scraped from a live `tridentd` — against the exposition rules
//! the shared encoder guarantees: every sample preceded by a `# TYPE`
//! declaration, no duplicate families, summaries complete. Exits
//! nonzero listing each violation.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use trident_bench::args::{ArgError, Args};
use trident_prof::report::{render_json, render_markdown, render_prometheus};
use trident_prof::{Profile, TraceReader};

const USAGE: &str =
    "usage: trace_analyze FILE [--window N] [--json F] [--md F] [--prom F]\n       \
                     trace_analyze --lint-prom FILE";

fn main() -> ExitCode {
    let mut args = Args::from_env();
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
    match parse_cli(args) {
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

/// Leftover flags are refused before a missing FILE, so an unknown flag
/// is named.
fn parse_cli(mut args: Args) -> Result<Analyze, ArgError> {
    let window = args.parsed_or("--window", 1)?;
    let mut outs = Vec::new();
    for flag in ["--json", "--md", "--prom"] {
        if let Some(out) = args.value(flag)? {
            outs.push((flag, out));
        }
    }
    let path = args.positional();
    args.finish()?;
    let path = path.ok_or(ArgError::Unknown {
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
