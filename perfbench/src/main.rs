//! `trident-perfbench` — runs one workload of the repository benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload native_access --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root; `run.py` builds this binary and the
//! `tridentd` that `daemon_jobs` spawns from beside it. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). The lines before it record the run and the workload's
//! result digest.

use std::process::{Command, ExitCode};

use trident_perfbench::report::result_line;
use trident_perfbench::run::{run, Options, Workload};

const USAGE: &str = "usage: trident-perfbench --workload \
                     <native_access|fragmented_mm|nested_virt|daemon_jobs> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::NativeAccess,
        seed: 1,
        seconds: 20,
        traced: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => opts.seed = number()?,
            "--seconds" => {
                opts.seconds = number()?;
                if opts.seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                opts.traced = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            _ => return Err(format!("unexpected argument {flag} {value}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// The commit of the checkout, when it is a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("trident-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // Every timing here is serial, so the record carries no
    // thread-scaling number, whatever `cpus` is.
    println!(
        "record {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cpus\": {cpus}, \"commit\": \"{}\", \"profile\": \"{profile}\"}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        commit()
    );
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("trident-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("digest {} {:016x}", opts.workload.name(), outcome.digest);
    println!(
        "error_rate {} ({} of {} failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let correct = outcome.failed == 0 && outcome.fatal.is_none();
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if let Some(e) = &outcome.fatal {
        eprintln!("trident-perfbench: {e}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
