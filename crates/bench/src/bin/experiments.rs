//! Runs the paper's experiments by name from the registry
//! (`trident_sim::experiments::ALL`).
//!
//! `experiments NAME [flags]` prints that entry's CSV on stdout.
//! `experiments --out DIR [NAME...] [flags]` writes `DIR/NAME.csv` for
//! each named entry, or for every entry when none is named. The flags
//! are the standard experiment flags; each run's `#` banner goes to
//! stderr. At `--scale 64 --samples 60000 --seed 42`, `--out report`
//! regenerates `report/`; at `--scale 256 --samples 8000 --seed 42`,
//! `--out tests/golden` regenerates the golden net.

use std::path::PathBuf;
use std::process::ExitCode;

use trident_bench::args::{ArgError, Args};
use trident_bench::ExpOptions;
use trident_sim::experiments::{self, Experiment};

/// What the command line asks for.
struct Cli {
    /// `--out DIR`.
    out: Option<PathBuf>,
    /// The named entries, in command-line order.
    picked: Vec<&'static Experiment>,
    opts: ExpOptions,
}

/// Takes `--out`, the standard flags and the names. Leftover flags are
/// refused before the names are looked up, so an unknown flag is named
/// even when a value follows it; a name that is not in the registry is
/// an unrecognized argument.
fn parse(mut args: Args) -> Result<Cli, ArgError> {
    let out = args.value("--out")?.map(PathBuf::from);
    let opts = args.exp_options()?;
    let names: Vec<String> = std::iter::from_fn(|| args.positional()).collect();
    args.finish()?;
    let picked = names
        .into_iter()
        .map(|name| experiments::find(&name).ok_or(ArgError::Unknown { token: name }))
        .collect::<Result<_, _>>()?;
    Ok(Cli { out, picked, opts })
}

/// The usage message, listing every registry name.
fn usage() -> String {
    let names: Vec<&str> = experiments::ALL.iter().map(|e| e.name).collect();
    format!(
        "usage: experiments NAME [standard flags]\n       \
         experiments --out DIR [NAME...] [standard flags]\n\
         standard flags: [--scale N] [--samples N] [--seed N] [--threads N]\n\
         names: {}",
        names.join(" ")
    )
}

fn main() -> ExitCode {
    let usage = usage();
    let cli = match parse(Args::from_env()) {
        Ok(cli) => cli,
        Err(err) => err.exit(&usage),
    };
    let Some(dir) = cli.out else {
        let [exp] = cli.picked[..] else {
            eprintln!("error: name one experiment, or write several with --out DIR");
            eprintln!("{usage}");
            return ExitCode::from(2);
        };
        trident_bench::banner(exp.title, &cli.opts);
        print!("{}", (exp.run)(&cli.opts));
        return ExitCode::SUCCESS;
    };
    let picked = if cli.picked.is_empty() {
        experiments::ALL.iter().collect()
    } else {
        cli.picked
    };
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {err}", dir.display());
        return ExitCode::FAILURE;
    }
    for exp in picked {
        trident_bench::banner(exp.title, &cli.opts);
        let path = dir.join(format!("{}.csv", exp.name));
        if let Err(err) = std::fs::write(&path, (exp.run)(&cli.opts)) {
            eprintln!("error: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
