//! Shared plumbing for the binaries.
//!
//! The `experiments` binary runs any table or figure of the paper by its
//! registry name (`trident_sim::experiments::ALL`; DESIGN.md's
//! experiment index) and prints it as CSV on stdout with a short header
//! on stderr, or writes one CSV per entry with `--out DIR`. Common
//! flags: `--scale N` (memory-scale divisor, default 32), `--samples N`,
//! `--seed N`, `--threads N` (worker threads for the parallel runner;
//! 0 = one per core; the output is bit-identical for every value). The
//! other binaries are the `tridentd` job service and its `tridentctl`
//! client (`tridentctl run --trace-out FILE` writes a run's trace), the
//! `chaos` harness, and `trace_analyze`, which profiles a trace or lints
//! a Prometheus scrape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod args;

pub use trident_sim::experiments::ExpOptions;

/// Prints the experiment banner on stderr so stdout stays pure CSV.
pub fn banner(what: &str, opts: &ExpOptions) {
    let threads = trident_sim::Runner::new(opts.threads).threads();
    eprintln!(
        "# {what} — scale 1/{}, {} samples, seed {}, {} threads",
        opts.scale, opts.samples, opts.seed, threads
    );
}
