//! One benchmark run: set-up, the measured loop, the output check and
//! the metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use trident_serve::{Client, Request, Response};

use crate::grid::{self, run_both, run_plain, timed, GridCell};
use crate::instrument::{fold_digests, job_digest};
use crate::report::{peak_rss_mb, percentile, Layers, Metric};
use crate::service::{self, Daemon, JobFailure};

/// Set-ups per run. One precedes the measured loop and the rest follow
/// rounds, outside the measured time, so that they sample the machine
/// across the whole run. `setup_s` is the fastest of them, for the reason
/// [`Fastest`] gives.
const SETUPS: usize = 12;

/// Measured rounds over a grid's cells or the job mix, at the least.
const MIN_ROUNDS: usize = 2;

/// Draws of a grid per run: each draw plans every cell of the grid with
/// its own seeds, and every round runs every cell of every draw.
const DRAWS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-2 applications on clean memory, long measurement.
    NativeAccess,
    /// Shaded applications on fragmented memory, short measurement.
    FragmentedMm,
    /// Shaded applications in a VM over a hypervisor.
    NestedVirt,
    /// Small jobs through a `tridentd` child.
    DaemonJobs,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::NativeAccess,
        Workload::FragmentedMm,
        Workload::NestedVirt,
        Workload::DaemonJobs,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::NativeAccess => "native_access",
            Workload::FragmentedMm => "fragmented_mm",
            Workload::NestedVirt => "nested_virt",
            Workload::DaemonJobs => "daemon_jobs",
        }
    }

    /// Resolves a `--workload` value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Draw `draw` of the workload's simulation grid; `None` for the
    /// daemon workload.
    #[must_use]
    pub fn grid(self, seed: u64, draw: usize) -> Option<Vec<GridCell>> {
        match self {
            Workload::NativeAccess => Some(grid::native_access(seed, draw)),
            Workload::FragmentedMm => Some(grid::fragmented_mm(seed, draw)),
            Workload::NestedVirt => Some(grid::nested_virt(seed, draw)),
            Workload::DaemonJobs => None,
        }
    }
}

/// What one invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured seconds (whole rounds; at least [`MIN_ROUNDS`]).
    pub seconds: u64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub traced: bool,
}

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Digest of the first round's results, in plan order.
    pub digest: u64,
    /// Operations attempted: cells, jobs, probes, the daemon shutdown.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones when traced.
    pub metrics: Vec<Metric>,
    /// A failure that cut the run short or left the daemon unclean; the
    /// process exits nonzero after printing its result.
    pub fatal: Option<String>,
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one operation; logs and counts its failure.
    fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| {
                self.failed += 1;
                eprintln!("failed: {what}: {e}");
            })
            .ok()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The fastest time, in ms, of each item a run repeats: a cell of the
/// grid or a job of the mix, over every round. Load from outside this
/// process can slow the machine by up to 2× in phases of seconds to
/// minutes (see `README.md`). An item's fastest round reads the program
/// on an uncontended machine whenever any of its rounds ran on one, and
/// rounds spread each item across the whole run.
#[derive(Debug)]
struct Fastest {
    ms: Vec<f64>,
}

impl Fastest {
    fn new(items: usize) -> Fastest {
        Fastest {
            ms: vec![f64::INFINITY; items],
        }
    }

    fn record(&mut self, item: usize, took: Duration) {
        self.ms[item] = self.ms[item].min(ms(took));
    }

    /// The end-to-end metrics: items per second of their summed fastest
    /// times, percentiles of those times, the fastest set-up.
    fn end_to_end(&self, setups: &[f64], rss_mb: f64) -> Vec<Metric> {
        let rate = self.ms.len() as f64 * 1e3 / self.ms.iter().sum::<f64>();
        let fastest_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("setup_s", fastest_setup, "s"),
            m("cells_per_s", rate, "1/s"),
            m("jobs_per_s", rate, "1/s"),
            m("job_ms_p50", percentile(&self.ms, 50.0), "ms"),
            m("job_ms_p90", percentile(&self.ms, 90.0), "ms"),
            m("peak_rss_mb", rss_mb, "MB"),
        ]
    }
}

/// Runs one workload.
///
/// # Errors
///
/// The run could not start: `tridentd` was not found or did not come up.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::DaemonJobs => run_daemon(opts),
        _ => Ok(run_grid(opts)),
    }
}

/// The cells of every draw of a grid, in plan order.
fn grid_cells(opts: &Options) -> Vec<GridCell> {
    (0..DRAWS)
        .flat_map(|draw| opts.workload.grid(opts.seed, draw).expect("a grid workload"))
        .collect()
}

/// One grid set-up: plans the cells and runs the first as a warm-up;
/// returns the time that took.
fn grid_setup(opts: &Options, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let cells = grid_cells(opts);
    tally.check("warm-up cell", run_plain(&cells[0]));
    start.elapsed().as_secs_f64()
}

fn run_grid(opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    let mut setups = vec![grid_setup(opts, &mut tally)];
    let mut layers = Layers::default();
    let cells = grid_cells(opts);
    let mut fastest = Fastest::new(cells.len());
    // Each cell's digest from the first round; every later round must
    // repeat it.
    let mut digests: Vec<u64> = Vec::with_capacity(cells.len());
    let mut rounds = 0;
    let mut measured = Duration::ZERO;
    while rounds < MIN_ROUNDS || measured < Duration::from_secs(opts.seconds) {
        for (i, cell) in cells.iter().enumerate() {
            let (result, took) = timed(|| {
                if opts.traced {
                    run_both(cell, &mut layers)
                } else {
                    run_plain(cell)
                }
            });
            measured += took;
            fastest.record(i, took);
            let digest = tally.check(&format!("round {rounds} cell {i}"), result);
            if rounds == 0 {
                digests.push(digest.unwrap_or(0));
            } else if digest.is_some_and(|d| d != digests[i]) {
                tally.failed += 1;
                eprintln!("failed: round {rounds} cell {i}: result differs from round 0");
            }
        }
        rounds += 1;
        if setups.len() < SETUPS {
            setups.push(grid_setup(opts, &mut tally));
        }
    }
    while setups.len() < SETUPS {
        setups.push(grid_setup(opts, &mut tally));
    }
    let metrics = if opts.traced {
        probe_missing_layers(opts.seed, &mut layers, &mut tally);
        layers.metrics()
    } else {
        let rss = peak_rss_mb("self").unwrap_or(0.0);
        fastest.end_to_end(&setups, rss)
    };
    Outcome {
        digest: fold_digests(&digests),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        fatal: None,
    }
}

/// Spawns a daemon and waits for its first answered request; returns it
/// with the time that took.
fn start_daemon(bin: &Path) -> Result<(Daemon, Client, f64), String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(bin)?;
    let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
    match client.request(&Request::List) {
        Ok(Response::Jobs { .. }) => Ok((daemon, client, start.elapsed().as_secs_f64())),
        other => Err(format!("first request answered {other:?}")),
    }
}

/// Asks the daemon to drain and exit, then reaps it.
fn stop_daemon(daemon: Daemon, mut client: Client) -> Result<(), String> {
    let answer = client.request(&Request::Shutdown);
    drop(client);
    let reaped = daemon.reap();
    match answer {
        Ok(Response::ShuttingDown) => reaped,
        other => Err(format!("shutdown answered {other:?}")),
    }
}

/// One extra daemon set-up, timed and shut down again.
fn daemon_setup(bin: &Path, tally: &mut Tally) -> Result<f64, String> {
    let (daemon, client, took) = start_daemon(bin)?;
    tally
        .check("set-up shutdown", stop_daemon(daemon, client))
        .ok_or("set-up shutdown failed")?;
    Ok(took)
}

fn run_daemon(opts: &Options) -> Result<Outcome, String> {
    let bin = service::tridentd_path()?;
    let mix = service::job_mix(opts.seed);
    let (daemon, mut client, first) = start_daemon(&bin)?;
    let mut setups = vec![first];

    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let mut fastest = Fastest::new(mix.len());
    let mut rounds = 0;
    let mut measured = Duration::ZERO;
    let mut digests: Vec<Vec<u64>> = vec![Vec::new(); mix.len()];
    let mut fatal = None;
    'rounds: while rounds < MIN_ROUNDS || measured < Duration::from_secs(opts.seconds) {
        for (i, spec) in mix.iter().enumerate() {
            let sent = Instant::now();
            let job = service::run_job(&mut client, spec);
            measured += sent.elapsed();
            let result = match job {
                Ok(run) => {
                    fastest.record(i, run.latency);
                    digests[i].push(job_digest(&run.result));
                    if opts.traced {
                        service::replay_job(spec, &run, &mut layers)
                    } else {
                        Ok(())
                    }
                }
                Err(JobFailure::Answer(e)) => Err(e),
                Err(JobFailure::Transport(e)) => {
                    tally.check(&format!("job {i}"), Err::<(), _>(e.clone()));
                    fatal = Some(format!("connection to tridentd lost: {e}"));
                    break 'rounds;
                }
            };
            tally.check(&format!("job {i}"), result);
        }
        rounds += 1;
        if setups.len() < SETUPS {
            match daemon_setup(&bin, &mut tally) {
                Ok(took) => setups.push(took),
                Err(e) => {
                    fatal = Some(format!("daemon set-up failed: {e}"));
                    break;
                }
            }
        }
    }
    while fatal.is_none() && setups.len() < SETUPS {
        match daemon_setup(&bin, &mut tally) {
            Ok(took) => setups.push(took),
            Err(e) => fatal = Some(format!("daemon set-up failed: {e}")),
        }
    }
    let rss = peak_rss_mb(&daemon.pid().to_string()).unwrap_or(0.0);
    let stopped = stop_daemon(daemon, client);
    if let Err(e) = &stopped {
        fatal.get_or_insert_with(|| e.clone());
    }
    tally.check("shutdown", stopped);

    // Every daemon result must equal a local execution of its spec.
    let mut reference = Vec::with_capacity(mix.len());
    for (spec, seen) in mix.iter().zip(&digests) {
        let expected = service::local_digest(spec);
        for &d in seen {
            if expected.as_ref() != Ok(&d) {
                tally.failed += 1;
                eprintln!(
                    "failed: {} under {}: daemon result differs from job::execute",
                    spec.workload, spec.policy
                );
            }
        }
        reference.push(expected.unwrap_or(0));
    }
    let metrics = if opts.traced {
        probe_missing_layers(opts.seed, &mut layers, &mut tally);
        layers.metrics()
    } else {
        fastest.end_to_end(&setups, rss)
    };
    Ok(Outcome {
        digest: fold_digests(&reference),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        fatal,
    })
}

/// Times, on probes, each layer the workload's own cells never reach,
/// so every traced run reports every layer (see [`Layers::fill_from`]):
/// one fragmented native cell, one nested cell and, when no job ran,
/// three jobs through an in-process service.
fn probe_missing_layers(seed: u64, layers: &mut Layers, tally: &mut Tally) {
    let mut probe = Layers::default();
    let (native, virt) = grid::probe_cells(seed);
    tally.check("native probe", run_both(&native, &mut probe));
    tally.check("nested probe", run_both(&virt, &mut probe));
    if layers.jobs == 0 {
        let spec = &service::job_mix(seed)[0];
        tally.check("service probe", service::probe_service(spec, &mut probe));
    }
    layers.fill_from(probe);
}
