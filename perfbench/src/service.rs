//! The service path: the job mix, a `tridentd` child process, the
//! closed loop that drives it through `trident_serve::Client`, and the
//! replay of each job's service-side costs.

use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trident_serve::service::{Service, ServiceConfig};
use trident_serve::{job, serve_tcp, Client, JobResult, JobSpec, Request, Response};
use trident_sim::Cell;

use crate::grid::{run_both, timed, GridCell};
use crate::instrument::job_digest;
use crate::report::Layers;

/// How long a spawned daemon may take to report its address, and to
/// exit after `shutdown`.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(30);

/// Jobs the in-process service probe runs.
const PROBE_JOBS: usize = 3;

/// The daemon job mix: the 12 Table-2 applications × {THP, Trident} at
/// scale 256 with 4,000 samples, so the service path is a large share
/// of each job. Every fourth job also folds a live profile and keeps a
/// trace ring.
#[must_use]
pub fn job_mix(seed: u64) -> Vec<JobSpec> {
    let apps = trident_workloads::WorkloadSpec::all();
    let pairs = apps
        .iter()
        .flat_map(|app| ["THP", "Trident"].map(|policy| (app.name, policy)));
    pairs
        .enumerate()
        .map(|(i, (app, policy))| {
            let mut spec = JobSpec::new(app, policy);
            spec.scale = 256;
            spec.samples = 4_000;
            spec.seed = seed;
            spec.cell_index = Some(i as u64);
            if i % 4 == 3 {
                spec.profile = true;
                spec.trace_capacity = Some(1 << 14);
            }
            spec
        })
        .collect()
}

/// The `tridentd` binary beside this one: both land in the same cargo
/// target directory, where `run.py` builds them.
///
/// # Errors
///
/// No `tridentd` there.
pub fn tridentd_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let bin = exe.with_file_name("tridentd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; build it with `cargo build --release -p trident-bench --bin tridentd`",
            bin.display()
        ))
    }
}

/// A `tridentd --workers 1` child on an ephemeral loopback port. Dropping
/// it kills and reaps the child if it is still running.
pub struct Daemon {
    child: Child,
    addr: Option<SocketAddr>,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon and waits until it reports its bound address.
    ///
    /// # Errors
    ///
    /// The spawn failing, or no address within the timeout.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stderr until the child exits, so the daemon can never
        // block on a full pipe; lines after the address go nowhere.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            addr: None,
            stderr: Some(drain),
        };
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        while daemon.addr.is_none() {
            let wait = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(wait)
                .map_err(|_| "tridentd exited or stalled before listening".to_owned())?;
            if let Some(addr) = line.strip_prefix("# tridentd: listening on ") {
                let addr = addr
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                daemon.addr = Some(addr);
            }
        }
        Ok(daemon)
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
            .expect("spawn returns only once the address is known")
    }

    /// The child's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the child to exit after a `shutdown` request, killing
    /// it after the timeout.
    ///
    /// # Errors
    ///
    /// The child did not exit cleanly.
    pub fn reap(mut self) -> Result<(), String> {
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("tridentd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("tridentd did not exit after shutdown".to_owned()),
                Err(e) => return Err(format!("cannot wait for tridentd: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

/// One answered job.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Submit to result.
    pub latency: Duration,
    /// The id the daemon assigned.
    pub id: u64,
    /// What the job measured.
    pub result: JobResult,
}

/// Why a job produced no result.
#[derive(Debug)]
pub enum JobFailure {
    /// The daemon answered with something other than the expected
    /// response; the connection is still usable.
    Answer(String),
    /// The connection failed; the daemon is gone or the stream is
    /// unusable.
    Transport(String),
}

fn exchange(client: &mut Client, request: &Request) -> Result<Response, JobFailure> {
    client
        .request(request)
        .map_err(|e| JobFailure::Transport(e.to_string()))
}

/// Submits `spec` and blocks for its result, the path `tridentctl
/// --connect` takes.
///
/// # Errors
///
/// See [`JobFailure`].
pub fn run_job(client: &mut Client, spec: &JobSpec) -> Result<JobRun, JobFailure> {
    let start = Instant::now();
    let id = match exchange(client, &Request::Submit(spec.clone()))? {
        Response::Submitted { id } => id,
        other => return Err(JobFailure::Answer(format!("submit answered {other:?}"))),
    };
    match exchange(client, &Request::Result { id })? {
        Response::Result { result, .. } => Ok(JobRun {
            latency: start.elapsed(),
            id,
            result,
        }),
        other => Err(JobFailure::Answer(format!("result answered {other:?}"))),
    }
}

/// Replays one answered job's service-side costs in this process: the
/// job's execution, the encoding and decoding of the four lines of its
/// exchange, and the cell through the instrumented simulator. What the
/// latency leaves over is time spent waiting on the transport.
///
/// # Errors
///
/// The spec not resolving, or the instrumented cell failing.
pub fn replay_job(spec: &JobSpec, run: &JobRun, layers: &mut Layers) -> Result<(), String> {
    let (executed, execute) = timed(|| job::execute(spec));
    black_box(executed?);
    let submit = Request::Submit(spec.clone());
    let submitted = Response::Submitted { id: run.id };
    let fetch = Request::Result { id: run.id };
    let answer = Response::Result {
        id: run.id,
        result: run.result.clone(),
    };
    let (bytes, codec) = timed(|| {
        let lines = [
            submit.to_jsonl(),
            submitted.to_jsonl(),
            fetch.to_jsonl(),
            answer.to_jsonl(),
        ];
        for line in [&lines[0], &lines[2]] {
            black_box(Request::parse_jsonl(line).expect("an encoded request decodes"));
        }
        for line in [&lines[1], &lines[3]] {
            black_box(Response::parse_jsonl(line).expect("an encoded response decodes"));
        }
        lines[3].len() as u64 + 1
    });
    layers.jobs += 1;
    layers.execute += execute;
    layers.codec += codec;
    layers.response_bytes += bytes;
    let wait = run.latency.saturating_sub(execute + codec);
    layers.transport_waits_ms.push(wait.as_secs_f64() * 1e3);
    let (config, kind, tenants) = job::resolve(spec)?;
    let cell = GridCell::Native(Cell {
        kind,
        spec: tenants[0].workload,
        config,
    });
    run_both(&cell, layers).map(drop)
}

/// Digest of what `job::execute` computes locally for `spec`.
///
/// # Errors
///
/// The job failing.
pub fn local_digest(spec: &JobSpec) -> Result<u64, String> {
    job::execute(spec).map(|r| job_digest(&r))
}

/// Runs [`PROBE_JOBS`] of `spec` through an in-process service on a
/// loopback TCP listener and replays their service-side costs, for
/// workloads whose own cells never reach the service.
///
/// # Errors
///
/// Any transport, answer or replay failure.
pub fn probe_service(spec: &JobSpec, layers: &mut Layers) -> Result<(), String> {
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 4,
        start_paused: false,
    }));
    let server = serve_tcp(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|e| format!("cannot listen: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let mut outcome = Ok(());
    for _ in 0..PROBE_JOBS {
        outcome = match run_job(&mut client, spec) {
            Ok(run) => replay_job(spec, &run, layers),
            Err(JobFailure::Answer(e) | JobFailure::Transport(e)) => Err(e),
        };
        if outcome.is_err() {
            break;
        }
    }
    let _ = client.request(&Request::Shutdown);
    drop(client);
    let joined = server.join().map_err(|e| e.to_string());
    match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(service) => service.request_stop(),
    }
    outcome.and(joined)
}
