//! The job service: a sharded worker pool with bounded admission.
//!
//! Jobs are assigned to shards by `id % workers`; each shard owns a
//! bounded FIFO queue and one worker thread, so job execution order
//! within a shard is submission order and the mapping from job to
//! worker is a pure function of the id — nothing about scheduling can
//! affect results (each job is a self-contained deterministic
//! simulation anyway; see `job::execute`).
//!
//! Admission is bounded per shard: when a job's target queue is at
//! `queue_depth`, submission fails synchronously with
//! [`SubmitError::QueueFull`] — the daemon never buffers unboundedly
//! and never blocks the submitting connection. Shutdown drains: queued
//! and in-flight jobs finish, new submissions are refused.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use trident_sim::RunProgress;

use crate::job;
use crate::metrics::DaemonMetrics;
use crate::proto::{
    ErrorCode, JobProgress, JobResult, JobSpec, JobState, JobSummary, Request, Response,
    ServiceInfo,
};

/// Sizing knobs for a [`Service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads (= shards). `0` means one per available core.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs per shard; submissions
    /// beyond this fail with [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// Start with workers paused: jobs are admitted and queued but none
    /// execute until [`Service::resume`]. Used by tests to fill queues
    /// deterministically, and by operators to stage a batch.
    pub start_paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            queue_depth: 64,
            start_paused: false,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The target shard's queue is at capacity.
    QueueFull {
        /// The shard that was full.
        shard: usize,
        /// Its configured depth.
        depth: usize,
    },
    /// The spec failed validation (unknown workload/policy, bad fault
    /// plan, conflicting outputs).
    Invalid(String),
    /// The service is draining for shutdown.
    ShuttingDown,
}

impl SubmitError {
    /// The wire error code for this failure.
    #[must_use]
    pub fn code(&self) -> ErrorCode {
        match self {
            SubmitError::QueueFull { .. } => ErrorCode::QueueFull,
            SubmitError::Invalid(_) => ErrorCode::BadRequest,
            SubmitError::ShuttingDown => ErrorCode::ShuttingDown,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { shard, depth } => {
                write!(f, "shard {shard} queue is at its depth of {depth}")
            }
            SubmitError::Invalid(msg) => f.write_str(msg),
            SubmitError::ShuttingDown => f.write_str("service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How waiting for a result ended.
// Size skew from the embedded snapshot; one value per wait, immediately
// consumed — same call as `proto::Response`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum JobWait {
    /// The job finished; here is its measurement.
    Done(JobResult),
    /// The job ran and failed with this error text.
    Failed(String),
    /// The job was cancelled before running.
    Cancelled,
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    result: Option<JobResult>,
    error: Option<String>,
    /// Wall-clock admission time, for the queue-wait histogram. Never
    /// feeds the simulation — daemon latency only.
    queued_at: Instant,
}

struct JobTable {
    next_id: u64,
    jobs: HashMap<u64, JobEntry>,
}

struct Shard {
    queue: Mutex<VecDeque<u64>>,
    wake: Condvar,
}

struct Inner {
    table: Mutex<JobTable>,
    /// Signalled whenever any job reaches a terminal state.
    settled: Condvar,
    shards: Vec<Shard>,
    queue_depth: usize,
    stopping: AtomicBool,
    paused: AtomicBool,
    metrics: Arc<DaemonMetrics>,
}

/// A running job service. Dropping without [`shutdown`](Service::shutdown)
/// detaches the workers; call `shutdown` for a drained, joined exit.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Service {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        } else {
            config.workers
        };
        let metrics = Arc::new(DaemonMetrics::new(workers, config.queue_depth.max(1)));
        metrics.set_paused(config.start_paused);
        let inner = Arc::new(Inner {
            table: Mutex::new(JobTable {
                next_id: 1,
                jobs: HashMap::new(),
            }),
            settled: Condvar::new(),
            shards: (0..workers)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    wake: Condvar::new(),
                })
                .collect(),
            queue_depth: config.queue_depth.max(1),
            stopping: AtomicBool::new(false),
            paused: AtomicBool::new(config.start_paused),
            metrics,
        });
        let handles = (0..workers)
            .map(|shard| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, shard))
            })
            .collect();
        Service {
            inner,
            workers: handles,
        }
    }

    /// The number of worker threads (= shards).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inner.shards.len()
    }

    /// Validates and admits a job, returning its id.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] on a spec that could never run,
    /// [`SubmitError::QueueFull`] when the target shard is at capacity,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let result = self.submit_inner(spec);
        if let Err(err) = &result {
            self.inner.metrics.on_rejected(err);
        }
        result
    }

    fn submit_inner(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        if self.inner.stopping.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        job::resolve(&spec).map_err(SubmitError::Invalid)?;
        // Lock order everywhere: table before shard queue.
        let mut table = self.inner.table.lock().expect("job table poisoned");
        let id = table.next_id;
        let shard_idx = usize::try_from(id % self.inner.shards.len() as u64).expect("fits");
        let shard = &self.inner.shards[shard_idx];
        {
            let mut queue = shard.queue.lock().expect("shard queue poisoned");
            if queue.len() >= self.inner.queue_depth {
                return Err(SubmitError::QueueFull {
                    shard: shard_idx,
                    depth: self.inner.queue_depth,
                });
            }
            queue.push_back(id);
            self.inner.metrics.on_accepted(shard_idx, queue.len());
        }
        table.next_id += 1;
        table.jobs.insert(
            id,
            JobEntry {
                spec,
                state: JobState::Queued,
                result: None,
                error: None,
                queued_at: Instant::now(),
            },
        );
        drop(table);
        shard.wake.notify_one();
        Ok(id)
    }

    /// The job's current state, if it exists. Never blocks on job
    /// execution.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<JobState> {
        let table = self.inner.table.lock().expect("job table poisoned");
        table.jobs.get(&id).map(|j| j.state)
    }

    /// Blocks until the job reaches a terminal state and returns how it
    /// ended, or `None` for an unknown id.
    #[must_use]
    pub fn wait(&self, id: u64) -> Option<JobWait> {
        let mut table = self.inner.table.lock().expect("job table poisoned");
        loop {
            let entry = table.jobs.get(&id)?;
            match entry.state {
                JobState::Done => {
                    return Some(JobWait::Done(
                        entry.result.clone().expect("done job has a result"),
                    ))
                }
                JobState::Failed => {
                    return Some(JobWait::Failed(
                        entry
                            .error
                            .clone()
                            .unwrap_or_else(|| "unknown error".to_owned()),
                    ))
                }
                JobState::Cancelled => return Some(JobWait::Cancelled),
                JobState::Queued | JobState::Running => {
                    table = self.inner.settled.wait(table).expect("job table poisoned");
                }
            }
        }
    }

    /// Cancels a queued job. Returns the job's state after the attempt:
    /// `Cancelled` if this call cancelled it, the unchanged state if it
    /// was already running or finished, `None` for an unknown id.
    #[must_use]
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut table = self.inner.table.lock().expect("job table poisoned");
        let entry = table.jobs.get_mut(&id)?;
        if entry.state == JobState::Queued {
            // The id stays in its shard queue; the worker skips
            // non-queued entries when it pops them.
            entry.state = JobState::Cancelled;
            self.inner.metrics.on_cancelled();
            self.inner.settled.notify_all();
        }
        Some(entry.state)
    }

    /// Every known job, in submission order.
    #[must_use]
    pub fn list(&self) -> Vec<JobSummary> {
        let table = self.inner.table.lock().expect("job table poisoned");
        let mut rows: Vec<JobSummary> = table
            .jobs
            .iter()
            .map(|(&id, j)| JobSummary {
                id,
                state: j.state,
                workload: j.spec.workload.clone(),
                policy: j.spec.policy.clone(),
            })
            .collect();
        rows.sort_by_key(|r| r.id);
        rows
    }

    /// Stops executing queued jobs (already-running jobs finish). Queued
    /// jobs keep their place and run on [`resume`](Service::resume).
    pub fn pause(&self) {
        self.inner.paused.store(true, Ordering::SeqCst);
        self.inner.metrics.set_paused(true);
    }

    /// Resumes execution after [`pause`](Service::pause).
    pub fn resume(&self) {
        self.inner.paused.store(false, Ordering::SeqCst);
        self.inner.metrics.set_paused(false);
        for shard in &self.inner.shards {
            shard.wake.notify_one();
        }
    }

    /// Refuses new submissions from now on; queued and running jobs
    /// still drain. Idempotent.
    pub fn request_stop(&self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        self.inner.metrics.set_draining(true);
        for shard in &self.inner.shards {
            shard.wake.notify_one();
        }
    }

    /// The live metrics registry; share it with a scrape endpoint via
    /// [`serve_metrics`](crate::serve_metrics).
    #[must_use]
    pub fn metrics(&self) -> Arc<DaemonMetrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// A point-in-time health snapshot of the pool: paused flag, sizing,
    /// and per-shard queue occupancy.
    #[must_use]
    pub fn info(&self) -> ServiceInfo {
        ServiceInfo {
            paused: self.inner.paused.load(Ordering::SeqCst),
            workers: self.inner.shards.len(),
            queue_depth: self.inner.queue_depth,
            queues: self
                .inner
                .shards
                .iter()
                .map(|s| s.queue.lock().expect("shard queue poisoned").len() as u64)
                .collect(),
        }
    }

    /// Drains every queued and in-flight job, joins the workers, and
    /// consumes the service.
    pub fn shutdown(mut self) {
        self.request_stop();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Serves one protocol request. `Result` requests block until the
    /// job settles; everything else answers immediately. A `Shutdown`
    /// request answers [`Response::ShuttingDown`] and flips the service
    /// into draining mode — the caller owns actually joining the
    /// workers (via [`shutdown`](Service::shutdown)).
    #[must_use]
    pub fn handle(&self, request: Request) -> Response {
        match request {
            Request::Submit(spec) => match self.submit(spec) {
                Ok(id) => Response::Submitted { id },
                Err(err) => Response::Error {
                    code: err.code(),
                    message: err.to_string(),
                },
            },
            Request::Status { id } => match self.status(id) {
                Some(state) => Response::Status {
                    id,
                    state,
                    service: self.info(),
                },
                None => unknown_job(id),
            },
            Request::Result { id } => match self.wait(id) {
                Some(JobWait::Done(result)) => Response::Result { id, result },
                Some(JobWait::Failed(message)) => Response::Error {
                    code: ErrorCode::JobFailed,
                    message,
                },
                Some(JobWait::Cancelled) => Response::Cancelled { id },
                None => unknown_job(id),
            },
            Request::Cancel { id } => match self.cancel(id) {
                Some(JobState::Cancelled) => Response::Cancelled { id },
                Some(state) => Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("job {id} is {state}; only queued jobs can be cancelled"),
                },
                None => unknown_job(id),
            },
            Request::List => Response::Jobs {
                jobs: self.list(),
                service: self.info(),
            },
            Request::Metrics => Response::Metrics {
                text: self.inner.metrics.render(),
            },
            Request::Progress { id } => match self.status(id) {
                Some(state) => {
                    let progress = self.inner.metrics.progress(id).unwrap_or_else(|| {
                        // Not started yet (or already settled without
                        // running): zeros against the spec's total.
                        let table = self.inner.table.lock().expect("job table poisoned");
                        RunProgress {
                            ticks: 0,
                            samples_done: 0,
                            samples_total: table.jobs.get(&id).map_or(0, |j| j.spec.samples as u64),
                            fmfi_milli: 0,
                        }
                    });
                    Response::Progress {
                        id,
                        state,
                        progress: JobProgress {
                            ticks: progress.ticks,
                            samples_done: progress.samples_done,
                            samples_total: progress.samples_total,
                            fmfi_milli: progress.fmfi_milli,
                        },
                    }
                }
                None => unknown_job(id),
            },
            Request::Shutdown => {
                self.request_stop();
                Response::ShuttingDown
            }
        }
    }
}

fn unknown_job(id: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownJob,
        message: format!("no job with id {id}"),
    }
}

fn worker_loop(inner: &Inner, shard_idx: usize) {
    let shard = &inner.shards[shard_idx];
    loop {
        let id = {
            let mut queue = shard.queue.lock().expect("shard queue poisoned");
            loop {
                let stopping = inner.stopping.load(Ordering::SeqCst);
                // While paused (and not draining for shutdown), hold.
                if inner.paused.load(Ordering::SeqCst) && !stopping {
                    queue = shard.wake.wait(queue).expect("shard queue poisoned");
                    continue;
                }
                if let Some(id) = queue.pop_front() {
                    inner.metrics.on_dequeue(shard_idx, queue.len());
                    break id;
                }
                if stopping {
                    return;
                }
                queue = shard.wake.wait(queue).expect("shard queue poisoned");
            }
        };
        run_one(inner, id);
    }
}

/// Executes job `id` (or skips it if it was cancelled while queued),
/// recording the outcome and waking result waiters.
fn run_one(inner: &Inner, id: u64) {
    let (spec, wait_ns) = {
        let mut table = inner.table.lock().expect("job table poisoned");
        let Some(entry) = table.jobs.get_mut(&id) else {
            return;
        };
        if entry.state != JobState::Queued {
            return; // cancelled while queued
        }
        entry.state = JobState::Running;
        let wait_ns = u64::try_from(entry.queued_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        (entry.spec.clone(), wait_ns)
    };
    inner.metrics.on_start(id, wait_ns, spec.samples as u64);
    let started = Instant::now();
    // Per-tick heartbeats make the in-flight job visible to `watch` and
    // `/metrics`; the hook only reads state the tick already computed,
    // so a metered run measures bit-identically to an unmetered one.
    let heartbeat_metrics = Arc::clone(&inner.metrics);
    let hook: Box<dyn FnMut(RunProgress) + Send> =
        Box::new(move |p| heartbeat_metrics.heartbeat(id, p));
    // A panicking simulation must not take its worker (or the whole
    // daemon) down — it becomes a Failed job like any other error.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        job::execute_with_progress(&spec, Some(hook))
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Err(format!("job panicked: {msg}"))
    });
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    match &outcome {
        Ok(result) => inner.metrics.on_done(id, wall_ns, result),
        Err(_) => inner.metrics.on_failed(id, wall_ns),
    }
    let mut table = inner.table.lock().expect("job table poisoned");
    if let Some(entry) = table.jobs.get_mut(&id) {
        match outcome {
            Ok(result) => {
                entry.state = JobState::Done;
                entry.result = Some(result);
            }
            Err(message) => {
                entry.state = JobState::Failed;
                entry.error = Some(message);
            }
        }
    }
    drop(table);
    inner.settled.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(seed: u64) -> JobSpec {
        let mut spec = JobSpec::new("GUPS", "Trident");
        spec.scale = 256;
        spec.samples = 1_000;
        spec.seed = seed;
        spec
    }

    fn small_service(workers: usize, queue_depth: usize, start_paused: bool) -> Service {
        Service::start(ServiceConfig {
            workers,
            queue_depth,
            start_paused,
        })
    }

    #[test]
    fn submit_validates_before_admitting() {
        let service = small_service(1, 4, true);
        let err = service.submit(JobSpec::new("Nope", "Trident")).unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)));
        assert_eq!(err.code(), ErrorCode::BadRequest);
        assert!(service.list().is_empty(), "invalid jobs are never admitted");
        service.shutdown();
    }

    #[test]
    fn queue_full_is_typed_and_the_queue_drains() {
        let service = small_service(1, 2, true);
        let a = service.submit(quick_spec(1)).unwrap();
        let b = service.submit(quick_spec(2)).unwrap();
        let err = service.submit(quick_spec(3)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { shard: 0, depth: 2 });
        assert_eq!(err.code(), ErrorCode::QueueFull);

        service.resume();
        assert!(matches!(service.wait(a), Some(JobWait::Done(_))));
        assert!(matches!(service.wait(b), Some(JobWait::Done(_))));
        // With the backlog drained there is room again.
        let c = service.submit(quick_spec(3)).unwrap();
        assert!(matches!(service.wait(c), Some(JobWait::Done(_))));
        service.shutdown();
    }

    #[test]
    fn cancel_only_reaches_queued_jobs() {
        let service = small_service(1, 8, true);
        let id = service.submit(quick_spec(1)).unwrap();
        assert_eq!(service.cancel(id), Some(JobState::Cancelled));
        assert_eq!(service.wait(id), Some(JobWait::Cancelled));
        assert_eq!(service.cancel(9999), None);

        let done = service.submit(quick_spec(2)).unwrap();
        service.resume();
        assert!(matches!(service.wait(done), Some(JobWait::Done(_))));
        // Terminal jobs are not cancellable; state is reported unchanged.
        assert_eq!(service.cancel(done), Some(JobState::Done));
        service.shutdown();
    }

    #[test]
    fn failed_jobs_surface_their_error() {
        let service = small_service(1, 4, false);
        // Fragmented memory makes the hugetlbfs-1G reservation fail at
        // launch — a run-time failure that submit-time validation cannot
        // see.
        let mut spec = quick_spec(1);
        spec.policy = "Hugetlbfs1G".to_owned();
        spec.fragment = true;
        let id = service.submit(spec).unwrap();
        match service.wait(id) {
            Some(JobWait::Failed(msg)) => assert!(msg.contains("launch failed"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(service.status(id), Some(JobState::Failed));
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_refuses_new_ones() {
        let service = small_service(2, 8, true);
        let ids: Vec<u64> = (0..4)
            .map(|i| service.submit(quick_spec(i)).unwrap())
            .collect();
        service.request_stop();
        assert_eq!(
            service.submit(quick_spec(99)).unwrap_err(),
            SubmitError::ShuttingDown
        );
        // Still paused and stopping: shutdown must drain regardless.
        service.shutdown();
        // The service is gone; we kept no handle — drain is observable
        // via the join in shutdown() not deadlocking, which this test's
        // completion demonstrates.
        drop(ids);
    }

    #[test]
    fn handle_maps_every_request_to_its_response() {
        let service = small_service(1, 4, false);
        let id = match service.handle(Request::Submit(quick_spec(7))) {
            Response::Submitted { id } => id,
            other => panic!("expected Submitted, got {other:?}"),
        };
        match service.handle(Request::Result { id }) {
            Response::Result { id: rid, .. } => assert_eq!(rid, id),
            other => panic!("expected Result, got {other:?}"),
        }
        match service.handle(Request::Status { id }) {
            Response::Status {
                id: rid,
                state,
                service: info,
            } => {
                assert_eq!(rid, id);
                assert_eq!(state, JobState::Done);
                assert_eq!(info.workers, 1);
                assert_eq!(info.queue_depth, 4);
                assert!(!info.paused);
                assert_eq!(info.queues, vec![0]);
            }
            other => panic!("expected Status, got {other:?}"),
        }
        match service.handle(Request::List) {
            Response::Jobs {
                jobs,
                service: info,
            } => {
                assert_eq!(jobs.len(), 1);
                assert_eq!(info.queues.len(), 1);
            }
            other => panic!("expected Jobs, got {other:?}"),
        }
        match service.handle(Request::Metrics) {
            Response::Metrics { text } => {
                assert!(
                    text.contains("tridentd_jobs_total{state=\"done\"} 1\n"),
                    "{text}"
                );
                trident_prof::prom::lint(&text).unwrap();
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
        match service.handle(Request::Progress { id }) {
            Response::Progress {
                id: rid,
                state,
                progress,
            } => {
                assert_eq!(rid, id);
                assert_eq!(state, JobState::Done);
                assert_eq!(progress.samples_done, progress.samples_total);
                assert!(progress.samples_total > 0);
            }
            other => panic!("expected Progress, got {other:?}"),
        }
        match service.handle(Request::Progress { id: 42 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
            other => panic!("expected Error, got {other:?}"),
        }
        match service.handle(Request::Status { id: 42 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eq!(service.handle(Request::Shutdown), Response::ShuttingDown);
        service.shutdown();
    }
}
