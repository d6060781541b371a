//! The daemon's live metrics registry.
//!
//! One [`DaemonMetrics`] per [`Service`](crate::Service) accumulates
//! everything an operator needs to see a running daemon: jobs by state,
//! per-shard queue occupancy and high-water marks, submission outcomes,
//! job wall-time and queue-wait latency histograms, trace-ring drop
//! totals, per-tenant walk/fault/FMFI attribution folded from each
//! finished result, and a per-job in-flight progress table fed by the
//! simulator's per-tick hook.
//!
//! The registry is lock-light: hot-path counters are atomics; only the
//! fold of a *finished* result (histograms, per-tenant totals, snapshot
//! absorb) and the heartbeat table take a mutex, and neither is on a
//! simulation-visible path. Updates never touch the seeded RNG or
//! modeled time, so a metered daemon measures bit-identically to an
//! unmetered one.
//!
//! [`render`](DaemonMetrics::render) produces the Prometheus text body
//! through the same `trident_prof::prom` encoder the offline
//! `trace_analyze` report uses — identical counters render
//! byte-identical metric lines on either path.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use trident_core::StatsSnapshot;
use trident_prof::prom::{self, TextEncoder};
use trident_prof::LatencyHistogram;
use trident_sim::RunProgress;

use crate::proto::JobResult;
use crate::service::SubmitError;

/// Per-shard queue gauges.
#[derive(Debug, Default)]
struct ShardGauges {
    depth: AtomicU64,
    high_water: AtomicU64,
}

/// Totals attributed to one workload name across finished jobs.
#[derive(Debug, Default, Clone, Copy)]
struct TenantTotals {
    samples: u64,
    walks: u64,
    walk_cycles: u64,
    faults: u64,
    /// Last observed 1GB FMFI in thousandths (a gauge, not a counter).
    fmfi_milli: u64,
}

/// State folded under one mutex, off every hot path: only touched when
/// a job settles.
#[derive(Debug)]
struct Folded {
    snapshot: StatsSnapshot,
    tenants: BTreeMap<String, TenantTotals>,
    wall_ns: LatencyHistogram,
    wait_ns: LatencyHistogram,
}

/// The live metrics registry of one daemon. See the module docs.
#[derive(Debug)]
pub struct DaemonMetrics {
    workers: u64,
    queue_depth_limit: u64,
    accepted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_invalid: AtomicU64,
    rejected_shutting_down: AtomicU64,
    queued: AtomicU64,
    running: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    trace_dropped: AtomicU64,
    heartbeats: AtomicU64,
    paused: AtomicBool,
    draining: AtomicBool,
    shards: Vec<ShardGauges>,
    folded: Mutex<Folded>,
    progress: Mutex<HashMap<u64, RunProgress>>,
}

fn dec(counter: &AtomicU64) {
    // Transition accounting guarantees non-negativity; saturate anyway so
    // a bookkeeping bug degrades a gauge instead of wrapping it to 2^64.
    let _ = counter.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
        Some(v.saturating_sub(1))
    });
}

impl DaemonMetrics {
    /// A zeroed registry for a pool of `workers` shards, each admitting
    /// at most `queue_depth` queued jobs.
    #[must_use]
    pub fn new(workers: usize, queue_depth: usize) -> DaemonMetrics {
        DaemonMetrics {
            workers: workers as u64,
            queue_depth_limit: queue_depth as u64,
            accepted: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            rejected_shutting_down: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            running: AtomicU64::new(0),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            trace_dropped: AtomicU64::new(0),
            heartbeats: AtomicU64::new(0),
            paused: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            shards: (0..workers).map(|_| ShardGauges::default()).collect(),
            folded: Mutex::new(Folded {
                snapshot: StatsSnapshot::default(),
                tenants: BTreeMap::new(),
                wall_ns: LatencyHistogram::new(),
                wait_ns: LatencyHistogram::new(),
            }),
            progress: Mutex::new(HashMap::new()),
        }
    }

    /// Records a refused submission, by refusal kind.
    pub(crate) fn on_rejected(&self, err: &SubmitError) {
        let counter = match err {
            SubmitError::QueueFull { .. } => &self.rejected_queue_full,
            SubmitError::Invalid(_) => &self.rejected_invalid,
            SubmitError::ShuttingDown => &self.rejected_shutting_down,
        };
        counter.fetch_add(1, Ordering::SeqCst);
    }

    /// Records an admitted job landing on `shard` with `depth_after`
    /// jobs now queued there.
    pub fn on_accepted(&self, shard: usize, depth_after: usize) {
        self.accepted.fetch_add(1, Ordering::SeqCst);
        self.queued.fetch_add(1, Ordering::SeqCst);
        if let Some(g) = self.shards.get(shard) {
            let depth = depth_after as u64;
            g.depth.store(depth, Ordering::SeqCst);
            g.high_water.fetch_max(depth, Ordering::SeqCst);
        }
    }

    /// Records a worker popping `shard`'s queue down to `depth_after`.
    pub fn on_dequeue(&self, shard: usize, depth_after: usize) {
        if let Some(g) = self.shards.get(shard) {
            g.depth.store(depth_after as u64, Ordering::SeqCst);
        }
    }

    /// Records job `id` leaving the queue for a worker after waiting
    /// `wait_ns`, about to run `samples_total` measured accesses.
    pub fn on_start(&self, id: u64, wait_ns: u64, samples_total: u64) {
        dec(&self.queued);
        self.running.fetch_add(1, Ordering::SeqCst);
        self.folded
            .lock()
            .expect("metrics fold poisoned")
            .wait_ns
            .record(wait_ns);
        self.progress
            .lock()
            .expect("progress table poisoned")
            .insert(
                id,
                RunProgress {
                    ticks: 0,
                    samples_done: 0,
                    samples_total,
                    fmfi_milli: 0,
                },
            );
    }

    /// Records one per-tick progress report from job `id`'s simulation.
    pub(crate) fn heartbeat(&self, id: u64, progress: RunProgress) {
        self.heartbeats.fetch_add(1, Ordering::SeqCst);
        self.progress
            .lock()
            .expect("progress table poisoned")
            .insert(id, progress);
    }

    /// Folds a successfully finished job into the registry: wall-time
    /// histogram, trace-ring drops, the pooled counter snapshot, and
    /// per-tenant attribution; pins the job's final progress.
    pub fn on_done(&self, id: u64, wall_ns: u64, result: &JobResult) {
        dec(&self.running);
        self.done.fetch_add(1, Ordering::SeqCst);
        self.trace_dropped
            .fetch_add(result.trace_dropped, Ordering::SeqCst);
        {
            let mut folded = self.folded.lock().expect("metrics fold poisoned");
            folded.wall_ns.record(wall_ns);
            folded.snapshot.absorb(&result.snapshot);
            for row in &result.tenants {
                let totals = folded.tenants.entry(row.workload.clone()).or_default();
                totals.samples += row.samples;
                totals.walks += row.walks;
                totals.walk_cycles += row.walk_cycles;
                totals.faults += row.faults;
                totals.fmfi_milli = row.fmfi_milli;
            }
        }
        let mut progress = self.progress.lock().expect("progress table poisoned");
        let entry = progress.entry(id).or_insert(RunProgress {
            ticks: 0,
            samples_done: 0,
            samples_total: result.samples,
            fmfi_milli: 0,
        });
        entry.samples_done = result.samples;
        entry.samples_total = result.samples;
    }

    /// Records a job that ran and failed after `wall_ns`.
    pub(crate) fn on_failed(&self, _id: u64, wall_ns: u64) {
        dec(&self.running);
        self.failed.fetch_add(1, Ordering::SeqCst);
        self.folded
            .lock()
            .expect("metrics fold poisoned")
            .wall_ns
            .record(wall_ns);
    }

    /// Records a queued job being cancelled before it ran.
    pub(crate) fn on_cancelled(&self) {
        dec(&self.queued);
        self.cancelled.fetch_add(1, Ordering::SeqCst);
    }

    /// Mirrors the service's paused flag.
    pub(crate) fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::SeqCst);
    }

    /// Whether the service is currently paused.
    #[must_use]
    pub(crate) fn paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    /// Mirrors the service entering draining mode; `/healthz` turns 503.
    pub(crate) fn set_draining(&self, draining: bool) {
        self.draining.store(draining, Ordering::SeqCst);
    }

    /// `false` once the service started draining for shutdown.
    #[must_use]
    pub(crate) fn healthy(&self) -> bool {
        !self.draining.load(Ordering::SeqCst)
    }

    /// The latest progress report for job `id`: zeros before its first
    /// tick, the final sample counts after it finished, `None` for a job
    /// this registry never saw start.
    #[must_use]
    pub fn progress(&self, id: u64) -> Option<RunProgress> {
        self.progress
            .lock()
            .expect("progress table poisoned")
            .get(&id)
            .copied()
    }

    /// Renders the whole registry as a Prometheus text body: the
    /// `tridentd_*` service families followed by the pooled `trident_*`
    /// snapshot block (shared byte-for-byte with the offline report via
    /// `trident_prof::prom`).
    #[must_use]
    pub fn render(&self) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::SeqCst);
        let mut enc = TextEncoder::new();
        enc.gauge("tridentd_workers", "Worker threads (= shards).");
        enc.sample("tridentd_workers", &[], self.workers);
        enc.gauge(
            "tridentd_queue_depth_limit",
            "Maximum queued jobs per shard.",
        );
        enc.sample("tridentd_queue_depth_limit", &[], self.queue_depth_limit);
        enc.gauge("tridentd_paused", "1 while workers are paused.");
        enc.sample("tridentd_paused", &[], u64::from(self.paused()));
        enc.gauge("tridentd_draining", "1 once shutdown draining began.");
        enc.sample("tridentd_draining", &[], u64::from(!self.healthy()));
        enc.gauge("tridentd_jobs", "Live jobs, by state.");
        enc.sample("tridentd_jobs", &[("state", "queued")], load(&self.queued));
        enc.sample(
            "tridentd_jobs",
            &[("state", "running")],
            load(&self.running),
        );
        enc.counter("tridentd_jobs_total", "Settled jobs, by terminal state.");
        enc.sample(
            "tridentd_jobs_total",
            &[("state", "done")],
            load(&self.done),
        );
        enc.sample(
            "tridentd_jobs_total",
            &[("state", "failed")],
            load(&self.failed),
        );
        enc.sample(
            "tridentd_jobs_total",
            &[("state", "cancelled")],
            load(&self.cancelled),
        );
        enc.counter("tridentd_submissions_total", "Submissions, by outcome.");
        enc.sample(
            "tridentd_submissions_total",
            &[("outcome", "accepted")],
            load(&self.accepted),
        );
        enc.sample(
            "tridentd_submissions_total",
            &[("outcome", "queue_full")],
            load(&self.rejected_queue_full),
        );
        enc.sample(
            "tridentd_submissions_total",
            &[("outcome", "invalid")],
            load(&self.rejected_invalid),
        );
        enc.sample(
            "tridentd_submissions_total",
            &[("outcome", "shutting_down")],
            load(&self.rejected_shutting_down),
        );
        enc.gauge("tridentd_shard_queue_depth", "Queued jobs on each shard.");
        let shard_labels: Vec<String> = (0..self.shards.len()).map(|i| i.to_string()).collect();
        for (label, g) in shard_labels.iter().zip(&self.shards) {
            enc.sample(
                "tridentd_shard_queue_depth",
                &[("shard", label)],
                g.depth.load(Ordering::SeqCst),
            );
        }
        enc.gauge(
            "tridentd_shard_queue_high_water",
            "Deepest each shard's queue has been.",
        );
        for (label, g) in shard_labels.iter().zip(&self.shards) {
            enc.sample(
                "tridentd_shard_queue_high_water",
                &[("shard", label)],
                g.high_water.load(Ordering::SeqCst),
            );
        }
        enc.counter(
            "tridentd_heartbeats_total",
            "Per-tick progress reports received from running jobs.",
        );
        enc.sample("tridentd_heartbeats_total", &[], load(&self.heartbeats));
        enc.counter(
            "tridentd_trace_dropped_total",
            "Events dropped by job trace rings.",
        );
        enc.sample(
            "tridentd_trace_dropped_total",
            &[],
            load(&self.trace_dropped),
        );
        let folded = self.folded.lock().expect("metrics fold poisoned");
        enc.summary(
            "tridentd_job_wall_ns",
            "Job wall-clock duration quantiles in nanoseconds.",
        );
        prom::summary_samples(&mut enc, "tridentd_job_wall_ns", &[], &folded.wall_ns);
        enc.summary(
            "tridentd_job_queue_wait_ns",
            "Job queue-wait quantiles in nanoseconds.",
        );
        prom::summary_samples(&mut enc, "tridentd_job_queue_wait_ns", &[], &folded.wait_ns);
        if !folded.tenants.is_empty() {
            enc.counter(
                "tridentd_tenant_samples_total",
                "Measured accesses, by tenant workload.",
            );
            for (name, t) in &folded.tenants {
                enc.sample(
                    "tridentd_tenant_samples_total",
                    &[("workload", name)],
                    t.samples,
                );
            }
            enc.counter(
                "tridentd_tenant_walks_total",
                "Page walks, by tenant workload.",
            );
            for (name, t) in &folded.tenants {
                enc.sample(
                    "tridentd_tenant_walks_total",
                    &[("workload", name)],
                    t.walks,
                );
            }
            enc.counter(
                "tridentd_tenant_walk_cycles_total",
                "Translation cycles, by tenant workload.",
            );
            for (name, t) in &folded.tenants {
                enc.sample(
                    "tridentd_tenant_walk_cycles_total",
                    &[("workload", name)],
                    t.walk_cycles,
                );
            }
            enc.counter(
                "tridentd_tenant_faults_total",
                "Page faults, by tenant workload.",
            );
            for (name, t) in &folded.tenants {
                enc.sample(
                    "tridentd_tenant_faults_total",
                    &[("workload", name)],
                    t.faults,
                );
            }
            enc.gauge(
                "tridentd_tenant_fmfi_milli",
                "Last observed 1GB FMFI in thousandths, by tenant workload.",
            );
            for (name, t) in &folded.tenants {
                enc.sample(
                    "tridentd_tenant_fmfi_milli",
                    &[("workload", name)],
                    t.fmfi_milli,
                );
            }
        }
        prom::snapshot_counters(&mut enc, &folded.snapshot);
        enc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{JobResult, RungRow, TenantRow};

    fn result_with_tenant() -> JobResult {
        JobResult {
            samples: 100,
            tlb_accesses: 100,
            walks: 10,
            walk_cycles: 350,
            rungs: vec![
                RungRow {
                    size: "4KB".to_owned(),
                    bytes: 1,
                },
                RungRow {
                    size: "2MB".to_owned(),
                    bytes: 2,
                },
                RungRow {
                    size: "1GB".to_owned(),
                    bytes: 3,
                },
            ],
            trace_dropped: 4,
            trace_lines: None,
            violations: 0,
            tenants: vec![TenantRow {
                tenant: 0,
                workload: "GUPS".to_owned(),
                samples: 100,
                walks: 10,
                walk_cycles: 350,
                rungs: vec![
                    RungRow {
                        size: "4KB".to_owned(),
                        bytes: 1,
                    },
                    RungRow {
                        size: "2MB".to_owned(),
                        bytes: 2,
                    },
                    RungRow {
                        size: "1GB".to_owned(),
                        bytes: 3,
                    },
                ],
                fmfi_milli: 250,
                faults: 7,
            }],
            snapshot: StatsSnapshot {
                faults: [7, 0, 0, 0, 0, 0],
                ..StatsSnapshot::default()
            },
        }
    }

    #[test]
    fn lifecycle_counters_track_transitions() {
        let m = DaemonMetrics::new(2, 8);
        m.on_accepted(1, 1);
        m.on_accepted(1, 2);
        let queued = m.render();
        let depths: Vec<&str> = queued
            .lines()
            .filter(|line| line.starts_with("tridentd_shard_queue_depth{"))
            .collect();
        assert_eq!(
            depths,
            [
                "tridentd_shard_queue_depth{shard=\"0\"} 0",
                "tridentd_shard_queue_depth{shard=\"1\"} 2",
            ],
            "{queued}"
        );
        m.on_dequeue(1, 1);
        m.on_start(1, 5_000, 100);
        m.heartbeat(
            1,
            RunProgress {
                ticks: 3,
                samples_done: 50,
                samples_total: 100,
                fmfi_milli: 900,
            },
        );
        assert_eq!(m.progress(1).unwrap().samples_done, 50);
        m.on_done(1, 1_000_000, &result_with_tenant());
        assert_eq!(m.progress(1).unwrap().samples_done, 100);
        m.on_cancelled();

        let text = m.render();
        assert!(
            text.contains("tridentd_jobs_total{state=\"done\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("tridentd_jobs_total{state=\"cancelled\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("tridentd_submissions_total{outcome=\"accepted\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("tridentd_shard_queue_high_water{shard=\"1\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("tridentd_trace_dropped_total 4\n"), "{text}");
        assert!(
            text.contains("tridentd_tenant_samples_total{workload=\"GUPS\"} 100\n"),
            "{text}"
        );
        assert!(
            text.contains("trident_faults_total{size=\"base\"} 7\n"),
            "{text}"
        );
        assert!(text.contains("tridentd_job_wall_ns_count 1\n"), "{text}");
        prom::lint(&text).unwrap();
    }

    #[test]
    fn rendering_is_always_lint_clean() {
        // Empty registry (no tenants, empty histograms) must lint too.
        let m = DaemonMetrics::new(1, 4);
        prom::lint(&m.render()).unwrap();
        m.set_paused(true);
        m.set_draining(true);
        assert!(!m.healthy());
        let text = m.render();
        assert!(text.contains("tridentd_paused 1\n"));
        assert!(text.contains("tridentd_draining 1\n"));
        prom::lint(&text).unwrap();
    }

    #[test]
    fn gauge_decrements_saturate() {
        let m = DaemonMetrics::new(1, 4);
        m.on_cancelled();
        let text = m.render();
        assert!(
            text.contains("tridentd_jobs{state=\"queued\"} 0\n"),
            "queued gauge must saturate at zero, got: {text}"
        );
    }
}
