//! End-to-end tests over a real TCP socket: a cell submitted to a
//! daemon must measure bit-identically to a direct `System` run, at any
//! worker count, the bounded admission queue must push back with a
//! typed `queue_full` and then drain, and a read deadline must turn a
//! silent daemon into a typed timeout.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trident_serve::proto::{
    ErrorCode, FaultSpec, JobResult, JobSpec, ProtoError, Request, Response, RungRow, TenantJob,
};
use trident_serve::{serve_tcp, Client, ClientError, Service, ServiceConfig};
use trident_sim::experiments::ExpOptions;
use trident_sim::{derive_cell_seed, PolicyKind, System};
use trident_workloads::WorkloadSpec;

fn spec(cell_index: Option<u64>) -> JobSpec {
    let mut spec = JobSpec::new("GUPS", "Trident");
    spec.scale = 256;
    spec.samples = 2_000;
    spec.seed = 42;
    spec.cell_index = cell_index;
    spec
}

/// What the daemon should have measured for [`spec`], computed by
/// running the `System` directly — no service, no socket, no JSON.
fn direct_run(cell_index: Option<u64>) -> (u64, u64, Vec<RungRow>, trident_core::StatsSnapshot) {
    let opts = ExpOptions {
        scale: 256,
        samples: 2_000,
        seed: cell_index.map_or(42, |c| derive_cell_seed(42, c)),
        threads: 0,
        trace_capacity: None,
        profile: false,
    };
    let mut system = System::builder(opts.config())
        .policy(PolicyKind::Trident)
        .workload(WorkloadSpec::by_name("GUPS").unwrap())
        .build()
        .unwrap();
    system.settle();
    let m = system.measure();
    let geo = system.geometry();
    let rungs = geo
        .rungs()
        .map(|size| RungRow {
            size: geo.label(size),
            bytes: m.mapped_bytes[size.rung()],
        })
        .collect();
    (m.walks, m.walk_cycles, rungs, m.snapshot)
}

/// Disconnects, stops the accept loop, waits for the connection thread
/// to release its service handle, and drains the pool.
fn teardown(client: Client, handle: trident_serve::ServerHandle, mut service: Arc<Service>) {
    drop(client);
    handle.stop();
    handle.join().unwrap();
    let service = loop {
        match Arc::try_unwrap(service) {
            Ok(service) => break service,
            Err(back) => {
                // The connection thread is between observing EOF and
                // exiting; it drops its Arc momentarily.
                service = back;
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
    };
    service.shutdown();
}

fn submit(client: &mut Client, job: JobSpec) -> u64 {
    match client.request(&Request::Submit(job)).unwrap() {
        Response::Submitted { id } => id,
        other => panic!("expected Submitted, got {other:?}"),
    }
}

fn fetch(client: &mut Client, id: u64) -> JobResult {
    match client.request(&Request::Result { id }).unwrap() {
        Response::Result { id: rid, result } => {
            assert_eq!(rid, id);
            result
        }
        other => panic!("expected Result, got {other:?}"),
    }
}

#[test]
fn socket_results_are_bit_identical_at_any_worker_count() {
    // Three cells of a grid, each with its own derived seed. The same
    // three expected measurements must come back from a 1-, 2- and
    // 4-worker daemon: sharding can move a job between workers but must
    // never change what it computes.
    let cells = [None, Some(0), Some(3)];
    let expected: Vec<_> = cells.iter().map(|&c| direct_run(c)).collect();

    for workers in [1usize, 2, 4] {
        let service = Arc::new(Service::start(ServiceConfig {
            workers,
            queue_depth: 16,
            start_paused: false,
        }));
        let handle = serve_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        let ids: Vec<u64> = cells
            .iter()
            .map(|&c| submit(&mut client, spec(c)))
            .collect();
        for (id, (walks, walk_cycles, rungs, snapshot)) in ids.into_iter().zip(&expected) {
            let result = fetch(&mut client, id);
            assert_eq!(result.walks, *walks, "workers={workers}");
            assert_eq!(result.walk_cycles, *walk_cycles, "workers={workers}");
            assert_eq!(result.rungs, *rungs, "workers={workers}");
            assert_eq!(result.snapshot, *snapshot, "workers={workers}");
        }

        teardown(client, handle, service);
    }
}

#[test]
fn socket_backpressure_is_typed_and_drains() {
    // One paused worker, depth 2: the third submission must bounce with
    // the wire code `queue_full`, and after resume the backlog drains
    // and the bounced job fits on resubmission.
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 2,
        start_paused: true,
    }));
    let handle = serve_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let a = submit(&mut client, spec(None));
    let b = submit(&mut client, spec(Some(1)));
    match client.request(&Request::Submit(spec(Some(2)))).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::QueueFull);
            assert!(message.contains("depth of 2"), "{message}");
        }
        other => panic!("expected queue_full, got {other:?}"),
    }

    service.resume();
    fetch(&mut client, a);
    fetch(&mut client, b);
    let c = submit(&mut client, spec(Some(2)));
    fetch(&mut client, c);

    teardown(client, handle, service);
}

#[test]
fn socket_colocation_smoke_matches_local_and_stays_isolated() {
    // The CI co-location smoke cell: a 3-tenant machine (GUPS primary,
    // Redis weighted and pinned beside it, XSBench unweighted) with the
    // per-tick audit on and a seeded fault plan biting allocations. The
    // daemon's answer must be bit-identical to the local `job::execute`
    // path, carry one row per tenant, and report zero isolation
    // violations even while faults are being injected.
    let mut job = spec(None);
    job.audit = true;
    job.fault = Some(FaultSpec {
        seed: 7,
        rules: vec![(trident_core::InjectSite::Alloc, 10)],
    });
    let mut redis = TenantJob::new("Redis");
    redis.weight = 2;
    redis.pins = vec![(0, 512)];
    job.tenants = vec![redis, TenantJob::new("XSBench")];

    let local = trident_serve::job::execute(&job).unwrap();
    assert_eq!(local.tenants.len(), 3, "one row per tenant");
    assert_eq!(local.violations, 0, "audit must stay clean under faults");
    let per_tenant: u64 = local.tenants.iter().map(|t| t.samples).sum();
    assert_eq!(per_tenant, local.samples, "rows must cover every sample");

    let service = Arc::new(Service::start(ServiceConfig {
        workers: 2,
        queue_depth: 4,
        start_paused: false,
    }));
    let handle = serve_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let id = submit(&mut client, job);
    let remote = fetch(&mut client, id);
    assert_eq!(remote, local, "remote co-location cell drifted from local");

    teardown(client, handle, service);
}

#[test]
fn socket_observability_plane_reports_the_run() {
    // The whole v3 surface over one socket: queue occupancy and the
    // paused flag ride on Status/Jobs, a finished job answers Progress
    // with its final sample counts, and Metrics returns a lint-clean
    // Prometheus body whose counters reflect the job that just ran.
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 2,
        queue_depth: 4,
        start_paused: true,
    }));
    let handle = serve_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let id = submit(&mut client, spec(None));
    match client.request(&Request::Status { id }).unwrap() {
        Response::Status { service: info, .. } => {
            assert!(info.paused, "daemon started paused");
            assert_eq!(info.workers, 2);
            assert_eq!(info.queue_depth, 4);
            assert_eq!(info.queues.iter().sum::<u64>(), 1, "{:?}", info.queues);
        }
        other => panic!("expected Status, got {other:?}"),
    }

    service.resume();
    fetch(&mut client, id);

    match client.request(&Request::List).unwrap() {
        Response::Jobs {
            jobs,
            service: info,
        } => {
            assert_eq!(jobs.len(), 1);
            assert!(!info.paused, "resume must clear the flag on the wire");
            assert_eq!(info.queues, vec![0, 0], "backlog drained");
        }
        other => panic!("expected Jobs, got {other:?}"),
    }

    match client.request(&Request::Progress { id }).unwrap() {
        Response::Progress {
            id: rid,
            state,
            progress,
        } => {
            assert_eq!(rid, id);
            assert_eq!(state, trident_serve::proto::JobState::Done);
            assert_eq!(progress.samples_done, 2_000);
            assert_eq!(progress.samples_total, 2_000);
            assert!(progress.ticks > 0, "the per-tick hook must have fired");
        }
        other => panic!("expected Progress, got {other:?}"),
    }
    match client.request(&Request::Progress { id: 999 }).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
        other => panic!("expected unknown_job, got {other:?}"),
    }

    match client.request(&Request::Metrics).unwrap() {
        Response::Metrics { text } => {
            trident_prof::prom::lint(&text).unwrap();
            assert!(
                text.contains("tridentd_jobs_total{state=\"done\"} 1\n"),
                "{text}"
            );
            assert!(
                text.contains("tridentd_submissions_total{outcome=\"accepted\"} 1\n"),
                "{text}"
            );
            assert!(
                text.contains("tridentd_tenant_samples_total{workload=\"GUPS\"} 2000\n"),
                "{text}"
            );
            assert!(text.contains("tridentd_heartbeats_total"), "{text}");
            assert!(text.contains("tridentd_job_wall_ns_count 1\n"), "{text}");
        }
        other => panic!("expected Metrics, got {other:?}"),
    }

    teardown(client, handle, service);
}

#[test]
fn socket_trace_drops_surface_end_to_end() {
    // A deliberately tiny trace ring overflows; the drop count must
    // survive the wire in JobResult and fold into the daemon's
    // tridentd_trace_dropped_total — and a hookless direct run of the
    // same spec must drop exactly as many events (the progress hook and
    // registry never perturb the run).
    let mut job = spec(None);
    job.trace_capacity = Some(8);
    let local = trident_serve::job::execute(&job).unwrap();
    assert!(local.trace_dropped > 0, "an 8-slot ring must overflow");

    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 4,
        start_paused: false,
    }));
    let handle = serve_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let id = submit(&mut client, job);
    let remote = fetch(&mut client, id);
    assert_eq!(remote.trace_dropped, local.trace_dropped);
    assert_eq!(remote, local, "metered run drifted from direct run");

    match client.request(&Request::Metrics).unwrap() {
        Response::Metrics { text } => {
            assert!(
                text.contains(&format!(
                    "tridentd_trace_dropped_total {}\n",
                    local.trace_dropped
                )),
                "{text}"
            );
        }
        other => panic!("expected Metrics, got {other:?}"),
    }

    teardown(client, handle, service);
}

#[test]
fn socket_rejects_what_resolve_rejects() {
    // Submit-time validation reaches the client as a typed bad_request:
    // an impossible fault probability (> 1000 thousandths), and scales
    // the geometry cannot take. The connection keeps serving after each.
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 4,
        start_paused: false,
    }));
    let handle = serve_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut bad = spec(None);
    bad.fault = Some(FaultSpec {
        seed: 9,
        rules: vec![(trident_core::InjectSite::Alloc, 5_000)],
    });
    let mut bad_specs = vec![bad];
    for scale in [3, 512] {
        let mut bad = spec(None);
        bad.scale = scale;
        bad_specs.push(bad);
    }
    for bad in bad_specs {
        match client.request(&Request::Submit(bad)).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected bad_request, got {other:?}"),
        }
        match client.request(&Request::List).unwrap() {
            Response::Jobs { jobs, .. } => assert!(jobs.is_empty(), "{jobs:?}"),
            other => panic!("expected Jobs, got {other:?}"),
        }
    }

    teardown(client, handle, service);
}

#[test]
fn hung_daemon_yields_typed_timeout_not_a_hang() {
    // A listener that accepts and then never answers: the read deadline
    // must surface as ProtoError::Timeout within bounded time, and the
    // connection must refuse reuse (a reply may still be in flight)
    // until the caller reconnects.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        // Keep the accepted socket alive so the client sees silence,
        // not a close. The thread dies with the test process.
        let accepted = listener.accept();
        std::thread::sleep(Duration::from_secs(10));
        drop(accepted);
    });

    let mut client = Client::connect(addr).unwrap();
    client.set_deadline(Duration::from_millis(200)).unwrap();
    let started = Instant::now();
    match client.request(&Request::Status { id: 1 }) {
        Err(ClientError::Proto(ProtoError::Timeout { ms })) => assert_eq!(ms, 200),
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline did not bound the wait: {:?}",
        started.elapsed()
    );
    match client.request(&Request::Status { id: 1 }) {
        Err(ClientError::Poisoned) => {}
        other => panic!("a timed-out connection must refuse reuse, got {other:?}"),
    }
    drop(client);
    drop(hold); // detach; the test process exit reaps it
}
