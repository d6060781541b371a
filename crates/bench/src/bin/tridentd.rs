//! `tridentd` — the Trident job daemon.
//!
//! Serves the versioned line-JSON protocol of `trident-serve` over TCP,
//! executing submitted workload×policy cells on a sharded worker pool.
//! Results are bit-identical to running the same cell locally —
//! `tridentctl run --connect` is a thin client of the same request
//! types.
//!
//! ```sh
//! tridentd --listen 127.0.0.1:7117 --workers 4 --queue-depth 64
//! tridentd --metrics-listen 127.0.0.1:9117   # add a /metrics scraper
//! ```
//!
//! With `--metrics-listen`, a second listener serves `GET /metrics`
//! (Prometheus text) and `GET /healthz` (200 while serving, 503 once
//! draining) on its own thread; scrapes read an in-memory registry and
//! never contend with job execution.
//!
//! A client `shutdown` request drains queued and in-flight jobs before
//! the process exits. Jobs live only in memory: a cell is a pure
//! function of its spec, so a job lost with its daemon is recovered by
//! submitting the spec again.

use std::sync::Arc;

use trident_bench::args::Args;
use trident_serve::service::{Service, ServiceConfig};
use trident_serve::{serve_metrics, serve_tcp, MetricsHandle};

const USAGE: &str =
    "usage: tridentd [--listen ADDR] [--workers N] [--queue-depth N] [--metrics-listen ADDR]";

fn main() {
    let mut args = Args::from_env();
    let parsed = (|| {
        let listen = args
            .value("--listen")?
            .unwrap_or_else(|| "127.0.0.1:7117".to_owned());
        let workers = args.parsed_or("--workers", 0usize)?;
        let queue_depth = args.parsed_or("--queue-depth", 64usize)?;
        let metrics_listen = args.value("--metrics-listen")?;
        Ok((listen, workers, queue_depth, metrics_listen))
    })();
    let (listen, workers, queue_depth, metrics_listen) =
        match parsed.and_then(|v| args.finish().map(|()| v)) {
            Ok(v) => v,
            Err(err) => err.exit(USAGE),
        };

    let service = Arc::new(Service::start(ServiceConfig {
        workers,
        queue_depth,
        start_paused: false,
    }));
    eprintln!(
        "# tridentd: {} workers, queue depth {} per shard",
        service.workers(),
        queue_depth
    );

    let metrics_handle: Option<MetricsHandle> = metrics_listen.map(|addr| {
        match serve_metrics(service.metrics(), &addr) {
            Ok(handle) => {
                // The smoke tests parse this line for the bound port.
                eprintln!("# tridentd: metrics on http://{}/metrics", handle.addr());
                handle
            }
            Err(err) => {
                eprintln!("tridentd: cannot serve metrics on {addr}: {err}");
                std::process::exit(1);
            }
        }
    });
    let handle = match serve_tcp(Arc::clone(&service), &listen) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("tridentd: cannot listen on {listen}: {err}");
            std::process::exit(1);
        }
    };
    // The smoke tests parse this line for the bound port.
    eprintln!("# tridentd: listening on {}", handle.addr());
    if let Err(err) = handle.join() {
        eprintln!("tridentd: accept loop failed: {err}");
    }
    eprintln!("# tridentd: draining…");
    match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(service) => service.request_stop(), // a connection thread still holds a reference
    }
    if let Some(handle) = metrics_handle {
        handle.stop();
        if let Err(err) = handle.join() {
            eprintln!("tridentd: metrics listener failed: {err}");
        }
    }
    eprintln!("# tridentd: done");
}
