//! Long-lived job service for the Trident simulator.
//!
//! Everything the repository can measure — any workload × policy cell,
//! with fragmentation, tracing, profiling and fault plans — becomes a
//! *job*: a value of [`proto::JobSpec`] submitted over a versioned
//! line-JSON protocol, executed on a sharded worker pool, and answered
//! with a [`proto::JobResult`] carrying the full versioned
//! [`StatsSnapshot`](trident_core::StatsSnapshot).
//!
//! The layering, bottom up:
//!
//! - [`json`]: the workspace's one JSON codec (`trident_types::json`),
//!   re-exported here with the bounded line reader the transports frame
//!   with;
//! - [`proto`]: the versioned request/response vocabulary
//!   ([`proto::PROTO_VERSION`]); unknown versions are rejected, never
//!   guessed;
//! - [`job`]: `JobSpec` → `SimConfig` → one deterministic run — the
//!   *single* execution path shared by daemon workers and local
//!   `tridentctl run`, which is what makes a socket-submitted cell
//!   bit-identical to a direct `System` run at any worker count;
//! - [`service`]: the sharded pool — bounded per-shard admission
//!   queues (`queue_full` backpressure), non-blocking status, blocking
//!   results, cancellation of queued jobs, pause/resume, and draining
//!   shutdown;
//! - [`journal`]: the crash-durable job journal — an fsync'd
//!   append-only WAL of accepted specs and terminal marks, replayed on
//!   restart so accepted-but-unfinished jobs re-execute;
//! - [`server`] / [`client`]: TCP and stdin framing, and the blocking
//!   client `tridentctl --connect` uses;
//! - [`retry`]: [`retry::RetryPolicy`] — bounded attempts,
//!   deterministic jittered backoff, and the per-operation deadlines
//!   that turn every blocking wait into a typed timeout;
//! - [`fleet`]: [`fleet::FleetClient`] — fans a grid across N daemons
//!   with failover and hedging, safe because `derive_cell_seed` makes
//!   every cell's result a pure function of its spec;
//! - [`metrics`] / [`http`]: the observability plane — a lock-light
//!   [`metrics::DaemonMetrics`] registry updated at every job
//!   transition and per-tick heartbeat, rendered to Prometheus text
//!   and served by a dependency-free `GET /metrics` + `GET /healthz`
//!   listener ([`http::serve_metrics`]).
//!
//! # Examples
//!
//! ```
//! use trident_serve::proto::JobSpec;
//! use trident_serve::service::{Service, ServiceConfig, JobWait};
//!
//! let service = Service::start(ServiceConfig { workers: 2, queue_depth: 8, start_paused: false });
//! let mut spec = JobSpec::new("GUPS", "Trident");
//! spec.scale = 256;
//! spec.samples = 1_000;
//! let id = service.submit(spec).unwrap();
//! match service.wait(id) {
//!     Some(JobWait::Done(result)) => assert!(result.samples > 0),
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod client;
pub mod fleet;
pub mod http;
pub mod job;
pub mod journal;
pub mod metrics;
pub mod proto;
pub mod retry;
pub mod server;
pub mod service;

pub use client::{Client, ClientError};
pub use fleet::{
    probe_healthz, FleetClient, FleetConfig, FleetError, FleetOutcome, FleetStats, Health,
};
pub use http::{serve_metrics, MetricsHandle};
pub use journal::{Journal, JournalReplay};
pub use metrics::DaemonMetrics;
pub use proto::{
    JobOrigin, JobProgress, JobResult, JobSpec, JobState, JournalInfo, ProtoError, Request,
    Response, ServiceInfo, TenantJob, TenantRow, PROTO_VERSION,
};
pub use retry::RetryPolicy;
pub use server::{serve_lines, serve_tcp, ServerHandle};
pub use service::{JobWait, ReplayReport, Service, ServiceConfig, SubmitError};
pub use trident_types::json;
