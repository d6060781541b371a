//! The versioned request/response protocol of the job service.
//!
//! Every message is one line of JSON carrying a `"v"` field; a daemon
//! and a client must speak the same [`PROTO_VERSION`] — unknown versions
//! are rejected with a typed [`ProtoError::Version`], never guessed at.
//! `tridentctl` (client) and `tridentd` (server) share these types, so
//! a request built locally and one decoded off a socket are the same
//! value — the foundation of the service's bit-identity guarantee.
//!
//! Requests:
//!
//! ```json
//! {"v":6,"op":"submit","job":{"workload":"GUPS","policy":"Trident","scale":256,...}}
//! {"v":6,"op":"status","id":3}
//! {"v":6,"op":"result","id":3}
//! {"v":6,"op":"cancel","id":3}
//! {"v":6,"op":"list"}
//! {"v":6,"op":"metrics"}
//! {"v":6,"op":"progress","id":3}
//! {"v":6,"op":"shutdown"}
//! ```
//!
//! Responses mirror the request vocabulary (`"ok"` discriminator) or
//! carry a typed error (`"err"` code plus human-readable `"msg"`).

use core::fmt;

use trident_core::{InjectSite, StatsSnapshot};
use trident_types::json::{self, Json, JsonError, Obj, Record};
use trident_types::{json_record, wire_enum};

/// Version of the request/response wire format. Bump on any change to
/// message shapes; both sides refuse to interoperate across versions.
/// v2: jobs gained co-located tenants and the audit flag; results gained
/// per-tenant rows and the audit-violation count.
/// v3: the observability plane — `metrics`/`progress` requests, the
/// `Metrics`/`Progress` responses, and a `service` block (paused flag +
/// per-shard queue occupancy) on `Status` and `Jobs` answers.
/// v4: fleet resilience — jobs carry an optional idempotency `key`, job
/// summaries carry the key plus an `origin` (client-submitted vs
/// journal-replayed), and the `service` block gains an optional
/// `journal` section (records/replayed/pending) when the daemon runs
/// with a crash-durable job journal.
/// v5: multi-architecture ladders — jobs carry an optional `geometry`
/// (architecture id, e.g. `"sv48"`), results and tenant rows replace the
/// fixed three-element `mapped_bytes` array with per-rung `rungs` rows
/// keyed by size-class label, and tenant `prefer` hints are rung labels
/// resolved against the job's geometry at admission.
/// v6: one daemon, one client — jobs lose the idempotency `key`, job
/// summaries lose `key` and `origin`, and the `service` block loses its
/// `journal` section.
pub const PROTO_VERSION: u32 = 6;

/// One simulation cell to run: workload × policy plus the knobs the
/// `SimConfig` builders expose. Mirrors what `tridentctl run` accepted
/// as flags, so the CLI is a thin encoder of this struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload name (`WorkloadSpec::by_name`).
    pub workload: String,
    /// Policy name or paper label (`PolicyKind::from_name`).
    pub policy: String,
    /// Memory-scale divisor.
    pub scale: u64,
    /// Page-size ladder by architecture id (`PageGeometry::by_name`:
    /// `"x86_64"`, `"sv48"`, `"aarch64"`); `None` runs the x86-64
    /// default, bit-identical to pre-v5 jobs.
    pub geometry: Option<String>,
    /// Sampled accesses in the measurement phase.
    pub samples: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// When set, the effective seed is `derive_cell_seed(seed, index)` —
    /// the same derivation the parallel experiment runner applies, so a
    /// submitted job can reproduce any cell of a local grid exactly.
    pub cell_index: Option<u64>,
    /// Fragment physical memory before the run.
    pub fragment: bool,
    /// Ring-tracer capacity in events (`None` = tracing off).
    pub trace_capacity: Option<usize>,
    /// Fold a live profile during measurement.
    pub profile: bool,
    /// Deterministic fault plan (seed + per-site probabilities).
    pub fault: Option<FaultSpec>,
    /// Stream the run's full event trace to this file as JSONL (no
    /// ring, no drops).
    pub trace_out: Option<String>,
    /// Write the run's profile report to this file as JSON (implies
    /// profiling).
    pub profile_out: Option<String>,
    /// Run the per-tick consistency audit and report the violation count
    /// in the result (off by default — it is O(machine) per tick).
    pub audit: bool,
    /// Tenants co-located *beside* the primary workload (which runs as
    /// tenant 0 with neutral scheduling). Empty = classic single-tenant
    /// job.
    pub tenants: Vec<TenantJob>,
}

impl JobSpec {
    /// A spec with the given cell identity and the experiment defaults
    /// for everything else.
    #[must_use]
    pub fn new(workload: &str, policy: &str) -> JobSpec {
        JobSpec {
            workload: workload.to_owned(),
            policy: policy.to_owned(),
            scale: 32,
            geometry: None,
            samples: 120_000,
            seed: 42,
            cell_index: None,
            fragment: false,
            trace_capacity: None,
            profile: false,
            fault: None,
            trace_out: None,
            profile_out: None,
            audit: false,
            tenants: Vec::new(),
        }
    }
}

json_record! {
    JobSpec {
        workload: req,
        policy: req,
        scale: req,
        samples: req,
        seed: req,
        cell_index "cell": opt,
        geometry: opt,
        fragment: req,
        profile: req,
        audit: req,
        tenants: nonempty,
        trace_capacity "trace": opt,
        fault: opt,
        trace_out: opt,
        profile_out: opt,
    }
}

/// One co-located tenant on the wire: its workload plus the scheduling
/// parameters and promotion hints the engine registers for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantJob {
    /// Workload name (`WorkloadSpec::by_name`).
    pub workload: String,
    /// Weighted-round-robin share of the promotion daemon (≥ 1).
    pub weight: u32,
    /// Per-tick promotion-budget override (`None` = daemon default).
    pub chunk_budget: Option<usize>,
    /// Restrict background promotion to one ladder rung, by the job
    /// geometry's size-class label (`"2MB"`, `"64KB-napot"`, ...);
    /// resolved against the geometry at admission.
    pub prefer: Option<String>,
    /// Decline background promotion entirely.
    pub opt_out: bool,
    /// Pinned hot ranges as `(start page, pages)` pairs.
    pub pins: Vec<(u64, u64)>,
}

impl TenantJob {
    /// A neutral tenant running `workload`.
    #[must_use]
    pub fn new(workload: &str) -> TenantJob {
        TenantJob {
            workload: workload.to_owned(),
            weight: 1,
            chunk_budget: None,
            prefer: None,
            opt_out: false,
            pins: Vec::new(),
        }
    }
}

// Pins travel as `{"start":..,"pages":..}` objects, so the tuple list is
// mapped through a wire record rather than declared with `json_record!`.
impl Json for TenantJob {
    fn write_json(&self, out: &mut String) {
        let pins: Vec<Pin> = self
            .pins
            .iter()
            .map(|&(start, pages)| Pin { start, pages })
            .collect();
        json::write_object(out, |w| {
            w.req("workload", &self.workload)
                .req("weight", &self.weight)
                .req("opt_out", &self.opt_out)
                .opt("budget", &self.chunk_budget)
                .opt("prefer", &self.prefer)
                .nonempty("pins", &pins);
        });
    }

    fn read_json(raw: &str) -> Result<TenantJob, JsonError> {
        let o = Obj::parse(raw)?;
        Ok(TenantJob {
            workload: o.req("workload")?,
            weight: o.req("weight")?,
            opt_out: o.req("opt_out")?,
            chunk_budget: o.opt("budget")?,
            prefer: o.opt("prefer")?,
            pins: o
                .nonempty::<Pin>("pins")?
                .into_iter()
                .map(|pin| (pin.start, pin.pages))
                .collect(),
        })
    }
}

/// One pinned range of a [`TenantJob`] on the wire.
struct Pin {
    start: u64,
    pages: u64,
}

json_record! { Pin { start: req, pages: req } }

/// A deterministic fault plan on the wire: a plan seed plus per-site
/// probabilities in thousandths, keyed by the sites' stable trace tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The plan's decision seed (decorrelated from the run seed).
    pub seed: u64,
    /// `(site, probability in thousandths)` rules; unlisted sites never
    /// inject.
    pub rules: Vec<(InjectSite, u16)>,
}

// Rules travel as `{"site":..,"prob":..}` objects; see `TenantJob`.
impl Json for FaultSpec {
    fn write_json(&self, out: &mut String) {
        let rules: Vec<Rule> = self
            .rules
            .iter()
            .map(|&(site, prob)| Rule { site, prob })
            .collect();
        json::write_object(out, |w| {
            w.req("seed", &self.seed).req("rules", &rules);
        });
    }

    fn read_json(raw: &str) -> Result<FaultSpec, JsonError> {
        let o = Obj::parse(raw)?;
        Ok(FaultSpec {
            seed: o.req("seed")?,
            rules: o
                .req::<Vec<Rule>>("rules")?
                .into_iter()
                .map(|rule| (rule.site, rule.prob))
                .collect(),
        })
    }
}

/// One per-site rule of a [`FaultSpec`] on the wire.
struct Rule {
    site: InjectSite,
    prob: u16,
}

json_record! { Rule { site: req, prob: req } }

/// A snapshot of the service itself, attached to `Status` and `Jobs`
/// answers so operators see pool health alongside job state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceInfo {
    /// Whether workers are paused (jobs queue but none execute).
    pub paused: bool,
    /// Worker threads (= shards).
    pub workers: usize,
    /// Maximum queued jobs per shard.
    pub queue_depth: usize,
    /// Current queued occupancy of each shard, in shard order.
    pub queues: Vec<u64>,
}

json_record! {
    ServiceInfo {
        paused: req,
        workers: req,
        queue_depth: req,
        queues: req,
    }
}

/// A point-in-time progress report for one job, fed by the simulator's
/// per-tick hook. All zeros until the job's first daemon tick; pinned
/// at its final sample counts once it settles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// Daemon ticks executed so far (load, settle and measure phases).
    pub ticks: u64,
    /// Measured accesses completed so far.
    pub samples_done: u64,
    /// Total accesses the measurement phase will perform.
    pub samples_total: u64,
    /// Current 1GB free-memory fragmentation index, in thousandths.
    pub fmfi_milli: u64,
}

// Inlined into the `progress` response rather than nested.
json_record! {
    JobProgress {
        ticks: req,
        samples_done: req,
        samples_total: req,
        fmfi_milli: req,
    }
}

wire_enum! {
    /// Lifecycle state of a submitted job.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum JobState {
        /// Admitted, waiting for its shard's worker.
        Queued = "queued",
        /// Executing on a worker thread.
        Running = "running",
        /// Finished; its result is available.
        Done = "done",
        /// The simulation failed or panicked; the error text is available.
        Failed = "failed",
        /// Cancelled while still queued; it will never run.
        Cancelled = "cancelled",
    }
}

impl JobState {
    /// Whether the job can no longer change state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One row of a `list` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSummary {
    /// The job's id.
    pub id: u64,
    /// Its current state.
    pub state: JobState,
    /// The cell it runs (workload name).
    pub workload: String,
    /// The cell it runs (policy name as submitted).
    pub policy: String,
}

json_record! {
    JobSummary {
        id: req,
        state: req,
        workload: req,
        policy: req,
    }
}

/// Bytes mapped at one ladder rung, keyed by the job geometry's
/// size-class label — the v5 wire shape that lets one result schema
/// describe any architecture's ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungRow {
    /// The rung's size-class label (`"4KB"`, `"2MB"`, `"64KB-napot"`, ...).
    pub size: String,
    /// Bytes mapped at this rung at measurement end.
    pub bytes: u64,
}

json_record! { RungRow { size: req, bytes: req } }

/// What a finished job measured — the subset of a `Measurement` that
/// serializes: the versioned snapshot plus the translation headlines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Sampled accesses.
    pub samples: u64,
    /// TLB accesses among them (all hits and misses).
    pub tlb_accesses: u64,
    /// Page walks (full TLB misses).
    pub walks: u64,
    /// Cycles spent translating.
    pub walk_cycles: u64,
    /// Per-rung mapped-bytes rows in ladder order, keyed by size-class
    /// label.
    pub rungs: Vec<RungRow>,
    /// Events the ring tracer dropped (0 when tracing was off or lossless).
    pub trace_dropped: u64,
    /// Lines written to the job's `trace_out` file, when one was set.
    pub trace_lines: Option<u64>,
    /// Invariant violations the per-tick audit collected (always 0 when
    /// the job did not set `audit`; anything nonzero under a co-located
    /// job is an isolation violation).
    pub violations: u64,
    /// Per-tenant rows in tenant order — one per tenant, including
    /// single-tenant jobs (whose one row equals the pooled headlines).
    pub tenants: Vec<TenantRow>,
    /// The full memory-management counter snapshot.
    pub snapshot: StatsSnapshot,
}

/// One tenant's share of a finished job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRow {
    /// The tenant's index (0 = the job's primary workload).
    pub tenant: u32,
    /// The workload this tenant ran.
    pub workload: String,
    /// Accesses sampled from this tenant.
    pub samples: u64,
    /// Page walks among them.
    pub walks: u64,
    /// Cycles this tenant spent translating.
    pub walk_cycles: u64,
    /// Per-rung mapped-bytes rows for this tenant, in ladder order.
    pub rungs: Vec<RungRow>,
    /// The tenant's top-rung fragmentation experience in thousandths
    /// (the fraction of its resident bytes not top-rung-backed).
    pub fmfi_milli: u64,
    /// Faults attributed to this tenant.
    pub faults: u64,
}

json_record! {
    TenantRow {
        tenant: req,
        workload: req,
        samples: req,
        walks: req,
        walk_cycles: req,
        rungs: req,
        fmfi_milli: req,
        faults: req,
    }
}

// `trace_dropped` is additive: absent (an older encoder) means no drops,
// while a present-but-malformed value still fails loudly.
json_record! {
    JobResult {
        samples: req,
        tlb_accesses: req,
        walks: req,
        walk_cycles: req,
        rungs: req,
        trace_dropped: default,
        trace_lines: opt,
        violations: req,
        tenants: req,
        snapshot: req,
    }
}

/// A client-to-daemon message.
//
// `Submit` dwarfs the id-only variants, but requests are built once per
// protocol round-trip on a cold path; boxing the spec would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job; answered with `Submitted` or `Error(queue_full)`.
    Submit(JobSpec),
    /// Non-blocking state query.
    Status {
        /// The job to query.
        id: u64,
    },
    /// Blocking result fetch: answered once the job reaches a terminal
    /// state.
    Result {
        /// The job to wait for.
        id: u64,
    },
    /// Cancel a queued job (running jobs cannot be interrupted).
    Cancel {
        /// The job to cancel.
        id: u64,
    },
    /// List all jobs the daemon knows about.
    List,
    /// Fetch the daemon's live metrics as a Prometheus text body.
    Metrics,
    /// Fetch a job's latest in-flight progress report.
    Progress {
        /// The job to query.
        id: u64,
    },
    /// Drain queued and in-flight jobs, then exit.
    Shutdown,
}

impl Request {
    /// Encodes as one line of JSON (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        json::object(|w| {
            w.version("v", &PROTO_VERSION);
            match self {
                Request::Submit(job) => w.tag("op", "submit").req("job", job),
                Request::Status { id } => w.tag("op", "status").req("id", id),
                Request::Result { id } => w.tag("op", "result").req("id", id),
                Request::Cancel { id } => w.tag("op", "cancel").req("id", id),
                Request::List => w.tag("op", "list"),
                Request::Metrics => w.tag("op", "metrics"),
                Request::Progress { id } => w.tag("op", "progress").req("id", id),
                Request::Shutdown => w.tag("op", "shutdown"),
            };
        })
    }

    /// Decodes one line produced by [`to_jsonl`](Self::to_jsonl).
    ///
    /// # Errors
    ///
    /// [`ProtoError::Version`] for any version other than
    /// [`PROTO_VERSION`]; [`ProtoError::Malformed`] otherwise.
    pub fn parse_jsonl(line: &str) -> Result<Request, ProtoError> {
        let o = envelope(line)?;
        Ok(match o.req::<String>("op")?.as_str() {
            "submit" => Request::Submit(o.req("job")?),
            "status" => Request::Status { id: o.req("id")? },
            "result" => Request::Result { id: o.req("id")? },
            "cancel" => Request::Cancel { id: o.req("id")? },
            "list" => Request::List,
            "metrics" => Request::Metrics,
            "progress" => Request::Progress { id: o.req("id")? },
            "shutdown" => Request::Shutdown,
            _ => return Err(ProtoError::Malformed("op")),
        })
    }
}

wire_enum! {
    /// Typed error codes a daemon can answer with.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode {
        /// The target shard's admission queue is at capacity; resubmit later.
        QueueFull = "queue_full",
        /// No job with the given id.
        UnknownJob = "unknown_job",
        /// The request was understood but its content is invalid (bad
        /// workload/policy name, malformed fault plan, job not cancellable).
        BadRequest = "bad_request",
        /// The daemon is draining and accepts no new jobs.
        ShuttingDown = "shutting_down",
        /// The job ran and failed; the message carries the failure text.
        JobFailed = "job_failed",
    }
}

/// A daemon-to-client message.
// The size skew comes from `Result`'s embedded snapshot; a response is
// built once per round-trip and immediately serialized or consumed, so
// boxing would buy nothing but API noise.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was admitted under this id.
    Submitted {
        /// The new job's id.
        id: u64,
    },
    /// Answer to `Status`.
    Status {
        /// The queried job.
        id: u64,
        /// Its state at answer time.
        state: JobState,
        /// Pool health at answer time.
        service: ServiceInfo,
    },
    /// Answer to `Result` for a job that finished successfully.
    Result {
        /// The finished job.
        id: u64,
        /// What it measured.
        result: JobResult,
    },
    /// The job was cancelled while queued.
    Cancelled {
        /// The cancelled job.
        id: u64,
    },
    /// Answer to `List`.
    Jobs {
        /// Every known job, in submission order.
        jobs: Vec<JobSummary>,
        /// Pool health at answer time.
        service: ServiceInfo,
    },
    /// Answer to `Metrics`.
    Metrics {
        /// The Prometheus text body the daemon's registry rendered.
        text: String,
    },
    /// Answer to `Progress`.
    Progress {
        /// The queried job.
        id: u64,
        /// Its state at answer time.
        state: JobState,
        /// Its latest progress report (all zeros for a job that has not
        /// started ticking yet).
        progress: JobProgress,
    },
    /// Acknowledges `Shutdown`; the daemon drains and exits after this.
    ShuttingDown,
    /// A typed failure.
    Error {
        /// The machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes as one line of JSON (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        json::object(|w| {
            w.version("v", &PROTO_VERSION);
            match self {
                Response::Submitted { id } => w.tag("ok", "submitted").req("id", id),
                Response::Status { id, state, service } => w
                    .tag("ok", "status")
                    .req("id", id)
                    .req("state", state)
                    .req("service", service),
                Response::Result { id, result } => {
                    w.tag("ok", "result").req("id", id).req("result", result)
                }
                Response::Cancelled { id } => w.tag("ok", "cancelled").req("id", id),
                Response::Jobs { jobs, service } => w
                    .tag("ok", "jobs")
                    .req("jobs", jobs)
                    .req("service", service),
                Response::Metrics { text } => w.tag("ok", "metrics").req("text", text),
                Response::Progress {
                    id,
                    state,
                    progress,
                } => {
                    w.tag("ok", "progress").req("id", id).req("state", state);
                    progress.write_fields(w);
                    w
                }
                Response::ShuttingDown => w.tag("ok", "shutting_down"),
                Response::Error { code, message } => w.req("err", code).req("msg", message),
            };
        })
    }

    /// Decodes one line produced by [`to_jsonl`](Self::to_jsonl).
    ///
    /// # Errors
    ///
    /// [`ProtoError::Version`] for any version other than
    /// [`PROTO_VERSION`]; [`ProtoError::Malformed`] otherwise.
    pub fn parse_jsonl(line: &str) -> Result<Response, ProtoError> {
        let o = envelope(line)?;
        if let Some(code) = o.opt("err")? {
            return Ok(Response::Error {
                code,
                message: o.req("msg")?,
            });
        }
        Ok(match o.req::<String>("ok")?.as_str() {
            "submitted" => Response::Submitted { id: o.req("id")? },
            "status" => Response::Status {
                id: o.req("id")?,
                state: o.req("state")?,
                service: o.req("service")?,
            },
            "result" => Response::Result {
                id: o.req("id")?,
                result: o.req("result")?,
            },
            "cancelled" => Response::Cancelled { id: o.req("id")? },
            "jobs" => Response::Jobs {
                jobs: o.req("jobs")?,
                service: o.req("service")?,
            },
            "metrics" => Response::Metrics {
                text: o.req("text")?,
            },
            "progress" => Response::Progress {
                id: o.req("id")?,
                state: o.req("state")?,
                progress: JobProgress::read_fields(&o)?,
            },
            "shutting_down" => Response::ShuttingDown,
            _ => return Err(ProtoError::Malformed("ok")),
        })
    }
}

/// Why a protocol line could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The message declares a version this build does not speak.
    Version {
        /// The version the peer sent.
        got: u32,
    },
    /// A required field is missing or unparsable; carries the field's
    /// dotted path.
    Malformed(&'static str),
    /// A read outlasted the client's deadline. Raised on the client
    /// side only — the daemon never answers with this; the wire simply
    /// went quiet for longer than
    /// [`Client::set_deadline`](crate::Client::set_deadline) allows.
    Timeout {
        /// The deadline that expired, in milliseconds.
        ms: u64,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Version { got } => write!(
                f,
                "protocol version mismatch: peer speaks v{got}, this build speaks v{PROTO_VERSION}"
            ),
            ProtoError::Malformed(field) => write!(f, "malformed message: bad field {field:?}"),
            ProtoError::Timeout { ms } => write!(f, "no answer within the {ms}ms deadline"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(err: JsonError) -> ProtoError {
        match err {
            JsonError::Malformed(key) => ProtoError::Malformed(key),
            JsonError::Version { got } => ProtoError::Version { got },
        }
    }
}

/// Parses one protocol line and checks its version before anything else
/// is read, so a foreign peer is reported as such, never half-parsed.
fn envelope(line: &str) -> Result<Obj<'_>, ProtoError> {
    let o = Obj::parse(line).map_err(|e| e.at("line"))?;
    o.version("v", PROTO_VERSION)?;
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> JobSpec {
        JobSpec {
            workload: "GUPS".to_owned(),
            policy: "Trident".to_owned(),
            scale: 256,
            samples: 8_000,
            seed: 7,
            cell_index: Some(3),
            fragment: true,
            trace_capacity: Some(4_096),
            profile: true,
            fault: Some(FaultSpec {
                seed: 99,
                rules: vec![(InjectSite::Alloc, 100), (InjectSite::PvExchange, 5)],
            }),
            trace_out: Some("out dir/run \"a\".jsonl".to_owned()),
            profile_out: Some("prof.json".to_owned()),
            audit: true,
            geometry: Some("sv48".to_owned()),
            tenants: vec![
                TenantJob {
                    workload: "Redis".to_owned(),
                    weight: 2,
                    chunk_budget: Some(4),
                    prefer: Some("2MB".to_owned()),
                    opt_out: false,
                    pins: vec![(0, 4_096), (1 << 20, 512)],
                },
                TenantJob::new("XSBench"),
            ],
        }
    }

    fn service_info() -> ServiceInfo {
        ServiceInfo {
            paused: true,
            workers: 2,
            queue_depth: 64,
            queues: vec![3, 0],
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit(full_spec()),
            Request::Submit(JobSpec::new("Redis", "2MB-THP")),
            Request::Status { id: 3 },
            Request::Result { id: u64::MAX },
            Request::Cancel { id: 0 },
            Request::List,
            Request::Metrics,
            Request::Progress { id: 12 },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_jsonl();
            assert_eq!(Request::parse_jsonl(&line), Ok(req), "line: {line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let snapshot = StatsSnapshot {
            faults: [3, 2, 1, 0, 0, 0],
            daemon_ns: u64::MAX,
            ..StatsSnapshot::default()
        };
        let resps = [
            Response::Submitted { id: 1 },
            Response::Status {
                id: 2,
                state: JobState::Running,
                service: service_info(),
            },
            Response::Result {
                id: 3,
                result: JobResult {
                    samples: 8_000,
                    tlb_accesses: 8_000,
                    walks: 120,
                    walk_cycles: 4_200,
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
                    trace_dropped: 0,
                    trace_lines: Some(17),
                    violations: 0,
                    tenants: vec![
                        TenantRow {
                            tenant: 0,
                            workload: "GUPS".to_owned(),
                            samples: 4_000,
                            walks: 80,
                            walk_cycles: 2_100,
                            rungs: vec![
                                RungRow {
                                    size: "4KB".to_owned(),
                                    bytes: 1,
                                },
                                RungRow {
                                    size: "2MB".to_owned(),
                                    bytes: 2,
                                },
                            ],
                            fmfi_milli: 1_000,
                            faults: 6,
                        },
                        TenantRow {
                            tenant: 1,
                            workload: "Redis".to_owned(),
                            samples: 4_000,
                            walks: 40,
                            walk_cycles: 2_100,
                            rungs: vec![RungRow {
                                size: "1GB".to_owned(),
                                bytes: 3,
                            }],
                            fmfi_milli: 0,
                            faults: 0,
                        },
                    ],
                    snapshot,
                },
            },
            Response::Cancelled { id: 4 },
            Response::Jobs {
                jobs: vec![
                    JobSummary {
                        id: 1,
                        state: JobState::Done,
                        workload: "GUPS".to_owned(),
                        policy: "Trident".to_owned(),
                    },
                    JobSummary {
                        id: 2,
                        state: JobState::Queued,
                        workload: "Redis".to_owned(),
                        policy: "4KB".to_owned(),
                    },
                ],
                service: service_info(),
            },
            Response::Jobs {
                jobs: vec![],
                service: ServiceInfo {
                    paused: false,
                    workers: 1,
                    queue_depth: 1,
                    queues: vec![0],
                },
            },
            Response::Metrics {
                text: "# TYPE a counter\na{k=\"v\"} 1\n".to_owned(),
            },
            Response::Progress {
                id: 9,
                state: JobState::Running,
                progress: JobProgress {
                    ticks: 41,
                    samples_done: 2_000,
                    samples_total: 120_000,
                    fmfi_milli: 875,
                },
            },
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::QueueFull,
                message: "shard 2 at depth 64".to_owned(),
            },
        ];
        for resp in resps {
            let line = resp.to_jsonl();
            assert_eq!(Response::parse_jsonl(&line), Ok(resp), "line: {line}");
        }
    }

    #[test]
    fn unknown_version_is_rejected_not_guessed() {
        let stamp = format!("\"v\":{PROTO_VERSION}");
        let line = Request::List.to_jsonl().replace(&stamp, "\"v\":1");
        assert_eq!(
            Request::parse_jsonl(&line),
            Err(ProtoError::Version { got: 1 })
        );
        // A v4 peer (pre-geometry, fixed three-wide mapped_bytes) must be
        // turned away at the version check, not mis-parsed.
        let line = Request::List.to_jsonl().replace(&stamp, "\"v\":4");
        assert_eq!(
            Request::parse_jsonl(&line),
            Err(ProtoError::Version { got: 4 })
        );
        // So must a v5 peer, whose job summaries still carry `origin`.
        let line = Request::List.to_jsonl().replace(&stamp, "\"v\":5");
        assert_eq!(
            Request::parse_jsonl(&line),
            Err(ProtoError::Version { got: 5 })
        );
        let line = Response::ShuttingDown
            .to_jsonl()
            .replace(&stamp, "\"v\":99");
        assert_eq!(
            Response::parse_jsonl(&line),
            Err(ProtoError::Version { got: 99 })
        );
    }

    #[test]
    fn absent_trace_dropped_decodes_as_zero() {
        // The field was added after v2 shipped results without it; the
        // decoder must treat absence as "no drops", not as malformed.
        let result = JobResult {
            samples: 10,
            tlb_accesses: 10,
            walks: 1,
            walk_cycles: 35,
            rungs: vec![RungRow {
                size: "4KB".to_owned(),
                bytes: 1,
            }],
            trace_dropped: 0,
            trace_lines: None,
            violations: 0,
            tenants: vec![],
            snapshot: StatsSnapshot::default(),
        };
        let line = Response::Result { id: 1, result }.to_jsonl();
        let without = line.replace(",\"trace_dropped\":0", "");
        assert_ne!(line, without, "the field must have been present");
        match Response::parse_jsonl(&without).unwrap() {
            Response::Result { result, .. } => assert_eq!(result.trace_dropped, 0),
            other => panic!("expected Result, got {other:?}"),
        }
        // Present but unparsable still fails loudly.
        let mangled = line.replace(",\"trace_dropped\":0", ",\"trace_dropped\":\"x\"");
        assert_eq!(
            Response::parse_jsonl(&mangled),
            Err(ProtoError::Malformed("trace_dropped"))
        );
    }

    #[test]
    fn present_but_malformed_optionals_fail_loudly() {
        let good = Request::Submit(JobSpec::new("GUPS", "Trident")).to_jsonl();
        let bad_cell = good.replace("\"fragment\"", "\"cell\":\"x\",\"fragment\"");
        assert_eq!(
            Request::parse_jsonl(&bad_cell),
            Err(ProtoError::Malformed("cell"))
        );
        let bad_geometry = good.replace("\"fragment\"", "\"geometry\":7,\"fragment\"");
        assert_eq!(
            Request::parse_jsonl(&bad_geometry),
            Err(ProtoError::Malformed("geometry"))
        );
    }

    #[test]
    fn timeout_error_displays_the_deadline() {
        let err = ProtoError::Timeout { ms: 120_000 };
        assert_eq!(err.to_string(), "no answer within the 120000ms deadline");
    }
}
