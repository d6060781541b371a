//! Wire-byte golden net for every line-JSON dialect the workspace
//! speaks: job-protocol requests and responses, and trace events.
//!
//! Each value below is encoded and compared byte for byte against the
//! committed fixture `tests/golden/wire.jsonl` (one line per value, in
//! the order built here), then every fixture line is decoded back to
//! the value it came from. The fixture was generated once from the
//! hand-written codecs that predate `trident_types::json`; a codec
//! change that alters a single byte on the wire fails here.

use trident_core::{AllocSite, Event, InjectSite, SpanKind, StatsSnapshot, SNAPSHOT_VERSION};
use trident_serve::proto::{
    ErrorCode, FaultSpec, JobProgress, JobResult, JobSpec, JobState, JobSummary, ProtoError,
    Request, Response, RungRow, ServiceInfo, TenantJob, TenantRow,
};
use trident_types::{PageSize, TenantId};

const FIXTURE: &str = include_str!("golden/wire.jsonl");

/// Every string field class the encoder must escape: quotes, backslash,
/// newline, tab, carriage return, plus multi-byte text passed through.
const NASTY: &str = "q\"b\\n\nt\tr\rü界∆";

fn full_spec() -> JobSpec {
    let mut tenant = TenantJob::new("Redis");
    tenant.weight = 3;
    tenant.chunk_budget = Some(4);
    tenant.prefer = Some("2MB".to_owned());
    tenant.pins = vec![(0, 4_096), (1 << 20, 512)];
    let mut opted = TenantJob::new(NASTY);
    opted.opt_out = true;
    JobSpec {
        workload: "GUPS".to_owned(),
        policy: NASTY.to_owned(),
        scale: 256,
        geometry: Some("sv48".to_owned()),
        samples: 8_000,
        seed: u64::MAX,
        cell_index: Some(3),
        fragment: true,
        trace_capacity: Some(4_096),
        profile: true,
        fault: Some(FaultSpec {
            seed: 99,
            rules: vec![
                (InjectSite::Alloc, 100),
                (InjectSite::PvExchange, 5),
                (InjectSite::TraceRing, 1_000),
            ],
        }),
        trace_out: Some("out dir/run \"a\".jsonl".to_owned()),
        profile_out: Some("prof\\x.json".to_owned()),
        audit: true,
        tenants: vec![tenant, opted],
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Submit(full_spec()),
        Request::Submit(JobSpec::new("Redis", "2MB-THP")),
        Request::Status { id: 3 },
        Request::Result { id: u64::MAX },
        Request::Cancel { id: 0 },
        Request::List,
        Request::Metrics,
        Request::Progress { id: 12 },
        Request::Shutdown,
    ]
}

fn rungs(bytes: &[u64]) -> Vec<RungRow> {
    ["4KB", "2MB", "1GB", "64KB-napot"]
        .iter()
        .zip(bytes)
        .map(|(size, &bytes)| RungRow {
            size: (*size).to_owned(),
            bytes,
        })
        .collect()
}

fn service(paused: bool) -> ServiceInfo {
    ServiceInfo {
        paused,
        workers: 2,
        queue_depth: 64,
        queues: vec![3, 0],
    }
}

fn snapshot() -> StatsSnapshot {
    StatsSnapshot {
        faults: [3, 2, 1, 0, 0, 9],
        fault_ns: [300, 2_000, 90_000, 0, 0, 1],
        giant_attempts_fault: 4,
        giant_failures_fault: 1,
        giant_attempts_promo: 5,
        giant_failures_promo: 2,
        promotions: [0, 7, 1, 0, 0, 0],
        demotions: [0, 1, 0, 0, 0, 0],
        compaction_bytes_copied: 1 << 21,
        promotion_bytes_copied: 1 << 30,
        pv_bytes_exchanged: 12,
        compaction_attempts: 6,
        compaction_successes: 3,
        daemon_ns: u64::MAX,
        bloat_pages: 17,
        bloat_recovered_pages: 5,
        giant_blocks_prezeroed: 2,
        injected_faults: [1, 2, 3, 4, 5],
        promotions_deferred: 8,
        pv_fallbacks: 1,
        pv_fallback_bytes: 4_096,
        ..StatsSnapshot::default()
    }
}

fn result(trace_lines: Option<u64>, tenants: Vec<TenantRow>) -> JobResult {
    JobResult {
        samples: 8_000,
        tlb_accesses: 7_990,
        walks: 120,
        walk_cycles: 4_200,
        rungs: rungs(&[1, 2, 3]),
        trace_dropped: 6,
        trace_lines,
        violations: 0,
        tenants,
        snapshot: snapshot(),
    }
}

fn tenant_rows() -> Vec<TenantRow> {
    vec![
        TenantRow {
            tenant: 0,
            workload: "GUPS".to_owned(),
            samples: 4_000,
            walks: 80,
            walk_cycles: 2_100,
            rungs: rungs(&[1, 2, 0, 4]),
            fmfi_milli: 1_000,
            faults: 6,
        },
        TenantRow {
            tenant: 1,
            workload: NASTY.to_owned(),
            samples: 4_000,
            walks: 40,
            walk_cycles: 2_100,
            rungs: vec![],
            fmfi_milli: 0,
            faults: 0,
        },
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Submitted { id: 1 },
        Response::Status {
            id: 2,
            state: JobState::Running,
            service: service(true),
        },
        Response::Result {
            id: 3,
            result: result(Some(17), tenant_rows()),
        },
        Response::Result {
            id: 4,
            result: result(None, vec![]),
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
                    state: JobState::Cancelled,
                    workload: "Redis".to_owned(),
                    policy: "4KB".to_owned(),
                },
            ],
            service: service(false),
        },
        Response::Jobs {
            jobs: vec![],
            service: service(true),
        },
        Response::Metrics {
            text: "# TYPE a counter\na{k=\"v\"} 1\n".to_owned(),
        },
        Response::Progress {
            id: 9,
            state: JobState::Queued,
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
        Response::Error {
            code: ErrorCode::JobFailed,
            message: NASTY.to_owned(),
        },
    ]
}

fn events() -> Vec<Event> {
    vec![
        Event::Fault {
            size: PageSize::new(2),
            site: AllocSite::PageFault,
            ns: 123_456,
        },
        Event::GiantAttempt {
            site: AllocSite::Promotion,
            failed: true,
        },
        Event::Promote {
            size: PageSize::new(5),
            bytes_copied: 2 * 1024 * 1024,
            bloat_pages: 7,
        },
        Event::Demote {
            size: PageSize::new(3),
            recovered_pages: 11,
        },
        Event::PvExchange {
            pairs: 512,
            bytes: 1 << 30,
            batched: false,
        },
        Event::CompactionRun {
            smart: true,
            succeeded: false,
        },
        Event::CompactionMove { bytes: 4096 },
        Event::ZeroFill { blocks: 3 },
        Event::DaemonTick { ns: u64::MAX },
        Event::BuddySplit {
            from_order: 18,
            to_order: 9,
        },
        Event::BuddyCoalesce {
            from_order: 0,
            to_order: u8::MAX,
        },
        Event::TlbMiss {
            size: PageSize::new(4),
            walk_cycles: 40,
        },
        Event::SpanBegin {
            kind: SpanKind::PromoScan,
        },
        Event::SpanEnd {
            kind: SpanKind::ZeroFill,
            ns: 5_000,
        },
        Event::TraceGap { dropped: 17 },
        Event::Gauge {
            fmfi_milli: 120,
            free_huge: 44,
            free_giant: 2,
        },
        Event::FaultInjected {
            site: InjectSite::TraceRing,
        },
        Event::PromotionDeferred {
            size: PageSize::new(1),
        },
        Event::PvFallback { bytes: 1 << 21 },
        Event::TenantScope {
            tenant: TenantId::new(u32::MAX),
        },
    ]
}

/// Every value's encoding, in fixture order.
fn encoded() -> Vec<String> {
    let mut lines: Vec<String> = requests().iter().map(Request::to_jsonl).collect();
    lines.extend(responses().iter().map(Response::to_jsonl));
    lines.extend(events().iter().map(Event::to_jsonl));
    lines
}

#[test]
fn encoders_reproduce_the_fixture_byte_for_byte() {
    let fixture: Vec<&str> = FIXTURE.lines().collect();
    let encoded = encoded();
    assert_eq!(encoded.len(), fixture.len(), "fixture line count");
    for (i, (got, want)) in encoded.iter().zip(&fixture).enumerate() {
        assert_eq!(got, want, "fixture line {}", i + 1);
    }
}

#[test]
fn fixture_lines_decode_back_to_their_values() {
    let mut lines = FIXTURE.lines();
    for req in requests() {
        let line = lines.next().unwrap();
        assert_eq!(Request::parse_jsonl(line), Ok(req), "line: {line}");
    }
    for resp in responses() {
        let line = lines.next().unwrap();
        assert_eq!(Response::parse_jsonl(line), Ok(resp), "line: {line}");
    }
    for ev in events() {
        let line = lines.next().unwrap();
        assert_eq!(Event::parse_jsonl(line), Ok(ev), "line: {line}");
    }
    assert_eq!(lines.next(), None, "fixture lines beyond the values");
}

#[test]
fn a_foreign_embedded_snapshot_is_a_version_error() {
    let line = Response::Result {
        id: 3,
        result: result(None, vec![]),
    }
    .to_jsonl();
    let ours = format!("\"version\":{SNAPSHOT_VERSION},\"faults\":[3,2,1,0,0,9]");
    assert!(line.contains(&ours), "{line}");
    // An older snapshot is refused by its version before its (here
    // three-wide) counter arrays are read.
    let older = line.replace(&ours, "\"version\":4,\"faults\":[3,2,1]");
    assert_eq!(
        Response::parse_jsonl(&older),
        Err(ProtoError::Version { got: 4 })
    );
}
