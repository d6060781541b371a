//! Property tests for the job-service wire format: every request and
//! response survives its one-line JSON encoding bit-for-bit, and
//! version checking is total — any message stamped with a foreign
//! version is rejected with a typed error, never half-parsed.

use proptest::prelude::*;
use trident_core::{InjectSite, StatsSnapshot, SNAPSHOT_VERSION};
use trident_serve::proto::{
    ErrorCode, FaultSpec, JobProgress, JobResult, JobSpec, JobState, JobSummary, ProtoError,
    Request, Response, RungRow, ServiceInfo, TenantJob, TenantRow, PROTO_VERSION,
};

/// Characters chosen to stress the scanner: JSON structure, the escape
/// set, whitespace, and multi-byte code points.
const CHARSET: [char; 18] = [
    'a', 'Z', '7', ' ', '"', '\\', '\n', '\t', '\r', ':', ',', '{', '}', '[', ']', 'é', '界', '∆',
];

fn wire_strings() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..CHARSET.len(), 0..16)
        .prop_map(|ix| ix.into_iter().map(|i| CHARSET[i]).collect())
}

fn sites() -> impl Strategy<Value = InjectSite> {
    (0usize..InjectSite::ALL.len()).prop_map(|i| InjectSite::ALL[i])
}

fn states() -> impl Strategy<Value = JobState> {
    (0usize..JobState::ALL.len()).prop_map(|i| JobState::ALL[i])
}

fn error_codes() -> impl Strategy<Value = ErrorCode> {
    (0usize..ErrorCode::ALL.len()).prop_map(|i| ErrorCode::ALL[i])
}

fn options<T>(inner: impl Strategy<Value = T>) -> impl Strategy<Value = Option<T>> {
    (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
}

fn fault_specs() -> impl Strategy<Value = FaultSpec> {
    (
        any::<u64>(),
        prop::collection::vec((sites(), 0u64..=1_000), 0..6),
    )
        .prop_map(|(seed, rules)| FaultSpec {
            seed,
            rules: rules
                .into_iter()
                .map(|(site, prob)| (site, prob as u16))
                .collect(),
        })
}

fn rung_rows() -> impl Strategy<Value = Vec<RungRow>> {
    prop::collection::vec((wire_strings(), any::<u64>()), 0..6).prop_map(|rows| {
        rows.into_iter()
            .map(|(size, bytes)| RungRow { size, bytes })
            .collect()
    })
}

fn tenant_jobs() -> impl Strategy<Value = TenantJob> {
    (
        (wire_strings(), any::<u32>()),
        (options(1u64..(1 << 20)), options(wire_strings())),
        (
            any::<bool>(),
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..4),
        ),
    )
        .prop_map(
            |((workload, weight), (chunk_budget, prefer), (opt_out, pins))| TenantJob {
                workload,
                weight,
                chunk_budget: chunk_budget.map(|c| c as usize),
                prefer,
                opt_out,
                pins,
            },
        )
}

fn job_specs() -> impl Strategy<Value = JobSpec> {
    (
        (
            wire_strings(),
            wire_strings(),
            1u64..100_000,
            1u64..10_000_000,
        ),
        (any::<u64>(), options(any::<u64>()), any::<bool>()),
        (
            options(0u64..(1 << 30)),
            any::<bool>(),
            options(fault_specs()),
        ),
        (
            options(wire_strings()),
            options(wire_strings()),
            options(wire_strings()),
        ),
        (any::<bool>(), prop::collection::vec(tenant_jobs(), 0..4)),
    )
        .prop_map(
            |(
                (workload, policy, scale, samples),
                (seed, cell_index, fragment),
                (trace_capacity, profile, fault),
                (trace_out, profile_out, geometry),
                (audit, tenants),
            )| JobSpec {
                workload,
                policy,
                scale,
                samples: samples as usize,
                seed,
                cell_index,
                fragment,
                trace_capacity: trace_capacity.map(|c| c as usize),
                profile,
                fault,
                trace_out,
                profile_out,
                geometry,
                audit,
                tenants,
            },
        )
}

fn snapshots() -> impl Strategy<Value = StatsSnapshot> {
    prop::collection::vec(any::<u64>(), 30..31).prop_map(|v| {
        let arr6 = |at: usize| {
            [
                v[at],
                v[at + 1],
                v[at + 2],
                v[at + 1].rotate_left(7),
                v[at + 2].rotate_left(11),
                v[at].rotate_left(13),
            ]
        };
        StatsSnapshot {
            version: SNAPSHOT_VERSION,
            faults: arr6(0),
            fault_ns: arr6(3),
            giant_attempts_fault: v[6],
            giant_failures_fault: v[7],
            giant_attempts_promo: v[8],
            giant_failures_promo: v[9],
            promotions: arr6(10),
            demotions: arr6(13),
            compaction_bytes_copied: v[16],
            promotion_bytes_copied: v[17],
            pv_bytes_exchanged: v[18],
            compaction_attempts: v[19],
            compaction_successes: v[20],
            daemon_ns: v[21],
            bloat_pages: v[22],
            bloat_recovered_pages: v[23],
            giant_blocks_prezeroed: v[24],
            injected_faults: [v[25], v[26], v[27], v[28], v[29]],
            promotions_deferred: v[25].rotate_left(1),
            pv_fallbacks: v[26].rotate_left(2),
            pv_fallback_bytes: v[27].rotate_left(3),
        }
    })
}

fn tenant_rows() -> impl Strategy<Value = TenantRow> {
    (
        (any::<u32>(), wire_strings()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        rung_rows(),
        (0u64..=1_000, any::<u64>()),
    )
        .prop_map(
            |((tenant, workload), (samples, walks, walk_cycles), rungs, (fmfi_milli, faults))| {
                TenantRow {
                    tenant,
                    workload,
                    samples,
                    walks,
                    walk_cycles,
                    rungs,
                    fmfi_milli,
                    faults,
                }
            },
        )
}

fn job_results() -> impl Strategy<Value = JobResult> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        rung_rows(),
        (any::<u64>(), options(any::<u64>())),
        (any::<u64>(), prop::collection::vec(tenant_rows(), 0..4)),
        snapshots(),
    )
        .prop_map(
            |(
                (samples, tlb_accesses, walks, walk_cycles),
                rungs,
                (dropped, lines),
                (violations, tenants),
                snapshot,
            )| {
                JobResult {
                    samples,
                    tlb_accesses,
                    walks,
                    walk_cycles,
                    rungs,
                    trace_dropped: dropped,
                    trace_lines: lines,
                    violations,
                    tenants,
                    snapshot,
                }
            },
        )
}

fn requests() -> impl Strategy<Value = Request> {
    prop_oneof![
        job_specs().prop_map(Request::Submit),
        any::<u64>().prop_map(|id| Request::Status { id }),
        any::<u64>().prop_map(|id| Request::Result { id }),
        any::<u64>().prop_map(|id| Request::Cancel { id }),
        any::<u64>().prop_map(|id| Request::Progress { id }),
        Just(Request::List),
        Just(Request::Metrics),
        Just(Request::Shutdown),
    ]
}

fn service_infos() -> impl Strategy<Value = ServiceInfo> {
    (
        any::<bool>(),
        1u64..64,
        1u64..(1 << 20),
        prop::collection::vec(any::<u64>(), 0..8),
    )
        .prop_map(|(paused, workers, queue_depth, queues)| ServiceInfo {
            paused,
            workers: workers as usize,
            queue_depth: queue_depth as usize,
            queues,
        })
}

fn job_progresses() -> impl Strategy<Value = JobProgress> {
    (any::<u64>(), any::<u64>(), any::<u64>(), 0u64..=10_000).prop_map(
        |(ticks, samples_done, samples_total, fmfi_milli)| JobProgress {
            ticks,
            samples_done,
            samples_total,
            fmfi_milli,
        },
    )
}

fn responses() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u64>().prop_map(|id| Response::Submitted { id }),
        (any::<u64>(), states(), service_infos())
            .prop_map(|(id, state, service)| Response::Status { id, state, service }),
        (any::<u64>(), job_results()).prop_map(|(id, result)| Response::Result { id, result }),
        any::<u64>().prop_map(|id| Response::Cancelled { id }),
        (
            prop::collection::vec(
                (any::<u64>(), states(), wire_strings(), wire_strings()),
                0..5
            ),
            service_infos()
        )
            .prop_map(|(rows, service)| Response::Jobs {
                jobs: rows
                    .into_iter()
                    .map(|(id, state, workload, policy)| JobSummary {
                        id,
                        state,
                        workload,
                        policy,
                    })
                    .collect(),
                service,
            }),
        wire_strings().prop_map(|text| Response::Metrics { text }),
        (any::<u64>(), states(), job_progresses()).prop_map(|(id, state, progress)| {
            Response::Progress {
                id,
                state,
                progress,
            }
        }),
        Just(Response::ShuttingDown),
        (error_codes(), wire_strings())
            .prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

/// Restamps a well-formed line with a foreign protocol version.
fn restamp(line: &str, version: u64) -> String {
    line.replacen(
        &format!("{{\"v\":{PROTO_VERSION}"),
        &format!("{{\"v\":{version}"),
        1,
    )
}

proptest! {
    /// Any request — including specs whose strings are full of JSON
    /// structure characters — survives the wire bit-for-bit.
    #[test]
    fn requests_round_trip(req in requests()) {
        let line = req.to_jsonl();
        prop_assert!(!line.contains('\n'), "framing must stay one line: {line:?}");
        prop_assert_eq!(Request::parse_jsonl(&line), Ok(req), "line: {}", line);
    }

    /// Any response survives the wire bit-for-bit, snapshot included.
    #[test]
    fn responses_round_trip(resp in responses()) {
        let line = resp.to_jsonl();
        prop_assert!(!line.contains('\n'), "framing must stay one line: {line:?}");
        prop_assert_eq!(Response::parse_jsonl(&line), Ok(resp), "line: {}", line);
    }

    /// Version checking is total: any foreign version on any otherwise
    /// valid message yields `ProtoError::Version` carrying that version
    /// — the peer's number is reported back, not guessed around.
    #[test]
    fn foreign_versions_are_rejected(req in requests(), resp in responses(), v in 0u64..10_000) {
        // Skip the one value that IS our version.
        let v = if v == u64::from(PROTO_VERSION) { v + 1 } else { v };
        let got = v as u32;
        prop_assert_eq!(
            Request::parse_jsonl(&restamp(&req.to_jsonl(), v)),
            Err(ProtoError::Version { got })
        );
        prop_assert_eq!(
            Response::parse_jsonl(&restamp(&resp.to_jsonl(), v)),
            Err(ProtoError::Version { got })
        );
    }
}
