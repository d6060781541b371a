//! The typed event vocabulary and its JSONL wire format.

use core::fmt;
use std::error::Error;

use trident_types::json::{self, JsonError, Obj};
use trident_types::{wire_enum, PageSize, TenantId};

wire_enum! {
    /// Where a large-page allocation was attempted, for Table 4's breakdown of
    /// failure rates.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum AllocSite {
        /// In the page-fault handler.
        PageFault = "page_fault",
        /// In the background promotion daemon.
        Promotion = "promotion",
    }
}

wire_enum! {
    /// Where a deterministic fault plan can inject a failure.
    ///
    /// Each site names one failure-capable operation in the stack; the
    /// injector in `trident-fault` decides per-site, and every injected fault
    /// is reported as an [`Event::FaultInjected`] carrying its site. The
    /// job service's fault specs reuse the same tags.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum InjectSite {
        /// A large-page buddy allocation (fault- or promotion-time).
        Alloc = "alloc",
        /// A compaction pass aborted before migrating anything.
        Compaction = "compaction",
        /// A promotion candidate invalidated under the daemon (raced away).
        Promotion = "promotion",
    }
}

wire_enum! {
    /// The instrumented operations whose begin/end pairs form duration spans.
    ///
    /// Span events are trace-only: they never touch [`StatsSnapshot`] counters.
    /// A [`SpanBegin`](Event::SpanBegin) opens a span; the matching
    /// [`SpanEnd`](Event::SpanEnd) carries the modeled duration (the simulator
    /// runs on modeled time, so the duration is known — and deterministic — at
    /// end). Consumers that aggregate spans live in `trident-prof`.
    ///
    /// [`StatsSnapshot`]: crate::StatsSnapshot
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SpanKind {
        /// One page-fault handling, any page size.
        Fault = "fault",
        /// One promotion-daemon address-space scan.
        PromoScan = "promo_scan",
        /// One compaction pass.
        Compaction = "compaction",
        /// One Trident_pv mapping-exchange batch.
        PvExchange = "pv_exchange",
        /// One governed background-daemon tick.
        DaemonTick = "daemon_tick",
        /// One background zero-fill pass.
        ZeroFill = "zero_fill",
    }
}

/// One observable memory-management action.
///
/// Snapshot-bearing events (faults, promotions, compaction, …) contribute
/// to [`StatsSnapshot`](crate::StatsSnapshot); trace-only events (buddy
/// churn, TLB misses) appear in traces but carry no aggregate counter —
/// see [`Event::is_snapshot_bearing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// A page fault was served.
    Fault {
        /// Page size that was mapped.
        size: PageSize,
        /// Which path served it.
        site: AllocSite,
        /// Modeled handler latency.
        ns: u64,
    },
    /// A 1GB allocation was attempted.
    GiantAttempt {
        /// Fault-time or promotion-time attempt.
        site: AllocSite,
        /// Whether it failed for lack of contiguity.
        failed: bool,
    },
    /// A chunk was promoted to a larger page size.
    Promote {
        /// The target page size.
        size: PageSize,
        /// Bytes physically copied (zero for pure mapping exchanges).
        bytes_copied: u64,
        /// Base pages newly mapped beyond what the app ever touched.
        bloat_pages: u64,
    },
    /// A large mapping was demoted back to base pages.
    Demote {
        /// The source page size.
        size: PageSize,
        /// Bloat pages recovered by the demotion.
        recovered_pages: u64,
    },
    /// A Trident_pv batched mapping exchange with the hypervisor.
    PvExchange {
        /// Number of 2MB mappings exchanged.
        pairs: u64,
        /// Bytes whose copy the exchange elided.
        bytes: u64,
    },
    /// A compaction pass ran.
    CompactionRun {
        /// Smart (skip-unmovable) or normal compaction.
        smart: bool,
        /// Whether it produced the requested free chunk.
        succeeded: bool,
    },
    /// Compaction migrated one allocation unit.
    CompactionMove {
        /// Bytes copied by the migration.
        bytes: u64,
    },
    /// The background pool pre-zeroed giant blocks.
    ZeroFill {
        /// Number of 1GB blocks zeroed.
        blocks: u64,
    },
    /// One background-daemon tick finished.
    DaemonTick {
        /// Modeled daemon CPU time for the tick.
        ns: u64,
    },
    /// The buddy allocator split a free block (trace-only).
    BuddySplit {
        /// Order of the block that was split.
        from_order: u8,
        /// Order the allocation actually wanted.
        to_order: u8,
    },
    /// The buddy allocator merged two buddies (trace-only).
    BuddyCoalesce {
        /// Order of the freed block before merging.
        from_order: u8,
        /// Order of the merged block.
        to_order: u8,
    },
    /// A TLB miss walked the page table (trace-only).
    TlbMiss {
        /// Page size of the translation.
        size: PageSize,
        /// Modeled walk latency in cycles.
        walk_cycles: u64,
    },
    /// An instrumented operation started (trace-only).
    SpanBegin {
        /// Which operation.
        kind: SpanKind,
    },
    /// An instrumented operation finished (trace-only).
    SpanEnd {
        /// Which operation.
        kind: SpanKind,
        /// Modeled duration of the whole span.
        ns: u64,
    },
    /// The ring tracer evicted events before this point (trace-only).
    ///
    /// A trace writer puts one ahead of a lossy dump so streaming readers
    /// can annotate the gap; never produced by live instrumentation. No
    /// writer in the workspace emits it today (`tridentctl run
    /// --trace-out` streams every event), but dumps that carry it still
    /// parse and replay.
    TraceGap {
        /// Number of events lost to eviction.
        dropped: u64,
    },
    /// A periodic fragmentation/contiguity gauge sample (trace-only).
    Gauge {
        /// Free-memory fragmentation index for 1GB blocks, in thousandths.
        fmfi_milli: u64,
        /// Free 2MB-or-larger capacity, in 2MB units.
        free_huge: u64,
        /// Free 1GB-or-larger capacity, in 1GB units.
        free_giant: u64,
    },
    /// A fault plan injected a failure at `site`.
    FaultInjected {
        /// The injection site that fired.
        site: InjectSite,
    },
    /// A promotion was deferred (candidate invalidated) and will be
    /// re-armed on a later tick.
    PromotionDeferred {
        /// Target size of the deferred promotion.
        size: PageSize,
    },
    /// Attribution marker (trace-only): every following event belongs to
    /// this tenant, until the next marker. Emitted only by multi-tenant
    /// engines — single-tenant traces carry none, so their byte streams
    /// are unchanged.
    TenantScope {
        /// The tenant now on stage.
        tenant: TenantId,
    },
}

impl Event {
    /// Whether the event contributes to [`StatsSnapshot`](crate::StatsSnapshot)
    /// counters. Trace-only events (buddy churn, TLB misses) return `false`.
    #[must_use]
    pub fn is_snapshot_bearing(&self) -> bool {
        !matches!(
            self,
            Event::BuddySplit { .. }
                | Event::BuddyCoalesce { .. }
                | Event::TlbMiss { .. }
                | Event::SpanBegin { .. }
                | Event::SpanEnd { .. }
                | Event::TraceGap { .. }
                | Event::Gauge { .. }
                | Event::TenantScope { .. }
        )
    }
}

/// The JSONL wire table: one row per variant, giving its `"ev"` tag and
/// its fields in wire order, each keyed by its own name unless a key is
/// given. [`Event::kind`], [`Event::to_jsonl`] and [`Event::parse_jsonl`]
/// are all generated from it.
macro_rules! event_wire {
    ($($variant:ident $tag:literal { $($field:ident $($key:literal)?),+ }),+ $(,)?) => {
        impl Event {
            /// Stable lowercase tag identifying the event kind on the wire.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $tag,)+
                }
            }

            /// Serializes the event as one JSON object (no trailing newline).
            ///
            /// The schema is versioned by the `"v"` field; see
            /// [`SNAPSHOT_VERSION`](crate::SNAPSHOT_VERSION).
            #[must_use]
            pub fn to_jsonl(&self) -> String {
                json::object(|w| {
                    w.version("v", &crate::SNAPSHOT_VERSION).tag("ev", self.kind());
                    match self {
                        $(Event::$variant { $($field),+ } => {
                            $(w.req(event_wire!(@key $field $($key)?), $field);)+
                        })+
                    }
                })
            }

            /// Parses one JSONL line back into an event.
            ///
            /// Accepts exactly the output of [`Event::to_jsonl`] (field order
            /// is not significant; unknown fields are ignored). Every field is
            /// range-checked against its type.
            pub fn parse_jsonl(line: &str) -> Result<Event, ParseError> {
                let decode = || -> Result<Event, JsonError> {
                    let o = Obj::parse(line)?;
                    o.version("v", crate::SNAPSHOT_VERSION)?;
                    Ok(match o.req::<String>("ev")?.as_str() {
                        $($tag => Event::$variant {
                            $($field: o.req(event_wire!(@key $field $($key)?))?),+
                        },)+
                        _ => return Err(JsonError::Malformed("ev")),
                    })
                };
                decode().map_err(|e| ParseError {
                    line: line.to_owned(),
                    reason: e.to_string(),
                })
            }
        }
    };
    (@key $field:ident) => {
        stringify!($field)
    };
    (@key $field:ident $key:literal) => {
        $key
    };
}

event_wire! {
    Fault "fault" { size, site, ns },
    GiantAttempt "giant_attempt" { site, failed },
    Promote "promote" { size, bytes_copied, bloat_pages },
    Demote "demote" { size, recovered_pages },
    PvExchange "pv_exchange" { pairs, bytes },
    CompactionRun "compaction_run" { smart, succeeded },
    CompactionMove "compaction_move" { bytes },
    ZeroFill "zero_fill" { blocks },
    DaemonTick "daemon_tick" { ns },
    BuddySplit "buddy_split" { from_order, to_order },
    BuddyCoalesce "buddy_coalesce" { from_order, to_order },
    TlbMiss "tlb_miss" { size, walk_cycles },
    SpanBegin "span_begin" { kind "span" },
    SpanEnd "span_end" { kind "span", ns },
    TraceGap "trace_gap" { dropped },
    Gauge "gauge" { fmfi_milli, free_huge, free_giant },
    FaultInjected "fault_injected" { site },
    PromotionDeferred "promotion_deferred" { size },
    TenantScope "tenant_scope" { tenant },
}

/// Reads the `"v"` schema-version field of a JSONL trace line without
/// parsing the rest, so readers can distinguish version skew from garbage
/// (a torn line still shows the version written before the tear).
#[must_use]
pub fn jsonl_schema_version(line: &str) -> Option<u64> {
    Obj::peek(line, "v")?.parse().ok()
}

/// A JSONL line that could not be parsed back into an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The offending line.
    pub line: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad trace line ({}): {}", self.reason, self.line)
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events() -> Vec<Event> {
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
                size: PageSize::new(1),
                bytes_copied: 2 * 1024 * 1024,
                bloat_pages: 7,
            },
            Event::Demote {
                size: PageSize::new(2),
                recovered_pages: 11,
            },
            Event::PvExchange {
                pairs: 512,
                bytes: 1 << 30,
            },
            Event::CompactionRun {
                smart: true,
                succeeded: false,
            },
            Event::CompactionMove { bytes: 4096 },
            Event::ZeroFill { blocks: 3 },
            Event::DaemonTick { ns: 987 },
            Event::BuddySplit {
                from_order: 18,
                to_order: 9,
            },
            Event::BuddyCoalesce {
                from_order: 9,
                to_order: 10,
            },
            Event::TlbMiss {
                size: PageSize::BASE,
                walk_cycles: 40,
            },
            Event::SpanBegin {
                kind: SpanKind::Fault,
            },
            Event::SpanEnd {
                kind: SpanKind::Compaction,
                ns: 5_000,
            },
            Event::TraceGap { dropped: 17 },
            Event::Gauge {
                fmfi_milli: 120,
                free_huge: 44,
                free_giant: 2,
            },
            Event::FaultInjected {
                site: InjectSite::Compaction,
            },
            Event::PromotionDeferred {
                size: PageSize::new(2),
            },
            Event::TenantScope {
                tenant: TenantId::new(2),
            },
        ]
    }

    #[test]
    fn jsonl_roundtrips_every_variant() {
        for ev in all_events() {
            let line = ev.to_jsonl();
            assert_eq!(Event::parse_jsonl(&line), Ok(ev), "line: {line}");
        }
    }

    #[test]
    fn parse_rejects_garbage_and_version_skew() {
        assert!(Event::parse_jsonl("not json").is_err());
        assert!(Event::parse_jsonl("{\"v\":4}").is_err());
        assert!(Event::parse_jsonl("{\"v\":999,\"ev\":\"fault\"}").is_err());
        assert!(Event::parse_jsonl("{\"v\":1,\"ev\":\"zero_fill\",\"blocks\":1}").is_err());
        assert!(Event::parse_jsonl("{\"v\":3,\"ev\":\"zero_fill\",\"blocks\":1}").is_err());
        assert!(Event::parse_jsonl("{\"v\":5,\"ev\":\"zero_fill\",\"blocks\":1}").is_err());
        // A v6 exchange still carried its `batched` flag.
        assert!(Event::parse_jsonl(
            "{\"v\":6,\"ev\":\"pv_exchange\",\"pairs\":1,\"bytes\":2,\"batched\":true}"
        )
        .is_err());
        assert!(Event::parse_jsonl("{\"v\":7,\"ev\":\"warp_drive\"}").is_err());
        assert!(
            Event::parse_jsonl("{\"v\":7,\"ev\":\"span_end\",\"span\":\"warp\",\"ns\":1}").is_err()
        );
        assert!(
            Event::parse_jsonl("{\"v\":7,\"ev\":\"fault_injected\",\"site\":\"warp\"}").is_err()
        );
        // The trace-ring site is gone from schema v6, the pv-exchange
        // site and the pv-fallback event from v7.
        for line in [
            "{\"v\":7,\"ev\":\"fault_injected\",\"site\":\"trace_ring\"}",
            "{\"v\":7,\"ev\":\"fault_injected\",\"site\":\"pv_exchange\"}",
        ] {
            assert!(Event::parse_jsonl(line).is_err(), "{line}");
        }
        assert!(Event::parse_jsonl("{\"v\":7,\"ev\":\"pv_fallback\",\"bytes\":1}").is_err());
        assert!(
            Event::parse_jsonl("{\"v\":7,\"ev\":\"tenant_scope\",\"tenant\":99999999999}").is_err()
        );
        assert!(
            Event::parse_jsonl(
                "{\"v\":7,\"ev\":\"buddy_split\",\"from_order\":300,\"to_order\":9}"
            )
            .is_err(),
            "orders are range-checked, never truncated"
        );
    }

    #[test]
    fn snapshot_bearing_excludes_trace_only_kinds() {
        let bearing: Vec<&str> = all_events()
            .iter()
            .filter(|e| !e.is_snapshot_bearing())
            .map(Event::kind)
            .collect();
        assert_eq!(
            bearing,
            [
                "buddy_split",
                "buddy_coalesce",
                "tlb_miss",
                "span_begin",
                "span_end",
                "trace_gap",
                "gauge",
                "tenant_scope"
            ]
        );
    }

    #[test]
    fn field_order_is_not_significant() {
        let line = "{\"ns\":5,\"site\":\"page_fault\",\"size\":\"base\",\"ev\":\"fault\",\"v\":7}";
        assert_eq!(
            Event::parse_jsonl(line),
            Ok(Event::Fault {
                size: PageSize::BASE,
                site: AllocSite::PageFault,
                ns: 5
            })
        );
    }
}
