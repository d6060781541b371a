//! Property tests for the observability layer's core contract: a trace
//! is a lossless record. Any event sequence must survive the JSONL wire
//! format unchanged, and replaying a complete (drop-free) trace must
//! reconstruct the exact live snapshot (DESIGN.md §8).

use proptest::prelude::*;
use trident_obs::{AllocSite, Event, Recorder, RingTracer, SpanKind, StatsSnapshot};
use trident_types::{PageSize, MAX_RUNGS};

fn sizes() -> impl Strategy<Value = PageSize> {
    // Every representable rung, not just x86's three: the wire format
    // must round-trip whatever ladder a geometry carries.
    (0..MAX_RUNGS).prop_map(PageSize::new)
}

fn sites() -> impl Strategy<Value = AllocSite> {
    prop_oneof![Just(AllocSite::PageFault), Just(AllocSite::Promotion)]
}

fn span_kinds() -> impl Strategy<Value = SpanKind> {
    prop_oneof![
        Just(SpanKind::Fault),
        Just(SpanKind::PromoScan),
        Just(SpanKind::Compaction),
        Just(SpanKind::PvExchange),
        Just(SpanKind::DaemonTick),
        Just(SpanKind::ZeroFill),
    ]
}

fn events() -> impl Strategy<Value = Event> {
    prop_oneof![
        (sizes(), sites(), 0u64..10_000_000).prop_map(|(size, site, ns)| Event::Fault {
            size,
            site,
            ns
        }),
        (sites(), any::<bool>()).prop_map(|(site, failed)| Event::GiantAttempt { site, failed }),
        (sizes(), 0u64..(1 << 31), 0u64..100_000).prop_map(|(size, bytes_copied, bloat_pages)| {
            Event::Promote {
                size,
                bytes_copied,
                bloat_pages,
            }
        }),
        (sizes(), 0u64..100_000).prop_map(|(size, recovered_pages)| Event::Demote {
            size,
            recovered_pages,
        }),
        (0u64..10_000, 0u64..(1 << 31))
            .prop_map(|(pairs, bytes)| Event::PvExchange { pairs, bytes }),
        (any::<bool>(), any::<bool>())
            .prop_map(|(smart, succeeded)| Event::CompactionRun { smart, succeeded }),
        (0u64..(1 << 31)).prop_map(|bytes| Event::CompactionMove { bytes }),
        (0u64..1_000).prop_map(|blocks| Event::ZeroFill { blocks }),
        (0u64..10_000_000).prop_map(|ns| Event::DaemonTick { ns }),
        (0u8..=18, 0u8..=18).prop_map(|(from_order, to_order)| Event::BuddySplit {
            from_order,
            to_order,
        }),
        (0u8..=18, 0u8..=18).prop_map(|(from_order, to_order)| Event::BuddyCoalesce {
            from_order,
            to_order,
        }),
        (sizes(), 0u64..100_000)
            .prop_map(|(size, walk_cycles)| Event::TlbMiss { size, walk_cycles }),
        span_kinds().prop_map(|kind| Event::SpanBegin { kind }),
        (span_kinds(), 0u64..10_000_000).prop_map(|(kind, ns)| Event::SpanEnd { kind, ns }),
        (1u64..1_000_000).prop_map(|dropped| Event::TraceGap { dropped }),
        (0u64..=1_000, 0u64..1_000_000, 0u64..10_000).prop_map(
            |(fmfi_milli, free_huge, free_giant)| Event::Gauge {
                fmfi_milli,
                free_huge,
                free_giant,
            }
        ),
    ]
}

fn event_seq() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(events(), 0..300)
}

proptest! {
    /// Every event survives the JSONL wire format bit-for-bit.
    #[test]
    fn jsonl_roundtrips_arbitrary_events(seq in event_seq()) {
        for ev in &seq {
            let line = ev.to_jsonl();
            let back = Event::parse_jsonl(&line).expect("own output must parse");
            prop_assert_eq!(&back, ev, "wire format dropped data: {}", line);
        }
    }

    /// A drop-free ring trace replays to the exact live snapshot:
    /// folding the recorded events with [`StatsSnapshot::apply`] equals
    /// folding the original sequence — whether replayed from the in-memory
    /// trace or from its JSONL serialization.
    #[test]
    fn dropfree_trace_replays_to_live_snapshot(seq in event_seq()) {
        // Live side: apply every event as it happens, and record it.
        let mut live = StatsSnapshot::default();
        let mut tracer = RingTracer::new(seq.len().max(1));
        for ev in &seq {
            live.apply(ev);
            tracer.record(*ev);
        }
        prop_assert_eq!(tracer.dropped(), 0);

        // Replay side: from the drained trace, and from its JSONL form.
        let trace = tracer.drain();
        prop_assert_eq!(StatsSnapshot::from_events(&trace), live);
        let parsed: Vec<Event> = seq
            .iter()
            .map(|ev| Event::parse_jsonl(&ev.to_jsonl()).expect("own output must parse"))
            .collect();
        prop_assert_eq!(StatsSnapshot::from_events(&parsed), live);
    }

    /// A bounded ring keeps exactly the newest `capacity` events and
    /// counts every drop, so consumers can tell a complete trace from a
    /// truncated one.
    #[test]
    fn bounded_ring_keeps_newest_and_counts_drops(seq in event_seq(), cap in 1usize..64) {
        let mut tracer = RingTracer::new(cap);
        for ev in &seq {
            tracer.record(*ev);
        }
        let kept = tracer.drain();
        let expect_kept = seq.len().min(cap);
        prop_assert_eq!(kept.len(), expect_kept);
        prop_assert_eq!(tracer.dropped(), (seq.len() - expect_kept) as u64);
        prop_assert_eq!(&kept[..], &seq[seq.len() - expect_kept..]);
    }
}
