//! Property tests for the profiling layer's contracts (DESIGN.md §9):
//! histogram merge is a commutative, associative fold that matches the
//! combined stream; quantiles are monotone in `q`; and a [`Profile`] is
//! a pure fold — profiling a run live and replaying its trace produce
//! equal profiles, through the JSONL wire format included.

use proptest::prelude::*;
use trident_obs::{AllocSite, Event, Recorder, SpanKind};
use trident_prof::{LatencyHistogram, Profile, Profiler};
use trident_types::PageSize;

fn sizes() -> impl Strategy<Value = PageSize> {
    prop_oneof![
        Just(PageSize::BASE),
        Just(PageSize::new(1)),
        Just(PageSize::new(2))
    ]
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

/// Every event the profiler folds, including unpaired span edges and
/// trace gaps — the profile must be a pure fold of whatever arrives.
fn events() -> impl Strategy<Value = Event> {
    prop_oneof![
        (sizes(), 0u64..10_000_000).prop_map(|(size, ns)| Event::Fault {
            size,
            site: AllocSite::PageFault,
            ns
        }),
        (sizes(), 0u64..(1 << 31), 0u64..100_000).prop_map(|(size, bytes_copied, bloat_pages)| {
            Event::Promote {
                size,
                bytes_copied,
                bloat_pages,
            }
        }),
        (0u64..10_000, 0u64..(1 << 31))
            .prop_map(|(pairs, bytes)| Event::PvExchange { pairs, bytes }),
        (any::<bool>(), any::<bool>())
            .prop_map(|(smart, succeeded)| Event::CompactionRun { smart, succeeded }),
        (0u64..(1 << 31)).prop_map(|bytes| Event::CompactionMove { bytes }),
        (0u64..1_000).prop_map(|blocks| Event::ZeroFill { blocks }),
        (0u64..10_000_000).prop_map(|ns| Event::DaemonTick { ns }),
        (sizes(), 0u64..100_000)
            .prop_map(|(size, walk_cycles)| Event::TlbMiss { size, walk_cycles }),
        span_kinds().prop_map(|kind| Event::SpanBegin { kind }),
        (span_kinds(), 0u64..10_000_000).prop_map(|(kind, ns)| Event::SpanEnd { kind, ns }),
        (1u64..1_000).prop_map(|dropped| Event::TraceGap { dropped }),
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

fn hist_of(values: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// Merging histograms equals recording the concatenated stream, in
    /// either merge order: the fold is commutative.
    #[test]
    fn histogram_merge_is_commutative(a in prop::collection::vec(any::<u64>(), 0..200),
                                      b in prop::collection::vec(any::<u64>(), 0..200)) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        let combined: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(&ab, &hist_of(&combined));
    }

    /// Merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn histogram_merge_is_associative(a in prop::collection::vec(any::<u64>(), 0..100),
                                      b in prop::collection::vec(any::<u64>(), 0..100),
                                      c in prop::collection::vec(any::<u64>(), 0..100)) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Quantiles are monotone in `q` and bounded by the recorded
    /// extremes.
    #[test]
    fn histogram_quantiles_are_monotone(values in prop::collection::vec(any::<u64>(), 1..300)) {
        let h = hist_of(&values);
        let qs = [0.01, 0.25, 0.5, 0.9, 0.99, 1.0];
        let mut prev = h.min().expect("non-empty");
        for q in qs {
            let v = h.quantile(q).expect("non-empty");
            prop_assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
            prev = v;
        }
        prop_assert_eq!(h.quantile(1.0), h.max());
        prop_assert!(h.quantile(0.0).unwrap() >= h.min().unwrap());
    }

    /// Live profiling and trace replay are the same fold: a [`Profiler`]
    /// fed an arbitrary event sequence equals
    /// [`Profile::from_events`] over that sequence — and over its JSONL
    /// round-trip — for any window width.
    #[test]
    fn profile_replay_equals_live(seq in event_seq(), window in 1u64..5) {
        let mut live = Profiler::new(window, trident_obs::ObsRecorder::default());
        for ev in &seq {
            live.record(*ev);
        }
        let live = live.finish_profile();

        let replayed = Profile::from_events(window, seq.iter());
        prop_assert_eq!(&replayed, &live);

        let parsed: Vec<Event> = seq
            .iter()
            .map(|ev| Event::parse_jsonl(&ev.to_jsonl()).expect("own output must parse"))
            .collect();
        prop_assert_eq!(&Profile::from_events(window, parsed.iter()), &live);
    }

    /// Equal profiles render byte-identical reports in every format.
    #[test]
    fn equal_profiles_render_identical_reports(seq in event_seq()) {
        let a = Profile::from_events(2, seq.iter());
        let b = Profile::from_events(2, seq.iter());
        prop_assert_eq!(trident_prof::report::render_markdown(&a),
                        trident_prof::report::render_markdown(&b));
        prop_assert_eq!(trident_prof::report::render_json(&a),
                        trident_prof::report::render_json(&b));
        prop_assert_eq!(trident_prof::report::render_prometheus(&a),
                        trident_prof::report::render_prometheus(&b));
    }
}
