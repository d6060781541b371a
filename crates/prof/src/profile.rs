//! The combined profile: spans + time-series + aggregate snapshot.

use trident_obs::{Event, StatsSnapshot};

use crate::{SpanStats, TimeSeries};

/// Everything the profiling layer derives from one event stream.
///
/// A profile is a pure fold over events: feeding the same stream — live
/// through a [`Profiler`](crate::Profiler), or replayed from a JSONL
/// trace through a [`TraceReader`](crate::TraceReader) — produces equal
/// profiles. That is the subsystem's central invariant, asserted on a
/// real run by the root suite's `tests/observability.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Per-kind span duration statistics.
    pub spans: SpanStats,
    /// Windowed time-series.
    pub series: TimeSeries,
    /// Aggregate counters replayed from the same events.
    pub snapshot: StatsSnapshot,
    /// Total events folded, of any kind.
    pub events_seen: u64,
    /// Events known lost before or between the folded ones (sum of
    /// [`TraceGap`](Event::TraceGap) annotations).
    pub events_lost: u64,
}

impl Default for Profile {
    fn default() -> Self {
        Profile::new(1)
    }
}

impl Profile {
    /// An empty profile whose series uses `window_ticks`-wide windows.
    #[must_use]
    pub fn new(window_ticks: u64) -> Profile {
        Profile {
            spans: SpanStats::new(),
            series: TimeSeries::new(window_ticks),
            snapshot: StatsSnapshot::default(),
            events_seen: 0,
            events_lost: 0,
        }
    }

    /// Folds one event into all three views.
    pub fn fold(&mut self, event: &Event) {
        self.events_seen += 1;
        if let Event::TraceGap { dropped } = *event {
            self.events_lost += dropped;
        }
        self.spans.observe(event);
        self.series.fold(event);
        self.snapshot.apply(event);
    }

    /// Flushes the trailing time-series window. Call once at end of
    /// stream; [`from_events`](Profile::from_events) does it for you.
    pub fn finish(&mut self) {
        self.series.finish();
    }

    /// Builds a finished profile by replaying a complete event stream.
    #[must_use]
    pub fn from_events<'a, I: IntoIterator<Item = &'a Event>>(
        window_ticks: u64,
        events: I,
    ) -> Profile {
        let mut p = Profile::new(window_ticks);
        for ev in events {
            p.fold(ev);
        }
        p.finish();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_obs::{AllocSite, SpanKind};
    use trident_types::PageSize;

    #[test]
    fn replay_equals_live() {
        let events = [
            Event::SpanBegin {
                kind: SpanKind::Fault,
            },
            Event::Fault {
                size: PageSize::BASE,
                site: AllocSite::PageFault,
                ns: 40,
            },
            Event::SpanEnd {
                kind: SpanKind::Fault,
                ns: 40,
            },
            Event::DaemonTick { ns: 9 },
        ];
        let mut live = Profile::new(1);
        for ev in &events {
            live.fold(ev);
        }
        live.finish();
        let replayed = Profile::from_events(1, events.iter());
        assert_eq!(live, replayed);
        assert_eq!(live.events_seen, 4);
        assert_eq!(live.snapshot.total_faults(), 1);
        assert_eq!(live.spans.completed(SpanKind::Fault), 1);
        assert_eq!(live.series.windows().len(), 1);
    }

    #[test]
    fn trace_gap_counts_lost_events() {
        let mut p = Profile::new(1);
        p.fold(&Event::TraceGap { dropped: 123 });
        p.finish();
        assert_eq!(p.events_lost, 123);
        assert_eq!(p.events_seen, 1);
    }
}
