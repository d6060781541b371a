//! Span pairing: folds `SpanBegin`/`SpanEnd` events into per-kind
//! duration statistics.

use trident_obs::{Event, SpanKind};

use crate::LatencyHistogram;

const KINDS: usize = SpanKind::ALL.len();

/// Per-kind span duration statistics, built by pairing begin/end events.
///
/// Spans of the same kind never nest in the instrumented code, but the
/// pairing is depth-tolerant anyway: a `SpanEnd` closes the innermost
/// open span of its kind. Ends without a matching begin (the begin fell
/// off the ring, signalled by a [`TraceGap`](Event::TraceGap)) still
/// record their duration — the duration rides on the end event — but are
/// counted in [`unmatched_ends`](SpanStats::unmatched_ends); begins left
/// open at a gap are counted in [`abandoned`](SpanStats::abandoned).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStats {
    histograms: [LatencyHistogram; KINDS],
    begins: [u64; KINDS],
    ends: [u64; KINDS],
    open: [u64; KINDS],
    abandoned: u64,
    unmatched_ends: u64,
    gaps: u64,
}

impl SpanStats {
    /// Empty statistics.
    #[must_use]
    pub fn new() -> SpanStats {
        SpanStats::default()
    }

    /// Folds one event; non-span events are ignored except
    /// [`TraceGap`](Event::TraceGap), which abandons all open spans.
    pub fn observe(&mut self, event: &Event) {
        match *event {
            Event::SpanBegin { kind } => {
                self.begins[kind as usize] += 1;
                self.open[kind as usize] += 1;
            }
            Event::SpanEnd { kind, ns } => {
                let k = kind as usize;
                self.ends[k] += 1;
                if self.open[k] > 0 {
                    self.open[k] -= 1;
                } else {
                    self.unmatched_ends += 1;
                }
                self.histograms[k].record(ns);
            }
            Event::TraceGap { .. } => {
                self.gaps += 1;
                self.abandoned += self.open.iter().sum::<u64>();
                self.open = [0; KINDS];
            }
            _ => {}
        }
    }

    /// The duration histogram for one span kind.
    #[must_use]
    pub fn histogram(&self, kind: SpanKind) -> &LatencyHistogram {
        &self.histograms[kind as usize]
    }

    /// Completed spans of one kind.
    #[must_use]
    pub fn completed(&self, kind: SpanKind) -> u64 {
        self.histograms[kind as usize].count()
    }

    /// Begins seen for one kind.
    #[must_use]
    pub fn begins(&self, kind: SpanKind) -> u64 {
        self.begins[kind as usize]
    }

    /// Spans still open (begun, not yet ended).
    #[must_use]
    pub fn open(&self, kind: SpanKind) -> u64 {
        self.open[kind as usize]
    }

    /// Spans whose end was lost to a trace gap.
    #[must_use]
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Ends whose begin was never seen (lost before the ring window).
    #[must_use]
    pub fn unmatched_ends(&self) -> u64 {
        self.unmatched_ends
    }

    /// Trace gaps encountered.
    #[must_use]
    pub fn gaps(&self) -> u64 {
        self.gaps
    }

    /// Folds another span-stats value into this one. Pairing state
    /// (`open`) sums, which is only meaningful when the two inputs cover
    /// disjoint shards, not an interleaved stream.
    pub fn merge(&mut self, other: &SpanStats) {
        for k in 0..KINDS {
            self.histograms[k].merge(&other.histograms[k]);
            self.begins[k] += other.begins[k];
            self.ends[k] += other.ends[k];
            self.open[k] += other.open[k];
        }
        self.abandoned += other.abandoned;
        self.unmatched_ends += other.unmatched_ends;
        self.gaps += other.gaps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_begin_end_into_histogram() {
        let mut s = SpanStats::new();
        s.observe(&Event::SpanBegin {
            kind: SpanKind::Fault,
        });
        s.observe(&Event::SpanEnd {
            kind: SpanKind::Fault,
            ns: 100,
        });
        s.observe(&Event::SpanBegin {
            kind: SpanKind::Fault,
        });
        s.observe(&Event::SpanEnd {
            kind: SpanKind::Fault,
            ns: 300,
        });
        assert_eq!(s.completed(SpanKind::Fault), 2);
        assert_eq!(s.open(SpanKind::Fault), 0);
        assert_eq!(s.histogram(SpanKind::Fault).sum(), 400);
        assert_eq!(s.completed(SpanKind::Compaction), 0);
    }

    #[test]
    fn gap_abandons_open_spans_and_tolerates_orphan_ends() {
        let mut s = SpanStats::new();
        s.observe(&Event::SpanBegin {
            kind: SpanKind::PromoScan,
        });
        s.observe(&Event::TraceGap { dropped: 9 });
        assert_eq!(s.abandoned(), 1);
        assert_eq!(s.open(SpanKind::PromoScan), 0);
        s.observe(&Event::SpanEnd {
            kind: SpanKind::PromoScan,
            ns: 50,
        });
        assert_eq!(s.unmatched_ends(), 1);
        assert_eq!(s.completed(SpanKind::PromoScan), 1, "duration still kept");
        assert_eq!(s.gaps(), 1);
    }
}
