//! Windowed time-series aggregation over the event stream.
//!
//! The simulator has no wall clock inside a run; the natural time step is
//! the governed daemon tick, whose [`DaemonTick`](Event::DaemonTick)
//! event every policy emits at a fixed cadence. A [`TimeSeries`] folds
//! events into windows of `window_ticks` consecutive ticks, so a live
//! series and one rebuilt from a replayed trace are identical whenever
//! the trace is complete.

use trident_obs::Event;
use trident_types::{PageSize, MAX_RUNGS};

/// Aggregates for one window of consecutive daemon ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Window {
    /// Daemon ticks folded into this window (equals the configured width
    /// except for a trailing partial window).
    pub ticks: u64,
    /// Faults served, by ladder rung.
    pub faults: [u64; MAX_RUNGS],
    /// Fault-handling nanoseconds, by ladder rung.
    pub fault_ns: [u64; MAX_RUNGS],
    /// Promotions performed, by target rung.
    pub promotions: [u64; MAX_RUNGS],
    /// Demotions performed, by source rung.
    pub demotions: [u64; MAX_RUNGS],
    /// Compaction passes attempted.
    pub compaction_runs: u64,
    /// Bytes migrated by compaction.
    pub compaction_bytes: u64,
    /// Trident_pv mappings exchanged.
    pub pv_pairs: u64,
    /// Giant blocks zero-filled in the background.
    pub zero_blocks: u64,
    /// Daemon CPU nanoseconds.
    pub daemon_ns: u64,
    /// TLB misses observed, any page size.
    pub tlb_misses: u64,
    /// Page-walk cycles spent on those misses.
    pub walk_cycles: u64,
    /// Last 1GB free-memory fragmentation index seen, in thousandths
    /// (`u64::MAX` when no gauge sample landed in the window).
    pub fmfi_milli: u64,
    /// Last free 2MB-capacity gauge seen, in 2MB units.
    pub free_huge: u64,
    /// Last free 1GB-capacity gauge seen, in 1GB units.
    pub free_giant: u64,
    /// Faults injected by a deterministic fault plan (any site).
    pub injected_faults: u64,
    /// Promotions deferred by an injected candidate invalidation.
    pub promotions_deferred: u64,
}

impl Window {
    fn empty() -> Window {
        Window {
            fmfi_milli: u64::MAX,
            ..Window::default()
        }
    }

    /// Whether any event contributed to the window.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Window::empty()
    }

    /// The last fragmentation gauge of the window, if one was sampled.
    #[must_use]
    pub fn fmfi(&self) -> Option<f64> {
        (self.fmfi_milli != u64::MAX).then(|| self.fmfi_milli as f64 / 1000.0)
    }
}

/// Folds events into fixed-width windows of daemon ticks.
///
/// Feed every event through [`fold`](TimeSeries::fold) and call
/// [`finish`](TimeSeries::finish) once at the end of the stream so a
/// trailing partial window is flushed; two series fed the same events
/// compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    window_ticks: u64,
    windows: Vec<Window>,
    current: Window,
    finished: bool,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new(1)
    }
}

impl TimeSeries {
    /// A series whose windows span `window_ticks` daemon ticks (at least 1).
    #[must_use]
    pub fn new(window_ticks: u64) -> TimeSeries {
        TimeSeries {
            window_ticks: window_ticks.max(1),
            windows: Vec::new(),
            current: Window::empty(),
            finished: false,
        }
    }

    /// The configured window width in ticks.
    #[must_use]
    pub fn window_ticks(&self) -> u64 {
        self.window_ticks
    }

    /// Folds one event into the current window; a completed window is
    /// appended when the tick count reaches the configured width.
    pub fn fold(&mut self, event: &Event) {
        let w = &mut self.current;
        match *event {
            Event::Fault { size, ns, .. } => {
                w.faults[size.rung()] += 1;
                w.fault_ns[size.rung()] += ns;
            }
            Event::Promote { size, .. } => w.promotions[size.rung()] += 1,
            Event::Demote { size, .. } => w.demotions[size.rung()] += 1,
            Event::CompactionRun { .. } => w.compaction_runs += 1,
            Event::CompactionMove { bytes } => w.compaction_bytes += bytes,
            Event::PvExchange { pairs, .. } => w.pv_pairs += pairs,
            Event::ZeroFill { blocks } => w.zero_blocks += blocks,
            Event::TlbMiss { walk_cycles, .. } => {
                w.tlb_misses += 1;
                w.walk_cycles += walk_cycles;
            }
            Event::Gauge {
                fmfi_milli,
                free_huge,
                free_giant,
            } => {
                w.fmfi_milli = fmfi_milli;
                w.free_huge = free_huge;
                w.free_giant = free_giant;
            }
            Event::DaemonTick { ns } => {
                w.daemon_ns += ns;
                w.ticks += 1;
                if w.ticks >= self.window_ticks {
                    self.windows.push(self.current);
                    self.current = Window::empty();
                }
            }
            Event::FaultInjected { .. } => w.injected_faults += 1,
            Event::PromotionDeferred { .. } => w.promotions_deferred += 1,
            Event::GiantAttempt { .. }
            | Event::BuddySplit { .. }
            | Event::BuddyCoalesce { .. }
            | Event::SpanBegin { .. }
            | Event::SpanEnd { .. }
            | Event::TraceGap { .. }
            | Event::TenantScope { .. } => {}
        }
    }

    /// Flushes a trailing non-empty partial window. Call exactly once at
    /// end of stream; further folds would start a new window.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if !self.current.is_empty() {
            self.windows.push(self.current);
            self.current = Window::empty();
        }
    }

    /// The completed windows, oldest first.
    #[must_use]
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Page-size label for window columns, matching the wire names.
    #[must_use]
    pub fn size_label(size: PageSize) -> &'static str {
        crate::prom::size_label(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_obs::AllocSite;

    fn fault(ns: u64) -> Event {
        Event::Fault {
            size: PageSize::new(1),
            site: AllocSite::PageFault,
            ns,
        }
    }

    #[test]
    fn windows_close_on_tick_boundaries() {
        let mut s = TimeSeries::new(2);
        s.fold(&fault(10));
        s.fold(&Event::DaemonTick { ns: 1 });
        s.fold(&fault(20));
        s.fold(&Event::DaemonTick { ns: 2 });
        s.fold(&fault(30));
        s.finish();
        assert_eq!(s.windows().len(), 2);
        assert_eq!(s.windows()[0].faults[1], 2);
        assert_eq!(s.windows()[0].ticks, 2);
        assert_eq!(s.windows()[0].daemon_ns, 3);
        assert_eq!(s.windows()[1].faults[1], 1);
        assert_eq!(s.windows()[1].ticks, 0, "trailing partial window");
    }

    #[test]
    fn gauge_keeps_last_sample_per_window() {
        let mut s = TimeSeries::new(1);
        s.fold(&Event::Gauge {
            fmfi_milli: 100,
            free_huge: 5,
            free_giant: 1,
        });
        s.fold(&Event::Gauge {
            fmfi_milli: 250,
            free_huge: 4,
            free_giant: 1,
        });
        s.fold(&Event::DaemonTick { ns: 1 });
        s.fold(&Event::DaemonTick { ns: 1 });
        s.finish();
        assert_eq!(s.windows().len(), 2);
        assert_eq!(s.windows()[0].fmfi(), Some(0.25));
        assert_eq!(s.windows()[0].free_huge, 4);
        assert_eq!(s.windows()[1].fmfi(), None, "no gauge in second window");
    }

    #[test]
    fn replayed_series_equals_live_series() {
        let events = [
            fault(5),
            Event::Gauge {
                fmfi_milli: 10,
                free_huge: 2,
                free_giant: 0,
            },
            Event::DaemonTick { ns: 3 },
            Event::PvExchange {
                pairs: 8,
                bytes: 1 << 21,
            },
        ];
        let mut live = TimeSeries::new(1);
        let mut replay = TimeSeries::new(1);
        for ev in &events {
            live.fold(ev);
        }
        for ev in &events {
            replay.fold(ev);
        }
        live.finish();
        replay.finish();
        assert_eq!(live, replay);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut s = TimeSeries::new(1);
        s.fold(&fault(1));
        s.finish();
        let snapshot = s.clone();
        s.finish();
        assert_eq!(s, snapshot);
    }
}
