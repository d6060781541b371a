//! Instruments the benchmark attaches to a run from outside, through
//! public APIs only: a policy wrapper that wall-clocks every call it
//! forwards, a recorder that counts events and wall-clocks span pairs,
//! and the FNV-1a digests that pin a run's outputs.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use trident_core::{
    Event, FaultOutcome, MmContext, PagePolicy, PolicyError, Recorder, SpaceSet, SpanKind,
    TickOutcome,
};
use trident_obs::DynRecorder;
use trident_serve::JobResult;
use trident_sim::Measurement;
use trident_types::Vpn;
use trident_vm::AddressSpace;

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of everything a measurement reports as a result. Traces,
/// dropped-event counts and profiles are left out: they describe how a
/// run was observed, not what it computed.
#[must_use]
pub fn measurement_digest(m: &Measurement) -> u64 {
    let text = format!(
        "{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
        m.samples,
        m.walks,
        m.walk_cycles,
        m.tlb,
        m.snapshot,
        m.mapped_bytes,
        m.miss_by_chunk,
        m.tenants
    );
    fnv1a(text.as_bytes())
}

/// Digest of a job result as the daemon returned it.
#[must_use]
pub fn job_digest(result: &JobResult) -> u64 {
    fnv1a(format!("{result:?}").as_bytes())
}

/// Folds an ordered list of digests into one.
#[must_use]
pub fn fold_digests(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Wall-clock totals of the calls a [`TimedPolicy`] forwarded. Shared
/// with the wrapper, which the system owns once it is installed.
#[derive(Debug, Default)]
pub struct PolicyClock {
    fault_ns: AtomicU64,
    fault_calls: AtomicU64,
    tick_ns: AtomicU64,
    tick_calls: AtomicU64,
}

/// A snapshot of a [`PolicyClock`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTimes {
    /// Nanoseconds inside `on_fault`.
    pub fault_ns: u64,
    /// `on_fault` calls.
    pub fault_calls: u64,
    /// Nanoseconds inside `on_tick`.
    pub tick_ns: u64,
    /// `on_tick` calls.
    pub tick_calls: u64,
}

impl PolicyClock {
    /// The totals so far.
    #[must_use]
    pub fn times(&self) -> PolicyTimes {
        // Relaxed: plain statistics, read after the run on the same
        // thread that wrote them.
        PolicyTimes {
            fault_ns: self.fault_ns.load(Ordering::Relaxed),
            fault_calls: self.fault_calls.load(Ordering::Relaxed),
            tick_ns: self.tick_ns.load(Ordering::Relaxed),
            tick_calls: self.tick_calls.load(Ordering::Relaxed),
        }
    }
}

fn add_elapsed(ns: &AtomicU64, calls: &AtomicU64, since: Instant) {
    ns.fetch_add(nanos(since.elapsed()), Ordering::Relaxed);
    calls.fetch_add(1, Ordering::Relaxed);
}

/// Saturating conversion of a duration to nanoseconds.
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A policy that delegates every call to `inner` and wall-clocks it.
pub struct TimedPolicy {
    inner: Box<dyn PagePolicy>,
    clock: Arc<PolicyClock>,
}

impl TimedPolicy {
    /// Wraps `inner`; totals accumulate in `clock`.
    #[must_use]
    pub fn new(inner: Box<dyn PagePolicy>, clock: Arc<PolicyClock>) -> TimedPolicy {
        TimedPolicy { inner, clock }
    }
}

impl PagePolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_fault(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        vpn: Vpn,
    ) -> Result<FaultOutcome, PolicyError> {
        let start = Instant::now();
        let outcome = self.inner.on_fault(ctx, space, vpn);
        add_elapsed(&self.clock.fault_ns, &self.clock.fault_calls, start);
        outcome
    }

    fn on_tick(&mut self, ctx: &mut MmContext, spaces: &mut SpaceSet) -> TickOutcome {
        let start = Instant::now();
        let outcome = self.inner.on_tick(ctx, spaces);
        add_elapsed(&self.clock.tick_ns, &self.clock.tick_calls, start);
        outcome
    }
}

/// Counts of the events a run recorded, by the kinds the per-layer
/// metrics need.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Every event.
    pub events: u64,
    /// Promotions to any larger size.
    pub promotions: u64,
    /// Compaction passes.
    pub compaction_runs: u64,
    /// Compaction passes that produced the requested free chunk.
    pub compaction_successes: u64,
    /// 1GB allocation attempts, at fault time or promotion time.
    pub giant_attempts: u64,
    /// Those that failed for lack of contiguity.
    pub giant_failures: u64,
    /// Buddy block splits.
    pub buddy_splits: u64,
    /// Buddy block merges.
    pub buddy_coalesces: u64,
}

impl EventCounts {
    /// Counts one event.
    pub fn add(&mut self, event: &Event) {
        self.events += 1;
        match *event {
            Event::Promote { .. } => self.promotions += 1,
            Event::CompactionRun { succeeded, .. } => {
                self.compaction_runs += 1;
                self.compaction_successes += u64::from(succeeded);
            }
            Event::GiantAttempt { failed, .. } => {
                self.giant_attempts += 1;
                self.giant_failures += u64::from(failed);
            }
            Event::BuddySplit { .. } => self.buddy_splits += 1,
            Event::BuddyCoalesce { .. } => self.buddy_coalesces += 1,
            _ => {}
        }
    }

    /// Adds another set of counts.
    pub fn absorb(&mut self, other: &EventCounts) {
        self.events += other.events;
        self.promotions += other.promotions;
        self.compaction_runs += other.compaction_runs;
        self.compaction_successes += other.compaction_successes;
        self.giant_attempts += other.giant_attempts;
        self.giant_failures += other.giant_failures;
        self.buddy_splits += other.buddy_splits;
        self.buddy_coalesces += other.buddy_coalesces;
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    kind: SpanKind,
    start: Instant,
    child_ns: u64,
}

/// A recorder that counts events and wall-clocks the program's own
/// `SpanBegin`/`SpanEnd` pairs. A span's self time is its duration minus
/// the time its nested spans cover.
#[derive(Debug, Clone, Default)]
pub struct LayerRecorder {
    /// Event counts.
    pub counts: EventCounts,
    /// Wall-clock self time per span kind, indexed like
    /// [`SpanKind::ALL`].
    pub self_ns: [u64; SpanKind::ALL.len()],
    open: Vec<OpenSpan>,
}

impl LayerRecorder {
    /// Self time of one span kind.
    #[must_use]
    pub fn self_ns(&self, kind: SpanKind) -> u64 {
        self.self_ns[span_index(kind)]
    }
}

fn span_index(kind: SpanKind) -> usize {
    SpanKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("SpanKind::ALL lists every kind")
}

impl Recorder for LayerRecorder {
    fn record(&mut self, event: Event) {
        self.counts.add(&event);
        match event {
            Event::SpanBegin { kind } => self.open.push(OpenSpan {
                kind,
                start: Instant::now(),
                child_ns: 0,
            }),
            Event::SpanEnd { kind, .. } => {
                // Close the innermost open span of this kind; anything
                // opened inside it and left unclosed is discarded.
                let Some(at) = self.open.iter().rposition(|s| s.kind == kind) else {
                    return;
                };
                let span = self.open[at];
                self.open.truncate(at);
                let total = nanos(span.start.elapsed());
                self.self_ns[span_index(kind)] += total.saturating_sub(span.child_ns);
                if let Some(parent) = self.open.last_mut() {
                    parent.child_ns += total;
                }
            }
            _ => {}
        }
    }
}

impl DynRecorder for LayerRecorder {
    fn clone_box(&self) -> Box<dyn DynRecorder> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn nested_span_time_is_charged_to_the_child_only() {
        let mut rec = LayerRecorder::default();
        rec.record(Event::SpanBegin {
            kind: SpanKind::PromoScan,
        });
        rec.record(Event::SpanBegin {
            kind: SpanKind::Compaction,
        });
        std::thread::sleep(Duration::from_millis(20));
        rec.record(Event::SpanEnd {
            kind: SpanKind::Compaction,
            ns: 0,
        });
        rec.record(Event::SpanEnd {
            kind: SpanKind::PromoScan,
            ns: 0,
        });
        assert!(rec.self_ns(SpanKind::Compaction) >= 20_000_000);
        assert!(rec.self_ns(SpanKind::PromoScan) < rec.self_ns(SpanKind::Compaction));
        assert_eq!(rec.counts.events, 4);
    }
}
