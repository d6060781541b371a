//! The recorder trait, the zero-cost no-op recorder and the ring tracer.

use std::any::Any;
use std::collections::VecDeque;

use crate::Event;

/// A sink for [`Event`]s.
///
/// Instrumented components take `&mut impl Recorder` (or `&mut dyn
/// Recorder`) and report every observable action through it. Callers that
/// do not care pass [`NoopRecorder`], whose `record` is an empty `#[inline]`
/// function — the compiler erases the call, so the instrumented hot path
/// costs nothing when tracing is off.
pub trait Recorder {
    /// Whether events are retained. Instrumentation may skip *computing*
    /// expensive event payloads when this is `false`; cheap events should
    /// be reported unconditionally.
    fn enabled(&self) -> bool {
        true
    }

    /// Reports one event.
    fn record(&mut self, event: Event);
}

impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, event: Event) {
        (**self).record(event);
    }
}

/// The recorder that discards everything, at zero cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _event: Event) {}
}

/// A bounded ring buffer of the most recent events.
///
/// When full, the oldest event is evicted and counted in
/// [`dropped`](RingTracer::dropped); a trace with `dropped() == 0` is
/// complete and replays to the exact live snapshot (see
/// [`StatsSnapshot::from_events`](crate::StatsSnapshot::from_events)).
#[derive(Debug, Clone)]
pub struct RingTracer {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl RingTracer {
    /// Creates a tracer retaining at most `capacity` events (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> RingTracer {
        let capacity = capacity.max(1);
        RingTracer {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1 << 20)),
            dropped: 0,
        }
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Removes and returns the retained events, oldest first.
    pub fn drain(&mut self) -> Vec<Event> {
        self.events.drain(..).collect()
    }
}

impl Recorder for RingTracer {
    fn record(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// A clonable, inspectable recorder that can live behind
/// [`ObsRecorder::Custom`].
///
/// `MmContext` derives `Clone` and `Debug`, so any recorder stored there
/// must be clonable through a box; `clone_box` provides that, and the
/// `as_any*` hooks let callers downcast back to the concrete type after a
/// run (e.g. to pull a finished profile out). Recorders that wrap a
/// [`RingTracer`] should override [`ring`](DynRecorder::ring) /
/// [`ring_mut`](DynRecorder::ring_mut) so trace draining keeps working
/// through the wrapper.
pub trait DynRecorder: Recorder + std::fmt::Debug + Send {
    /// Clones the recorder into a fresh box.
    fn clone_box(&self) -> Box<dyn DynRecorder>;

    /// The recorder as `Any`, for downcasting.
    fn as_any(&self) -> &dyn Any;

    /// The recorder as mutable `Any`, for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// The wrapped ring tracer, if this recorder keeps one.
    fn ring(&self) -> Option<&RingTracer> {
        None
    }

    /// Mutable access to the wrapped ring tracer, if any.
    fn ring_mut(&mut self) -> Option<&mut RingTracer> {
        None
    }
}

/// The concrete recorder stored inside simulation contexts.
///
/// `MmContext` derives `Clone` and `Debug`, so it cannot hold a bare
/// `Box<dyn Recorder>`; this enum dispatches between the shipped
/// recorders (and boxed [`DynRecorder`]s) while staying cloneable. The
/// no-op arm is a single match on a fieldless variant, which the
/// optimizer folds away.
#[derive(Debug, Default)]
pub enum ObsRecorder {
    /// Discard everything (the default).
    #[default]
    Noop,
    /// Retain events in a bounded ring.
    Ring(RingTracer),
    /// A caller-supplied recorder (profiler, streaming writer, …).
    Custom(Box<dyn DynRecorder>),
}

impl Clone for ObsRecorder {
    fn clone(&self) -> ObsRecorder {
        match self {
            ObsRecorder::Noop => ObsRecorder::Noop,
            ObsRecorder::Ring(t) => ObsRecorder::Ring(t.clone()),
            ObsRecorder::Custom(c) => ObsRecorder::Custom(c.clone_box()),
        }
    }
}

impl ObsRecorder {
    /// A ring-buffer recorder with the given capacity.
    #[must_use]
    pub fn ring(capacity: usize) -> ObsRecorder {
        ObsRecorder::Ring(RingTracer::new(capacity))
    }

    /// Wraps a caller-supplied recorder.
    #[must_use]
    pub fn custom(recorder: Box<dyn DynRecorder>) -> ObsRecorder {
        ObsRecorder::Custom(recorder)
    }

    /// Downcasts a [`Custom`](ObsRecorder::Custom) recorder to its
    /// concrete type.
    #[must_use]
    pub fn custom_ref<T: Any>(&self) -> Option<&T> {
        match self {
            ObsRecorder::Custom(c) => c.as_any().downcast_ref(),
            _ => None,
        }
    }

    /// Mutable downcast of a [`Custom`](ObsRecorder::Custom) recorder.
    pub fn custom_mut<T: Any>(&mut self) -> Option<&mut T> {
        match self {
            ObsRecorder::Custom(c) => c.as_any_mut().downcast_mut(),
            _ => None,
        }
    }

    /// The underlying tracer, if this recorder keeps one (directly or
    /// through a custom wrapper).
    #[must_use]
    pub fn tracer(&self) -> Option<&RingTracer> {
        match self {
            ObsRecorder::Noop => None,
            ObsRecorder::Ring(t) => Some(t),
            ObsRecorder::Custom(c) => c.ring(),
        }
    }

    /// Mutable access to the underlying tracer, if any.
    pub fn tracer_mut(&mut self) -> Option<&mut RingTracer> {
        match self {
            ObsRecorder::Noop => None,
            ObsRecorder::Ring(t) => Some(t),
            ObsRecorder::Custom(c) => c.ring_mut(),
        }
    }
}

impl Recorder for ObsRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        match self {
            ObsRecorder::Noop => false,
            ObsRecorder::Ring(_) => true,
            ObsRecorder::Custom(c) => c.enabled(),
        }
    }

    #[inline]
    fn record(&mut self, event: Event) {
        match self {
            ObsRecorder::Noop => {}
            ObsRecorder::Ring(t) => t.record(event),
            ObsRecorder::Custom(c) => c.record(event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocSite;
    use trident_types::PageSize;

    fn fault(ns: u64) -> Event {
        Event::Fault {
            size: PageSize::BASE,
            site: AllocSite::PageFault,
            ns,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = RingTracer::new(3);
        for ns in 0..5 {
            t.record(fault(ns));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let retained: Vec<u64> = t
            .events()
            .map(|e| match e {
                Event::Fault { ns, .. } => *ns,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(retained, [2, 3, 4]);
    }

    #[test]
    fn noop_recorder_reports_disabled() {
        let mut n = NoopRecorder;
        assert!(!n.enabled());
        n.record(fault(1));
        let mut o = ObsRecorder::default();
        assert!(!o.enabled());
        o.record(fault(1));
        assert!(o.tracer().is_none());
    }

    #[test]
    fn obs_recorder_ring_retains_and_drains() {
        let mut o = ObsRecorder::ring(8);
        assert!(o.enabled());
        o.record(fault(7));
        o.record(Event::TlbMiss {
            size: PageSize::new(1),
            walk_cycles: 20,
        });
        let tracer = o.tracer().expect("tracing on");
        assert_eq!(tracer.len(), 2);
        assert!(matches!(
            tracer.events.back(),
            Some(Event::TlbMiss { size, .. }) if size.rung() == 1
        ));
        let drained = o.tracer_mut().expect("tracing on").drain();
        assert_eq!(drained.len(), 2);
        assert!(o.tracer().expect("still on").is_empty());
    }

    #[test]
    fn jsonl_export_parses_back() {
        let mut t = RingTracer::new(16);
        t.record(fault(3));
        t.record(Event::ZeroFill { blocks: 1 });
        let lines: Vec<String> = t.events().map(Event::to_jsonl).collect();
        let parsed: Result<Vec<Event>, _> = lines.iter().map(|l| Event::parse_jsonl(l)).collect();
        assert_eq!(parsed.unwrap(), t.drain());
    }
}
