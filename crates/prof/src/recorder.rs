//! Live recorders: an in-run profiler and a streaming JSONL file writer.
//!
//! Both implement [`DynRecorder`] so they can sit behind
//! [`ObsRecorder::Custom`] inside a cloneable simulation context.

use core::fmt;
use std::any::Any;
use std::io::Write;
use std::sync::{Arc, Mutex};

use trident_obs::{DynRecorder, Event, ObsRecorder, Recorder, RingTracer};

use crate::Profile;

/// A recorder that folds every event into a live [`Profile`] and then
/// forwards it to an inner [`ObsRecorder`] (usually a ring tracer, so
/// the raw trace is still available alongside the profile).
#[derive(Debug, Clone)]
pub struct Profiler {
    profile: Profile,
    inner: ObsRecorder,
}

impl Profiler {
    /// Profiles on top of `inner`, using `window_ticks`-wide windows.
    #[must_use]
    pub fn new(window_ticks: u64, inner: ObsRecorder) -> Profiler {
        Profiler {
            profile: Profile::new(window_ticks),
            inner,
        }
    }

    /// Flushes the trailing window and returns the finished profile.
    pub fn finish_profile(&mut self) -> Profile {
        self.profile.finish();
        self.profile.clone()
    }
}

impl Recorder for Profiler {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        self.profile.fold(&event);
        self.inner.record(event);
    }
}

impl DynRecorder for Profiler {
    fn clone_box(&self) -> Box<dyn DynRecorder> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn ring(&self) -> Option<&RingTracer> {
        self.inner.tracer()
    }

    fn ring_mut(&mut self) -> Option<&mut RingTracer> {
        self.inner.tracer_mut()
    }
}

struct WriterState {
    sink: Box<dyn Write + Send>,
    written: u64,
    errored: bool,
}

/// A recorder that streams every event to a byte sink as JSONL, one
/// event per line, without retaining anything in memory.
///
/// Clones share the sink (the context is cloned during setup in some
/// policies), so the written-line count is global across clones. Write
/// errors are sticky and surfaced by [`finish`](JsonlWriter::finish)
/// rather than panicking mid-run.
#[derive(Clone)]
pub struct JsonlWriter {
    state: Arc<Mutex<WriterState>>,
}

impl JsonlWriter {
    /// Streams to `sink`.
    #[must_use]
    pub fn new(sink: Box<dyn Write + Send>) -> JsonlWriter {
        JsonlWriter {
            state: Arc::new(Mutex::new(WriterState {
                sink,
                written: 0,
                errored: false,
            })),
        }
    }

    /// Flushes the sink and reports the line count, or the first write
    /// error if any occurred during the run.
    pub fn finish(&self) -> std::io::Result<u64> {
        let mut s = self
            .state
            .lock()
            .map_err(|_| std::io::Error::other("trace writer poisoned"))?;
        if s.errored {
            return Err(std::io::Error::other("trace write failed mid-run"));
        }
        s.sink.flush()?;
        Ok(s.written)
    }
}

impl fmt::Debug for JsonlWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let written = self.state.lock().map(|s| s.written).unwrap_or(0);
        f.debug_struct("JsonlWriter")
            .field("written", &written)
            .finish_non_exhaustive()
    }
}

impl Recorder for JsonlWriter {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        if let Ok(mut s) = self.state.lock() {
            if s.errored {
                return;
            }
            let line = event.to_jsonl();
            if writeln!(s.sink, "{line}").is_err() {
                s.errored = true;
            } else {
                s.written += 1;
            }
        }
    }
}

impl DynRecorder for JsonlWriter {
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
    use std::io::Cursor;
    use std::sync::{Arc as StdArc, Mutex as StdMutex};

    #[test]
    fn profiler_forwards_to_inner_ring() {
        let mut p = Profiler::new(1, ObsRecorder::ring(8));
        p.record(Event::ZeroFill { blocks: 1 });
        p.record(Event::DaemonTick { ns: 4 });
        assert_eq!(p.ring().unwrap().len(), 2);
        let profile = p.finish_profile();
        assert_eq!(profile.events_seen, 2);
        assert_eq!(profile.snapshot.daemon_ns, 4);
        assert_eq!(profile.series.windows().len(), 1);
    }

    #[test]
    fn profiler_behind_obs_recorder_downcasts_back() {
        let mut rec = ObsRecorder::custom(Box::new(Profiler::new(1, ObsRecorder::default())));
        rec.record(Event::DaemonTick { ns: 7 });
        let profiler: &mut Profiler = rec.custom_mut().expect("downcast");
        assert_eq!(profiler.finish_profile().snapshot.daemon_ns, 7);
    }

    /// A sink whose buffer outlives the writer, for asserting bytes.
    #[derive(Clone)]
    struct SharedBuf(StdArc<StdMutex<Cursor<Vec<u8>>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_writer_streams_lines() {
        let buf = SharedBuf(StdArc::new(StdMutex::new(Cursor::new(Vec::new()))));
        let mut w = JsonlWriter::new(Box::new(buf.clone()));
        let ev = Event::ZeroFill { blocks: 9 };
        w.record(ev);
        let mut w2 = w.clone();
        w2.record(ev);
        assert_eq!(w.finish().unwrap(), 2, "clones share the line count");
        let bytes = buf.0.lock().unwrap().get_ref().clone();
        let text = String::from_utf8(bytes).unwrap();
        for line in text.lines() {
            assert_eq!(Event::parse_jsonl(line), Ok(ev));
        }
        assert_eq!(text.lines().count(), 2);
    }
}
