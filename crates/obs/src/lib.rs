//! Observability spine for the Trident memory-management simulator.
//!
//! Every interesting thing the simulated memory manager does — buddy
//! splits and coalesces, page faults by size, promotions, demotions,
//! compaction moves, paravirtual mapping exchanges, TLB misses — is a
//! typed [`Event`]. Components report events through the [`Recorder`]
//! trait; the two shipped implementations are:
//!
//! - [`NoopRecorder`]: the default. Its `record` is an empty inlined
//!   function, so instrumented hot paths cost nothing when tracing is off.
//! - [`RingTracer`]: a bounded ring buffer that retains the most recent
//!   events. Each event is one JSONL line for offline analysis; see
//!   [`Event::to_jsonl`] / [`Event::parse_jsonl`].
//!
//! Aggregate counters live in the versioned [`StatsSnapshot`], which can
//! be produced two ways that are guaranteed to agree: from the live
//! counters a policy maintains while running, or by replaying a recorded
//! trace with [`StatsSnapshot::from_events`]. Events that carry no
//! snapshot counter (buddy churn, TLB misses) are trace-only; see
//! [`Event::is_snapshot_bearing`].
//!
//! # Examples
//!
//! ```
//! use trident_obs::{Event, Recorder, RingTracer, StatsSnapshot};
//! use trident_types::PageSize;
//!
//! let huge = PageSize::new(1); // rung 1 of the active geometry's ladder
//! let mut tracer = RingTracer::new(1024);
//! tracer.record(Event::Fault {
//!     size: huge,
//!     site: trident_obs::AllocSite::PageFault,
//!     ns: 1800,
//! });
//! let replayed: Vec<Event> = tracer
//!     .events()
//!     .map(|ev| Event::parse_jsonl(&ev.to_jsonl()).unwrap())
//!     .collect();
//! let snap = StatsSnapshot::from_events(replayed.iter());
//! assert_eq!(snap.faults[huge.rung()], 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod event;
mod recorder;
mod snapshot;

pub use event::{jsonl_schema_version, AllocSite, Event, InjectSite, ParseError, SpanKind};
pub use recorder::{DynRecorder, NoopRecorder, ObsRecorder, Recorder, RingTracer};
pub use snapshot::{StatsSnapshot, SNAPSHOT_VERSION};
/// The tag-enum declaration macro of the workspace's JSON codec,
/// re-exported so crates that speak trace vocabulary need no direct
/// `trident-types` dependency to declare their own wire enums.
pub use trident_types::wire_enum;
