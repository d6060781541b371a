//! Trace analysis and profiling for the Trident simulator.
//!
//! `trident-obs` (the write side) turns every memory-management action
//! into a typed event; this crate is the read side. It derives three
//! views from the same stream, live or replayed:
//!
//! - **Spans** — [`SpanStats`] pairs `SpanBegin`/`SpanEnd` events into
//!   per-operation duration records aggregated in a mergeable,
//!   log-bucketed [`LatencyHistogram`] (p50/p90/p99/max).
//! - **Time series** — [`TimeSeries`] folds events into fixed windows of
//!   daemon ticks: faults by page size, promotions, compaction work,
//!   fragmentation gauges, TLB misses.
//! - **Aggregates** — the same [`StatsSnapshot`](trident_obs::StatsSnapshot)
//!   counters the experiments consume.
//!
//! All three live in a [`Profile`], a pure fold over events: profiling a
//! run live (via [`Profiler`]) and replaying its trace (via
//! [`TraceReader`]) produce *equal* profiles, and the renderers in
//! [`report`] turn equal profiles into byte-identical reports. The
//! `trace_analyze` binary in `trident-bench` is the CLI over this crate.
//!
//! # Examples
//!
//! ```
//! use trident_obs::{Event, SpanKind};
//! use trident_prof::Profile;
//!
//! let events = [
//!     Event::SpanBegin { kind: SpanKind::Compaction },
//!     Event::CompactionMove { bytes: 4096 },
//!     Event::SpanEnd { kind: SpanKind::Compaction, ns: 2500 },
//!     Event::DaemonTick { ns: 2500 },
//! ];
//! let profile = Profile::from_events(1, events.iter());
//! assert_eq!(profile.spans.histogram(SpanKind::Compaction).p50(), Some(2500));
//! assert_eq!(profile.series.windows().len(), 1);
//! assert_eq!(profile.snapshot.compaction_bytes_copied, 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod hist;
mod profile;
pub mod prom;
mod reader;
mod recorder;
pub mod report;
mod series;
mod span;

pub use hist::LatencyHistogram;
pub use profile::Profile;
pub use reader::{TraceReadError, TraceReadErrorKind, TraceReader};
pub use recorder::{JsonlWriter, Profiler};
pub use series::{TimeSeries, Window};
pub use span::SpanStats;
