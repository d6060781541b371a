//! Full-system driver for the Trident simulator.
//!
//! Ties every substrate together into runnable systems:
//!
//! * [`System`] — a native machine: physical memory (optionally
//!   fragmented per the paper's §3 methodology), N co-located tenant
//!   processes on the one pool, a page-size policy, and the Skylake TLB
//!   model. Boot one with [`System::builder`]. Workloads are *loaded*
//!   (allocation interleaved with first-touch faults and daemon ticks,
//!   round-robin across tenants), *settled* (daemons run to quiescence)
//!   and *measured* (sampled accesses drive the TLB, attributed per
//!   tenant).
//! * [`VirtSystem`] — the same under virtualization: a guest kernel with
//!   its own policy over guest-physical memory, a hypervisor with its own
//!   policy over host memory, nested walk costs.
//! * [`PerfPoint::evaluate`] — the performance model, a pure function
//!   that converts measured walk cycles and MM overheads into the
//!   normalized performance numbers the paper plots, anchored on each
//!   application's 4KB run and its walk-cycle fraction (Figure 1a).
//! * [`runner`] — the parallel experiment engine: experiments decompose
//!   into independent cells executed across scoped threads, with per-cell
//!   seeds derived so parallel results are bit-identical to serial ones.
//! * [`experiments`] — one routine per table and figure of the paper's
//!   evaluation, listed once in the registry [`experiments::ALL`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod config;
pub mod experiments;
mod governor;
mod latency;
mod model;
mod policy;
pub mod runner;
mod system;
mod virt_system;

pub use config::{check_scale, scaled_geometry, scaled_geometry_for, SimConfig};
pub use governor::DaemonGovernor;
pub use latency::{request_p99_ms, LatencyModel};
pub use model::PerfPoint;
pub use policy::PolicyKind;
pub use runner::{derive_cell_seed, Cell, Runner, VirtCell};
pub use system::{Measurement, RunProgress, System, SystemBuilder, TenantMeasurement, TenantSpec};
// Tenant vocabulary, re-exported so experiment authors need not depend on
// `trident-core`/`trident-types` directly.
pub use trident_core::{PinnedRange, PolicyHint};
pub use trident_types::TenantId;
pub use virt_system::VirtSystem;
