//! Models of the paper's twelve applications (Table 2).
//!
//! Each [`WorkloadSpec`] captures what actually drives the paper's
//! results for an application:
//!
//! * **footprint** — how much memory it touches (Table 2);
//! * **allocation pattern** — bulk up-front allocation (XSBench, GUPS)
//!   versus incremental allocation with virtual-address gaps (Redis,
//!   Memcached, SVM, Btree), which determines how much of the space is
//!   1GB-mappable (§4.3, Figure 3);
//! * **access locality** — hot-set size relative to the TLB reach of each
//!   page size, which determines whether 1GB pages pay off (§4.1): the
//!   eight shaded applications have hot sets beyond the 3GB reach of the
//!   2MB L2 TLB, the others do not;
//! * **stack sensitivity** — Redis and GUPS take many TLB misses on their
//!   stacks, which static hugetlbfs cannot back (§7);
//! * **calibration anchors** — the fraction of cycles spent in page walks
//!   under 4KB pages, read off Figure 1a.
//!
//! Workload parameters are expressed unscaled (as on the paper's 384GB
//! machine) and scaled down by a [`MemoryScale`] when a layout is built.
//! The large page sizes shrink by the same factor while the TLB keeps its
//! real entry counts, which preserves the footprint-to-reach ratios
//! (DESIGN.md §2, "Geometry scaling").

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod access;
mod layout;
mod spec;

pub use access::{Access, AccessSampler};
pub use layout::{AllocPlan, AllocStep, ChunkRange, Layout};
pub use spec::{AccessPattern, AllocPattern, MemoryScale, WorkloadSpec};
