//! Shared vocabulary types for the Trident memory-system simulator.
//!
//! This crate defines the page-size ladder vocabulary ([`PageSize`] rung
//! indices and [`SizeClass`] descriptors), the per-architecture address-space
//! geometry ([`PageGeometry`]) and the strongly-typed address and identifier
//! newtypes used by every other crate in the workspace.
//!
//! A geometry carries an ordered ladder of size classes: x86-64's
//! 4KB / 2MB / 1GB, RISC-V Sv48's 4-rung ladder with a 64KB SVNAPOT page,
//! or AArch64's contiguous-bit hint rungs. Every layer above iterates the
//! ladder instead of matching on fixed sizes, and unit tests can run the
//! same algorithms on a miniature geometry ([`PageGeometry::TINY`]).
//!
//! [`json`] is the workspace's one JSON codec: the trace and job-protocol
//! wire formats are both declared with it.
//!
//! # Examples
//!
//! ```
//! use trident_types::{PageGeometry, PageSize};
//!
//! let geo = PageGeometry::X86_64;
//! let rungs: Vec<PageSize> = geo.rungs().collect();
//! assert_eq!(geo.bytes(rungs[0]), 4 * 1024);
//! assert_eq!(geo.bytes(rungs[1]), 2 * 1024 * 1024);
//! assert_eq!(geo.bytes(rungs[2]), 1024 * 1024 * 1024);
//! assert_eq!(geo.base_pages(geo.largest()), 262_144);
//!
//! let sv48 = PageGeometry::by_name("sv48").unwrap();
//! assert_eq!(sv48.rung_count(), 4);
//! assert!(sv48.class(PageSize::new(1)).napot); // the 64KB SVNAPOT rung
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod addr;
mod bitset;
mod error;
mod geometry;
mod ids;
mod invariant;
pub mod json;
mod page_size;
mod units;

pub use addr::{Pfn, PhysAddr, VirtAddr, Vpn};
pub use bitset::DenseBitSet;
pub use error::{AllocError, TridentError};
pub use geometry::{PageGeometry, SizeClass};
pub use ids::{AsId, TenantId};
pub use invariant::{violations_message, InvariantViolation};
pub use page_size::{PageSize, MAX_RUNGS};
pub use units::{GIB, KIB, MIB};
