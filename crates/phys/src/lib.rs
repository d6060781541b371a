//! Physical memory model for the Trident simulator.
//!
//! The paper extends Linux's buddy allocator — which tracks free chunks only
//! up to 4MB — so that it also tracks contiguous chunks up to 1GB (§5.1.1),
//! and adds two counters per 1GB physical region (occupied page frames and
//! unmovable page frames) to drive *smart compaction* (§5.1.3). This crate
//! implements that substrate:
//!
//! * [`BuddyAllocator`] — a binary buddy allocator over base-page frames with
//!   free lists for every order from a single base page up to a giant (1GB)
//!   page, with split/coalesce and Free Memory Fragmentation Index (FMFI)
//!   reporting.
//! * [`FrameTable`] — per-frame metadata: used/free, movability, allocation
//!   unit boundaries, and the reverse mapping to the owning virtual page
//!   needed by compaction.
//! * [`RegionStats`] — the per-1GB-region free/unmovable counters that smart
//!   compaction consults to *select* (not scan for) its source and target
//!   regions.
//! * [`PhysicalMemory`] — the façade tying the three together, plus
//!   [`Fragmenter`] which reproduces the paper's methodology of fragmenting
//!   memory through page-cache churn (§3).
//!
//! # Examples
//!
//! ```
//! use trident_obs::NoopRecorder;
//! use trident_phys::{FrameUse, PhysicalMemory};
//! use trident_types::{PageGeometry, PageSize};
//!
//! let geo = PageGeometry::TINY;
//! let mut mem = PhysicalMemory::new(geo, 4 * geo.base_pages(geo.largest()));
//! let giant = mem.allocate(geo.largest(), FrameUse::User, None, &mut NoopRecorder)?;
//! assert!(mem.is_unit_head(giant));
//! mem.free(giant, &mut NoopRecorder)?;
//! # Ok::<(), trident_phys::PhysMemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod buddy;
mod error;
mod fragment;
mod frame;
mod memory;
mod region;

pub use buddy::BuddyAllocator;
pub use error::{AllocError, PhysMemError};
pub use fragment::{FragmentProfile, Fragmenter};
pub use frame::{AllocationUnit, FrameTable, FrameUse, MappingOwner};
pub use memory::PhysicalMemory;
pub use region::{RegionCounters, RegionId, RegionStats};
