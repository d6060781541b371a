//! Virtual memory model for the Trident simulator.
//!
//! This crate models the guest-visible half of the paper's system: virtual
//! memory areas ([`Vma`]), multi-level page tables with leaves at every
//! rung of the geometry's page-size ladder ([`PageTable`]) — including
//! multi-entry *group* leaves for RISC-V SVNAPOT and ARM contiguous-bit
//! rungs — and the analysis the paper performs on them: which parts of an
//! address space are large-page-*mappable* (Figure 3).
//!
//! # Examples
//!
//! ```
//! use trident_types::{PageGeometry, PageSize, Pfn, Vpn};
//! use trident_vm::PageTable;
//!
//! let geo = PageGeometry::TINY;
//! let mut pt = PageTable::new(geo);
//! pt.map(Vpn::new(0), Pfn::new(64), geo.largest())?;
//! let t = pt.translate(Vpn::new(5)).expect("mapped by the giant leaf");
//! assert_eq!(t.size, geo.largest());
//! assert_eq!(t.pfn, Pfn::new(64 + 5));
//! # Ok::<(), trident_vm::MapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod address_space;
mod error;
mod mappable;
mod page_table;
mod pte;
mod vma;

pub use address_space::AddressSpace;
pub use error::MapError;
pub use mappable::{mappable_bytes, mappable_bytes_scan, mappable_ranges, promotion_candidates};
pub use page_table::{ChunkProfile, MappingRecord, PageTable, Translation};
pub use pte::RawPte;
pub use vma::{Vma, VmaKind};
