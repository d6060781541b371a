//! Virtualization layer for the Trident simulator.
//!
//! Models the two-level address translation of §2: a guest virtual address
//! (gVA) is translated to a guest physical address (gPA) by the guest OS's
//! page tables, and the gPA to a host physical address (hPA) by the
//! hypervisor's tables. Both levels run a [`PagePolicy`] of their own, so
//! every combination the paper evaluates (4KB+4KB, 2MB+2MB, 1GB+1GB,
//! THP+THP, Trident+Trident, ...) is expressible.
//!
//! The paravirtualized extension (§6) is a guest policy, not a part of
//! this crate: Trident-pv is Trident whose promotions take the
//! [`PromotionStyle::PvBatched`] style of `trident-core`'s promoter, which
//! charges one batched exchange hypercall for the 2MB-mapped portions
//! instead of copying them (Figure 8).
//!
//! [`PagePolicy`]: trident_core::PagePolicy
//! [`PromotionStyle::PvBatched`]: trident_core::PromotionStyle::PvBatched

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod nested;

pub use nested::{GuestKernel, Hypervisor, NestedAccess, VirtualMachine};
