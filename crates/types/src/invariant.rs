//! Structured cross-layer invariant violations.
//!
//! The consistency checks in `trident-phys` and `trident-core` historically
//! panicked on the first broken invariant, which is the right behavior for
//! unit tests but useless for chaos runs that want to *count and report*
//! corruption instead of aborting. [`InvariantViolation`] is the structured
//! currency of the non-panicking `check_*` audit APIs: each variant names
//! one broken invariant with enough context to locate it, and the legacy
//! `assert_*` entry points are thin wrappers that panic with the collected
//! list.

use crate::{AsId, Pfn, Vpn};

/// One broken cross-layer invariant, found by a `check_*` audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A buddy free block extends past the end of physical memory.
    BuddyBlockOutOfBounds {
        /// First page of the block.
        start: u64,
        /// Block length in base pages.
        pages: u64,
        /// Total pages managed by the allocator.
        total_pages: u64,
    },
    /// Two buddy free blocks overlap.
    BuddyBlocksOverlap {
        /// First page of the earlier block.
        first: u64,
        /// First page of the later, overlapping block.
        second: u64,
    },
    /// The buddy allocator's cached free-page count disagrees with the sum
    /// of its free lists.
    BuddyFreeCountDrift {
        /// Pages counted by walking the free lists.
        counted: u64,
        /// Pages recorded in the cached counter.
        recorded: u64,
    },
    /// The buddy allocator and the region map disagree on free pages.
    FreeCountMismatch {
        /// Free pages according to the buddy allocator.
        buddy_free: u64,
        /// Free pages according to the region map.
        region_free: u64,
    },
    /// A page-table leaf points at a frame that is not a unit head.
    LeafNotUnitHead {
        /// Owning address space.
        asid: AsId,
        /// Leaf virtual page.
        vpn: Vpn,
        /// The dangling frame.
        pfn: Pfn,
    },
    /// A leaf's mapped size disagrees with the backing unit's span.
    UnitSpanMismatch {
        /// Owning address space.
        asid: AsId,
        /// Leaf virtual page.
        vpn: Vpn,
        /// Pages spanned by the physical unit.
        unit_pages: u64,
        /// Pages implied by the leaf's page size.
        leaf_pages: u64,
    },
    /// A mapped unit has no recorded owner.
    MissingOwner {
        /// Address space whose leaf references the unit.
        asid: AsId,
        /// Head frame of the ownerless unit.
        pfn: Pfn,
    },
    /// A unit's recorded owner disagrees with the leaf that maps it.
    OwnerMismatch {
        /// Address space whose leaf references the unit.
        asid: AsId,
        /// Head frame of the unit.
        pfn: Pfn,
        /// Virtual page recorded as the unit's owner.
        owner_vpn: Vpn,
        /// Virtual page of the leaf actually mapping the unit.
        leaf_vpn: Vpn,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::BuddyBlockOutOfBounds {
                start,
                pages,
                total_pages,
            } => write!(
                f,
                "buddy free block at page {start} ({pages} pages) exceeds {total_pages} total pages"
            ),
            InvariantViolation::BuddyBlocksOverlap { first, second } => {
                write!(f, "buddy free blocks at pages {first} and {second} overlap")
            }
            InvariantViolation::BuddyFreeCountDrift { counted, recorded } => write!(
                f,
                "buddy free lists hold {counted} pages but the counter says {recorded}"
            ),
            InvariantViolation::FreeCountMismatch {
                buddy_free,
                region_free,
            } => write!(
                f,
                "buddy reports {buddy_free} free pages but regions report {region_free}"
            ),
            InvariantViolation::LeafNotUnitHead { asid, vpn, pfn } => write!(
                f,
                "space {asid:?} leaf at {vpn:?} points at {pfn:?}, which is not a unit head"
            ),
            InvariantViolation::UnitSpanMismatch {
                asid,
                vpn,
                unit_pages,
                leaf_pages,
            } => write!(
                f,
                "space {asid:?} leaf at {vpn:?} maps {leaf_pages} pages over a {unit_pages}-page unit"
            ),
            InvariantViolation::MissingOwner { asid, pfn } => {
                write!(f, "unit at {pfn:?} mapped by space {asid:?} has no owner")
            }
            InvariantViolation::OwnerMismatch {
                asid,
                pfn,
                owner_vpn,
                leaf_vpn,
            } => write!(
                f,
                "unit at {pfn:?} records owner {owner_vpn:?} but space {asid:?} maps it at {leaf_vpn:?}"
            ),
        }
    }
}

/// Renders a violation list as a panic message, one violation per line.
#[must_use]
pub fn violations_message(violations: &[InvariantViolation]) -> String {
    let mut out = format!("{} invariant violation(s):", violations.len());
    for v in violations {
        out.push_str("\n  - ");
        out.push_str(&v.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_message_lists_all() {
        let vs = [
            InvariantViolation::BuddyFreeCountDrift {
                counted: 1,
                recorded: 2,
            },
            InvariantViolation::FreeCountMismatch {
                buddy_free: 3,
                region_free: 4,
            },
        ];
        for v in &vs {
            assert!(!v.to_string().is_empty());
        }
        let msg = violations_message(&vs);
        assert!(msg.starts_with("2 invariant violation(s):"));
        assert_eq!(msg.lines().count(), 3);
    }
}
