//! The page-allocation policy interface.

use trident_types::{TridentError, Vpn};
use trident_vm::AddressSpace;

use crate::{FaultOutcome, MmContext, SpaceSet};

/// Errors a policy can raise.
///
/// Alias of the unified [`TridentError`]: allocation failures
/// (`OutOfContiguousMemory`) propagate from the physical layer with `?`
/// instead of being re-wrapped, and a fault outside every VMA (a simulated
/// SIGSEGV) is `BadAddress`.
pub type PolicyError = TridentError;

/// What one background-daemon tick accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickOutcome {
    /// CPU time consumed by daemon work this tick (scan + copy + zeroing).
    pub daemon_ns: u64,
    /// Mappings promoted to a larger size.
    pub promotions: u64,
    /// Compaction runs performed.
    pub compaction_runs: u64,
}

impl TickOutcome {
    /// Accumulates another outcome into this one.
    pub fn absorb(&mut self, other: TickOutcome) {
        self.daemon_ns += other.daemon_ns;
        self.promotions += other.promotions;
        self.compaction_runs += other.compaction_runs;
    }
}

/// A page-size allocation policy: the OS component the paper varies.
///
/// The simulator calls [`PagePolicy::populate`] with the pages a workload
/// touches first (its default calls [`PagePolicy::on_fault`] per unmapped
/// page), [`PagePolicy::on_fault`] when a measured access finds no
/// mapping, and [`PagePolicy::on_tick`] periodically to model the
/// background daemons (`khugepaged`, Trident's zero-fill thread,
/// HawkEye's `kbinmanager`).
pub trait PagePolicy {
    /// A short name for reports ("THP", "Trident", ...).
    fn name(&self) -> String;

    /// Handles a page fault at `vpn`: maps some page covering it and
    /// reports the size used and the fault latency.
    ///
    /// # Errors
    ///
    /// [`PolicyError::BadAddress`] if `vpn` is outside every VMA;
    /// [`PolicyError::OutOfContiguousMemory`] if no frame at all could be
    /// allocated.
    fn on_fault(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        vpn: Vpn,
    ) -> Result<FaultOutcome, PolicyError>;

    /// Populates the first-touched pages `[start, start + pages)`: in
    /// address order, faults in every page that no leaf maps yet.
    ///
    /// The default calls [`on_fault`](Self::on_fault) per unmapped page
    /// and skips the pages a just-installed leaf already covers. An
    /// override must leave exactly the frames, table state and counters
    /// that the default leaves. The 4KB baseline and the 4KB fallbacks of
    /// THP and Trident map runs of base pages in one batch (DESIGN §12).
    ///
    /// # Errors
    ///
    /// The first failed fault's error. Every page before the failing one
    /// is populated, and the failing page is left unmapped.
    fn populate(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        start: Vpn,
        pages: u64,
    ) -> Result<(), PolicyError> {
        let geo = space.geometry();
        let end = start + pages;
        let mut vpn = start;
        while vpn < end {
            match space.page_table().translate(vpn) {
                Some(t) => vpn = end.min(t.head_vpn + geo.base_pages(t.size)),
                None => {
                    self.on_fault(ctx, space, vpn)?;
                }
            }
        }
        Ok(())
    }

    /// Runs one background-daemon tick over all address spaces.
    fn on_tick(&mut self, _ctx: &mut MmContext, _spaces: &mut SpaceSet) -> TickOutcome {
        TickOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use std::error::Error;

    use trident_phys::AllocError;

    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = PolicyError::OutOfContiguousMemory(AllocError { order: 0 });
        assert!(e.to_string().contains("no contiguous free chunk"));
        assert!(e.source().is_some());
        let b = PolicyError::BadAddress(Vpn::new(66));
        assert!(b.to_string().contains("0x42"));
        assert!(b.source().is_none());
    }

    #[test]
    fn tick_outcomes_absorb() {
        let mut a = TickOutcome {
            daemon_ns: 10,
            promotions: 1,
            compaction_runs: 0,
        };
        a.absorb(TickOutcome {
            daemon_ns: 5,
            promotions: 2,
            compaction_runs: 3,
        });
        assert_eq!(
            a,
            TickOutcome {
                daemon_ns: 15,
                promotions: 3,
                compaction_runs: 3
            }
        );
    }
}
