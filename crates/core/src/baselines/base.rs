//! The 4KB-only baseline.

use trident_types::Vpn;
use trident_vm::AddressSpace;

use crate::fault::{fault_base, populate_runs};
use crate::{FaultOutcome, MmContext, PagePolicy, PolicyError};

/// Maps everything with base (4KB) pages — the first bar of Figures 1
/// and 2.
///
/// # Examples
///
/// ```
/// use trident_core::{BasePolicy, MmContext, PagePolicy};
/// use trident_phys::PhysicalMemory;
/// use trident_types::{AsId, PageGeometry, PageSize, Vpn};
/// use trident_vm::{AddressSpace, VmaKind};
///
/// let geo = PageGeometry::TINY;
/// let mut ctx = MmContext::new(PhysicalMemory::new(geo, 4 * geo.base_pages(PageSize::new(2))));
/// let mut space = AddressSpace::new(AsId::new(1), geo);
/// space.mmap_at(Vpn::new(0), 64, VmaKind::Anon)?;
/// let outcome = BasePolicy::new().on_fault(&mut ctx, &mut space, Vpn::new(5))?;
/// assert_eq!(outcome.size, PageSize::BASE);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BasePolicy;

impl BasePolicy {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> BasePolicy {
        BasePolicy
    }
}

impl PagePolicy for BasePolicy {
    fn name(&self) -> String {
        "4KB".to_owned()
    }

    fn on_fault(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        vpn: Vpn,
    ) -> Result<FaultOutcome, PolicyError> {
        fault_base(ctx, space, vpn)
    }

    /// Every unmapped page is a 4KB fault, so each leaf table's share of
    /// the run is mapped in one batch.
    fn populate(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        start: Vpn,
        pages: u64,
    ) -> Result<(), PolicyError> {
        populate_runs(self, ctx, space, start, pages, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_phys::PhysicalMemory;
    use trident_types::{AsId, PageGeometry, PageSize};
    use trident_vm::VmaKind;

    #[test]
    fn faults_outside_vmas_are_bad_addresses() {
        let geo = PageGeometry::TINY;
        let mut ctx = MmContext::new(PhysicalMemory::new(geo, 64));
        let mut space = AddressSpace::new(AsId::new(1), geo);
        assert_eq!(
            BasePolicy::new().on_fault(&mut ctx, &mut space, Vpn::new(0)),
            Err(PolicyError::BadAddress(Vpn::new(0)))
        );
    }

    #[test]
    fn exhausted_memory_reports_oom() {
        let geo = PageGeometry::TINY;
        let mut ctx = MmContext::new(PhysicalMemory::new(geo, 64));
        let mut space = AddressSpace::new(AsId::new(1), geo);
        space.mmap_at(Vpn::new(0), 128, VmaKind::Anon).unwrap();
        let mut policy = BasePolicy::new();
        for i in 0..64 {
            policy.on_fault(&mut ctx, &mut space, Vpn::new(i)).unwrap();
        }
        assert!(matches!(
            policy.on_fault(&mut ctx, &mut space, Vpn::new(64)),
            Err(PolicyError::OutOfContiguousMemory(_))
        ));
        assert_eq!(ctx.snapshot().faults[PageSize::BASE.rung()], 64);
    }
}
