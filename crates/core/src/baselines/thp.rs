//! Linux's Transparent Huge Pages (the paper's primary baseline).

use trident_obs::Event;
use trident_types::{PageSize, Vpn};
use trident_vm::AddressSpace;

use crate::fault::{fault_huge_or_base, populate_runs};
use crate::{
    FaultOutcome, MmContext, PagePolicy, PolicyError, Promoter, PromoterConfig, SpaceSet,
    TickOutcome,
};

/// Linux THP: aggressive 2MB allocation at fault time when the chunk is
/// huge-mappable and contiguity exists, plus `khugepaged` promotion of
/// 4KB-mapped ranges with normal compaction (§2).
///
/// # Examples
///
/// ```
/// use trident_core::{MmContext, PagePolicy, ThpPolicy};
/// use trident_phys::PhysicalMemory;
/// use trident_types::{AsId, PageGeometry, PageSize, Vpn};
/// use trident_vm::{AddressSpace, VmaKind};
///
/// let geo = PageGeometry::TINY;
/// let mut ctx = MmContext::new(PhysicalMemory::new(geo, 4 * geo.base_pages(PageSize::new(2))));
/// let mut space = AddressSpace::new(AsId::new(1), geo);
/// space.mmap_at(Vpn::new(0), 64, VmaKind::Anon)?;
/// let outcome = ThpPolicy::new().on_fault(&mut ctx, &mut space, Vpn::new(9))?;
/// assert_eq!(outcome.size, PageSize::new(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ThpPolicy {
    promoter: Promoter,
}

impl ThpPolicy {
    /// Creates the policy with THP's default `khugepaged` configuration.
    #[must_use]
    pub fn new() -> ThpPolicy {
        ThpPolicy {
            promoter: Promoter::new(PromoterConfig::thp()),
        }
    }
}

impl Default for ThpPolicy {
    fn default() -> Self {
        ThpPolicy::new()
    }
}

impl PagePolicy for ThpPolicy {
    fn name(&self) -> String {
        "2MB-THP".to_owned()
    }

    fn on_fault(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        vpn: Vpn,
    ) -> Result<FaultOutcome, PolicyError> {
        fault_huge_or_base(ctx, space, vpn)
    }

    /// A huge chunk's first fault decides its size. When that lands at
    /// 4KB, the rest of the chunk is mapped as one 4KB run; when it lands
    /// huge, the wholly unmapped huge chunks after it, up to the next
    /// boundary of the rung above, are mapped as one run of huge pages.
    fn populate(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        start: Vpn,
        pages: u64,
    ) -> Result<(), PolicyError> {
        populate_runs(self, ctx, space, start, pages, Some(PageSize::new(1)))
    }

    fn on_tick(&mut self, ctx: &mut MmContext, spaces: &mut SpaceSet) -> TickOutcome {
        let (out, _) = self.promoter.tick(ctx, spaces);
        ctx.record(Event::DaemonTick { ns: out.daemon_ns });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_phys::PhysicalMemory;
    use trident_types::{AsId, PageGeometry};
    use trident_vm::VmaKind;

    fn setup() -> (MmContext, SpaceSet) {
        let geo = PageGeometry::TINY;
        let ctx = MmContext::new(PhysicalMemory::new(
            geo,
            8 * geo.base_pages(PageSize::new(2)),
        ));
        let mut spaces = SpaceSet::new();
        spaces.insert(AddressSpace::new(AsId::new(1), geo));
        (ctx, spaces)
    }

    #[test]
    fn unaligned_tail_faults_with_base_pages() {
        let (mut ctx, mut spaces) = setup();
        let space = spaces.get_mut(AsId::new(1)).unwrap();
        // 4-page VMA at page 3: no aligned huge chunk fits inside.
        space.mmap_at(Vpn::new(3), 4, VmaKind::Anon).unwrap();
        let out = ThpPolicy::new()
            .on_fault(&mut ctx, space, Vpn::new(4))
            .unwrap();
        assert_eq!(out.size, PageSize::BASE);
    }

    #[test]
    fn khugepaged_promotes_base_mapped_ranges() {
        let (mut ctx, mut spaces) = setup();
        let mut policy = ThpPolicy::new();
        {
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            space.mmap_at(Vpn::new(4), 8, VmaKind::Anon).unwrap();
            // Faults land as 4KB since the VMA has no full huge chunk...
            // extend it afterwards so the chunk becomes mappable.
            for i in 4..12 {
                policy.on_fault(&mut ctx, space, Vpn::new(i)).unwrap();
            }
            space.mmap_at(Vpn::new(12), 8, VmaKind::Anon).unwrap();
        }
        let out = policy.on_tick(&mut ctx, &mut spaces);
        assert!(out.promotions >= 1);
        let space = spaces.get(AsId::new(1)).unwrap();
        assert!(space.page_table().mapped_pages(PageSize::new(1)) >= 1);
        assert_eq!(space.page_table().mapped_pages(PageSize::new(2)), 0);
    }

    #[test]
    fn thp_never_maps_giant_pages() {
        let (mut ctx, mut spaces) = setup();
        let mut policy = ThpPolicy::new();
        {
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            space.mmap_at(Vpn::new(0), 128, VmaKind::Anon).unwrap();
            for i in 0..128 {
                if space.page_table().translate(Vpn::new(i)).is_none() {
                    policy.on_fault(&mut ctx, space, Vpn::new(i)).unwrap();
                }
            }
        }
        for _ in 0..4 {
            policy.on_tick(&mut ctx, &mut spaces);
        }
        let space = spaces.get(AsId::new(1)).unwrap();
        assert_eq!(space.page_table().mapped_pages(PageSize::new(2)), 0);
        assert_eq!(space.page_table().mapped_pages(PageSize::new(1)), 16);
    }
}
