//! Static large-page pre-reservation (`libHugetlbfs`).

use trident_obs::NoopRecorder;
use trident_phys::{FrameUse, MappingOwner, PhysMemError};
use trident_types::{PageSize, Pfn, Vpn};
use trident_vm::{AddressSpace, VmaKind};

use crate::fault::fault_base;
use crate::{touched_chunk_reserved, FaultOutcome, MmContext, PagePolicy, PolicyError};

/// The `libHugetlbfs` baseline: a fixed number of large pages of one size
/// is reserved up front; eligible segments are backed from the reservation,
/// everything else gets 4KB pages.
///
/// Its two structural weaknesses, both demonstrated in the paper, emerge
/// naturally here: reservation fails when physical memory is fragmented
/// (§7, "Comparison with static allocation"), and stacks can never be
/// backed by the reservation (§4.1, why THP beats it for Redis).
#[derive(Debug, Clone)]
pub struct HugetlbfsPolicy {
    size: PageSize,
    /// Architecture label of `size` (e.g. "2MB"), captured at reservation
    /// time for the policy's report name.
    label: String,
    pool: Vec<Pfn>,
    reserved: usize,
}

impl HugetlbfsPolicy {
    /// Reserves `count` pages of `size` from physical memory.
    ///
    /// # Errors
    ///
    /// Returns the underlying allocation error if the reservation cannot
    /// be satisfied — the paper's observation that 1GB-Hugetlbfs simply
    /// fails on fragmented memory. Partially reserved frames are released.
    pub fn reserve(
        ctx: &mut MmContext,
        size: PageSize,
        count: usize,
    ) -> Result<HugetlbfsPolicy, PhysMemError> {
        let mut pool = Vec::with_capacity(count);
        for _ in 0..count {
            match ctx
                .mem
                .allocate(size, FrameUse::User, None, &mut NoopRecorder)
            {
                Ok(pfn) => pool.push(pfn),
                Err(e) => {
                    for pfn in pool {
                        ctx.mem
                            .free(pfn, &mut NoopRecorder)
                            .expect("reserved frame is live");
                    }
                    return Err(e);
                }
            }
        }
        Ok(HugetlbfsPolicy {
            size,
            label: ctx.geometry().label(size),
            pool,
            reserved: count,
        })
    }

    /// Pages of the reserved size still available.
    #[must_use]
    pub fn available(&self) -> usize {
        self.pool.len()
    }

    /// Pages originally reserved.
    #[must_use]
    pub fn reserved(&self) -> usize {
        self.reserved
    }
}

impl PagePolicy for HugetlbfsPolicy {
    fn name(&self) -> String {
        format!("{}-Hugetlbfs", self.label)
    }

    fn on_fault(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        vpn: Vpn,
    ) -> Result<FaultOutcome, PolicyError> {
        // Outside every VMA nothing is eligible, and `fault_base` reports
        // the bad address.
        let eligible = space
            .vma_containing(vpn)
            .is_some_and(|vma| vma.kind != VmaKind::Stack);
        if eligible && !self.pool.is_empty() {
            if let Some(head) = touched_chunk_reserved(space, vpn, self.size) {
                let pfn = self.pool.pop().expect("checked non-empty");
                ctx.mem.set_owner(
                    pfn,
                    Some(MappingOwner {
                        asid: space.id(),
                        vpn: head,
                    }),
                );
                space
                    .page_table_mut()
                    .map(head, pfn, self.size)
                    .expect("chunk verified unmapped; reserved frame aligned");
                // Reserved pages were zeroed at boot: fault is cheap.
                let latency = ctx.cost.fault_base_ns;
                ctx.record_fault(self.size, latency);
                return Ok(FaultOutcome {
                    size: self.size,
                    latency_ns: latency,
                    prepared: true,
                });
            }
        }
        fault_base(ctx, space, vpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_phys::PhysicalMemory;
    use trident_types::{AsId, PageGeometry};

    fn setup() -> (MmContext, AddressSpace) {
        let geo = PageGeometry::TINY;
        let ctx = MmContext::new(PhysicalMemory::new(
            geo,
            8 * geo.base_pages(PageSize::new(2)),
        ));
        (ctx, AddressSpace::new(AsId::new(1), geo))
    }

    #[test]
    fn reserved_pages_back_eligible_chunks() {
        let (mut ctx, mut space) = setup();
        let mut policy = HugetlbfsPolicy::reserve(&mut ctx, PageSize::new(2), 2).unwrap();
        space.mmap_at(Vpn::new(0), 128, VmaKind::Anon).unwrap();
        let out = policy.on_fault(&mut ctx, &mut space, Vpn::new(70)).unwrap();
        assert_eq!(out.size, PageSize::new(2));
        assert!(out.prepared);
        assert_eq!(policy.available(), 1);
    }

    #[test]
    fn stacks_are_never_backed_by_the_reservation() {
        let (mut ctx, mut space) = setup();
        let mut policy = HugetlbfsPolicy::reserve(&mut ctx, PageSize::new(2), 2).unwrap();
        space.mmap_at(Vpn::new(0), 64, VmaKind::Stack).unwrap();
        let out = policy.on_fault(&mut ctx, &mut space, Vpn::new(5)).unwrap();
        assert_eq!(out.size, PageSize::BASE);
        assert_eq!(policy.available(), 2);
    }

    #[test]
    fn exhausted_pool_falls_back_to_base_pages() {
        let (mut ctx, mut space) = setup();
        let mut policy = HugetlbfsPolicy::reserve(&mut ctx, PageSize::new(2), 1).unwrap();
        space.mmap_at(Vpn::new(0), 128, VmaKind::Anon).unwrap();
        policy.on_fault(&mut ctx, &mut space, Vpn::new(0)).unwrap();
        let out = policy.on_fault(&mut ctx, &mut space, Vpn::new(64)).unwrap();
        assert_eq!(out.size, PageSize::BASE);
    }

    #[test]
    fn reservation_fails_on_fragmented_memory_and_rolls_back() {
        let (mut ctx, _) = setup();
        // Break every giant chunk with one pinned page per region.
        for r in 0..8 {
            ctx.mem
                .allocate_in_region(r, 0, FrameUse::Kernel, None, &mut NoopRecorder)
                .unwrap();
        }
        let free_before = ctx.mem.free_pages();
        let result = HugetlbfsPolicy::reserve(&mut ctx, PageSize::new(2), 1);
        assert!(result.is_err());
        assert_eq!(ctx.mem.free_pages(), free_before);
    }

    #[test]
    fn name_includes_the_size() {
        let (mut ctx, _) = setup();
        let policy = HugetlbfsPolicy::reserve(&mut ctx, PageSize::new(1), 1).unwrap();
        assert_eq!(policy.name(), "32KB-Hugetlbfs");
        assert_eq!(policy.reserved(), 1);
    }
}
