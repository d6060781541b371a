//! The physical-memory façade: buddy + frame table + region statistics.

use trident_obs::Recorder;
use trident_types::{InvariantViolation, PageGeometry, PageSize, Pfn};

use crate::{
    AllocationUnit, BuddyAllocator, FrameTable, FrameUse, MappingOwner, PhysMemError, RegionId,
    RegionStats,
};

/// The simulated machine's physical memory.
///
/// All allocation and freeing must go through this type so that the buddy
/// lists, the per-frame metadata and the per-region counters stay mutually
/// consistent — mirroring how the paper hooks Linux's buddy allocator to
/// maintain its new region counters on every allocation and free.
///
/// # Examples
///
/// ```
/// use trident_obs::NoopRecorder;
/// use trident_phys::{FrameUse, PhysicalMemory};
/// use trident_types::{PageGeometry, PageSize};
///
/// let geo = PageGeometry::TINY;
/// let mut mem = PhysicalMemory::new(geo, 2 * geo.base_pages(geo.largest()));
/// let huge = PageSize::new(1);
/// let head = mem.allocate(huge, FrameUse::User, None, &mut NoopRecorder)?;
/// assert_eq!(mem.free_pages(), mem.total_pages() - geo.base_pages(huge));
/// mem.free(head, &mut NoopRecorder)?;
/// # Ok::<(), trident_phys::PhysMemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    geo: PageGeometry,
    buddy: BuddyAllocator,
    frames: FrameTable,
    regions: RegionStats,
}

impl PhysicalMemory {
    /// Creates a physical memory of `total_pages` base pages, all free.
    ///
    /// # Panics
    ///
    /// Panics if `total_pages == 0`.
    #[must_use]
    pub fn new(geo: PageGeometry, total_pages: u64) -> PhysicalMemory {
        PhysicalMemory {
            geo,
            buddy: BuddyAllocator::new(total_pages, geo.max_order()),
            frames: FrameTable::new(total_pages),
            regions: RegionStats::new(geo, total_pages),
        }
    }

    /// The configured geometry.
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        self.geo
    }

    /// Total base pages.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.buddy.total_pages()
    }

    /// Free base pages.
    #[must_use]
    pub fn free_pages(&self) -> u64 {
        self.buddy.free_pages()
    }

    /// Free fraction of memory, in `[0, 1]`.
    #[must_use]
    pub fn free_fraction(&self) -> f64 {
        self.free_pages() as f64 / self.total_pages() as f64
    }

    /// Whether a free chunk for a page of `size` is immediately available.
    #[must_use]
    pub fn has_free(&self, size: PageSize) -> bool {
        let order = self.geo.order(size);
        (order..=self.buddy.max_order()).any(|o| self.buddy.free_blocks(o) > 0)
    }

    /// The Free Memory Fragmentation Index for allocations of `size`.
    /// See [`BuddyAllocator::fmfi`].
    #[must_use]
    pub fn fmfi(&self, size: PageSize) -> f64 {
        self.buddy.fmfi(self.geo.order(size))
    }

    /// Allocates one page of `size`, returning its head frame, and reports
    /// buddy split events to `rec`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysMemError::OutOfContiguousMemory`] when no contiguous
    /// chunk of that size exists — the condition that makes Trident fall
    /// back to a smaller page size or invoke compaction.
    pub fn allocate(
        &mut self,
        size: PageSize,
        use_: FrameUse,
        owner: Option<MappingOwner>,
        rec: &mut impl Recorder,
    ) -> Result<Pfn, PhysMemError> {
        self.allocate_order(self.geo.order(size), use_, owner, rec)
    }

    /// Allocates `n` blocks of `2^order` frames backing consecutive
    /// virtual chunks, and leaves exactly the state that `n` calls of
    /// [`allocate_order`](Self::allocate_order)`(order, ..)` leave: the
    /// same blocks in the same order, and the same buddy lists, frame
    /// table and region counters. Block `i` is owned by `owner` advanced
    /// by `i` blocks. The blocks' head frames are appended to `frames`.
    ///
    /// Nothing is recorded. With `splits`, each block's split is appended
    /// to it instead: the order of the free block that the single
    /// allocation of that block would split and report, or `order` when
    /// it would split none ([`BuddyAllocator::alloc_run`]).
    ///
    /// # Errors
    ///
    /// Returns [`PhysMemError::OutOfContiguousMemory`], changing nothing,
    /// when fewer than `n` blocks of `order` are free.
    pub fn allocate_run(
        &mut self,
        order: u8,
        n: u64,
        use_: FrameUse,
        owner: Option<MappingOwner>,
        frames: &mut Vec<Pfn>,
        mut splits: Option<&mut Vec<u8>>,
    ) -> Result<(), PhysMemError> {
        let mut next_owner = owner;
        self.buddy.alloc_run(order, n, |start, len, found| {
            self.frames
                .mark_units(Pfn::new(start), len, order, use_, next_owner);
            frames.extend((start..start + len).step_by(1 << order).map(Pfn::new));
            if let Some(splits) = splits.as_deref_mut() {
                splits.push(found);
                splits.extend((1..len >> order).map(|j| order + j.trailing_zeros() as u8));
            }
            if let Some(o) = &mut next_owner {
                o.vpn += len;
            }
            self.regions.on_alloc(start, len, !use_.is_movable());
        })?;
        Ok(())
    }

    /// Allocates a raw buddy block of `2^order` frames (used by the
    /// fragmenter, which churns sub-huge-page chunks like the page cache
    /// does), and reports buddy split events to `rec`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysMemError::OutOfContiguousMemory`] when no block of
    /// `order` exists.
    pub fn allocate_order(
        &mut self,
        order: u8,
        use_: FrameUse,
        owner: Option<MappingOwner>,
        rec: &mut impl Recorder,
    ) -> Result<Pfn, PhysMemError> {
        let start = self.buddy.alloc(order, rec)?;
        self.finish_alloc(start, order, use_, owner);
        Ok(Pfn::new(start))
    }

    /// Allocates a block of `2^order` frames entirely inside `region` —
    /// how smart compaction steers migrated data into its chosen target
    /// region — and reports buddy split events to `rec`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysMemError::OutOfContiguousMemory`] when the region has
    /// no suitably-sized free block.
    pub fn allocate_in_region(
        &mut self,
        region: RegionId,
        order: u8,
        use_: FrameUse,
        owner: Option<MappingOwner>,
        rec: &mut impl Recorder,
    ) -> Result<Pfn, PhysMemError> {
        let range = self.regions.region_range(region);
        let end = range.end.min(self.total_pages());
        let start = self.buddy.alloc_in_range(order, range.start..end, rec)?;
        self.finish_alloc(start, order, use_, owner);
        Ok(Pfn::new(start))
    }

    fn finish_alloc(&mut self, start: u64, order: u8, use_: FrameUse, owner: Option<MappingOwner>) {
        self.frames
            .mark_allocated(Pfn::new(start), order, use_, owner);
        self.regions.on_alloc(start, 1 << order, !use_.is_movable());
    }

    /// Frees the allocation unit headed at `head`, returning its
    /// description, and reports buddy coalesce events to `rec`.
    ///
    /// # Errors
    ///
    /// Returns [`PhysMemError::NotAUnitHead`] if `head` does not identify a
    /// live allocation unit, or [`PhysMemError::FrameOutOfBounds`] if it is
    /// outside memory.
    pub fn free(
        &mut self,
        head: Pfn,
        rec: &mut impl Recorder,
    ) -> Result<AllocationUnit, PhysMemError> {
        if head.raw() >= self.total_pages() {
            return Err(PhysMemError::FrameOutOfBounds { pfn: head.raw() });
        }
        let unit = self
            .frames
            .unit_at(head)
            .ok_or(PhysMemError::NotAUnitHead { pfn: head.raw() })?;
        self.frames.mark_freed(head);
        self.regions
            .on_free(head.raw(), unit.pages(), !unit.use_.is_movable());
        self.buddy.free(head.raw(), unit.order, rec);
        Ok(unit)
    }

    /// The allocation unit headed at `head`, if any.
    #[must_use]
    pub fn unit_at(&self, head: Pfn) -> Option<AllocationUnit> {
        self.frames.unit_at(head)
    }

    /// Whether `pfn` is the head of a live allocation unit.
    #[must_use]
    pub fn is_unit_head(&self, pfn: Pfn) -> bool {
        self.frames.is_unit_head(pfn)
    }

    /// Updates the reverse-map owner of the unit headed at `head`.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not a unit head.
    pub fn set_owner(&mut self, head: Pfn, owner: Option<MappingOwner>) {
        self.frames.set_owner(head, owner);
    }

    /// Enumerates live allocation units whose head lies in `region`.
    #[must_use]
    pub fn units_in_region(&self, region: RegionId) -> Vec<AllocationUnit> {
        let range = self.regions.region_range(region);
        let end = range.end.min(self.total_pages());
        self.frames.units_in(Pfn::new(range.start), Pfn::new(end))
    }

    /// Read access to the per-region counters.
    #[must_use]
    pub fn regions(&self) -> &RegionStats {
        &self.regions
    }

    /// Read access to the buddy allocator (free-list statistics).
    #[must_use]
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// Read access to the frame table.
    #[must_use]
    pub fn frames(&self) -> &FrameTable {
        &self.frames
    }

    /// Non-panicking consistency audit: the buddy allocator's own
    /// invariants plus agreement between buddy and region free counts.
    ///
    /// # Errors
    ///
    /// The collected [`InvariantViolation`]s, if any invariant is broken.
    pub fn check_consistent(&self) -> Result<(), Vec<InvariantViolation>> {
        let mut violations = match self.buddy.check_consistent() {
            Ok(()) => Vec::new(),
            Err(v) => v,
        };
        if self.buddy.free_pages() != self.regions.total_free() {
            violations.push(InvariantViolation::FreeCountMismatch {
                buddy_free: self.buddy.free_pages(),
                region_free: self.regions.total_free(),
            });
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Internal consistency check for tests; thin panicking wrapper over
    /// [`check_consistent`](PhysicalMemory::check_consistent).
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_consistent(&self) {
        if let Err(violations) = self.check_consistent() {
            panic!("{}", trident_types::violations_message(&violations));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_obs::NoopRecorder;
    use trident_types::{AsId, Vpn};

    fn mem() -> PhysicalMemory {
        PhysicalMemory::new(PageGeometry::TINY, 4 * 64)
    }

    #[test]
    fn allocate_updates_all_three_structures() {
        let mut m = mem();
        let owner = MappingOwner {
            asid: AsId::new(1),
            vpn: Vpn::new(0),
        };
        let head = m
            .allocate(
                PageSize::new(1),
                FrameUse::User,
                Some(owner),
                &mut NoopRecorder,
            )
            .unwrap();
        assert_eq!(m.free_pages(), 4 * 64 - 8);
        assert_eq!(m.unit_at(head).unwrap().owner, Some(owner));
        assert_eq!(m.regions().counters(0).free_pages, 64 - 8);
        m.assert_consistent();
    }

    #[test]
    fn free_restores_everything() {
        let mut m = mem();
        let head = m
            .allocate(PageSize::new(2), FrameUse::User, None, &mut NoopRecorder)
            .unwrap();
        let unit = m.free(head, &mut NoopRecorder).unwrap();
        assert_eq!(unit.pages(), 64);
        assert_eq!(m.free_pages(), 4 * 64);
        assert_eq!(m.regions().counters(0).free_pages, 64);
        m.assert_consistent();
    }

    #[test]
    fn double_free_is_an_error() {
        let mut m = mem();
        let head = m
            .allocate(PageSize::BASE, FrameUse::User, None, &mut NoopRecorder)
            .unwrap();
        m.free(head, &mut NoopRecorder).unwrap();
        assert_eq!(
            m.free(head, &mut NoopRecorder),
            Err(PhysMemError::NotAUnitHead { pfn: head.raw() })
        );
    }

    #[test]
    fn free_out_of_bounds_is_an_error() {
        let mut m = mem();
        assert_eq!(
            m.free(Pfn::new(10_000), &mut NoopRecorder),
            Err(PhysMemError::FrameOutOfBounds { pfn: 10_000 })
        );
    }

    #[test]
    fn exhaustion_reports_out_of_contiguous_memory() {
        let mut m = PhysicalMemory::new(PageGeometry::TINY, 64);
        m.allocate(PageSize::new(2), FrameUse::User, None, &mut NoopRecorder)
            .unwrap();
        let err = m
            .allocate(PageSize::BASE, FrameUse::User, None, &mut NoopRecorder)
            .unwrap_err();
        assert!(matches!(err, PhysMemError::OutOfContiguousMemory(_)));
    }

    #[test]
    fn allocate_in_region_lands_in_region() {
        let mut m = mem();
        let head = m
            .allocate_in_region(2, 3, FrameUse::User, None, &mut NoopRecorder)
            .unwrap();
        assert_eq!(m.geometry().giant_region_of(head.raw()), 2);
        assert_eq!(m.regions().counters(2).free_pages, 64 - 8);
    }

    #[test]
    fn kernel_allocations_poison_region_counters() {
        let mut m = mem();
        m.allocate(PageSize::BASE, FrameUse::Kernel, None, &mut NoopRecorder)
            .unwrap();
        assert_eq!(m.regions().counters(0).unmovable_pages, 1);
        assert!(m.regions().source_candidates().is_empty());
    }

    #[test]
    fn units_in_region_sees_only_that_region() {
        let mut m = mem();
        let a = m
            .allocate_in_region(0, 0, FrameUse::User, None, &mut NoopRecorder)
            .unwrap();
        let b = m
            .allocate_in_region(1, 0, FrameUse::User, None, &mut NoopRecorder)
            .unwrap();
        let units0 = m.units_in_region(0);
        assert_eq!(units0.len(), 1);
        assert_eq!(units0[0].head, a);
        assert_eq!(m.units_in_region(1)[0].head, b);
        assert!(m.units_in_region(3).is_empty());
    }

    #[test]
    fn fmfi_surface_matches_buddy() {
        let mut m = mem();
        assert_eq!(m.fmfi(PageSize::new(2)), 0.0);
        // Take all giant blocks; giant FMFI becomes 1.
        for _ in 0..4 {
            m.allocate(PageSize::new(2), FrameUse::User, None, &mut NoopRecorder)
                .unwrap();
        }
        assert_eq!(m.fmfi(PageSize::new(2)), 1.0);
    }
}
