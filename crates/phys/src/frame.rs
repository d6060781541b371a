//! Per-frame metadata and the reverse mapping.
//!
//! Compaction must know, for every physical frame, whether it is used,
//! whether its contents can be moved, where its allocation unit begins, and
//! which virtual page maps it (so the page tables can be updated after
//! migration). The [`FrameTable`] stores a compact two-byte record per
//! frame; the frame's *use* is packed into the record's flag bits, the set
//! of unit heads is a packed bitmap (so ranged unit enumeration skips free
//! space a word at a time), and reverse-map owners live in per-region
//! slabs of eight-byte slots allocated lazily — no hash maps on the
//! allocation hot path. A slot holds an asid up to 65,535 and a vpn below
//! 2^48; every id the program makes fits (system and hypervisor builders
//! refuse more address spaces).

use trident_types::{AsId, DenseBitSet, Pfn, Vpn};

/// What a physical frame is used for. Determines movability: kernel frames
/// are unmovable and poison their 1GB region for compaction (§5.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameUse {
    /// Anonymous user memory; movable via migration.
    User,
    /// Page-cache contents; movable (and reclaimable). The fragmentation
    /// methodology of §3 churns these.
    PageCache,
    /// Kernel objects (inodes, DMA buffers, page tables); unmovable.
    Kernel,
}

impl FrameUse {
    /// Whether frames of this use can be migrated by compaction.
    #[must_use]
    pub fn is_movable(self) -> bool {
        !matches!(self, FrameUse::Kernel)
    }

    /// The flag bits every frame of a unit of this use carries.
    fn unit_flags(self) -> u8 {
        let flags = FLAG_USED | (self.code() << USE_SHIFT);
        if self.is_movable() {
            flags
        } else {
            flags | FLAG_UNMOVABLE
        }
    }

    fn code(self) -> u8 {
        match self {
            FrameUse::User => 0,
            FrameUse::PageCache => 1,
            FrameUse::Kernel => 2,
        }
    }

    fn from_code(code: u8) -> FrameUse {
        match code {
            0 => FrameUse::User,
            1 => FrameUse::PageCache,
            _ => FrameUse::Kernel,
        }
    }
}

/// The virtual mapping that owns an allocation unit — the reverse map entry
/// compaction follows to fix up page tables after moving data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MappingOwner {
    /// Address space of the owning process.
    pub asid: AsId,
    /// First virtual page of the mapping.
    pub vpn: Vpn,
}

/// A contiguous allocation unit as recorded in the frame table: one buddy
/// block handed out by a single allocation call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationUnit {
    /// First frame of the unit.
    pub head: Pfn,
    /// Buddy order (`2^order` base pages).
    pub order: u8,
    /// What the unit is used for.
    pub use_: FrameUse,
    /// Reverse-map entry, if the caller registered one.
    pub owner: Option<MappingOwner>,
}

impl AllocationUnit {
    /// Number of base pages in the unit.
    #[must_use]
    pub fn pages(&self) -> u64 {
        1 << self.order
    }
}

const FLAG_USED: u8 = 1 << 0;
const FLAG_UNMOVABLE: u8 = 1 << 1;
const FLAG_HEAD: u8 = 1 << 2;
/// Set on a head frame whose owner slab slot holds a live reverse-map
/// entry; cleared slots make stale slab contents unreachable.
const FLAG_HAS_OWNER: u8 = 1 << 3;
const USE_SHIFT: u8 = 4;
const USE_MASK: u8 = 0b11 << USE_SHIFT;

/// Frames per owner-slab region. Slabs materialize only for regions that
/// actually register owners, so page-cache/kernel churn costs nothing.
const OWNER_REGION: usize = 1024;

/// Compact per-frame record: flag bits (including the packed use code)
/// plus the unit order (valid on heads).
#[derive(Debug, Clone, Copy, Default)]
struct FrameInfo {
    flags: u8,
    order: u8,
}

impl FrameInfo {
    fn is_used(self) -> bool {
        self.flags & FLAG_USED != 0
    }
    fn is_head(self) -> bool {
        self.flags & FLAG_HEAD != 0
    }
    fn is_unmovable(self) -> bool {
        self.flags & FLAG_UNMOVABLE != 0
    }
    fn has_owner(self) -> bool {
        self.flags & FLAG_HAS_OWNER != 0
    }
    fn use_(self) -> FrameUse {
        FrameUse::from_code((self.flags & USE_MASK) >> USE_SHIFT)
    }
}

/// One reverse-map slab slot, packed into eight bytes: the owner's asid in
/// the top 16 bits and its vpn in the low 48. Valid only when the head
/// frame carries `FLAG_HAS_OWNER`.
#[derive(Debug, Clone, Copy, Default)]
struct OwnerSlot(u64);

/// Bits of an [`OwnerSlot`] that hold the vpn.
const OWNER_VPN_BITS: u32 = 48;

impl OwnerSlot {
    /// Packs `owner`.
    ///
    /// # Panics
    ///
    /// Panics if the asid is past 65,535 or the vpn is 2^48 or more.
    fn new(owner: MappingOwner) -> OwnerSlot {
        let (asid, vpn) = (owner.asid.raw(), owner.vpn.raw());
        assert!(
            asid <= u32::from(u16::MAX) && vpn >> OWNER_VPN_BITS == 0,
            "owner {}/{vpn:#x} does not fit a reverse-map slot",
            owner.asid
        );
        OwnerSlot(u64::from(asid) << OWNER_VPN_BITS | vpn)
    }

    fn owner(self) -> MappingOwner {
        MappingOwner {
            asid: AsId::new((self.0 >> OWNER_VPN_BITS) as u32),
            vpn: Vpn::new(self.0 & ((1 << OWNER_VPN_BITS) - 1)),
        }
    }
}

/// Metadata for every physical frame, with unit-granularity bookkeeping.
///
/// # Examples
///
/// ```
/// use trident_phys::{FrameTable, FrameUse};
/// use trident_types::Pfn;
///
/// let mut table = FrameTable::new(64);
/// table.mark_allocated(Pfn::new(8), 3, FrameUse::User, None);
/// assert!(table.is_unit_head(Pfn::new(8)));
/// assert!(table.is_used(Pfn::new(15)));
/// assert!(!table.is_used(Pfn::new(16)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrameTable {
    frames: Vec<FrameInfo>,
    /// Unit heads as a packed bitmap — ranged enumeration skips free and
    /// tail frames a word at a time.
    heads: DenseBitSet,
    /// Lazily-allocated per-region reverse-map slabs, indexed by
    /// `pfn / OWNER_REGION` then `pfn % OWNER_REGION`.
    owners: Vec<Option<Box<[OwnerSlot]>>>,
}

impl FrameTable {
    /// Creates a table for `total_pages` frames, all free.
    #[must_use]
    pub fn new(total_pages: u64) -> FrameTable {
        let total = usize::try_from(total_pages).expect("fits usize");
        FrameTable {
            frames: vec![FrameInfo::default(); total],
            heads: DenseBitSet::with_capacity(total_pages),
            owners: vec![None; total.div_ceil(OWNER_REGION)],
        }
    }

    /// Number of frames tracked.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.frames.len() as u64
    }

    fn idx(&self, pfn: Pfn) -> usize {
        usize::try_from(pfn.raw()).expect("fits usize")
    }

    fn owner_slot(&self, idx: usize) -> Option<&OwnerSlot> {
        self.owners[idx / OWNER_REGION]
            .as_ref()
            .map(|slab| &slab[idx % OWNER_REGION])
    }

    fn owner_slot_mut(&mut self, idx: usize) -> &mut OwnerSlot {
        let slab = self.owners[idx / OWNER_REGION]
            .get_or_insert_with(|| vec![OwnerSlot::default(); OWNER_REGION].into_boxed_slice());
        &mut slab[idx % OWNER_REGION]
    }

    /// Records a freshly-allocated unit of `2^order` frames starting at
    /// `head`.
    ///
    /// # Panics
    ///
    /// Panics if any frame in the unit is already used or out of bounds,
    /// or if `owner` does not fit a reverse-map slot (asid past 65,535 or
    /// vpn of 2^48 or more).
    pub fn mark_allocated(
        &mut self,
        head: Pfn,
        order: u8,
        use_: FrameUse,
        owner: Option<MappingOwner>,
    ) {
        let start = self.idx(head);
        let len = 1usize << order;
        assert!(start + len <= self.frames.len(), "unit out of bounds");
        let slot = owner.map(OwnerSlot::new);
        let flags = use_.unit_flags();
        for (i, frame) in self.frames[start..start + len].iter_mut().enumerate() {
            assert!(!frame.is_used(), "frame {} double-allocated", start + i);
            frame.flags = flags;
            frame.order = order;
        }
        self.frames[start].flags |= FLAG_HEAD;
        self.heads.insert(head.raw());
        if let Some(slot) = slot {
            self.frames[start].flags |= FLAG_HAS_OWNER;
            *self.owner_slot_mut(start) = slot;
        }
    }

    /// Records `pages / 2^order` freshly-allocated units of `2^order`
    /// frames each, back to back from `start`, in one pass: the frame
    /// flags, then the head bits, then the owner slots slab by slab.
    /// Unit `i` is owned by `owner` advanced by `i` units' pages. The
    /// same state as one [`mark_allocated`](Self::mark_allocated) per
    /// unit.
    ///
    /// # Panics
    ///
    /// Panics if any frame in the span is already used or out of bounds,
    /// or if a unit's owner does not fit a reverse-map slot.
    pub(crate) fn mark_units(
        &mut self,
        start: Pfn,
        pages: u64,
        order: u8,
        use_: FrameUse,
        owner: Option<MappingOwner>,
    ) {
        let start = self.idx(start);
        let end = start + usize::try_from(pages).expect("fits usize");
        let unit = 1usize << order;
        debug_assert!(start.is_multiple_of(unit) && (end - start).is_multiple_of(unit));
        assert!(end <= self.frames.len(), "unit out of bounds");
        // The last unit's vpn is the largest. Once it fits, every unit's
        // slot is the first one's plus the unit's page offset.
        let first = owner.map(|owner| {
            OwnerSlot::new(MappingOwner {
                vpn: owner.vpn + pages.saturating_sub(unit as u64),
                ..owner
            });
            OwnerSlot::new(owner)
        });
        let flags = use_.unit_flags();
        let mut head_flags = flags | FLAG_HEAD;
        if owner.is_some() {
            head_flags |= FLAG_HAS_OWNER;
        }
        for (i, frame) in self.frames[start..end].iter_mut().enumerate() {
            assert!(!frame.is_used(), "frame {} double-allocated", start + i);
            frame.flags = if i & (unit - 1) == 0 {
                head_flags
            } else {
                flags
            };
            frame.order = order;
        }
        for head in (start..end).step_by(unit) {
            self.heads.insert(head as u64);
        }
        let Some(first) = first else {
            return;
        };
        let mut head = start;
        while head < end {
            let region = head / OWNER_REGION;
            let slab_end = ((region + 1) * OWNER_REGION).min(end);
            let slab = self.owners[region]
                .get_or_insert_with(|| vec![OwnerSlot::default(); OWNER_REGION].into_boxed_slice());
            while head < slab_end {
                slab[head % OWNER_REGION] = OwnerSlot(first.0 + (head - start) as u64);
                head += unit;
            }
        }
    }

    /// Clears a previously-allocated unit, returning its description.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not the head of a used unit.
    pub fn mark_freed(&mut self, head: Pfn) -> AllocationUnit {
        let unit = self.unit_at(head).expect("mark_freed requires a unit head");
        let start = self.idx(head);
        for frame in &mut self.frames[start..start + (1usize << unit.order)] {
            *frame = FrameInfo::default();
        }
        self.heads.remove(head.raw());
        unit
    }

    /// Whether `pfn` is currently part of any allocation unit.
    #[must_use]
    pub fn is_used(&self, pfn: Pfn) -> bool {
        self.frames.get(self.idx(pfn)).is_some_and(|f| f.is_used())
    }

    /// Whether `pfn` holds unmovable (kernel) contents.
    #[must_use]
    pub fn is_unmovable(&self, pfn: Pfn) -> bool {
        self.frames
            .get(self.idx(pfn))
            .is_some_and(|f| f.is_unmovable())
    }

    /// Whether `pfn` is the head of an allocation unit.
    #[must_use]
    pub fn is_unit_head(&self, pfn: Pfn) -> bool {
        self.frames.get(self.idx(pfn)).is_some_and(|f| f.is_head())
    }

    /// The unit whose head is `pfn`, if `pfn` is a head.
    #[must_use]
    pub fn unit_at(&self, pfn: Pfn) -> Option<AllocationUnit> {
        let idx = self.idx(pfn);
        let info = *self.frames.get(idx)?;
        if !info.is_head() {
            return None;
        }
        Some(AllocationUnit {
            head: pfn,
            order: info.order,
            use_: info.use_(),
            owner: self.read_owner(idx, info),
        })
    }

    fn read_owner(&self, idx: usize, info: FrameInfo) -> Option<MappingOwner> {
        if !info.has_owner() {
            return None;
        }
        let slot = self.owner_slot(idx).expect("owner flag implies slab");
        Some(slot.owner())
    }

    /// The head frame of the unit containing `pfn`, if used.
    #[must_use]
    pub fn head_of(&self, pfn: Pfn) -> Option<Pfn> {
        let info = *self.frames.get(self.idx(pfn))?;
        if !info.is_used() {
            return None;
        }
        // Heads are naturally aligned to the unit order.
        let head = pfn.raw() & !((1u64 << info.order) - 1);
        Some(Pfn::new(head))
    }

    /// Updates (or clears) the reverse-map owner of the unit headed at
    /// `head`.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not a unit head, or if `owner` does not fit a
    /// reverse-map slot.
    pub fn set_owner(&mut self, head: Pfn, owner: Option<MappingOwner>) {
        assert!(self.is_unit_head(head), "set_owner requires a unit head");
        let idx = self.idx(head);
        match owner.map(OwnerSlot::new) {
            Some(slot) => {
                self.frames[idx].flags |= FLAG_HAS_OWNER;
                *self.owner_slot_mut(idx) = slot;
            }
            None => {
                self.frames[idx].flags &= !FLAG_HAS_OWNER;
            }
        }
    }

    /// The reverse-map owner of the unit headed at `head`, if any.
    #[must_use]
    pub fn owner(&self, head: Pfn) -> Option<MappingOwner> {
        let idx = self.idx(head);
        self.frames
            .get(idx)
            .and_then(|info| self.read_owner(idx, *info))
    }

    /// Enumerates the allocation units whose head lies in `[start, end)`.
    ///
    /// Units are naturally aligned, so every unit overlapping a giant region
    /// has its head inside it; this is exactly the set compaction must
    /// migrate to free the region. Headless stretches are skipped a
    /// bitmap word at a time.
    pub fn units_in(&self, start: Pfn, end: Pfn) -> Vec<AllocationUnit> {
        self.heads
            .iter_range(start.raw(), end.raw())
            .map(|head| {
                self.unit_at(Pfn::new(head))
                    .expect("head bitmap implies unit exists")
            })
            .collect()
    }

    /// Counts used frames in `[start, end)`.
    #[must_use]
    pub fn used_in(&self, start: Pfn, end: Pfn) -> u64 {
        self.heads
            .iter_range(start.raw(), end.raw())
            .map(|head| 1u64 << self.frames[usize::try_from(head).expect("fits usize")].order)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_free_roundtrip() {
        let mut t = FrameTable::new(32);
        let owner = MappingOwner {
            asid: AsId::new(1),
            vpn: Vpn::new(100),
        };
        t.mark_allocated(Pfn::new(8), 3, FrameUse::User, Some(owner));
        let unit = t.unit_at(Pfn::new(8)).unwrap();
        assert_eq!(unit.pages(), 8);
        assert_eq!(unit.owner, Some(owner));
        assert_eq!(unit.use_, FrameUse::User);
        let freed = t.mark_freed(Pfn::new(8));
        assert_eq!(freed, unit);
        assert!(!t.is_used(Pfn::new(8)));
        assert!(t.owner(Pfn::new(8)).is_none());
    }

    #[test]
    fn head_of_finds_unit_start() {
        let mut t = FrameTable::new(32);
        t.mark_allocated(Pfn::new(16), 4, FrameUse::PageCache, None);
        assert_eq!(t.head_of(Pfn::new(23)), Some(Pfn::new(16)));
        assert_eq!(t.head_of(Pfn::new(3)), None);
    }

    #[test]
    fn kernel_frames_are_unmovable() {
        let mut t = FrameTable::new(8);
        t.mark_allocated(Pfn::new(0), 1, FrameUse::Kernel, None);
        assert!(t.is_unmovable(Pfn::new(0)));
        assert!(t.is_unmovable(Pfn::new(1)));
        t.mark_allocated(Pfn::new(2), 0, FrameUse::User, None);
        assert!(!t.is_unmovable(Pfn::new(2)));
        assert!(FrameUse::PageCache.is_movable());
        assert!(!FrameUse::Kernel.is_movable());
    }

    #[test]
    fn units_in_enumerates_heads_only() {
        let mut t = FrameTable::new(64);
        t.mark_allocated(Pfn::new(0), 3, FrameUse::User, None);
        t.mark_allocated(Pfn::new(8), 0, FrameUse::Kernel, None);
        t.mark_allocated(Pfn::new(32), 5, FrameUse::User, None);
        let units = t.units_in(Pfn::new(0), Pfn::new(64));
        assert_eq!(units.len(), 3);
        assert_eq!(t.used_in(Pfn::new(0), Pfn::new(64)), 8 + 1 + 32);
        // Partial window sees only heads inside it.
        let tail = t.units_in(Pfn::new(16), Pfn::new(64));
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].head, Pfn::new(32));
    }

    #[test]
    #[should_panic(expected = "double-allocated")]
    fn double_allocation_panics() {
        let mut t = FrameTable::new(8);
        t.mark_allocated(Pfn::new(0), 2, FrameUse::User, None);
        t.mark_allocated(Pfn::new(2), 1, FrameUse::User, None);
    }

    #[test]
    fn set_owner_replaces_and_clears() {
        let mut t = FrameTable::new(8);
        t.mark_allocated(Pfn::new(0), 0, FrameUse::User, None);
        let o = MappingOwner {
            asid: AsId::new(2),
            vpn: Vpn::new(7),
        };
        t.set_owner(Pfn::new(0), Some(o));
        assert_eq!(t.owner(Pfn::new(0)), Some(o));
        t.set_owner(Pfn::new(0), None);
        assert_eq!(t.owner(Pfn::new(0)), None);
    }

    #[test]
    fn owner_slab_is_region_lazy_and_survives_reuse() {
        let mut t = FrameTable::new(4096);
        // Owner far from frame 0 materializes only that region's slab.
        let o = MappingOwner {
            asid: AsId::new(9),
            vpn: Vpn::new(1234),
        };
        t.mark_allocated(Pfn::new(2048), 0, FrameUse::User, Some(o));
        assert_eq!(t.owner(Pfn::new(2048)), Some(o));
        assert!(t.owners[0].is_none());
        assert!(t.owners[2].is_some());
        // Free then re-allocate without an owner: stale slab contents must
        // not resurface.
        t.mark_freed(Pfn::new(2048));
        t.mark_allocated(Pfn::new(2048), 0, FrameUse::User, None);
        assert_eq!(t.owner(Pfn::new(2048)), None);
        assert_eq!(t.unit_at(Pfn::new(2048)).unwrap().owner, None);
    }

    #[test]
    #[should_panic(expected = "does not fit a reverse-map slot")]
    fn an_asid_past_the_slot_panics() {
        let mut t = FrameTable::new(8);
        let o = MappingOwner {
            asid: AsId::new(65_536),
            vpn: Vpn::new(0),
        };
        t.mark_allocated(Pfn::new(0), 0, FrameUse::User, Some(o));
    }

    #[test]
    #[should_panic(expected = "does not fit a reverse-map slot")]
    fn a_run_whose_last_vpn_overflows_the_slot_panics() {
        let mut t = FrameTable::new(8);
        let o = MappingOwner {
            asid: AsId::new(1),
            vpn: Vpn::new((1 << 48) - 2),
        };
        t.mark_units(Pfn::new(0), 4, 1, FrameUse::User, Some(o));
    }

    #[test]
    fn use_codes_roundtrip_through_flags() {
        let mut t = FrameTable::new(8);
        t.mark_allocated(Pfn::new(0), 0, FrameUse::User, None);
        t.mark_allocated(Pfn::new(1), 0, FrameUse::PageCache, None);
        t.mark_allocated(Pfn::new(2), 0, FrameUse::Kernel, None);
        assert_eq!(t.unit_at(Pfn::new(0)).unwrap().use_, FrameUse::User);
        assert_eq!(t.unit_at(Pfn::new(1)).unwrap().use_, FrameUse::PageCache);
        assert_eq!(t.unit_at(Pfn::new(2)).unwrap().use_, FrameUse::Kernel);
    }
}
