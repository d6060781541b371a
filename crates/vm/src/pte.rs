//! Packed page-table entries.
//!
//! Entries are packed into a single `u64` the way x86-64 hardware does it:
//! a present bit, accessed/dirty bits (set by the simulated hardware walker,
//! cleared by software — the mechanism behind the paper's Figure 4
//! TLB-miss-frequency measurement), and the frame number in the upper bits.

use trident_types::Pfn;

/// A packed leaf page-table entry.
///
/// # Examples
///
/// ```
/// use trident_types::Pfn;
/// use trident_vm::RawPte;
///
/// let mut pte = RawPte::new_leaf(Pfn::new(0x1234));
/// assert!(pte.is_present());
/// assert!(!pte.accessed());
/// pte.mark_used(false);
/// assert!(pte.accessed() && !pte.dirty());
/// pte.mark_used(true);
/// assert!(pte.dirty());
/// assert_eq!(pte.pfn(), Pfn::new(0x1234));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RawPte(u64);

impl RawPte {
    const PRESENT: u64 = 1 << 0;
    /// Software tag (bits 1..=3, unused by the modeled walker) carrying
    /// the ladder rung of a *group* leaf — a NAPOT or contiguous-bit
    /// mapping realized as multiple adjacent entries at one level. Zero
    /// means "natural leaf for this level"; group rungs are never rung 0
    /// (the base rung is always a natural PTE), so the rung index itself
    /// can be stored.
    const GROUP_SHIFT: u32 = 1;
    const GROUP_MASK: u64 = 0b111 << Self::GROUP_SHIFT;
    const ACCESSED: u64 = 1 << 5;
    const DIRTY: u64 = 1 << 6;
    /// x86's first software-available bit (bit 9). The hardware walker
    /// never reads it, so tables borrow it to store their occupancy count
    /// one bit per entry (see `PageTable`'s `set_count`/`read_count`).
    const AVAIL: u64 = 1 << 9;
    /// Software tag (another avail bit, bit 10) marking a non-leaf entry:
    /// the "frame number" field then holds the arena index of the next-
    /// level table instead of a physical frame.
    const TABLE: u64 = 1 << 10;
    const PFN_SHIFT: u32 = 12;

    /// The canonical non-present entry.
    pub const NOT_PRESENT: RawPte = RawPte(0);

    /// Creates a present leaf entry pointing at `pfn`, with clear
    /// accessed/dirty bits.
    #[must_use]
    pub fn new_leaf(pfn: Pfn) -> RawPte {
        RawPte(Self::PRESENT | (pfn.raw() << Self::PFN_SHIFT))
    }

    /// Whether the entry maps anything.
    #[must_use]
    pub fn is_present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }

    /// The frame number this entry points at.
    ///
    /// Meaningful only when [`RawPte::is_present`]; returns frame 0 for a
    /// non-present entry.
    #[must_use]
    pub fn pfn(self) -> Pfn {
        Pfn::new(self.0 >> Self::PFN_SHIFT)
    }

    /// Repoints the entry at a new frame, preserving flag bits — what a
    /// migration (or Trident_pv's mapping exchange) does.
    pub fn set_pfn(&mut self, pfn: Pfn) {
        self.0 = (self.0 & ((1 << Self::PFN_SHIFT) - 1)) | (pfn.raw() << Self::PFN_SHIFT);
    }

    /// Whether the hardware walker has set the accessed bit since it was
    /// last cleared.
    #[must_use]
    pub fn accessed(self) -> bool {
        self.0 & Self::ACCESSED != 0
    }

    /// Sets the accessed bit, and on a write the dirty bit, in one OR —
    /// what the hardware walker does to a leaf on a TLB fill.
    pub fn mark_used(&mut self, write: bool) {
        self.0 |= Self::ACCESSED | (u64::from(write) * Self::DIRTY);
    }

    /// Clears the accessed bit (software sampling interval boundary).
    pub fn clear_accessed(&mut self) {
        self.0 &= !Self::ACCESSED;
    }

    /// Whether the dirty bit is set.
    #[must_use]
    pub fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    /// Reads the software-available bit (bit 9) — ignored by the hardware
    /// walker, used by tables to pack per-table occupancy counts into
    /// their first entries.
    #[must_use]
    pub fn avail_bit(self) -> bool {
        self.0 & Self::AVAIL != 0
    }

    /// Writes the software-available bit (bit 9).
    pub fn set_avail_bit(&mut self, on: bool) {
        if on {
            self.0 |= Self::AVAIL;
        } else {
            self.0 &= !Self::AVAIL;
        }
    }

    /// The ladder rung of the group leaf this entry belongs to, or `None`
    /// for a natural (single-entry) leaf.
    #[must_use]
    pub fn group_rung(self) -> Option<usize> {
        let rung = (self.0 & Self::GROUP_MASK) >> Self::GROUP_SHIFT;
        (rung != 0).then_some(rung as usize)
    }

    /// Tags this entry as one member of a group leaf at `rung`
    /// (a NAPOT page or a contiguous-bit span).
    ///
    /// # Panics
    ///
    /// Panics if `rung` is 0 (the base rung is never a group) or does not
    /// fit the 3-bit tag field.
    pub fn set_group_rung(&mut self, rung: usize) {
        assert!(rung != 0 && rung < 8, "group rung out of tag range");
        self.0 = (self.0 & !Self::GROUP_MASK) | ((rung as u64) << Self::GROUP_SHIFT);
    }

    /// Creates a present non-leaf entry whose frame field holds the arena
    /// index of the next-level table.
    pub(crate) fn table_ptr(index: u32) -> RawPte {
        RawPte(Self::PRESENT | Self::TABLE | (u64::from(index) << Self::PFN_SHIFT))
    }

    /// Whether this is a non-leaf (table-pointer) entry.
    pub(crate) fn is_table(self) -> bool {
        self.0 & Self::TABLE != 0
    }

    /// The arena index a table-pointer entry refers to.
    pub(crate) fn table_index(self) -> u32 {
        (self.0 >> Self::PFN_SHIFT) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_not_present() {
        assert!(!RawPte::default().is_present());
        assert_eq!(RawPte::default(), RawPte::NOT_PRESENT);
    }

    #[test]
    fn flags_are_independent_of_pfn() {
        let mut pte = RawPte::new_leaf(Pfn::new(7));
        pte.mark_used(true);
        pte.set_pfn(Pfn::new(99));
        assert!(pte.accessed());
        assert!(pte.dirty());
        assert!(pte.is_present());
        assert_eq!(pte.pfn(), Pfn::new(99));
        pte.clear_accessed();
        assert!(!pte.accessed());
        assert!(pte.dirty());
    }

    #[test]
    fn avail_bit_is_independent_of_everything_else() {
        let mut pte = RawPte::new_leaf(Pfn::new(5));
        assert!(!pte.avail_bit());
        pte.set_avail_bit(true);
        pte.mark_used(true);
        pte.set_pfn(Pfn::new(77));
        assert!(pte.avail_bit());
        assert!(pte.accessed() && pte.dirty() && pte.is_present());
        assert_eq!(pte.pfn(), Pfn::new(77));
        pte.set_avail_bit(false);
        assert!(!pte.avail_bit());
        assert!(pte.accessed() && pte.dirty());
    }

    #[test]
    fn large_pfns_roundtrip() {
        let pfn = Pfn::new((1 << 40) - 1);
        assert_eq!(RawPte::new_leaf(pfn).pfn(), pfn);
    }
}
