//! Rung indices into a geometry's page-size ladder.

/// The maximum number of size classes (rungs) any [`PageGeometry`]
/// ladder can carry.
///
/// Six covers every shipped architecture with headroom: x86-64 has 3
/// rungs, RISC-V Sv48 with SVNAPOT has 4, AArch64 with contiguous-bit
/// coalescing at both the PTE and PMD level has 5.
///
/// [`PageGeometry`]: crate::PageGeometry
pub const MAX_RUNGS: usize = 6;

/// One rung of a geometry's page-size ladder.
///
/// A `PageSize` is an *index* into the ordered ladder of
/// [`SizeClass`](crate::SizeClass)es carried by a
/// [`PageGeometry`](crate::PageGeometry) — it no longer names a fixed
/// x86-64 size. Rung 0 is always the base page; higher rungs are
/// strictly larger, so the derived `Ord` still expresses "at least as
/// big as" within one geometry. Everything *about* a rung (its buddy
/// order, byte size, page-table level, NAPOT/contiguous encoding,
/// label) lives on the geometry; a bare `PageSize` is only meaningful
/// next to the geometry it indexes.
///
/// # Examples
///
/// ```
/// use trident_types::{PageGeometry, PageSize};
///
/// let geo = PageGeometry::X86_64;
/// let rungs: Vec<PageSize> = geo.rungs().collect();
/// assert_eq!(rungs.len(), 3);
/// assert_eq!(rungs[0], PageSize::BASE);
/// assert!(geo.largest() > PageSize::BASE);
/// assert_eq!(geo.label(geo.largest()), "1GB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageSize(u8);

impl PageSize {
    /// The base rung — rung 0 of every ladder.
    pub const BASE: PageSize = PageSize(0);

    /// The rung at `index`. Validity against a concrete ladder is the
    /// geometry's business; this only checks the universal bound.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_RUNGS`.
    #[inline]
    #[must_use]
    pub const fn new(index: usize) -> PageSize {
        assert!(index < MAX_RUNGS, "rung index out of range");
        PageSize(index as u8)
    }

    /// This rung's index into its geometry's ladder (and into every
    /// per-rung counter array, which are all `[_; MAX_RUNGS]`).
    #[inline]
    #[must_use]
    pub const fn rung(self) -> usize {
        self.0 as usize
    }

    /// The next smaller rung, or `None` for the base rung.
    ///
    /// This is the fallback order used by Trident's fault handler when a
    /// contiguous physical chunk of the desired size is unavailable.
    #[inline]
    #[must_use]
    pub const fn smaller(self) -> Option<PageSize> {
        match self.0 {
            0 => None,
            n => Some(PageSize(n - 1)),
        }
    }

    /// Whether this is the base rung.
    #[inline]
    #[must_use]
    pub const fn is_base(self) -> bool {
        self.0 == 0
    }

    /// Whether this is a large rung, i.e. anything bigger than the base
    /// page size.
    #[inline]
    #[must_use]
    pub const fn is_large(self) -> bool {
        self.0 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_indices_round_trip() {
        for i in 0..MAX_RUNGS {
            assert_eq!(PageSize::new(i).rung(), i);
        }
    }

    #[test]
    fn ordering_follows_rung_index() {
        assert!(PageSize::new(0) < PageSize::new(1));
        assert!(PageSize::new(1) < PageSize::new(2));
    }

    #[test]
    fn smaller_steps_down_to_base() {
        assert_eq!(PageSize::new(2).smaller(), Some(PageSize::new(1)));
        assert_eq!(PageSize::new(1).smaller(), Some(PageSize::BASE));
        assert_eq!(PageSize::BASE.smaller(), None);
    }

    #[test]
    fn only_base_is_not_large() {
        assert!(!PageSize::BASE.is_large());
        assert!(PageSize::BASE.is_base());
        assert!(PageSize::new(1).is_large());
        assert!(PageSize::new(2).is_large());
    }

    #[test]
    #[should_panic(expected = "rung index out of range")]
    fn rejects_out_of_range_rungs() {
        let _ = PageSize::new(MAX_RUNGS);
    }
}
