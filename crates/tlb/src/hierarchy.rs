//! The two-level TLB hierarchy of the experimental platform.

use trident_types::{PageGeometry, PageSize, Vpn};

use crate::SetAssocTlb;

/// Where a translation was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlbOutcome {
    /// Hit in the first-level TLB for the page's size.
    L1Hit,
    /// Missed L1, hit the second-level TLB.
    L2Hit,
    /// Missed both levels; a page walk is required.
    Miss,
}

/// The Skylake-like dTLB hierarchy of Table 1, generalized to any ladder.
///
/// Separate L1 structures per ladder rung (all probed in parallel by real
/// hardware; the paper notes the four 1GB entries are probed on *every*
/// load/store, which is part of 1GB pages' hardware cost), a unified L2
/// for every sub-top rung, and a separate small L2 for top-level (1GB
/// class) entries.
///
/// Group rungs — SVNAPOT pages, ARM contiguous-bit spans — are where the
/// TLB is the whole story: one coalesced entry covers the whole span, so
/// they get the reach of their size while their page walk still costs
/// what their underlying level costs. Their L1 structures default to the
/// entry counts of their level's natural rung, modeling coalesced entries
/// living in the same kind of structure.
///
/// # Examples
///
/// ```
/// use trident_tlb::{TlbHierarchy, TlbOutcome};
/// use trident_types::{PageSize, Vpn};
///
/// let mut tlb = TlbHierarchy::skylake();
/// let giant = PageSize::new(2);
/// assert_eq!(tlb.access(Vpn::new(0), giant), TlbOutcome::Miss);
/// assert_eq!(tlb.access(Vpn::new(1), giant), TlbOutcome::L1Hit);
/// ```
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    geo: PageGeometry,
    /// One L1 structure per ladder rung, indexed by [`PageSize::rung`].
    l1: Vec<SetAssocTlb>,
    /// Unified L2 serving every rung below the top table level.
    l2_shared: SetAssocTlb,
    /// Dedicated small L2 for top-level (giant-class) entries.
    l2_giant: SetAssocTlb,
    /// How many rungs the shared L2 serves (a prefix of the ladder, since
    /// levels never decrease going up); used to keep their tags disjoint.
    shared_rungs: u64,
}

/// Skylake Table 1 entry counts (entries, ways) for a rung at `level`,
/// `natural` or grouped.
fn skylake_l1(level: u8) -> (usize, usize) {
    match level {
        1 => (64, 4),
        2 => (32, 4),
        _ => (4, 4),
    }
}

impl TlbHierarchy {
    /// The hierarchy of the paper's Intel Xeon Gold 6140 (Skylake), with
    /// the real x86-64 page geometry:
    ///
    /// * L1d 4KB: 64 entries, 4-way
    /// * L1d 2MB: 32 entries, 4-way
    /// * L1d 1GB: 4 entries, fully associative
    /// * L2 4KB/2MB: 1536 entries, 12-way
    /// * L2 1GB: 16 entries, 4-way
    #[must_use]
    pub fn skylake() -> TlbHierarchy {
        TlbHierarchy::with_geometry(PageGeometry::X86_64)
    }

    /// The Skylake entry counts with a custom page geometry: every rung of
    /// the ladder gets an L1 sized by its table level, group rungs
    /// included.
    #[must_use]
    pub fn with_geometry(geo: PageGeometry) -> TlbHierarchy {
        let l1: Vec<(usize, usize)> = geo
            .rungs()
            .map(|size| skylake_l1(geo.level(size)))
            .collect();
        TlbHierarchy::custom(geo, &l1, (1536, 12), (16, 4))
    }

    /// Builds a custom hierarchy from per-rung L1 shapes (entry count,
    /// ways; one per ladder rung, bottom-up) plus the shared and giant L2
    /// shapes.
    ///
    /// # Panics
    ///
    /// Panics if `l1` does not provide exactly one shape per rung, or if
    /// any shape is rejected by [`SetAssocTlb::new`].
    #[must_use]
    pub fn custom(
        geo: PageGeometry,
        l1: &[(usize, usize)],
        l2_shared: (usize, usize),
        l2_giant: (usize, usize),
    ) -> TlbHierarchy {
        assert_eq!(l1.len(), geo.rung_count(), "one L1 shape per ladder rung");
        let shared_rungs = geo.rungs().filter(|&s| geo.level(s) < 3).count() as u64;
        TlbHierarchy {
            geo,
            l1: l1
                .iter()
                .map(|&(entries, ways)| SetAssocTlb::new(entries, ways))
                .collect(),
            l2_shared: SetAssocTlb::new(l2_shared.0, l2_shared.1),
            l2_giant: SetAssocTlb::new(l2_giant.0, l2_giant.1),
            shared_rungs,
        }
    }

    /// The page geometry used for tag formation.
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        self.geo
    }

    /// Translation reach of the L2 structure serving `size`, in bytes —
    /// the quantity that explains when 1GB pages win: 1536×2MB = 3GB of
    /// reach versus 16×1GB = 16GB.
    #[must_use]
    pub fn l2_reach_bytes(&self, size: PageSize) -> u64 {
        let entries = if self.geo.level(size) < 3 {
            self.l2_shared.entries()
        } else {
            self.l2_giant.entries()
        };
        entries as u64 * self.geo.bytes(size)
    }

    fn tag(&self, vpn: Vpn, size: PageSize) -> u64 {
        vpn.raw() >> self.geo.order(size)
    }

    /// Simulates one translation of `vpn` cached at `size`. A group rung
    /// occupies one (coalesced) entry for its whole span — exactly the
    /// reach benefit NAPOT and contiguous bits exist to provide.
    #[inline]
    pub fn access(&mut self, vpn: Vpn, size: PageSize) -> TlbOutcome {
        let tag = self.tag(vpn, size);
        if self.l1[size.rung()].access(tag) {
            return TlbOutcome::L1Hit;
        }
        let hit = if self.geo.level(size) < 3 {
            self.l2_shared.access(self.l2_tag(tag, size))
        } else {
            self.l2_giant.access(tag)
        };
        if hit {
            TlbOutcome::L2Hit
        } else {
            TlbOutcome::Miss
        }
    }

    /// The shared L2 holds entries of every sub-top rung; disambiguate
    /// tags by rung so entries of different sizes never alias. With two
    /// shared rungs (x86) this is the classic `tag << 1 | is_huge`
    /// encoding.
    fn l2_tag(&self, tag: u64, size: PageSize) -> u64 {
        tag * self.shared_rungs + size.rung() as u64
    }

    /// Drops all cached translations.
    pub fn flush(&mut self) {
        for l1 in &mut self.l1 {
            l1.flush();
        }
        self.l2_shared.flush();
        self.l2_giant.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_types::GIB;

    const BASE: PageSize = PageSize::BASE;
    const HUGE: PageSize = PageSize::new(1);
    const GIANT: PageSize = PageSize::new(2);

    #[test]
    fn same_giant_page_hits_after_first_access() {
        let mut t = TlbHierarchy::skylake();
        let giant_pages = PageGeometry::X86_64.base_pages(GIANT);
        assert_eq!(t.access(Vpn::new(0), GIANT), TlbOutcome::Miss);
        // Any page within the same giant page hits L1.
        assert_eq!(
            t.access(Vpn::new(giant_pages - 1), GIANT),
            TlbOutcome::L1Hit
        );
        // The next giant page misses.
        assert_eq!(t.access(Vpn::new(giant_pages), GIANT), TlbOutcome::Miss);
    }

    #[test]
    fn evicted_l1_entry_hits_l2() {
        let mut t = TlbHierarchy::skylake();
        let gp = PageGeometry::X86_64.base_pages(GIANT);
        // Touch 5 giant pages: more than the 4-entry L1 but within L2's 16.
        for i in 0..5 {
            assert_eq!(t.access(Vpn::new(i * gp), GIANT), TlbOutcome::Miss);
        }
        // Page 0 was evicted from the fully-associative L1, but is in L2.
        assert_eq!(t.access(Vpn::new(0), GIANT), TlbOutcome::L2Hit);
    }

    #[test]
    fn l2_reach_matches_paper_arithmetic() {
        let t = TlbHierarchy::skylake();
        assert_eq!(t.l2_reach_bytes(HUGE), 3 * GIB);
        assert_eq!(t.l2_reach_bytes(GIANT), 16 * GIB);
        assert_eq!(t.l2_reach_bytes(BASE), 1536 * 4096);
    }

    #[test]
    fn napot_rung_multiplies_reach_without_new_structures() {
        // Sv48's 64KB NAPOT rung: same shared L2, 16× the per-entry reach
        // of the base rung — the whole point of the encoding.
        let geo = PageGeometry::RISCV_SV48;
        let t = TlbHierarchy::with_geometry(geo);
        let napot = PageSize::new(1);
        assert!(geo.is_group(napot));
        assert_eq!(
            t.l2_reach_bytes(napot),
            16 * t.l2_reach_bytes(PageSize::BASE)
        );
    }

    #[test]
    fn group_rung_entries_coalesce_their_span() {
        let geo = PageGeometry::RISCV_SV48;
        let mut t = TlbHierarchy::with_geometry(geo);
        let napot = PageSize::new(1);
        let span = geo.base_pages(napot);
        assert_eq!(t.access(Vpn::new(0), napot), TlbOutcome::Miss);
        // Every page of the NAPOT span hits the one coalesced entry.
        for i in 1..span {
            assert_eq!(t.access(Vpn::new(i), napot), TlbOutcome::L1Hit);
        }
        assert_eq!(t.access(Vpn::new(span), napot), TlbOutcome::Miss);
    }

    #[test]
    fn base_and_huge_tags_do_not_alias_in_shared_l2() {
        let mut t = TlbHierarchy::skylake();
        // Base page 0 and huge page 0 are different translations.
        t.access(Vpn::new(0), BASE);
        assert_eq!(t.access(Vpn::new(0), HUGE), TlbOutcome::Miss);
    }

    #[test]
    fn shared_rungs_do_not_alias_on_a_four_rung_ladder() {
        let geo = PageGeometry::RISCV_SV48;
        let mut t = TlbHierarchy::with_geometry(geo);
        // Page 0 cached at every shared rung: all distinct L2 entries.
        for size in geo.rungs().filter(|&s| geo.level(s) < 3) {
            t.access(Vpn::new(0), size);
        }
        for size in geo.rungs().filter(|&s| geo.level(s) < 3) {
            assert_ne!(t.access(Vpn::new(0), size), TlbOutcome::Miss);
        }
    }

    #[test]
    fn working_set_beyond_huge_reach_thrashes_but_fits_giant_reach() {
        // 8GB hot set: 4096 huge pages > 1536-entry L2, but 8 giant pages
        // fit the 16-entry giant L2. This is the crossover that makes the
        // shaded applications 1GB-sensitive.
        let geo = PageGeometry::X86_64;
        let mut t = TlbHierarchy::skylake();
        let hp = geo.base_pages(HUGE);
        let gp = geo.base_pages(GIANT);
        let hot_pages = 8 * 512; // 8GB in huge pages
                                 // Two passes with huge pages: second pass still misses a lot.
        let mut huge_misses = 0;
        for pass in 0..2 {
            for i in 0..hot_pages {
                let out = t.access(Vpn::new(i * hp), HUGE);
                if pass == 1 && out == TlbOutcome::Miss {
                    huge_misses += 1;
                }
            }
        }
        assert!(huge_misses > hot_pages / 2, "2MB reach should thrash");
        // Same footprint with giant pages: second pass all hits.
        let mut giant_misses = 0;
        for pass in 0..2 {
            for i in 0..8 {
                let out = t.access(Vpn::new(i * gp), GIANT);
                if pass == 1 && out != TlbOutcome::L1Hit && out != TlbOutcome::L2Hit {
                    giant_misses += 1;
                }
            }
        }
        assert_eq!(giant_misses, 0, "1GB reach should cover 8GB");
    }
}
