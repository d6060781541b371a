//! Page-walk cost model.

use trident_types::{PageGeometry, PageSize};

/// Page-table depth configuration. §2 notes that newer processors need up
/// to five levels ("five memory accesses due to deeper page table
/// structures" — ref. \[25\] of the paper), and §4.3 argues the advent of denser NVM plus
/// five-level tables makes low-overhead translation more urgent than ever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageTableDepth {
    /// Classic x86-64 four-level tables (48-bit VA).
    #[default]
    FourLevel,
    /// LA57 five-level tables (57-bit VA).
    FiveLevel,
}

/// Page-table levels that must be traversed to translate a page of `size`
/// under four-level tables: `levels + 1 − leaf_level` memory accesses, so
/// on x86-64 that is 4 for 4KB (PTE leaf), 3 for 2MB (PMD leaf), 2 for
/// 1GB (PUD leaf). Each level is one memory access (§2).
///
/// Group rungs — RISC-V NAPOT pages, ARM contiguous-PTE spans — leave the
/// table shape untouched, so they pay the *full* walk depth of their
/// underlying level: a 64KB NAPOT page still walks like a 4KB one. Their
/// benefit is TLB reach, never walk latency.
#[inline]
#[must_use]
pub fn walk_accesses(geo: &PageGeometry, size: PageSize) -> u64 {
    walk_accesses_at(geo, size, PageTableDepth::FourLevel)
}

/// Walk accesses with an explicit page-table depth; five-level tables add
/// one access to every size.
#[inline]
#[must_use]
pub fn walk_accesses_at(geo: &PageGeometry, size: PageSize, depth: PageTableDepth) -> u64 {
    let extra = match depth {
        PageTableDepth::FourLevel => 0,
        PageTableDepth::FiveLevel => 1,
    };
    // Three modeled table levels (PTE/PMD/PUD) below one unmodeled top
    // directory: a level-1 leaf costs 4 accesses, a level-3 leaf costs 2.
    extra + u64::from(4 + 1 - geo.level(size))
}

/// Memory accesses for a two-dimensional (nested) walk with `guest` and
/// `host` page sizes: `(g + 1) · (h + 1) − 1` where `g`/`h` are the level
/// counts. Reproduces §2's numbers: 24 for 4KB+4KB, 15 for 2MB+2MB, 8 for
/// 1GB+1GB.
#[inline]
#[must_use]
pub fn nested_walk_accesses(geo: &PageGeometry, guest: PageSize, host: PageSize) -> u64 {
    nested_walk_accesses_at(geo, guest, host, PageTableDepth::FourLevel)
}

/// Nested walk accesses with an explicit page-table depth at both levels:
/// with five-level tables a 4KB+4KB miss needs up to 35 memory accesses,
/// making large pages even more valuable.
#[inline]
#[must_use]
pub fn nested_walk_accesses_at(
    geo: &PageGeometry,
    guest: PageSize,
    host: PageSize,
    depth: PageTableDepth,
) -> u64 {
    let g = walk_accesses_at(geo, guest, depth);
    let h = walk_accesses_at(geo, host, depth);
    (g + 1) * (h + 1) - 1
}

/// Converts walk memory accesses into cycles.
///
/// The absolute scale is a model constant (we have no Xeon to calibrate
/// against); what the experiments depend on is the *ratio* between page
/// sizes, which comes from the access counts above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkCostModel {
    /// Cycles per page-walk memory access (a blend of cache and DRAM
    /// latencies; page-walk caches are folded into this constant).
    pub mem_access_cycles: u64,
    /// Cycles for an L2 TLB hit.
    pub l2_hit_cycles: u64,
}

impl WalkCostModel {
    /// Cycles for a native walk of a page of `size`.
    #[inline]
    #[must_use]
    pub fn walk_cycles(&self, geo: &PageGeometry, size: PageSize) -> u64 {
        walk_accesses(geo, size) * self.mem_access_cycles
    }

    /// Cycles for a nested walk.
    #[inline]
    #[must_use]
    pub fn nested_walk_cycles(&self, geo: &PageGeometry, guest: PageSize, host: PageSize) -> u64 {
        nested_walk_accesses(geo, guest, host) * self.mem_access_cycles
    }
}

impl Default for WalkCostModel {
    fn default() -> Self {
        WalkCostModel {
            mem_access_cycles: 50,
            l2_hit_cycles: 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X86: PageGeometry = PageGeometry::X86_64;
    const BASE: PageSize = PageSize::BASE;
    const HUGE: PageSize = PageSize::new(1);
    const GIANT: PageSize = PageSize::new(2);

    #[test]
    fn native_walk_accesses_match_paper() {
        assert_eq!(walk_accesses(&X86, BASE), 4);
        assert_eq!(walk_accesses(&X86, HUGE), 3);
        assert_eq!(walk_accesses(&X86, GIANT), 2);
    }

    #[test]
    fn group_rungs_pay_their_level_walk_depth() {
        // Sv48's 64KB NAPOT rung is a PTE-level leaf: full 4-access walk.
        let sv48 = PageGeometry::RISCV_SV48;
        let napot = PageSize::new(1);
        assert!(sv48.is_group(napot));
        assert_eq!(walk_accesses(&sv48, napot), walk_accesses(&sv48, BASE));
        // ARM's contiguous rungs walk like their underlying level too.
        let arm = PageGeometry::AARCH64;
        for size in arm.rungs() {
            let natural = arm
                .size_for_order(arm.level_order(arm.level(size)))
                .expect("natural rung exists");
            assert_eq!(walk_accesses(&arm, size), walk_accesses(&arm, natural));
        }
    }

    #[test]
    fn nested_walk_accesses_match_paper() {
        assert_eq!(nested_walk_accesses(&X86, BASE, BASE), 24);
        assert_eq!(nested_walk_accesses(&X86, HUGE, HUGE), 15);
        assert_eq!(nested_walk_accesses(&X86, GIANT, GIANT), 8);
    }

    #[test]
    fn mixed_nested_sizes_are_between_the_extremes() {
        let mixed = nested_walk_accesses(&X86, GIANT, BASE);
        assert!(mixed > 8 && mixed < 24);
        assert_eq!(mixed, nested_walk_accesses(&X86, BASE, GIANT));
    }

    #[test]
    fn five_level_tables_add_one_access_per_size() {
        for size in X86.rungs() {
            assert_eq!(
                walk_accesses_at(&X86, size, PageTableDepth::FiveLevel),
                walk_accesses(&X86, size) + 1
            );
        }
        // 4KB+4KB nested under LA57: (5+1)*(5+1)-1 = 35 accesses.
        assert_eq!(
            nested_walk_accesses_at(&X86, BASE, BASE, PageTableDepth::FiveLevel),
            35
        );
        assert_eq!(
            nested_walk_accesses_at(&X86, GIANT, GIANT, PageTableDepth::FiveLevel),
            15
        );
    }

    #[test]
    fn cycles_scale_with_the_model_constant() {
        let m = WalkCostModel {
            mem_access_cycles: 10,
            l2_hit_cycles: 7,
        };
        assert_eq!(m.walk_cycles(&X86, BASE), 40);
        assert_eq!(m.nested_walk_cycles(&X86, GIANT, GIANT), 80);
    }
}
