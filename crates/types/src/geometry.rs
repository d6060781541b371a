//! Configurable page-size geometry: per-architecture size-class ladders.

use crate::page_size::MAX_RUNGS;
use crate::{PageSize, Pfn, PhysAddr, VirtAddr, Vpn};

/// Orders are bounded by the address-space overflow check in
/// [`PageGeometry::new`]; 64 entries cover every constructible order.
const ORDER_TABLE: usize = 64;

/// One rung of a geometry's ladder: a page size the architecture can
/// map, described by how it is encoded in the page table.
///
/// * `order` — log2 of the rung's span in base pages (its buddy order).
/// * `level` — the page-table level whose entries back it (1 = PTE,
///   2 = PMD, 3 = PUD). A rung whose order exceeds its level's natural
///   span is a *group* rung: it is realized as `2^k` adjacent entries
///   at `level` over one physically contiguous block.
/// * `napot` — the group is encoded architecturally in each PTE
///   (RISC-V SVNAPOT): the translation hardware reads the coalesced
///   size from the entry itself.
/// * `contiguous_span` — the group is a TLB-only *hint* (ARM contiguous
///   bit over `span` entries): the table keeps ordinary per-entry
///   mappings and only the TLB coalesces them, so the rung needs no
///   table reshaping to adopt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SizeClass {
    /// log2 of the rung's span in base pages (the buddy order).
    pub order: u8,
    /// Page-table level whose entries back this rung (1 = PTE leaf).
    pub level: u8,
    /// RISC-V SVNAPOT encoding: the group size lives in the PTE.
    pub napot: bool,
    /// ARM contiguous-bit hint over this many entries (TLB-only).
    pub contiguous_span: Option<u16>,
}

impl SizeClass {
    /// A natural leaf at `level` spanning `order` base pages.
    #[must_use]
    pub const fn leaf(order: u8, level: u8) -> SizeClass {
        SizeClass {
            order,
            level,
            napot: false,
            contiguous_span: None,
        }
    }

    /// A NAPOT group rung: `2^k` PTE-level entries, size encoded in each.
    #[must_use]
    pub const fn napot(order: u8, level: u8) -> SizeClass {
        SizeClass {
            order,
            level,
            napot: true,
            contiguous_span: None,
        }
    }

    /// A contiguous-bit hint rung over `span` entries at `level`.
    #[must_use]
    pub const fn contiguous(order: u8, level: u8, span: u16) -> SizeClass {
        SizeClass {
            order,
            level,
            napot: false,
            contiguous_span: Some(span),
        }
    }

    /// Whether the rung is a pure TLB hint (contiguous bit) rather than
    /// an architectural table encoding.
    #[must_use]
    pub const fn is_hint(&self) -> bool {
        self.contiguous_span.is_some()
    }

    const ZERO: SizeClass = SizeClass::leaf(0, 0);
}

/// The geometry of an address space: an architecture's ordered ladder of
/// [`SizeClass`]es over a radix page table, plus the base-page size.
///
/// Shipped ladders:
///
/// * [`PageGeometry::X86_64`] — 4KB / 2MB / 1GB (the default, and the
///   paper's testbed).
/// * [`PageGeometry::RISCV_SV48`] — Sv48 plus a 64KB SVNAPOT rung.
/// * [`PageGeometry::AARCH64`] — 4KB granule with 16-entry
///   contiguous-bit rungs at the PTE (64KB) and PMD (32MB) level.
/// * [`PageGeometry::TINY`] — a miniature 3-rung ladder for fast tests.
///
/// # Examples
///
/// ```
/// use trident_types::{PageGeometry, PageSize, VirtAddr};
///
/// let geo = PageGeometry::X86_64;
/// let addr = VirtAddr::new(0x4000_0123);
/// let giant = geo.largest();
/// assert!(!geo.is_aligned(addr.raw(), giant));
/// assert_eq!(geo.align_down(addr.raw(), PageSize::BASE), 0x4000_0000);
///
/// let sv48 = PageGeometry::RISCV_SV48;
/// assert_eq!(sv48.rung_count(), 4);
/// assert_eq!(sv48.label(PageSize::new(1)), "64KB");
/// assert!(sv48.class(PageSize::new(1)).napot);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageGeometry {
    name: &'static str,
    base_shift: u8,
    /// Natural order of a leaf at levels 1..=3 (level_orders[0] == 0).
    level_orders: [u8; 3],
    ladder: [SizeClass; MAX_RUNGS],
    rungs: u8,
    /// The arch's unscaled orders, kept through [`scaled`](Self::scaled)
    /// so labels stay the hardware sizes ("1GB") at any memory scale.
    arch_orders: [u8; MAX_RUNGS],
    /// Precomputed order → rung lookup (-1 = no rung at that order), so
    /// the buddy free/alloc hot paths never scan the ladder.
    order_to_rung: [i8; ORDER_TABLE],
}

impl PageGeometry {
    /// The real x86-64 ladder: 4KB base, 2MB huge, 1GB giant pages.
    pub const X86_64: PageGeometry = PageGeometry::build(
        "x86_64",
        12,
        [0, 9, 18],
        [
            SizeClass::leaf(0, 1),
            SizeClass::leaf(9, 2),
            SizeClass::leaf(18, 3),
            SizeClass::ZERO,
            SizeClass::ZERO,
            SizeClass::ZERO,
        ],
        3,
    );

    /// RISC-V Sv48 with SVNAPOT: 4KB, 64KB (NAPOT, 16 PTEs), 2MB, 1GB.
    ///
    /// The 64KB rung is an architectural page — the NAPOT encoding lives
    /// in the PTE — but its walk is still a full PTE-level walk; the win
    /// is TLB reach, not walk depth.
    pub const RISCV_SV48: PageGeometry = PageGeometry::build(
        "sv48",
        12,
        [0, 9, 18],
        [
            SizeClass::leaf(0, 1),
            SizeClass::napot(4, 1),
            SizeClass::leaf(9, 2),
            SizeClass::leaf(18, 3),
            SizeClass::ZERO,
            SizeClass::ZERO,
        ],
        4,
    );

    /// AArch64 with a 4KB granule and the contiguous bit: 4KB, 64KB
    /// (16 contiguous PTEs), 2MB, 32MB (16 contiguous PMDs), 1GB.
    ///
    /// The contiguous-bit rungs are pure TLB hints: the table keeps
    /// ordinary per-entry mappings and no reshaping is ever needed —
    /// only the TLB coalesces the span into one entry.
    pub const AARCH64: PageGeometry = PageGeometry::build(
        "aarch64",
        12,
        [0, 9, 18],
        [
            SizeClass::leaf(0, 1),
            SizeClass::contiguous(4, 1, 16),
            SizeClass::leaf(9, 2),
            SizeClass::contiguous(13, 2, 16),
            SizeClass::leaf(18, 3),
            SizeClass::ZERO,
        ],
        5,
    );

    /// A miniature geometry for fast tests: 4KB base pages, huge = 8 base
    /// pages (32KB), giant = 64 base pages (256KB).
    pub const TINY: PageGeometry = PageGeometry::build(
        "tiny",
        12,
        [0, 3, 6],
        [
            SizeClass::leaf(0, 1),
            SizeClass::leaf(3, 2),
            SizeClass::leaf(6, 3),
            SizeClass::ZERO,
            SizeClass::ZERO,
            SizeClass::ZERO,
        ],
        3,
    );

    /// [`PageGeometry::TINY`] plus a 4-page NAPOT group rung between base
    /// and huge — the miniature analogue of [`PageGeometry::RISCV_SV48`]
    /// for exercising group-leaf paths in fast tests.
    pub const TINY_NAPOT: PageGeometry = PageGeometry::build(
        "tiny_napot",
        12,
        [0, 3, 6],
        [
            SizeClass::leaf(0, 1),
            SizeClass::napot(2, 1),
            SizeClass::leaf(3, 2),
            SizeClass::leaf(6, 3),
            SizeClass::ZERO,
            SizeClass::ZERO,
        ],
        4,
    );

    /// Every shipped architecture ladder (the property-test universe).
    pub const SHIPPED: [PageGeometry; 3] = [
        PageGeometry::X86_64,
        PageGeometry::RISCV_SV48,
        PageGeometry::AARCH64,
    ];

    const fn build(
        name: &'static str,
        base_shift: u8,
        level_orders: [u8; 3],
        ladder: [SizeClass; MAX_RUNGS],
        rungs: u8,
    ) -> PageGeometry {
        assert!(rungs >= 1 && rungs as usize <= MAX_RUNGS);
        let mut order_to_rung = [-1i8; ORDER_TABLE];
        let mut arch_orders = [0u8; MAX_RUNGS];
        let mut i = 0;
        while i < rungs as usize {
            let class = ladder[i];
            assert!((class.order as usize) < ORDER_TABLE);
            assert!(class.level >= 1 && class.level <= 3);
            if i > 0 {
                assert!(
                    class.order > ladder[i - 1].order,
                    "ladder orders must be strictly ascending"
                );
                assert!(class.level >= ladder[i - 1].level);
            }
            assert!(class.order >= level_orders[(class.level - 1) as usize]);
            order_to_rung[class.order as usize] = i as i8;
            arch_orders[i] = class.order;
            i += 1;
        }
        PageGeometry {
            name,
            base_shift,
            level_orders,
            ladder,
            rungs,
            arch_orders,
            order_to_rung,
        }
    }

    /// Creates a classic 3-rung geometry with the given base-page shift
    /// and huge/giant orders (expressed in base pages: a huge page is
    /// `2^huge_order` base pages, a giant page is `2^giant_order`).
    ///
    /// # Panics
    ///
    /// Panics if `huge_order == 0`, `giant_order <= huge_order`, or the
    /// total shift would overflow a `u64` address.
    #[must_use]
    pub fn new(base_shift: u8, huge_order: u8, giant_order: u8) -> PageGeometry {
        assert!(huge_order > 0, "huge pages must be larger than base pages");
        assert!(
            giant_order > huge_order,
            "giant pages must be larger than huge pages"
        );
        assert!(
            usize::from(base_shift) + usize::from(giant_order) < 60,
            "geometry overflows the address space"
        );
        PageGeometry::build(
            "custom",
            base_shift,
            [0, huge_order, giant_order],
            [
                SizeClass::leaf(0, 1),
                SizeClass::leaf(huge_order, 2),
                SizeClass::leaf(giant_order, 3),
                SizeClass::ZERO,
                SizeClass::ZERO,
                SizeClass::ZERO,
            ],
            3,
        )
    }

    /// Looks an architecture up by its stable id: `"x86_64"`, `"sv48"`,
    /// `"aarch64"` (or the aliases `"x86-64"`, `"riscv_sv48"`,
    /// `"arm64"`), plus `"tiny"` for tests.
    #[must_use]
    pub fn by_name(name: &str) -> Option<PageGeometry> {
        match name {
            "x86_64" | "x86-64" => Some(PageGeometry::X86_64),
            "sv48" | "riscv_sv48" => Some(PageGeometry::RISCV_SV48),
            "aarch64" | "arm64" => Some(PageGeometry::AARCH64),
            "tiny" => Some(PageGeometry::TINY),
            _ => None,
        }
    }

    /// The architecture's stable id (`"x86_64"`, `"sv48"`, `"aarch64"`,
    /// `"tiny"`, or `"custom"`); preserved by [`scaled`](Self::scaled).
    #[inline]
    #[must_use]
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Size of a base page in bytes.
    #[inline]
    #[must_use]
    pub fn base_bytes(&self) -> u64 {
        1 << self.base_shift
    }

    /// log2 of the base page size in bytes.
    #[inline]
    #[must_use]
    pub fn base_shift(&self) -> u8 {
        self.base_shift
    }

    /// Number of rungs on the ladder.
    #[inline]
    #[must_use]
    pub fn rung_count(&self) -> usize {
        self.rungs as usize
    }

    /// The ladder's rungs, smallest first.
    #[inline]
    pub fn rungs(&self) -> impl DoubleEndedIterator<Item = PageSize> {
        (0..self.rungs as usize).map(PageSize::new)
    }

    /// The ladder's rungs, largest first — the order in which Trident
    /// attempts to satisfy a fault or promotion.
    #[inline]
    pub fn rungs_desc(&self) -> impl Iterator<Item = PageSize> {
        self.rungs().rev()
    }

    /// The large rungs (everything above base), largest first.
    #[inline]
    pub fn large_rungs_desc(&self) -> impl Iterator<Item = PageSize> {
        self.rungs_desc().filter(|s| s.is_large())
    }

    /// The largest rung.
    #[inline]
    #[must_use]
    pub fn largest(&self) -> PageSize {
        PageSize::new(self.rungs as usize - 1)
    }

    /// The next larger rung, or `None` at the top of the ladder.
    #[inline]
    #[must_use]
    pub fn larger(&self, size: PageSize) -> Option<PageSize> {
        let next = size.rung() + 1;
        (next < self.rungs as usize).then(|| PageSize::new(next))
    }

    /// The full size-class descriptor of a rung.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a rung of this ladder.
    #[inline]
    #[must_use]
    pub fn class(&self, size: PageSize) -> SizeClass {
        assert!(size.rung() < self.rungs as usize, "rung not on this ladder");
        self.ladder[size.rung()]
    }

    /// The buddy-allocator order of `size`: a page of `size` spans
    /// `2^order(size)` base pages.
    #[inline]
    #[must_use]
    pub fn order(&self, size: PageSize) -> u8 {
        self.class(size).order
    }

    /// The page-table level whose entries back `size` (1 = PTE leaf).
    #[inline]
    #[must_use]
    pub fn level(&self, size: PageSize) -> u8 {
        self.class(size).level
    }

    /// The natural order of a leaf at table `level` (1..=3): the span
    /// one entry covers by itself.
    #[inline]
    #[must_use]
    pub fn level_order(&self, level: u8) -> u8 {
        self.level_orders[(level - 1) as usize]
    }

    /// Whether `size` is a group rung: realized as multiple adjacent
    /// entries at its level (SVNAPOT or a contiguous-bit span) rather
    /// than one entry.
    #[inline]
    #[must_use]
    pub fn is_group(&self, size: PageSize) -> bool {
        let c = self.class(size);
        c.order != self.level_order(c.level)
    }

    /// Entries at the rung's level making up one page of `size`
    /// (1 for natural leaves, `2^k` for group rungs).
    #[inline]
    #[must_use]
    pub fn group_span(&self, size: PageSize) -> u64 {
        let c = self.class(size);
        1 << (c.order - self.level_order(c.level))
    }

    /// The largest order the buddy allocator must track
    /// (the order of the largest rung).
    #[inline]
    #[must_use]
    pub fn max_order(&self) -> u8 {
        self.ladder[self.rungs as usize - 1].order
    }

    /// The rung with exactly the given buddy order, if any — a
    /// precomputed table lookup, not a ladder scan (this sits on the
    /// buddy free/alloc hot paths).
    #[inline]
    #[must_use]
    pub fn size_for_order(&self, order: u8) -> Option<PageSize> {
        let idx = *self.order_to_rung.get(order as usize)?;
        (idx >= 0).then(|| PageSize::new(idx as usize))
    }

    /// Number of base pages spanned by a page of `size`.
    #[inline]
    #[must_use]
    pub fn base_pages(&self, size: PageSize) -> u64 {
        1 << self.order(size)
    }

    /// Size in bytes of a page of `size`.
    #[inline]
    #[must_use]
    pub fn bytes(&self, size: PageSize) -> u64 {
        self.base_bytes() << self.order(size)
    }

    /// Human-readable label of a rung using the architecture's *unscaled*
    /// sizes (`"4KB"`, `"64KB"`, `"2MB"`, `"1GB"`), as the paper's
    /// figures do — stable across [`scaled`](Self::scaled) geometries.
    #[must_use]
    pub fn label(&self, size: PageSize) -> String {
        assert!(size.rung() < self.rungs as usize, "rung not on this ladder");
        let bytes = self.base_bytes() << self.arch_orders[size.rung()];
        if bytes < 1 << 20 {
            format!("{}KB", bytes >> 10)
        } else if bytes < 1 << 30 {
            format!("{}MB", bytes >> 20)
        } else {
            format!("{}GB", bytes >> 30)
        }
    }

    /// Whether `raw` (a byte address) is aligned to `size`.
    #[inline]
    #[must_use]
    pub fn is_aligned(&self, raw: u64, size: PageSize) -> bool {
        raw.is_multiple_of(self.bytes(size))
    }

    /// `raw` rounded down to the nearest `size` boundary.
    #[inline]
    #[must_use]
    pub fn align_down(&self, raw: u64, size: PageSize) -> u64 {
        raw - raw % self.bytes(size)
    }

    /// `raw` rounded up to the nearest `size` boundary.
    ///
    /// # Panics
    ///
    /// Panics on overflow of the 64-bit address space.
    #[inline]
    #[must_use]
    pub fn align_up(&self, raw: u64, size: PageSize) -> u64 {
        let b = self.bytes(size);
        raw.checked_add(b - 1).expect("address overflow") / b * b
    }

    /// Whether a base-page number is aligned to `size`
    /// (i.e. could begin a page of that size).
    #[inline]
    #[must_use]
    pub fn is_page_aligned(&self, page: u64, size: PageSize) -> bool {
        page.is_multiple_of(self.base_pages(size))
    }

    /// The base-page number containing byte address `raw`.
    #[inline]
    #[must_use]
    pub fn page_of(&self, raw: u64) -> u64 {
        raw >> self.base_shift
    }

    /// The first byte address of base-page number `page`.
    #[inline]
    #[must_use]
    pub fn page_addr(&self, page: u64) -> u64 {
        page << self.base_shift
    }

    /// The virtual page number containing `addr`.
    #[inline]
    #[must_use]
    pub fn vpn(&self, addr: VirtAddr) -> Vpn {
        Vpn::new(self.page_of(addr.raw()))
    }

    /// The physical frame number containing `addr`.
    #[inline]
    #[must_use]
    pub fn pfn(&self, addr: PhysAddr) -> Pfn {
        Pfn::new(self.page_of(addr.raw()))
    }

    /// The index of the largest-rung-sized region containing base page
    /// `page`.
    ///
    /// Smart compaction partitions physical memory into regions of the
    /// ladder's largest page size and keeps per-region occupancy
    /// statistics.
    #[inline]
    #[must_use]
    pub fn giant_region_of(&self, page: u64) -> u64 {
        page >> self.max_order()
    }

    /// The first base page of region `region`.
    #[inline]
    #[must_use]
    pub fn giant_region_start(&self, region: u64) -> u64 {
        region << self.max_order()
    }

    /// Number of base pages needed to hold `bytes`, rounded up.
    #[inline]
    #[must_use]
    pub fn pages_for_bytes(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.base_bytes())
    }

    /// The geometry with every large rung's order reduced by `shift`
    /// (memory scaling, DESIGN.md §2): page-size *ratios* against
    /// footprints and TLB reach stay as on real hardware while
    /// everything shrinks. Labels and the arch id are preserved.
    ///
    /// Natural leaves keep strictly ascending level orders (clamped at
    /// 1 base-page order apart); a group rung whose scaled order would
    /// collide with its neighbors is dropped from the scaled ladder.
    #[must_use]
    pub fn scaled(&self, shift: u8) -> PageGeometry {
        if shift == 0 {
            return *self;
        }
        let s = i16::from(shift);
        // Scale the natural level orders first: each level keeps at
        // least one base-page order over the previous.
        let mut level_orders = [0u8; 3];
        for lvl in 1..3 {
            let scaled = i16::from(self.level_orders[lvl]) - s;
            level_orders[lvl] = scaled.max(i16::from(level_orders[lvl - 1]) + 1) as u8;
        }
        let mut ladder = [SizeClass::ZERO; MAX_RUNGS];
        let mut arch_orders = [0u8; MAX_RUNGS];
        let mut order_to_rung = [-1i8; ORDER_TABLE];
        let mut kept = 0usize;
        for i in 0..self.rungs as usize {
            let mut class = self.ladder[i];
            let natural = level_orders[(class.level - 1) as usize];
            if class.order == self.level_orders[(class.level - 1) as usize] {
                class.order = natural;
            } else {
                // Group rung: clamp into the open interval between its
                // neighbors, or drop it when the scale squeezes it out.
                let prev = i16::from(ladder[kept - 1].order);
                let next = if (class.level as usize) < 3 {
                    i16::from(level_orders[class.level as usize])
                } else {
                    i16::MAX
                };
                let cand = (i16::from(class.order) - s).max(prev + 1);
                if cand >= next {
                    continue;
                }
                class.order = cand as u8;
            }
            ladder[kept] = class;
            arch_orders[kept] = self.arch_orders[i];
            order_to_rung[class.order as usize] = kept as i8;
            kept += 1;
        }
        PageGeometry {
            name: self.name,
            base_shift: self.base_shift,
            level_orders,
            ladder,
            rungs: kept as u8,
            arch_orders,
            order_to_rung,
        }
    }
}

impl Default for PageGeometry {
    /// The default geometry is the real x86-64 layout.
    fn default() -> Self {
        PageGeometry::X86_64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GIB, KIB, MIB};

    #[test]
    fn x86_64_sizes_match_hardware() {
        let g = PageGeometry::X86_64;
        let rungs: Vec<PageSize> = g.rungs().collect();
        assert_eq!(g.bytes(rungs[0]), 4 * KIB);
        assert_eq!(g.bytes(rungs[1]), 2 * MIB);
        assert_eq!(g.bytes(rungs[2]), GIB);
        assert_eq!(g.base_pages(rungs[1]), 512);
        assert_eq!(g.base_pages(rungs[2]), 512 * 512);
        assert_eq!(g.label(rungs[0]), "4KB");
        assert_eq!(g.label(rungs[1]), "2MB");
        assert_eq!(g.label(rungs[2]), "1GB");
    }

    #[test]
    fn shipped_ladders_describe_their_architectures() {
        let sv48 = PageGeometry::RISCV_SV48;
        assert_eq!(sv48.rung_count(), 4);
        let napot = PageSize::new(1);
        assert_eq!(sv48.bytes(napot), 64 * KIB);
        assert!(sv48.class(napot).napot);
        assert_eq!(sv48.level(napot), 1);
        assert!(sv48.is_group(napot));
        assert_eq!(sv48.group_span(napot), 16);
        assert_eq!(sv48.label(sv48.largest()), "1GB");

        let arm = PageGeometry::AARCH64;
        assert_eq!(arm.rung_count(), 5);
        let contig_pte = PageSize::new(1);
        let contig_pmd = PageSize::new(3);
        assert_eq!(arm.class(contig_pte).contiguous_span, Some(16));
        assert!(arm.class(contig_pte).is_hint());
        assert_eq!(arm.bytes(contig_pmd), 32 * MIB);
        assert_eq!(arm.level(contig_pmd), 2);
        assert_eq!(arm.group_span(contig_pmd), 16);
        assert_eq!(arm.label(contig_pmd), "32MB");
    }

    #[test]
    fn order_roundtrips_through_size_for_order() {
        for geo in [
            PageGeometry::X86_64,
            PageGeometry::TINY,
            PageGeometry::RISCV_SV48,
            PageGeometry::AARCH64,
        ] {
            for size in geo.rungs() {
                assert_eq!(geo.size_for_order(geo.order(size)), Some(size));
            }
            assert_eq!(geo.size_for_order(1), None);
            assert_eq!(geo.size_for_order(63), None);
        }
    }

    #[test]
    fn by_name_resolves_every_shipped_arch() {
        for geo in PageGeometry::SHIPPED {
            assert_eq!(PageGeometry::by_name(geo.name()), Some(geo));
        }
        assert_eq!(PageGeometry::by_name("arm64"), Some(PageGeometry::AARCH64));
        assert_eq!(PageGeometry::by_name("vax"), None);
    }

    #[test]
    fn alignment_helpers_agree() {
        let g = PageGeometry::X86_64;
        let giant = g.largest();
        let huge = PageSize::new(1);
        let addr = 5 * GIB + 123 * MIB;
        assert!(!g.is_aligned(addr, giant));
        assert_eq!(g.align_down(addr, giant), 5 * GIB);
        assert_eq!(g.align_up(addr, giant), 6 * GIB);
        assert!(g.is_aligned(g.align_down(addr, huge), huge));
    }

    #[test]
    fn align_up_of_aligned_address_is_identity() {
        let g = PageGeometry::X86_64;
        let giant = g.largest();
        assert_eq!(g.align_up(2 * GIB, giant), 2 * GIB);
        assert_eq!(g.align_up(0, giant), 0);
    }

    #[test]
    fn giant_region_partitioning() {
        let g = PageGeometry::TINY;
        assert_eq!(g.giant_region_of(0), 0);
        assert_eq!(g.giant_region_of(63), 0);
        assert_eq!(g.giant_region_of(64), 1);
        assert_eq!(g.giant_region_start(1), 64);
    }

    #[test]
    fn pages_for_bytes_rounds_up() {
        let g = PageGeometry::X86_64;
        assert_eq!(g.pages_for_bytes(0), 0);
        assert_eq!(g.pages_for_bytes(1), 1);
        assert_eq!(g.pages_for_bytes(4 * KIB), 1);
        assert_eq!(g.pages_for_bytes(4 * KIB + 1), 2);
    }

    #[test]
    fn scaled_x86_matches_the_classic_derivation() {
        // The historical scaling rule was (12, 9 - min(shift, 8),
        // 18 - shift); the ladder transform must reproduce it exactly
        // for bit-identity of every scaled x86 experiment.
        for shift in 0u8..=8 {
            let scaled = PageGeometry::X86_64.scaled(shift);
            assert_eq!(scaled.base_shift(), 12);
            assert_eq!(scaled.rung_count(), 3);
            let huge = PageSize::new(1);
            assert_eq!(scaled.order(huge), 9 - shift.min(8));
            assert_eq!(scaled.order(scaled.largest()), 18 - shift);
            assert_eq!(scaled.label(scaled.largest()), "1GB");
            assert_eq!(scaled.name(), "x86_64");
        }
    }

    #[test]
    fn scaled_ladders_stay_strictly_ascending() {
        for geo in PageGeometry::SHIPPED {
            for shift in 0u8..=8 {
                let s = geo.scaled(shift);
                let orders: Vec<u8> = s.rungs().map(|r| s.order(r)).collect();
                for w in orders.windows(2) {
                    assert!(w[0] < w[1], "{} shift {shift}: {orders:?}", geo.name());
                }
                // Group rungs may drop out under heavy scaling, natural
                // leaves never do.
                assert!(s.rung_count() >= 3);
                assert_eq!(s.order(PageSize::BASE), 0);
                for r in s.rungs() {
                    assert!(s.order(r) >= s.level_order(s.level(r)));
                }
            }
        }
    }

    #[test]
    fn sv48_napot_rung_survives_moderate_scaling() {
        let s = PageGeometry::RISCV_SV48.scaled(5); // scale 32
        assert_eq!(s.rung_count(), 4);
        let napot = PageSize::new(1);
        assert!(s.class(napot).napot);
        assert_eq!(s.order(napot), 1);
        assert_eq!(s.label(napot), "64KB");
    }

    #[test]
    #[should_panic(expected = "giant pages must be larger")]
    fn rejects_giant_not_larger_than_huge() {
        let _ = PageGeometry::new(12, 9, 9);
    }
}
