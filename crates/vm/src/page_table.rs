//! Multi-level page tables with leaves at every rung of the ladder.
//!
//! The structure mirrors a three-level radix tree: a top level whose
//! entries either map an entire top-rung (e.g. 1GB) page — a PUD leaf —
//! or point to a mid-level table whose entries either map a level-2
//! (e.g. 2MB) page — a PMD leaf — or point to a leaf table of base PTEs.
//! All entry words are packed [`RawPte`]s, with hardware-set
//! accessed/dirty bits.
//!
//! # Group leaves (SVNAPOT / contiguous-bit rungs)
//!
//! Ladders with intermediate rungs — RISC-V's 64KB NAPOT pages, ARM's
//! contiguous-PTE spans — install *group leaves*: `group_span` adjacent
//! entries at the rung's natural table level, each a present leaf with
//! its own frame and a software rung tag in the PTE's free low bits.
//! This is exactly how the real architectures encode them (the table is
//! never reshaped; only the TLB coalesces), so the walk depth of a group
//! rung equals the walk depth of its underlying level. Accessed/dirty
//! state for a group leaf lives on its *head* entry; member entries'
//! flag bits are ignored.
//!
//! # Packed layout
//!
//! The levels are stored the way a kernel would lay them out in physical
//! memory, not as a pointer-chasing tree of heap enums:
//!
//! * The PUD level is a dense directory (`Vec<RawPte>`) indexed directly by
//!   giant-chunk index. A non-leaf entry carries a software `TABLE` tag in
//!   an x86 available bit and stores the mid-level table's arena index in
//!   its frame field, so a walk is two array indexings instead of a
//!   `BTreeMap` descent.
//! * PMD and PTE tables live in per-level arenas (`Vec<Box<[RawPte]>>`)
//!   with free lists. Tearing down a table returns its slot (and its entry
//!   storage) to the arena, so steady-state map/unmap churn allocates
//!   nothing.
//! * Each table's occupancy count is packed into the entries themselves:
//!   one bit per entry in the x86 software-available bit (bit 9) of the
//!   table's first few entries — the `set_count`/`read_count` idiom. The
//!   promotion scanner reads a table's population without sweeping it.
//! * Per-giant-chunk per-rung occupancy totals are kept in a side array,
//!   making a top-rung [`PageTable::chunk_profile`] O(1) — it was a full
//!   mid-level sweep per fault in the promotion-eligibility hot path.
//! * The dirty-chunk feed is a packed bitmap ([`DenseBitSet`]) drained in
//!   place, not a `BTreeSet` that is rebuilt every promotion tick.

use std::cell::Cell;

use trident_types::{DenseBitSet, PageGeometry, PageSize, Pfn, Vpn, MAX_RUNGS};

use crate::{MapError, RawPte};

/// The result of walking the page table for one virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The frame that backs the *queried* base page.
    pub pfn: Pfn,
    /// The size of the leaf that produced the translation.
    pub size: PageSize,
    /// First virtual page of the leaf mapping.
    pub head_vpn: Vpn,
    /// First frame of the leaf mapping.
    pub head_pfn: Pfn,
}

/// A leaf mapping as enumerated by scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingRecord {
    /// First virtual page of the mapping.
    pub vpn: Vpn,
    /// First frame of the mapping.
    pub pfn: Pfn,
    /// Leaf size.
    pub size: PageSize,
    /// Accessed bit at scan time.
    pub accessed: bool,
    /// Dirty bit at scan time.
    pub dirty: bool,
}

/// Summary of how an aligned virtual chunk is currently mapped, used by the
/// promotion scanner (Figure 5) to decide whether a chunk is worth
/// promoting. All counts are in base pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkProfile {
    /// Base pages mapped by leaves of each rung, indexed by
    /// [`PageSize::rung`].
    pub mapped: [u64; MAX_RUNGS],
    /// Base pages with no mapping.
    pub unmapped: u64,
}

impl ChunkProfile {
    /// Total base pages mapped by any leaf size.
    #[must_use]
    pub fn mapped_total(&self) -> u64 {
        self.mapped.iter().sum()
    }

    /// Base pages mapped by leaves of exactly `size`.
    #[must_use]
    pub fn mapped_at(&self, size: PageSize) -> u64 {
        self.mapped[size.rung()]
    }

    /// Base pages mapped by leaves strictly smaller than `size`.
    #[must_use]
    pub fn mapped_below(&self, size: PageSize) -> u64 {
        self.mapped[..size.rung()].iter().sum()
    }
}

/// Per-giant-chunk base-page totals by rung, maintained on map/unmap so
/// the promotion scanner's top-rung chunk profile never sweeps the mid
/// level. The top rung itself is not counted: a top-rung leaf occupies
/// the PUD slot and short-circuits profiling.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkCounts {
    mapped: [u32; MAX_RUNGS],
}

/// An arena of equal-length entry tables packed into one contiguous
/// store, addressed by table index. Growing appends one table's worth of
/// zeroed entries to the store (amortized — no per-table heap
/// allocation), and freed tables are zeroed eagerly and recycled through
/// the free list, so steady-state churn allocates nothing.
#[derive(Debug, Clone, Default)]
struct TableArena {
    store: Vec<RawPte>,
    /// Entries per table; every table in one arena has the same length.
    len: usize,
    free: Vec<u32>,
}

impl TableArena {
    fn alloc(&mut self, len: usize) -> u32 {
        if let Some(idx) = self.free.pop() {
            return idx;
        }
        debug_assert!(self.store.is_empty() || self.len == len);
        self.len = len;
        let idx = self.store.len() / len;
        self.store
            .resize(self.store.len() + len, RawPte::NOT_PRESENT);
        u32::try_from(idx).expect("table arena index fits u32")
    }

    fn free(&mut self, idx: u32) {
        self.get_mut(idx).fill(RawPte::NOT_PRESENT);
        self.free.push(idx);
    }

    #[cfg(test)]
    fn num_tables(&self) -> usize {
        self.store.len().checked_div(self.len).unwrap_or(0)
    }

    fn get(&self, idx: u32) -> &[RawPte] {
        let base = idx as usize * self.len;
        &self.store[base..base + self.len]
    }

    fn get_mut(&mut self, idx: u32) -> &mut [RawPte] {
        let base = idx as usize * self.len;
        &mut self.store[base..base + self.len]
    }
}

/// A per-address-space page table.
///
/// # Examples
///
/// ```
/// use trident_types::{PageGeometry, PageSize, Pfn, Vpn};
/// use trident_vm::PageTable;
///
/// let geo = PageGeometry::TINY;
/// let mut pt = PageTable::new(geo);
/// let huge = PageSize::new(1);
/// pt.map(Vpn::new(8), Pfn::new(16), huge)?;
/// assert_eq!(pt.mapped_pages(huge), 1);
/// let old = pt.remap(Vpn::new(8), Pfn::new(32))?;
/// assert_eq!(old, Pfn::new(16));
/// # Ok::<(), trident_vm::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    geo: PageGeometry,
    /// Dense PUD directory indexed by giant-chunk index. `NOT_PRESENT`
    /// means nothing mapped in the chunk; a leaf entry maps the whole
    /// chunk; a `TABLE`-tagged entry holds a `pmds` arena index.
    puds: Vec<RawPte>,
    /// Parallel to `puds`: per-chunk per-rung occupancy totals.
    chunk_counts: Vec<ChunkCounts>,
    /// Mid-level (PMD) table arena.
    pmds: TableArena,
    /// Leaf-level (PTE) table arena.
    ptes: TableArena,
    /// Number of leaves of each rung (indexed by [`PageSize::rung`]).
    leaves: [u64; MAX_RUNGS],
    /// Whether the ladder has group rungs at the PTE level — when false
    /// (x86), leaf-table occupancy can be read from the packed count
    /// instead of sweeping for rung tags.
    l1_groups: bool,
    /// Giant-chunk indices whose mappings (or covering VMAs) changed since
    /// the last [`PageTable::drain_dirty_chunks_into`] call — the promotion
    /// daemon's incremental work list.
    dirty_chunks: DenseBitSet,
    /// Bumped on every mutation that could stale [`PageTable::last_walk`]:
    /// unmap, remap, and accessed-bit clearing. (`map` never alters an
    /// existing leaf — it errors on overlap — so it leaves the stamp
    /// alone.)
    walk_stamp: u64,
    /// Walk constants, computed once from the geometry.
    shape: Shape,
    /// Software walker cache: the last leaf a walk resolved, so the hot
    /// sampling loop skips the radix descent for repeated hits. Interior
    /// mutability keeps `translate` a `&self` walk.
    last_walk: Cell<Option<WalkerHit>>,
}

/// What a walk needs of the geometry, computed once per table so that
/// walks and index helpers never call into [`PageGeometry`].
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// log2 of the base pages a PUD entry covers.
    pud_shift: u32,
    /// log2 of the base pages a PMD entry covers.
    pmd_shift: u32,
    /// Entries per PMD table, minus one.
    pmd_mask: u64,
    /// Entries per PTE table, minus one.
    pte_mask: u64,
    /// The natural rung of each table level, indexed by level (1–3;
    /// index 0 is unused).
    natural: [PageSize; 4],
    /// Base pages per leaf of each rung, indexed by [`PageSize::rung`].
    rung_pages: [u64; MAX_RUNGS],
}

impl Shape {
    fn new(geo: PageGeometry) -> Shape {
        let pud_shift = u32::from(geo.level_order(3));
        let pmd_shift = u32::from(geo.level_order(2));
        let mut natural = [PageSize::BASE; 4];
        for level in 1..=3u8 {
            natural[usize::from(level)] = geo
                .size_for_order(geo.level_order(level))
                .expect("every table level has a natural rung on the ladder");
        }
        let mut rung_pages = [0; MAX_RUNGS];
        for size in geo.rungs() {
            rung_pages[size.rung()] = geo.base_pages(size);
        }
        Shape {
            pud_shift,
            pmd_shift,
            pmd_mask: (1 << (pud_shift - pmd_shift)) - 1,
            pte_mask: (1 << pmd_shift) - 1,
            natural,
            rung_pages,
        }
    }

    /// The rung of a *natural* leaf at table `level` — every shipped
    /// ladder has a rung at each level's natural order.
    fn natural_rung(&self, level: u8) -> PageSize {
        self.natural[usize::from(level)]
    }

    /// The rung a present leaf entry at `level` belongs to: its group tag
    /// if it is a member of a NAPOT/contiguous span, the level's natural
    /// rung otherwise.
    fn entry_size(&self, entry: RawPte, level: u8) -> PageSize {
        match entry.group_rung() {
            Some(rung) => PageSize::new(rung),
            None => self.natural_rung(level),
        }
    }

    /// Base pages per leaf of `size`.
    fn rung_pages(&self, size: PageSize) -> u64 {
        self.rung_pages[size.rung()]
    }

    fn giant_index(&self, vpn: Vpn) -> u64 {
        vpn.raw() >> self.pud_shift
    }

    fn pmd_index(&self, vpn: Vpn) -> usize {
        ((vpn.raw() >> self.pmd_shift) & self.pmd_mask) as usize
    }

    fn pte_index(&self, vpn: Vpn) -> usize {
        (vpn.raw() & self.pte_mask) as usize
    }

    /// The head page of the `size` leaf covering `vpn`.
    fn leaf_head(&self, vpn: Vpn, size: PageSize) -> Vpn {
        Vpn::new(vpn.raw() & !(self.rung_pages(size) - 1))
    }
}

/// The walker-cache entry: one leaf plus the flag state already written to
/// it, validated against [`PageTable::walk_stamp`].
#[derive(Debug, Clone, Copy)]
struct WalkerHit {
    head_vpn: Vpn,
    head_pfn: Pfn,
    pages: u64,
    size: PageSize,
    stamp: u64,
    accessed: bool,
    dirty: bool,
}

impl WalkerHit {
    fn covers(&self, vpn: Vpn, stamp: u64) -> bool {
        self.stamp == stamp && vpn >= self.head_vpn && vpn.raw() - self.head_vpn.raw() < self.pages
    }

    fn translation(&self, vpn: Vpn) -> Translation {
        Translation {
            pfn: self.head_pfn + (vpn - self.head_vpn),
            size: self.size,
            head_vpn: self.head_vpn,
            head_pfn: self.head_pfn,
        }
    }
}

/// The translation of `vpn` through the `size` leaf headed at `head_vpn`
/// whose head entry is `head`.
fn leaf_translation(vpn: Vpn, head_vpn: Vpn, head: RawPte, size: PageSize) -> Translation {
    Translation {
        pfn: head.pfn() + (vpn - head_vpn),
        size,
        head_vpn,
        head_pfn: head.pfn(),
    }
}

/// How many leading entries of a `len`-entry table carry occupancy-count
/// bits: enough bits for counts `0..=len`, never more than the table has.
fn count_bits(len: usize) -> usize {
    (len.trailing_zeros() as usize + 1).min(len)
}

/// Reads a table's occupancy count out of the available bits of its first
/// few entries (twizzler-style `read_count`).
fn read_count(entries: &[RawPte]) -> u32 {
    let mut count = 0u32;
    for (bit, entry) in entries.iter().take(count_bits(entries.len())).enumerate() {
        count |= u32::from(entry.avail_bit()) << bit;
    }
    count
}

/// Writes a table's occupancy count into the available bits of its first
/// few entries (twizzler-style `set_count`). Must run after any structural
/// entry overwrite, which may have clobbered a count bit.
fn write_count(entries: &mut [RawPte], count: u32) {
    let bits = count_bits(entries.len());
    for (bit, entry) in entries.iter_mut().take(bits).enumerate() {
        entry.set_avail_bit(count & (1 << bit) != 0);
    }
}

impl PageTable {
    /// Creates an empty page table for the given geometry.
    #[must_use]
    pub fn new(geo: PageGeometry) -> PageTable {
        let l1_groups = geo.rungs().any(|s| geo.is_group(s) && geo.level(s) == 1);
        PageTable {
            geo,
            puds: Vec::new(),
            chunk_counts: Vec::new(),
            pmds: TableArena::default(),
            ptes: TableArena::default(),
            leaves: [0; MAX_RUNGS],
            l1_groups,
            dirty_chunks: DenseBitSet::new(),
            walk_stamp: 0,
            shape: Shape::new(geo),
            last_walk: Cell::new(None),
        }
    }

    /// The geometry this table was created with.
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        self.geo
    }

    fn pmd_len(&self) -> usize {
        self.shape.pmd_mask as usize + 1
    }

    fn pte_len(&self) -> usize {
        self.shape.pte_mask as usize + 1
    }

    /// Grows the dense PUD directory to cover `gi`, returning it as an
    /// index.
    fn ensure_gi(&mut self, gi: u64) -> usize {
        let gi = usize::try_from(gi).expect("giant index fits usize");
        if gi >= self.puds.len() {
            self.puds.resize(gi + 1, RawPte::NOT_PRESENT);
            self.chunk_counts.resize(gi + 1, ChunkCounts::default());
        }
        gi
    }

    /// Marks every giant chunk overlapping `[start, start + pages)` dirty —
    /// called on mapping changes here and by the address space when a VMA
    /// appears, grows, or shrinks (which changes chunk mappability without
    /// touching any PTE).
    pub fn mark_span_dirty(&mut self, start: Vpn, pages: u64) {
        if pages == 0 {
            return;
        }
        let first = self.shape.giant_index(start);
        let last = self.shape.giant_index(start + (pages - 1));
        for gi in first..=last {
            self.dirty_chunks.insert(gi);
        }
    }

    /// Drains the set of giant-chunk indices touched since the last drain
    /// into `out` (cleared first), in address order, keeping both the
    /// bitmap's and the buffer's storage. The promotion daemon uses this
    /// to re-examine only chunks whose candidacy could have changed.
    pub fn drain_dirty_chunks_into(&mut self, out: &mut Vec<u64>) {
        self.dirty_chunks.drain_into(out);
    }

    fn invalidate_walks(&mut self) {
        self.walk_stamp = self.walk_stamp.wrapping_add(1);
    }

    /// Number of leaves of the given size currently installed. A group
    /// leaf counts once, not once per member entry.
    #[must_use]
    pub fn mapped_pages(&self, size: PageSize) -> u64 {
        self.leaves[size.rung()]
    }

    /// Total mapped memory in base pages.
    #[must_use]
    pub fn mapped_base_pages(&self) -> u64 {
        self.geo
            .rungs()
            .map(|s| self.leaves[s.rung()] * self.geo.base_pages(s))
            .sum()
    }

    /// Total mapped memory in bytes attributable to leaves of `size`.
    #[must_use]
    pub fn mapped_bytes(&self, size: PageSize) -> u64 {
        self.leaves[size.rung()] * self.geo.bytes(size)
    }

    /// Installs a leaf of `size` mapping `vpn.. → pfn..`.
    ///
    /// Natural rungs install a single entry at their level; group rungs
    /// (NAPOT / contiguous spans) install `group_span` adjacent tagged
    /// entries, each pointing at its own frame, exactly as the underlying
    /// hardware lays them out.
    ///
    /// # Errors
    ///
    /// * [`MapError::Unaligned`] — `vpn` or `pfn` is not `size`-aligned.
    /// * [`MapError::Overlap`] — any base page of the span is already
    ///   mapped.
    pub fn map(&mut self, vpn: Vpn, pfn: Pfn, size: PageSize) -> Result<(), MapError> {
        if !self.geo.is_page_aligned(vpn.raw(), size) || !self.geo.is_page_aligned(pfn.raw(), size)
        {
            return Err(MapError::Unaligned { vpn, size });
        }
        let class = self.geo.class(size);
        let span = self.geo.group_span(size) as usize;
        let rung_tag = self.geo.is_group(size).then_some(size.rung());
        let gi = self.shape.giant_index(vpn);
        let gix = self.ensure_gi(gi);
        match class.level {
            3 => {
                assert!(
                    rung_tag.is_none(),
                    "group rungs above level 2 are not supported"
                );
                if self.puds[gix].is_present() {
                    return Err(MapError::Overlap { vpn });
                }
                self.puds[gix] = RawPte::new_leaf(pfn);
            }
            2 => {
                let pi = self.shape.pmd_index(vpn);
                let pmd_idx = self.pud_table_index(gix, vpn)?;
                let table = self.pmds.get_mut(pmd_idx);
                if table[pi..pi + span].iter().any(|entry| entry.is_present()) {
                    return Err(MapError::Overlap { vpn });
                }
                let level_span = 1u64 << self.geo.level_order(2);
                let live = read_count(table);
                for k in 0..span {
                    let mut leaf = RawPte::new_leaf(pfn + (k as u64) * level_span);
                    if let Some(rung) = rung_tag {
                        leaf.set_group_rung(rung);
                    }
                    table[pi + k] = leaf;
                }
                write_count(table, live + span as u32);
                self.chunk_counts[gix].mapped[size.rung()] += self.geo.base_pages(size) as u32;
            }
            _ => {
                let pi = self.shape.pmd_index(vpn);
                let ti = self.shape.pte_index(vpn);
                let pmd_idx = self.pud_table_index(gix, vpn)?;
                let entry = self.pmds.get(pmd_idx)[pi];
                let pte_idx = if entry.is_present() {
                    if !entry.is_table() {
                        return Err(MapError::Overlap { vpn });
                    }
                    entry.table_index()
                } else {
                    let pte_len = self.pte_len();
                    let idx = self.ptes.alloc(pte_len);
                    let table = self.pmds.get_mut(pmd_idx);
                    let live = read_count(table);
                    table[pi] = RawPte::table_ptr(idx);
                    write_count(table, live + 1);
                    idx
                };
                // Group-rung alignment keeps the span inside one table:
                // a level-1 group's order is below the level-2 order.
                let table = self.ptes.get_mut(pte_idx);
                if table[ti..ti + span].iter().any(|pte| pte.is_present()) {
                    return Err(MapError::Overlap { vpn });
                }
                let live = read_count(table);
                for (k, slot) in table[ti..ti + span].iter_mut().enumerate() {
                    let mut leaf = RawPte::new_leaf(pfn + k as u64);
                    if let Some(rung) = rung_tag {
                        leaf.set_group_rung(rung);
                    }
                    *slot = leaf;
                }
                write_count(table, live + span as u32);
                self.chunk_counts[gix].mapped[size.rung()] += self.geo.base_pages(size) as u32;
            }
        }
        self.leaves[size.rung()] += 1;
        self.dirty_chunks.insert(gi);
        Ok(())
    }

    /// How many consecutive base pages from `vpn` are unmapped, counting
    /// at most `max` — the longest run [`map_run`](Self::map_run) can
    /// install there at the base rung. The count crosses leaf-table and
    /// mid-level-table boundaries: it stops at a present PTE, at a leaf
    /// PMD or PUD entry, or at `max`.
    #[must_use]
    pub fn unmapped_run(&self, vpn: Vpn, max: u64) -> u64 {
        let Shape {
            pud_shift,
            pmd_shift,
            pte_mask,
            ..
        } = self.shape;
        let mut run = 0;
        while run < max {
            let page = vpn.raw() + run;
            let gi = page >> pud_shift;
            let Some(&slot) = self
                .puds
                .get(usize::try_from(gi).expect("giant index fits usize"))
            else {
                // Past the dense directory nothing is mapped.
                return max;
            };
            if !slot.is_present() {
                run += ((gi + 1) << pud_shift) - page;
                continue;
            }
            if !slot.is_table() {
                break;
            }
            let entry = self.pmds.get(slot.table_index())[self.shape.pmd_index(Vpn::new(page))];
            let table_end = ((page >> pmd_shift) + 1) << pmd_shift;
            if !entry.is_present() {
                run += table_end - page;
                continue;
            }
            if !entry.is_table() {
                break;
            }
            let ti = (page & pte_mask) as usize;
            let want = (table_end - page).min(max - run);
            let window = &self.ptes.get(entry.table_index())[ti..ti + want as usize];
            let free = window.iter().take_while(|pte| !pte.is_present()).count() as u64;
            run += free;
            if free < want {
                break;
            }
        }
        run.min(max)
    }

    /// Installs leaves of `size` mapping chunk `i` of the run at `vpn` to
    /// `frames[i]` — the batched form of one [`map`](Self::map) per frame,
    /// leaving the same table state. The run may cross leaf-table and
    /// mid-level-table boundaries.
    ///
    /// * Base pages: each leaf table's PTEs are written, then its
    ///   occupancy count; each mid-level table's count, its chunk's
    ///   per-rung total and the dirty-chunk bit are then updated once.
    /// * Natural level-2 leaves: each mid-level table's entries are
    ///   written, then its count, its chunk's total and the dirty bit,
    ///   once per table.
    /// * Any other rung: one `map` per chunk.
    ///
    /// # Errors
    ///
    /// Nothing is changed on an error.
    /// * [`MapError::Unaligned`] — `vpn` or a frame is not `size`-aligned.
    /// * [`MapError::Overlap`] — a page of the run is already mapped.
    pub fn map_run(&mut self, vpn: Vpn, frames: &[Pfn], size: PageSize) -> Result<(), MapError> {
        let n = frames.len() as u64;
        if n == 0 {
            return Ok(());
        }
        if size.is_base() {
            if self.unmapped_run(vpn, n) != n {
                return Err(MapError::Overlap { vpn });
            }
            self.map_base_run(vpn, frames);
            return Ok(());
        }
        let pages = self.shape.rung_pages(size);
        if !vpn.raw().is_multiple_of(pages)
            || frames.iter().any(|pfn| !pfn.raw().is_multiple_of(pages))
        {
            return Err(MapError::Unaligned { vpn, size });
        }
        if size == self.shape.natural_rung(2) {
            if !(0..n).all(|i| self.level2_slot_is_free(vpn + i * pages)) {
                return Err(MapError::Overlap { vpn });
            }
            self.map_level2_run(vpn, frames, size);
            return Ok(());
        }
        if (0..n).any(|i| self.chunk_profile(vpn + i * pages, size).mapped_total() != 0) {
            return Err(MapError::Overlap { vpn });
        }
        for (i, &pfn) in (0..).zip(frames) {
            self.map(vpn + i * pages, pfn, size)?;
        }
        Ok(())
    }

    /// Writes a base-page run that [`unmapped_run`](Self::unmapped_run)
    /// found free, one mid-level table at a time. Tables are allocated in
    /// address order, as one `map` per page allocates them.
    fn map_base_run(&mut self, vpn: Vpn, frames: &[Pfn]) {
        let mut done = 0;
        while done < frames.len() {
            let first = vpn + done as u64;
            let gi = self.shape.giant_index(first);
            let gix = self.ensure_gi(gi);
            let pmd_idx = self
                .pud_table_index(gix, first)
                .expect("the run was checked unmapped");
            // Read the count before table pointers overwrite its bits.
            let pmd_live = read_count(self.pmds.get(pmd_idx));
            let mut new_tables = 0;
            let start = done;
            for pi in self.shape.pmd_index(first)..self.pmd_len() {
                if done == frames.len() {
                    break;
                }
                let entry = self.pmds.get(pmd_idx)[pi];
                let pte_idx = if entry.is_present() {
                    entry.table_index()
                } else {
                    let idx = self.ptes.alloc(self.pte_len());
                    self.pmds.get_mut(pmd_idx)[pi] = RawPte::table_ptr(idx);
                    new_tables += 1;
                    idx
                };
                let ti = self.shape.pte_index(vpn + done as u64);
                let k = (self.pte_len() - ti).min(frames.len() - done);
                let table = self.ptes.get_mut(pte_idx);
                let live = read_count(table);
                for (slot, &pfn) in table[ti..ti + k].iter_mut().zip(&frames[done..]) {
                    *slot = RawPte::new_leaf(pfn);
                }
                write_count(table, live + k as u32);
                done += k;
            }
            if new_tables > 0 {
                write_count(self.pmds.get_mut(pmd_idx), pmd_live + new_tables);
            }
            self.chunk_counts[gix].mapped[PageSize::BASE.rung()] += (done - start) as u32;
            self.dirty_chunks.insert(gi);
        }
        self.leaves[PageSize::BASE.rung()] += frames.len() as u64;
    }

    /// Whether `map` would accept a natural level-2 leaf at `vpn`: no PUD
    /// leaf covers it, and its PMD slot is empty.
    fn level2_slot_is_free(&self, vpn: Vpn) -> bool {
        let gi = usize::try_from(self.shape.giant_index(vpn)).expect("giant index fits usize");
        let Some(&slot) = self.puds.get(gi) else {
            return true;
        };
        if !slot.is_present() {
            return true;
        }
        if !slot.is_table() {
            return false;
        }
        !self.pmds.get(slot.table_index())[self.shape.pmd_index(vpn)].is_present()
    }

    /// Writes a run of natural level-2 leaves whose slots are free, one
    /// mid-level table at a time.
    fn map_level2_run(&mut self, vpn: Vpn, frames: &[Pfn], size: PageSize) {
        let pages = self.shape.rung_pages(size);
        let mut done = 0;
        while done < frames.len() {
            let first = vpn + done as u64 * pages;
            let gi = self.shape.giant_index(first);
            let gix = self.ensure_gi(gi);
            let pmd_idx = self
                .pud_table_index(gix, first)
                .expect("the run was checked free");
            let lo = self.shape.pmd_index(first);
            let k = (self.pmd_len() - lo).min(frames.len() - done);
            let table = self.pmds.get_mut(pmd_idx);
            let live = read_count(table);
            for (slot, &pfn) in table[lo..lo + k].iter_mut().zip(&frames[done..]) {
                *slot = RawPte::new_leaf(pfn);
            }
            write_count(table, live + k as u32);
            self.chunk_counts[gix].mapped[size.rung()] += (k as u64 * pages) as u32;
            self.dirty_chunks.insert(gi);
            done += k;
        }
        self.leaves[size.rung()] += frames.len() as u64;
    }

    /// Resolves (materializing if absent) the mid-level table for PUD slot
    /// `gix`, erroring when the slot holds a giant leaf.
    fn pud_table_index(&mut self, gix: usize, vpn: Vpn) -> Result<u32, MapError> {
        let slot = self.puds[gix];
        if !slot.is_present() {
            let pmd_len = self.pmd_len();
            let idx = self.pmds.alloc(pmd_len);
            self.puds[gix] = RawPte::table_ptr(idx);
            return Ok(idx);
        }
        if slot.is_table() {
            Ok(slot.table_index())
        } else {
            Err(MapError::Overlap { vpn })
        }
    }

    /// Walks the table for `vpn` without touching accessed/dirty bits.
    #[must_use]
    pub fn translate(&self, vpn: Vpn) -> Option<Translation> {
        if let Some(hit) = self.last_walk.get() {
            if hit.covers(vpn, self.walk_stamp) {
                return Some(hit.translation(vpn));
            }
        }
        let (translation, head) = self.walk(vpn)?;
        self.remember(translation, head);
        Some(translation)
    }

    /// One radix descent for `vpn`: its translation and the head entry of
    /// the covering leaf. A group leaf's A/D state and head frame live on
    /// its head member entry, which (by alignment) is in the same table as
    /// every other member.
    fn walk(&self, vpn: Vpn) -> Option<(Translation, RawPte)> {
        let shape = &self.shape;
        let gi = usize::try_from(shape.giant_index(vpn)).expect("giant index fits usize");
        let slot = *self.puds.get(gi)?;
        if !slot.is_present() {
            return None;
        }
        if !slot.is_table() {
            let size = shape.natural_rung(3);
            let translation = leaf_translation(vpn, shape.leaf_head(vpn, size), slot, size);
            return Some((translation, slot));
        }
        let pmd = self.pmds.get(slot.table_index());
        let entry = pmd[shape.pmd_index(vpn)];
        if !entry.is_present() {
            return None;
        }
        if !entry.is_table() {
            let size = shape.entry_size(entry, 2);
            let head_vpn = shape.leaf_head(vpn, size);
            let head = pmd[shape.pmd_index(head_vpn)];
            return Some((leaf_translation(vpn, head_vpn, head, size), head));
        }
        let table = self.ptes.get(entry.table_index());
        let pte = table[shape.pte_index(vpn)];
        if !pte.is_present() {
            return None;
        }
        let size = shape.entry_size(pte, 1);
        let head_vpn = shape.leaf_head(vpn, size);
        let head = table[shape.pte_index(head_vpn)];
        Some((leaf_translation(vpn, head_vpn, head, size), head))
    }

    /// [`walk`](Self::walk) for a writer: the same descent, handing out the
    /// head entry in place so the caller updates it without indexing the
    /// table again.
    fn walk_mut(&mut self, vpn: Vpn) -> Option<(Translation, &mut RawPte)> {
        let shape = &self.shape;
        let gi = usize::try_from(shape.giant_index(vpn)).expect("giant index fits usize");
        let slot = *self.puds.get(gi)?;
        if !slot.is_present() {
            return None;
        }
        if !slot.is_table() {
            let size = shape.natural_rung(3);
            let translation = leaf_translation(vpn, shape.leaf_head(vpn, size), slot, size);
            return Some((translation, &mut self.puds[gi]));
        }
        let pmd = self.pmds.get_mut(slot.table_index());
        let entry = pmd[shape.pmd_index(vpn)];
        if !entry.is_present() {
            return None;
        }
        if !entry.is_table() {
            let size = shape.entry_size(entry, 2);
            let head_vpn = shape.leaf_head(vpn, size);
            let head = &mut pmd[shape.pmd_index(head_vpn)];
            return Some((leaf_translation(vpn, head_vpn, *head, size), head));
        }
        let table = self.ptes.get_mut(entry.table_index());
        let pte = table[shape.pte_index(vpn)];
        if !pte.is_present() {
            return None;
        }
        let size = shape.entry_size(pte, 1);
        let head_vpn = shape.leaf_head(vpn, size);
        let head = &mut table[shape.pte_index(head_vpn)];
        Some((leaf_translation(vpn, head_vpn, *head, size), head))
    }

    /// Caches `translation`'s leaf, with the flags of its head entry
    /// `head`, as the walker-cache entry.
    fn remember(&self, translation: Translation, head: RawPte) {
        self.last_walk.set(Some(WalkerHit {
            head_vpn: translation.head_vpn,
            head_pfn: translation.head_pfn,
            pages: self.shape.rung_pages(translation.size),
            size: translation.size,
            stamp: self.walk_stamp,
            accessed: head.accessed(),
            dirty: head.dirty(),
        }));
    }

    /// Walks the table for `vpn` like the hardware does on a TLB miss,
    /// setting the accessed bit (and the dirty bit for writes) on the
    /// covering leaf's head entry.
    pub fn access(&mut self, vpn: Vpn, write: bool) -> Option<Translation> {
        // Walker-cache fast path: when the covering leaf already carries
        // the flags this access would set, no table walk is needed at all.
        if let Some(hit) = self.last_walk.get() {
            if hit.covers(vpn, self.walk_stamp) && hit.accessed && (!write || hit.dirty) {
                return Some(hit.translation(vpn));
            }
        }
        let (translation, head) = self.walk_mut(vpn)?;
        head.mark_used(write);
        let head = *head;
        // The cache now holds this leaf with the flags just written — what
        // a walk after the write would have cached.
        self.remember(translation, head);
        Some(translation)
    }

    /// Removes the leaf headed exactly at `head_vpn`, returning its record.
    ///
    /// # Errors
    ///
    /// * [`MapError::NotMapped`] — nothing is mapped at `head_vpn`.
    /// * [`MapError::NotAMappingHead`] — `head_vpn` lies inside a larger
    ///   leaf.
    pub fn unmap(&mut self, head_vpn: Vpn) -> Result<MappingRecord, MapError> {
        let translation = self
            .translate(head_vpn)
            .ok_or(MapError::NotMapped { vpn: head_vpn })?;
        if translation.head_vpn != head_vpn {
            return Err(MapError::NotAMappingHead { vpn: head_vpn });
        }
        let size = translation.size;
        let class = self.geo.class(size);
        let span = self.geo.group_span(size) as u32;
        let gi = self.shape.giant_index(head_vpn);
        let gix = usize::try_from(gi).expect("giant index fits usize");
        let pmd_index = self.shape.pmd_index(head_vpn);
        let pte_index = self.shape.pte_index(head_vpn);
        let record;
        match class.level {
            3 => {
                let pte = self.puds[gix];
                debug_assert!(pte.is_present() && !pte.is_table());
                self.puds[gix] = RawPte::NOT_PRESENT;
                record = Self::record(head_vpn, pte, size);
            }
            2 => {
                let pmd_idx = self.puds[gix].table_index();
                let table = self.pmds.get_mut(pmd_idx);
                let pte = table[pmd_index];
                let live = read_count(table);
                for slot in &mut table[pmd_index..pmd_index + span as usize] {
                    *slot = RawPte::NOT_PRESENT;
                }
                if live == span {
                    self.pmds.free(pmd_idx);
                    self.puds[gix] = RawPte::NOT_PRESENT;
                } else {
                    write_count(table, live - span);
                }
                self.chunk_counts[gix].mapped[size.rung()] -= self.geo.base_pages(size) as u32;
                record = Self::record(head_vpn, pte, size);
            }
            _ => {
                let pmd_idx = self.puds[gix].table_index();
                let pte_idx = self.pmds.get(pmd_idx)[pmd_index].table_index();
                let table = self.ptes.get_mut(pte_idx);
                let pte = table[pte_index];
                let live = read_count(table);
                for slot in &mut table[pte_index..pte_index + span as usize] {
                    *slot = RawPte::NOT_PRESENT;
                }
                if live == span {
                    self.ptes.free(pte_idx);
                    let pmd = self.pmds.get_mut(pmd_idx);
                    let pmd_live = read_count(pmd);
                    pmd[pmd_index] = RawPte::NOT_PRESENT;
                    if pmd_live == 1 {
                        self.pmds.free(pmd_idx);
                        self.puds[gix] = RawPte::NOT_PRESENT;
                    } else {
                        write_count(pmd, pmd_live - 1);
                    }
                } else {
                    write_count(table, live - span);
                }
                self.chunk_counts[gix].mapped[size.rung()] -= self.geo.base_pages(size) as u32;
                record = Self::record(head_vpn, pte, size);
            }
        }
        self.leaves[size.rung()] -= 1;
        self.dirty_chunks.insert(gi);
        self.invalidate_walks();
        Ok(record)
    }

    fn record(vpn: Vpn, pte: RawPte, size: PageSize) -> MappingRecord {
        MappingRecord {
            vpn,
            pfn: pte.pfn(),
            size,
            accessed: pte.accessed(),
            dirty: pte.dirty(),
        }
    }

    /// Repoints the leaf headed at `head_vpn` to `new_head_pfn`, preserving
    /// flags, and returns the old head frame. Used by migration and by
    /// Trident_pv's copy-less exchange. For a group leaf, every member
    /// entry is repointed to its offset within the new span.
    ///
    /// # Errors
    ///
    /// * [`MapError::NotMapped`] / [`MapError::NotAMappingHead`] — as for
    ///   [`PageTable::unmap`].
    /// * [`MapError::Unaligned`] — `new_head_pfn` is not aligned for the
    ///   leaf's size.
    pub fn remap(&mut self, head_vpn: Vpn, new_head_pfn: Pfn) -> Result<Pfn, MapError> {
        let translation = self
            .translate(head_vpn)
            .ok_or(MapError::NotMapped { vpn: head_vpn })?;
        if translation.head_vpn != head_vpn {
            return Err(MapError::NotAMappingHead { vpn: head_vpn });
        }
        if !self
            .geo
            .is_page_aligned(new_head_pfn.raw(), translation.size)
        {
            return Err(MapError::Unaligned {
                vpn: head_vpn,
                size: translation.size,
            });
        }
        let size = translation.size;
        let span = self.geo.group_span(size);
        let old = translation.head_pfn;
        if span == 1 {
            let (_, head) = self.walk_mut(head_vpn).expect("translation implies leaf");
            head.set_pfn(new_head_pfn);
        } else {
            let level_span = 1u64 << self.geo.level_order(self.geo.level(size));
            for k in 0..span {
                let member_vpn = head_vpn + k * level_span;
                let pte = self
                    .member_mut(member_vpn, self.geo.level(size))
                    .expect("translation implies every group member is present");
                pte.set_pfn(new_head_pfn + k * level_span);
            }
        }
        self.invalidate_walks();
        Ok(old)
    }

    /// Mutable access to the entry at `vpn`'s slot at `level` — used to
    /// reach the member entries of a group leaf, which a walk (head
    /// resolution) cannot address individually.
    fn member_mut(&mut self, vpn: Vpn, level: u8) -> Option<&mut RawPte> {
        let gi = usize::try_from(self.shape.giant_index(vpn)).expect("giant index fits usize");
        let pmd_index = self.shape.pmd_index(vpn);
        let pte_index = self.shape.pte_index(vpn);
        let slot = *self.puds.get(gi)?;
        if !slot.is_present() || !slot.is_table() {
            return None;
        }
        if level == 2 {
            let entry = &mut self.pmds.get_mut(slot.table_index())[pmd_index];
            return (entry.is_present() && !entry.is_table()).then_some(entry);
        }
        let entry = self.pmds.get(slot.table_index())[pmd_index];
        if !entry.is_present() || !entry.is_table() {
            return None;
        }
        let pte = &mut self.ptes.get_mut(entry.table_index())[pte_index];
        pte.is_present().then_some(pte)
    }

    /// Enumerates all leaves whose head lies in `[start, start + pages)`.
    ///
    /// Leaves that straddle the window boundary (a giant leaf around a
    /// smaller window) are *not* reported; scan windows should be aligned
    /// to the largest page size of interest.
    #[must_use]
    pub fn mappings_in(&self, start: Vpn, pages: u64) -> Vec<MappingRecord> {
        let mut out = Vec::new();
        self.for_each_leaf_in(start, pages, |vpn, pte, size| {
            out.push(Self::record(vpn, pte, size));
        });
        out
    }

    /// Visits every leaf headed in `[start, start + pages)` in address
    /// order by walking the packed radix directly — no per-page translate,
    /// no allocation. A group leaf is visited once, at its head entry;
    /// member entries are skipped.
    fn for_each_leaf_in(
        &self,
        start: Vpn,
        pages: u64,
        mut visit: impl FnMut(Vpn, RawPte, PageSize),
    ) {
        if pages == 0 {
            return;
        }
        let start = start.raw();
        let end = start + pages;
        let giant_span = 1u64 << self.geo.level_order(3);
        let huge_span = 1u64 << self.geo.level_order(2);
        let top = self.shape.natural_rung(3);
        let first_gi = start / giant_span;
        let last_gi = (end - 1) / giant_span;
        for gi in first_gi..=last_gi {
            let Some(&slot) = self
                .puds
                .get(usize::try_from(gi).expect("giant index fits usize"))
            else {
                // The dense directory covers every mapped chunk; past its
                // end there is nothing left to visit.
                return;
            };
            if !slot.is_present() {
                continue;
            }
            let chunk_base = gi * giant_span;
            if !slot.is_table() {
                if chunk_base >= start {
                    visit(Vpn::new(chunk_base), slot, top);
                }
                continue;
            }
            let pmd = self.pmds.get(slot.table_index());
            let chunk_end = chunk_base + giant_span;
            let pi_lo = (start.max(chunk_base) - chunk_base) / huge_span;
            let pi_hi = (end.min(chunk_end) - 1 - chunk_base) / huge_span;
            for pi in pi_lo..=pi_hi {
                let entry = pmd[pi as usize];
                if !entry.is_present() {
                    continue;
                }
                let head = chunk_base + pi * huge_span;
                if !entry.is_table() {
                    let size = self.shape.entry_size(entry, 2);
                    // Only the head member of a group leaf reports it.
                    if self.shape.leaf_head(Vpn::new(head), size).raw() == head && head >= start {
                        visit(Vpn::new(head), entry, size);
                    }
                    continue;
                }
                let table = self.ptes.get(entry.table_index());
                let ti_lo = start.max(head) - head;
                let ti_hi = end.min(head + huge_span) - head;
                for ti in ti_lo..ti_hi {
                    let pte = table[ti as usize];
                    if !pte.is_present() {
                        continue;
                    }
                    let vpn = head + ti;
                    let size = self.shape.entry_size(pte, 1);
                    if self.shape.leaf_head(Vpn::new(vpn), size).raw() == vpn {
                        visit(Vpn::new(vpn), pte, size);
                    }
                }
            }
        }
    }

    /// Tallies the present entries of a leaf table window into a profile,
    /// attributing each entry to its rung (group members count toward
    /// their group's rung).
    fn tally_ptes(&self, table: &[RawPte], lo: usize, hi: usize, profile: &mut ChunkProfile) {
        for pte in &table[lo..hi] {
            if pte.is_present() {
                profile.mapped[self.shape.entry_size(*pte, 1).rung()] += 1;
            } else {
                profile.unmapped += 1;
            }
        }
    }

    /// Summarizes how the aligned chunk of `size` starting at `start` is
    /// mapped. `start` must be `size`-aligned.
    ///
    /// A top-rung chunk profile reads the per-chunk occupancy totals —
    /// O(1), cheap enough for the fault path's promotion-eligibility
    /// check — and on ladders without PTE-level group rungs a level-2
    /// chunk profile reads one packed table count.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not aligned to `size`.
    #[must_use]
    pub fn chunk_profile(&self, start: Vpn, size: PageSize) -> ChunkProfile {
        assert!(
            self.geo.is_page_aligned(start.raw(), size),
            "chunk_profile start must be size-aligned"
        );
        let span = self.geo.base_pages(size);
        let top = self.shape.natural_rung(3);
        let mut profile = ChunkProfile::default();
        let gi = usize::try_from(self.shape.giant_index(start)).expect("giant index fits usize");
        let Some(&slot) = self.puds.get(gi) else {
            profile.unmapped = span;
            return profile;
        };
        if !slot.is_present() {
            profile.unmapped = span;
            return profile;
        }
        if !slot.is_table() {
            profile.mapped[top.rung()] = span;
            return profile;
        }
        if size == top {
            let counts = self.chunk_counts[gi];
            for (rung, count) in counts.mapped.iter().enumerate() {
                profile.mapped[rung] = u64::from(*count);
            }
            profile.unmapped = span - profile.mapped_total();
            return profile;
        }
        let huge_span = 1u64 << self.geo.level_order(2);
        let pmd = self.pmds.get(slot.table_index());
        if span >= huge_span {
            // The window covers whole PMD entries.
            let pi = self.shape.pmd_index(start);
            for entry in &pmd[pi..pi + (span / huge_span) as usize] {
                if !entry.is_present() {
                    profile.unmapped += huge_span;
                } else if !entry.is_table() {
                    profile.mapped[self.shape.entry_size(*entry, 2).rung()] += huge_span;
                } else if self.l1_groups {
                    let table = self.ptes.get(entry.table_index());
                    self.tally_ptes(table, 0, table.len(), &mut profile);
                } else {
                    let live = u64::from(read_count(self.ptes.get(entry.table_index())));
                    profile.mapped[0] += live;
                    profile.unmapped += huge_span - live;
                }
            }
        } else {
            // The window lies inside one PMD entry (a base page or a
            // PTE-level group span).
            let entry = pmd[self.shape.pmd_index(start)];
            if !entry.is_present() {
                profile.unmapped = span;
            } else if !entry.is_table() {
                profile.mapped[self.shape.entry_size(entry, 2).rung()] = span;
            } else {
                let ti = self.shape.pte_index(start);
                let table = self.ptes.get(entry.table_index());
                self.tally_ptes(table, ti, ti + span as usize, &mut profile);
            }
        }
        profile
    }

    /// Clears accessed bits on every leaf in the window — the sampling-
    /// interval reset of the paper's Figure 4 methodology. Walks the packed
    /// radix in place; no enumeration buffer.
    pub fn clear_accessed_in(&mut self, start: Vpn, pages: u64) {
        if pages == 0 {
            self.invalidate_walks();
            return;
        }
        let start = start.raw();
        let end = start + pages;
        let giant_span = 1u64 << self.geo.level_order(3);
        let huge_span = 1u64 << self.geo.level_order(2);
        let first_gi = start / giant_span;
        let last_gi = ((end - 1) / giant_span).min(self.puds.len().saturating_sub(1) as u64);
        for gi in first_gi..=last_gi {
            let gix = usize::try_from(gi).expect("giant index fits usize");
            if gix >= self.puds.len() {
                break;
            }
            let slot = self.puds[gix];
            if !slot.is_present() {
                continue;
            }
            let chunk_base = gi * giant_span;
            if !slot.is_table() {
                if chunk_base >= start {
                    self.puds[gix].clear_accessed();
                }
                continue;
            }
            let pmd_idx = slot.table_index();
            let chunk_end = chunk_base + giant_span;
            let pi_lo = (start.max(chunk_base) - chunk_base) / huge_span;
            let pi_hi = (end.min(chunk_end) - 1 - chunk_base) / huge_span;
            for pi in pi_lo..=pi_hi {
                let entry = self.pmds.get(pmd_idx)[pi as usize];
                if !entry.is_present() {
                    continue;
                }
                let head = chunk_base + pi * huge_span;
                if !entry.is_table() {
                    // Clearing member entries of a group leaf is harmless:
                    // only the head entry's bits are ever read.
                    if head >= start {
                        self.pmds.get_mut(pmd_idx)[pi as usize].clear_accessed();
                    }
                    continue;
                }
                let table = self.ptes.get_mut(entry.table_index());
                let ti_lo = start.max(head) - head;
                let ti_hi = end.min(head + huge_span) - head;
                for pte in &mut table[ti_lo as usize..ti_hi as usize] {
                    if pte.is_present() {
                        pte.clear_accessed();
                    }
                }
            }
        }
        self.invalidate_walks();
    }

    /// Counts leaves in the window whose accessed bit is set.
    #[must_use]
    pub fn accessed_leaves_in(&self, start: Vpn, pages: u64) -> u64 {
        let mut count = 0;
        self.for_each_leaf_in(start, pages, |_, pte, _| {
            count += u64::from(pte.accessed());
        });
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: PageSize = PageSize::BASE;
    const HUGE: PageSize = PageSize::new(1);
    const GIANT: PageSize = PageSize::new(2);

    fn pt() -> PageTable {
        PageTable::new(PageGeometry::TINY) // huge = 8 pages, giant = 64
    }

    /// An sv48-flavored ladder with a PTE-level group rung between base
    /// and huge: base, 4-page NAPOT group, huge (8), giant (64).
    fn napot_pt() -> PageTable {
        PageTable::new(PageGeometry::TINY_NAPOT)
    }

    #[test]
    fn map_translate_all_sizes() {
        let mut t = pt();
        t.map(Vpn::new(0), Pfn::new(64), GIANT).unwrap();
        t.map(Vpn::new(64), Pfn::new(8), HUGE).unwrap();
        t.map(Vpn::new(72), Pfn::new(3), BASE).unwrap();
        assert_eq!(
            t.translate(Vpn::new(10)).unwrap(),
            Translation {
                pfn: Pfn::new(74),
                size: GIANT,
                head_vpn: Vpn::new(0),
                head_pfn: Pfn::new(64),
            }
        );
        assert_eq!(t.translate(Vpn::new(65)).unwrap().pfn, Pfn::new(9));
        assert_eq!(t.translate(Vpn::new(72)).unwrap().size, BASE);
        assert_eq!(t.translate(Vpn::new(73)), None);
        assert_eq!(t.mapped_base_pages(), 64 + 8 + 1);
    }

    #[test]
    fn misaligned_maps_are_rejected() {
        let mut t = pt();
        assert_eq!(
            t.map(Vpn::new(1), Pfn::new(0), HUGE),
            Err(MapError::Unaligned {
                vpn: Vpn::new(1),
                size: HUGE
            })
        );
        // Physical misalignment too.
        assert_eq!(
            t.map(Vpn::new(8), Pfn::new(3), HUGE),
            Err(MapError::Unaligned {
                vpn: Vpn::new(8),
                size: HUGE
            })
        );
    }

    #[test]
    fn overlaps_are_rejected_in_both_directions() {
        let mut t = pt();
        t.map(Vpn::new(0), Pfn::new(0), BASE).unwrap();
        // A giant over a base-mapped region.
        assert_eq!(
            t.map(Vpn::new(0), Pfn::new(64), GIANT),
            Err(MapError::Overlap { vpn: Vpn::new(0) })
        );
        // A huge over the base page.
        assert_eq!(
            t.map(Vpn::new(0), Pfn::new(8), HUGE),
            Err(MapError::Overlap { vpn: Vpn::new(0) })
        );
        let mut t2 = pt();
        t2.map(Vpn::new(0), Pfn::new(64), GIANT).unwrap();
        assert_eq!(
            t2.map(Vpn::new(8), Pfn::new(8), HUGE),
            Err(MapError::Overlap { vpn: Vpn::new(8) })
        );
        assert_eq!(
            t2.map(Vpn::new(5), Pfn::new(5), BASE),
            Err(MapError::Overlap { vpn: Vpn::new(5) })
        );
    }

    #[test]
    fn unmap_requires_head_and_cleans_tables() {
        let mut t = pt();
        t.map(Vpn::new(64), Pfn::new(8), HUGE).unwrap();
        assert_eq!(
            t.unmap(Vpn::new(65)),
            Err(MapError::NotAMappingHead { vpn: Vpn::new(65) })
        );
        let rec = t.unmap(Vpn::new(64)).unwrap();
        assert_eq!(rec.pfn, Pfn::new(8));
        assert_eq!(rec.size, HUGE);
        assert_eq!(t.mapped_base_pages(), 0);
        // Table was cleaned: remapping a giant over the same index works.
        t.map(Vpn::new(64), Pfn::new(64), GIANT).unwrap();
    }

    #[test]
    fn unmap_base_page_frees_empty_pte_table() {
        let mut t = pt();
        t.map(Vpn::new(0), Pfn::new(0), BASE).unwrap();
        t.unmap(Vpn::new(0)).unwrap();
        // Whole giant index is clean again.
        t.map(Vpn::new(0), Pfn::new(64), GIANT).unwrap();
    }

    #[test]
    fn access_sets_bits_translate_does_not() {
        let mut t = pt();
        t.map(Vpn::new(0), Pfn::new(8), HUGE).unwrap();
        let _ = t.translate(Vpn::new(3));
        assert_eq!(t.accessed_leaves_in(Vpn::new(0), 8), 0);
        t.access(Vpn::new(3), false).unwrap();
        assert_eq!(t.accessed_leaves_in(Vpn::new(0), 8), 1);
        t.access(Vpn::new(4), true).unwrap();
        let rec = t.mappings_in(Vpn::new(0), 8)[0];
        assert!(rec.dirty);
        t.clear_accessed_in(Vpn::new(0), 8);
        assert_eq!(t.accessed_leaves_in(Vpn::new(0), 8), 0);
        // Dirty survives an accessed clear.
        assert!(t.mappings_in(Vpn::new(0), 8)[0].dirty);
    }

    #[test]
    fn remap_preserves_flags_and_returns_old() {
        let mut t = pt();
        t.map(Vpn::new(0), Pfn::new(8), HUGE).unwrap();
        t.access(Vpn::new(0), true).unwrap();
        let old = t.remap(Vpn::new(0), Pfn::new(16)).unwrap();
        assert_eq!(old, Pfn::new(8));
        let rec = t.mappings_in(Vpn::new(0), 8)[0];
        assert_eq!(rec.pfn, Pfn::new(16));
        assert!(rec.accessed && rec.dirty);
        // Misaligned target rejected.
        assert!(matches!(
            t.remap(Vpn::new(0), Pfn::new(3)),
            Err(MapError::Unaligned { .. })
        ));
    }

    #[test]
    fn chunk_profile_accounts_every_base_page() {
        let mut t = pt();
        t.map(Vpn::new(0), Pfn::new(8), HUGE).unwrap(); // 8 pages
        t.map(Vpn::new(8), Pfn::new(1), BASE).unwrap();
        let p = t.chunk_profile(Vpn::new(0), GIANT);
        assert_eq!(p.mapped_at(HUGE), 8);
        assert_eq!(p.mapped_at(BASE), 1);
        assert_eq!(p.mapped_at(GIANT), 0);
        assert_eq!(p.unmapped, 64 - 9);
        assert_eq!(p.mapped_total() + p.unmapped, 64);
        assert_eq!(p.mapped_below(HUGE), 1);
    }

    #[test]
    fn mappings_in_skips_straddling_leaves() {
        let mut t = pt();
        t.map(Vpn::new(0), Pfn::new(64), GIANT).unwrap();
        // Window starts inside the giant leaf: the leaf head is outside.
        assert!(t.mappings_in(Vpn::new(8), 8).is_empty());
        assert_eq!(t.mappings_in(Vpn::new(0), 64).len(), 1);
    }

    #[test]
    fn leaf_counters_track_mapping_churn() {
        let mut t = pt();
        for i in 0..4 {
            t.map(Vpn::new(i), Pfn::new(i), BASE).unwrap();
        }
        t.map(Vpn::new(64), Pfn::new(8), HUGE).unwrap();
        assert_eq!(t.mapped_pages(BASE), 4);
        assert_eq!(t.mapped_pages(HUGE), 1);
        assert_eq!(t.mapped_bytes(HUGE), 8 * 4096);
        t.unmap(Vpn::new(2)).unwrap();
        assert_eq!(t.mapped_pages(BASE), 3);
    }

    #[test]
    fn packed_counts_survive_count_bit_entry_churn() {
        // The occupancy count lives in the avail bits of a table's first
        // entries — exercise mapping/unmapping exactly those entries.
        let mut t = pt();
        for i in 0..8 {
            t.map(Vpn::new(i), Pfn::new(i), BASE).unwrap();
        }
        let p = t.chunk_profile(Vpn::new(0), HUGE);
        assert_eq!(p.mapped_at(BASE), 8);
        // Remove entries 0..4 (count-bit carriers for an 8-entry table).
        for i in 0..4 {
            t.unmap(Vpn::new(i)).unwrap();
        }
        let p = t.chunk_profile(Vpn::new(0), HUGE);
        assert_eq!(p.mapped_at(BASE), 4);
        assert_eq!(p.unmapped, 4);
        for i in 0..4 {
            t.map(Vpn::new(i), Pfn::new(20 + i), BASE).unwrap();
        }
        assert_eq!(t.chunk_profile(Vpn::new(0), HUGE).mapped_at(BASE), 8);
        for i in 0..8 {
            t.unmap(Vpn::new(i)).unwrap();
        }
        assert_eq!(t.chunk_profile(Vpn::new(0), HUGE).unmapped, 8);
        assert_eq!(t.mapped_base_pages(), 0);
    }

    #[test]
    fn giant_chunk_profile_matches_counts_after_churn() {
        let mut t = pt();
        t.map(Vpn::new(0), Pfn::new(8), HUGE).unwrap();
        t.map(Vpn::new(8), Pfn::new(16), HUGE).unwrap();
        t.map(Vpn::new(16), Pfn::new(1), BASE).unwrap();
        t.unmap(Vpn::new(8)).unwrap();
        let p = t.chunk_profile(Vpn::new(0), GIANT);
        assert_eq!(p.mapped_at(HUGE), 8);
        assert_eq!(p.mapped_at(BASE), 1);
        assert_eq!(p.unmapped, 64 - 9);
    }

    #[test]
    fn arena_slots_are_reused_after_teardown() {
        let mut t = pt();
        for round in 0..5u64 {
            for i in 0..8 {
                t.map(Vpn::new(i), Pfn::new(round * 8 + i), BASE).unwrap();
            }
            for i in 0..8 {
                t.unmap(Vpn::new(i)).unwrap();
            }
        }
        // Churn reused the freed table slots instead of growing the arenas.
        assert!(t.pmds.num_tables() <= 1);
        assert!(t.ptes.num_tables() <= 1);
    }

    #[test]
    fn dirty_chunk_drain_is_in_address_order_and_in_place() {
        let mut t = pt();
        t.mark_span_dirty(Vpn::new(128), 64); // chunk 2
        t.mark_span_dirty(Vpn::new(0), 1); // chunk 0
        let mut buf = Vec::new();
        t.drain_dirty_chunks_into(&mut buf);
        assert_eq!(buf, vec![0, 2]);
        t.drain_dirty_chunks_into(&mut buf);
        assert!(buf.is_empty());
    }

    // --- group-leaf (NAPOT / contiguous-span) behavior ---

    #[test]
    fn napot_group_maps_and_translates_like_one_leaf() {
        let mut t = napot_pt();
        let geo = t.geometry();
        let napot = PageSize::new(1);
        assert!(geo.is_group(napot));
        assert_eq!(geo.base_pages(napot), 4);
        t.map(Vpn::new(4), Pfn::new(16), napot).unwrap();
        // Any page of the span resolves to the group head.
        for i in 0..4 {
            let tr = t.translate(Vpn::new(4 + i)).unwrap();
            assert_eq!(tr.size, napot);
            assert_eq!(tr.head_vpn, Vpn::new(4));
            assert_eq!(tr.head_pfn, Pfn::new(16));
            assert_eq!(tr.pfn, Pfn::new(16 + i));
        }
        assert_eq!(t.mapped_pages(napot), 1);
        assert_eq!(t.mapped_base_pages(), 4);
        // The scan reports the group once, at its head.
        let recs = t.mappings_in(Vpn::new(0), 64);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].vpn, Vpn::new(4));
        assert_eq!(recs[0].size, napot);
    }

    #[test]
    fn napot_group_rejects_misalignment_and_overlap() {
        let mut t = napot_pt();
        let napot = PageSize::new(1);
        assert!(matches!(
            t.map(Vpn::new(2), Pfn::new(16), napot),
            Err(MapError::Unaligned { .. })
        ));
        t.map(Vpn::new(5), Pfn::new(1), PageSize::BASE).unwrap();
        // A group over an existing base page inside its span.
        assert_eq!(
            t.map(Vpn::new(4), Pfn::new(16), napot),
            Err(MapError::Overlap { vpn: Vpn::new(4) })
        );
        t.unmap(Vpn::new(5)).unwrap();
        t.map(Vpn::new(4), Pfn::new(16), napot).unwrap();
        // A base page over a group member.
        assert_eq!(
            t.map(Vpn::new(6), Pfn::new(2), PageSize::BASE),
            Err(MapError::Overlap { vpn: Vpn::new(6) })
        );
    }

    #[test]
    fn napot_group_unmap_and_remap_cover_every_member() {
        let mut t = napot_pt();
        let napot = PageSize::new(1);
        t.map(Vpn::new(8), Pfn::new(32), napot).unwrap();
        t.access(Vpn::new(9), true).unwrap();
        // A/D lives on the head entry.
        assert_eq!(t.accessed_leaves_in(Vpn::new(0), 64), 1);
        // Member pages are not mapping heads.
        assert_eq!(
            t.unmap(Vpn::new(9)),
            Err(MapError::NotAMappingHead { vpn: Vpn::new(9) })
        );
        // Remap repoints every member.
        let old = t.remap(Vpn::new(8), Pfn::new(64)).unwrap();
        assert_eq!(old, Pfn::new(32));
        assert_eq!(t.translate(Vpn::new(11)).unwrap().pfn, Pfn::new(67));
        let rec = t.unmap(Vpn::new(8)).unwrap();
        assert_eq!(rec.size, napot);
        assert_eq!(rec.pfn, Pfn::new(64));
        assert!(rec.accessed && rec.dirty);
        assert_eq!(t.mapped_base_pages(), 0);
        assert_eq!(t.translate(Vpn::new(9)), None);
        // Tables were torn down: a giant map over the chunk works.
        t.map(Vpn::new(0), Pfn::new(64), PageSize::new(3)).unwrap();
    }

    #[test]
    fn chunk_profile_attributes_group_members_to_their_rung() {
        let mut t = napot_pt();
        let napot = PageSize::new(1);
        let huge = PageSize::new(2);
        let giant = PageSize::new(3);
        t.map(Vpn::new(0), Pfn::new(16), napot).unwrap();
        t.map(Vpn::new(6), Pfn::new(1), PageSize::BASE).unwrap();
        t.map(Vpn::new(8), Pfn::new(8), huge).unwrap();
        let p = t.chunk_profile(Vpn::new(0), giant);
        assert_eq!(p.mapped_at(napot), 4);
        assert_eq!(p.mapped_at(PageSize::BASE), 1);
        assert_eq!(p.mapped_at(huge), 8);
        assert_eq!(p.unmapped, 64 - 13);
        // The level-2 window sweep splits base from group pages too.
        let p = t.chunk_profile(Vpn::new(0), huge);
        assert_eq!(p.mapped_at(napot), 4);
        assert_eq!(p.mapped_at(PageSize::BASE), 1);
        assert_eq!(p.unmapped, 3);
        // A group-sized window inside a huge leaf reports the huge rung.
        let p = t.chunk_profile(Vpn::new(12), napot);
        assert_eq!(p.mapped_at(huge), 4);
    }
}
