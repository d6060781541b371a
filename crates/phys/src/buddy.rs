//! Binary buddy allocator with free lists up to the giant-page order.
//!
//! Linux's buddy allocator tracks free chunks only up to `MAX_ORDER` = 4MB;
//! the paper extends it with separate lists for every order up to 1GB
//! (§5.1.1). Each order's free list is a packed bitmap over that order's
//! block numbers ([`OrderList`]), so all of them together hold about two
//! bits per frame: allocation pops the lowest-addressed block by
//! word-scanning from a floor cursor instead of walking a tree, and ranged
//! scans let compaction allocate *within* a specific 1GB region via
//! [`BuddyAllocator::alloc_in_range`].

use std::ops::Range;

use trident_obs::{Event, Recorder};
use trident_types::{DenseBitSet, InvariantViolation};

use crate::AllocError;

/// One order's free list: a bitmap indexed by block number (`start >>
/// order`), so order `o` holds `total_pages >> o` bits and a misaligned
/// block cannot be stored, plus a floor cursor below which no block of
/// this order starts. Insert and remove are single word operations;
/// popping the minimum scans words upward from the floor, and since the
/// floor only moves down when a block is inserted there, the scan cost is
/// bounded by cursor churn rather than list size.
#[derive(Debug, Clone)]
struct OrderList {
    /// Block `i` of this order, frames `i << order ..`, is free.
    blocks: DenseBitSet,
    order: u8,
    /// No free block of this order has a number below `floor`.
    floor: u64,
}

impl OrderList {
    fn new(total_pages: u64, order: u8) -> OrderList {
        OrderList {
            blocks: DenseBitSet::with_capacity(total_pages >> order),
            order,
            floor: 0,
        }
    }

    /// Inserts the block starting at frame `start`, which is aligned to
    /// this order.
    fn insert(&mut self, start: u64) {
        let block = start >> self.order;
        self.blocks.insert(block);
        self.floor = self.floor.min(block);
    }

    /// Removes the block starting at frame `start`, which is aligned to
    /// this order. Returns whether it was free.
    fn remove(&mut self, start: u64) -> bool {
        self.blocks.remove(start >> self.order)
    }

    fn contains(&self, start: u64) -> bool {
        start.is_multiple_of(1 << self.order) && self.blocks.contains(start >> self.order)
    }

    fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    fn len(&self) -> usize {
        self.blocks.len()
    }

    /// The lowest block start, advancing the floor to it.
    fn first(&mut self) -> Option<u64> {
        let first = self.blocks.iter_range(self.floor, u64::MAX).next()?;
        self.floor = first;
        Some(first << self.order)
    }

    /// Block starts in ascending order.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.iter().map(|block| block << self.order)
    }

    /// Starts of the blocks that lie wholly inside `range`, ascending.
    fn iter_within(&self, range: Range<u64>) -> impl Iterator<Item = u64> + '_ {
        let len = 1u64 << self.order;
        self.blocks
            .iter_range(range.start.div_ceil(len), range.end / len)
            .map(|block| block << self.order)
    }
}

/// A binary buddy allocator over base-page frame numbers.
///
/// Blocks of order `o` span `2^o` base pages and are always naturally
/// aligned, so a block can never straddle a giant-region boundary.
/// Allocation prefers the lowest-addressed suitable block, which keeps runs
/// deterministic.
///
/// The allocator itself does not police double-frees — that is the job of
/// the frame table in [`PhysicalMemory`](crate::PhysicalMemory), which knows
/// which frames are allocated.
///
/// # Examples
///
/// ```
/// use trident_obs::NoopRecorder;
/// use trident_phys::BuddyAllocator;
///
/// let mut buddy = BuddyAllocator::new(1024, 6);
/// let block = buddy.alloc(6, &mut NoopRecorder)?; // one "giant" block of 64 pages
/// assert_eq!(block % 64, 0);
/// buddy.free(block, 6, &mut NoopRecorder);
/// assert_eq!(buddy.free_pages(), 1024);
/// # Ok::<(), trident_phys::AllocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    total_pages: u64,
    max_order: u8,
    /// `free_lists[o]` holds the start frame of every free block of order `o`.
    free_lists: Vec<OrderList>,
    free_pages: u64,
}

impl BuddyAllocator {
    /// Creates an allocator over `total_pages` base pages with free lists up
    /// to `max_order` (the giant-page order), with all memory initially free.
    ///
    /// # Panics
    ///
    /// Panics if `total_pages == 0` or `max_order > 48`.
    #[must_use]
    pub fn new(total_pages: u64, max_order: u8) -> BuddyAllocator {
        assert!(total_pages > 0, "physical memory cannot be empty");
        assert!(max_order <= 48, "max order is unreasonably large");
        let mut buddy = BuddyAllocator {
            total_pages,
            max_order,
            free_lists: (0..=max_order)
                .map(|order| OrderList::new(total_pages, order))
                .collect(),
            free_pages: 0,
        };
        // Seed with maximal naturally-aligned blocks.
        let mut page = 0;
        while page < total_pages {
            let align_order = if page == 0 {
                max_order
            } else {
                (page.trailing_zeros() as u8).min(max_order)
            };
            let mut order = align_order;
            while page + (1u64 << order) > total_pages {
                order -= 1;
            }
            buddy.free_lists[usize::from(order)].insert(page);
            buddy.free_pages += 1 << order;
            page += 1 << order;
        }
        buddy
    }

    /// Total base pages managed.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Currently free base pages.
    #[must_use]
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// The maximum tracked order.
    #[must_use]
    pub fn max_order(&self) -> u8 {
        self.max_order
    }

    /// Number of free blocks of exactly `order`.
    ///
    /// # Panics
    ///
    /// Panics if `order > max_order`.
    #[must_use]
    pub fn free_blocks(&self, order: u8) -> usize {
        self.free_lists[usize::from(order)].len()
    }

    /// How many blocks of `order` the free lists can hand out without
    /// splitting below `order`: Σ over orders `o ≥ order` of
    /// `free_blocks(o) << (o − order)`. Zero means no block of at least
    /// `order` is free.
    ///
    /// # Panics
    ///
    /// Panics if `order > max_order`.
    #[must_use]
    pub fn free_capacity(&self, order: u8) -> u64 {
        assert!(order <= self.max_order, "order exceeds max_order");
        (order..=self.max_order)
            .map(|o| (self.free_lists[usize::from(o)].len() as u64) << (o - order))
            .sum()
    }

    /// Allocates a naturally-aligned block of `2^order` pages, returning its
    /// start frame, and reports an [`Event::BuddySplit`] to `rec` when the
    /// allocation had to split a larger free block.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if no free block of at least `order` exists.
    ///
    /// # Panics
    ///
    /// Panics if `order > max_order`.
    pub fn alloc(&mut self, order: u8, rec: &mut impl Recorder) -> Result<u64, AllocError> {
        assert!(order <= self.max_order, "order exceeds max_order");
        let found = (order..=self.max_order)
            .find(|o| !self.free_lists[usize::from(*o)].is_empty())
            .ok_or(AllocError { order })?;
        let start = self.free_lists[usize::from(found)]
            .first()
            .expect("non-empty list");
        self.free_lists[usize::from(found)].remove(start);
        self.split_down(start, found, order);
        if found > order {
            rec.record(Event::BuddySplit {
                from_order: found,
                to_order: order,
            });
        }
        self.free_pages -= 1 << order;
        Ok(start)
    }

    /// Allocates `n` blocks of `2^order` pages and leaves exactly the
    /// state that `n` calls of [`alloc(order)`](Self::alloc) leave. Each
    /// step takes the lowest block of the smallest non-empty order at or
    /// above `order`; every list between `order` and that one is empty,
    /// so the next single allocations would split this block and hand
    /// out its blocks from the low end. The step does that at once and
    /// returns the unused tail to the free lists as its aligned binary
    /// decomposition. Calls `emit(start, pages, found)` once per
    /// contiguous span handed out, in allocation order, where `found` is
    /// the order of the free block the span was cut from.
    ///
    /// Nothing is recorded here, but `found` gives the splits that the
    /// single allocations would record. The span's first block splits
    /// `found` down to `order` when `found > order`. Its block `j > 0`
    /// splits `order + tz(j)` down to `order` when `tz(j) > 0`, where
    /// `tz` counts trailing zero bits: blocks `0..j` leave their
    /// smallest free piece, of that order, starting at block `j`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`], changing nothing, when fewer than `n`
    /// blocks of `order` are free ([`free_capacity`](Self::free_capacity)).
    ///
    /// # Panics
    ///
    /// Panics if `order > max_order`.
    pub fn alloc_run(
        &mut self,
        order: u8,
        n: u64,
        mut emit: impl FnMut(u64, u64, u8),
    ) -> Result<(), AllocError> {
        if n > self.free_capacity(order) {
            return Err(AllocError { order });
        }
        let mut left = n;
        while left > 0 {
            let found = (order..=self.max_order)
                .find(|o| !self.free_lists[usize::from(*o)].is_empty())
                .expect("free capacity remains");
            let list = &mut self.free_lists[usize::from(found)];
            let start = list.first().expect("non-empty list");
            list.remove(start);
            let blocks = left.min(1 << (found - order));
            let len = blocks << order;
            // The tail's decomposition is what `split_down` leaves after
            // `blocks` single allocations from this block.
            let end = start + (1u64 << found);
            let mut page = start + len;
            while page < end {
                let mut k = (page.trailing_zeros() as u8).min(found);
                while page + (1u64 << k) > end {
                    k -= 1;
                }
                self.free_lists[usize::from(k)].insert(page);
                page += 1 << k;
            }
            emit(start, len, found);
            left -= blocks;
        }
        self.free_pages -= n << order;
        Ok(())
    }

    /// Allocates a block of `2^order` pages that lies entirely within
    /// `range` (frame numbers), returning its start frame, and reports an
    /// [`Event::BuddySplit`] to `rec` when a larger block was split.
    ///
    /// Smart compaction uses this to place migrated data inside a chosen
    /// *target* region instead of wherever the global allocator would put it.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if no suitably-placed block exists.
    ///
    /// # Panics
    ///
    /// Panics if `order > max_order`.
    pub fn alloc_in_range(
        &mut self,
        order: u8,
        range: Range<u64>,
        rec: &mut impl Recorder,
    ) -> Result<u64, AllocError> {
        assert!(order <= self.max_order, "order exceeds max_order");
        for o in order..=self.max_order {
            let candidate = self.free_lists[usize::from(o)]
                .iter_within(range.clone())
                .next();
            if let Some(start) = candidate {
                self.free_lists[usize::from(o)].remove(start);
                self.split_down(start, o, order);
                if o > order {
                    rec.record(Event::BuddySplit {
                        from_order: o,
                        to_order: order,
                    });
                }
                self.free_pages -= 1 << order;
                return Ok(start);
            }
        }
        Err(AllocError { order })
    }

    /// Splits a free block of `from` order held by the caller down to `to`
    /// order, returning the lower half each time and freeing the upper halves.
    fn split_down(&mut self, start: u64, from: u8, to: u8) {
        let mut order = from;
        while order > to {
            order -= 1;
            self.free_lists[usize::from(order)].insert(start + (1u64 << order));
        }
    }

    /// Returns a block of `2^order` pages starting at `start` to the free
    /// lists, coalescing with free buddies as far as possible, and reports
    /// an [`Event::BuddyCoalesce`] to `rec` when the block merged.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `start` is not aligned to `order` or the
    /// block exceeds physical memory.
    pub fn free(&mut self, start: u64, order: u8, rec: &mut impl Recorder) {
        debug_assert_eq!(start % (1u64 << order), 0, "misaligned free");
        debug_assert!(
            start + (1u64 << order) <= self.total_pages,
            "free beyond end of memory"
        );
        self.free_pages += 1 << order;
        let from_order = order;
        let mut start = start;
        let mut order = order;
        while order < self.max_order {
            let buddy = start ^ (1u64 << order);
            if buddy + (1u64 << order) <= self.total_pages
                && self.free_lists[usize::from(order)].remove(buddy)
            {
                start = start.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        if order > from_order {
            rec.record(Event::BuddyCoalesce {
                from_order,
                to_order: order,
            });
        }
        self.free_lists[usize::from(order)].insert(start);
    }

    /// The Free Memory Fragmentation Index for allocations of `order`.
    ///
    /// FMFI lies between 0 (all free memory is usable for `order`-sized
    /// allocations) and 1 (none of it is). Following Ingens/HawkEye:
    ///
    /// `FMFI(j) = (free − Σ_{i ≥ j} 2^i · k_i) / free`
    ///
    /// where `k_i` is the number of free blocks of order `i`. When no memory
    /// is free at all, the index is reported as 1.0 — a request of any order
    /// would fail.
    #[must_use]
    pub fn fmfi(&self, order: u8) -> f64 {
        if self.free_pages == 0 {
            return 1.0;
        }
        let usable = self.free_capacity(order) << order;
        (self.free_pages - usable) as f64 / self.free_pages as f64
    }

    /// Iterates over the start frames of free blocks of exactly `order`.
    pub fn free_blocks_iter(&self, order: u8) -> impl Iterator<Item = u64> + '_ {
        self.free_lists[usize::from(order)].iter()
    }

    /// Whether a free block of exactly `order` starts at `start` — used to
    /// validate pre-zeroed block handles lazily.
    #[must_use]
    pub fn is_block_free(&self, start: u64, order: u8) -> bool {
        order <= self.max_order && self.free_lists[usize::from(order)].contains(start)
    }

    /// Non-panicking consistency audit: free lists must be in bounds,
    /// non-overlapping, and sum to `free_pages` (a block number cannot
    /// name a misaligned block). Returns every violation found rather than
    /// stopping at the first.
    ///
    /// # Errors
    ///
    /// The collected [`InvariantViolation`]s, if any invariant is broken.
    pub fn check_consistent(&self) -> Result<(), Vec<InvariantViolation>> {
        let mut violations = Vec::new();
        let mut counted = 0u64;
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for (order, list) in self.free_lists.iter().enumerate() {
            for start in list.iter() {
                let len = 1u64 << order;
                if start + len > self.total_pages {
                    violations.push(InvariantViolation::BuddyBlockOutOfBounds {
                        start,
                        pages: len,
                        total_pages: self.total_pages,
                    });
                }
                spans.push((start, start + len));
                counted += len;
            }
        }
        if counted != self.free_pages {
            violations.push(InvariantViolation::BuddyFreeCountDrift {
                counted,
                recorded: self.free_pages,
            });
        }
        spans.sort_unstable();
        for pair in spans.windows(2) {
            if pair[0].1 > pair[1].0 {
                violations.push(InvariantViolation::BuddyBlocksOverlap {
                    first: pair[0].0,
                    second: pair[1].0,
                });
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Internal consistency check used by tests; thin panicking wrapper
    /// over [`check_consistent`](BuddyAllocator::check_consistent).
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
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

    #[test]
    fn fresh_allocator_is_fully_free_and_coalesced() {
        let b = BuddyAllocator::new(256, 6);
        assert_eq!(b.free_pages(), 256);
        assert_eq!(b.free_blocks(6), 4);
        b.assert_consistent();
    }

    #[test]
    fn handles_non_power_of_two_totals() {
        let b = BuddyAllocator::new(100, 6);
        assert_eq!(b.free_pages(), 100);
        b.assert_consistent();
        // 100 = 64 + 32 + 4
        assert_eq!(b.free_blocks(6), 1);
        assert_eq!(b.free_blocks(5), 1);
        assert_eq!(b.free_blocks(2), 1);
    }

    #[test]
    fn alloc_prefers_lowest_address() {
        let mut b = BuddyAllocator::new(256, 6);
        assert_eq!(b.alloc(0, &mut NoopRecorder).unwrap(), 0);
        assert_eq!(b.alloc(0, &mut NoopRecorder).unwrap(), 1);
        assert_eq!(b.alloc(6, &mut NoopRecorder).unwrap(), 64);
        b.assert_consistent();
    }

    #[test]
    fn split_and_coalesce_roundtrip() {
        let mut b = BuddyAllocator::new(64, 6);
        let p = b.alloc(0, &mut NoopRecorder).unwrap();
        assert_eq!(b.free_blocks(6), 0);
        b.free(p, 0, &mut NoopRecorder);
        assert_eq!(b.free_blocks(6), 1);
        b.assert_consistent();
    }

    #[test]
    fn coalescing_stops_at_used_buddy() {
        let mut b = BuddyAllocator::new(64, 6);
        let a = b.alloc(0, &mut NoopRecorder).unwrap();
        let c = b.alloc(0, &mut NoopRecorder).unwrap();
        assert_eq!((a, c), (0, 1));
        b.free(a, 0, &mut NoopRecorder);
        // Buddy of page 0 at order 0 is page 1, still used: no merge.
        assert_eq!(b.free_blocks(0), 1);
        b.free(c, 0, &mut NoopRecorder);
        assert_eq!(b.free_blocks(6), 1);
    }

    #[test]
    fn alloc_fails_when_no_contiguity() {
        let mut b = BuddyAllocator::new(8, 3);
        // Occupy every other page so no order-1 block can exist.
        let pages: Vec<u64> = (0..8)
            .map(|_| b.alloc(0, &mut NoopRecorder).unwrap())
            .collect();
        for &p in pages.iter().filter(|p| **p % 2 == 0) {
            b.free(p, 0, &mut NoopRecorder);
        }
        assert_eq!(b.free_pages(), 4);
        assert_eq!(b.alloc(1, &mut NoopRecorder), Err(AllocError { order: 1 }));
        assert!(b.alloc(0, &mut NoopRecorder).is_ok());
    }

    #[test]
    fn alloc_in_range_respects_bounds() {
        let mut b = BuddyAllocator::new(256, 6);
        let got = b.alloc_in_range(0, 128..192, &mut NoopRecorder).unwrap();
        assert!((128..192).contains(&got));
        // Range with no free blocks inside.
        let p = b.alloc_in_range(6, 192..256, &mut NoopRecorder).unwrap();
        assert_eq!(p, 192);
        assert!(b.alloc_in_range(6, 192..256, &mut NoopRecorder).is_err());
        b.assert_consistent();
    }

    #[test]
    fn alloc_in_range_requires_block_fully_inside() {
        let mut b = BuddyAllocator::new(256, 6);
        // Only giant blocks exist; none lies fully inside a half-region
        // range, so any request there fails — ranges are meant to be whole
        // giant regions.
        assert!(b.alloc_in_range(6, 0..32, &mut NoopRecorder).is_err());
        assert!(b.alloc_in_range(0, 0..32, &mut NoopRecorder).is_err());
        // A full-region range succeeds and splits in place.
        assert_eq!(b.alloc_in_range(0, 0..64, &mut NoopRecorder).unwrap(), 0);
    }

    #[test]
    fn fmfi_tracks_fragmentation() {
        let mut b = BuddyAllocator::new(64, 6);
        assert_eq!(b.fmfi(6), 0.0);
        let pages: Vec<u64> = (0..64)
            .map(|_| b.alloc(0, &mut NoopRecorder).unwrap())
            .collect();
        assert_eq!(b.fmfi(0), 1.0); // nothing free at all
        for &p in pages.iter().filter(|p| **p % 2 == 1) {
            b.free(p, 0, &mut NoopRecorder);
        }
        // 32 pages free, none usable at order >= 1.
        assert_eq!(b.fmfi(1), 1.0);
        assert_eq!(b.fmfi(0), 0.0);
    }

    #[test]
    fn stress_roundtrip_restores_full_coalescing() {
        let mut b = BuddyAllocator::new(4 << 12, 12);
        let mut held = Vec::new();
        for order in [0u8, 3, 5, 0, 9, 1, 12, 0, 7] {
            held.push((b.alloc(order, &mut NoopRecorder).unwrap(), order));
        }
        b.assert_consistent();
        // Free in a scrambled order.
        held.swap(0, 8);
        held.swap(2, 5);
        for (start, order) in held {
            b.free(start, order, &mut NoopRecorder);
        }
        assert_eq!(b.free_blocks(12), 4);
        assert_eq!(b.free_pages(), 4 << 12);
        b.assert_consistent();
    }
}
