//! TLB and page-walk cost model for the Trident simulator.
//!
//! Models the data-side translation hardware of the paper's Skylake testbed
//! (Table 1):
//!
//! | structure | 4KB | 2MB | 1GB |
//! |---|---|---|---|
//! | L1 dTLB | 64 entries, 4-way | 32 entries, 4-way | 4 entries, fully assoc. |
//! | L2 sTLB | 1536 entries, 12-way (shared with 2MB) | shared | 16 entries, 4-way |
//!
//! Walk costs follow §2: a native walk needs up to 4 / 3 / 2 memory
//! accesses for 4KB / 2MB / 1GB pages; a nested (virtualized) walk needs up
//! to 24 / 15 / 8 when both levels use the same page size — the general
//! formula is `(g+1)·(h+1) − 1` for `g` guest and `h` host levels.
//!
//! # Examples
//!
//! ```
//! use trident_obs::NoopRecorder;
//! use trident_tlb::{TlbHierarchy, TranslationEngine, WalkCostModel};
//! use trident_types::{PageSize, Vpn};
//!
//! let mut engine = TranslationEngine::new(TlbHierarchy::skylake(), WalkCostModel::default());
//! let first = engine.translate_rec(Vpn::new(42), PageSize::BASE, &mut NoopRecorder);
//! let second = engine.translate_rec(Vpn::new(42), PageSize::BASE, &mut NoopRecorder);
//! assert!(first.cycles > second.cycles); // the second access hits the TLB
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod hierarchy;
mod pwc;
mod set_assoc;
mod stats;
mod walk;

pub use hierarchy::{TlbHierarchy, TlbOutcome};
pub use pwc::PageWalkCache;
pub use set_assoc::SetAssocTlb;
pub use stats::{SizeStats, TranslationStats};
pub use walk::{
    nested_walk_accesses, nested_walk_accesses_at, walk_accesses, walk_accesses_at, PageTableDepth,
    WalkCostModel,
};

use trident_obs::{Event, NoopRecorder, Recorder};
use trident_types::{PageSize, Vpn, MAX_RUNGS};

/// Outcome of one simulated address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Where the translation was found.
    pub outcome: TlbOutcome,
    /// Cycles charged to this translation (0 for an L1 hit).
    pub cycles: u64,
}

/// Drives a [`TlbHierarchy`] with a [`WalkCostModel`] and accumulates
/// [`TranslationStats`] — the simulator's stand-in for the
/// `DTLB_*_MISSES.WALK_ACTIVE` performance counters used in §3.
#[derive(Debug, Clone)]
pub struct TranslationEngine {
    hierarchy: TlbHierarchy,
    cost: WalkCostModel,
    stats: TranslationStats,
    /// Native walk cycles per rung, indexed by [`PageSize::rung`].
    walk_cycles: [u64; MAX_RUNGS],
    /// Nested walk cycles per (guest, host) rung pair.
    nested_walk_cycles: [[u64; MAX_RUNGS]; MAX_RUNGS],
}

impl TranslationEngine {
    /// Creates an engine. Native walks
    /// ([`translate_rec`](Self::translate_rec)) and nested ones
    /// ([`translate_nested_rec`](Self::translate_nested_rec)) are both
    /// charged from per-rung cycle tables computed here once.
    #[must_use]
    pub fn new(hierarchy: TlbHierarchy, cost: WalkCostModel) -> TranslationEngine {
        let geo = hierarchy.geometry();
        let mut walk_cycles = [0; MAX_RUNGS];
        let mut nested_walk_cycles = [[0; MAX_RUNGS]; MAX_RUNGS];
        for guest in geo.rungs() {
            walk_cycles[guest.rung()] = cost.walk_cycles(&geo, guest);
            for host in geo.rungs() {
                nested_walk_cycles[guest.rung()][host.rung()] =
                    cost.nested_walk_cycles(&geo, guest, host);
            }
        }
        TranslationEngine {
            hierarchy,
            cost,
            stats: TranslationStats::default(),
            walk_cycles,
            nested_walk_cycles,
        }
    }

    /// [`translate_rec`](Self::translate_rec) with no recorder. Kept only
    /// because the repository benchmark calls it; it goes once perfbench
    /// calls `translate_rec`.
    #[inline]
    pub fn translate(&mut self, vpn: Vpn, guest_size: PageSize) -> AccessResult {
        self.translate_rec(vpn, guest_size, &mut NoopRecorder)
    }

    /// Translates one access to `vpn`, mapped by a leaf of `guest_size`.
    /// Returns the outcome, accumulates statistics, and reports each full
    /// miss to `rec` as an [`Event::TlbMiss`] carrying the walk cost.
    pub fn translate_rec(
        &mut self,
        vpn: Vpn,
        guest_size: PageSize,
        rec: &mut impl Recorder,
    ) -> AccessResult {
        let outcome = self.hierarchy.access(vpn, guest_size);
        let cycles = match outcome {
            TlbOutcome::L1Hit => 0,
            TlbOutcome::L2Hit => self.cost.l2_hit_cycles,
            TlbOutcome::Miss => self.walk_cycles[guest_size.rung()],
        };
        if outcome == TlbOutcome::Miss && rec.enabled() {
            rec.record(Event::TlbMiss {
                size: guest_size,
                walk_cycles: cycles,
            });
        }
        self.stats.record(guest_size, outcome, cycles);
        AccessResult { outcome, cycles }
    }

    /// [`translate_nested_rec`](Self::translate_nested_rec) with no
    /// recorder. Kept only because the repository benchmark calls it; it
    /// goes once perfbench calls `translate_nested_rec`.
    #[inline]
    pub fn translate_nested(
        &mut self,
        vpn: Vpn,
        guest_size: PageSize,
        host_size: PageSize,
    ) -> AccessResult {
        self.translate_nested_rec(vpn, guest_size, host_size, &mut NoopRecorder)
    }

    /// Translates one virtualized access where the host-level page size is
    /// known per access (the host may back different gPA ranges with
    /// different sizes). The TLB caches gVA→hPA at the smaller of the two
    /// sizes; a miss pays the two-dimensional walk for the actual pair and
    /// is reported to `rec` as an [`Event::TlbMiss`].
    pub fn translate_nested_rec(
        &mut self,
        vpn: Vpn,
        guest_size: PageSize,
        host_size: PageSize,
        rec: &mut impl Recorder,
    ) -> AccessResult {
        let effective = guest_size.min(host_size);
        let outcome = self.hierarchy.access(vpn, effective);
        let cycles = match outcome {
            TlbOutcome::L1Hit => 0,
            TlbOutcome::L2Hit => self.cost.l2_hit_cycles,
            TlbOutcome::Miss => self.nested_walk_cycles[guest_size.rung()][host_size.rung()],
        };
        if outcome == TlbOutcome::Miss && rec.enabled() {
            rec.record(Event::TlbMiss {
                size: effective,
                walk_cycles: cycles,
            });
        }
        self.stats.record(effective, outcome, cycles);
        AccessResult { outcome, cycles }
    }

    /// Invalidates all cached translations (e.g. after promotion remaps).
    pub fn flush(&mut self) {
        self.hierarchy.flush();
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &TranslationStats {
        &self.stats
    }

    /// Resets statistics (but not TLB contents), e.g. after a warm-up
    /// phase.
    pub fn reset_stats(&mut self) {
        self.stats = TranslationStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_obs::RingTracer;

    #[test]
    fn translate_rec_reports_each_walk_with_its_cost() {
        let mut engine = TranslationEngine::new(TlbHierarchy::skylake(), WalkCostModel::default());
        let mut tracer = RingTracer::new(16);
        // Cold access misses; the immediate repeat hits L1 and is silent.
        let miss = engine.translate_rec(Vpn::new(7), PageSize::BASE, &mut tracer);
        engine.translate_rec(Vpn::new(7), PageSize::BASE, &mut tracer);
        assert_eq!(miss.outcome, TlbOutcome::Miss);
        let events: Vec<&Event> = tracer.events().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0],
            &Event::TlbMiss {
                size: PageSize::BASE,
                walk_cycles: miss.cycles,
            }
        );
        assert_eq!(engine.stats().total_walks(), 1);
    }

    #[test]
    fn translate_nested_rec_charges_the_two_dimensional_walk() {
        let mut engine = TranslationEngine::new(TlbHierarchy::skylake(), WalkCostModel::default());
        let mut tracer = RingTracer::new(4);
        let r =
            engine.translate_nested_rec(Vpn::new(0), PageSize::new(1), PageSize::BASE, &mut tracer);
        assert_eq!(r.outcome, TlbOutcome::Miss);
        // Nested walk at (2MB, 4KB): (3+1)*(4+1)-1 = 19 accesses.
        assert_eq!(r.cycles, 19 * WalkCostModel::default().mem_access_cycles);
        assert_eq!(
            tracer.events().next(),
            Some(&Event::TlbMiss {
                size: PageSize::BASE,
                walk_cycles: r.cycles,
            })
        );
    }
}
