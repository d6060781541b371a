//! Accumulated translation statistics.

use trident_types::{PageSize, MAX_RUNGS};

use crate::TlbOutcome;

/// Counters for one page size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeStats {
    /// Translations served at this size.
    pub accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Full misses (page walks).
    pub walks: u64,
    /// Cycles spent in walks (and L2 hit latency).
    pub cycles: u64,
}

/// The simulator's replacement for the walk-cycle performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    per_size: [SizeStats; MAX_RUNGS],
}

impl TranslationStats {
    /// Records one translation outcome.
    #[inline]
    pub fn record(&mut self, size: PageSize, outcome: TlbOutcome, cycles: u64) {
        let s = &mut self.per_size[size.rung()];
        s.accesses += 1;
        s.cycles += cycles;
        match outcome {
            TlbOutcome::L1Hit => s.l1_hits += 1,
            TlbOutcome::L2Hit => s.l2_hits += 1,
            TlbOutcome::Miss => s.walks += 1,
        }
    }

    /// Counters for one page size.
    #[must_use]
    pub fn for_size(&self, size: PageSize) -> SizeStats {
        self.per_size[size.rung()]
    }

    /// Total translations.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.per_size.iter().map(|s| s.accesses).sum()
    }

    /// Total page walks.
    #[must_use]
    pub fn total_walks(&self) -> u64 {
        self.per_size.iter().map(|s| s.walks).sum()
    }

    /// Total cycles spent translating (walks + L2 hit latency) — the
    /// quantity Figure 1a/2a normalizes.
    #[must_use]
    pub fn total_walk_cycles(&self) -> u64 {
        self.per_size.iter().map(|s| s.cycles).sum()
    }

    /// Miss ratio over all translations, in `[0, 1]`.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.total_walks() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_size() {
        let mut s = TranslationStats::default();
        s.record(PageSize::BASE, TlbOutcome::Miss, 200);
        s.record(PageSize::BASE, TlbOutcome::L1Hit, 0);
        s.record(PageSize::new(2), TlbOutcome::L2Hit, 7);
        assert_eq!(s.for_size(PageSize::BASE).walks, 1);
        assert_eq!(s.for_size(PageSize::BASE).accesses, 2);
        assert_eq!(s.for_size(PageSize::new(2)).l2_hits, 1);
        assert_eq!(s.total_accesses(), 3);
        assert_eq!(s.total_walk_cycles(), 207);
        assert!((s.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_miss_ratio() {
        assert_eq!(TranslationStats::default().miss_ratio(), 0.0);
    }
}
