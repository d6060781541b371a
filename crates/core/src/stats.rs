//! Memory-management statistics.
//!
//! These counters are the raw material for the paper's Tables 3 and 4 and
//! Figure 7: pages mapped by size and mechanism, 1GB allocation failures at
//! fault versus promotion time, and bytes copied by compaction.
//!
//! Consumption goes through the versioned [`StatsSnapshot`] (from
//! `trident-obs`): call [`MmStats::snapshot`] and use its accessors —
//! it is the only read path. Production goes
//! through [`MmContext::record`](crate::MmContext::record), which folds a
//! typed [`Event`] into these counters *and* forwards it to the installed
//! recorder, so a complete trace always replays to the exact snapshot.

use trident_obs::{Event, StatsSnapshot};
use trident_types::{PageSize, MAX_RUNGS};

pub use trident_obs::AllocSite;

/// Counters accumulated by every policy.
///
/// Fields stay public for tests and merges, but the supported write path
/// is [`MmStats::apply`] (usually via
/// [`MmContext::record`](crate::MmContext::record)) and the supported read
/// path is [`MmStats::snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MmStats {
    /// Faults served, by page size.
    pub faults: [u64; MAX_RUNGS],
    /// Nanoseconds spent in fault handling, by page size.
    pub fault_ns: [u64; MAX_RUNGS],
    /// 1GB allocation attempts at fault time.
    pub giant_attempts_fault: u64,
    /// 1GB allocation failures at fault time (no contiguity).
    pub giant_failures_fault: u64,
    /// 1GB allocation attempts during promotion.
    pub giant_attempts_promo: u64,
    /// 1GB allocation failures during promotion, *after* compaction was
    /// given a chance.
    pub giant_failures_promo: u64,
    /// Promotions performed, by target page size.
    pub promotions: [u64; MAX_RUNGS],
    /// Demotions performed (bloat recovery), by source page size.
    pub demotions: [u64; MAX_RUNGS],
    /// Bytes copied by compaction (Figure 7's quantity).
    pub compaction_bytes_copied: u64,
    /// Bytes copied by promotion (copying small pages into the large one).
    pub promotion_bytes_copied: u64,
    /// Bytes whose copy was elided by Trident_pv mapping exchanges.
    pub pv_bytes_exchanged: u64,
    /// Compaction attempts / successes.
    pub compaction_attempts: u64,
    /// Compactions that produced the requested free chunk.
    pub compaction_successes: u64,
    /// Background-daemon CPU time (khugepaged + kbinmanager + zero-fill).
    pub daemon_ns: u64,
    /// Base pages mapped beyond what the application ever touched
    /// (internal-fragmentation bloat from aggressive promotion).
    pub bloat_pages: u64,
    /// Bloat pages recovered by demotion / zero-page dedup.
    pub bloat_recovered_pages: u64,
    /// Giant blocks zero-filled in the background.
    pub giant_blocks_prezeroed: u64,
    /// Faults injected by a deterministic fault plan, by
    /// [`InjectSite`](trident_obs::InjectSite) wire order.
    pub injected_faults: [u64; 5],
    /// Promotions deferred for a later re-arm tick.
    pub promotions_deferred: u64,
    /// Trident_pv exchanges that fell back to copying.
    pub pv_fallbacks: u64,
    /// Bytes copied by Trident_pv fallbacks instead of exchanged.
    pub pv_fallback_bytes: u64,
}

impl MmStats {
    /// Folds one event into the counters, mirroring
    /// [`StatsSnapshot::apply`] exactly (the trace-replay property test in
    /// `tests/` holds the two in lockstep). Trace-only events are ignored.
    pub fn apply(&mut self, event: &Event) {
        match *event {
            Event::Fault { size, ns, .. } => self.record_fault(size, ns),
            Event::GiantAttempt { site, failed } => self.record_giant_attempt(site, failed),
            Event::Promote {
                size,
                bytes_copied,
                bloat_pages,
            } => {
                self.promotions[size.rung()] += 1;
                self.promotion_bytes_copied += bytes_copied;
                self.bloat_pages += bloat_pages;
            }
            Event::Demote {
                size,
                recovered_pages,
            } => {
                self.demotions[size.rung()] += 1;
                self.bloat_recovered_pages += recovered_pages;
            }
            Event::PvExchange { bytes, .. } => self.pv_bytes_exchanged += bytes,
            Event::CompactionRun { succeeded, .. } => {
                self.compaction_attempts += 1;
                self.compaction_successes += u64::from(succeeded);
            }
            Event::CompactionMove { bytes } => self.compaction_bytes_copied += bytes,
            Event::ZeroFill { blocks } => self.giant_blocks_prezeroed += blocks,
            Event::DaemonTick { ns } => self.daemon_ns += ns,
            Event::FaultInjected { site } => self.injected_faults[site as usize] += 1,
            Event::PromotionDeferred { .. } => self.promotions_deferred += 1,
            Event::PvFallback { bytes } => {
                self.pv_fallbacks += 1;
                self.pv_fallback_bytes += bytes;
            }
            Event::BuddySplit { .. }
            | Event::BuddyCoalesce { .. }
            | Event::TlbMiss { .. }
            | Event::SpanBegin { .. }
            | Event::SpanEnd { .. }
            | Event::TraceGap { .. }
            | Event::Gauge { .. }
            | Event::TenantScope { .. } => {}
        }
    }

    /// Folds `count` copies of one event: equal to `count` calls of
    /// [`apply`](Self::apply), in one step for faults.
    pub fn apply_n(&mut self, event: &Event, count: u64) {
        match *event {
            Event::Fault { size, ns, .. } => {
                self.faults[size.rung()] += count;
                self.fault_ns[size.rung()] += ns * count;
            }
            _ => (0..count).for_each(|_| self.apply(event)),
        }
    }

    /// The versioned aggregate snapshot — the consumption surface for
    /// experiments, reports and governors.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            faults: self.faults,
            fault_ns: self.fault_ns,
            giant_attempts_fault: self.giant_attempts_fault,
            giant_failures_fault: self.giant_failures_fault,
            giant_attempts_promo: self.giant_attempts_promo,
            giant_failures_promo: self.giant_failures_promo,
            promotions: self.promotions,
            demotions: self.demotions,
            compaction_bytes_copied: self.compaction_bytes_copied,
            promotion_bytes_copied: self.promotion_bytes_copied,
            pv_bytes_exchanged: self.pv_bytes_exchanged,
            compaction_attempts: self.compaction_attempts,
            compaction_successes: self.compaction_successes,
            daemon_ns: self.daemon_ns,
            bloat_pages: self.bloat_pages,
            bloat_recovered_pages: self.bloat_recovered_pages,
            giant_blocks_prezeroed: self.giant_blocks_prezeroed,
            injected_faults: self.injected_faults,
            promotions_deferred: self.promotions_deferred,
            pv_fallbacks: self.pv_fallbacks,
            pv_fallback_bytes: self.pv_fallback_bytes,
            ..StatsSnapshot::default()
        }
    }

    /// Records a fault outcome.
    pub fn record_fault(&mut self, size: PageSize, ns: u64) {
        self.faults[size.rung()] += 1;
        self.fault_ns[size.rung()] += ns;
    }

    /// Records a 1GB allocation attempt and whether it failed.
    pub fn record_giant_attempt(&mut self, site: AllocSite, failed: bool) {
        match site {
            AllocSite::PageFault => {
                self.giant_attempts_fault += 1;
                if failed {
                    self.giant_failures_fault += 1;
                }
            }
            AllocSite::Promotion => {
                self.giant_attempts_promo += 1;
                if failed {
                    self.giant_failures_promo += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_recording_accumulates() {
        let mut s = MmStats::default();
        s.record_fault(PageSize::new(2), 400);
        s.record_fault(PageSize::new(2), 200);
        s.record_fault(PageSize::BASE, 1);
        let snap = s.snapshot();
        assert_eq!(snap.total_faults(), 3);
        assert_eq!(snap.total_fault_ns(), 601);
        assert_eq!(snap.mean_fault_ns(PageSize::new(2)), Some(300));
    }

    #[test]
    fn failure_rate_is_na_without_attempts() {
        let s = MmStats::default();
        assert_eq!(s.snapshot().giant_failure_rate(AllocSite::PageFault), None);
    }

    #[test]
    fn failure_rate_computes_per_site() {
        let mut s = MmStats::default();
        s.record_giant_attempt(AllocSite::PageFault, true);
        s.record_giant_attempt(AllocSite::PageFault, false);
        s.record_giant_attempt(AllocSite::Promotion, false);
        let snap = s.snapshot();
        assert_eq!(snap.giant_failure_rate(AllocSite::PageFault), Some(0.5));
        assert_eq!(snap.giant_failure_rate(AllocSite::Promotion), Some(0.0));
    }

    #[test]
    fn snapshot_exposes_every_derived_accessor() {
        // Folded in from the old shim-agreement test: `snapshot()` is the
        // only read path, so the derived accessors are exercised against
        // counters accumulated through the write path.
        let mut s = MmStats::default();
        s.record_fault(PageSize::new(2), 100);
        s.record_giant_attempt(AllocSite::Promotion, true);
        let snap = s.snapshot();
        assert_eq!(snap.total_faults(), 1);
        assert_eq!(snap.total_fault_ns(), 100);
        assert_eq!(snap.mean_fault_ns(PageSize::new(2)), Some(100));
        assert_eq!(snap.giant_failure_rate(AllocSite::Promotion), Some(1.0));
        assert_eq!(snap.giant_failure_rate(AllocSite::PageFault), None);
    }

    #[test]
    fn apply_mirrors_snapshot_apply() {
        use trident_obs::StatsSnapshot;
        let events = [
            Event::Fault {
                size: PageSize::new(1),
                site: AllocSite::PageFault,
                ns: 40,
            },
            Event::Promote {
                size: PageSize::new(1),
                bytes_copied: 64,
                bloat_pages: 2,
            },
            Event::Demote {
                size: PageSize::new(1),
                recovered_pages: 2,
            },
            Event::CompactionRun {
                smart: false,
                succeeded: true,
            },
            Event::CompactionMove { bytes: 4096 },
            Event::PvExchange {
                pairs: 8,
                bytes: 1024,
                batched: true,
            },
            Event::ZeroFill { blocks: 1 },
            Event::DaemonTick { ns: 9 },
            Event::FaultInjected {
                site: trident_obs::InjectSite::Alloc,
            },
            Event::PromotionDeferred {
                size: PageSize::new(2),
            },
            Event::PvFallback { bytes: 2048 },
            Event::TlbMiss {
                size: PageSize::BASE,
                walk_cycles: 30,
            },
        ];
        let mut stats = MmStats::default();
        for ev in &events {
            stats.apply(ev);
        }
        assert_eq!(stats.snapshot(), StatsSnapshot::from_events(events.iter()));
    }
}
