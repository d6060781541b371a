//! The versioned aggregate-counter snapshot.

use trident_types::{PageSize, MAX_RUNGS};

use crate::{AllocSite, Event, InjectSite};

/// Version of the snapshot layout and of the JSONL event schema.
///
/// Bump when a field is added, removed or changes meaning; traces and
/// snapshots from different versions must not be mixed.
pub const SNAPSHOT_VERSION: u32 = 7;

/// Aggregate memory-management counters at one point in time.
///
/// This is the single consumption surface for experiments, reports and
/// governors: the raw material for the paper's Tables 3–5 and Figure 7.
/// The live counters of `trident-core`'s `MmContext` are themselves a
/// snapshot, folded event by event through [`StatsSnapshot::apply`];
/// replaying a recorded trace with [`StatsSnapshot::from_events`] runs
/// the same fold, so the two agree whenever the trace lost no events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Schema version; always [`SNAPSHOT_VERSION`] for values built by
    /// this crate.
    pub version: u32,
    /// Faults served, by ladder rung (indexed by `PageSize::rung()`;
    /// rungs beyond the active geometry's ladder stay zero).
    pub faults: [u64; MAX_RUNGS],
    /// Nanoseconds spent in fault handling, by ladder rung.
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
    /// Promotions performed, by target ladder rung.
    pub promotions: [u64; MAX_RUNGS],
    /// Demotions performed (bloat recovery), by source ladder rung.
    pub demotions: [u64; MAX_RUNGS],
    /// Bytes copied by compaction (Figure 7's quantity).
    pub compaction_bytes_copied: u64,
    /// Bytes copied by promotion (copying small pages into the large one).
    pub promotion_bytes_copied: u64,
    /// Bytes whose copy was elided by Trident_pv mapping exchanges.
    pub pv_bytes_exchanged: u64,
    /// Compaction attempts.
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
    /// [`InjectSite`] wire order.
    pub injected_faults: [u64; InjectSite::ALL.len()],
    /// Promotions deferred (candidate invalidated) for a later re-arm
    /// tick.
    pub promotions_deferred: u64,
}

// The wire schema (job results embed it): every counter in declaration
// order, behind its own schema version so a foreign snapshot is refused
// before any counter is read.
trident_types::json_record! {
    StatsSnapshot {
        version: version(SNAPSHOT_VERSION),
        faults: req,
        fault_ns: req,
        giant_attempts_fault: req,
        giant_failures_fault: req,
        giant_attempts_promo: req,
        giant_failures_promo: req,
        promotions: req,
        demotions: req,
        compaction_bytes_copied: req,
        promotion_bytes_copied: req,
        pv_bytes_exchanged: req,
        compaction_attempts: req,
        compaction_successes: req,
        daemon_ns: req,
        bloat_pages: req,
        bloat_recovered_pages: req,
        giant_blocks_prezeroed: req,
        injected_faults: req,
        promotions_deferred: req,
    }
}

impl Default for StatsSnapshot {
    fn default() -> Self {
        StatsSnapshot {
            version: SNAPSHOT_VERSION,
            faults: [0; MAX_RUNGS],
            fault_ns: [0; MAX_RUNGS],
            giant_attempts_fault: 0,
            giant_failures_fault: 0,
            giant_attempts_promo: 0,
            giant_failures_promo: 0,
            promotions: [0; MAX_RUNGS],
            demotions: [0; MAX_RUNGS],
            compaction_bytes_copied: 0,
            promotion_bytes_copied: 0,
            pv_bytes_exchanged: 0,
            compaction_attempts: 0,
            compaction_successes: 0,
            daemon_ns: 0,
            bloat_pages: 0,
            bloat_recovered_pages: 0,
            giant_blocks_prezeroed: 0,
            injected_faults: [0; InjectSite::ALL.len()],
            promotions_deferred: 0,
        }
    }
}

impl StatsSnapshot {
    /// Folds one event into the counters. Trace-only events are ignored.
    pub fn apply(&mut self, event: &Event) {
        match *event {
            Event::Fault { size, ns, .. } => {
                self.faults[size.rung()] += 1;
                self.fault_ns[size.rung()] += ns;
            }
            Event::GiantAttempt { site, failed } => match site {
                AllocSite::PageFault => {
                    self.giant_attempts_fault += 1;
                    self.giant_failures_fault += u64::from(failed);
                }
                AllocSite::Promotion => {
                    self.giant_attempts_promo += 1;
                    self.giant_failures_promo += u64::from(failed);
                }
            },
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

    /// Rebuilds a snapshot by replaying a trace.
    #[must_use]
    pub fn from_events<'a, I: IntoIterator<Item = &'a Event>>(events: I) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for ev in events {
            snap.apply(ev);
        }
        snap
    }

    /// Merges another snapshot's counters into this one (for combining
    /// guest and hypervisor views, or parallel experiment cells).
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        debug_assert_eq!(self.version, other.version);
        for i in 0..MAX_RUNGS {
            self.faults[i] += other.faults[i];
            self.fault_ns[i] += other.fault_ns[i];
            self.promotions[i] += other.promotions[i];
            self.demotions[i] += other.demotions[i];
        }
        self.giant_attempts_fault += other.giant_attempts_fault;
        self.giant_failures_fault += other.giant_failures_fault;
        self.giant_attempts_promo += other.giant_attempts_promo;
        self.giant_failures_promo += other.giant_failures_promo;
        self.compaction_bytes_copied += other.compaction_bytes_copied;
        self.promotion_bytes_copied += other.promotion_bytes_copied;
        self.pv_bytes_exchanged += other.pv_bytes_exchanged;
        self.compaction_attempts += other.compaction_attempts;
        self.compaction_successes += other.compaction_successes;
        self.daemon_ns += other.daemon_ns;
        self.bloat_pages += other.bloat_pages;
        self.bloat_recovered_pages += other.bloat_recovered_pages;
        self.giant_blocks_prezeroed += other.giant_blocks_prezeroed;
        for i in 0..self.injected_faults.len() {
            self.injected_faults[i] += other.injected_faults[i];
        }
        self.promotions_deferred += other.promotions_deferred;
    }

    /// 1GB allocation failure rate at `site`, or `None` if never attempted
    /// (the "NA" entries of Table 4).
    #[must_use]
    pub fn giant_failure_rate(&self, site: AllocSite) -> Option<f64> {
        let (attempts, failures) = match site {
            AllocSite::PageFault => (self.giant_attempts_fault, self.giant_failures_fault),
            AllocSite::Promotion => (self.giant_attempts_promo, self.giant_failures_promo),
        };
        (attempts > 0).then(|| failures as f64 / attempts as f64)
    }

    /// Total faults across sizes.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().sum()
    }

    /// Total fault-handling time.
    #[must_use]
    pub fn total_fault_ns(&self) -> u64 {
        self.fault_ns.iter().sum()
    }

    /// Mean fault latency at one rung in nanoseconds, if any occurred.
    ///
    /// Callers that want the paper's "mean 1GB fault latency" pass their
    /// geometry's `largest()` rung.
    #[must_use]
    pub fn mean_fault_ns(&self, size: PageSize) -> Option<u64> {
        let n = self.faults[size.rung()];
        (n > 0).then(|| self.fault_ns[size.rung()] / n)
    }

    /// Total faults injected by a fault plan, across all sites.
    #[must_use]
    pub fn total_injected_faults(&self) -> u64 {
        self.injected_faults.iter().sum()
    }

    /// Faults injected at one site.
    #[must_use]
    pub fn injected_at(&self, site: InjectSite) -> u64 {
        self.injected_faults[site as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_manual_accumulation() {
        let events = [
            Event::Fault {
                size: PageSize::new(2),
                site: AllocSite::PageFault,
                ns: 400,
            },
            Event::Fault {
                size: PageSize::new(2),
                site: AllocSite::PageFault,
                ns: 200,
            },
            Event::Fault {
                size: PageSize::BASE,
                site: AllocSite::PageFault,
                ns: 1,
            },
            Event::GiantAttempt {
                site: AllocSite::PageFault,
                failed: true,
            },
            Event::GiantAttempt {
                site: AllocSite::PageFault,
                failed: false,
            },
            Event::CompactionRun {
                smart: true,
                succeeded: true,
            },
            Event::TlbMiss {
                size: PageSize::BASE,
                walk_cycles: 35,
            },
        ];
        let mut snap = StatsSnapshot::from_events(events.iter());
        assert_eq!(snap.total_faults(), 3);
        assert_eq!(snap.total_fault_ns(), 601);
        assert_eq!(snap.mean_fault_ns(PageSize::new(2)), Some(300));
        assert_eq!(
            snap.giant_failure_rate(AllocSite::PageFault),
            Some(0.5),
            "one of two attempts failed"
        );
        assert_eq!(snap.giant_failure_rate(AllocSite::Promotion), None);
        assert_eq!(
            (snap.compaction_attempts, snap.compaction_successes),
            (1, 1)
        );
        snap.apply(&Event::GiantAttempt {
            site: AllocSite::Promotion,
            failed: true,
        });
        assert_eq!(snap.giant_failure_rate(AllocSite::Promotion), Some(1.0));
    }

    #[test]
    fn apply_n_equals_repeated_apply() {
        for event in [
            Event::Fault {
                size: PageSize::new(1),
                site: AllocSite::PageFault,
                ns: 40,
            },
            Event::CompactionMove { bytes: 2048 },
        ] {
            let mut batched = StatsSnapshot::default();
            batched.apply_n(&event, 3);
            let repeated = StatsSnapshot::from_events([event; 3].iter());
            assert_eq!(batched, repeated);
        }
    }

    #[test]
    fn absorb_sums_all_counters() {
        let mut a = StatsSnapshot::from_events([Event::DaemonTick { ns: 10 }].iter());
        let b = StatsSnapshot::from_events(
            [
                Event::DaemonTick { ns: 5 },
                Event::ZeroFill { blocks: 2 },
                Event::Demote {
                    size: PageSize::new(1),
                    recovered_pages: 3,
                },
            ]
            .iter(),
        );
        a.absorb(&b);
        assert_eq!(a.daemon_ns, 15);
        assert_eq!(a.giant_blocks_prezeroed, 2);
        assert_eq!(a.demotions[1], 1);
        assert_eq!(a.bloat_recovered_pages, 3);
    }

    #[test]
    fn injection_events_land_in_their_counters() {
        let events = [
            Event::FaultInjected {
                site: InjectSite::Alloc,
            },
            Event::FaultInjected {
                site: InjectSite::Alloc,
            },
            Event::FaultInjected {
                site: InjectSite::Compaction,
            },
            Event::PromotionDeferred {
                size: PageSize::new(2),
            },
        ];
        let mut snap = StatsSnapshot::from_events(events.iter());
        assert_eq!(snap.injected_at(InjectSite::Alloc), 2);
        assert_eq!(snap.injected_at(InjectSite::Compaction), 1);
        assert_eq!(snap.injected_at(InjectSite::Promotion), 0);
        assert_eq!(snap.total_injected_faults(), 3);
        assert_eq!(snap.promotions_deferred, 1);
        let copy = snap;
        snap.absorb(&copy);
        assert_eq!(snap.total_injected_faults(), 6);
        assert_eq!(snap.promotions_deferred, 2);
    }
}
