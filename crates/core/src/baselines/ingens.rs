//! The Ingens baseline (OSDI 2016, the paper's reference [36]).
//!
//! Ingens "mixes THP's aggressive large page allocation with FreeBSD's
//! conservative approach to reduce memory bloat and latency": instead of
//! mapping a 2MB page at first touch, it waits until a *utilization
//! threshold* of the huge-sized region has actually been touched with 4KB
//! pages, then promotes. That bounds bloat (untouched memory is never
//! backed by a large page) at the cost of running longer on 4KB pages.
//! Like THP and HawkEye it manages 2MB pages only.

use trident_obs::Event;
use trident_types::{PageSize, Vpn};
use trident_vm::{promotion_candidates, AddressSpace};

use crate::fault::fault_base;
use crate::{
    promote_chunk, CompactionKind, Compactor, FaultOutcome, MmContext, PagePolicy, PolicyError,
    PromoteError, PromotionStyle, SpaceSet, TickOutcome,
};

/// Fraction of a huge region that must be touched before promotion
/// (Ingens' default corresponds to 90%).
const UTILIZATION_THRESHOLD: f64 = 0.9;

/// The Ingens policy: conservative, utilization-gated 2MB promotion.
#[derive(Debug, Clone)]
pub struct IngensPolicy {
    compactor: Compactor,
    next_space: usize,
    /// Chunks promoted per tick.
    chunk_budget: usize,
}

impl IngensPolicy {
    /// Creates the policy with the canonical 90% utilization threshold.
    #[must_use]
    pub fn new() -> IngensPolicy {
        IngensPolicy {
            compactor: Compactor::new(CompactionKind::Normal),
            next_space: 0,
            chunk_budget: 16,
        }
    }
}

impl Default for IngensPolicy {
    fn default() -> Self {
        IngensPolicy::new()
    }
}

impl PagePolicy for IngensPolicy {
    fn name(&self) -> String {
        "Ingens".to_owned()
    }

    /// Conservative fault path: always 4KB — large pages come only from
    /// utilization-gated promotion.
    fn on_fault(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        vpn: Vpn,
    ) -> Result<FaultOutcome, PolicyError> {
        fault_base(ctx, space, vpn)
    }

    fn on_tick(&mut self, ctx: &mut MmContext, spaces: &mut SpaceSet) -> TickOutcome {
        let mut out = TickOutcome::default();
        let ids = spaces.ids();
        if ids.is_empty() {
            return out;
        }
        let asid = ids[self.next_space % ids.len()];
        self.next_space = self.next_space.wrapping_add(1);

        let geo = ctx.geometry();
        let span = geo.base_pages(PageSize::new(1));
        let scan_pages = spaces
            .get(asid)
            .map(|s| s.total_vma_pages())
            .unwrap_or_default();
        out.daemon_ns += scan_pages * ctx.cost.scan_page_ns;

        // Utilization gate: only chunks whose touched fraction clears the
        // threshold are promoted — the anti-bloat half of Ingens.
        let candidates: Vec<Vpn> = {
            let Some(space) = spaces.get(asid) else {
                return out;
            };
            promotion_candidates(space, PageSize::new(1))
                .into_iter()
                .filter(|(_, profile)| {
                    profile.mapped_total() as f64 >= UTILIZATION_THRESHOLD * span as f64
                })
                .map(|(head, _)| head)
                .collect()
        };
        for head in candidates.into_iter().take(self.chunk_budget) {
            if !ctx.mem.has_free(PageSize::new(1)) {
                out.compaction_runs += 1;
                let c = self.compactor.compact(ctx, spaces, PageSize::new(1));
                out.daemon_ns += c.ns;
                if !c.success {
                    break;
                }
            }
            match promote_chunk(
                ctx,
                spaces,
                asid,
                head,
                PageSize::new(1),
                PromotionStyle::Copy,
            ) {
                Ok(p) => {
                    out.daemon_ns += p.ns;
                    out.promotions += 1;
                }
                Err(PromoteError::NoContiguity) => break,
                Err(PromoteError::NotACandidate) => {}
            }
        }
        ctx.record(Event::DaemonTick { ns: out.daemon_ns });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_phys::PhysicalMemory;
    use trident_types::{AsId, PageGeometry};
    use trident_vm::VmaKind;

    fn setup() -> (MmContext, SpaceSet) {
        let geo = PageGeometry::TINY;
        let ctx = MmContext::new(PhysicalMemory::new(
            geo,
            8 * geo.base_pages(PageSize::new(2)),
        ));
        let mut spaces = SpaceSet::new();
        spaces.insert(AddressSpace::new(AsId::new(1), geo));
        (ctx, spaces)
    }

    #[test]
    fn fault_path_is_always_base_pages() {
        let (mut ctx, mut spaces) = setup();
        let mut policy = IngensPolicy::new();
        let space = spaces.get_mut(AsId::new(1)).unwrap();
        space.mmap_at(Vpn::new(0), 64, VmaKind::Anon).unwrap();
        let out = policy.on_fault(&mut ctx, space, Vpn::new(0)).unwrap();
        assert_eq!(out.size, PageSize::BASE);
    }

    #[test]
    fn promotion_waits_for_the_utilization_threshold() {
        let (mut ctx, mut spaces) = setup();
        let mut policy = IngensPolicy::new(); // 90% of an 8-page chunk = 8 pages
        {
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            space.mmap_at(Vpn::new(0), 16, VmaKind::Anon).unwrap();
            // Touch 6 of 8 pages in the first huge chunk: below threshold.
            for i in 0..6 {
                policy.on_fault(&mut ctx, space, Vpn::new(i)).unwrap();
            }
        }
        policy.on_tick(&mut ctx, &mut spaces);
        let space = spaces.get(AsId::new(1)).unwrap();
        assert_eq!(space.page_table().mapped_pages(PageSize::new(1)), 0);
        // Touch the rest; now it promotes.
        {
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            for i in 6..8 {
                policy.on_fault(&mut ctx, space, Vpn::new(i)).unwrap();
            }
        }
        policy.on_tick(&mut ctx, &mut spaces);
        let space = spaces.get(AsId::new(1)).unwrap();
        assert_eq!(space.page_table().mapped_pages(PageSize::new(1)), 1);
    }

    #[test]
    fn conservative_promotion_creates_no_bloat() {
        let (mut ctx, mut spaces) = setup();
        let mut policy = IngensPolicy::new();
        {
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            space.mmap_at(Vpn::new(0), 64, VmaKind::Anon).unwrap();
            // Sparse touching: half of each huge chunk.
            for chunk in 0..8 {
                for i in 0..4 {
                    policy
                        .on_fault(&mut ctx, space, Vpn::new(chunk * 8 + i))
                        .unwrap();
                }
            }
        }
        for _ in 0..4 {
            policy.on_tick(&mut ctx, &mut spaces);
        }
        assert_eq!(
            ctx.snapshot().bloat_pages,
            0,
            "Ingens never promotes sparse chunks"
        );
        assert_eq!(ctx.snapshot().promotions[1], 0);
    }
}
