//! Property test for end-to-end tenant attribution.
//!
//! The multi-tenant engine's accounting contract: as long as a scope is
//! always held — `SystemBuilder` sets one before the first fault and
//! every engine step re-scopes — the per-tenant snapshots sum
//! componentwise to the pooled machine snapshot, whatever the event mix
//! and however the scope bounces between tenants. No counter may leak
//! out of attribution and none may be double-counted.

use proptest::prelude::*;
use trident_repro::core::{AllocSite, Event, InjectSite, MmContext, StatsSnapshot};
use trident_repro::phys::PhysicalMemory;
use trident_repro::types::{PageGeometry, PageSize, TenantId};

const TENANTS: u32 = 3;

fn page_sizes() -> impl Strategy<Value = PageSize> {
    // The attribution contract is ladder-agnostic: exercise every rung
    // slot the counters can index, not just one geometry's ladder.
    (0usize..trident_repro::types::MAX_RUNGS).prop_map(PageSize::new)
}

fn sites() -> impl Strategy<Value = AllocSite> {
    prop_oneof![Just(AllocSite::PageFault), Just(AllocSite::Promotion)]
}

/// Every counter-bearing event the engine can record, with arbitrary
/// payloads. Trace-only events are deliberately absent: they touch no
/// counters, so they cannot break the sum.
fn events() -> impl Strategy<Value = Event> {
    prop_oneof![
        (page_sizes(), sites(), 0u64..10_000).prop_map(|(size, site, ns)| Event::Fault {
            size,
            site,
            ns
        }),
        (sites(), any::<bool>()).prop_map(|(site, failed)| Event::GiantAttempt { site, failed }),
        (page_sizes(), 0u64..(1 << 20), 0u64..512).prop_map(|(size, bytes_copied, bloat_pages)| {
            Event::Promote {
                size,
                bytes_copied,
                bloat_pages,
            }
        }),
        (page_sizes(), 0u64..512).prop_map(|(size, recovered_pages)| Event::Demote {
            size,
            recovered_pages,
        }),
        (1u64..64, 0u64..(1 << 20)).prop_map(|(pairs, bytes)| Event::PvExchange { pairs, bytes }),
        (any::<bool>(), any::<bool>())
            .prop_map(|(smart, succeeded)| Event::CompactionRun { smart, succeeded }),
        (0u64..(1 << 16)).prop_map(|bytes| Event::CompactionMove { bytes }),
        (0u64..8).prop_map(|blocks| Event::ZeroFill { blocks }),
        (0u64..10_000).prop_map(|ns| Event::DaemonTick { ns }),
        page_sizes().prop_map(|size| Event::PromotionDeferred { size }),
        (0usize..InjectSite::ALL.len()).prop_map(|i| Event::FaultInjected {
            site: InjectSite::ALL[i],
        }),
    ]
}

proptest! {
    #[test]
    fn per_tenant_snapshots_sum_to_the_pooled_snapshot(
        ops in prop::collection::vec((0u32..TENANTS, events()), 0..200),
    ) {
        let geo = PageGeometry::TINY;
        let mut ctx = MmContext::new(PhysicalMemory::new(
            geo,
            4 * geo.base_pages(geo.largest()),
        ));
        for (tenant, event) in &ops {
            ctx.set_tenant_scope(Some(TenantId::new(*tenant)));
            ctx.record(*event);
        }

        let mut summed = StatsSnapshot::default();
        for t in 0..TENANTS {
            summed.absorb(&ctx.tenant_snapshot(TenantId::new(t)));
        }
        prop_assert_eq!(summed, ctx.snapshot());

        // A tenant that never held the scope reads as exactly zeros.
        prop_assert_eq!(
            ctx.tenant_snapshot(TenantId::new(TENANTS + 5)),
            StatsSnapshot::default()
        );
    }
}
