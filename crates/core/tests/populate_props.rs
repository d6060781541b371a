//! Property tests for batched populate: every override of
//! `PagePolicy::populate` must leave exactly what the default per-page
//! loop leaves from the same state — the same pooled counters, tenant rows,
//! buddy state, frame table, region counters and page table, the same
//! trace under a recorder, the same injector state under a fault plan,
//! and the same error at the same page when memory runs out. The
//! scenarios produce 4KB runs and runs of rung-1 chunks: VMAs spanning
//! several rung-2 and top-rung chunks and ending inside a chunk, calls
//! starting and ending mid-chunk, and memory too small or too
//! fragmented for every chunk.

use std::collections::BTreeMap;

use proptest::prelude::*;
use trident_core::{
    map_chunk, BasePolicy, FaultInjector, FaultOutcome, FaultPlan, InjectSite, MmContext,
    NoopRecorder, ObsRecorder, PagePolicy, PolicyError, SpaceSet, ThpPolicy, TridentConfig,
    TridentPolicy,
};
use trident_phys::{FrameUse, PhysicalMemory};
use trident_types::{AsId, PageGeometry, PageSize, TenantId, Vpn};
use trident_vm::{AddressSpace, PageTable, VmaKind};

/// Forwards faults to the wrapped policy but keeps the default
/// `populate`: the per-page reference every override is held to.
#[derive(Debug, Clone)]
struct PerPage<P>(P);

impl<P: PagePolicy> PagePolicy for PerPage<P> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn on_fault(
        &mut self,
        ctx: &mut MmContext,
        space: &mut AddressSpace,
        vpn: Vpn,
    ) -> Result<FaultOutcome, PolicyError> {
        self.0.on_fault(ctx, space, vpn)
    }

    fn on_tick(&mut self, ctx: &mut MmContext, spaces: &mut SpaceSet) -> trident_core::TickOutcome {
        self.0.on_tick(ctx, spaces)
    }
}

/// x86-64, sv48 and aarch64 at scale 64, plus the miniature ladders.
fn geometries() -> impl Strategy<Value = PageGeometry> {
    prop_oneof![
        Just(PageGeometry::TINY),
        Just(PageGeometry::TINY_NAPOT),
        Just(PageGeometry::X86_64.scaled(6)),
        Just(PageGeometry::RISCV_SV48.scaled(6)),
        Just(PageGeometry::AARCH64.scaled(6)),
    ]
}

/// One generated scenario: a machine, a space, and the calls to replay.
#[derive(Debug, Clone)]
struct Scenario {
    geo: PageGeometry,
    /// Giant regions of physical memory.
    regions: u64,
    /// Page-cache and kernel churn (order, kernel?) before the load.
    churn: Vec<(u8, bool)>,
    /// Indexes of churned blocks freed again.
    frees: Vec<prop::sample::Index>,
    /// VMAs as (pages in units of 1/16 giant page, extra base pages, gap
    /// in base pages).
    vmas: Vec<(u64, u64, u64)>,
    /// Single faults before the replay: a salt into the allocated pages,
    /// and whether to map the page at 4KB directly (as an earlier fault
    /// would have, before its VMA grew), leaving its chunks partly mapped.
    touches: Vec<(u64, bool)>,
    /// Populate calls (start salt, pages), each optionally followed by a
    /// daemon tick. Even salts start near a VMA's first page, where chunks
    /// straddle the VMA start. Long calls cross rung-2 and top-rung
    /// boundaries.
    calls: Vec<(u64, u64, bool)>,
    /// Attach a ring recorder: the run path must record the per-page
    /// trace.
    traced: bool,
    /// Install a fault plan (seed, per-mille) biting large allocations:
    /// the run path must draw and inject what the per-page faults do.
    alloc_plan: Option<(u64, u16)>,
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    geometries().prop_flat_map(|geo| {
        let machine = (
            Just(geo),
            2u64..5,
            prop::collection::vec((0..=geo.max_order(), any::<bool>()), 0..40),
            prop::collection::vec(any::<prop::sample::Index>(), 0..30),
        );
        let giant = geo.base_pages(geo.largest());
        let load = (
            prop::collection::vec(
                (
                    1u64..40,
                    prop_oneof![Just(0u64), 1u64..12],
                    prop_oneof![Just(0u64), 1u64..20],
                ),
                1..6,
            ),
            prop::collection::vec((any::<u64>(), any::<bool>()), 0..40),
            prop::collection::vec(
                (
                    any::<u64>(),
                    prop_oneof![1u64..200, 1..3 * giant],
                    any::<bool>(),
                ),
                1..10,
            ),
            any::<bool>(),
            prop_oneof![
                Just(None),
                (any::<u64>(), prop_oneof![1u16..100, 100u16..=1000]).prop_map(Some),
            ],
        );
        (machine, load).prop_map(
            |((geo, regions, churn, frees), (vmas, touches, calls, traced, alloc_plan))| Scenario {
                geo,
                regions,
                churn,
                frees,
                vmas,
                touches,
                calls,
                traced,
                alloc_plan,
            },
        )
    })
}

const ASID: AsId = AsId::new(1);

/// Boots the scenario's machine under `policy`: churn, VMAs, single
/// faults, then tenant 1's scope, the recorder and the fault plan.
fn boot(s: &Scenario, policy: &mut dyn PagePolicy) -> (MmContext, SpaceSet) {
    let geo = s.geo;
    let giant = geo.base_pages(geo.largest());
    let mut ctx = MmContext::new(PhysicalMemory::new(geo, s.regions * giant));
    let mut held = Vec::new();
    for &(order, kernel) in &s.churn {
        let use_ = if kernel {
            FrameUse::Kernel
        } else {
            FrameUse::PageCache
        };
        if let Ok(head) = ctx.mem.allocate_order(order, use_, None, &mut NoopRecorder) {
            held.push(head);
        }
    }
    for idx in &s.frees {
        if held.is_empty() {
            break;
        }
        ctx.mem
            .free(held.swap_remove(idx.index(held.len())), &mut NoopRecorder)
            .unwrap();
    }
    let mut spaces = SpaceSet::new();
    let mut space = AddressSpace::new(ASID, geo);
    for &(sixteenths, extra, gap) in &s.vmas {
        let pages = (sixteenths * giant / 16).max(1) + extra;
        space
            .mmap(pages, VmaKind::Anon, PageSize::BASE, gap)
            .unwrap();
    }
    let end = space.vmas().last().map_or(0, |v| v.end().raw());
    for &(salt, as_base) in &s.touches {
        let vpn = Vpn::new(salt % end);
        if space.vma_containing(vpn).is_some() && space.page_table().translate(vpn).is_none() {
            // Running out of memory here just leaves the page unmapped.
            let _ = if as_base {
                map_chunk(&mut ctx, &mut space, vpn, PageSize::BASE).map(|_| ())
            } else {
                policy.on_fault(&mut ctx, &mut space, vpn).map(|_| ())
            };
        }
    }
    spaces.insert(space);
    ctx.set_tenant_scope(Some(TenantId::new(1)));
    if s.traced {
        ctx.recorder = ObsRecorder::ring(1 << 20);
    }
    if let Some((seed, prob)) = s.alloc_plan {
        let plan = FaultPlan::builder(seed).site(InjectSite::Alloc, prob);
        ctx.fault = FaultInjector::new(plan.build().unwrap());
    }
    (ctx, spaces)
}

/// The table's packed state without the walker cache, which lookups
/// fill differently on the two paths.
fn packed_state(pt: &PageTable) -> String {
    let dbg = format!("{pt:?}");
    dbg[..dbg.find("last_walk").expect("walker cache field")].to_owned()
}

fn assert_same_state(a: &MmContext, sa: &SpaceSet, b: &MmContext, sb: &SpaceSet) {
    assert_eq!(a.snapshot(), b.snapshot(), "pooled counters");
    for tenant in [TenantId::new(0), TenantId::new(1)] {
        assert_eq!(a.tenant_snapshot(tenant), b.tenant_snapshot(tenant));
    }
    let (ba, bb) = (a.mem.buddy(), b.mem.buddy());
    assert_eq!(ba.free_pages(), bb.free_pages());
    for order in 0..=ba.max_order() {
        assert!(
            ba.free_blocks_iter(order).eq(bb.free_blocks_iter(order)),
            "free list of order {order}"
        );
    }
    assert_eq!(
        format!("{:?}", a.mem.frames()),
        format!("{:?}", b.mem.frames())
    );
    assert_eq!(
        format!("{:?}", a.mem.regions()),
        format!("{:?}", b.mem.regions())
    );
    assert_eq!(format!("{:?}", a.zero_pool), format!("{:?}", b.zero_pool));
    for site in InjectSite::ALL {
        assert_eq!(
            a.fault.decisions(site),
            b.fault.decisions(site),
            "{site} draws"
        );
        assert_eq!(
            a.fault.injected(site),
            b.fault.injected(site),
            "{site} injections"
        );
    }
    let (pa, pb) = (
        sa.get(ASID).unwrap().page_table(),
        sb.get(ASID).unwrap().page_table(),
    );
    assert_eq!(packed_state(pa), packed_state(pb));
    let trace = |ctx: &MmContext| -> Option<Vec<trident_core::Event>> {
        ctx.recorder.tracer().map(|t| t.events().copied().collect())
    };
    assert_eq!(trace(a), trace(b));
}

/// Where a call with `salt` starts: near a VMA's first page for even
/// salts, anywhere up to 8 pages past the last VMA for odd ones, so
/// starts in a gap or past the end reach the error path too.
fn call_start(spaces: &SpaceSet, salt: u64) -> Vpn {
    let space = spaces.get(ASID).unwrap();
    let starts: Vec<u64> = space.vmas().map(|v| v.start.raw()).collect();
    let end = space.vmas().last().map_or(1, |v| v.end().raw());
    Vpn::new(if salt.is_multiple_of(2) {
        starts[(salt / 2) as usize % starts.len()] + (salt >> 32) % 8
    } else {
        salt % (end + 8)
    })
}

/// Replays the scenario's populate calls through `policy`'s override and
/// through the default loop, comparing after every call.
fn check<P: PagePolicy + Clone + std::fmt::Debug + 'static>(s: &Scenario, mut policy: P) {
    let (mut ctx_a, mut spaces_a) = boot(s, &mut policy);
    let (mut ctx_b, mut spaces_b) = (ctx_a.clone(), spaces_a.clone());
    let mut reference = PerPage(policy.clone());
    for &(salt, pages, tick) in &s.calls {
        let start = call_start(&spaces_a, salt);
        let got = policy.populate(&mut ctx_a, spaces_a.get_mut(ASID).unwrap(), start, pages);
        let want = reference.populate(&mut ctx_b, spaces_b.get_mut(ASID).unwrap(), start, pages);
        assert_eq!(got, want, "populate({start:?}, {pages})");
        assert_same_state(&ctx_a, &spaces_a, &ctx_b, &spaces_b);
        assert_eq!(format!("{policy:?}"), format!("{:?}", reference.0));
        if tick {
            policy.on_tick(&mut ctx_a, &mut spaces_a);
            reference.on_tick(&mut ctx_b, &mut spaces_b);
            assert_same_state(&ctx_a, &spaces_a, &ctx_b, &spaces_b);
        }
    }
    let (mut dirty_a, mut dirty_b) = (Vec::new(), Vec::new());
    spaces_a
        .get_mut(ASID)
        .unwrap()
        .page_table_mut()
        .drain_dirty_chunks_into(&mut dirty_a);
    spaces_b
        .get_mut(ASID)
        .unwrap()
        .page_table_mut()
        .drain_dirty_chunks_into(&mut dirty_b);
    assert_eq!(dirty_a, dirty_b);
}

/// How many of the scenario's populate calls map two or more rung-1
/// chunks through `policy`'s override, and how many of those also
/// inject an allocation fault.
fn rung_1_runs<P: PagePolicy>(s: &Scenario, mut policy: P) -> [u64; 2] {
    let (mut ctx, mut spaces) = boot(s, &mut policy);
    let mut runs = [0; 2];
    for &(salt, pages, tick) in &s.calls {
        let start = call_start(&spaces, salt);
        let faults = ctx.snapshot().faults[1];
        let injected = ctx.fault.injected(InjectSite::Alloc);
        let _ = policy.populate(&mut ctx, spaces.get_mut(ASID).unwrap(), start, pages);
        if ctx.snapshot().faults[1] - faults >= 2 {
            runs[0] += 1;
            runs[1] += u64::from(ctx.fault.injected(InjectSite::Alloc) > injected);
        }
        if tick {
            policy.on_tick(&mut ctx, &mut spaces);
        }
    }
    runs
}

/// The scenarios exercise the rung-1 runs: on every ladder, THP and
/// Trident both see populate calls that map at least two rung-1 chunks,
/// and under each policy some of those calls inject allocation faults.
#[test]
fn scenarios_produce_rung_1_runs() {
    let mut rng = proptest::test_runner::rng_for("scenarios_produce_rung_1_runs");
    let mut seen: BTreeMap<(&str, &str), [u64; 2]> = BTreeMap::new();
    for _ in 0..96 {
        let s = scenarios().generate(&mut rng);
        let cells = [
            ("THP", rung_1_runs(&s, ThpPolicy::new())),
            (
                "Trident",
                rung_1_runs(&s, TridentPolicy::new(TridentConfig::full())),
            ),
        ];
        for (policy, [runs, injected]) in cells {
            let entry = seen.entry((s.geo.name(), policy)).or_default();
            entry[0] += runs;
            entry[1] += injected;
        }
    }
    assert_eq!(seen.len(), 10, "every ladder under both policies: {seen:?}");
    assert!(seen.values().all(|runs| runs[0] > 0), "{seen:?}");
    for policy in ["THP", "Trident"] {
        let injected: u64 = seen
            .iter()
            .filter(|((_, p), _)| *p == policy)
            .map(|(_, runs)| runs[1])
            .sum();
        assert!(injected > 0, "{policy}: no run met an injection: {seen:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The 4KB baseline's runs equal its per-page faults.
    #[test]
    fn base_populate_equals_per_page_faults(s in scenarios()) {
        check(&s, BasePolicy::new());
    }

    /// THP's 4KB fallback runs and runs of huge chunks equal its
    /// per-page faults.
    #[test]
    fn thp_populate_equals_per_page_faults(s in scenarios()) {
        check(&s, ThpPolicy::new());
    }

    /// Trident's 4KB fallback runs and runs of rung-1 chunks equal its
    /// per-page faults, with and without 2MB pages.
    #[test]
    fn trident_populate_equals_per_page_faults(s in scenarios()) {
        check(&s, TridentPolicy::new(TridentConfig::full()));
        check(&s, TridentPolicy::new(TridentConfig::giant_only()));
    }
}
