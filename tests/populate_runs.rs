//! Batched populate is invisible at the machine level: a `System` whose
//! policy keeps the default per-page `populate` must measure exactly what
//! the same machine measures with the batched overrides — on clean and
//! fragmented memory (where runs end before the free-reserve check could
//! fire), alone and co-located. Traced and profiled, the two must also
//! record the same trace, event for event, and the same profile.

use trident_repro::core::{
    BasePolicy, FaultOutcome, MmContext, PagePolicy, PolicyError, SpaceSet, ThpPolicy, TickOutcome,
    TridentConfig, TridentPolicy,
};
use trident_repro::sim::{Measurement, PolicyKind, SimConfig, System};
use trident_repro::types::Vpn;
use trident_repro::vm::AddressSpace;
use trident_repro::workloads::WorkloadSpec;

/// Forwards faults and ticks but keeps the default per-page `populate`.
struct PerPage(Box<dyn PagePolicy>);

impl PagePolicy for PerPage {
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

    fn on_tick(&mut self, ctx: &mut MmContext, spaces: &mut SpaceSet) -> TickOutcome {
        self.0.on_tick(ctx, spaces)
    }
}

fn policy(kind: PolicyKind) -> Box<dyn PagePolicy> {
    match kind {
        PolicyKind::Base => Box::new(BasePolicy::new()),
        PolicyKind::Thp => Box::new(ThpPolicy::new()),
        _ => Box::new(TridentPolicy::new(TridentConfig::full())),
    }
}

/// Builds, settles and measures one machine; `per_page` wraps the policy,
/// and `traced` attaches a trace ring and a profile.
fn run(
    kind: PolicyKind,
    fragmented: bool,
    workloads: &[&str],
    per_page: bool,
    traced: bool,
) -> (Measurement, u64) {
    let mut config = SimConfig::at_scale(256);
    config.measure_samples = 4_000;
    config.measure_tick_every = 1_000;
    if fragmented {
        config = config.fragmented();
    }
    if traced {
        config.trace_capacity = Some(1 << 20);
        config.profile = true;
    }
    let policy = if per_page {
        Box::new(PerPage(policy(kind)))
    } else {
        policy(kind)
    };
    let mut builder = System::builder(config).policy_instance(policy);
    for name in workloads {
        builder = builder.workload(WorkloadSpec::by_name(name).unwrap());
    }
    let mut system = builder.build().unwrap();
    system.settle();
    let m = system.measure();
    (m, system.ctx.mem.free_pages())
}

fn assert_same(kind: PolicyKind, fragmented: bool, workloads: &[&str], traced: bool) {
    let (batched, free_batched) = run(kind, fragmented, workloads, false, traced);
    let (single, free_single) = run(kind, fragmented, workloads, true, traced);
    let cell = format!("{kind:?}, fragmented {fragmented}, {workloads:?}, traced {traced}");
    assert_eq!(batched.snapshot, single.snapshot, "{cell}: snapshot");
    if traced {
        assert_eq!(
            single.trace_dropped, 0,
            "{cell}: the ring holds the whole trace"
        );
        assert!(!single.trace.is_empty(), "{cell}: empty trace");
        assert_eq!(
            batched.trace_dropped, single.trace_dropped,
            "{cell}: dropped"
        );
        if let Some(i) = (0..batched.trace.len().max(single.trace.len()))
            .find(|&i| batched.trace.get(i) != single.trace.get(i))
        {
            panic!(
                "{cell}: trace differs at event {i}: {:?} != {:?}",
                batched.trace.get(i),
                single.trace.get(i)
            );
        }
        assert!(single.profile.is_some(), "{cell}: no profile");
        assert!(batched.profile == single.profile, "{cell}: profile");
    }
    assert_eq!(
        batched.mapped_bytes, single.mapped_bytes,
        "{cell}: mapped bytes"
    );
    assert_eq!(batched.walks, single.walks, "{cell}: walks");
    assert_eq!(
        batched.walk_cycles, single.walk_cycles,
        "{cell}: walk cycles"
    );
    assert_eq!(
        batched.miss_by_chunk, single.miss_by_chunk,
        "{cell}: misses"
    );
    assert_eq!(free_batched, free_single, "{cell}: free pages");
    for (a, b) in batched.tenants.iter().zip(&single.tenants) {
        assert_eq!(
            a.snapshot, b.snapshot,
            "{cell}: tenant {} snapshot",
            a.tenant
        );
        assert_eq!(
            a.mapped_bytes, b.mapped_bytes,
            "{cell}: tenant {}",
            a.tenant
        );
    }
}

/// Every cell is compared plain, then traced and profiled.
const MODES: [bool; 2] = [false, true];

#[test]
fn batched_populate_matches_per_page_faults_on_clean_memory() {
    for traced in MODES {
        for kind in [PolicyKind::Base, PolicyKind::Thp, PolicyKind::Trident] {
            assert_same(kind, false, &["Redis"], traced);
            assert_same(kind, false, &["XSBench"], traced);
        }
    }
}

#[test]
fn batched_populate_matches_per_page_faults_on_fragmented_memory() {
    for traced in MODES {
        for kind in [PolicyKind::Base, PolicyKind::Thp, PolicyKind::Trident] {
            assert_same(kind, true, &["Btree"], traced);
            assert_same(kind, true, &["GUPS"], traced);
        }
    }
}

#[test]
fn batched_populate_matches_per_page_faults_for_co_located_tenants() {
    for traced in MODES {
        for kind in [PolicyKind::Base, PolicyKind::Thp, PolicyKind::Trident] {
            assert_same(kind, true, &["Redis", "GUPS", "XSBench"], traced);
        }
    }
}
