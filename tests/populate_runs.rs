//! Batched populate is invisible at the machine level: a `System` whose
//! policy keeps the default per-page `populate` must measure exactly what
//! the same machine measures with the batched overrides — on clean and
//! fragmented memory (where runs end before the free-reserve check could
//! fire), alone and co-located.

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

/// Builds, settles and measures one machine; `per_page` wraps the policy.
fn run(
    kind: PolicyKind,
    fragmented: bool,
    workloads: &[&str],
    per_page: bool,
) -> (Measurement, u64) {
    let mut config = SimConfig::at_scale(256);
    config.measure_samples = 4_000;
    config.measure_tick_every = 1_000;
    if fragmented {
        config = config.fragmented();
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

fn assert_same(kind: PolicyKind, fragmented: bool, workloads: &[&str]) {
    let (batched, free_batched) = run(kind, fragmented, workloads, false);
    let (single, free_single) = run(kind, fragmented, workloads, true);
    let cell = format!("{kind:?}, fragmented {fragmented}, {workloads:?}");
    assert_eq!(batched.snapshot, single.snapshot, "{cell}: snapshot");
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

#[test]
fn batched_populate_matches_per_page_faults_on_clean_memory() {
    for kind in [PolicyKind::Base, PolicyKind::Thp, PolicyKind::Trident] {
        assert_same(kind, false, &["Redis"]);
        assert_same(kind, false, &["XSBench"]);
    }
}

#[test]
fn batched_populate_matches_per_page_faults_on_fragmented_memory() {
    for kind in [PolicyKind::Base, PolicyKind::Thp, PolicyKind::Trident] {
        assert_same(kind, true, &["Btree"]);
        assert_same(kind, true, &["GUPS"]);
    }
}

#[test]
fn batched_populate_matches_per_page_faults_for_co_located_tenants() {
    for kind in [PolicyKind::Base, PolicyKind::Thp, PolicyKind::Trident] {
        assert_same(kind, true, &["Redis", "GUPS", "XSBench"]);
    }
}
