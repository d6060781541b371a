//! Batched populate is invisible at the machine level: a `System` whose
//! policy keeps the default per-page `populate` must measure exactly what
//! the same machine measures with the batched overrides — on clean and
//! fragmented memory (where runs end before the free-reserve check could
//! fire), alone and co-located, and under a fault plan. Traced and
//! profiled, the two must also record the same trace, event for event,
//! and the same profile.

use trident_repro::core::{
    BasePolicy, FaultInjector, FaultOutcome, InjectSite, MmContext, PagePolicy, PolicyError,
    SpaceSet, ThpPolicy, TickOutcome, TridentConfig, TridentPolicy,
};
use trident_repro::sim::{Measurement, PolicyKind, SimConfig, System, TenantSpec};
use trident_repro::types::Vpn;
use trident_repro::vm::AddressSpace;
use trident_repro::workloads::WorkloadSpec;
use trident_serve::proto::FaultSpec;
use trident_serve::{JobSpec, TenantJob};

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

/// A machine to compare: its configuration and its tenants.
type Machine = (SimConfig, Vec<TenantSpec>);

/// Neutral tenants running `workloads` at scale 256.
fn machine(fragmented: bool, workloads: &[&str]) -> Machine {
    let mut config = SimConfig::at_scale(256);
    config.measure_samples = 4_000;
    config.measure_tick_every = 1_000;
    if fragmented {
        config = config.fragmented();
    }
    let tenants = workloads
        .iter()
        .map(|name| TenantSpec::new(WorkloadSpec::by_name(name).unwrap()))
        .collect();
    (config, tenants)
}

/// CI's co-location smoke cell, resolved as `tridentctl run` resolves
/// it: GUPS with Redis (weight 2, pinned) and XSBench, audited, under
/// `--fault-seed 7 --fault alloc:10`.
fn ci_colocation() -> Machine {
    let mut spec = JobSpec::new("GUPS", "Trident");
    spec.scale = 256;
    spec.samples = 4_000;
    spec.audit = true;
    spec.fault = Some(FaultSpec {
        seed: 7,
        rules: vec![(InjectSite::Alloc, 10)],
    });
    let mut redis = TenantJob::new("Redis");
    redis.weight = 2;
    redis.pins = vec![(0, 512)];
    spec.tenants = vec![redis, TenantJob::new("XSBench")];
    let (config, _, tenants) = trident_serve::job::resolve(&spec).unwrap();
    (config, tenants)
}

/// Builds, settles and measures one machine; `per_page` wraps the policy,
/// and `traced` attaches a trace ring and a profile. Returns the
/// measurement, the free pages left and the fault injector.
fn run(
    kind: PolicyKind,
    (config, tenants): &Machine,
    per_page: bool,
    traced: bool,
) -> (Measurement, u64, FaultInjector) {
    let mut config = *config;
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
    for tenant in tenants {
        builder = builder.tenant(tenant.clone());
    }
    let mut system = builder.build().unwrap();
    system.settle();
    let m = system.measure();
    assert!(
        system.violations().is_empty(),
        "audit: {:?}",
        system.violations()
    );
    (m, system.ctx.mem.free_pages(), system.ctx.fault.clone())
}

fn assert_same(kind: PolicyKind, machine: &Machine, traced: bool) {
    let (batched, free_batched, fault_batched) = run(kind, machine, false, traced);
    let (single, free_single, fault_single) = run(kind, machine, true, traced);
    let workloads: Vec<&str> = machine.1.iter().map(|t| t.workload.name).collect();
    let cell = format!(
        "{kind:?}, fragmented {}, {workloads:?}, fault plan {}, traced {traced}",
        machine.0.fragment.is_some(),
        machine.0.fault.is_some()
    );
    assert_eq!(batched.snapshot, single.snapshot, "{cell}: snapshot");
    for site in InjectSite::ALL {
        assert_eq!(
            fault_batched.decisions(site),
            fault_single.decisions(site),
            "{cell}: {site} draws"
        );
        assert_eq!(
            fault_batched.injected(site),
            fault_single.injected(site),
            "{cell}: {site} injections"
        );
    }
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
            assert_same(kind, &machine(false, &["Redis"]), traced);
            assert_same(kind, &machine(false, &["XSBench"]), traced);
        }
    }
}

#[test]
fn batched_populate_matches_per_page_faults_on_fragmented_memory() {
    for traced in MODES {
        for kind in [PolicyKind::Base, PolicyKind::Thp, PolicyKind::Trident] {
            assert_same(kind, &machine(true, &["Btree"]), traced);
            assert_same(kind, &machine(true, &["GUPS"]), traced);
        }
    }
}

#[test]
fn batched_populate_matches_per_page_faults_for_co_located_tenants() {
    for traced in MODES {
        for kind in [PolicyKind::Base, PolicyKind::Thp, PolicyKind::Trident] {
            assert_same(kind, &machine(true, &["Redis", "GUPS", "XSBench"]), traced);
        }
    }
}

/// A fault plan changes what fails, not which populate path runs: under
/// CI's co-location plan the runs draw and inject exactly what the
/// per-page faults do, and the plan does bite.
#[test]
fn batched_populate_matches_per_page_faults_under_a_fault_plan() {
    let cell = ci_colocation();
    for traced in MODES {
        for kind in [PolicyKind::Base, PolicyKind::Thp, PolicyKind::Trident] {
            assert_same(kind, &cell, traced);
        }
    }
    for kind in [PolicyKind::Thp, PolicyKind::Trident] {
        let (m, _, fault) = run(kind, &cell, false, false);
        assert!(
            fault.injected(InjectSite::Alloc) > 0,
            "{kind:?}: no injection"
        );
        assert_eq!(
            m.snapshot.injected_at(InjectSite::Alloc),
            fault.injected(InjectSite::Alloc)
        );
    }
}
