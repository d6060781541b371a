//! Chaos harness: runs fig1/table4-style workload grids under
//! randomized-but-seeded fault plans and checks the three graceful-
//! degradation properties end to end:
//!
//! 1. **No panics.** Every injected failure must surface as a fallback or
//!    a deferral, never as a crash.
//! 2. **Invariants hold.** The per-tick cross-layer audit
//!    (`check_mm_consistent`) must stay clean after every tick of every
//!    cell, faults or not.
//! 3. **Determinism.** The whole grid re-run on 8 worker threads must be
//!    bit-identical to the single-threaded run — fault decisions are a
//!    pure function of (seed, site, counter), never of scheduling.
//!
//! The grid is the Figure 1 policies on every workload, a virtualized
//! wing and a fragmented wing. The fragmented wing exists for the
//! `compaction` site: the compactor consults it only when no free block
//! of the target order exists, which clean memory never reaches. Every
//! [`InjectSite`] must inject somewhere in the grid, or the run fails:
//! a site that never fires checks no degradation path.
//!
//! Flags: the standard experiment flags (`--scale`, `--samples`,
//! `--seed`, `--threads`) plus `--prob N` (per-site probability cap in
//! thousandths for the randomized plans; default 100, i.e. up to 10% per
//! decision). Exit status is nonzero when any property fails; stdout is
//! a per-cell CSV, stderr carries the banner and the verdict.

use std::panic::{catch_unwind, AssertUnwindSafe};

use trident_bench::args::{ArgError, Args};
use trident_core::{FaultPlan, InjectSite, StatsSnapshot};
use trident_sim::{derive_cell_seed, PolicyKind, Runner, SimConfig, System, VirtSystem};
use trident_workloads::WorkloadSpec;

/// Native policies of the Figure 1 grid, plus Trident itself.
const NATIVE_KINDS: [PolicyKind; 5] = [
    PolicyKind::Base,
    PolicyKind::Thp,
    PolicyKind::HugetlbfsHuge,
    PolicyKind::HugetlbfsGiant,
    PolicyKind::Trident,
];

/// Table 4-style virtualized pairings (host, guest).
const VIRT_KINDS: [(PolicyKind, PolicyKind); 2] = [
    (PolicyKind::Thp, PolicyKind::Thp),
    (PolicyKind::Trident, PolicyKind::TridentPv),
];

/// Policies of the fragmented wing: the two that compact for promotion.
const FRAGMENTED_KINDS: [PolicyKind; 2] = [PolicyKind::Thp, PolicyKind::Trident];

/// Salt decorrelating plan seeds from run seeds.
const PLAN_SALT: u64 = 0xC4A0_5CA0;

#[derive(Debug, Clone)]
struct CellPlan {
    label: String,
    native: Option<(PolicyKind, WorkloadSpec)>,
    virt: Option<(PolicyKind, PolicyKind, WorkloadSpec)>,
    config: SimConfig,
}

/// What one cell produced; everything that must be bit-identical across
/// thread counts lives here.
#[derive(Debug, Clone, PartialEq)]
struct CellOutcome {
    /// `None` when the policy could not boot (hugetlbfs reservation).
    snapshot: Option<StatsSnapshot>,
    walk_cycles: u64,
    violations: usize,
}

fn run_cell(plan: &CellPlan) -> Result<CellOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some((kind, spec)) = plan.native {
            let built = System::builder(plan.config)
                .policy(kind)
                .workload(spec)
                .build();
            match built {
                Ok(mut sys) => {
                    sys.settle();
                    let m = sys.measure();
                    CellOutcome {
                        snapshot: Some(m.snapshot),
                        walk_cycles: m.walk_cycles,
                        violations: sys.violations().len(),
                    }
                }
                Err(_) => CellOutcome {
                    snapshot: None,
                    walk_cycles: 0,
                    violations: 0,
                },
            }
        } else {
            let (host, guest, spec) = plan.virt.expect("cell is native or virt");
            match VirtSystem::launch(plan.config, host, guest, spec, false) {
                Ok(mut vs) => {
                    vs.settle();
                    let m = vs.measure();
                    CellOutcome {
                        snapshot: Some(m.snapshot),
                        walk_cycles: m.walk_cycles,
                        violations: 0,
                    }
                }
                Err(_) => CellOutcome {
                    snapshot: None,
                    walk_cycles: 0,
                    violations: 0,
                },
            }
        }
    }))
    .map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        format!("panicked: {msg}")
    })
}

const USAGE: &str = "usage: chaos [--prob N] [standard experiment flags]";

fn parse_cli(args: &mut Args) -> Result<(trident_bench::ExpOptions, u16), ArgError> {
    // The chaos grid defaults to a smaller cell than the figures so the
    // whole grid (with audit on) stays fast.
    let scale = args.scale(64)?;
    let samples = args.parsed_or("--samples", 20_000)?;
    let prob: u16 = args.parsed_or("--prob", 100)?;
    let mut opts = args.exp_options()?;
    opts.scale = scale;
    opts.samples = samples;
    Ok((opts, prob))
}

fn main() {
    let mut args = Args::from_env();
    let (opts, prob) = match parse_cli(&mut args).and_then(|v| args.finish().map(|()| v)) {
        Ok(v) => v,
        Err(err) => err.exit(USAGE),
    };
    trident_bench::banner("Chaos: fault-plan grid with per-tick audit", &opts);
    eprintln!("# per-site probability cap: {prob}/1000");

    let specs = WorkloadSpec::all();
    let mut plans = Vec::new();
    for (row, spec) in specs.iter().enumerate() {
        let mut config = opts.config();
        config.seed = derive_cell_seed(opts.seed, row as u64);
        config.audit = true;
        for kind in NATIVE_KINDS {
            let idx = plans.len() as u64;
            let mut c = config;
            c.fault = Some(FaultPlan::randomized(
                derive_cell_seed(opts.seed ^ PLAN_SALT, idx),
                prob,
            ));
            plans.push(CellPlan {
                label: format!("{:?}/{}", kind, spec.name),
                native: Some((kind, *spec)),
                virt: None,
                config: c,
            });
        }
    }
    // A small virtualized wing: first two workloads, both pairings.
    for spec in specs.iter().take(2) {
        for (host, guest) in VIRT_KINDS {
            let idx = plans.len() as u64;
            let mut c = opts.config();
            c.seed = derive_cell_seed(opts.seed, 1000 + idx);
            c.fault = Some(FaultPlan::randomized(
                derive_cell_seed(opts.seed ^ PLAN_SALT, idx),
                prob,
            ));
            plans.push(CellPlan {
                label: format!("{host:?}+{guest:?}/{}", spec.name),
                native: None,
                virt: Some((host, guest, *spec)),
                config: c,
            });
        }
    }

    // A small fragmented wing: first two workloads, the compacting
    // policies, on heavily fragmented memory.
    for (row, spec) in specs.iter().enumerate().take(2) {
        for kind in FRAGMENTED_KINDS {
            let idx = plans.len() as u64;
            let mut c = opts.config().fragmented();
            c.seed = derive_cell_seed(opts.seed, row as u64);
            c.audit = true;
            c.fault = Some(FaultPlan::randomized(
                derive_cell_seed(opts.seed ^ PLAN_SALT, idx),
                prob,
            ));
            plans.push(CellPlan {
                label: format!("{kind:?}/{}/fragmented", spec.name),
                native: Some((kind, *spec)),
                virt: None,
                config: c,
            });
        }
    }

    let serial = Runner::new(1).map(&plans, |_, p| run_cell(p));
    let parallel = Runner::new(8).map(&plans, |_, p| run_cell(p));

    let mut failures = Vec::new();
    let mut injected_by_site = [0u64; InjectSite::ALL.len()];
    println!("cell,booted,injected,deferred,violations,walk_cycles");
    for (plan, (s, p)) in plans.iter().zip(serial.iter().zip(&parallel)) {
        match s {
            Ok(out) => {
                if let Some(snap) = &out.snapshot {
                    for site in InjectSite::ALL {
                        injected_by_site[site as usize] += snap.injected_at(site);
                    }
                }
                if out.violations > 0 {
                    failures.push(format!(
                        "{}: {} invariant violations",
                        plan.label, out.violations
                    ));
                }
                println!(
                    "{},{},{},{},{},{}",
                    plan.label,
                    out.snapshot.is_some(),
                    out.snapshot
                        .as_ref()
                        .map_or(0, StatsSnapshot::total_injected_faults),
                    out.snapshot.as_ref().map_or(0, |s| s.promotions_deferred),
                    out.violations,
                    out.walk_cycles,
                );
            }
            Err(msg) => failures.push(format!("{}: {msg}", plan.label)),
        }
        match (s, p) {
            (Ok(a), Ok(b)) if a != b => {
                failures.push(format!("{}: threads=1 and threads=8 disagree", plan.label))
            }
            (Ok(_), Err(msg)) => failures.push(format!("{}: parallel run {msg}", plan.label)),
            _ => {}
        }
    }
    let tally: Vec<String> = InjectSite::ALL
        .iter()
        .map(|&site| format!("{site} {}", injected_by_site[site as usize]))
        .collect();
    eprintln!("# injected faults by site: {}", tally.join(", "));
    if prob > 0 {
        for site in InjectSite::ALL {
            if injected_by_site[site as usize] == 0 {
                failures.push(format!(
                    "no faults were injected at site {site} — its plan wiring is dead"
                ));
            }
        }
    }

    if failures.is_empty() {
        eprintln!(
            "# chaos PASS: {} cells, {} injected faults, zero panics, zero violations, thread counts agree",
            plans.len(),
            injected_by_site.iter().sum::<u64>()
        );
    } else {
        for f in &failures {
            eprintln!("# chaos FAIL: {f}");
        }
        std::process::exit(1);
    }
}
