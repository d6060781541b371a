//! Job execution: one [`JobSpec`] → one deterministic simulation run →
//! one [`JobResult`].
//!
//! This is the single execution path shared by the daemon's workers and
//! by `tridentctl run` without `--connect`: both call [`execute`], so a
//! cell submitted over a socket is bit-identical to the same cell run
//! locally — there is no second, subtly different config-assembly path
//! to drift.

use std::io::BufWriter;

use trident_core::{FaultPlan, ObsRecorder};
use trident_prof::report::render_json;
use trident_prof::JsonlWriter;
use trident_sim::experiments::ExpOptions;
use trident_sim::{
    derive_cell_seed, scaled_geometry_for, PolicyHint, PolicyKind, RunProgress, SimConfig, System,
    TenantSpec,
};
use trident_types::{PageGeometry, PageSize, Vpn};
use trident_workloads::WorkloadSpec;

use crate::proto::{JobResult, JobSpec, RungRow, TenantRow};

/// Resolves a spec into the pieces a run needs, validating everything
/// that can be validated without running: workload and policy names,
/// scale/samples bounds, fault-plan probabilities, and output-option
/// combinations. The service calls this at submit time so bad requests
/// are rejected synchronously instead of becoming failed jobs.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn resolve(spec: &JobSpec) -> Result<(SimConfig, PolicyKind, Vec<TenantSpec>), String> {
    let workload = WorkloadSpec::by_name(&spec.workload)
        .ok_or_else(|| format!("unknown workload {:?}", spec.workload))?;
    let kind = PolicyKind::from_name(&spec.policy)
        .ok_or_else(|| format!("unknown policy {:?}", spec.policy))?;
    let arch = match &spec.geometry {
        None => PageGeometry::X86_64,
        Some(name) => PageGeometry::by_name(name).ok_or_else(|| {
            format!(
                "unknown geometry {name:?} (expected one of {})",
                PageGeometry::SHIPPED
                    .iter()
                    .map(|g| format!("{:?}", g.name()))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?,
    };
    // `scaled_geometry_for` and `ExpOptions::config` below assert
    // this; a request must get a typed refusal, not a panic.
    if !spec.scale.is_power_of_two() || spec.scale > 256 {
        return Err(format!(
            "scale must be a power of two from 1 to 256, got {}",
            spec.scale
        ));
    }
    // The run's ladder: the architecture, rescaled with the job. Prefer
    // labels resolve against this, so a rung the scale squeezes out is
    // an error at admission, not a silently re-aimed hint.
    let geo = scaled_geometry_for(&arch, spec.scale);
    let mut tenants = vec![TenantSpec::new(workload)];
    for t in &spec.tenants {
        let neighbor = WorkloadSpec::by_name(&t.workload)
            .ok_or_else(|| format!("unknown tenant workload {:?}", t.workload))?;
        if t.chunk_budget == Some(0) {
            return Err(format!(
                "tenant {:?}: a budget override must be nonzero",
                t.workload
            ));
        }
        let mut hint = PolicyHint::new();
        for &(start, pages) in &t.pins {
            hint = hint.pin(Vpn::new(start), pages);
        }
        if let Some(label) = &t.prefer {
            let size = resolve_rung(&geo, label).ok_or_else(|| {
                format!(
                    "tenant {:?}: no rung labelled {label:?} on the {} ladder at scale 1/{}",
                    t.workload,
                    geo.name(),
                    spec.scale
                )
            })?;
            hint = hint.prefer(size);
        }
        if t.opt_out {
            hint = hint.opt_out();
        }
        let mut ts = TenantSpec::new(neighbor).weight(t.weight).hint(hint);
        ts.chunk_budget = t.chunk_budget;
        tenants.push(ts);
    }
    if spec.samples == 0 {
        return Err("samples must be at least 1".to_owned());
    }
    if spec.trace_out.is_some() && spec.trace_capacity.is_some() {
        return Err("trace_out streams the full trace; it excludes a ring capacity".to_owned());
    }
    if spec.trace_out.is_some() && (spec.profile || spec.profile_out.is_some()) {
        return Err("trace_out replaces the run's recorder; it excludes profiling".to_owned());
    }

    let opts = ExpOptions {
        scale: spec.scale,
        samples: spec.samples,
        seed: spec
            .cell_index
            .map_or(spec.seed, |cell| derive_cell_seed(spec.seed, cell)),
        threads: 0,
        trace_capacity: spec.trace_capacity,
        profile: spec.profile || spec.profile_out.is_some(),
    };
    let mut config = opts.config();
    config.geo = geo;
    if spec.fragment {
        config = config.fragmented();
    }
    if let Some(fault) = &spec.fault {
        let mut builder = FaultPlan::builder(fault.seed);
        for &(site, prob) in &fault.rules {
            builder = builder.site(site, prob);
        }
        config.fault = Some(
            builder
                .build()
                .map_err(|e| format!("invalid fault plan: {e}"))?,
        );
    }
    config.audit = spec.audit;
    Ok((config, kind, tenants))
}

/// Finds the rung whose size-class label matches `label` on `arch`'s
/// ladder. Scaled geometries keep their architecture's labels, so the
/// lookup is valid for any scale of the same ladder.
fn resolve_rung(arch: &PageGeometry, label: &str) -> Option<PageSize> {
    arch.rungs().find(|&s| arch.label(s) == label)
}

/// Renders a measurement's per-rung mapped-bytes array as wire rows in
/// ladder order, keyed by the geometry's size-class labels.
fn rung_rows(geo: &PageGeometry, mapped: &[u64; trident_types::MAX_RUNGS]) -> Vec<RungRow> {
    geo.rungs()
        .map(|size| RungRow {
            size: geo.label(size),
            bytes: mapped[size.rung()],
        })
        .collect()
}

/// Runs one job to completion and returns its measurement.
///
/// # Errors
///
/// Any [`resolve`] failure, a launch failure (hugetlbfs reservation on
/// fragmented memory), or an I/O failure on the job's output files.
pub fn execute(spec: &JobSpec) -> Result<JobResult, String> {
    execute_with_progress(spec, None)
}

/// [`execute`], with an optional per-tick progress hook installed on the
/// system before it settles. The hook only *reads* simulation state
/// (ticks, samples, the giant-frame FMFI), so installing one cannot
/// perturb the run: results stay bit-identical with or without it.
///
/// # Errors
///
/// Same failure modes as [`execute`].
pub(crate) fn execute_with_progress(
    spec: &JobSpec,
    progress: Option<Box<dyn FnMut(RunProgress) + Send>>,
) -> Result<JobResult, String> {
    let (config, kind, tenants) = resolve(spec)?;
    let writer = match &spec.trace_out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
            Some(JsonlWriter::new(Box::new(BufWriter::new(file))))
        }
        None => None,
    };
    let mut builder = System::builder(config).policy(kind);
    for tenant in tenants {
        builder = builder.tenant(tenant);
    }
    if let Some(w) = &writer {
        builder = builder.recorder(ObsRecorder::custom(Box::new(w.clone())));
    }
    let mut system = builder.build().map_err(|e| format!("launch failed: {e}"))?;
    if let Some(hook) = progress {
        system.set_progress_hook(hook);
    }
    system.settle();
    let m = system.measure();
    let geo = system.geometry();

    let trace_lines = match (&writer, &spec.trace_out) {
        (Some(w), Some(path)) => Some(
            w.finish()
                .map_err(|e| format!("trace write to {path} failed: {e}"))?,
        ),
        _ => None,
    };
    if let Some(path) = &spec.profile_out {
        let profile = m
            .profile
            .as_deref()
            .ok_or("no live profile despite profile_out")?;
        std::fs::write(path, render_json(profile))
            .map_err(|e| format!("profile write to {path} failed: {e}"))?;
    }

    Ok(JobResult {
        samples: m.samples as u64,
        tlb_accesses: m.tlb.total_accesses(),
        walks: m.walks,
        walk_cycles: m.walk_cycles,
        rungs: rung_rows(&geo, &m.mapped_bytes),
        trace_dropped: m.trace_dropped,
        trace_lines,
        violations: system.violations().len() as u64,
        tenants: m
            .tenants
            .iter()
            .map(|t| TenantRow {
                tenant: t.tenant.raw(),
                workload: t.workload.to_owned(),
                samples: t.samples as u64,
                walks: t.walks,
                walk_cycles: t.walk_cycles,
                rungs: rung_rows(&geo, &t.mapped_bytes),
                fmfi_milli: (t.fmfi_giant * 1000.0).round() as u64,
                faults: t.snapshot.total_faults(),
            })
            .collect(),
        snapshot: m.snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FaultSpec;
    use trident_core::InjectSite;

    fn quick_spec() -> JobSpec {
        let mut spec = JobSpec::new("GUPS", "Trident");
        spec.scale = 256;
        spec.samples = 2_000;
        spec
    }

    #[test]
    fn resolve_rejects_what_cannot_run() {
        let unknown_wl = JobSpec::new("NoSuchWorkload", "Trident");
        assert!(resolve(&unknown_wl).unwrap_err().contains("workload"));
        let unknown_pol = JobSpec::new("GUPS", "NoSuchPolicy");
        assert!(resolve(&unknown_pol).unwrap_err().contains("policy"));

        for scale in [0, 3, 512] {
            let mut bad_scale = quick_spec();
            bad_scale.scale = scale;
            assert!(resolve(&bad_scale).unwrap_err().contains("power of two"));
        }

        let mut bad_plan = quick_spec();
        bad_plan.fault = Some(FaultSpec {
            seed: 1,
            rules: vec![(InjectSite::Alloc, 5_000)],
        });
        assert!(resolve(&bad_plan).unwrap_err().contains("fault plan"));

        let mut both = quick_spec();
        both.trace_out = Some("x.jsonl".to_owned());
        both.trace_capacity = Some(16);
        assert!(resolve(&both).is_err());
    }

    #[test]
    fn resolve_derives_the_cell_seed() {
        let mut spec = quick_spec();
        spec.seed = 42;
        spec.cell_index = Some(3);
        let (config, _, _) = resolve(&spec).unwrap();
        assert_eq!(config.seed, derive_cell_seed(42, 3));
        spec.cell_index = None;
        let (config, _, _) = resolve(&spec).unwrap();
        assert_eq!(config.seed, 42);
    }

    #[test]
    fn execute_matches_a_direct_system_run() {
        let spec = quick_spec();
        let result = execute(&spec).unwrap();

        let opts = ExpOptions {
            scale: 256,
            samples: 2_000,
            seed: 42,
            threads: 0,
            trace_capacity: None,
            profile: false,
        };
        let mut system = System::builder(opts.config())
            .policy(PolicyKind::Trident)
            .workload(WorkloadSpec::by_name("GUPS").unwrap())
            .build()
            .unwrap();
        system.settle();
        let m = system.measure();
        assert_eq!(result.snapshot, m.snapshot);
        assert_eq!(result.walk_cycles, m.walk_cycles);
        let geo = system.geometry();
        assert_eq!(result.rungs, rung_rows(&geo, &m.mapped_bytes));
    }

    #[test]
    fn resolve_applies_and_validates_geometry() {
        let mut spec = quick_spec();
        spec.geometry = Some("sv48".to_owned());
        let (config, _, _) = resolve(&spec).unwrap();
        assert_eq!(config.geo.name(), "sv48");
        // Scale 1/256 squeezes the 64KB NAPOT rung out of the ladder.
        assert_eq!(config.geo.rung_count(), 3);
        spec.scale = 4;
        let (config, _, _) = resolve(&spec).unwrap();
        assert_eq!(config.geo.rung_count(), 4);

        spec.geometry = Some("pdp11".to_owned());
        assert!(resolve(&spec).unwrap_err().contains("unknown geometry"));

        // A prefer label resolves against the job's scaled ladder: 32MB
        // is an aarch64 size class, not an sv48 one, and the 64KB rung
        // only exists at scales that keep it.
        let mut pref = quick_spec();
        pref.scale = 4;
        pref.geometry = Some("sv48".to_owned());
        pref.tenants.push(crate::proto::TenantJob {
            workload: "GUPS".to_owned(),
            weight: 1,
            pins: vec![],
            prefer: Some("32MB".to_owned()),
            opt_out: false,
            chunk_budget: None,
        });
        assert!(resolve(&pref).unwrap_err().contains("no rung"));
        pref.tenants[0].prefer = Some("64KB".to_owned());
        assert!(resolve(&pref).is_ok());
        pref.scale = 256;
        assert!(resolve(&pref).unwrap_err().contains("no rung"));
    }
}
