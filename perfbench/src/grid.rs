//! The simulation grids: which cells each workload runs, how a cell runs
//! plainly, and how it runs with every instrument attached.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use trident_core::{MmContext, ObsRecorder, RingTracer};
use trident_phys::{FragmentProfile, Fragmenter, PhysicalMemory};
use trident_sim::VirtSystem;
use trident_sim::{derive_cell_seed, Cell, Measurement, PolicyKind, SimConfig, System, VirtCell};
use trident_tlb::{TlbHierarchy, TranslationEngine, WalkCostModel};
use trident_types::{AsId, PageGeometry, PageSize};
use trident_vm::AddressSpace;
use trident_workloads::{AccessSampler, AllocPlan, Layout, WorkloadSpec};

use crate::instrument::{measurement_digest, LayerRecorder, PolicyClock, TimedPolicy};
use crate::report::Layers;

/// One simulation cell of a grid.
#[derive(Debug, Clone, Copy)]
pub enum GridCell {
    /// A native machine.
    Native(Cell),
    /// A guest over a hypervisor.
    Virt(VirtCell),
}

/// `VirtSystem::launch` seeds its RNG with the config seed XOR this
/// constant; the sampler replay mirrors it to rebuild the guest layout.
const VIRT_RNG_SALT: u64 = 0x7419_de57;

/// Accesses replayed per cell through the sampler, page table and TLB.
const REPLAY_SAMPLES: usize = 20_000;

/// Ring capacity while a nested cell launches (events are folded into
/// counts afterwards), large enough that no launch overflows it.
const LAUNCH_RING: usize = 1 << 20;

fn config(scale: u64, samples: usize, seed: u64) -> SimConfig {
    let mut c = SimConfig::at_scale(scale);
    c.measure_samples = samples;
    c.measure_tick_every = (samples / 6).max(1);
    c.seed = seed;
    c
}

/// Draw `draw` of a grid over `pairs`: every cell with a seed of its own,
/// derived from `seed`. A cell's layout, and its fragmented memory, are
/// random, so a run averages its cost over more than one draw.
fn draw_cells<P: Copy>(
    seed: u64,
    draw: usize,
    pairs: &[P],
    cell: impl Fn(P, u64) -> GridCell,
) -> Vec<GridCell> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &pair)| {
            cell(
                pair,
                derive_cell_seed(seed, (draw * pairs.len() + i) as u64),
            )
        })
        .collect()
}

/// Draw `draw` of the 12 Table-2 applications × {4KB, THP, Trident} on
/// clean memory, with a long measurement phase.
#[must_use]
pub fn native_access(seed: u64, draw: usize) -> Vec<GridCell> {
    let kinds = [PolicyKind::Base, PolicyKind::Thp, PolicyKind::Trident];
    let pairs: Vec<_> = product(&WorkloadSpec::all(), &kinds).collect();
    draw_cells(seed, draw, &pairs, |(spec, kind), seed| {
        GridCell::Native(Cell {
            kind,
            spec,
            config: config(64, 120_000, seed),
        })
    })
}

/// Draw `draw` of the 8 shaded applications × {THP, HawkEye, Trident} on
/// heavily fragmented memory, with a short measurement phase.
#[must_use]
pub fn fragmented_mm(seed: u64, draw: usize) -> Vec<GridCell> {
    let kinds = [PolicyKind::Thp, PolicyKind::HawkEye, PolicyKind::Trident];
    let pairs: Vec<_> = product(&WorkloadSpec::shaded(), &kinds).collect();
    draw_cells(seed, draw, &pairs, |(spec, kind), seed| {
        GridCell::Native(Cell {
            kind,
            spec,
            config: config(256, 20_000, seed).fragmented(),
        })
    })
}

/// Draw `draw` of the 8 shaded applications × host/guest {THP/THP,
/// Trident/Trident, Trident/Trident-pv}, guest memory fragmented.
#[must_use]
pub fn nested_virt(seed: u64, draw: usize) -> Vec<GridCell> {
    let kinds = [
        (PolicyKind::Thp, PolicyKind::Thp),
        (PolicyKind::Trident, PolicyKind::Trident),
        (PolicyKind::Trident, PolicyKind::TridentPv),
    ];
    let pairs: Vec<_> = product(&WorkloadSpec::shaded(), &kinds).collect();
    draw_cells(seed, draw, &pairs, |(spec, (host, guest)), seed| {
        GridCell::Virt(VirtCell {
            host,
            guest,
            spec,
            config: config(256, 20_000, seed),
            fragment_guest: true,
        })
    })
}

/// Probe cells for layers a workload's own cells never reach: the first
/// shaded application under Trident at scale 256 on fragmented memory,
/// natively and as a Trident-pv guest over Trident, so that faults,
/// compaction, zero-fill, the fragmenter and pv exchanges all run.
#[must_use]
pub fn probe_cells(seed: u64) -> (GridCell, GridCell) {
    let spec = WorkloadSpec::shaded()[0];
    let config = config(256, 20_000, seed);
    let native = GridCell::Native(Cell {
        kind: PolicyKind::Trident,
        spec,
        config: config.fragmented(),
    });
    let virt = GridCell::Virt(VirtCell {
        host: PolicyKind::Trident,
        guest: PolicyKind::TridentPv,
        spec,
        config,
        fragment_guest: true,
    });
    (native, virt)
}

fn product<'a, A: Copy, B: Copy>(a: &'a [A], b: &'a [B]) -> impl Iterator<Item = (A, B)> + 'a {
    a.iter().flat_map(move |&x| b.iter().map(move |&y| (x, y)))
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_owned());
        Err(format!("panic: {msg}"))
    })
}

/// Runs a cell exactly as the experiments do and returns its digest. No
/// grid here uses hugetlbfs, so every boot error is a failure.
///
/// # Errors
///
/// A boot failure or a panic inside the run.
pub fn run_plain(cell: &GridCell) -> Result<u64, String> {
    guarded(|| {
        let m = match cell {
            GridCell::Native(c) => c.measure(),
            GridCell::Virt(c) => c.measure(),
        };
        m.as_ref()
            .map(measurement_digest)
            .ok_or_else(|| "boot failed".to_owned())
    })
}

/// Runs a cell with the timed policy wrapper and the layer recorder
/// attached, replays its access stream layer by layer, and returns the
/// digest (which must equal [`run_plain`]'s). Adds the instrumented wall
/// time, excluding the replays, to `layers.traced_wall`.
///
/// # Errors
///
/// A boot failure or a panic inside the run.
pub fn run_traced(cell: &GridCell, layers: &mut Layers) -> Result<u64, String> {
    guarded(|| match cell {
        GridCell::Native(c) => run_traced_native(c, layers),
        GridCell::Virt(c) => run_traced_virt(c, layers),
    })
}

fn run_traced_native(cell: &Cell, layers: &mut Layers) -> Result<u64, String> {
    let geo = cell.config.geo;
    // Hugetlbfs aside, building a policy only reads the geometry, so a
    // one-region scratch context stands in for the system's own.
    let mut scratch = MmContext::new(PhysicalMemory::new(geo, geo.base_pages(geo.largest())));
    let inner = cell
        .kind
        .build(&mut scratch, 0)
        .map_err(|e| format!("policy build failed: {e}"))?;
    let clock = Arc::new(PolicyClock::default());
    let start = Instant::now();
    let mut sys = System::builder(cell.config)
        .policy_instance(Box::new(TimedPolicy::new(inner, Arc::clone(&clock))))
        .workload(cell.spec)
        .recorder(ObsRecorder::custom(Box::new(LayerRecorder::default())))
        .build()
        .map_err(|e| format!("boot failed: {e}"))?;
    let built = Instant::now();
    sys.settle();
    let settled = Instant::now();
    let m = sys.measure();
    let measured = Instant::now();
    layers.sim_cells += 1;
    layers.sim_phases[0] += built - start;
    layers.sim_phases[1] += settled - built;
    layers.sim_phases[2] += measured - settled;
    add_measurement(layers, &m);
    layers.add_policy(clock.times());
    layers.add_recorders(&[sys
        .ctx
        .recorder
        .custom_ref::<LayerRecorder>()
        .expect("the layer recorder was installed at build")]);
    replay_native(cell, &mut sys, layers);
    let teardown = Instant::now();
    drop(sys);
    layers.traced_wall += (measured - start) + teardown.elapsed();
    Ok(measurement_digest(&m))
}

fn add_measurement(layers: &mut Layers, m: &Measurement) {
    layers.tlb.0 += 1;
    layers.tlb.1 += m.walks;
    layers.tlb.2 += m.walk_cycles;
}

/// Rebuilds tenant 0's sampler from the cell's seed (the fragmenter, if
/// any, draws from the same stream first, and is timed on the way), then
/// times `REPLAY_SAMPLES` accesses through the sampler, the measured
/// system's page table and a fresh TLB engine.
fn replay_native(cell: &Cell, sys: &mut System, layers: &mut Layers) {
    let geo = cell.config.geo;
    let mut rng = SmallRng::seed_from_u64(cell.config.seed);
    if let Some(profile) = cell.config.fragment {
        replay_fragmenter(geo, cell.config.host_pages(), profile, &mut rng, layers);
    }
    let mut sampler = replay_sampler(cell.spec, &cell.config, &mut rng, layers);
    let accesses = time_samples(&mut sampler, &mut rng, layers);
    let asid = sys.space().id();
    let table = sys
        .spaces
        .get_mut(asid)
        .expect("tenant 0 has a space")
        .page_table_mut();
    let start = Instant::now();
    let sizes: Vec<Option<PageSize>> = accesses
        .iter()
        .map(|a| black_box(table.access(a.vpn, a.write)).map(|t| t.size))
        .collect();
    layers.accesses.0 += accesses.len() as u64;
    layers.accesses.1 += start.elapsed();
    let mut engine =
        TranslationEngine::new(TlbHierarchy::with_geometry(geo), WalkCostModel::default());
    let start = Instant::now();
    let mut n = 0;
    for (a, size) in accesses.iter().zip(sizes) {
        if let Some(size) = size {
            black_box(engine.translate(a.vpn, size));
            n += 1;
        }
    }
    layers.translations.0 += n;
    layers.translations.1 += start.elapsed();
}

fn replay_fragmenter(
    geo: PageGeometry,
    pages: u64,
    profile: FragmentProfile,
    rng: &mut SmallRng,
    layers: &mut Layers,
) {
    let mut mem = PhysicalMemory::new(geo, pages);
    let start = Instant::now();
    black_box(Fragmenter::new(profile).run(&mut mem, rng));
    layers.fragments.0 += 1;
    layers.fragments.1 += start.elapsed();
}

fn replay_sampler(
    spec: WorkloadSpec,
    config: &SimConfig,
    rng: &mut SmallRng,
    layers: &mut Layers,
) -> AccessSampler {
    let plan = spec.plan(config.geo, config.scale, rng);
    let mut space = AddressSpace::new(AsId::new(1), config.geo);
    let ranges = plan
        .steps
        .iter()
        .map(|step| AllocPlan::execute_step(&mut space, step))
        .collect();
    let layout = Layout::from_ranges(ranges);
    layers.layouts.0 += 1;
    layers.layouts.1 += layout.heap.len() as u64;
    AccessSampler::new(spec, layout)
}

fn time_samples(
    sampler: &mut AccessSampler,
    rng: &mut SmallRng,
    layers: &mut Layers,
) -> Vec<trident_workloads::Access> {
    let start = Instant::now();
    let accesses: Vec<_> = (0..REPLAY_SAMPLES)
        .map(|_| black_box(sampler.sample(rng)))
        .collect();
    layers.samples.0 += REPLAY_SAMPLES as u64;
    layers.samples.1 += start.elapsed();
    accesses
}

fn drain(recorder: &mut ObsRecorder, into: &mut LayerRecorder) {
    for event in recorder
        .tracer_mut()
        .map(RingTracer::drain)
        .unwrap_or_default()
    {
        into.counts.add(&event);
    }
}

fn run_traced_virt(cell: &VirtCell, layers: &mut Layers) -> Result<u64, String> {
    // Launch records into rings (the only recorder hook `VirtSystem`
    // has); their events are folded into the layer recorders, which
    // take over for settle and measure together with the guest's timed
    // policy.
    let mut config = cell.config;
    config.trace_capacity = Some(LAUNCH_RING);
    let start = Instant::now();
    let mut vs = VirtSystem::launch(
        config,
        cell.host,
        cell.guest,
        cell.spec,
        cell.fragment_guest,
    )
    .map_err(|e| format!("boot failed: {e}"))?;
    let launched = Instant::now();
    let mut guest = LayerRecorder::default();
    drain(&mut vs.vm.kernel.ctx.recorder, &mut guest);
    let mut host = LayerRecorder::default();
    drain(&mut vs.hyp.ctx.recorder, &mut host);
    vs.vm.kernel.ctx.recorder = ObsRecorder::custom(Box::new(guest));
    vs.hyp.ctx.recorder = ObsRecorder::custom(Box::new(host));
    let clock = Arc::new(PolicyClock::default());
    let inner = std::mem::replace(
        &mut vs.vm.kernel.policy,
        Box::new(trident_core::BasePolicy::new()),
    );
    vs.vm.kernel.policy = Box::new(TimedPolicy::new(inner, Arc::clone(&clock)));
    let instrumented = Instant::now();
    vs.settle();
    let settled = Instant::now();
    let m = vs.measure();
    let measured = Instant::now();
    layers.virt_cells += 1;
    layers.virt_phases[0] += launched - start;
    layers.virt_phases[1] += settled - instrumented;
    layers.virt_phases[2] += measured - settled;
    let huge_bytes = config.geo.bytes(PageSize::new(1));
    layers.pv_exchanges += m.snapshot.pv_bytes_exchanged / huge_bytes;
    add_measurement(layers, &m);
    layers.add_policy(clock.times());
    let installed = "the layer recorders were installed after launch";
    layers.add_recorders(&[
        vs.vm
            .kernel
            .ctx
            .recorder
            .custom_ref::<LayerRecorder>()
            .expect(installed),
        vs.hyp
            .ctx
            .recorder
            .custom_ref::<LayerRecorder>()
            .expect(installed),
    ]);
    replay_virt(cell, &mut vs, layers);
    let teardown = Instant::now();
    drop(vs);
    layers.traced_wall += (launched - start) + (measured - instrumented) + teardown.elapsed();
    Ok(measurement_digest(&m))
}

/// The nested counterpart of [`replay_native`]: the guest layout is
/// rebuilt from the launch seed, and each access goes through both
/// translation levels (`VirtualMachine::touch`) and the nested TLB path.
fn replay_virt(cell: &VirtCell, vs: &mut VirtSystem, layers: &mut Layers) {
    let geo = cell.config.geo;
    let mut rng = SmallRng::seed_from_u64(cell.config.seed ^ VIRT_RNG_SALT);
    if cell.fragment_guest {
        let profile = cell.config.fragment.unwrap_or_else(FragmentProfile::heavy);
        let pages = vs.vm.kernel.ctx.mem.total_pages();
        replay_fragmenter(geo, pages, profile, &mut rng, layers);
    }
    let mut sampler = replay_sampler(cell.spec, &cell.config, &mut rng, layers);
    let accesses = time_samples(&mut sampler, &mut rng, layers);
    let asid = AsId::new(1);
    let start = Instant::now();
    let sizes: Vec<_> = accesses
        .iter()
        .map(|a| {
            black_box(vs.vm.touch(&mut vs.hyp, asid, a.vpn, a.write))
                .ok()
                .map(|n| (n.guest_size, n.host_size))
        })
        .collect();
    layers.accesses.0 += accesses.len() as u64;
    layers.accesses.1 += start.elapsed();
    let mut engine =
        TranslationEngine::new(TlbHierarchy::with_geometry(geo), WalkCostModel::default());
    let start = Instant::now();
    let mut n = 0;
    for (a, sizes) in accesses.iter().zip(sizes) {
        if let Some((guest, host)) = sizes {
            black_box(engine.translate_nested(a.vpn, guest, host));
            n += 1;
        }
    }
    layers.translations.0 += n;
    layers.translations.1 += start.elapsed();
}

/// Times `cell` plainly and instrumented, adding both wall times and
/// every layer metric to `layers`. Returns the instrumented digest, or
/// an error when a run failed or the two digests differ.
///
/// # Errors
///
/// Either run failing, or the instrumented run computing a different
/// result.
pub fn run_both(cell: &GridCell, layers: &mut Layers) -> Result<u64, String> {
    let start = Instant::now();
    let plain = run_plain(cell)?;
    layers.plain_wall += start.elapsed();
    let traced = run_traced(cell, layers)?;
    if plain == traced {
        Ok(traced)
    } else {
        Err(format!(
            "instrumented digest {traced:016x} differs from plain {plain:016x}"
        ))
    }
}

/// Wall time of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}
