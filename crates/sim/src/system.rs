//! A native simulated machine running N co-located workloads — one per
//! tenant — on one physical pool under one kernel policy.
//!
//! Single-tenant machines are the degenerate case (and stay bit-identical
//! to the historical single-workload engine); multi-tenant machines
//! interleave tenant loads on the shared buddy allocator, attribute every
//! memory-management event to the tenant it was done for, and let each
//! tenant steer the shared promotion daemon through a
//! [`PolicyHint`](trident_core::PolicyHint).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use trident_core::{
    Event, FaultInjector, InvariantViolation, MmContext, NoopRecorder, ObsRecorder, PagePolicy,
    PolicyError, PolicyHint, Recorder, RingTracer, SpaceSet, StatsSnapshot, TenantPolicy,
};
use trident_phys::{Fragmenter, PhysMemError, PhysicalMemory};
use trident_prof::{Profile, Profiler};
use trident_tlb::{TlbHierarchy, TlbOutcome, TranslationEngine, TranslationStats, WalkCostModel};
use trident_types::{AsId, PageGeometry, PageSize, TenantId, TridentError, Vpn, MAX_RUNGS};
use trident_vm::{mappable_bytes, AddressSpace};
use trident_workloads::{AccessSampler, AllocPlan, Layout, WorkloadSpec};

use crate::{DaemonGovernor, PolicyKind, SimConfig};

/// Virtual-page-number offset separating co-located tenants in the shared
/// TLB (the model has no ASID tagging, so distinct high bits stand in for
/// it). Tenant 0's offset is zero, preserving single-tenant bit-identity.
const TENANT_VPN_SALT_SHIFT: u32 = 44;

/// What one tenant experienced during the measurement phase.
#[derive(Debug, Clone)]
pub struct TenantMeasurement {
    /// The tenant these numbers belong to.
    pub tenant: TenantId,
    /// This tenant's workload name.
    pub workload: &'static str,
    /// Accesses sampled from this tenant.
    pub samples: usize,
    /// TLB-miss page walks among them.
    pub walks: u64,
    /// Cycles this tenant spent translating (walks + L2-hit latency).
    pub walk_cycles: u64,
    /// Snapshot of the MM events attributed to this tenant (cumulative
    /// since boot).
    pub snapshot: StatsSnapshot,
    /// Bytes this tenant has mapped at each ladder rung.
    pub mapped_bytes: [u64; MAX_RUNGS],
    /// The tenant's fragmentation experience: the fraction of its
    /// resident bytes *not* backed by top-rung (1GB on x86-64) mappings
    /// (0.0 when everything top-backed, 1.0 when nothing is). The
    /// machine-wide FMFI is a pool property; this is the per-tenant
    /// projection of it.
    pub fmfi_giant: f64,
}

/// What one measurement phase observed.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Sampled accesses (across all tenants).
    pub samples: usize,
    /// TLB-miss page walks among them.
    pub walks: u64,
    /// Cycles spent translating (walks + L2-hit latency).
    pub walk_cycles: u64,
    /// Full TLB statistics.
    pub tlb: TranslationStats,
    /// Snapshot of the pooled MM statistics at measurement end
    /// (cumulative since boot).
    pub snapshot: StatsSnapshot,
    /// Events recorded since tracing started (empty unless the config
    /// enables a trace capacity); drained from the ring at measurement
    /// end.
    pub trace: Vec<Event>,
    /// Events the ring tracer evicted before measurement end (0 when the
    /// trace is complete, or when tracing was off).
    pub trace_dropped: u64,
    /// The live profile (spans + time-series + counters), present when
    /// the config enables profiling. Boxed: a profile is several KB and
    /// most measurements carry none.
    pub profile: Option<Box<Profile>>,
    /// Bytes mapped at each ladder rung at measurement end, summed over
    /// every tenant.
    pub mapped_bytes: [u64; MAX_RUNGS],
    /// Page-walk counts per giant-aligned virtual chunk of tenant 0's
    /// address space (Figure 4).
    pub miss_by_chunk: Vec<(u64, u64)>,
    /// Per-tenant breakdown, in tenant order. One entry per tenant; the
    /// per-tenant `samples`/`walks`/`walk_cycles` sum to the pooled
    /// fields above, and each snapshot holds only the events attributed
    /// to that tenant.
    pub tenants: Vec<TenantMeasurement>,
}

struct LoadedWorkload {
    spec: WorkloadSpec,
    sampler: AccessSampler,
}

/// One co-located tenant's runtime state: its address space id, its
/// workload sampler, and its own RNG stream (tenant 0 owns the machine
/// RNG; later tenants get derived streams, so adding a tenant never
/// perturbs an earlier tenant's sequence).
struct Tenant {
    id: TenantId,
    asid: AsId,
    workload: LoadedWorkload,
    rng: SmallRng,
    touched: u64,
    vpn_salt: u64,
}

/// Launch-time description of one tenant: its workload plus the
/// scheduling parameters and [`PolicyHint`] registered with the engine.
///
/// # Examples
///
/// ```
/// use trident_sim::TenantSpec;
/// use trident_workloads::WorkloadSpec;
///
/// let spec = TenantSpec::new(WorkloadSpec::by_name("Redis").unwrap())
///     .weight(2)
///     .chunk_budget(4);
/// assert_eq!(spec.weight, 2);
/// ```
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The workload this tenant runs.
    pub workload: WorkloadSpec,
    /// Weighted-round-robin share of the promotion daemon (≥ 1).
    pub weight: u32,
    /// Per-tick promotion-budget override (`None` = daemon default).
    pub chunk_budget: Option<usize>,
    /// Promotion guidance the tenant supplies.
    pub hint: PolicyHint,
}

impl TenantSpec {
    /// A neutral tenant: weight 1, default budget, no hints.
    #[must_use]
    pub fn new(workload: WorkloadSpec) -> TenantSpec {
        TenantSpec {
            workload,
            weight: 1,
            chunk_budget: None,
            hint: PolicyHint::new(),
        }
    }

    /// Sets the fairness weight.
    #[must_use]
    pub fn weight(mut self, weight: u32) -> TenantSpec {
        self.weight = weight;
        self
    }

    /// Overrides the per-tick promotion budget.
    #[must_use]
    pub fn chunk_budget(mut self, budget: usize) -> TenantSpec {
        self.chunk_budget = Some(budget);
        self
    }

    /// Installs promotion guidance.
    #[must_use]
    pub fn hint(mut self, hint: PolicyHint) -> TenantSpec {
        self.hint = hint;
        self
    }
}

/// Builds a [`System`]: the one way to boot a machine.
///
/// Replaces the old `launch`/`launch_recording`/`launch_with` triad with
/// chained setters; [`build`](SystemBuilder::build) validates the whole
/// description before booting.
///
/// # Examples
///
/// ```no_run
/// use trident_sim::{PolicyKind, SimConfig, System, TenantSpec};
/// use trident_workloads::WorkloadSpec;
///
/// // Single tenant — the common case:
/// let mut system = System::builder(SimConfig::at_scale(64))
///     .policy(PolicyKind::Trident)
///     .workload(WorkloadSpec::by_name("GUPS").unwrap())
///     .build()?;
/// system.settle();
/// let m = system.measure();
/// println!("walk cycles: {}", m.walk_cycles);
///
/// // Co-location — three tenants on one pool:
/// let mut cell = System::builder(SimConfig::at_scale(64))
///     .policy(PolicyKind::Trident)
///     .tenant(TenantSpec::new(WorkloadSpec::by_name("Redis").unwrap()).weight(2))
///     .tenant(TenantSpec::new(WorkloadSpec::by_name("GUPS").unwrap()))
///     .tenant(TenantSpec::new(WorkloadSpec::by_name("XSBench").unwrap()))
///     .build()?;
/// cell.settle();
/// for t in &cell.measure().tenants {
///     println!("{}: {} walk cycles", t.tenant, t.walk_cycles);
/// }
/// # Ok::<(), trident_phys::PhysMemError>(())
/// ```
pub struct SystemBuilder {
    config: SimConfig,
    kind: Option<PolicyKind>,
    policy: Option<Box<dyn PagePolicy>>,
    recorder: Option<ObsRecorder>,
    tenants: Vec<TenantSpec>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("kind", &self.kind)
            .field("tenants", &self.tenants.len())
            .finish()
    }
}

impl SystemBuilder {
    /// Selects the kernel policy by kind.
    #[must_use]
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Installs a caller-constructed policy — for configurations outside
    /// the standard [`PolicyKind`] set (e.g. Trident with bloat recovery
    /// enabled). Mutually exclusive with [`policy`](Self::policy).
    #[must_use]
    pub fn policy_instance(mut self, policy: Box<dyn PagePolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Adds a neutral tenant running `spec` — shorthand for
    /// `.tenant(TenantSpec::new(spec))`.
    #[must_use]
    pub fn workload(self, spec: WorkloadSpec) -> Self {
        self.tenant(TenantSpec::new(spec))
    }

    /// Adds a tenant. Tenants are numbered in insertion order: the first
    /// becomes tenant 0 (whose view legacy accessors like
    /// [`System::space`] expose).
    #[must_use]
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Selects the page-size ladder by architecture — the unscaled
    /// descriptor (e.g. [`PageGeometry::RISCV_SV48`]) is rescaled to the
    /// config's memory scale, exactly as the default x86-64 ladder is.
    /// The default is [`PageGeometry::X86_64`], whose runs are
    /// bit-identical to the historical three-size engine.
    #[must_use]
    pub fn geometry(mut self, arch: PageGeometry) -> Self {
        self.config.geo = crate::config::scaled_geometry_for(&arch, self.config.scale.divisor());
        self
    }

    /// Installs a caller-supplied recorder *before* the load phase, so
    /// load-time events are captured too — the hook `--trace-out` uses to
    /// stream a run's full event stream to disk instead of buffering it
    /// in a ring. Overrides whatever `config.trace_capacity` and
    /// `config.profile` would have installed.
    #[must_use]
    pub fn recorder(mut self, recorder: ObsRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Validates the description and boots the machine: fragments memory
    /// if configured, registers the tenant directory, builds the policy
    /// (hugetlbfs variants reserve their pool here — failing on
    /// fragmented memory exactly as the paper reports), and loads every
    /// tenant with faults interleaved with allocation.
    ///
    /// # Errors
    ///
    /// [`TridentError::InvalidConfig`] when no tenant, more than 65,535
    /// tenants or no policy was given, both a [`PolicyKind`] and a policy
    /// instance were given, or a tenant's budget override is zero;
    /// otherwise the allocation error when a hugetlbfs reservation cannot
    /// be satisfied, and
    /// [`TridentError::OutOfContiguousMemory`] when the tenants need more
    /// memory than the machine has and no page cache is left to reclaim.
    pub fn build(self) -> Result<System, PhysMemError> {
        if self.tenants.is_empty() {
            return Err(TridentError::InvalidConfig {
                field: "tenants",
                reason: "at least one tenant (or workload) is required",
            });
        }
        if self.tenants.len() > usize::from(u16::MAX) {
            return Err(TridentError::InvalidConfig {
                field: "tenants",
                reason: "at most 65,535 tenants: each address-space id must fit a reverse-map slot",
            });
        }
        if self.kind.is_some() && self.policy.is_some() {
            return Err(TridentError::InvalidConfig {
                field: "policy",
                reason: "policy kind and policy instance are mutually exclusive",
            });
        }
        if self.tenants.iter().any(|t| t.chunk_budget == Some(0)) {
            return Err(TridentError::InvalidConfig {
                field: "chunk_budget",
                reason: "a tenant budget override must be nonzero",
            });
        }
        let config = self.config;
        let geo = config.geo;
        let mut ctx = MmContext::new(PhysicalMemory::new(geo, config.host_pages()));
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let fragmenter = config.fragment.map(|profile| {
            let mut f = Fragmenter::new(profile);
            f.run(&mut ctx.mem, &mut rng);
            f
        });

        // Register who owns what before anything records or promotes, and
        // open attribution on tenant 0 while the recorder is still the
        // no-op (so no scope marker lands in single-tenant traces). From
        // here on the scope is always some tenant, which is what makes
        // per-tenant snapshots sum to the pooled totals.
        let mut spaces = SpaceSet::new();
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for (i, spec) in self.tenants.iter().enumerate() {
            let id = TenantId::new(u32::try_from(i).expect("tenant count fits u32"));
            let asid = AsId::new(u32::try_from(i + 1).expect("tenant count fits u32"));
            ctx.tenants.register(
                asid,
                TenantPolicy {
                    tenant: id,
                    weight: spec.weight,
                    chunk_budget: spec.chunk_budget,
                    hint: spec.hint.clone(),
                },
            );
            spaces.insert(AddressSpace::new(asid, geo));
            tenants.push(Tenant {
                id,
                asid,
                workload: LoadedWorkload {
                    spec: spec.workload,
                    // Placeholder sampler; replaced after load.
                    sampler: AccessSampler::new(
                        spec.workload,
                        Layout::from_ranges(vec![trident_workloads::ChunkRange {
                            start: Vpn::new(0),
                            pages: 1,
                        }]),
                    ),
                },
                // Tenant 0 takes over the machine RNG (continuing the
                // fragmenter's stream, exactly as the single-workload
                // engine did); later tenants get derived streams.
                rng: SmallRng::seed_from_u64(
                    config
                        .seed
                        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64)),
                ),
                touched: 0,
                vpn_salt: (i as u64) << TENANT_VPN_SALT_SHIFT,
            });
        }
        tenants[0].rng = rng;
        ctx.set_tenant_scope(Some(TenantId::new(0)));

        let workload_pages: u64 = self
            .tenants
            .iter()
            .map(|t| {
                geo.pages_for_bytes(config.scale.apply(t.workload.footprint_bytes))
                    .max(1)
            })
            .sum();
        let policy = match self.policy {
            Some(policy) => policy,
            None => {
                let kind = self.kind.ok_or(TridentError::InvalidConfig {
                    field: "policy",
                    reason: "a policy kind or policy instance is required",
                })?;
                kind.build(&mut ctx, workload_pages)?
            }
        };

        ctx.recorder = match self.recorder {
            Some(recorder) => recorder,
            None => {
                let inner = match config.trace_capacity {
                    Some(capacity) => ObsRecorder::ring(capacity),
                    None => ObsRecorder::default(),
                };
                if config.profile {
                    ObsRecorder::custom(Box::new(Profiler::new(1, inner)))
                } else {
                    inner
                }
            }
        };
        // The injector must be live before load so load-phase faults are
        // subject to the plan too.
        if let Some(plan) = config.fault {
            ctx.fault = FaultInjector::new(plan);
        }
        let engine =
            TranslationEngine::new(TlbHierarchy::with_geometry(geo), WalkCostModel::default());
        let mut system = System {
            governor: DaemonGovernor::new(config.daemon_cap, config.tick_interval_app_ns),
            config,
            ctx,
            spaces,
            policy,
            engine,
            fragmenter,
            tenants,
            touched: 0,
            mappable_timeline: Vec::new(),
            violations: Vec::new(),
            ticks: 0,
            samples_done: 0,
            progress_hook: None,
        };
        system.load_all()?;
        Ok(system)
    }
}

/// A point-in-time progress report handed to a [`System`] progress
/// hook at every daemon tick.
///
/// Everything here is read off state the tick already computed — taking
/// a report never touches the seeded RNG or modeled time, so a run
/// observed through a hook measures bit-identically to an unobserved
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProgress {
    /// Daemon ticks executed so far (load, settle and measure phases).
    pub ticks: u64,
    /// Measured accesses completed so far (0 until `measure` starts).
    pub samples_done: u64,
    /// Total accesses `measure` will perform.
    pub samples_total: u64,
    /// Current 1GB free-memory fragmentation index, in thousandths.
    pub fmfi_milli: u64,
}

/// A native machine: one physical pool, N tenant processes, one kernel
/// policy, and the (scaled) Skylake TLB. Boot one with
/// [`System::builder`].
pub struct System {
    /// The configuration this system was launched with.
    pub config: SimConfig,
    /// Memory-management state.
    pub ctx: MmContext,
    /// Process address spaces (one per tenant).
    pub spaces: SpaceSet,
    policy: Box<dyn PagePolicy>,
    engine: TranslationEngine,
    governor: DaemonGovernor,
    fragmenter: Option<Fragmenter>,
    tenants: Vec<Tenant>,
    touched: u64,
    /// (2MB-mappable bytes, 1GB-mappable bytes) of tenant 0's space,
    /// sampled after each of its allocation steps — Figure 3's timeline.
    pub mappable_timeline: Vec<(u64, u64)>,
    /// Invariant violations collected by the per-tick audit (empty unless
    /// `config.audit` is set — and expected to stay empty even under
    /// fault injection; anything here is a bug).
    violations: Vec<InvariantViolation>,
    ticks: u64,
    samples_done: u64,
    progress_hook: Option<Box<dyn FnMut(RunProgress) + Send>>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("policy", &self.policy.name())
            .field(
                "workloads",
                &self
                    .tenants
                    .iter()
                    .map(|t| t.workload.spec.name)
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl System {
    /// Starts describing a machine; finish with
    /// [`SystemBuilder::build`].
    #[must_use]
    pub fn builder(config: SimConfig) -> SystemBuilder {
        SystemBuilder {
            config,
            kind: None,
            policy: None,
            recorder: None,
            tenants: Vec::new(),
        }
    }

    /// The policy's display name.
    #[must_use]
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// Executes every tenant's allocation plan with first-touch faults
    /// interleaved — both within a tenant (how real applications populate
    /// memory) and *across* tenants (how co-located processes interleave
    /// on the shared pool) — running daemon ticks along the way and
    /// recording the Figure 3 mappability timeline for tenant 0.
    fn load_all(&mut self) -> Result<(), TridentError> {
        let geo = self.config.geo;
        struct TenantLoad {
            plan: AllocPlan,
            next_step: usize,
            ranges: Vec<trident_workloads::ChunkRange>,
            pending: std::collections::VecDeque<trident_workloads::ChunkRange>,
        }
        // Plans are drawn per tenant from that tenant's own RNG stream,
        // in tenant order, so a tenant's plan never depends on who else
        // is on the machine.
        let mut loads: Vec<TenantLoad> = self
            .tenants
            .iter_mut()
            .map(|t| {
                let plan = t.workload.spec.plan(geo, self.config.scale, &mut t.rng);
                let steps = plan.steps.len();
                TenantLoad {
                    plan,
                    next_step: 0,
                    ranges: Vec::with_capacity(steps),
                    pending: std::collections::VecDeque::new(),
                }
            })
            .collect();
        // Round-robin one allocation step per tenant per round. Arena
        // allocators reserve virtual memory ahead of first touch:
        // touching trails allocation by `alloc_touch_lag` steps, which is
        // what lets the fault handler see 1GB-mappable ranges even for
        // incremental allocators (Table 4's fault-time attempts).
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (i, load) in loads.iter_mut().enumerate() {
                let Some(step) = load.plan.steps.get(load.next_step) else {
                    continue;
                };
                progressed = true;
                load.next_step += 1;
                self.ctx.set_tenant_scope(Some(self.tenants[i].id));
                let range = {
                    let space = self
                        .spaces
                        .get_mut(self.tenants[i].asid)
                        .expect("tenant space");
                    AllocPlan::execute_step(space, step)
                };
                load.ranges.push(range);
                load.pending.push_back(range);
                let lag = self.tenants[i].workload.spec.alloc_touch_lag as usize;
                if load.pending.len() > lag {
                    let due = load.pending.pop_front().expect("just checked");
                    self.touch_range(i, due)?;
                }
                if i == 0 {
                    let huge = geo
                        .size_for_order(geo.level_order(2))
                        .expect("every ladder has a natural level-2 rung");
                    let space = self.spaces.get(self.tenants[0].asid).expect("tenant space");
                    self.mappable_timeline.push((
                        mappable_bytes(space, huge),
                        mappable_bytes(space, geo.largest()),
                    ));
                }
            }
        }
        for (i, load) in loads.iter_mut().enumerate() {
            self.ctx.set_tenant_scope(Some(self.tenants[i].id));
            while let Some(due) = load.pending.pop_front() {
                self.touch_range(i, due)?;
            }
        }
        for (t, load) in self.tenants.iter_mut().zip(loads) {
            let layout = Layout::from_ranges(load.ranges);
            t.workload.sampler = AccessSampler::new(t.workload.spec, layout);
        }
        self.ctx.set_tenant_scope(Some(self.tenants[0].id));
        Ok(())
    }

    /// Touches the portion of a chunk the application actually uses
    /// (`touch_fraction`); the rest stays unbacked — the raw material of
    /// §7's promotion bloat. Large ranges are prefix-touched; small
    /// allocation chunks are touched all-or-none (a slab either holds
    /// objects or sits empty), which is what lets 1GB promotion back
    /// memory THP never would.
    ///
    /// Touched pages are populated in runs through
    /// [`PagePolicy::populate`], with the effect of one first touch per
    /// page: before each page, keep a small free reserve like kswapd does,
    /// reclaiming page cache when free memory falls below 2%; fault the
    /// page in if it is unmapped, reclaiming and retrying once on OOM; and
    /// run a governed daemon tick every `tick_interval_pages` touches
    /// (machine-wide — the daemons do not know which tenant's touch
    /// tripped the interval). A run therefore ends at a tick boundary,
    /// and, with a page cache attached, before any page where the reserve
    /// check could fire.
    fn touch_range(
        &mut self,
        tenant_idx: usize,
        range: trident_workloads::ChunkRange,
    ) -> Result<(), TridentError> {
        use rand::Rng;
        let geo = self.config.geo;
        let tenant = &mut self.tenants[tenant_idx];
        let spec = tenant.workload.spec;
        let touched = if range.pages >= geo.base_pages(geo.largest()) {
            ((range.pages as f64) * spec.touch_fraction).ceil() as u64
        } else if spec.touch_fraction >= 1.0 || tenant.rng.gen_bool(spec.touch_fraction) {
            range.pages
        } else {
            0
        };
        let asid = tenant.asid;
        let end = range.start + touched.min(range.pages);
        let interval = self.config.tick_interval_pages;
        let mut vpn = range.start;
        while vpn < end {
            if self.ctx.mem.free_fraction() < 0.02 {
                if let Some(f) = &mut self.fragmenter {
                    f.reclaim(&mut self.ctx.mem, 1 << 15);
                }
            }
            let mut cap = (end - vpn).min(interval - self.touched % interval);
            if self.fragmenter.is_some() {
                cap = cap.min(self.pages_before_reclaim());
            }
            let space = self.spaces.get_mut(asid).expect("tenant space");
            let done = match self.policy.populate(&mut self.ctx, space, vpn, cap) {
                Ok(()) => cap,
                Err(PolicyError::OutOfContiguousMemory(e)) => {
                    // Every page before the failed one is populated.
                    let pt = space.page_table();
                    let failed = (0..cap)
                        .map(|i| vpn + i)
                        .find(|&p| pt.translate(p).is_none())
                        .expect("a failed populate leaves its failing page unmapped");
                    let f = self
                        .fragmenter
                        .as_mut()
                        .ok_or(TridentError::OutOfContiguousMemory(e))?;
                    f.reclaim(&mut self.ctx.mem, 1 << 16);
                    let space = self.spaces.get_mut(asid).expect("tenant space");
                    self.policy.on_fault(&mut self.ctx, space, failed)?;
                    failed - vpn + 1
                }
                Err(e) => return Err(e),
            };
            vpn += done;
            self.tenants[tenant_idx].touched += done;
            self.touched += done;
            if self.touched.is_multiple_of(interval) {
                self.tick();
            }
        }
        Ok(())
    }

    /// How many pages can be populated before the 2% free-reserve check
    /// could fire again: no fault allocates more than one top-rung page,
    /// so the check stays quiet for every page whose predecessors leave
    /// the free count at or above the smallest count that passes it.
    fn pages_before_reclaim(&self) -> u64 {
        let mem = &self.ctx.mem;
        let total = mem.total_pages();
        let fires = |free: u64| (free as f64 / total as f64) < 0.02;
        let mut floor = (total as f64 * 0.02).ceil() as u64;
        while floor > 0 && !fires(floor - 1) {
            floor -= 1;
        }
        while fires(floor) {
            floor += 1;
        }
        let per_fault = self.config.geo.base_pages(self.config.geo.largest());
        1 + mem.free_pages().saturating_sub(floor) / per_fault
    }

    /// One governed background-daemon tick. When a recorder is active,
    /// a fragmentation/contiguity gauge sample follows the tick so the
    /// time-series can chart FMFI and free large-block capacity.
    pub fn tick(&mut self) -> trident_core::TickOutcome {
        let out = self
            .governor
            .tick(self.policy.as_mut(), &mut self.ctx, &mut self.spaces);
        if self.ctx.recorder.enabled() {
            self.ctx.recorder.record(self.gauge_sample());
        }
        if self.config.audit {
            if let Err(v) = trident_core::check_mm_consistent(&self.ctx, &self.spaces) {
                self.violations.extend(v);
            }
        } else {
            #[cfg(debug_assertions)]
            trident_core::assert_mm_consistent(&self.ctx, &self.spaces);
        }
        self.ticks += 1;
        if self.progress_hook.is_some() {
            // The gauge is a pure read of buddy state; computed only when
            // someone is listening, and the hook itself never touches the
            // RNG or modeled time, so observed and unobserved runs stay
            // bit-identical.
            let top = self.config.geo.largest();
            let fmfi_milli = (self.ctx.mem.fmfi(top) * 1000.0).round() as u64;
            let progress = RunProgress {
                ticks: self.ticks,
                samples_done: self.samples_done,
                samples_total: self.config.measure_samples as u64,
                fmfi_milli,
            };
            if let Some(hook) = self.progress_hook.as_mut() {
                hook(progress);
            }
        }
        out
    }

    /// Installs a per-tick progress hook; fired after every daemon tick
    /// with a [`RunProgress`] report. The hook observes the run without
    /// perturbing it: installing one must not (and cannot, through this
    /// API) change what the system computes.
    pub fn set_progress_hook(&mut self, hook: Box<dyn FnMut(RunProgress) + Send>) {
        self.progress_hook = Some(hook);
    }

    /// Daemon ticks executed so far, across all phases.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Invariant violations collected by the per-tick audit; always empty
    /// unless the config enables `audit`. A graceful system keeps this
    /// empty even under fault injection — in a co-location cell, a
    /// violation here is an isolation violation.
    #[must_use]
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Audit violations bucketed by the tenant whose space they landed
    /// in; machine-wide (buddy/region) violations land under `None`.
    #[must_use]
    pub fn violations_by_tenant(&self) -> Vec<(Option<TenantId>, u64)> {
        trident_core::violations_by_tenant(&self.ctx.tenants, &self.violations)
    }

    /// The current fragmentation/contiguity gauge: 1GB FMFI in
    /// thousandths plus free capacity at 2MB and 1GB granularity
    /// (higher-order free blocks count at their full capacity).
    fn gauge_sample(&self) -> Event {
        let geo = self.config.geo;
        let buddy = self.ctx.mem.buddy();
        let huge = geo
            .size_for_order(geo.level_order(2))
            .expect("every ladder has a natural level-2 rung");
        Event::Gauge {
            fmfi_milli: (self.ctx.mem.fmfi(geo.largest()) * 1000.0).round() as u64,
            free_huge: buddy.free_capacity(geo.order(huge)),
            free_giant: buddy.free_capacity(geo.order(geo.largest())),
        }
    }

    /// Runs daemon ticks until promotions and compactions go quiet (or
    /// the configured budget runs out).
    pub fn settle(&mut self) {
        let mut quiet = 0;
        for _ in 0..self.config.settle_ticks {
            let out = self.tick();
            if out.promotions == 0 && out.compaction_runs == 0 && self.governor.debt_ns() == 0 {
                quiet += 1;
                if quiet >= 3 {
                    break;
                }
            } else {
                quiet = 0;
            }
        }
    }

    /// Samples accesses through the page tables and the TLB — round-robin
    /// over the tenants — with daemon ticks interleaved; returns the
    /// measurement. A warm-up of 10% of the samples primes the TLB before
    /// counting starts.
    pub fn measure(&mut self) -> Measurement {
        let n = self.tenants.len();
        let warmup = self.config.measure_samples / 10;
        // The tenants take turns; `idx` rotates through them and
        // restarts at the first when the counted phase starts.
        let mut idx = 0;
        for _ in 0..warmup {
            self.measured_access(idx, None);
            idx = if idx + 1 == n { 0 } else { idx + 1 };
        }
        self.engine.reset_stats();
        // Dense per-giant-chunk miss counters (chunk indexes are small and
        // contiguous); folded into sorted pairs once at the end.
        let mut miss_by_chunk: Vec<u64> = Vec::new();
        let mut per_samples = vec![0usize; n];
        let mut per_walks = vec![0u64; n];
        let mut per_cycles = vec![0u64; n];
        let mut idx = 0;
        let mut until_tick = self.config.measure_tick_every;
        for i in 0..self.config.measure_samples {
            let result = self.measured_access(idx, Some(&mut miss_by_chunk));
            self.samples_done = (i + 1) as u64;
            per_samples[idx] += 1;
            per_cycles[idx] += result.cycles;
            if result.outcome == TlbOutcome::Miss {
                per_walks[idx] += 1;
            }
            idx = if idx + 1 == n { 0 } else { idx + 1 };
            until_tick -= 1;
            if until_tick == 0 {
                until_tick = self.config.measure_tick_every;
                let out = self.tick();
                if out.promotions > 0 {
                    // Remaps invalidate cached translations.
                    self.engine.flush();
                }
            }
        }
        let tlb = *self.engine.stats();
        let trace_dropped = self.ctx.recorder.tracer().map_or(0, RingTracer::dropped);
        let trace = self
            .ctx
            .recorder
            .tracer_mut()
            .map(RingTracer::drain)
            .unwrap_or_default();
        let profile = self
            .ctx
            .recorder
            .custom_mut::<Profiler>()
            .map(|p| Box::new(p.finish_profile()));
        let geo = self.config.geo;
        let top_rung = geo.largest().rung();
        let mut mapped_bytes = [0u64; MAX_RUNGS];
        let tenants: Vec<TenantMeasurement> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let space = self.spaces.get(t.asid).expect("tenant space");
                let mut mapped = [0u64; MAX_RUNGS];
                for size in geo.rungs() {
                    mapped[size.rung()] = space.page_table().mapped_bytes(size);
                }
                for (total, bytes) in mapped_bytes.iter_mut().zip(mapped) {
                    *total += bytes;
                }
                let resident: u64 = mapped.iter().sum();
                TenantMeasurement {
                    tenant: t.id,
                    workload: t.workload.spec.name,
                    samples: per_samples[i],
                    walks: per_walks[i],
                    walk_cycles: per_cycles[i],
                    snapshot: self.ctx.tenant_snapshot(t.id),
                    mapped_bytes: mapped,
                    fmfi_giant: if resident == 0 {
                        0.0
                    } else {
                        1.0 - (mapped[top_rung] as f64 / resident as f64)
                    },
                }
            })
            .collect();
        Measurement {
            samples: self.config.measure_samples,
            walks: tlb.total_walks(),
            walk_cycles: tlb.total_walk_cycles(),
            tlb,
            snapshot: self.ctx.snapshot(),
            trace,
            trace_dropped,
            profile,
            mapped_bytes,
            miss_by_chunk: miss_by_chunk
                .iter()
                .enumerate()
                .filter(|(_, &n)| n != 0)
                .map(|(chunk, &n)| (chunk as u64, n))
                .collect(),
            tenants,
        }
    }

    fn measured_access(
        &mut self,
        tenant_idx: usize,
        miss_by_chunk: Option<&mut Vec<u64>>,
    ) -> trident_tlb::AccessResult {
        let tenant = &mut self.tenants[tenant_idx];
        let access = tenant.workload.sampler.sample(&mut tenant.rng);
        let (asid, salt, id) = (tenant.asid, tenant.vpn_salt, tenant.id);
        self.ctx.set_tenant_scope(Some(id));
        let space = self.spaces.get_mut(asid).expect("tenant space");
        let translation = match space.page_table_mut().access(access.vpn, access.write) {
            Some(t) => t,
            None => {
                // A demotion may have unmapped a cold page; fault it back.
                self.policy
                    .on_fault(&mut self.ctx, space, access.vpn)
                    .expect("measurement fault");
                let space = self.spaces.get_mut(asid).expect("tenant space");
                space
                    .page_table_mut()
                    .access(access.vpn, access.write)
                    .expect("fault installed a mapping")
            }
        };
        // The shared TLB keys on the salted VPN, standing in for ASID
        // tagging (tenant 0's salt is zero).
        let result = self.engine.translate_rec(
            Vpn::new(access.vpn.raw() + salt),
            translation.size,
            &mut self.ctx.recorder,
        );
        if result.outcome == TlbOutcome::Miss && tenant_idx == 0 {
            if let Some(counts) = miss_by_chunk {
                let chunk = self.config.geo.giant_region_of(access.vpn.raw()) as usize;
                if chunk >= counts.len() {
                    counts.resize(chunk + 1, 0);
                }
                counts[chunk] += 1;
            }
        }
        result
    }

    /// The (scaled) page geometry this machine runs.
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        self.config.geo
    }

    /// Bytes currently mapped at `size` in tenant 0's address space.
    #[must_use]
    pub fn mapped_bytes(&self, size: PageSize) -> u64 {
        self.space().page_table().mapped_bytes(size)
    }

    /// Base pages the tenants have actually touched (first-touch count
    /// from the load phase, machine-wide). `resident - touched` is the §7
    /// memory bloat, and `touched` is the floor that HawkEye-style
    /// zero-page deduplication can recover to.
    #[must_use]
    pub fn touched_pages(&self) -> u64 {
        self.touched
    }

    /// Grabs kernel memory until the free fraction drops to `target` —
    /// the memory pressure that trips bloat-recovery watermarks.
    pub fn apply_memory_pressure(&mut self, target: f64) {
        while self.ctx.mem.free_fraction() > target {
            if self
                .ctx
                .mem
                .allocate_order(0, trident_phys::FrameUse::Kernel, None, &mut NoopRecorder)
                .is_err()
            {
                break;
            }
        }
    }

    /// Tenant 0's address space — the legacy single-tenant view.
    #[must_use]
    pub fn space(&self) -> &AddressSpace {
        self.spaces.get(self.tenants[0].asid).expect("tenant space")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SimConfig {
        let mut c = SimConfig::at_scale(256);
        c.measure_samples = 5_000;
        c.measure_tick_every = 2_000;
        c.settle_ticks = 16;
        c
    }

    fn launch(config: SimConfig, kind: PolicyKind, spec: WorkloadSpec) -> System {
        System::builder(config)
            .policy(kind)
            .workload(spec)
            .build()
            .unwrap()
    }

    #[test]
    fn bulk_workload_under_trident_gets_giant_pages_at_fault() {
        let spec = WorkloadSpec::by_name("GUPS").unwrap();
        let sys = launch(quick_config(), PolicyKind::Trident, spec);
        // 32GB/256 = 128MB heap: at least some giant mappings (scaled
        // giant pages are 1GB... at scale 256 the heap is 32768 pages,
        // which is smaller than a giant page) — so expect huge pages
        // instead. Verify *some* large mapping exists.
        let large = sys.mapped_bytes(PageSize::new(1)) + sys.mapped_bytes(PageSize::new(2));
        assert!(large > 0);
    }

    #[test]
    fn thp_never_produces_giant_mappings() {
        let spec = WorkloadSpec::by_name("GUPS").unwrap();
        let mut sys = launch(quick_config(), PolicyKind::Thp, spec);
        sys.settle();
        assert_eq!(sys.mapped_bytes(PageSize::new(2)), 0);
        assert!(sys.mapped_bytes(PageSize::new(1)) > 0);
    }

    #[test]
    fn measure_accounts_every_sample() {
        let spec = WorkloadSpec::by_name("Btree").unwrap();
        let mut sys = launch(quick_config(), PolicyKind::Thp, spec);
        sys.settle();
        let m = sys.measure();
        assert_eq!(m.samples, 5_000);
        assert_eq!(m.tlb.total_accesses(), 5_000);
        assert!(m.walks <= 5_000);
        let chunk_misses: u64 = m.miss_by_chunk.iter().map(|(_, n)| n).sum();
        assert_eq!(chunk_misses, m.walks);
        // The per-tenant breakdown of a single-tenant run is the whole
        // run.
        assert_eq!(m.tenants.len(), 1);
        assert_eq!(m.tenants[0].tenant, TenantId::new(0));
        assert_eq!(m.tenants[0].samples, m.samples);
        assert_eq!(m.tenants[0].walks, m.walks);
        assert_eq!(m.tenants[0].walk_cycles, m.walk_cycles);
        assert_eq!(m.tenants[0].mapped_bytes, m.mapped_bytes);
        assert_eq!(
            m.tenants[0].snapshot.total_faults(),
            m.snapshot.total_faults()
        );
    }

    #[test]
    fn fragmented_launch_reclaims_instead_of_oom() {
        let spec = WorkloadSpec::by_name("Canneal").unwrap();
        let config = quick_config().fragmented();
        let sys = launch(config, PolicyKind::Trident, spec);
        // The workload fit despite the page cache having filled memory.
        assert!(
            sys.mapped_bytes(PageSize::BASE)
                + sys.mapped_bytes(PageSize::new(1))
                + sys.mapped_bytes(PageSize::new(2))
                > 0
        );
        sys.ctx.mem.assert_consistent();
    }

    #[test]
    fn hugetlbfs_reservation_fails_on_fragmented_memory() {
        let spec = WorkloadSpec::by_name("Canneal").unwrap();
        let config = quick_config().fragmented();
        let result = System::builder(config)
            .policy(PolicyKind::HugetlbfsGiant)
            .workload(spec)
            .build();
        assert!(result.is_err(), "1GB reservation must fail when fragmented");
    }

    #[test]
    fn builder_rejects_degenerate_descriptions() {
        let spec = WorkloadSpec::by_name("GUPS").unwrap();
        // No tenant.
        assert!(System::builder(quick_config())
            .policy(PolicyKind::Thp)
            .build()
            .is_err());
        // No policy.
        assert!(System::builder(quick_config())
            .workload(spec)
            .build()
            .is_err());
        // Kind and instance together.
        assert!(System::builder(quick_config())
            .policy(PolicyKind::Thp)
            .policy_instance(Box::new(trident_core::ThpPolicy::new()))
            .workload(spec)
            .build()
            .is_err());
        // Zero budget override.
        assert!(System::builder(quick_config())
            .policy(PolicyKind::Thp)
            .tenant(TenantSpec::new(spec).chunk_budget(0))
            .build()
            .is_err());
    }

    #[test]
    fn mappable_timeline_grows_monotonically_for_bulk() {
        let spec = WorkloadSpec::by_name("XSBench").unwrap();
        let sys = launch(quick_config(), PolicyKind::Thp, spec);
        assert!(!sys.mappable_timeline.is_empty());
        let (huge, giant) = *sys.mappable_timeline.last().unwrap();
        assert!(huge >= giant);
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = WorkloadSpec::by_name("Redis").unwrap();
        let run = || {
            let mut sys = launch(quick_config(), PolicyKind::Trident, spec);
            sys.settle();
            let m = sys.measure();
            (m.walk_cycles, m.mapped_bytes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn colocated_tenants_share_the_pool_and_sum_to_the_machine() {
        let mut sys = System::builder(quick_config())
            .policy(PolicyKind::Trident)
            .tenant(TenantSpec::new(WorkloadSpec::by_name("Redis").unwrap()).weight(2))
            .tenant(TenantSpec::new(WorkloadSpec::by_name("GUPS").unwrap()))
            .tenant(TenantSpec::new(WorkloadSpec::by_name("XSBench").unwrap()))
            .build()
            .unwrap();
        assert_eq!(sys.tenants.len(), 3);
        sys.settle();
        let m = sys.measure();
        assert_eq!(m.tenants.len(), 3);
        // Every sample and walk cycle is attributed to exactly one
        // tenant.
        assert_eq!(
            m.tenants.iter().map(|t| t.samples).sum::<usize>(),
            m.samples
        );
        assert_eq!(m.tenants.iter().map(|t| t.walks).sum::<u64>(), m.walks);
        assert_eq!(
            m.tenants.iter().map(|t| t.walk_cycles).sum::<u64>(),
            m.walk_cycles
        );
        // Per-tenant fault counts sum to the pooled snapshot.
        assert_eq!(
            m.tenants
                .iter()
                .map(|t| t.snapshot.total_faults())
                .sum::<u64>(),
            m.snapshot.total_faults()
        );
        // Every tenant did real work on the one pool.
        for t in &m.tenants {
            assert!(t.samples > 0);
            assert!(t.mapped_bytes.iter().sum::<u64>() > 0);
            assert!((0.0..=1.0).contains(&t.fmfi_giant));
        }
        assert!(sys.spaces.get(sys.tenants[2].asid).is_some());
    }

    #[test]
    fn colocated_runs_are_deterministic() {
        let run = || {
            let mut sys = System::builder(quick_config())
                .policy(PolicyKind::Trident)
                .tenant(TenantSpec::new(WorkloadSpec::by_name("Redis").unwrap()))
                .tenant(TenantSpec::new(WorkloadSpec::by_name("GUPS").unwrap()))
                .build()
                .unwrap();
            sys.settle();
            let m = sys.measure();
            (
                m.walk_cycles,
                m.mapped_bytes,
                m.tenants
                    .iter()
                    .map(|t| (t.walk_cycles, t.mapped_bytes))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn adding_a_tenant_does_not_perturb_tenant_zeros_plan() {
        // Tenant RNG streams are independent: tenant 0 draws the same
        // allocation plan whether or not a neighbor is present. The
        // *outcomes* (placement, promotions) legitimately differ — the
        // pool is shared — but the sampler layout must match.
        let solo = launch(
            quick_config(),
            PolicyKind::Base,
            WorkloadSpec::by_name("Redis").unwrap(),
        );
        let duo = System::builder(quick_config())
            .policy(PolicyKind::Base)
            .tenant(TenantSpec::new(WorkloadSpec::by_name("Redis").unwrap()))
            .tenant(TenantSpec::new(WorkloadSpec::by_name("GUPS").unwrap()))
            .build()
            .unwrap();
        assert_eq!(
            solo.space().total_vma_pages(),
            duo.space().total_vma_pages()
        );
    }
}
