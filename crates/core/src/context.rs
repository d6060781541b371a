//! Shared mutable state the policies operate on.

use std::collections::BTreeMap;

use trident_fault::FaultInjector;
use trident_obs::{AllocSite, Event, InjectSite, ObsRecorder, Recorder, SpanKind, StatsSnapshot};
use trident_phys::PhysicalMemory;
use trident_types::{AsId, PageGeometry, PageSize, Pfn, TenantId};
use trident_vm::AddressSpace;

use crate::{CostModel, MmStats, TenantDirectory, ZeroFillPool};

/// System-wide memory-management state: the physical memory, the async
/// zero-fill pool, the cost model, the event recorder and the statistics
/// every experiment reads.
#[derive(Debug, Clone)]
pub struct MmContext {
    /// The machine's physical memory.
    pub mem: PhysicalMemory,
    /// Pre-zeroed giant blocks maintained by the background thread.
    pub zero_pool: ZeroFillPool,
    /// Accumulated statistics.
    pub stats: MmStats,
    /// Latency constants.
    pub cost: CostModel,
    /// Event sink; [`ObsRecorder::Noop`] (free) unless tracing was
    /// requested. Borrowable disjointly from `mem`/`stats`, so hot paths
    /// can pass `&mut ctx.recorder` into `ctx.mem.allocate_rec(..)`.
    pub recorder: ObsRecorder,
    /// Deterministic fault injector; disabled (free) unless a fault plan
    /// was installed. Lives alongside the recorder so every failure-capable
    /// layer can consult it through [`MmContext::inject`].
    pub fault: FaultInjector,
    /// Who owns each address space; empty on single-tenant machines.
    pub tenants: TenantDirectory,
    /// Per-tenant counters, indexed densely by raw [`TenantId`]. Every
    /// event recorded while a scope is set folds into the pooled `stats`
    /// *and* the scoped tenant's row, so per-tenant rows always sum to the
    /// pooled totals.
    tenant_stats: Vec<MmStats>,
    /// The tenant currently being worked for, if attribution is on.
    scope: Option<TenantId>,
    /// Frame buffer reused by every batched populate run, so a run
    /// allocates nothing on the heap.
    pub(crate) run_frames: Vec<Pfn>,
}

impl MmContext {
    /// Wraps a physical memory with default cost model, an empty
    /// zero-fill pool and the no-op recorder.
    #[must_use]
    pub fn new(mem: PhysicalMemory) -> MmContext {
        MmContext {
            mem,
            zero_pool: ZeroFillPool::new(8),
            stats: MmStats::default(),
            cost: CostModel::default(),
            recorder: ObsRecorder::default(),
            fault: FaultInjector::disabled(),
            tenants: TenantDirectory::new(),
            tenant_stats: Vec::new(),
            scope: None,
            run_frames: Vec::new(),
        }
    }

    /// Switches event attribution to `tenant` (or off with `None`). On a
    /// change to a live scope, a trace-only [`Event::TenantScope`] marker
    /// is emitted so traces stay attributable offline; the marker never
    /// touches counters, so single-tenant snapshots are unaffected.
    #[inline]
    pub fn set_tenant_scope(&mut self, scope: Option<TenantId>) {
        if self.scope == scope {
            return;
        }
        self.scope = scope;
        if let Some(tenant) = scope {
            let idx = tenant.raw() as usize;
            if self.tenant_stats.len() <= idx {
                self.tenant_stats.resize_with(idx + 1, MmStats::default);
            }
            self.recorder.record(Event::TenantScope { tenant });
        }
    }

    /// The tenant currently being attributed, if any.
    #[must_use]
    pub fn tenant_scope(&self) -> Option<TenantId> {
        self.scope
    }

    /// The snapshot of one tenant's attributed counters (zeros for a
    /// tenant that never held the scope).
    #[must_use]
    pub fn tenant_snapshot(&self, tenant: TenantId) -> StatsSnapshot {
        self.tenant_stats
            .get(tenant.raw() as usize)
            .map_or_else(StatsSnapshot::default, MmStats::snapshot)
    }

    /// The page geometry of the underlying memory.
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        self.mem.geometry()
    }

    /// Reports one event: folds it into [`MmStats`] and forwards it to the
    /// recorder. This is the single write path for every aggregate counter,
    /// which is what makes a complete trace replay to the exact snapshot.
    ///
    /// Under a fault plan with an active
    /// [`TraceRing`](InjectSite::TraceRing) rule, an event can be lost to
    /// simulated ring pressure: its counters stand, but the trace retains
    /// a [`Event::FaultInjected`] marker in its place and the loss is
    /// accounted via the tracer's dropped counter, keeping trace
    /// lossiness honest.
    pub fn record(&mut self, event: Event) {
        self.stats.apply(&event);
        self.apply_scoped(&event);
        if self.fault.enabled()
            && self.recorder.enabled()
            && self.fault.should_inject(InjectSite::TraceRing)
        {
            let marker = Event::FaultInjected {
                site: InjectSite::TraceRing,
            };
            self.stats.apply(&marker);
            self.apply_scoped(&marker);
            self.recorder.record(marker);
            if let Some(t) = self.recorder.tracer_mut() {
                t.note_dropped(1);
            }
            return;
        }
        self.recorder.record(event);
    }

    /// Reports `count` copies of one event: the batched form of `count`
    /// calls of [`record`](Self::record), folded in one step. With a
    /// recorder or a fault plan attached, each copy still goes through
    /// `record`, so traces and injection streams stay per event.
    pub fn record_n(&mut self, event: Event, count: u64) {
        if self.recorder.enabled() || self.fault.enabled() {
            (0..count).for_each(|_| self.record(event));
            return;
        }
        self.stats.apply_n(&event, count);
        if let Some(tenant) = self.scope {
            self.tenant_stats[tenant.raw() as usize].apply_n(&event, count);
        }
    }

    /// Folds `event` into the scoped tenant's row, when a scope is set.
    /// `set_tenant_scope` sizes the row vector, so the index always hits.
    fn apply_scoped(&mut self, event: &Event) {
        if let Some(tenant) = self.scope {
            self.tenant_stats[tenant.raw() as usize].apply(event);
        }
    }

    /// Consults the fault injector at `site`. When the plan fires, records
    /// an [`Event::FaultInjected`] and returns `true`; the caller then
    /// fails the operation the site names (and degrades gracefully).
    pub fn inject(&mut self, site: InjectSite) -> bool {
        if self.fault.enabled() && self.fault.should_inject(site) {
            self.record(Event::FaultInjected { site });
            true
        } else {
            false
        }
    }

    /// Records a served fault ([`Event::Fault`] at the page-fault site),
    /// bracketed by a [`SpanKind::Fault`] span whose duration is the
    /// modeled handler latency.
    pub fn record_fault(&mut self, size: PageSize, ns: u64) {
        self.recorder.record(Event::SpanBegin {
            kind: SpanKind::Fault,
        });
        self.record(Event::Fault {
            size,
            site: AllocSite::PageFault,
            ns,
        });
        self.recorder.record(Event::SpanEnd {
            kind: SpanKind::Fault,
            ns,
        });
    }

    /// Emits a span begin directly to the recorder (spans are trace-only;
    /// they never touch [`MmStats`]).
    pub fn span_begin(&mut self, kind: SpanKind) {
        self.recorder.record(Event::SpanBegin { kind });
    }

    /// Emits the matching span end with the span's modeled duration.
    pub fn span_end(&mut self, kind: SpanKind, ns: u64) {
        self.recorder.record(Event::SpanEnd { kind, ns });
    }

    /// Records a 1GB allocation attempt ([`Event::GiantAttempt`]).
    pub fn record_giant_attempt(&mut self, site: AllocSite, failed: bool) {
        self.record(Event::GiantAttempt { site, failed });
    }

    /// The versioned aggregate snapshot of this context's counters.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }
}

/// The set of simulated process address spaces, keyed by [`AsId`].
///
/// Compaction needs mutable access to *any* space (it follows reverse-map
/// owners to fix page tables), while fault handling works on one; this
/// container provides both access patterns.
///
/// # Examples
///
/// ```
/// use trident_core::SpaceSet;
/// use trident_types::{AsId, PageGeometry};
/// use trident_vm::AddressSpace;
///
/// let mut spaces = SpaceSet::new();
/// spaces.insert(AddressSpace::new(AsId::new(1), PageGeometry::TINY));
/// assert!(spaces.get(AsId::new(1)).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpaceSet {
    spaces: BTreeMap<AsId, AddressSpace>,
}

impl SpaceSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> SpaceSet {
        SpaceSet::default()
    }

    /// Adds (or replaces) a space, keyed by its own id.
    pub fn insert(&mut self, space: AddressSpace) {
        self.spaces.insert(space.id(), space);
    }

    /// Removes and returns a space.
    pub fn remove(&mut self, id: AsId) -> Option<AddressSpace> {
        self.spaces.remove(&id)
    }

    /// Shared access to a space.
    #[inline]
    #[must_use]
    pub fn get(&self, id: AsId) -> Option<&AddressSpace> {
        self.spaces.get(&id)
    }

    /// Mutable access to a space.
    #[inline]
    pub fn get_mut(&mut self, id: AsId) -> Option<&mut AddressSpace> {
        self.spaces.get_mut(&id)
    }

    /// The ids present, in order.
    #[must_use]
    pub fn ids(&self) -> Vec<AsId> {
        self.spaces.keys().copied().collect()
    }

    /// Iterates spaces in id order.
    pub fn iter(&self) -> impl Iterator<Item = &AddressSpace> {
        self.spaces.values()
    }

    /// Iterates spaces mutably in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut AddressSpace> {
        self.spaces.values_mut()
    }

    /// Number of spaces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spaces.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spaces.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_types::PageSize;

    #[test]
    fn space_set_round_trips() {
        let geo = PageGeometry::TINY;
        let mut set = SpaceSet::new();
        set.insert(AddressSpace::new(AsId::new(2), geo));
        set.insert(AddressSpace::new(AsId::new(1), geo));
        assert_eq!(set.len(), 2);
        assert_eq!(set.ids(), vec![AsId::new(1), AsId::new(2)]);
        assert!(set.get_mut(AsId::new(2)).is_some());
        assert!(set.remove(AsId::new(1)).is_some());
        assert!(set.get(AsId::new(1)).is_none());
        assert!(!set.is_empty());
    }

    #[test]
    fn context_exposes_geometry() {
        let geo = PageGeometry::TINY;
        let ctx = MmContext::new(PhysicalMemory::new(
            geo,
            4 * geo.base_pages(PageSize::new(2)),
        ));
        assert_eq!(ctx.geometry(), geo);
        assert_eq!(ctx.snapshot().total_faults(), 0);
    }

    #[test]
    fn tenant_scope_attributes_and_sums_to_pooled() {
        let geo = PageGeometry::TINY;
        let mut ctx = MmContext::new(PhysicalMemory::new(
            geo,
            4 * geo.base_pages(PageSize::new(2)),
        ));
        ctx.recorder = ObsRecorder::ring(16);
        let (t0, t1) = (TenantId::new(0), TenantId::new(1));
        ctx.set_tenant_scope(Some(t0));
        ctx.record_fault(PageSize::new(1), 100);
        ctx.set_tenant_scope(Some(t1));
        ctx.record_fault(PageSize::BASE, 10);
        ctx.record_fault(PageSize::BASE, 10);
        // Same-scope re-set emits no duplicate marker.
        ctx.set_tenant_scope(Some(t1));

        assert_eq!(ctx.tenant_scope(), Some(t1));
        assert_eq!(ctx.tenant_snapshot(t0).total_faults(), 1);
        assert_eq!(ctx.tenant_snapshot(t1).total_faults(), 2);
        // A tenant that never held the scope reads as zeros.
        assert_eq!(ctx.tenant_snapshot(TenantId::new(7)).total_faults(), 0);
        assert_eq!(
            ctx.tenant_snapshot(t0).total_fault_ns() + ctx.tenant_snapshot(t1).total_fault_ns(),
            ctx.snapshot().total_fault_ns()
        );
        // Scope markers are trace-only: one per transition, none counted.
        let markers = ctx
            .recorder
            .tracer()
            .unwrap()
            .events()
            .filter(|e| matches!(e, Event::TenantScope { .. }))
            .count();
        assert_eq!(markers, 2);
    }

    #[test]
    fn record_updates_stats_and_recorder_in_lockstep() {
        let geo = PageGeometry::TINY;
        let mut ctx = MmContext::new(PhysicalMemory::new(
            geo,
            4 * geo.base_pages(PageSize::new(2)),
        ));
        ctx.recorder = ObsRecorder::ring(16);
        ctx.record_fault(PageSize::new(1), 250);
        ctx.record_giant_attempt(AllocSite::PageFault, true);
        let trace: Vec<Event> = ctx.recorder.tracer().unwrap().events().copied().collect();
        // The fault is bracketed by trace-only span events.
        assert_eq!(trace.len(), 4);
        assert!(matches!(trace[0], Event::SpanBegin { .. }));
        assert!(matches!(trace[2], Event::SpanEnd { .. }));
        assert_eq!(ctx.snapshot(), StatsSnapshot::from_events(trace.iter()));
    }
}
