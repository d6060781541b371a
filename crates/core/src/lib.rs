//! The Trident policy engine.
//!
//! This crate implements the paper's contribution (§5) and the systems it
//! is evaluated against:
//!
//! * [`TridentPolicy`] — application-transparent dynamic allocation of all
//!   three page sizes: the fault handler tries 1GB, falls back to 2MB, then
//!   4KB (§5.1.2); a `khugepaged`-style promoter walks address spaces and
//!   upgrades mappings per the Figure 5 flowchart (§5.1.3); *smart
//!   compaction* selects — rather than scans for — source and target 1GB
//!   regions using per-region occupancy counters (Figure 6); and an
//!   asynchronous zero-fill pool turns 400ms 1GB faults into 2.7ms ones.
//! * [`ThpPolicy`] — Linux's Transparent Huge Pages: aggressive 2MB faults,
//!   `khugepaged` promotion, sequential-scan ("normal") compaction.
//! * [`HugetlbfsPolicy`] — static pre-reservation of one large page size,
//!   unable to back stacks, failing under fragmentation.
//! * [`HawkEyePolicy`] — access-coverage-ordered 2MB promotion with
//!   `kbinmanager` CPU overhead and bloat recovery (ASPLOS'19 baseline).
//! * [`BasePolicy`] — 4KB pages only.
//!
//! Every policy implements [`PagePolicy`] and operates on a shared
//! [`MmContext`] (physical memory + cost model + statistics) and a
//! [`SpaceSet`] of process address spaces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

mod baselines;
mod compaction;
mod context;
mod cost;
mod fault;
mod invariants;
mod policy;
mod promote;
mod tenant;
mod trident;
mod zerofill;

pub use baselines::base::BasePolicy;
pub use baselines::hawkeye::HawkEyePolicy;
pub use baselines::hugetlbfs::HugetlbfsPolicy;
pub use baselines::ingens::IngensPolicy;
pub use baselines::thp::ThpPolicy;
pub use compaction::{CompactionKind, CompactionOutcome, Compactor};
pub use context::{MmContext, SpaceSet};
pub use cost::CostModel;
pub use fault::{map_chunk, touched_chunk, touched_chunk_reserved, FaultOutcome};
pub use invariants::{assert_mm_consistent, check_mm_consistent};
pub use policy::{PagePolicy, PolicyError, TickOutcome};
pub use promote::{
    demote_chunk, promote_chunk, recover_bloat, PromoteError, PromoteOutcome, PromotedChunk,
    Promoter, PromoterConfig, PromotionStyle,
};
pub use tenant::{
    violation_asid, violations_by_tenant, PinnedRange, PolicyHint, TenantDirectory, TenantPolicy,
};
pub use trident::{TridentConfig, TridentPolicy};
pub use zerofill::ZeroFillPool;

// Observability vocabulary, re-exported so policy consumers need not
// depend on `trident-obs` directly.
pub use trident_obs::{
    AllocSite, Event, InjectSite, NoopRecorder, ObsRecorder, Recorder, RingTracer, SpanKind,
    StatsSnapshot, SNAPSHOT_VERSION,
};

// Fault-injection vocabulary, re-exported for the same reason.
pub use trident_fault::{FaultInjector, FaultPlan, FaultPlanBuilder, SiteRule};

pub use trident_types::{violations_message, InvariantViolation};
