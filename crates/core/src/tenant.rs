//! Multi-tenant vocabulary: who owns each address space, how the shared
//! daemons share their attention, and what placement guidance a tenant
//! may supply.
//!
//! One physical pool + buddy allocator serves N tenants; the engine keys
//! every address space to a [`TenantId`] through the [`TenantDirectory`]
//! carried by [`MmContext`](crate::MmContext). The directory also holds
//! each tenant's fairness weight, its per-tick promotion-budget override
//! and its [`PolicyHint`] — the eBPF-mm-style userspace guidance surface
//! the promoter consults in `scan_space`.
//!
//! An empty directory means "legacy single-tenant machine": every
//! scheduling decision degenerates to the pre-multi-tenant behaviour bit
//! for bit.

use std::collections::BTreeMap;

use trident_types::{AsId, InvariantViolation, PageSize, TenantId, Vpn};

/// A pinned hot virtual range: `pages` base pages starting at `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinnedRange {
    /// First page of the range.
    pub start: Vpn,
    /// Length in base pages.
    pub pages: u64,
}

impl PinnedRange {
    /// Whether the chunk `[head, head + span)` overlaps this range.
    #[must_use]
    pub fn covers(&self, head: Vpn, span: u64) -> bool {
        let (a, b) = (self.start.raw(), self.start.raw() + self.pages);
        let (c, d) = (head.raw(), head.raw() + span);
        a < d && c < b
    }
}

/// Placement and promotion guidance one tenant supplies to the shared
/// daemons (the paper's co-location extension; eBPF-mm's hint surface).
///
/// Hints never grant capacity — they only reorder or decline work the
/// promoter would do anyway, inside the tenant's fairness budget.
///
/// # Examples
///
/// ```
/// use trident_core::PolicyHint;
/// use trident_types::{PageSize, Vpn};
///
/// let hint = PolicyHint::new()
///     .pin(Vpn::new(0), 4096)
///     .prefer(PageSize::new(1));
/// assert!(hint.pins(Vpn::new(1024), 64));
/// assert!(!hint.pins(Vpn::new(8192), 64));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyHint {
    /// Hot ranges the tenant wants promoted first.
    pub pinned: Vec<PinnedRange>,
    /// The one large page size the tenant wants (e.g. a latency-sensitive
    /// tenant declining 1GB promotion copies). `None` = all sizes.
    pub preferred_size: Option<PageSize>,
    /// The tenant declines background promotion entirely.
    pub promotion_opt_out: bool,
}

impl PolicyHint {
    /// No guidance: the promoter behaves exactly as without hints.
    #[must_use]
    pub fn new() -> PolicyHint {
        PolicyHint::default()
    }

    /// Adds a pinned hot range.
    #[must_use]
    pub fn pin(mut self, start: Vpn, pages: u64) -> PolicyHint {
        self.pinned.push(PinnedRange { start, pages });
        self
    }

    /// Restricts promotion to `size`.
    #[must_use]
    pub fn prefer(mut self, size: PageSize) -> PolicyHint {
        self.preferred_size = Some(size);
        self
    }

    /// Declines background promotion entirely.
    #[must_use]
    pub fn opt_out(mut self) -> PolicyHint {
        self.promotion_opt_out = true;
        self
    }

    /// Whether the chunk `[head, head + span)` overlaps any pinned range.
    #[must_use]
    pub fn pins(&self, head: Vpn, span: u64) -> bool {
        self.pinned.iter().any(|r| r.covers(head, span))
    }
}

/// One tenant's registration with the shared memory-management engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantPolicy {
    /// The tenant this registration belongs to.
    pub tenant: TenantId,
    /// Weighted-round-robin share of the promotion daemon's attention
    /// (each round the tenant's spaces are scanned `weight` times).
    /// Clamped to at least 1.
    pub weight: u32,
    /// Per-tick promotion-budget override; `None` = the promoter's own
    /// `chunk_budget`.
    pub chunk_budget: Option<usize>,
    /// The tenant's guidance.
    pub hint: PolicyHint,
}

impl TenantPolicy {
    /// A neutral registration: weight 1, engine-default budget, no hints.
    #[must_use]
    pub fn new(tenant: TenantId) -> TenantPolicy {
        TenantPolicy {
            tenant,
            weight: 1,
            chunk_budget: None,
            hint: PolicyHint::new(),
        }
    }

    /// Sets the fairness weight (clamped to ≥ 1 at consultation time).
    #[must_use]
    pub fn weight(mut self, weight: u32) -> TenantPolicy {
        self.weight = weight;
        self
    }

    /// Overrides the per-tick promotion budget.
    #[must_use]
    pub fn chunk_budget(mut self, budget: usize) -> TenantPolicy {
        self.chunk_budget = Some(budget);
        self
    }

    /// Installs the tenant's guidance.
    #[must_use]
    pub fn hint(mut self, hint: PolicyHint) -> TenantPolicy {
        self.hint = hint;
        self
    }
}

/// The engine's map from address space to owning tenant, with each
/// tenant's scheduling parameters. Empty in legacy single-tenant runs.
///
/// # Examples
///
/// ```
/// use trident_core::{TenantDirectory, TenantPolicy};
/// use trident_types::{AsId, TenantId};
///
/// let mut dir = TenantDirectory::new();
/// dir.register(AsId::new(1), TenantPolicy::new(TenantId::new(0)).weight(2));
/// assert_eq!(dir.policy(AsId::new(1)).unwrap().tenant, TenantId::new(0));
/// assert_eq!(dir.weight(AsId::new(1)), 2);
/// assert_eq!(dir.weight(AsId::new(9)), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TenantDirectory {
    map: BTreeMap<AsId, TenantPolicy>,
}

impl TenantDirectory {
    /// An empty directory (legacy single-tenant behaviour).
    #[must_use]
    pub fn new() -> TenantDirectory {
        TenantDirectory::default()
    }

    /// Registers (or replaces) the tenant owning `asid`.
    pub fn register(&mut self, asid: AsId, policy: TenantPolicy) {
        self.map.insert(asid, policy);
    }

    /// The registration for `asid`, if any.
    #[must_use]
    pub fn policy(&self, asid: AsId) -> Option<&TenantPolicy> {
        self.map.get(&asid)
    }

    /// The fairness weight for `asid` (1 for unregistered spaces).
    #[must_use]
    pub fn weight(&self, asid: AsId) -> u32 {
        self.map.get(&asid).map_or(1, |p| p.weight.max(1))
    }

    /// Whether no tenant is registered (legacy single-tenant machine).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of registered address spaces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Distinct registered tenants, in id order.
    #[must_use]
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut out: Vec<TenantId> = self.map.values().map(|p| p.tenant).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Iterates registrations in address-space order.
    pub fn iter(&self) -> impl Iterator<Item = (AsId, &TenantPolicy)> {
        self.map.iter().map(|(k, v)| (*k, v))
    }
}

/// Buckets audit violations by owning tenant, in tenant order.
/// Violations in spaces no tenant owns land under `None` — in a
/// co-location cell those are engine bugs, not tenant bugs.
#[must_use]
pub fn violations_by_tenant(
    dir: &TenantDirectory,
    violations: &[InvariantViolation],
) -> Vec<(Option<TenantId>, u64)> {
    let mut counts: BTreeMap<Option<TenantId>, u64> = BTreeMap::new();
    for v in violations {
        let tenant = violation_asid(v)
            .and_then(|asid| dir.policy(asid))
            .map(|p| p.tenant);
        *counts.entry(tenant).or_default() += 1;
    }
    counts.into_iter().collect()
}

/// The address space a violation names, when it names one (machine-wide
/// buddy/region violations name none).
#[must_use]
pub fn violation_asid(v: &InvariantViolation) -> Option<AsId> {
    match *v {
        InvariantViolation::LeafNotUnitHead { asid, .. }
        | InvariantViolation::UnitSpanMismatch { asid, .. }
        | InvariantViolation::MissingOwner { asid, .. }
        | InvariantViolation::OwnerMismatch { asid, .. } => Some(asid),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_types::Pfn;

    #[test]
    fn pinning_covers_overlaps_only() {
        let hint = PolicyHint::new().pin(Vpn::new(100), 50);
        assert!(hint.pins(Vpn::new(120), 8));
        assert!(hint.pins(Vpn::new(96), 8), "straddles the start");
        assert!(!hint.pins(Vpn::new(150), 8), "half-open end");
        assert!(!hint.pins(Vpn::new(0), 100), "half-open start");
        let neutral = PolicyHint::new();
        assert!(neutral.pinned.is_empty() && neutral.preferred_size.is_none());
        assert!(!neutral.promotion_opt_out);
        assert!(!hint.pinned.is_empty());
    }

    #[test]
    fn directory_defaults_are_legacy_neutral() {
        let dir = TenantDirectory::new();
        assert!(dir.is_empty());
        assert_eq!(dir.weight(AsId::new(1)), 1);
        assert!(dir.policy(AsId::new(1)).is_none());
        assert!(dir.tenants().is_empty());
    }

    #[test]
    fn directory_round_trips_and_clamps_weight() {
        let mut dir = TenantDirectory::new();
        dir.register(AsId::new(1), TenantPolicy::new(TenantId::new(0)).weight(0));
        dir.register(
            AsId::new(2),
            TenantPolicy::new(TenantId::new(1))
                .weight(3)
                .chunk_budget(4)
                .hint(PolicyHint::new().opt_out()),
        );
        assert_eq!(dir.len(), 2);
        assert_eq!(dir.weight(AsId::new(1)), 1, "zero weight clamps to 1");
        assert_eq!(dir.weight(AsId::new(2)), 3);
        assert_eq!(dir.policy(AsId::new(2)).unwrap().chunk_budget, Some(4));
        assert!(dir.policy(AsId::new(2)).unwrap().hint.promotion_opt_out);
        assert_eq!(dir.tenants(), vec![TenantId::new(0), TenantId::new(1)]);
    }

    #[test]
    fn violations_bucket_by_owning_tenant() {
        let mut dir = TenantDirectory::new();
        dir.register(AsId::new(1), TenantPolicy::new(TenantId::new(0)));
        dir.register(AsId::new(2), TenantPolicy::new(TenantId::new(1)));
        let vs = [
            InvariantViolation::MissingOwner {
                asid: AsId::new(1),
                pfn: Pfn::new(0),
            },
            InvariantViolation::MissingOwner {
                asid: AsId::new(2),
                pfn: Pfn::new(1),
            },
            InvariantViolation::MissingOwner {
                asid: AsId::new(2),
                pfn: Pfn::new(2),
            },
            InvariantViolation::BuddyFreeCountDrift {
                counted: 0,
                recorded: 1,
            },
        ];
        let buckets = violations_by_tenant(&dir, &vs);
        assert_eq!(
            buckets,
            vec![
                (None, 1),
                (Some(TenantId::new(0)), 1),
                (Some(TenantId::new(1)), 2),
            ]
        );
    }
}
