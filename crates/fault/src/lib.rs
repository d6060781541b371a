//! Deterministic fault injection for the Trident simulator.
//!
//! The paper's central safety claim (§5.1) is that every large-page path
//! degrades gracefully: fault-time allocation falls back 1GB→2MB→4KB, and
//! promotion defers when compaction cannot mint contiguity or its
//! candidate is raced away. This crate makes those failures a
//! first-class, *deterministic* input to the simulator instead of
//! something that only happens when memory happens to fragment.
//!
//! A [`FaultPlan`] is a seed plus one probability rule per
//! [`InjectSite`]; a [`FaultInjector`] executes the plan. Each decision is
//! a pure function of `(seed, site, per-site decision index)` — SplitMix64
//! finalization, the same construction the experiment runner uses to
//! derive cell seeds — so a run under a plan is bit-identical across
//! thread counts and repeat invocations (DESIGN.md's determinism
//! contract). Wall-clock time, thread identity and scheduling never enter
//! the decision.
//!
//! The injector itself only *decides*; the layers that consult it
//! (`trident-core`'s fault handler, promoter and compactor) turn a `true`
//! into the corresponding failure and report it as an
//! [`Event::FaultInjected`](trident_obs::Event::FaultInjected).
//!
//! # Examples
//!
//! ```
//! use trident_fault::{FaultInjector, FaultPlan, InjectSite};
//!
//! let plan = FaultPlan::builder(42)
//!     .site(InjectSite::Alloc, 250)      // 25% of large allocations fail
//!     .site(InjectSite::Compaction, 100) // 10% of compaction passes abort
//!     .build()
//!     .unwrap();
//! let mut injector = FaultInjector::new(plan);
//! let decisions: Vec<bool> = (0..8).map(|_| injector.should_inject(InjectSite::Alloc)).collect();
//! // Identical plan => identical decision stream.
//! let mut again = FaultInjector::new(plan);
//! let replay: Vec<bool> = (0..8).map(|_| again.should_inject(InjectSite::Alloc)).collect();
//! assert_eq!(decisions, replay);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use trident_obs::InjectSite;

/// Number of injection sites (the length of [`InjectSite::ALL`]).
pub const SITE_COUNT: usize = InjectSite::ALL.len();

/// Probability scale: rules are expressed in thousandths (per-mille), so
/// the plan stays integer-only and `Copy`.
pub const PROB_SCALE: u16 = 1000;

/// One site's injection rule: a per-mille probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SiteRule {
    /// Injection probability in thousandths (0 = never, 1000 = always).
    pub prob_milli: u16,
}

impl SiteRule {
    /// A rule firing with probability `prob_milli`/1000.
    #[must_use]
    pub fn with_probability(prob_milli: u16) -> SiteRule {
        SiteRule { prob_milli }
    }

    /// Whether this rule can ever fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.prob_milli > 0
    }
}

/// A seeded, deterministic fault plan: one [`SiteRule`] per [`InjectSite`].
///
/// `Copy` on purpose — the plan travels inside `SimConfig`, which is
/// itself `Copy`, and must never accumulate hidden mutable state (all
/// run-time state lives in the [`FaultInjector`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    seed: u64,
    rules: [SiteRule; SITE_COUNT],
}

impl FaultPlan {
    /// The plan that injects nothing (all rules inactive).
    #[must_use]
    pub fn disabled() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rules: [SiteRule::default(); SITE_COUNT],
        }
    }

    /// A builder starting from [`FaultPlan::disabled`] with `seed`.
    #[must_use]
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan {
                seed,
                rules: [SiteRule::default(); SITE_COUNT],
            },
            error: None,
        }
    }

    /// A plan firing at every site with the same per-mille probability.
    ///
    /// # Panics
    ///
    /// Never: `prob_milli` is clamped to [`PROB_SCALE`].
    #[must_use]
    pub fn uniform(seed: u64, prob_milli: u16) -> FaultPlan {
        let rule = SiteRule::with_probability(prob_milli.min(PROB_SCALE));
        FaultPlan {
            seed,
            rules: [rule; SITE_COUNT],
        }
    }

    /// A randomized-but-seeded plan: each site's probability is derived
    /// from `seed` and bounded by `max_prob_milli`, so distinct seeds
    /// exercise distinct failure mixes while remaining reproducible.
    #[must_use]
    pub fn randomized(seed: u64, max_prob_milli: u16) -> FaultPlan {
        let cap = u64::from(max_prob_milli.min(PROB_SCALE));
        let mut rules = [SiteRule::default(); SITE_COUNT];
        for (i, rule) in rules.iter_mut().enumerate() {
            // Mix with a distinct stream tag so the per-site probabilities
            // are decorrelated from the per-site decision streams.
            let draw = splitmix64(seed ^ 0xFA17_0000 ^ ((i as u64) << 32));
            *rule = SiteRule::with_probability((draw % (cap + 1)) as u16);
        }
        FaultPlan { seed, rules }
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rule for `site`.
    #[must_use]
    pub fn rule(&self, site: InjectSite) -> SiteRule {
        self.rules[site as usize]
    }

    /// Whether any site can ever fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.rules.iter().any(SiteRule::is_active)
    }
}

/// Builder for [`FaultPlan`] with validation at [`build`](FaultPlanBuilder::build).
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
    error: Option<PlanError>,
}

impl FaultPlanBuilder {
    /// Sets `site` to fire with probability `prob_milli`/1000.
    #[must_use]
    pub fn site(mut self, site: InjectSite, prob_milli: u16) -> FaultPlanBuilder {
        if prob_milli > PROB_SCALE {
            self.error = Some(PlanError::ProbabilityOutOfRange { site, prob_milli });
        } else {
            self.plan.rules[site as usize] = SiteRule::with_probability(prob_milli);
        }
        self
    }

    /// Finalizes the plan.
    ///
    /// # Errors
    ///
    /// [`PlanError`] if any rule was out of range.
    pub fn build(self) -> Result<FaultPlan, PlanError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.plan),
        }
    }
}

/// An invalid [`FaultPlan`] rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// A probability exceeded [`PROB_SCALE`].
    ProbabilityOutOfRange {
        /// The offending site.
        site: InjectSite,
        /// The rejected value.
        prob_milli: u16,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ProbabilityOutOfRange { site, prob_milli } => write!(
                f,
                "fault probability {prob_milli}/{PROB_SCALE} at site {site} exceeds the scale"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// SplitMix64 finalization — the same mixer `trident_sim::derive_cell_seed`
/// uses, so fault decisions inherit the workspace-wide determinism
/// argument: the output depends only on the input word, never on
/// scheduling.
#[must_use]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-site decision bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SiteState {
    decisions: u64,
    injected: u64,
}

/// Executes a [`FaultPlan`]: one injector per memory-management context.
///
/// Each call to [`should_inject`](FaultInjector::should_inject) advances
/// the site's decision counter and hashes `(seed, site, index)`; the
/// decision stream for a given plan is therefore a fixed sequence,
/// independent of what other sites or other contexts do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInjector {
    plan: FaultPlan,
    sites: [SiteState; SITE_COUNT],
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::disabled()
    }
}

impl FaultInjector {
    /// An injector that never fires.
    #[must_use]
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(FaultPlan::disabled())
    }

    /// An injector executing `plan` from decision zero.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            sites: [SiteState::default(); SITE_COUNT],
        }
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Whether any site can still fire. A site without an active rule
    /// never hashes: [`should_inject`](Self::should_inject) returns
    /// `false` before counting a decision.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.plan.is_active()
    }

    /// Decides whether to inject a fault at `site`, advancing the site's
    /// decision counter.
    ///
    /// The result is a pure function of `(plan seed, site, decision
    /// index)`: the k-th query at a site always returns the same answer
    /// for the same plan, whatever happened elsewhere.
    pub fn should_inject(&mut self, site: InjectSite) -> bool {
        let rule = self.plan.rules[site as usize];
        if !rule.is_active() {
            return false;
        }
        let state = &mut self.sites[site as usize];
        let index = state.decisions;
        state.decisions += 1;
        let word = splitmix64(
            self.plan.seed
                ^ (site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let fire = (word % u64::from(PROB_SCALE)) < u64::from(rule.prob_milli);
        if fire {
            state.injected += 1;
        }
        fire
    }

    /// Decisions made so far at `site`.
    #[must_use]
    pub fn decisions(&self, site: InjectSite) -> u64 {
        self.sites[site as usize].decisions
    }

    /// Faults injected so far at `site`.
    #[must_use]
    pub fn injected(&self, site: InjectSite) -> u64 {
        self.sites[site as usize].injected
    }

    /// Faults injected so far across all sites.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.sites.iter().map(|s| s.injected).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disabled_injector_never_fires_and_never_counts() {
        let mut inj = FaultInjector::disabled();
        assert!(!inj.enabled());
        for site in InjectSite::ALL {
            for _ in 0..100 {
                assert!(!inj.should_inject(site));
            }
            assert_eq!(inj.decisions(site), 0, "inactive sites skip the hash");
        }
        assert_eq!(inj.total_injected(), 0);
    }

    #[test]
    fn decision_stream_is_a_pure_function_of_seed_site_index() {
        let plan = FaultPlan::uniform(7, 300);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        // Interleave b's sites differently from a's: per-site streams must
        // not depend on global query order.
        let a_alloc: Vec<bool> = (0..64)
            .map(|_| a.should_inject(InjectSite::Alloc))
            .collect();
        let a_comp: Vec<bool> = (0..64)
            .map(|_| a.should_inject(InjectSite::Compaction))
            .collect();
        let mut b_alloc = Vec::new();
        let mut b_comp = Vec::new();
        for _ in 0..64 {
            b_comp.push(b.should_inject(InjectSite::Compaction));
            b_alloc.push(b.should_inject(InjectSite::Alloc));
        }
        assert_eq!(a_alloc, b_alloc);
        assert_eq!(a_comp, b_comp);
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let mut a = FaultInjector::new(FaultPlan::uniform(1, 500));
        let mut b = FaultInjector::new(FaultPlan::uniform(2, 500));
        let sa: Vec<bool> = (0..256)
            .map(|_| a.should_inject(InjectSite::Alloc))
            .collect();
        let sb: Vec<bool> = (0..256)
            .map(|_| b.should_inject(InjectSite::Alloc))
            .collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn builder_rejects_out_of_range_probability() {
        let err = FaultPlan::builder(0)
            .site(InjectSite::Compaction, 1001)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("compaction"));
    }

    #[test]
    fn randomized_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::randomized(99, 200);
        let b = FaultPlan::randomized(99, 200);
        assert_eq!(a, b);
        for site in InjectSite::ALL {
            assert!(a.rule(site).prob_milli <= 200);
        }
        assert_ne!(
            FaultPlan::randomized(99, 200),
            FaultPlan::randomized(100, 200)
        );
    }

    proptest! {
        #[test]
        fn firing_rate_tracks_probability(prob in 0u16..=1000, seed in 0u64..1024) {
            let mut inj = FaultInjector::new(FaultPlan::uniform(seed, prob));
            let n = 2000u64;
            let mut fired = 0u64;
            for _ in 0..n {
                if inj.should_inject(InjectSite::Promotion) {
                    fired += 1;
                }
            }
            let expected = n * u64::from(prob) / 1000;
            // Loose 4-sigma-ish bound; the stream is deterministic, so this
            // can never flake for a given proptest seed.
            let slack = 200 + expected / 5;
            prop_assert!(fired + slack >= expected && fired <= expected + slack,
                "prob={prob} fired={fired} expected={expected}");
        }
    }
}
