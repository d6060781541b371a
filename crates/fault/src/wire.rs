//! Deterministic fault injection for the line-JSON transport.
//!
//! The memory-management sites ([`InjectSite`](crate::InjectSite)) cover
//! the simulator; this module covers the *wire* between `tridentctl`
//! and `tridentd`. A [`WirePlan`] is the network twin of a
//! [`FaultPlan`](crate::FaultPlan): a seed plus one [`SiteRule`] per
//! [`WireSite`], executed by a [`WireInjector`] whose every decision is
//! a pure function of `(seed, site, per-site decision index)` via the
//! same SplitMix64 finalizer. A chaos run under a wire plan is
//! therefore exactly reproducible — which is what lets CI assert that a
//! grid driven through drops, truncations and severed connections still
//! produces byte-identical results.
//!
//! The sites are deliberately separate from `InjectSite`: extending the
//! MM enum would grow `StatsSnapshot.injected_faults` and bump the
//! snapshot schema for something that never touches the simulation.
//! Wire faults live entirely in the client transport.
//!
//! # Examples
//!
//! ```
//! use trident_fault::{WireInjector, WirePlan, WireSite};
//!
//! let plan = WirePlan::builder(7)
//!     .site(WireSite::Drop, 100)     // 10% of request lines vanish
//!     .site(WireSite::Sever, 20)     // 2% of round-trips cut the socket
//!     .build()
//!     .unwrap();
//! let mut injector = WireInjector::new(plan);
//! let a: Vec<bool> = (0..8).map(|_| injector.should_inject(WireSite::Drop)).collect();
//! let mut again = WireInjector::new(plan);
//! let b: Vec<bool> = (0..8).map(|_| again.should_inject(WireSite::Drop)).collect();
//! assert_eq!(a, b);
//! ```

use crate::{splitmix64, SiteRule, PROB_SCALE};

/// Number of wire injection sites (the length of [`WireSite::ALL`]).
pub const WIRE_SITE_COUNT: usize = WireSite::ALL.len();

/// SplitMix64 finalization, exposed for callers that need a seeded,
/// schedule-independent word outside an injector — retry backoff jitter
/// derives from this so a retry schedule replays exactly under a fixed
/// policy seed.
#[must_use]
pub fn mix64(z: u64) -> u64 {
    splitmix64(z)
}

trident_obs::wire_enum! {
    /// Where a network fault can bite one protocol round-trip. The tags
    /// name the sites in `--net-fault SITE:PROB` flags.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum WireSite {
        /// The request line is never written; the caller's read deadline
        /// expires instead of an answer arriving.
        Drop = "drop",
        /// The response line arrives, but late (a bounded, seed-derived
        /// delay). Never changes bytes — only wall-clock latency.
        Delay = "delay",
        /// The response line is cut short mid-message; the decoder must
        /// answer with a typed malformed error, never a panic.
        Truncate = "truncate",
        /// The response line's framing byte is overwritten; like
        /// [`Truncate`](WireSite::Truncate), decodes to a typed error.
        Corrupt = "corrupt",
        /// The connection is shut down before the request goes out; the
        /// caller sees a closed connection and must reconnect.
        Sever = "sever",
    }
}

/// A seeded, deterministic network fault plan: one [`SiteRule`] per
/// [`WireSite`]. `Copy`, like [`FaultPlan`](crate::FaultPlan) — all
/// run-time state lives in the [`WireInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WirePlan {
    seed: u64,
    rules: [SiteRule; WIRE_SITE_COUNT],
}

impl WirePlan {
    /// The plan that injects nothing.
    #[must_use]
    pub fn disabled() -> WirePlan {
        WirePlan {
            seed: 0,
            rules: [SiteRule::default(); WIRE_SITE_COUNT],
        }
    }

    /// A builder starting from [`WirePlan::disabled`] with `seed`.
    #[must_use]
    pub fn builder(seed: u64) -> WirePlanBuilder {
        WirePlanBuilder {
            plan: WirePlan {
                seed,
                rules: [SiteRule::default(); WIRE_SITE_COUNT],
            },
            error: None,
        }
    }

    /// A plan firing at every site with the same per-mille probability
    /// (clamped to [`PROB_SCALE`]).
    #[must_use]
    pub fn uniform(seed: u64, prob_milli: u16) -> WirePlan {
        let rule = SiteRule::with_probability(prob_milli.min(PROB_SCALE));
        WirePlan {
            seed,
            rules: [rule; WIRE_SITE_COUNT],
        }
    }

    /// The same rules under a different decision seed — used to give
    /// each fleet endpoint its own decorrelated fault stream.
    #[must_use]
    pub fn reseeded(mut self, seed: u64) -> WirePlan {
        self.seed = seed;
        self
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rule for `site`.
    #[must_use]
    pub fn rule(&self, site: WireSite) -> SiteRule {
        self.rules[site as usize]
    }

    /// Whether any site can ever fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.rules.iter().any(SiteRule::is_active)
    }
}

/// Builder for [`WirePlan`] with validation at
/// [`build`](WirePlanBuilder::build).
#[derive(Debug, Clone)]
pub struct WirePlanBuilder {
    plan: WirePlan,
    error: Option<WirePlanError>,
}

impl WirePlanBuilder {
    /// Sets `site` to fire unbounded with probability `prob_milli`/1000.
    #[must_use]
    pub fn site(mut self, site: WireSite, prob_milli: u16) -> WirePlanBuilder {
        if prob_milli > PROB_SCALE {
            self.error = Some(WirePlanError::ProbabilityOutOfRange { site, prob_milli });
        } else {
            self.plan.rules[site as usize] = SiteRule::with_probability(prob_milli);
        }
        self
    }

    /// Sets `site` to fire with probability `prob_milli`/1000 at most
    /// `max_faults` times.
    #[must_use]
    pub fn site_capped(
        mut self,
        site: WireSite,
        prob_milli: u16,
        max_faults: u32,
    ) -> WirePlanBuilder {
        if prob_milli > PROB_SCALE {
            self.error = Some(WirePlanError::ProbabilityOutOfRange { site, prob_milli });
        } else {
            self.plan.rules[site as usize] = SiteRule {
                prob_milli,
                max_faults,
            };
        }
        self
    }

    /// Finalizes the plan.
    ///
    /// # Errors
    ///
    /// [`WirePlanError`] if any rule was out of range.
    pub fn build(self) -> Result<WirePlan, WirePlanError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.plan),
        }
    }
}

/// An invalid [`WirePlan`] rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePlanError {
    /// A probability exceeded [`PROB_SCALE`].
    ProbabilityOutOfRange {
        /// The offending site.
        site: WireSite,
        /// The rejected value.
        prob_milli: u16,
    },
}

impl std::fmt::Display for WirePlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WirePlanError::ProbabilityOutOfRange { site, prob_milli } => write!(
                f,
                "wire fault probability {prob_milli}/{PROB_SCALE} at site {site} exceeds the scale"
            ),
        }
    }
}

impl std::error::Error for WirePlanError {}

/// Per-site decision bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SiteState {
    decisions: u64,
    injected: u64,
}

/// Executes a [`WirePlan`]: one injector per client connection stream.
///
/// Each [`should_inject`](WireInjector::should_inject) call advances the
/// site's decision counter and hashes `(seed, site, index)` — the same
/// construction as [`FaultInjector`](crate::FaultInjector), with a
/// distinct stream tag so wire decisions never correlate with MM
/// decisions under a shared seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireInjector {
    plan: WirePlan,
    sites: [SiteState; WIRE_SITE_COUNT],
}

impl Default for WireInjector {
    fn default() -> Self {
        WireInjector::disabled()
    }
}

impl WireInjector {
    /// An injector that never fires.
    #[must_use]
    pub fn disabled() -> WireInjector {
        WireInjector::new(WirePlan::disabled())
    }

    /// An injector executing `plan` from decision zero.
    #[must_use]
    pub fn new(plan: WirePlan) -> WireInjector {
        WireInjector {
            plan,
            sites: [SiteState::default(); WIRE_SITE_COUNT],
        }
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> WirePlan {
        self.plan
    }

    /// Whether any site can still fire.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.plan.is_active()
    }

    /// Decides whether to inject a fault at `site`, advancing the
    /// site's decision counter. A pure function of `(plan seed, site,
    /// decision index)`.
    pub fn should_inject(&mut self, site: WireSite) -> bool {
        let rule = self.plan.rules[site as usize];
        if !rule.is_active() {
            return false;
        }
        let state = &mut self.sites[site as usize];
        if state.injected >= u64::from(rule.max_faults) {
            return false;
        }
        let index = state.decisions;
        state.decisions += 1;
        let word = splitmix64(
            self.plan.seed
                ^ 0x57A6_E000 // wire stream tag, decorrelating from InjectSite streams
                ^ (site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let fire = (word % u64::from(PROB_SCALE)) < u64::from(rule.prob_milli);
        if fire {
            state.injected += 1;
        }
        fire
    }

    /// A seed-derived word for `site`'s current decision index, for
    /// faults that need a magnitude (e.g. delay length) in addition to
    /// the fire/no-fire bit. Does not advance the decision counter.
    #[must_use]
    pub fn magnitude(&self, site: WireSite) -> u64 {
        splitmix64(
            self.plan.seed
                ^ 0x57A6_E001 // distinct from the decision stream tag
                ^ (site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ self.sites[site as usize]
                    .decisions
                    .wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    /// Decisions made so far at `site`.
    #[must_use]
    pub fn decisions(&self, site: WireSite) -> u64 {
        self.sites[site as usize].decisions
    }

    /// Faults injected so far at `site`.
    #[must_use]
    pub fn injected(&self, site: WireSite) -> u64 {
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

    #[test]
    fn site_tags_round_trip() {
        for site in WireSite::ALL {
            assert_eq!(WireSite::parse(site.as_str()), Some(site));
        }
        assert_eq!(WireSite::parse("nope"), None);
    }

    #[test]
    fn disabled_injector_never_fires() {
        let mut inj = WireInjector::disabled();
        assert!(!inj.enabled());
        for site in WireSite::ALL {
            for _ in 0..50 {
                assert!(!inj.should_inject(site));
            }
            assert_eq!(inj.decisions(site), 0, "inactive sites skip the hash");
        }
        assert_eq!(inj.total_injected(), 0);
    }

    #[test]
    fn decision_stream_is_pure_per_site() {
        let plan = WirePlan::uniform(11, 400);
        let mut a = WireInjector::new(plan);
        let mut b = WireInjector::new(plan);
        let a_drop: Vec<bool> = (0..64).map(|_| a.should_inject(WireSite::Drop)).collect();
        let a_sever: Vec<bool> = (0..64).map(|_| a.should_inject(WireSite::Sever)).collect();
        let mut b_drop = Vec::new();
        let mut b_sever = Vec::new();
        for _ in 0..64 {
            b_sever.push(b.should_inject(WireSite::Sever));
            b_drop.push(b.should_inject(WireSite::Drop));
        }
        assert_eq!(a_drop, b_drop);
        assert_eq!(a_sever, b_sever);
    }

    #[test]
    fn wire_streams_decorrelate_from_mm_streams() {
        // Same seed, same index: the wire Drop stream must not mirror the
        // MM Alloc stream, or a shared chaos seed would couple transport
        // faults to allocation faults.
        let mut wire = WireInjector::new(WirePlan::uniform(42, 500));
        let mut mm = crate::FaultInjector::new(crate::FaultPlan::uniform(42, 500));
        let w: Vec<bool> = (0..256)
            .map(|_| wire.should_inject(WireSite::Drop))
            .collect();
        let m: Vec<bool> = (0..256)
            .map(|_| mm.should_inject(crate::InjectSite::Alloc))
            .collect();
        assert_ne!(w, m);
    }

    #[test]
    fn cap_limits_injections() {
        let plan = WirePlan::builder(3)
            .site_capped(WireSite::Sever, 1000, 2)
            .build()
            .unwrap();
        let mut inj = WireInjector::new(plan);
        let fired = (0..50)
            .filter(|_| inj.should_inject(WireSite::Sever))
            .count();
        assert_eq!(fired, 2);
    }

    #[test]
    fn builder_rejects_out_of_range_probability() {
        let err = WirePlan::builder(0)
            .site(WireSite::Corrupt, 1001)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("corrupt"));
    }

    #[test]
    fn reseeded_changes_the_stream_not_the_rules() {
        let plan = WirePlan::uniform(1, 500);
        let other = plan.reseeded(2);
        assert_eq!(plan.rule(WireSite::Drop), other.rule(WireSite::Drop));
        let sa: Vec<bool> = {
            let mut inj = WireInjector::new(plan);
            (0..256)
                .map(|_| inj.should_inject(WireSite::Drop))
                .collect()
        };
        let sb: Vec<bool> = {
            let mut inj = WireInjector::new(other);
            (0..256)
                .map(|_| inj.should_inject(WireSite::Drop))
                .collect()
        };
        assert_ne!(sa, sb);
    }

    #[test]
    fn magnitude_is_deterministic_and_decorrelated_from_decisions() {
        let plan = WirePlan::uniform(9, 1000);
        let a = WireInjector::new(plan);
        let b = WireInjector::new(plan);
        assert_eq!(a.magnitude(WireSite::Delay), b.magnitude(WireSite::Delay));
        let mut c = WireInjector::new(plan);
        let before = c.magnitude(WireSite::Delay);
        let _ = c.should_inject(WireSite::Delay);
        assert_ne!(before, c.magnitude(WireSite::Delay), "index advances it");
    }
}
