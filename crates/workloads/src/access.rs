//! Sampling memory accesses according to a workload's locality model.

use rand::Rng;
use trident_types::Vpn;

use crate::{AccessPattern, Layout, WorkloadSpec};

/// One sampled memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Virtual page touched.
    pub vpn: Vpn,
    /// Whether it is a store.
    pub write: bool,
}

/// Draws memory accesses for a workload over a realized layout.
///
/// [`new`](Self::new) compiles the spec against the layout once: every
/// probability becomes an integer threshold on one draw's top 53 bits,
/// every fixed span gets a multiply-based remainder, and the hot and
/// spike page counts are computed up front. The draws, and the accesses
/// they produce, are exactly those of the `f64` tests and `%` reductions
/// they replace (DESIGN.md §12).
///
/// # Examples
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use trident_types::{AsId, PageGeometry};
/// use trident_vm::AddressSpace;
/// use trident_workloads::{AccessSampler, MemoryScale, WorkloadSpec};
///
/// let geo = PageGeometry::X86_64;
/// let mut space = AddressSpace::new(AsId::new(1), geo);
/// let spec = WorkloadSpec::by_name("GUPS").unwrap();
/// let mut rng = SmallRng::seed_from_u64(7);
/// let layout = spec.build_layout(&mut space, MemoryScale::new(64), &mut rng);
/// let mut sampler = AccessSampler::new(spec, layout);
/// let access = sampler.sample(&mut rng);
/// assert!(space.vma_containing(access.vpn).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct AccessSampler {
    layout: Layout,
    /// Threshold of the write test.
    write: u64,
    /// Threshold of the stack test and the stack's span, when the spec
    /// sends any accesses to the stack.
    stack: Option<(u64, Span)>,
    /// The whole heap.
    heap: Span,
    pattern: Pattern,
    scan_cursor: u64,
}

/// An access pattern compiled against one layout's heap.
#[derive(Debug, Clone, Copy)]
enum Pattern {
    Uniform,
    Hotspot {
        /// Threshold of the hot test.
        hot: u64,
        /// The hot pages.
        hot_span: Span,
        /// The pages past the hot ones, if any.
        cold_span: Option<Span>,
        /// Whether the hot pages sit at the end of the heap.
        tail: bool,
    },
    TailSpike {
        /// Thresholds of `r < spike_weight` and
        /// `r < spike_weight + hot_weight`.
        spike: u64,
        spike_or_hot: u64,
        spike_span: Span,
        hot_span: Span,
        /// The pages between the hot prefix and the spike, if any.
        middle_span: Option<Span>,
    },
    Scan {
        /// Threshold of the restart test.
        restart: u64,
    },
}

/// `2^53`: one draw's top 53 bits are a uniform integer below it.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// The threshold `t` with `(x >> 11) < t` exactly when
/// `(x >> 11) as f64 · 2^-53 < p` — what both `gen_bool(p)` and
/// `gen::<f64>() < p` test. The scaled draw `k · 2^-53` is exact for
/// every `k < 2^53`, and so is `p · 2^53`, so the test is `k < p · 2^53`,
/// which for an integer `k` is `k < ceil(p · 2^53)`. At `p >= 1` every
/// draw passes (still consuming one, as `gen_bool(1.0)` does); at
/// `p <= 0`, or NaN, none does.
fn threshold(p: f64) -> u64 {
    // `as` saturates: negative and NaN give 0, and nothing here
    // approaches `u64::MAX`.
    (p * TWO_POW_53).ceil() as u64
}

/// Draws once and tests it against a [`threshold`].
#[inline]
fn hit<R: Rng + ?Sized>(rng: &mut R, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// `threshold(p)` for a `gen_bool(p)` test, which rejects `p` outside
/// `[0, 1]`.
fn bool_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "gen_bool probability {p}");
    threshold(p)
}

/// The span `0..len` with an exact multiply-based remainder, so a draw
/// costs no division: `gen_range(0..len)` is `next_u64() % len`, and
/// [`reduce`](Self::reduce) computes that remainder by Lemire's direct
/// method (DESIGN.md §12).
#[derive(Debug, Clone, Copy)]
struct Span {
    len: u64,
    /// `floor((2^128 - 1) / len) + 1` modulo `2^128` — `ceil(2^128 / len)`,
    /// except that `len = 1` wraps it to 0. An empty span also gets 0 and
    /// reduces everything to 0; the heap is the only span that can be
    /// empty, and [`Layout::heap_page`] rejects every index of an empty
    /// heap.
    magic: u128,
}

impl Span {
    fn new(len: u64) -> Span {
        let magic = u128::MAX
            .checked_div(u128::from(len))
            .map_or(0, |q| q.wrapping_add(1));
        Span { len, magic }
    }

    /// `x % len`: the high 64 bits of `((magic · x) mod 2^128) · len`.
    /// With 128 fractional bits for a 64-bit numerator and divisor this
    /// is exact for every `x` and every `len >= 1`.
    #[inline]
    fn reduce(self, x: u64) -> u64 {
        let fraction = self.magic.wrapping_mul(u128::from(x));
        let len = u128::from(self.len);
        let low = (fraction & u128::from(u64::MAX)) * len;
        let high = (fraction >> 64) * len;
        ((high + (low >> 64)) >> 64) as u64
    }

    /// `gen_range(0..len)`.
    #[inline]
    fn draw<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        self.reduce(rng.next_u64())
    }
}

/// `((total as f64 * fraction) as u64).max(1)`: a hot or spike page
/// count.
fn fraction_pages(total: u64, fraction: f64) -> u64 {
    ((total as f64 * fraction) as u64).max(1)
}

impl AccessSampler {
    /// Creates a sampler for `spec` over `layout`.
    ///
    /// # Panics
    ///
    /// Panics if a probability `spec` passes to a Bernoulli draw (the
    /// write fraction, a positive stack fraction, a hotspot's hot
    /// weight) lies outside `[0, 1]`, or if the stack is sampled but
    /// empty. Sampling an empty heap panics in [`sample`](Self::sample).
    #[must_use]
    pub fn new(spec: WorkloadSpec, layout: Layout) -> AccessSampler {
        let write = bool_threshold(spec.write_fraction);
        let stack = (spec.stack_access_fraction > 0.0).then(|| {
            assert!(layout.stack.pages > 0, "cannot sample empty range");
            (
                bool_threshold(spec.stack_access_fraction),
                Span::new(layout.stack.pages),
            )
        });
        let total = layout.heap_pages;
        let pattern = match spec.access {
            AccessPattern::UniformRandom => Pattern::Uniform,
            AccessPattern::Hotspot {
                hot_fraction,
                hot_weight,
            } => Self::hotspot(total, hot_fraction, hot_weight, false),
            AccessPattern::HotspotTail {
                hot_fraction,
                hot_weight,
            } => Self::hotspot(total, hot_fraction, hot_weight, true),
            AccessPattern::HotspotWithTailSpike {
                hot_fraction,
                hot_weight,
                spike_fraction,
                spike_weight,
            } => {
                let spike_pages = fraction_pages(total, spike_fraction);
                let hot_pages = fraction_pages(total, hot_fraction);
                Pattern::TailSpike {
                    spike: threshold(spike_weight),
                    spike_or_hot: threshold(spike_weight + hot_weight),
                    spike_span: Span::new(spike_pages),
                    hot_span: Span::new(hot_pages),
                    middle_span: (hot_pages + spike_pages < total)
                        .then(|| Span::new(total - spike_pages - hot_pages)),
                }
            }
            AccessPattern::Scan => Pattern::Scan {
                restart: threshold(0.001),
            },
        };
        AccessSampler {
            layout,
            write,
            stack,
            heap: Span::new(total),
            pattern,
            scan_cursor: 0,
        }
    }

    fn hotspot(total: u64, hot_fraction: f64, hot_weight: f64, tail: bool) -> Pattern {
        let hot_pages = fraction_pages(total, hot_fraction);
        Pattern::Hotspot {
            hot: bool_threshold(hot_weight),
            hot_span: Span::new(hot_pages),
            cold_span: (hot_pages < total).then(|| Span::new(total - hot_pages)),
            tail,
        }
    }

    /// The layout being sampled.
    #[must_use]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Draws one access.
    ///
    /// # Panics
    ///
    /// Panics if the access falls on an empty heap.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Access {
        let write = hit(rng, self.write);
        if let Some((stack, span)) = self.stack {
            if hit(rng, stack) {
                return Access {
                    vpn: self.layout.stack.start + span.draw(rng),
                    write,
                };
            }
        }
        let total = self.layout.heap_pages;
        let index = match self.pattern {
            Pattern::Uniform => self.heap.draw(rng),
            Pattern::Hotspot {
                hot,
                hot_span,
                cold_span,
                tail,
            } => {
                // The hot test draws even when there are no cold pages.
                let is_hot = hit(rng, hot);
                let index = match cold_span {
                    Some(cold) if !is_hot => hot_span.len + cold.draw(rng),
                    _ => hot_span.draw(rng),
                };
                if tail {
                    total - 1 - index
                } else {
                    index
                }
            }
            Pattern::TailSpike {
                spike,
                spike_or_hot,
                spike_span,
                hot_span,
                middle_span,
            } => {
                let r = rng.next_u64() >> 11;
                if r < spike {
                    // The spike lives at the very end of the heap.
                    total - 1 - spike_span.draw(rng)
                } else if r < spike_or_hot {
                    hot_span.draw(rng)
                } else if let Some(middle) = middle_span {
                    hot_span.len + middle.draw(rng)
                } else {
                    self.heap.draw(rng)
                }
            }
            Pattern::Scan { restart } => {
                // Sequential with occasional random restarts; page-grained.
                if hit(rng, restart) {
                    self.scan_cursor = self.heap.draw(rng);
                }
                let index = self.scan_cursor;
                self.scan_cursor += 1;
                if self.scan_cursor == total {
                    self.scan_cursor = 0;
                }
                index
            }
        };
        Access {
            vpn: self.layout.heap_page(index),
            write,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryScale;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};
    use trident_types::{AsId, PageGeometry};
    use trident_vm::AddressSpace;

    fn sampler(name: &str) -> (AccessSampler, SmallRng) {
        let geo = PageGeometry::X86_64;
        let mut space = AddressSpace::new(AsId::new(1), geo);
        let spec = WorkloadSpec::by_name(name).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let layout = spec.build_layout(&mut space, MemoryScale::new(64), &mut rng);
        (AccessSampler::new(spec, layout), rng)
    }

    fn draw(s: &mut AccessSampler, rng: &mut SmallRng, n: usize) -> Vec<Access> {
        (0..n).map(|_| s.sample(rng)).collect()
    }

    #[test]
    fn span_remainder_is_exact() {
        let mut divisors = vec![1, 2, 3, u64::MAX, u64::MAX - 1];
        for k in 2..64 {
            divisors.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for &d in &divisors {
            let span = Span::new(d);
            for x in [0, d - 1, d, u64::MAX] {
                assert_eq!(span.reduce(x), x % d, "{x} % {d}");
            }
        }
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..100_000 {
            let d = rng.next_u64() >> rng.gen_range(0..64u32);
            let x = rng.next_u64();
            let d = d.max(1);
            assert_eq!(Span::new(d).reduce(x), x % d, "{x} % {d}");
        }
    }

    #[test]
    fn thresholds_reproduce_the_float_tests() {
        let two_pow_53 = 1u64 << 53;
        for p in [0.0, 1.0, 0.001, 0.5, 0.05, 1e-300, 0.3, f64::MIN_POSITIVE] {
            let t = threshold(p);
            for k in [0, 1, t.saturating_sub(1), t, t + 1, two_pow_53 - 1] {
                if k < two_pow_53 {
                    let x = k << 11;
                    let draw = (x >> 11) as f64 * (1.0 / two_pow_53 as f64);
                    assert_eq!((x >> 11) < t, draw < p, "k {k}, p {p}");
                }
            }
        }
        assert_eq!(threshold(-0.5), 0);
        assert_eq!(threshold(f64::NAN), 0);
        assert_eq!(threshold(1.5), 3 << 52);
    }

    #[test]
    fn hotspot_concentrates_accesses() {
        let (mut s, mut rng) = sampler("XSBench");
        let hot_pages = (s.layout().heap_pages as f64 * 0.30) as u64;
        let hot_end = s.layout().heap_page(hot_pages - 1);
        let samples = draw(&mut s, &mut rng, 5_000);
        let hot_hits = samples.iter().filter(|a| a.vpn <= hot_end).count();
        // ~90% should land in the hot region.
        assert!(hot_hits > 4_000, "only {hot_hits} hot hits");
    }

    #[test]
    fn gups_spreads_uniformly() {
        let (mut s, mut rng) = sampler("GUPS");
        let samples = draw(&mut s, &mut rng, 8_000);
        // Split heap indices into quarters and check rough uniformity of
        // heap (non-stack) accesses.
        let q = s.layout().heap_pages / 4;
        let marks: Vec<Vpn> = (0..4).map(|i| s.layout().heap_page(i * q)).collect();
        let mut buckets = [0usize; 4];
        let stack_start = s.layout().stack.start;
        for a in &samples {
            if a.vpn >= stack_start {
                continue; // stack access
            }
            let b = marks.iter().rposition(|m| a.vpn >= *m).unwrap();
            buckets[b] += 1;
        }
        let heap_total: usize = buckets.iter().sum();
        for b in buckets {
            let share = b as f64 / heap_total as f64;
            assert!((0.18..0.32).contains(&share), "bucket share {share}");
        }
    }

    #[test]
    fn stack_fraction_is_respected() {
        let (mut s, mut rng) = sampler("GUPS"); // 10% stack accesses
        let samples = draw(&mut s, &mut rng, 10_000);
        let stack_start = s.layout().stack.start;
        let stack_hits = samples.iter().filter(|a| a.vpn >= stack_start).count();
        assert!((700..1300).contains(&stack_hits), "{stack_hits}");
    }

    #[test]
    fn scan_is_mostly_sequential() {
        let (mut s, mut rng) = sampler("CG.D");
        let mut sequential = 0;
        let mut last = s.sample(&mut rng).vpn;
        for _ in 0..1000 {
            let a = s.sample(&mut rng).vpn;
            if a.raw() == last.raw() + 1 {
                sequential += 1;
            }
            last = a;
        }
        assert!(sequential > 900, "{sequential}");
    }

    #[test]
    fn writes_follow_the_write_fraction() {
        let (mut s, mut rng) = sampler("GUPS"); // 50% writes
        let samples = draw(&mut s, &mut rng, 10_000);
        let writes = samples.iter().filter(|a| a.write).count();
        assert!((4_500..5_500).contains(&writes), "{writes}");
    }
}
