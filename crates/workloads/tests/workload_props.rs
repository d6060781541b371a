//! Property tests over workload plans, layouts and samplers.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use trident_types::{AsId, PageGeometry, Vpn};
use trident_vm::AddressSpace;
use trident_workloads::{
    Access, AccessPattern, AccessSampler, ChunkRange, Layout, MemoryScale, WorkloadSpec,
};

fn any_workload() -> impl Strategy<Value = WorkloadSpec> {
    (0..WorkloadSpec::all().len()).prop_map(|i| WorkloadSpec::all()[i])
}

/// The sampler before it was compiled, kept as the model: `f64`
/// probability tests, `%` reductions through `gen_range`, and hot and
/// spike page counts recomputed on every draw.
struct ModelSampler {
    spec: WorkloadSpec,
    layout: Layout,
    scan_cursor: u64,
}

impl ModelSampler {
    fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Access {
        let write = rng.gen_bool(self.spec.write_fraction);
        if self.spec.stack_access_fraction > 0.0 && rng.gen_bool(self.spec.stack_access_fraction) {
            let offset = rng.gen_range(0..self.layout.stack.pages);
            return Access {
                vpn: self.layout.stack.start + offset,
                write,
            };
        }
        let index = match self.spec.access {
            AccessPattern::UniformRandom => rng.gen_range(0..self.layout.heap_pages),
            AccessPattern::Hotspot {
                hot_fraction,
                hot_weight,
            } => self.hotspot_index(rng, hot_fraction, hot_weight, false),
            AccessPattern::HotspotTail {
                hot_fraction,
                hot_weight,
            } => self.hotspot_index(rng, hot_fraction, hot_weight, true),
            AccessPattern::HotspotWithTailSpike {
                hot_fraction,
                hot_weight,
                spike_fraction,
                spike_weight,
            } => {
                let total = self.layout.heap_pages;
                let spike_pages = ((total as f64 * spike_fraction) as u64).max(1);
                let hot_pages = ((total as f64 * hot_fraction) as u64).max(1);
                let r: f64 = rng.gen();
                if r < spike_weight {
                    total - 1 - rng.gen_range(0..spike_pages)
                } else if r < spike_weight + hot_weight {
                    rng.gen_range(0..hot_pages)
                } else if hot_pages + spike_pages < total {
                    rng.gen_range(hot_pages..total - spike_pages)
                } else {
                    rng.gen_range(0..total)
                }
            }
            AccessPattern::Scan => {
                if rng.gen_bool(0.001) {
                    self.scan_cursor = rng.gen_range(0..self.layout.heap_pages);
                }
                let index = self.scan_cursor;
                self.scan_cursor = (self.scan_cursor + 1) % self.layout.heap_pages;
                index
            }
        };
        Access {
            vpn: self.layout.heap_page(index),
            write,
        }
    }

    fn hotspot_index<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        hot_fraction: f64,
        hot_weight: f64,
        tail: bool,
    ) -> u64 {
        let total = self.layout.heap_pages;
        let hot_pages = ((total as f64 * hot_fraction) as u64).max(1);
        let index = if rng.gen_bool(hot_weight) || hot_pages >= total {
            rng.gen_range(0..hot_pages)
        } else {
            rng.gen_range(hot_pages..total)
        };
        if tail {
            total - 1 - index
        } else {
            index
        }
    }
}

/// Draws `n` accesses from the compiled sampler and from the model on
/// equal streams, requiring every access, and the stream's next draw
/// after the run, to agree.
fn check_sampler_against_model(spec: WorkloadSpec, layout: Layout, seed: u64, n: usize) {
    let mut model = ModelSampler {
        spec,
        layout: layout.clone(),
        scan_cursor: 0,
    };
    let mut sampler = AccessSampler::new(spec, layout);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model_rng = rng.clone();
    for i in 0..n {
        prop_assert_eq!(
            sampler.sample(&mut rng),
            model.sample(&mut model_rng),
            "{:?}, sample {}",
            spec,
            i
        );
    }
    prop_assert_eq!(rng.next_u64(), model_rng.next_u64());
}

/// A probability at an edge of the threshold test, resolved against
/// the stream's first draws by [`Prob::resolve`].
#[derive(Debug, Clone, Copy)]
enum Prob {
    Zero,
    One,
    /// `k·2^-53` for the top 53 bits `k` of the stream's draw `i`, or
    /// its `f64` neighbour below (-1) or above (+1): the test at draw
    /// `i` falls exactly on the threshold's edge.
    Draw(usize, i8),
    /// `k·2^-53` for a small `k`, or a neighbour.
    Small(u64, i8),
    /// Any `k·2^-53`.
    Unit(u64),
}

impl Prob {
    fn resolve(self, draws: &[u64]) -> f64 {
        let exact = |k: u64| k as f64 / 9_007_199_254_740_992.0;
        let nudge = |p: f64, step: i8| match step {
            -1 => p.next_down(),
            1 => p.next_up(),
            _ => p,
        };
        let p = match self {
            Prob::Zero => 0.0,
            Prob::One => 1.0,
            Prob::Draw(i, step) => nudge(exact(draws[i] >> 11), step),
            Prob::Small(k, step) => nudge(exact(k), step),
            Prob::Unit(bits) => exact(bits >> 11),
        };
        p.clamp(0.0, 1.0)
    }
}

fn edge_probability() -> impl Strategy<Value = Prob> {
    // Neighbour steps -1, 0 and +1, drawn as 0..3.
    prop_oneof![
        Just(Prob::Zero),
        Just(Prob::One),
        (0usize..8, 0u8..3).prop_map(|(i, s)| Prob::Draw(i, s as i8 - 1)),
        (0u64..4, 0u8..3).prop_map(|(k, s)| Prob::Small(k, s as i8 - 1)),
        any::<u64>().prop_map(Prob::Unit),
    ]
}

/// Hot and spike fractions, including ones that make the hot pages the
/// whole heap, or the hot and spike pages together at least the heap.
fn edge_fraction() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(0.5),
        Just(0.6),
        Just(0.999),
        Just(1.0),
        0.0f64..1.0,
    ]
}

/// 1 to 6 heap chunks of up to 40 pages, the first non-empty and the
/// others possibly empty, with small gaps, then an 8-page stack. Small
/// heaps make the scan cursor wrap within a run.
fn small_layout() -> impl Strategy<Value = Layout> {
    (
        1u64..40,
        prop::collection::vec((0u64..3, prop_oneof![Just(0u64), 0u64..40]), 0..6),
    )
        .prop_map(|(first, rest)| {
            let mut next = 16u64;
            let mut ranges = Vec::new();
            for (gap, pages) in std::iter::once((0, first)).chain(rest) {
                let start = Vpn::new(next + gap);
                next = start.raw() + pages;
                ranges.push(ChunkRange { start, pages });
            }
            ranges.push(ChunkRange {
                start: Vpn::new(next + 4096),
                pages: 8,
            });
            Layout::from_ranges(ranges)
        })
}

/// The access patterns, by index.
fn pattern(kind: u8, hot_fraction: f64, hot_weight: f64, spike: (f64, f64)) -> AccessPattern {
    match kind {
        0 => AccessPattern::UniformRandom,
        1 => AccessPattern::Hotspot {
            hot_fraction,
            hot_weight,
        },
        2 => AccessPattern::HotspotTail {
            hot_fraction,
            hot_weight,
        },
        3 => AccessPattern::HotspotWithTailSpike {
            hot_fraction,
            hot_weight,
            spike_fraction: spike.0,
            spike_weight: spike.1,
        },
        _ => AccessPattern::Scan,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A plan's heap steps sum exactly to the scaled footprint, and the
    /// realized layout agrees.
    #[test]
    fn plans_cover_the_scaled_footprint(spec in any_workload(), seed in any::<u64>()) {
        let geo = PageGeometry::X86_64;
        let scale = MemoryScale::new(128);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut space = AddressSpace::new(AsId::new(1), geo);
        let layout = spec.build_layout(&mut space, scale, &mut rng);
        let expected = geo.pages_for_bytes(scale.apply(spec.footprint_bytes)).max(1);
        prop_assert_eq!(layout.heap_pages, expected);
        let vma_total = space.total_vma_pages();
        prop_assert_eq!(vma_total, layout.heap_pages + layout.stack.pages);
    }

    /// Every sampled access lands inside an allocated VMA.
    #[test]
    fn samples_stay_in_bounds(spec in any_workload(), seed in any::<u64>()) {
        let geo = PageGeometry::X86_64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut space = AddressSpace::new(AsId::new(1), geo);
        let layout = spec.build_layout(&mut space, MemoryScale::new(256), &mut rng);
        let mut sampler = AccessSampler::new(spec, layout);
        for _ in 0..500 {
            let access = sampler.sample(&mut rng);
            prop_assert!(
                space.vma_containing(access.vpn).is_some(),
                "{}: access {} outside every VMA",
                spec.name,
                access.vpn
            );
        }
    }

    /// The compiled sampler draws what the model draws for every one of
    /// the twelve applications over its realized layout.
    #[test]
    fn compiled_sampler_matches_the_model(spec in any_workload(), seed in any::<u64>()) {
        let geo = PageGeometry::X86_64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut space = AddressSpace::new(AsId::new(1), geo);
        let layout = spec.build_layout(&mut space, MemoryScale::new(256), &mut rng);
        check_sampler_against_model(spec, layout, seed ^ 0x5eed, 2_000);
    }

    /// ... and on generated specs: write, stack and hot-weight
    /// probabilities of 0, 1, `k·2^-53` and its `f64` neighbours (with
    /// `k` taken from the stream's own draws, so a test falls exactly on
    /// the threshold's edge), fractions that leave no cold or middle
    /// pages, and small layouts with empty chunks.
    #[test]
    fn compiled_sampler_matches_the_model_on_edge_specs(
        (kind, probs, fractions, layout, seed) in (
            (0u8..5, 0..WorkloadSpec::all().len(), any::<bool>()),
            (edge_probability(), edge_probability(), edge_probability(), edge_probability()),
            (edge_fraction(), edge_fraction()),
            small_layout(),
            any::<u64>(),
        ),
    ) {
        let (pattern_kind, base, stacked) = kind;
        let mut peek = SmallRng::seed_from_u64(seed);
        let draws: Vec<u64> = (0..8).map(|_| peek.next_u64()).collect();
        let (write, stack, hot_weight, spike_weight) = probs;
        let mut spec = WorkloadSpec::all()[base];
        spec.write_fraction = write.resolve(&draws);
        spec.stack_access_fraction = if stacked { stack.resolve(&draws) } else { 0.0 };
        spec.access = pattern(
            pattern_kind,
            fractions.0,
            hot_weight.resolve(&draws),
            (fractions.1, spike_weight.resolve(&draws)),
        );
        check_sampler_against_model(spec, layout, seed, 400);
    }

    /// Heap chunks never overlap and appear in ascending address order.
    #[test]
    fn heap_chunks_are_disjoint_and_ordered(spec in any_workload(), seed in any::<u64>()) {
        let geo = PageGeometry::X86_64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut space = AddressSpace::new(AsId::new(1), geo);
        let layout = spec.build_layout(&mut space, MemoryScale::new(256), &mut rng);
        for pair in layout.heap.windows(2) {
            prop_assert!(pair[0].start.raw() + pair[0].pages <= pair[1].start.raw());
        }
    }

    /// The bucketed search resolves every heap index — so every bucket
    /// boundary and both ends of the heap — to the same page as the
    /// linear chunk walk, over chunks of 0 to 5,000 pages mixed with
    /// 1-page ones and empty ones.
    #[test]
    fn heap_page_matches_the_linear_scan(
        chunks in prop::collection::vec(
            (0u64..5, prop_oneof![Just(1u64), Just(0u64), 0u64..5_001, 1u64..4]),
            1..48,
        ),
    ) {
        let mut next = 0u64;
        let mut ranges: Vec<ChunkRange> = chunks
            .iter()
            .map(|&(gap, pages)| {
                let start = Vpn::new(next + gap);
                next = start.raw() + pages;
                ChunkRange { start, pages }
            })
            .collect();
        ranges.push(ChunkRange { start: Vpn::new(next + 1_000), pages: 8 });
        let layout = Layout::from_ranges(ranges);
        prop_assert_eq!(layout.heap_pages, chunks.iter().map(|c| c.1).sum::<u64>());
        let mut index = 0;
        for chunk in &layout.heap {
            for offset in 0..chunk.pages {
                prop_assert_eq!(layout.heap_page(index), chunk.start + offset, "index {}", index);
                index += 1;
            }
        }
        prop_assert_eq!(index, layout.heap_pages);
    }
}
