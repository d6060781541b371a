//! Building a workload's virtual-address layout.
//!
//! Layouts can be materialized in one shot ([`WorkloadSpec::build_layout`])
//! or step by step from an [`AllocPlan`] — the simulator uses the latter so
//! that page faults interleave with allocation the way they do in a real
//! run. The interleaving matters: when Redis allocates incrementally, the
//! fault handler never sees a 1GB-mappable range and 1GB pages can only
//! come from later promotion (Table 3's "page-fault only" column).

use rand::Rng;
use trident_types::{PageGeometry, PageSize, Vpn};
use trident_vm::{AddressSpace, VmaKind};

use crate::{AllocPattern, MemoryScale, WorkloadSpec};

/// A contiguous allocated virtual range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRange {
    /// First page.
    pub start: Vpn,
    /// Length in base pages.
    pub pages: u64,
}

/// One allocation the workload performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStep {
    /// Pages to allocate.
    pub pages: u64,
    /// Unallocated gap preceding the range.
    pub gap: u64,
    /// VMA kind.
    pub kind: VmaKind,
    /// Alignment request.
    pub align: PageSize,
}

/// The ordered allocations of one workload instance (heap chunks followed
/// by the stack).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocPlan {
    /// The steps, in program order. The final step is the stack.
    pub steps: Vec<AllocStep>,
}

impl AllocPlan {
    /// Executes one step against `space`, returning the realized range.
    ///
    /// # Panics
    ///
    /// Panics if the address space cannot place the range (zero-sized
    /// steps are never produced by [`WorkloadSpec::plan`]).
    pub fn execute_step(space: &mut AddressSpace, step: &AllocStep) -> ChunkRange {
        let start = space
            .mmap(step.pages, step.kind, step.align, step.gap)
            .expect("plan steps are non-empty");
        ChunkRange {
            start,
            pages: step.pages,
        }
    }
}

/// The realized virtual-address layout of one workload instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Heap/arena ranges in allocation order.
    pub heap: Vec<ChunkRange>,
    /// The stack range.
    pub stack: ChunkRange,
    /// Total heap pages.
    pub heap_pages: u64,
    /// Per chunk `i`: the number of heap pages in chunks `0..=i`, and
    /// chunk `i`'s first page minus its first heap index (modulo `2^64`).
    /// The search key and the answer share a cache line: heap index `x`
    /// of chunk `i` is page `heap_ends[i].1 + x`.
    heap_ends: Vec<(u64, u64)>,
    /// log2 of the bucket width, in heap pages: about one average chunk.
    bucket_shift: u32,
    /// `buckets[b]` is the chunk holding heap page `b << bucket_shift`; a
    /// sentinel, the chunk holding the last heap page, closes the list.
    /// So the chunk holding any page of bucket `b` lies in
    /// `buckets[b]..=buckets[b + 1]`, and
    /// [`heap_page`](Self::heap_page) searches only the running totals of
    /// those chunks instead of every chunk's on every sample.
    buckets: Vec<u32>,
}

impl Layout {
    /// Assembles a layout from executed plan ranges (heap chunks in order,
    /// stack last — the same order [`WorkloadSpec::plan`] emits).
    ///
    /// # Panics
    ///
    /// Panics if `ranges` is empty.
    #[must_use]
    pub fn from_ranges(mut ranges: Vec<ChunkRange>) -> Layout {
        let stack = ranges.pop().expect("plan includes a stack");
        let heap_ends: Vec<(u64, u64)> = ranges
            .iter()
            .scan(0u64, |total, c| {
                let first = *total;
                *total += c.pages;
                Some((*total, c.start.raw().wrapping_sub(first)))
            })
            .collect();
        let heap_pages = heap_ends.last().map_or(0, |&(total, _)| total);
        let average = heap_pages / ranges.len().max(1) as u64;
        let bucket_shift = average.max(1).ilog2();
        let mut buckets = Vec::new();
        if heap_pages > 0 {
            let last_bucket = (heap_pages - 1) >> bucket_shift;
            let mut chunk = 0;
            for bucket in 0..=last_bucket + 1 {
                // The sentinel's page clamps to the last heap page.
                let page = (bucket << bucket_shift).min(heap_pages - 1);
                // Empty chunks share their predecessor's total and are
                // skipped.
                while heap_ends[chunk].0 <= page {
                    chunk += 1;
                }
                buckets.push(u32::try_from(chunk).expect("chunk index fits u32"));
            }
        }
        Layout {
            heap: ranges,
            stack,
            heap_pages,
            heap_ends,
            bucket_shift,
            buckets,
        }
    }

    /// Resolves a global heap page index (0..heap_pages) to a virtual
    /// page.
    ///
    /// # Panics
    ///
    /// Panics if `index >= heap_pages`.
    #[must_use]
    pub fn heap_page(&self, index: u64) -> Vpn {
        assert!(index < self.heap_pages, "heap index {index} out of range");
        let bucket = (index >> self.bucket_shift) as usize;
        let lo = self.buckets[bucket] as usize;
        let hi = self.buckets[bucket + 1] as usize;
        // The first chunk whose running total passes `index` holds it;
        // when none before `hi` does, `hi` holds it.
        let i = lo + self.heap_ends[lo..hi].partition_point(|&(end, _)| end <= index);
        Vpn::new(self.heap_ends[i].1.wrapping_add(index))
    }
}

/// Appends incremental allocation steps totalling `total_pages`.
fn push_incremental<R: Rng + ?Sized>(
    steps: &mut Vec<AllocStep>,
    geo: PageGeometry,
    chunk_bytes_scaled: u64,
    gap_chance: f64,
    total_pages: u64,
    rng: &mut R,
) {
    let chunk_pages = geo.pages_for_bytes(chunk_bytes_scaled).max(1);
    let mut allocated = 0;
    while allocated < total_pages {
        let pages = chunk_pages.min(total_pages - allocated);
        let gap = if rng.gen_bool(gap_chance) {
            rng.gen_range(1..=geo.base_pages(PageSize::new(1)))
        } else {
            0
        };
        steps.push(AllocStep {
            pages,
            gap,
            kind: VmaKind::Anon,
            align: PageSize::BASE,
        });
        allocated += pages;
    }
}

impl WorkloadSpec {
    /// Plans this workload's allocations at `scale`: heap chunks per the
    /// allocation pattern, then the stack.
    pub fn plan<R: Rng + ?Sized>(
        &self,
        geo: PageGeometry,
        scale: MemoryScale,
        rng: &mut R,
    ) -> AllocPlan {
        let total_pages = geo
            .pages_for_bytes(scale.apply(self.footprint_bytes))
            .max(1);
        let mut steps = Vec::new();
        match self.alloc {
            AllocPattern::Bulk => {
                steps.push(AllocStep {
                    pages: total_pages,
                    gap: 0,
                    kind: VmaKind::Anon,
                    align: PageSize::new(2),
                });
            }
            AllocPattern::Incremental {
                chunk_bytes,
                gap_chance,
            } => {
                push_incremental(
                    &mut steps,
                    geo,
                    scale.apply(chunk_bytes),
                    gap_chance,
                    total_pages,
                    rng,
                );
            }
            AllocPattern::IncrementalWithFragmentedTail {
                chunk_bytes,
                gap_chance,
                tail_fraction,
                tail_chunk_bytes,
                tail_gap_chance,
            } => {
                let tail_pages = ((total_pages as f64 * tail_fraction) as u64).max(1);
                push_incremental(
                    &mut steps,
                    geo,
                    scale.apply(chunk_bytes),
                    gap_chance,
                    total_pages - tail_pages,
                    rng,
                );
                push_incremental(
                    &mut steps,
                    geo,
                    scale.apply(tail_chunk_bytes),
                    tail_gap_chance,
                    tail_pages,
                    rng,
                );
            }
        }
        // The stack sits far from the heap, as on real systems. Stacks are
        // small (8MB) and deliberately *not* scaled: scaling one down
        // would shrink it below the 4KB L1 TLB's reach and erase the
        // stack-miss sensitivity the paper observes for Redis and GUPS.
        // It is, however, capped below the giant-page size: on real
        // hardware an 8MB stack can never hold a 1GB page, and that must
        // stay true under scaled geometries too (Table 4's "NA" rows).
        let stack_pages = geo
            .pages_for_bytes(self.stack_bytes)
            .clamp(1, geo.base_pages(PageSize::new(2)) / 2);
        steps.push(AllocStep {
            pages: stack_pages,
            gap: geo.base_pages(PageSize::new(2)),
            kind: VmaKind::Stack,
            align: PageSize::new(1),
        });
        AllocPlan { steps }
    }

    /// Materializes this workload's VMAs in `space` at `scale` in one
    /// shot, returning the layout used by the access sampler.
    ///
    /// Bulk allocators create a single giant-aligned VMA (maximally
    /// 1GB-mappable); incremental allocators create a sequence of chunks
    /// with randomized gaps, so part of the space is 2MB-mappable but not
    /// 1GB-mappable — the structural property behind Figure 3.
    pub fn build_layout<R: Rng + ?Sized>(
        &self,
        space: &mut AddressSpace,
        scale: MemoryScale,
        rng: &mut R,
    ) -> Layout {
        let plan = self.plan(space.geometry(), scale, rng);
        let ranges = plan
            .steps
            .iter()
            .map(|step| AllocPlan::execute_step(space, step))
            .collect();
        Layout::from_ranges(ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use trident_types::AsId;
    use trident_vm::mappable_bytes;

    fn build(name: &str, scale: u64) -> (AddressSpace, Layout) {
        let geo = PageGeometry::X86_64;
        let mut space = AddressSpace::new(AsId::new(1), geo);
        let spec = WorkloadSpec::by_name(name).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let layout = spec.build_layout(&mut space, MemoryScale::new(scale), &mut rng);
        (space, layout)
    }

    #[test]
    fn bulk_layout_is_one_heap_vma_plus_stack() {
        let (space, layout) = build("GUPS", 16);
        assert_eq!(layout.heap.len(), 1);
        assert_eq!(space.vmas().count(), 2);
        // 32GB / 16 = 2GB of heap.
        assert_eq!(layout.heap_pages, 2 * 1024 * 1024 / 4);
        // Bulk heap is fully giant-mappable.
        let giant = mappable_bytes(&space, PageSize::new(2));
        assert!(giant >= layout.heap_pages * 4096 - (1 << 30));
    }

    #[test]
    fn incremental_layout_leaves_a_mappability_gap() {
        let (space, layout) = build("Redis", 16);
        assert!(
            layout.heap.len() > 100,
            "many chunks: {}",
            layout.heap.len()
        );
        let huge = mappable_bytes(&space, PageSize::new(1));
        let giant = mappable_bytes(&space, PageSize::new(2));
        // Figure 3's structural property: GBs mappable at 2MB but not 1GB.
        assert!(huge > giant, "huge {huge} should exceed giant {giant}");
        assert!(huge - giant > 100 * 2 * 1024 * 1024);
    }

    #[test]
    fn plan_and_build_layout_agree() {
        let geo = PageGeometry::X86_64;
        let spec = WorkloadSpec::by_name("Memcached").unwrap();
        let scale = MemoryScale::new(64);
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        let plan = spec.plan(geo, scale, &mut rng_a);
        let mut space = AddressSpace::new(AsId::new(1), geo);
        let ranges: Vec<ChunkRange> = plan
            .steps
            .iter()
            .map(|s| AllocPlan::execute_step(&mut space, s))
            .collect();
        let stepwise = Layout::from_ranges(ranges);
        let mut space_b = AddressSpace::new(AsId::new(2), geo);
        let oneshot = spec.build_layout(&mut space_b, scale, &mut rng_b);
        assert_eq!(stepwise, oneshot);
    }

    #[test]
    fn heap_page_resolves_across_chunks() {
        let (_, layout) = build("Redis", 64);
        let first = layout.heap_page(0);
        assert_eq!(first, layout.heap[0].start);
        let last = layout.heap_page(layout.heap_pages - 1);
        let tail = layout.heap.last().unwrap();
        assert_eq!(last, tail.start + (tail.pages - 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn heap_page_rejects_out_of_range() {
        let (_, layout) = build("GUPS", 64);
        let _ = layout.heap_page(layout.heap_pages);
    }

    #[test]
    fn stack_is_a_separate_stack_vma() {
        let (space, layout) = build("GUPS", 16);
        let vma = space.vma_containing(layout.stack.start).unwrap();
        assert_eq!(vma.kind, VmaKind::Stack);
    }

    #[test]
    fn layouts_are_deterministic_per_seed() {
        let (_, a) = build("Memcached", 64);
        let (_, b) = build("Memcached", 64);
        assert_eq!(a, b);
    }
}
