//! Physical-memory fragmentation tooling.
//!
//! The paper's methodology (§3): fragment memory by caching a large file in
//! the OS page cache and then reading it at random offsets so that page
//! reclamation frees memory in non-contiguous chunks, driving the Free
//! Memory Fragmentation Index (FMFI) to ≈0.95. This module reproduces the
//! *effect* directly on the simulated allocator: fill memory with
//! page-cache-sized chunks, scatter a few unmovable kernel objects across
//! regions (the inodes/DMA buffers that defeat 1GB compaction), then free a
//! random subset.

use rand::seq::SliceRandom;
use rand::Rng;
use trident_obs::NoopRecorder;
use trident_types::{Pfn, MAX_RUNGS};

use crate::{FrameUse, PhysicalMemory};

/// Parameters controlling how aggressively memory is fragmented.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentProfile {
    /// Fraction of memory left free (scattered) after fragmentation.
    pub target_free_fraction: f64,
    /// Probability that a giant region receives an unmovable kernel object.
    pub unmovable_region_fraction: f64,
    /// Largest buddy order used for page-cache churn chunks. Small orders
    /// produce fine-grained holes like real reclamation does.
    pub max_chunk_order: u8,
}

impl FragmentProfile {
    /// The paper's heavy-fragmentation setup: FMFI ≈ 0.95 with roughly a
    /// quarter of memory free in scattered small holes, and a modest share
    /// of regions poisoned by unmovable kernel data.
    #[must_use]
    pub fn heavy() -> FragmentProfile {
        FragmentProfile {
            target_free_fraction: 0.25,
            unmovable_region_fraction: 0.70,
            max_chunk_order: 2,
        }
    }
}

impl Default for FragmentProfile {
    fn default() -> Self {
        FragmentProfile::heavy()
    }
}

/// Outcome of a fragmentation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentReport {
    /// FMFI per ladder rung after fragmentation (indexed by
    /// `PageSize::rung()`; rungs beyond the geometry's ladder stay 0).
    pub fmfi: [f64; MAX_RUNGS],
    /// Index of the geometry's largest rung (the 1GB slot on x86).
    pub largest_rung: usize,
    /// Fraction of memory free after fragmentation.
    pub free_fraction: f64,
    /// Page-cache units still resident (they may be reclaimed later).
    pub resident_chunks: usize,
}

impl FragmentReport {
    /// FMFI at the ladder's largest rung — the paper's headline
    /// fragmentation number (1GB on x86).
    #[must_use]
    pub fn fmfi_largest(&self) -> f64 {
        self.fmfi[self.largest_rung]
    }
}

/// Fragments a [`PhysicalMemory`] according to a [`FragmentProfile`].
///
/// # Examples
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use trident_phys::{FragmentProfile, Fragmenter, PhysicalMemory};
/// use trident_types::PageGeometry;
///
/// let geo = PageGeometry::TINY;
/// let mut mem = PhysicalMemory::new(geo, 32 * geo.base_pages(geo.largest()));
/// let mut rng = SmallRng::seed_from_u64(7);
/// let report = Fragmenter::new(FragmentProfile::heavy()).run(&mut mem, &mut rng);
/// assert!(report.fmfi_largest() > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct Fragmenter {
    profile: FragmentProfile,
    resident: Vec<Pfn>,
}

impl Fragmenter {
    /// Creates a fragmenter with the given profile.
    #[must_use]
    pub fn new(profile: FragmentProfile) -> Fragmenter {
        Fragmenter {
            profile,
            resident: Vec::new(),
        }
    }

    /// Fragments `mem` in place and reports the resulting fragmentation.
    ///
    /// The page-cache chunks left resident are remembered by the fragmenter;
    /// [`Fragmenter::reclaim`] can free more of them later, modelling the
    /// page cache shrinking under memory pressure.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        mem: &mut PhysicalMemory,
        rng: &mut R,
    ) -> FragmentReport {
        self.poison_regions(mem, rng);
        self.fill_with_page_cache(mem, rng);
        self.free_scattered(mem, rng);
        self.report(mem)
    }

    /// Scatter unmovable kernel objects across giant regions so that a
    /// subset of regions can never be freed by compaction.
    fn poison_regions<R: Rng + ?Sized>(&mut self, mem: &mut PhysicalMemory, rng: &mut R) {
        let regions = mem.regions().region_count();
        for region in 0..regions {
            if rng.gen_bool(self.profile.unmovable_region_fraction) {
                // Best effort: a full region simply stays unpoisoned.
                let _ =
                    mem.allocate_in_region(region, 0, FrameUse::Kernel, None, &mut NoopRecorder);
            }
        }
    }

    /// Fill (nearly) all remaining memory with small page-cache chunks.
    fn fill_with_page_cache<R: Rng + ?Sized>(&mut self, mem: &mut PhysicalMemory, rng: &mut R) {
        loop {
            let order = rng.gen_range(0..=self.profile.max_chunk_order);
            match mem.allocate_order(order, FrameUse::PageCache, None, &mut NoopRecorder) {
                Ok(head) => self.resident.push(head),
                Err(_) => {
                    // Retry at order 0 to squeeze out the last pages.
                    match mem.allocate_order(0, FrameUse::PageCache, None, &mut NoopRecorder) {
                        Ok(head) => self.resident.push(head),
                        Err(_) => break,
                    }
                }
            }
        }
    }

    /// Free chunks until the target free fraction is reached.
    ///
    /// Freeing is *region-skewed*, like real page-cache reclaim: files are
    /// dropped together, so some 1GB regions end up mostly empty while
    /// others stay nearly full. This occupancy heterogeneity is what smart
    /// compaction exploits (it selects the emptiest region as its source)
    /// and sequential compaction is blind to. One chunk per region is
    /// pinned resident so no region coalesces back into a free giant
    /// block — the memory stays fragmented at giant granularity.
    fn free_scattered<R: Rng + ?Sized>(&mut self, mem: &mut PhysicalMemory, rng: &mut R) {
        let geo = mem.geometry();
        let region_count = mem.regions().region_count();
        // Strongly skewed per-region reclaim propensity.
        let bias: Vec<f64> = (0..region_count)
            .map(|_| rng.gen::<f64>().powi(3))
            .collect();
        // Pin one resident chunk per region.
        let mut pinned = vec![false; usize::try_from(region_count).expect("fits usize")];
        let mut keep = Vec::new();
        let mut candidates = Vec::new();
        self.resident.shuffle(rng);
        for head in self.resident.drain(..) {
            let region = usize::try_from(geo.giant_region_of(head.raw())).expect("fits usize");
            if !pinned[region] {
                pinned[region] = true;
                keep.push(head);
            } else {
                let score = bias[region] + rng.gen_range(0.0..0.15);
                candidates.push((score, head));
            }
        }
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
        let mut queue = candidates.into_iter();
        while mem.free_fraction() < self.profile.target_free_fraction {
            let Some((_, head)) = queue.next() else {
                break;
            };
            mem.free(head, &mut NoopRecorder)
                .expect("resident chunk is allocated");
        }
        self.resident = keep;
        self.resident.extend(queue.map(|(_, head)| head));
    }

    /// Reclaims up to `pages` base pages of resident page cache, freeing
    /// whole chunks. Returns the number of base pages actually freed.
    ///
    /// Chunks that compaction has migrated since the fragmentation run are
    /// silently skipped: their handles are stale, and the frame they point
    /// at may since have been reallocated to someone else entirely — only
    /// frames that are *still page-cache* may be reclaimed.
    pub fn reclaim(&mut self, mem: &mut PhysicalMemory, pages: u64) -> u64 {
        let mut freed = 0;
        while freed < pages {
            let Some(head) = self.resident.pop() else {
                break;
            };
            match mem.unit_at(head) {
                Some(unit) if unit.use_ == FrameUse::PageCache => {
                    mem.free(head, &mut NoopRecorder)
                        .expect("page-cache unit is live");
                    freed += unit.pages();
                }
                _ => {} // stale handle: migrated or reused by another owner
            }
        }
        freed
    }

    fn report(&self, mem: &PhysicalMemory) -> FragmentReport {
        let geo = mem.geometry();
        let mut fmfi = [0.0; MAX_RUNGS];
        for size in geo.rungs() {
            fmfi[size.rung()] = mem.fmfi(size);
        }
        FragmentReport {
            fmfi,
            largest_rung: geo.largest().rung(),
            free_fraction: mem.free_fraction(),
            resident_chunks: self.resident.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use trident_types::{PageGeometry, PageSize};

    fn fragmented() -> (PhysicalMemory, Fragmenter, FragmentReport) {
        let geo = PageGeometry::TINY;
        let mut mem = PhysicalMemory::new(geo, 64 * geo.base_pages(geo.largest()));
        let mut rng = SmallRng::seed_from_u64(42);
        let mut frag = Fragmenter::new(FragmentProfile::heavy());
        let report = frag.run(&mut mem, &mut rng);
        (mem, frag, report)
    }

    #[test]
    fn heavy_profile_destroys_giant_contiguity() {
        let (mem, _, report) = fragmented();
        assert!(
            report.fmfi_largest() > 0.9,
            "fmfi_largest = {}",
            report.fmfi_largest()
        );
        assert!(!mem.has_free(mem.geometry().largest()));
        assert!((0.2..0.35).contains(&report.free_fraction));
        mem.assert_consistent();
    }

    #[test]
    fn fragmentation_leaves_base_pages_allocatable() {
        let (mut mem, _, _) = fragmented();
        assert!(mem
            .allocate(PageSize::BASE, FrameUse::User, None, &mut NoopRecorder)
            .is_ok());
    }

    #[test]
    fn reclaim_frees_whole_chunks() {
        let (mut mem, mut frag, _) = fragmented();
        let before = mem.free_pages();
        let freed = frag.reclaim(&mut mem, 100);
        assert!(freed >= 100);
        assert_eq!(mem.free_pages(), before + freed);
        mem.assert_consistent();
    }

    #[test]
    fn some_regions_are_poisoned() {
        let (mem, _, _) = fragmented();
        let poisoned = (0..mem.regions().region_count())
            .filter(|r| mem.regions().counters(*r).unmovable_pages > 0)
            .count();
        assert!(poisoned > 0, "expected at least one poisoned region");
        assert!(poisoned < mem.regions().region_count() as usize);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = || {
            let geo = PageGeometry::TINY;
            let mut mem = PhysicalMemory::new(geo, 16 * geo.base_pages(geo.largest()));
            let mut rng = SmallRng::seed_from_u64(7);
            // Larger holes and fewer poisoned regions than the heavy
            // profile.
            let mild = FragmentProfile {
                target_free_fraction: 0.4,
                unmovable_region_fraction: 0.05,
                max_chunk_order: 4,
            };
            Fragmenter::new(mild).run(&mut mem, &mut rng)
        };
        assert_eq!(run(), run());
    }
}
