//! Parallel experiment engine.
//!
//! Every experiment in this crate is a grid of independent simulations:
//! one [`Cell`] per (policy, workload, configuration) triple. Cells share
//! no state — each builds its own [`System`] — so they can execute on any
//! number of threads. Three rules make the parallel results *bit-identical*
//! to a serial run (DESIGN.md §"Determinism contract"):
//!
//! 1. Each cell's RNG seed is a pure function of the experiment's base
//!    seed and the cell's position in the plan ([`derive_cell_seed`]),
//!    never of which thread ran it or when.
//! 2. Cells never share mutable state; a cell's entire simulation lives
//!    on the thread that executes it.
//! 3. Results are merged in plan order ([`Runner::map`] returns results
//!    indexed exactly like its input), so downstream evaluation sees the
//!    same sequence a serial loop would produce.
//!
//! Every experiment that reports modeled performance plans each row's 4KB
//! anchor run as a cell of its own grid and passes the measurement to
//! [`PerfPoint::evaluate`](crate::PerfPoint::evaluate). The model is a
//! pure function and launches nothing, so no run hides behind the grid.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use trident_workloads::WorkloadSpec;

use crate::{Measurement, PolicyKind, SimConfig, System, VirtSystem};

/// Derives the RNG seed for plan position `cell_index` from the
/// experiment's base seed.
///
/// SplitMix64 finalization of `base_seed ⊕ φ·cell_index`: cells get
/// decorrelated streams, and the result depends only on the two inputs —
/// never on thread count or scheduling — which is what makes parallel
/// runs bit-identical to serial ones.
#[must_use]
pub fn derive_cell_seed(base_seed: u64, cell_index: u64) -> u64 {
    let mut z = base_seed ^ cell_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One native experiment cell: a full simulated system run.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Page-size policy under test.
    pub kind: PolicyKind,
    /// Application.
    pub spec: WorkloadSpec,
    /// Complete run configuration (seed already derived by the planner).
    pub config: SimConfig,
}

impl Cell {
    /// Launches, settles and measures the cell's system; `None` when the
    /// policy cannot boot (hugetlbfs reservation on fragmented memory).
    #[must_use]
    pub fn measure(&self) -> Option<Measurement> {
        let mut system = System::builder(self.config)
            .policy(self.kind)
            .workload(self.spec)
            .build()
            .ok()?;
        system.settle();
        Some(system.measure())
    }
}

/// One virtualized experiment cell (guest and host each run a policy).
#[derive(Debug, Clone, Copy)]
pub struct VirtCell {
    /// Hypervisor-side policy.
    pub host: PolicyKind,
    /// Guest-kernel policy.
    pub guest: PolicyKind,
    /// Application.
    pub spec: WorkloadSpec,
    /// Complete run configuration.
    pub config: SimConfig,
    /// Fragment guest-physical memory before the run.
    pub fragment_guest: bool,
}

impl VirtCell {
    /// Launches, settles and measures the nested system.
    #[must_use]
    pub fn measure(&self) -> Option<Measurement> {
        let mut vs = VirtSystem::launch(
            self.config,
            self.host,
            self.guest,
            self.spec,
            self.fragment_guest,
        )
        .ok()?;
        vs.settle();
        Some(vs.measure())
    }
}

/// Executes independent cells across a fixed pool of scoped threads.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner using `threads` worker threads; `0` means one per
    /// available hardware core.
    #[must_use]
    pub fn new(threads: usize) -> Runner {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        Runner { threads }
    }

    /// The worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, fanning the calls out across the worker
    /// pool, and returns the results *in input order*.
    ///
    /// `f` receives `(plan_index, item)`. Work is handed out through an
    /// atomic cursor, so threads stay busy regardless of how unevenly
    /// cell runtimes are distributed; because each result lands in the
    /// slot of its plan index, the output is independent of scheduling.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker thread.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.threads <= 1 || n <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let r = f(i, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every cell ran to completion")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seeds_are_deterministic_and_decorrelated() {
        let a = derive_cell_seed(42, 0);
        assert_eq!(a, derive_cell_seed(42, 0));
        let seeds: Vec<u64> = (0..64).map(|i| derive_cell_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "64 cells must get 64 seeds");
        assert_ne!(derive_cell_seed(42, 1), derive_cell_seed(43, 1));
    }

    #[test]
    fn map_preserves_input_order_across_thread_counts() {
        let items: Vec<u64> = (0..100).collect();
        let serial = Runner::new(1).map(&items, |i, &x| (i as u64) * 1000 + x * x);
        for threads in [2, 4, 8] {
            let parallel = Runner::new(threads).map(&items, |i, &x| (i as u64) * 1000 + x * x);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(Runner::new(0).threads() >= 1);
        assert_eq!(Runner::new(3).threads(), 3);
    }
}
