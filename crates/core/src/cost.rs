//! Latency constants of the memory-management operations.
//!
//! Absolute values come from the paper's own measurements on its Skylake
//! testbed (we have no such machine; see DESIGN.md §6): a synchronous 1GB
//! page fault takes ≈400ms, dominated by zero-filling; async zero-fill cuts
//! it to 2.7ms; a 2MB fault takes ≈850µs; copy-based promotion of a 1GB
//! region takes ≈600ms; a hypercall costs ≈300ns; Trident_pv promotes the
//! same region in <30ms unbatched and ≈500µs batched (§5.1.2, §6).

use trident_types::{PageGeometry, PageSize};

/// Nanosecond-denominated cost model shared by all policies: plain
/// data, set by assigning fields on [`CostModel::default`].
///
/// Large-page fault latencies are *derived* from the zeroing bandwidth and
/// the page size ([`CostModel::fault_ns`]), so they stay correct when the
/// simulator runs with a scaled-down geometry: with the real x86-64
/// geometry they reproduce the paper's ≈850µs 2MB and ≈400ms 1GB faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Minor fault handled with a 4KB page.
    pub fault_base_ns: u64,
    /// How much cheaper a pre-zeroed giant fault is than a synchronous
    /// one: the paper measures 400ms → 2.7ms, a factor of ≈148.
    pub prepared_fault_divisor: u64,
    /// Sustained copy bandwidth for migration/promotion, bytes per
    /// nanosecond (1.8 GB/s ≈ the paper's 600ms per 1GB promotion).
    pub copy_bytes_per_ns: f64,
    /// Sustained zeroing bandwidth of the background zero-fill thread.
    pub zero_bytes_per_ns: f64,
    /// Guest→hypervisor transition cost of one hypercall.
    pub hypercall_ns: u64,
    /// Updating one pair of gPA→hPA mappings during a copy-less exchange.
    pub pv_exchange_pair_ns: u64,
    /// Additional per-exchange overhead when each exchange issues its own
    /// hypercall (lock acquisition, EPT synchronization).
    pub pv_unbatched_extra_ns: u64,
    /// TLB shootdown after a remapping batch.
    pub tlb_shootdown_ns: u64,
    /// Promotion-scan cost per base page examined (daemon CPU).
    pub scan_page_ns: u64,
    /// Simulated core frequency, cycles per nanosecond.
    pub cycles_per_ns: f64,
}

impl CostModel {
    /// Fault latency for mapping a page of `size`. Synchronous large-page
    /// faults are dominated by zero-filling the page (zeroing is required
    /// so leftover data cannot leak, §5.1.2); `prepared` giant faults use
    /// an async-zeroed block and skip it.
    #[must_use]
    pub fn fault_ns(&self, geo: &PageGeometry, size: PageSize, prepared: bool) -> u64 {
        if size.is_base() {
            return self.fault_base_ns;
        }
        // Every larger rung (group spans included) zero-fills its bytes;
        // only the ladder's top rung has a pre-zeroed pool to draw from.
        let sync = self.fault_base_ns + self.zero_ns(geo.bytes(size));
        if prepared && size == geo.largest() {
            sync / self.prepared_fault_divisor
        } else {
            sync
        }
    }

    /// Nanoseconds to copy `bytes` bytes.
    #[must_use]
    pub fn copy_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.copy_bytes_per_ns) as u64
    }

    /// Nanoseconds for the background thread to zero `bytes` bytes.
    #[must_use]
    pub fn zero_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.zero_bytes_per_ns) as u64
    }

    /// Nanoseconds to exchange `pairs` gPA→hPA mapping pairs in one batched
    /// hypercall (Trident_pv, §6).
    #[must_use]
    pub fn pv_batched_exchange_ns(&self, pairs: u64) -> u64 {
        self.hypercall_ns + pairs * self.pv_exchange_pair_ns
    }

    /// Nanoseconds to exchange `pairs` pairs with one hypercall each.
    #[must_use]
    pub fn pv_unbatched_exchange_ns(&self, pairs: u64) -> u64 {
        pairs * (self.hypercall_ns + self.pv_exchange_pair_ns + self.pv_unbatched_extra_ns)
    }

    /// Converts nanoseconds to core cycles.
    #[must_use]
    pub fn ns_to_cycles(&self, ns: u64) -> u64 {
        (ns as f64 * self.cycles_per_ns) as u64
    }
}

impl Default for CostModel {
    /// Constants matched to the paper's reported measurements.
    fn default() -> Self {
        CostModel {
            fault_base_ns: 1_000,
            prepared_fault_divisor: 148,
            copy_bytes_per_ns: 1.8,
            zero_bytes_per_ns: 2.7,
            hypercall_ns: 300,
            pv_exchange_pair_ns: 970,
            pv_unbatched_extra_ns: 55_000,
            tlb_shootdown_ns: 5_000,
            scan_page_ns: 15,
            cycles_per_ns: 2.3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_types::{GIB, MIB};

    #[test]
    fn giant_copy_takes_roughly_600ms() {
        let m = CostModel::default();
        let ns = m.copy_ns(GIB);
        assert!((550_000_000..650_000_000).contains(&ns), "{ns}");
    }

    #[test]
    fn batched_pv_promotion_is_roughly_500us() {
        let m = CostModel::default();
        // A 1GB promotion exchanges 512 2MB pages.
        let ns = m.pv_batched_exchange_ns(512);
        assert!((450_000..550_000).contains(&ns), "{ns}");
    }

    #[test]
    fn unbatched_pv_promotion_is_under_30ms_but_far_slower_than_batched() {
        let m = CostModel::default();
        let ns = m.pv_unbatched_exchange_ns(512);
        assert!(ns < 30_000_000, "{ns}");
        assert!(ns > 10 * m.pv_batched_exchange_ns(512));
    }

    #[test]
    fn pv_beats_copy_for_giant_promotion_by_orders_of_magnitude() {
        let m = CostModel::default();
        assert!(m.copy_ns(GIB) > 1000 * m.pv_batched_exchange_ns(512));
    }

    #[test]
    fn fault_latencies_match_the_paper_on_real_geometry() {
        let m = CostModel::default();
        let geo = trident_types::PageGeometry::X86_64;
        // ≈400ms synchronous 1GB fault, 2.7ms prepared (§5.1.2).
        let giant_sync = m.fault_ns(&geo, PageSize::new(2), false);
        assert!(
            (380_000_000..420_000_000).contains(&giant_sync),
            "{giant_sync}"
        );
        assert!(giant_sync / m.fault_ns(&geo, PageSize::new(2), true) > 100);
        // ≈850µs 2MB fault.
        let huge = m.fault_ns(&geo, PageSize::new(1), false);
        assert!((700_000..1_000_000).contains(&huge), "{huge}");
    }

    #[test]
    fn async_zeroed_giant_fault_takes_roughly_2_7ms() {
        let m = CostModel::default();
        let geo = trident_types::PageGeometry::X86_64;
        let ns = m.fault_ns(&geo, PageSize::new(2), true);
        assert!((2_500_000..2_900_000).contains(&ns), "{ns}");
    }

    #[test]
    fn a_hypercall_costs_roughly_300ns() {
        let m = CostModel::default();
        // A batched exchange of no pairs pays for the hypercall alone.
        let ns = m.pv_batched_exchange_ns(0);
        assert!((250..350).contains(&ns), "{ns}");
    }

    #[test]
    fn fault_latencies_shrink_with_scaled_geometry() {
        let m = CostModel::default();
        let real = trident_types::PageGeometry::X86_64;
        let scaled = trident_types::PageGeometry::new(12, 5, 14); // 1/16
        assert!(
            m.fault_ns(&scaled, PageSize::new(2), false)
                < m.fault_ns(&real, PageSize::new(2), false) / 8
        );
    }

    #[test]
    fn zeroing_a_huge_page_is_sub_millisecond() {
        let m = CostModel::default();
        assert!(m.zero_ns(2 * MIB) < 1_000_000);
    }
}
