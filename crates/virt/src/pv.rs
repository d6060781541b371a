//! Trident_pv: copy-less promotion through gPA→hPA mapping exchange (§6).
//!
//! To promote a gVA range to a 1GB page, the guest needs the backing gPA
//! range to be contiguous, which normally means *copying* guest-physical
//! pages. Trident_pv observes that copying a guest physical page can be
//! mimicked by exchanging the gPA→hPA mappings of the source and
//! destination (Figure 8): after the exchange, the destination gPA maps
//! the host frame that holds the source's data. The guest passes batches
//! of (source, destination) gPA pairs to the hypervisor in a single
//! hypercall; on any failure the guest falls back to copying.

use core::fmt;
use std::error::Error;

use trident_core::{Event, NoopRecorder, PromoteError, SpanKind};
use trident_phys::{FrameUse, MappingOwner};
use trident_types::{AsId, PageGeometry, PageSize, Pfn, Vpn};

use crate::{GuestKernel, Hypervisor};

/// Why a mapping exchange could not be performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PvError {
    /// A gPA in the batch is not backed by the host at 2MB granularity
    /// and could not be brought to it.
    SizeMismatch {
        /// The offending guest-physical page.
        gpa: Vpn,
    },
    /// The VM is unknown to the hypervisor.
    UnknownVm,
    /// The hypercall was failed by an installed fault plan (chaos
    /// testing); the guest must take its copy fallback.
    Injected,
}

impl fmt::Display for PvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PvError::SizeMismatch { gpa } => {
                write!(f, "gPA {gpa} is not exchangeable at 2MB granularity")
            }
            PvError::UnknownVm => f.write_str("unknown virtual machine"),
            PvError::Injected => f.write_str("exchange hypercall failed by fault injection"),
        }
    }
}

impl Error for PvError {}

impl Hypervisor {
    /// Services the Trident_pv hypercall: for every `(src, dst)` gPA pair,
    /// exchange the two gPA→hPA mappings at huge (2MB) granularity. With
    /// `batched`, all pairs ride one guest→hypervisor transition; without,
    /// each pair pays its own (§6 measures ≈300ns per transition, making
    /// batching the difference between ≈30ms and ≈500µs per 1GB).
    ///
    /// Host leaves larger than 2MB are split first (as KVM splits EPT
    /// huge pages); unbacked gPAs are faulted in. Returns the hypervisor
    /// CPU time in nanoseconds.
    ///
    /// # Errors
    ///
    /// [`PvError::UnknownVm`] for an unknown VM; [`PvError::SizeMismatch`]
    /// when a gPA is backed at 4KB granularity (the guest then falls back
    /// to copying). Pairs exchanged before a failure stay exchanged — the
    /// hypercall reports failures via the shared page and the guest
    /// handles the remainder (§6).
    pub fn exchange_mappings(
        &mut self,
        vm: AsId,
        pairs: &[(Vpn, Vpn)],
        batched: bool,
    ) -> Result<u64, PvError> {
        if self.spaces.get(vm).is_none() {
            return Err(PvError::UnknownVm);
        }
        // Chaos hook: an installed fault plan can fail the whole hypercall
        // before any pair is exchanged, exercising the guest's copy
        // fallback deterministically.
        if self.ctx.inject(trident_core::InjectSite::PvExchange) {
            return Err(PvError::Injected);
        }
        let cost = self.ctx.cost;
        let mut ns = if batched {
            self.count_hypercall();
            cost.hypercall_ns
        } else {
            0
        };
        for &(src, dst) in pairs {
            if !batched {
                self.count_hypercall();
                ns += cost.hypercall_ns + cost.pv_unbatched_extra_ns;
            }
            self.ensure_huge_backing(vm, src)?;
            self.ensure_huge_backing(vm, dst)?;
            let space = self.spaces.get_mut(vm).expect("vm checked above");
            let src_pfn = space
                .page_table()
                .translate(src)
                .expect("ensured backed")
                .head_pfn;
            let dst_pfn = space
                .page_table()
                .translate(dst)
                .expect("ensured backed")
                .head_pfn;
            space
                .page_table_mut()
                .remap(src, dst_pfn)
                .expect("leaf exists");
            space
                .page_table_mut()
                .remap(dst, src_pfn)
                .expect("leaf exists");
            // Keep the reverse map honest: each host frame now belongs to
            // the other gPA.
            self.ctx
                .mem
                .set_owner(src_pfn, Some(MappingOwner { asid: vm, vpn: dst }));
            self.ctx
                .mem
                .set_owner(dst_pfn, Some(MappingOwner { asid: vm, vpn: src }));
            ns += cost.pv_exchange_pair_ns;
        }
        Ok(ns)
    }

    /// Makes sure `gpa` is host-mapped by a leaf of exactly huge size:
    /// faults it in if unbacked, splits a giant leaf if necessary.
    fn ensure_huge_backing(&mut self, vm: AsId, gpa: Vpn) -> Result<(), PvError> {
        let geo = self.ctx.geometry();
        let huge = exchange_rung(&geo);
        let head = Vpn::new(gpa.raw() & !(geo.base_pages(huge) - 1));
        loop {
            let space = self.spaces.get_mut(vm).expect("vm exists");
            match space.page_table().translate(head) {
                None => {
                    self.touch_gpa(vm, head, true)
                        .map_err(|_| PvError::SizeMismatch { gpa })?;
                }
                Some(t) if t.size == huge && t.head_vpn == head => return Ok(()),
                Some(t) if t.size == geo.largest() => {
                    self.split_giant_leaf(vm, t.head_vpn);
                }
                Some(_) => return Err(PvError::SizeMismatch { gpa }),
            }
        }
    }

    /// Splits a host giant leaf into huge leaves (EPT splitting). The
    /// giant frame is released and huge frames take its place; the data
    /// relocation this implies is a modeling simplification — real EPT
    /// splitting reuses the same frames — so no copy cost is charged.
    fn split_giant_leaf(&mut self, vm: AsId, head_gpa: Vpn) {
        let geo = self.ctx.geometry();
        let huge = exchange_rung(&geo);
        let space = self.spaces.get_mut(vm).expect("vm exists");
        let t = space
            .page_table()
            .translate(head_gpa)
            .expect("giant leaf exists");
        debug_assert_eq!(t.size, geo.largest());
        space.page_table_mut().unmap(head_gpa).expect("leaf exists");
        self.ctx
            .mem
            .free(t.head_pfn, &mut NoopRecorder)
            .expect("frame was live");
        let hp = geo.base_pages(huge);
        let count = geo.base_pages(geo.largest()) / hp;
        for i in 0..count {
            let sub = head_gpa + i * hp;
            let owner = MappingOwner { asid: vm, vpn: sub };
            let pfn = self
                .ctx
                .mem
                .allocate(huge, FrameUse::User, Some(owner), &mut NoopRecorder)
                .expect("the freed giant block provides the huge frames");
            let space = self.spaces.get_mut(vm).expect("vm exists");
            space
                .page_table_mut()
                .map(sub, pfn, huge)
                .expect("span was emptied");
        }
    }
}

/// The rung whose mappings the pv exchange trades: the ladder's natural
/// PMD-level (level-2) rung — "2MB" on x86-64, whatever the architecture
/// calls it elsewhere. Exchange doesn't pay below it (§6), and group
/// rungs (NAPOT / contiguous spans) are runs of PTEs, not single
/// table-level mappings, so they copy like base pages.
fn exchange_rung(geo: &PageGeometry) -> PageSize {
    geo.size_for_order(geo.level_order(2))
        .expect("every ladder has a natural level-2 rung")
}

/// Report of one copy-less giant-page promotion in the guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PvPromoteReport {
    /// Guest + hypervisor CPU time in nanoseconds.
    pub ns: u64,
    /// 2MB mappings exchanged instead of copied.
    pub pairs_exchanged: u64,
    /// Bytes copied for portions not mapped at 2MB (and for any exchange
    /// fallback).
    pub bytes_copied: u64,
    /// Whether the hypercall failed and the guest fell back to copying.
    pub fell_back: bool,
}

/// Promotes the giant-aligned gVA chunk at `head` of guest process `asid`
/// to a 1GB page *without copying*: allocates a contiguous gPA block,
/// exchanges the gPA→hPA mappings of the old 2MB-backed portions with the
/// block's sub-ranges via one batched hypercall, and installs the giant
/// guest leaf. 4KB-backed portions are copied (exchange doesn't pay below
/// 2MB, §6); if the hypercall fails the whole promotion falls back to
/// copying.
///
/// # Errors
///
/// [`PromoteError::NoContiguity`] when the guest has no free contiguous
/// gPA block; [`PromoteError::NotACandidate`] when the chunk is already
/// promoted or empty.
///
/// # Panics
///
/// Panics if `asid` is unknown or `head` is not giant-aligned.
pub fn copyless_promote_giant(
    guest: &mut GuestKernel,
    hyp: &mut Hypervisor,
    vm: AsId,
    asid: AsId,
    head: Vpn,
) -> Result<PvPromoteReport, PromoteError> {
    let geo = guest.ctx.geometry();
    let top = geo.largest();
    let huge = exchange_rung(&geo);
    let span = geo.base_pages(top);
    let hp = geo.base_pages(huge);
    let space = guest.spaces.get_mut(asid).expect("guest process exists");
    let profile = space.page_table().chunk_profile(head, top);
    if profile.mapped[top.rung()] > 0 || profile.mapped_total() == 0 {
        return Err(PromoteError::NotACandidate);
    }

    // Contiguous destination in guest-physical memory.
    let owner = MappingOwner { asid, vpn: head };
    let dst: Pfn = match guest.ctx.zero_pool.take_prepared(
        &mut guest.ctx.mem,
        FrameUse::User,
        Some(owner),
        &mut NoopRecorder,
    ) {
        Some(pfn) => pfn,
        None => guest
            .ctx
            .mem
            .allocate(top, FrameUse::User, Some(owner), &mut NoopRecorder)
            .map_err(|_| PromoteError::NoContiguity)?,
    };

    // Collect the old leaves and the exchange batch.
    let old = space.page_table().mappings_in(head, span);
    let mut pairs = Vec::new();
    let mut copied_pages = 0u64;
    for m in &old {
        if m.size == huge {
            let offset = m.vpn - head;
            pairs.push((Vpn::new(m.pfn.raw()), Vpn::new(dst.raw() + offset)));
        } else {
            copied_pages += geo.base_pages(m.size);
        }
    }

    // One batched hypercall exchanges every 2MB mapping.
    let mut ns = 0;
    let mut fell_back = false;
    let mut exchanged = pairs.len() as u64;
    if !pairs.is_empty() {
        match hyp.exchange_mappings(vm, &pairs, true) {
            Ok(hyp_ns) => {
                ns += hyp_ns;
                guest.ctx.span_begin(SpanKind::PvExchange);
                guest.ctx.record(Event::PvExchange {
                    pairs: exchanged,
                    bytes: exchanged * geo.bytes(huge),
                    batched: true,
                });
                guest.ctx.span_end(SpanKind::PvExchange, hyp_ns);
            }
            Err(_) => {
                // Fall back to copying everything (§6). The fallback event
                // carries exactly the bytes the exchange would have moved.
                fell_back = true;
                guest.ctx.record(Event::PvFallback {
                    bytes: exchanged * geo.bytes(huge),
                });
                copied_pages += exchanged * hp;
                exchanged = 0;
            }
        }
    }

    // Guest page-table surgery: replace the small leaves with one giant.
    let space = guest.spaces.get_mut(asid).expect("guest process exists");
    for m in &old {
        space
            .page_table_mut()
            .unmap(m.vpn)
            .expect("enumerated leaf");
    }
    space
        .page_table_mut()
        .map(head, dst, top)
        .expect("span was emptied");
    for m in &old {
        guest
            .ctx
            .mem
            .free(m.pfn, &mut NoopRecorder)
            .expect("old gPA block was live");
    }

    let bytes_copied = copied_pages * geo.base_bytes();
    ns += guest.ctx.cost.copy_ns(bytes_copied) + guest.ctx.cost.tlb_shootdown_ns;
    guest.ctx.record(Event::Promote {
        size: top,
        bytes_copied,
        bloat_pages: profile.unmapped,
    });

    Ok(PvPromoteReport {
        ns,
        pairs_exchanged: exchanged,
        bytes_copied,
        fell_back,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_core::{
        map_chunk, BasePolicy, PagePolicy, ThpPolicy, TridentConfig, TridentPolicy,
    };
    use trident_types::PageGeometry;
    use trident_vm::{AddressSpace, VmaKind};

    fn boot(host: Box<dyn PagePolicy>) -> (Hypervisor, crate::VirtualMachine) {
        let geo = PageGeometry::TINY;
        let mut hyp = Hypervisor::new(geo, 32 * 64, |_| Ok(host)).unwrap();
        let mut vm = hyp
            .create_vm(16 * 64, |_| {
                Ok(Box::new(TridentPolicy::new(TridentConfig::paravirt())))
            })
            .unwrap();
        let mut proc = AddressSpace::new(AsId::new(1), geo);
        proc.mmap_at(Vpn::new(0), 4 * 64, VmaKind::Anon).unwrap();
        vm.kernel.spaces.insert(proc);
        (hyp, vm)
    }

    /// Back a gVA range with huge pages in the guest, touching the host.
    fn back_with_huge(
        hyp: &mut Hypervisor,
        vm: &mut crate::VirtualMachine,
        start: u64,
        huge_count: u64,
    ) {
        for i in 0..huge_count {
            let head = Vpn::new(start + i * 8);
            let space = vm.kernel.spaces.get_mut(AsId::new(1)).unwrap();
            map_chunk(&mut vm.kernel.ctx, space, head, PageSize::new(1)).unwrap();
            // Touch so the host backs the gPA.
            vm.touch(hyp, AsId::new(1), head, true).unwrap();
        }
    }

    #[test]
    fn figure8_exchange_preserves_host_frames() {
        let (mut hyp, mut vm) = boot(Box::new(ThpPolicy::new()));
        back_with_huge(&mut hyp, &mut vm, 0, 2);
        let vm_id = vm.id();
        // Record the host frames backing the two old gPA huge pages.
        let old_gpas: Vec<Vpn> = {
            let space = vm.kernel.spaces.get(AsId::new(1)).unwrap();
            space
                .page_table()
                .mappings_in(Vpn::new(0), 16)
                .iter()
                .map(|m| Vpn::new(m.pfn.raw()))
                .collect()
        };
        let old_hpas: Vec<Pfn> = old_gpas
            .iter()
            .map(|g| {
                hyp.spaces
                    .get(vm_id)
                    .unwrap()
                    .page_table()
                    .translate(*g)
                    .unwrap()
                    .head_pfn
            })
            .collect();
        // Promote gVA chunk [0, 64) copy-lessly.
        let report =
            copyless_promote_giant(&mut vm.kernel, &mut hyp, vm_id, AsId::new(1), Vpn::new(0))
                .unwrap();
        assert_eq!(report.pairs_exchanged, 2);
        assert!(!report.fell_back);
        assert_eq!(report.bytes_copied, 0);
        // The guest now has one giant leaf over contiguous gPA...
        let space = vm.kernel.spaces.get(AsId::new(1)).unwrap();
        let t = space.page_table().translate(Vpn::new(0)).unwrap();
        assert_eq!(t.size, PageSize::new(2));
        // ...and the new gPA sub-ranges map to the host frames that held
        // the data (Figure 8c).
        let host = hyp.spaces.get(vm_id).unwrap();
        for (i, old_hpa) in old_hpas.iter().enumerate() {
            let new_gpa = Vpn::new(t.head_pfn.raw() + (i as u64) * 8);
            let backing = host.page_table().translate(new_gpa).unwrap().head_pfn;
            assert_eq!(backing, *old_hpa, "data moved without copy");
        }
        hyp.ctx.mem.assert_consistent();
        vm.kernel.ctx.mem.assert_consistent();
    }

    #[test]
    fn exchange_splits_host_giant_leaves() {
        // Host runs Trident, so gPAs are backed by giant host leaves that
        // must be split before a 2MB exchange.
        let (mut hyp, mut vm) = boot(Box::new(TridentPolicy::new(TridentConfig::full())));
        back_with_huge(&mut hyp, &mut vm, 0, 2);
        let vm_id = vm.id();
        let host = hyp.spaces.get(vm_id).unwrap();
        let gpa0 = {
            let space = vm.kernel.spaces.get(AsId::new(1)).unwrap();
            Vpn::new(
                space
                    .page_table()
                    .translate(Vpn::new(0))
                    .unwrap()
                    .head_pfn
                    .raw(),
            )
        };
        assert_eq!(
            host.page_table().translate(gpa0).unwrap().size,
            PageSize::new(2)
        );
        let report =
            copyless_promote_giant(&mut vm.kernel, &mut hyp, vm_id, AsId::new(1), Vpn::new(0))
                .unwrap();
        assert!(!report.fell_back);
        // The affected host mappings are now huge-grained.
        let host = hyp.spaces.get(vm_id).unwrap();
        assert_eq!(
            host.page_table().translate(gpa0).unwrap().size,
            PageSize::new(1)
        );
        hyp.ctx.mem.assert_consistent();
    }

    #[test]
    fn exchange_rejects_base_grained_backing() {
        let (mut hyp, mut vm) = boot(Box::new(BasePolicy::new()));
        back_with_huge(&mut hyp, &mut vm, 0, 1);
        let vm_id = vm.id();
        let err = hyp
            .exchange_mappings(vm_id, &[(Vpn::new(0), Vpn::new(64))], true)
            .unwrap_err();
        assert!(matches!(err, PvError::SizeMismatch { .. }));
    }

    #[test]
    fn fallback_copies_when_exchange_fails() {
        let (mut hyp, mut vm) = boot(Box::new(BasePolicy::new()));
        back_with_huge(&mut hyp, &mut vm, 0, 2);
        let vm_id = vm.id();
        let report =
            copyless_promote_giant(&mut vm.kernel, &mut hyp, vm_id, AsId::new(1), Vpn::new(0))
                .unwrap();
        assert!(report.fell_back);
        assert_eq!(report.pairs_exchanged, 0);
        assert_eq!(report.bytes_copied, 16 * 4096);
        // The promotion still happened, just by copying.
        let space = vm.kernel.spaces.get(AsId::new(1)).unwrap();
        assert_eq!(
            space.page_table().translate(Vpn::new(0)).unwrap().size,
            PageSize::new(2)
        );
    }

    /// Satellite check: under an injected hypercall failure the guest
    /// falls back to copying *exactly* the bytes the exchange would have
    /// moved, and the fallback is visible in the guest's stats.
    #[test]
    fn injected_hypercall_failure_copies_exactly_the_exchange_bytes() {
        use trident_core::{FaultInjector, FaultPlan, InjectSite};
        // A THP host would normally let the exchange succeed — only the
        // injected fault forces the fallback.
        let (mut hyp, mut vm) = boot(Box::new(ThpPolicy::new()));
        back_with_huge(&mut hyp, &mut vm, 0, 2);
        let vm_id = vm.id();
        let plan = FaultPlan::builder(7)
            .site(InjectSite::PvExchange, 1000)
            .build()
            .unwrap();
        hyp.ctx.fault = FaultInjector::new(plan);
        let report =
            copyless_promote_giant(&mut vm.kernel, &mut hyp, vm_id, AsId::new(1), Vpn::new(0))
                .unwrap();
        assert!(report.fell_back);
        assert_eq!(report.pairs_exchanged, 0);
        // The two 2MB pairs (8 base pages each, TINY geometry) that the
        // exchange would have moved are exactly what got copied.
        assert_eq!(report.bytes_copied, 2 * 8 * 4096);
        let guest = vm.kernel.ctx.snapshot();
        assert_eq!(guest.pv_fallbacks, 1);
        assert_eq!(guest.pv_fallback_bytes, report.bytes_copied);
        assert_eq!(guest.pv_bytes_exchanged, 0, "nothing was exchanged");
        // The promotion itself still completed gracefully.
        let space = vm.kernel.spaces.get(AsId::new(1)).unwrap();
        assert_eq!(
            space.page_table().translate(Vpn::new(0)).unwrap().size,
            PageSize::new(2)
        );
        hyp.ctx.mem.assert_consistent();
        vm.kernel.ctx.mem.assert_consistent();
    }

    /// Satellite check: guest and host stats reconcile under injected
    /// hypercall failures — every guest-side fallback matches one
    /// host-side injected PvExchange fault, and exchange accounting stays
    /// exclusive (a promotion either exchanges or falls back, never both).
    #[test]
    fn guest_and_host_stats_reconcile_under_injected_failures() {
        use trident_core::{FaultInjector, FaultPlan, InjectSite};
        let (mut hyp, mut vm) = boot(Box::new(ThpPolicy::new()));
        // Two independent giant chunks, each backed by two 2MB pages.
        back_with_huge(&mut hyp, &mut vm, 0, 2);
        back_with_huge(&mut hyp, &mut vm, 64, 2);
        let vm_id = vm.id();
        // 50% per-hypercall failure probability: with seed 3 one of the
        // two promotions falls back and one succeeds (deterministic).
        let plan = FaultPlan::builder(3)
            .site(InjectSite::PvExchange, 500)
            .build()
            .unwrap();
        hyp.ctx.fault = FaultInjector::new(plan);
        let mut fallbacks = 0u64;
        let mut exchanged_pairs = 0u64;
        for head in [0u64, 64] {
            let report = copyless_promote_giant(
                &mut vm.kernel,
                &mut hyp,
                vm_id,
                AsId::new(1),
                Vpn::new(head),
            )
            .unwrap();
            fallbacks += u64::from(report.fell_back);
            exchanged_pairs += report.pairs_exchanged;
        }
        assert_eq!(fallbacks, 1, "seed 3 fails exactly one of two hypercalls");
        let guest = vm.kernel.ctx.snapshot();
        let host = hyp.ctx.snapshot();
        // One-to-one: guest fallbacks == host injected PvExchange faults.
        assert_eq!(guest.pv_fallbacks, fallbacks);
        assert_eq!(host.injected_at(InjectSite::PvExchange), fallbacks);
        assert_eq!(hyp.ctx.fault.injected(InjectSite::PvExchange), 1);
        // Exclusivity: the surviving promotion's pairs are all exchanged,
        // the failed one's bytes all fell back.
        assert_eq!(exchanged_pairs, 2);
        assert_eq!(guest.pv_bytes_exchanged, 2 * 8 * 4096);
        assert_eq!(guest.pv_fallback_bytes, 2 * 8 * 4096);
        hyp.ctx.mem.assert_consistent();
        vm.kernel.ctx.mem.assert_consistent();
    }

    #[test]
    fn batched_exchange_is_far_cheaper_than_unbatched() {
        let (mut hyp, mut vm) = boot(Box::new(ThpPolicy::new()));
        back_with_huge(&mut hyp, &mut vm, 0, 8);
        let vm_id = vm.id();
        let space = vm.kernel.spaces.get(AsId::new(1)).unwrap();
        let pairs: Vec<(Vpn, Vpn)> = space
            .page_table()
            .mappings_in(Vpn::new(0), 64)
            .iter()
            .map(|m| (Vpn::new(m.pfn.raw()), Vpn::new(m.pfn.raw())))
            .collect();
        // Self-exchanges are a no-op semantically but cost the same.
        let batched = hyp.exchange_mappings(vm_id, &pairs, true).unwrap();
        let unbatched = hyp.exchange_mappings(vm_id, &pairs, false).unwrap();
        assert!(unbatched > 10 * batched);
        assert_eq!(hyp.hypercalls(), 1 + pairs.len() as u64);
    }

    #[test]
    fn pv_unmapped_destination_gets_faulted_in() {
        let (mut hyp, mut vm) = boot(Box::new(ThpPolicy::new()));
        back_with_huge(&mut hyp, &mut vm, 0, 1);
        let vm_id = vm.id();
        // Destination gPA 8*8=64 was never touched: the hypervisor must
        // fault it in during the exchange.
        let gpa_src = {
            let space = vm.kernel.spaces.get(AsId::new(1)).unwrap();
            Vpn::new(
                space
                    .page_table()
                    .translate(Vpn::new(0))
                    .unwrap()
                    .head_pfn
                    .raw(),
            )
        };
        let ns = hyp
            .exchange_mappings(vm_id, &[(gpa_src, Vpn::new(8 * 8))], true)
            .unwrap();
        assert!(ns > 0);
        let host = hyp.spaces.get(vm_id).unwrap();
        assert!(host.page_table().translate(Vpn::new(8 * 8)).is_some());
    }
}
