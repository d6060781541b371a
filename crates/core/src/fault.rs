//! Shared fault-path helpers.

use trident_phys::{FrameUse, MappingOwner, PhysMemError};
use trident_types::{PageSize, Pfn, Vpn};
use trident_vm::AddressSpace;

use trident_obs::{AllocSite, Event, InjectSite, Recorder};

use crate::{MmContext, PagePolicy, PolicyError};

/// Result of servicing one page fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The page size that ended up mapping the faulting address.
    pub size: PageSize,
    /// Fault latency in nanoseconds.
    pub latency_ns: u64,
    /// For 1GB faults: whether a pre-zeroed block was used.
    pub prepared: bool,
}

/// If the `size`-aligned chunk containing `vpn` lies entirely inside one
/// VMA and is currently completely unmapped, returns its head page.
///
/// This is THP's fault-time test generalized to any size: the faulting
/// address must fall "within a virtual address range that is at least as
/// big as and aligned with the large page size" (§2), and nothing in the
/// chunk may be mapped yet.
#[must_use]
pub fn touched_chunk(space: &AddressSpace, vpn: Vpn, size: PageSize) -> Option<Vpn> {
    let geo = space.geometry();
    let span = geo.base_pages(size);
    let head = Vpn::new(vpn.raw() / span * span);
    let vma = space.vma_containing(vpn)?;
    if head.raw() < vma.start.raw() || head.raw() + span > vma.end().raw() {
        return None;
    }
    let profile = space.page_table().chunk_profile(head, size);
    (profile.mapped_total() == 0).then_some(head)
}

/// Like [`touched_chunk`], but with reservation ("hugetlbfs") semantics:
/// the chunk only needs to *start* inside the faulting VMA and be fully
/// unmapped. `libHugetlbfs` rounds segments up to the page size, so a
/// reservation-backed page may extend past the segment end — the source
/// of hugetlbfs's memory bloat (§7 notes Btree's 1GB-Hugetlbfs win comes
/// "at the cost of bloating memory footprint").
#[must_use]
pub fn touched_chunk_reserved(space: &AddressSpace, vpn: Vpn, size: PageSize) -> Option<Vpn> {
    let geo = space.geometry();
    let span = geo.base_pages(size);
    let head = Vpn::new(vpn.raw() / span * span);
    let vma = space.vma_containing(vpn)?;
    if head.raw() + span <= vma.start.raw() {
        return None;
    }
    let profile = space.page_table().chunk_profile(head, size);
    (profile.mapped_total() == 0).then_some(head)
}

/// Allocates a frame of `size` and maps it at `head_vpn` with the
/// reverse-map owner registered. For giant pages, tries the pre-zeroed pool
/// first; returns whether a prepared block was used.
///
/// Under a fault plan with an active [`Alloc`](InjectSite::Alloc)
/// rule, a large-page allocation can fail by injection before reaching the
/// allocator; base-page allocations are the last-resort path every fallback
/// chain ends in and are never injected.
///
/// # Errors
///
/// Propagates [`PhysMemError`] when no contiguous chunk exists — the signal
/// to fall back to a smaller size.
pub fn map_chunk(
    ctx: &mut MmContext,
    space: &mut AddressSpace,
    head_vpn: Vpn,
    size: PageSize,
) -> Result<(Pfn, bool), PhysMemError> {
    if size != PageSize::BASE && ctx.inject(InjectSite::Alloc) {
        return Err(PhysMemError::OutOfContiguousMemory(
            trident_types::AllocError {
                order: ctx.geometry().order(size),
            },
        ));
    }
    let owner = MappingOwner {
        asid: space.id(),
        vpn: head_vpn,
    };
    // The zero-fill pool prepares blocks of the ladder's top rung only.
    let (pfn, prepared) = if size == ctx.geometry().largest() {
        match ctx.zero_pool.take_prepared(
            &mut ctx.mem,
            FrameUse::User,
            Some(owner),
            &mut ctx.recorder,
        ) {
            Some(pfn) => (pfn, true),
            None => (
                ctx.mem
                    .allocate(size, FrameUse::User, Some(owner), &mut ctx.recorder)?,
                false,
            ),
        }
    } else {
        (
            ctx.mem
                .allocate(size, FrameUse::User, Some(owner), &mut ctx.recorder)?,
            false,
        )
    };
    space
        .page_table_mut()
        .map(head_vpn, pfn, size)
        .expect("chunk was verified unmapped and aligned");
    Ok((pfn, prepared))
}

/// The 4KB fault that ends every policy's fallback chain: maps a base
/// page at `vpn` and records the fault.
///
/// # Errors
///
/// [`PolicyError::BadAddress`] when no VMA holds `vpn`, or the allocation
/// error when no base frame is free.
pub(crate) fn fault_base(
    ctx: &mut MmContext,
    space: &mut AddressSpace,
    vpn: Vpn,
) -> Result<FaultOutcome, PolicyError> {
    if space.vma_containing(vpn).is_none() {
        return Err(PolicyError::BadAddress(vpn));
    }
    map_chunk(ctx, space, vpn, PageSize::BASE)?;
    let latency = ctx.cost.fault_base_ns;
    ctx.record_fault(PageSize::BASE, latency);
    Ok(FaultOutcome {
        size: PageSize::BASE,
        latency_ns: latency,
        prepared: false,
    })
}

/// THP's fault, which HawkEye shares: a rung-1 page when the rung-1
/// chunk around `vpn` lies inside its VMA, is wholly unmapped and a free
/// block of its order is left, else [`fault_base`].
///
/// # Errors
///
/// As [`fault_base`].
pub(crate) fn fault_huge_or_base(
    ctx: &mut MmContext,
    space: &mut AddressSpace,
    vpn: Vpn,
) -> Result<FaultOutcome, PolicyError> {
    let huge = PageSize::new(1);
    if let Some(head) = touched_chunk(space, vpn, huge) {
        // An injected allocation fault degrades to the 4KB path below;
        // without injection the has_free check makes map_chunk
        // infallible here.
        if ctx.mem.has_free(huge) && map_chunk(ctx, space, head, huge).is_ok() {
            let latency = ctx.cost.fault_ns(&ctx.geometry(), huge, false);
            ctx.record_fault(huge, latency);
            return Ok(FaultOutcome {
                size: huge,
                latency_ns: latency,
                prepared: false,
            });
        }
    }
    fault_base(ctx, space, vpn)
}

/// The batched populate shared by the 4KB baseline (`decide` = `None`)
/// and THP and Trident (`decide` = rung 1, the smallest large page their
/// fault handlers try).
///
/// With `decide` set, the first unmapped page of each `decide`-sized
/// chunk is faulted by today's rules.
/// - If it lands at 4KB, the chunk is now partly mapped, so every later
///   fault inside it would land at 4KB too; the rest of the chunk inside
///   the run and the VMA is mapped as one 4KB run.
/// - If it lands at `decide`, the chunks that follow are mapped at
///   `decide` as one run while each lies inside the VMA, is wholly
///   unmapped, starts before the run's end and before the next boundary
///   of the rung above, and a free block of `decide`'s order is left for
///   it. These are exactly the chunks whose own first fault would land at
///   `decide`: THP never maps above it, and Trident's test of the rung
///   above fails because that chunk is now partly mapped.
///
/// Without `decide`, every unmapped page is a 4KB fault, and each scan
/// is bounded by the run's own cap.
///
/// A fault plan changes what fails, not which path runs: 4KB faults are
/// never injected, and a run of `decide` chunks draws the
/// [`Alloc`](InjectSite::Alloc) decision each chunk's own fault would
/// draw (see [`map_chunks_after`]). A recorder takes the runs too, and
/// each run records the events of its faults one by one (see
/// [`fault_run`]).
pub(crate) fn populate_runs<P: PagePolicy + ?Sized>(
    policy: &mut P,
    ctx: &mut MmContext,
    space: &mut AddressSpace,
    start: Vpn,
    pages: u64,
    decide: Option<PageSize>,
) -> Result<(), PolicyError> {
    let geo = space.geometry();
    let end = start + pages;
    let mut vpn = start;
    while vpn < end {
        if let Some(t) = space.page_table().translate(vpn) {
            vpn = end.min(t.head_vpn + geo.base_pages(t.size));
            continue;
        }
        let vma_end = space
            .vma_containing(vpn)
            .ok_or(PolicyError::BadAddress(vpn))?
            .end();
        let mut limit = end.min(vma_end);
        let mut run = vpn;
        if let Some(size) = decide {
            let landed = policy.on_fault(ctx, space, vpn)?.size;
            if landed == size {
                vpn = map_chunks_after(ctx, space, vpn, end, vma_end, size)?;
            }
            if landed != PageSize::BASE {
                continue;
            }
            let span = geo.base_pages(size);
            run = vpn + 1;
            limit = limit.min(Vpn::new((vpn.raw() / span + 1) * span));
        }
        let n = space
            .page_table()
            .unmapped_run(run, limit - run)
            .min(ctx.mem.free_pages());
        if n > 0 {
            fault_run(ctx, space, run, PageSize::BASE, n)?;
        } else if decide.is_none() {
            // No free frame is left: one fault raises today's error.
            policy.on_fault(ctx, space, vpn)?;
        }
        vpn = run + n;
    }
    Ok(())
}

/// After a fault at `vpn` mapped its `size` chunk, maps the chunks that
/// follow at `size` as one run (see [`populate_runs`]) and returns
/// the first page not yet visited.
///
/// Each chunk's own fault would draw one [`Alloc`](InjectSite::Alloc)
/// decision before allocating, so each chunk draws one here. A chunk
/// whose draw fires ends the run: the chunks before it are mapped, its
/// injection is recorded, and its head falls back to a 4KB fault, as
/// the fault handler's fallback chain would leave it.
fn map_chunks_after(
    ctx: &mut MmContext,
    space: &mut AddressSpace,
    vpn: Vpn,
    end: Vpn,
    vma_end: Vpn,
    size: PageSize,
) -> Result<Vpn, PolicyError> {
    let geo = space.geometry();
    // Runs bypass the zero-fill pool, which serves the top rung only.
    let above = geo.larger(size).expect("chunk runs map below the top rung");
    let span = geo.base_pages(size);
    let above_span = geo.base_pages(above);
    let first = (vpn.raw() / span + 1) * span;
    let stop = vma_end.raw().min((vpn.raw() / above_span + 1) * above_span);
    let free = ctx.mem.buddy().free_capacity(geo.order(size));
    let mut n = 0;
    let mut chunk = first;
    let mut injected = false;
    while n < free
        && chunk < end.raw()
        && chunk + span <= stop
        && space
            .page_table()
            .chunk_profile(Vpn::new(chunk), size)
            .mapped_total()
            == 0
    {
        if ctx.fault.should_inject(InjectSite::Alloc) {
            injected = true;
            break;
        }
        n += 1;
        chunk += span;
    }
    if n > 0 {
        fault_run(ctx, space, Vpn::new(first), size, n)?;
    }
    if injected {
        ctx.record(Event::FaultInjected {
            site: InjectSite::Alloc,
        });
        fault_base(ctx, space, Vpn::new(chunk))?;
    }
    Ok(Vpn::new(chunk))
}

/// Maps `n` pages of `size` from `vpn` exactly as `n` faults at `size`
/// would, with one buddy run and one
/// [`map_run`](trident_vm::PageTable::map_run). The pages must be
/// unmapped and lie in one VMA, and at least `n` blocks of `size`'s order
/// must be free.
///
/// With no recorder listening, the `n` faults are one fold. With one,
/// each block in address order records what its fault records: the
/// buddy split of its allocation, if any, then the fault and its span.
fn fault_run(
    ctx: &mut MmContext,
    space: &mut AddressSpace,
    vpn: Vpn,
    size: PageSize,
    n: u64,
) -> Result<(), PolicyError> {
    let geo = space.geometry();
    let order = geo.order(size);
    let listening = ctx.recorder.enabled();
    let mut frames = std::mem::take(&mut ctx.run_frames);
    let mut splits = std::mem::take(&mut ctx.run_splits);
    frames.clear();
    splits.clear();
    let owner = MappingOwner {
        asid: space.id(),
        vpn,
    };
    ctx.mem.allocate_run(
        order,
        n,
        FrameUse::User,
        Some(owner),
        &mut frames,
        listening.then_some(&mut splits),
    )?;
    space
        .page_table_mut()
        .map_run(vpn, &frames, size)
        .expect("chunks were verified unmapped and aligned");
    let ns = ctx.cost.fault_ns(&geo, size, false);
    if listening {
        for &from_order in &splits {
            if from_order > order {
                ctx.recorder.record(Event::BuddySplit {
                    from_order,
                    to_order: order,
                });
            }
            ctx.record_fault(size, ns);
        }
    } else {
        ctx.record_n(
            Event::Fault {
                size,
                site: AllocSite::PageFault,
                ns,
            },
            n,
        );
    }
    ctx.run_frames = frames;
    ctx.run_splits = splits;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_phys::PhysicalMemory;
    use trident_types::{AsId, PageGeometry};
    use trident_vm::VmaKind;

    fn setup() -> (MmContext, AddressSpace) {
        let geo = PageGeometry::TINY;
        let ctx = MmContext::new(PhysicalMemory::new(
            geo,
            8 * geo.base_pages(PageSize::new(2)),
        ));
        (ctx, AddressSpace::new(AsId::new(1), geo))
    }

    #[test]
    fn touched_chunk_requires_full_containment() {
        let (_, mut space) = setup();
        // VMA of 100 pages starting at page 4: giant chunk [0,64) sticks
        // out at the front, [64,128) sticks out at the back.
        space.mmap_at(Vpn::new(4), 100, VmaKind::Anon).unwrap();
        assert_eq!(touched_chunk(&space, Vpn::new(10), PageSize::new(2)), None);
        assert_eq!(
            touched_chunk(&space, Vpn::new(10), PageSize::new(1)),
            Some(Vpn::new(8))
        );
        // A VMA covering two full giant chunks qualifies.
        let mut s2 = AddressSpace::new(AsId::new(2), PageGeometry::TINY);
        s2.mmap_at(Vpn::new(0), 128, VmaKind::Anon).unwrap();
        assert_eq!(
            touched_chunk(&s2, Vpn::new(70), PageSize::new(2)),
            Some(Vpn::new(64))
        );
    }

    #[test]
    fn touched_chunk_rejects_partially_mapped_chunks() {
        let (mut ctx, mut space) = setup();
        space.mmap_at(Vpn::new(0), 64, VmaKind::Anon).unwrap();
        map_chunk(&mut ctx, &mut space, Vpn::new(0), PageSize::BASE).unwrap();
        assert_eq!(touched_chunk(&space, Vpn::new(9), PageSize::new(2)), None);
        // But a fresh huge chunk inside is fine.
        assert_eq!(
            touched_chunk(&space, Vpn::new(9), PageSize::new(1)),
            Some(Vpn::new(8))
        );
    }

    #[test]
    fn touched_chunk_outside_any_vma_is_none() {
        let (_, space) = setup();
        assert_eq!(touched_chunk(&space, Vpn::new(5), PageSize::BASE), None);
    }

    #[test]
    fn map_chunk_registers_owner_and_prefers_prepared() {
        let (mut ctx, mut space) = setup();
        space.mmap_at(Vpn::new(0), 64, VmaKind::Anon).unwrap();
        ctx.zero_pool.tick(&ctx.mem, &ctx.cost.clone(), 1);
        let (pfn, prepared) =
            map_chunk(&mut ctx, &mut space, Vpn::new(0), PageSize::new(2)).unwrap();
        assert!(prepared);
        let owner = ctx.mem.unit_at(pfn).unwrap().owner.unwrap();
        assert_eq!(owner.asid, AsId::new(1));
        assert_eq!(owner.vpn, Vpn::new(0));
        assert!(space.page_table().translate(Vpn::new(3)).is_some());
    }

    #[test]
    fn map_chunk_without_prepared_blocks_is_unprepared() {
        let (mut ctx, mut space) = setup();
        space.mmap_at(Vpn::new(0), 64, VmaKind::Anon).unwrap();
        let (_, prepared) = map_chunk(&mut ctx, &mut space, Vpn::new(0), PageSize::new(2)).unwrap();
        assert!(!prepared);
    }
}
