//! Large-page promotion: the Figure 5 algorithm.
//!
//! Trident extends THP's `khugepaged` daemon: it scans a candidate
//! process's virtual address space looking for 1GB-mappable ranges mapped
//! with smaller pages and promotes them, requesting (smart) compaction when
//! no free 1GB chunk exists; when even compaction fails, it falls back to
//! promoting the constituent 2MB chunks — Trident's "use every page size"
//! policy. Plain THP is the same machine restricted to 2MB targets with
//! normal compaction; HawkEye additionally orders candidates by access
//! frequency.

use core::fmt;
use std::error::Error;

use trident_obs::{Event, InjectSite, SpanKind};
use trident_phys::{FrameUse, MappingOwner};
use trident_types::{AsId, DenseBitSet, PageSize, Vpn, MAX_RUNGS};
use trident_vm::{promotion_candidates, AddressSpace};

use crate::{CompactionKind, Compactor, MmContext, PolicyHint, SpaceSet, TickOutcome};

/// How the data lands in the newly promoted page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PromotionStyle {
    /// Copy the contents of the old pages into the new large page (native
    /// execution, and the guest's only option without paravirtualization).
    Copy,
    /// Trident_pv: exchange gPA→hPA mappings instead of copying the
    /// 2MB-mapped portions, batching all exchanges into one hypercall (§6).
    PvBatched,
}

/// Why a promotion attempt did not happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromoteError {
    /// No contiguous physical chunk of the target size was available.
    NoContiguity,
    /// The chunk is not promotable (already at the target size, or empty).
    NotACandidate,
}

impl fmt::Display for PromoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromoteError::NoContiguity => f.write_str("no contiguous physical chunk for promotion"),
            PromoteError::NotACandidate => f.write_str("chunk is not promotable"),
        }
    }
}

impl Error for PromoteError {}

/// What a single chunk promotion cost and produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromoteOutcome {
    /// Daemon CPU time in nanoseconds.
    pub ns: u64,
    /// Bytes physically copied.
    pub bytes_copied: u64,
    /// gPA→hPA pairs exchanged instead of copied (the pv style only).
    pub pairs_exchanged: u64,
    /// Base pages newly backed that the application never touched.
    pub bloat_pages: u64,
}

/// A promoted chunk, remembered so bloat-recovery can demote it later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotedChunk {
    /// Owning address space.
    pub asid: AsId,
    /// Chunk head page.
    pub head: Vpn,
    /// Size it was promoted to.
    pub size: PageSize,
    /// Untouched base pages newly backed by the promotion.
    pub bloat_pages: u64,
}

/// Promotes the `target`-aligned chunk at `head` in space `asid` to one
/// `target` page: allocates the destination (preferring the pre-zeroed
/// pool for giant pages), unmaps the constituent smaller mappings, installs
/// the large leaf, frees the old frames, and accounts copy/exchange/zero
/// costs per `style`.
///
/// # Errors
///
/// [`PromoteError::NoContiguity`] when no frame of `target` size could be
/// allocated; [`PromoteError::NotACandidate`] when the chunk is already at
/// `target` size or has nothing mapped.
///
/// # Panics
///
/// Panics if `asid` is not in `spaces` or `head` is not `target`-aligned.
pub fn promote_chunk(
    ctx: &mut MmContext,
    spaces: &mut SpaceSet,
    asid: AsId,
    head: Vpn,
    target: PageSize,
    style: PromotionStyle,
) -> Result<PromoteOutcome, PromoteError> {
    let geo = ctx.geometry();
    let span = geo.base_pages(target);
    let space = spaces.get_mut(asid).expect("candidate space exists");
    let profile = space.page_table().chunk_profile(head, target);
    let already_at_target = target.is_base()
        || profile.mapped[target.rung()..]
            .iter()
            .any(|&pages| pages > 0);
    if already_at_target || profile.mapped_total() == 0 {
        return Err(PromoteError::NotACandidate);
    }

    // Destination frame; for the ladder's top rung prefer an async-zeroed
    // block from the pool.
    let owner = MappingOwner { asid, vpn: head };
    let (dst, prepared) = if target == geo.largest() {
        match ctx.zero_pool.take_prepared(
            &mut ctx.mem,
            FrameUse::User,
            Some(owner),
            &mut ctx.recorder,
        ) {
            Some(pfn) => (pfn, true),
            None => {
                match ctx
                    .mem
                    .allocate(target, FrameUse::User, Some(owner), &mut ctx.recorder)
                {
                    Ok(pfn) => (pfn, false),
                    Err(_) => return Err(PromoteError::NoContiguity),
                }
            }
        }
    } else {
        match ctx
            .mem
            .allocate(target, FrameUse::User, Some(owner), &mut ctx.recorder)
        {
            Ok(pfn) => (pfn, false),
            Err(_) => return Err(PromoteError::NoContiguity),
        }
    };

    // Replace the small mappings with the single large leaf.
    let old = space.page_table().mappings_in(head, span);
    for m in &old {
        space
            .page_table_mut()
            .unmap(m.vpn)
            .expect("enumerated leaf");
    }
    space
        .page_table_mut()
        .map(head, dst, target)
        .expect("span was emptied");
    let old_heads: Vec<_> = old.iter().map(|m| (m.pfn, m.size, m.vpn)).collect();
    for (pfn, size, vpn) in old_heads {
        ctx.mem.free(pfn, &mut ctx.recorder).unwrap_or_else(|e| {
            panic!(
                "old frame was live: {e}; leaf size {size:?} vpn {vpn} unit_at {:?} head_of {:?}",
                ctx.mem.unit_at(pfn),
                ctx.mem.frames().head_of(pfn),
            )
        });
    }

    // Cost accounting. Only pages mapped by natural table-level leaves at
    // PMD level or above can have their gPA→hPA mappings exchanged; base
    // pages and group leaves (NAPOT / contiguous spans are just runs of
    // PTEs) are copied as before (§6).
    let base_bytes = geo.base_bytes();
    let mut exchangeable_pages = 0;
    let mut pairs_available = 0;
    for size in geo.rungs() {
        if size < target && geo.level(size) >= 2 && !geo.is_group(size) {
            exchangeable_pages += profile.mapped[size.rung()];
            pairs_available += profile.mapped[size.rung()] / geo.base_pages(size);
        }
    }
    let huge_bytes = exchangeable_pages * base_bytes;
    let small_bytes = (profile.mapped_total() - exchangeable_pages) * base_bytes;
    let (copied, pairs, move_ns) = match style {
        PromotionStyle::Copy => {
            let bytes = huge_bytes + small_bytes;
            (bytes, 0, ctx.cost.copy_ns(bytes))
        }
        PromotionStyle::PvBatched => {
            // Only the table-level large-mapped portions benefit from the
            // exchange; base mappings are copied as before (§6).
            let pairs = pairs_available;
            let exchange_ns = ctx.cost.pv_batched_exchange_ns(pairs);
            if huge_bytes > 0 {
                ctx.span_begin(SpanKind::PvExchange);
                ctx.record(Event::PvExchange {
                    pairs,
                    bytes: huge_bytes,
                });
                ctx.span_end(SpanKind::PvExchange, exchange_ns);
            }
            (
                small_bytes,
                pairs,
                exchange_ns + ctx.cost.copy_ns(small_bytes),
            )
        }
    };
    // Untouched parts of the new page must be zero; prepared giant blocks
    // already are.
    let zero_ns = if prepared {
        0
    } else {
        ctx.cost.zero_ns(profile.unmapped * base_bytes)
    };
    let ns = move_ns + zero_ns + ctx.cost.tlb_shootdown_ns;

    ctx.record(Event::Promote {
        size: target,
        bytes_copied: copied,
        bloat_pages: profile.unmapped,
    });

    Ok(PromoteOutcome {
        ns,
        bytes_copied: copied,
        pairs_exchanged: pairs,
        bloat_pages: profile.unmapped,
    })
}

/// Demotes a previously promoted chunk to recover its bloat: the large
/// leaf is torn down and only the touched portion is re-mapped with base
/// pages (HawkEye's bloat-recovery technique, which §7 borrows).
///
/// Returns the number of base pages recovered.
pub fn demote_chunk(ctx: &mut MmContext, spaces: &mut SpaceSet, chunk: &PromotedChunk) -> u64 {
    let geo = ctx.geometry();
    let Some(space) = spaces.get_mut(chunk.asid) else {
        return 0;
    };
    // The chunk may have been unmapped or re-promoted since.
    let Some(t) = space.page_table().translate(chunk.head) else {
        return 0;
    };
    if t.head_vpn != chunk.head || t.size != chunk.size {
        return 0;
    }
    let span = geo.base_pages(chunk.size);
    space
        .page_table_mut()
        .unmap(chunk.head)
        .expect("leaf exists");
    ctx.mem
        .free(t.head_pfn, &mut ctx.recorder)
        .expect("frame was live");
    // Re-back only the touched portion with base pages. (In the real
    // kernel this is an in-place split; the buddy model reallocates, which
    // is equivalent for accounting purposes.)
    let touched = span - chunk.bloat_pages.min(span);
    let mut restored = 0;
    for i in 0..touched {
        let vpn = chunk.head + i;
        let owner = MappingOwner {
            asid: chunk.asid,
            vpn,
        };
        let Ok(pfn) = ctx.mem.allocate(
            PageSize::BASE,
            FrameUse::User,
            Some(owner),
            &mut ctx.recorder,
        ) else {
            break;
        };
        space
            .page_table_mut()
            .map(vpn, pfn, PageSize::BASE)
            .expect("span was emptied");
        restored += 1;
    }
    let recovered = span - restored;
    ctx.record(Event::Demote {
        size: chunk.size,
        recovered_pages: chunk.bloat_pages.min(span),
    });
    recovered
}

/// Configuration of the promotion daemon: plain data, built from a
/// preset ([`PromoterConfig::thp`], [`PromoterConfig::trident`]) or a
/// struct literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromoterConfig {
    /// Promote to 1GB pages (Trident).
    pub use_giant: bool,
    /// Promote to 2MB pages (THP, HawkEye, Trident; off for
    /// Trident-1Gonly).
    pub use_huge: bool,
    /// Compaction algorithm used when contiguity is missing.
    pub compaction: CompactionKind,
    /// How promoted data reaches the new page.
    pub style: PromotionStyle,
    /// Maximum promotions attempted per tick.
    pub chunk_budget: usize,
    /// Order candidates by their number of leaves with the accessed bit
    /// set, most first (HawkEye), instead of by address (Linux). No
    /// production path clears accessed bits, so this counts the leaves
    /// touched at any time since they were mapped, not recent accesses.
    pub order_by_access: bool,
}

impl PromoterConfig {
    /// THP's `khugepaged`: 2MB only, normal compaction, address order.
    #[must_use]
    pub fn thp() -> PromoterConfig {
        PromoterConfig {
            use_giant: false,
            use_huge: true,
            compaction: CompactionKind::Normal,
            style: PromotionStyle::Copy,
            chunk_budget: 16,
            order_by_access: false,
        }
    }

    /// Trident's promoter: all sizes, smart compaction.
    #[must_use]
    pub fn trident() -> PromoterConfig {
        PromoterConfig {
            use_giant: true,
            use_huge: true,
            compaction: CompactionKind::Smart,
            style: PromotionStyle::Copy,
            chunk_budget: 16,
            order_by_access: false,
        }
    }
}

/// Per-space promotion-candidate index, kept current from the page table's
/// dirty-chunk feed instead of rescanning the whole address space each
/// tick. A full `promotion_candidates` enumeration primes it once; after
/// that, only chunks whose mappings or covering VMAs changed are
/// re-examined — O(changed chunks) per tick.
///
/// Candidates are packed bitmaps keyed by *chunk index* (head VPN divided
/// by the chunk span), so insert/remove during dirty replay are single bit
/// flips and enumeration is already in address order.
#[derive(Debug, Clone)]
struct CandidateCache {
    /// Chunk indices promotable to each rung, indexed by
    /// [`PageSize::rung`] (the base rung’s slot stays empty).
    sets: [DenseBitSet; MAX_RUNGS],
    /// Whether the priming scan has run.
    primed: bool,
}

impl Default for CandidateCache {
    fn default() -> Self {
        CandidateCache {
            sets: std::array::from_fn(|_| DenseBitSet::default()),
            primed: false,
        }
    }
}

/// The `khugepaged`-style background promoter.
#[derive(Debug, Clone)]
pub struct Promoter {
    config: PromoterConfig,
    compactor: Compactor,
    next_space: usize,
    /// Per target rung, indexed by [`PageSize::rung`]: whether a
    /// compaction for that rung already failed this tick.
    compaction_failed: [bool; MAX_RUNGS],
    /// Candidate indexes, a dense arena indexed by raw address-space id.
    caches: Vec<Option<CandidateCache>>,
    /// Reusable candidate-head buffer for the per-tick scan loops.
    head_buf: Vec<Vpn>,
    /// Reusable dirty-chunk drain buffer for candidate refresh.
    dirty_buf: Vec<u64>,
}

/// Whether the `size`-aligned chunk at `head` is currently worth promoting
/// — the single-chunk version of `promotion_candidates`' filter: the chunk
/// must lie fully inside one VMA, not already be mapped at (or above) the
/// target size, and have something mapped in it.
fn is_candidate(space: &AddressSpace, head: Vpn, size: PageSize) -> bool {
    let geo = space.geometry();
    let span = geo.base_pages(size);
    let Some(vma) = space.vma_containing(head) else {
        return false;
    };
    if head.raw() + span > vma.end().raw() {
        return false;
    }
    let profile = space.page_table().chunk_profile(head, size);
    let already = size.is_base() || profile.mapped[size.rung()..].iter().any(|&pages| pages > 0);
    !already && profile.mapped_total() > 0
}

impl Promoter {
    /// Creates a promoter with the given configuration.
    #[must_use]
    pub fn new(config: PromoterConfig) -> Promoter {
        Promoter {
            config,
            compactor: Compactor::new(config.compaction),
            next_space: 0,
            compaction_failed: [false; MAX_RUNGS],
            caches: Vec::new(),
            head_buf: Vec::new(),
            dirty_buf: Vec::new(),
        }
    }

    fn cache_slot(&mut self, asid: AsId) -> &mut Option<CandidateCache> {
        let idx = usize::try_from(asid.raw()).expect("asid fits usize");
        if idx >= self.caches.len() {
            self.caches.resize_with(idx + 1, || None);
        }
        &mut self.caches[idx]
    }

    fn cache(&self, asid: AsId) -> Option<&CandidateCache> {
        self.caches
            .get(usize::try_from(asid.raw()).expect("asid fits usize"))
            .and_then(Option::as_ref)
    }

    /// Brings the candidate index for `asid` up to date: a full priming
    /// scan on first contact, then only the chunks drained from the page
    /// table's dirty feed. Zero-alloc in steady state: the drain buffer is
    /// reused and candidate membership updates are bit flips.
    fn refresh_candidates(&mut self, spaces: &mut SpaceSet, asid: AsId) {
        let mut dirty = std::mem::take(&mut self.dirty_buf);
        let Some(space) = spaces.get_mut(asid) else {
            *self.cache_slot(asid) = None;
            self.dirty_buf = dirty;
            return;
        };
        let geo = space.geometry();
        let top_span = geo.base_pages(geo.largest());
        let cache = self.cache_slot(asid).get_or_insert_with(Default::default);
        if !cache.primed {
            // The priming enumeration subsumes any dirty backlog.
            space.page_table_mut().drain_dirty_chunks_into(&mut dirty);
            for size in geo.rungs().filter(|s| !s.is_base()) {
                let span = geo.base_pages(size);
                cache.sets[size.rung()] = promotion_candidates(space, size)
                    .into_iter()
                    .map(|(head, _)| head.raw() / span)
                    .collect();
            }
            cache.primed = true;
            self.dirty_buf = dirty;
            return;
        }
        // The dirty feed is keyed by top-rung chunks; re-examine every
        // sub-chunk of each dirty chunk at every promotable rung. A
        // sub-chunk is a candidate only if some page in it is mapped below
        // the rung, so where the chunk's totals (O(1) at the top rung)
        // show no such page, its bits are cleared without a test.
        space.page_table_mut().drain_dirty_chunks_into(&mut dirty);
        for &gi in &dirty {
            let head = gi * top_span;
            let totals = space
                .page_table()
                .chunk_profile(Vpn::new(head), geo.largest());
            for size in geo.rungs().filter(|s| !s.is_base()) {
                let span = geo.base_pages(size);
                let set = &mut cache.sets[size.rung()];
                let subs = (head..head + top_span).step_by(span as usize);
                if totals.mapped_below(size) == 0 {
                    for sub_head in subs {
                        set.remove(sub_head / span);
                    }
                    continue;
                }
                for sub_head in subs {
                    if is_candidate(space, Vpn::new(sub_head), size) {
                        set.insert(sub_head / span);
                    } else {
                        set.remove(sub_head / span);
                    }
                }
            }
        }
        self.dirty_buf = dirty;
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> PromoterConfig {
        self.config
    }

    /// One daemon tick: select the next candidate process weighted
    /// round-robin and scan its address space per Figure 5. Returns the
    /// tick summary and the chunks promoted (for bloat-recovery
    /// registries).
    ///
    /// The rotation consults the context's [`TenantDirectory`]: each round
    /// visits every space in id order, `weight` times each, so a tenant
    /// with weight 2 gets twice the daemon's attention. An empty directory
    /// (or all-ones weights) degenerates to the legacy plain rotation.
    ///
    /// [`TenantDirectory`]: crate::TenantDirectory
    pub fn tick(
        &mut self,
        ctx: &mut MmContext,
        spaces: &mut SpaceSet,
    ) -> (TickOutcome, Vec<PromotedChunk>) {
        let ids = spaces.ids();
        if ids.is_empty() {
            return (TickOutcome::default(), Vec::new());
        }
        let schedule: Vec<AsId> = ids
            .iter()
            .flat_map(|&a| std::iter::repeat_n(a, ctx.tenants.weight(a) as usize))
            .collect();
        let asid = schedule[self.next_space % schedule.len()];
        self.next_space = self.next_space.wrapping_add(1);
        self.scan_space(ctx, spaces, asid)
    }

    /// Scans one space per Figure 5, consulting the owning tenant's
    /// [`PolicyHint`] when the space is registered: an opted-out tenant is
    /// skipped entirely, a preferred page size masks the other promotion
    /// pass, a budget override replaces the daemon-wide one, and pinned
    /// ranges go to the front of the candidate order. While scanning, the
    /// context's attribution scope is the owning tenant, so daemon work
    /// lands in that tenant's counters.
    fn scan_space(
        &mut self,
        ctx: &mut MmContext,
        spaces: &mut SpaceSet,
        asid: AsId,
    ) -> (TickOutcome, Vec<PromotedChunk>) {
        let policy = ctx.tenants.policy(asid).cloned();
        let prev_scope = ctx.tenant_scope();
        if let Some(p) = &policy {
            ctx.set_tenant_scope(Some(p.tenant));
        }
        if policy.as_ref().is_some_and(|p| p.hint.promotion_opt_out) {
            ctx.set_tenant_scope(prev_scope);
            return (TickOutcome::default(), Vec::new());
        }
        let hint = policy.as_ref().map(|p| p.hint.clone());
        let preferred = hint.as_ref().and_then(|h| h.preferred_size);
        let geo = ctx.geometry();
        // The promotion ladder: every rung above base, largest first.
        // `use_giant` gates the top rung, `use_huge` the intermediate
        // ones; a tenant preference keeps only the preferred rung, and
        // preferring the base size declines promotion entirely (it would
        // only create larger pages).
        let ladder: Vec<PageSize> = (0..geo.rung_count())
            .rev()
            .map(PageSize::new)
            .filter(|&s| !s.is_base())
            .filter(|&s| {
                if s == geo.largest() {
                    self.config.use_giant
                } else {
                    self.config.use_huge
                }
            })
            .filter(|&s| preferred.is_none_or(|p| p == s))
            .collect();

        let mut out = TickOutcome::default();
        let mut promoted = Vec::new();
        let mut budget = policy
            .as_ref()
            .and_then(|p| p.chunk_budget)
            .unwrap_or(self.config.chunk_budget);
        self.compaction_failed = [false; MAX_RUNGS];
        ctx.span_begin(SpanKind::PromoScan);

        // Scanning the VA space costs daemon CPU proportional to its size.
        // The *simulated* cost stays the full-scan cost the paper models
        // (khugepaged really does walk the address space); only the
        // simulator's own work is incremental.
        let scan_pages = spaces
            .get(asid)
            .map(|s| s.total_vma_pages())
            .unwrap_or_default();
        out.daemon_ns += scan_pages * ctx.cost.scan_page_ns;

        self.refresh_candidates(spaces, asid);

        // Once compaction fails, retrying it for every remaining candidate
        // in the same tick is pointless (and expensive): the machine-wide
        // contiguity situation has not changed. The next tick retries.
        //
        // One pass per ladder rung, largest first. When contiguity for a
        // chunk cannot be had even after compaction, Figure 5's right-hand
        // branch falls back to backing that chunk with the next rung down.
        let mut heads = std::mem::take(&mut self.head_buf);
        for (idx, &target) in ladder.iter().enumerate() {
            if idx > 0 {
                // Fold in the previous pass's promotions so this pass sees
                // the same candidate set a fresh enumeration would.
                self.refresh_candidates(spaces, asid);
            }
            self.ordered_candidates_into(spaces, asid, target, hint.as_ref(), &mut heads);
            for &head in &heads {
                if budget == 0 {
                    break;
                }
                budget -= 1;
                let have =
                    self.try_promote_at(ctx, spaces, asid, head, target, &mut out, &mut promoted);
                if !have {
                    if let Some(&fallback) = ladder.get(idx + 1) {
                        let span = geo.base_pages(target);
                        let sub = geo.base_pages(fallback);
                        for k in 0..(span / sub) {
                            self.try_promote_at(
                                ctx,
                                spaces,
                                asid,
                                head + k * sub,
                                fallback,
                                &mut out,
                                &mut promoted,
                            );
                        }
                    }
                }
            }
        }
        self.head_buf = heads;

        ctx.span_end(SpanKind::PromoScan, out.daemon_ns);
        ctx.set_tenant_scope(prev_scope);
        (out, promoted)
    }

    /// Fills `out` (cleared first) with candidate chunk heads for promotion
    /// to `size`, in scan order (address order, or hottest-first for
    /// HawkEye), read from the incrementally maintained index. A tenant
    /// hint's pinned ranges are moved to the front (stably, so the
    /// access/address order is preserved within each group). Reuses the
    /// buffer's storage — the scan loop's head enumeration stays
    /// zero-alloc in steady state.
    fn ordered_candidates_into(
        &self,
        spaces: &SpaceSet,
        asid: AsId,
        size: PageSize,
        hint: Option<&PolicyHint>,
        out: &mut Vec<Vpn>,
    ) {
        out.clear();
        let Some(space) = spaces.get(asid) else {
            return;
        };
        let Some(cache) = self.cache(asid) else {
            return;
        };
        let geo = space.geometry();
        let span = geo.base_pages(size);
        if size.is_base() {
            return;
        }
        let set = &cache.sets[size.rung()];
        out.extend(set.iter().map(|chunk| Vpn::new(chunk * span)));
        if self.config.order_by_access {
            out.sort_by_key(|head| {
                std::cmp::Reverse(space.page_table().accessed_leaves_in(*head, span))
            });
        }
        if let Some(h) = hint {
            if !h.pinned.is_empty() {
                // Stable, so pinning dominates without scrambling the
                // base ordering inside each group.
                out.sort_by_key(|head| !h.pins(*head, span));
            }
        }
    }

    /// Attempts one promotion of the chunk at `head` to `target`: handles
    /// fault injection, contiguity (compacting at most until the first
    /// failure per rung and tick) and accounting. Returns whether contiguity for the target was available
    /// — `false` is the Figure 5 signal to fall back to the next rung.
    #[allow(clippy::too_many_arguments)]
    fn try_promote_at(
        &mut self,
        ctx: &mut MmContext,
        spaces: &mut SpaceSet,
        asid: AsId,
        head: Vpn,
        target: PageSize,
        out: &mut TickOutcome,
        promoted: &mut Vec<PromotedChunk>,
    ) -> bool {
        let top = ctx.geometry().largest();
        if ctx.inject(InjectSite::Promotion) {
            ctx.record(Event::PromotionDeferred { size: target });
            return true; // a deferral is not a contiguity failure
        }
        let mut have = ctx.mem.has_free(target);
        if !have && !self.compaction_failed[target.rung()] {
            out.compaction_runs += 1;
            let c = self.compactor.compact(ctx, spaces, target);
            out.daemon_ns += c.ns;
            have = c.success;
            self.compaction_failed[target.rung()] = !have;
        }
        // Table 4's counters track allocation attempts for the top rung.
        if target == top {
            ctx.record_giant_attempt(crate::AllocSite::Promotion, !have);
        }
        if !have {
            return false;
        }
        // The pv mapping exchange only pays on the top-rung promotion;
        // smaller targets always copy (§6).
        let style = if target == top {
            self.config.style
        } else {
            PromotionStyle::Copy
        };
        match promote_chunk(ctx, spaces, asid, head, target, style) {
            Ok(p) => {
                out.daemon_ns += p.ns;
                out.promotions += 1;
                promoted.push(PromotedChunk {
                    asid,
                    head,
                    size: target,
                    bloat_pages: p.bloat_pages,
                });
                true
            }
            // The chunk compaction produced was raced away (e.g. by
            // another promotion): report a contiguity failure so the
            // caller can fall back to the next rung down.
            Err(PromoteError::NoContiguity) => false,
            Err(PromoteError::NotACandidate) => true,
        }
    }
}

/// Demotes registered chunks, biggest bloat first, while memory pressure
/// persists (free fraction below `low_watermark`). Returns the tick
/// summary.
pub fn recover_bloat(
    ctx: &mut MmContext,
    spaces: &mut SpaceSet,
    registry: &mut Vec<PromotedChunk>,
    low_watermark: f64,
) -> TickOutcome {
    let mut out = TickOutcome::default();
    registry.sort_by_key(|c| c.bloat_pages);
    while ctx.mem.free_fraction() < low_watermark {
        let Some(chunk) = registry.pop() else {
            break;
        };
        if chunk.bloat_pages == 0 {
            break; // the registry is sorted; nothing recoverable remains
        }
        demote_chunk(ctx, spaces, &chunk);
        // Demotion cost: PTE surgery plus a shootdown.
        out.daemon_ns += ctx.cost.tlb_shootdown_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_obs::NoopRecorder;
    use trident_phys::PhysicalMemory;
    use trident_types::PageGeometry;
    use trident_vm::{AddressSpace, VmaKind};

    fn setup(regions: u64) -> (MmContext, SpaceSet) {
        let geo = PageGeometry::TINY;
        let ctx = MmContext::new(PhysicalMemory::new(
            geo,
            regions * geo.base_pages(PageSize::new(2)),
        ));
        let mut spaces = SpaceSet::new();
        spaces.insert(AddressSpace::new(AsId::new(1), geo));
        (ctx, spaces)
    }

    /// Fault a span with base pages (what a pre-promotion state looks
    /// like).
    fn fault_base(ctx: &mut MmContext, spaces: &mut SpaceSet, asid: AsId, start: u64, pages: u64) {
        let space = spaces.get_mut(asid).unwrap();
        if space.vma_containing(Vpn::new(start)).is_none() {
            space
                .mmap_at(Vpn::new(start), pages, VmaKind::Anon)
                .unwrap();
        }
        for i in 0..pages {
            let vpn = Vpn::new(start + i);
            crate::map_chunk(ctx, space, vpn, PageSize::BASE).unwrap();
        }
    }

    #[test]
    fn promote_to_giant_replaces_small_mappings() {
        let (mut ctx, mut spaces) = setup(4);
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 64);
        let out = promote_chunk(
            &mut ctx,
            &mut spaces,
            AsId::new(1),
            Vpn::new(0),
            PageSize::new(2),
            PromotionStyle::Copy,
        )
        .unwrap();
        assert_eq!(out.bloat_pages, 0);
        assert_eq!(out.bytes_copied, 64 * 4096);
        let space = spaces.get(AsId::new(1)).unwrap();
        let t = space.page_table().translate(Vpn::new(10)).unwrap();
        assert_eq!(t.size, PageSize::new(2));
        assert_eq!(ctx.snapshot().promotions[2], 1);
        ctx.mem.assert_consistent();
    }

    #[test]
    fn promotion_of_partial_chunk_creates_bloat() {
        let (mut ctx, mut spaces) = setup(4);
        spaces
            .get_mut(AsId::new(1))
            .unwrap()
            .mmap_at(Vpn::new(0), 64, VmaKind::Anon)
            .unwrap();
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 10);
        let out = promote_chunk(
            &mut ctx,
            &mut spaces,
            AsId::new(1),
            Vpn::new(0),
            PageSize::new(2),
            PromotionStyle::Copy,
        )
        .unwrap();
        assert_eq!(out.bloat_pages, 54);
        assert_eq!(ctx.snapshot().bloat_pages, 54);
    }

    #[test]
    fn promote_rejects_non_candidates() {
        let (mut ctx, mut spaces) = setup(4);
        spaces
            .get_mut(AsId::new(1))
            .unwrap()
            .mmap_at(Vpn::new(0), 64, VmaKind::Anon)
            .unwrap();
        // Nothing mapped at all.
        assert_eq!(
            promote_chunk(
                &mut ctx,
                &mut spaces,
                AsId::new(1),
                Vpn::new(0),
                PageSize::new(2),
                PromotionStyle::Copy
            ),
            Err(PromoteError::NotACandidate)
        );
        // Already giant.
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 1);
        promote_chunk(
            &mut ctx,
            &mut spaces,
            AsId::new(1),
            Vpn::new(0),
            PageSize::new(2),
            PromotionStyle::Copy,
        )
        .unwrap();
        assert_eq!(
            promote_chunk(
                &mut ctx,
                &mut spaces,
                AsId::new(1),
                Vpn::new(0),
                PageSize::new(2),
                PromotionStyle::Copy
            ),
            Err(PromoteError::NotACandidate)
        );
    }

    /// After priming plus any amount of dirty-chunk replay, the
    /// incremental candidate index must equal a from-scratch
    /// [`promotion_candidates`] enumeration — the invariant that lets
    /// `scan_space` skip the per-tick full rescan. Three chunks go from
    /// holding candidates to being wholly mapped at rung 1 or above,
    /// where the refresh clears their bits without testing sub-chunks:
    /// one promoted to the top rung, one promoted rung-1 chunk by rung-1
    /// chunk, and one unmapped and then faulted back at the top rung.
    #[test]
    fn candidate_cache_matches_fresh_enumeration() {
        use crate::{PagePolicy, TridentPolicy};
        let (mut ctx, mut spaces) = setup(16);
        let asid = AsId::new(1);
        let mut promoter = Promoter::new(PromoterConfig::trident());

        // Prime on the initial layout.
        fault_base(&mut ctx, &mut spaces, asid, 0, 64);
        fault_base(&mut ctx, &mut spaces, asid, 200, 24);
        fault_base(&mut ctx, &mut spaces, asid, 256, 64);
        fault_base(&mut ctx, &mut spaces, asid, 384, 64);
        promoter.refresh_candidates(&mut spaces, asid);
        let cached = |promoter: &Promoter, size: PageSize, head: u64| {
            let span = PageGeometry::TINY.base_pages(size);
            promoter.cache(asid).expect("primed cache").sets[size.rung()].contains(head / span)
        };
        for head in [0, 256, 384] {
            assert!(cached(&promoter, PageSize::new(2), head));
            assert!(cached(&promoter, PageSize::new(1), head + 8));
        }

        // Post-priming traffic: new faults, promotions, an unmap and a
        // top-rung fault — every mutation source that feeds the
        // dirty-chunk index.
        fault_base(&mut ctx, &mut spaces, asid, 128, 32);
        promote_chunk(
            &mut ctx,
            &mut spaces,
            asid,
            Vpn::new(0),
            PageSize::new(2),
            PromotionStyle::Copy,
        )
        .unwrap();
        for head in (256..320).step_by(8) {
            promote_chunk(
                &mut ctx,
                &mut spaces,
                asid,
                Vpn::new(head),
                PageSize::new(1),
                PromotionStyle::Copy,
            )
            .unwrap();
        }
        let space = spaces.get_mut(asid).unwrap();
        space.munmap(Vpn::new(200), 24);
        space.munmap(Vpn::new(384), 64);
        space.mmap_at(Vpn::new(384), 64, VmaKind::Anon).unwrap();
        let outcome = TridentPolicy::default()
            .on_fault(&mut ctx, space, Vpn::new(400))
            .unwrap();
        assert_eq!(outcome.size, PageSize::new(2));
        promoter.refresh_candidates(&mut spaces, asid);

        let space = spaces.get(asid).unwrap();
        let geo = space.geometry();
        for size in geo.rungs().filter(|s| !s.is_base()) {
            let span = geo.base_pages(size);
            let fresh: Vec<u64> = promotion_candidates(space, size)
                .into_iter()
                .map(|(head, _)| head.raw())
                .collect();
            let cache = promoter.cache(asid).expect("primed cache");
            let cached: Vec<u64> = cache.sets[size.rung()]
                .iter()
                .map(|chunk| chunk * span)
                .collect();
            assert_eq!(cached, fresh, "cache diverged at {size:?}");
        }
        assert!(cached(&promoter, PageSize::new(2), 256));
        assert!(!cached(&promoter, PageSize::new(1), 264));
        assert!(!cached(&promoter, PageSize::new(2), 384));
    }

    #[test]
    fn pv_batched_exchanges_instead_of_copying_huge_portions() {
        let (mut ctx, mut spaces) = setup(8);
        // Map the first giant chunk with 8 huge pages.
        let space = spaces.get_mut(AsId::new(1)).unwrap();
        space.mmap_at(Vpn::new(0), 64, VmaKind::Anon).unwrap();
        for i in 0..8u64 {
            crate::map_chunk(
                &mut ctx,
                spaces.get_mut(AsId::new(1)).unwrap(),
                Vpn::new(i * 8),
                PageSize::new(1),
            )
            .unwrap();
        }
        let copy = promote_chunk(
            &mut ctx,
            &mut spaces,
            AsId::new(1),
            Vpn::new(0),
            PageSize::new(2),
            PromotionStyle::Copy,
        );
        let copy = copy.unwrap();
        assert_eq!(copy.pairs_exchanged, 0);
        assert_eq!(copy.bytes_copied, 64 * 4096);

        // Same layout in a second chunk, promoted with pv.
        spaces
            .get_mut(AsId::new(1))
            .unwrap()
            .mmap_at(Vpn::new(64), 64, VmaKind::Anon)
            .unwrap();
        for i in 0..8u64 {
            crate::map_chunk(
                &mut ctx,
                spaces.get_mut(AsId::new(1)).unwrap(),
                Vpn::new(64 + i * 8),
                PageSize::new(1),
            )
            .unwrap();
        }
        let pv = promote_chunk(
            &mut ctx,
            &mut spaces,
            AsId::new(1),
            Vpn::new(64),
            PageSize::new(2),
            PromotionStyle::PvBatched,
        )
        .unwrap();
        assert_eq!(pv.pairs_exchanged, 8);
        assert_eq!(pv.bytes_copied, 0);
        assert!(
            pv.ns < copy.ns,
            "pv ({}) should beat copy ({})",
            pv.ns,
            copy.ns
        );
    }

    #[test]
    fn promoter_tick_promotes_through_the_flowchart() {
        let (mut ctx, mut spaces) = setup(8);
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 128);
        let mut promoter = Promoter::new(PromoterConfig::trident());
        let (out, promoted) = promoter.tick(&mut ctx, &mut spaces);
        assert!(out.promotions >= 2, "both giant chunks promoted");
        assert_eq!(promoted.len() as u64, out.promotions);
        let space = spaces.get(AsId::new(1)).unwrap();
        assert_eq!(space.page_table().mapped_pages(PageSize::new(2)), 2);
        assert!(out.daemon_ns > 0);
    }

    #[test]
    fn thp_promoter_only_creates_huge_pages() {
        let (mut ctx, mut spaces) = setup(8);
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 64);
        let mut promoter = Promoter::new(PromoterConfig::thp());
        let (_, promoted) = promoter.tick(&mut ctx, &mut spaces);
        assert!(promoted.iter().all(|c| c.size == PageSize::new(1)));
        let space = spaces.get(AsId::new(1)).unwrap();
        assert_eq!(space.page_table().mapped_pages(PageSize::new(2)), 0);
        assert_eq!(space.page_table().mapped_pages(PageSize::new(1)), 8);
    }

    #[test]
    fn demotion_recovers_bloat() {
        let (mut ctx, mut spaces) = setup(4);
        spaces
            .get_mut(AsId::new(1))
            .unwrap()
            .mmap_at(Vpn::new(0), 64, VmaKind::Anon)
            .unwrap();
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 8);
        promote_chunk(
            &mut ctx,
            &mut spaces,
            AsId::new(1),
            Vpn::new(0),
            PageSize::new(2),
            PromotionStyle::Copy,
        )
        .unwrap();
        let used_before = ctx.mem.total_pages() - ctx.mem.free_pages();
        let chunk = PromotedChunk {
            asid: AsId::new(1),
            head: Vpn::new(0),
            size: PageSize::new(2),
            bloat_pages: 56,
        };
        let recovered = demote_chunk(&mut ctx, &mut spaces, &chunk);
        assert_eq!(recovered, 56);
        let used_after = ctx.mem.total_pages() - ctx.mem.free_pages();
        assert_eq!(used_before - used_after, 56);
        let space = spaces.get(AsId::new(1)).unwrap();
        assert!(space.page_table().translate(Vpn::new(7)).is_some());
        assert!(space.page_table().translate(Vpn::new(8)).is_none());
        assert_eq!(ctx.snapshot().bloat_recovered_pages, 56);
    }

    #[test]
    fn hawkeye_ordering_prefers_hot_chunks() {
        let (mut ctx, mut spaces) = setup(8);
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 128);
        // Touch the *second* giant chunk's pages.
        {
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            for i in 64..128 {
                space.page_table_mut().access(Vpn::new(i), false).unwrap();
            }
        }
        let mut cfg = PromoterConfig::trident();
        cfg.order_by_access = true;
        cfg.chunk_budget = 1; // only one promotion allowed
        let mut promoter = Promoter::new(cfg);
        let (_, promoted) = promoter.tick(&mut ctx, &mut spaces);
        assert_eq!(promoted.len(), 1);
        assert_eq!(promoted[0].head, Vpn::new(64), "hot chunk goes first");
    }

    /// Regression test for the hint API: a pinned range must promote
    /// before an unhinted chunk that the access ordering ranks hotter.
    #[test]
    fn pinned_range_promotes_before_hotter_unhinted_chunk() {
        use crate::{PolicyHint, TenantPolicy};
        use trident_types::TenantId;
        let (mut ctx, mut spaces) = setup(8);
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 128);
        // The *second* giant chunk is the hot one (same layout as the
        // HawkEye ordering test, where it wins)...
        {
            let space = spaces.get_mut(AsId::new(1)).unwrap();
            for i in 64..128 {
                space.page_table_mut().access(Vpn::new(i), false).unwrap();
            }
        }
        // ...but the tenant pins the cold first chunk.
        ctx.tenants.register(
            AsId::new(1),
            TenantPolicy::new(TenantId::new(0)).hint(PolicyHint::new().pin(Vpn::new(0), 64)),
        );
        let mut cfg = PromoterConfig::trident();
        cfg.order_by_access = true;
        cfg.chunk_budget = 1;
        let mut promoter = Promoter::new(cfg);
        let (_, promoted) = promoter.tick(&mut ctx, &mut spaces);
        assert_eq!(promoted.len(), 1);
        assert_eq!(promoted[0].head, Vpn::new(0), "pinning beats hotness");
        // Daemon work done in the scan is attributed to the owning tenant.
        assert_eq!(ctx.tenant_snapshot(TenantId::new(0)).promotions[2], 1);
    }

    #[test]
    fn opted_out_tenant_is_never_promoted() {
        use crate::{PolicyHint, TenantPolicy};
        use trident_types::TenantId;
        let (mut ctx, mut spaces) = setup(8);
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 128);
        ctx.tenants.register(
            AsId::new(1),
            TenantPolicy::new(TenantId::new(0)).hint(PolicyHint::new().opt_out()),
        );
        let mut promoter = Promoter::new(PromoterConfig::trident());
        for _ in 0..4 {
            let (out, promoted) = promoter.tick(&mut ctx, &mut spaces);
            assert_eq!(out.promotions, 0);
            assert!(promoted.is_empty());
        }
        let space = spaces.get(AsId::new(1)).unwrap();
        assert_eq!(space.page_table().mapped_pages(PageSize::new(2)), 0);
        assert_eq!(space.page_table().mapped_pages(PageSize::new(1)), 0);
    }

    #[test]
    fn preferred_size_masks_the_other_pass() {
        use crate::{PolicyHint, TenantPolicy};
        use trident_types::TenantId;
        // Preferring 2MB on a Trident promoter behaves like THP...
        let (mut ctx, mut spaces) = setup(8);
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 64);
        ctx.tenants.register(
            AsId::new(1),
            TenantPolicy::new(TenantId::new(0)).hint(PolicyHint::new().prefer(PageSize::new(1))),
        );
        let mut promoter = Promoter::new(PromoterConfig::trident());
        promoter.tick(&mut ctx, &mut spaces);
        let space = spaces.get(AsId::new(1)).unwrap();
        assert_eq!(space.page_table().mapped_pages(PageSize::new(2)), 0);
        assert_eq!(space.page_table().mapped_pages(PageSize::new(1)), 8);

        // ...and preferring 1GB disables the 2MB pass (and its fallback).
        let (mut ctx, mut spaces) = setup(8);
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 128);
        ctx.tenants.register(
            AsId::new(1),
            TenantPolicy::new(TenantId::new(0)).hint(PolicyHint::new().prefer(PageSize::new(2))),
        );
        let mut promoter = Promoter::new(PromoterConfig::trident());
        promoter.tick(&mut ctx, &mut spaces);
        let space = spaces.get(AsId::new(1)).unwrap();
        assert_eq!(space.page_table().mapped_pages(PageSize::new(2)), 2);
        assert_eq!(space.page_table().mapped_pages(PageSize::new(1)), 0);
    }

    #[test]
    fn weighted_rotation_and_budget_override() {
        use crate::TenantPolicy;
        use trident_types::TenantId;
        let (mut ctx, mut spaces) = setup(16);
        spaces.insert(AddressSpace::new(AsId::new(2), ctx.geometry()));
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 128);
        fault_base(&mut ctx, &mut spaces, AsId::new(2), 0, 128);
        // Tenant 0 (space 1): double weight but a budget of one chunk per
        // visit. Tenant 1 (space 2): single weight, default budget.
        ctx.tenants.register(
            AsId::new(1),
            TenantPolicy::new(TenantId::new(0))
                .weight(2)
                .chunk_budget(1),
        );
        ctx.tenants
            .register(AsId::new(2), TenantPolicy::new(TenantId::new(1)));
        let mut promoter = Promoter::new(PromoterConfig::trident());
        // Schedule is [1, 1, 2]: two visits to space 1, then one to 2.
        let (_, p) = promoter.tick(&mut ctx, &mut spaces);
        assert_eq!((p.len(), p[0].asid), (1, AsId::new(1)), "budget capped");
        let (_, p) = promoter.tick(&mut ctx, &mut spaces);
        assert_eq!((p.len(), p[0].asid), (1, AsId::new(1)));
        let (_, p) = promoter.tick(&mut ctx, &mut spaces);
        assert_eq!(p.len(), 2, "space 2 drains both chunks in one visit");
        assert!(p.iter().all(|c| c.asid == AsId::new(2)));
        // Attribution followed the rotation.
        assert_eq!(ctx.tenant_snapshot(TenantId::new(0)).promotions[2], 2);
        assert_eq!(ctx.tenant_snapshot(TenantId::new(1)).promotions[2], 2);
    }

    /// The per-tick compaction latch: on a machine with no movable
    /// contiguity, two hopeless candidates cost one compaction run per
    /// tick, not one each, and defer nothing; promotion resumes on the
    /// tick that contiguity returns.
    #[test]
    fn one_failed_compaction_latches_its_rung_for_the_rest_of_the_tick() {
        use trident_phys::FrameUse;
        let (mut ctx, mut spaces) = setup(2);
        // Two 2MB candidates of base pages.
        fault_base(&mut ctx, &mut spaces, AsId::new(1), 0, 16);
        // Pin the rest of memory with unmovable kernel frames so
        // compaction cannot manufacture a free 2MB chunk.
        let mut pins = Vec::new();
        while ctx.mem.has_free(PageSize::BASE) {
            pins.push(
                ctx.mem
                    .allocate(PageSize::BASE, FrameUse::Kernel, None, &mut NoopRecorder)
                    .unwrap(),
            );
        }
        let mut promoter = Promoter::new(PromoterConfig::thp());
        for tick in 0..6 {
            let (out, promoted) = promoter.tick(&mut ctx, &mut spaces);
            assert!(promoted.is_empty(), "nothing can be promoted while pinned");
            assert_eq!(
                out.compaction_runs, 1,
                "tick {tick}: the latch stops the second run"
            );
        }
        let snap = ctx.snapshot();
        assert_eq!(snap.compaction_attempts, 6);
        assert_eq!(snap.compaction_successes, 0);
        assert_eq!(snap.promotions_deferred, 0, "a latched rung defers nothing");
        for pfn in pins {
            ctx.mem.free(pfn, &mut NoopRecorder).unwrap();
        }
        let (out, promoted) = promoter.tick(&mut ctx, &mut spaces);
        assert_eq!(out.compaction_runs, 0, "free chunks need no compaction");
        assert_eq!(out.promotions, 2, "promotion resumes on the next tick");
        let heads: Vec<Vpn> = promoted.iter().map(|c| c.head).collect();
        assert_eq!(heads, [Vpn::new(0), Vpn::new(8)]);
        crate::assert_mm_consistent(&ctx, &spaces);
    }
}
