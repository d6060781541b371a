//! Property tests for the Trident_pv mapping exchange: arbitrary batches
//! of exchanges must permute gPA→hPA mappings without losing or
//! duplicating any host frame.

use std::collections::BTreeSet;

use proptest::prelude::*;
use trident_core::{map_chunk, PagePolicy, ThpPolicy, TridentConfig, TridentPolicy};
use trident_types::{AsId, PageGeometry, PageSize, Vpn};
use trident_virt::{Hypervisor, VirtualMachine};
use trident_vm::{AddressSpace, VmaKind};

fn boot(huge_chunks: u64) -> (Hypervisor, VirtualMachine) {
    let geo = PageGeometry::TINY;
    let host: Box<dyn PagePolicy> = Box::new(ThpPolicy::new());
    let mut hyp =
        Hypervisor::new(geo, 64 * geo.base_pages(PageSize::new(2)), |_| Ok(host)).unwrap();
    let mut vm = hyp
        .create_vm(32 * geo.base_pages(PageSize::new(2)), |_| {
            Ok(Box::new(TridentPolicy::new(TridentConfig::paravirt())))
        })
        .unwrap();
    let asid = AsId::new(1);
    let mut proc = AddressSpace::new(asid, geo);
    proc.mmap_at(
        Vpn::new(0),
        8 * geo.base_pages(PageSize::new(2)),
        VmaKind::Anon,
    )
    .unwrap();
    vm.kernel.spaces.insert(proc);
    let hp = geo.base_pages(PageSize::new(1));
    for i in 0..huge_chunks {
        let head = Vpn::new(i * hp);
        let space = vm.kernel.spaces.get_mut(asid).unwrap();
        map_chunk(&mut vm.kernel.ctx, space, head, PageSize::new(1)).unwrap();
        vm.touch(&mut hyp, asid, head, true).unwrap();
    }
    (hyp, vm)
}

/// The multiset of host frames backing the first `chunks` huge gPA pages.
fn host_frames(hyp: &Hypervisor, vm: &VirtualMachine, chunks: u64) -> BTreeSet<u64> {
    let geo = PageGeometry::TINY;
    let hp = geo.base_pages(PageSize::new(1));
    let host = hyp.spaces.get(vm.id()).unwrap();
    (0..chunks)
        .filter_map(|i| host.page_table().translate(Vpn::new(i * hp)))
        .map(|t| t.head_pfn.raw())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any batch of exchanges among backed gPAs is a permutation: the set
    /// of backing host frames is exactly preserved, and both memories
    /// stay internally consistent.
    #[test]
    fn exchanges_permute_host_frames(
        pair_indices in prop::collection::vec((0u64..16, 0u64..16), 1..24),
        batched in any::<bool>(),
    ) {
        let geo = PageGeometry::TINY;
        let hp = geo.base_pages(PageSize::new(1));
        let (mut hyp, vm) = boot(16);
        let vm_id = vm.id();
        let before = host_frames(&hyp, &vm, 16);
        prop_assert_eq!(before.len(), 16, "distinct frames to start");
        let pairs: Vec<(Vpn, Vpn)> = pair_indices
            .iter()
            .map(|(a, b)| (Vpn::new(a * hp), Vpn::new(b * hp)))
            .collect();
        hyp.exchange_mappings(vm_id, &pairs, batched).unwrap();
        let after = host_frames(&hyp, &vm, 16);
        prop_assert_eq!(before, after, "exchange must be a permutation");
        hyp.ctx.mem.assert_consistent();
        vm.kernel.ctx.mem.assert_consistent();
    }

    /// Exchanging a pair twice restores the original mapping.
    #[test]
    fn double_exchange_is_identity(a in 0u64..16, b in 0u64..16) {
        let geo = PageGeometry::TINY;
        let hp = geo.base_pages(PageSize::new(1));
        let (mut hyp, vm) = boot(16);
        let vm_id = vm.id();
        let gpa_a = Vpn::new(a * hp);
        let gpa_b = Vpn::new(b * hp);
        let host_of = |hyp: &Hypervisor, gpa: Vpn| {
            hyp.spaces
                .get(vm_id)
                .unwrap()
                .page_table()
                .translate(gpa)
                .unwrap()
                .head_pfn
        };
        let orig_a = host_of(&hyp, gpa_a);
        let orig_b = host_of(&hyp, gpa_b);
        hyp.exchange_mappings(vm_id, &[(gpa_a, gpa_b)], true).unwrap();
        if a != b {
            prop_assert_eq!(host_of(&hyp, gpa_a), orig_b);
        }
        hyp.exchange_mappings(vm_id, &[(gpa_a, gpa_b)], true).unwrap();
        prop_assert_eq!(host_of(&hyp, gpa_a), orig_a);
        prop_assert_eq!(host_of(&hyp, gpa_b), orig_b);
    }
}
