//! Multiple VMs sharing one hypervisor: isolation and host-memory
//! accounting.

use trident_core::{PagePolicy, PolicyError, ThpPolicy, TridentConfig, TridentPolicy};
use trident_types::{AsId, PageGeometry, PageSize, Vpn};
use trident_virt::{Hypervisor, VirtualMachine};
use trident_vm::{AddressSpace, VmaKind};

fn host() -> Hypervisor {
    let geo = PageGeometry::TINY;
    let policy: Box<dyn PagePolicy> = Box::new(TridentPolicy::new(TridentConfig::full()));
    Hypervisor::new(geo, 64 * geo.base_pages(PageSize::new(2)), |_| Ok(policy)).unwrap()
}

fn boot_guest(hyp: &mut Hypervisor, giants: u64) -> VirtualMachine {
    let geo = PageGeometry::TINY;
    let mut vm = hyp
        .create_vm(giants * geo.base_pages(PageSize::new(2)), |_| {
            Ok(Box::new(ThpPolicy::new()))
        })
        .unwrap();
    let mut proc = AddressSpace::new(AsId::new(1), geo);
    proc.mmap_at(
        Vpn::new(0),
        2 * geo.base_pages(PageSize::new(2)),
        VmaKind::Anon,
    )
    .unwrap();
    vm.kernel.spaces.insert(proc);
    vm
}

#[test]
fn vms_get_distinct_identities_and_host_views() {
    let mut hyp = host();
    let a = boot_guest(&mut hyp, 4);
    let b = boot_guest(&mut hyp, 4);
    assert_ne!(a.id(), b.id());
    assert!(hyp.spaces.get(a.id()).is_some());
    assert!(hyp.spaces.get(b.id()).is_some());
}

#[test]
fn guests_share_host_memory_without_frame_aliasing() {
    let geo = PageGeometry::TINY;
    let mut hyp = host();
    let mut a = boot_guest(&mut hyp, 4);
    let mut b = boot_guest(&mut hyp, 4);
    let pages = 2 * geo.base_pages(PageSize::new(2));
    for i in 0..pages {
        a.touch(&mut hyp, AsId::new(1), Vpn::new(i), true).unwrap();
        b.touch(&mut hyp, AsId::new(1), Vpn::new(i), true).unwrap();
    }
    // Every host frame backs exactly one (vm, gpa) pair: collect the leaf
    // head frames of both VMs' host views and verify disjointness.
    let frames = |hyp: &Hypervisor, id| -> Vec<u64> {
        let space = hyp.spaces.get(id).unwrap();
        let vmas: Vec<_> = space.vmas().copied().collect();
        vmas.iter()
            .flat_map(|v| space.page_table().mappings_in(v.start, v.pages))
            .map(|m| m.pfn.raw())
            .collect()
    };
    let fa = frames(&hyp, a.id());
    let fb = frames(&hyp, b.id());
    assert!(!fa.is_empty() && !fb.is_empty());
    for f in &fa {
        assert!(!fb.contains(f), "host frame {f:#x} aliased across VMs");
    }
    hyp.ctx.mem.assert_consistent();
}

#[test]
fn one_guest_faulting_beyond_its_ram_does_not_disturb_the_other() {
    let geo = PageGeometry::TINY;
    let mut hyp = host();
    let mut a = boot_guest(&mut hyp, 2);
    let mut b = boot_guest(&mut hyp, 2);
    // Guest A touches everything it has.
    let pages = 2 * geo.base_pages(PageSize::new(2));
    for i in 0..pages {
        a.touch(&mut hyp, AsId::new(1), Vpn::new(i), false).unwrap();
    }
    // Guest B touching outside its process VMAs is a guest-level bad
    // address — the host is never even consulted, so its counters stay
    // as they were.
    let host_before = hyp.ctx.snapshot();
    let err = b.touch(&mut hyp, AsId::new(1), Vpn::new(1 << 30), false);
    assert!(matches!(err, Err(PolicyError::BadAddress(_))));
    assert_eq!(hyp.ctx.snapshot(), host_before);
    // Guest A's mappings are intact.
    let space = a.kernel.spaces.get(AsId::new(1)).unwrap();
    assert!(space.page_table().translate(Vpn::new(0)).is_some());
}

#[test]
fn host_daemon_promotes_every_vm_over_time() {
    let geo = PageGeometry::TINY;
    let policy: Box<dyn PagePolicy> = Box::new(ThpPolicy::new());
    let mut hyp =
        Hypervisor::new(geo, 64 * geo.base_pages(PageSize::new(2)), |_| Ok(policy)).unwrap();
    let mut vms: Vec<VirtualMachine> = (0..3).map(|_| boot_guest(&mut hyp, 2)).collect();
    for vm in &mut vms {
        for i in 0..geo.base_pages(PageSize::new(2)) {
            vm.touch(&mut hyp, AsId::new(1), Vpn::new(i), false)
                .unwrap();
        }
    }
    for _ in 0..6 {
        hyp.tick();
    }
    for vm in &vms {
        let host_view = hyp.spaces.get(vm.id()).unwrap();
        assert!(
            host_view.page_table().mapped_pages(PageSize::new(1)) > 0,
            "vm {} never got huge host mappings",
            vm.id()
        );
    }
}
