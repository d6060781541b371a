//! Nested address spaces: guest OS over hypervisor.

use trident_core::{FaultOutcome, MmContext, PagePolicy, PolicyError, SpaceSet, TickOutcome};
use trident_phys::PhysicalMemory;
use trident_types::{AsId, PageGeometry, PageSize, TridentError, Vpn};
use trident_vm::VmaKind;

/// One resolved guest memory access: which page sizes served each level.
///
/// The hardware TLB caches gVA→hPA at the *smaller* of the two sizes; a
/// miss pays the two-dimensional walk (see `trident-tlb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestedAccess {
    /// Page size of the guest-level (gVA→gPA) leaf.
    pub guest_size: PageSize,
    /// Page size of the host-level (gPA→hPA) leaf.
    pub host_size: PageSize,
    /// The guest-physical page that was touched.
    pub gpa: Vpn,
    /// Guest fault serviced on this access, if any.
    pub guest_fault: Option<FaultOutcome>,
    /// Host (EPT) fault serviced on this access, if any.
    pub host_fault: Option<FaultOutcome>,
}

/// The guest OS: its view of "physical" memory is the gPA space, and it
/// runs its own page-size policy over it.
pub struct GuestKernel {
    /// Guest memory-management state (gPA plays the role of physical
    /// memory).
    pub ctx: MmContext,
    /// Guest processes.
    pub spaces: SpaceSet,
    /// The guest's page-size policy.
    pub policy: Box<dyn PagePolicy>,
}

impl std::fmt::Debug for GuestKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestKernel")
            .field("policy", &self.policy.name())
            .field("spaces", &self.spaces.len())
            .finish()
    }
}

/// A virtual machine: a guest kernel plus its identity on the host.
#[derive(Debug)]
pub struct VirtualMachine {
    id: AsId,
    /// The guest OS.
    pub kernel: GuestKernel,
}

impl VirtualMachine {
    /// The VM's identity in the hypervisor's space set.
    #[must_use]
    pub fn id(&self) -> AsId {
        self.id
    }

    /// Simulates one guest memory access at `gva` by process `asid`:
    /// faults the guest level and then the host level as needed, and
    /// reports the page sizes that served each level.
    ///
    /// # Errors
    ///
    /// Propagates [`PolicyError`] from either level's fault handler.
    pub fn touch(
        &mut self,
        hyp: &mut Hypervisor,
        asid: AsId,
        gva: Vpn,
        write: bool,
    ) -> Result<NestedAccess, PolicyError> {
        let space = self
            .kernel
            .spaces
            .get_mut(asid)
            .ok_or(PolicyError::BadAddress(gva))?;
        let mut guest_fault = None;
        let translation = match space.page_table_mut().access(gva, write) {
            Some(t) => t,
            None => {
                let fault = self
                    .kernel
                    .policy
                    .on_fault(&mut self.kernel.ctx, space, gva)?;
                guest_fault = Some(fault);
                space
                    .page_table_mut()
                    .access(gva, write)
                    .expect("fault handler installed a mapping")
            }
        };
        let gpa = Vpn::new(translation.pfn.raw());
        let (host_size, host_fault) = hyp.touch_gpa(self.id, gpa, write)?;
        Ok(NestedAccess {
            guest_size: translation.size,
            host_size,
            gpa,
            guest_fault,
            host_fault,
        })
    }

    /// Runs one guest background-daemon tick.
    pub fn tick(&mut self) -> TickOutcome {
        self.kernel
            .policy
            .on_tick(&mut self.kernel.ctx, &mut self.kernel.spaces)
    }
}

/// The hypervisor: host physical memory, one gPA→hPA address space per VM,
/// and the host's page-size policy (KVM uses the host kernel's THP, or
/// Trident when deployed there).
pub struct Hypervisor {
    /// Host memory-management state.
    pub ctx: MmContext,
    /// One address space per VM, mapping gPA (as "virtual") to hPA.
    pub spaces: SpaceSet,
    policy: Box<dyn PagePolicy>,
    next_vm: u32,
}

impl std::fmt::Debug for Hypervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hypervisor")
            .field("policy", &self.policy.name())
            .field("vms", &self.spaces.len())
            .finish()
    }
}

impl Hypervisor {
    /// Creates a hypervisor over `host_pages` of physical memory whose
    /// host policy `build` makes against the fresh host context, so a
    /// policy that pre-reserves memory (hugetlbfs) can reserve it.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (e.g. reservation failure).
    pub fn new(
        geo: PageGeometry,
        host_pages: u64,
        build: impl FnOnce(&mut MmContext) -> Result<Box<dyn PagePolicy>, TridentError>,
    ) -> Result<Hypervisor, TridentError> {
        let mut ctx = MmContext::new(PhysicalMemory::new(geo, host_pages));
        let policy = build(&mut ctx)?;
        Ok(Hypervisor {
            ctx,
            spaces: SpaceSet::new(),
            policy,
            next_vm: 1,
        })
    }

    /// Boots a VM with `guest_pages` of guest-physical memory, running
    /// the guest policy `build` makes against the fresh guest context.
    /// The VM's gPA range appears to the host as one large anonymous
    /// mapping (how QEMU backs guest RAM).
    ///
    /// # Errors
    ///
    /// [`TridentError::InvalidConfig`] once 65,535 VMs have been created:
    /// a VM's id names its host address space, and ids must fit a
    /// reverse-map slot. Otherwise propagates the builder's error.
    pub fn create_vm(
        &mut self,
        guest_pages: u64,
        build: impl FnOnce(&mut MmContext) -> Result<Box<dyn PagePolicy>, TridentError>,
    ) -> Result<VirtualMachine, TridentError> {
        if self.next_vm > u32::from(u16::MAX) {
            return Err(TridentError::InvalidConfig {
                field: "vms",
                reason: "at most 65,535 VMs: each VM id must fit a reverse-map slot",
            });
        }
        let geo = self.ctx.geometry();
        let id = AsId::new(self.next_vm);
        let mut guest_ctx = MmContext::new(PhysicalMemory::new(geo, guest_pages));
        let policy = build(&mut guest_ctx)?;
        self.next_vm += 1;
        let mut host_view = trident_vm::AddressSpace::new(id, geo);
        host_view
            .mmap_at(Vpn::new(0), guest_pages, VmaKind::Anon)
            .expect("fresh space has room");
        self.spaces.insert(host_view);
        Ok(VirtualMachine {
            id,
            kernel: GuestKernel {
                ctx: guest_ctx,
                spaces: SpaceSet::new(),
                policy,
            },
        })
    }

    /// The host policy's display name.
    #[must_use]
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// Ensures `gpa` of VM `vm` is backed by host memory, faulting the
    /// host level if needed. Returns the host leaf size and any fault
    /// serviced.
    ///
    /// # Errors
    ///
    /// Propagates the host policy's [`PolicyError`].
    pub fn touch_gpa(
        &mut self,
        vm: AsId,
        gpa: Vpn,
        write: bool,
    ) -> Result<(PageSize, Option<FaultOutcome>), PolicyError> {
        let space = self
            .spaces
            .get_mut(vm)
            .ok_or(PolicyError::BadAddress(gpa))?;
        let mut host_fault = None;
        let translation = match space.page_table_mut().access(gpa, write) {
            Some(t) => t,
            None => {
                let fault = self.policy.on_fault(&mut self.ctx, space, gpa)?;
                host_fault = Some(fault);
                space
                    .page_table_mut()
                    .access(gpa, write)
                    .expect("fault handler installed a mapping")
            }
        };
        Ok((translation.size, host_fault))
    }

    /// Runs one host background-daemon tick.
    pub fn tick(&mut self) -> TickOutcome {
        self.policy.on_tick(&mut self.ctx, &mut self.spaces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_core::{BasePolicy, ThpPolicy, TridentConfig, TridentPolicy};
    use trident_vm::AddressSpace;

    fn geo() -> PageGeometry {
        PageGeometry::TINY
    }

    fn boot(
        host_policy: Box<dyn PagePolicy>,
        guest_policy: Box<dyn PagePolicy>,
    ) -> (Hypervisor, VirtualMachine) {
        let g = geo();
        let mut hyp =
            Hypervisor::new(g, 16 * g.base_pages(PageSize::new(2)), |_| Ok(host_policy)).unwrap();
        let mut vm = hyp
            .create_vm(8 * g.base_pages(PageSize::new(2)), |_| Ok(guest_policy))
            .unwrap();
        let mut proc = AddressSpace::new(AsId::new(1), g);
        proc.mmap_at(Vpn::new(0), 4 * 64, VmaKind::Anon).unwrap();
        vm.kernel.spaces.insert(proc);
        (hyp, vm)
    }

    #[test]
    fn touch_faults_both_levels_once() {
        let (mut hyp, mut vm) = boot(
            Box::new(TridentPolicy::new(TridentConfig::full())),
            Box::new(TridentPolicy::new(TridentConfig::full())),
        );
        let a = vm
            .touch(&mut hyp, AsId::new(1), Vpn::new(5), false)
            .unwrap();
        assert_eq!(a.guest_size, PageSize::new(2));
        assert_eq!(a.host_size, PageSize::new(2));
        assert!(a.guest_fault.is_some());
        assert!(a.host_fault.is_some());
        // Second touch in the same giant page: no faults at either level.
        let b = vm
            .touch(&mut hyp, AsId::new(1), Vpn::new(6), false)
            .unwrap();
        assert!(b.guest_fault.is_none());
        assert!(b.host_fault.is_none());
    }

    #[test]
    fn mixed_policies_produce_mixed_sizes() {
        let (mut hyp, mut vm) = boot(Box::new(ThpPolicy::new()), Box::new(BasePolicy::new()));
        let a = vm
            .touch(&mut hyp, AsId::new(1), Vpn::new(0), false)
            .unwrap();
        assert_eq!(a.guest_size, PageSize::BASE);
        assert_eq!(a.host_size, PageSize::new(1));
    }

    #[test]
    fn distinct_guest_pages_may_share_a_host_leaf() {
        let (mut hyp, mut vm) = boot(
            Box::new(TridentPolicy::new(TridentConfig::full())),
            Box::new(BasePolicy::new()),
        );
        let a = vm
            .touch(&mut hyp, AsId::new(1), Vpn::new(0), false)
            .unwrap();
        let b = vm
            .touch(&mut hyp, AsId::new(1), Vpn::new(1), false)
            .unwrap();
        // Guest allocates 4KB gPA pages one by one; the host backed the
        // whole giant gPA chunk on the first touch.
        assert!(a.host_fault.is_some());
        assert!(b.host_fault.is_none());
        assert_eq!(b.host_size, PageSize::new(2));
    }

    #[test]
    fn guest_and_host_ticks_run_their_daemons() {
        let (mut hyp, mut vm) = boot(Box::new(ThpPolicy::new()), Box::new(ThpPolicy::new()));
        for i in 0..64 {
            vm.touch(&mut hyp, AsId::new(1), Vpn::new(i), false)
                .unwrap();
        }
        let gt = vm.tick();
        let ht = hyp.tick();
        // Daemons scanned something.
        assert!(gt.daemon_ns > 0);
        assert!(ht.daemon_ns > 0);
    }

    #[test]
    fn touch_outside_guest_vma_is_a_bad_address() {
        let (mut hyp, mut vm) = boot(Box::new(BasePolicy::new()), Box::new(BasePolicy::new()));
        assert!(matches!(
            vm.touch(&mut hyp, AsId::new(1), Vpn::new(100_000), false),
            Err(PolicyError::BadAddress(_))
        ));
    }

    #[test]
    fn vm_ids_past_the_reverse_map_limit_are_refused() {
        let (mut hyp, _) = boot(Box::new(BasePolicy::new()), Box::new(BasePolicy::new()));
        hyp.next_vm = u32::from(u16::MAX);
        let last = hyp
            .create_vm(64, |_| Ok(Box::new(BasePolicy::new())))
            .unwrap();
        assert_eq!(last.id, AsId::new(65_535));
        assert!(matches!(
            hyp.create_vm(64, |_| Ok(Box::new(BasePolicy::new()))),
            Err(TridentError::InvalidConfig { field: "vms", .. })
        ));
        assert_eq!(hyp.spaces.len(), 2, "a refused VM leaves no host space");
    }
}
