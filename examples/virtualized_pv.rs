//! Figure 8, executed: copy-less 1GB promotion in a guest via the
//! Trident_pv hypercall.
//!
//! A guest address range is backed by scattered 2MB guest-physical pages.
//! Promoting it to a 1GB page needs contiguous gPA — normally achieved by
//! *copying* guest-physical memory. Trident_pv instead asks the hypervisor
//! to exchange the gPA→hPA mappings, so the host frames that hold the
//! data never move.
//!
//! ```sh
//! cargo run --release --example virtualized_pv
//! ```

use trident_core::{map_chunk, CostModel, ThpPolicy, TridentConfig, TridentPolicy};
use trident_types::{AsId, PageGeometry, Vpn, GIB};
use trident_virt::{copyless_promote_giant, Hypervisor};
use trident_vm::{AddressSpace, VmaKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let geo = PageGeometry::TINY; // miniature geometry keeps the printout readable
    let giant = geo.largest();
    let huge = geo
        .size_for_order(geo.level_order(2))
        .expect("every ladder has a natural level-2 rung");
    let mut hyp = Hypervisor::new(geo, 32 * geo.base_pages(giant), |_| {
        Ok(Box::new(ThpPolicy::new()))
    })?;
    let mut vm = hyp.create_vm(16 * geo.base_pages(giant), |_| {
        Ok(Box::new(TridentPolicy::new(TridentConfig::paravirt())))
    })?;
    let asid = AsId::new(1);
    let mut proc = AddressSpace::new(asid, geo);
    proc.mmap_at(Vpn::new(0), 4 * geo.base_pages(giant), VmaKind::Anon)?;
    vm.kernel.spaces.insert(proc);

    // Back the first "1GB" gVA chunk with 2MB guest pages, touching each
    // so the host populates its side.
    let hp = geo.base_pages(huge);
    let count = geo.base_pages(giant) / hp;
    for i in 0..count {
        let head = Vpn::new(i * hp);
        let space = vm.kernel.spaces.get_mut(asid).expect("space exists");
        map_chunk(&mut vm.kernel.ctx, space, head, huge)?;
        vm.touch(&mut hyp, asid, head, true)?;
    }

    let vm_id = vm.id();
    println!("before promotion (gVA -> gPA -> hPA):");
    print_mappings(&vm, &hyp, asid, count * hp);

    let report = copyless_promote_giant(&mut vm.kernel, &mut hyp, vm_id, asid, Vpn::new(0))?;
    println!(
        "\npromoted with ONE batched hypercall: {} mappings exchanged, {} bytes copied\n",
        report.pairs_exchanged, report.bytes_copied
    );
    println!("after promotion:");
    print_mappings(&vm, &hyp, asid, count * hp);

    // The paper's §6 latencies, from the cost model at real x86-64 sizes.
    let cost = CostModel::default();
    println!("\nmodeled cost of promoting one real 1GB region from 2MB pages:");
    println!(
        "  copy-based:      {:>10.1} ms",
        cost.copy_ns(GIB) as f64 / 1e6
    );
    println!(
        "  pv, unbatched:   {:>10.1} ms",
        cost.pv_unbatched_exchange_ns(512) as f64 / 1e6
    );
    println!(
        "  pv, one batch:   {:>10.3} ms",
        cost.pv_batched_exchange_ns(512) as f64 / 1e6
    );
    Ok(())
}

fn print_mappings(vm: &trident_virt::VirtualMachine, hyp: &Hypervisor, asid: AsId, pages: u64) {
    let geo = vm.kernel.ctx.geometry();
    let space = vm.kernel.spaces.get(asid).expect("space exists");
    let host = hyp.spaces.get(vm.id()).expect("vm registered");
    for leaf in space.page_table().mappings_in(Vpn::new(0), pages) {
        let gpa = Vpn::new(leaf.pfn.raw());
        let hpa = host
            .page_table()
            .translate(gpa)
            .map(|t| format!("{}", t.pfn))
            .unwrap_or_else(|| "?".into());
        println!(
            "  gVA {:>6} --{}--> gPA {:>6} ----> hPA {:>6}",
            format!("{}", leaf.vpn),
            geo.label(leaf.size),
            format!("{}", gpa),
            hpa
        );
    }
}
