//! Loading a machine is fallible: a spec whose tenants need more memory
//! than the host has fails `build()` with a typed out-of-memory error
//! instead of panicking, both locally and through `job::execute`, the
//! execution path `tridentd` workers share. A virtualized machine fails
//! `VirtSystem::launch` the same way.

use trident_repro::sim::{PolicyKind, SimConfig, System, VirtSystem};
use trident_repro::types::TridentError;
use trident_repro::workloads::WorkloadSpec;
use trident_serve::job;
use trident_serve::proto::{JobSpec, TenantJob};

// Four XSBench tenants need about 468 GB; the host has 384 GB, and clean
// memory holds no page cache to reclaim.

#[test]
fn an_overcommitted_machine_fails_build_with_out_of_memory() {
    let mut config = SimConfig::at_scale(256);
    config.measure_samples = 1_000;
    let xsbench = WorkloadSpec::by_name("XSBench").unwrap();
    let mut builder = System::builder(config).policy(PolicyKind::Base);
    for _ in 0..4 {
        builder = builder.workload(xsbench);
    }
    match builder.build() {
        Err(TridentError::OutOfContiguousMemory(_)) => {}
        other => panic!(
            "expected an out-of-memory error, got {:?}",
            other.map(|_| ())
        ),
    }
}

/// Tenant `i` runs in address space `i + 1`, and the reverse map packs an
/// address-space id into 16 bits, so 65,536 tenants are one too many. The
/// machine here has no memory at all, which `PhysicalMemory::new` refuses
/// with a panic: the typed error proves the count is checked first.
#[test]
fn more_tenants_than_address_space_ids_fail_build_before_memory_exists() {
    let mut config = SimConfig::at_scale(256);
    config.host_mem_bytes = 0;
    let gups = WorkloadSpec::by_name("GUPS").unwrap();
    let mut builder = System::builder(config).policy(PolicyKind::Base);
    for _ in 0..65_536 {
        builder = builder.workload(gups);
    }
    match builder.build() {
        Err(TridentError::InvalidConfig {
            field: "tenants", ..
        }) => {}
        other => panic!(
            "expected InvalidConfig for tenants, got {:?}",
            other.map(|_| ())
        ),
    }
}

#[test]
fn an_overcommitted_job_fails_instead_of_panicking() {
    let mut spec = JobSpec::new("XSBench", "4KB");
    spec.scale = 256;
    spec.samples = 1_000;
    spec.tenants = vec![TenantJob::new("XSBench"); 3];
    let err = job::execute(&spec).expect_err("the machine is over-committed");
    assert!(err.contains("launch failed"), "{err}");
    assert!(err.contains("no contiguous free chunk"), "{err}");
}

/// A VM gets at most the host's memory, so XSBench's 117 GB footprint
/// overfills a 64 GB machine; clean guest memory holds no page cache to
/// give back, and the launch fails with a typed out-of-memory error.
#[test]
fn a_vm_smaller_than_its_workload_fails_launch_with_out_of_memory() {
    let mut config = SimConfig::at_scale(256);
    config.host_mem_bytes = 64 << 30;
    config.measure_samples = 1_000;
    let xsbench = WorkloadSpec::by_name("XSBench").unwrap();
    match VirtSystem::launch(config, PolicyKind::Thp, PolicyKind::Thp, xsbench, false) {
        Err(TridentError::OutOfContiguousMemory(_)) => {}
        other => panic!(
            "expected an out-of-memory error, got {:?}",
            other.map(|_| ())
        ),
    }
}
