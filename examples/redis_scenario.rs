//! The incremental-allocator story (§5.1.3, Table 3).
//!
//! Redis grows its memory key by key, so at fault time there is almost
//! never a 1GB-mappable range: the fault handler alone cannot use 1GB
//! pages at all. Trident's `khugepaged` extension promotes those ranges
//! later. This example shows the page-size mix evolving as the daemon
//! runs.
//!
//! ```sh
//! cargo run --release --example redis_scenario
//! ```

use trident_sim::{PolicyKind, SimConfig, System};
use trident_workloads::WorkloadSpec;

fn mix(system: &System) -> String {
    let gb = |b: u64| b as f64 / (1u64 << 30) as f64;
    let geo = system.geometry();
    geo.rungs()
        .map(|size| {
            format!(
                "{} {:5.2} GB",
                geo.label(size),
                gb(system.mapped_bytes(size))
            )
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = SimConfig::at_scale(64);
    // Disable load-time daemon ticks so we can watch promotion happen.
    config.tick_interval_pages = u64::MAX;
    config.measure_samples = 10_000;

    let spec = WorkloadSpec::by_name("Redis").expect("Redis is built in");
    let mut system = System::builder(config)
        .policy(PolicyKind::Trident)
        .workload(spec)
        .build()?;

    println!(
        "Redis loaded {} GB of key-value data incrementally.",
        spec.footprint_bytes >> 30
    );
    println!("right after load: {}", mix(&system));
    println!(
        "  (1GB allocations attempted at fault time: {} — incremental VMAs are never 1GB-mappable when touched)",
        system.ctx.snapshot().giant_attempts_fault
    );

    for round in 1..=6 {
        for _ in 0..4 {
            system.tick();
        }
        println!("after khugepaged round {round}: {}", mix(&system));
    }
    let geo = system.geometry();
    let promoted: Vec<String> = geo
        .rungs()
        .filter(|s| !s.is_base())
        .map(|s| {
            format!(
                "{} to {}",
                system.ctx.snapshot().promotions[s.rung()],
                geo.label(s)
            )
        })
        .collect();
    println!(
        "\npromotions: {}; {} MB copied by promotion",
        promoted.join(", "),
        system.ctx.snapshot().promotion_bytes_copied >> 20,
    );
    println!("This is Table 3's Redis row: 0 GB of 1GB pages from the fault");
    println!("handler, tens of GB after background promotion.");
    Ok(())
}
