//! Ladder study (beyond the paper's figures): the same machine and
//! workloads under every shipped architecture ladder.
//!
//! The paper's argument is made on x86-64's three-rung ladder (4KB, 2MB,
//! 1GB). Other ISAs offer *more* rungs with different semantics: RISC-V
//! SVNAPOT adds a 64KB group page whose walk is still a full PTE-level
//! walk (the win is TLB reach), and AArch64's contiguous bit coalesces
//! 16 PTEs or PMDs into one TLB entry without any page-table reshaping.
//! This experiment runs the identical workload, machine and seed under
//! each ladder and reports translation behaviour (walks, walk cycles)
//! and the top-rung fragmentation experience (FMFI), plus the
//! architectural worst-case walk accesses for every rung.

use trident_tlb::{walk_accesses_at, PageTableDepth};
use trident_types::PageGeometry;
use trident_workloads::WorkloadSpec;

use crate::config::scaled_geometry_for;
use crate::experiments::common::{row_config, ExpOptions};
use crate::{Cell, PolicyKind, Runner};

/// The shipped ladders, in the order the CSV reports them.
const ARCHES: [PageGeometry; 3] = [
    PageGeometry::X86_64,
    PageGeometry::RISCV_SV48,
    PageGeometry::AARCH64,
];

/// Workloads contrasting the ladders: GUPS stresses TLB reach with
/// uniform random access; Redis grows incrementally, exercising the
/// promotion ladder rung by rung.
const WORKLOADS: [&str; 2] = ["GUPS", "Redis"];

/// One measured (geometry, workload) run.
#[derive(Debug, Clone)]
pub struct Row {
    /// Architecture id (`"x86_64"`, `"sv48"`, `"aarch64"`).
    pub geometry: &'static str,
    /// Application.
    pub workload: String,
    /// Rungs surviving at this run's scale.
    pub rung_count: usize,
    /// The ladder's size-class labels, `+`-joined in ascending order.
    pub ladder: String,
    /// TLB-miss page walks over the sampled accesses.
    pub walks: u64,
    /// Cycles spent translating.
    pub walk_cycles: u64,
    /// The tenant's top-rung fragmentation experience in thousandths
    /// (fraction of resident bytes not top-rung-backed).
    pub fmfi_milli: u64,
    /// MB mapped at the ladder's largest rung at measurement end.
    pub top_mapped_mb: u64,
}

/// One architectural rung: its worst-case walk cost and semantics.
#[derive(Debug, Clone)]
pub struct WalkRow {
    /// Architecture id.
    pub geometry: &'static str,
    /// Size-class label.
    pub label: String,
    /// `leaf`, `napot`, or `contig` — how the rung is encoded.
    pub kind: &'static str,
    /// Worst-case walk accesses, four-level tables. Group rungs walk at
    /// their backing level: SVNAPOT and contiguous hints buy TLB reach,
    /// never a shorter walk.
    pub walk_accesses_4l: u64,
}

/// The study result.
#[derive(Debug, Clone)]
pub struct Result {
    /// One measured row per (geometry, workload).
    pub rows: Vec<Row>,
    /// One architectural row per (geometry, rung), at full scale.
    pub walk_rows: Vec<WalkRow>,
}

impl Result {
    /// CSV rendering of the measured runs.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "geometry,workload,rungs,ladder,walks,walk_cycles,fmfi_milli,top_mapped_mb\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                r.geometry,
                r.workload,
                r.rung_count,
                r.ladder,
                r.walks,
                r.walk_cycles,
                r.fmfi_milli,
                r.top_mapped_mb,
            ));
        }
        out
    }

    /// CSV rendering of the per-rung walk-cost table.
    #[must_use]
    pub fn to_walk_csv(&self) -> String {
        let mut out = String::from("geometry,size,kind,walk_accesses_4level\n");
        for r in &self.walk_rows {
            out.push_str(&format!(
                "{},{},{},{}\n",
                r.geometry, r.label, r.kind, r.walk_accesses_4l
            ));
        }
        out
    }
}

fn rung_kind(geo: &PageGeometry, size: trident_types::PageSize) -> &'static str {
    let class = geo.class(size);
    if class.napot {
        "napot"
    } else if class.contiguous_span.is_some() {
        "contig"
    } else {
        "leaf"
    }
}

/// Runs the study on the parallel runner: one cell per (geometry,
/// workload), the same row seed for all ladders of one workload so the
/// comparison uses common random numbers.
pub fn run(opts: &ExpOptions) -> Result {
    let specs: Vec<WorkloadSpec> = WORKLOADS
        .iter()
        .map(|name| WorkloadSpec::by_name(name).expect("built-in workload"))
        .collect();
    let mut cells = Vec::new();
    for (row, spec) in specs.iter().enumerate() {
        for arch in &ARCHES {
            let mut config = row_config(opts, row as u64);
            config.geo = scaled_geometry_for(arch, opts.scale);
            cells.push(Cell {
                kind: PolicyKind::Trident,
                spec: *spec,
                config,
            });
        }
    }
    let measured = Runner::new(opts.threads).map(&cells, |_, cell| cell.measure());

    let mut rows = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let Some(m) = &measured[i] else {
            continue;
        };
        let geo = cell.config.geo;
        let top = geo.largest();
        let ladder = geo
            .rungs()
            .map(|s| geo.label(s))
            .collect::<Vec<_>>()
            .join("+");
        rows.push(Row {
            geometry: geo.name(),
            workload: cell.spec.name.to_owned(),
            rung_count: geo.rung_count(),
            ladder,
            walks: m.walks,
            walk_cycles: m.walk_cycles,
            fmfi_milli: m
                .tenants
                .first()
                .map_or(0, |t| (t.fmfi_giant * 1000.0).round() as u64),
            top_mapped_mb: m.mapped_bytes[top.rung()] >> 20,
        });
    }

    // The walk table describes the architecture, not the scaled machine:
    // report the full-scale ladders.
    let walk_rows = ARCHES
        .iter()
        .flat_map(|arch| {
            arch.rungs().map(|size| WalkRow {
                geometry: arch.name(),
                label: arch.label(size),
                kind: rung_kind(arch, size),
                walk_accesses_4l: walk_accesses_at(arch, size, PageTableDepth::FourLevel),
            })
        })
        .collect();
    Result { rows, walk_rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(threads: usize) -> ExpOptions {
        ExpOptions {
            scale: 64,
            samples: 8_000,
            seed: 42,
            threads,
            trace_capacity: None,
            profile: false,
        }
    }

    #[test]
    fn every_ladder_runs_and_walk_table_matches_the_architectures() {
        let r = run(&opts(0));
        assert_eq!(r.rows.len(), WORKLOADS.len() * ARCHES.len());
        // At scale 1/64 every shipped ladder keeps all its rungs.
        for row in &r.rows {
            let expected = match row.geometry {
                "x86_64" => 3,
                "sv48" => 4,
                "aarch64" => 5,
                other => panic!("unexpected geometry {other}"),
            };
            assert_eq!(row.rung_count, expected, "{}", row.geometry);
            assert!(row.walks > 0 && row.walk_cycles > 0);
        }
        // Group rungs walk at their backing level: the sv48 64KB NAPOT
        // rung costs exactly a PTE-level walk, and AArch64's contiguous
        // rungs cost their level's walk.
        let walk = |geometry: &str, label: &str| {
            r.walk_rows
                .iter()
                .find(|w| w.geometry == geometry && w.label == label)
                .unwrap_or_else(|| panic!("{geometry}/{label} missing"))
                .clone()
        };
        assert_eq!(walk("sv48", "64KB").kind, "napot");
        assert_eq!(
            walk("sv48", "64KB").walk_accesses_4l,
            walk("sv48", "4KB").walk_accesses_4l
        );
        assert_eq!(walk("aarch64", "32MB").kind, "contig");
        assert_eq!(
            walk("aarch64", "32MB").walk_accesses_4l,
            walk("aarch64", "2MB").walk_accesses_4l
        );
        assert!(walk("x86_64", "1GB").walk_accesses_4l < walk("x86_64", "4KB").walk_accesses_4l);
    }

    #[test]
    fn results_are_thread_count_independent() {
        let serial = run(&opts(1));
        let parallel = run(&opts(4));
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.to_walk_csv(), parallel.to_walk_csv());
    }
}
