//! EXPERIMENTS.md's Figure 1, Figure 2, Figures 9/10, Figure 12 and
//! Figure 13 rows as named tests over the committed `report/` CSVs.
//!
//! CI regenerates `report/` and fails on any byte of difference, so these
//! files are what the code prints at EXPERIMENTS.md's options. A changed
//! number shows as a report diff; a changed *claim* fails here by name.
//! Each ✔/≈ row asserts the measured side of its claim, and the ✖ row
//! asserts the deviation it documents, so a re-grade must edit the test.

use std::collections::BTreeMap;

/// One report CSV: `(workload, config)` → column → value.
struct Report {
    cells: BTreeMap<(String, String), BTreeMap<String, String>>,
    /// Workloads in file order.
    workloads: Vec<String>,
    /// The workloads the paper shades as 1GB-sensitive, in file order
    /// (empty for a CSV without a `shaded` column).
    shaded: Vec<String>,
}

impl Report {
    fn read(name: &str) -> Report {
        let path = format!("{}/report/{name}.csv", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().expect("a header line").split(',').collect();
        let mut cells = BTreeMap::new();
        let mut workloads = Vec::new();
        let mut shaded = Vec::new();
        for line in lines {
            let row: BTreeMap<String, String> = header
                .iter()
                .zip(line.split(','))
                .map(|(k, v)| ((*k).to_owned(), v.to_owned()))
                .collect();
            let workload = row["workload"].clone();
            if !workloads.contains(&workload) {
                if row.get("shaded").is_some_and(|v| v == "true") {
                    shaded.push(workload.clone());
                }
                workloads.push(workload.clone());
            }
            cells.insert((workload, row["config"].clone()), row);
        }
        Report {
            cells,
            workloads,
            shaded,
        }
    }

    fn value(&self, workload: &str, config: &str, column: &str) -> f64 {
        let row = self
            .cells
            .get(&(workload.to_owned(), config.to_owned()))
            .unwrap_or_else(|| panic!("no {workload}/{config} row"));
        row[column].parse().expect("a number")
    }

    fn perf(&self, workload: &str, config: &str) -> f64 {
        self.value(workload, config, "perf_norm")
    }

    /// `to` over `from` in performance, per application.
    fn gains(&self, from: &str, to: &str) -> Vec<(&str, f64)> {
        self.workloads
            .iter()
            .map(|w| (w.as_str(), self.perf(w, to) / self.perf(w, from)))
            .collect()
    }

    /// `to` over `from` in performance, per shaded application.
    fn shaded_gains(&self, from: &str, to: &str) -> Vec<(&str, f64)> {
        self.shaded
            .iter()
            .map(|w| (w.as_str(), self.perf(w, to) / self.perf(w, from)))
            .collect()
    }
}

fn geomean(gains: &[(&str, f64)]) -> f64 {
    let logs: f64 = gains.iter().map(|(_, g)| g.ln()).sum();
    (logs / gains.len() as f64).exp()
}

/// The four applications the paper leaves unshaded.
const UNSHADED: [&str; 4] = ["CC", "BC", "PR", "CG.D"];

/// The paper's shading threshold: a 1GB gain over THP of at least 3%.
const SHADING_THRESHOLD: f64 = 1.03;

// ----- Figure 1 -------------------------------------------------------------

/// ≈ "8 shaded apps gain ≥3% from 1GB-hugetlbfs over THP, 12.5% on
/// average": all eight pass the threshold, and the geometric mean (+20.4%)
/// is above the paper's average.
#[test]
fn fig1_every_shaded_app_gains_at_least_3pct_from_1gb_over_thp() {
    let fig1 = Report::read("fig1");
    let gains = fig1.shaded_gains("2MB-THP", "1GB-Hugetlbfs");
    assert_eq!(gains.len(), 8, "the paper shades eight applications");
    for (w, gain) in &gains {
        assert!(*gain >= SHADING_THRESHOLD, "{w}: 1GB/THP = {gain:.3}");
    }
    let mean = geomean(&gains);
    assert!(mean > 1.125, "geometric mean gain {mean:.3}");
}

/// ✖ "the other 4 apps (CC, BC, PR, CG) gain from 2MB but barely from
/// 1GB": all four gain from THP over 4KB, but only CG.D stays under the
/// 3% threshold from 1GB over THP; BC, CC and PR gain more.
#[test]
fn fig1_deviation_bc_cc_pr_gain_more_than_3pct_from_1gb_and_only_cg_stays_under() {
    let fig1 = Report::read("fig1");
    for w in UNSHADED {
        let thp = fig1.perf(w, "2MB-THP");
        assert!(thp > 1.0, "{w}: THP over 4KB = {thp:.3}");
        let gain = fig1.perf(w, "1GB-Hugetlbfs") / thp;
        if w == "CG.D" {
            assert!(gain < SHADING_THRESHOLD, "{w}: 1GB/THP = {gain:.3}");
        } else {
            assert!(gain > SHADING_THRESHOLD, "{w}: 1GB/THP = {gain:.3}");
        }
    }
}

/// ≈ "THP within 0.5% of 2MB-hugetlbfs": 2MB-hugetlbfs leads THP on
/// every application, by 0.6–2.0%.
#[test]
fn fig1_2mb_hugetlbfs_leads_thp_by_at_most_about_2pct() {
    let fig1 = Report::read("fig1");
    for w in &fig1.workloads {
        let lead = fig1.perf(w, "2MB-Hugetlbfs") / fig1.perf(w, "2MB-THP");
        assert!(
            lead > 1.0 && lead < 1.025,
            "{w}: 2MB-hugetlbfs/THP = {lead:.4}"
        );
    }
}

/// ✔ walk cycles, ≈ performance: "Redis: THP cuts more walk cycles than
/// 2MB-hugetlbfs (stack effect)". THP's walk-fraction ratio (0.746) is
/// below 2MB-hugetlbfs's (0.751), while 2MB-hugetlbfs still performs
/// better (1.065 vs 1.058).
#[test]
fn fig1_redis_thp_cuts_more_walk_cycles_than_2mb_hugetlbfs() {
    let fig1 = Report::read("fig1");
    let walk = |config| fig1.value("Redis", config, "walk_fraction_norm");
    assert!(walk("2MB-THP") < walk("2MB-Hugetlbfs"));
    assert!(fig1.perf("Redis", "2MB-Hugetlbfs") > fig1.perf("Redis", "2MB-THP"));
}

/// ✔ "walk-cycle fractions drop 4KB → 2MB → 1GB": for all twelve
/// applications, the walk fraction never rises along the ladder.
#[test]
fn fig1_walk_fractions_never_rise_from_4kb_to_2mb_to_1gb() {
    let fig1 = Report::read("fig1");
    assert_eq!(fig1.workloads.len(), 12);
    for w in &fig1.workloads {
        let walk = |config| fig1.value(w, config, "walk_fraction");
        for two_mb in ["2MB-THP", "2MB-Hugetlbfs"] {
            assert!(walk("4KB") >= walk(two_mb), "{w}: 4KB < {two_mb}");
            assert!(walk(two_mb) >= walk("1GB-Hugetlbfs"), "{w}: {two_mb} < 1GB");
        }
    }
}

// ----- Figure 2 -------------------------------------------------------------

/// ✔ "XSBench walk cycles −80% with large pages": −75% at 1GB+1GB (walk
/// ratio 0.251) and −35% at 2MB+2MB.
#[test]
fn fig2_xsbench_1gb_pages_cut_walk_cycles_by_at_least_70pct() {
    let fig2 = Report::read("fig2");
    let walk = |config| fig2.value("XSBench", config, "walk_fraction_norm");
    assert!(
        walk("1GB+1GB") <= 0.30,
        "1GB+1GB walk ratio {}",
        walk("1GB+1GB")
    );
    assert!(walk("2MB+2MB") < 1.0);
    assert!(walk("1GB+1GB") < walk("2MB+2MB"));
}

/// ✔ "shaded apps gain 17.6% from 1GB+1GB over 2MB+2MB": every shaded
/// application gains, at a geometric mean of +18.8%.
#[test]
fn fig2_shaded_apps_gain_about_18pct_from_1gb_over_2mb_at_both_levels() {
    let fig2 = Report::read("fig2");
    let gains = fig2.shaded_gains("2MB+2MB", "1GB+1GB");
    assert_eq!(gains.len(), 8);
    for (w, gain) in &gains {
        assert!(*gain > 1.0, "{w}: 1GB+1GB/2MB+2MB = {gain:.3}");
    }
    let mean = geomean(&gains);
    assert!((mean - 1.176).abs() < 0.05, "geometric mean gain {mean:.3}");
}

/// ✔ "even 1GB-agnostic apps (PR, CC) see large walk-cycle cuts": at
/// 1GB+1GB their walk ratio is under 0.05 (0.014 and 0.018), and both
/// gain over 2MB+2MB.
#[test]
fn fig2_1gb_agnostic_pr_and_cc_still_lose_most_walk_cycles_at_1gb() {
    let fig2 = Report::read("fig2");
    for w in ["PR", "CC"] {
        let walk = fig2.value(w, "1GB+1GB", "walk_fraction_norm");
        assert!(walk < 0.05, "{w}: 1GB+1GB walk ratio {walk}");
        assert!(fig2.perf(w, "1GB+1GB") > fig2.perf(w, "2MB+2MB"), "{w}");
    }
}

// ----- Figures 9/10 ---------------------------------------------------------

fn mean(gains: &[(&str, f64)]) -> f64 {
    gains.iter().map(|(_, g)| g).sum::<f64>() / gains.len() as f64
}

/// ≈ "unfragmented: Trident +14% over THP (GUPS +47%)": Trident gains on
/// all eight shaded applications, +18.9% on average, and GUPS gains
/// +42.1%.
#[test]
fn fig9_unfragmented_trident_beats_thp_everywhere_by_about_14pct_on_average() {
    let fig9 = Report::read("fig9_clean");
    let gains = fig9.gains("2MB-THP", "Trident");
    assert_eq!(
        gains.len(),
        8,
        "Figure 9 shows the eight shaded applications"
    );
    for (w, gain) in &gains {
        assert!(*gain > 1.0, "{w}: Trident/THP = {gain:.3}");
    }
    let mean = mean(&gains);
    assert!((mean - 1.14).abs() < 0.06, "mean gain {mean:.3}");
    let gups = fig9.perf("GUPS", "Trident");
    assert!(gups > 1.35, "GUPS: Trident/THP = {gups:.3}");
}

/// ≈ "fragmented: +18% (GUPS >50%)": Trident gains on all eight
/// applications, +18.3% on average; GUPS gains +39.9%, not over 50%.
#[test]
fn fig9_fragmented_trident_beats_thp_everywhere_by_about_18pct_on_average() {
    let fig10 = Report::read("fig9_fragmented");
    let gains = fig10.gains("2MB-THP", "Trident");
    assert_eq!(gains.len(), 8);
    for (w, gain) in &gains {
        assert!(*gain > 1.0, "{w}: Trident/THP = {gain:.3}");
    }
    let mean = mean(&gains);
    assert!((mean - 1.18).abs() < 0.03, "mean gain {mean:.3}");
    let gups = fig10.perf("GUPS", "Trident");
    assert!(gups > 1.35, "GUPS: Trident/THP = {gups:.3}");
}

/// ✔ "Trident also beats HawkEye everywhere; HawkEye can trail THP under
/// fragmentation": on clean and fragmented memory, HawkEye never reaches
/// Trident, and it trails THP on XSBench, SVM, Graph500 and Memcached.
#[test]
fn fig9_trident_beats_hawkeye_everywhere_and_hawkeye_trails_thp_on_four_apps() {
    for name in ["fig9_clean", "fig9_fragmented"] {
        let fig9 = Report::read(name);
        for w in &fig9.workloads {
            let (hawkeye, trident) = (fig9.perf(w, "HawkEye"), fig9.perf(w, "Trident"));
            assert!(
                hawkeye < trident,
                "{name} {w}: HawkEye {hawkeye} vs Trident {trident}"
            );
        }
        for w in ["XSBench", "SVM", "Graph500", "Memcached"] {
            let hawkeye = fig9.perf(w, "HawkEye");
            assert!(hawkeye < 1.0, "{name} {w}: HawkEye/THP = {hawkeye}");
        }
    }
}

/// ≈ "walk-cycle cuts 38–97%": Trident cuts THP's walk cycles by 44–76% on
/// clean memory and 47–71% on fragmented memory, inside the paper's range
/// on every application.
#[test]
fn fig9_trident_cuts_walk_cycles_within_the_papers_38_to_97pct() {
    for name in ["fig9_clean", "fig9_fragmented"] {
        let fig9 = Report::read(name);
        for w in &fig9.workloads {
            let cut = 1.0 - fig9.value(w, "Trident", "walk_fraction_norm");
            assert!(
                (0.38..=0.97).contains(&cut),
                "{name} {w}: walk cut {cut:.3}"
            );
        }
    }
}

// ----- Figure 12 -------------------------------------------------------------

/// ✔ "Trident+Trident +18.7% mean over THP+THP (paper +16%)": Trident at
/// both levels gains on all eight applications, +18.7% on average.
#[test]
fn fig12_trident_at_both_levels_gains_about_18_7pct_on_average_over_thp() {
    let fig12 = Report::read("fig12");
    let gains = fig12.gains("2MB+2MB-THP", "Trident+Trident");
    assert_eq!(gains.len(), 8, "Figure 12 shows eight applications");
    for (w, gain) in &gains {
        assert!(*gain > 1.0, "{w}: Trident+Trident/THP+THP = {gain:.3}");
    }
    let mean = mean(&gains);
    assert!((mean - 1.187).abs() < 0.005, "mean gain {mean:.4}");
}

/// ✔ "HawkEye+HawkEye at 0.998 ≈ THP+THP (paper +1%)": HawkEye at both
/// levels stays within 1% of THP+THP on every application.
#[test]
fn fig12_hawkeye_at_both_levels_stays_within_about_1pct_of_thp() {
    let fig12 = Report::read("fig12");
    let gains = fig12.gains("2MB+2MB-THP", "HawkEye+HawkEye");
    for (w, gain) in &gains {
        assert!((gain - 1.0).abs() <= 0.01, "{w}: HawkEye/THP = {gain:.3}");
    }
    let mean = mean(&gains);
    assert!((mean - 0.998).abs() < 0.001, "mean {mean:.4}");
}

/// ✔ "the biggest winners are GUPS +41.5% and Canneal +38.9% (paper's
/// biggest: Canneal +50%)": GUPS and Canneal gain the most from Trident at
/// both levels, and no other application gains even +25%.
#[test]
fn fig12_gups_and_canneal_gain_the_most() {
    let fig12 = Report::read("fig12");
    let mut gains = fig12.gains("2MB+2MB-THP", "Trident+Trident");
    gains.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<&str> = gains.iter().take(2).map(|(w, _)| *w).collect();
    assert_eq!(top, ["GUPS", "Canneal"], "{gains:?}");
    assert!(gains[1].1 > 1.35, "{gains:?}");
    assert!(gains[2].1 < 1.25, "{gains:?}");
}

// ----- Figure 13 -------------------------------------------------------------

/// Trident-pv over copy-based Trident, per application.
fn pv_gains(fig13: &Report) -> Vec<(&str, f64)> {
    fig13.gains("Trident+Trident", "Trident-pv+Trident-pv")
}

/// ≈ "gains here are at most 4.7%, and the largest is on GUPS (1.309 vs
/// 1.250); the paper reports up to 10%": pv never gains more than 5% over
/// copy-based Trident, and its largest gain is on GUPS.
#[test]
fn fig13_pv_gains_at_most_about_5pct_over_copy_trident_and_most_on_gups() {
    let fig13 = Report::read("fig13");
    let gains = pv_gains(&fig13);
    assert_eq!(gains.len(), 8, "Figure 13 shows eight applications");
    let (best, gain) = gains
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("eight applications");
    assert_eq!(best, "GUPS", "{gains:?}");
    assert!(gain > 1.04 && gain < 1.05, "GUPS: pv/copy = {gain:.4}");
    assert_eq!(fig13.perf("GUPS", "Trident-pv+Trident-pv"), 1.309);
    assert_eq!(fig13.perf("GUPS", "Trident+Trident"), 1.250);
}

/// ≈ "it ties on SVM, Graph500 and Canneal (within 0.1%) and loses 1.9%
/// on Redis (1.087 vs 1.108)".
#[test]
fn fig13_pv_ties_on_svm_graph500_and_canneal_and_loses_on_redis() {
    let fig13 = Report::read("fig13");
    let gains: BTreeMap<&str, f64> = pv_gains(&fig13).into_iter().collect();
    for w in ["SVM", "Graph500", "Canneal"] {
        let gain = gains[w];
        assert!((gain - 1.0).abs() <= 0.001, "{w}: pv/copy = {gain:.4}");
    }
    let redis = gains["Redis"];
    assert!(redis < 0.985, "Redis: pv/copy = {redis:.4}");
}

/// ≈ "its geometric mean over THP+THP is 1.167, against copy-based
/// Trident's 1.158".
#[test]
fn fig13_pv_geometric_mean_over_thp_edges_copy_tridents() {
    let fig13 = Report::read("fig13");
    let pv = geomean(&fig13.gains("2MB+2MB-THP", "Trident-pv+Trident-pv"));
    let copy = geomean(&fig13.gains("2MB+2MB-THP", "Trident+Trident"));
    assert!((pv - 1.167).abs() < 0.0005, "pv geomean {pv:.4}");
    assert!((copy - 1.158).abs() < 0.0005, "copy geomean {copy:.4}");
    assert!(pv > copy);
}
