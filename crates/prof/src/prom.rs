//! The Prometheus text-exposition encoder shared by every renderer.
//!
//! Two things in the repository speak Prometheus text: the offline
//! `trace_analyze --prom` report over a finished trace, and the live
//! `tridentd /metrics` scrape endpoint over the daemon's registry. Both
//! build their output through the one [`TextEncoder`] here — same
//! header layout, same label formatting, same summary shape — so
//! identical counters render byte-identical metric lines no matter
//! which path produced them (a property the serve crate's golden test
//! pins down). [`snapshot_counters`] renders the
//! [`StatsSnapshot`]-derived block both paths share, and [`lint`]
//! checks any exposition body for the format invariants CI enforces:
//! every sample preceded by its `# TYPE`, no duplicate metric
//! families.

use std::fmt::Write as _;

use trident_obs::{InjectSite, StatsSnapshot};
use trident_types::{PageSize, MAX_RUNGS};

use crate::LatencyHistogram;

/// Stable wire labels for ladder rungs. The first three match the
/// historical x86-64 names; higher rungs (NAPOT / contiguous-span
/// classes on wider ladders) are numbered.
pub const RUNG_LABELS: [&str; MAX_RUNGS] = ["base", "huge", "giant", "rung3", "rung4", "rung5"];

/// The wire label for one rung of the ladder.
#[must_use]
pub fn size_label(size: PageSize) -> &'static str {
    RUNG_LABELS[size.rung()]
}

/// An append-only Prometheus text-exposition builder.
///
/// Declare each metric family with [`counter`](TextEncoder::counter),
/// [`gauge`](TextEncoder::gauge) or [`summary`](TextEncoder::summary)
/// (which emit the `# HELP`/`# TYPE` header), then emit its samples
/// with [`sample`](TextEncoder::sample); [`finish`](TextEncoder::finish)
/// returns the body. Purely deterministic: output bytes are a function
/// of the call sequence alone.
///
/// # Examples
///
/// ```
/// use trident_prof::prom::TextEncoder;
///
/// let mut enc = TextEncoder::new();
/// enc.counter("demo_total", "A demo counter.");
/// enc.sample("demo_total", &[("kind", "a")], 3);
/// let text = enc.finish();
/// assert!(text.contains("# TYPE demo_total counter\n"));
/// assert!(text.contains("demo_total{kind=\"a\"} 3\n"));
/// ```
#[derive(Debug, Default, Clone)]
pub struct TextEncoder {
    out: String,
}

impl TextEncoder {
    /// An empty exposition body.
    #[must_use]
    pub fn new() -> TextEncoder {
        TextEncoder { out: String::new() }
    }

    fn header(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Declares a counter family (emits its `# HELP`/`# TYPE` header).
    pub fn counter(&mut self, name: &str, help: &str) {
        self.header(name, "counter", help);
    }

    /// Declares a gauge family (emits its `# HELP`/`# TYPE` header).
    pub fn gauge(&mut self, name: &str, help: &str) {
        self.header(name, "gauge", help);
    }

    /// Declares a summary family (emits its `# HELP`/`# TYPE` header).
    /// Quantile samples plus the `_sum`/`_count` series all belong to
    /// this one declaration.
    pub fn summary(&mut self, name: &str, help: &str) {
        self.header(name, "summary", help);
    }

    /// Emits one sample line: `name{k="v",...} value` (no braces when
    /// `labels` is empty). Label order is the slice order.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{v}\"");
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// The finished exposition body.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// Emits one summary's samples from a [`LatencyHistogram`]: the
/// 0.5/0.9/0.99/1 quantile series (empty histograms report 0) followed
/// by `_sum` and `_count`, all carrying `labels`. The caller declares
/// the family once with [`TextEncoder::summary`]; several label sets
/// may then share it.
pub fn summary_samples(
    enc: &mut TextEncoder,
    name: &str,
    labels: &[(&str, &str)],
    h: &LatencyHistogram,
) {
    for (q, v) in [
        ("0.5", h.p50()),
        ("0.9", h.p90()),
        ("0.99", h.p99()),
        ("1", h.max()),
    ] {
        let mut with_q: Vec<(&str, &str)> = labels.to_vec();
        with_q.push(("quantile", q));
        enc.sample(name, &with_q, v.unwrap_or(0));
    }
    enc.sample(&format!("{name}_sum"), labels, h.sum());
    enc.sample(&format!("{name}_count"), labels, h.count());
}

/// Renders the `trident_*` counter block derived from a
/// [`StatsSnapshot`] — the block the offline profile report and the
/// live daemon registry both embed, byte-identically.
pub fn snapshot_counters(enc: &mut TextEncoder, snap: &StatsSnapshot) {
    enc.counter("trident_faults_total", "Page faults served, by page size.");
    for (label, value) in RUNG_LABELS.into_iter().zip(snap.faults) {
        enc.sample("trident_faults_total", &[("size", label)], value);
    }
    enc.counter(
        "trident_fault_ns_total",
        "Modeled fault-handling nanoseconds.",
    );
    for (label, value) in RUNG_LABELS.into_iter().zip(snap.fault_ns) {
        enc.sample("trident_fault_ns_total", &[("size", label)], value);
    }
    enc.counter(
        "trident_promotions_total",
        "Promotions, by target page size.",
    );
    for (label, value) in RUNG_LABELS.into_iter().zip(snap.promotions) {
        enc.sample("trident_promotions_total", &[("size", label)], value);
    }
    enc.counter(
        "trident_daemon_ns_total",
        "Background-daemon CPU nanoseconds.",
    );
    enc.sample("trident_daemon_ns_total", &[], snap.daemon_ns);
    enc.counter(
        "trident_compaction_bytes_total",
        "Bytes migrated by compaction.",
    );
    enc.sample(
        "trident_compaction_bytes_total",
        &[],
        snap.compaction_bytes_copied,
    );
    enc.counter(
        "trident_pv_bytes_exchanged_total",
        "Bytes whose copy Trident_pv elided.",
    );
    enc.sample(
        "trident_pv_bytes_exchanged_total",
        &[],
        snap.pv_bytes_exchanged,
    );
    enc.counter(
        "trident_injected_faults_total",
        "Faults injected by a fault plan, by site.",
    );
    for site in InjectSite::ALL {
        enc.sample(
            "trident_injected_faults_total",
            &[("site", site.as_str())],
            snap.injected_at(site),
        );
    }
    enc.counter(
        "trident_promotions_deferred_total",
        "Promotions deferred by an injected candidate invalidation.",
    );
    enc.sample(
        "trident_promotions_deferred_total",
        &[],
        snap.promotions_deferred,
    );
}

/// Checks a Prometheus text body for the invariants the repository's
/// expositions guarantee: every sample line belongs to a family
/// declared by a preceding `# TYPE` (summaries cover their `_sum` and
/// `_count` series), no metric family is declared twice, and every
/// line parses as a header, a sample, or blank.
///
/// # Errors
///
/// One human-readable message per violation, each prefixed with the
/// 1-based line number.
pub fn lint(text: &str) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    // (family name, is_summary) in declaration order.
    let mut families: Vec<(String, bool)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.trim().is_empty() || line.starts_with("# HELP ") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                errors.push(format!("line {n}: malformed TYPE header: {line:?}"));
                continue;
            };
            if !matches!(
                kind,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                errors.push(format!("line {n}: unknown metric type {kind:?}"));
            }
            if families.iter().any(|(f, _)| f == name) {
                errors.push(format!("line {n}: duplicate family {name:?}"));
            }
            families.push((name.to_owned(), kind == "summary"));
            continue;
        }
        if line.starts_with('#') {
            errors.push(format!("line {n}: unknown comment form: {line:?}"));
            continue;
        }
        // A sample: metric name runs to the first '{' or space.
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        if name.is_empty() {
            errors.push(format!("line {n}: sample with no metric name: {line:?}"));
            continue;
        }
        let declared = families.iter().any(|(f, is_summary)| {
            name == f
                || (*is_summary
                    && (name.strip_suffix("_sum") == Some(f)
                        || name.strip_suffix("_count") == Some(f)))
        });
        if !declared {
            errors.push(format!(
                "line {n}: sample {name:?} has no preceding # TYPE declaration"
            ));
        }
        if !line[name_end..].contains(' ') {
            errors.push(format!("line {n}: sample {name:?} carries no value"));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_formats_headers_and_labels() {
        let mut enc = TextEncoder::new();
        enc.gauge("g", "A gauge.");
        enc.sample("g", &[], 7);
        enc.counter("c_total", "A counter.");
        enc.sample("c_total", &[("a", "x"), ("b", "y")], 1);
        assert_eq!(
            enc.finish(),
            "# HELP g A gauge.\n# TYPE g gauge\ng 7\n\
             # HELP c_total A counter.\n# TYPE c_total counter\nc_total{a=\"x\",b=\"y\"} 1\n"
        );
    }

    #[test]
    fn summary_samples_cover_quantiles_sum_and_count() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 3] {
            h.record(v);
        }
        let mut enc = TextEncoder::new();
        enc.summary("s_ns", "A summary.");
        summary_samples(&mut enc, "s_ns", &[("span", "x")], &h);
        let text = enc.finish();
        assert!(text.contains("s_ns{span=\"x\",quantile=\"0.5\"} 2\n"));
        assert!(text.contains("s_ns_sum{span=\"x\"} 6\n"));
        assert!(text.contains("s_ns_count{span=\"x\"} 3\n"));
        lint(&text).unwrap();
    }

    #[test]
    fn snapshot_counters_pass_the_lint() {
        let snap = StatsSnapshot {
            faults: [3, 2, 1, 0, 0, 0],
            daemon_ns: 99,
            ..StatsSnapshot::default()
        };
        let mut enc = TextEncoder::new();
        snapshot_counters(&mut enc, &snap);
        let text = enc.finish();
        assert!(text.contains("trident_faults_total{size=\"base\"} 3\n"));
        assert!(text.contains("trident_daemon_ns_total 99\n"));
        lint(&text).unwrap();
    }

    #[test]
    fn lint_rejects_undeclared_and_duplicate_families() {
        let undeclared = "orphan_total 3\n";
        let errs = lint(undeclared).unwrap_err();
        assert!(errs[0].contains("no preceding # TYPE"), "{errs:?}");

        let duplicate = "# TYPE a counter\na 1\n# TYPE a counter\na 2\n";
        let errs = lint(duplicate).unwrap_err();
        assert!(errs[0].contains("duplicate family"), "{errs:?}");

        let summary_children = "# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 1\ns_count 1\n";
        lint(summary_children).unwrap();
    }
}
