//! Deterministic report rendering: markdown, JSON and Prometheus text.
//!
//! Every renderer is a pure function of the [`Profile`] with fixed field
//! order and fixed-precision number formatting, so equal profiles render
//! to byte-identical reports, live or replayed.

use std::fmt::Write as _;

use trident_obs::SpanKind;
use trident_types::MAX_RUNGS;

use crate::prom::{self, RUNG_LABELS};
use crate::{LatencyHistogram, Profile};

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_owned(), |v| v.to_string())
}

/// One count per ladder rung, in [`RUNG_LABELS`] order, joined by `sep`.
fn per_rung(values: &[u64; MAX_RUNGS], sep: &str) -> String {
    let values: Vec<String> = values.iter().map(u64::to_string).collect();
    values.join(sep)
}

/// One count per ladder rung as a JSON object keyed by the rung labels.
fn json_per_rung(values: &[u64; MAX_RUNGS]) -> String {
    let fields: Vec<String> = RUNG_LABELS
        .iter()
        .zip(values)
        .map(|(label, v)| format!("\"{label}\":{v}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Renders the profile as a markdown report.
#[must_use]
pub fn render_markdown(profile: &Profile) -> String {
    let mut out = String::new();
    let snap = &profile.snapshot;
    let _ = writeln!(out, "# Trident profile");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "- events: {} folded, {} lost to ring eviction",
        profile.events_seen, profile.events_lost
    );
    let _ = writeln!(
        out,
        "- faults: {} ({} ns total)",
        snap.total_faults(),
        snap.total_fault_ns()
    );
    let _ = writeln!(out, "- daemon CPU: {} ns", snap.daemon_ns);
    let _ = writeln!(
        out,
        "- compaction: {} attempts, {} succeeded, {} bytes moved",
        snap.compaction_attempts, snap.compaction_successes, snap.compaction_bytes_copied
    );
    let _ = writeln!(out, "- pv bytes exchanged: {}", snap.pv_bytes_exchanged);
    let _ = writeln!(out);
    let _ = writeln!(out, "## Spans");
    let _ = writeln!(out);
    let _ = writeln!(out, "| span | count | p50 ns | p90 ns | p99 ns | max ns |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for kind in SpanKind::ALL {
        let h = profile.spans.histogram(kind);
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            kind.as_str(),
            h.count(),
            opt(h.p50()),
            opt(h.p90()),
            opt(h.p99()),
            opt(h.max()),
        );
    }
    if profile.spans.abandoned() > 0 || profile.spans.unmatched_ends() > 0 {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} spans abandoned at trace gaps, {} ends without a begin.",
            profile.spans.abandoned(),
            profile.spans.unmatched_ends()
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "## Time series ({} windows of {} ticks)",
        profile.series.windows().len(),
        profile.series.window_ticks()
    );
    let _ = writeln!(out);
    let rungs = RUNG_LABELS.join("/");
    let _ = writeln!(
        out,
        "| window | faults {rungs} | promos {rungs} | compact runs | compact bytes | pv pairs | zero blocks | tlb misses | fmfi | free 2M | free 1G | injected | deferred |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    for (i, w) in profile.series.windows().iter().enumerate() {
        let fmfi = w
            .fmfi()
            .map_or_else(|| "-".to_owned(), |f| format!("{f:.3}"));
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            i,
            per_rung(&w.faults, "/"),
            per_rung(&w.promotions, "/"),
            w.compaction_runs,
            w.compaction_bytes,
            w.pv_pairs,
            w.zero_blocks,
            w.tlb_misses,
            fmfi,
            w.free_huge,
            w.free_giant,
            w.injected_faults,
            w.promotions_deferred,
        );
    }
    out
}

fn json_hist(h: &LatencyHistogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count(),
        h.sum(),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0),
        h.p50().unwrap_or(0),
        h.p90().unwrap_or(0),
        h.p99().unwrap_or(0),
    )
}

/// Renders the profile as one deterministic JSON document.
#[must_use]
pub fn render_json(profile: &Profile) -> String {
    let mut out = String::new();
    let snap = &profile.snapshot;
    out.push_str("{\n");
    let _ = writeln!(out, "  \"version\": {},", snap.version);
    let _ = writeln!(out, "  \"events_seen\": {},", profile.events_seen);
    let _ = writeln!(out, "  \"events_lost\": {},", profile.events_lost);
    let _ = writeln!(out, "  \"faults\": {},", json_per_rung(&snap.faults));
    let _ = writeln!(out, "  \"fault_ns\": {},", json_per_rung(&snap.fault_ns));
    let _ = writeln!(out, "  \"daemon_ns\": {},", snap.daemon_ns);
    let _ = writeln!(
        out,
        "  \"compaction\": {{\"attempts\":{},\"successes\":{},\"bytes\":{}}},",
        snap.compaction_attempts, snap.compaction_successes, snap.compaction_bytes_copied
    );
    let _ = writeln!(
        out,
        "  \"pv_bytes_exchanged\": {},",
        snap.pv_bytes_exchanged
    );
    let _ = writeln!(
        out,
        "  \"promotions_deferred\": {},",
        snap.promotions_deferred
    );
    let _ = writeln!(
        out,
        "  \"injected_faults\": {},",
        snap.total_injected_faults()
    );
    out.push_str("  \"spans\": {\n");
    for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
        let comma = if i + 1 < SpanKind::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{}\": {}{comma}",
            kind.as_str(),
            json_hist(profile.spans.histogram(kind))
        );
    }
    out.push_str("  },\n");
    let _ = writeln!(
        out,
        "  \"window_ticks\": {},",
        profile.series.window_ticks()
    );
    out.push_str("  \"windows\": [\n");
    let windows = profile.series.windows();
    for (i, w) in windows.iter().enumerate() {
        let comma = if i + 1 < windows.len() { "," } else { "" };
        let fmfi = w
            .fmfi()
            .map_or_else(|| "null".to_owned(), |f| format!("{f:.3}"));
        let _ = writeln!(
            out,
            "    {{\"ticks\":{},\"faults\":[{}],\"fault_ns\":[{}],\"promotions\":[{}],\"demotions\":[{}],\"compaction_runs\":{},\"compaction_bytes\":{},\"pv_pairs\":{},\"zero_blocks\":{},\"daemon_ns\":{},\"tlb_misses\":{},\"walk_cycles\":{},\"fmfi\":{fmfi},\"free_huge\":{},\"free_giant\":{},\"injected_faults\":{},\"promotions_deferred\":{}}}{comma}",
            w.ticks,
            per_rung(&w.faults, ","),
            per_rung(&w.fault_ns, ","),
            per_rung(&w.promotions, ","),
            per_rung(&w.demotions, ","),
            w.compaction_runs,
            w.compaction_bytes,
            w.pv_pairs,
            w.zero_blocks,
            w.daemon_ns,
            w.tlb_misses,
            w.walk_cycles,
            w.free_huge,
            w.free_giant,
            w.injected_faults,
            w.promotions_deferred,
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Renders the profile in the Prometheus text exposition format.
///
/// Built on the shared [`crate::prom`] encoder, so the snapshot counter
/// block here is byte-identical to the one a live `tridentd /metrics`
/// scrape embeds for the same counters.
#[must_use]
pub fn render_prometheus(profile: &Profile) -> String {
    let mut enc = prom::TextEncoder::new();
    prom::snapshot_counters(&mut enc, &profile.snapshot);
    enc.summary("trident_span_ns", "Span duration quantiles in nanoseconds.");
    for kind in SpanKind::ALL {
        prom::summary_samples(
            &mut enc,
            "trident_span_ns",
            &[("span", kind.as_str())],
            profile.spans.histogram(kind),
        );
    }
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_obs::{AllocSite, Event};
    use trident_types::PageSize;

    fn sample_profile() -> Profile {
        Profile::from_events(
            1,
            [
                Event::SpanBegin {
                    kind: SpanKind::Fault,
                },
                Event::Fault {
                    size: PageSize::new(1),
                    site: AllocSite::PageFault,
                    ns: 1800,
                },
                Event::SpanEnd {
                    kind: SpanKind::Fault,
                    ns: 1800,
                },
                Event::Gauge {
                    fmfi_milli: 42,
                    free_huge: 10,
                    free_giant: 1,
                },
                Event::DaemonTick { ns: 12 },
            ]
            .iter(),
        )
    }

    #[test]
    fn renderers_are_deterministic() {
        let p = sample_profile();
        assert_eq!(render_markdown(&p), render_markdown(&p.clone()));
        assert_eq!(render_json(&p), render_json(&p.clone()));
        assert_eq!(render_prometheus(&p), render_prometheus(&p.clone()));
    }

    #[test]
    fn markdown_mentions_spans_and_windows() {
        let md = render_markdown(&sample_profile());
        assert!(md.contains("| fault | 1 |"));
        assert!(md.contains("0.042"));
    }

    #[test]
    fn json_windows_round_numbers() {
        let js = render_json(&sample_profile());
        assert!(js.contains(
            "\"faults\": {\"base\":0,\"huge\":1,\"giant\":0,\"rung3\":0,\"rung4\":0,\"rung5\":0}"
        ));
        assert!(js.contains("\"fmfi\":0.042"));
    }

    #[test]
    fn reports_cover_every_rung_of_the_ladder() {
        // A rung-3 fault and a rung-4 promotion, as on the AArch64 ladder.
        let p = Profile::from_events(
            1,
            [
                Event::Fault {
                    size: PageSize::new(3),
                    site: AllocSite::PageFault,
                    ns: 700,
                },
                Event::Promote {
                    size: PageSize::new(4),
                    bytes_copied: 0,
                    bloat_pages: 0,
                },
                Event::DaemonTick { ns: 5 },
            ]
            .iter(),
        );
        let js = render_json(&p);
        assert!(
            js.contains(
                "\"faults\": {\"base\":0,\"huge\":0,\"giant\":0,\"rung3\":1,\"rung4\":0,\"rung5\":0},"
            ),
            "{js}"
        );
        assert!(js.contains("\"faults\":[0,0,0,1,0,0],"), "{js}");
        assert!(js.contains("\"promotions\":[0,0,0,0,1,0],"), "{js}");
        let md = render_markdown(&p);
        assert!(md.contains("| 0 | 0/0/0/1/0/0 | 0/0/0/0/1/0 |"), "{md}");
    }

    #[test]
    fn prometheus_has_summary_lines() {
        let prom = render_prometheus(&sample_profile());
        assert!(prom.contains("trident_faults_total{size=\"huge\"} 1"));
        assert!(prom.contains("trident_span_ns{span=\"fault\",quantile=\"0.5\"} "));
        assert!(prom.contains("trident_span_ns_count{span=\"fault\"} 1"));
    }

    #[test]
    fn prometheus_rendering_is_lint_clean() {
        crate::prom::lint(&render_prometheus(&sample_profile())).unwrap();
    }
}
