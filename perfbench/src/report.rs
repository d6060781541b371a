//! Order statistics, the per-layer accumulator and the result line.

use std::time::Duration;

use trident_core::SpanKind;

use crate::instrument::{EventCounts, LayerRecorder, PolicyTimes};

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; 0 when empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`; 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of a process in MB (`VmHWM`), or `None` when
/// `/proc` does not report it.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Everything the traced run learns about each layer, summed over the
/// cells and jobs it ran. Metrics are reported per cell (or per call)
/// so runs of different lengths compare.
#[derive(Debug, Default)]
pub struct Layers {
    /// Native cells timed phase by phase.
    pub sim_cells: u64,
    /// `System` build, settle and measure time.
    pub sim_phases: [Duration; 3],
    /// Virtualized cells timed phase by phase.
    pub virt_cells: u64,
    /// `VirtSystem` launch, settle and measure time.
    pub virt_phases: [Duration; 3],
    /// 2MB mappings exchanged by Trident_pv, from the snapshots.
    pub pv_exchanges: u64,
    /// Replayed `AccessSampler::sample` calls and their time.
    pub samples: (u64, Duration),
    /// Layouts replayed, and their heap chunks.
    pub layouts: (u64, u64),
    /// Replayed page-table accesses and their time.
    pub accesses: (u64, Duration),
    /// Replayed TLB translations and their time.
    pub translations: (u64, Duration),
    /// Cells whose walk counts were added, walks, walk cycles.
    pub tlb: (u64, u64, u64),
    /// Cells run under the policy wrapper.
    pub policy_cells: u64,
    /// Summed wrapper totals.
    pub policy: PolicyTimes,
    /// Cells run under the layer recorder.
    pub recorder_cells: u64,
    /// Summed event counts.
    pub events: EventCounts,
    /// Per span kind (indexed like [`SpanKind::ALL`]): cells counted and
    /// summed self time.
    pub spans: [(u64, u64); SpanKind::ALL.len()],
    /// Replayed fragmenter runs and their time.
    pub fragments: (u64, Duration),
    /// Wall time of the same cells run plainly and instrumented.
    pub plain_wall: Duration,
    /// See [`plain_wall`](Self::plain_wall).
    pub traced_wall: Duration,
    /// Jobs whose service-side costs were replayed.
    pub jobs: u64,
    /// Summed local `job::execute` time.
    pub execute: Duration,
    /// Summed codec replay time.
    pub codec: Duration,
    /// Per-job latency minus execute and codec time, in ms.
    pub transport_waits_ms: Vec<f64>,
    /// Summed `Result` response line bytes.
    pub response_bytes: u64,
}

impl Layers {
    /// Adds the counts and span times of one cell's recorders (a nested
    /// cell has one per level).
    pub fn add_recorders(&mut self, recs: &[&LayerRecorder]) {
        self.recorder_cells += 1;
        for (i, span) in self.spans.iter_mut().enumerate() {
            span.0 += 1;
            span.1 += recs.iter().map(|r| r.self_ns[i]).sum::<u64>();
        }
        for rec in recs {
            self.events.absorb(&rec.counts);
        }
    }

    /// Takes, from a probe run, every layer this run never reached, so
    /// each traced run reports every layer.
    pub fn fill_from(&mut self, probe: Layers) {
        if self.sim_cells == 0 {
            self.sim_cells = probe.sim_cells;
            self.sim_phases = probe.sim_phases;
        }
        if self.virt_cells == 0 {
            self.virt_cells = probe.virt_cells;
            self.virt_phases = probe.virt_phases;
            self.pv_exchanges = probe.pv_exchanges;
        }
        if self.policy.fault_calls == 0 {
            self.policy_cells = probe.policy_cells;
            self.policy = probe.policy;
        }
        for (mine, theirs) in self.spans.iter_mut().zip(probe.spans) {
            if mine.1 == 0 {
                *mine = theirs;
            }
        }
        if self.fragments.0 == 0 {
            self.fragments = probe.fragments;
        }
        if self.jobs == 0 {
            self.jobs = probe.jobs;
            self.execute = probe.execute;
            self.codec = probe.codec;
            self.transport_waits_ms = probe.transport_waits_ms;
            self.response_bytes = probe.response_bytes;
        }
    }

    /// Adds one policy wrapper's totals.
    pub fn add_policy(&mut self, t: PolicyTimes) {
        self.policy_cells += 1;
        self.policy.fault_ns += t.fault_ns;
        self.policy.fault_calls += t.fault_calls;
        self.policy.tick_ns += t.tick_ns;
        self.policy.tick_calls += t.tick_calls;
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |total: f64, n: u64| ratio(total, n as f64);
        let per_call = |(n, d): (u64, Duration)| ratio(d.as_nanos() as f64, n as f64);
        let sim = |i: usize| per(ms(self.sim_phases[i]), self.sim_cells);
        let virt = |i: usize| per(ms(self.virt_phases[i]), self.virt_cells);
        let cells = self.recorder_cells;
        let span = |k: SpanKind| {
            let i = SpanKind::ALL
                .iter()
                .position(|&x| x == k)
                .expect("listed kind");
            let (n, ns) = self.spans[i];
            per(ns as f64, n)
        };
        let e = &self.events;
        vec![
            metric("sim.build_ms", sim(0), "ms"),
            metric("sim.settle_ms", sim(1), "ms"),
            metric("sim.measure_ms", sim(2), "ms"),
            metric("virt.launch_ms", virt(0), "ms"),
            metric("virt.settle_ms", virt(1), "ms"),
            metric("virt.measure_ms", virt(2), "ms"),
            metric(
                "virt.pv_exchanges",
                per(self.pv_exchanges as f64, self.virt_cells),
                "count",
            ),
            metric("workloads.sample_ns", per_call(self.samples), "ns"),
            metric(
                "workloads.heap_chunks",
                per(self.layouts.1 as f64, self.layouts.0),
                "count",
            ),
            metric("vm.access_ns", per_call(self.accesses), "ns"),
            metric("tlb.translate_ns", per_call(self.translations), "ns"),
            metric("tlb.walks", per(self.tlb.1 as f64, self.tlb.0), "count"),
            metric(
                "tlb.walk_cycles",
                per(self.tlb.2 as f64, self.tlb.0),
                "cycles",
            ),
            metric(
                "core.fault_ns",
                per(self.policy.fault_ns as f64, self.policy.fault_calls),
                "ns",
            ),
            metric(
                "core.fault_calls",
                per(self.policy.fault_calls as f64, self.policy_cells),
                "count",
            ),
            metric(
                "core.tick_ns",
                per(self.policy.tick_ns as f64, self.policy.tick_calls),
                "ns",
            ),
            metric(
                "core.tick_calls",
                per(self.policy.tick_calls as f64, self.policy_cells),
                "count",
            ),
            metric("core.promo_scan_self_ns", span(SpanKind::PromoScan), "ns"),
            metric("core.compaction_self_ns", span(SpanKind::Compaction), "ns"),
            metric("core.zerofill_self_ns", span(SpanKind::ZeroFill), "ns"),
            metric("core.promotions", per(e.promotions as f64, cells), "count"),
            metric(
                "core.compaction_runs",
                per(e.compaction_runs as f64, cells),
                "count",
            ),
            metric(
                "core.compaction_success_ratio",
                ratio(e.compaction_successes as f64, e.compaction_runs as f64),
                "ratio",
            ),
            metric(
                "core.giant_attempt_success_ratio",
                ratio(
                    (e.giant_attempts - e.giant_failures) as f64,
                    e.giant_attempts as f64,
                ),
                "ratio",
            ),
            metric(
                "phys.fragment_ms",
                per(ms(self.fragments.1), self.fragments.0),
                "ms",
            ),
            metric(
                "phys.buddy_splits",
                per(e.buddy_splits as f64, cells),
                "count",
            ),
            metric(
                "phys.buddy_coalesces",
                per(e.buddy_coalesces as f64, cells),
                "count",
            ),
            metric("obs.events", per(e.events as f64, cells), "count"),
            metric(
                "obs.trace_overhead_pct",
                100.0 * (ratio(ms(self.traced_wall), ms(self.plain_wall)) - 1.0),
                "%",
            ),
            metric("serve.execute_ms", per(ms(self.execute), self.jobs), "ms"),
            metric(
                "serve.codec_us",
                per(self.codec.as_secs_f64() * 1e6, self.jobs),
                "us",
            ),
            metric(
                "serve.transport_wait_ms",
                median(&self.transport_waits_ms),
                "ms",
            ),
            metric(
                "serve.response_bytes",
                per(self.response_bytes as f64, self.jobs),
                "bytes",
            ),
        ]
    }
}

/// The benchmark's last stdout line.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Non-finite values are not JSON; no metric should produce
            // one, and a 0 in their place is visible in review.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
