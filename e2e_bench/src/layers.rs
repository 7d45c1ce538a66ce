//! Per-layer metrics of the traced run.
//!
//! [`per_layer`] is the full list `BENCHMARK.json` declares, by crate. A
//! traced run prints every one of them; a layer a workload does not
//! exercise reads 0, and [`unexercised`] names those on stderr.
//! Engine-level numbers are means per engine call, so they compare across
//! workloads whose engine calls differ in size.

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use sigmo_core::RunReport;
use sigmo_device::Queue;
use std::collections::BTreeMap;

/// Kernels the engine launches under the benchmark's configuration (the
/// default fixed-DFS join logs as `join`).
pub const KERNELS: [&str; 7] = [
    "initialize_candidates",
    "label_pair_filter",
    "node_predicate_filter",
    "refine_candidates",
    "gmcr_size",
    "gmcr_populate",
    "join",
];

/// Span names the workloads record; each gets a `self.<name>_s` metric.
pub const SPANS: [&str; 20] = [
    "setup",
    "ingest",
    "lower",
    "intern",
    "freeze",
    "open",
    "thaw",
    "batch",
    "query",
    "parse_smarts",
    "plan_build",
    "screen_query",
    "screen_corpus",
    "csrgo",
    "engine",
    "submit",
    "step",
    "write",
    "idle",
    "check",
];

const FIXED: [(&str, &str); 42] = [
    ("mol.ingest_s", "s"),
    ("mol.smarts_parse_us.p50", "us"),
    ("mol.quarantined", "count"),
    ("store.intern_s", "s"),
    ("store.intern_us.p50", "us"),
    ("store.intern_ms.max", "ms"),
    ("index.freeze_s", "s"),
    ("index.bytes", "bytes"),
    ("index.open_s", "s"),
    ("index.thaw_s", "s"),
    ("index.screen_us.p50", "us"),
    ("index.survivor_ratio", "ratio"),
    ("index.useful_ratio", "ratio"),
    ("index.prune_ratio", "ratio"),
    ("query.rare_ms.p50", "ms"),
    ("query.common_ms.p50", "ms"),
    ("query.predicate_ms.p50", "ms"),
    ("plan.build_us.p50", "us"),
    ("graph.csrgo_build_s", "s"),
    ("engine.setup_s", "s"),
    ("engine.filter_s", "s"),
    ("engine.mapping_s", "s"),
    ("engine.join_s", "s"),
    ("engine.host_residue_s", "s"),
    ("filter.survivor_ratio", "ratio"),
    ("engine.iterations_run", "count"),
    ("join.useful_ratio", "ratio"),
    ("device.launches", "count"),
    ("device.launch_us.p50", "us"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.step_ms.p50", "ms"),
    ("serve.step_ms.p99", "ms"),
    ("serve.batch_mols.mean", "count"),
    ("serve.write_ms", "ms"),
    ("cache.mol_hit_ratio", "ratio"),
    ("cache.plan_hit_ratio", "ratio"),
    ("cache.result_hit_ratio", "ratio"),
    ("serve.queue_depth.max", "count"),
    ("serve.rejected", "count"),
    ("serve.gen_lag_ms.p99", "ms"),
    ("serve.max_rate_rps", "req/s"),
];

/// Per-rate serving metrics, one per fixed rate `lo`/`mid`/`hi`.
const PER_RATE: [(&str, &str); 4] = [
    ("serve.req_p50_ms", "ms"),
    ("serve.req_p95_ms", "ms"),
    ("serve.gen_lag_ms.p99", "ms"),
    ("serve.backlog_growth", "count"),
];

/// Rate labels, lowest first.
pub const RATE_LABELS: [&str; 3] = ["lo", "mid", "hi"];

const TRAILER: [(&str, &str); 7] = [
    ("fail_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.residue_s", "s"),
    ("trace.residue_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans_kept", "count"),
    ("trace.spans_dropped", "count"),
];

/// Every per-layer metric `(name, unit)`, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for k in KERNELS {
        out.push((format!("kernel.{k}.wall_s"), "s"));
        out.push((format!("kernel.{k}.calls"), "count"));
        out.push((format!("kernel.{k}.bytes"), "bytes"));
        out.push((format!("kernel.{k}.atomics"), "count"));
    }
    for (n, u) in PER_RATE {
        for r in RATE_LABELS {
            out.push((format!("{n}.{r}"), u));
        }
    }
    for s in SPANS {
        out.push((format!("self.{s}_s"), "s"));
    }
    out.extend(TRAILER.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

#[derive(Debug, Default, Clone, Copy)]
struct KernelTotals {
    wall_s: f64,
    calls: u64,
    bytes: u64,
    atomics: u64,
}

/// Accumulates layer counters; values the workloads compute directly go
/// in through [`Layers::set`].
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    engine_calls: u64,
    phases: [f64; 4],
    host_residue_s: f64,
    iterations: u64,
    initial_bits: u64,
    final_bits: u64,
    gmcr_pairs: u64,
    matched_pairs: u64,
    kernels: BTreeMap<String, KernelTotals>,
    launch_walls: Vec<f64>,
}

impl Layers {
    /// Sets one metric by name.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Folds one engine call: its report, the kernel records it logged and
    /// the wall time of its span (the tracer's last closed span), and hands
    /// the per-name kernel aggregates to the tracer for export.
    pub fn absorb_engine(&mut self, tr: &mut Tracer, report: &RunReport, queue: &Queue) {
        let wall = tr.last_secs();
        // (name, wall ns, calls) in first-launch order, for the export.
        let mut per_call: Vec<(String, u64, u64)> = Vec::new();
        let mut kernel_wall = 0.0;
        for rec in queue.records() {
            if rec.phase == "transfer" {
                continue;
            }
            let secs = rec.wall_time.as_secs_f64();
            kernel_wall += secs;
            self.launch_walls.push(secs);
            let k = self.kernels.entry(rec.name.clone()).or_default();
            k.wall_s += secs;
            k.calls += 1;
            k.bytes += rec.counters.total_bytes();
            k.atomics += rec.counters.atomic_ops;
            let ns = rec.wall_time.as_nanos() as u64;
            match per_call.iter_mut().find(|(n, _, _)| *n == rec.name) {
                Some(e) => {
                    e.1 += ns;
                    e.2 += 1;
                }
                None => per_call.push((rec.name, ns, 1)),
            }
        }
        tr.attach_kernels(per_call);
        self.engine_calls += 1;
        let t = &report.timings;
        for (acc, d) in self
            .phases
            .iter_mut()
            .zip([t.setup, t.filter, t.mapping, t.join])
        {
            *acc += d.as_secs_f64();
        }
        self.host_residue_s += (wall - kernel_wall).max(0.0);
        self.iterations += report.iterations.len() as u64;
        if let (Some(first), Some(last)) = (report.iterations.first(), report.iterations.last()) {
            self.initial_bits += first.candidates.total as u64;
            self.final_bits += last.candidates.total as u64;
        }
        self.gmcr_pairs += report.gmcr_pairs as u64;
        self.matched_pairs += report.matched_pairs;
    }

    /// Derives the tracer-based metrics and returns every per-layer metric
    /// in output order.
    pub fn finish(mut self, tr: &Tracer) -> Vec<(String, f64, &'static str)> {
        let us = |name: &str, p: f64| quantile(tr.samples(name), p) * 1e6;
        self.set("mol.ingest_s", median(tr.samples("ingest")));
        self.set("mol.smarts_parse_us.p50", us("parse_smarts", 0.5));
        self.set("store.intern_us.p50", us("intern", 0.5));
        self.set(
            "store.intern_ms.max",
            quantile(tr.samples("intern"), 1.0) * 1e3,
        );
        self.set("index.freeze_s", median(tr.samples("freeze")));
        self.set("index.open_s", median(tr.samples("open")));
        self.set("index.thaw_s", median(tr.samples("thaw")));
        self.set("index.screen_us.p50", us("screen_corpus", 0.5));
        self.set("plan.build_us.p50", us("plan_build", 0.5));
        self.set("graph.csrgo_build_s", median(tr.samples("csrgo")));
        self.set("serve.submit_us.p50", us("submit", 0.5));
        self.set("serve.submit_us.p99", us("submit", 0.99));
        self.set("serve.step_ms.p50", quantile(tr.samples("step"), 0.5) * 1e3);
        self.set(
            "serve.step_ms.p99",
            quantile(tr.samples("step"), 0.99) * 1e3,
        );
        self.set("serve.write_ms", median(tr.samples("write")) * 1e3);
        if self.engine_calls > 0 {
            let n = self.engine_calls as f64;
            let names = [
                "engine.setup_s",
                "engine.filter_s",
                "engine.mapping_s",
                "engine.join_s",
            ];
            for (name, total) in names.into_iter().zip(self.phases) {
                self.set(name, total / n);
            }
            self.set("engine.host_residue_s", self.host_residue_s / n);
            self.set("engine.iterations_run", self.iterations as f64 / n);
            self.set(
                "filter.survivor_ratio",
                ratio(self.final_bits, self.initial_bits),
            );
            self.set(
                "join.useful_ratio",
                ratio(self.matched_pairs, self.gmcr_pairs),
            );
            self.set("device.launches", self.launch_walls.len() as f64 / n);
            self.set("device.launch_us.p50", median(&self.launch_walls) * 1e6);
            let kernels = std::mem::take(&mut self.kernels);
            for (name, k) in kernels {
                self.set(&format!("kernel.{name}.wall_s"), k.wall_s / n);
                self.set(&format!("kernel.{name}.calls"), k.calls as f64 / n);
                self.set(&format!("kernel.{name}.bytes"), k.bytes as f64 / n);
                self.set(&format!("kernel.{name}.atomics"), k.atomics as f64 / n);
            }
        }
        for s in SPANS {
            self.set(&format!("self.{s}_s"), tr.agg(s).self_ns as f64 * 1e-9);
        }
        self.set("trace.spans_kept", tr.kept() as f64);
        self.set("trace.spans_dropped", tr.dropped() as f64);
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = self.values.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    }
}

/// Runs one engine call in an `engine` span; when tracing, folds its
/// report and kernel records into `layers`. The queue's record log is
/// cleared either way, so it stays bounded over a long run.
pub fn engine_call(
    tr: &mut Tracer,
    layers: &mut Layers,
    id: u64,
    queue: &Queue,
    call: impl FnOnce() -> RunReport,
) -> RunReport {
    let report = tr.span("engine", id, |_| call());
    if tr.enabled() {
        layers.absorb_engine(tr, &report, queue);
    }
    queue.clear_records();
    report
}

/// Per-layer metrics that read 0 because the workload never reached them.
pub fn unexercised<'a>(metrics: &'a [(String, f64, &'static str)]) -> Vec<&'a str> {
    metrics
        .iter()
        .filter(|(_, v, _)| *v == 0.0)
        .map(|(n, _, _)| n.as_str())
        .collect()
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let all = per_layer();
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.len() <= 128);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for (n, u) in &all {
            assert!(n.len() <= 64 && u.len() <= 16);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }
}
