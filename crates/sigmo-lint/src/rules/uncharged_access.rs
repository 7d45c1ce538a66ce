//! **uncharged-access** — bitmap traffic in kernel-reachable code must be
//! charged to the device counters.
//!
//! The paper-style roofline and the committed `BENCH_pipeline.json` are
//! derived entirely from the hand-maintained counter model
//! (`word_reads`, `bytes_read`, `atomic_ops` in `sigmo-device::counters`).
//! The model only stays honest if every word actually loaded or atomically
//! updated on a kernel path is charged by the function that generates the
//! traffic — or by a caller that the function visibly reports its counts
//! to, which is exactly what the pragma escape hatch documents.
//!
//! Per kernel-reachable `fn` (found through the call graph, wherever the
//! fn lives): if the body performs bitmap traffic (atomic RMW ops,
//! word-parallel row scans, or probes/updates on a `bitmap` receiver) but
//! never calls a `counters.*` / `record_*` / `add_*` charge, every traffic
//! site is flagged. Launch closure bodies are checked against their
//! enclosing fn, which is where their charges conventionally sit. The
//! counter implementation itself — fns named `add_*` / `record_*` — is the
//! charge sink and is exempt: its `fetch_add`s *are* the charging.

use super::{find_all, in_ranges, Diagnostic, Rule, RuleCtx};
use crate::index::FileIndex;
use std::ops::Range;

/// See the module docs.
pub struct UnchargedAccess;

/// Operations that generate modeled global-memory traffic.
const TRAFFIC_OPS: &[&str] = &[
    ".fetch_or(",
    ".fetch_and(",
    ".fetch_xor(",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_max(",
    ".fetch_min(",
    ".iter_set_in_range(",
    ".next_set_in_range(",
    ".row_any_in_range(",
    ".row_any_in_range_counted(",
    ".row_count_in_range(",
    ".load_word(",
    ".or_word(",
    ".clear_word(",
    "bitmap.get(",
    "bitmap.set(",
    "bitmap.clear(",
];

/// Calls that charge the device counters.
const CHARGE_CALLS: &[&str] = &[
    "counters.add_",
    "counters.record_",
    ".add_instructions(",
    ".add_bytes_read(",
    ".add_bytes_written(",
    ".add_atomics(",
    ".add_word_reads(",
    ".record_trips(",
];

impl Rule for UnchargedAccess {
    fn name(&self) -> &'static str {
        "uncharged-access"
    }

    fn description(&self) -> &'static str {
        "bitmap word/atomic traffic in a kernel-reachable fn that never charges the device counters"
    }

    fn check(&self, file: &FileIndex, ctx: &RuleCtx, out: &mut Vec<Diagnostic>) {
        if ctx.kernel.is_empty() {
            return;
        }
        // Kernel-reachable fns: traffic and charge both scoped to the body.
        for item in &file.fns {
            if !ctx.in_kernel(item.body.start) {
                continue;
            }
            if item.name.starts_with("add_") || item.name.starts_with("record_") {
                continue; // the counter implementation is the charge sink
            }
            flag_uncharged(file, item.body.clone(), item.body.clone(), &item.name, out);
        }
        // Launch closure bodies: traffic inside the closure, charge
        // accepted anywhere in the enclosing fn (the conventional spot).
        for closure in &file.kernel_closures {
            let scope = file
                .fns
                .iter()
                .find(|f| f.body.start <= closure.start && closure.end <= f.body.end);
            // A closure inside a kernel-reachable fn was already covered.
            if scope.is_some_and(|f| ctx.in_kernel(f.body.start)) {
                continue;
            }
            let (charge_scope, name) = match scope {
                Some(f) => (f.body.clone(), f.name.as_str()),
                None => (closure.clone(), "<kernel closure>"),
            };
            flag_uncharged(file, closure.clone(), charge_scope, name, out);
        }
    }
}

/// Flags every traffic site in `traffic_scope` unless `charge_scope`
/// contains a charge call.
fn flag_uncharged(
    file: &FileIndex,
    traffic_scope: Range<usize>,
    charge_scope: Range<usize>,
    scope_name: &str,
    out: &mut Vec<Diagnostic>,
) {
    if in_ranges(&file.tests, traffic_scope.start) {
        return;
    }
    let charged = CHARGE_CALLS
        .iter()
        .any(|c| !find_all(&file.file, charge_scope.clone(), c).is_empty());
    if charged {
        return;
    }
    for op in TRAFFIC_OPS {
        for at in find_all(&file.file, traffic_scope.clone(), op) {
            let (line, column) = file.file.line_col(at + 1);
            out.push(Diagnostic {
                rule: "uncharged-access",
                file: file.file.path.clone(),
                line,
                column,
                message: format!(
                    "`{}` in kernel-reachable fn `{}` is never charged to the device counters \
                     (counters.add_* / record_*): the BENCH_pipeline.json accounting model \
                     would silently drift — charge the traffic or pragma-document who \
                     charges it",
                    op.trim_start_matches('.').trim_end_matches('('),
                    scope_name,
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_rule;

    fn run(src: &str) -> Vec<Diagnostic> {
        run_rule(&UnchargedAccess, "crates/sigmo-core/src/mapping.rs", src)
    }

    /// A launch whose closure calls `probe`, making `probe` kernel-reachable.
    fn kernelized(body_fn: &str) -> String {
        format!(
            "fn host(q: &Queue, c0: &K) {{\n    q.parallel_for(\"k\", \"map\", n, 128, |i, c| {{ probe(i, c); }});\n    c0.add_instructions(1);\n}}\n{body_fn}"
        )
    }

    #[test]
    fn uncharged_scan_in_reachable_fn_is_flagged() {
        let d = run(&kernelized(
            "fn probe(i: usize, b: &B) -> bool {\n    b.row_any_in_range(0, 0, 64)\n}\n",
        ));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("probe"));
    }

    #[test]
    fn charged_scan_is_clean() {
        let d = run(&kernelized(
            "fn probe(i: usize, counters: &K) -> bool {\n    let any = b.row_any_in_range(0, 0, 64);\n    counters.add_word_reads(1, 8);\n    any\n}\n",
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unreachable_fn_traffic_is_not_flagged() {
        // `bump` is never called from a kernel: host-side bookkeeping.
        let d = run(
            "fn host(q: &Queue) {\n    q.parallel_for(\"k\", \"map\", n, 128, |i, c| { c.add_instructions(1); });\n}\nfn bump(x: &AtomicU64) {\n    x.fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn uncharged_traffic_inside_closure_is_flagged() {
        let d = run(
            "fn host(q: &Queue) {\n    q.parallel_for(\"k\", \"map\", n, 128, |i, c| {\n        bitmap.set(i, 1);\n    });\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("host"));
    }

    #[test]
    fn uncharged_word_writes_inside_closure_are_flagged() {
        let d = run(
            "fn host(q: &Queue) {\n    q.parallel_for(\"k\", \"filter\", n, 64, |w, c| {\n        let live = bitmap.load_word(0, w);\n        bitmap.or_word(1, w, live);\n        bitmap.clear_word(0, w, live);\n    });\n}\n",
        );
        assert_eq!(d.len(), 3, "{d:?}");
    }

    #[test]
    fn closure_traffic_charged_in_enclosing_fn_is_clean() {
        let d = run(
            "fn host(q: &Queue, counters: &K) {\n    q.parallel_for(\"k\", \"map\", n, 128, |i, c| {\n        bitmap.set(i, 1);\n    });\n    counters.add_atomics(n);\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn charge_sink_fns_are_exempt() {
        let d = run(&kernelized(
            "fn probe(i: usize, c: &K) {\n    add_atomics(c, 1);\n    c.add_instructions(1);\n}\nfn add_atomics(c: &K, n: u64) {\n    c.total.fetch_add(n, Ordering::Relaxed);\n}\n",
        ));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_mods_are_skipped() {
        let d = run(
            "#[cfg(test)]\nmod tests {\n    fn t(b: &B) { assert!(b.row_any_in_range(0, 0, 8)); }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
