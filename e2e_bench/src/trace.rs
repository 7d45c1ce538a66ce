//! A span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a crate's public API: name, start, end, parent and the query or request
//! id. Memory is bounded: at most [`SPAN_CAPACITY`] spans and
//! [`SAMPLE_CAPACITY`] duration samples per name are kept, later ones are
//! counted as dropped, while the per-name aggregates (count, total, self
//! time) stay exact. Everything is written once, at the end, as Chrome
//! trace-event JSON, which Perfetto and chrome://tracing open offline.
//!
//! A disabled tracer only calls the closure, so the untraced runs that give
//! the end-to-end metrics pay one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for export; later spans only feed the aggregates.
pub const SPAN_CAPACITY: usize = 1 << 16;
/// Duration samples kept per span name for percentiles.
pub const SAMPLE_CAPACITY: usize = 1 << 18;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub seq: u64,
    pub parent: Option<u64>,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Kernel records of one engine call, folded per kernel name. The engine
/// logs durations but not start times, so the export lays them end to end
/// from the start of their engine span.
#[derive(Debug, Clone)]
struct KernelGroup {
    parent: u64,
    start_ns: u64,
    kernels: Vec<(String, u64, u64)>,
}

/// Exact per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    seq: u64,
    id: u64,
    start_ns: u64,
    child_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_seq: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    kernel_groups: Vec<KernelGroup>,
    dropped: u64,
    top_level_ns: u64,
    aggs: BTreeMap<&'static str, Agg>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    last_closed: Option<Span>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_seq: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            kernel_groups: Vec::new(),
            dropped: 0,
            top_level_ns: 0,
            aggs: BTreeMap::new(),
            samples: BTreeMap::new(),
            last_closed: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for query or request `id`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            seq,
            id,
            start_ns,
            child_ns: 0,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span stack is balanced");
        let dur = end_ns - open.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.seq
        });
        if parent.is_none() {
            self.top_level_ns += dur;
        }
        let agg = self.aggs.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        let samples = self.samples.entry(name).or_default();
        if samples.len() < SAMPLE_CAPACITY {
            samples.push(dur as f64 * 1e-9);
        }
        let span = Span {
            name,
            seq: open.seq,
            parent,
            id: open.id,
            start_ns: open.start_ns,
            end_ns,
        };
        if self.spans.len() < SPAN_CAPACITY {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
        self.last_closed = Some(span);
        out
    }

    /// Wall seconds of the span that closed last.
    pub fn last_secs(&self) -> f64 {
        self.last_closed
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .unwrap_or(0.0)
    }

    /// Attaches per-name kernel aggregates `(name, wall ns, calls)` to the
    /// span that closed last (the engine call they ran in).
    pub fn attach_kernels(&mut self, kernels: Vec<(String, u64, u64)>) {
        if let Some(span) = self.last_closed {
            if self.kernel_groups.len() < SPAN_CAPACITY {
                self.kernel_groups.push(KernelGroup {
                    parent: span.seq,
                    start_ns: span.start_ns,
                    kernels,
                });
            }
        }
    }

    /// Exact totals for `name`.
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Kept duration samples for `name`, in seconds.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every span name seen, with its totals.
    pub fn aggs(&self) -> &BTreeMap<&'static str, Agg> {
        &self.aggs
    }

    /// Summed wall seconds of the top-level spans.
    pub fn top_level_secs(&self) -> f64 {
        self.top_level_ns as f64 * 1e-9
    }

    /// Spans kept for export.
    pub fn kept(&self) -> usize {
        self.spans.len()
    }

    /// Spans closed after the export buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Chrome trace-event JSON. `summary` goes into `otherData` and into a
    /// closing instant event, so the residue and overhead lines travel with
    /// the spans.
    pub fn chrome_json(&self, summary: &[(&str, f64)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"e2e_bench\"}}",
        );
        for s in &self.spans {
            let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"seq\":{},\"parent\":{},\"id\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.seq,
                parent,
                s.id
            )
            .expect("write to String");
        }
        for g in &self.kernel_groups {
            let mut ts = g.start_ns;
            for (name, wall_ns, calls) in &g.kernels {
                write!(
                    out,
                    ",\n{{\"name\":\"kernel:{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":{},\"calls\":{},\"aggregate\":true}}}}",
                    name,
                    ts as f64 / 1e3,
                    *wall_ns as f64 / 1e3,
                    g.parent,
                    calls
                )
                .expect("write to String");
                ts += wall_ns;
            }
        }
        let mut args = String::new();
        for (i, (k, v)) in summary.iter().enumerate() {
            if i > 0 {
                args.push(',');
            }
            write!(args, "\"{k}\":{v}").expect("write to String");
        }
        write!(
            out,
            ",\n{{\"name\":\"summary\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"args\":{{{args}}}}}\n],\"otherData\":{{{args}}}}}\n",
            self.now_ns() as f64 / 1e3
        )
        .expect("write to String");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_residue_counts_top_level() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = t.agg("outer");
        let inner = t.agg("inner");
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 5_000_000);
        assert!(outer.self_ns + inner.total_ns <= outer.total_ns + 1);
        assert_eq!(t.top_level_secs(), outer.total_ns as f64 * 1e-9);
        let json = t.chrome_json(&[("residue_s", 0.5)]);
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"residue_s\":0.5"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 0, |_| 7);
        assert_eq!(v, 7);
        assert!(t.aggs().is_empty());
        assert_eq!(t.kept(), 0);
    }
}
