//! End-to-end and per-layer wall-clock benchmark of the SIGMo workspace.
//!
//! ```text
//! e2e_bench --workload <batch_match|corpus_screen|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `e2e_bench/run.py` builds this binary and passes its arguments on. The
//! serving workload's fixed rates and latency limit are constants of
//! [`serve`], which `BENCHMARK.json` records; so is its executor's worker
//! count, which this binary sets for that workload. The last line of stdout is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! workload runs twice, untraced then traced, the metrics are the
//! per-layer ones, and a Chrome trace-event file goes to
//! `e2e_bench/out/<workload>-seed<n>.json`. A failed output check prints
//! `"correct": false` and exits with code 1.

mod batch;
mod inputs;
mod layers;
mod screen;
mod serve;
mod stats;
mod trace;
mod workload;

use layers::Layers;
use std::fmt::Write as _;
use trace::Tracer;
use workload::{Opts, Pass};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["batch_match", "corpus_screen", "serve_mixed"];

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pairs_per_s", "pairs/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Generated inputs of one workload.
enum Inputs {
    Batch(batch::Inputs),
    Screen(screen::Inputs),
    Serve(serve::Inputs),
}

fn make_inputs(workload: &str, opts: &Opts) -> Option<Inputs> {
    Some(match workload {
        "batch_match" => Inputs::Batch(batch::inputs(opts)),
        "corpus_screen" => Inputs::Screen(screen::inputs(opts)),
        "serve_mixed" => Inputs::Serve(serve::inputs(opts)),
        _ => return None,
    })
}

fn run_pass(inputs: &Inputs, opts: &Opts, tr: &mut Tracer, layers: &mut Layers) -> Pass {
    match inputs {
        Inputs::Batch(i) => batch::run(opts, i, tr, layers),
        Inputs::Screen(i) => screen::run(opts, i, tr, layers),
        Inputs::Serve(i) => serve::run(opts, i, tr, layers),
    }
}

/// The result line and whether every check passed.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    problems: Vec<String>,
}

/// Runs one workload; `trace_out` receives the Chrome trace of a traced run.
fn run(
    workload: &str,
    opts: &Opts,
    traced: bool,
    trace_out: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let inputs = make_inputs(workload, opts).ok_or_else(|| {
        format!(
            "unknown workload `{workload}`, expected one of {}",
            WORKLOADS.join(", ")
        )
    })?;
    let mut layers = Layers::default();
    let base = run_pass(&inputs, opts, &mut Tracer::new(false), &mut layers);
    if !traced {
        let e = &base.e2e;
        let values = [
            e.setup_s,
            e.pairs_per_s,
            e.query_p50_ms,
            e.query_p90_ms,
            stats::peak_rss_mib(),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u))
            .collect();
        return Ok(Outcome {
            correct: base.problems.is_empty(),
            attempted: base.attempted,
            failed: base.failed,
            metrics,
            problems: base.problems,
        });
    }

    let mut tr = Tracer::new(true);
    let traced_pass = run_pass(&inputs, opts, &mut tr, &mut layers);
    let residue = (traced_pass.wall_s - tr.top_level_secs()).max(0.0);
    let overhead = traced_pass.busy_per_op_s / base.busy_per_op_s;
    let attempted = base.attempted + traced_pass.attempted;
    let failed = base.failed + traced_pass.failed;
    let rejected = base.rejected + traced_pass.rejected;
    layers.set(
        "fail_ratio",
        (failed + rejected) as f64 / attempted.max(1) as f64,
    );
    layers.set("trace.wall_s", traced_pass.wall_s);
    layers.set("trace.residue_s", residue);
    layers.set("trace.residue_ratio", residue / traced_pass.wall_s);
    layers.set("trace.overhead_ratio", overhead);
    if let Some(path) = trace_out {
        let json = tr.chrome_json(&[
            ("wall_s", traced_pass.wall_s),
            ("top_level_spans_s", tr.top_level_secs()),
            ("residue_s", residue),
            ("overhead_ratio", overhead),
        ]);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, json));
        if let Err(e) = written {
            return Err(format!("cannot write {}: {e}", path.display()));
        }
    }
    eprint!(
        "{}",
        self_time_table(&tr, traced_pass.wall_s, residue, overhead)
    );
    let metrics = layers.finish(&tr);
    let idle = layers::unexercised(&metrics);
    if !idle.is_empty() {
        eprintln!(
            "reading 0 on {workload} (layer not reached, or nothing counted): {}",
            idle.join(", ")
        );
    }
    let mut problems = base.problems;
    problems.extend(traced_pass.problems);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    })
}

/// Per-span self and total time, then the residue and overhead lines.
fn self_time_table(tr: &Tracer, wall: f64, residue: f64, overhead: f64) -> String {
    let mut out = format!(
        "{:<16} {:>9} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for (name, a) in tr.aggs() {
        writeln!(
            out,
            "{name:<16} {:>9} {:>12.6} {:>12.6}",
            a.count,
            a.total_ns as f64 * 1e-9,
            a.self_ns as f64 * 1e-9
        )
        .expect("write to String");
    }
    writeln!(
        out,
        "{:<16} {:>9} {:>12.6} {:>12.6}",
        "(residue)", "", residue, residue
    )
    .expect("write to String");
    writeln!(
        out,
        "traced wall {wall:.6} s, tracing overhead ×{overhead:.4} per operation"
    )
    .expect("write to String");
    out
}

/// The result line.
fn json_line(o: &Outcome) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let v = if value.is_finite() { *value } else { 0.0 };
        write!(m, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            .expect("write to String");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed
    )
}

struct Args {
    workload: String,
    opts: Opts,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        tiny: false,
        corrupt_total: false,
    };
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        opts,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "serve_mixed" {
        // Set before any thread starts; the executor reads it per launch.
        std::env::set_var("RAYON_NUM_THREADS", serve::EXECUTOR_THREADS);
    }
    let trace_path = std::path::PathBuf::from(format!(
        "e2e_bench/out/{}-seed{}.json",
        args.workload, args.opts.seed
    ));
    let outcome = match run(&args.workload, &args.opts, args.trace, Some(&trace_path)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            std::process::exit(2);
        }
    };
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", json_line(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Opts {
        Opts {
            seed,
            seconds: 0.2,
            tiny: true,
            corrupt_total: false,
        }
    }

    fn spec() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// The `"name"` values of one array of `BENCHMARK.json`, in order.
    fn names_in(spec: &str, key: &str) -> Vec<String> {
        let start = spec.find(&format!("\"{key}\"")).expect("key present");
        let body = &spec[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_prints() {
        let spec = spec();
        assert_eq!(names_in(&spec, "workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(&spec, "end_to_end"), e2e);
        let layers: Vec<String> = layers::per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in(&spec, "per_layer"), layers);
        for (name, unit) in END_TO_END.iter().copied().chain(
            layers::per_layer()
                .iter()
                .map(|(n, u)| (n.as_str(), *u))
                .collect::<Vec<_>>(),
        ) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let [lo, mid, hi] = serve::RATES;
        let serve_why = format!(
            "rates {lo}/{mid}/{hi} req/s, p95 limit {} ms",
            serve::P95_LIMIT_MS
        );
        assert!(
            spec.contains(&serve_why),
            "serve_mixed's why must state `{serve_why}`"
        );
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, b, c) = (tiny(7), tiny(7), tiny(8));
        let batch = |o: &Opts| batch::inputs(o).corpus.text;
        assert_eq!(batch(&a), batch(&b));
        assert_ne!(batch(&a), batch(&c));
        let screen = |o: &Opts| {
            let i = screen::inputs(o);
            (i.corpus.text, i.order, i.check_sample)
        };
        assert_eq!(screen(&a), screen(&b));
        assert_ne!(screen(&a), screen(&c));
        let serve = |o: &Opts| {
            let i = serve::inputs(o);
            let gaps: Vec<u64> = i.traffic.gaps.iter().map(|g| g.to_bits()).collect();
            let writes: Vec<String> = i.writes.iter().map(|w| format!("{w:?}")).collect();
            (
                i.standing.text,
                inputs::requests_fingerprint(&i.traffic.requests),
                gaps,
                writes,
                i.check,
            )
        };
        assert_eq!(serve(&a), serve(&b));
        assert_ne!(serve(&a), serve(&c));
    }

    #[test]
    fn corpus_text_plants_the_stated_share_of_malformed_lines() {
        let c = inputs::corpus(3, 200, "m");
        assert_eq!(c.planted_bad, 200 / inputs::BAD_LINE_EVERY);
        assert_eq!(c.text.lines().count(), 200 + c.planted_bad);
        let ingest = sigmo_mol::ingest_smi(&c.text, false);
        assert_eq!(ingest.quarantined.len(), c.planted_bad);
    }

    #[test]
    fn every_workload_passes_its_checks_untraced_and_traced() {
        for w in WORKLOADS {
            for traced in [false, true] {
                let out = run(w, &tiny(11), traced, None).expect("known workload");
                assert!(out.correct, "{w} traced={traced}: {:?}", out.problems);
                assert_eq!(out.failed, 0);
                let expected = if traced {
                    layers::per_layer().len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(out.metrics.len(), expected);
                assert!(json_line(&out).starts_with("{\"correct\": true"));
            }
        }
    }

    #[test]
    fn a_corrupted_total_fails_every_workload() {
        for w in WORKLOADS {
            let opts = Opts {
                corrupt_total: true,
                ..tiny(12)
            };
            let out = run(w, &opts, false, None).expect("known workload");
            assert!(!out.correct, "{w} accepted a corrupted total");
            assert!(json_line(&out).starts_with("{\"correct\": false"));
        }
    }
}
