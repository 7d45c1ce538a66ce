//! Ablation: convergence-driven filtering vs the fixed-iteration filter.
//!
//! Runs the full pipeline on the `bench_pipeline` workload (Quick scale by
//! default, same seed and device profile) two ways:
//!
//! * `exhaustive` — the pre-convergence baseline, kept here as a
//!   bench-local control: the fixed-schedule node-major refine. Every
//!   configured iteration launches [`refine_candidates_classes`] over
//!   every data node, testing each live signature class (query rows
//!   grouped by identical signature, [`SignatureClasses`]);
//! * `incremental` — the engine: the row-major kernel re-tests only the
//!   query rows whose signature moved, dead data graphs are skipped, and
//!   refinement stops once the query signatures converge.
//!
//! Both must produce identical match totals (the monotonicity
//! argument in `DESIGN.md` §4b); the acceptance bar is a ≥2× drop in
//! `refine_candidates` wall time from `exhaustive` to `incremental`.

use sigmo_bench::BenchScale;
use sigmo_core::filter::initialize_candidates_bucketed;
use sigmo_core::join::{join, JoinParams};
use sigmo_core::{
    CandidateBitmap, Engine, EngineConfig, Gmcr, Governor, LabelSchema, QueryPlan, Signature,
    SignatureSet,
};
use sigmo_device::{summarize, CostModel, DeviceProfile, Queue};
use sigmo_graph::{CsrGo, NodeId};
use sigmo_mol::Dataset;
use std::time::Instant;

/// Modeled instruction cost of one domination test (|L| group compares).
const REFINE_INSTR_PER_TEST: u64 = 24;

/// Query nodes grouped by identical signature. The domination verdict for
/// a (query row, data node) pair depends only on the two signatures, so
/// rows sharing a signature share their verdict against every data node:
/// the refine kernel runs one test per *class* instead of one per row.
/// Classes are rebuilt each iteration (signatures advance between
/// iterations) in one O(|V_Q|) pass, and are ordered by their smallest
/// member row so the grouping is deterministic.
struct SignatureClasses {
    classes: Vec<(Signature, Vec<u32>)>,
}

impl SignatureClasses {
    /// Groups all query rows by their current signature.
    fn build(queries: &CsrGo, query_sigs: &SignatureSet) -> Self {
        let mut index: std::collections::HashMap<Signature, usize> =
            std::collections::HashMap::new();
        let mut classes: Vec<(Signature, Vec<u32>)> = Vec::new();
        for q in 0..queries.num_nodes() {
            let sig = query_sigs.signature(q as NodeId);
            match index.entry(sig) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    classes[*e.get()].1.push(q as u32);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(classes.len());
                    classes.push((sig, vec![q as u32]));
                }
            }
        }
        // First-seen order == ascending smallest member, since rows are
        // visited in ascending order.
        SignatureClasses { classes }
    }

    /// The classes as `(signature, ascending member rows)`.
    fn classes(&self) -> &[(Signature, Vec<u32>)] {
        &self.classes
    }
}

/// The node-major RefineCandidates kernel: clears candidate bits whose
/// data signature no longer dominates the query signature.
///
/// Per data node the kernel walks signature classes, probing member rows'
/// bits until the first survivor; classes with no surviving bit are
/// skipped without a test. A dominating verdict keeps every member bit
/// (nothing to do — the remaining members are not even probed); a failing
/// verdict clears every surviving member bit. Identical bits to the
/// per-row form, at one domination test per live class.
#[allow(clippy::too_many_arguments)]
fn refine_candidates_classes(
    queue: &Queue,
    data: &CsrGo,
    schema: &LabelSchema,
    classes: &SignatureClasses,
    data_sigs: &SignatureSet,
    bitmap: &CandidateBitmap,
    work_group_size: usize,
    governor: &Governor,
) -> u64 {
    let word_bytes = bitmap.word_width().bytes();
    let snap = queue.parallel_for_chunks_until(
        "refine_candidates",
        "filter",
        data.num_nodes(),
        work_group_size,
        || governor.stopped(),
        |items, counters| {
            // Modeled charges accumulate in group-locals and flush once per
            // work-group: the shared counter atomics cost a handful of RMWs
            // per group, not several per data node.
            let mut cleared = 0u64;
            let mut tests = 0u64;
            let mut probes = 0u64;
            let mut trip_sq = 0u64;
            let mut items_run = 0u64;
            let mut visit = |d: usize| {
                let dsig = data_sigs.signature(d as NodeId);
                let mut node_tests = 0u64;
                // The paper prefetches the relevant bitmap words into local
                // memory per work-group; on the host executor the row words
                // are already cache-resident, so we charge the modeled
                // traffic and read the shared bitmap directly.
                for (qsig, members) in classes.classes() {
                    // Probe members until the first surviving bit decides
                    // whether this class needs a test at all.
                    let mut first_live = None;
                    for (i, &q) in members.iter().enumerate() {
                        probes += 1;
                        if bitmap.get(q as usize, d) {
                            first_live = Some(i);
                            break;
                        }
                    }
                    let Some(first_live) = first_live else {
                        continue;
                    };
                    node_tests += 1;
                    if dsig.dominates(schema, qsig) {
                        // Every member bit survives; the rest need no probe.
                        continue;
                    }
                    bitmap.clear(members[first_live] as usize, d);
                    cleared += 1;
                    for &q in &members[first_live + 1..] {
                        probes += 1;
                        if bitmap.get(q as usize, d) {
                            bitmap.clear(q as usize, d);
                            cleared += 1;
                        }
                    }
                }
                tests += node_tests;
                trip_sq += node_tests * node_tests;
                items_run += 1;
            };
            for d in items {
                if governor.stopped() {
                    break; // consult once per data node, never per bit
                }
                visit(d);
            }
            counters.add_instructions(REFINE_INSTR_PER_TEST * tests + probes);
            // Each probed row costs exactly one bitmap word (the word of
            // this data node's column in that row): charge the words
            // actually touched, word-granular. Signature pairs are
            // per-test.
            counters.add_word_reads(probes, word_bytes);
            counters.add_bytes_read(tests * 16);
            counters.add_atomics(cleared);
            counters.add_bytes_written(cleared * word_bytes);
            counters.record_trip_moments(tests, trip_sq, items_run);
        },
    );
    snap.atomic_ops
}

#[derive(Clone, Copy)]
struct Sample {
    refine_wall_s: f64,
    refine_calls: usize,
    filter_wall_s: f64,
    iterations_run: usize,
    total_matches: u64,
    matched_pairs: u64,
    gmcr_pairs: usize,
}

/// One run's counted results plus its filter trace, before the kernel
/// wall times are read off the queue.
struct Run {
    filter_wall_s: f64,
    trace: Vec<(usize, usize, u64, u64)>,
    total_matches: u64,
    matched_pairs: u64,
    gmcr_pairs: usize,
}

/// The control: the engine's default configuration with the fixed
/// schedule — init, then exactly `refinement_iterations − 1` node-major
/// refine launches over every signature class, then mapping and the
/// default max-degree DFS join.
fn run_exhaustive(d: &Dataset, queue: &Queue) -> Run {
    let cfg = EngineConfig::default();
    let gov = Governor::unlimited();
    let plan = QueryPlan::build(d.queries(), &cfg);
    let queries = plan.batch();
    let data = d.data_batch();
    // Per-radius classes, built ahead of the filter phase as a plan would.
    let mut query_sigs = SignatureSet::new(queries, cfg.schema.clone());
    let classes: Vec<SignatureClasses> = (2..=cfg.refinement_iterations)
        .map(|_| {
            query_sigs.advance(queries);
            SignatureClasses::build(queries, &query_sigs)
        })
        .collect();

    let bitmap = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), cfg.bitmap_word);
    let mut data_sigs = SignatureSet::new(&data, cfg.schema.clone());
    let t = Instant::now();
    let rejected = initialize_candidates_bucketed(
        queue,
        plan.buckets(),
        &data,
        &bitmap,
        cfg.filter_work_group_size,
        &gov,
    );
    let mut trace = vec![(
        1,
        bitmap.total_count(),
        rejected,
        plan.buckets().constrained_rows() as u64,
    )];
    for (i, classes) in classes.iter().enumerate() {
        data_sigs.advance(&data);
        let cleared = refine_candidates_classes(
            queue,
            &data,
            &cfg.schema,
            classes,
            &data_sigs,
            &bitmap,
            cfg.filter_work_group_size,
            &gov,
        );
        trace.push((
            i + 2,
            bitmap.total_count(),
            cleared,
            queries.num_nodes() as u64,
        ));
    }
    let filter_wall_s = t.elapsed().as_secs_f64();

    let gmcr = Gmcr::build(queue, queries, &data, &bitmap, cfg.filter_work_group_size);
    let params = JoinParams {
        mode: cfg.mode,
        work_group_size: cfg.join_work_group_size,
        ..Default::default()
    };
    let outcome = join(
        queue,
        queries,
        &data,
        &bitmap,
        &gmcr,
        plan.join_plans(),
        &params,
    );
    Run {
        filter_wall_s,
        trace,
        total_matches: outcome.total_matches,
        matched_pairs: outcome.matched_pairs,
        gmcr_pairs: gmcr.num_pairs(),
    }
}

fn run_incremental(d: &Dataset, queue: &Queue) -> Run {
    let report = Engine::new(EngineConfig::default()).run(d.queries(), d.data_graphs(), queue);
    Run {
        filter_wall_s: report.timings.filter.as_secs_f64(),
        trace: report
            .iterations
            .iter()
            .map(|it| {
                (
                    it.iteration,
                    it.candidates.total,
                    it.cleared_bits,
                    it.dirty_nodes,
                )
            })
            .collect(),
        total_matches: report.total_matches,
        matched_pairs: report.matched_pairs,
        gmcr_pairs: report.gmcr_pairs,
    }
}

fn run_once(d: &Dataset, mode: &str) -> Sample {
    let queue = Queue::new(DeviceProfile::nvidia_v100s());
    let run = match mode {
        "exhaustive" => run_exhaustive(d, &queue),
        _ => run_incremental(d, &queue),
    };
    let model = CostModel::new(DeviceProfile::nvidia_v100s());
    let kernels = summarize(&queue.records(), &model);
    if std::env::var_os("SIGMO_ABLATE_TRACE").is_some() {
        for &(iteration, candidates, cleared, dirty) in &run.trace {
            eprintln!(
                "{mode} iter {iteration}: candidates {candidates} cleared {cleared} dirty {dirty}"
            );
        }
        for k in &kernels {
            if k.name == "refine_candidates" {
                eprintln!(
                    "{mode} refine: instr {} word_reads {} atomics {}",
                    k.instructions, k.word_reads, k.atomics
                );
            }
        }
    }
    let (refine_wall_s, refine_calls) = kernels
        .iter()
        .find(|k| k.name == "refine_candidates")
        .map(|k| (k.wall_s, k.calls))
        .unwrap_or((0.0, 0));
    Sample {
        refine_wall_s,
        refine_calls,
        filter_wall_s: run.filter_wall_s,
        iterations_run: run.trace.len(),
        total_matches: run.total_matches,
        matched_pairs: run.matched_pairs,
        gmcr_pairs: run.gmcr_pairs,
    }
}

/// Median-by-refine-wall sample over `reps` runs (wall times are noisy;
/// the counted fields are deterministic and identical across reps).
fn run_median(d: &Dataset, mode: &str, reps: usize) -> Sample {
    let mut samples: Vec<Sample> = (0..reps).map(|_| run_once(d, mode)).collect();
    samples.sort_by(|a, b| a.refine_wall_s.total_cmp(&b.refine_wall_s));
    samples[samples.len() / 2]
}

fn main() {
    let scale = BenchScale::from_env();
    let d = scale.dataset(0x5167);
    let reps = 5;
    let ex = run_median(&d, "exhaustive", reps);
    let inc = run_median(&d, "incremental", reps);

    println!("# ablate_filter_convergence ({scale:?} scale)");
    println!(
        "{:<12} {:>6} {:>6} {:>14} {:>14} {:>12}",
        "mode", "iters", "calls", "refine_wall_s", "filter_wall_s", "matches"
    );
    for (name, s) in [("exhaustive", ex), ("incremental", inc)] {
        println!(
            "{:<12} {:>6} {:>6} {:>14.6} {:>14.6} {:>12}",
            name,
            s.iterations_run,
            s.refine_calls,
            s.refine_wall_s,
            s.filter_wall_s,
            s.total_matches
        );
    }

    // Correctness: convergence must never change the results.
    assert_eq!(
        inc.total_matches, ex.total_matches,
        "incremental changed total_matches"
    );
    assert_eq!(
        inc.matched_pairs, ex.matched_pairs,
        "incremental changed matched_pairs"
    );
    assert_eq!(
        inc.gmcr_pairs, ex.gmcr_pairs,
        "incremental changed gmcr_pairs"
    );

    let speedup = ex.refine_wall_s / inc.refine_wall_s.max(1e-12);
    println!("refine_candidates speedup exhaustive -> incremental: {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "convergence-driven refine regressed below the 2x acceptance bar ({speedup:.2}x)"
    );
}
