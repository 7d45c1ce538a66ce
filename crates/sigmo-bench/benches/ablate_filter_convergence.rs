//! Ablation: convergence-driven filtering vs the fixed-iteration filter.
//!
//! Runs the full pipeline on the `bench_pipeline` workload (Quick scale by
//! default, same seed and device profile) under both
//! [`FilterMode`]s:
//!
//! * `Exhaustive` — the pre-convergence baseline: every configured
//!   iteration launches a full refine over every query row;
//! * `Incremental` — the delta-driven kernel: only query rows whose
//!   signature moved are re-tested, dead data graphs are skipped, and
//!   refinement stops once the query signatures converge.
//!
//! Both must produce identical match totals (the monotonicity
//! argument in `DESIGN.md` §4b); the acceptance bar is a ≥2× drop in
//! `refine_candidates` wall time from `Exhaustive` to `Incremental`.

use sigmo_bench::BenchScale;
use sigmo_core::{Engine, EngineConfig, FilterMode};
use sigmo_device::{summarize, CostModel, DeviceProfile, Queue};
use sigmo_mol::Dataset;

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

fn run_once(d: &Dataset, mode: FilterMode) -> Sample {
    let queue = Queue::new(DeviceProfile::nvidia_v100s());
    let report = Engine::new(EngineConfig {
        filter_mode: mode,
        ..Default::default()
    })
    .run(d.queries(), d.data_graphs(), &queue);
    let model = CostModel::new(DeviceProfile::nvidia_v100s());
    let kernels = summarize(&queue.records(), &model);
    if std::env::var_os("SIGMO_ABLATE_TRACE").is_some() {
        for it in &report.iterations {
            eprintln!(
                "{mode:?} iter {}: candidates {} cleared {} dirty {}",
                it.iteration, it.candidates.total, it.cleared_bits, it.dirty_nodes
            );
        }
        for k in &kernels {
            if k.name == "refine_candidates" {
                eprintln!(
                    "{mode:?} refine: instr {} word_reads {} atomics {}",
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
        filter_wall_s: report.timings.filter.as_secs_f64(),
        iterations_run: report.iterations.len(),
        total_matches: report.total_matches,
        matched_pairs: report.matched_pairs,
        gmcr_pairs: report.gmcr_pairs,
    }
}

/// Median-by-refine-wall sample over `reps` runs (wall times are noisy;
/// the counted fields are deterministic and identical across reps).
fn run_median(d: &Dataset, mode: FilterMode, reps: usize) -> Sample {
    let mut samples: Vec<Sample> = (0..reps).map(|_| run_once(d, mode)).collect();
    samples.sort_by(|a, b| a.refine_wall_s.total_cmp(&b.refine_wall_s));
    samples[samples.len() / 2]
}

fn main() {
    let scale = BenchScale::from_env();
    let d = scale.dataset(0x5167);
    let reps = 5;
    let ex = run_median(&d, FilterMode::Exhaustive, reps);
    let inc = run_median(&d, FilterMode::Incremental, reps);

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
