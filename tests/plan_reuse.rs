//! Pins the query-plan reuse contract: a streamed run builds its
//! [`sigmo::core::QueryPlan`] exactly once, no matter how many chunks the
//! memory budget splits the stream into; converged radii cost no refine
//! work; and a planned run refines under the plan's signature schema.
//!
//! Kept alone in this file: `plan_build_count()` is a process-global
//! counter, and the default test harness runs the tests of one file in one
//! process — any engine run elsewhere in the same process would skew the
//! deltas. Within the file, each test measures a delta around its own
//! calls, so test-order interleaving is still safe.

use sigmo::core::plan::plan_build_count;
use sigmo::core::{Engine, EngineConfig, LabelSchema, QueryPlan, StreamRunner};
use sigmo::device::{DeviceProfile, Queue};
use sigmo::graph::CsrGo;
use sigmo::graph::LabeledGraph;
use sigmo::mol::{functional_groups, MoleculeGenerator};
use std::sync::Mutex;

/// Serializes the tests of this file around the process-global counter.
static COUNT_LOCK: Mutex<()> = Mutex::new(());

fn world() -> (Vec<LabeledGraph>, Vec<LabeledGraph>) {
    let queries: Vec<LabeledGraph> = functional_groups()
        .into_iter()
        .take(8)
        .map(|q| q.graph)
        .collect();
    let data: Vec<LabeledGraph> = MoleculeGenerator::with_seed(404)
        .generate_batch(48)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    (queries, data)
}

#[test]
fn stream_builds_exactly_one_plan_across_many_chunks() {
    let _guard = COUNT_LOCK.lock().unwrap();
    let (queries, data) = world();
    let queue = Queue::new(DeviceProfile::host());
    // A tight molecule cap forces many chunks.
    let runner = StreamRunner::new(EngineConfig::default(), u64::MAX).with_max_chunk(5);
    let before = plan_build_count();
    let report = runner.run(&queries, data.iter().cloned(), &queue);
    let after = plan_build_count();
    assert!(report.chunks >= 8, "cap must split the stream into chunks");
    assert_eq!(
        after - before,
        1,
        "a streamed run must build its query plan exactly once, not per chunk"
    );
    assert!(report.total_matches > 0, "workload must produce matches");
}

#[test]
fn planned_runs_share_one_plan_where_inline_runs_rebuild() {
    let _guard = COUNT_LOCK.lock().unwrap();
    let (queries, data) = world();
    let queue = Queue::new(DeviceProfile::host());
    let engine = Engine::new(EngineConfig::default());

    // Inline runs build one plan each...
    let before = plan_build_count();
    let a = engine.run(&queries, &data[..24], &queue);
    let b = engine.run(&queries, &data[24..], &queue);
    assert_eq!(plan_build_count() - before, 2);

    // ...explicitly planned runs share one.
    let before = plan_build_count();
    let plan = QueryPlan::build(&queries, engine.config());
    let qa = Queue::new(DeviceProfile::host());
    let pa = engine.run_planned(&plan, &CsrGo::from_graphs(&data[..24]), &qa);
    let pb = engine.run_planned(&plan, &CsrGo::from_graphs(&data[24..]), &qa);
    assert_eq!(plan_build_count() - before, 1);

    // Same results either way.
    assert_eq!(pa.total_matches, a.total_matches);
    assert_eq!(pb.total_matches, b.total_matches);
}

#[test]
fn converged_radii_do_no_refine_work() {
    let _guard = COUNT_LOCK.lock().unwrap();
    let (queries, data) = world();
    // Functional groups are tiny: at 8 iterations the query signatures
    // converge well before radius 7.
    let cfg = EngineConfig::with_iterations(8);
    let plan = QueryPlan::build(&queries, &cfg);
    assert_eq!(plan.max_radius(), 7);
    assert!(
        plan.last_dirty_radius() < plan.max_radius(),
        "queries never converged: last dirty radius {}",
        plan.last_dirty_radius()
    );
    // Past the last dirty radius no query signature moves: empty deltas.
    for r in plan.last_dirty_radius() + 1..=plan.max_radius() {
        assert!(plan.delta_at(r).is_empty(), "radius {r} has dirty rows");
    }
    // The engine launches refine once per non-empty delta, never for a
    // converged or clean radius.
    let non_empty = (1..=plan.max_radius())
        .filter(|&r| !plan.delta_at(r).is_empty())
        .count();
    let queue = Queue::new(DeviceProfile::host());
    let report = Engine::new(cfg).run_planned(&plan, &CsrGo::from_graphs(&data), &queue);
    let launches = queue
        .records()
        .iter()
        .filter(|k| k.name == "refine_candidates")
        .count();
    assert!(non_empty > 0, "no radius had dirty rows — test is vacuous");
    assert_eq!(launches, non_empty);
    assert_eq!(report.iterations.len(), plan.last_dirty_radius() + 1);
}

#[test]
fn planned_run_refines_under_the_plan_schema() {
    let _guard = COUNT_LOCK.lock().unwrap();
    let (queries, data) = world();
    let batch = CsrGo::from_graphs(&data);
    let organic = EngineConfig::default();
    let uniform = EngineConfig {
        schema: LabelSchema::uniform(16),
        ..Default::default()
    };
    // Each pairing of a plan with an engine configured for the other
    // schema must match an engine that built its own plan.
    for (plan_cfg, engine_cfg) in [(&uniform, &organic), (&organic, &uniform)] {
        let queue = Queue::new(DeviceProfile::host());
        let expected = Engine::new(plan_cfg.clone()).run(&queries, &data, &queue);
        let plan = QueryPlan::build(&queries, plan_cfg);
        let got = Engine::new(engine_cfg.clone()).run_planned(&plan, &batch, &queue);
        assert_eq!(got.total_matches, expected.total_matches);
        assert_eq!(got.matched_pair_list, expected.matched_pair_list);
        let trace = |r: &sigmo::core::RunReport| {
            r.iterations
                .iter()
                .map(|it| (it.candidates.total, it.cleared_bits))
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(&got), trace(&expected));
    }
}
