//! `batch_match`: the paper's setting. A seeded `.smi` corpus matched Find
//! All in one batch against the paper-shaped query batch, the batched mode
//! `sigmo match` runs: plan build, CSR-GO of the corpus and one
//! `Engine::run_planned` over everything.

use crate::inputs::{self, Corpus, Rng};
use crate::layers::{engine_call, Layers};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{Opts, Pass};
use sigmo_baselines::{Matcher, Vf3Matcher};
use sigmo_core::{Completion, Engine, EngineConfig, QueryPlan};
use sigmo_device::{DeviceProfile, Queue};
use sigmo_graph::{CsrGo, LabeledGraph};
use sigmo_mol::MoleculeGenerator;
use std::collections::HashMap;
use std::time::Instant;

/// The query batch is the same for every seed, as the paper's benchmark
/// query set is fixed.
const QUERY_SEED: u64 = 0x5160_0001;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Batches per run, at least.
const MIN_BATCHES: usize = 3;
/// (query, molecule) pairs re-counted by VF3 per run.
const CHECK_PAIRS: usize = 200;

/// Embeddings per (query, molecule) pair with at least one.
type PairCounts = HashMap<(usize, usize), u64>;

/// Generated inputs.
pub struct Inputs {
    pub corpus: Corpus,
    pub queries: Vec<LabeledGraph>,
    pub check_pairs: Vec<(usize, usize)>,
}

/// Builds the inputs: 1000 molecules and 30 + 120 queries at full size.
pub fn inputs(opts: &Opts) -> Inputs {
    let (molecules, extracted) = if opts.tiny { (60, 10) } else { (1000, 120) };
    let corpus = inputs::corpus(inputs::sub_seed(opts.seed, 1), molecules, "m");
    let sources = MoleculeGenerator::with_seed(QUERY_SEED).generate_batch(200);
    let queries = inputs::paper_queries(QUERY_SEED, &sources, extracted);
    let mut rng = Rng::new(inputs::sub_seed(opts.seed, 2));
    let check_pairs = (0..CHECK_PAIRS)
        .map(|_| (rng.below(queries.len()), rng.below(molecules)))
        .collect();
    Inputs {
        corpus,
        queries,
        check_pairs,
    }
}

/// One pass: set-ups, then batch runs for `opts.seconds`, then checks.
pub fn run(opts: &Opts, inp: &Inputs, tr: &mut Tracer, layers: &mut Layers) -> Pass {
    let pass_start = Instant::now();
    let mut pass = Pass::default();
    let cfg = EngineConfig::default();

    let mut setups = Vec::new();
    let mut graphs: Vec<LabeledGraph> = Vec::new();
    for s in 0..SETUPS {
        let t0 = Instant::now();
        let quarantined = tr.span("setup", s as u64, |tr| {
            let ingest = tr.span("ingest", s as u64, |_| {
                sigmo_mol::ingest_smi(&inp.corpus.text, false)
            });
            graphs = tr.span("lower", s as u64, |_| {
                ingest
                    .molecules
                    .iter()
                    .map(|(_, m)| m.to_labeled_graph())
                    .collect()
            });
            ingest.quarantined.len()
        });
        setups.push(t0.elapsed().as_secs_f64());
        pass.check_quarantined(quarantined, inp.corpus.planted_bad);
        layers.set("mol.quarantined", quarantined as f64);
    }
    if graphs.len() != inp.corpus.molecules.len() {
        pass.problem(format!(
            "ingest kept {} molecules of {}",
            graphs.len(),
            inp.corpus.molecules.len()
        ));
        return pass;
    }

    let engine = Engine::new(cfg.clone());
    let queue = Queue::new(DeviceProfile::host());
    let pairs = (inp.queries.len() * graphs.len()) as f64;
    let mut walls = Vec::new();
    // The first batch's total and its per-(query, molecule) counts.
    let mut first: Option<(u64, PairCounts)> = None;
    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_BATCHES || start.elapsed().as_secs_f64() < opts.seconds {
        let t0 = Instant::now();
        let report = tr.span("batch", rep as u64, |tr| {
            let plan = tr.span("plan_build", rep as u64, |_| {
                QueryPlan::build(&inp.queries, &cfg)
            });
            let csr = tr.span("csrgo", rep as u64, |_| CsrGo::from_graphs(&graphs));
            engine_call(tr, layers, rep as u64, &queue, || {
                engine.run_planned(&plan, &csr, &queue)
            })
        });
        walls.push(t0.elapsed().as_secs_f64());
        pass.attempted += 1;
        if report.completion != Completion::Complete {
            pass.failed += 1;
        }
        match &first {
            None => {
                let counts = report
                    .pair_counts
                    .iter()
                    .map(|&(d, q, n)| ((q, d), n))
                    .collect();
                first = Some((report.total_matches, counts));
            }
            Some((total, _)) if *total != report.total_matches => pass.problem(format!(
                "batch {rep} matched {} embeddings, batch 0 matched {total}",
                report.total_matches
            )),
            Some(_) => {}
        }
        rep += 1;
    }

    let (_, counts) = first.expect("at least one batch ran");
    tr.span("check", 0, |_| {
        for (k, &(q, m)) in inp.check_pairs.iter().enumerate() {
            let expected = Vf3Matcher.count_embeddings(&inp.queries[q], &graphs[m]);
            let mut got = counts.get(&(q, m)).copied().unwrap_or(0);
            if opts.corrupt_total && k == 0 {
                got += 1;
            }
            if got != expected {
                pass.problem(format!(
                    "query {q} on molecule {m}: engine counted {got}, VF3 {expected}"
                ));
            }
        }
    });

    pass.e2e.setup_s = median(&setups);
    pass.e2e.pairs_per_s = median(&walls.iter().map(|w| pairs / w).collect::<Vec<_>>());
    pass.e2e.query_p50_ms = quantile(&walls, 0.5) * 1e3;
    pass.e2e.query_p90_ms = quantile(&walls, 0.9) * 1e3;
    pass.busy_per_op_s = median(&walls);
    pass.wall_s = pass_start.elapsed().as_secs_f64();
    pass
}
