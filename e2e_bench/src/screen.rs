//! `corpus_screen`: a standing corpus built the way `sigmo index build
//! --smi` builds it (ingest, intern with the screen index, freeze), then
//! reopened and thawed, answering SMARTS queries one at a time (closed
//! loop, one client): parse, plan, screen, CSR-GO of the survivors, engine.

use crate::inputs::{self, Corpus, Rng, SMARTS};
use crate::layers::{engine_call, ratio, Layers};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{Opts, Pass};
use sigmo_core::{Completion, Engine, EngineConfig, QueryPlan};
use sigmo_device::{DeviceProfile, Queue};
use sigmo_graph::{CsrGo, LabeledGraph};
use sigmo_index::{FrozenIndex, IndexConfig, MoleculeIndex, ScreenQuery};
use sigmo_serve::MolStore;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Queries per run, at least.
const MIN_QUERIES: usize = 100;
/// Corpus molecules each query is re-checked on with the index off.
const CHECK_SAMPLE: usize = 80;

/// Generated inputs.
pub struct Inputs {
    pub corpus: Corpus,
    /// Indices into [`SMARTS`], in issue order.
    pub order: Vec<usize>,
    /// Corpus positions the index-off check runs on.
    pub check_sample: Vec<usize>,
}

/// Builds the inputs: a 500-molecule corpus at full size.
pub fn inputs(opts: &Opts) -> Inputs {
    let molecules = if opts.tiny { 40 } else { 500 };
    let corpus = inputs::corpus(inputs::sub_seed(opts.seed, 1), molecules, "m");
    let order = inputs::smarts_order(inputs::sub_seed(opts.seed, 2), 400);
    let mut ids: Vec<usize> = (0..molecules).collect();
    Rng::new(inputs::sub_seed(opts.seed, 3)).shuffle(&mut ids);
    ids.truncate(CHECK_SAMPLE.min(molecules));
    ids.sort_unstable();
    Inputs {
        corpus,
        order,
        check_sample: ids,
    }
}

/// The standing corpus after a set-up: the thawed index and its graphs.
struct Standing {
    index: MoleculeIndex,
    graphs: Vec<Option<LabeledGraph>>,
}

/// One set-up, as `sigmo index build --smi` builds the corpus: ingest,
/// intern every molecule with the screen index, freeze; then reopen and
/// thaw the frozen bytes.
fn setup(
    inp: &Inputs,
    cfg: &EngineConfig,
    s: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
    pass: &mut Pass,
) -> Option<Standing> {
    tr.span("setup", s, |tr| {
        let ingest = tr.span("ingest", s, |_| {
            sigmo_mol::ingest_smi(&inp.corpus.text, false)
        });
        pass.check_quarantined(ingest.quarantined.len(), inp.corpus.planted_bad);
        layers.set("mol.quarantined", ingest.quarantined.len() as f64);
        let graphs: Vec<LabeledGraph> = tr.span("lower", s, |_| {
            ingest
                .molecules
                .iter()
                .map(|(_, m)| m.to_labeled_graph())
                .collect()
        });
        let mut store = MolStore::with_screen_index(IndexConfig::default(), &cfg.schema);
        let t0 = Instant::now();
        for (i, g) in graphs.iter().enumerate() {
            tr.span("intern", i as u64, |_| store.intern(g));
        }
        if tr.enabled() {
            layers.set("store.intern_s", t0.elapsed().as_secs_f64());
        }
        let bytes = match tr.span("freeze", s, |_| store.freeze_index()) {
            Ok(b) => b,
            Err(e) => {
                pass.problem(format!("freeze failed: {e}"));
                return None;
            }
        };
        layers.set("index.bytes", bytes.len() as f64);
        let thawed = tr
            .span("open", s, |_| FrozenIndex::open(bytes))
            .and_then(|frozen| tr.span("thaw", s, |_| frozen.thaw()));
        match thawed {
            Ok((index, graphs)) => Some(Standing { index, graphs }),
            Err(e) => {
                pass.problem(format!("reopening the frozen index failed: {e}"));
                None
            }
        }
    })
}

/// One pass: set-ups, then whole rounds over the SMARTS list for at least
/// `opts.seconds` and [`MIN_QUERIES`] queries, then checks.
pub fn run(opts: &Opts, inp: &Inputs, tr: &mut Tracer, layers: &mut Layers) -> Pass {
    let pass_start = Instant::now();
    let mut pass = Pass::default();
    let cfg = EngineConfig::default();

    let mut setups = Vec::new();
    let mut standing = None;
    for s in 0..SETUPS {
        let t0 = Instant::now();
        standing = setup(inp, &cfg, s as u64, tr, layers, &mut pass);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Some(Standing { index, graphs }) = standing else {
        return pass;
    };
    let live = graphs.iter().filter(|g| g.is_some()).count();
    let radius = index.config().radius;
    let engine = Engine::new(cfg.clone());
    let queue = Queue::new(DeviceProfile::host());

    let mut walls = Vec::new();
    let mut totals: Vec<Option<u64>> = vec![None; SMARTS.len()];
    let mut survivors_of: Vec<Vec<u32>> = vec![Vec::new(); SMARTS.len()];
    let (mut survivors, mut useful) = (0u64, 0u64);
    let start = Instant::now();
    for (i, &k) in inp.order.iter().enumerate() {
        let round_done = i % SMARTS.len() == 0;
        if round_done && i >= MIN_QUERIES && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let t0 = Instant::now();
        let answer: Result<_, sigmo_mol::SmartsError> = tr.span("query", i as u64, |tr| {
            let query = tr.span("parse_smarts", i as u64, |_| {
                sigmo_mol::parse_smarts(SMARTS[k])
            })?;
            let plan = tr.span("plan_build", i as u64, |_| QueryPlan::build(&[query], &cfg));
            let screen = tr.span("screen_query", i as u64, |_| {
                ScreenQuery::from_plan(&plan, radius)
            });
            let ids = tr.span("screen_corpus", i as u64, |_| index.screen_corpus(&screen));
            if ids.is_empty() {
                return Ok((ids, 0, 0, Completion::Complete));
            }
            let csr = tr.span("csrgo", i as u64, |_| {
                let batch: Vec<LabeledGraph> = ids
                    .iter()
                    .map(|&id| graphs[id as usize].clone().expect("screened ids are live"))
                    .collect();
                CsrGo::from_graphs(&batch)
            });
            let report = engine_call(tr, layers, i as u64, &queue, || {
                engine.run_planned(&plan, &csr, &queue)
            });
            Ok((
                ids,
                report.total_matches,
                report.matched_pairs,
                report.completion,
            ))
        });
        walls.push(t0.elapsed().as_secs_f64());
        pass.attempted += 1;
        match answer {
            Ok((ids, total, matched, completion)) => {
                if completion != Completion::Complete {
                    pass.failed += 1;
                }
                survivors += ids.len() as u64;
                useful += matched;
                match totals[k] {
                    None => {
                        totals[k] = Some(total);
                        survivors_of[k] = ids;
                    }
                    Some(t) if t != total => pass.problem(format!(
                        "`{}` matched {total} embeddings, earlier {t}",
                        SMARTS[k]
                    )),
                    Some(_) => {}
                }
            }
            Err(e) => {
                pass.failed += 1;
                pass.problem(format!("`{}` failed to parse: {e}", SMARTS[k]));
            }
        }
    }
    let queries = walls.len();

    // Soundness: on a seeded sample, screening then matching the survivors
    // finds exactly what the index-off engine finds.
    tr.span("check", 0, |_| {
        let sample: Vec<LabeledGraph> = inp
            .check_sample
            .iter()
            .filter_map(|&id| graphs.get(id).cloned().flatten())
            .collect();
        let sample_csr = CsrGo::from_graphs(&sample);
        for (k, text) in SMARTS.iter().enumerate() {
            let Ok(query) = sigmo_mol::parse_smarts(text) else {
                continue;
            };
            let plan = QueryPlan::build(&[query], &cfg);
            let mut off = engine.run_planned(&plan, &sample_csr, &queue).total_matches;
            let kept: Vec<LabeledGraph> = inp
                .check_sample
                .iter()
                .filter(|&&id| survivors_of[k].binary_search(&(id as u32)).is_ok())
                .filter_map(|&id| graphs.get(id).cloned().flatten())
                .collect();
            let on = if kept.is_empty() {
                0
            } else {
                engine
                    .run_planned(&plan, &CsrGo::from_graphs(&kept), &queue)
                    .total_matches
            };
            queue.clear_records();
            if opts.corrupt_total && k == 0 {
                off += 1;
            }
            if on != off {
                pass.problem(format!(
                    "`{text}` on the check sample: {on} embeddings with screening, {off} without"
                ));
            }
        }
    });

    if !tr.enabled() {
        for class in ["rare", "common", "predicate"] {
            let class_walls: Vec<f64> = inp
                .order
                .iter()
                .zip(&walls)
                .filter(|(&k, _)| inputs::smarts_class(k) == class)
                .map(|(_, &w)| w)
                .collect();
            layers.set(&format!("query.{class}_ms.p50"), median(&class_walls) * 1e3);
        }
    }
    if tr.enabled() {
        layers.set(
            "index.survivor_ratio",
            ratio(survivors, (queries * live) as u64),
        );
        layers.set("index.useful_ratio", ratio(useful, survivors));
    }
    pass.e2e.setup_s = median(&setups);
    pass.e2e.pairs_per_s = (queries * live) as f64 / walls.iter().sum::<f64>();
    pass.e2e.query_p50_ms = quantile(&walls, 0.5) * 1e3;
    pass.e2e.query_p90_ms = quantile(&walls, 0.9) * 1e3;
    pass.busy_per_op_s = walls.iter().sum::<f64>() / queries as f64;
    pass.wall_s = pass_start.elapsed().as_secs_f64();
    pass
}
