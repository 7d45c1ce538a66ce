//! Differential pin for the word-at-a-time filter kernels: init writes one
//! bitmap word per (row, 64-node block) and refine clears one word at a
//! time, and both must stay bit-identical to the per-bit `naive` oracle.
//!
//! Swept: rayon thread counts 1, 2, 3, 4 and 8, and init work-group sizes
//! 1, 63, 64, 100 and 1024. Sizes that are not multiples of 64 make
//! neighboring work-groups share a bitmap word, which only an RMW merge
//! gets right (a plain store would drop the other group's bits). Two query
//! batches: a SMARTS predicate panel and a wildcard-atom panel. Checked at
//! every stage: bitmaps bit for bit, rejected and cleared counts against
//! the oracle's, and each launch's kernel record — geometry and the whole
//! counter snapshot — identical across thread counts.
//!
//! Kept alone in this file: it mutates `RAYON_NUM_THREADS`, and each
//! integration-test file runs as its own process, so the env var cannot
//! race another test. The tests share [`ENV_LOCK`] because the default
//! harness runs them on separate threads.

use std::sync::Mutex;

use sigmo::core::filter::{initialize_candidates, refine_candidates};
use sigmo::core::{naive, CandidateBitmap, DeltaClasses, Governor, LabelSchema, SignatureSet};
use sigmo::core::{Signature, WordWidth};
use sigmo::device::{CounterSnapshot, DeviceProfile, KernelRecord, Queue};
use sigmo::graph::{CsrGo, LabeledGraph, WILDCARD_LABEL};
use sigmo::mol::{parse_smarts, parse_smiles, MoleculeGenerator};

static ENV_LOCK: Mutex<()> = Mutex::new(());

const THREADS: [&str; 5] = ["1", "2", "3", "4", "8"];
const WORK_GROUP_SIZES: [usize; 5] = [1, 63, 64, 100, 1024];
/// Refinement radii run after init.
const RADII: usize = 3;

/// Seeded generated molecules plus charged, aromatic and ring SMILES, so
/// every predicate field has satisfying and violating data nodes. Large
/// enough (well over 1024 nodes) that the largest work-group size still
/// splits the batch into several groups.
fn corpus() -> CsrGo {
    let mut gen = MoleculeGenerator::with_seed(29);
    let mut mols: Vec<LabeledGraph> = gen
        .generate_batch(90)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    for smi in [
        "CC(=O)[O-]",
        "[NH4+]",
        "c1ccccc1O",
        "C1CCCCC1N",
        "CC(C)(C)O",
        "[O-]S(=O)(=O)[O-]",
        "N#CC=O",
    ] {
        mols.push(parse_smiles(smi).unwrap().to_labeled_graph());
    }
    CsrGo::from_graphs(&mols)
}

fn smarts_batch(patterns: &[&str]) -> CsrGo {
    let graphs: Vec<LabeledGraph> = patterns
        .iter()
        .map(|s| parse_smarts(s).unwrap_or_else(|e| panic!("SMARTS {s:?}: {e}")))
        .collect();
    CsrGo::from_graphs(&graphs)
}

/// Everything a kernel record claims, minus wall-clock time.
type RecordKey = (String, usize, usize, CounterSnapshot, bool, usize);

fn record_keys(records: &[KernelRecord]) -> Vec<RecordKey> {
    records
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.global_size,
                r.work_group_size,
                r.counters,
                r.cancelled,
                r.skipped_groups,
            )
        })
        .collect()
}

fn snapshot(bitmap: &CandidateBitmap) -> Vec<u64> {
    (0..bitmap.rows())
        .flat_map(|r| (0..bitmap.words_per_row()).map(move |w| (r, w)))
        .map(|(r, w)| bitmap.load_word(r, w))
        .collect()
}

/// The oracle's bitmap after init and after each refine radius, with the
/// rejected count and the per-radius cleared counts.
fn oracle(queries: &CsrGo, data: &CsrGo) -> (Vec<Vec<u64>>, u64, Vec<u64>) {
    let schema = LabelSchema::organic();
    let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
    let rejected = naive::initialize_candidates(queries, data, &bm);
    let mut stages = vec![snapshot(&bm)];
    let mut cleared = Vec::new();
    let mut qs = SignatureSet::new(queries, schema.clone());
    let mut ds = SignatureSet::new(data, schema);
    for _ in 0..RADII {
        qs.advance(queries);
        ds.advance(data);
        cleared.push(naive::refine_candidates(
            queries,
            &qs,
            &ds,
            &bm,
            data.num_nodes(),
        ));
        stages.push(snapshot(&bm));
    }
    (stages, rejected, cleared)
}

/// Runs init and every refine radius through the device kernels under each
/// thread count and work-group size and compares everything against the
/// oracle and across thread counts.
fn check(name: &str, queries: &CsrGo, data: &CsrGo) {
    assert!(
        data.num_nodes() > 2 * 1024 && !data.num_nodes().is_multiple_of(64),
        "{name}: several groups of every size, and a partial last word"
    );
    let (stages, rejected, cleared) = oracle(queries, data);
    assert!(rejected > 0, "{name}: the admission tests must reject bits");
    assert!(
        cleared.iter().sum::<u64>() > 0,
        "{name}: refinement must clear bits"
    );
    let schema = LabelSchema::organic();
    let mut records: Vec<Vec<RecordKey>> = vec![Vec::new(); WORK_GROUP_SIZES.len()];
    for threads in THREADS {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for (i, &wg) in WORK_GROUP_SIZES.iter().enumerate() {
            let at = format!("{name}, {threads} threads, work-group {wg}");
            let queue = Queue::new(DeviceProfile::host());
            let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
            let got = initialize_candidates(&queue, queries, data, &bm, wg);
            assert_eq!(got, rejected, "rejected bits ({at})");
            assert!(snapshot(&bm) == stages[0], "init bitmap diverged ({at})");
            let mut qs = SignatureSet::new(queries, schema.clone());
            let mut ds = SignatureSet::new(data, schema.clone());
            for r in 0..RADII {
                let prev: Vec<Signature> = qs.signatures().to_vec();
                qs.advance(queries);
                ds.advance(data);
                let delta = DeltaClasses::build(&schema, &prev, qs.signatures());
                let gov = Governor::unlimited();
                let got = refine_candidates(&queue, data, &schema, &delta, &ds, &bm, &gov);
                assert_eq!(got, cleared[r], "cleared bits at radius {} ({at})", r + 1);
                assert!(
                    snapshot(&bm) == stages[r + 1],
                    "refine bitmap diverged at radius {} ({at})",
                    r + 1
                );
            }
            let keys = record_keys(&queue.records());
            if records[i].is_empty() {
                records[i] = keys;
            } else {
                assert_eq!(records[i], keys, "kernel records diverged ({at})");
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn predicate_batch_is_word_identical_to_naive() {
    let _guard = ENV_LOCK.lock().unwrap();
    let queries = smarts_batch(&[
        "[C,N]=O", "[CD4]", "[CR]", "[O-]", "[N+]", "[C;R]", "[cr6]", "C[!C]", "[CH3]C", "N#C",
    ]);
    assert!(
        queries.predicates().iter().any(|(_, p)| !p.is_trivial()),
        "the panel must compile to real predicate rows"
    );
    check("predicate batch", &queries, &corpus());
}

#[test]
fn wildcard_batch_is_word_identical_to_naive() {
    let _guard = ENV_LOCK.lock().unwrap();
    let queries = smarts_batch(&["*=O", "C~*", "*C(=O)*", "N#*", "**", "c1ccccc1*", "*~O~*"]);
    assert!(
        (0..queries.num_nodes() as u32).any(|q| queries.label(q) == WILDCARD_LABEL),
        "the panel must hold wildcard atoms"
    );
    check("wildcard batch", &queries, &corpus());
}
