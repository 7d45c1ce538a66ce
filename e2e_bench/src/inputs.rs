//! Seeded input generation.
//!
//! Everything a workload feeds the program is made here from the workload
//! seed, on the main thread, before any timing starts: `.smi` corpus text
//! with a fixed share of planted malformed lines, the paper-shaped query
//! batch, the SMARTS query order and the serving traffic. The program only
//! ever sees this text and these requests.

use sigmo_graph::LabeledGraph;
use sigmo_mol::{functional_groups, write_smiles, Molecule, MoleculeGenerator, QueryExtractor};
use sigmo_serve::{generate_workload, MatchRequest, WorkloadConfig};
use std::collections::{HashMap, HashSet};

/// One malformed line is planted after every this many valid ones.
pub const BAD_LINE_EVERY: usize = 40;

/// splitmix64, the benchmark's only source of randomness besides the
/// seeded generators of `sigmo-mol`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent stream seed for one input of a workload.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Malformed records, one per parser error class: an unclosed ring, an
/// unbalanced branch, an unknown element, a malformed ring number and a leading
/// branch close.
const BAD_SMILES: [&str; 5] = ["C1CC", "CC(C", "C[Xq]C", "C%1", ")CC"];

/// A generated `.smi` corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// `SMILES name` lines, valid and planted-malformed interleaved.
    pub text: String,
    /// The generated molecules, in line order (valid lines only).
    pub molecules: Vec<Molecule>,
    /// Malformed lines planted; ingest must quarantine exactly these.
    pub planted_bad: usize,
}

/// Corpora hold the same generated molecules for every seed, as a fixed
/// dataset sample would; the seed orders the records and plants the
/// malformed lines. Work per run then depends on the code, not on which
/// molecules a seed happened to draw.
const CORPUS_SEED: u64 = 0x5160_0004;

/// `n` generated drug-like molecules as `.smi` text in a seeded order,
/// plus one malformed line after every [`BAD_LINE_EVERY`] valid ones.
pub fn corpus(seed: u64, n: usize, tag: &str) -> Corpus {
    let mut molecules = MoleculeGenerator::with_seed(CORPUS_SEED).generate_batch(n);
    let mut rng = Rng::new(seed);
    rng.shuffle(&mut molecules);
    let mut text = String::new();
    let mut planted_bad = 0;
    for (i, mol) in molecules.iter().enumerate() {
        text.push_str(&write_smiles(mol));
        text.push(' ');
        text.push_str(tag);
        text.push_str(&i.to_string());
        text.push('\n');
        if (i + 1) % BAD_LINE_EVERY == 0 {
            text.push_str(BAD_SMILES[rng.below(BAD_SMILES.len())]);
            text.push_str(&format!(" {tag}bad{planted_bad}\n"));
            planted_bad += 1;
        }
    }
    Corpus {
        text,
        molecules,
        planted_bad,
    }
}

/// The paper-shaped query batch: the functional-group library plus
/// `extracted` connected subgraphs (2–30 nodes) sampled from `sources`,
/// as in the paper-scale dataset.
pub fn paper_queries(seed: u64, sources: &[Molecule], extracted: usize) -> Vec<LabeledGraph> {
    let mut queries: Vec<LabeledGraph> = functional_groups().into_iter().map(|q| q.graph).collect();
    queries.extend(QueryExtractor::new(seed).extract_batch(sources, extracted, 2, 30));
    queries
}

/// The SMARTS list `corpus_screen` draws from, spanning selectivity: rare
/// or absent motifs, common groups, and predicate queries (ring
/// membership, charge, degree, H count, atom lists, negation).
pub const SMARTS: [&str; 18] = [
    // Rare or absent motifs.
    "II",
    "BrCBr",
    "P(=O)(O)O",
    "S(=O)(=O)N",
    "C#N",
    "FC(F)F",
    // Common groups.
    "C=O",
    "CO",
    "CN",
    "CCO",
    "CC(C)C",
    "C=C",
    // Predicate queries.
    "[S;R]",
    "[N+]",
    "[C;D3]",
    "[NH1]C",
    "[C,N]=O",
    "[!C;R]",
];

/// The selectivity class of [`SMARTS`]`[k]`: six of each, in list order.
pub fn smarts_class(k: usize) -> &'static str {
    ["rare", "common", "predicate"][k / 6]
}

/// The order `corpus_screen` issues queries in: `rounds` passes over
/// [`SMARTS`], each a seeded permutation, so every run issues every query
/// equally often.
pub fn smarts_order(seed: u64, rounds: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order = Vec::with_capacity(rounds * SMARTS.len());
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..SMARTS.len()).collect();
        rng.shuffle(&mut round);
        order.extend(round);
    }
    order
}

/// Request contents are the same for every seed, like corpora; the seed
/// only orders them.
const TRAFFIC_SEED: u64 = 0x5160_0002;
/// The arrival pattern is the same for every seed, so how many requests
/// arrive during a step depends on the code, not on the seed's gaps.
const GAP_SEED: u64 = 0x5160_0003;

/// Serving traffic in arrival order.
#[derive(Debug, Clone)]
pub struct Traffic {
    pub requests: Vec<MatchRequest>,
    /// Gap before each request, in units of the mean gap (uniform in 0..2).
    pub gaps: Vec<f64>,
}

/// A key naming one exact graph (labels and edge list as stored).
pub fn graph_key(g: &LabeledGraph) -> String {
    format!("{g:?}")
}

/// `generate_workload` requests, Find All and Find First mixed, molecules
/// drawn with skew from a pool large enough that many result lookups
/// miss, with a fixed arrival pattern. Every `every`-th request follows a
/// corpus write (see [`writes`]); those requests keep their place for every
/// seed, so every seed writes the same molecules, and the seed orders the
/// rest.
pub fn traffic(seed: u64, requests: usize, pool: usize, every: usize) -> Traffic {
    let trace = generate_workload(&WorkloadConfig {
        requests,
        seed: TRAFFIC_SEED,
        mol_pool: pool,
        query_sets: 4,
        queries_per_set: 10,
        max_request_molecules: 12,
        mean_interarrival: 4,
        find_first_pct: 30,
        pool_skew: 1,
    });
    let mut requests: Vec<MatchRequest> = trace.into_iter().map(|t| t.request).collect();
    let free: Vec<usize> = (0..requests.len()).filter(|i| i % every != 0).collect();
    let mut order = free.clone();
    Rng::new(seed).shuffle(&mut order);
    let moved: Vec<MatchRequest> = order.iter().map(|&i| requests[i].clone()).collect();
    for (&i, req) in free.iter().zip(moved) {
        requests[i] = req;
    }
    let mut rng = Rng::new(GAP_SEED);
    let gaps = (0..requests.len())
        .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 52) as f64)
        .collect();
    Traffic { requests, gaps }
}

/// One scheduled corpus write in the serving workload. It touches the
/// molecules of the request right after it, so that request is answered
/// against the changed corpus.
#[derive(Debug, Clone)]
pub enum Write {
    /// Retire these molecules; the next request interns them afresh.
    Remove(Vec<LabeledGraph>),
    /// Retire these molecules, then preload them again from `.smi` text.
    Reload {
        remove: Vec<LabeledGraph>,
        text: String,
    },
}

/// Writes before every `every`-th request, the first included,
/// alternately [`Write::Remove`] and [`Write::Reload`] of the distinct
/// molecules of that request; `pool` is the size of the molecule pool
/// [`traffic`] drew from.
pub fn writes(traffic: &Traffic, pool: usize, every: usize) -> Vec<Write> {
    let smiles: HashMap<String, String> = MoleculeGenerator::with_seed(TRAFFIC_SEED)
        .generate_batch(pool)
        .iter()
        .map(|m| (graph_key(&m.to_labeled_graph()), write_smiles(m)))
        .collect();
    (0..traffic.requests.len())
        .step_by(every)
        .enumerate()
        .map(|(k, pos)| {
            let mut seen = HashSet::new();
            let remove: Vec<LabeledGraph> = traffic.requests[pos]
                .molecules
                .iter()
                .filter(|g| seen.insert(graph_key(g)))
                .cloned()
                .collect();
            if k % 2 == 0 {
                return Write::Remove(remove);
            }
            let text = remove
                .iter()
                .enumerate()
                .map(|(i, g)| format!("{} w{k}_{i}\n", smiles[&graph_key(g)]))
                .collect();
            Write::Reload { remove, text }
        })
        .collect()
}

/// A stable byte rendering of requests, for the same-seed self-test.
#[cfg(test)]
pub fn requests_fingerprint(reqs: &[MatchRequest]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reqs {
        out.extend_from_slice(format!("{:?}|", r.mode).as_bytes());
        for g in r.queries.iter().chain(&r.molecules) {
            out.extend_from_slice(format!("{g:?}").as_bytes());
        }
    }
    out
}
