//! The filtering kernels of Algorithm 1.
//!
//! * [`initialize_candidates`] — work-items are data nodes; applies the
//!   whole iteration-1 admission rule (label match, label-pair
//!   domination, node predicate) to every query row of a matching label.
//!   Query rows are pre-bucketed by label ([`LabelBuckets`], built once
//!   per batch, which also carries each row's pair signature and
//!   predicate), so a data node only meets the rows it can admit —
//!   O(matching rows) instead of O(|V_Q|). A work-group walks its data
//!   nodes in blocks aligned to bitmap words and writes each (row, block)
//!   word with one atomic OR;
//! * [`refine_candidates`] — one work-item per *dirty* query row (a row
//!   whose signature moved reaching this radius, [`DeltaClasses`]); the
//!   row scans its candidate words, tests each live bit's data signature
//!   against the row's on only the fields that moved, and clears a word's
//!   failing bits with one atomic AND. Refinement at iteration `i` only
//!   consults candidates surviving iteration `i−1`, so the candidate sets
//!   shrink monotonically. A from-scratch refine at one radius is the
//!   same kernel over `DeltaClasses::build(schema, &[EMPTY; n], sigs)`:
//!   every row with a non-empty signature, each with its full field mask.
//!
//! Both kernels charge their modeled work to the device counters as the
//! paper's per-bit GPU kernels would incur it, even though the host
//! writes a word at a time: every distinct bitmap word actually loaded
//! goes through `add_word_reads` (at the configured [`crate::WordWidth`]),
//! one signature load per domination test, a handful of modeled
//! instructions per comparison, and one atomic per set or cleared bit —
//! the accounting behind Figures 8 and 9. Both consult the [`Governor`]
//! at dispatch and then once per 64-node block (init) or per row
//! (refine), never per bit.
//!
//! The pre-optimization per-bit forms live in [`crate::naive`]; the
//! differential tests `word_parallel_differential` and
//! `filter_word_differential` pin both kernels to produce bit-identical
//! bitmaps.

use crate::candidates::CandidateBitmap;
use crate::governor::Governor;
use crate::schema::LabelSchema;
use crate::signature::{Signature, SignatureSet};
use sigmo_device::Queue;
use sigmo_graph::{
    CsrGo, EdgeLabel, Label, NodeAttrs, NodeId, NodePredicate, WILDCARD_EDGE, WILDCARD_LABEL,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Modeled instruction cost of one label comparison in the init kernel.
const INIT_INSTR_PER_QNODE: u64 = 4;
/// Modeled instruction cost of one domination test (|L| group compares).
const REFINE_INSTR_PER_TEST: u64 = 24;

/// The per-row init table: every query row's iteration-1 admission
/// inputs, built once per batch (or once per *plan* —
/// [`crate::plan::QueryPlan`] caches it across stream chunks).
///
/// Rows are bucketed by label: a data node labeled `dl` can match exactly
/// the concrete bucket for `dl` plus the wildcard rows. Wildcard query
/// rows live only in the wildcard list, so every row meets a data node at
/// most once for any data label (including the degenerate case of a
/// wildcard-labeled data node).
/// Bucket storage is sparse: only labels that actually occur in the batch
/// get a bucket (molecular batches touch ~a dozen of the 256 possible
/// labels), and lookup is a linear scan of that short list.
///
/// Alongside the buckets, the table holds each row's label-pair
/// signature ([`pair_signature`]) and compiled [`NodePredicate`], indexed
/// by row: the other two parts of the admission rule
/// [`initialize_candidates`] applies.
pub struct LabelBuckets {
    by_label: Vec<(Label, Vec<u32>)>,
    wildcard: Vec<u32>,
    pair_schema: LabelSchema,
    /// `pairs[q]`: row `q`'s label-pair signature (`EMPTY` when the row
    /// has no concrete pair to demand).
    pairs: Vec<Signature>,
    /// `preds[q]`: row `q`'s non-trivial predicate, if any.
    preds: Vec<Option<NodePredicate>>,
    /// Rows with a non-empty pair signature or a predicate.
    constrained: usize,
}

impl LabelBuckets {
    /// Builds the table in one O(|V_Q|) pass over the batch, allocating
    /// buckets only for labels the batch actually uses.
    pub fn build(queries: &CsrGo) -> Self {
        let n = queries.num_nodes();
        let mut by_label: Vec<(Label, Vec<u32>)> = Vec::new();
        let mut wildcard = Vec::new();
        for q in 0..n {
            let ql = queries.label(q as NodeId);
            if ql == WILDCARD_LABEL {
                wildcard.push(q as u32);
            } else {
                match by_label.iter_mut().find(|(l, _)| *l == ql) {
                    Some((_, rows)) => rows.push(q as u32),
                    None => by_label.push((ql, vec![q as u32])),
                }
            }
        }
        let pair_schema = pair_schema();
        let pairs: Vec<Signature> = (0..n as NodeId)
            .map(|q| pair_signature(queries, &pair_schema, q))
            .collect();
        let mut preds = vec![None; n];
        for (q, pred) in queries.predicates() {
            if !pred.is_trivial() {
                preds[*q as usize] = Some(pred.clone());
            }
        }
        let constrained = (0..n)
            .filter(|&q| pairs[q] != Signature::EMPTY || preds[q].is_some())
            .count();
        LabelBuckets {
            by_label,
            wildcard,
            pair_schema,
            pairs,
            preds,
            constrained,
        }
    }

    /// Number of distinct concrete labels in the batch.
    pub fn touched_labels(&self) -> usize {
        self.by_label.len()
    }

    /// The concrete query rows labeled `label`, ascending (empty for the
    /// wildcard label: wildcard rows live only in the wildcard list).
    fn bucket(&self, label: Label) -> &[u32] {
        self.by_label
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, rows)| rows.as_slice())
            .unwrap_or(&[])
    }

    /// The label-pair signature schema ([`pair_schema`]).
    pub fn pair_schema(&self) -> &LabelSchema {
        &self.pair_schema
    }

    /// Row `q`'s label-pair signature (`EMPTY` = no pair constraint).
    pub fn pair(&self, q: usize) -> Signature {
        self.pairs[q]
    }

    /// Row `q`'s non-trivial node predicate, if it has one.
    pub fn predicate(&self, q: usize) -> Option<&NodePredicate> {
        self.preds[q].as_ref()
    }

    /// Number of rows the pair or predicate test constrains — each
    /// counted once (iteration 1's `dirty_nodes`).
    pub fn constrained_rows(&self) -> usize {
        self.constrained
    }

    fn has_predicates(&self) -> bool {
        self.preds.iter().any(Option::is_some)
    }
}

/// The InitializeCandidates kernel, and the whole iteration-1 admission
/// rule: candidate bit `(q, d)` is set iff
///
/// 1. the labels match, or `q` is a wildcard atom;
/// 2. `d`'s label-pair signature dominates `q`'s (an empty query
///    signature always passes) — see [`pair_signature`];
/// 3. `q`'s compiled [`NodePredicate`], if any, matches `d`.
///
/// Edge labels and predicates are local facts the node-label signature
/// refinement cannot see, so this is the one place they prune before the
/// join; a bit rejected here makes `next_candidate` reject the extension
/// word-parallel through the bitmap probe.
///
/// Returns the number of label-matching bits the pair and predicate
/// tests rejected (iteration 1's `cleared_bits`).
pub fn initialize_candidates(
    queue: &Queue,
    queries: &CsrGo,
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    work_group_size: usize,
) -> u64 {
    initialize_candidates_bucketed(
        queue,
        &LabelBuckets::build(queries),
        data,
        bitmap,
        work_group_size,
        &Governor::unlimited(),
    )
}

/// [`initialize_candidates`] with a caller-provided [`LabelBuckets`] table
/// (the form [`crate::plan::QueryPlan`] uses, so the table is built once
/// per plan instead of once per chunk), under a [`Governor`]: a stopped
/// governor skips not-yet-started work-groups at dispatch and, inside a
/// running group, every 64-node block not yet started — it is consulted
/// once per block. A truncated init leaves some candidate bits unset —
/// strictly fewer candidates, so downstream results remain sound (every
/// reported embedding is real) but incomplete.
///
/// A work-group walks its data nodes in blocks aligned to bitmap words.
/// Per block it builds one mask per data label present; each row of that
/// label's bucket admits a subset of the mask, and each wildcard row a
/// subset of the whole block, which lands in the row's word with one
/// `fetch_or` — an RMW, because groups whose range is not a multiple of
/// 64 share their edge words with the neighboring group. A data node's
/// pair signature is built on its first constrained row, at most once,
/// into a 64-entry stack array; the data attributes a predicate reads are
/// built only for batches that carry a predicate (their ring perception
/// grows with the square of the batch's node count).
///
/// The modeled charges stay those of the per-bit kernel (one atomic per
/// admitted bit), so counters do not depend on the host write width.
pub fn initialize_candidates_bucketed(
    queue: &Queue,
    buckets: &LabelBuckets,
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    work_group_size: usize,
    governor: &Governor,
) -> u64 {
    let attrs = buckets.has_predicates().then(|| data.node_attrs());
    let pair_schema = buckets.pair_schema();
    let word_bytes = bitmap.word_width().bytes();
    let rejected = AtomicU64::new(0);
    queue.parallel_for_chunks_until(
        "initialize_candidates",
        "filter",
        data.num_nodes(),
        work_group_size,
        || governor.stopped(),
        |items, counters| {
            // Group-local charge accumulation (see `refine_candidates`):
            // one counter flush per work-group.
            let mut visits = 0u64;
            let mut sets = 0u64;
            let mut labels = 0u64;
            let mut by_label = [(0 as Label, 0u64); 64];
            let mut block = InitBlock {
                data,
                pair_schema,
                attrs: attrs.as_ref(),
                base: 0,
                pairs: [Signature::EMPTY; 64],
                built: 0,
                tests: 0,
                cleared: 0,
            };
            let words = items.start / 64..items.end.div_ceil(64);
            for w in words {
                if governor.stopped() {
                    break; // one relaxed load per 64-node block
                }
                let lo = items.start.max(w * 64);
                let hi = items.end.min(w * 64 + 64);
                block.base = w * 64;
                block.built = 0;
                // One mask per data label present in the block; a block
                // holds at most 64 distinct labels.
                let mut distinct = 0usize;
                for d in lo..hi {
                    let l = data.label(d as NodeId);
                    let bit = 1u64 << (d - block.base);
                    match by_label[..distinct].iter_mut().find(|(x, _)| *x == l) {
                        Some((_, mask)) => *mask |= bit,
                        None => {
                            by_label[distinct] = (l, bit);
                            distinct += 1;
                        }
                    }
                }
                labels += (hi - lo) as u64;
                for &(l, mask) in &by_label[..distinct] {
                    let rows = buckets.bucket(l);
                    visits += u64::from(mask.count_ones()) * rows.len() as u64;
                    for &q in rows {
                        let admitted = block.admit(buckets, q as usize, mask);
                        bitmap.or_word(q as usize, w, admitted);
                        sets += u64::from(admitted.count_ones());
                    }
                }
                let whole = (u64::MAX >> (64 - (hi - lo))) << (lo - block.base);
                visits += (hi - lo) as u64 * buckets.wildcard.len() as u64;
                for &q in &buckets.wildcard {
                    let admitted = block.admit(buckets, q as usize, whole);
                    bitmap.or_word(q as usize, w, admitted);
                    sets += u64::from(admitted.count_ones());
                }
            }
            let (tests, cleared) = (block.tests, block.cleared);
            // One bucket lookup per matching row, one set per admitted
            // bit; a rejected bit is never written. Each pair or predicate
            // test is one domination/evaluation plus an 8-byte data-side
            // load (the pair signature or the packed attributes).
            counters.add_instructions(
                INIT_INSTR_PER_QNODE * visits + 2 * labels + REFINE_INSTR_PER_TEST * tests,
            );
            counters.add_bytes_read(labels + tests * 8);
            counters.add_atomics(sets);
            counters.add_bytes_written(sets * word_bytes);
            rejected.fetch_add(cleared, Ordering::Relaxed);
        },
    );
    rejected.into_inner()
}

/// The data side of one word-aligned init block: up to 64 data nodes
/// starting at column `base`, with their lazily built pair signatures.
struct InitBlock<'a> {
    data: &'a CsrGo,
    pair_schema: &'a LabelSchema,
    attrs: Option<&'a NodeAttrs>,
    /// Column of the block's bit 0 (a multiple of 64).
    base: usize,
    /// `pairs[i]`: node `base + i`'s pair signature, valid where `built`
    /// has bit `i`.
    pairs: [Signature; 64],
    built: u64,
    /// Pair and predicate tests run, and the label matches they rejected.
    tests: u64,
    cleared: u64,
}

impl InitBlock<'_> {
    /// The subset of `candidates` (label-matching block bits) that row `q`
    /// admits: those whose pair signature dominates `q`'s and that satisfy
    /// `q`'s predicate. Each bit is tested as the per-bit kernel tests
    /// it: the pair test first, the predicate only on a pass.
    fn admit(&mut self, buckets: &LabelBuckets, q: usize, candidates: u64) -> u64 {
        let qpair = buckets.pair(q);
        let pred = buckets.predicate(q).zip(self.attrs);
        if qpair == Signature::EMPTY && pred.is_none() {
            return candidates;
        }
        let mut admitted = 0u64;
        for i in set_bits(candidates) {
            let bit = 1u64 << i;
            let d = (self.base + i) as NodeId;
            if qpair != Signature::EMPTY {
                self.tests += 1;
                if self.built & bit == 0 {
                    self.pairs[i] = pair_signature(self.data, self.pair_schema, d);
                    self.built |= bit;
                }
                if !self.pairs[i].dominates(self.pair_schema, &qpair) {
                    self.cleared += 1;
                    continue;
                }
            }
            if let Some((pred, attrs)) = pred {
                self.tests += 1;
                if !pred.matches(attrs, d) {
                    self.cleared += 1;
                    continue;
                }
            }
            admitted |= bit;
        }
        admitted
    }
}

/// The positions of the set bits of `word`, ascending.
#[inline]
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
}

/// The dirty query rows of one refinement radius, flattened for the
/// row-major [`refine_candidates`] kernel: rows whose signature *changed*
/// when the query [`SignatureSet`] advanced to this radius, each carrying
/// its new signature and its signature class's moved-field mask.
///
/// Restricting refinement to these rows is *exact*, not heuristic, by two
/// monotonicity facts (DESIGN.md §4b): `Signature::add` only grows
/// per-group counts, so data signatures grow pointwise with radius; and
/// domination `dsig ⊒ qsig` is monotone in `dsig`. A bit that survived
/// radius `r−1` against a query signature that did not move at radius `r`
/// therefore still satisfies `dsig_r ⊒ dsig_{r−1} ⊒ qsig_{r−1} = qsig_r`
/// — only rows whose signature moved can lose bits.
pub struct DeltaClasses {
    rows: Vec<DeltaRow>,
}

/// One dirty query row at one radius.
pub struct DeltaRow {
    /// The row's signature at this radius.
    pub sig: Signature,
    /// Union, over the rows sharing `sig`, of the schema groups whose
    /// count moved reaching this radius, as their MSBs
    /// ([`LabelSchema::msb`]). The kernel's domination test
    /// ([`Signature::dominates_fields`]) checks only these fields — exact
    /// per live bit, because a surviving bit's data signature already
    /// dominates every unmoved field (the monotonicity argument above),
    /// and the union can only add fields the full test would also check.
    pub changed: u64,
    /// The dirty query row index.
    pub row: u32,
}

impl DeltaClasses {
    /// Collects the rows with `prev[q] != cur[q]` in one O(|V_Q|) pass,
    /// recording per signature class which schema fields moved (the union
    /// over class members — exact for every member, since a skipped field
    /// is unmoved for *all* of them). Deterministic: rows stay in
    /// ascending order.
    pub fn build(schema: &LabelSchema, prev: &[Signature], cur: &[Signature]) -> Self {
        let mut index: std::collections::HashMap<Signature, usize> =
            std::collections::HashMap::new();
        let mut classes: Vec<u64> = Vec::new(); // moved-field union per class
        let mut dirty: Vec<(u32, u32)> = Vec::new(); // (row, class)
        for q in 0..cur.len() {
            let moved = cur[q].diff_groups(schema, &prev[q]);
            if moved == 0 {
                continue;
            }
            let class = *index.entry(cur[q]).or_insert_with(|| {
                classes.push(0);
                classes.len() - 1
            });
            classes[class] |= moved;
            dirty.push((q as u32, class as u32));
        }
        let rows = dirty
            .into_iter()
            .map(|(row, class)| DeltaRow {
                sig: cur[row as usize],
                changed: classes[class as usize],
                row,
            })
            .collect();
        DeltaClasses { rows }
    }

    /// True when no query signature moved at this radius — the refine
    /// launch for this iteration can be skipped entirely.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of dirty query rows (the `dirty_nodes` of
    /// [`crate::IterationStats`]).
    pub fn dirty_rows(&self) -> usize {
        self.rows.len()
    }

    /// The dirty rows, ascending — the refine kernel's work-items.
    pub fn rows(&self) -> &[DeltaRow] {
        &self.rows
    }
}

/// Dirty rows dispatched per work-group of [`refine_candidates`]. A row
/// work-item scans its whole candidate row — three orders of magnitude
/// heavier than a data-node work-item of init — so the groups stay small
/// to keep every core busy even at a few hundred dirty rows.
const DELTA_ROWS_PER_GROUP: usize = 4;

/// The RefineCandidates kernel: clears candidate bits whose data signature
/// no longer dominates the query signature, restricted to one radius'
/// dirty work and *transposed* — one work-item per dirty query row (not
/// per data node), which scans its candidate row a word at a time, applies
/// the field-restricted domination verdict at each live bit, and clears
/// all of a word's failing bits with one `fetch_and`. Work is
/// O(bitmap words + live bits) in the dirty rows — columns whose bits are
/// long gone cost 1/64th of a word load, and data graphs with no live bit
/// anywhere (the per-graph deadness the convergence machinery tracks) are
/// skipped wholesale for free, because their columns are all-zero words.
/// Skipped work is never charged or ticked, so the word-read accounting in
/// `KernelSummary` reflects the real savings; a cleared bit is charged one
/// atomic, as in the per-bit kernel.
///
/// Bit-identical to a full domination test of every live bit at the same
/// radius: the verdict for a live bit `(q, d)` depends only on the two
/// signatures, and the field-restricted test is exact per live bit (see
/// [`DeltaRow`]; the differential and property tests pin it against
/// [`crate::naive::refine_candidates`]). Rows are disjoint across
/// work-items, so clears never race. Refinement only *clears* bits, so a
/// stopped [`Governor`] leaves a superset of the fully refined candidates
/// — the join stays correct, just less pruned.
///
/// Returns the number of bits cleared.
pub fn refine_candidates(
    queue: &Queue,
    data: &CsrGo,
    schema: &LabelSchema,
    delta: &DeltaClasses,
    data_sigs: &SignatureSet,
    bitmap: &CandidateBitmap,
    governor: &Governor,
) -> u64 {
    let word_bytes = bitmap.word_width().bytes();
    let row_words = data.num_nodes().div_ceil(64);
    let rows = delta.rows();
    let snap = queue.parallel_for_chunks_until(
        "refine_candidates",
        "filter",
        rows.len(),
        DELTA_ROWS_PER_GROUP,
        || governor.stopped(),
        |items, counters| {
            // Modeled charges accumulate in group-locals and flush once per
            // work-group: the shared counter atomics cost a handful of RMWs
            // per group, not several per row.
            let mut cleared = 0u64;
            let mut tests = 0u64;
            let mut test_instr = 0u64;
            let mut trip_sq = 0u64;
            let mut rows_run = 0u64;
            let mut visit = |r: usize| {
                let dirty = &rows[r];
                let q = dirty.row as usize;
                // Field-restricted test: ~2 instructions per moved field
                // instead of one compare per schema group (see
                // [`DeltaRow::changed`]).
                let mask_cost = 2 * u64::from(dirty.changed.count_ones()) + 2;
                let mut row_tests = 0u64;
                for w in 0..row_words {
                    let live = bitmap.load_word(q, w);
                    let mut failing = 0u64;
                    for i in set_bits(live) {
                        let dsig = data_sigs.signature((w * 64 + i) as NodeId);
                        if !dsig.dominates_fields(schema, &dirty.sig, dirty.changed) {
                            failing |= 1 << i;
                        }
                    }
                    bitmap.clear_word(q, w, failing);
                    row_tests += u64::from(live.count_ones());
                    cleared += u64::from(failing.count_ones());
                }
                tests += row_tests;
                test_instr += mask_cost * row_tests;
                trip_sq += row_tests * row_tests;
                rows_run += 1;
            };
            for r in items {
                if governor.stopped() {
                    break; // consult once per row, never per bit
                }
                visit(r);
            }
            // Cost model of the transposed kernel: every bitmap word of a
            // scanned row is loaded exactly once (word-granular traffic);
            // each live bit costs one data-signature load (8 bytes) and a
            // masked domination test; each scanned row loads its own
            // signature + mask once (16 bytes).
            let words = rows_run * row_words as u64;
            counters.add_instructions(test_instr + words);
            counters.add_word_reads(words, word_bytes);
            counters.add_bytes_read(tests * 8 + rows_run * 16);
            counters.add_atomics(cleared);
            counters.add_bytes_written(cleared * word_bytes);
            counters.record_trip_moments(tests, trip_sq, rows_run);
        },
    );
    snap.atomic_ops
}

/// Number of (edge label, neighbor label) pair buckets: 16 uniform 4-bit
/// groups fill the 64-bit pair [`Signature`].
pub const PAIR_BUCKETS: usize = 16;

/// Schema of the label-pair signatures ([`pair_signature`]).
pub fn pair_schema() -> LabelSchema {
    LabelSchema::uniform(PAIR_BUCKETS)
}

/// Bucket of a fully-concrete (edge label, neighbor node label) pair.
/// Both sides hash with the same function, so a query pair and the data
/// pair that satisfies it always land in the same bucket.
#[inline]
pub fn pair_bucket(edge_label: EdgeLabel, neighbor_label: Label) -> Label {
    ((edge_label as u32 * 31 + neighbor_label as u32 * 131) % PAIR_BUCKETS as u32) as u8
}

/// The label-pair signature of node `v`: saturating bucketed counts of
/// its fully-concrete incident (edge label, neighbor label) pairs.
///
/// Pairs with a wildcard on either side are skipped — on the query side
/// because a wildcard pair constrains nothing, on the data side because a
/// wildcard data edge/neighbor can never satisfy a *concrete* query pair
/// (the join and init kernels require exact equality against concrete
/// query labels). Soundness: under any embedding, injectivity maps the
/// query node's concrete pairs to distinct data pairs with equal edge and
/// neighbor labels, so the data node's bucket counts dominate the query
/// node's — bucketing (a pure function of the pair) and saturation both
/// preserve domination.
pub fn pair_signature(graph: &CsrGo, schema: &LabelSchema, v: NodeId) -> Signature {
    let mut sig = Signature::EMPTY;
    let nbrs = graph.neighbors(v);
    let labels = graph.neighbor_edge_labels(v);
    for (i, &u) in nbrs.iter().enumerate() {
        let el = labels[i];
        let nl = graph.label(u);
        if el == WILDCARD_EDGE || nl == WILDCARD_LABEL {
            continue;
        }
        sig.add(schema, pair_bucket(el, nl), 1);
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::WordWidth;
    use crate::schema::LabelSchema;
    use sigmo_device::DeviceProfile;
    use sigmo_graph::LabeledGraph;

    fn queue() -> Queue {
        Queue::new(DeviceProfile::host())
    }

    /// A graph whose edges all carry the wildcard bond: its label-pair
    /// signatures are empty, so init admits on labels alone.
    fn any_bond(labels: &[u8], edges: &[(u32, u32)]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for &l in labels {
            g.add_node(l);
        }
        for &(a, b) in edges {
            g.add_edge(a, b, WILDCARD_EDGE).unwrap();
        }
        g
    }

    /// Query: C~O (labels 1, 3, any bond). Data: two molecules — C(-O)(-H)
    /// and C-H.
    fn tiny() -> (CsrGo, CsrGo) {
        let q = any_bond(&[1, 3], &[(0, 1)]);
        let d0 = LabeledGraph::from_edges(&[1, 3, 0], &[(0, 1), (0, 2)]).unwrap();
        let d1 = LabeledGraph::from_edges(&[1, 0], &[(0, 1)]).unwrap();
        (CsrGo::from_graphs(&[q]), CsrGo::from_graphs(&[d0, d1]))
    }

    /// A from-scratch refine of every row at the signatures' radius: the
    /// one kernel over the all-rows delta against the empty signatures.
    fn refine_all(
        queue: &Queue,
        data: &CsrGo,
        qs: &SignatureSet,
        ds: &SignatureSet,
        bm: &CandidateBitmap,
    ) -> u64 {
        let cur = qs.signatures();
        let delta = DeltaClasses::build(qs.schema(), &vec![Signature::EMPTY; cur.len()], cur);
        refine_candidates(
            queue,
            data,
            qs.schema(),
            &delta,
            ds,
            bm,
            &Governor::unlimited(),
        )
    }

    #[test]
    fn init_sets_label_matches_only() {
        let (queries, data) = tiny();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let rejected = initialize_candidates(&queue(), &queries, &data, &bm, 64);
        assert_eq!(rejected, 0, "an any-bond query constrains no pair");
        // Query node 0 (C) matches data nodes 0 (C) and 3 (C).
        assert!(bm.get(0, 0));
        assert!(bm.get(0, 3));
        assert!(!bm.get(0, 1));
        assert!(!bm.get(0, 2));
        // Query node 1 (O) matches only data node 1.
        assert!(bm.get(1, 1));
        assert_eq!(bm.row_count(1), 1);
    }

    #[test]
    fn refine_prunes_carbon_without_oxygen_neighbor() {
        let (queries, data) = tiny();
        let q = queue();
        let schema = LabelSchema::organic();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&q, &queries, &data, &bm, 64);
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema.clone());
        qs.advance(&queries);
        ds.advance(&data);
        let cleared = refine_all(&q, &data, &qs, &ds, &bm);
        // Data node 3 (the C of C-H) has no O neighbor: pruned.
        assert!(bm.get(0, 0));
        assert!(!bm.get(0, 3));
        assert_eq!(cleared, 1);
    }

    #[test]
    fn refinement_is_monotone() {
        let (queries, data) = tiny();
        let q = queue();
        let schema = LabelSchema::organic();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&q, &queries, &data, &bm, 64);
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema.clone());
        let mut prev = bm.total_count();
        for _ in 0..4 {
            qs.advance(&queries);
            ds.advance(&data);
            refine_all(&q, &data, &qs, &ds, &bm);
            let cur = bm.total_count();
            assert!(cur <= prev, "candidates grew: {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn kernel_filter_agrees_with_reference() {
        let (queries, data) = tiny();
        let schema = LabelSchema::organic();
        for iters in 1..=3usize {
            let q = queue();
            let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
            initialize_candidates(&q, &queries, &data, &bm, 64);
            let mut qs = SignatureSet::new(&queries, schema.clone());
            let mut ds = SignatureSet::new(&data, schema.clone());
            for _ in 1..iters {
                qs.advance(&queries);
                ds.advance(&data);
                refine_all(&q, &data, &qs, &ds, &bm);
            }
            let reference =
                CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
            crate::naive::reference_filter(&queries, &data, &schema, iters, &reference);
            for qn in 0..queries.num_nodes() {
                for d in 0..data.num_nodes() {
                    assert_eq!(
                        bm.get(qn, d),
                        reference.get(qn, d),
                        "bit ({qn}, {d}) at {iters} iterations"
                    );
                }
            }
        }
    }

    #[test]
    fn filter_soundness_never_prunes_true_match_site() {
        // Query C=O is present in data molecule formaldehyde-like C(=O)H2
        // (ignoring bond orders: filter is structure-only).
        let q = LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap();
        let d = LabeledGraph::from_edges(&[1, 3, 0, 0], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let queries = CsrGo::from_graphs(&[q]);
        let data = CsrGo::from_graphs(&[d]);
        let schema = LabelSchema::organic();
        let qq = queue();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&qq, &queries, &data, &bm, 64);
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema.clone());
        for _ in 0..5 {
            qs.advance(&queries);
            ds.advance(&data);
            refine_all(&qq, &data, &qs, &ds, &bm);
        }
        // The true embedding maps q0 -> d0, q1 -> d1; both bits must survive.
        assert!(bm.get(0, 0), "true candidate for C pruned");
        assert!(bm.get(1, 1), "true candidate for O pruned");
    }

    #[test]
    fn label_buckets_partition_query_rows() {
        let q = LabeledGraph::from_edges(&[1, 3, 1, WILDCARD_LABEL], &[(0, 1), (2, 3)]).unwrap();
        let queries = CsrGo::from_graphs(&[q]);
        let buckets = LabelBuckets::build(&queries);
        // Concrete rows per label, ascending; the wildcard row lives only
        // in the wildcard list.
        assert_eq!(buckets.bucket(1), &[0, 2]);
        assert_eq!(buckets.bucket(3), &[1]);
        assert!(buckets.bucket(7).is_empty());
        // A wildcard data label matches only wildcard rows, once.
        assert!(buckets.bucket(WILDCARD_LABEL).is_empty());
        assert_eq!(buckets.wildcard, vec![3]);
    }

    #[test]
    fn bucketed_init_matches_naive() {
        let (queries, data) = tiny();
        let fast = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let slow = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&queue(), &queries, &data, &fast, 64);
        crate::naive::initialize_candidates(&queries, &data, &slow);
        for q in 0..queries.num_nodes() {
            for d in 0..data.num_nodes() {
                assert_eq!(fast.get(q, d), slow.get(q, d), "bit ({q}, {d})");
            }
        }
    }

    #[test]
    fn delta_rows_share_their_class_field_mask() {
        // Two disconnected C-O pairs: rows 0/2 and 1/3 are signature-equal
        // once signatures have advanced, so each pair shares one mask.
        let q = LabeledGraph::from_edges(&[1, 3, 1, 3], &[(0, 1), (2, 3)]).unwrap();
        let queries = CsrGo::from_graphs(&[q]);
        let schema = LabelSchema::organic();
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let prev = qs.signatures().to_vec();
        qs.advance(&queries);
        let delta = DeltaClasses::build(&schema, &prev, qs.signatures());
        assert!(!delta.is_empty());
        assert_eq!(delta.dirty_rows(), 4);
        let rows: Vec<u32> = delta.rows().iter().map(|r| r.row).collect();
        assert_eq!(rows, vec![0, 1, 2, 3]);
        let masks: Vec<u64> = delta.rows().iter().map(|r| r.changed).collect();
        assert_eq!(masks[0], masks[2]);
        assert_eq!(masks[1], masks[3]);
        assert_ne!(masks[0], 0);
        // Nothing moves against the same radius: an empty delta.
        assert!(DeltaClasses::build(&schema, qs.signatures(), qs.signatures()).is_empty());
    }

    #[test]
    fn refine_matches_naive() {
        let (queries, data) = tiny();
        let q = queue();
        let schema = LabelSchema::organic();
        let fast = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let slow = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&q, &queries, &data, &fast, 64);
        crate::naive::initialize_candidates(&queries, &data, &slow);
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema);
        for _ in 0..3 {
            qs.advance(&queries);
            ds.advance(&data);
            let fast_cleared = refine_all(&q, &data, &qs, &ds, &fast);
            let slow_cleared =
                crate::naive::refine_candidates(&queries, &qs, &ds, &slow, data.num_nodes());
            assert_eq!(fast_cleared, slow_cleared);
            for qn in 0..queries.num_nodes() {
                for d in 0..data.num_nodes() {
                    assert_eq!(fast.get(qn, d), slow.get(qn, d), "bit ({qn}, {d})");
                }
            }
        }
    }

    #[test]
    fn wildcard_query_node_accepts_all_labels() {
        let q = any_bond(&[WILDCARD_LABEL, 3], &[(0, 1)]);
        let d = LabeledGraph::from_edges(&[1, 3, 0], &[(0, 1), (0, 2)]).unwrap();
        let queries = CsrGo::from_graphs(&[q]);
        let data = CsrGo::from_graphs(&[d]);
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&queue(), &queries, &data, &bm, 64);
        assert_eq!(bm.row_count(0), 3, "wildcard row holds every data node");
        assert_eq!(bm.row_count(1), 1);
    }

    #[test]
    fn init_rejects_bond_mismatch_and_failed_predicate() {
        // Query C=O (double bond) and a lone [CD2]. Data C-O (single bond)
        // and C-C-C.
        let mut q0 = LabeledGraph::new();
        q0.add_node(1);
        q0.add_node(3);
        q0.add_edge(0, 1, 2).unwrap();
        let mut q1 = LabeledGraph::from_edges(&[1], &[]).unwrap();
        q1.set_predicate(
            0,
            NodePredicate {
                degree: Some(2),
                ..Default::default()
            },
        );
        let d0 = LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap();
        let d1 = LabeledGraph::from_edges(&[1, 1, 1], &[(0, 1), (1, 2)]).unwrap();
        let queries = CsrGo::from_graphs(&[q0, q1]);
        let data = CsrGo::from_graphs(&[d0, d1]);
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let rejected = initialize_candidates(&queue(), &queries, &data, &bm, 64);
        // No data carbon has a double-bonded O (nor the O a double-bonded
        // C), so the pair test rejects every label match of C=O. Of the
        // four carbons, only the middle one of C-C-C has degree 2.
        assert_eq!(bm.row_count(0), 0);
        assert_eq!(bm.row_count(1), 0);
        assert_eq!(bm.row_count(2), 1);
        assert!(bm.get(2, 3), "the middle carbon of C-C-C");
        // Row 0: 4 carbons; row 1: 1 oxygen; row 2: 3 rejected carbons.
        assert_eq!(rejected, 4 + 1 + 3);
        let buckets = LabelBuckets::build(&queries);
        assert_eq!(
            buckets.constrained_rows(),
            3,
            "two rows by their pair signature, one by its predicate"
        );
        // The per-bit oracle applies the same rule.
        let slow = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        assert_eq!(
            crate::naive::initialize_candidates(&queries, &data, &slow),
            rejected
        );
        for r in 0..queries.num_nodes() {
            for c in 0..data.num_nodes() {
                assert_eq!(bm.get(r, c), slow.get(r, c), "bit ({r}, {c})");
            }
        }
    }
}
