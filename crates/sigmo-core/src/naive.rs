//! Per-bit reference implementations of the filter/enumeration hot paths.
//!
//! These are the *pre-optimization* forms of the word-parallel kernels in
//! [`crate::filter`] and [`crate::candidates`]: one admission test per
//! (query node × data node) in init, one domination test per surviving
//! row in refine, one `get` probe per column when enumerating. They exist
//! for two reasons:
//!
//! 1. the differential regression test (`tests/word_parallel_differential`)
//!    asserts the optimized paths produce *bit-identical* bitmaps and
//!    identical match sets;
//! 2. the `ablate_candidate_scan` benchmark measures the speedup of the
//!    word-parallel paths against these.
//!
//! They run on the host without the device queue — no counters, no
//! parallelism — and compare signatures with their own per-group loop
//! ([`dominates`]) rather than the SWAR [`Signature::dominates`], so they
//! stay an independent oracle.

use crate::candidates::CandidateBitmap;
use crate::filter::{pair_schema, pair_signature};
use crate::schema::LabelSchema;
use crate::signature::{Signature, SignatureSet};
use sigmo_graph::{CsrGo, NodeId, WILDCARD_LABEL};

/// Per-group domination: `data` dominates `query` iff every group's
/// stored query count is ≤ the stored data count — the loop form the SWAR
/// [`Signature::dominates`] is pinned to.
pub fn dominates(schema: &LabelSchema, data: &Signature, query: &Signature) -> bool {
    schema
        .groups()
        .iter()
        .all(|g| query.0 & g.mask() <= data.0 & g.mask())
}

/// Per-bit InitializeCandidates: for every (data node, query row) pair,
/// evaluates the iteration-1 admission rule in loop form — the labels
/// match (or the query node is a wildcard), the data node's label-pair
/// signature dominates the query node's (both recomputed from scratch
/// per bit; an empty query signature always passes), and the query
/// node's predicate matches. Returns the number of label matches the pair
/// and predicate tests rejected.
pub fn initialize_candidates(queries: &CsrGo, data: &CsrGo, bitmap: &CandidateBitmap) -> u64 {
    let schema = pair_schema();
    let attrs = queries.has_predicates().then(|| data.node_attrs());
    let mut rejected = 0u64;
    for d in 0..data.num_nodes() as NodeId {
        let dl = data.label(d);
        for q in 0..queries.num_nodes() as NodeId {
            let ql = queries.label(q);
            if ql != dl && ql != WILDCARD_LABEL {
                continue;
            }
            let qpair = pair_signature(queries, &schema, q);
            let pair_ok = qpair == Signature::EMPTY
                || dominates(&schema, &pair_signature(data, &schema, d), &qpair);
            let pred_ok = match (queries.predicate(q), &attrs) {
                (Some(pred), Some(attrs)) => pred.matches(attrs, d),
                _ => true,
            };
            if pair_ok && pred_ok {
                bitmap.set(q as usize, d as usize);
            } else {
                rejected += 1;
            }
        }
    }
    rejected
}

/// Per-row RefineCandidates: for every data node, probes every query row
/// individually and runs one domination test per surviving bit. Returns
/// the number of bits cleared.
// sigmo-lint: allow(per-bit-probe) — this IS the per-bit oracle: the
// differential tests pin the word-parallel refine against exactly this
// column-at-a-time form.
pub fn refine_candidates(
    queries: &CsrGo,
    query_sigs: &SignatureSet,
    data_sigs: &SignatureSet,
    bitmap: &CandidateBitmap,
    num_data_nodes: usize,
) -> u64 {
    let nq = queries.num_nodes();
    let schema = query_sigs.schema().clone();
    let mut cleared = 0u64;
    for d in 0..num_data_nodes {
        let dsig = data_sigs.signature(d as NodeId);
        for q in 0..nq {
            if !bitmap.get(q, d) {
                continue;
            }
            let qsig = query_sigs.signature(q as NodeId);
            if !dominates(&schema, &dsig, &qsig) {
                bitmap.clear(q, d);
                cleared += 1;
            }
        }
    }
    cleared
}

/// Per-bit reference of the *whole* filter phase: the admission rule at
/// init plus exactly `iterations − 1` exhaustive refine rounds, never
/// exiting early and never skipping clean rows or dead graphs. This is
/// the oracle the convergence-driven paths (query-convergence stop,
/// delta-driven refine, plan reuse) are pinned against: because
/// refinement is monotone — query signatures stop moving and extra
/// rounds against unchanged signatures cannot clear a bit — the
/// incremental engine must produce a *bit-identical* bitmap to this
/// exhaustive form. Returns the total bits cleared across refine rounds.
pub fn reference_filter(
    queries: &CsrGo,
    data: &CsrGo,
    schema: &LabelSchema,
    iterations: usize,
    bitmap: &CandidateBitmap,
) -> u64 {
    assert!(iterations >= 1, "need ≥ 1 iteration");
    initialize_candidates(queries, data, bitmap);
    let mut query_sigs = SignatureSet::new(queries, schema.clone());
    let mut data_sigs = SignatureSet::new(data, schema.clone());
    let mut cleared = 0u64;
    for _ in 2..=iterations {
        query_sigs.advance(queries);
        data_sigs.advance(data);
        cleared += refine_candidates(queries, &query_sigs, &data_sigs, bitmap, data.num_nodes());
    }
    cleared
}

/// Per-bit candidate enumeration: probes every column of `[col_lo, col_hi)`
/// with `get`, in ascending order.
// sigmo-lint: allow(per-bit-probe) — oracle for iter_set_in_range; the
// ablation benchmark measures the word-parallel speedup against this.
pub fn enumerate_row(
    bitmap: &CandidateBitmap,
    row: usize,
    col_lo: usize,
    col_hi: usize,
) -> Vec<usize> {
    (col_lo..col_hi).filter(|&c| bitmap.get(row, c)).collect()
}

/// Per-bit variant of [`CandidateBitmap::next_set_in_range`].
// sigmo-lint: allow(per-bit-probe, uncharged-access) — oracle for the
// word-parallel next_set_in_range; kept deliberately column-at-a-time
// and off the measured path, so its probes are never charged.
pub fn next_set_in_range(
    bitmap: &CandidateBitmap,
    row: usize,
    col_lo: usize,
    col_hi: usize,
) -> Option<usize> {
    (col_lo..col_hi).find(|&c| bitmap.get(row, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::WordWidth;

    #[test]
    fn reference_filter_one_iteration_is_init_only() {
        use crate::candidates::WordWidth;
        use sigmo_graph::LabeledGraph;
        let queries = CsrGo::from_graphs(&[LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap()]);
        let data =
            CsrGo::from_graphs(&[LabeledGraph::from_edges(&[1, 1, 3], &[(0, 1), (1, 2)]).unwrap()]);
        let schema = LabelSchema::organic();
        let bitmap = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let cleared = reference_filter(&queries, &data, &schema, 1, &bitmap);
        assert_eq!(cleared, 0, "a single iteration never refines");
        // Admission only: the C row keeps just the carbon bonded to O (the
        // pair test rejects the other), the O row its one O.
        assert_eq!(bitmap.row_count(0), 1);
        assert!(bitmap.get(0, 1));
        assert_eq!(bitmap.row_count(1), 1);
    }

    #[test]
    fn enumerate_row_matches_word_parallel() {
        let b = CandidateBitmap::new(1, 150, WordWidth::U64);
        for c in [0, 63, 64, 127, 128, 149] {
            b.set(0, c);
        }
        assert_eq!(
            enumerate_row(&b, 0, 0, 150),
            b.iter_set_in_range(0, 0, 150).collect::<Vec<_>>()
        );
        assert_eq!(
            enumerate_row(&b, 0, 64, 128),
            b.iter_set_in_range(0, 64, 128).collect::<Vec<_>>()
        );
        assert_eq!(
            next_set_in_range(&b, 0, 1, 150),
            b.next_set_in_range(0, 1, 150)
        );
        assert_eq!(
            next_set_in_range(&b, 0, 129, 149),
            b.next_set_in_range(0, 129, 149)
        );
    }
}
