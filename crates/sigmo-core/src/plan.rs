//! Reusable query-side plans: everything the filter and join phases can
//! precompute from the query batch alone, built once and shared.
//!
//! The streaming runner used to rebuild the query CSR-GO, the
//! [`LabelBuckets`] and the per-radius query signatures for *every*
//! chunk — and the cluster simulator replays the same query batch on
//! every rank. All of that state is a pure function of the query batch
//! and the engine configuration, so [`QueryPlan`] computes it exactly
//! once:
//!
//! * query signatures advanced through every radius the configured
//!   iteration count can reach, under the plan's signature schema (the
//!   schema every run against the plan refines with);
//! * [`DeltaClasses`] per radius — the dirty rows the refine kernel
//!   re-tests (empty once the query side converges, which is what lets
//!   the engine stop refining early);
//! * the per-row init table for candidate initialization
//!   ([`LabelBuckets`]: label buckets, label-pair signatures, predicates)
//!   and the max-degree join plans.
//!
//! The plan is immutable and `Sync`: [`crate::StreamRunner`] builds one
//! per stream and every chunk borrows it; `sigmo-cluster` builds one per
//! run and every rank borrows it.

use crate::engine::EngineConfig;
use crate::filter::{DeltaClasses, LabelBuckets};
use crate::join;
use crate::schema::LabelSchema;
use crate::signature::{Signature, SignatureSet};
use sigmo_graph::{CsrGo, LabeledGraph};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`QueryPlan`] constructions. Test instrumentation
/// only: the stream/cluster reuse pins assert a multi-chunk run builds
/// exactly one plan.
static PLAN_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of plans built so far in this process (test instrumentation).
#[doc(hidden)]
pub fn plan_build_count() -> u64 {
    PLAN_BUILDS.load(Ordering::Relaxed)
}

/// Query-side filter state at one refinement radius.
struct RadiusState {
    /// Every query node's signature at this radius.
    sigs: Vec<Signature>,
    /// Dirty rows (signature moved reaching this radius), grouped for the
    /// refine kernel.
    delta: DeltaClasses,
}

/// Precomputed, immutable query-side state for [`crate::Engine`] runs.
pub struct QueryPlan {
    csr: CsrGo,
    schema: LabelSchema,
    induced: bool,
    buckets: LabelBuckets,
    /// `radii[r - 1]` is the state at radius `r` (used by iteration
    /// `r + 1`); radius 0 is the all-empty signature set and needs no
    /// entry.
    radii: Vec<RadiusState>,
    /// Largest radius with a non-empty delta (0 when no signature ever
    /// moves). Iterations beyond `last_dirty_radius + 1` cannot clear a
    /// bit, so the engine stops there.
    last_dirty_radius: usize,
    /// Max-degree join plans per query graph (the data-aware
    /// min-candidates ordering still has to be built per run).
    join_plans: Vec<join::QueryPlan>,
}

impl QueryPlan {
    /// Builds a plan from raw query graphs.
    pub fn build(query_graphs: &[LabeledGraph], config: &EngineConfig) -> Self {
        Self::from_batch(CsrGo::from_graphs(query_graphs), config)
    }

    /// Builds a plan from an already-batched query CSR-GO.
    pub fn from_batch(csr: CsrGo, config: &EngineConfig) -> Self {
        assert!(config.refinement_iterations >= 1, "need ≥ 1 iteration");
        PLAN_BUILDS.fetch_add(1, Ordering::Relaxed);
        let buckets = LabelBuckets::build(&csr);
        let max_radius = config.refinement_iterations - 1;
        let mut set = SignatureSet::new(&csr, config.schema.clone());
        let mut radii: Vec<RadiusState> = Vec::with_capacity(max_radius);
        let mut last_dirty_radius = 0usize;
        let mut prev_sigs: Vec<Signature> = set.signatures().to_vec();
        for r in 1..=max_radius {
            set.advance(&csr);
            let sigs = set.signatures().to_vec();
            let delta = DeltaClasses::build(&config.schema, &prev_sigs, &sigs);
            if !delta.is_empty() {
                last_dirty_radius = r;
            }
            prev_sigs = sigs.clone();
            radii.push(RadiusState { sigs, delta });
        }
        let join_plans = (0..csr.num_graphs())
            .map(|qg| join::QueryPlan::build(&csr, qg, config.induced))
            .collect();
        Self {
            csr,
            schema: config.schema.clone(),
            induced: config.induced,
            buckets,
            radii,
            last_dirty_radius,
            join_plans,
        }
    }

    /// The batched query graphs.
    pub fn batch(&self) -> &CsrGo {
        &self.csr
    }

    /// The signature schema the plan was built with.
    pub fn schema(&self) -> &LabelSchema {
        &self.schema
    }

    /// Whether the join plans use induced semantics.
    pub fn induced(&self) -> bool {
        self.induced
    }

    /// The per-row init table for candidate initialization.
    pub fn buckets(&self) -> &LabelBuckets {
        &self.buckets
    }

    /// Largest radius the plan holds state for
    /// (`refinement_iterations − 1` at build time).
    pub fn max_radius(&self) -> usize {
        self.radii.len()
    }

    /// Largest radius at which any query signature still moved. Refinement
    /// iterations beyond `last_dirty_radius() + 1` cannot clear a bit.
    pub fn last_dirty_radius(&self) -> usize {
        self.last_dirty_radius
    }

    fn state(&self, radius: usize) -> &RadiusState {
        assert!(
            (1..=self.radii.len()).contains(&radius),
            "plan holds radii 1..={}, asked for {radius}",
            self.radii.len()
        );
        &self.radii[radius - 1]
    }

    /// Every query signature at `radius` (1-based).
    pub fn signatures_at(&self, radius: usize) -> &[Signature] {
        &self.state(radius).sigs
    }

    /// The dirty-row delta at `radius` (1-based).
    pub fn delta_at(&self, radius: usize) -> &DeltaClasses {
        &self.state(radius).delta
    }

    /// The precomputed max-degree join plans, one per query graph.
    pub fn join_plans(&self) -> &[join::QueryPlan] {
        &self.join_plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmo_graph::LabeledGraph;

    fn queries() -> Vec<LabeledGraph> {
        vec![
            // C-O and a lone C: tiny diameters, fast convergence.
            LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap(),
            LabeledGraph::from_edges(&[1], &[]).unwrap(),
        ]
    }

    #[test]
    fn plan_converges_after_the_query_diameter() {
        let cfg = EngineConfig::default(); // 6 iterations → radii 1..=5
        let plan = QueryPlan::build(&queries(), &cfg);
        assert_eq!(plan.max_radius(), 5);
        // C-O has diameter 1: signatures move only at radius 1.
        assert_eq!(plan.last_dirty_radius(), 1);
        assert!(!plan.delta_at(1).is_empty());
        for r in 2..=5 {
            assert!(plan.delta_at(r).is_empty(), "radius {r}");
            assert_eq!(plan.signatures_at(r), plan.signatures_at(1), "radius {r}");
        }
    }

    #[test]
    fn plan_signatures_match_a_fresh_signature_set() {
        let cfg = EngineConfig::with_iterations(4);
        let plan = QueryPlan::build(&queries(), &cfg);
        let csr = CsrGo::from_graphs(&queries());
        let mut set = SignatureSet::new(&csr, cfg.schema.clone());
        for r in 1..=3usize {
            set.advance(&csr);
            assert_eq!(plan.signatures_at(r), set.signatures(), "radius {r}");
        }
    }

    #[test]
    fn join_plans_cover_every_query_graph() {
        let plan = QueryPlan::build(&queries(), &EngineConfig::default());
        assert_eq!(plan.join_plans().len(), 2);
    }

    #[test]
    fn init_table_constrains_bonded_query_nodes_only() {
        let plan = QueryPlan::build(&queries(), &EngineConfig::default());
        // Both C-O endpoints carry one concrete (edge, neighbor) pair; the
        // isolated C node has none and is admitted on its label alone.
        let buckets = plan.buckets();
        assert_ne!(buckets.pair(0), Signature::EMPTY);
        assert_ne!(buckets.pair(1), Signature::EMPTY);
        assert_eq!(buckets.pair(2), Signature::EMPTY);
        assert_eq!(buckets.constrained_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "radii 1..=5")]
    fn out_of_range_radius_panics() {
        let plan = QueryPlan::build(&queries(), &EngineConfig::default());
        plan.delta_at(6);
    }
}
