//! What every workload shares: its options and the result of one pass.

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Measured seconds of one pass.
    pub seconds: f64,
    /// Tiny inputs, for the smoke tests.
    pub tiny: bool,
    /// Self-test hook: perturb one observed total before it is checked,
    /// so the run must fail its output check.
    pub corrupt_total: bool,
}

/// The end-to-end numbers of one pass.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    pub setup_s: f64,
    pub pairs_per_s: f64,
    pub query_p50_ms: f64,
    pub query_p90_ms: f64,
}

/// One measurement pass over a workload's inputs.
#[derive(Debug, Default)]
pub struct Pass {
    pub e2e: E2e,
    /// Operations attempted and failed (refused, truncated or erroring).
    pub attempted: u64,
    pub failed: u64,
    /// Submissions refused by a full queue and retried.
    pub rejected: u64,
    /// Output-check failures; empty when every check passed.
    pub problems: Vec<String>,
    /// Wall seconds of the whole pass, set-up and checks included.
    pub wall_s: f64,
    /// Busy wall seconds per operation, for the tracing-overhead ratio.
    pub busy_per_op_s: f64,
}

impl Pass {
    /// Records a failed output check.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// Checks that `.smi` ingest quarantined exactly the planted lines.
    pub fn check_quarantined(&mut self, quarantined: usize, planted: usize) {
        if quarantined != planted {
            self.problem(format!(
                "ingest quarantined {quarantined} lines, {planted} were planted"
            ));
        }
    }
}
