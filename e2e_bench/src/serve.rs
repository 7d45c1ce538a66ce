//! `serve_mixed`: `generate_workload` traffic submitted to one server, with
//! corpus writes interleaved on a fixed schedule. Each write retires the
//! molecules of the request right after it (`remove_molecule`), and every
//! other one preloads them again as `.smi` text (`preload_corpus`), so that
//! request is answered against the changed corpus and is checked against
//! the oracle. The server, over the standing corpus and warmed up during
//! set-up, runs cycles of 100-request phases, each drained before the
//! next. A cycle holds one open-loop phase per fixed rate, lowest first,
//! each after a serial and a burst phase:
//!
//! - serial: closed loop, one request in flight. Its latency, submit to
//!   report, is pure service time and gives `query_p50_ms`/`query_p90_ms`.
//! - burst: closed loop, one full micro-batch window in flight. Its pairs
//!   per wall second give `pairs_per_s`.
//! - open loop at a fixed rate, for the per-rate latencies, the backlog
//!   trend and `serve.max_rate_rps`.
//!
//! The end-to-end metrics come from the closed-loop phases because their
//! batching does not depend on timing: open-loop latency near saturation
//! swings with every change in host speed.
//!
//! The generator runs on this thread. Open loop, it submits every request
//! that is due, steps the server while requests are pending and sleeps
//! until the next due time otherwise. A request's latency runs from its
//! due time to the end of the step that answered it, so a stall delays
//! every request due behind it; `gen_lag` records how late each submission
//! ran.

use crate::inputs::{self, graph_key, Corpus, Rng, Traffic, Write};
use crate::layers::{ratio, Layers, RATE_LABELS};
use crate::stats::{median, quantile, slope};
use crate::trace::Tracer;
use crate::workload::{Opts, Pass};
use sigmo_core::{Completion, MatchMode};
use sigmo_device::{DeviceProfile, Queue};
use sigmo_graph::LabeledGraph;
use sigmo_serve::{
    oracle_replay, served_outcome, MatchRequest, RejectReason, RequestReport, ServeConfig,
    ServeStats, Server,
};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// The fixed offered rates (req/s), lowest first: below, near and beyond
/// the rate at which one server saturates on this traffic (its median
/// latency climbs from about 1 ms at 1000 req/s to 5-20 ms at 1200 req/s
/// on a 2-vCPU host).
pub const RATES: [f64; 3] = [RATE_LO, RATE_MID, RATE_HI];
const RATE_LO: f64 = 400.0;
const RATE_MID: f64 = 1200.0;
const RATE_HI: f64 = 2000.0;
/// A rate counts toward `serve.max_rate_rps` only if its p95 latency (ms)
/// stays within this limit, a rejected request counting as late.
pub const P95_LIMIT_MS: f64 = 25.0;

/// Executor workers (`RAYON_NUM_THREADS`) while this workload runs. The
/// executor starts its workers afresh on every kernel launch; with two,
/// a serving step's dozen small launches measure how fast a shared host
/// schedules new threads more than the serving path, and run slower than
/// on one. Launch cost with all cores is measured by `corpus_screen`.
pub const EXECUTOR_THREADS: &str = "1";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests per phase.
const PHASE: usize = 100;
/// Cycles per run, at least, so every rate sees at least 200 requests.
const MIN_CYCLES: usize = 2;
/// The phases of one cycle, in order: the open-loop rates lowest first,
/// each after a serial and a burst phase.
const CYCLE: [Kind; 9] = [
    Kind::Serial,
    Kind::Burst,
    Kind::Open(0),
    Kind::Serial,
    Kind::Burst,
    Kind::Open(1),
    Kind::Serial,
    Kind::Burst,
    Kind::Open(2),
];
/// Rough service seconds per request in a closed-loop phase, for sizing
/// the run.
const CLOSED_S_PER_REQUEST: f64 = 0.001;
/// Distinct requests in the trace; a longer run goes round it again, so
/// memory stays bounded however long the run. Not a multiple of a
/// cycle's requests, so each lap puts other requests in each phase kind.
const LAP: usize = 3100;
/// A corpus write runs before every this many requests.
const WRITE_EVERY: usize = 100;
/// Randomly chosen requests re-answered by `oracle_replay`, on top of the
/// first request after every write.
const CHECK_RANDOM: usize = 24;
/// Molecules per warm-up request.
const WARM_UP_CHUNK: usize = 32;
/// How long before a due time the generator stops sleeping and yields.
const WAKE_EARLY_S: f64 = 0.002;

/// Generated inputs.
pub struct Inputs {
    pub standing: Corpus,
    pub traffic: Traffic,
    /// One write per `write_every` requests of the lap, the first included.
    pub writes: Vec<Write>,
    /// Requests the run submits: whole cycles, going round the lap.
    pub total: usize,
    /// A write runs before every this many requests.
    pub write_every: usize,
    /// Requests per phase. The trace runs in cycles of the phases of
    /// [`CYCLE`].
    pub phase_len: usize,
    /// Trace positions re-answered by the oracle, ascending.
    pub check: Vec<usize>,
    /// Requests that admit every distinct trace molecule once.
    pub warm_up: Vec<MatchRequest>,
}

impl Inputs {
    /// The request at trace position `pos`.
    fn request(&self, pos: usize) -> &MatchRequest {
        &self.traffic.requests[pos % self.traffic.requests.len()]
    }

    /// The arrival gap before trace position `pos`.
    fn gap(&self, pos: usize) -> f64 {
        self.traffic.gaps[pos % self.traffic.gaps.len()]
    }
}

/// How the requests of one phase are submitted.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Closed loop, one request in flight.
    Serial,
    /// Closed loop, one micro-batch window in flight.
    Burst,
    /// Open loop at `RATES[r]`.
    Open(usize),
}

/// Cycles that fill about `opts.seconds`.
fn cycles(opts: &Opts) -> usize {
    let cycle_s: f64 = CYCLE
        .iter()
        .map(|k| match k {
            Kind::Open(r) => PHASE as f64 / RATES[*r],
            _ => PHASE as f64 * CLOSED_S_PER_REQUEST,
        })
        .sum();
    ((opts.seconds / cycle_s) as usize).max(MIN_CYCLES)
}

/// Builds the inputs: a 500-molecule standing corpus and a trace drawing
/// from a 400-molecule pool at full size.
pub fn inputs(opts: &Opts) -> Inputs {
    let (standing_size, pool, phase_len, cycles, write_every) = if opts.tiny {
        (30, 16, 10, 1, 10)
    } else {
        (500, 400, PHASE, cycles(opts), WRITE_EVERY)
    };
    let standing = inputs::corpus(inputs::sub_seed(opts.seed, 1), standing_size, "s");
    let total = cycles * CYCLE.len() * phase_len;
    let lap = total.min(LAP);
    let traffic = inputs::traffic(inputs::sub_seed(opts.seed, 2), lap, pool, write_every);
    let writes = inputs::writes(&traffic, pool, write_every);
    let mut rng = Rng::new(inputs::sub_seed(opts.seed, 4));
    let mut check: Vec<usize> = (0..total).step_by(write_every).collect();
    check.extend((0..CHECK_RANDOM).map(|_| rng.below(total)));
    check.sort_unstable();
    check.dedup();
    let mut seen = HashSet::new();
    let distinct: Vec<LabeledGraph> = traffic
        .requests
        .iter()
        .flat_map(|r| &r.molecules)
        .filter(|m| seen.insert(graph_key(m)))
        .cloned()
        .collect();
    let warm_up = distinct
        .chunks(WARM_UP_CHUNK)
        .map(|chunk| MatchRequest {
            queries: traffic.requests[0].queries.clone(),
            molecules: chunk.to_vec(),
            mode: MatchMode::FindAll,
        })
        .collect();
    Inputs {
        standing,
        traffic,
        writes,
        total,
        write_every,
        phase_len,
        check,
        warm_up,
    }
}

/// The server configuration under test: the defaults, with caching, the
/// screen index and the default queue bound.
pub fn config() -> ServeConfig {
    ServeConfig::default()
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Served {
    /// From due time to the end of the answering step.
    latency_s: f64,
    /// Queries × molecules.
    pairs: u64,
    /// Its submit, the write scheduled before it, and its even share of
    /// the answering step.
    busy_s: f64,
    /// Whether a full queue refused it first.
    rejected: bool,
}

/// What one phase measured.
#[derive(Debug, Default)]
struct Phase {
    served: Vec<Served>,
    gen_lag: Vec<f64>,
    backlog: Vec<(f64, f64)>,
    /// Submissions the full queue refused (each was retried).
    rejected: u64,
    /// Requests refused for good (malformed or oversized).
    refused: u64,
    truncated: u64,
    failed_writes: u64,
    max_pending: usize,
    /// Open loop: from the phase start to its last due time. Closed loop:
    /// wall until the last request was answered.
    duration_s: f64,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.served.iter().map(|s| s.latency_s).collect()
    }

    /// The `p`-quantile of its latencies, in ms.
    fn latency_ms(&self, p: f64) -> f64 {
        quantile(&self.latencies(), p) * 1e3
    }

    /// Whether the phase met the latency limit: at most 5 % of its
    /// requests were rejected first or answered later than the limit.
    fn met_limit(&self) -> bool {
        let late = self
            .served
            .iter()
            .filter(|s| s.rejected || s.latency_s * 1e3 > P95_LIMIT_MS)
            .count();
        late as f64 <= 0.05 * self.served.len() as f64
    }

    /// The backlog trend over the phase: the fitted change of
    /// `pending_len` at step starts from its first due time to its last.
    fn growth(&self) -> f64 {
        let (times, depths): (Vec<f64>, Vec<f64>) = self.backlog.iter().copied().unzip();
        slope(&times, &depths) * self.duration_s
    }
}

/// Runs the corpus write scheduled before trace position `global`, if
/// any; returns its wall seconds and whether it failed. A write fails if
/// it removes a molecule the server does not know or its preload
/// quarantines a line.
fn write_if_due(server: &mut Server, inp: &Inputs, global: usize, tr: &mut Tracer) -> (f64, bool) {
    if !global.is_multiple_of(inp.write_every) {
        return (0.0, false);
    }
    let k = global % inp.traffic.requests.len() / inp.write_every;
    let t0 = Instant::now();
    let failed = tr.span("write", k as u64, |_| {
        let (remove, text) = match &inp.writes[k] {
            Write::Remove(remove) => (remove, None),
            Write::Reload { remove, text } => (remove, Some(text)),
        };
        let unknown = remove.iter().filter(|g| !server.remove_molecule(g)).count();
        let quarantined = text.map_or(0, |t| server.preload_corpus(t).quarantined.len());
        unknown + quarantined > 0
    });
    (t0.elapsed().as_secs_f64(), failed)
}

/// One phase in progress: the requests' due times and what was measured
/// so far.
struct PhaseRun<'a> {
    inp: &'a Inputs,
    /// Trace position of the phase's first request.
    first: usize,
    /// Due time of each request, seconds after `start`.
    due: Vec<f64>,
    start: Instant,
    /// Admitted request id → (position in the phase, busy seconds so far,
    /// whether it was rejected first).
    admitted: HashMap<u64, (usize, f64, bool)>,
    ph: Phase,
}

impl PhaseRun<'_> {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Submits the request at phase position `i`. A submission the full
    /// queue refuses is counted as rejected and retried after a step, as
    /// a client that honours backpressure would; its latency still runs
    /// from its due time.
    fn submit(
        &mut self,
        server: &mut Server,
        i: usize,
        busy: f64,
        kept: &mut HashMap<usize, RequestReport>,
        tr: &mut Tracer,
    ) {
        let global = self.first + i;
        let mut busy = busy;
        let mut rejected = false;
        loop {
            let t0 = Instant::now();
            let submitted = tr.span("submit", global as u64, |_| {
                server.submit(self.inp.request(global))
            });
            busy += t0.elapsed().as_secs_f64();
            match submitted {
                Ok(id) => {
                    self.admitted.insert(id, (i, busy, rejected));
                    return;
                }
                Err(RejectReason::QueueFull) => {
                    self.ph.rejected += 1;
                    rejected = true;
                    self.step(server, kept, tr);
                }
                Err(_) => {
                    self.ph.refused += 1;
                    return;
                }
            }
        }
    }

    /// Steps the server once and records the requests it answered.
    fn step(
        &mut self,
        server: &mut Server,
        kept: &mut HashMap<usize, RequestReport>,
        tr: &mut Tracer,
    ) {
        let pending = server.pending_len();
        self.ph.max_pending = self.ph.max_pending.max(pending);
        self.ph.backlog.push((self.now(), pending as f64));
        let t0 = Instant::now();
        let id = (self.first + self.ph.served.len()) as u64;
        let outcome = tr.span("step", id, |_| server.step());
        let share = t0.elapsed().as_secs_f64() / outcome.reports.len().max(1) as f64;
        let end = self.now();
        for report in outcome.reports {
            let (i, busy, rejected) = self
                .admitted
                .remove(&report.request_id)
                .expect("served an admitted request");
            let pos = self.first + i;
            let req = self.inp.request(pos);
            self.ph.served.push(Served {
                latency_s: end - self.due[i],
                pairs: (req.queries.len() * req.molecules.len()) as u64,
                busy_s: busy + share,
                rejected,
            });
            if report.completion != Completion::Complete {
                self.ph.truncated += 1;
            }
            if self.inp.check.binary_search(&pos).is_ok() {
                kept.insert(pos, report);
            }
        }
    }
}

/// Drives trace positions `range` open loop at `rate` req/s, with the
/// writes scheduled in that stretch, and steps until the backlog is
/// drained. Served reports of the `inp.check` positions go into `kept`.
fn phase(
    server: &mut Server,
    inp: &Inputs,
    range: std::ops::Range<usize>,
    rate: f64,
    kept: &mut HashMap<usize, RequestReport>,
    tr: &mut Tracer,
) -> Phase {
    let n = range.len();
    let mut clock = 0.0;
    let due: Vec<f64> = range
        .clone()
        .map(|pos| {
            clock += inp.gap(pos) / rate;
            clock
        })
        .collect();
    let mut d = PhaseRun {
        inp,
        first: range.start,
        due,
        start: Instant::now(),
        admitted: HashMap::new(),
        ph: Phase {
            duration_s: clock,
            ..Phase::default()
        },
    };
    let mut next = 0;
    loop {
        while next < n && d.due[next] <= d.now() {
            let (write_s, write_failed) = write_if_due(server, inp, d.first + next, tr);
            d.ph.failed_writes += u64::from(write_failed);
            d.ph.gen_lag.push(d.now() - d.due[next]);
            d.submit(server, next, write_s, kept, tr);
            next += 1;
        }
        if server.pending_len() > 0 {
            d.step(server, kept, tr);
        } else if next < n {
            let wait = d.due[next] - d.now();
            if wait > 0.0 {
                // Sleep to just short of the due time, then yield until it:
                // a late wake-up would be charged to the request.
                tr.span("idle", (d.first + next) as u64, |_| {
                    if wait > WAKE_EARLY_S {
                        std::thread::sleep(Duration::from_secs_f64(wait - WAKE_EARLY_S));
                    }
                    while d.now() < d.due[next] {
                        std::thread::yield_now();
                    }
                });
            }
        } else {
            break;
        }
    }
    d.ph
}

/// Drives trace positions `range` closed loop: submits `window` requests
/// (with the writes scheduled before them), steps until they are all
/// answered, and repeats. A request's latency runs from the start of its
/// window.
fn closed(
    server: &mut Server,
    inp: &Inputs,
    range: std::ops::Range<usize>,
    window: usize,
    kept: &mut HashMap<usize, RequestReport>,
    tr: &mut Tracer,
) -> Phase {
    let n = range.len();
    let mut d = PhaseRun {
        inp,
        first: range.start,
        due: Vec::with_capacity(n),
        start: Instant::now(),
        admitted: HashMap::new(),
        ph: Phase::default(),
    };
    let mut window_start = 0.0;
    for i in 0..n {
        if i % window == 0 {
            while server.pending_len() > 0 {
                d.step(server, kept, tr);
            }
            window_start = d.now();
        }
        let (write_s, write_failed) = write_if_due(server, inp, d.first + i, tr);
        d.ph.failed_writes += u64::from(write_failed);
        d.due.push(window_start);
        d.submit(server, i, write_s, kept, tr);
    }
    while server.pending_len() > 0 {
        d.step(server, kept, tr);
    }
    d.ph.duration_s = d.now();
    d.ph
}

/// Sets up a server: a fresh one, preloaded with the standing corpus and
/// warmed up by admitting every trace molecule once, so the molecule
/// store is filled before timing as on a long-running server. The
/// canonicalization this costs is set-up time.
fn setup(inp: &Inputs, cfg: &ServeConfig, s: u64, tr: &mut Tracer, pass: &mut Pass) -> Server {
    tr.span("setup", s, |_| {
        let mut server = Server::new(cfg.clone(), Queue::new(DeviceProfile::host()));
        let load = server.preload_corpus(&inp.standing.text);
        pass.check_quarantined(load.quarantined.len(), inp.standing.planted_bad);
        for request in &inp.warm_up {
            if server.submit(request).is_err() {
                pass.problem("a warm-up request was refused".into());
            }
            server.step();
        }
        server
    })
}

/// The median of `f` over `phases`.
fn median_over(phases: &[Phase], f: impl Fn(&Phase) -> f64) -> f64 {
    median(&phases.iter().map(f).collect::<Vec<_>>())
}

/// The counters `after` gained over `before`.
fn stats_since(after: ServeStats, before: ServeStats) -> ServeStats {
    ServeStats {
        mol_hits: after.mol_hits - before.mol_hits,
        mol_misses: after.mol_misses - before.mol_misses,
        plan_hits: after.plan_hits - before.plan_hits,
        plan_misses: after.plan_misses - before.plan_misses,
        result_hits: after.result_hits - before.result_hits,
        result_misses: after.result_misses - before.result_misses,
        admitted: after.admitted - before.admitted,
        rejected: after.rejected - before.rejected,
        executed_molecules: after.executed_molecules - before.executed_molecules,
        batches: after.batches - before.batches,
        index_screened: after.index_screened - before.index_screened,
        index_pruned: after.index_pruned - before.index_pruned,
    }
}

/// One pass: [`SETUPS`] set-ups, then the step load on the last server,
/// cycle after cycle, then the oracle checks.
pub fn run(opts: &Opts, inp: &Inputs, tr: &mut Tracer, layers: &mut Layers) -> Pass {
    let pass_start = Instant::now();
    let mut pass = Pass::default();
    let cfg = config();
    let mut setups = Vec::new();
    let mut server = None;
    for s in 0..SETUPS {
        let t0 = Instant::now();
        server = Some(setup(inp, &cfg, s as u64, tr, &mut pass));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut server = server.expect("at least one set-up");
    let before = server.stats();
    layers.set("mol.quarantined", inp.standing.planted_bad as f64);

    let mut kept = HashMap::new();
    let mut serial = Vec::new();
    let mut burst = Vec::new();
    let mut phases: [Vec<Phase>; 3] = Default::default();
    for (k, first) in (0..inp.total).step_by(inp.phase_len).enumerate() {
        let range = first..first + inp.phase_len;
        let kind = CYCLE[k % CYCLE.len()];
        let ph = match kind {
            Kind::Serial => closed(&mut server, inp, range, 1, &mut kept, tr),
            Kind::Burst => closed(
                &mut server,
                inp,
                range,
                cfg.max_batch_requests,
                &mut kept,
                tr,
            ),
            Kind::Open(r) => phase(&mut server, inp, range, RATES[r], &mut kept, tr),
        };
        pass.attempted += inp.phase_len as u64;
        pass.failed += ph.refused + ph.truncated + ph.failed_writes;
        pass.rejected += ph.rejected;
        match kind {
            Kind::Serial => serial.push(ph),
            Kind::Burst => burst.push(ph),
            Kind::Open(r) => phases[r].push(ph),
        }
    }
    pass.attempted += inp.total.div_ceil(inp.write_every) as u64;
    let stats = stats_since(server.stats(), before);

    // Every checked request, including the first after each write, must
    // equal an unbatched, uncached replay.
    tr.span("check", 0, |_| {
        let queue = Queue::new(DeviceProfile::host());
        for (j, &pos) in inp.check.iter().enumerate() {
            let Some(report) = kept.get(&pos) else {
                pass.problem(format!("request {pos} was never answered"));
                continue;
            };
            let mut served = served_outcome(report);
            if opts.corrupt_total && j == 0 {
                served.total_matches += 1;
            }
            let oracle = oracle_replay(&cfg, inp.request(pos), &queue);
            if served != oracle {
                pass.problem(format!(
                    "request {pos}: served {} matches, oracle {}",
                    served.total_matches, oracle.total_matches
                ));
            }
        }
    });

    let mut max_rate: f64 = 0.0;
    for (r, phs) in phases.iter().enumerate() {
        // A rate counts if most of its phases met the limit and its
        // backlog did not grow by more than a micro-batch window.
        let met = phs.iter().filter(|p| p.met_limit()).count();
        let growth = median_over(phs, Phase::growth);
        if 2 * met >= phs.len() && growth <= cfg.max_batch_requests as f64 {
            max_rate = max_rate.max(RATES[r]);
        }
        if !tr.enabled() {
            let label = RATE_LABELS[r];
            let lag: Vec<f64> = phs.iter().flat_map(|p| p.gen_lag.iter().copied()).collect();
            layers.set(
                &format!("serve.req_p50_ms.{label}"),
                median_over(phs, |p| p.latency_ms(0.5)),
            );
            layers.set(
                &format!("serve.req_p95_ms.{label}"),
                median_over(phs, |p| p.latency_ms(0.95)),
            );
            layers.set(
                &format!("serve.gen_lag_ms.p99.{label}"),
                quantile(&lag, 0.99) * 1e3,
            );
            layers.set(&format!("serve.backlog_growth.{label}"), growth);
        }
    }
    let all = || phases.iter().flatten().chain(&serial).chain(&burst);
    if !tr.enabled() {
        layers.set("serve.max_rate_rps", max_rate);
    } else {
        layers.set(
            "serve.batch_mols.mean",
            ratio(stats.executed_molecules, stats.batches),
        );
        layers.set(
            "cache.mol_hit_ratio",
            ratio(stats.mol_hits, stats.mol_hits + stats.mol_misses),
        );
        layers.set(
            "cache.plan_hit_ratio",
            ratio(stats.plan_hits, stats.plan_hits + stats.plan_misses),
        );
        layers.set(
            "cache.result_hit_ratio",
            ratio(stats.result_hits, stats.result_hits + stats.result_misses),
        );
        layers.set(
            "index.prune_ratio",
            ratio(stats.index_pruned, stats.index_screened),
        );
        let max_pending = all().map(|p| p.max_pending).max().unwrap_or(0);
        layers.set("serve.queue_depth.max", max_pending as f64);
        layers.set("serve.rejected", stats.rejected as f64);
        let lag: Vec<f64> = all().flat_map(|p| p.gen_lag.iter().copied()).collect();
        layers.set("serve.gen_lag_ms.p99", quantile(&lag, 0.99) * 1e3);
    }
    pass.e2e.setup_s = median(&setups);
    // Service latency one request at a time, and throughput with a full
    // window in flight: medians over their phases, so the phases a busy
    // host slows down drop out.
    pass.e2e.query_p50_ms = median_over(&serial, |ph| ph.latency_ms(0.5));
    pass.e2e.query_p90_ms = median_over(&serial, |ph| ph.latency_ms(0.9));
    pass.e2e.pairs_per_s = median_over(&burst, |ph| {
        let pairs: u64 = ph.served.iter().map(|s| s.pairs).sum();
        pairs as f64 / ph.duration_s
    });
    let served: Vec<&Served> = all().flat_map(|p| &p.served).collect();
    pass.busy_per_op_s = served.iter().map(|s| s.busy_s).sum::<f64>() / served.len().max(1) as f64;
    pass.wall_s = pass_start.elapsed().as_secs_f64();
    pass
}
