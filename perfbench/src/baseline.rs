//! `baseline-100k`: the campaign's baseline cell — `H_{V,V}(∅)` for Sec
//! 1st/2nd/3rd under the fake-link attack, estimated by the stratified
//! estimator with a fixed pair budget and no CI target — repeated with
//! the generated sampler seeds until the run time is spent. Two evaluation
//! threads.
//!
//! The untraced run calls `stats::estimate_adaptive_cells_eval` with the
//! campaign's own kernel (`stats::SweepCellsEval`, exactly what
//! `stats::estimate_metric_cells` builds), wrapped only to time each pair
//! and keep each pair's bounds for the output check. The traced run
//! drives `stats::estimate_adaptive_cells` with a `FusedDeltaEngine` per
//! worker and a span around every `begin` and `attack`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sbgp_core::{
    AttackScenario, AttackStrategy, Bounds, CellSet, Deployment, Engine, FusedDeltaEngine, Policy,
    SecurityModel,
};
use sbgp_sim::stats::{
    estimate_adaptive_cells, estimate_adaptive_cells_eval, AdaptiveRun, CellEval, EstimatorConfig,
    PairUniverse, SweepCellsEval,
};
use sbgp_sim::{Internet, Parallelism};
use sbgp_topology::AsId;

use crate::gen::Inputs;
use crate::trace::{attack_metrics, write_spans, Analysis, Tracer};
use crate::util::{median, ms_since, peak_rss_mb, Digest, Report};
use crate::{fmt_pair, load_internet, repeat_setup, trace_topology};

const THREADS: usize = 2;
/// Pairs per cell (three doubling rounds of the estimator).
const BUDGET: u64 = 400;
/// The tail percentile of per-pair latency: a p99 would need 1000 pairs
/// per run.
const TAIL: f64 = 0.90;
/// Pairs of the first cell recomputed with the reference engine.
const CHECK_PAIRS: usize = 8;
/// Untraced cells a traced run repeats as its reference.
const REFERENCE_CELLS: usize = 2;
const STRATEGY: AttackStrategy = AttackStrategy::FakeLink;

fn policies() -> Vec<Policy> {
    SecurityModel::ALL.iter().map(|&m| Policy::new(m)).collect()
}

fn cell_config(seeds: &[u64], k: usize) -> EstimatorConfig {
    EstimatorConfig::with_budget(BUDGET, seeds[k % seeds.len()])
}

struct Scenario {
    net: Internet,
    universe: PairUniverse,
    deployments: Vec<Deployment>,
}

fn setup(inputs: &Inputs) -> Result<Scenario, String> {
    let net = load_internet(inputs)?;
    let all: Vec<AsId> = net.graph.ases().collect();
    let universe = PairUniverse::new(&net, &all, &all);
    let deployments = vec![Deployment::empty(net.len())];
    Ok(Scenario {
        net,
        universe,
        deployments,
    })
}

/// The campaign kernel, timed per pair. A pair's time is its `eval_pair`
/// plus the `begin` of its destination group when it is the group's
/// first pair.
struct Timed<'a> {
    inner: SweepCellsEval<'a>,
    latency_ms: Mutex<Vec<f64>>,
    bounds: Mutex<HashMap<(AsId, AsId), Vec<Bounds>>>,
}

impl<'a> CellEval for Timed<'a> {
    type Worker = (<SweepCellsEval<'a> as CellEval>::Worker, f64);

    fn cell_stats(&self) -> Vec<usize> {
        self.inner.cell_stats()
    }

    fn make_worker(&self) -> Self::Worker {
        (self.inner.make_worker(), 0.0)
    }

    fn begin(&self, w: &mut Self::Worker, d: AsId) {
        let t = Instant::now();
        self.inner.begin(&mut w.0, d);
        w.1 = ms_since(t);
    }

    fn eval_pair(
        &self,
        w: &mut Self::Worker,
        m: AsId,
        d: AsId,
        emit: &mut dyn FnMut(usize, usize, Bounds),
    ) {
        let t = Instant::now();
        let mut got = Vec::with_capacity(3);
        self.inner.eval_pair(&mut w.0, m, d, &mut |c, k, b| {
            got.push(b);
            emit(c, k, b);
        });
        let ms = ms_since(t) + std::mem::take(&mut w.1);
        self.latency_ms.lock().expect("latency lock").push(ms);
        self.bounds.lock().expect("bounds lock").insert((m, d), got);
    }
}

fn digest_runs(runs: &[AdaptiveRun]) -> String {
    let mut d = Digest::new();
    for run in runs {
        for e in &run.estimates {
            for x in [
                e.value.lower,
                e.value.upper,
                e.halfwidth.lower,
                e.halfwidth.upper,
            ] {
                d.f64(x);
            }
            d.bytes(&e.pairs.to_le_bytes());
        }
    }
    d.hex()
}

fn same_runs(a: &[AdaptiveRun], b: &[AdaptiveRun]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.sampled == y.sampled
                && x.estimates.len() == y.estimates.len()
                && x.estimates.iter().zip(&y.estimates).all(|(p, q)| {
                    p.pairs == q.pairs
                        && [
                            p.value.lower,
                            p.value.upper,
                            p.halfwidth.lower,
                            p.halfwidth.upper,
                        ]
                        .iter()
                        .zip([
                            q.value.lower,
                            q.value.upper,
                            q.halfwidth.lower,
                            q.halfwidth.upper,
                        ])
                        .all(|(u, v)| u.to_bits() == v.to_bits())
                })
        })
}

/// Recompute pairs with the reference `Engine::compute` and compare every
/// policy's bounds bit for bit; mismatches count as failed operations.
/// Returns the reference compute times (ms).
fn check_pairs(
    sc: &Scenario,
    pairs: &[(AsId, AsId)],
    bounds: &HashMap<(AsId, AsId), Vec<Bounds>>,
    report: &mut Report,
) -> Vec<f64> {
    let mut engine = Engine::new(&sc.net.graph);
    let sources = (sc.net.len() - 2).max(1) as f64;
    let mut times = Vec::new();
    for &(m, d) in pairs {
        let got = bounds.get(&(m, d));
        let mut ok = got.is_some_and(|g| g.len() == 3);
        for (c, policy) in policies().into_iter().enumerate() {
            let t = Instant::now();
            let (lower, upper) = engine
                .compute(
                    AttackScenario::attack(m, d).with_strategy(STRATEGY),
                    &sc.deployments[0],
                    policy,
                )
                .count_happy();
            times.push(ms_since(t));
            let want = Bounds {
                lower: lower as f64 / sources,
                upper: upper as f64 / sources,
            };
            ok &= got.and_then(|g| g.get(c)).is_some_and(|b| {
                b.lower.to_bits() == want.lower.to_bits()
                    && b.upper.to_bits() == want.upper.to_bits()
            });
        }
        report.checks += 1;
        if !ok {
            report.check_mismatches += 1;
            report.ops_failed += 1;
            report.notes.push(format!(
                "pair {} differs from Engine::compute",
                fmt_pair((m, d))
            ));
        }
    }
    times
}

pub fn run(inputs: &Inputs, seconds: f64, traced: bool, report: &mut Report) -> Result<(), String> {
    if traced {
        trace_topology(inputs, report)?;
    }
    let seeds = inputs
        .read_cells()
        .map_err(|e| format!("{}: {e}", inputs.cells.display()))?;
    if seeds.is_empty() {
        return Err(format!("{}: no sampler seeds", inputs.cells.display()));
    }
    let (sc, setup_times) = repeat_setup(|| setup(inputs))?;
    let policies = policies();
    let eval = Timed {
        inner: SweepCellsEval::new(&sc.net, &sc.deployments, &policies, STRATEGY),
        latency_ms: Mutex::new(Vec::new()),
        bounds: Mutex::new(HashMap::new()),
    };
    let par = Parallelism(THREADS);

    // Untraced cells. A traced run stops after the first two: they are the
    // reference its traced cells must reproduce, and the second (warm)
    // one times the tracing overhead.
    let t0 = Instant::now();
    let (mut pairs, mut cells) = (0u64, 0usize);
    let mut reference: Vec<(Vec<AdaptiveRun>, f64)> = Vec::new();
    let mut first_bounds = HashMap::new();
    loop {
        let t = Instant::now();
        let runs =
            estimate_adaptive_cells_eval(&sc.universe, &cell_config(&seeds, cells), &eval, par);
        let ms = ms_since(t);
        let bounds = std::mem::take(&mut *eval.bounds.lock().expect("bounds lock"));
        if cells == 0 {
            first_bounds = bounds;
            report.results_digest = digest_runs(&runs);
        }
        report.ops += runs[0].sampled.len() as u64 + runs[0].lost_pairs;
        report.ops_failed += runs[0].lost_pairs;
        pairs += runs[0].sampled.len() as u64;
        cells += 1;
        if cells <= REFERENCE_CELLS {
            reference.push((runs, ms));
        }
        let done = if traced {
            cells >= REFERENCE_CELLS
        } else {
            t0.elapsed().as_secs_f64() >= seconds
        };
        if done {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let check: Vec<(AsId, AsId)> = reference[0].0[0]
        .sampled
        .iter()
        .take(CHECK_PAIRS)
        .copied()
        .collect();
    let compute_ms = check_pairs(&sc, &check, &first_bounds, report);
    if traced {
        let an = run_traced(&sc, &seeds, seconds, &reference, &compute_ms, report)?;
        write_spans(&an, inputs, report);
        return Ok(());
    }
    let latency = std::mem::take(&mut *eval.latency_ms.lock().expect("latency lock"));
    report.metric("setup_s", "s", median(&setup_times), setup_times.len());
    report.metric(
        "pair_evals_per_s",
        "1/s",
        pairs as f64 / wall,
        pairs as usize,
    );
    report.percentile("op_p50_ms", "ms", &latency, 0.50);
    report.tail("op_tail_ms", "ms", &latency, TAIL);
    report.metric("peak_rss_mb", "MB", rss, 1);
    report.metric("timed_s", "s", wall, 1);
    Ok(())
}

/// Counters the traced callbacks update from both worker threads.
#[derive(Default)]
struct Counters {
    begins: AtomicUsize,
    computations: AtomicUsize,
    collapsed: AtomicUsize,
    forced: AtomicUsize,
    refixed: AtomicUsize,
    grow_rounds: AtomicUsize,
    ops: AtomicU64,
}

fn run_traced(
    sc: &Scenario,
    seeds: &[u64],
    seconds: f64,
    reference: &[(Vec<AdaptiveRun>, f64)],
    compute_ms: &[f64],
    report: &mut Report,
) -> Result<Analysis, String> {
    let tracer = Tracer::new();
    let policies = policies();
    let cells = CellSet::per_policy(&policies, STRATEGY);
    let ncells = cells.input_len();
    let sources = (sc.net.len() - 2).max(1) as f64;
    let dep = &sc.deployments[0];
    let counters = Counters::default();
    // (patched?, ms) per attack.
    let attacks: Mutex<Vec<(bool, f64)>> = Mutex::new(Vec::new());
    let mut rounds = 0usize;

    let t_root = Instant::now();
    let root = tracer.begin("traced", 0, 0);
    let root_id = root.id();
    let mut overhead = 0.0;
    let mut k = 0usize;
    loop {
        let stats_span = tracer.begin("stats", root_id, 0);
        let parent = stats_span.id();
        let t = Instant::now();
        let runs = estimate_adaptive_cells(
            &sc.universe,
            &cell_config(seeds, k),
            &vec![1; ncells],
            Parallelism(THREADS),
            || (FusedDeltaEngine::new(&sc.net.graph, cells.clone()), 0u64),
            |(fused, op), d| {
                *op = counters.ops.fetch_add(1, Ordering::Relaxed);
                let before = fused.stats();
                tracer.span("delta.begin", parent, *op, || fused.begin(d, dep));
                let after = fused.stats();
                counters.begins.fetch_add(1, Ordering::Relaxed);
                counters
                    .computations
                    .fetch_add(fused.computations(), Ordering::Relaxed);
                counters.collapsed.fetch_add(
                    after.collapsed_lanes - before.collapsed_lanes,
                    Ordering::Relaxed,
                );
            },
            |(fused, op), m, _d, emit| {
                let (before, fbefore) = (fused.delta_stats(), fused.stats());
                let (_, span) = tracer.span("delta.attack", parent, *op, || fused.attack(m));
                let (after, fafter) = (fused.delta_stats(), fused.stats());
                counters
                    .refixed
                    .fetch_add(after.refixed_ases - before.refixed_ases, Ordering::Relaxed);
                counters
                    .grow_rounds
                    .fetch_add(after.grow_rounds - before.grow_rounds, Ordering::Relaxed);
                counters.forced.fetch_add(
                    fafter.forced_fallbacks - fbefore.forced_fallbacks,
                    Ordering::Relaxed,
                );
                let patched = after.full_recomputes == before.full_recomputes;
                attacks
                    .lock()
                    .expect("attack lock")
                    .push((patched, span.ms()));
                for c in 0..ncells {
                    let (lower, upper) = fused.count_happy(c);
                    emit(
                        c,
                        0,
                        Bounds {
                            lower: lower as f64 / sources,
                            upper: upper as f64 / sources,
                        },
                    );
                }
            },
        );
        tracer.end(stats_span);
        rounds += runs[0].rounds.len();
        if k == 0 {
            report.results_digest = digest_runs(&runs);
        }
        if let Some((want, want_ms)) = reference.get(k) {
            if k + 1 == REFERENCE_CELLS {
                overhead = ms_since(t) / want_ms - 1.0;
            }
            report.checks += 1;
            if !same_runs(&runs, want) {
                report.check_mismatches += 1;
                report.ops_failed += 1;
                report
                    .notes
                    .push(format!("traced cell {k} differs from the untraced cell"));
            }
        }
        report.ops += runs[0].sampled.len() as u64 + runs[0].lost_pairs;
        report.ops_failed += runs[0].lost_pairs;
        k += 1;
        if k >= REFERENCE_CELLS && t_root.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let root = tracer.end(root);
    let an = Analysis::new(tracer.take());

    report.percentile("engine.compute_ms_p50", "ms", compute_ms, 0.5);
    let begins = an.durations("delta.begin");
    report.metric("delta.begin_ms", "ms", begins.iter().sum(), begins.len());
    report.percentile("delta.begin_ms_p50", "ms", &begins, 0.5);
    let attacks = attacks.into_inner().expect("attack lock");
    attack_metrics(&attacks, compute_ms, report);
    report.metric(
        "delta.refixed_ases",
        "count",
        counters.refixed.into_inner() as f64,
        1,
    );
    report.metric(
        "delta.grow_rounds",
        "count",
        counters.grow_rounds.into_inner() as f64,
        1,
    );
    report.metric(
        "fused.computations",
        "count",
        counters.computations.into_inner() as f64,
        1,
    );
    report.metric(
        "fused.collapsed_lanes",
        "count",
        counters.collapsed.into_inner() as f64,
        1,
    );
    report.metric(
        "fused.forced_fallbacks",
        "count",
        counters.forced.into_inner() as f64,
        1,
    );
    report.metric(
        "stats.self_ms",
        "ms",
        an.self_total_ms("stats"),
        an.durations("stats").len(),
    );
    report.metric("stats.rounds", "count", rounds as f64, 1);
    report.metric(
        "stats.groups",
        "count",
        counters.begins.into_inner() as f64,
        1,
    );
    let busy: f64 = begins.iter().sum::<f64>() + an.total_ms("delta.attack");
    report.metric(
        "runner.busy_frac",
        "ratio",
        busy / (THREADS as f64 * an.total_ms("stats")),
        1,
    );
    report.metric("trace.overhead_frac", "ratio", overhead, 1);
    report.metric(
        "trace.coverage_frac",
        "ratio",
        an.coverage(&root, &["stats", "delta.begin", "delta.attack"]),
        1,
    );
    Ok(an)
}
