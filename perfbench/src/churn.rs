//! `churn-40k`: the adoption-churn experiment — Sec 1st, fake-link
//! attacks, over `scenario::churn_trajectory(net, 10)` (19 deployments:
//! nine growing steps to the peak, nine retracting steps back down).
//! Non-stub attackers against sampled destinations, one thread.
//!
//! One operation is one `(attacker, destination)` pair carried along the
//! whole trajectory by one `sweep::metric_churn` call: the first step is
//! an `AttackDeltaEngine` attack on the destination's normal outcome,
//! the other 18 are `SweepEngine` advances. The traced run drives those
//! two engines itself, with a span around every call.

use std::time::Instant;

use sbgp_core::metric::MetricAccumulator;
use sbgp_core::{
    AttackDeltaEngine, AttackScenario, AttackStrategy, Bounds, Deployment, Engine, HappyCount,
    Policy, SecurityModel, SweepEngine, SweepStats,
};
use sbgp_sim::{scenario, sweep, Internet, Parallelism};
use sbgp_topology::AsId;

use crate::gen::{Inputs, CHURN_PEAK as PEAK};
use crate::trace::{attack_metrics, write_spans, Analysis, Tracer};
use crate::util::{median, ms_since, peak_rss_mb, Digest, Report};
use crate::{fmt_pair, load_internet, repeat_setup, trace_topology};

const STRATEGY: AttackStrategy = AttackStrategy::FakeLink;
/// Pairs recomputed step by step with the reference engine.
const CHECK_PAIRS: usize = 4;
/// Pairs whose results form the digest and, in a traced run, the
/// untraced reference the traced pass must reproduce.
const PREFIX_PAIRS: usize = 32;
/// Prefix pairs left out of the overhead comparison (warm-up).
const WARM_PAIRS: usize = 8;
/// The tail percentile of per-pair latency: a p99 would need 1000 pairs
/// per run (about 30 s here).
const TAIL: f64 = 0.90;

fn policy() -> Policy {
    Policy::new(SecurityModel::Security1st)
}

struct Scenario {
    net: Internet,
    trajectory: Vec<Deployment>,
}

fn setup(inputs: &Inputs) -> Result<Scenario, String> {
    let net = load_internet(inputs)?;
    let trajectory = scenario::churn_trajectory(&net, PEAK);
    Ok(Scenario { net, trajectory })
}

fn digest(results: &[Vec<Bounds>]) -> String {
    let mut d = Digest::new();
    for steps in results {
        for b in steps {
            d.f64(b.lower);
            d.f64(b.upper);
        }
    }
    d.hex()
}

fn same(a: &[Bounds], b: &[Bounds]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.lower.to_bits() == y.lower.to_bits() && x.upper.to_bits() == y.upper.to_bits()
        })
}

/// Recompute every step of `pairs` with `Engine::compute`; returns the
/// compute times (ms).
fn check_pairs(
    sc: &Scenario,
    pairs: &[(AsId, AsId)],
    got: &[Vec<Bounds>],
    report: &mut Report,
) -> Vec<f64> {
    let mut engine = Engine::new(&sc.net.graph);
    let sources = sc.net.len() - 2;
    let mut times = Vec::new();
    for (&(m, d), got) in pairs.iter().zip(got) {
        let want: Vec<Bounds> = sc
            .trajectory
            .iter()
            .map(|dep| {
                let t = Instant::now();
                let (lower, upper) = engine
                    .compute(
                        AttackScenario::attack(m, d).with_strategy(STRATEGY),
                        dep,
                        policy(),
                    )
                    .count_happy();
                times.push(ms_since(t));
                let mut acc = MetricAccumulator::default();
                acc.add(HappyCount {
                    lower,
                    upper,
                    sources,
                });
                acc.value()
            })
            .collect();
        report.checks += 1;
        if !same(&want, got) {
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

fn churn_pair(sc: &Scenario, pair: (AsId, AsId)) -> Vec<Bounds> {
    sweep::metric_churn(
        &sc.net,
        &[pair],
        &sc.trajectory,
        policy(),
        STRATEGY,
        Parallelism::sequential(),
    )
    .0
}

pub fn run(inputs: &Inputs, seconds: f64, traced: bool, report: &mut Report) -> Result<(), String> {
    if traced {
        trace_topology(inputs, report)?;
    }
    let pairs = inputs
        .read_pairs()
        .map_err(|e| format!("{}: {e}", inputs.pairs.display()))?;
    if pairs.len() < PREFIX_PAIRS {
        return Err(format!(
            "{} pairs; need at least {PREFIX_PAIRS}",
            pairs.len()
        ));
    }
    let (sc, setup_times) = repeat_setup(|| setup(inputs))?;
    let steps = sc.trajectory.len();

    let mut prefix: Vec<Vec<Bounds>> = Vec::with_capacity(PREFIX_PAIRS);
    let mut latency = Vec::new();
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < PREFIX_PAIRS || (!traced && t0.elapsed().as_secs_f64() < seconds) {
        let t = Instant::now();
        let bounds = churn_pair(&sc, pairs[i % pairs.len()]);
        latency.push(ms_since(t));
        if i < PREFIX_PAIRS {
            prefix.push(bounds);
        }
        i += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    report.ops = i as u64;
    report.results_digest = digest(&prefix);
    let compute_ms = check_pairs(&sc, &pairs[..CHECK_PAIRS], &prefix[..CHECK_PAIRS], report);

    if traced {
        let an = run_traced(
            &sc,
            &pairs,
            seconds,
            &prefix,
            latency[WARM_PAIRS..PREFIX_PAIRS].iter().sum(),
            &compute_ms,
            report,
        )?;
        write_spans(&an, inputs, report);
        return Ok(());
    }
    report.metric("setup_s", "s", median(&setup_times), setup_times.len());
    report.metric(
        "pair_evals_per_s",
        "1/s",
        (i * steps) as f64 / wall,
        i * steps,
    );
    report.percentile("op_p50_ms", "ms", &latency, 0.50);
    report.tail("op_tail_ms", "ms", &latency, TAIL);
    report.metric("peak_rss_mb", "MB", rss, 1);
    report.metric("timed_s", "s", wall, 1);
    Ok(())
}

fn run_traced(
    sc: &Scenario,
    pairs: &[(AsId, AsId)],
    seconds: f64,
    reference: &[Vec<Bounds>],
    reference_ms: f64,
    compute_ms: &[f64],
    report: &mut Report,
) -> Result<Analysis, String> {
    let tracer = Tracer::new();
    let graph = &sc.net.graph;
    let sources = sc.net.len() - 2;
    let mut attacks: Vec<(bool, f64)> = Vec::new();
    let (mut refixed, mut grow_rounds) = (0usize, 0usize);
    let mut sweep_stats = SweepStats::default();
    let mut wax_ms = 0.0;
    let mut wane_ms = 0.0;
    let mut advance_ms = Vec::new();
    let mut traced_ms = 0.0;
    let mut digest_prefix = Vec::with_capacity(PREFIX_PAIRS);

    let t_root = Instant::now();
    let root = tracer.begin("traced", 0, 0);
    let mut i = 0usize;
    while i < PREFIX_PAIRS || t_root.elapsed().as_secs_f64() < seconds {
        let (m, d) = pairs[i % pairs.len()];
        let op = tracer.begin("op", root.id(), i as u64);
        let parent = op.id();
        // metric_churn builds its worker engines per call; so does this.
        let ((mut sweep, mut delta), _) = tracer.span("sweep.workers", parent, i as u64, || {
            (SweepEngine::new(graph), AttackDeltaEngine::new(graph))
        });
        let mut accs = vec![MetricAccumulator::default(); sc.trajectory.len()];
        let first = &sc.trajectory[0];
        tracer.span("delta.begin", parent, i as u64, || {
            delta.begin(d, first, policy())
        });
        let before = delta.stats();
        let (_, span) = tracer.span("delta.attack", parent, i as u64, || {
            delta.attack(m, STRATEGY);
        });
        let after = delta.stats();
        attacks.push((after.full_recomputes == before.full_recomputes, span.ms()));
        refixed += after.refixed_ases - before.refixed_ases;
        grow_rounds += after.grow_rounds - before.grow_rounds;
        let happy = delta.count_happy();
        accs[0].add(HappyCount {
            lower: happy.0,
            upper: happy.1,
            sources,
        });
        let scenario = AttackScenario::attack(m, d).with_strategy(STRATEGY);
        tracer.span("sweep.begin_from", parent, i as u64, || {
            sweep.begin_from(scenario, policy(), first, delta.last_outcome(), happy)
        });
        for (k, dep) in sc.trajectory.iter().enumerate().skip(1) {
            let (_, span) = tracer.span("sweep.advance", parent, i as u64, || {
                sweep.advance(dep);
            });
            advance_ms.push(span.ms());
            if k < PEAK {
                wax_ms += span.ms();
            } else {
                wane_ms += span.ms();
            }
            let (lower, upper) = sweep.count_happy();
            accs[k].add(HappyCount {
                lower,
                upper,
                sources,
            });
        }
        sweep_stats.merge(&sweep.stats());
        let op = tracer.end(op);
        let bounds: Vec<Bounds> = accs.iter().map(MetricAccumulator::value).collect();
        if (WARM_PAIRS..PREFIX_PAIRS).contains(&i) {
            traced_ms += op.ms();
        }
        if i < PREFIX_PAIRS {
            report.checks += 1;
            if !same(&bounds, &reference[i]) {
                report.check_mismatches += 1;
                report.ops_failed += 1;
                report.notes.push(format!(
                    "traced pair {} differs from metric_churn",
                    fmt_pair((m, d))
                ));
            }
            digest_prefix.push(bounds);
        }
        i += 1;
    }
    let root = tracer.end(root);
    report.ops += i as u64;
    report.results_digest = digest(&digest_prefix);
    let an = Analysis::new(tracer.take());

    report.percentile("engine.compute_ms_p50", "ms", compute_ms, 0.5);
    let begins = an.durations("delta.begin");
    report.metric("delta.begin_ms", "ms", begins.iter().sum(), begins.len());
    report.percentile("delta.begin_ms_p50", "ms", &begins, 0.5);
    attack_metrics(&attacks, compute_ms, report);
    report.metric("delta.refixed_ases", "count", refixed as f64, 1);
    report.metric("delta.grow_rounds", "count", grow_rounds as f64, 1);
    report.metric(
        "sweep.advance_ms",
        "ms",
        advance_ms.iter().sum(),
        advance_ms.len(),
    );
    report.percentile("sweep.advance_ms_p50", "ms", &advance_ms, 0.5);
    report.percentile("sweep.advance_ms_p99", "ms", &advance_ms, 0.99);
    report.metric("sweep.wax_ms", "ms", wax_ms, 1);
    report.metric("sweep.wane_ms", "ms", wane_ms, 1);
    report.metric(
        "sweep.monotone_steps",
        "count",
        sweep_stats.monotone_steps as f64,
        1,
    );
    report.metric(
        "sweep.retracting_steps",
        "count",
        sweep_stats.retracting_steps as f64,
        1,
    );
    report.metric(
        "sweep.fallback_steps",
        "count",
        sweep_stats.fallback_steps as f64,
        1,
    );
    report.metric(
        "sweep.refixed_ases",
        "count",
        sweep_stats.refixed_ases as f64,
        1,
    );
    report.metric(
        "sweep.grow_rounds",
        "count",
        sweep_stats.grow_rounds as f64,
        1,
    );
    report.metric(
        "trace.overhead_frac",
        "ratio",
        traced_ms / reference_ms - 1.0,
        1,
    );
    let layers = [
        "sweep.workers",
        "delta.begin",
        "delta.attack",
        "sweep.begin_from",
        "sweep.advance",
    ];
    report.metric(
        "trace.coverage_frac",
        "ratio",
        an.coverage(&root, &layers),
        1,
    );
    Ok(an)
}
