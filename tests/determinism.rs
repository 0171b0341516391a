//! Thread-count determinism: `runner::metric`, the cell-grid sweep and
//! churn runners (merged `SweepStats` included), the adaptive estimators,
//! and the
//! strategic-attacker runners (strategy ladder, collusion) must
//! produce **bit-identical** results at any [`Parallelism`] — including the
//! floating-point metric bounds, not just integer counts. The runner
//! guarantees this by reducing fixed-size work chunks in chunk order, no
//! matter which worker computed which chunk. Every cell of a multi-cell
//! run is also pinned bit-identical to a one-cell run of that cell — the
//! property campaign resume relies on when it recomputes only a group's
//! missing cells.

use bgp_juice::prelude::*;
use bgp_juice::sim::experiments::{baseline, ExperimentConfig};
use bgp_juice::sim::stats::{self, AdaptiveRun, EstimatorConfig};
use bgp_juice::sim::strategy;
use bgp_juice::sim::sweep;
use std::collections::HashSet;

fn net() -> Internet {
    Internet::synthetic(600, 5)
}

fn parallelisms() -> [Parallelism; 3] {
    [
        Parallelism::sequential(),
        Parallelism(2),
        Parallelism::auto(),
    ]
}

#[test]
fn metric_is_bit_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 7, 1);
    let dests = sample::sample_all(&net, 11, 2);
    let pairs = sample::pairs(&attackers, &dests);
    let dep = Deployment::full_from_iter(net.len(), net.tiers.tier1().iter().copied());
    for model in SecurityModel::ALL {
        let policy = Policy::new(model);
        let reference = runner::metric(&net, &pairs, &dep, policy, Parallelism::sequential());
        for par in parallelisms() {
            let got = runner::metric(&net, &pairs, &dep, policy, par);
            // Bit-identical, not approximately equal.
            assert_eq!(
                got.lower.to_bits(),
                reference.lower.to_bits(),
                "{model} lower @ {par:?}"
            );
            assert_eq!(
                got.upper.to_bits(),
                reference.upper.to_bits(),
                "{model} upper @ {par:?}"
            );
        }
    }
}

#[test]
fn metric_with_stderr_is_bit_identical_across_thread_counts() {
    // The §4.2 baseline reports the sampled mean with its standard error,
    // both folded through the pooled runner's accumulators.
    let net = net();
    let run = |par: Parallelism| {
        let mut cfg = ExperimentConfig::small(3);
        cfg.parallelism = par;
        baseline::baseline_metric(&net, &cfg)
    };
    let reference = run(Parallelism::sequential());
    assert!(reference.stderr.lower > 0.0, "{:?}", reference.stderr);
    for par in parallelisms() {
        let got = run(par);
        for (g, r) in [
            (got.metric.lower, reference.metric.lower),
            (got.metric.upper, reference.metric.upper),
            (got.stderr.lower, reference.stderr.lower),
            (got.stderr.upper, reference.stderr.upper),
        ] {
            assert_eq!(g.to_bits(), r.to_bits(), "{par:?}");
        }
    }
}

fn assert_bounds_bits(got: &[Bounds], want: &[Bounds], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}");
    for (k, (g, r)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.lower.to_bits(),
            r.lower.to_bits(),
            "{label} step {k} lower"
        );
        assert_eq!(
            g.upper.to_bits(),
            r.upper.to_bits(),
            "{label} step {k} upper"
        );
    }
}

#[test]
fn sweep_results_are_bit_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 5, 7);
    let dests = sample::sample_all(&net, 8, 8);
    let pairs = sample::pairs(&attackers, &dests);
    let deps = vec![
        Deployment::empty(net.len()),
        scenario::tier12_step(&net, 3, 5).deployment.clone(),
        scenario::tier12_step(&net, 5, 20).deployment.clone(),
    ];
    let policies = SecurityModel::ALL.map(Policy::new);
    let cells = CellSet::per_policy(&policies, AttackStrategy::FakeLink);
    let reference =
        sweep::metric_sweep_cells(&net, &pairs, &deps, &cells, Parallelism::sequential());
    for par in parallelisms() {
        let got = sweep::metric_sweep_cells(&net, &pairs, &deps, &cells, par);
        assert_eq!(got.len(), reference.len());
        for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert_bounds_bits(g, r, &format!("{} @ {par:?}", policies[i].model));
        }
    }
    // Every cell of the 3-cell run equals a one-cell run of that cell.
    for (i, &policy) in policies.iter().enumerate() {
        let one = CellSet::per_policy(&[policy], AttackStrategy::FakeLink);
        let solo = sweep::metric_sweep_cells(&net, &pairs, &deps, &one, Parallelism(2));
        assert_bounds_bits(
            &solo[0],
            &reference[i],
            &format!("{} one-cell", policy.model),
        );
    }
}

#[test]
fn churn_metric_is_bit_identical_across_thread_counts() {
    // The non-monotone drivers inherit the chunk-order reduction, and the
    // merged SweepStats are a sum of per-group deltas — so the *stats*
    // (fallback counts, step directions, re-fixed ASes) are pinned too,
    // not just the float bounds.
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 5, 15);
    let dests = sample::sample_all(&net, 7, 16);
    let pairs = sample::pairs(&attackers, &dests);
    let deps = scenario::churn_trajectory(&net, 4);
    for model in SecurityModel::ALL {
        let policy = Policy::new(model);
        let (reference, ref_stats) = sweep::metric_churn(
            &net,
            &pairs,
            &deps,
            policy,
            AttackStrategy::FakeLink,
            Parallelism::sequential(),
        );
        for par in parallelisms() {
            let (got, stats) =
                sweep::metric_churn(&net, &pairs, &deps, policy, AttackStrategy::FakeLink, par);
            assert_eq!(got.len(), reference.len());
            for (k, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    g.lower.to_bits(),
                    r.lower.to_bits(),
                    "{model} step {k} lower @ {par:?}"
                );
                assert_eq!(
                    g.upper.to_bits(),
                    r.upper.to_bits(),
                    "{model} step {k} upper @ {par:?}"
                );
            }
            assert_eq!(stats, ref_stats, "{model} sweep stats @ {par:?}");
        }
    }
}

#[test]
fn churn_by_destination_is_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 4, 17);
    let dests = sample::sample_all(&net, 6, 18);
    let deps = scenario::churn_trajectory(&net, 3);
    let policy = Policy::new(SecurityModel::Security2nd);
    let (reference, ref_stats) = sweep::metric_churn_by_destination(
        &net,
        &attackers,
        &dests,
        &deps,
        policy,
        AttackStrategy::FakeLink,
        Parallelism::sequential(),
    );
    for par in parallelisms() {
        let (got, stats) = sweep::metric_churn_by_destination(
            &net,
            &attackers,
            &dests,
            &deps,
            policy,
            AttackStrategy::FakeLink,
            par,
        );
        assert_eq!(got, reference, "{par:?}");
        assert_eq!(stats, ref_stats, "sweep stats @ {par:?}");
    }
}

#[test]
fn sweep_by_destination_is_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 4, 9);
    let dests = sample::sample_all(&net, 6, 10);
    let deps = vec![
        Deployment::empty(net.len()),
        scenario::tier12_step(&net, 4, 10).deployment.clone(),
    ];
    let policy = Policy::new(SecurityModel::Security2nd);
    let run = |par: Parallelism| {
        sweep::metric_churn_by_destination(
            &net,
            &attackers,
            &dests,
            &deps,
            policy,
            AttackStrategy::FakeLink,
            par,
        )
    };
    let reference = run(Parallelism::sequential());
    for par in parallelisms() {
        assert_eq!(run(par), reference, "{par:?}");
    }
}

#[test]
fn strategy_ladder_is_bit_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 5, 11);
    let dests = sample::sample_all(&net, 7, 12);
    let pairs = sample::pairs(&attackers, &dests);
    let dep = Deployment::full_from_iter(net.len(), net.tiers.tier1().iter().copied());
    for model in SecurityModel::ALL {
        let policy = Policy::new(model);
        let reference = strategy::metric_strategy_ladder(
            &net,
            &pairs,
            &dep,
            policy,
            &AttackStrategy::LADDER,
            Parallelism::sequential(),
        );
        for par in parallelisms() {
            let got = strategy::metric_strategy_ladder(
                &net,
                &pairs,
                &dep,
                policy,
                &AttackStrategy::LADDER,
                par,
            );
            assert_eq!(got.wins, reference.wins, "{model} wins @ {par:?}");
            assert_eq!(got.pairs, reference.pairs, "{model} pairs @ {par:?}");
            assert_eq!(
                got.optimal.lower.to_bits(),
                reference.optimal.lower.to_bits(),
                "{model} optimal lower @ {par:?}"
            );
            assert_eq!(
                got.optimal.upper.to_bits(),
                reference.optimal.upper.to_bits(),
                "{model} optimal upper @ {par:?}"
            );
            for (k, (g, r)) in got.per_rung.iter().zip(&reference.per_rung).enumerate() {
                assert_eq!(
                    g.lower.to_bits(),
                    r.lower.to_bits(),
                    "{model} rung {k} lower @ {par:?}"
                );
                assert_eq!(
                    g.upper.to_bits(),
                    r.upper.to_bits(),
                    "{model} rung {k} upper @ {par:?}"
                );
            }
        }
    }
}

/// Every field of two adaptive runs, floats compared by `to_bits`.
fn assert_runs_bits(got: &AdaptiveRun, want: &AdaptiveRun, label: &str) {
    assert_eq!(got.sampled, want.sampled, "{label} sample");
    assert_eq!(got.rounds.len(), want.rounds.len(), "{label} rounds");
    for (g, r) in got.rounds.iter().zip(&want.rounds) {
        assert_eq!(g.pairs, r.pairs, "{label} round pairs");
        assert_eq!(
            g.max_halfwidth.to_bits(),
            r.max_halfwidth.to_bits(),
            "{label} round width"
        );
    }
    assert_eq!(got.estimates.len(), want.estimates.len(), "{label}");
    for (k, (g, r)) in got.estimates.iter().zip(&want.estimates).enumerate() {
        assert_eq!(g.pairs, r.pairs, "{label} step {k} pairs");
        for (a, b) in [
            (g.value.lower, r.value.lower),
            (g.value.upper, r.value.upper),
            (g.halfwidth.lower, r.halfwidth.lower),
            (g.halfwidth.upper, r.halfwidth.upper),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{label} step {k}");
        }
    }
    assert_eq!(got.population, want.population, "{label} population");
    assert_eq!(got.strata, want.strata, "{label} strata");
    assert_eq!(got.lost_groups, want.lost_groups, "{label} lost groups");
    assert_eq!(got.lost_pairs, want.lost_pairs, "{label} lost pairs");
}

#[test]
fn stratified_adaptive_runs_are_bit_identical_across_thread_counts() {
    // The estimation subsystem inherits the chunk-order reduction: the
    // whole adaptive run — estimates (floating point included), CI-width
    // trajectory, and the realized sample — is bit-identical at any
    // thread count, and every cell equals its one-cell run.
    let net = net();
    let attackers = net.tiers.non_stubs();
    let dests: Vec<AsId> = net.graph.ases().collect();
    let deps = vec![
        Deployment::empty(net.len()),
        scenario::tier12_step(&net, 3, 5).deployment.clone(),
        scenario::tier12_step(&net, 5, 20).deployment.clone(),
    ];
    let cfg = EstimatorConfig::with_budget(600, 21).with_ci(0.004);
    let policies = SecurityModel::ALL.map(Policy::new);
    let run = |policies: &[Policy], par: Parallelism| {
        stats::estimate_metric_sweep_cells(
            &net,
            &attackers,
            &dests,
            &deps,
            policies,
            AttackStrategy::FakeLink,
            &cfg,
            par,
        )
    };
    let reference = run(&policies, Parallelism::sequential());
    for par in parallelisms() {
        let got = run(&policies, par);
        for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert_runs_bits(g, r, &format!("{} @ {par:?}", policies[i].model));
        }
    }
    for (i, &policy) in policies.iter().enumerate() {
        let solo = run(&[policy], Parallelism(2));
        assert_runs_bits(
            &solo[0],
            &reference[i],
            &format!("{} one-cell", policy.model),
        );
    }
}

#[test]
fn adaptive_stopping_is_monotone_in_the_ci_target() {
    // The round schedule does not depend on the CI target, so a tighter
    // target can only run *more* rounds: its sample must be a superset of
    // every looser target's sample, and the realized sizes must be
    // monotone. The budget is a hard cap regardless of the target.
    let net = net();
    let attackers = net.tiers.non_stubs();
    let dests: Vec<AsId> = net.graph.ases().collect();
    let dep = Deployment::empty(net.len());
    let policy = Policy::new(SecurityModel::Security3rd);
    const BUDGET: u64 = 2_000;
    let run_with = |target: Option<f64>| {
        let mut cfg = EstimatorConfig::with_budget(BUDGET, 77);
        if let Some(t) = target {
            cfg = cfg.with_ci(t);
        }
        stats::estimate_metric_cells(
            &net,
            &attackers,
            &dests,
            &dep,
            &[policy],
            AttackStrategy::FakeLink,
            &cfg,
            Parallelism(2),
        )
        .swap_remove(0)
    };
    // Loosest to tightest; `None` runs to the budget, the floor for all.
    let targets = [Some(0.05), Some(0.02), Some(0.01), Some(0.004), None];
    let runs: Vec<_> = targets.iter().map(|&t| run_with(t)).collect();
    for w in runs.windows(2) {
        let (loose, tight) = (&w[0], &w[1]);
        assert!(loose.sampled.len() <= tight.sampled.len());
        let loose_set: HashSet<(AsId, AsId)> = loose.sampled.iter().copied().collect();
        let tight_set: HashSet<(AsId, AsId)> = tight.sampled.iter().copied().collect();
        assert!(
            loose_set.is_subset(&tight_set),
            "tighter target must sample a superset"
        );
        // Nested samples agree round by round while both ran.
        let shared = loose.rounds.len().min(tight.rounds.len());
        assert_eq!(loose.rounds[..shared], tight.rounds[..shared]);
    }
    for (t, run) in targets.iter().zip(&runs) {
        assert!(
            run.sampled.len() as u64 <= BUDGET,
            "budget overrun at target {t:?}"
        );
        if let Some(t) = t {
            // Stopped early ⇒ the target was actually met.
            if (run.sampled.len() as u64) < BUDGET {
                assert!(run.max_halfwidth() <= *t, "stopped without meeting ±{t}");
            }
        }
    }
    // The loosest target really does stop early on this workload, so the
    // monotonicity above is not vacuous.
    assert!(runs[0].sampled.len() < runs.last().unwrap().sampled.len());
}

#[test]
fn collusion_metric_is_bit_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 6, 13);
    let sets: Vec<Vec<AsId>> = attackers.chunks(2).map(|c| c.to_vec()).collect();
    let dests = sample::sample_all(&net, 6, 14);
    let dep = Deployment::empty(net.len());
    let policy = Policy::new(SecurityModel::Security2nd);
    let reference = strategy::metric_collusion(
        &net,
        &sets,
        &dests,
        &dep,
        policy,
        AttackStrategy::FakeLink,
        Parallelism::sequential(),
    );
    for par in parallelisms() {
        let got = strategy::metric_collusion(
            &net,
            &sets,
            &dests,
            &dep,
            policy,
            AttackStrategy::FakeLink,
            par,
        );
        assert_eq!(got.cells, reference.cells, "{par:?}");
        for (g, r) in [
            (got.colluding, reference.colluding),
            (got.best_single, reference.best_single),
            (got.solo, reference.solo),
        ] {
            assert_eq!(g.lower.to_bits(), r.lower.to_bits(), "{par:?}");
            assert_eq!(g.upper.to_bits(), r.upper.to_bits(), "{par:?}");
        }
    }
}
