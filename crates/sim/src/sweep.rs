//! The pair-sample runners: the metric for a grid of policy cells along a
//! *sequence* of deployments, with **both amortization axes composed**,
//! destination-major. A single policy is a one-cell [`CellSet`]; a single
//! deployment is a one-step sweep.
//!
//! Every destination group is served by the one kernel,
//! [`crate::stats::SweepCellsEval`], which the adaptive estimators and the
//! supervised campaign workers also run. For each claimed destination
//! group a worker iterates `for m (a compute of the first step) → for S_k
//! (per-lane sweep of the remaining steps)`:
//!
//! * each pair's **first step** is one [`sbgp_core::Engine::compute`] per
//!   distinct computation of the cell set (at zero validators the three
//!   models collapse onto one). A contested-region patch off the
//!   destination's normal outcome rarely beats it: measured on the
//!   synthetic 4000-AS graph, a fake-link attack changes ~40% of all ASes
//!   once the downstream flag contamination is counted;
//! * each lane's [`sbgp_core::SweepEngine`] adopts that outcome through
//!   `begin_from`, and the remaining steps ride the deployment axis, whose
//!   dirty regions are tiny (~4% of AS-steps) because the bogus
//!   announcement's spread is *shared* between consecutive steps instead
//!   of being re-patched per step.
//!
//! This ordering keeps the cheaper axis innermost; the transposed
//! `for S_k → for m` order would re-patch the attacker's whole contested
//! region into every step. Sequences may churn in any direction — grow,
//! shrink, or both per step — and still ride the deployment axis
//! incrementally. A step back to the deployment before the last one (each
//! wane step of a wax-and-wane trajectory) is rewound from the entries the
//! engine saved, with no solve at all; only a dirty-region blow-up falls
//! back to a full recomputation, and [`metric_churn`] /
//! [`metric_churn_by_destination`] surface the merged [`SweepStats`]
//! (fallback rate, refixed fraction, step directions, rewound steps) so
//! that cost is observable instead of silent.
//!
//! The pooled runners fold per-pair happy fractions through
//! [`MetricAccumulator`] in (group, attacker) order; the per-destination
//! runner sums integer [`HappyCount`]s, one row per destination, collected
//! in destination order. Both ride [`crate::runner::map_reduce`], so results
//! are bit-identical at any [`Parallelism`], and each cell of an N-cell run
//! is bit-identical to a one-cell run of that cell. Every step equals a
//! fresh per-step evaluation, bit for bit (the sweep- and
//! delta-equivalence property suites enforce the per-outcome version of
//! this claim).

use sbgp_core::metric::MetricAccumulator;
use sbgp_core::{AttackStrategy, Bounds, CellSet, Deployment, HappyCount, Policy, SweepStats};
use sbgp_topology::AsId;

use crate::runner::{map_reduce, Parallelism};
use crate::stats::{CellEval, SweepCellsEval, SweepWorker};
use crate::{sample, Internet};

/// Serve destination `d` against `attackers` (self-attacks skipped, as the
/// paper's metric excludes them), reporting raw `(cell, step, counts)` to
/// `emit`. Returns the lane sweep engines' counter deltas.
fn serve_group<'a>(
    eval: &SweepCellsEval<'a>,
    w: &mut SweepWorker<'a>,
    d: AsId,
    attackers: &[AsId],
    mut emit: impl FnMut(usize, usize, (usize, usize)),
) -> SweepStats {
    let before = SweepCellsEval::sweep_stats(w);
    eval.begin(w, d);
    for &m in attackers {
        if m != d {
            eval.serve_pair(w, m, d, &mut emit);
        }
    }
    SweepCellsEval::sweep_stats(w).delta_since(&before)
}

/// The pooled accumulators behind every pair-sample runner: `acc[c][k]`
/// folds input cell `c` under `deployments[k]` over `pairs`, plus the merged
/// sweep statistics.
pub(crate) fn pooled(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployments: &[Deployment],
    cells: &CellSet,
    par: Parallelism,
) -> (Vec<Vec<MetricAccumulator>>, SweepStats) {
    let eval = SweepCellsEval::from_cells(net, deployments, cells.clone());
    let groups = sample::group_by_destination(pairs);
    let sources = net.graph.len() - 2;
    map_reduce(
        par,
        &groups,
        1,
        || eval.make_worker(),
        || {
            (
                vec![vec![MetricAccumulator::default(); deployments.len()]; cells.input_len()],
                SweepStats::default(),
            )
        },
        |w, (acc, stats), (d, attackers)| {
            let s = serve_group(&eval, w, *d, attackers, |c, k, (lower, upper)| {
                acc[c][k].add(HappyCount {
                    lower,
                    upper,
                    sources,
                });
            });
            stats.merge(&s);
        },
        |(a, s), (b, t)| {
            for (xs, ys) in a.iter_mut().zip(b) {
                for (x, y) in xs.iter_mut().zip(ys) {
                    x.merge(y);
                }
            }
            s.merge(&t);
        },
    )
}

/// The metric `H_{M,D}(S_k)` for **every policy cell** of a [`CellSet`]
/// along a deployment sequence, over explicit pairs: `result[i][k]` is
/// input cell `i` under `deployments[k]` (duplicate spellings report their
/// shared lane's value). Each pair's first step runs once per distinct
/// computation (all cells of one strategy share it at validator-free
/// steps), and each *lane* then rides its own sweep engine along the
/// remaining steps.
///
/// Each cell's row is bit-identical to a one-cell run of that cell: every
/// cell's outcomes are exact, and its accumulators fold the same fractions
/// in the same (group, attacker, step) order.
pub fn metric_sweep_cells(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployments: &[Deployment],
    cells: &CellSet,
    par: Parallelism,
) -> Vec<Vec<Bounds>> {
    pooled(net, pairs, deployments, cells, par)
        .0
        .into_iter()
        .map(|row| row.into_iter().map(|a| a.value()).collect())
        .collect()
}

/// The one-cell [`metric_sweep_cells`] over a **churn trajectory** —
/// deployments that grow, shrink, or flip members in both directions
/// between steps — returning the per-step metric *and* the merged
/// [`SweepStats`] of every worker engine, so fallback rate and refixed
/// fraction are observable per run.
///
/// The stats are sums of per-destination-group counter deltas, so they too
/// are identical at any [`Parallelism`] and chunk order.
pub fn metric_churn(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployments: &[Deployment],
    policy: Policy,
    strategy: AttackStrategy,
    par: Parallelism,
) -> (Vec<Bounds>, SweepStats) {
    let cells = CellSet::per_policy(&[policy], strategy);
    let (mut accs, stats) = pooled(net, pairs, deployments, &cells, par);
    let row = accs.swap_remove(0);
    (row.into_iter().map(|a| a.value()).collect(), stats)
}

/// Per-destination happy counts (summed over the attackers) for every
/// deployment of a sequence, plus the merged [`SweepStats`]:
/// `counts[k][i]` is destination `destinations[i]` under `deployments[k]`
/// (the per-destination series of Figures 7(b), 9, 10 and 12).
///
/// Each destination is one work item that emits one row; rows are
/// collected in destination order. Counts are exact integer sums and the
/// stats sums of per-destination counter deltas, so both are identical at
/// any [`Parallelism`].
pub fn metric_churn_by_destination(
    net: &Internet,
    attackers: &[AsId],
    destinations: &[AsId],
    deployments: &[Deployment],
    policy: Policy,
    strategy: AttackStrategy,
    par: Parallelism,
) -> (Vec<Vec<HappyCount>>, SweepStats) {
    let eval =
        SweepCellsEval::from_cells(net, deployments, CellSet::per_policy(&[policy], strategy));
    let sources = net.graph.len() - 2;
    let rows = map_reduce(
        par,
        destinations,
        1,
        || eval.make_worker(),
        Vec::new,
        |w, rows, &d| {
            let mut row = vec![HappyCount::default(); deployments.len()];
            let stats = serve_group(&eval, w, d, attackers, |_, k, (lower, upper)| {
                row[k] += HappyCount {
                    lower,
                    upper,
                    sources,
                };
            });
            rows.push((row, stats));
        },
        |a, b| a.extend(b),
    );
    let mut counts = vec![Vec::with_capacity(destinations.len()); deployments.len()];
    let mut stats = SweepStats::default();
    for (row, s) in rows {
        for (k, c) in row.into_iter().enumerate() {
            counts[k].push(c);
        }
        stats.merge(&s);
    }
    (counts, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{runner, sample, scenario};
    use sbgp_core::SecurityModel;

    fn net() -> Internet {
        Internet::synthetic(600, 5)
    }

    /// A small monotone sweep: ∅ plus two growing Tier 1+2 steps.
    fn deployments(net: &Internet) -> Vec<Deployment> {
        let mut deps = vec![Deployment::empty(net.len())];
        deps.push(scenario::tier12_step(net, 3, 5).deployment);
        deps.push(scenario::tier12_step(net, 3, 20).deployment);
        deps
    }

    /// One cell's swept metric.
    fn one_cell(
        net: &Internet,
        pairs: &[(AsId, AsId)],
        deps: &[Deployment],
        policy: Policy,
        strategy: AttackStrategy,
    ) -> Vec<Bounds> {
        let cells = CellSet::per_policy(&[policy], strategy);
        metric_sweep_cells(net, pairs, deps, &cells, Parallelism(2)).swap_remove(0)
    }

    #[test]
    fn sweep_metric_equals_per_step_metric() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 4, 1);
        let dests = sample::sample_all(&net, 6, 2);
        let pairs = sample::pairs(&attackers, &dests);
        let deps = deployments(&net);
        let policies = SecurityModel::ALL.map(Policy::new);
        let cells = CellSet::per_policy(&policies, AttackStrategy::FakeLink);
        let swept = metric_sweep_cells(&net, &pairs, &deps, &cells, Parallelism(2));
        assert_eq!(swept.len(), policies.len());
        for (row, policy) in swept.iter().zip(policies) {
            assert_eq!(row.len(), deps.len());
            for (k, dep) in deps.iter().enumerate() {
                // Bit-identical, not approximately equal: both paths add
                // the same per-pair fractions in the same (group, attacker)
                // order, whatever serves the outcomes.
                let fresh = runner::metric(&net, &pairs, dep, policy, Parallelism(2));
                assert_eq!(row[k], fresh, "{} step {k}", policy.model);
            }
        }
    }

    #[test]
    fn sweep_by_destination_equals_per_step_runs() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 3, 7);
        let dests = sample::sample_all(&net, 5, 8);
        let deps = deployments(&net);
        let policy = Policy::new(SecurityModel::Security2nd);
        let by_dest = |deps: &[Deployment]| {
            metric_churn_by_destination(
                &net,
                &attackers,
                &dests,
                deps,
                policy,
                AttackStrategy::FakeLink,
                Parallelism(2),
            )
            .0
        };
        let swept = by_dest(&deps);
        assert_eq!(swept.len(), deps.len());
        for (k, dep) in deps.iter().enumerate() {
            let fresh = by_dest(std::slice::from_ref(dep));
            assert_eq!(swept[k], fresh[0], "step {k}");
        }
    }

    #[test]
    fn sweep_honors_the_attack_strategy() {
        // A k-hop forged path changes the swept metric versus the fake
        // link (longer claimed paths attract less), and the swept result
        // still matches the per-step runner under the same strategy.
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 3, 5);
        let dests = sample::sample_all(&net, 4, 6);
        let pairs = sample::pairs(&attackers, &dests);
        let deps = deployments(&net);
        let policy = Policy::new(SecurityModel::Security3rd);
        let forged = AttackStrategy::FakePath { hops: 3 };
        let swept = one_cell(&net, &pairs, &deps, policy, forged);
        for (k, dep) in deps.iter().enumerate() {
            let fresh = one_cell(&net, &pairs, std::slice::from_ref(dep), policy, forged);
            assert_eq!(swept[k], fresh[0], "step {k}");
        }
        let fake_link = one_cell(&net, &pairs, &deps, policy, AttackStrategy::FakeLink);
        assert!(
            swept[0].lower >= fake_link[0].lower - 1e-12,
            "a 3-hop forged path cannot attract more than the fake link: \
             {:?} vs {:?}",
            swept[0],
            fake_link[0]
        );
    }

    #[test]
    fn churn_metric_equals_per_step_metric_and_reports_stats() {
        // A wax-and-wane trajectory: the wane half retraces the wax, so the
        // merged stats must show every wane step rewound, except those whose
        // destination signs at neither end (no-ops). A wane that retires
        // ISPs in join order retraces nothing, so its steps must be served
        // as retractions.
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 3, 11);
        let dests = sample::sample_all(&net, 4, 12);
        let pairs = sample::pairs(&attackers, &dests);
        let traj = scenario::churn_trajectory(&net, 3);
        assert_eq!(traj.len(), 5);
        let policy = Policy::new(SecurityModel::Security2nd);
        let churn = |traj: &[Deployment]| {
            let (churned, stats) = metric_churn(
                &net,
                &pairs,
                traj,
                policy,
                AttackStrategy::FakeLink,
                Parallelism(2),
            );
            for (k, dep) in traj.iter().enumerate() {
                let fresh = runner::metric(&net, &pairs, dep, policy, Parallelism(2));
                assert_eq!(churned[k], fresh, "step {k}");
            }
            assert_eq!(
                stats.monotone_steps + stats.retracting_steps + stats.mixed_steps,
                stats.incremental_steps,
                "{stats:?}"
            );
            assert!(stats.fallback_rate() < 1.0, "{stats:?}");
            assert!(stats.refixed_fraction(net.len()) <= 1.0, "{stats:?}");
            (churned, stats)
        };
        let (churned, stats) = churn(&traj);
        // Wax-and-wane symmetry: step k and its mirror see the same S.
        assert_eq!(churned[0], churned[4]);
        assert_eq!(churned[1], churned[3]);
        let served: Vec<AsId> = pairs.iter().filter(|(m, d)| m != d).map(|p| p.1).collect();
        let inert_wane: usize = served
            .iter()
            .map(|&d| {
                (3..5)
                    .filter(|&k| !traj[k - 1].signs_origin(d) && !traj[k].signs_origin(d))
                    .count()
            })
            .sum();
        assert_eq!(
            stats.rewound_steps + inert_wane,
            2 * served.len(),
            "{stats:?}"
        );
        assert!(stats.monotone_steps > 0, "{stats:?}");
        let (_, stats) = churn(&scenario::retiring_churn_trajectory(&net, 3));
        assert!(stats.retracting_steps > 0, "{stats:?}");
        assert_eq!(stats.rewound_steps, 0, "{stats:?}");
    }

    #[test]
    fn churn_stats_are_parallelism_invariant() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 3, 21);
        let dests = sample::sample_all(&net, 5, 22);
        let pairs = sample::pairs(&attackers, &dests);
        let traj = scenario::churn_trajectory(&net, 2);
        let policy = Policy::new(SecurityModel::Security3rd);
        let runs: Vec<_> = [Parallelism(1), Parallelism(2), Parallelism::auto()]
            .into_iter()
            .map(|par| metric_churn(&net, &pairs, &traj, policy, AttackStrategy::FakeLink, par))
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        let (counts, stats) = metric_churn_by_destination(
            &net,
            &attackers,
            &dests,
            &traj,
            policy,
            AttackStrategy::FakeLink,
            Parallelism(2),
        );
        let (counts1, stats1) = metric_churn_by_destination(
            &net,
            &attackers,
            &dests,
            &traj,
            policy,
            AttackStrategy::FakeLink,
            Parallelism(1),
        );
        assert_eq!(counts, counts1);
        assert_eq!(stats, stats1);
    }

    #[test]
    fn sweep_handles_empty_and_singleton_sequences() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 2, 3);
        let dests = sample::sample_all(&net, 3, 4);
        let pairs = sample::pairs(&attackers, &dests);
        let policy = Policy::new(SecurityModel::Security3rd);
        let fake_link = AttackStrategy::FakeLink;
        assert!(one_cell(&net, &pairs, &[], policy, fake_link).is_empty());
        let (empty, stats) = metric_churn(&net, &pairs, &[], policy, fake_link, Parallelism(1));
        assert!(empty.is_empty());
        assert_eq!(stats, SweepStats::default());
        let single = vec![Deployment::empty(net.len())];
        let swept = one_cell(&net, &pairs, &single, policy, fake_link);
        let fresh = runner::metric(&net, &pairs, &single[0], policy, Parallelism(1));
        assert_eq!(swept, vec![fresh]);
    }
}
