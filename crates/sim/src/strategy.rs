//! Strategic attackers: per-pair optimal-strategy ladders and colluding
//! announcer sets.
//!
//! The paper fixes the attacker's announcement to the one-hop `"m, d"`
//! fake link, but inherits from Goldberg et al.'s taxonomy (\[22\]) that
//! this is neither the only nor always the optimal strategy. The runners
//! here quantify that choice on the same metric:
//!
//! * [`metric_strategy_ladder`] — for every `(m, d)` pair, evaluate a
//!   ladder of strategies (by default [`AttackStrategy::LADDER`]: forged
//!   paths of claimed distance 0..=3) and report, besides each rung's
//!   average metric, the metric under the **per-pair damage-maximizing
//!   choice** — the strategy a strategic attacker would actually pick —
//!   and how often each rung wins.
//! * [`metric_collusion`] — for small sets of colluding announcers,
//!   compare the metric under simultaneous announcement against the
//!   strongest single member, exposing the *collusion dividend*.
//!
//! Both run destination-major and reduce in chunk order, so results are
//! bit-identical at any thread count. The ladder rides the ladder
//! estimator's kernel, [`crate::stats::LadderCellsEval`]: the rungs form a
//! [`sbgp_core::CellSet`] deduped through [`AttackStrategy::canonical`]
//! (so the `path1`/fake-link and `path0`/hijack spellings can never run
//! the same cell twice), each pair runs one compute per distinct rung, and
//! duplicate rungs report their shared lane's value — with ties still
//! going to the earlier input rung, win attribution is unchanged.
//! [`metric_collusion`] keeps a plain [`AttackDeltaEngine`] (one cell per
//! call), whose base every set and member of a destination shares.

use sbgp_core::metric::MetricAccumulator;
use sbgp_core::{AttackDeltaEngine, AttackStrategy, Bounds, Deployment, HappyCount, Policy};
use sbgp_topology::AsId;

use crate::runner::{map_reduce, Parallelism};
use crate::stats::{CellEval, LadderCellsEval};
use crate::{sample, Internet};

/// Ladder evaluation over a pair sample (see [`metric_strategy_ladder`]).
#[derive(Clone, Debug)]
pub struct LadderResult {
    /// The evaluated rungs, in ladder order.
    pub rungs: Vec<AttackStrategy>,
    /// `H_{M,D}(S)` with every attacker fixed to the corresponding rung.
    pub per_rung: Vec<Bounds>,
    /// `H_{M,D}(S)` when every pair uses its damage-maximizing rung: the
    /// happy-count-minimizing strategy, compared lexicographically on
    /// `(lower, upper)` with ties going to the earlier (shorter) rung.
    pub optimal: Bounds,
    /// How many pairs each rung won under that rule (sums to `pairs`).
    pub wins: Vec<usize>,
    /// Pairs evaluated.
    pub pairs: usize,
}

/// Per-chunk ladder accumulator (merged in chunk order).
struct LadderAcc {
    per_rung: Vec<MetricAccumulator>,
    optimal: MetricAccumulator,
    wins: Vec<usize>,
}

/// Evaluate `rungs` for every `(m, d)` pair under one deployment: the
/// per-rung metrics, the per-pair optimal metric, and the win counts.
///
/// # Panics
///
/// Panics when `rungs` is empty.
pub fn metric_strategy_ladder(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployment: &Deployment,
    policy: Policy,
    rungs: &[AttackStrategy],
    par: Parallelism,
) -> LadderResult {
    assert!(
        !rungs.is_empty(),
        "the strategy ladder needs at least one rung"
    );
    // Input cell r of the one-policy grid is exactly rung r; canonical
    // dedup makes duplicate spellings share a lane (evaluated once,
    // reported per input rung).
    let eval = LadderCellsEval::new(net, deployment, &[policy], rungs);
    let groups = sample::group_by_destination(pairs);
    let (nr, sources) = (rungs.len(), net.graph.len() - 2);
    let acc = map_reduce(
        par,
        &groups,
        1,
        || eval.make_worker(),
        || LadderAcc {
            per_rung: vec![MetricAccumulator::default(); nr],
            optimal: MetricAccumulator::default(),
            wins: vec![0; nr],
        },
        |w, acc, (d, attackers)| {
            eval.begin(w, *d);
            for &m in attackers.iter().filter(|&m| m != d) {
                // Ties go to the earlier (shorter) rung.
                let mut best = ((usize::MAX, usize::MAX), 0);
                eval.serve_pair(w, m, *d, &mut |_, r, (lower, upper)| {
                    let count = HappyCount {
                        lower,
                        upper,
                        sources,
                    };
                    if r == nr {
                        acc.optimal.add(count);
                    } else {
                        acc.per_rung[r].add(count);
                        best = best.min(((lower, upper), r));
                    }
                });
                acc.wins[best.1] += 1;
            }
        },
        |a, b| {
            for (x, y) in a.per_rung.iter_mut().zip(b.per_rung) {
                x.merge(y);
            }
            a.optimal.merge(b.optimal);
            for (x, y) in a.wins.iter_mut().zip(b.wins) {
                *x += y;
            }
        },
    );
    LadderResult {
        rungs: rungs.to_vec(),
        per_rung: acc.per_rung.iter().map(|a| a.value()).collect(),
        optimal: acc.optimal.value(),
        wins: acc.wins,
        pairs: acc.optimal.pairs(),
    }
}

/// Collusion evaluation over announcer sets (see [`metric_collusion`]).
#[derive(Clone, Copy, Debug)]
pub struct CollusionResult {
    /// `(set, d)` cells evaluated. A cell is skipped when fewer than two
    /// distinct members survive after deduplication and removing the
    /// destination, so every counted cell is genuinely colluding.
    pub cells: usize,
    /// Average happy fraction with the whole set announcing at once
    /// (per the set-aware counting rule, sources = `n − 1 − |set|`).
    pub colluding: Bounds,
    /// Average happy fraction under each cell's strongest single member
    /// (the damage-maximizing solo choice; sources = `n − 2`).
    pub best_single: Bounds,
    /// Average happy fraction over *all* single-member attacks.
    pub solo: Bounds,
}

/// Compare colluding announcer `sets` against their members attacking
/// alone, averaged over `destinations`, with every announcement using
/// `strategy`.
pub fn metric_collusion(
    net: &Internet,
    sets: &[Vec<AsId>],
    destinations: &[AsId],
    deployment: &Deployment,
    policy: Policy,
    strategy: AttackStrategy,
    par: Parallelism,
) -> CollusionResult {
    let n = net.graph.len();
    let acc = map_reduce(
        par,
        destinations,
        1,
        || AttackDeltaEngine::new(&net.graph),
        || {
            (
                MetricAccumulator::default(), // colluding
                MetricAccumulator::default(), // best single
                MetricAccumulator::default(), // all solos
            )
        },
        |delta, acc, &d| {
            delta.begin(d, deployment, policy);
            for set in sets {
                let members = sbgp_core::AttackScenario::filter_announcers(set, d);
                if members.len() < 2 {
                    continue;
                }
                let mut best = (usize::MAX, usize::MAX);
                for &m in &members {
                    delta.attack(m, strategy);
                    let (lower, upper) = delta.count_happy();
                    acc.2.add(HappyCount {
                        lower,
                        upper,
                        sources: n - 2,
                    });
                    best = best.min((lower, upper));
                }
                acc.1.add(HappyCount {
                    lower: best.0,
                    upper: best.1,
                    sources: n - 2,
                });
                delta.attack_set(&members, strategy);
                let (lower, upper) = delta.count_happy();
                acc.0.add(HappyCount {
                    lower,
                    upper,
                    sources: n - 1 - members.len(),
                });
            }
        },
        |a, b| {
            a.0.merge(b.0);
            a.1.merge(b.1);
            a.2.merge(b.2);
        },
    );
    CollusionResult {
        cells: acc.0.pairs(),
        colluding: acc.0.value(),
        best_single: acc.1.value(),
        solo: acc.2.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgp_core::{Engine, SecurityModel};

    fn net() -> Internet {
        Internet::synthetic(600, 5)
    }

    #[test]
    fn ladder_optimal_dominates_every_rung() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 4, 1);
        let dests = sample::sample_all(&net, 6, 2);
        let pairs = sample::pairs(&attackers, &dests);
        let dep = Deployment::empty(net.len());
        for model in SecurityModel::ALL {
            let r = metric_strategy_ladder(
                &net,
                &pairs,
                &dep,
                Policy::new(model),
                &AttackStrategy::LADDER,
                Parallelism(2),
            );
            assert_eq!(r.pairs, pairs.len());
            assert_eq!(r.wins.iter().sum::<usize>(), r.pairs, "{model}");
            // The optimal choice is at least as damaging as every fixed
            // rung (it minimizes happy counts pair by pair).
            for (k, rung) in r.per_rung.iter().enumerate() {
                assert!(
                    r.optimal.lower <= rung.lower + 1e-12,
                    "{model} rung {k}: optimal {:?} vs {:?}",
                    r.optimal,
                    rung
                );
            }
        }
    }

    #[test]
    fn ladder_rung_matches_fixed_strategy_runner() {
        // Each rung's column is exactly the fixed-strategy metric.
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 3, 3);
        let dests = sample::sample_all(&net, 5, 4);
        let pairs = sample::pairs(&attackers, &dests);
        let dep = Deployment::empty(net.len());
        let policy = Policy::new(SecurityModel::Security3rd);
        let r = metric_strategy_ladder(
            &net,
            &pairs,
            &dep,
            policy,
            &AttackStrategy::LADDER,
            Parallelism(2),
        );
        for (k, &rung) in r.rungs.iter().enumerate() {
            let fixed = crate::sweep::metric_sweep_cells(
                &net,
                &pairs,
                std::slice::from_ref(&dep),
                &sbgp_core::CellSet::per_policy(&[policy], rung),
                Parallelism(2),
            );
            assert_eq!(r.per_rung[k], fixed[0][0], "rung {k}");
        }
    }

    #[test]
    fn collusion_is_at_least_as_damaging_per_cell() {
        // Verify the colluding outcome against fresh computes on a few
        // cells, and the aggregate shape of the result.
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 4, 7);
        let sets: Vec<Vec<AsId>> = attackers.chunks(2).map(|c| c.to_vec()).collect();
        let dests = sample::sample_all(&net, 4, 8);
        let dep = Deployment::empty(net.len());
        let policy = Policy::new(SecurityModel::Security3rd);
        let r = metric_collusion(
            &net,
            &sets,
            &dests,
            &dep,
            policy,
            AttackStrategy::FakeLink,
            Parallelism(2),
        );
        assert!(r.cells > 0);
        assert!(r.best_single.lower <= r.solo.lower + 1e-12, "min ≤ mean");
        // Spot-check one cell against the engine directly.
        let d = dests[0];
        let members: Vec<AsId> = sets[0].iter().copied().filter(|&m| m != d).collect();
        if members.len() == 2 {
            let mut engine = Engine::new(&net.graph);
            let scenario = sbgp_core::AttackScenario::colluding(&members, d);
            let want = engine.compute(scenario, &dep, policy).count_happy();
            let mut delta = AttackDeltaEngine::new(&net.graph);
            delta.begin(d, &dep, policy);
            delta.attack_set(&members, AttackStrategy::FakeLink);
            assert_eq!(delta.count_happy(), want);
        }
    }
}
