//! The `--ci` / `--pairs` estimation mode: the figure drivers re-expressed
//! as stratified estimators with confidence intervals.
//!
//! Where the classic drivers evaluate fixed-size uniform samples, these
//! re-run the same questions through [`crate::stats`]: tier-stratified
//! pair sampling over the *full* `m ≠ d` universe, streaming per-stratum
//! accumulators, and adaptive growth until the requested CI half-width or
//! pair budget is reached. They are additive — nothing here runs unless
//! the caller asked for estimation — so the classic outputs (and their
//! committed goldens) never move. Each driver panics, naming the loss, on
//! a run that lost a destination group to a panic.

use sbgp_core::{AttackStrategy, Deployment, Policy, SecurityModel};
use sbgp_topology::AsId;

use crate::experiments::ExperimentConfig;
use crate::scenario::NamedDeployment;
use crate::stats::{self, AdaptiveRun, EstimatorConfig, LadderEstimate};
use crate::Internet;

/// A rollout estimated with confidence intervals: per model, one
/// [`AdaptiveRun`] whose `estimates[k]` is `H(S_k)` for step `k` of
/// `[∅, steps…]`.
#[derive(Clone, Debug)]
pub struct EstimatedSweep {
    /// What was rolled out.
    pub name: String,
    /// Step labels, `"∅"` first.
    pub step_labels: Vec<String>,
    /// One adaptive run per security model (paper order).
    pub models: Vec<(SecurityModel, AdaptiveRun)>,
}

/// A figure must not silently cover a reduced sample: the in-process
/// estimators isolate a panicking destination group and carry on, so a run
/// that lost any group is refused here, naming the loss.
fn complete(run: AdaptiveRun, what: &str) -> AdaptiveRun {
    assert!(
        run.lost_groups == 0,
        "{what}: {} destination group(s) ({} pairs) were lost to a panic during \
         evaluation; refusing to report an estimate over the reduced sample",
        run.lost_groups,
        run.lost_pairs
    );
    run
}

/// Estimate `H_{M',V}(S_k)` with confidence intervals along a rollout, for
/// every security model. Attackers are the paper's non-stub set `M'`,
/// destinations the whole population; one fused estimator pass serves all
/// three models, and each model's sweep stops when every step's
/// half-width meets the target (or the budget runs out).
pub fn estimated_rollout(
    net: &Internet,
    cfg: &ExperimentConfig,
    est: &EstimatorConfig,
    name: &str,
    steps: &[NamedDeployment],
) -> EstimatedSweep {
    let attackers = net.tiers.non_stubs();
    let dests: Vec<AsId> = net.graph.ases().collect();
    let mut deployments = vec![Deployment::empty(net.len())];
    deployments.extend(steps.iter().map(|s| s.deployment.clone()));
    let mut step_labels = vec!["∅".to_string()];
    step_labels.extend(steps.iter().map(|s| s.label.clone()));
    let policies = SecurityModel::ALL.map(Policy::new);
    let runs = stats::estimate_metric_sweep_cells(
        net,
        &attackers,
        &dests,
        &deployments,
        &policies,
        cfg.strategy,
        est,
        cfg.parallelism,
    );
    let models = SecurityModel::ALL
        .into_iter()
        .zip(runs)
        .map(|(model, run)| (model, complete(run, &format!("{name} rollout, {model}"))))
        .collect();
    EstimatedSweep {
        name: name.to_string(),
        step_labels,
        models,
    }
}

/// Estimate the §4.2 baseline `H_{V,V}(∅)` with a confidence interval
/// (all three models coincide at `S = ∅`).
pub fn estimated_baseline(
    net: &Internet,
    cfg: &ExperimentConfig,
    est: &EstimatorConfig,
) -> AdaptiveRun {
    let pool: Vec<AsId> = net.graph.ases().collect();
    let run = stats::estimate_metric_cells(
        net,
        &pool,
        &pool,
        &Deployment::empty(net.len()),
        &[Policy::new(SecurityModel::Security3rd)],
        cfg.strategy,
        est,
        cfg.parallelism,
    )
    .swap_remove(0);
    complete(run, "baseline")
}

/// Estimate the strategy ladder (per-rung and per-pair-optimal metrics)
/// with confidence intervals over the non-stub attacker universe at
/// `S = ∅`.
pub fn estimated_ladder(
    net: &Internet,
    cfg: &ExperimentConfig,
    est: &EstimatorConfig,
) -> LadderEstimate {
    let attackers = net.tiers.non_stubs();
    let dests: Vec<AsId> = net.graph.ases().collect();
    let mut ladder = stats::estimate_strategy_ladder_cells(
        net,
        &attackers,
        &dests,
        &Deployment::empty(net.len()),
        &[Policy::new(SecurityModel::Security2nd)],
        &AttackStrategy::LADDER,
        est,
        cfg.parallelism,
    )
    .swap_remove(0);
    ladder.run = complete(ladder.run, "strategy ladder");
    ladder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    fn net() -> Internet {
        Internet::synthetic(400, 5)
    }

    #[test]
    fn estimation_flag_round_trips_through_config() {
        let mut cfg = ExperimentConfig::small(1);
        assert!(cfg.estimation().is_none(), "off by default");
        cfg.ci_target = Some(0.01);
        let est = cfg.estimation().unwrap();
        assert_eq!(est.ci_target, Some(0.01));
        assert_eq!(est.budget, crate::experiments::DEFAULT_PAIR_BUDGET as u64);
        cfg.pair_budget = Some(123);
        assert_eq!(cfg.estimation().unwrap().budget, 123);
    }

    #[test]
    fn estimated_rollout_reports_every_step_and_model() {
        let net = net();
        let cfg = ExperimentConfig::small(2);
        let est = EstimatorConfig::with_budget(300, 7);
        let steps = scenario::tier12_rollout(&net);
        let r = estimated_rollout(&net, &cfg, &est, "Tier 1+2", &steps);
        assert_eq!(r.step_labels.len(), steps.len() + 1);
        assert_eq!(r.models.len(), 3);
        for (model, run) in &r.models {
            assert_eq!(run.estimates.len(), steps.len() + 1, "{model}");
            assert_eq!(run.sampled.len(), 300, "{model}");
            // Security 3rd is monotone: more deployment never hurts the
            // estimate by more than the combined CI slack.
            if *model == SecurityModel::Security3rd {
                let slack = 2.0 * run.max_halfwidth();
                for w in run.estimates.windows(2) {
                    assert!(w[1].value.lower >= w[0].value.lower - slack);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "baseline: 2 destination group(s) (9 pairs) were lost")]
    fn a_run_that_lost_groups_is_refused() {
        let run = AdaptiveRun {
            estimates: Vec::new(),
            rounds: Vec::new(),
            sampled: Vec::new(),
            population: 0,
            strata: 0,
            lost_groups: 2,
            lost_pairs: 9,
        };
        complete(run, "baseline");
    }

    #[test]
    fn estimated_baseline_sits_above_half() {
        let net = net();
        let cfg = ExperimentConfig::small(3);
        let est = EstimatorConfig::with_budget(400, 9);
        let run = estimated_baseline(&net, &cfg, &est);
        assert_eq!(run.estimates.len(), 1);
        assert!(run.estimates[0].value.lower > 0.5);
        assert!(run.population >= run.sampled.len() as u64);
    }
}
