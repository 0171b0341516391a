//! Figures 9, 10 and 12: per-destination improvement sequences.
//!
//! For a fixed deployment `S`, the paper plots — for every secure
//! destination `d ∈ S` — the improvement `H_{M',d}(S) − H_{M',d}(∅)` as a
//! sorted sequence, one curve per security model. The shape of those
//! curves carries the section's conclusions: security 1st protects nearly
//! every secure destination outright, while under security 2nd/3rd a large
//! mass of destinations (Tier 1s in particular) sees almost nothing.

use sbgp_core::{Bounds, Deployment, Policy, SecurityModel};
use sbgp_topology::AsId;

use crate::experiments::ExperimentConfig;
use crate::scenario::{self, NamedDeployment};
use crate::{sample, sweep, Internet};

/// One model's sorted per-destination series.
#[derive(Clone, Debug)]
pub struct DestinationSeries {
    /// The model.
    pub model: SecurityModel,
    /// `(destination, ΔH bounds)`, sorted by ascending lower bound.
    pub deltas: Vec<(AsId, Bounds)>,
    /// Average *absolute* metric `H_{M',d}(S)` over the destinations
    /// (§5.2.3 reports 96.8–97.9% for security 1st).
    pub average_metric: Bounds,
}

impl DestinationSeries {
    /// Interpolated percentile of the lower-bound curve (`p ∈ [0, 1]`).
    pub fn percentile_lower(&self, p: f64) -> f64 {
        if self.deltas.is_empty() {
            return 0.0;
        }
        let idx = ((self.deltas.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        self.deltas[idx].1.lower
    }

    /// Fraction of destinations whose lower-bound improvement is below `x`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        let n = self.deltas.iter().filter(|(_, b)| b.lower < x).count();
        n as f64 / self.deltas.len().max(1) as f64
    }
}

/// The full per-destination experiment for one deployment.
#[derive(Clone, Debug)]
pub struct PerDestinationResult {
    /// Deployment label.
    pub label: String,
    /// Destinations evaluated (sampled from `S`).
    pub destinations: usize,
    /// One series per model, paper order.
    pub series: Vec<DestinationSeries>,
}

/// Evaluate the sorted per-destination series for `step`. Each
/// `(m, d, model)` triple is one `[∅, S]` sweep: one compute of the `∅`
/// baseline (identical for every model: no secure routes exist), then one
/// incremental sweep advance to `S`.
pub fn per_destination(
    net: &Internet,
    cfg: &ExperimentConfig,
    step: &NamedDeployment,
) -> PerDestinationResult {
    let attackers = sample::sample_non_stubs(net, cfg.attackers, cfg.seed);
    let dests = sample::sample_from(
        &scenario::secure_destinations(step),
        cfg.destinations,
        cfg.seed ^ 0x9e5,
    );
    let deps = vec![Deployment::empty(net.len()), step.deployment.clone()];

    let mut series = Vec::with_capacity(3);
    for model in SecurityModel::ALL {
        let (counts, _) = sweep::metric_churn_by_destination(
            net,
            &attackers,
            &dests,
            &deps,
            Policy::new(model),
            cfg.strategy,
            cfg.parallelism,
        );
        let (baseline, with) = (&counts[0], &counts[1]);
        let mut deltas: Vec<(AsId, Bounds)> = Vec::with_capacity(dests.len());
        let mut avg = Bounds::default();
        let mut n = 0usize;
        for ((&d, w), b) in dests.iter().zip(with).zip(baseline) {
            if w.sources == 0 {
                continue;
            }
            let wf = w.fraction();
            deltas.push((d, wf.minus(b.fraction())));
            avg.lower += wf.lower;
            avg.upper += wf.upper;
            n += 1;
        }
        avg.lower /= n.max(1) as f64;
        avg.upper /= n.max(1) as f64;
        deltas.sort_by(|a, b| a.1.lower.total_cmp(&b.1.lower));
        series.push(DestinationSeries {
            model,
            deltas,
            average_metric: avg,
        });
    }
    PerDestinationResult {
        label: step.label.clone(),
        destinations: dests.len(),
        series,
    }
}

/// Figure 9: per-destination series at the last Tier 1+2 rollout step.
pub fn figure9(net: &Internet, cfg: &ExperimentConfig) -> PerDestinationResult {
    let step = scenario::tier12_step(net, 13, 100);
    per_destination(net, cfg, &step)
}

/// Figure 10: per-destination series with all Tier 2s (and stubs) secure.
pub fn figure10(net: &Internet, cfg: &ExperimentConfig) -> PerDestinationResult {
    let steps = scenario::tier2_rollout(net);
    per_destination(net, cfg, steps.last().expect("rollout steps"))
}

/// Figure 12: per-destination series with every non-stub secure.
pub fn figure12(net: &Internet, cfg: &ExperimentConfig) -> PerDestinationResult {
    let step = scenario::all_non_stubs(net);
    per_destination(net, cfg, &step)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_sec1_protects_secure_destinations() {
        let net = Internet::synthetic(1_200, 29);
        let r = figure9(&net, &ExperimentConfig::small(4));
        assert_eq!(r.series.len(), 3);
        let sec1 = &r.series[0];
        assert_eq!(sec1.model, SecurityModel::Security1st);
        // §5.2.3: under security 1st, secure destinations get excellent
        // absolute protection (paper: 96.8–97.9%; our synthetic graph
        // should be comfortably above the baseline).
        assert!(
            sec1.average_metric.upper > 0.85,
            "sec1 average {:?}",
            sec1.average_metric
        );
        let sec3 = &r.series[2];
        assert!(
            sec1.average_metric.upper >= sec3.average_metric.upper - 1e-9,
            "sec1 {:?} < sec3 {:?}",
            sec1.average_metric,
            sec3.average_metric
        );
        // Series are sorted.
        for s in &r.series {
            for w in s.deltas.windows(2) {
                assert!(w[0].1.lower <= w[1].1.lower + 1e-12);
            }
        }
    }

    #[test]
    fn percentile_helpers() {
        let net = Internet::synthetic(900, 31);
        let r = figure12(&net, &ExperimentConfig::small(5));
        let s = &r.series[2];
        assert!(s.percentile_lower(0.0) <= s.percentile_lower(1.0) + 1e-12);
        let f = s.fraction_below(f64::INFINITY);
        assert!((f - 1.0).abs() < 1e-12);
    }
}
