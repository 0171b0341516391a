//! The §5 deployment scenarios.
//!
//! All rollouts follow Gill et al.'s bootstrap model: securing an ISP also
//! secures its stub customers (the ISP deploys on their behalf, or they run
//! simplex S\*BGP). A *stub* here is a customer with no customers of its
//! own; the 17 content providers are never counted as stubs (the paper
//! treats them as a separate class).

use sbgp_core::Deployment;
use sbgp_topology::{AsId, AsSet};

use crate::Internet;

/// A named deployment, as used in rollout tables.
#[derive(Clone, Debug)]
pub struct NamedDeployment {
    /// Human-readable label ("13 T1 + 37 T2 + stubs").
    pub label: String,
    /// Number of non-stub, non-CP ASes in `S` (the paper's x-axis).
    pub non_stub_count: usize,
    /// The deployment.
    pub deployment: Deployment,
}

/// The stub customers of `isps`: customers with no customers of their own,
/// excluding content providers.
pub fn stubs_of(net: &Internet, isps: &[AsId]) -> Vec<AsId> {
    let mut seen = AsSet::new(net.len());
    let mut out = Vec::new();
    for &isp in isps {
        for &c in net.graph.customers(isp) {
            if net.graph.customer_degree(c) == 0
                && !net.content_providers.contains(&c)
                && seen.insert(c)
            {
                out.push(c);
            }
        }
    }
    out
}

/// Secure a set of ISPs together with all their stub customers.
pub fn isps_and_stubs(net: &Internet, isps: &[AsId]) -> Deployment {
    let mut dep = Deployment::empty(net.len());
    for &isp in isps {
        dep.insert_full(isp);
    }
    for stub in stubs_of(net, isps) {
        dep.insert_full(stub);
    }
    dep
}

/// The sweep-benchmark / campaign rollout workload: a monotone rollout of
/// `steps` deployments growing toward `min(100, |Tier 2|)` Tier 2 ISPs
/// (plus their stubs) in customer-degree order. Deterministic in the
/// topology alone, so a supervised campaign worker can rebuild the exact
/// deployments of the coordinator's grid from `(graph, steps)`.
pub fn sweep_rollout_steps(net: &Internet, steps: usize) -> Vec<Deployment> {
    let t2 = net.tiers.tier2();
    let target = t2.len().clamp(1, 100);
    (1..=steps)
        .map(|i| {
            let y = ((target * i).div_ceil(steps)).max(1);
            let isps: Vec<AsId> = t2.iter().take(y).copied().collect();
            isps_and_stubs(net, &isps)
        })
        .collect()
}

/// A wax-and-wane RPKI churn trajectory: the [`sweep_rollout_steps`]
/// ladder climbed to its peak and then descended back down, modeling
/// coverage that grows and then erodes (expiring ROAs, validators turned
/// off after incidents). `2 * peak - 1` steps; the wane half retraces the
/// wax half in reverse, so every adjacent pair past the peak is a pure
/// retraction back to a deployment the sweep already served, which
/// [`sbgp_core::SweepEngine`] rewinds instead of re-solving.
/// Deterministic from the topology, like the rollout it mirrors.
pub fn churn_trajectory(net: &Internet, peak: usize) -> Vec<Deployment> {
    let wax = sweep_rollout_steps(net, peak);
    let mut steps = wax.clone();
    steps.extend(wax.into_iter().rev().skip(1));
    steps
}

/// [`churn_trajectory`] with a wane that never retraces the wax: it retires
/// the ISPs that joined after the first rung (with their stubs) in the
/// order they joined, down to the first rung again, so a sweep serves its
/// wane as real retractions instead of rewinding. The integration tests'
/// support module has the same helper.
#[cfg(test)]
pub(crate) fn retiring_churn_trajectory(net: &Internet, peak: usize) -> Vec<Deployment> {
    let mut steps = sweep_rollout_steps(net, peak);
    let t2 = net.tiers.tier2();
    // The ISPs of a rung are a prefix of the Tier 2 list.
    let rungs: Vec<usize> = steps
        .iter()
        .map(|s| t2.iter().take_while(|&&v| s.validates(v)).count())
        .collect();
    let (first, top) = (rungs[0], rungs[peak - 1]);
    for &retired in &rungs[1..] {
        let isps = [&t2[..first], &t2[retired..top]].concat();
        steps.push(isps_and_stubs(net, &isps));
    }
    steps
}

/// The §5.2.1 Tier 1 + Tier 2 rollout: secure `x` Tier 1s and `y` Tier 2s
/// (both by descending customer degree) plus all their stubs.
pub fn tier12_step(net: &Internet, x: usize, y: usize) -> NamedDeployment {
    let mut isps: Vec<AsId> = net.tiers.tier1().iter().take(x).copied().collect();
    isps.extend(net.tiers.tier2().iter().take(y).copied());
    NamedDeployment {
        label: format!("{x} T1 + {y} T2 + stubs"),
        non_stub_count: isps.len(),
        deployment: isps_and_stubs(net, &isps),
    }
}

/// The full Tier 1+2 rollout of §5.2.1:
/// `(X, Y) ∈ {(13,13), (13,37), (13,100)}`.
pub fn tier12_rollout(net: &Internet) -> Vec<NamedDeployment> {
    [(13, 13), (13, 37), (13, 100)]
        .into_iter()
        .map(|(x, y)| tier12_step(net, x, y))
        .collect()
}

/// §5.2.2: the Tier 1+2 rollout with all 17 content providers also secure.
pub fn tier12_cp_rollout(net: &Internet) -> Vec<NamedDeployment> {
    tier12_rollout(net)
        .into_iter()
        .map(|mut step| {
            for &cp in &net.content_providers {
                step.deployment.insert_full(cp);
            }
            step.label.push_str(" + CPs");
            step
        })
        .collect()
}

/// §5.2.4: the Tier-2-only rollout, `Y ∈ {13, 26, 50, 100}`.
pub fn tier2_rollout(net: &Internet) -> Vec<NamedDeployment> {
    [13usize, 26, 50, 100]
        .into_iter()
        .map(|y| {
            let isps: Vec<AsId> = net.tiers.tier2().iter().take(y).copied().collect();
            NamedDeployment {
                label: format!("{y} T2 + stubs"),
                non_stub_count: isps.len(),
                deployment: isps_and_stubs(net, &isps),
            }
        })
        .collect()
}

/// §5.2.4: secure every non-stub AS.
pub fn all_non_stubs(net: &Internet) -> NamedDeployment {
    let isps = net.tiers.non_stubs();
    let mut dep = Deployment::empty(net.len());
    for &v in &isps {
        dep.insert_full(v);
    }
    NamedDeployment {
        label: format!("all {} non-stubs", isps.len()),
        non_stub_count: isps.len(),
        deployment: dep,
    }
}

/// §5.3.1: all Tier 1s and their stubs.
pub fn tier1_and_stubs(net: &Internet) -> NamedDeployment {
    let isps: Vec<AsId> = net.tiers.tier1().to_vec();
    NamedDeployment {
        label: "13 T1 + stubs".to_string(),
        non_stub_count: isps.len(),
        deployment: isps_and_stubs(net, &isps),
    }
}

/// §5.3.1: Tier 1s, their stubs, and the content providers.
pub fn tier1_stubs_and_cps(net: &Internet) -> NamedDeployment {
    let mut step = tier1_and_stubs(net);
    for &cp in &net.content_providers {
        step.deployment.insert_full(cp);
    }
    step.label.push_str(" + CPs");
    step
}

/// §5.3.1: the 13 largest Tier 2s (by customer degree) and their stubs.
pub fn top_tier2_and_stubs(net: &Internet, count: usize) -> NamedDeployment {
    let isps: Vec<AsId> = net.tiers.tier2().iter().take(count).copied().collect();
    NamedDeployment {
        label: format!("top {count} T2 + stubs"),
        non_stub_count: isps.len(),
        deployment: isps_and_stubs(net, &isps),
    }
}

/// Figure 13's deployment: the Tier 1s, the CPs, and all their stubs.
pub fn tier1_cps_and_stubs(net: &Internet) -> NamedDeployment {
    let mut isps: Vec<AsId> = net.tiers.tier1().to_vec();
    isps.extend(net.content_providers.iter().copied());
    NamedDeployment {
        label: "T1s + CPs + their stubs".to_string(),
        non_stub_count: net.tiers.tier1().len(),
        deployment: isps_and_stubs(net, &isps),
    }
}

/// The §5.3.2 variant of any deployment: stubs run simplex S\*BGP instead
/// of the full protocol (the "error bars" of Figure 7).
pub fn simplex_variant(net: &Internet, named: &NamedDeployment) -> NamedDeployment {
    NamedDeployment {
        label: format!("{} (simplex stubs)", named.label),
        non_stub_count: named.non_stub_count,
        deployment: named.deployment.stubs_to_simplex(&net.graph),
    }
}

/// The secure destinations of a deployment (for the `d ∈ S` averages of
/// §5.2.3), in id order.
pub fn secure_destinations(named: &NamedDeployment) -> Vec<AsId> {
    let mut out: Vec<AsId> = named.deployment.full_set().iter().collect();
    out.extend(named.deployment.simplex_set().iter());
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Internet {
        Internet::synthetic(1_500, 11)
    }

    #[test]
    fn rollout_grows_monotonically() {
        let net = net();
        let steps = tier12_rollout(&net);
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].non_stub_count, 26);
        assert_eq!(steps[2].non_stub_count, 113);
        let mut prev = 0;
        for s in &steps {
            let count = s.deployment.secure_count();
            assert!(count > prev, "{}: {count}", s.label);
            prev = count;
        }
    }

    #[test]
    fn stubs_are_customer_less_and_not_cps() {
        let net = net();
        let isps: Vec<AsId> = net.tiers.tier1().to_vec();
        for stub in stubs_of(&net, &isps) {
            assert_eq!(net.graph.customer_degree(stub), 0);
            assert!(!net.content_providers.contains(&stub));
        }
    }

    #[test]
    fn cp_rollout_includes_all_cps() {
        let net = net();
        let steps = tier12_cp_rollout(&net);
        for s in &steps {
            for &cp in &net.content_providers {
                assert!(s.deployment.validates(cp), "{}", s.label);
            }
        }
    }

    #[test]
    fn simplex_variant_preserves_isps() {
        let net = net();
        let step = tier12_step(&net, 13, 13);
        let simplex = simplex_variant(&net, &step);
        assert_eq!(
            simplex.deployment.secure_count(),
            step.deployment.secure_count()
        );
        for &t1 in net.tiers.tier1() {
            assert!(simplex.deployment.validates(t1));
        }
        // At least one stub got downgraded to simplex.
        assert!(simplex.deployment.full_count() < step.deployment.full_count());
    }

    #[test]
    fn non_stub_deployment_has_no_stubs() {
        let net = net();
        let d = all_non_stubs(&net);
        for v in net.graph.ases() {
            if net.tiers.is_stub(v) {
                assert!(!d.deployment.is_secure(v));
            }
        }
    }

    #[test]
    fn secure_destination_listing() {
        let net = net();
        let step = tier12_step(&net, 13, 13);
        let dests = secure_destinations(&step);
        assert_eq!(dests.len(), step.deployment.secure_count());
    }
}
