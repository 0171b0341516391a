//! Non-monotone deployment dynamics, promoted to first-class experiments.
//!
//! Deployment in the wild is not a ratchet: ROAs expire, validators get
//! turned off after incidents, ISPs churn in and out of `S`. Three
//! experiments measure what that does to the §4 metric and to routing
//! stability:
//!
//! * [`rpki_churn`] — the metric along a **wax-and-wane trajectory**
//!   ([`scenario::churn_trajectory`]): coverage climbs the Tier-2 rollout
//!   ladder to its peak and erodes back down. Each `(m, d, model)` triple
//!   is one [`sweep::metric_churn`] pass, so the wane half, which retraces
//!   the wax, is rewound by the engine rather than re-solved, and the
//!   merged [`SweepStats`] make the incremental/fallback/rewound split
//!   observable.
//! * [`wedgie_churn`] — the §2.3 wedgie driven by **adoption churn**
//!   instead of a link flap: at the message level (mixed SecP priorities)
//!   waning and restoring one AS's participation wedges the system, while
//!   the engine (uniform priorities, Theorem 2.1's unique stable state)
//!   serves the same trajectory through its retraction path and returns
//!   to the intended state. The gap between the two *is* the hysteresis.
//! * [`downgrade_attack`] — the Figure 2 protocol downgrade on the
//!   paper's 6-AS gadget, per security model, with Theorem 3.1's
//!   no-downgrade guarantee checked for security-1st.

use sbgp_core::{
    AttackScenario, AttackStrategy, Bounds, Deployment, Engine, Policy, SecurityModel, SweepEngine,
    SweepStats,
};
use sbgp_proto::wedgie::{
    wedgie_deployment, wedgie_graph, wedgie_simulator, wedgie_wane_deployment,
};
use sbgp_proto::Schedule;
use sbgp_topology::{AsGraph, AsId, GraphBuilder};

use crate::experiments::ExperimentConfig;
use crate::{sample, scenario, sweep, Internet};

/// Rollout-ladder peak of the churn trajectory (`2 * PEAK - 1` steps).
pub const CHURN_PEAK: usize = 5;

/// One step of a measured churn trajectory.
#[derive(Clone, Debug)]
pub struct ChurnPoint {
    /// Step label ("wax 2/5", "peak", "wane 2/5").
    pub label: String,
    /// Secure ASes at this step.
    pub secure_count: usize,
    /// `H_{M,D}(S_k)` per model (paper order).
    pub metric: [Bounds; 3],
}

/// A measured churn trajectory plus the engines' per-model sweep stats.
#[derive(Clone, Debug)]
pub struct ChurnResult {
    /// Steps, in trajectory order (wax half, peak, wane half).
    pub points: Vec<ChurnPoint>,
    /// Merged [`SweepStats`] per model (paper order): how many steps were
    /// served incrementally vs. by fallback, and in which direction.
    pub stats: [SweepStats; 3],
    /// Universe size, for [`SweepStats::refixed_fraction`].
    pub universe: usize,
}

/// Label for step `i` of a `2 * peak - 1`-step wax-and-wane trajectory.
fn churn_label(i: usize, peak: usize) -> String {
    if i + 1 < peak {
        format!("wax {}/{peak}", i + 1)
    } else if i + 1 == peak {
        "peak".to_string()
    } else {
        format!("wane {}/{peak}", 2 * peak - 1 - i)
    }
}

/// The metric along the wax-and-wane RPKI churn trajectory, for all three
/// security models. The wane half retraces the wax half, so the metric
/// must be mirror-symmetric — a structural self-check the callers (and
/// the golden outputs) rely on — while the engines rewind the shrinking
/// steps, each back to a deployment they already served, rather than
/// recomputing.
pub fn rpki_churn(net: &Internet, cfg: &ExperimentConfig) -> ChurnResult {
    let attackers = sample::sample_non_stubs(net, cfg.attackers, cfg.seed);
    let dests = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    let pairs = sample::pairs(&attackers, &dests);
    let traj = scenario::churn_trajectory(net, CHURN_PEAK);

    let mut metric = vec![[Bounds::default(); 3]; traj.len()];
    let mut stats = [SweepStats::default(); 3];
    for (i, model) in SecurityModel::ALL.into_iter().enumerate() {
        let (bounds, s) = sweep::metric_churn(
            net,
            &pairs,
            &traj,
            Policy::new(model),
            cfg.strategy,
            cfg.parallelism,
        );
        for (k, b) in bounds.into_iter().enumerate() {
            metric[k][i] = b;
        }
        stats[i] = s;
    }

    let points = traj
        .iter()
        .enumerate()
        .map(|(k, dep)| ChurnPoint {
            label: churn_label(k, CHURN_PEAK),
            secure_count: dep.secure_count(),
            metric: metric[k],
        })
        .collect();
    ChurnResult {
        points,
        stats,
        universe: net.len(),
    }
}

/// The protocol-level outcome of one adoption-churn wedgie run.
#[derive(Clone, Debug)]
pub struct WedgieChurnRow {
    /// The model everyone but `A` runs (A is always security-1st).
    pub b_model: SecurityModel,
    /// Next-hop state after the wane-and-restore differs from the
    /// intended state: the system is wedged.
    pub wedged: bool,
    /// `A` is stuck on an insecure route even though the full deployment
    /// is back.
    pub a_stuck_insecure: bool,
}

/// The adoption-churn wedgie experiment: message-level hysteresis vs. the
/// engine's unique stable state.
#[derive(Clone, Debug)]
pub struct WedgieChurnReport {
    /// One protocol-level run per mixed-priority model.
    pub rows: Vec<WedgieChurnRow>,
    /// Engine-side sweep stats for the `[full, waned, full]` trajectory
    /// under uniform security-1st: the retraction is served incrementally.
    pub engine_stats: SweepStats,
    /// The engine returns to the intended state after the round trip
    /// (Theorem 2.1: with consistent priorities the stable state is
    /// unique, so there is nothing to get wedged in).
    pub engine_recovers: bool,
}

/// Run the wedgie gadget through **deployment churn** on both levels.
///
/// Protocol level: for each `b_model`, converge the mixed-priority gadget,
/// retract `a` from `S` via [`sbgp_proto::Simulator::set_deployment`],
/// reconverge, restore `a`, reconverge — and record whether the system
/// wedged. Engine level: drive `[full, waned, full]` through one
/// [`SweepEngine`] under uniform security-1st; the waned step exercises
/// the retraction path (no fallback on this gadget) and the final step
/// must reproduce the intended outcome exactly.
pub fn wedgie_churn() -> WedgieChurnReport {
    let (graph, ids) = wedgie_graph();
    let full = wedgie_deployment(&ids);
    let waned = wedgie_wane_deployment(&ids);

    let mut rows = Vec::new();
    for b_model in [SecurityModel::Security2nd, SecurityModel::Security3rd] {
        let mut sim = wedgie_simulator(&graph, &ids, &full, b_model);
        sim.run(Schedule::Fifo, 100_000);
        assert!(sim.unstable_ases().is_empty(), "initial convergence");
        let intended = sim.next_hop_snapshot();

        sim.set_deployment(&waned);
        sim.run(Schedule::Fifo, 100_000);
        sim.set_deployment(&full);
        sim.run(Schedule::Fifo, 100_000);
        assert!(sim.unstable_ases().is_empty(), "post-restore convergence");

        let a = sim.selected(ids.a);
        rows.push(WedgieChurnRow {
            b_model,
            wedged: sim.next_hop_snapshot() != intended,
            a_stuck_insecure: a.map(|sel| !sel.secure).unwrap_or(false),
        });
    }

    let policy = Policy::new(SecurityModel::Security1st);
    let scenario = AttackScenario::normal(ids.d);
    let mut engine = SweepEngine::new(&graph);
    engine.begin(scenario, policy);
    let intended: Vec<Option<AsId>> = {
        let o = engine.advance(&full);
        graph.ases().map(|v| o.next_hop(v)).collect()
    };
    engine.advance(&waned);
    let after: Vec<Option<AsId>> = {
        let o = engine.advance(&full);
        graph.ases().map(|v| o.next_hop(v)).collect()
    };

    WedgieChurnReport {
        rows,
        engine_stats: engine.stats(),
        engine_recovers: after == intended,
    }
}

/// Node ids of the Figure 2 downgrade gadget, for readable assertions.
#[derive(Clone, Copy, Debug)]
pub struct DowngradeIds {
    /// The Tier-1 destination (the paper's Level3, AS 3356).
    pub destination: AsId,
    /// The webhosting victim stub (21740 eNom).
    pub victim: AsId,
    /// The peer of both (174 Cogent).
    pub peer: AsId,
    /// The attacker's transit (3491 PCCW).
    pub transit: AsId,
    /// The attacker `m`.
    pub attacker: AsId,
    /// A single-homed control stub (3536 DoD NIC).
    pub control: AsId,
}

/// Build the Figure 2 gadget: the victim has a *secure* one-hop provider
/// route to the destination and an insecure peer path via Cogent that the
/// attacker's bogus announcement can ride.
pub fn downgrade_gadget() -> (AsGraph, Deployment, DowngradeIds) {
    let ids = DowngradeIds {
        destination: AsId(0),
        victim: AsId(1),
        peer: AsId(2),
        transit: AsId(3),
        attacker: AsId(4),
        control: AsId(5),
    };
    let mut b = GraphBuilder::new(6);
    b.add_provider(ids.victim, ids.destination).unwrap();
    b.add_peering(ids.victim, ids.peer).unwrap();
    b.add_peering(ids.destination, ids.peer).unwrap();
    b.add_provider(ids.transit, ids.peer).unwrap();
    b.add_provider(ids.attacker, ids.transit).unwrap();
    b.add_provider(ids.control, ids.destination).unwrap();
    let deployment = Deployment::full_from_iter(6, [ids.destination, ids.victim, ids.peer]);
    (b.build(), deployment, ids)
}

/// One security model's downgrade outcome on the Figure 2 gadget.
#[derive(Clone, Debug)]
pub struct DowngradeRow {
    /// The model everyone runs.
    pub model: SecurityModel,
    /// The victim uses a secure route under normal conditions.
    pub normal_secure: bool,
    /// The victim still uses a secure route under the attack.
    pub attacked_secure: bool,
    /// The victim ends up routing to the attacker.
    pub victim_unhappy: bool,
    /// The attack downgraded the victim: a secure route existed and was
    /// available, but the policy abandoned it for the bogus one.
    pub downgraded: bool,
}

/// The Figure 2 protocol downgrade, per model: with security 2nd or 3rd
/// the victim abandons its secure 1-hop provider route for a bogus 4-hop
/// peer route; with security 1st it cannot (Theorem 3.1).
pub fn downgrade_attack() -> Vec<DowngradeRow> {
    let (graph, deployment, ids) = downgrade_gadget();
    let mut engine = Engine::new(&graph);
    SecurityModel::ALL
        .into_iter()
        .map(|model| {
            let policy = Policy::new(model);
            let normal =
                engine.compute(AttackScenario::normal(ids.destination), &deployment, policy);
            let normal_secure = normal.uses_secure_route(ids.victim);
            let attack = AttackScenario::attack(ids.attacker, ids.destination)
                .with_strategy(AttackStrategy::FakeLink);
            let attacked = engine.compute(attack, &deployment, policy);
            let attacked_secure = attacked.uses_secure_route(ids.victim);
            let victim_unhappy = attacked
                .route(ids.victim)
                .map(|r| r.flags.surely_unhappy())
                .unwrap_or(false);
            DowngradeRow {
                model,
                normal_secure,
                attacked_secure,
                victim_unhappy,
                downgraded: normal_secure && !attacked_secure,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use crate::Parallelism;

    fn net() -> Internet {
        Internet::synthetic(600, 5)
    }

    #[test]
    fn churn_trajectory_is_mirror_symmetric_and_served_incrementally() {
        let net = net();
        let cfg = ExperimentConfig::small(9);
        let r = rpki_churn(&net, &cfg);
        assert_eq!(r.points.len(), 2 * CHURN_PEAK - 1);
        assert_eq!(r.points[CHURN_PEAK - 1].label, "peak");
        let last = r.points.len() - 1;
        for k in 0..CHURN_PEAK {
            // Step k and its mirror see the same deployment, so the
            // metric is bit-identical.
            assert_eq!(r.points[k].metric, r.points[last - k].metric);
            assert_eq!(r.points[k].secure_count, r.points[last - k].secure_count);
        }
        for (i, s) in r.stats.iter().enumerate() {
            // The wane retraces the wax, so it is rewound, never re-solved.
            assert!(s.rewound_steps > 0, "model {i}: {s:?}");
            assert_eq!(s.retracting_steps + s.mixed_steps, 0, "model {i}: {s:?}");
            assert!(s.monotone_steps > 0, "model {i}: {s:?}");
            assert_eq!(
                s.monotone_steps + s.retracting_steps + s.mixed_steps,
                s.incremental_steps,
                "model {i}: {s:?}"
            );
        }
        // Spot-check one wane step against a fresh computation.
        let attackers = sample::sample_non_stubs(&net, cfg.attackers, cfg.seed);
        let dests = sample::sample_all(&net, cfg.destinations, cfg.seed ^ 0xD);
        let pairs = sample::pairs(&attackers, &dests);
        let traj = scenario::churn_trajectory(&net, CHURN_PEAK);
        let fresh = runner::metric(
            &net,
            &pairs,
            &traj[CHURN_PEAK],
            Policy::new(SecurityModel::Security1st),
            Parallelism(2),
        );
        assert_eq!(r.points[CHURN_PEAK].metric[0], fresh);
    }

    #[test]
    fn adoption_churn_wedges_the_protocol_but_not_the_engine() {
        let r = wedgie_churn();
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert!(row.wedged, "{}: churn must wedge the system", row.b_model);
            assert!(row.a_stuck_insecure, "{}: A must be stuck", row.b_model);
        }
        assert!(r.engine_recovers, "unique stable state cannot wedge");
        assert!(
            r.engine_stats.retracting_steps >= 1,
            "the waned step must ride the retraction path: {:?}",
            r.engine_stats
        );
        assert_eq!(
            r.engine_stats.fallback_steps, 0,
            "the gadget's dirty region fits the budget: {:?}",
            r.engine_stats
        );
    }

    #[test]
    fn downgrade_matches_theorem_3_1() {
        let rows = downgrade_attack();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.normal_secure, "{}: secure route exists", row.model);
            match row.model {
                SecurityModel::Security1st => {
                    assert!(row.attacked_secure, "Theorem 3.1");
                    assert!(!row.downgraded && !row.victim_unhappy);
                }
                _ => {
                    assert!(row.downgraded, "{}: must downgrade", row.model);
                    assert!(row.victim_unhappy, "{}: bogus route wins", row.model);
                }
            }
        }
    }
}
