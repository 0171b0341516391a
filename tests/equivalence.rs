//! The crown-jewel property test: the Appendix B routing-outcome engine
//! must agree with the message-level BGP/S\*BGP protocol simulator on
//! random topologies, deployments, attacks, security models and LP
//! variants.
//!
//! Theorem 2.1 guarantees a *unique* stable state whenever all ASes rank
//! security consistently, so the protocol simulator's fixed point is a
//! complete oracle for the engine: every AS must end up with a route of
//! the same class, length and security, leading to a root the engine's
//! `BPR` flags admit.

use proptest::prelude::*;

use bgp_juice::prelude::*;
use bgp_juice::proto::{RunOutcome, Schedule, Simulator};
use bgp_juice::topology::NeighborClass;

/// Build a random valley-free topology from pairwise edge codes.
/// Providers always have smaller ids, so the hierarchy is acyclic.
fn graph_from_codes(n: usize, codes: &[u8]) -> AsGraph {
    let mut b = GraphBuilder::new(n);
    let mut k = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            match codes[k] % 8 {
                // Sparse: most pairs are unconnected.
                0..=3 => {}
                4 => b.add_peering(AsId(i as u32), AsId(j as u32)).unwrap(),
                // i is the provider of j.
                _ => b.add_provider(AsId(j as u32), AsId(i as u32)).unwrap(),
            }
            k += 1;
        }
    }
    b.build()
}

#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    codes: Vec<u8>,
    secure_bits: Vec<bool>,
    attacker: usize,
    destination: usize,
    /// Use the origin-hijack strategy instead of the fake link.
    hijack: bool,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (4usize..10).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            Just(n),
            proptest::collection::vec(any::<u8>(), pairs),
            proptest::collection::vec(any::<bool>(), n),
            0..n,
            0..n,
            any::<bool>(),
        )
            .prop_map(
                |(n, codes, secure_bits, attacker, destination, hijack)| Instance {
                    n,
                    codes,
                    secure_bits,
                    attacker,
                    destination,
                    hijack,
                },
            )
    })
}

fn class_matches(engine: RouteClass, proto: NeighborClass) -> bool {
    matches!(
        (engine, proto),
        (RouteClass::Customer, NeighborClass::Customer)
            | (RouteClass::Peer, NeighborClass::Peer)
            | (RouteClass::Provider, NeighborClass::Provider)
    )
}

fn check_instance(inst: &Instance, model: SecurityModel, variant: LpVariant) {
    let deployment = Deployment::full_from_iter(
        inst.n,
        inst.secure_bits
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| AsId(i as u32)),
    );
    check_instance_with_deployment(inst, &deployment, model, variant);
}

fn check_instance_with_deployment(
    inst: &Instance,
    deployment: &Deployment,
    model: SecurityModel,
    variant: LpVariant,
) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let d = AsId(inst.destination as u32);
    let m = AsId(inst.attacker as u32);
    let scenario = if m == d {
        AttackScenario::normal(d)
    } else if inst.hijack {
        AttackScenario::hijack(m, d)
    } else {
        AttackScenario::attack(m, d)
    };
    check_scenario(
        &graph,
        scenario,
        deployment,
        model,
        variant,
        &format!("{inst:?}"),
    );
}

/// The oracle comparison itself, for an arbitrary scenario (any strategy,
/// any announcer set): run the engine and the message-level simulator and
/// require agreement at every source AS.
fn check_scenario(
    graph: &AsGraph,
    scenario: AttackScenario,
    deployment: &Deployment,
    model: SecurityModel,
    variant: LpVariant,
    label: &str,
) {
    let policy = Policy::with_variant(model, variant);

    let mut engine = Engine::new(graph);
    let outcome = engine.compute(scenario, deployment, policy);

    let mut sim = Simulator::new(graph, deployment, policy, scenario);
    let run = sim.run(Schedule::Fifo, 2_000_000);
    assert!(
        matches!(run, RunOutcome::Converged { .. }),
        "simulator did not converge: {label} {model} {variant}"
    );
    assert!(
        sim.unstable_ases().is_empty(),
        "simulator fixed point is not stable: {label} {model} {variant}"
    );

    for v in graph.ases() {
        if !scenario.is_source(v) {
            continue;
        }
        let ctx = || format!("{label} {model} {variant} at {v}");
        match (outcome.route(v), sim.selected(v)) {
            (None, None) => {}
            (Some(er), Some(sel)) => {
                assert!(
                    class_matches(er.class, sel.class),
                    "class mismatch: engine {er:?} vs proto {sel:?} ({})",
                    ctx()
                );
                assert_eq!(er.length, sel.route.length(), "length mismatch ({})", ctx());
                assert_eq!(er.secure, sel.secure, "security mismatch ({})", ctx());
                let to_attacker = scenario.attackers().any(|m| sel.route.contains(m));
                if to_attacker {
                    assert!(
                        er.flags.may_reach_attacker(),
                        "proto routes to an announcer but engine says TO_D only ({})",
                        ctx()
                    );
                } else {
                    assert!(
                        er.flags.may_reach_destination(),
                        "proto routes to d but engine says TO_M only ({})",
                        ctx()
                    );
                }
            }
            (er, sel) => panic!(
                "reachability mismatch: engine {er:?} vs proto {sel:?} ({})",
                ctx()
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_matches_protocol_simulator_standard_lp(inst in arb_instance()) {
        for model in SecurityModel::ALL {
            check_instance(&inst, model, LpVariant::Standard);
        }
    }

    #[test]
    fn engine_matches_protocol_simulator_lp_variants(inst in arb_instance()) {
        for model in SecurityModel::ALL {
            check_instance(&inst, model, LpVariant::LpK(2));
        }
        check_instance(&inst, SecurityModel::Security2nd, LpVariant::LpK(1));
        check_instance(&inst, SecurityModel::Security3rd, LpVariant::LpInf);
        check_instance(&inst, SecurityModel::Security1st, LpVariant::LpInf);
    }
}

/// A deployment mixing full and simplex members from per-AS mode codes
/// (simplex ASes sign their origin but neither validate nor prefer secure
/// routes — §5.3.2's stub mode, previously uncovered by the oracle).
fn deployment_from_modes(n: usize, modes: &[u8]) -> Deployment {
    let mut dep = Deployment::empty(n);
    for (i, &code) in modes.iter().enumerate() {
        match code % 4 {
            0 | 1 => {}
            2 => dep.insert_simplex(AsId(i as u32)),
            _ => dep.insert_full(AsId(i as u32)),
        }
    }
    dep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mixed full/simplex deployments, with extra weight on security 1st —
    /// the model whose schedule depends most on who actually validates —
    /// under both the fake-link and origin-hijack strategies (`inst.hijack`).
    #[test]
    fn engine_matches_protocol_simulator_with_simplex(
        args in (arb_instance(), proptest::collection::vec(any::<u8>(), 10))
    ) {
        let (inst, modes) = args;
        let dep = deployment_from_modes(inst.n, &modes[..inst.n]);
        for model in SecurityModel::ALL {
            check_instance_with_deployment(&inst, &dep, model, LpVariant::Standard);
        }
        check_instance_with_deployment(&inst, &dep, SecurityModel::Security1st, LpVariant::LpK(2));
        check_instance_with_deployment(&inst, &dep, SecurityModel::Security1st, LpVariant::LpInf);
    }
}

/// Forged-path / colluding-announcer instances: up to three announcers
/// (deduplicated, destination removed) all flooding a `FakePath` of
/// claimed distance 0..=3.
#[derive(Debug, Clone)]
struct StrategicInstance {
    n: usize,
    codes: Vec<u8>,
    secure_bits: Vec<bool>,
    attackers: Vec<usize>,
    destination: usize,
    hops: u8,
}

fn arb_strategic_instance() -> impl Strategy<Value = StrategicInstance> {
    (4usize..10).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            Just(n),
            proptest::collection::vec(any::<u8>(), pairs),
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(0..n, 1..4),
            0..n,
            0u8..4,
        )
            .prop_map(|(n, codes, secure_bits, attackers, destination, hops)| {
                StrategicInstance {
                    n,
                    codes,
                    secure_bits,
                    attackers,
                    destination,
                    hops,
                }
            })
    })
}

impl StrategicInstance {
    /// The colluding forged-path scenario (normal conditions when every
    /// sampled announcer collides with the destination).
    fn scenario(&self) -> AttackScenario {
        let d = AsId(self.destination as u32);
        let candidates: Vec<AsId> = self.attackers.iter().map(|&i| AsId(i as u32)).collect();
        let ms = AttackScenario::filter_announcers(&candidates, d);
        if ms.is_empty() {
            AttackScenario::normal(d)
        } else {
            AttackScenario::colluding(&ms, d)
                .with_strategy(AttackStrategy::FakePath { hops: self.hops })
        }
    }

    fn deployment(&self) -> Deployment {
        Deployment::full_from_iter(
            self.n,
            self.secure_bits
                .iter()
                .enumerate()
                .filter(|(_, &s)| s)
                .map(|(i, _)| AsId(i as u32)),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `FakePath{k}` for k ∈ 0..=3 and up to three colluding announcers:
    /// engine ≡ protocol simulator under every model, standard LP.
    #[test]
    fn engine_matches_protocol_simulator_strategic(inst in arb_strategic_instance()) {
        let graph = graph_from_codes(inst.n, &inst.codes);
        let deployment = inst.deployment();
        let scenario = inst.scenario();
        let label = format!("{inst:?}");
        for model in SecurityModel::ALL {
            check_scenario(&graph, scenario, &deployment, model, LpVariant::Standard, &label);
        }
    }

    /// The same strategic instances under the LP2 and LPinf variants, all
    /// three models.
    #[test]
    fn engine_matches_protocol_simulator_strategic_lp_variants(inst in arb_strategic_instance()) {
        let graph = graph_from_codes(inst.n, &inst.codes);
        let deployment = inst.deployment();
        let scenario = inst.scenario();
        let label = format!("{inst:?}");
        for model in SecurityModel::ALL {
            check_scenario(&graph, scenario, &deployment, model, LpVariant::LpK(2), &label);
            check_scenario(&graph, scenario, &deployment, model, LpVariant::LpInf, &label);
        }
    }
}

/// A deterministic regression net: the equivalence must also hold on a
/// structured (generated) topology, not just proptest soup. Both legacy
/// attack strategies are cross-checked (the hijack pass additionally runs
/// the §5.3.2 simplex-at-stubs deployment variant), plus a 3-hop forged
/// path and a colluding pair flooding 2-hop forged paths. Stubs (ASes with
/// no customers, most of the topology) take every root role too: a
/// hijacked stub destination, a stub attacker and a colluding stub pair.
/// Every scenario runs under LP, LP2 and LPinf.
#[test]
fn engine_matches_protocol_simulator_on_generated_internet() {
    let net = Internet::synthetic(160, 9);
    let step = scenario::tier12_step(&net, 5, 5);
    let simplex_step = scenario::simplex_variant(&net, &step);
    let d = net.content_providers[0];
    let m = net.tiers.tier2()[1];
    let m2 = net.tiers.tier2()[3];
    assert_ne!(m, m2);
    let stubs: Vec<AsId> = net
        .graph
        .ases()
        .filter(|&v| net.graph.customer_degree(v) == 0 && v != d)
        .collect();
    let (stub_d, stub_m, stub_m2) = (stubs[0], stubs[stubs.len() / 2], stubs[stubs.len() - 1]);
    for model in SecurityModel::ALL {
        for variant in [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf] {
            let policy = Policy::with_variant(model, variant);
            for (scenario, deployment) in [
                (AttackScenario::attack(m, d), &step.deployment),
                (AttackScenario::hijack(m, d), &simplex_step.deployment),
                (
                    AttackScenario::attack(m, d)
                        .with_strategy(AttackStrategy::FakePath { hops: 3 }),
                    &step.deployment,
                ),
                (
                    AttackScenario::colluding(&[m, m2], d)
                        .with_strategy(AttackStrategy::FakePath { hops: 2 }),
                    &step.deployment,
                ),
                (AttackScenario::hijack(m, stub_d), &simplex_step.deployment),
                (AttackScenario::attack(stub_m, d), &step.deployment),
                (
                    AttackScenario::colluding(&[stub_m, stub_m2], d)
                        .with_strategy(AttackStrategy::FakePath { hops: 2 }),
                    &simplex_step.deployment,
                ),
            ] {
                let ctx = format!("{model} {variant} {scenario:?}");
                let mut engine = Engine::new(&net.graph);
                let outcome = engine.compute(scenario, deployment, policy);
                let mut sim = Simulator::new(&net.graph, deployment, policy, scenario);
                let run = sim.run(Schedule::Random(model as u64), 5_000_000);
                assert!(matches!(run, RunOutcome::Converged { .. }), "{ctx}");
                assert!(sim.unstable_ases().is_empty(), "{ctx}");
                for v in net.graph.ases() {
                    if !scenario.is_source(v) {
                        continue;
                    }
                    match (outcome.route(v), sim.selected(v)) {
                        (None, None) => {}
                        (Some(er), Some(sel)) => {
                            assert_eq!(er.length, sel.route.length(), "{ctx} {v}");
                            assert_eq!(er.secure, sel.secure, "{ctx} {v}");
                            assert!(class_matches(er.class, sel.class), "{ctx} {v}");
                        }
                        (er, sel) => panic!("{ctx} {v}: {er:?} vs {sel:?}"),
                    }
                }
            }
        }
    }
}
