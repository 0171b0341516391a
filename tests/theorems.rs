//! Property tests for the paper's theorems on random valley-free
//! topologies.
//!
//! * **Theorem 2.1** — with consistent SecP priorities, BGP converges to a
//!   unique stable state regardless of message ordering.
//! * **Theorem 3.1** — under security 1st, a source whose normal secure
//!   route avoids the attacker keeps a secure route during the attack.
//! * **Theorem 6.1** — security 3rd is monotone: growing the deployment
//!   never turns a happy source unhappy.
//! * **Appendix E soundness** — immune/doomed predictions hold for every
//!   concrete deployment.
//! * **Appendix C bounds** — tie-break bounds are ordered and bracket the
//!   partition-derived limits.
//! * **Unsigned destinations** — a route is secure only when every AS on it
//!   signs, the origin included (§2.2), so while the destination signs at
//!   neither level every outcome is its `S = ∅` outcome, under every model
//!   and LP variant (the planner keys such destinations at `S = ∅`).

use proptest::prelude::*;

use bgp_juice::prelude::*;
use bgp_juice::proto::{RunOutcome, Schedule, Simulator};

fn graph_from_codes(n: usize, codes: &[u8]) -> AsGraph {
    let mut b = GraphBuilder::new(n);
    let mut k = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            match codes[k] % 8 {
                0..=3 => {}
                4 => b.add_peering(AsId(i as u32), AsId(j as u32)).unwrap(),
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
    extra_bits: Vec<bool>,
    attacker: usize,
    destination: usize,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (5usize..11).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            Just(n),
            proptest::collection::vec(any::<u8>(), pairs),
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(any::<bool>(), n),
            0..n,
            0..n,
        )
            .prop_map(
                |(n, codes, secure_bits, extra_bits, attacker, destination)| Instance {
                    n,
                    codes,
                    secure_bits,
                    extra_bits,
                    attacker,
                    destination,
                },
            )
    })
}

impl Instance {
    fn attack_pair(&self) -> Option<(AsId, AsId)> {
        if self.attacker == self.destination {
            None
        } else {
            Some((AsId(self.attacker as u32), AsId(self.destination as u32)))
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

    /// A strict superset of [`Instance::deployment`].
    fn larger_deployment(&self) -> Deployment {
        let mut dep = self.deployment();
        for (i, &extra) in self.extra_bits.iter().enumerate() {
            if extra {
                dep.insert_full(AsId(i as u32));
            }
        }
        dep
    }
}

/// An [`Instance`] at a random deployment its destination is not part
/// of: each other AS rolls below `full_pct` (10–50) to be a full member,
/// in the next 20 points to be a simplex one. `accomplice` picks the second
/// announcer of the colluding pair.
#[derive(Debug, Clone)]
struct UnsignedInstance {
    inst: Instance,
    full_pct: u8,
    rolls: Vec<u8>,
    accomplice: usize,
}

fn arb_unsigned_instance() -> impl Strategy<Value = UnsignedInstance> {
    arb_instance().prop_flat_map(|inst| {
        let n = inst.n;
        (
            Just(inst),
            10u8..51,
            proptest::collection::vec(0u8..100, n),
            0..n,
        )
            .prop_map(|(inst, full_pct, rolls, accomplice)| UnsignedInstance {
                inst,
                full_pct,
                rolls,
                accomplice,
            })
    })
}

impl UnsignedInstance {
    /// The drawn deployment; `d` signs at neither level.
    fn deployment(&self, d: AsId) -> Deployment {
        let mut dep = Deployment::empty(self.inst.n);
        for (i, &roll) in self.rolls.iter().enumerate() {
            let v = AsId(i as u32);
            if v == d {
                continue;
            }
            if roll < self.full_pct {
                dep.insert_full(v);
            } else if roll < self.full_pct + 20 {
                dep.insert_simplex(v);
            }
        }
        dep
    }

    /// A fake link, a hijack, a 3-hop forged path, a colluding pair and
    /// the normal outcome marked at `m`.
    fn scenarios(&self, m: AsId, d: AsId) -> Vec<AttackScenario> {
        let n = self.inst.n;
        let accomplice = (self.accomplice..self.accomplice + n)
            .map(|i| AsId((i % n) as u32))
            .find(|&c| c != m && c != d)
            .expect("n ≥ 5 leaves a second announcer");
        vec![
            AttackScenario::attack(m, d),
            AttackScenario::hijack(m, d),
            AttackScenario::attack(m, d).with_strategy(AttackStrategy::FakePath { hops: 3 }),
            AttackScenario::colluding(&[m, accomplice], d),
            AttackScenario::normal_marked(d, m),
        ]
    }
}

/// Every model under the standard, LP2 and LPinf variants.
fn all_policies() -> Vec<Policy> {
    let variants = [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf];
    SecurityModel::ALL
        .into_iter()
        .flat_map(|m| variants.map(|v| Policy::with_variant(m, v)))
        .collect()
}

/// The source ASes (neither the destination nor an announcer) at which
/// two outcomes of one scenario differ in route (class, length, security,
/// root flags), mark bit or next hop, the roots' own entries counted too
/// when `roots`; and whether their happy bounds differ.
fn differences(graph: &AsGraph, a: &Outcome, b: &Outcome, roots: bool) -> (usize, bool) {
    let differ = graph
        .ases()
        .filter(|&v| roots || a.is_source(v))
        .filter(|&v| {
            a.route(v) != b.route(v)
                || a.flags(v) != b.flags(v)
                || a.may_traverse_mark(v) != b.may_traverse_mark(v)
                || a.next_hop(v) != b.next_hop(v)
        })
        .count();
    (differ, a.count_happy() != b.count_happy())
}

/// The outcome differences of every scenario × policy of `u` between its
/// deployment (with `d` made a full member when `sign`) and `S = ∅`,
/// summed as in [`differences`].
fn against_empty(u: &UnsignedInstance, sign: bool, roots: bool) -> Option<(usize, bool)> {
    let (m, d) = u.inst.attack_pair()?;
    let graph = graph_from_codes(u.inst.n, &u.inst.codes);
    let mut dep = u.deployment(d);
    if sign {
        dep.insert_full(d);
    }
    let empty = Deployment::empty(u.inst.n);
    let (mut at_dep, mut at_empty) = (Engine::new(&graph), Engine::new(&graph));
    let (mut differ, mut happy) = (0, false);
    for scenario in u.scenarios(m, d) {
        for policy in all_policies() {
            let a = at_dep.compute(scenario, &dep, policy);
            let b = at_empty.compute(scenario, &empty, policy);
            let (k, h) = differences(&graph, a, b, roots);
            differ += k;
            happy |= h;
        }
    }
    Some((differ, happy))
}

/// The control of `unsigned_destinations_route_as_at_empty_deployment`:
/// the comparison does see a deployment. With the destination made a
/// full member, some drawn instance routes a source AS differently.
#[test]
fn signed_destinations_route_differently_somewhere() {
    use proptest::test_runner::TestRunner;
    let mut differing = 0;
    TestRunner::new(ProptestConfig::with_cases(64)).run(&arb_unsigned_instance(), |u| {
        if let Some((differ, _)) = against_empty(&u, true, false) {
            differing += usize::from(differ > 0);
        }
        Ok(())
    });
    assert!(differing > 0, "no signing destination changed a route");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Theorem 2.1: any message schedule reaches the same stable state.
    #[test]
    fn theorem_2_1_unique_stable_state(inst in arb_instance()) {
        let graph = graph_from_codes(inst.n, &inst.codes);
        let deployment = inst.deployment();
        let scenario = match inst.attack_pair() {
            Some((m, d)) => AttackScenario::attack(m, d),
            None => AttackScenario::normal(AsId(inst.destination as u32)),
        };
        for model in SecurityModel::ALL {
            let mut reference: Option<Vec<Option<AsId>>> = None;
            for schedule in [Schedule::Fifo, Schedule::Random(1), Schedule::Random(99)] {
                let mut sim =
                    Simulator::new(&graph, &deployment, Policy::new(model), scenario);
                let out = sim.run(schedule, 2_000_000);
                prop_assert!(matches!(out, RunOutcome::Converged { .. }), "{model}");
                prop_assert!(sim.unstable_ases().is_empty(), "{model}");
                let snap = sim.next_hop_snapshot();
                match &reference {
                    None => reference = Some(snap),
                    Some(r) => prop_assert_eq!(&snap, r, "{} under {:?}", model, schedule),
                }
            }
        }
    }

    /// Theorem 3.1: no protocol downgrade under security 1st (unless the
    /// attacker sat on the normal route).
    #[test]
    fn theorem_3_1_no_downgrade_when_security_first(inst in arb_instance()) {
        let Some((m, d)) = inst.attack_pair() else { return Ok(()) };
        let graph = graph_from_codes(inst.n, &inst.codes);
        let deployment = inst.deployment();
        let policy = Policy::new(SecurityModel::Security1st);
        let mut engine = Engine::new(&graph);

        let normal: Vec<(bool, bool)> = {
            let o = engine.compute(AttackScenario::normal_marked(d, m), &deployment, policy);
            graph
                .ases()
                .map(|v| (o.uses_secure_route(v), o.may_traverse_mark(v)))
                .collect()
        };
        let o = engine.compute(AttackScenario::attack(m, d), &deployment, policy);
        for v in graph.ases() {
            if v == d || v == m {
                continue;
            }
            let (was_secure, via_m) = normal[v.index()];
            if was_secure && !via_m {
                prop_assert!(
                    o.uses_secure_route(v),
                    "{v} downgraded under security 1st: {inst:?}"
                );
                prop_assert!(o.flags(v).surely_happy());
            }
        }

        // The analyzer reports the same through its counters.
        let mut analyzer = PairAnalyzer::new(&graph);
        let a = analyzer.analyze(m, d, &deployment, policy);
        prop_assert_eq!(a.downgraded, a.downgraded_via_attacker);
    }

    /// Theorem 6.1: security 3rd is monotone in the deployment.
    #[test]
    fn theorem_6_1_security_third_is_monotone(inst in arb_instance()) {
        let Some((m, d)) = inst.attack_pair() else { return Ok(()) };
        let graph = graph_from_codes(inst.n, &inst.codes);
        let small = inst.deployment();
        let large = inst.larger_deployment();
        let policy = Policy::new(SecurityModel::Security3rd);
        let mut engine = Engine::new(&graph);
        let before: Vec<(bool, bool)> = {
            let o = engine.compute(AttackScenario::attack(m, d), &small, policy);
            graph
                .ases()
                .map(|v| {
                    let f = o.flags(v);
                    (f.surely_happy(), f.may_reach_destination())
                })
                .collect()
        };
        let o = engine.compute(AttackScenario::attack(m, d), &large, policy);
        for v in graph.ases() {
            if v == d || v == m {
                continue;
            }
            let (sure, may) = before[v.index()];
            if sure {
                prop_assert!(
                    o.flags(v).surely_happy(),
                    "{v} lost sure-happiness: {inst:?}"
                );
            }
            if may {
                prop_assert!(
                    o.flags(v).may_reach_destination(),
                    "{v} lost possible-happiness: {inst:?}"
                );
            }
        }

        // Corollary: zero collateral damage in the analyzer.
        let mut analyzer = PairAnalyzer::new(&graph);
        prop_assert_eq!(analyzer.analyze(m, d, &large, policy).collateral_damage, 0);
    }

    /// Appendix E: immune and doomed fates are sound for every deployment.
    #[test]
    fn partition_fates_are_deployment_sound(inst in arb_instance()) {
        let Some((m, d)) = inst.attack_pair() else { return Ok(()) };
        let graph = graph_from_codes(inst.n, &inst.codes);
        let mut computer = PartitionComputer::new(&graph);
        let mut engine = Engine::new(&graph);
        for model in SecurityModel::ALL {
            let policy = Policy::new(model);
            let fates = computer.compute(m, d, policy).to_vec();
            for deployment in [inst.deployment(), inst.larger_deployment(), Deployment::empty(inst.n)] {
                let o = engine.compute(AttackScenario::attack(m, d), &deployment, policy);
                for v in graph.ases() {
                    if v == d || v == m {
                        continue;
                    }
                    match fates[v.index()] {
                        Fate::Immune => prop_assert!(
                            o.flags(v).surely_happy(),
                            "{model}: immune {v} unhappy ({inst:?})"
                        ),
                        // Doomed = never happy. Under security 1st a doomed
                        // source may end up routeless instead of on a bogus
                        // route; under 2nd/3rd the class/length invariance
                        // pins it to the attacker outright.
                        Fate::Doomed => {
                            prop_assert!(
                                !o.flags(v).may_reach_destination(),
                                "{model}: doomed {v} happy ({inst:?})"
                            );
                            if model != SecurityModel::Security1st {
                                prop_assert!(
                                    o.flags(v).surely_unhappy(),
                                    "{model}: doomed {v} not on a bogus route ({inst:?})"
                                );
                            }
                        }
                        Fate::Protectable => {}
                        Fate::Unreachable => prop_assert!(
                            o.route(v).is_none(),
                            "{model}: unreachable {v} routed ({inst:?})"
                        ),
                    }
                }
            }
        }
    }

    /// Appendix C: bounds are ordered and the analyzer identity holds for
    /// every model and deployment.
    #[test]
    fn bounds_and_identities(inst in arb_instance()) {
        let Some((m, d)) = inst.attack_pair() else { return Ok(()) };
        let graph = graph_from_codes(inst.n, &inst.codes);
        let mut analyzer = PairAnalyzer::new(&graph);
        for model in SecurityModel::ALL {
            for deployment in [inst.deployment(), inst.larger_deployment()] {
                let a = analyzer.analyze(m, d, &deployment, Policy::new(model));
                prop_assert!(a.happy.lower <= a.happy.upper);
                prop_assert!(a.happy_baseline.lower <= a.happy_baseline.upper);
                prop_assert!(a.metric_change_identity_holds(), "{}", model);
                prop_assert_eq!(a.secure_attack, a.wasted + a.protected, "{}", model);
                prop_assert!(a.happy.upper <= a.sources);
            }
        }
    }

    /// A destination that signs at neither level routes as at `S = ∅`:
    /// every outcome under every model and LP variant equals the empty
    /// deployment's at every AS (route, root flags, mark bit, next hop),
    /// and so do its happy bounds.
    #[test]
    fn unsigned_destinations_route_as_at_empty_deployment(u in arb_unsigned_instance()) {
        let Some((differ, happy)) = against_empty(&u, false, true) else { return Ok(()) };
        prop_assert_eq!(differ, 0, "{:?}", u);
        prop_assert!(!happy, "happy bounds moved: {:?}", u);
    }

    /// Secure routes imply happiness in every model (a secure route cannot
    /// lead to the attacker).
    #[test]
    fn secure_routes_are_legitimate(inst in arb_instance()) {
        let Some((m, d)) = inst.attack_pair() else { return Ok(()) };
        let graph = graph_from_codes(inst.n, &inst.codes);
        let deployment = inst.larger_deployment();
        let mut engine = Engine::new(&graph);
        for model in SecurityModel::ALL {
            let o = engine.compute(AttackScenario::attack(m, d), &deployment, Policy::new(model));
            for v in graph.ases() {
                if o.uses_secure_route(v) {
                    prop_assert!(o.flags(v).surely_happy(), "{model} {v}");
                }
            }
        }
    }
}
