//! The sweep-equivalence property suite: on random valley-free graphs,
//! [`SweepEngine`] outcomes after **any** deployment sequence — monotone
//! rollouts and arbitrary churn (joins, retirements, simplex↔full flips,
//! the destination signing and un-signing) alike — must be identical —
//! route class, length, security, flags, representative next hop, and
//! happy bounds — to a fresh [`Engine::compute`] at every step, for every
//! security model, the `LP2`/`LPinf` variants, and both attack kinds.
//! The message-level simulator oracle (`tests/equivalence.rs`) pins
//! `Engine::compute` itself to the protocol, so together these close the
//! chain: sweep ≡ engine ≡ simulated S*BGP.

mod support;

use proptest::prelude::*;

use bgp_juice::prelude::*;
use support::retiring_churn_trajectory;

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

/// A monotone 4-step deployment sequence from per-AS join codes: bits 0–1
/// give the AS's join step (3 = never), bit 2 picks simplex mode, and bit 3
/// upgrades a simplex member to full one step after joining.
fn deployment_sequence(n: usize, join_codes: &[u8]) -> Vec<Deployment> {
    (0..4usize)
        .map(|step| {
            let mut dep = Deployment::empty(n);
            for (i, &code) in join_codes.iter().enumerate() {
                let join = usize::from(code & 3);
                if join == 3 || join > step {
                    continue;
                }
                let v = AsId(i as u32);
                let simplex = code & 4 != 0;
                let upgrades = code & 8 != 0;
                if simplex && !(upgrades && step > join) {
                    dep.insert_simplex(v);
                } else {
                    dep.insert_full(v);
                }
            }
            dep
        })
        .collect()
}

#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    codes: Vec<u8>,
    join_codes: Vec<u8>,
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
            proptest::collection::vec(any::<u8>(), n),
            0..n,
            0..n,
            any::<bool>(),
        )
            .prop_map(
                |(n, codes, join_codes, attacker, destination, hijack)| Instance {
                    n,
                    codes,
                    join_codes,
                    attacker,
                    destination,
                    hijack,
                },
            )
    })
}

fn check_instance(inst: &Instance, policy: Policy) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    // The sequence must actually be monotone, or the whole premise breaks.
    for w in steps.windows(2) {
        assert!(w[1].is_monotone_extension_of(&w[0]), "generator bug");
    }

    let d = AsId(inst.destination as u32);
    let m = AsId(inst.attacker as u32);
    let scenario = if m == d {
        AttackScenario::normal(d)
    } else if inst.hijack {
        AttackScenario::hijack(m, d)
    } else {
        AttackScenario::attack(m, d)
    };

    let mut sweep = SweepEngine::new(&graph);
    let mut fresh = Engine::new(&graph);
    sweep.begin(scenario, policy);
    for (k, dep) in steps.iter().enumerate() {
        let got = sweep.advance(dep);
        let want = fresh.compute(scenario, dep, policy);
        for v in graph.ases() {
            assert_eq!(
                got.route(v),
                want.route(v),
                "route mismatch at {v}, step {k}: {inst:?} {policy}"
            );
            assert_eq!(
                got.next_hop(v),
                want.next_hop(v),
                "next-hop mismatch at {v}, step {k}: {inst:?} {policy}"
            );
        }
        assert_eq!(
            sweep.count_happy(),
            want.count_happy(),
            "happy-bound mismatch at step {k}: {inst:?} {policy}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sweep_matches_fresh_engine_standard_lp(inst in arb_instance()) {
        for model in SecurityModel::ALL {
            check_instance(&inst, Policy::new(model));
        }
    }

    #[test]
    fn sweep_matches_fresh_engine_lp_variants(inst in arb_instance()) {
        for model in SecurityModel::ALL {
            check_instance(&inst, Policy::with_variant(model, LpVariant::LpK(2)));
            check_instance(&inst, Policy::with_variant(model, LpVariant::LpInf));
        }
    }
}

/// A fixed-length any-direction deployment sequence: each AS gets an
/// independent state per step (absent / simplex / full), so joins,
/// retirements, and simplex↔full flips all occur — including on the
/// destination, whose flips exercise the signing seed.
const CHURN_STEPS: usize = 6;

fn churn_sequence(n: usize, state_codes: &[u8]) -> Vec<Deployment> {
    (0..CHURN_STEPS)
        .map(|step| {
            let mut dep = Deployment::empty(n);
            for i in 0..n {
                let v = AsId(i as u32);
                match state_codes[step * n + i] % 8 {
                    // Biased toward absent so the secure set stays sparse
                    // and actually churns instead of saturating.
                    0..=3 => {}
                    4 | 5 => dep.insert_simplex(v),
                    _ => dep.insert_full(v),
                }
            }
            dep
        })
        .collect()
}

#[derive(Debug, Clone)]
struct ChurnInstance {
    n: usize,
    codes: Vec<u8>,
    /// One state code per (step, AS) — `churn_sequence` input.
    state_codes: Vec<u8>,
    attacker: usize,
    destination: usize,
    hijack: bool,
}

fn arb_churn_instance() -> impl Strategy<Value = ChurnInstance> {
    (4usize..10).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            Just(n),
            proptest::collection::vec(any::<u8>(), pairs),
            proptest::collection::vec(any::<u8>(), n * CHURN_STEPS),
            0..n,
            0..n,
            any::<bool>(),
        )
            .prop_map(|(n, codes, state_codes, attacker, destination, hijack)| {
                ChurnInstance {
                    n,
                    codes,
                    state_codes,
                    attacker,
                    destination,
                    hijack,
                }
            })
    })
}

fn check_churn_instance(inst: &ChurnInstance, policy: Policy) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = churn_sequence(inst.n, &inst.state_codes);

    let d = AsId(inst.destination as u32);
    let m = AsId(inst.attacker as u32);
    let scenario = if m == d {
        AttackScenario::normal(d)
    } else if inst.hijack {
        AttackScenario::hijack(m, d)
    } else {
        AttackScenario::attack(m, d)
    };

    let mut sweep = SweepEngine::new(&graph);
    let mut fresh = Engine::new(&graph);
    sweep.begin(scenario, policy);
    for (k, dep) in steps.iter().enumerate() {
        let got = sweep.advance(dep);
        let want = fresh.compute(scenario, dep, policy);
        for v in graph.ases() {
            assert_eq!(
                got.route(v),
                want.route(v),
                "route mismatch at {v}, step {k}: {inst:?} {policy}"
            );
            assert_eq!(
                got.next_hop(v),
                want.next_hop(v),
                "next-hop mismatch at {v}, step {k}: {inst:?} {policy}"
            );
        }
        assert_eq!(
            sweep.count_happy(),
            want.count_happy(),
            "happy-bound mismatch at step {k}: {inst:?} {policy}"
        );
    }
    // Step-direction accounting must close over whatever the sequence did.
    let s = sweep.stats();
    assert_eq!(
        s.monotone_steps + s.retracting_steps + s.mixed_steps,
        s.incremental_steps,
        "direction accounting broke: {inst:?} {policy}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sweep_matches_fresh_engine_under_churn(inst in arb_churn_instance()) {
        for model in SecurityModel::ALL {
            check_churn_instance(&inst, Policy::new(model));
        }
    }

    #[test]
    fn sweep_matches_fresh_engine_under_churn_lp_variants(inst in arb_churn_instance()) {
        for model in SecurityModel::ALL {
            check_churn_instance(&inst, Policy::with_variant(model, LpVariant::LpK(2)));
            check_churn_instance(&inst, Policy::with_variant(model, LpVariant::LpInf));
        }
    }
}

/// Build the colluding forged-path scenario for the strategic sweep tests:
/// the given attacker plus up to two extra announcers (deduplicated,
/// destination dropped), all announcing `FakePath { hops }`.
fn strategic_scenario(
    attacker: usize,
    destination: usize,
    extra: &[usize],
    hops: u8,
) -> AttackScenario {
    let d = AsId(destination as u32);
    let candidates: Vec<AsId> = std::iter::once(&attacker)
        .chain(extra)
        .map(|&i| AsId(i as u32))
        .collect();
    let ms = AttackScenario::filter_announcers(&candidates, d);
    if ms.is_empty() {
        AttackScenario::normal(d)
    } else {
        AttackScenario::colluding(&ms, d).with_strategy(AttackStrategy::FakePath { hops })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every new strategy through the sweep: `FakePath{k}` for k ∈ 0..=3
    /// announced by 1–3 colluders (who may sit inside the secure set —
    /// the join codes are independent of the announcer sample), swept
    /// over monotone deployments and compared to fresh computes per step,
    /// across all models and the LP2/LPinf variants.
    #[test]
    fn sweep_matches_fresh_engine_strategic(
        args in (arb_instance(), proptest::collection::vec(0usize..10, 0..3), 0u8..4)
    ) {
        let (inst, extra, hops) = args;
        let extra: Vec<usize> = extra.into_iter().filter(|&i| i < inst.n).collect();
        let graph = graph_from_codes(inst.n, &inst.codes);
        let steps = deployment_sequence(inst.n, &inst.join_codes);
        let scenario = strategic_scenario(inst.attacker, inst.destination, &extra, hops);
        for policy in [
            Policy::new(SecurityModel::Security1st),
            Policy::new(SecurityModel::Security2nd),
            Policy::new(SecurityModel::Security3rd),
            Policy::with_variant(SecurityModel::Security2nd, LpVariant::LpK(2)),
            Policy::with_variant(SecurityModel::Security3rd, LpVariant::LpInf),
        ] {
            let mut sweep = SweepEngine::new(&graph);
            let mut fresh = Engine::new(&graph);
            sweep.begin(scenario, policy);
            for (k, dep) in steps.iter().enumerate() {
                let got = sweep.advance(dep);
                let want = fresh.compute(scenario, dep, policy);
                for v in graph.ases() {
                    prop_assert_eq!(
                        got.route(v),
                        want.route(v),
                        "route mismatch at {} step {}: {:?} {} hops {}",
                        v, k, inst, policy, hops
                    );
                    prop_assert_eq!(
                        got.next_hop(v),
                        want.next_hop(v),
                        "next-hop mismatch at {} step {}: {:?} {}",
                        v, k, inst, policy
                    );
                }
                prop_assert_eq!(
                    sweep.count_happy(),
                    want.count_happy(),
                    "happy-bound mismatch at step {}: {:?} {}",
                    k, inst, policy
                );
            }
        }
    }

    /// The strategy ladder under churn: `FakePath{k}` for k ∈ 0..=3
    /// announced by 1–3 colluders (who may churn in and out of the secure
    /// set themselves), swept over an arbitrary-direction sequence and
    /// compared to fresh computes per step.
    #[test]
    fn sweep_matches_fresh_engine_strategic_under_churn(
        args in (arb_churn_instance(), proptest::collection::vec(0usize..10, 0..3), 0u8..4)
    ) {
        let (inst, extra, hops) = args;
        let extra: Vec<usize> = extra.into_iter().filter(|&i| i < inst.n).collect();
        let graph = graph_from_codes(inst.n, &inst.codes);
        let steps = churn_sequence(inst.n, &inst.state_codes);
        let scenario = strategic_scenario(inst.attacker, inst.destination, &extra, hops);
        for policy in [
            Policy::new(SecurityModel::Security1st),
            Policy::new(SecurityModel::Security2nd),
            Policy::new(SecurityModel::Security3rd),
            Policy::with_variant(SecurityModel::Security2nd, LpVariant::LpK(2)),
            Policy::with_variant(SecurityModel::Security3rd, LpVariant::LpInf),
        ] {
            let mut sweep = SweepEngine::new(&graph);
            let mut fresh = Engine::new(&graph);
            sweep.begin(scenario, policy);
            for (k, dep) in steps.iter().enumerate() {
                let got = sweep.advance(dep);
                let want = fresh.compute(scenario, dep, policy);
                for v in graph.ases() {
                    prop_assert_eq!(
                        got.route(v),
                        want.route(v),
                        "route mismatch at {} step {}: {:?} {} hops {}",
                        v, k, inst, policy, hops
                    );
                    prop_assert_eq!(
                        got.next_hop(v),
                        want.next_hop(v),
                        "next-hop mismatch at {} step {}: {:?} {}",
                        v, k, inst, policy
                    );
                }
                prop_assert_eq!(
                    sweep.count_happy(),
                    want.count_happy(),
                    "happy-bound mismatch at step {}: {:?} {}",
                    k, inst, policy
                );
            }
        }
    }
}

/// Sweep `scenario` over `steps` under every security model and compare every
/// AS's whole entry — route, representative next hop and mark bit, the
/// fields a stub resolution writes — and the happy bounds with a fresh
/// [`Engine::compute`] at every step. Returns the sweeps' summed stats.
fn check_generated(
    net: &Internet,
    steps: &[Deployment],
    scenario: AttackScenario,
    ctx: &str,
) -> SweepStats {
    let policies = SecurityModel::ALL.map(Policy::new);
    check_generated_steps(net, steps, scenario, &policies, ctx)
        .into_iter()
        .fold(SweepStats::default(), |mut total, step| {
            total.merge(&step);
            total
        })
}

/// [`check_generated`] under each of `policies`, returning the stats of
/// each step (index `k` holds step `k`'s counters summed over the
/// policies), so a test can tell how every step was served.
fn check_generated_steps(
    net: &Internet,
    steps: &[Deployment],
    scenario: AttackScenario,
    policies: &[Policy],
    ctx: &str,
) -> Vec<SweepStats> {
    let mut per_step = vec![SweepStats::default(); steps.len()];
    for &policy in policies {
        let mut sweep = SweepEngine::new(&net.graph);
        let mut fresh = Engine::new(&net.graph);
        sweep.begin(scenario, policy);
        for (k, dep) in steps.iter().enumerate() {
            let before = sweep.stats();
            let got = sweep.advance(dep);
            let want = fresh.compute(scenario, dep, policy);
            for v in net.graph.ases() {
                assert_eq!(
                    got.route(v),
                    want.route(v),
                    "{ctx} {policy} step {k}: route at {v}"
                );
                assert_eq!(
                    got.next_hop(v),
                    want.next_hop(v),
                    "{ctx} {policy} step {k}: next hop at {v}"
                );
                assert_eq!(
                    got.may_traverse_mark(v),
                    want.may_traverse_mark(v),
                    "{ctx} {policy} step {k}: mark at {v}"
                );
            }
            assert_eq!(
                sweep.count_happy(),
                want.count_happy(),
                "{ctx} {policy} step {k}: happy bounds"
            );
            per_step[k].merge(&sweep.stats().delta_since(&before));
        }
    }
    per_step
}

/// [`check_generated`] for a `scenario` whose destination never signs
/// along `steps`: every sweep must also serve every step after the first
/// as a no-op.
fn check_generated_inert(
    net: &Internet,
    steps: &[Deployment],
    scenario: AttackScenario,
    ctx: &str,
) {
    let policies = SecurityModel::ALL.map(Policy::new);
    let per_step = check_generated_steps(net, steps, scenario, &policies, ctx);
    for (k, step) in per_step.iter().enumerate().skip(1) {
        assert_eq!(step.noop_steps, policies.len(), "{ctx} step {k}: {step:?}");
    }
}

/// The same equivalence on a structured (generated) topology with a real
/// rollout, where the incremental path is actually exercised (proptest's
/// tiny graphs often fall back to full recomputes: on them a compute is
/// cheaper than any patch, so the adjacency-mass budget is tiny). The
/// content provider never signs on this rollout, so its sweep must serve
/// every step after the first as a no-op; the Tier 2 destination signs
/// from step 1 on and keeps the incremental path covered.
#[test]
fn sweep_matches_fresh_engine_on_generated_internet() {
    let net = Internet::synthetic(400, 17);
    let steps: Vec<Deployment> = [
        Deployment::empty(net.len()),
        scenario::tier12_step(&net, 2, 2).deployment.clone(),
        scenario::tier12_step(&net, 5, 8).deployment.clone(),
        scenario::tier12_step(&net, 13, 30).deployment.clone(),
    ]
    .to_vec();
    let m = net.tiers.tier2()[1];
    let d = net.tiers.tier2()[0];
    let stats = check_generated(&net, &steps, AttackScenario::attack(m, d), "rollout");
    assert!(
        stats.incremental_steps > 0,
        "rollout never took the incremental path"
    );
    let cp = net.content_providers[0];
    check_generated_inert(
        &net,
        &steps,
        AttackScenario::attack(m, cp),
        "unsigned rollout",
    );
}

/// The same equivalence on a generated topology over a full wax-and-wane
/// churn trajectory. Its wane retraces the wax, so a Tier 2 destination
/// that signs throughout has every wane step rewound. On the trajectory
/// whose wane retires ISPs in join order instead, the *retraction* path is
/// actually exercised incrementally (not just bailed to the region-cap
/// fallback) by the same destination. The never-signing content provider
/// is served as a no-op at every step after the first.
#[test]
fn sweep_matches_fresh_engine_on_generated_internet_churn() {
    let net = Internet::synthetic(400, 17);
    let steps = scenario::churn_trajectory(&net, 4);
    assert_eq!(steps.len(), 7, "wax-and-wane at peak 4");
    let m = net.tiers.tier2()[1];
    let d = net.tiers.tier2()[0];
    let policies = SecurityModel::ALL.map(Policy::new);
    let scenario = AttackScenario::attack(m, d);
    let per_step = check_generated_steps(&net, &steps, scenario, &policies, "churn");
    assert_wane_rewound(&steps, &per_step, d, policies.len(), "churn");
    let retiring = retiring_churn_trajectory(&net, 4);
    assert!(retiring.iter().all(|s| s.signs_origin(d)));
    let stats = check_generated(&net, &retiring, scenario, "retiring churn");
    assert!(
        stats.retracting_steps > 0,
        "churn trajectory never took the incremental retraction path"
    );
    let cp = net.content_providers[0];
    check_generated_inert(
        &net,
        &steps,
        AttackScenario::attack(m, cp),
        "unsigned churn",
    );
}

/// Assert that a sweep along a `churn_trajectory` (`steps`) served every
/// wane step by a rewind — each one retraces a wax step — except those
/// whose destination `d` signs at neither end, which stay no-ops.
/// `per_step` is [`check_generated_steps`]' output over `sweeps` policies.
fn assert_wane_rewound(
    steps: &[Deployment],
    per_step: &[SweepStats],
    d: AsId,
    sweeps: usize,
    ctx: &str,
) {
    let peak = steps.len().div_ceil(2);
    for k in peak..steps.len() {
        let step = &per_step[k];
        assert_eq!(step.steps(), sweeps, "{ctx} step {k}: {step:?}");
        if steps[k - 1].signs_origin(d) || steps[k].signs_origin(d) {
            assert_eq!(step.rewound_steps, sweeps, "{ctx} step {k}: {step:?}");
        } else {
            assert_eq!(step.noop_steps, sweeps, "{ctx} step {k}: {step:?}");
        }
    }
}

/// Every security model under the Standard, LP2 and LPinf variants.
fn all_policies() -> Vec<Policy> {
    SecurityModel::ALL
        .into_iter()
        .flat_map(|model| {
            [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf]
                .map(|variant| Policy::with_variant(model, variant))
        })
        .collect()
}

/// The inert-step rule on a generated topology: an advance whose
/// destination signs at neither end is a no-op, and nothing else is. A
/// Tier 2 destination joins the wax-and-wane trajectory at step 2 and
/// leaves it at step 7, so steps 1 and 8 are no-ops and steps 2–7 (the
/// join, the leave and every step with `d` signing) are real. A simplex
/// destination while validators flip is never inert, nor is a destination
/// whose signing flips with no validator at all. Every sweep matches a
/// fresh compute at every AS, under every model and LP variant, for a
/// plain attack, a forged path, colluding announcers and a mark.
#[test]
fn steps_with_an_unsigned_destination_are_noops_on_generated_internet() {
    let net = Internet::synthetic(400, 17);
    let steps = scenario::churn_trajectory(&net, 5);
    assert_eq!(steps.len(), 9, "wax-and-wane at peak 5");
    let t2 = net.tiers.tier2();
    // The first Tier 2 outside the ladder's first two rungs.
    let d = *t2
        .iter()
        .find(|&&v| !steps[1].signs_origin(v))
        .expect("a Tier 2 off the second rung");
    let signing: Vec<bool> = steps.iter().map(|s| s.signs_origin(d)).collect();
    assert_eq!(
        signing,
        [false, false, true, true, true, true, true, false, false],
        "d must join at step 2 and leave at step 7"
    );
    let (m, colluder) = (t2[0], net.content_providers[1]);
    let cp = net.content_providers[0];
    let scenarios = |d: AsId| {
        let mut marked = AttackScenario::attack(m, d);
        marked.mark = Some(t2[1]);
        [
            ("attack", AttackScenario::attack(m, d)),
            (
                "forged path",
                AttackScenario::attack(m, d).with_strategy(AttackStrategy::FakePath { hops: 2 }),
            ),
            (
                "colluding",
                AttackScenario::colluding(&[m, colluder], d)
                    .with_strategy(AttackStrategy::FakePath { hops: 1 }),
            ),
            ("marked", marked),
        ]
    };
    let policies = all_policies();
    let sweeps = policies.len();
    // Served as a no-op by every sweep, or by none.
    let noops = |per_step: &[SweepStats]| -> Vec<bool> {
        per_step[1..]
            .iter()
            .map(|step| {
                assert!(
                    step.noop_steps == 0 || step.noop_steps == sweeps,
                    "{step:?}"
                );
                step.noop_steps == sweeps
            })
            .collect()
    };
    for (ctx, scenario) in scenarios(d) {
        let per_step = check_generated_steps(&net, &steps, scenario, &policies, ctx);
        let want = [true, false, false, false, false, false, false, true];
        assert_eq!(noops(&per_step), want, "{ctx}: joining d");
    }
    // A simplex destination, never validating, while the ladder churns.
    let simplex_steps: Vec<Deployment> = steps
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.insert_simplex(cp);
            s
        })
        .collect();
    // A destination whose signing flips while nothing validates.
    let mut signed = Deployment::empty(net.len());
    signed.insert_simplex(cp);
    let bare = Deployment::empty(net.len());
    let flips = [bare.clone(), signed.clone(), bare, signed];
    for (ctx, scenario) in scenarios(cp) {
        let per_step = check_generated_steps(&net, &simplex_steps, scenario, &policies, ctx);
        assert!(noops(&per_step).iter().all(|&n| !n), "{ctx}: simplex d");
        let per_step = check_generated_steps(&net, &flips, scenario, &policies, ctx);
        assert!(noops(&per_step).iter().all(|&n| !n), "{ctx}: signing flips");
    }
}

/// Stubs (ASes without customers) of `net` whose `validates` bit flips
/// along `steps`, and those whose bit never does, each in id order.
fn flipping_and_steady_stubs(net: &Internet, steps: &[Deployment]) -> (Vec<AsId>, Vec<AsId>) {
    let g = &net.graph;
    g.ases()
        .filter(|&v| g.customer_degree(v) == 0 && g.provider_degree(v) > 0)
        .partition(|&v| {
            steps
                .iter()
                .any(|s| s.validates(v) != steps[0].validates(v))
        })
}

/// Churn over a 2 000-AS synthetic Internet with stubs in every root role.
/// Each churn step secures or retires Tier 2s together with all their
/// stubs, so region solves fold and resolve thousands of stubs, and roots
/// that are stubs whose own deployment flips land inside the region: a
/// stub destination (re-fixed as the origin), a stub attacker, a colluding
/// stub pair flooding 2-hop forged paths, and a stub mark. The last three
/// run against a Tier 2 destination that signs throughout, and again
/// against the never-signing content provider, whose sweeps must serve
/// every step after the first as a no-op.
#[test]
fn sweep_matches_fresh_engine_with_stub_roots_under_churn() {
    let net = Internet::synthetic(2000, 7);
    let steps = scenario::churn_trajectory(&net, 4);
    let (flipping, steady) = flipping_and_steady_stubs(&net, &steps);
    assert!(
        flipping.len() >= 4,
        "too few stubs flip along the trajectory"
    );
    assert!(!steady.is_empty(), "every stub flips");
    let cp = net.content_providers[0];
    let t2 = net.tiers.tier2()[2];
    let signer = net.tiers.tier2()[0];
    assert!(steps.iter().all(|s| s.signs_origin(signer)));
    let pick = |k: usize| flipping[k * flipping.len() / 4];
    let stub_roots = |d: AsId| {
        [
            ("stub attacker", AttackScenario::attack(pick(1), d)),
            (
                "colluding stubs",
                AttackScenario::colluding(&[pick(2), steady[steady.len() / 2]], d)
                    .with_strategy(AttackStrategy::FakePath { hops: 2 }),
            ),
            ("stub mark", {
                let mut marked = AttackScenario::attack(t2, d);
                marked.mark = Some(pick(3));
                marked
            }),
        ]
    };
    let signing = [("stub destination", AttackScenario::attack(t2, pick(0)))]
        .into_iter()
        .chain(stub_roots(signer));
    for (ctx, scenario) in signing {
        let stats = check_generated(&net, &steps, scenario, ctx);
        assert!(
            stats.incremental_steps > 0,
            "{ctx}: churn never took the incremental path"
        );
    }
    for (ctx, scenario) in stub_roots(cp) {
        check_generated_inert(&net, &steps, scenario, ctx);
    }
}

/// Churn at the scale of the benchmark's churn workload: a `SweepEngine`
/// over the 19-step wax-and-wane trajectory on the 40 000-AS synthetic
/// Internet, for stub and non-stub destinations, matches a fresh compute
/// at every AS and every step, on both sides of the mass budget (some
/// advances fall back), and rewinds every wane step that is not a no-op.
/// The same holds over the trajectory whose wane retires ISPs in join
/// order, where its steps are real incremental retractions for the first
/// Tier 2 and one of its stubs, which sign throughout.
/// `#[ignore]`d (a few seconds in release);
/// CI's bench-smoke job runs it with
/// `cargo test --release --test sweep_equivalence -- --ignored`.
#[test]
#[ignore = "40k-AS churn; run by CI bench-smoke with --ignored"]
fn sweep_matches_fresh_engine_on_40k_churn() {
    let net = Internet::synthetic(40_000, 42);
    let steps = scenario::churn_trajectory(&net, 10);
    assert_eq!(steps.len(), 19, "wax-and-wane at peak 10");
    let (flipping, steady) = flipping_and_steady_stubs(&net, &steps);
    let cp = net.content_providers[0];
    let t2 = net.tiers.tier2();
    let attacker = steady[steady.len() / 3];
    // The content provider and the steady stub never sign, so their
    // sweeps must serve steps as no-ops; the other two destinations sign.
    let scenarios = [
        (AttackScenario::attack(attacker, cp), true),
        (AttackScenario::attack(attacker, t2[5]), false),
        (
            AttackScenario::attack(t2[1], flipping[flipping.len() / 2]),
            false,
        ),
        (
            AttackScenario::attack(t2[1], steady[2 * steady.len() / 3]),
            true,
        ),
    ];
    let policies = SecurityModel::ALL.map(Policy::new);
    let mut total = SweepStats::default();
    for (scenario, unsigned) in scenarios {
        let ctx = format!("40k d={}", scenario.destination);
        let per_step = check_generated_steps(&net, &steps, scenario, &policies, &ctx);
        assert_wane_rewound(
            &steps,
            &per_step,
            scenario.destination,
            policies.len(),
            &ctx,
        );
        let mut stats = SweepStats::default();
        for step in &per_step {
            stats.merge(step);
        }
        if unsigned {
            assert!(stats.noop_steps > 0, "{ctx}: no inert step");
        }
        total.merge(&stats);
    }
    let retiring = retiring_churn_trajectory(&net, 10);
    let signing = [t2[0], scenario::stubs_of(&net, &[t2[0]])[0]];
    let mut retracted = SweepStats::default();
    for d in signing {
        assert!(retiring.iter().all(|s| s.signs_origin(d)));
        let ctx = format!("40k retiring d={d}");
        retracted.merge(&check_generated(
            &net,
            &retiring,
            AttackScenario::attack(attacker, d),
            &ctx,
        ));
    }
    assert!(retracted.retracting_steps > 0, "no incremental retraction");
    assert!(total.monotone_steps > 0, "no incremental growth");
    // Exactness on both sides of the mass budget: some advances must give
    // up on their region and fall back.
    assert!(total.fallback_steps > 0, "no budget fallback");
}
