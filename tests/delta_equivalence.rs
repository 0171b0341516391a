//! The attacker-delta equivalence property suite: on random valley-free
//! graphs, [`AttackDeltaEngine`] outcomes for **every** attacker of a
//! `(d, S, policy)` cell — served back-to-back from one snapshot with a
//! touched-list undo between them — must be identical (route class,
//! length, security, flags, representative next hop, and happy bounds) to
//! a fresh [`Engine::compute`] per pair, for every security model, the
//! `LP2`/`LPinf` variants, and both attack kinds; attackers inside the
//! secure set and simplex destinations arise from the same generators.
//! `tests/sweep_equivalence.rs` pins the deployment axis and the
//! message-level oracle (`tests/equivalence.rs`) pins the engine itself,
//! so together they close the chain: delta ≡ sweep ≡ engine ≡ simulated
//! S*BGP. The generalized threat model is covered end to end: the full
//! `FakePath` ladder (k ∈ 0..=3) per attacker, colluding pairs/triples
//! served via [`AttackDeltaEngine::attack_set`], and a torture test that
//! interleaves many attackers — mixed forged-path depths and colluding
//! sets — with sweep advances feeding
//! [`AttackDeltaEngine::begin_from_normal`] on one engine pair, the exact
//! composition the destination-major runners use. Bases exported by
//! [`AttackDeltaEngine::export_base`] and re-adopted through
//! [`AttackDeltaEngine::begin_from_base`] (the planner cache's round trip)
//! must serve and count every attack exactly as the exporting engine does,
//! and a base exported at one deployment and carried to another by
//! [`CachedBase::advanced`] (the planner's derived misses) must equal the
//! base a fresh `begin` exports there.

use proptest::prelude::*;

use bgp_juice::prelude::*;

/// Build a random valley-free topology from pairwise edge codes.
/// Providers always have smaller ids, so the hierarchy is acyclic.
fn graph_from_codes(n: usize, codes: &[u8]) -> AsGraph {
    graph_with_filler(n, codes, 0)
}

/// [`graph_from_codes`] plus `filler` ASes (ids from `n` on) linked into a
/// provider chain detached from the coded graph. The chain never joins a
/// region, but its adjacency lifts the patch budget, so sweep advances on
/// these tiny graphs take the incremental path instead of always
/// computing fresh.
fn graph_with_filler(n: usize, codes: &[u8], filler: usize) -> AsGraph {
    let mut b = GraphBuilder::new(n + filler);
    for i in n + 1..n + filler {
        b.add_provider(AsId(i as u32), AsId(i as u32 - 1)).unwrap();
    }
    let mut k = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            match codes[k] % 8 {
                // Sparse: most pairs are unconnected (and disconnected
                // islands — the fix-log absorption path — are common).
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
            any::<bool>(),
        )
            .prop_map(|(n, codes, join_codes, destination, hijack)| Instance {
                n,
                codes,
                join_codes,
                destination,
                hijack,
            })
    })
}

fn assert_outcomes_match(got: &Outcome, want: &Outcome, graph: &AsGraph, ctx: &str) {
    for v in graph.ases() {
        assert_eq!(got.route(v), want.route(v), "route mismatch at {v}, {ctx}");
        assert_eq!(
            got.next_hop(v),
            want.next_hop(v),
            "next-hop mismatch at {v}, {ctx}"
        );
    }
}

fn check_instance(inst: &Instance, policy: Policy) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    let d = AsId(inst.destination as u32);
    let strategy = if inst.hijack {
        AttackStrategy::OriginHijack
    } else {
        AttackStrategy::FakeLink
    };

    let mut delta = AttackDeltaEngine::new(&graph);
    let mut fresh = Engine::new(&graph);
    for (k, dep) in steps.iter().enumerate() {
        // One cell per deployment; every non-destination AS attacks it,
        // exercising the snapshot restore between consecutive attackers.
        delta.begin(d, dep, policy);
        assert_outcomes_match(
            delta.normal_outcome(),
            fresh.compute(AttackScenario::normal(d), dep, policy),
            &graph,
            &format!("normal, step {k}: {inst:?} {policy}"),
        );
        for m in graph.ases().filter(|&m| m != d) {
            let got = delta.attack(m, strategy);
            let mut scenario = AttackScenario::attack(m, d);
            scenario.strategy = strategy;
            let want = fresh.compute(scenario, dep, policy);
            assert_outcomes_match(
                got,
                want,
                &graph,
                &format!("m={m}, step {k}: {inst:?} {policy}"),
            );
            assert_eq!(
                delta.count_happy(),
                want.count_happy(),
                "happy-bound mismatch for m={m}, step {k}: {inst:?} {policy}"
            );
        }
    }
}

/// Run every attacker through the full `FakePath` ladder on one cell,
/// checking each rung against a fresh compute — the exact access pattern
/// of the strategic-attacker runners (`sbgp_sim::strategy`).
fn check_ladder_instance(inst: &Instance, policy: Policy) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    let d = AsId(inst.destination as u32);
    let mut delta = AttackDeltaEngine::new(&graph);
    let mut fresh = Engine::new(&graph);
    for (k, dep) in steps.iter().enumerate().take(2) {
        delta.begin(d, dep, policy);
        for m in graph.ases().filter(|&m| m != d) {
            for hops in 0..4u8 {
                let strategy = AttackStrategy::FakePath { hops };
                let got = delta.attack(m, strategy);
                let scenario = AttackScenario::attack(m, d).with_strategy(strategy);
                let want = fresh.compute(scenario, dep, policy);
                assert_outcomes_match(
                    got,
                    want,
                    &graph,
                    &format!("m={m} hops={hops}, step {k}: {inst:?} {policy}"),
                );
                assert_eq!(
                    delta.count_happy(),
                    want.count_happy(),
                    "happy-bound mismatch for m={m} hops={hops}, step {k}: {inst:?} {policy}"
                );
            }
        }
    }
}

/// Serve colluding announcer sets (pairs and triples sliding over the AS
/// space, skipping the destination) from one snapshot, checking each
/// against a fresh compute of the colluding scenario.
fn check_collusion_instance(inst: &Instance, policy: Policy, hops: u8) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    let d = AsId(inst.destination as u32);
    let strategy = AttackStrategy::FakePath { hops };
    let n = inst.n as u32;
    let mut delta = AttackDeltaEngine::new(&graph);
    let mut fresh = Engine::new(&graph);
    for (k, dep) in steps.iter().enumerate().take(2) {
        delta.begin(d, dep, policy);
        for start in 0..n {
            for size in [2usize, 3] {
                let set: Vec<AsId> = (0..size as u32)
                    .map(|i| AsId((start + i) % n))
                    .filter(|&m| m != d)
                    .collect();
                if set.len() < 2 {
                    continue;
                }
                let got = delta.attack_set(&set, strategy);
                let scenario = AttackScenario::colluding(&set, d).with_strategy(strategy);
                let want = fresh.compute(scenario, dep, policy);
                assert_outcomes_match(
                    got,
                    want,
                    &graph,
                    &format!("set={set:?} hops={hops}, step {k}: {inst:?} {policy}"),
                );
                assert_eq!(
                    delta.count_happy(),
                    want.count_happy(),
                    "happy-bound mismatch for set={set:?}, step {k}: {inst:?} {policy}"
                );
            }
        }
    }
}

/// Export each cell's base from one engine and adopt it on a second
/// through `begin_from_base`, then serve every attacker across the forged-
/// path ladder and the colluding pairs on both: the adopter must match the
/// exporter and a fresh compute outcome for outcome, and count every
/// attack the same way.
fn check_round_trip_instance(inst: &Instance, policy: Policy) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    let d = AsId(inst.destination as u32);
    let n = inst.n as u32;
    let mut fresh = Engine::new(&graph);
    for (k, dep) in steps.iter().enumerate() {
        let mut exporter = AttackDeltaEngine::new(&graph);
        let mut adopter = AttackDeltaEngine::new(&graph);
        exporter.begin(d, dep, policy);
        adopter.begin_from_base(&exporter.export_base(), dep, policy);
        assert_eq!(adopter.normal_happy(), exporter.normal_happy());
        for m in graph.ases().filter(|&m| m != d) {
            let partner = AsId((m.0 + 1) % n);
            let pair = [m, partner];
            let sets: &[&[AsId]] = if partner == d || partner == m {
                &[&pair[..1]]
            } else {
                &[&pair[..1], &pair]
            };
            for &set in sets {
                for hops in 0..4u8 {
                    let strategy = AttackStrategy::FakePath { hops };
                    let ctx = format!("set={set:?} hops={hops}, step {k}: {inst:?} {policy}");
                    let scenario = AttackScenario::colluding(set, d).with_strategy(strategy);
                    let want = fresh.compute(scenario, dep, policy);
                    let exported = exporter.attack_set(set, strategy);
                    assert_outcomes_match(exported, want, &graph, &ctx);
                    let adopted = adopter.attack_set(set, strategy);
                    assert_outcomes_match(adopted, want, &graph, &ctx);
                    assert_eq!(adopter.count_happy(), want.count_happy(), "{ctx}");
                    assert_eq!(exporter.count_happy(), want.count_happy(), "{ctx}");
                }
            }
        }
        let (got, want) = (adopter.stats(), exporter.stats());
        let ctx = format!("step {k}: {inst:?} {policy}");
        assert_eq!(got.delta_attacks, want.delta_attacks, "{ctx}");
        assert_eq!(got.full_recomputes, want.full_recomputes, "{ctx}");
        assert_eq!(got.refixed_ases, want.refixed_ases, "{ctx}");
        assert_eq!(got.grow_rounds, want.grow_rounds, "{ctx}");
        assert_eq!(got.adopted_bases, 1, "{ctx}");
    }
}

/// The deployment with full members `full` and simplex members
/// `simplex` (full wins) over a universe of `n` ASes.
fn deployment_of(n: usize, full: &[AsId], simplex: &[AsId]) -> Deployment {
    let mut dep = Deployment::empty(n);
    for &v in simplex {
        dep.insert_simplex(v);
    }
    for &v in full {
        dep.insert_full(v);
    }
    dep
}

/// The `(label, A, B)` steps a base derivation is checked on, over a
/// universe of `universe` ASes of which the first `inst.n` are coded. The
/// instance's members — full and simplex, the destination excluded — come
/// from its join codes; `v` and `w` are two non-destination ASes.
fn derivation_steps(
    inst: &Instance,
    universe: usize,
) -> Vec<(&'static str, Deployment, Deployment)> {
    let n = inst.n;
    let d = AsId(inst.destination as u32);
    let v = AsId(((inst.destination + 1) % n) as u32);
    let w = AsId(((inst.destination + 2) % n) as u32);
    let member = |i: usize| inst.join_codes[i] & 3 != 3 && AsId(i as u32) != d;
    let without = |list: &[AsId], x: &[AsId]| -> Vec<AsId> {
        list.iter().copied().filter(|u| !x.contains(u)).collect()
    };
    let full: Vec<AsId> = (0..n)
        .filter(|&i| member(i) && inst.join_codes[i] & 4 == 0)
        .map(|i| AsId(i as u32))
        .collect();
    let simplex: Vec<AsId> = (0..n)
        .filter(|&i| member(i) && inst.join_codes[i] & 4 != 0)
        .map(|i| AsId(i as u32))
        .collect();
    let dep = |f: &[AsId], x: &[AsId]| deployment_of(universe, f, x);
    let base_full = without(&full, &[v, w]);
    let base_simplex = without(&simplex, &[v, w]);
    let plus = |extra: &[AsId]| [base_full.as_slice(), extra].concat();
    let signed = [base_simplex.as_slice(), &[d]].concat();
    let everyone: Vec<AsId> = (0..n as u32).map(AsId).collect();
    vec![
        (
            "grow",
            dep(&base_full, &base_simplex),
            dep(&plus(&[v]), &base_simplex),
        ),
        (
            "retract",
            dep(&plus(&[v, w]), &base_simplex),
            dep(&plus(&[w]), &base_simplex),
        ),
        (
            "simplex flip",
            dep(&base_full, &[base_simplex.as_slice(), &[v]].concat()),
            dep(&plus(&[v]), &base_simplex),
        ),
        (
            "mixed",
            dep(&plus(&[v]), &base_simplex),
            dep(&plus(&[w]), &base_simplex),
        ),
        (
            "destination signs",
            dep(&base_full, &base_simplex),
            dep(&base_full, &signed),
        ),
        (
            "destination validates",
            dep(&base_full, &signed),
            dep(&plus(&[d]), &base_simplex),
        ),
        (
            "destination leaves",
            dep(&plus(&[d]), &base_simplex),
            dep(&base_full, &base_simplex),
        ),
        ("over budget", dep(&[], &[]), dep(&everyone, &[])),
    ]
}

/// Derive the base at B from a base exported at A
/// ([`CachedBase::advanced`]) and check it against a fresh `begin` +
/// `export_base` at B: every AS's route, next hop and mark bit, the happy
/// bounds, and every attacker served off the adopted base. Returns the
/// advance's sweep statistics.
fn check_derived_base(
    graph: &AsGraph,
    n: usize,
    d: AsId,
    (a, b): (&Deployment, &Deployment),
    policy: Policy,
    ctx: &str,
) -> SweepStats {
    let mut exporter = AttackDeltaEngine::new(graph);
    exporter.begin(d, a, policy);
    let mut sweep = SweepEngine::new(graph);
    let derived = exporter.export_base().advanced(&mut sweep, a, b, policy);
    let mut fresh = AttackDeltaEngine::new(graph);
    fresh.begin(d, b, policy);
    let want = fresh.export_base();
    assert_outcomes_match(derived.outcome(), want.outcome(), graph, ctx);
    for v in graph.ases() {
        assert_eq!(
            derived.outcome().may_traverse_mark(v),
            want.outcome().may_traverse_mark(v),
            "mark mismatch at {v}, {ctx}"
        );
    }
    let mut adopter = AttackDeltaEngine::new(graph);
    adopter.begin_from_base(&derived, b, policy);
    assert_eq!(adopter.normal_happy(), fresh.normal_happy(), "happy, {ctx}");
    for m in (0..n as u32).map(AsId).filter(|&m| m != d) {
        let got = adopter.attack(m, AttackStrategy::FakeLink);
        let want = fresh.attack(m, AttackStrategy::FakeLink);
        assert_outcomes_match(got, want, graph, &format!("m={m}, {ctx}"));
        assert_eq!(adopter.count_happy(), fresh.count_happy(), "m={m}, {ctx}");
    }
    sweep.stats()
}

/// Every derivation step of an instance under `policy`, on the bare coded
/// graph (a tiny patch budget: most advances compute fresh) and with a
/// filler chain (a budget the coded graph fits under: advances patch).
fn check_derivation_instance(inst: &Instance, policy: Policy) {
    let d = AsId(inst.destination as u32);
    for filler in [0, 24] {
        let graph = graph_with_filler(inst.n, &inst.codes, filler);
        for (label, a, b) in derivation_steps(inst, graph.len()) {
            let ctx = format!("{label} (filler {filler}): {inst:?} {policy}");
            let stats = check_derived_base(&graph, inst.n, d, (&a, &b), policy, &ctx);
            if label == "over budget" && filler == 0 && graph.num_edges() > 0 {
                // Every coded AS turns validating at once: the seeds'
                // mass, 2·E, passes the budget (n + 2·E) / 6 before any
                // solve, and the advance computes fresh.
                assert_eq!(stats.fallback_steps, 1, "{ctx}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A base exported at deployment A and advanced to B is the base a
    /// fresh `begin` at B exports — outcome and happy bounds — for every
    /// security model and the `LP2`/`LPinf` variants, across grow,
    /// retract, simplex-flip, mixed and destination-signing steps, and a
    /// step past the patch budget (the fallback stays exact).
    #[test]
    fn derived_bases_match_fresh_bases(inst in arb_instance()) {
        for model in SecurityModel::ALL {
            for variant in [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf] {
                check_derivation_instance(&inst, Policy::with_variant(model, variant));
            }
        }
    }

    /// Exported bases round-trip through `begin_from_base` for every
    /// security model, and the `LP2` variant.
    #[test]
    fn exported_bases_round_trip(inst in arb_instance()) {
        for model in SecurityModel::ALL {
            check_round_trip_instance(&inst, Policy::new(model));
        }
        check_round_trip_instance(&inst, Policy::with_variant(SecurityModel::Security1st, LpVariant::LpK(2)));
    }

    #[test]
    fn delta_matches_fresh_engine_standard_lp(inst in arb_instance()) {
        for model in SecurityModel::ALL {
            check_instance(&inst, Policy::new(model));
        }
    }

    #[test]
    fn delta_matches_fresh_engine_lp_variants(inst in arb_instance()) {
        for model in SecurityModel::ALL {
            check_instance(&inst, Policy::with_variant(model, LpVariant::LpK(2)));
            check_instance(&inst, Policy::with_variant(model, LpVariant::LpInf));
        }
    }

    /// The full `FakePath` ladder (k ∈ 0..=3), every attacker served from
    /// one snapshot — the strategic-attacker runners' access pattern.
    #[test]
    fn delta_matches_fresh_engine_forged_paths(inst in arb_instance()) {
        for model in SecurityModel::ALL {
            check_ladder_instance(&inst, Policy::new(model));
        }
        check_ladder_instance(&inst, Policy::with_variant(SecurityModel::Security2nd, LpVariant::LpK(2)));
        check_ladder_instance(&inst, Policy::with_variant(SecurityModel::Security3rd, LpVariant::LpInf));
    }

    /// Colluding pairs and triples served back-to-back from one snapshot,
    /// with colluders freely landing inside the secure set (join codes are
    /// independent of the announcer choice).
    #[test]
    fn delta_collusion_matches_fresh_engine(
        args in (arb_instance(), 0u8..4)
    ) {
        let (inst, hops) = args;
        for model in SecurityModel::ALL {
            check_collusion_instance(&inst, Policy::new(model), hops);
        }
        check_collusion_instance(&inst, Policy::with_variant(SecurityModel::Security1st, LpVariant::LpK(2)), hops);
    }

    /// Snapshot-restore torture: one (sweep, delta) engine pair driven
    /// exactly like the destination-major runners — sweep advances the
    /// normal outcome through a monotone rollout, each step's outcome is
    /// adopted via `begin_from_normal`, and many attackers (with mixed
    /// strategies — the whole forged-path ladder plus colluding sets, so
    /// roots of different depths and multiplicities interleave on the same
    /// snapshot) are patched and undone in between.
    #[test]
    fn delta_composes_with_sweep_advances(inst in arb_instance()) {
        let graph = graph_from_codes(inst.n, &inst.codes);
        let steps = deployment_sequence(inst.n, &inst.join_codes);
        let d = AsId(inst.destination as u32);
        let policy = Policy::new(SecurityModel::Security2nd);
        let n = inst.n as u32;

        let mut sweep = SweepEngine::new(&graph);
        let mut delta = AttackDeltaEngine::new(&graph);
        let mut fresh = Engine::new(&graph);
        sweep.begin(AttackScenario::normal(d), policy);
        for (k, dep) in steps.iter().enumerate() {
            let normal = sweep.advance(dep);
            delta.begin_from_normal(normal, dep, policy);
            for round in 0..2 {
                for m in graph.ases().filter(|&m| m != d) {
                    // Walk the ladder so consecutive attacks disagree even
                    // about the attacker's root depth.
                    let hops = ((m.index() + round) % 4) as u8;
                    let strategy = AttackStrategy::FakePath { hops };
                    let got = delta.attack(m, strategy);
                    let scenario = AttackScenario::attack(m, d).with_strategy(strategy);
                    let want = fresh.compute(scenario, dep, policy);
                    assert_outcomes_match(
                        got,
                        want,
                        &graph,
                        &format!("m={m} round {round}, step {k}: {inst:?}"),
                    );
                    assert_eq!(
                        delta.count_happy(),
                        want.count_happy(),
                        "happy bounds for m={m} round {round}, step {k}: {inst:?}"
                    );
                    // Every other attacker additionally brings a colluding
                    // partner, so single- and multi-root patches alternate
                    // on the same snapshot.
                    if (m.index() + round) % 2 == 0 {
                        let partner = AsId((m.0 + 1) % n);
                        if partner != d && partner != m {
                            let set = [m, partner];
                            let got = delta.attack_set(&set, strategy);
                            let scenario =
                                AttackScenario::colluding(&set, d).with_strategy(strategy);
                            let want = fresh.compute(scenario, dep, policy);
                            assert_outcomes_match(
                                got,
                                want,
                                &graph,
                                &format!("collusion m={m} round {round}, step {k}: {inst:?}"),
                            );
                            assert_eq!(
                                delta.count_happy(),
                                want.count_happy(),
                                "collusion happy bounds for m={m}, step {k}: {inst:?}"
                            );
                        }
                    }
                }
            }
            // The adopted snapshot must survive all those patches intact.
            assert_outcomes_match(
                delta.normal_outcome(),
                sweep.outcome(),
                &graph,
                &format!("snapshot after attacks, step {k}: {inst:?}"),
            );
        }
    }
}

/// The same equivalence on a structured (generated) topology with a real
/// rollout, where the incremental paths are actually exercised (proptest's
/// tiny graphs often fall back to full recomputes: on them a compute is
/// cheaper than any patch, so the adjacency-mass budget is tiny).
#[test]
fn delta_matches_fresh_engine_on_generated_internet() {
    let net = Internet::synthetic(400, 17);
    let steps: Vec<Deployment> = vec![
        Deployment::empty(net.len()),
        scenario::tier12_step(&net, 2, 2).deployment.clone(),
        scenario::tier12_step(&net, 5, 8).deployment.clone(),
        scenario::tier12_step(&net, 13, 30).deployment.clone(),
    ];
    let d = net.content_providers[0];
    let attackers: Vec<AsId> = sample::sample_non_stubs(&net, 6, 3)
        .into_iter()
        .filter(|&m| m != d)
        .collect();
    let mut delta_seen = false;
    for model in SecurityModel::ALL {
        let policy = Policy::new(model);
        let mut sweep = SweepEngine::new(&net.graph);
        let mut delta = AttackDeltaEngine::new(&net.graph);
        let mut fresh = Engine::new(&net.graph);
        sweep.begin(AttackScenario::normal(d), policy);
        for (k, dep) in steps.iter().enumerate() {
            let normal = sweep.advance(dep);
            delta.begin_from_normal(normal, dep, policy);
            for &m in &attackers {
                let got = delta.attack(m, AttackStrategy::FakeLink);
                let want = fresh.compute(AttackScenario::attack(m, d), dep, policy);
                for v in net.graph.ases() {
                    assert_eq!(got.route(v), want.route(v), "{model} step {k} at {v}");
                }
                assert_eq!(delta.count_happy(), want.count_happy(), "{model} step {k}");
            }
        }
        delta_seen |= delta.stats().delta_attacks > 0;
    }
    // Random cells on this graph may legitimately fall back throughout (a
    // fake-link attack against an unprotected destination contests ~40% of
    // all ASes), so pin the incremental path on a cell that provably has a
    // tiny contested ball: with *everyone* running full S*BGP under
    // security 1st, every AS holds a secure route and the insecure bogus
    // announcement loses everywhere — the ball is the attacker alone.
    let everyone = Deployment::full_from_iter(net.len(), net.graph.ases());
    let sec1 = Policy::new(SecurityModel::Security1st);
    let mut delta = AttackDeltaEngine::new(&net.graph);
    let mut fresh = Engine::new(&net.graph);
    delta.begin(d, &everyone, sec1);
    assert_outcomes_match(
        delta.normal_outcome(),
        fresh.compute(AttackScenario::normal(d), &everyone, sec1),
        &net.graph,
        "full-deployment normal outcome",
    );
    for &m in &attackers {
        let got = delta.attack(m, AttackStrategy::FakeLink);
        let want = fresh.compute(AttackScenario::attack(m, d), &everyone, sec1);
        for v in net.graph.ases() {
            assert_eq!(got.route(v), want.route(v), "full-deployment cell at {v}");
        }
        assert_eq!(delta.count_happy(), want.count_happy());
        delta_seen = true;
    }
    assert!(
        delta.stats().delta_attacks >= attackers.len(),
        "the full-deployment cell must take the incremental path"
    );
    assert!(delta_seen);
}

/// A four-AS chain (0 ← 1 ← 2 ← 3, providers first) for the panic tests.
fn chain() -> AsGraph {
    graph_from_codes(4, &[5, 0, 0, 5, 0, 5])
}

#[test]
#[should_panic(expected = "AttackDeltaEngine::begin not called")]
fn attack_before_begin_panics() {
    let graph = chain();
    let mut delta = AttackDeltaEngine::new(&graph);
    delta.attack(AsId(1), AttackStrategy::FakeLink);
}

#[test]
#[should_panic(expected = "attacker cannot be the destination")]
fn attacking_the_destination_panics() {
    let graph = chain();
    let mut delta = AttackDeltaEngine::new(&graph);
    delta.begin(
        AsId(0),
        &Deployment::empty(4),
        Policy::new(SecurityModel::Security3rd),
    );
    delta.attack(AsId(0), AttackStrategy::FakeLink);
}
