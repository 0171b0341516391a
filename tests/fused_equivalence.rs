//! The fused multi-cell equivalence property suite: on random
//! valley-free graphs, [`FusedDeltaEngine`] serving a whole policy grid in
//! the incremental attacker loop must reproduce a dedicated per-cell
//! computation **bit for bit** (route class, length, flags, representative
//! next hop, and happy bounds) for every input cell of the grid: all three
//! security models, the `LP2`/`LPinf` variants, the full `FakePath` ladder
//! plus the duplicate `FakeLink`/`OriginHijack` spellings, and colluding
//! announcer sets via [`FusedDeltaEngine::attack_set`]. It must also take
//! the same serving path (patch, fallback, direct compute, base build) as
//! one solo [`AttackDeltaEngine`] per distinct computation, counter for
//! counter. `tests/delta_equivalence.rs` pins the solo
//! [`AttackDeltaEngine`] against fresh computes, so checking the fused
//! engine against the solo delta closes the chain fused ≡ delta ≡ engine ≡
//! simulated S*BGP. A fixed-seed determinism test additionally pins the
//! fused destination-major runner (`sweep::metric_sweep_cells`, at one
//! step and along a sweep) bit-identical across thread counts *and*, cell
//! by cell, to one-cell runs.

use proptest::prelude::*;

use bgp_juice::prelude::*;
use bgp_juice::sim::sweep as simsweep;

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
    destination: usize,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (4usize..10).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            Just(n),
            proptest::collection::vec(any::<u8>(), pairs),
            proptest::collection::vec(any::<u8>(), n),
            0..n,
        )
            .prop_map(|(n, codes, join_codes, destination)| Instance {
                n,
                codes,
                join_codes,
                destination,
            })
    })
}

/// The policy axis of the test grid: all three models under standard
/// local pref, plus the `LP2` and `LPinf` variants.
fn grid_policies() -> Vec<Policy> {
    let mut policies: Vec<Policy> = SecurityModel::ALL.map(Policy::new).to_vec();
    policies.push(Policy::with_variant(
        SecurityModel::Security2nd,
        LpVariant::LpK(2),
    ));
    policies.push(Policy::with_variant(
        SecurityModel::Security3rd,
        LpVariant::LpInf,
    ));
    policies
}

/// The strategy axis: the full forged-path ladder **plus** the duplicate
/// `FakeLink`/`OriginHijack` spellings, so canonical dedup is exercised
/// on every grid (the duplicates must share their rung's lane).
fn grid_rungs() -> Vec<AttackStrategy> {
    let mut rungs = AttackStrategy::LADDER.to_vec();
    rungs.push(AttackStrategy::FakeLink);
    rungs.push(AttackStrategy::OriginHijack);
    rungs
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

/// One solo [`AttackDeltaEngine`] per distinct computation of a fused
/// pair: the grid's lanes grouped as model collapse groups them (same
/// strategy, and the same policy or, with no validators, the same LP
/// variant). Driven in step with a [`FusedDeltaEngine`], its summed
/// counters must equal the fused engine's.
struct Mirror<'g> {
    graph: &'g AsGraph,
    comps: Vec<PolicyCell>,
    engines: Vec<AttackDeltaEngine<'g>>,
}

impl<'g> Mirror<'g> {
    fn new(graph: &'g AsGraph) -> Mirror<'g> {
        Mirror {
            graph,
            comps: Vec::new(),
            engines: Vec::new(),
        }
    }

    fn begin(&mut self, cells: &CellSet, d: AsId, dep: &Deployment) {
        let collapse = dep.full_count() == 0;
        self.comps.clear();
        for &cell in cells.lanes() {
            let same = |c: &PolicyCell| {
                c.strategy == cell.strategy
                    && (c.policy == cell.policy
                        || (collapse && c.policy.variant == cell.policy.variant))
            };
            if !self.comps.iter().any(same) {
                self.comps.push(cell);
            }
        }
        while self.engines.len() < self.comps.len() {
            self.engines.push(AttackDeltaEngine::new(self.graph));
        }
        for (c, e) in self.comps.iter().zip(&mut self.engines) {
            e.begin(d, dep, c.policy);
        }
    }

    fn build_bases(&mut self) {
        for e in &mut self.engines[..self.comps.len()] {
            e.normal_outcome();
        }
    }

    fn attack_set(&mut self, set: &[AsId]) {
        for (c, e) in self.comps.iter().zip(&mut self.engines) {
            e.attack_set(set, c.strategy);
        }
    }

    /// Assert the fused engine took exactly the mirror's serving paths.
    fn assert_same_path(&self, fused: &FusedDeltaEngine, ctx: &str) {
        assert_eq!(
            fused.computations(),
            self.comps.len(),
            "computations, {ctx}"
        );
        let mut want = DeltaStats::default();
        for e in &self.engines {
            want.merge(&e.stats());
        }
        let got = fused.delta_stats();
        let fields = |s: &DeltaStats| {
            [
                s.delta_attacks,
                s.full_recomputes,
                s.direct_attacks,
                s.refixed_ases,
                s.grow_rounds,
                s.base_computes + s.adopted_bases,
            ]
        };
        assert_eq!(
            fields(&got),
            fields(&want),
            "[delta, full, direct, refixed, grow, bases] counters, {ctx}"
        );
    }
}

/// The incremental fused engine vs one solo [`AttackDeltaEngine`] per
/// policy: every attacker of every deployment step, checked lane-by-lane
/// through the input-cell view (duplicate spellings must read back their
/// shared lane's values).
fn check_fused_delta(inst: &Instance) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    let d = AsId(inst.destination as u32);
    let (policies, rungs) = (grid_policies(), grid_rungs());
    let cells = CellSet::grid(&policies, &rungs);
    // The duplicate spellings fold away: FakePath{0}/{1} share lanes with
    // OriginHijack/FakeLink, so the grid dedups to 4 rungs per policy.
    assert_eq!(cells.input_len(), policies.len() * rungs.len());
    assert_eq!(
        cells.lane_count(),
        policies.len() * AttackStrategy::LADDER.len()
    );
    for p in 0..policies.len() {
        let row = p * rungs.len();
        assert_eq!(
            cells.lane_of(row + 1),
            cells.lane_of(row + 4),
            "FakeLink dup"
        );
        assert_eq!(
            cells.lane_of(row),
            cells.lane_of(row + 5),
            "OriginHijack dup"
        );
    }
    let mut fused = FusedDeltaEngine::new(&graph, cells.clone());
    let mut mirror = Mirror::new(&graph);
    let mut solos: Vec<AttackDeltaEngine> = policies
        .iter()
        .map(|_| AttackDeltaEngine::new(&graph))
        .collect();
    for (k, dep) in steps.iter().enumerate() {
        fused.begin(d, dep);
        mirror.begin(&cells, d, dep);
        mirror.build_bases();
        for (p, solo) in solos.iter_mut().enumerate() {
            solo.begin(d, dep, policies[p]);
            for r in 0..rungs.len() {
                let i = p * rungs.len() + r;
                assert_outcomes_match(
                    fused.normal_outcome(i),
                    solo.normal_outcome(),
                    &graph,
                    &format!("normal, cell {i}, step {k}: {inst:?}"),
                );
                assert_eq!(
                    fused.normal_happy(i),
                    solo.normal_happy(),
                    "normal happy mismatch at cell {i}, step {k}: {inst:?}"
                );
            }
        }
        mirror.assert_same_path(&fused, &format!("normal reads, step {k}: {inst:?}"));
        for m in graph.ases().filter(|&m| m != d) {
            fused.attack(m);
            mirror.attack_set(&[m]);
            mirror.assert_same_path(&fused, &format!("m={m}, step {k}: {inst:?}"));
            for (p, solo) in solos.iter_mut().enumerate() {
                for (r, &rung) in rungs.iter().enumerate() {
                    let i = p * rungs.len() + r;
                    let want = solo.attack(m, rung);
                    assert_outcomes_match(
                        fused.outcome(i),
                        want,
                        &graph,
                        &format!(
                            "cell {i} ({}, {rung}), m={m}, step {k}: {inst:?}",
                            policies[p]
                        ),
                    );
                    assert_eq!(
                        fused.count_happy(i),
                        solo.count_happy(),
                        "happy mismatch at cell {i}, m={m}, step {k}: {inst:?}"
                    );
                }
            }
        }
    }
}

/// Colluding announcer sets (pairs and triples sliding over the AS space)
/// through [`FusedDeltaEngine::attack_set`] vs the solo engine's
/// `attack_set`, over the first two deployment steps.
fn check_fused_collusion(inst: &Instance) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    let d = AsId(inst.destination as u32);
    let n = inst.n as u32;
    let (policies, rungs) = (grid_policies(), grid_rungs());
    let cells = CellSet::grid(&policies, &rungs);
    let mut fused = FusedDeltaEngine::new(&graph, cells.clone());
    let mut mirror = Mirror::new(&graph);
    let mut solos: Vec<AttackDeltaEngine> = policies
        .iter()
        .map(|_| AttackDeltaEngine::new(&graph))
        .collect();
    for (k, dep) in steps.iter().enumerate().take(2) {
        fused.begin(d, dep);
        mirror.begin(&cells, d, dep);
        for (p, solo) in solos.iter_mut().enumerate() {
            solo.begin(d, dep, policies[p]);
        }
        for start in 0..n {
            for size in [2usize, 3] {
                let set: Vec<AsId> = (0..size as u32)
                    .map(|i| AsId((start + i) % n))
                    .filter(|&m| m != d)
                    .collect();
                if set.len() < 2 {
                    continue;
                }
                fused.attack_set(&set);
                mirror.attack_set(&set);
                mirror.assert_same_path(&fused, &format!("set={set:?}, step {k}: {inst:?}"));
                for (p, solo) in solos.iter_mut().enumerate() {
                    for (r, &rung) in rungs.iter().enumerate() {
                        let i = p * rungs.len() + r;
                        let want = solo.attack_set(&set, rung);
                        assert_outcomes_match(
                            fused.outcome(i),
                            want,
                            &graph,
                            &format!("cell {i}, set={set:?}, step {k}: {inst:?}"),
                        );
                        assert_eq!(
                            fused.count_happy(i),
                            solo.count_happy(),
                            "happy mismatch at cell {i}, set={set:?}, step {k}: {inst:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Policy groups the grid's bases are computed for: one per policy, or
/// one per LP variant when the deployment has no validators (model
/// collapse).
fn base_groups(policies: &[Policy], dep: &Deployment) -> usize {
    let mut groups: Vec<Policy> = Vec::new();
    for &p in policies {
        let same = |q: &Policy| *q == p || (dep.full_count() == 0 && q.variant == p.variant);
        if !groups.iter().any(same) {
            groups.push(p);
        }
    }
    groups.len()
}

/// The deferred-base contract of [`FusedDeltaEngine::begin`], against a
/// fresh [`Engine::compute`] per input cell. Deployment step `k` serves 0,
/// 1, 2 or every attacker (single and colluding announcements alternate);
/// the bits of `reads` pick where `normal_outcome`, `normal_happy` and
/// `export_bases` are read — before, between or after the attacks. A read
/// never disturbs the last served outcomes, and the counters show when the
/// bases were built: the first attack is one direct compute per
/// computation unless a read came first, and each policy group's base is
/// computed once (its strategy siblings adopt it), only if it was read or
/// a second attack came.
fn check_fused_deferred(inst: &Instance, reads: u8) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    let d = AsId(inst.destination as u32);
    let n = inst.n as u32;
    let (policies, rungs) = (grid_policies(), grid_rungs());
    let cells = CellSet::grid(&policies, &rungs);
    let cell = |i: usize| (policies[i / rungs.len()], rungs[i % rungs.len()]);
    let attackers: Vec<AsId> = graph.ases().filter(|&m| m != d).collect();
    let mut fused = FusedDeltaEngine::new(&graph, cells.clone());
    let mut fresh = Engine::new(&graph);
    for (k, dep) in steps.iter().enumerate() {
        let ctx = format!("step {k}: {inst:?} reads={reads:#010b}");
        let normals: Vec<Outcome> = policies
            .iter()
            .map(|&p| fresh.compute(AttackScenario::normal(d), dep, p).clone())
            .collect();
        let count = [0, 1, 2, attackers.len()][k].min(attackers.len());
        let read_at = |j: usize| reads >> ((j + 2 * k) % 8) & 1 == 1;
        let (before, fbefore) = (fused.delta_stats(), fused.stats());
        fused.begin(d, dep);
        let computations = fused.computations();
        let mut last: Vec<(Outcome, (usize, usize))> = Vec::new();
        // The last position is the read after the final attack.
        let positions = attackers[..count].iter().map(Some).chain([None]);
        for (j, next) in positions.enumerate() {
            if read_at(j) {
                for i in 0..cells.input_len() {
                    let want = &normals[i / rungs.len()];
                    assert_outcomes_match(
                        fused.normal_outcome(i),
                        want,
                        &graph,
                        &format!("normal_outcome, cell {i}, {ctx}"),
                    );
                    assert_eq!(
                        fused.normal_happy(i),
                        want.count_happy(),
                        "normal_happy, cell {i}, {ctx}"
                    );
                }
                let bases: Vec<(Policy, _)> = fused.export_bases().collect();
                assert_eq!(
                    bases.len(),
                    base_groups(&policies, dep),
                    "exported bases, {ctx}"
                );
                for (p, base) in &bases {
                    let want = fresh.compute(AttackScenario::normal(d), dep, *p);
                    assert_outcomes_match(
                        base.outcome(),
                        want,
                        &graph,
                        &format!("export_bases {p}, {ctx}"),
                    );
                }
                for (i, (outcome, happy)) in last.iter().enumerate() {
                    assert_outcomes_match(
                        fused.outcome(i),
                        outcome,
                        &graph,
                        &format!("cell {i} after a normal read, {ctx}"),
                    );
                    assert_eq!(fused.count_happy(i), *happy, "cell {i} happy, {ctx}");
                }
            }
            let Some(&m) = next else {
                break;
            };
            let partner = AsId((m.0 + 1) % n);
            let set = if j % 2 == 1 && partner != d {
                vec![m, partner]
            } else {
                vec![m]
            };
            fused.attack_set(&set);
            last.clear();
            for i in 0..cells.input_len() {
                let (policy, rung) = cell(i);
                let scenario = AttackScenario::colluding(&set, d).with_strategy(rung);
                let want = fresh.compute(scenario, dep, policy);
                assert_outcomes_match(
                    fused.outcome(i),
                    want,
                    &graph,
                    &format!("cell {i} ({policy}, {rung}), set={set:?}, {ctx}"),
                );
                assert_eq!(
                    fused.count_happy(i),
                    want.count_happy(),
                    "happy mismatch at cell {i}, set={set:?}, {ctx}"
                );
                last.push((fused.outcome(i).clone(), fused.count_happy(i)));
            }
        }
        let (after, fafter) = (fused.delta_stats(), fused.stats());
        let direct = count >= 1 && !read_at(0);
        let built = count >= 2 || (0..=count).any(read_at);
        let groups = base_groups(&policies, dep);
        assert_eq!(
            fafter.direct_attacks - fbefore.direct_attacks,
            usize::from(direct) * computations,
            "fused direct attacks, {ctx}"
        );
        assert_eq!(
            after.direct_attacks - before.direct_attacks,
            usize::from(direct) * computations,
            "per-computation direct attacks, {ctx}"
        );
        assert_eq!(
            after.base_computes - before.base_computes,
            usize::from(built) * groups,
            "base computes, {ctx}"
        );
        assert_eq!(
            fafter.shared_bases - fbefore.shared_bases,
            usize::from(built) * (computations - groups),
            "shared bases, {ctx}"
        );
        assert_eq!(
            after.attacks() - before.attacks(),
            count * computations,
            "attacks, {ctx}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The deferred bases of the fused engine: 0, 1, 2 and k attacks per
    /// `begin`, with normal reads before, between and after them (the
    /// random read pattern plus never and always).
    #[test]
    fn fused_deferred_bases_match_fresh_engine(args in (arb_instance(), any::<u8>())) {
        let (inst, reads) = args;
        for reads in [reads, 0, u8::MAX] {
            check_fused_deferred(&inst, reads);
        }
    }

    /// The incremental fused engine reproduces a solo delta engine per
    /// policy cell, every attacker from one shared snapshot.
    #[test]
    fn fused_delta_matches_solo_delta(inst in arb_instance()) {
        check_fused_delta(&inst);
    }

    /// Colluding sets through the fused `attack_set` match the solo
    /// engine's colluding outcomes per cell.
    #[test]
    fn fused_collusion_matches_solo_delta(inst in arb_instance()) {
        check_fused_collusion(&inst);
    }
}

/// A monotone three-step rollout over the synthetic tiers (empty →
/// Tier 1s full → Tier 1s + largest Tier 2s full).
fn rollout_steps(net: &Internet) -> Vec<Deployment> {
    let t1 = net.tiers.tier1();
    let t2 = net.tiers.tier2();
    let step1 = Deployment::full_from_iter(net.len(), t1.iter().copied());
    let step2 =
        Deployment::full_from_iter(net.len(), t1.iter().chain(&t2[..t2.len().min(5)]).copied());
    vec![Deployment::empty(net.len()), step1, step2]
}

/// The fused destination-major runners are bit-identical across thread
/// counts and to their single-cell counterparts — the exactness contract
/// the experiment drivers rely on when they group a whole grid onto one
/// fused engine per worker.
#[test]
fn fused_runners_are_bit_identical_across_thread_counts() {
    let net = Internet::synthetic(300, 9);
    let attackers = sample::sample_non_stubs(&net, 5, 21);
    let dests: Vec<AsId> = sample::sample_all(&net, 7, 22)
        .into_iter()
        .filter(|d| !attackers.contains(d))
        .collect();
    let pairs = sample::pairs(&attackers, &dests);
    let deployments = rollout_steps(&net);
    let (policies, rungs) = (grid_policies(), grid_rungs());
    let cells = CellSet::grid(&policies, &rungs);
    let parallelisms = [
        Parallelism::sequential(),
        Parallelism(2),
        Parallelism::auto(),
    ];

    // One cell of the grid, alone, along `deps`.
    let one_cell = |i: usize, deps: &[Deployment]| {
        let (p, rung) = (i / rungs.len(), rungs[i % rungs.len()]);
        let cell = CellSet::per_policy(&[policies[p]], rung);
        simsweep::metric_sweep_cells(&net, &pairs, deps, &cell, Parallelism::sequential())
            .swap_remove(0)
    };

    for dep in &deployments {
        let step = std::slice::from_ref(dep);
        let first = |row: Vec<Bounds>| row[0];
        let reference: Vec<Bounds> =
            simsweep::metric_sweep_cells(&net, &pairs, step, &cells, Parallelism::sequential())
                .into_iter()
                .map(first)
                .collect();
        assert_eq!(reference.len(), cells.input_len());
        // Across thread counts: bit-identical, not approximately equal.
        for par in parallelisms {
            let got: Vec<Bounds> = simsweep::metric_sweep_cells(&net, &pairs, step, &cells, par)
                .into_iter()
                .map(first)
                .collect();
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    g.lower.to_bits(),
                    r.lower.to_bits(),
                    "cell {i} lower @ {par:?}"
                );
                assert_eq!(
                    g.upper.to_bits(),
                    r.upper.to_bits(),
                    "cell {i} upper @ {par:?}"
                );
            }
        }
        // Against one-cell runs, cell by cell.
        for (i, r) in reference.iter().enumerate() {
            let solo = one_cell(i, step)[0];
            assert_eq!(
                solo.lower.to_bits(),
                r.lower.to_bits(),
                "solo cell {i} lower"
            );
            assert_eq!(
                solo.upper.to_bits(),
                r.upper.to_bits(),
                "solo cell {i} upper"
            );
        }
    }

    let reference = simsweep::metric_sweep_cells(
        &net,
        &pairs,
        &deployments,
        &cells,
        Parallelism::sequential(),
    );
    assert_eq!(reference.len(), cells.input_len());
    for par in parallelisms {
        let got = simsweep::metric_sweep_cells(&net, &pairs, &deployments, &cells, par);
        for (i, (grow, rrow)) in got.iter().zip(&reference).enumerate() {
            for (k, (g, r)) in grow.iter().zip(rrow).enumerate() {
                assert_eq!(
                    g.lower.to_bits(),
                    r.lower.to_bits(),
                    "cell {i} step {k} lower @ {par:?}"
                );
                assert_eq!(
                    g.upper.to_bits(),
                    r.upper.to_bits(),
                    "cell {i} step {k} upper @ {par:?}"
                );
            }
        }
    }
    for (i, rrow) in reference.iter().enumerate() {
        let solo = one_cell(i, &deployments);
        assert_eq!(solo.len(), rrow.len());
        for (k, (s, r)) in solo.iter().zip(rrow).enumerate() {
            assert_eq!(
                s.lower.to_bits(),
                r.lower.to_bits(),
                "solo cell {i} step {k} lower"
            );
            assert_eq!(
                s.upper.to_bits(),
                r.upper.to_bits(),
                "solo cell {i} step {k} upper"
            );
        }
    }
}

/// A four-AS chain (0 ← 1 ← 2 ← 3, providers first) for the panic tests.
fn chain() -> AsGraph {
    graph_from_codes(4, &[5, 0, 0, 5, 0, 5])
}

fn chain_engine(graph: &AsGraph) -> FusedDeltaEngine<'_> {
    let policies: Vec<Policy> = SecurityModel::ALL.map(Policy::new).to_vec();
    FusedDeltaEngine::new(
        graph,
        CellSet::per_policy(&policies, AttackStrategy::FakeLink),
    )
}

#[test]
#[should_panic(expected = "FusedDeltaEngine::begin not called")]
fn fused_attack_before_begin_panics() {
    let graph = chain();
    chain_engine(&graph).attack(AsId(1));
}

#[test]
#[should_panic(expected = "attacker cannot be the destination")]
fn fused_attacking_the_destination_panics_while_the_bases_are_deferred() {
    let graph = chain();
    let mut fused = chain_engine(&graph);
    fused.begin(AsId(0), &Deployment::empty(4));
    fused.attack(AsId(0));
}

#[test]
#[should_panic(expected = "attacker cannot be the destination")]
fn fused_attacking_the_destination_panics_after_a_direct_attack() {
    let graph = chain();
    let mut fused = chain_engine(&graph);
    fused.begin(AsId(0), &Deployment::empty(4));
    fused.attack(AsId(3));
    fused.attack(AsId(0));
}

/// A fused estimator worker that adds its engine's cumulative counters to
/// a shared tally when the estimator drops it.
struct Tallied<'g, 't> {
    fused: FusedDeltaEngine<'g>,
    tally: &'t std::sync::Mutex<(DeltaStats, FusedStats)>,
}

impl Drop for Tallied<'_, '_> {
    fn drop(&mut self) {
        // A poisoned tally is left alone (a panic in `drop` would abort);
        // the counter assertions then fail on their own.
        let Ok(mut tally) = self.tally.lock() else {
            return;
        };
        tally.0.merge(&self.fused.delta_stats());
        let s = self.fused.stats();
        tally.1.begins += s.begins;
        tally.1.direct_attacks += s.direct_attacks;
        tally.1.shared_bases += s.shared_bases;
    }
}

/// Model collapse, pinned by its counters. With no validators the
/// 3-model × 3-variant grid runs one computation per LP variant, so every
/// begin collapses the other 6 lanes onto them; with Tier-1 validators
/// nothing collapses. Attacks leave the count alone.
#[test]
fn model_collapse_counters_are_exact() {
    let net = Internet::synthetic(300, 9);
    let attackers = sample::sample_non_stubs(&net, 3, 21);
    let dests: Vec<AsId> = sample::sample_all(&net, 5, 22)
        .into_iter()
        .filter(|d| !attackers.contains(d))
        .collect();
    let policies: Vec<Policy> = SecurityModel::ALL
        .iter()
        .flat_map(|&m| {
            [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf]
                .map(|v| Policy::with_variant(m, v))
        })
        .collect();
    let cells = CellSet::per_policy(&policies, AttackStrategy::FakeLink);
    let lanes = cells.lanes().len();
    assert_eq!(lanes, 9);
    let validators = Deployment::full_from_iter(net.len(), net.tiers.tier1().iter().copied());
    for (dep, computations, collapsed_per_begin) in
        [(Deployment::empty(net.len()), 3, 6), (validators, 9, 0)]
    {
        let mut fused = FusedDeltaEngine::new(&net.graph, cells.clone());
        for &d in &dests {
            fused.begin(d, &dep);
            assert_eq!(fused.computations(), computations);
            for &m in &attackers {
                fused.attack(m);
            }
        }
        let stats = fused.stats();
        assert_eq!(stats.begins, dests.len());
        assert_eq!(
            stats.collapsed_lanes,
            stats.begins * (lanes - fused.computations()),
            "{} validators",
            dep.full_count()
        );
        assert_eq!(stats.collapsed_lanes, stats.begins * collapsed_per_begin);
    }
}

/// The traffic assumption the deferred base rests on, pinned by counters.
/// One attacker against many destinations makes every destination group
/// of an estimator cell a singleton: no base is ever built, and each pair
/// costs one direct compute per computation. The estimates are
/// bit-identical to an eager-base run of the same cell, which computes
/// one base per group and policy group.
#[test]
fn singleton_estimator_groups_never_build_a_base() {
    let net = Internet::synthetic(300, 9);
    let m = sample::sample_non_stubs(&net, 1, 5)[0];
    let dests: Vec<AsId> = net.graph.ases().filter(|&d| d != m).collect();
    let universe = stats::PairUniverse::new(&net, &[m], &dests);
    let policies: Vec<Policy> = SecurityModel::ALL.map(Policy::new).to_vec();
    let cells = CellSet::per_policy(&policies, AttackStrategy::FakeLink);
    let sources = (net.len() - 2) as f64;
    let validators = Deployment::full_from_iter(net.len(), net.tiers.tier1().iter().copied());
    for (dep, computations) in [(Deployment::empty(net.len()), 1), (validators, 3)] {
        let mut results = Vec::new();
        for eager in [false, true] {
            let tally = std::sync::Mutex::new((DeltaStats::default(), FusedStats::default()));
            let runs = stats::estimate_adaptive_cells(
                &universe,
                &stats::EstimatorConfig::with_budget(96, 7),
                &[1; 3],
                Parallelism(2),
                || Tallied {
                    fused: FusedDeltaEngine::new(&net.graph, cells.clone()),
                    tally: &tally,
                },
                |w, d| {
                    if eager {
                        w.fused.begin_with_bases(d, &dep, |_| None);
                    } else {
                        w.fused.begin(d, &dep);
                    }
                },
                |w, m, _d, emit| {
                    w.fused.attack(m);
                    for c in 0..3 {
                        let (lower, upper) = w.fused.count_happy(c);
                        emit(
                            c,
                            0,
                            Bounds {
                                lower: lower as f64 / sources,
                                upper: upper as f64 / sources,
                            },
                        );
                    }
                },
            );
            let (delta, fstats) = tally.into_inner().expect("tally lock");
            let pairs = runs[0].sampled.len();
            assert_eq!(pairs, 96);
            assert_eq!(fstats.begins, pairs, "every group is a singleton");
            if eager {
                assert_eq!(
                    delta.base_computes,
                    pairs * computations,
                    "eager, {} validators",
                    dep.full_count()
                );
                assert_eq!(delta.direct_attacks, 0);
            } else {
                assert_eq!(delta.base_computes, 0, "deferred: no base is ever built");
                assert_eq!(fstats.shared_bases, 0);
                assert_eq!(delta.direct_attacks, pairs * computations);
                assert_eq!(fstats.direct_attacks, pairs * computations);
                assert_eq!(delta.full_recomputes, delta.direct_attacks);
                assert_eq!(delta.attacks(), pairs * computations);
            }
            results.push(runs);
        }
        for (c, (deferred, eager)) in results[0].iter().zip(&results[1]).enumerate() {
            let (a, b) = (&deferred.estimates[0].value, &eager.estimates[0].value);
            assert_eq!(a.lower.to_bits(), b.lower.to_bits(), "cell {c} lower");
            assert_eq!(a.upper.to_bits(), b.upper.to_bits(), "cell {c} upper");
        }
    }
}

/// The planner's exact path (`begin_with_bases`, then `export_bases`
/// before any attack) keeps its eager cost: with two attackers per
/// destination it computes one base per destination and policy group and
/// serves no attack directly, and a plain deferred `begin` builds the
/// same number of bases on the second attacker.
#[test]
fn planner_exact_path_keeps_its_base_computes() {
    let net = Internet::synthetic(300, 9);
    let attackers = sample::sample_non_stubs(&net, 2, 31);
    let dests: Vec<AsId> = sample::sample_all(&net, 6, 32)
        .into_iter()
        .filter(|d| !attackers.contains(d))
        .collect();
    let (policies, rungs) = (grid_policies(), grid_rungs());
    let cells = CellSet::grid(&policies, &rungs);
    let validators = Deployment::full_from_iter(net.len(), net.tiers.tier1().iter().copied());
    for dep in [Deployment::empty(net.len()), validators] {
        let groups = base_groups(&policies, &dep);
        let mut exact = FusedDeltaEngine::new(&net.graph, cells.clone());
        let mut deferred = FusedDeltaEngine::new(&net.graph, cells.clone());
        for &d in &dests {
            exact.begin_with_bases(d, &dep, |_| None);
            assert_eq!(exact.export_bases().count(), groups);
            deferred.begin(d, &dep);
            for &m in &attackers {
                exact.attack(m);
                deferred.attack(m);
                for i in 0..cells.input_len() {
                    assert_eq!(exact.count_happy(i), deferred.count_happy(i), "cell {i}");
                }
            }
        }
        let (e, f) = (exact.delta_stats(), deferred.delta_stats());
        assert_eq!(
            e.base_computes,
            dests.len() * groups,
            "{} validators",
            dep.full_count()
        );
        assert_eq!(e.direct_attacks, 0);
        assert_eq!(f.base_computes, e.base_computes);
        assert_eq!(
            f.direct_attacks,
            dests.len() * exact.computations(),
            "one direct attack per destination and computation"
        );
    }
}
