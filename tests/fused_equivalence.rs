//! The fused multi-cell equivalence property suite: on random
//! valley-free graphs, [`FusedDeltaEngine`] serving a whole policy grid in
//! the incremental attacker loop must reproduce a dedicated per-cell
//! computation **bit for bit** (route class, length, flags, representative
//! next hop, and happy bounds) for every input cell of the grid: all three
//! security models, the `LP2`/`LPinf` variants, the full `FakePath` ladder
//! plus the duplicate `FakeLink`/`OriginHijack` spellings, and colluding
//! announcer sets via [`FusedDeltaEngine::attack_set`]. It must also take
//! the same serving path (patch, fallback, base build) as one solo
//! [`AttackDeltaEngine`] per distinct computation, counter for counter. `tests/delta_equivalence.rs` pins the solo
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
                s.refixed_ases,
                s.grow_rounds,
                s.base_computes + s.adopted_bases,
            ]
        };
        assert_eq!(
            fields(&got),
            fields(&want),
            "[delta, full, refixed, grow, bases] counters, {ctx}"
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
fn fused_attacking_the_destination_panics() {
    let graph = chain();
    let mut fused = chain_engine(&graph);
    fused.begin(AsId(0), &Deployment::empty(4));
    fused.attack(AsId(0));
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
