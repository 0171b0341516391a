//! The attacker-delta engine: amortize the destination-rooted side of the
//! routing computation across **all attackers** of a `(d, S, policy)` cell.
//!
//! Every experiment in the paper averages `H_{M,D}(S)` over attacker ×
//! destination pairs (§4.1), and the two-rooted `Fix-Routes` run is
//! `O(V + E)` per pair — even though, for a fixed destination, deployment
//! and policy, the destination-rooted side is byte-identical across all
//! attackers in `M`. [`AttackDeltaEngine`] computes the **normal-conditions
//! outcome once** (no attacker) as its base, and then evaluates each
//! attacker `m` by re-fixing only the *contested region*: the ASes whose
//! fixed route the forged announcement (a `k`-hop
//! [`AttackStrategy::FakePath`], of which the paper's `"m, d"` fake link
//! is `k = 1`) can actually tie or beat under the model's preference
//! order. The region is seeded by a cheap forward scan of the base (no
//! solving) and then served by the patch core the deployment-axis
//! [`crate::SweepEngine`] shares (crate-private `region`, which documents
//! the local-consistency argument, the undo invariant and the
//! adjacency-mass budget past which an attack is computed fresh). Served
//! attacks never become the base: the next attack undoes the last one's
//! region.
//!
//! **Colluding announcers.** [`AttackDeltaEngine::attack_set`] serves a
//! whole announcer set at once: the contested region is seeded as the
//! *multi-root* union of every colluder's ball (the forward scan starts
//! from all roots simultaneously, so an AS is marked the first time any
//! root's offer can reach it competitively), and all roots are re-fixed in
//! the solve — a colluding patch costs one region solve, not one per
//! member.
//!
//! **Where it pays.** The base costs one compute, so the engine wins only
//! when a cell serves several attackers whose contested regions stay small
//! — or when the base is adopted rather than computed
//! ([`AttackDeltaEngine::begin_from_base`], the planner's cache). A cell
//! with a single attacker (the common case under random `(m, d)`
//! sampling) is cheaper as one plain [`crate::Engine::compute`], which is
//! what the estimators run.
//! `tests/delta_equivalence.rs` pins outcome-for-outcome agreement with
//! fresh computes across all three security models, the `LP2`/`LPinf`
//! variants and both attack kinds.
//!
//! This is the **attacker axis** of the two-axis amortization hierarchy.
//! How heavy an attacker patch is depends on how far the bogus
//! announcement out-competes the truth: measured on the 4000-AS synthetic
//! graph, a fake-link attack by a non-stub against a *random* destination
//! changes ~40% of all ASes (~20% structurally; the rest is root-flag
//! contamination flowing down intact subtrees), while attacks against
//! destinations the deployment actually protects contest far less.
//! `sbgp-sim` therefore composes the axes destination-major with the
//! *deployment* axis innermost — `for d → for m (the first step: a plain
//! compute, or a patch off an attached base) → for S_k (sweep the
//! remaining steps)` — because between adjacent `S` steps the bogus
//! spread is shared state ([`crate::SweepEngine::begin_from`] adopts the
//! first step's outcome), whereas re-patching each attacker into every
//! step would pay the contested ball `|S|` times.

use sbgp_topology::{AsGraph, AsId};

use crate::attack::{AttackScenario, AttackStrategy};
use crate::deployment::Deployment;
use crate::outcome::Outcome;
use crate::policy::{preference_key, Policy};
use crate::region::{self, PatchCore, Region};
use crate::sweep::SweepEngine;

/// Contested-ball scan state: the AS already propagated the bogus offer to
/// every neighbor (customer-class receipt exports everywhere)...
const SCAN_WIDE: u8 = 1;
/// ...or at least to its customers (peer/provider-class receipt).
const SCAN_DOWN: u8 = 2;

/// How the attacks of a delta engine were served (cumulative across
/// [`AttackDeltaEngine::begin`] calls).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Normal-conditions base outcomes computed.
    pub base_computes: usize,
    /// Base outcomes adopted from an external computation (the
    /// deployment-sweep composition path).
    pub adopted_bases: usize,
    /// Attacks served by contested-region re-fixing.
    pub delta_attacks: usize,
    /// Attacks served by a full [`crate::Engine::compute`] after a region
    /// blow-up.
    pub full_recomputes: usize,
    /// Total ASes re-fixed across all delta-served attacks (final region
    /// sizes, stubs included).
    pub refixed_ases: usize,
    /// Frontier solves after the first round: verify steps that absorbed a
    /// core AS, each paid with a solve of only the absorbed frontier
    /// (stub-only absorption is resolved in place and costs no round).
    pub grow_rounds: usize,
}

impl DeltaStats {
    /// Total attacks served.
    pub fn attacks(&self) -> usize {
        self.delta_attacks + self.full_recomputes
    }

    /// Accumulate another engine's counters into this one.
    pub fn merge(&mut self, other: &DeltaStats) {
        // Destructured so that a new counter cannot be left out of the sum.
        let DeltaStats {
            base_computes,
            adopted_bases,
            delta_attacks,
            full_recomputes,
            refixed_ases,
            grow_rounds,
        } = *other;
        self.base_computes += base_computes;
        self.adopted_bases += adopted_bases;
        self.delta_attacks += delta_attacks;
        self.full_recomputes += full_recomputes;
        self.refixed_ases += refixed_ases;
        self.grow_rounds += grow_rounds;
    }
}

/// One cell's base state, exported by [`AttackDeltaEngine::export_base`]
/// for external caching (the planner service's normal-outcome cache) and
/// re-adopted by [`AttackDeltaEngine::begin_from_base`] without
/// recomputing anything.
#[derive(Clone, Debug)]
pub struct CachedBase {
    outcome: Outcome,
    normal_happy: (usize, usize),
}

impl CachedBase {
    /// The cached normal-conditions outcome.
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }

    /// The base of the same destination and `policy` at `to`, derived from
    /// this one — exported at `from` — by one [`SweepEngine::advance`] on
    /// `sweep`. Theorem 2.1 makes it the base
    /// [`AttackDeltaEngine::export_base`] gives after a fresh `begin` at
    /// `to`; its happy bounds are the sweep's incremental ones (no `O(V)`
    /// recount). A near `from` costs a region patch; a far one, whose
    /// region passes the advance's budget, costs one compute.
    pub fn advanced(
        &self,
        sweep: &mut SweepEngine,
        from: &Deployment,
        to: &Deployment,
        policy: Policy,
    ) -> CachedBase {
        let scenario = AttackScenario::normal(self.outcome.destination());
        sweep.begin_from(scenario, policy, from, &self.outcome, self.normal_happy);
        CachedBase {
            outcome: sweep.advance(to).clone(),
            normal_happy: sweep.count_happy(),
        }
    }
}

/// Incremental routing-outcome computer for all attackers of one
/// `(destination, deployment, policy)` cell.
///
/// Create one per worker thread and reuse it across cells:
/// [`AttackDeltaEngine::begin`] (or
/// [`AttackDeltaEngine::begin_from_normal`], when a [`crate::SweepEngine`]
/// already holds the normal-conditions outcome) fixes the cell, then each
/// [`AttackDeltaEngine::attack`] returns the exact stable outcome for one
/// attacker.
#[derive(Debug)]
pub struct AttackDeltaEngine<'g> {
    /// Its base is the normal-conditions outcome of the current cell.
    core: PatchCore<'g>,
    /// The current cell's deployment and policy.
    cell: Option<(Deployment, Policy)>,
    scan: Scan,
    stats: DeltaStats,
}

impl<'g> AttackDeltaEngine<'g> {
    /// Create a delta engine for `graph`.
    pub fn new(graph: &'g AsGraph) -> AttackDeltaEngine<'g> {
        AttackDeltaEngine {
            core: PatchCore::new(graph),
            cell: None,
            scan: Scan {
                state: vec![0; graph.len()],
                ..Scan::default()
            },
            stats: DeltaStats::default(),
        }
    }

    /// The topology this engine runs on.
    pub fn graph(&self) -> &'g AsGraph {
        self.core.graph()
    }

    /// Fix the `(destination, deployment, policy)` cell: compute its
    /// normal-conditions outcome, the base every attack is served against.
    /// Statistics keep accumulating across cells.
    pub fn begin(&mut self, destination: AsId, deployment: &Deployment, policy: Policy) {
        self.stats.base_computes += 1;
        self.core
            .compute(AttackScenario::normal(destination), deployment, policy);
        self.core.commit(None);
        self.cell = Some((deployment.clone(), policy));
    }

    /// Fix the cell from an externally computed normal-conditions outcome —
    /// typically a [`crate::SweepEngine`] mid-rollout, which is what lets
    /// the deployment and attacker amortization axes compose.
    ///
    /// # Panics
    ///
    /// Panics when `normal` has an attacker, or doesn't cover the graph.
    pub fn begin_from_normal(&mut self, normal: &Outcome, deployment: &Deployment, policy: Policy) {
        self.adopt(normal, normal.count_happy(), deployment, policy);
    }

    /// Export the current cell's base state for external caching: the
    /// normal-conditions outcome and its happy bounds. Re-anchoring
    /// through [`AttackDeltaEngine::begin_from_base`] then skips the route
    /// computation and the happy-bound count.
    ///
    /// The export is only valid for the exact
    /// `(destination, deployment, policy)` cell it was taken from; the
    /// engine cannot verify that from the outcome alone, so callers key
    /// their caches on the full cell identity (the planner service
    /// compares the deployment's member lists).
    pub fn export_base(&self) -> CachedBase {
        CachedBase {
            outcome: self.core.base().clone(),
            normal_happy: self.core.base_happy(),
        }
    }

    /// Fix the cell from a [`CachedBase`] exported earlier for the same
    /// `(destination, deployment, policy)` cell. Unlike
    /// [`AttackDeltaEngine::begin_from_normal`] this skips the `O(V)`
    /// happy-bound count, so a cache hit costs two outcome copies.
    ///
    /// # Panics
    ///
    /// Panics when the base carries an attacker or doesn't cover the
    /// graph. A base exported from a *different* deployment or policy is
    /// undetectable here and would corrupt results — the cell-identity
    /// contract is the caller's (see [`AttackDeltaEngine::export_base`]).
    pub fn begin_from_base(&mut self, base: &CachedBase, deployment: &Deployment, policy: Policy) {
        self.adopt(&base.outcome, base.normal_happy, deployment, policy);
    }

    /// Adopt `normal`, whose happy bounds are `happy`, as the cell's base.
    fn adopt(
        &mut self,
        normal: &Outcome,
        happy: (usize, usize),
        deployment: &Deployment,
        policy: Policy,
    ) {
        assert!(
            normal.attacker().is_none(),
            "base outcome must be normal conditions"
        );
        assert_eq!(normal.len(), self.graph().len(), "outcome/graph mismatch");
        self.stats.adopted_bases += 1;
        self.core.adopt(normal, happy);
        self.cell = Some((deployment.clone(), policy));
    }

    /// The outcome of the last served attack, identical to what
    /// [`AttackDeltaEngine::attack`] returned, re-borrowable immutably.
    /// Before a cell's first attack it is the normal-conditions outcome.
    pub fn last_outcome(&self) -> &Outcome {
        self.core.outcome()
    }

    /// The normal-conditions outcome of the current cell.
    pub fn normal_outcome(&self) -> &Outcome {
        self.core.base()
    }

    /// Happy bounds of the normal-conditions outcome.
    pub fn normal_happy(&self) -> (usize, usize) {
        self.core.base_happy()
    }

    /// Happy-source tie-break bounds of the last served attack, identical
    /// to [`Outcome::count_happy`] but patched incrementally (same
    /// before-the-first-attack rule as [`AttackDeltaEngine::last_outcome`]).
    pub fn count_happy(&self) -> (usize, usize) {
        self.core.happy()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Compute the exact stable outcome for `attacker` announcing
    /// `strategy` against the cell's destination. The returned outcome is
    /// valid until the next `attack`/`begin*` call.
    ///
    /// # Panics
    ///
    /// Panics before [`AttackDeltaEngine::begin`] /
    /// [`AttackDeltaEngine::begin_from_normal`], or when `attacker` is the
    /// destination.
    pub fn attack(&mut self, attacker: AsId, strategy: AttackStrategy) -> &Outcome {
        self.attack_set(&[attacker], strategy)
    }

    /// As [`AttackDeltaEngine::attack`], for a set of colluding announcers
    /// flooding the same-shaped forged announcement simultaneously. The
    /// contested region is seeded from **all** roots and solved once.
    ///
    /// # Panics
    ///
    /// Panics before `begin*`, or when `attackers` violates
    /// [`AttackScenario::colluding`]'s preconditions (empty, more than
    /// [`crate::MAX_ATTACKERS`], duplicates, or containing the
    /// destination).
    pub fn attack_set(&mut self, attackers: &[AsId], strategy: AttackStrategy) -> &Outcome {
        let (deployment, policy) = self
            .cell
            .as_ref()
            .expect("AttackDeltaEngine::begin not called");
        let scenario = AttackScenario::colluding(attackers, self.core.base().destination())
            .with_strategy(strategy);
        // Discover the contested ball in one cheap forward scan of the
        // base, so the first solve already covers it: growing it hop by hop
        // through the verify step would cost one frontier round (a solve
        // and a verify) per hop of the bogus announcement's reach. An
        // over-budget ball is computed fresh before any undo or solve work
        // is spent on it.
        let graph = self.core.graph();
        let (base, region) = self.core.seed();
        let mass = self
            .scan
            .seed(graph, base, scenario, deployment, *policy, region);
        let served = self.core.serve(scenario, deployment, *policy, mass);
        self.stats.grow_rounds += served.grow_rounds;
        match served.refixed {
            Some(refixed) => {
                self.stats.delta_attacks += 1;
                self.stats.refixed_ases += refixed;
            }
            None => self.stats.full_recomputes += 1,
        }
        self.core.outcome()
    }
}

/// Contested-ball scan scratch, reused across attacks: per-AS export bits
/// (`SCAN_WIDE`/`SCAN_DOWN`), their undo list and the two BFS frontiers.
#[derive(Debug, Default)]
struct Scan {
    state: Vec<u8>,
    touched: Vec<u32>,
    cur: Vec<(u32, u8)>,
    next: Vec<(u32, u8)>,
}

impl Scan {
    /// Seed the cleared `region` with the announcer roots and the
    /// *contested ball*: every AS the bogus announcement can reach along
    /// export-legal paths while tying or beating its route in `base` at
    /// each hop, found by a breadth-first scan in bogus-path-length order.
    /// An AS whose route strictly beats the offer neither adopts nor
    /// re-exports it, so the scan prunes there; an AS without a route never
    /// prunes. Customer-class receipt re-exports everywhere, peer/provider-
    /// class receipt only to customers (Ex). With colluding announcers,
    /// every root contributes its neighbors to the initial frontier (the
    /// announcers share one claimed depth, so the levels stay aligned) and
    /// the scan discovers the union ball in one pass. This is purely a
    /// performance seeding — the verify-and-grow loop would find the same
    /// ASes one hop per round — so its filter does not need to be tight in
    /// either direction. Returns the region's adjacency mass (the sum of
    /// its members' degrees); the scan stops early once that exceeds the
    /// budget (the attack is then computed fresh).
    fn seed(
        &mut self,
        graph: &AsGraph,
        base: &Outcome,
        scenario: AttackScenario,
        deployment: &Deployment,
        policy: Policy,
        region: &mut Region,
    ) -> usize {
        let budget = region::mass_budget(graph);
        let d = scenario.destination;
        let mut mass = 0;

        // Each announcer's origin announcement exports to every neighbor.
        for m in scenario.attackers() {
            region.insert(m);
            mass += graph.degree(m);
            for &u in graph.providers(m) {
                self.next.push((u.0, 0));
            }
            for &u in graph.peers(m) {
                self.next.push((u.0, 1));
            }
            for &u in graph.customers(m) {
                self.next.push((u.0, 2));
            }
        }
        let mut len = scenario.strategy.root_depth() + 1;
        'scan: while !self.next.is_empty() {
            std::mem::swap(&mut self.cur, &mut self.next);
            // All offers of a level share the same bogus-path length, so
            // only six distinct offer keys exist per level.
            let mut level_keys = [[(0, 0, 0); 3]; 2];
            for (validating, keys) in level_keys.iter_mut().enumerate() {
                for (rank, key) in keys.iter_mut().enumerate() {
                    *key = preference_key(policy, validating == 1, rank as u8, len, false);
                }
            }
            for k in 0..self.cur.len() {
                if mass > budget {
                    // Over budget mid-level: the attack will be computed
                    // fresh, so every further mark is wasted work.
                    break 'scan;
                }
                let (ui, rank) = self.cur[k];
                let u = AsId(ui);
                if u == d || scenario.is_attacker(u) {
                    continue;
                }
                let validating = deployment.validates(u);
                let offer = level_keys[usize::from(validating)][rank as usize];
                if region::current_key(base, u, policy, validating).is_some_and(|key| offer > key) {
                    continue;
                }
                if region.insert(u) {
                    mass += graph.degree(u);
                }
                let st = self.state[u.index()];
                if st == 0 {
                    self.touched.push(ui);
                }
                if rank == 0 && st & SCAN_WIDE == 0 {
                    self.state[u.index()] |= SCAN_WIDE | SCAN_DOWN;
                    for &p in graph.providers(u) {
                        self.next.push((p.0, 0));
                    }
                    for &q in graph.peers(u) {
                        self.next.push((q.0, 1));
                    }
                    if st & SCAN_DOWN == 0 {
                        for &c in graph.customers(u) {
                            self.next.push((c.0, 2));
                        }
                    }
                } else if rank != 0 && st & SCAN_DOWN == 0 {
                    self.state[u.index()] |= SCAN_DOWN;
                    for &c in graph.customers(u) {
                        self.next.push((c.0, 2));
                    }
                }
            }
            self.cur.clear();
            len += 1;
        }
        // An over-budget break can leave entries in either frontier.
        self.cur.clear();
        self.next.clear();
        for &x in &self.touched {
            self.state[x as usize] = 0;
        }
        self.touched.clear();
        mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::policy::SecurityModel;
    use sbgp_topology::GraphBuilder;

    /// The Figure 2 downgrade gadget plus a second provider chain.
    fn gadget() -> AsGraph {
        let mut b = GraphBuilder::new(8);
        b.add_provider(AsId(1), AsId(0)).unwrap();
        b.add_peering(AsId(1), AsId(2)).unwrap();
        b.add_peering(AsId(0), AsId(2)).unwrap();
        b.add_provider(AsId(3), AsId(2)).unwrap();
        b.add_provider(AsId(4), AsId(3)).unwrap();
        b.add_provider(AsId(5), AsId(0)).unwrap();
        b.add_provider(AsId(6), AsId(5)).unwrap();
        b.add_provider(AsId(7), AsId(6)).unwrap();
        b.build()
    }

    fn assert_outcomes_match(got: &Outcome, want: &Outcome, graph: &AsGraph, ctx: &str) {
        for v in graph.ases() {
            assert_eq!(got.route(v), want.route(v), "{ctx}: route at {v}");
            assert_eq!(got.next_hop(v), want.next_hop(v), "{ctx}: next hop at {v}");
        }
        assert_eq!(got.attacker(), want.attacker(), "{ctx}: attacker");
    }

    #[test]
    fn every_attacker_matches_a_fresh_compute() {
        let g = gadget();
        let dep = Deployment::full_from_iter(8, [AsId(0), AsId(1), AsId(2)]);
        for model in SecurityModel::ALL {
            let policy = Policy::new(model);
            let mut delta = AttackDeltaEngine::new(&g);
            let mut fresh = Engine::new(&g);
            delta.begin(AsId(0), &dep, policy);
            for m in 1..8u32 {
                let m = AsId(m);
                for strategy in [AttackStrategy::FakeLink, AttackStrategy::OriginHijack] {
                    let got = delta.attack(m, strategy);
                    let mut scenario = AttackScenario::attack(m, AsId(0));
                    scenario.strategy = strategy;
                    let want = fresh.compute(scenario, &dep, policy);
                    assert_outcomes_match(got, want, &g, &format!("{policy} m={m}"));
                    assert_eq!(
                        delta.count_happy(),
                        want.count_happy(),
                        "{policy} m={m} {strategy:?}: happy bounds"
                    );
                }
            }
            assert!(delta.stats().delta_attacks >= 1, "{policy}");
        }
    }

    #[test]
    fn normal_outcome_is_preserved_across_attacks() {
        let g = gadget();
        let dep = Deployment::full_from_iter(8, [AsId(0), AsId(1)]);
        let policy = Policy::new(SecurityModel::Security2nd);
        let mut delta = AttackDeltaEngine::new(&g);
        let mut fresh = Engine::new(&g);
        delta.begin(AsId(0), &dep, policy);
        let want_normal = fresh.compute(AttackScenario::normal(AsId(0)), &dep, policy);
        assert_outcomes_match(delta.normal_outcome(), want_normal, &g, "before attacks");
        for m in [4u32, 7, 3, 4] {
            delta.attack(AsId(m), AttackStrategy::FakeLink);
        }
        assert_outcomes_match(delta.normal_outcome(), want_normal, &g, "after attacks");
        assert_eq!(delta.normal_happy(), want_normal.count_happy());
    }

    #[test]
    fn cells_can_be_switched_on_one_engine() {
        let g = gadget();
        let policy = Policy::new(SecurityModel::Security1st);
        let deps = [
            Deployment::empty(8),
            Deployment::full_from_iter(8, [AsId(0), AsId(1), AsId(2), AsId(5)]),
        ];
        let mut delta = AttackDeltaEngine::new(&g);
        let mut fresh = Engine::new(&g);
        for dep in &deps {
            for d in [AsId(0), AsId(2)] {
                delta.begin(d, dep, policy);
                for m in 0..8u32 {
                    let m = AsId(m);
                    if m == d {
                        continue;
                    }
                    let got = delta.attack(m, AttackStrategy::FakeLink);
                    let want = fresh.compute(AttackScenario::attack(m, d), dep, policy);
                    assert_outcomes_match(got, want, &g, &format!("d={d} m={m}"));
                    assert_eq!(delta.count_happy(), want.count_happy(), "d={d} m={m}");
                }
            }
        }
    }

    #[test]
    fn island_behind_the_attacker_is_absorbed() {
        // 0 = d with customer 1; {2, 3} form an island reachable only via
        // the attacker 2: under normal conditions 2 and 3 are unreachable,
        // under attack they route to m. Exercises the fix-log absorption.
        let mut b = GraphBuilder::new(4);
        b.add_provider(AsId(1), AsId(0)).unwrap();
        b.add_provider(AsId(3), AsId(2)).unwrap();
        let g = b.build();
        let dep = Deployment::empty(4);
        let policy = Policy::new(SecurityModel::Security3rd);
        let mut delta = AttackDeltaEngine::new(&g);
        let mut fresh = Engine::new(&g);
        delta.begin(AsId(0), &dep, policy);
        assert!(delta.normal_outcome().route(AsId(3)).is_none());
        let got = delta.attack(AsId(2), AttackStrategy::FakeLink);
        let want = fresh.compute(AttackScenario::attack(AsId(2), AsId(0)), &dep, policy);
        assert_outcomes_match(got, want, &g, "island");
        assert!(got.flags(AsId(3)).surely_unhappy());
        assert_eq!(delta.count_happy(), want.count_happy());
        // And the island must be undone for the next attacker.
        let got = delta.attack(AsId(1), AttackStrategy::FakeLink);
        assert!(got.route(AsId(3)).is_none(), "island write leaked");
    }

    #[test]
    fn colluding_sets_match_fresh_computes() {
        let g = gadget();
        let dep = Deployment::full_from_iter(8, [AsId(0), AsId(1)]);
        let sets: [&[AsId]; 3] = [
            &[AsId(4), AsId(7)],
            &[AsId(3), AsId(6), AsId(1)],
            &[AsId(2)],
        ];
        for model in SecurityModel::ALL {
            let policy = Policy::new(model);
            let mut delta = AttackDeltaEngine::new(&g);
            let mut fresh = Engine::new(&g);
            delta.begin(AsId(0), &dep, policy);
            for set in sets {
                for strategy in [
                    AttackStrategy::FakeLink,
                    AttackStrategy::FakePath { hops: 0 },
                    AttackStrategy::FakePath { hops: 2 },
                ] {
                    let got = delta.attack_set(set, strategy);
                    let scenario = AttackScenario::colluding(set, AsId(0)).with_strategy(strategy);
                    let want = fresh.compute(scenario, &dep, policy);
                    let ctx = format!("{policy} set={set:?} {strategy:?}");
                    assert_outcomes_match(got, want, &g, &ctx);
                    assert_eq!(
                        got.attackers().collect::<Vec<_>>(),
                        set.to_vec(),
                        "{ctx}: announcer set"
                    );
                    assert_eq!(delta.count_happy(), want.count_happy(), "{ctx}: happy");
                }
            }
            // The undo after a colluding patch must leave the snapshot
            // intact for the next (single-attacker) patch.
            let got = delta.attack(AsId(5), AttackStrategy::FakeLink);
            let want = fresh.compute(AttackScenario::attack(AsId(5), AsId(0)), &dep, policy);
            assert_outcomes_match(got, want, &g, &format!("{policy} after collusion"));
        }
    }

    #[test]
    fn stub_only_growth_costs_no_grow_round() {
        // d(0) is the provider of c(1); the attacker m(2) and s(3) are c's
        // customers. c swaps its 1-hop provider route for m's customer
        // route, which the contested-ball scan finds; s, whose provider
        // route through c is now longer, is not in the ball, so the
        // verify step absorbs it. As a stub, s is resolved in place with
        // no second solve; once s has a customer x(4), it is core and
        // costs exactly one grow round. ASes from 5 on form a filler
        // chain that keeps the patch under the mass budget.
        for (core, rounds, refixed) in [(false, 0, 3), (true, 1, 4)] {
            let mut b = GraphBuilder::new(24);
            b.add_provider(AsId(1), AsId(0)).unwrap();
            b.add_provider(AsId(2), AsId(1)).unwrap();
            b.add_provider(AsId(3), AsId(1)).unwrap();
            if core {
                b.add_provider(AsId(4), AsId(3)).unwrap();
            }
            for i in 6..24u32 {
                b.add_provider(AsId(i), AsId(i - 1)).unwrap();
            }
            let g = b.build();
            let dep = Deployment::empty(24);
            for model in SecurityModel::ALL {
                let policy = Policy::new(model);
                let ctx = format!("{policy} core={core}");
                let mut delta = AttackDeltaEngine::new(&g);
                let mut fresh = Engine::new(&g);
                delta.begin(AsId(0), &dep, policy);
                let got = delta.attack(AsId(2), AttackStrategy::FakeLink);
                let want = fresh.compute(AttackScenario::attack(AsId(2), AsId(0)), &dep, policy);
                assert_outcomes_match(got, want, &g, &ctx);
                assert!(got.flags(AsId(3)).surely_unhappy(), "{ctx}");
                assert_eq!(delta.count_happy(), want.count_happy(), "{ctx}");
                let stats = delta.stats();
                assert_eq!(
                    (stats.delta_attacks, stats.full_recomputes),
                    (1, 0),
                    "{ctx}"
                );
                assert_eq!(stats.grow_rounds, rounds, "{ctx}");
                assert_eq!(stats.refixed_ases, refixed, "{ctx}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "attacker cannot be the destination")]
    fn attacking_the_destination_panics() {
        let g = gadget();
        let dep = Deployment::empty(8);
        let mut delta = AttackDeltaEngine::new(&g);
        delta.begin(AsId(0), &dep, Policy::new(SecurityModel::Security3rd));
        delta.attack(AsId(0), AttackStrategy::FakeLink);
    }
}
