//! The attacker-delta engine: amortize the destination-rooted side of the
//! routing computation across **all attackers** of a `(d, S, policy)` cell.
//!
//! Every experiment in the paper averages `H_{M,D}(S)` over attacker ×
//! destination pairs (§4.1), and the two-rooted `Fix-Routes` run is
//! `O(V + E)` per pair — even though, for a fixed destination, deployment
//! and policy, the destination-rooted side is byte-identical across all
//! attackers in `M`. [`AttackDeltaEngine`] computes the **normal-conditions
//! outcome once** (no attacker), snapshots it, and then evaluates each
//! attacker `m` by re-fixing only the *contested region*: the ASes whose
//! fixed route the forged announcement (a `k`-hop
//! [`AttackStrategy::FakePath`], of which the paper's `"m, d"` fake link
//! is `k = 1`) can actually tie or beat under the model's preference
//! order. The region is seeded at `m`'s root and grown with the same
//! [`crate::policy::preference_key`] affected-neighbor filter and
//! stub-folded region solve the deployment-axis [`crate::SweepEngine`]
//! uses (shared in `region` and the engine): only the region's core ASes
//! run through the bucket queues, its non-root stubs are resolved in one
//! pass afterwards, and stubs the verify step absorbs are resolved in
//! place without another solve. Exactness rests on the same Theorem 2.1
//! local-consistency argument.
//!
//! **Colluding announcers.** [`AttackDeltaEngine::attack_set`] serves a
//! whole announcer set at once: the contested region is seeded as the
//! *multi-root* union of every colluder's ball (the forward scan starts
//! from all roots simultaneously, so an AS is marked the first time any
//! root's offer can reach it competitively), all roots are re-fixed in the
//! solve, and the same touched-list undo restores the snapshot exactly —
//! a colluding patch costs one region solve, not one per member.
//!
//! **Where it pays.** The base costs one compute, so the engine wins only
//! when a cell serves several attackers whose contested regions stay small
//! — or when the base is adopted rather than computed
//! ([`AttackDeltaEngine::begin_from_base`], the planner's cache). A cell
//! with a single attacker (the common case under random `(m, d)`
//! sampling) is cheaper as one plain [`Engine::compute`], which is what
//! the estimators run.
//!
//! **Snapshot/undo invariant:** each [`AttackDeltaEngine::attack`] records
//! the set of ASes it touched (the final region, which the engine's fix
//! log keeps an exact superset of the writes) and the next call *undoes*
//! exactly those entries from the normal-conditions snapshot — an
//! `O(touched)` restore, never an `O(V)` memcpy per attacker. Happy-source
//! bounds are patched the same way.
//!
//! **Exactness fallback:** the contested ball is first discovered by a
//! cheap forward scan of the snapshot (no solving); when its *adjacency
//! mass* — the quantity every patch pass is proportional to, since the
//! balls are hub-heavy — exceeds the budget at which a patch can still
//! beat a compute (shared with [`crate::SweepEngine`], and re-checked as
//! the verify step grows the region), the engine serves that attacker
//! with a full [`Engine::compute`] instead (flagging the next restore as
//! full), so every answer stays exact no matter how pathological the
//! topology and a hopeless patch costs barely more than the compute it
//! falls back to.
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

use sbgp_topology::{AsGraph, AsId, AsSet};

use crate::attack::{AttackScenario, AttackStrategy};
use crate::deployment::Deployment;
use crate::engine::Engine;
use crate::outcome::Outcome;
use crate::policy::{preference_key, Policy};
use crate::region::{self, pack_key};

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
    /// Attacks served by a full [`Engine::compute`] after a region
    /// blow-up.
    pub full_recomputes: usize,
    /// Total ASes re-fixed across all delta-served attacks (final region
    /// sizes, stubs included).
    pub refixed_ases: usize,
    /// Extra region solves beyond the first attempt: verify steps that
    /// absorbed a core AS (stub-only absorption is resolved in place and
    /// costs no round).
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

/// One cell's adopted base state, exported by
/// [`AttackDeltaEngine::export_base`] for external caching (the planner
/// service's normal-outcome cache) and re-adopted by
/// [`AttackDeltaEngine::begin_from_base`] without recomputing anything.
#[derive(Clone, Debug)]
pub struct CachedBase {
    outcome: Outcome,
    cell_keys: Vec<u128>,
    normal_happy: (usize, usize),
}

impl CachedBase {
    /// The cached normal-conditions outcome.
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }
}

/// How the engine's working outcome differs from the snapshot, i.e. what
/// the next attack must undo before patching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Restore {
    /// Working outcome equals the snapshot.
    Clean,
    /// Only the entries in `region_list` differ (last attack was a patch).
    Touched,
    /// Arbitrary divergence (last attack fell back to a full compute).
    Full,
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
    engine: Engine<'g>,
    /// Normal-conditions outcome of the current cell.
    snapshot: Outcome,
    destination: AsId,
    deployment: Option<Deployment>,
    policy: Policy,
    /// Happy bounds of the snapshot (sources exclude only `d`).
    normal_happy: (usize, usize),
    /// Happy bounds of the last served attack (sources exclude `d`, `m`).
    happy: (usize, usize),
    /// Contested region of the current attack.
    region: AsSet,
    region_list: Vec<AsId>,
    /// The last patch's region — exactly the entries where the working
    /// outcome differs from the snapshot, i.e. the undo list.
    touched: Vec<AsId>,
    restore: Restore,
    /// Per-cell cache of every AS's snapshot preference key, packed into
    /// one `u128` for a single-compare scan filter (`u128::MAX` = no
    /// route). Built once per cell, amortized over its attackers.
    cell_keys: Vec<u128>,
    /// Contested-ball scan scratch (per-AS export bits + its undo list and
    /// the two BFS frontiers), reused across attacks.
    scan_state: Vec<u8>,
    scan_touched: Vec<u32>,
    scan_cur: Vec<(u32, u8)>,
    scan_next: Vec<(u32, u8)>,
    stats: DeltaStats,
}

impl<'g> AttackDeltaEngine<'g> {
    /// Create a delta engine for `graph`.
    pub fn new(graph: &'g AsGraph) -> AttackDeltaEngine<'g> {
        let n = graph.len();
        AttackDeltaEngine {
            engine: Engine::new(graph),
            snapshot: Outcome::new_empty(),
            destination: AsId(0),
            deployment: None,
            policy: Policy::new(crate::policy::SecurityModel::Security3rd),
            normal_happy: (0, 0),
            happy: (0, 0),
            region: AsSet::new(n),
            region_list: Vec::new(),
            touched: Vec::new(),
            restore: Restore::Clean,
            cell_keys: Vec::new(),
            scan_state: vec![0; n],
            scan_touched: Vec::new(),
            scan_cur: Vec::new(),
            scan_next: Vec::new(),
            stats: DeltaStats::default(),
        }
    }

    /// The topology this engine runs on.
    pub fn graph(&self) -> &'g AsGraph {
        self.engine.graph()
    }

    /// Fix the `(destination, deployment, policy)` cell: compute its
    /// normal-conditions outcome, the base every attack is served against.
    /// Statistics keep accumulating across cells.
    pub fn begin(&mut self, destination: AsId, deployment: &Deployment, policy: Policy) {
        self.stats.base_computes += 1;
        self.engine
            .compute(AttackScenario::normal(destination), deployment, policy);
        self.snapshot.copy_from(self.engine.outcome());
        self.adopt_snapshot(deployment, policy);
    }

    /// Fix the cell from an externally computed normal-conditions outcome —
    /// typically a [`crate::SweepEngine`] mid-rollout, which is what lets
    /// the deployment and attacker amortization axes compose.
    ///
    /// # Panics
    ///
    /// Panics when `normal` has an attacker, or doesn't cover the graph.
    pub fn begin_from_normal(&mut self, normal: &Outcome, deployment: &Deployment, policy: Policy) {
        assert!(
            normal.attacker().is_none(),
            "base outcome must be normal conditions"
        );
        assert_eq!(normal.len(), self.graph().len(), "outcome/graph mismatch");
        self.stats.adopted_bases += 1;
        self.snapshot.copy_from(normal);
        self.engine.outcome_mut().copy_from(normal);
        self.adopt_snapshot(deployment, policy);
    }

    /// Make the snapshot — already equal to the working outcome — the
    /// cell's base: derive its happy bounds and the packed preference keys
    /// the scan filters with.
    fn adopt_snapshot(&mut self, deployment: &Deployment, policy: Policy) {
        // Precompute every AS's packed snapshot key once per cell: the
        // contested-ball scan then filters each offer with one compare.
        let n = self.snapshot.len();
        self.cell_keys.clear();
        self.cell_keys.resize(n, u128::MAX);
        for i in 0..n {
            let v = AsId(i as u32);
            if let Some(k) = region::current_key(&self.snapshot, v, policy, deployment.validates(v))
            {
                self.cell_keys[i] = pack_key(k);
            }
        }
        self.fix_cell(deployment, policy, self.snapshot.count_happy());
    }

    /// Reset the per-cell state around a base already in place (snapshot,
    /// working outcome and cell keys).
    fn fix_cell(&mut self, deployment: &Deployment, policy: Policy, normal_happy: (usize, usize)) {
        self.destination = self.snapshot.destination();
        self.policy = policy;
        self.normal_happy = normal_happy;
        self.happy = normal_happy;
        self.restore = Restore::Clean;
        self.region_list.clear();
        self.region.clear();
        self.touched.clear();
        self.deployment = Some(deployment.clone());
    }

    /// Export the current cell's base state for external caching: the
    /// normal-conditions outcome plus the packed preference keys and
    /// happy bounds the adoption scans derive from it. Re-anchoring
    /// through [`AttackDeltaEngine::begin_from_base`] then skips the
    /// route computation *and* the O(V) adoption scans.
    ///
    /// The export is only valid for the exact
    /// `(destination, deployment, policy)` cell it was taken from; the
    /// engine cannot verify that from the outcome alone, so callers key
    /// their caches on the full cell identity (the planner service
    /// compares the deployment's member lists).
    pub fn export_base(&self) -> CachedBase {
        CachedBase {
            outcome: self.snapshot.clone(),
            cell_keys: self.cell_keys.clone(),
            normal_happy: self.normal_happy,
        }
    }

    /// Fix the cell from a [`CachedBase`] exported earlier for the same
    /// `(destination, deployment, policy)` cell. Unlike
    /// [`AttackDeltaEngine::begin_from_normal`] this skips the per-AS
    /// preference-key scan, so a cache hit costs only three buffer
    /// copies.
    ///
    /// # Panics
    ///
    /// Panics when the base carries an attacker or doesn't cover the
    /// graph. A base exported from a *different* deployment or policy is
    /// undetectable here and would corrupt results — the cell-identity
    /// contract is the caller's (see [`AttackDeltaEngine::export_base`]).
    pub fn begin_from_base(&mut self, base: &CachedBase, deployment: &Deployment, policy: Policy) {
        assert!(
            base.outcome.attacker().is_none(),
            "base outcome must be normal conditions"
        );
        assert_eq!(
            base.outcome.len(),
            self.graph().len(),
            "outcome/graph mismatch"
        );
        assert_eq!(
            base.cell_keys.len(),
            self.graph().len(),
            "key/graph mismatch"
        );
        self.stats.adopted_bases += 1;
        self.snapshot.copy_from(&base.outcome);
        self.engine.outcome_mut().copy_from(&base.outcome);
        self.cell_keys.clear();
        self.cell_keys.extend_from_slice(&base.cell_keys);
        self.fix_cell(deployment, policy, base.normal_happy);
    }

    /// The outcome of the last served attack, identical to what
    /// [`AttackDeltaEngine::attack`] returned, re-borrowable immutably.
    /// Before a cell's first attack it is the normal-conditions outcome.
    pub fn last_outcome(&self) -> &Outcome {
        self.engine.outcome()
    }

    /// The normal-conditions outcome of the current cell.
    pub fn normal_outcome(&self) -> &Outcome {
        &self.snapshot
    }

    /// Happy bounds of the normal-conditions outcome.
    pub fn normal_happy(&self) -> (usize, usize) {
        self.normal_happy
    }

    /// Happy-source tie-break bounds of the last served attack, identical
    /// to [`Outcome::count_happy`] but patched incrementally (same
    /// before-the-first-attack rule as [`AttackDeltaEngine::last_outcome`]).
    pub fn count_happy(&self) -> (usize, usize) {
        self.happy
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
    /// contested region is seeded from **all** roots and solved once; the
    /// touched-list undo is identical to the single-attacker case.
    ///
    /// # Panics
    ///
    /// Panics before `begin*`, or when `attackers` violates
    /// [`AttackScenario::colluding`]'s preconditions (empty, more than
    /// [`crate::MAX_ATTACKERS`], duplicates, or containing the
    /// destination).
    pub fn attack_set(&mut self, attackers: &[AsId], strategy: AttackStrategy) -> &Outcome {
        let scenario = self.scenario(attackers, strategy);
        let deployment = self.take_deployment();

        // Discover the contested ball in one cheap forward scan over the
        // *snapshot* (the working outcome is not consulted, so no restore
        // has happened yet), so the first solve already covers it: growing
        // it hop by hop through the verify step would cost one full region
        // re-solve per hop of the bogus announcement's reach. An over-cap
        // ball falls back *before* any restore or solve work is spent on
        // it, so a hopeless attacker costs barely more than the compute
        // it falls back to.
        let mass = self.seed_contested_region(scenario, &deployment);
        if mass > region::mass_budget(self.graph()) {
            return self.fallback(scenario, deployment);
        }
        self.serve(scenario, deployment, mass)
    }

    /// The attack scenario of `attackers` against the current cell.
    fn scenario(&self, attackers: &[AsId], strategy: AttackStrategy) -> AttackScenario {
        assert!(
            self.deployment.is_some(),
            "AttackDeltaEngine::begin not called"
        );
        AttackScenario::colluding(attackers, self.destination).with_strategy(strategy)
    }

    /// Move the cell's deployment out for the duration of one attack (every
    /// serving path puts it back).
    fn take_deployment(&mut self) -> Deployment {
        self.deployment
            .take()
            .expect("AttackDeltaEngine::begin not called")
    }

    /// The patch tail of [`AttackDeltaEngine::attack_set`]: undo, solve the
    /// region to local consistency (growing it as needed), patch the happy
    /// bounds, and flip the snapshot/undo bookkeeping. `mass` is the
    /// seeded region's adjacency mass.
    fn serve(&mut self, scenario: AttackScenario, deployment: Deployment, mass: usize) -> &Outcome {
        // Undo the previous attack's writes; afterwards the working outcome
        // equals the snapshot again and the patch can solve against it.
        match self.restore {
            Restore::Clean => {}
            Restore::Touched => {
                for &v in &self.touched {
                    self.engine.outcome_mut().copy_entry_from(&self.snapshot, v);
                }
            }
            Restore::Full => self.engine.outcome_mut().copy_from(&self.snapshot),
        }

        let (within_budget, grow_rounds) = region::solve_within_budget(
            &mut self.engine,
            &self.snapshot,
            scenario,
            &deployment,
            self.policy,
            &mut self.region,
            &mut self.region_list,
            mass,
        );
        self.stats.grow_rounds += grow_rounds;
        if !within_budget {
            // The verify step grew the region past the budget after all.
            return self.fallback(scenario, deployment);
        }

        // Patch the happy bounds (announcers stop being sources entirely).
        self.happy = self.normal_happy;
        region::patch_happy(
            &mut self.happy,
            &self.snapshot,
            self.engine.outcome(),
            &self.region_list,
        );
        self.stats.delta_attacks += 1;
        self.stats.refixed_ases += self.region_list.len();
        // The final region is exactly where the working outcome now
        // differs from the snapshot: it becomes the next undo list.
        std::mem::swap(&mut self.touched, &mut self.region_list);
        self.restore = Restore::Touched;
        self.deployment = Some(deployment);
        self.engine.outcome()
    }

    /// Serve the current attack with a full [`Engine::compute`] (contested
    /// region past the budget). The compute rewrites the working outcome
    /// wholesale, so whatever restore was pending is moot and the next one
    /// must be a full copy.
    fn fallback(&mut self, scenario: AttackScenario, deployment: Deployment) -> &Outcome {
        self.stats.full_recomputes += 1;
        self.engine.compute(scenario, &deployment, self.policy);
        self.happy = self.engine.outcome().count_happy();
        self.restore = Restore::Full;
        self.deployment = Some(deployment);
        self.engine.outcome()
    }

    /// Reset the region to the announcer roots and seed it with the
    /// *contested ball*: every AS the bogus announcement can reach along
    /// export-legal paths while tying or beating the current route at each
    /// hop, found by a breadth-first scan of the snapshot in
    /// bogus-path-length order. An AS whose route
    /// strictly beats the offer neither adopts nor re-exports it, so the
    /// scan prunes there; customer-class receipt re-exports everywhere,
    /// peer/provider-class receipt only to customers (Ex). With colluding
    /// announcers, every root contributes its neighbors to the initial
    /// frontier (the announcers share one claimed depth, so the levels stay
    /// aligned) and the scan discovers the union ball in one pass. This is
    /// purely a performance seeding — the verify-and-grow loop would find
    /// the same ASes one hop per round — so its filter does not need to be
    /// tight in either direction. Returns the region's adjacency mass (the
    /// sum of its members' degrees); the scan stops early once that exceeds
    /// the budget (the caller then falls back without solving).
    fn seed_contested_region(
        &mut self,
        scenario: AttackScenario,
        deployment: &Deployment,
    ) -> usize {
        let graph = self.engine.graph();
        let budget = region::mass_budget(graph);
        let policy = self.policy;
        let d = scenario.destination;
        self.region.clear();
        self.region_list.clear();
        let mut mass = 0;

        // Each announcer's origin announcement exports to every neighbor.
        for m in scenario.attackers() {
            self.region.insert(m);
            self.region_list.push(m);
            mass += graph.degree(m);
            for &u in graph.providers(m) {
                self.scan_next.push((u.0, 0));
            }
            for &u in graph.peers(m) {
                self.scan_next.push((u.0, 1));
            }
            for &u in graph.customers(m) {
                self.scan_next.push((u.0, 2));
            }
        }
        let mut len = scenario.strategy.root_depth() + 1;
        'scan: while !self.scan_next.is_empty() {
            std::mem::swap(&mut self.scan_cur, &mut self.scan_next);
            // All offers of a level share the same bogus-path length, so
            // only six distinct offer keys exist per level.
            let mut level_keys = [[0u128; 3]; 2];
            for (validating, keys) in level_keys.iter_mut().enumerate() {
                for (rank, key) in keys.iter_mut().enumerate() {
                    *key = pack_key(preference_key(
                        policy,
                        validating == 1,
                        rank as u8,
                        len,
                        false,
                    ));
                }
            }
            for k in 0..self.scan_cur.len() {
                if mass > budget {
                    // Over budget mid-level: the caller will fall back, so
                    // every further mark is wasted work.
                    break 'scan;
                }
                let (ui, rank) = self.scan_cur[k];
                let u = AsId(ui);
                if u == d || scenario.is_attacker(u) {
                    continue;
                }
                let validating = deployment.validates(u);
                let offer = level_keys[usize::from(validating)][rank as usize];
                if offer > self.cell_keys[u.index()] {
                    continue;
                }
                if self.region.insert(u) {
                    self.region_list.push(u);
                    mass += graph.degree(u);
                }
                let st = self.scan_state[u.index()];
                if st == 0 {
                    self.scan_touched.push(ui);
                }
                if rank == 0 && st & SCAN_WIDE == 0 {
                    self.scan_state[u.index()] |= SCAN_WIDE | SCAN_DOWN;
                    for &p in graph.providers(u) {
                        self.scan_next.push((p.0, 0));
                    }
                    for &q in graph.peers(u) {
                        self.scan_next.push((q.0, 1));
                    }
                    if st & SCAN_DOWN == 0 {
                        for &c in graph.customers(u) {
                            self.scan_next.push((c.0, 2));
                        }
                    }
                } else if rank != 0 && st & SCAN_DOWN == 0 {
                    self.scan_state[u.index()] |= SCAN_DOWN;
                    for &c in graph.customers(u) {
                        self.scan_next.push((c.0, 2));
                    }
                }
            }
            self.scan_cur.clear();
            len += 1;
        }
        // An over-cap break can leave entries in either frontier.
        self.scan_cur.clear();
        self.scan_next.clear();
        for &x in &self.scan_touched {
            self.scan_state[x as usize] = 0;
        }
        self.scan_touched.clear();
        mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
