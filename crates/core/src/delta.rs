//! The attacker-delta engine: amortize the destination-rooted side of the
//! routing computation across **all attackers** of a `(d, S, policy)` cell.
//!
//! Every experiment in the paper averages `H_{M,D}(S)` over attacker ×
//! destination pairs (§4.1), and the two-rooted `Fix-Routes` run is
//! `O(V + E)` per pair — even though, for a fixed destination, deployment
//! and policy, the destination-rooted side is byte-identical across all
//! attackers in `M`. [`AttackDeltaEngine`] computes the **normal-conditions
//! outcome once** (no attacker; deferred until needed, see below),
//! snapshots it, and then evaluates each
//! attacker `m` by re-fixing only the *contested region*: the ASes whose
//! fixed route the forged announcement (a `k`-hop
//! [`AttackStrategy::FakePath`], of which the paper's `"m, d"` fake link
//! is `k = 1`) can actually tie or beat under the model's preference
//! order. The region is seeded at `m`'s root and grown with the same
//! [`crate::policy::preference_key`] affected-neighbor filter and
//! bucket-queue stage schedule the deployment-axis [`crate::SweepEngine`]
//! uses (shared in `region`); exactness rests on the same Theorem 2.1
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
//! **Deferred base.** [`AttackDeltaEngine::begin`] only records the cell;
//! it computes nothing. The cell's first attack is served by one direct
//! [`Engine::compute`] — exactly what a fallback runs — because a cell with
//! a single attacker (the common case under random `(m, d)` sampling) has
//! no attacker axis to amortize a base over. The base (normal-conditions
//! outcome, its happy bounds and the per-AS preference keys) is built the
//! first time something needs it: the cell's **second** attack, which then
//! takes the scan → patch / fallback path below unchanged, or a read of
//! [`AttackDeltaEngine::normal_outcome`] / [`AttackDeltaEngine::normal_happy`]
//! / [`AttackDeltaEngine::export_base`]. Building it never disturbs the last
//! served outcome. [`AttackDeltaEngine::begin_from_normal`] and
//! [`AttackDeltaEngine::begin_from_base`] stay eager: their base is adopted,
//! not computed. The price of deferral is one extra `compute − patch` per
//! cell with k ≥ 2 attackers whose first attack would have patched — per
//! cell, not per pair.
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
//! beat a compute, the engine serves that attacker with a full
//! [`Engine::compute`] instead (flagging the next restore as full), so
//! every answer stays exact no matter how pathological the topology and a
//! hopeless patch costs barely more than the compute it falls back to.
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
//! *deployment* axis innermost — `for d → for m (delta-patch the first
//! step off d's shared normal outcome) → for S_k (sweep the remaining
//! steps)` — because between adjacent `S` steps the bogus spread is shared
//! state ([`crate::SweepEngine::begin_from`] adopts a patched outcome),
//! whereas re-patching each attacker into every step would pay the
//! contested ball `|S|` times.

use sbgp_topology::{AsGraph, AsId, AsSet};

use crate::attack::{AttackScenario, AttackStrategy};
use crate::deployment::Deployment;
use crate::engine::Engine;
use crate::outcome::{Outcome, RootFlags};
use crate::policy::{preference_key, Policy};
use crate::region;

/// Contested-ball scan state: the AS already propagated the bogus offer to
/// every neighbor (customer-class receipt exports everywhere)...
const SCAN_WIDE: u8 = 1;
/// ...or at least to its customers (peer/provider-class receipt).
const SCAN_DOWN: u8 = 2;

/// How the attacks of a delta engine were served (cumulative across
/// [`AttackDeltaEngine::begin`] calls).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Normal-conditions base outcomes computed. A deferred base (see the
    /// module docs) counts only once it is actually built.
    pub base_computes: usize,
    /// Base outcomes adopted from an external computation (the
    /// deployment-sweep composition path).
    pub adopted_bases: usize,
    /// Attacks served by contested-region re-fixing.
    pub delta_attacks: usize,
    /// Attacks served by a full [`Engine::compute`]: after a region
    /// blow-up, or directly while the cell's base was deferred.
    pub full_recomputes: usize,
    /// Attacks served by a direct compute before their cell's base existed
    /// (a subset of `full_recomputes`).
    pub direct_attacks: usize,
    /// Total ASes re-fixed across all delta-served attacks.
    pub refixed_ases: usize,
    /// Extra verify-and-grow rounds beyond the first attempt.
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
            direct_attacks,
            refixed_ases,
            grow_rounds,
        } = *other;
        self.base_computes += base_computes;
        self.adopted_bases += adopted_bases;
        self.delta_attacks += delta_attacks;
        self.full_recomputes += full_recomputes;
        self.direct_attacks += direct_attacks;
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

/// Whether the current cell's base (snapshot, happy bounds, cell keys)
/// exists yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Base {
    /// Built or adopted: attacks take the scan → patch / fallback path.
    Built,
    /// Recorded by [`AttackDeltaEngine::begin`]; the next attack is served
    /// by a direct compute.
    Deferred,
    /// Still deferred, with one attack served directly: the next attack
    /// builds the base first.
    DeferredServed,
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
/// attacker. `begin` defers the base until the cell's second attack (see
/// the module docs).
#[derive(Debug)]
pub struct AttackDeltaEngine<'g> {
    engine: Engine<'g>,
    /// Normal-conditions outcome of the current cell (once built).
    snapshot: Outcome,
    base: Base,
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
    /// Sum of the region members' degrees — the adjacency mass every
    /// patch pass (seed, rescan, verify) is proportional to.
    region_mass: usize,
    /// Adjacency-mass budget above which a patch can no longer beat a
    /// from-scratch compute (the regions are hub-heavy, so node counts
    /// track cost poorly; edge mass is what the solve actually scans).
    mass_budget: usize,
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

use crate::region::pack_key;

impl<'g> AttackDeltaEngine<'g> {
    /// Create a delta engine for `graph`.
    pub fn new(graph: &'g AsGraph) -> AttackDeltaEngine<'g> {
        let n = graph.len();
        AttackDeltaEngine {
            engine: Engine::new(graph),
            snapshot: Outcome::new_empty(),
            base: Base::Built,
            destination: AsId(0),
            deployment: None,
            policy: Policy::new(crate::policy::SecurityModel::Security3rd),
            normal_happy: (0, 0),
            happy: (0, 0),
            region: AsSet::new(n),
            region_list: Vec::new(),
            region_mass: 0,
            // A patch pays roughly three passes over the region's
            // adjacency where a compute pays one pass over the whole
            // graph (plus two O(V) scans); beyond ~a sixth of the total
            // mass the patch stops winning. Calibrated on the 4000-AS
            // benchmark workload.
            mass_budget: (n + 2 * graph.num_edges()) / 6,
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

    /// Fix the `(destination, deployment, policy)` cell. Nothing is
    /// computed here: the first attack is served by a direct compute and
    /// the normal-conditions base is built when first needed (see the
    /// module docs). Statistics keep accumulating across cells.
    pub fn begin(&mut self, destination: AsId, deployment: &Deployment, policy: Policy) {
        self.destination = destination;
        self.policy = policy;
        self.deployment = Some(deployment.clone());
        self.base = Base::Deferred;
    }

    /// Fix the cell from an externally computed normal-conditions outcome —
    /// typically a [`crate::SweepEngine`] mid-rollout, which is what lets
    /// the deployment and attacker amortization axes compose. The base is
    /// adopted eagerly.
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
        self.begin(normal.destination(), deployment, policy);
        self.build_base(Some(normal));
    }

    /// Build the current cell's base if it is still deferred: compute the
    /// normal-conditions outcome, or copy `normal` when a sibling engine of
    /// the same cell already holds it, then derive the happy bounds and
    /// packed preference keys the scan filters with. The last served
    /// outcome is left as it was; before the cell's first attack the
    /// working outcome starts from the base, as after an eager begin.
    pub(crate) fn build_base(&mut self, normal: Option<&Outcome>) {
        if self.base == Base::Built {
            return;
        }
        let deployment = self
            .deployment
            .as_ref()
            .expect("AttackDeltaEngine::begin not called");
        match normal {
            Some(normal) => {
                self.stats.adopted_bases += 1;
                self.snapshot.copy_from(normal);
            }
            None => {
                self.stats.base_computes += 1;
                // Compute into the snapshot's buffer so a directly served
                // attack's outcome survives in the working buffer.
                std::mem::swap(self.engine.outcome_mut(), &mut self.snapshot);
                self.engine.compute(
                    AttackScenario::normal(self.destination),
                    deployment,
                    self.policy,
                );
                std::mem::swap(self.engine.outcome_mut(), &mut self.snapshot);
            }
        }
        self.normal_happy = self.snapshot.count_happy();
        self.region_list.clear();
        self.region.clear();
        self.touched.clear();
        // Precompute every AS's packed snapshot key once per cell: the
        // contested-ball scan then filters each offer with one compare.
        let n = self.snapshot.len();
        self.cell_keys.clear();
        self.cell_keys.resize(n, u128::MAX);
        for i in 0..n {
            let v = AsId(i as u32);
            if let Some(k) =
                region::current_key(&self.snapshot, v, self.policy, deployment.validates(v))
            {
                self.cell_keys[i] = pack_key(k);
            }
        }
        if self.base == Base::Deferred {
            self.engine.outcome_mut().copy_from(&self.snapshot);
            self.happy = self.normal_happy;
            self.restore = Restore::Clean;
        } else {
            self.restore = Restore::Full;
        }
        self.base = Base::Built;
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
    ///
    /// Builds a deferred base first.
    pub fn export_base(&mut self) -> CachedBase {
        self.build_base(None);
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
        self.base = Base::Built;
        self.restore = Restore::Clean;
        self.destination = base.outcome.destination();
        self.policy = policy;
        self.normal_happy = base.normal_happy;
        self.happy = base.normal_happy;
        self.region_list.clear();
        self.region.clear();
        self.touched.clear();
        self.cell_keys.clear();
        self.cell_keys.extend_from_slice(&base.cell_keys);
        self.deployment = Some(deployment.clone());
    }

    /// The outcome of the last served attack, identical to what
    /// [`AttackDeltaEngine::attack`] returned, re-borrowable immutably.
    /// Before a cell's first attack it is the normal-conditions outcome
    /// once the base is built; after a bare [`AttackDeltaEngine::begin`]
    /// it is unspecified until then.
    pub fn last_outcome(&self) -> &Outcome {
        self.engine.outcome()
    }

    /// The normal-conditions outcome of the current cell, building a
    /// deferred base first.
    pub fn normal_outcome(&mut self) -> &Outcome {
        self.build_base(None);
        &self.snapshot
    }

    /// Happy bounds of the normal-conditions outcome, building a deferred
    /// base first.
    pub fn normal_happy(&mut self) -> (usize, usize) {
        self.build_base(None);
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
    /// valid until the next `attack`/`begin*` call (or the build of a
    /// deferred base, which leaves it intact).
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
        match self.base {
            Base::Deferred => {
                // The cell's first attack: no base to patch against yet.
                self.stats.direct_attacks += 1;
                self.base = Base::DeferredServed;
                let deployment = self.take_deployment();
                return self.fallback(scenario, deployment);
            }
            Base::DeferredServed => self.build_base(None),
            Base::Built => {}
        }
        let deployment = self.take_deployment();
        self.init_roots(scenario);

        // Discover the contested ball in one cheap forward scan over the
        // *snapshot* (the working outcome is not consulted, so no restore
        // has happened yet), so the first solve already covers it: growing
        // it hop by hop through the verify step would cost one full region
        // re-solve per hop of the bogus announcement's reach. An over-cap
        // ball falls back *before* any restore or solve work is spent on
        // it, so a hopeless attacker costs barely more than the compute
        // it falls back to.
        self.seed_contested_region(scenario, &deployment);
        if self.region_mass > self.mass_budget {
            return self.fallback(scenario, deployment);
        }
        self.serve(scenario, deployment)
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

    /// Reset the region to exactly the announcer roots.
    fn init_roots(&mut self, scenario: AttackScenario) {
        self.region.clear();
        self.region_list.clear();
        self.region_mass = 0;
        let graph = self.graph();
        for m in scenario.attackers() {
            self.region.insert(m);
            self.region_list.push(m);
            self.region_mass += graph.degree(m);
        }
    }

    /// The patch tail of [`AttackDeltaEngine::attack_set`]: undo, solve the
    /// region to local consistency (growing it as needed), patch the happy
    /// bounds, and flip the snapshot/undo bookkeeping.
    fn serve(&mut self, scenario: AttackScenario, deployment: Deployment) -> &Outcome {
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

        // Entries whose degree is already folded into `region_mass` (the
        // scan counts its own marks; grow/absorb additions are folded in
        // at each loop top).
        let graph = self.graph();
        let mut mass_counted = self.region_list.len();
        loop {
            for &v in &self.region_list[mass_counted..] {
                self.region_mass += graph.degree(v);
            }
            mass_counted = self.region_list.len();
            if self.region_mass > self.mass_budget {
                // The verify step grew the region past the cap after all.
                return self.fallback(scenario, deployment);
            }
            self.solve_region(scenario, &deployment);
            self.absorb_fix_log();
            let escaped = region::grow_affected(
                self.engine.graph(),
                self.engine.outcome(),
                &self.snapshot,
                scenario,
                &deployment,
                self.policy,
                &mut self.region,
                &mut self.region_list,
            );
            if !escaped {
                break;
            }
            self.stats.grow_rounds += 1;
        }

        // Patch the happy bounds: remove every region member's normal
        // contribution (announcers stop being sources entirely) and add
        // back the non-root members' contested contributions.
        let mut happy = self.normal_happy;
        {
            let outcome = self.engine.outcome();
            for &v in &self.region_list {
                let old = self.snapshot.flags(v);
                happy.0 -= usize::from(old.surely_happy());
                happy.1 -= usize::from(old.may_reach_destination());
                if scenario.is_attacker(v) {
                    continue;
                }
                let new = outcome.flags(v);
                happy.0 += usize::from(new.surely_happy());
                happy.1 += usize::from(new.may_reach_destination());
            }
        }
        self.happy = happy;
        self.stats.delta_attacks += 1;
        self.stats.refixed_ases += self.region_list.len();
        // The final region is exactly where the working outcome now
        // differs from the snapshot: it becomes the next undo list.
        std::mem::swap(&mut self.touched, &mut self.region_list);
        self.restore = Restore::Touched;
        self.engine.outcome_mut().attackers = scenario.attacker_array();
        self.deployment = Some(deployment);
        self.engine.outcome()
    }

    /// Serve the current attack with a full [`Engine::compute`] (contested
    /// ball past the cap, or no base yet). The compute rewrites the working outcome
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

    /// Seed the region with the *contested ball*: every AS the bogus
    /// announcement can reach along export-legal paths while tying or
    /// beating the current route at each hop, found by a breadth-first
    /// scan of the snapshot in bogus-path-length order. An AS whose route
    /// strictly beats the offer neither adopts nor re-exports it, so the
    /// scan prunes there; customer-class receipt re-exports everywhere,
    /// peer/provider-class receipt only to customers (Ex). With colluding
    /// announcers, every root contributes its neighbors to the initial
    /// frontier (the announcers share one claimed depth, so the levels stay
    /// aligned) and the scan discovers the union ball in one pass. This is
    /// purely a performance seeding — the verify-and-grow loop would find
    /// the same ASes one hop per round — so its filter does not need to be
    /// tight in either direction. The scan stops early once the region's
    /// adjacency mass exceeds the budget (the caller then falls back
    /// without solving).
    fn seed_contested_region(&mut self, scenario: AttackScenario, deployment: &Deployment) {
        let graph = self.engine.graph();
        let policy = self.policy;
        let d = scenario.destination;

        // Each announcer's origin announcement exports to every neighbor.
        for m in scenario.attackers() {
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
                if self.region_mass > self.mass_budget {
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
                    self.region_mass += graph.degree(u);
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
    }

    /// One attempt: re-fix exactly the current contested region on top of
    /// the normal-conditions snapshot, treating everything outside it as
    /// fixed boundary. Mirrors [`crate::SweepEngine`]'s solve, with the
    /// announcer roots replacing the deployment seeds.
    fn solve_region(&mut self, scenario: AttackScenario, deployment: &Deployment) {
        self.engine.begin(scenario, deployment, self.policy);
        self.engine.enable_fix_log();
        self.engine.outcome_mut().attackers = scenario.attacker_array();
        for &v in &self.region_list {
            self.engine.outcome_mut().unfix(v);
        }
        // Every announcer roots the (multi-root) bogus tree; the
        // destination's root entry is never contested (it stays fixed at
        // depth 0 outside the region), so no other root needs re-fixing.
        for m in scenario.attackers() {
            self.engine.fix_root(
                m,
                scenario.strategy.root_depth(),
                false,
                RootFlags::TO_M,
                deployment,
            );
        }
        for &v in &self.region_list {
            if scenario.is_attacker(v) {
                continue;
            }
            self.engine.seed_from_boundary(v, &self.region, deployment);
        }
        self.engine.run_schedule(self.policy, deployment);
    }

    /// Here an out-of-region fix means an AS unreachable under normal
    /// conditions that the bogus announcement reaches — e.g. an island
    /// behind the attacker.
    fn absorb_fix_log(&mut self) {
        region::absorb_fix_log(
            self.engine.fix_log(),
            &mut self.region,
            &mut self.region_list,
        );
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
    #[should_panic(expected = "attacker cannot be the destination")]
    fn attacking_the_destination_panics() {
        let g = gadget();
        let dep = Deployment::empty(8);
        let mut delta = AttackDeltaEngine::new(&g);
        delta.begin(AsId(0), &dep, Policy::new(SecurityModel::Security3rd));
        delta.attack(AsId(0), AttackStrategy::FakeLink);
    }
}
