//! Fused multi-cell engine pass: one call serves every policy cell of a
//! `(destination, deployment)` pair.
//!
//! The paper's headline figures evaluate the *same* `(d, S)` pair under
//! every security model × LP variant × attack-strategy rung. Many of those
//! cells are the same computation in disguise, and [`FusedDeltaEngine`]
//! runs each distinct computation once, sharing along two axes:
//!
//! 1. **Cell dedup.** A [`CellSet`] canonicalizes every cell's strategy
//!    through [`AttackStrategy::canonical`], so the `path1`/fake-link and
//!    `path0`/hijack spellings can never run the same cell twice; input
//!    indices map onto deduped *lanes*.
//! 2. **Model collapse.** At a deployment with **zero validating ASes**
//!    (`Deployment::full_count() == 0` — every Baseline cell and the first
//!    rungs of every rollout sweep), policies differing only in their
//!    security model are behaviorally identical: `preference_key`'s
//!    non-validating arm ignores the model, no secure offer can ever be
//!    assembled (a secure push requires the *receiver* to validate), and
//!    the models' drain schedules differ only in stages that act on the
//!    empty secure queues. The unique stable state (Theorem 2.1) of such
//!    lanes therefore coincides bit for bit, and the fused pass runs one
//!    *computation* for the whole model group. `tests/fused_equivalence.rs`
//!    pins this equivalence against per-cell engines.
//!
//! Each distinct computation is a plain [`AttackDeltaEngine`], and every
//! attack is served by that engine's own [`AttackDeltaEngine::attack_set`]
//! (private contested-ball scan → patch, or fallback to a full compute).
//! Fused results are therefore `≡` per-cell results by construction: the
//! fused pass only decides *which* engines run, never *how*.
//!
//! **Deferred bases.** [`FusedDeltaEngine::begin`] defers every
//! computation's normal-conditions base exactly as
//! [`AttackDeltaEngine::begin`] does: the pair's first attack is served by
//! one direct [`crate::Engine::compute`] per distinct computation (after
//! model collapse, so an S=∅ pair runs one compute for all three models).
//! The bases — each policy group's computed once and adopted by its
//! strategy-only siblings — are built together at the pair's second
//! attack, or when [`FusedDeltaEngine::normal_outcome`],
//! [`FusedDeltaEngine::normal_happy`] or [`FusedDeltaEngine::export_bases`]
//! needs them. [`FusedDeltaEngine::begin_with_bases`] stays eager, since
//! its callers harvest the bases right away. A pair with k ≥ 2 attackers
//! pays one extra `compute − patch` per computation, not per attack.

use sbgp_topology::{AsGraph, AsId};

use crate::attack::AttackStrategy;
use crate::delta::{AttackDeltaEngine, Base, CachedBase, DeltaStats};
use crate::deployment::Deployment;
use crate::outcome::Outcome;
use crate::policy::Policy;

/// One policy cell of a fused pass: a complete routing policy plus the
/// attack-strategy rung every announcer uses. Construction canonicalizes
/// the strategy spelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PolicyCell {
    /// The routing policy (security model × LP variant).
    pub policy: Policy,
    /// The announcers' forged-path rung, canonicalized.
    pub strategy: AttackStrategy,
}

impl PolicyCell {
    /// A cell with `strategy` collapsed through
    /// [`AttackStrategy::canonical`].
    pub fn new(policy: Policy, strategy: AttackStrategy) -> PolicyCell {
        PolicyCell {
            policy,
            strategy: strategy.canonical(),
        }
    }
}

/// A deduplicated set of policy cells evaluated together by one fused
/// pass. Input cell order is preserved: input index `i` maps to lane
/// [`CellSet::lane_of`]`(i)`, and duplicate spellings (same policy, same
/// canonical strategy) share a lane instead of running twice.
#[derive(Clone, Debug)]
pub struct CellSet {
    lanes: Vec<PolicyCell>,
    lane_of: Vec<usize>,
}

impl CellSet {
    /// Dedup `cells` (in first-seen order) into lanes.
    ///
    /// # Panics
    ///
    /// Panics when `cells` is empty.
    pub fn new(cells: &[PolicyCell]) -> CellSet {
        assert!(!cells.is_empty(), "a CellSet needs at least one cell");
        let mut lanes: Vec<PolicyCell> = Vec::new();
        let mut lane_of = Vec::with_capacity(cells.len());
        for &c in cells {
            let c = PolicyCell::new(c.policy, c.strategy);
            let j = lanes.iter().position(|&l| l == c).unwrap_or_else(|| {
                lanes.push(c);
                lanes.len() - 1
            });
            lane_of.push(j);
        }
        CellSet { lanes, lane_of }
    }

    /// The row-major `policies × strategies` grid as a cell set.
    pub fn grid(policies: &[Policy], strategies: &[AttackStrategy]) -> CellSet {
        let cells: Vec<PolicyCell> = policies
            .iter()
            .flat_map(|&p| strategies.iter().map(move |&s| PolicyCell::new(p, s)))
            .collect();
        CellSet::new(&cells)
    }

    /// A single-strategy set, one cell per policy.
    pub fn per_policy(policies: &[Policy], strategy: AttackStrategy) -> CellSet {
        CellSet::grid(policies, &[strategy])
    }

    /// The unique lanes, in first-seen input order.
    pub fn lanes(&self) -> &[PolicyCell] {
        &self.lanes
    }

    /// Number of unique lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Number of input cells (before dedup).
    pub fn input_len(&self) -> usize {
        self.lane_of.len()
    }

    /// The lane serving input cell `i`.
    pub fn lane_of(&self, i: usize) -> usize {
        self.lane_of[i]
    }
}

/// How a fused engine's lanes were served (cumulative across begins).
/// `direct_attacks` and `forced_fallbacks` are read from the
/// per-computation engines' [`DeltaStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Cells fixed ([`FusedDeltaEngine::begin`] calls).
    pub begins: usize,
    /// Lanes that shared a sibling computation outright (model collapse).
    pub collapsed_lanes: usize,
    /// Base outcomes adopted from a sibling computation of the same
    /// policy group instead of being recomputed (strategy-only siblings;
    /// counted when the base is actually built).
    pub shared_bases: usize,
    /// Per-computation attacks served by a direct compute before the
    /// pair's bases were built (the first attack after a deferred begin).
    pub direct_attacks: usize,
    /// Per-computation attacks that fell back to a full compute after the
    /// bases were built: the contested ball blew its budget, either in the
    /// scan or while verify-and-grow enlarged the region.
    pub forced_fallbacks: usize,
    /// Base outcomes adopted from an *external* cache
    /// ([`FusedDeltaEngine::begin_with_bases`]) instead of being computed.
    pub cached_bases: usize,
}

/// One distinct computation of the current cell: the policy it actually
/// runs (the representative of its collapsed model group), its strategy,
/// and the computation whose normal-conditions base it shares.
#[derive(Clone, Copy, Debug)]
struct Comp {
    policy: Policy,
    strategy: AttackStrategy,
    base: usize,
}

/// The fused multi-cell attacker-delta engine: an [`AttackDeltaEngine`]
/// per *distinct* computation of a [`CellSet`]. See the module docs for
/// the sharing axes and the exactness argument.
///
/// Create one per worker and reuse it across destinations:
/// [`FusedDeltaEngine::begin`] fixes the `(destination, deployment)` pair
/// for every cell at once, then each [`FusedDeltaEngine::attack`] /
/// [`FusedDeltaEngine::attack_set`] serves all cells; results are read
/// back per *input* cell index.
#[derive(Debug)]
pub struct FusedDeltaEngine<'g> {
    graph: &'g AsGraph,
    cells: CellSet,
    /// One engine per computation, grown lazily; `engines[..comps.len()]`
    /// are live for the current cell.
    engines: Vec<AttackDeltaEngine<'g>>,
    comps: Vec<Comp>,
    /// Lane index → computation index, rebuilt per begin (model collapse
    /// depends on the deployment).
    comp_of: Vec<usize>,
    /// Whether the current pair's bases exist yet; every live engine is in
    /// the same state.
    base: Base,
    stats: FusedStats,
}

impl<'g> FusedDeltaEngine<'g> {
    /// Create a fused engine for `graph` serving `cells`.
    pub fn new(graph: &'g AsGraph, cells: CellSet) -> FusedDeltaEngine<'g> {
        FusedDeltaEngine {
            graph,
            cells,
            engines: Vec::new(),
            comps: Vec::new(),
            comp_of: Vec::new(),
            base: Base::Built,
            stats: FusedStats::default(),
        }
    }

    /// The cell set this engine serves.
    pub fn cells(&self) -> &CellSet {
        &self.cells
    }

    /// The topology this engine runs on.
    pub fn graph(&self) -> &'g AsGraph {
        self.graph
    }

    /// Distinct computations of the current cell (after model collapse);
    /// meaningful only after [`FusedDeltaEngine::begin`].
    pub fn computations(&self) -> usize {
        self.comps.len()
    }

    /// Cumulative fused-pass statistics.
    pub fn stats(&self) -> FusedStats {
        let delta = self.delta_stats();
        FusedStats {
            direct_attacks: delta.direct_attacks,
            forced_fallbacks: delta.full_recomputes - delta.direct_attacks,
            ..self.stats
        }
    }

    /// Summed statistics of the per-computation delta engines.
    pub fn delta_stats(&self) -> DeltaStats {
        let mut sum = DeltaStats::default();
        for e in &self.engines {
            sum.merge(&e.stats());
        }
        sum
    }

    /// Fix the `(destination, deployment)` pair for every cell: group the
    /// lanes into distinct computations (collapsing models when the
    /// deployment has no validators). Each policy group's
    /// normal-conditions base is deferred, then computed once and shared
    /// across the group (see the module docs).
    pub fn begin(&mut self, destination: AsId, deployment: &Deployment) {
        self.fix_pair(destination, deployment, |_| None);
    }

    /// As [`FusedDeltaEngine::begin`], adopting externally cached base
    /// states where available: for each distinct base computation,
    /// `base(policy)` may supply a [`CachedBase`] exported earlier from
    /// the **same** `(destination, deployment, policy)` cell, which is
    /// then re-adopted through [`AttackDeltaEngine::begin_from_base`]
    /// instead of recomputed. Unlike [`FusedDeltaEngine::begin`], every
    /// base is built here.
    ///
    /// This is the planner service's cache-adoption hook. Exactness is the
    /// caller's contract: a supplied base must be bit-identical to what a
    /// fresh computation of that cell would produce (which holds
    /// trivially when it *was* produced by one — the engines are
    /// deterministic), so results are bit-identical at any cache state.
    /// Freshly computed bases can be harvested afterwards via
    /// [`FusedDeltaEngine::export_bases`].
    ///
    /// # Panics
    ///
    /// Panics when a supplied base carries an attacker, covers a
    /// different graph size, or names a different destination.
    pub fn begin_with_bases<'b, F>(&mut self, destination: AsId, deployment: &Deployment, base: F)
    where
        F: FnMut(Policy) -> Option<&'b CachedBase>,
    {
        self.fix_pair(destination, deployment, base);
        self.ensure_bases();
    }

    /// Group the lanes into computations, adopt the supplied cached bases
    /// and defer every other base.
    fn fix_pair<'b, F>(&mut self, destination: AsId, deployment: &Deployment, mut lookup: F)
    where
        F: FnMut(Policy) -> Option<&'b CachedBase>,
    {
        self.stats.begins += 1;
        let collapse = deployment.full_count() == 0;
        let same_policy = |a: Policy, b: Policy| a == b || (collapse && a.variant == b.variant);
        let lane_cells: Vec<PolicyCell> = self.cells.lanes().to_vec();
        self.comps.clear();
        self.comp_of.clear();
        for cell in lane_cells {
            match self
                .comps
                .iter()
                .position(|c| same_policy(c.policy, cell.policy) && c.strategy == cell.strategy)
            {
                Some(ci) => {
                    // A behaviorally identical computation already exists:
                    // this lane rides it outright.
                    self.comp_of.push(ci);
                    self.stats.collapsed_lanes += 1;
                }
                None => {
                    let base = self
                        .comps
                        .iter()
                        .position(|c| same_policy(c.policy, cell.policy))
                        .unwrap_or(self.comps.len());
                    self.comps.push(Comp {
                        policy: cell.policy,
                        strategy: cell.strategy,
                        base,
                    });
                    self.comp_of.push(self.comps.len() - 1);
                }
            }
        }
        while self.engines.len() < self.comps.len() {
            self.engines.push(AttackDeltaEngine::new(self.graph));
        }
        for ci in 0..self.comps.len() {
            let Comp { policy, base, .. } = self.comps[ci];
            let cached = if base == ci { lookup(policy) } else { None };
            match cached {
                Some(cached) => {
                    assert_eq!(
                        cached.outcome().destination(),
                        destination,
                        "cached base outcome names a different destination"
                    );
                    self.engines[ci].begin_from_base(cached, deployment, policy);
                    self.stats.cached_bases += 1;
                }
                None => self.engines[ci].begin(destination, deployment, policy),
            }
        }
        self.base = Base::Deferred;
    }

    /// Build every deferred base of the current pair: each policy group's
    /// head computes its own (or already adopted a cached one), and its
    /// strategy-only siblings adopt it — the normal-conditions outcome does
    /// not depend on the strategy.
    fn ensure_bases(&mut self) {
        if self.base == Base::Built {
            return;
        }
        for ci in 0..self.comps.len() {
            let base = self.comps[ci].base;
            if base == ci {
                self.engines[ci].build_base(None);
            } else {
                debug_assert!(base < ci);
                let (head, tail) = self.engines.split_at_mut(ci);
                tail[0].build_base(Some(head[base].normal_outcome()));
                self.stats.shared_bases += 1;
            }
        }
        self.base = Base::Built;
    }

    /// Serve `attacker` for every cell (see
    /// [`FusedDeltaEngine::attack_set`]).
    pub fn attack(&mut self, attacker: AsId) {
        self.attack_set(&[attacker]);
    }

    /// Serve a colluding announcer set for every cell: each distinct
    /// computation's engine serves it (a direct compute on the pair's first
    /// attack, then scan → patch or fallback against the shared bases).
    ///
    /// # Panics
    ///
    /// Panics before [`FusedDeltaEngine::begin`], or when `attackers`
    /// violates [`crate::AttackScenario::colluding`]'s preconditions.
    pub fn attack_set(&mut self, attackers: &[AsId]) {
        assert!(!self.comps.is_empty(), "FusedDeltaEngine::begin not called");
        match self.base {
            // The pair's first attack: every engine serves it directly.
            Base::Deferred => self.base = Base::DeferredServed,
            Base::DeferredServed => self.ensure_bases(),
            Base::Built => {}
        }
        for (comp, engine) in self.comps.iter().zip(&mut self.engines) {
            engine.attack_set(attackers, comp.strategy);
        }
    }

    fn engine_for(&self, cell: usize) -> &AttackDeltaEngine<'g> {
        &self.engines[self.comp_of[self.cells.lane_of(cell)]]
    }

    /// Input cell `cell`'s engine with the pair's bases built.
    fn built_engine_for(&mut self, cell: usize) -> &mut AttackDeltaEngine<'g> {
        self.ensure_bases();
        &mut self.engines[self.comp_of[self.cells.lane_of(cell)]]
    }

    /// The last served outcome of input cell `cell` — bit-identical to
    /// what a dedicated [`AttackDeltaEngine`] (and hence
    /// [`crate::Engine::compute`]) returns for that cell.
    pub fn outcome(&self, cell: usize) -> &Outcome {
        self.engine_for(cell).last_outcome()
    }

    /// Happy-source bounds of the last served attack of input cell `cell`.
    pub fn count_happy(&self, cell: usize) -> (usize, usize) {
        self.engine_for(cell).count_happy()
    }

    /// The normal-conditions outcome of input cell `cell`, building the
    /// pair's deferred bases first.
    pub fn normal_outcome(&mut self, cell: usize) -> &Outcome {
        self.built_engine_for(cell).normal_outcome()
    }

    /// Happy bounds of input cell `cell`'s normal-conditions outcome,
    /// building the pair's deferred bases first.
    pub fn normal_happy(&mut self, cell: usize) -> (usize, usize) {
        self.built_engine_for(cell).normal_happy()
    }

    /// As [`FusedDeltaEngine::outcome`], indexed by *lane* (unique cell)
    /// instead of input cell — for drivers that iterate
    /// [`CellSet::lanes`] directly (e.g. handing each lane to a
    /// [`crate::SweepEngine`]).
    pub fn lane_outcome(&self, lane: usize) -> &Outcome {
        self.engines[self.comp_of[lane]].last_outcome()
    }

    /// As [`FusedDeltaEngine::count_happy`], indexed by lane.
    pub fn lane_happy(&self, lane: usize) -> (usize, usize) {
        self.engines[self.comp_of[lane]].count_happy()
    }

    /// The current cell's distinct base computations as
    /// `(policy, exported base)` pairs — one per computation that owns its
    /// own base (model collapse reports the group's representative
    /// policy). This is the harvest side of
    /// [`FusedDeltaEngine::begin_with_bases`]: a caching layer keeps the
    /// bases it did not supply and re-adopts them on later queries.
    /// Builds deferred bases first.
    pub fn export_bases(&mut self) -> impl Iterator<Item = (Policy, CachedBase)> {
        self.ensure_bases();
        let mut bases = Vec::new();
        for (ci, c) in self.comps.iter().enumerate() {
            if c.base == ci {
                bases.push((c.policy, self.engines[ci].export_base()));
            }
        }
        bases.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LpVariant, SecurityModel};
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

    fn all_policies() -> Vec<Policy> {
        let mut out = Vec::new();
        for model in SecurityModel::ALL {
            for variant in [LpVariant::Standard, LpVariant::LpK(2)] {
                out.push(Policy::with_variant(model, variant));
            }
        }
        out
    }

    #[test]
    fn cell_set_dedups_canonical_spellings() {
        let p = Policy::new(SecurityModel::Security3rd);
        let cells = CellSet::new(&[
            PolicyCell::new(p, AttackStrategy::FakePath { hops: 1 }),
            PolicyCell::new(p, AttackStrategy::FakeLink),
            PolicyCell::new(p, AttackStrategy::FakePath { hops: 0 }),
            PolicyCell::new(p, AttackStrategy::OriginHijack),
            PolicyCell::new(p, AttackStrategy::FakePath { hops: 2 }),
        ]);
        assert_eq!(cells.input_len(), 5);
        assert_eq!(
            cells.lane_count(),
            3,
            "fake-link and hijack spellings collapse"
        );
        assert_eq!(cells.lane_of(0), cells.lane_of(1));
        assert_eq!(cells.lane_of(2), cells.lane_of(3));
    }

    #[test]
    fn fused_matches_per_cell_engines_everywhere() {
        let g = gadget();
        let cells = CellSet::grid(
            &all_policies(),
            &[
                AttackStrategy::FakeLink,
                AttackStrategy::FakePath { hops: 2 },
            ],
        );
        let deps = [
            Deployment::empty(8),
            Deployment::full_from_iter(8, [AsId(0), AsId(1), AsId(2)]),
        ];
        let mut fused = FusedDeltaEngine::new(&g, cells.clone());
        let mut solo = AttackDeltaEngine::new(&g);
        for dep in &deps {
            for d in [AsId(0), AsId(2)] {
                fused.begin(d, dep);
                for m in 0..8u32 {
                    let m = AsId(m);
                    if m == d {
                        continue;
                    }
                    fused.attack(m);
                    for (i, cell) in cells.lanes().iter().enumerate() {
                        solo.begin(d, dep, cell.policy);
                        solo.attack(m, cell.strategy);
                        let want = solo.last_outcome();
                        let got = fused.outcome(i);
                        for v in g.ases() {
                            assert_eq!(
                                got.route(v),
                                want.route(v),
                                "cell {cell:?} d={d} m={m} at {v}"
                            );
                            assert_eq!(got.next_hop(v), want.next_hop(v), "cell {cell:?}");
                        }
                        assert_eq!(
                            fused.count_happy(i),
                            solo.count_happy(),
                            "cell {cell:?} d={d} m={m}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn models_collapse_without_validators() {
        let g = gadget();
        let policies: Vec<Policy> = SecurityModel::ALL.map(Policy::new).to_vec();
        let cells = CellSet::per_policy(&policies, AttackStrategy::FakeLink);
        let mut fused = FusedDeltaEngine::new(&g, cells);
        fused.begin(AsId(0), &Deployment::empty(8));
        assert_eq!(fused.computations(), 1, "three models, one computation");
        // Simplex-only deployments still collapse: signing without
        // validation never assembles a secure route.
        let mut dep = Deployment::empty(8);
        dep.insert_simplex(AsId(0));
        fused.begin(AsId(0), &dep);
        assert_eq!(fused.computations(), 1);
        // A single validator splits the models apart again.
        fused.begin(AsId(0), &Deployment::full_from_iter(8, [AsId(1)]));
        assert_eq!(fused.computations(), 3);
    }
}
