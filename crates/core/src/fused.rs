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
//! fused pass only decides *which* engines run, never *how*. The grouping
//! itself is [`CellSet::computations`], which the plain-compute path shares.
//!
//! Every begin builds its bases at once: each policy group's head computes
//! its normal-conditions outcome (or adopts a cached one through
//! [`FusedDeltaEngine::begin_with_bases`]) and its strategy-only siblings
//! adopt the head's. The engine pays off where a pair's bases are reused —
//! many attackers per destination, or bases cached across queries.

use sbgp_topology::{AsGraph, AsId};

use crate::attack::AttackStrategy;
use crate::delta::{AttackDeltaEngine, CachedBase, DeltaStats};
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

    /// Group the lanes into the distinct computations they need at
    /// `deployment`: lanes share a computation when they share their
    /// strategy and their policy — or, at a deployment with no validating
    /// AS, just their LP variant (model collapse, see the module docs).
    /// Returns the computations in first-seen lane order and each lane's
    /// computation index.
    pub fn computations(&self, deployment: &Deployment) -> (Vec<Computation>, Vec<usize>) {
        let collapse = deployment.full_count() == 0;
        let same_policy = |a: Policy, b: Policy| a == b || (collapse && a.variant == b.variant);
        let mut comps: Vec<Computation> = Vec::new();
        let mut comp_of = Vec::with_capacity(self.lanes.len());
        for &cell in &self.lanes {
            let found = comps.iter().position(|c| {
                same_policy(c.cell.policy, cell.policy) && c.cell.strategy == cell.strategy
            });
            comp_of.push(found.unwrap_or_else(|| {
                let base = comps
                    .iter()
                    .position(|c| same_policy(c.cell.policy, cell.policy))
                    .unwrap_or(comps.len());
                comps.push(Computation { cell, base });
                comps.len() - 1
            }));
        }
        (comps, comp_of)
    }
}

/// One distinct computation of a [`CellSet`] at a deployment (see
/// [`CellSet::computations`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Computation {
    /// The cell it runs: the first lane of its group, whose policy
    /// represents a collapsed model group.
    pub cell: PolicyCell,
    /// The computation whose normal-conditions outcome this one shares —
    /// the first of its policy group (itself when it is that head): the
    /// outcome without an attacker does not depend on the strategy.
    pub base: usize,
}

/// How a fused engine's lanes were served (cumulative across begins).
/// `forced_fallbacks` is read from the per-computation engines'
/// [`DeltaStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Cells fixed ([`FusedDeltaEngine::begin`] calls).
    pub begins: usize,
    /// Lanes that shared a sibling computation outright (model collapse).
    pub collapsed_lanes: usize,
    /// Base outcomes adopted from a sibling computation of the same
    /// policy group instead of being recomputed (strategy-only siblings).
    pub shared_bases: usize,
    /// Per-computation attacks that fell back to a full compute: the
    /// contested ball blew its budget, either in the scan or while
    /// verify-and-grow enlarged the region.
    pub forced_fallbacks: usize,
    /// Base outcomes adopted from an *external* cache
    /// ([`FusedDeltaEngine::begin_with_bases`]) instead of being computed.
    pub cached_bases: usize,
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
    comps: Vec<Computation>,
    /// Lane index → computation index, rebuilt per begin (model collapse
    /// depends on the deployment).
    comp_of: Vec<usize>,
    /// The computations whose base the last begin computed rather than
    /// adopted from a supplied cache.
    computed: Vec<usize>,
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
            computed: Vec::new(),
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
        FusedStats {
            forced_fallbacks: self.delta_stats().full_recomputes,
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
    /// deployment has no validators), compute each policy group's
    /// normal-conditions base once and share it across the group.
    pub fn begin(&mut self, destination: AsId, deployment: &Deployment) {
        self.begin_with_bases(destination, deployment, |_| None);
    }

    /// As [`FusedDeltaEngine::begin`], adopting externally cached base
    /// states where available: for each distinct base computation,
    /// `base(policy)` may supply a [`CachedBase`] exported earlier from
    /// the **same** `(destination, deployment, policy)` cell, which is
    /// then re-adopted through [`AttackDeltaEngine::begin_from_base`]
    /// instead of recomputed.
    ///
    /// This is the planner service's cache-adoption hook. Exactness is the
    /// caller's contract: a supplied base must be bit-identical to what a
    /// fresh computation of that cell would produce (which holds
    /// trivially when it *was* produced by one — the engines are
    /// deterministic), so results are bit-identical at any cache state.
    /// The bases computed here instead can be harvested afterwards via
    /// [`FusedDeltaEngine::export_bases`].
    ///
    /// # Panics
    ///
    /// Panics when a supplied base carries an attacker, covers a
    /// different graph size, or names a different destination.
    pub fn begin_with_bases<'b, F>(
        &mut self,
        destination: AsId,
        deployment: &Deployment,
        mut base: F,
    ) where
        F: FnMut(Policy) -> Option<&'b CachedBase>,
    {
        self.stats.begins += 1;
        (self.comps, self.comp_of) = self.cells.computations(deployment);
        self.stats.collapsed_lanes += self.cells.lane_count() - self.comps.len();
        self.computed.clear();
        while self.engines.len() < self.comps.len() {
            self.engines.push(AttackDeltaEngine::new(self.graph));
        }
        for (ci, comp) in self.comps.iter().enumerate() {
            let policy = comp.cell.policy;
            if comp.base != ci {
                // A strategy-only sibling of an earlier head: the
                // normal-conditions outcome does not depend on the strategy.
                let (head, tail) = self.engines.split_at_mut(ci);
                tail[0].begin_from_normal(head[comp.base].normal_outcome(), deployment, policy);
                self.stats.shared_bases += 1;
            } else if let Some(cached) = base(policy) {
                assert_eq!(
                    cached.outcome().destination(),
                    destination,
                    "cached base outcome names a different destination"
                );
                self.engines[ci].begin_from_base(cached, deployment, policy);
                self.stats.cached_bases += 1;
            } else {
                self.engines[ci].begin(destination, deployment, policy);
                self.computed.push(ci);
            }
        }
    }

    /// Serve `attacker` for every cell (see
    /// [`FusedDeltaEngine::attack_set`]).
    pub fn attack(&mut self, attacker: AsId) {
        self.attack_set(&[attacker]);
    }

    /// Serve a colluding announcer set for every cell: each distinct
    /// computation's engine serves it (scan → patch, or fallback to a full
    /// compute, against the shared bases).
    ///
    /// # Panics
    ///
    /// Panics before [`FusedDeltaEngine::begin`], or when `attackers`
    /// violates [`crate::AttackScenario::colluding`]'s preconditions.
    pub fn attack_set(&mut self, attackers: &[AsId]) {
        assert!(!self.comps.is_empty(), "FusedDeltaEngine::begin not called");
        for (comp, engine) in self.comps.iter().zip(&mut self.engines) {
            engine.attack_set(attackers, comp.cell.strategy);
        }
    }

    fn engine_for(&self, cell: usize) -> &AttackDeltaEngine<'g> {
        &self.engines[self.comp_of[self.cells.lane_of(cell)]]
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

    /// The normal-conditions outcome of input cell `cell`.
    pub fn normal_outcome(&self, cell: usize) -> &Outcome {
        self.engine_for(cell).normal_outcome()
    }

    /// Happy bounds of input cell `cell`'s normal-conditions outcome.
    pub fn normal_happy(&self, cell: usize) -> (usize, usize) {
        self.engine_for(cell).normal_happy()
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

    /// The bases the last begin computed, as `(policy, exported base)`
    /// pairs — one per policy-group head it did not adopt from a supplied
    /// cache (model collapse reports the group's representative policy).
    /// This is the harvest side of [`FusedDeltaEngine::begin_with_bases`]:
    /// a caching layer keeps these and re-adopts them on later queries.
    pub fn export_bases(&self) -> impl Iterator<Item = (Policy, CachedBase)> + '_ {
        self.computed
            .iter()
            .map(|&ci| (self.comps[ci].cell.policy, self.engines[ci].export_base()))
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
        let sec = Policy::new;
        let lp2 = |m| Policy::with_variant(m, LpVariant::LpK(2));
        let policies: Vec<Policy> = SecurityModel::ALL
            .iter()
            .flat_map(|&m| [sec(m), lp2(m)])
            .collect();
        let hop2 = AttackStrategy::FakePath { hops: 2 };
        let cells = CellSet::grid(&policies, &[AttackStrategy::FakeLink, hop2]);
        assert_eq!(cells.lane_count(), 12);
        let comp = |cell: PolicyCell, base| Computation { cell, base };
        let fake_link = |p| PolicyCell::new(p, AttackStrategy::FakeLink);
        let path2 = |p| PolicyCell::new(p, hop2);
        // Three models, one computation per (LP variant, strategy); each
        // variant's hop-2 computation shares its fake-link head's base.
        let collapsed = |dep: &Deployment| {
            let (comps, comp_of) = cells.computations(dep);
            assert_eq!(
                comps,
                [
                    comp(fake_link(sec(SecurityModel::Security1st)), 0),
                    comp(path2(sec(SecurityModel::Security1st)), 0),
                    comp(fake_link(lp2(SecurityModel::Security1st)), 2),
                    comp(path2(lp2(SecurityModel::Security1st)), 2),
                ]
            );
            // Lanes run model-major: every model repeats the same four.
            assert_eq!(comp_of, [0, 1, 2, 3].repeat(3));
        };
        collapsed(&Deployment::empty(8));
        // Simplex-only deployments still collapse: signing without
        // validation never assembles a secure route.
        let mut dep = Deployment::empty(8);
        dep.insert_simplex(AsId(0));
        collapsed(&dep);
        // A single validator splits the models apart again: every lane is
        // its own computation, and only strategy siblings share a base.
        let (comps, comp_of) = cells.computations(&Deployment::full_from_iter(8, [AsId(1)]));
        assert_eq!(comp_of, (0..12).collect::<Vec<_>>());
        for (ci, c) in comps.iter().enumerate() {
            assert_eq!(c.cell, cells.lanes()[ci]);
            assert_eq!(c.base, ci - ci % 2, "{c:?}");
        }
    }
}
