//! The patch core both incremental engines serve from, and the dirty-region
//! machinery it runs.
//!
//! [`crate::SweepEngine`] (deployment axis) and [`crate::AttackDeltaEngine`]
//! (attacker axis) answer a query by patching an exact *base* outcome: they
//! seed a *region* of ASes whose route may change, re-solve only the region
//! on top of the base, and verify local consistency at its border. When no
//! change escapes the region, the patched state is locally consistent at
//! every AS — inside the region by construction, outside it because no
//! input changed — and Theorem 2.1 uniqueness makes it the exact stable
//! state. The engines differ only in how they seed the region (the
//! contested-ball scan versus the symmetric difference of the secure sets)
//! and in whether a served outcome becomes the next base (the sweep commits
//! every step; the delta engine keeps its normal-conditions base). The
//! rest — undo, solve, budget fallback, happy-bound patching and commit —
//! is [`PatchCore`].
//!
//! **Snapshot/undo invariant.** The working outcome differs from the base
//! only where the last serve wrote: nowhere (after an adopt or a commit),
//! at the last patch's final region, or anywhere (the last serve computed
//! fresh). A region solve confines its writes to the region; the engine's
//! fix log catches the one exception — an AS unreachable in the base
//! getting fixed — and absorbs it into the region. The next serve undoes
//! exactly that difference and a commit copies exactly it into the base, so
//! no patch pays an `O(V)` copy.
//!
//! **Verify and grow.** A neighbor `u` of a changed AS `v` is *affected*
//! only when `v`'s old or new offer would tie or beat `u`'s current route
//! under the reference [`preference_key`] order. The condition is
//!
//! * the **new** offer ties or beats `u`'s current route — `v` now joins
//!   `u`'s `BPR` set (a tie) or `u` switches to it (a win): the
//!   improved-offer direction that monotone growth exercises;
//! * the **old** offer tied or beat `u`'s current route — `v` sat in `u`'s
//!   `BPR` set, and its offer has now been *withdrawn or worsened* (e.g. a
//!   secure offer that lost its security when the owner left `S`), which
//!   can strictly worsen `u`'s best route even though the replacement offer
//!   looks unremarkable. Note the min-property guaranteeing this check is
//!   complete: in a stable state `u`'s selected route is the best offer it
//!   receives, so any offer `u` actually used satisfies `old_offer <= k`
//!   and a worsened dependency never slips past the filter.
//!
//! Anything strictly worse in both states (the common case, e.g. a hub
//! whose short customer route dwarfs the offer) cannot change `u`'s
//! selection, so high-degree ASes stay out of the region unless truly
//! implicated.
//!
//! Only core growth costs another solve. A non-root stub exports no route
//! (Ex), so a stub absorbed into the region can change no other AS's
//! route, and a re-solve would reproduce every core route unchanged: such
//! stubs are resolved in place and the loop stops.
//!
//! The whole solve → verify → grow loop and its give-up rule
//! ([`mass_budget`]) are shared.

use sbgp_topology::{AsGraph, AsId, AsSet};

use crate::attack::AttackScenario;
use crate::deployment::Deployment;
use crate::engine::Engine;
use crate::outcome::{Outcome, KIND_CUSTOMER, KIND_ORIGIN, KIND_PEER, KIND_PROVIDER, KIND_UNFIXED};
use crate::policy::{preference_key, Policy};

/// The region mass (sum of member degrees) above which a patch stops
/// beating a fresh [`Engine::compute`]: a patch pays about three passes
/// over the region's adjacency where a compute pays one over the whole
/// graph's mass `n + 2·E`. Regions are hub-heavy, so node counts would
/// track cost poorly.
pub(crate) fn mass_budget(graph: &AsGraph) -> usize {
    (graph.len() + 2 * graph.num_edges()) / 6
}

/// A set of ASes, also listed in insertion order.
#[derive(Debug)]
pub(crate) struct Region {
    pub(crate) set: AsSet,
    pub(crate) list: Vec<AsId>,
}

impl Region {
    /// Add `v`; returns whether it was not a member yet.
    pub(crate) fn insert(&mut self, v: AsId) -> bool {
        let new = self.set.insert(v);
        if new {
            self.list.push(v);
        }
        new
    }
}

/// Where the working outcome may differ from the base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Restore {
    /// Nowhere.
    Clean,
    /// At the entries of the last patch's final region.
    Touched,
    /// Anywhere (the last serve computed fresh).
    Full,
}

/// How a [`PatchCore::serve`] went.
pub(crate) struct Served {
    /// Verify steps that absorbed a core AS, each paid with a re-solve.
    pub(crate) grow_rounds: usize,
    /// The final region's size when the patch held; `None` when the region
    /// passed the budget and the outcome was computed fresh.
    pub(crate) refixed: Option<usize>,
}

/// An exact base outcome, the working outcome served off it, and the
/// bookkeeping between the two (see the module docs).
#[derive(Debug)]
pub(crate) struct PatchCore<'g> {
    engine: Engine<'g>,
    base: Outcome,
    /// Happy-source bounds ([`Outcome::count_happy`]) of the base and of
    /// the served outcome.
    base_happy: (usize, usize),
    happy: (usize, usize),
    region: Region,
    /// The last patch's final region, valid while `restore` is `Touched`.
    touched: Vec<AsId>,
    restore: Restore,
}

impl<'g> PatchCore<'g> {
    pub(crate) fn new(graph: &'g AsGraph) -> PatchCore<'g> {
        PatchCore {
            engine: Engine::new(graph),
            base: Outcome::new_empty(),
            base_happy: (0, 0),
            happy: (0, 0),
            region: Region {
                set: AsSet::new(graph.len()),
                list: Vec::new(),
            },
            touched: Vec::new(),
            restore: Restore::Clean,
        }
    }

    pub(crate) fn graph(&self) -> &'g AsGraph {
        self.engine.graph()
    }

    pub(crate) fn base(&self) -> &Outcome {
        &self.base
    }

    pub(crate) fn base_happy(&self) -> (usize, usize) {
        self.base_happy
    }

    /// The served outcome: the base itself after an adopt or a commit.
    pub(crate) fn outcome(&self) -> &Outcome {
        self.engine.outcome()
    }

    pub(crate) fn happy(&self) -> (usize, usize) {
        self.happy
    }

    /// Make `outcome`, whose happy bounds are `happy`, the base and the
    /// served outcome.
    pub(crate) fn adopt(&mut self, outcome: &Outcome, happy: (usize, usize)) {
        self.base.copy_from(outcome);
        self.engine.outcome_mut().copy_from(outcome);
        self.base_happy = happy;
        self.happy = happy;
        self.restore = Restore::Clean;
    }

    /// Serve a fresh [`Engine::compute`].
    pub(crate) fn compute(
        &mut self,
        scenario: AttackScenario,
        deployment: &Deployment,
        policy: Policy,
    ) {
        self.engine.compute(scenario, deployment, policy);
        self.happy = self.engine.outcome().count_happy();
        self.restore = Restore::Full;
    }

    /// Make the served outcome the base.
    pub(crate) fn commit(&mut self) {
        sync(
            self.restore,
            &self.touched,
            &mut self.base,
            self.engine.outcome(),
        );
        self.base_happy = self.happy;
        self.restore = Restore::Clean;
    }

    /// Clear the region for seeding; returns it with the base the seeds
    /// are read from.
    pub(crate) fn seed(&mut self) -> (&Outcome, &mut Region) {
        self.region.set.clear();
        self.region.list.clear();
        (&self.base, &mut self.region)
    }

    /// Serve `scenario` by patching the base over the seeded region, whose
    /// adjacency mass is `mass`: undo the last serve, solve the region to
    /// local consistency (growing it as needed) and patch the happy bounds.
    /// A region past [`mass_budget`] is served by a fresh compute instead;
    /// seeds already past it cost no undo and no solve.
    pub(crate) fn serve(
        &mut self,
        scenario: AttackScenario,
        deployment: &Deployment,
        policy: Policy,
        mass: usize,
    ) -> Served {
        if mass > mass_budget(self.graph()) {
            self.compute(scenario, deployment, policy);
            return Served {
                grow_rounds: 0,
                refixed: None,
            };
        }
        sync(
            self.restore,
            &self.touched,
            self.engine.outcome_mut(),
            &self.base,
        );
        let (within_budget, grow_rounds) = solve_within_budget(
            &mut self.engine,
            &self.base,
            scenario,
            deployment,
            policy,
            &mut self.region,
            mass,
        );
        if !within_budget {
            self.compute(scenario, deployment, policy);
            return Served {
                grow_rounds,
                refixed: None,
            };
        }
        self.happy = self.base_happy;
        patch_happy(
            &mut self.happy,
            &self.base,
            self.engine.outcome(),
            &self.region.list,
        );
        // The final region is exactly where the working outcome now
        // differs from the base.
        std::mem::swap(&mut self.touched, &mut self.region.list);
        self.restore = Restore::Touched;
        Served {
            grow_rounds,
            refixed: Some(self.touched.len()),
        }
    }
}

/// Copy `from` into `to` wherever `restore` says they may differ.
fn sync(restore: Restore, touched: &[AsId], to: &mut Outcome, from: &Outcome) {
    match restore {
        Restore::Clean => {}
        Restore::Touched => {
            for &v in touched {
                to.copy_entry_from(from, v);
            }
        }
        Restore::Full => to.copy_from(from),
    }
}

/// Solve the region to local consistency on top of `base`: solve, verify
/// ([`grow_affected`]), re-solve after core growth, resolve stub-only
/// growth in place. `mass` is the adjacency mass of the region on entry;
/// absorbed members add theirs, and every loop top (so also a stub-grown
/// region before it is served) checks it against [`mass_budget`]. Returns
/// whether the region stayed within the budget — if so the working outcome
/// is exact, else partial — and the grow rounds (core absorptions) spent.
fn solve_within_budget(
    engine: &mut Engine,
    base: &Outcome,
    scenario: AttackScenario,
    deployment: &Deployment,
    policy: Policy,
    region: &mut Region,
    mut mass: usize,
) -> (bool, usize) {
    let graph = engine.graph();
    let budget = mass_budget(graph);
    let mut counted = region.list.len();
    let mut grow_rounds = 0;
    let mut stubs_from = None;
    loop {
        for &v in &region.list[counted..] {
            mass += graph.degree(v);
        }
        counted = region.list.len();
        if mass > budget {
            return (false, grow_rounds);
        }
        if let Some(from) = stubs_from {
            engine.resolve_stubs(&region.list[from..], policy, deployment);
            break;
        }
        engine.solve_region(
            scenario,
            deployment,
            policy,
            &mut region.set,
            &mut region.list,
        );
        // Core growth costs a re-solve (a grow round); stub-only growth is
        // resolved in place once the grown region passed the budget check.
        let solved = region.list.len();
        if grow_affected(
            graph,
            engine.outcome(),
            base,
            scenario,
            deployment,
            policy,
            region,
        ) {
            grow_rounds += 1;
        } else if region.list.len() > solved {
            stubs_from = Some(solved);
        } else {
            break;
        }
    }
    (true, grow_rounds)
}

/// Move the happy-source bounds `happy` ([`Outcome::count_happy`]) from
/// `old` to `new`, two outcomes that differ only at `members`. Each
/// outcome's own destination and announcers are not its sources.
fn patch_happy(happy: &mut (usize, usize), old: &Outcome, new: &Outcome, members: &[AsId]) {
    let source = |o: &Outcome, v: AsId| v != o.destination() && o.attackers().all(|m| m != v);
    for &v in members {
        if source(old, v) {
            let f = old.flags(v);
            happy.0 -= usize::from(f.surely_happy());
            happy.1 -= usize::from(f.may_reach_destination());
        }
        if source(new, v) {
            let f = new.flags(v);
            happy.0 += usize::from(f.surely_happy());
            happy.1 += usize::from(f.may_reach_destination());
        }
    }
}

/// Compare `new` against `old` at every region member and absorb the
/// genuinely affected out-of-region neighbors into `region`. When nothing
/// escaped, the patch is exact (see the module docs). Returns whether a
/// core AS (one with customers) was absorbed; if only non-root stubs were,
/// the solved core stands.
///
/// The destination and the announcers never join the region: their entries
/// are roots, re-fixed explicitly by the caller when needed (with colluding
/// attackers, *every* member of the announcer set is excluded).
fn grow_affected(
    graph: &AsGraph,
    new: &Outcome,
    old: &Outcome,
    scenario: AttackScenario,
    deployment: &Deployment,
    policy: Policy,
    region: &mut Region,
) -> bool {
    let d = scenario.destination;
    let mut frontier: Vec<AsId> = Vec::new();
    for &v in region.list.iter() {
        if new.same_for_neighbors(old, v) {
            continue;
        }
        // Each neighbor list with the route class `u` would learn from
        // `v`: v's providers learn a customer route, and so on.
        let classes: [(&[AsId], u8); 3] = [
            (graph.providers(v), 0),
            (graph.peers(v), 1),
            (graph.customers(v), 2),
        ];
        for (neighbors, rank) in classes {
            for &u in neighbors {
                if region.set.contains(u) || u == d || scenario.is_attacker(u) {
                    continue;
                }
                let validating = deployment.validates(u);
                let current = current_key(old, u, policy, validating);
                let old_offer = offer_key(old, v, rank, policy, validating);
                let new_offer = offer_key(new, v, rank, policy, validating);
                let affected = match current {
                    None => old_offer.is_some() || new_offer.is_some(),
                    Some(k) => {
                        old_offer.is_some_and(|o| o <= k) || new_offer.is_some_and(|o| o <= k)
                    }
                };
                if affected {
                    frontier.push(u);
                }
            }
        }
    }
    let mut core = false;
    for u in frontier {
        if region.insert(u) {
            core |= !graph.customers(u).is_empty();
        }
    }
    core
}

/// `u`'s current position in the preference order, or `None` when it has no
/// route. Roots never call this.
pub(crate) fn current_key(
    outcome: &Outcome,
    u: AsId,
    policy: Policy,
    validating: bool,
) -> Option<(u32, u32, u32)> {
    let i = u.index();
    let rank = match outcome.kind[i] {
        KIND_UNFIXED => return None,
        KIND_ORIGIN | KIND_CUSTOMER => 0,
        KIND_PEER => 1,
        KIND_PROVIDER => 2,
        other => unreachable!("bad kind {other}"),
    };
    Some(preference_key(
        policy,
        validating,
        rank,
        outcome.len[i],
        outcome.secure_at(i),
    ))
}

/// The position of the route `u` would learn from `v` at class `rank`, or
/// `None` when `v` has no route or may not export it at that class (Ex).
pub(crate) fn offer_key(
    outcome: &Outcome,
    v: AsId,
    rank: u8,
    policy: Policy,
    validating: bool,
) -> Option<(u32, u32, u32)> {
    let i = v.index();
    let kind = outcome.kind[i];
    if kind == KIND_UNFIXED {
        return None;
    }
    if rank != 2 && kind != KIND_ORIGIN && kind != KIND_CUSTOMER {
        return None;
    }
    Some(preference_key(
        policy,
        validating,
        rank,
        outcome.len[i] + 1,
        outcome.secure_at(i) && validating,
    ))
}
