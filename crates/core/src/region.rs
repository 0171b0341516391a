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
//! no patch pays an `O(V)` copy. A commit can also record the base entries
//! it overwrites, so that the sweep can later write them back
//! ([`PatchCore::rewind`]; see [`crate::SweepEngine`] on retraced steps).
//!
//! **Verify and grow.** A patch runs in *rounds*. Round 1 solves the seeds
//! on top of the base. Each round then verifies only its own members
//! against the working outcome as it stood before that round, and absorbs
//! the genuinely affected neighbors into the next round's *frontier*;
//! members of earlier rounds that are affected again are included. The
//! next round solves only that frontier on top of the working outcome. The
//! loop ends when a verify absorbs nothing. Exactness needs only one fact
//! per round: outside a round's members no AS's route was written, so only
//! the neighbors of its changed members can see a new input, and the
//! verify checks exactly those. Every AS that may be inconsistent after a
//! round is thus in the next frontier, and an empty frontier leaves the
//! working outcome locally consistent everywhere.
//!
//! A neighbor `u` of a changed AS `v` is *affected*
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
//!   complete: in a locally consistent state `u`'s selected route is the
//!   best offer it receives, so any offer `u` actually used satisfies
//!   `old_offer <= k` and a worsened dependency never slips past the
//!   filter. (An `u` that was inconsistent before the round is one of the
//!   round's members, so it is never judged by this filter.)
//!
//! Anything strictly worse in both states (the common case, e.g. a hub
//! whose short customer route dwarfs the offer) cannot change `u`'s
//! selection, so high-degree ASes stay out of the region unless truly
//! implicated.
//!
//! Only core growth costs another solve. A non-root stub exports no route
//! (Ex), so a stub absorbed into the frontier can change no other AS's
//! route: a frontier of stubs alone is resolved in place and the loop
//! stops.
//!
//! The *region* a patch reports — its undo set, the members whose happy
//! counts it patches and its re-fixed count — is the union of every
//! round's members. The whole round loop and its give-up rule
//! ([`mass_budget`]) are shared.

use sbgp_topology::{AsGraph, AsId, AsSet};

use crate::attack::AttackScenario;
use crate::deployment::Deployment;
use crate::engine::Engine;
use crate::outcome::{
    Entry, Outcome, KIND_CUSTOMER, KIND_ORIGIN, KIND_PEER, KIND_PROVIDER, KIND_UNFIXED,
};
use crate::policy::{preference_key, Policy};

/// The mass (sum of member degrees) a patch may solve, summed over all of
/// its rounds, before it stops beating a fresh [`Engine::compute`]: a
/// patch pays about three passes over the adjacency it solves where a
/// compute pays one over the whole graph's mass `n + 2·E`. Every round's
/// members are charged, so an AS re-absorbed by a later round is charged
/// again; the charge thus bounds the work of the whole loop and ends it.
/// Regions are hub-heavy, so node counts would track cost poorly.
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
    fn new(n: usize) -> Region {
        Region {
            set: AsSet::new(n),
            list: Vec::new(),
        }
    }

    /// Add `v`; returns whether it was not a member yet.
    pub(crate) fn insert(&mut self, v: AsId) -> bool {
        let new = self.set.insert(v);
        if new {
            self.list.push(v);
        }
        new
    }

    /// Remove every member, in `O(members)`.
    fn clear(&mut self) {
        for v in self.list.drain(..) {
            self.set.remove(v);
        }
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
    /// Frontier solves: verify steps that absorbed a core AS, each paid
    /// with a solve of the absorbed frontier.
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
    /// The union of a patch's rounds (the seeds on entry).
    region: Region,
    /// The members of the round being solved, and the frontier its verify
    /// collects for the next one.
    round: Region,
    frontier: Region,
    /// The working outcome as it stood before the current round, from a
    /// patch's second round on (the first verifies against the base).
    before: Outcome,
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
            region: Region::new(graph.len()),
            round: Region::new(graph.len()),
            frontier: Region::new(graph.len()),
            before: Outcome::new_empty(),
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

    /// Make the served outcome the base. With `overwritten`, first record
    /// there every base entry the commit changes, so that [`Self::rewind`]
    /// can undo it: the entries at the last patch's final region, or, after
    /// a fresh compute, only the entries that differ (one `O(V)` compare
    /// keeps a diff, not a snapshot). The base must cover the graph then.
    pub(crate) fn commit(&mut self, overwritten: Option<&mut Vec<(AsId, Entry)>>) {
        if let Some(saved) = overwritten {
            saved.clear();
            let (base, new) = (&self.base, self.engine.outcome());
            debug_assert_eq!(
                base.len(),
                new.len(),
                "a recorded commit needs a whole base"
            );
            match self.restore {
                Restore::Clean => {}
                Restore::Touched => saved.extend(self.touched.iter().map(|&v| (v, base.entry(v)))),
                Restore::Full => saved.extend(
                    self.engine
                        .graph()
                        .ases()
                        .map(|v| (v, base.entry(v)))
                        .filter(|&(v, old)| old != new.entry(v)),
                ),
            }
        }
        sync(
            self.restore,
            &self.touched,
            &mut self.base,
            self.engine.outcome(),
        );
        self.base_happy = self.happy;
        self.restore = Restore::Clean;
    }

    /// Undo the last commit not yet undone: write the base entries it
    /// overwrote (`saved`, as [`Self::commit`] recorded them) back into the
    /// base and the served outcome, whose happy bounds become `happy`, the
    /// base's bounds before that commit.
    pub(crate) fn rewind(&mut self, saved: &[(AsId, Entry)], happy: (usize, usize)) {
        debug_assert_eq!(
            self.restore,
            Restore::Clean,
            "rewind only a committed state"
        );
        let served = self.engine.outcome_mut();
        for &(v, entry) in saved {
            self.base.set_entry(v, entry);
            served.set_entry(v, entry);
        }
        self.base_happy = happy;
        self.happy = happy;
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
        let (within_budget, grow_rounds) =
            self.solve_within_budget(scenario, deployment, policy, mass);
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

    /// Solve the seeded region to local consistency in frontier rounds (see
    /// the module docs): round 1 solves the seeds on top of the base, and
    /// each later round solves only the core frontier the previous verify
    /// ([`Self::grow_affected`]) absorbed, on top of the working outcome; a
    /// frontier of stubs alone is resolved in place. `mass` is the seeds'
    /// adjacency mass; every frontier, and every AS a solve's fix log
    /// absorbs, adds its members' mass, checked against [`mass_budget`]
    /// before any further work. On return `region` is the union of the
    /// rounds. Returns whether the loop stayed within the budget — if so
    /// the working outcome is exact, else partial — and the grow rounds
    /// (core frontiers) spent.
    fn solve_within_budget(
        &mut self,
        scenario: AttackScenario,
        deployment: &Deployment,
        policy: Policy,
        mut mass: usize,
    ) -> (bool, usize) {
        let graph = self.engine.graph();
        let budget = mass_budget(graph);
        // Round 1 is the seeds; the region becomes the union of the rounds.
        self.round.clear();
        std::mem::swap(&mut self.round, &mut self.region);
        let mut grow_rounds = 0;
        loop {
            let seeded = self.round.list.len();
            self.engine.solve_region(
                scenario,
                deployment,
                policy,
                &mut self.round.set,
                &mut self.round.list,
            );
            for &v in &self.round.list[seeded..] {
                mass += graph.degree(v);
            }
            for &v in &self.round.list {
                self.region.insert(v);
            }
            let core = self.grow_affected(scenario, deployment, policy, grow_rounds == 0);
            if self.frontier.list.is_empty() {
                return (true, grow_rounds);
            }
            grow_rounds += usize::from(core);
            mass += self
                .frontier
                .list
                .iter()
                .map(|&v| graph.degree(v))
                .sum::<usize>();
            if mass > budget {
                return (false, grow_rounds);
            }
            if !core {
                self.engine
                    .resolve_stubs(&self.frontier.list, policy, deployment);
                for &v in &self.frontier.list {
                    self.region.insert(v);
                }
                return (true, grow_rounds);
            }
            // The next round verifies against the working outcome as it
            // stands now: this round wrote only its own members.
            if grow_rounds == 1 {
                self.before.copy_from(self.engine.outcome());
            } else {
                for &v in &self.round.list {
                    self.before.copy_entry_from(self.engine.outcome(), v);
                }
            }
            std::mem::swap(&mut self.round, &mut self.frontier);
        }
    }

    /// Compare the working outcome at every member of the solved round
    /// against the outcome before the round (the base in the first round)
    /// and collect the genuinely affected non-members as the next
    /// frontier. When nothing escaped, the round is exact (see the module
    /// docs). Returns whether a core AS (one with customers) was absorbed;
    /// if only non-root stubs were, the solved core stands.
    ///
    /// The destination and the announcers never join the region: their
    /// entries are roots, re-fixed explicitly by the caller when needed
    /// (with colluding attackers, *every* member of the announcer set is
    /// excluded).
    fn grow_affected(
        &mut self,
        scenario: AttackScenario,
        deployment: &Deployment,
        policy: Policy,
        first_round: bool,
    ) -> bool {
        let graph = self.engine.graph();
        let new = self.engine.outcome();
        let old = if first_round {
            &self.base
        } else {
            &self.before
        };
        let (round, frontier) = (&self.round, &mut self.frontier);
        frontier.clear();
        let d = scenario.destination;
        let mut core = false;
        for &v in &round.list {
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
                    if round.set.contains(u)
                        || frontier.set.contains(u)
                        || u == d
                        || scenario.is_attacker(u)
                    {
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
                        frontier.insert(u);
                        core |= !graph.customers(u).is_empty();
                    }
                }
            }
        }
        core
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
