//! Incremental deployment sweeps: amortize routing-outcome computation
//! across a *changing* secure set — growth, retraction, or both at once.
//!
//! This is the **deployment axis** of the library's two-axis amortization
//! hierarchy (see [`crate::delta`] for the attacker axis, and how the two
//! compose destination-major in `sbgp-sim`). The paper's rollout curves
//! (Figures 7–13) evaluate the metric along sequences of deployments
//! `S_0 ⊆ S_1 ⊆ …` and recompute every `(m, d)` routing outcome from
//! scratch at each step — even though most ASes' best routes are identical
//! between adjacent steps. [`SweepEngine`] exploits Theorem 2.1 instead:
//! the stable state is **unique** and characterized *locally* (every AS's
//! route is the best export-legal extension of its neighbors' routes under
//! [`crate::policy::preference_key`]), so a state that is locally
//! consistent everywhere *is* the answer. Between any two same-universe
//! deployments, the engine therefore only re-fixes a **dirty region**
//! seeded with the ASes whose `validates` bit flipped — in *either*
//! direction ([`Deployment::newly_validating`] ∪
//! [`Deployment::newly_retired`]) — plus the destination when its signing
//! status flipped either way. The region is solved, verified at its
//! border and grown in frontier rounds by the patch core
//! [`crate::AttackDeltaEngine`] shares
//! (crate-private `region`, which documents the local-consistency
//! argument, the two-sided verify filter that makes retraction steps
//! sound, the undo invariant and the adjacency-mass budget), and every
//! served step is committed as the next step's base.
//!
//! **Inert steps.** A route is secure only when every AS on it signs, the
//! origin included (§2.2), so while the destination `d` does not sign no
//! AS holds a secure route. Every model then ranks routes by LP and length
//! alone, exactly as at `S = ∅`, and a validator's `validates` bit is only
//! ever read together with a neighbor's secure bit — so no change in who
//! validates can move a route, next hop, flag or happy count. An advance
//! whose `d` signs its origin at *neither* end skips the symmetric-difference
//! scan, seeds nothing and is served as a no-op. The rule is
//! "`d` unsigned at both ends", not "no validators": a signing `d` (even a
//! simplex one) has a secure route of its own, so validator flips around
//! it, or its own signing flip, are real steps.
//!
//! **Retraced steps.** The engine keeps a *trail*: a stack of its committed
//! steps, each holding the deployment and happy bounds before the step and
//! the base entries (kind, length, flags, next hop) its commit overwrote —
//! a patch's final region, or after a fresh compute only the entries that
//! differ, found by one `O(V)` compare (a diff, not a snapshot). An advance
//! back to the deployment before the top step — each wane step of a
//! wax-and-wane trajectory, or a flap — pops that step and writes its saved
//! entries back into the base and the served outcome instead of solving
//! anything. Theorem 2.1 makes this exact: the stable state for a fixed
//! scenario, deployment and policy is unique, so the outcome at that
//! deployment is, bit for bit, the one the sweep already served there. The
//! stack order makes the restore exact: while a step is on top, every
//! later step has been popped, so the base is exactly the outcome after
//! that step, and undoing its writes gives exactly the outcome before it.
//! The inert rule is checked first, and every committed step with a
//! deployment before it is pushed, no-ops included (with nothing saved), so
//! that order holds. [`SweepEngine::begin`] and
//! [`SweepEngine::begin_from`] clear the trail, so a sweep never rewinds
//! into another pair's state.
//!
//! The scenario may carry any [`crate::AttackStrategy`] (forged paths of
//! any claimed depth) and any announcer set — colluding roots are re-fixed
//! exactly like a single attacker whenever they fall inside the dirty
//! region, and announcers never count as sources in the happy bounds.
//!
//! The invariant is **any-direction steps** over a fixed AS universe:
//! every step is classified as *monotone* (validators only joined, or the
//! destination started signing), *retracting* (validators only left, full
//! members downgraded to simplex, or the destination stopped signing), or
//! *mixed* (both at once), and all three are served through the identical
//! loop of frontier rounds (solve, verify, solve what the verify absorbed).
//! Retraction needs no extra machinery because every round unfixes its
//! members and re-derives them from their boundary under the *new*
//! deployment — a member never trusts its stale secure bit — while every
//! AS outside the round kept its route, so only the neighbors of changed
//! members, which the round's verify checks, can see a new input. Only the
//! first call, a universe mismatch, or a patch whose charged adjacency
//! mass passes the budget falls back to a fresh
//! [`crate::Engine::compute`], so `advance` is *always* exact;
//! incrementality is purely an optimization. The equivalence is enforced
//! outcome-for-outcome by `tests/sweep_equivalence.rs` against fresh
//! computes — over monotone *and* arbitrary grow/shrink/simplex-flip
//! sequences — and, transitively, by the message-level simulator oracle in
//! `tests/equivalence.rs`.

use sbgp_topology::{AsGraph, AsId};

use crate::attack::AttackScenario;
use crate::deployment::Deployment;
use crate::outcome::{Entry, Outcome};
use crate::policy::Policy;
use crate::region::PatchCore;

/// How the steps of a sweep were served (all counters cumulative since
/// [`SweepEngine::begin`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Steps served by a fresh [`crate::Engine::compute`] (first step, universe
    /// mismatch, or a dirty region past the adjacency-mass budget).
    pub full_recomputes: usize,
    /// Steps served by dirty-region re-fixing (any direction).
    pub incremental_steps: usize,
    /// Steps whose deployment change could not affect any outcome: the
    /// destination signed at neither end (no secure route can exist), or
    /// only non-destination simplex members flipped.
    pub noop_steps: usize,
    /// Incremental steps where validators only joined (or the destination
    /// started signing).
    pub monotone_steps: usize,
    /// Incremental steps where validators only left (or the destination
    /// stopped signing).
    pub retracting_steps: usize,
    /// Incremental steps with flips in both directions.
    pub mixed_steps: usize,
    /// Steps that *attempted* the incremental path but fell back because
    /// the adjacency mass charged to the patch passed the budget, whether
    /// at its seeds or after a verify step absorbed a frontier (a subset of
    /// `full_recomputes`).
    pub fallback_steps: usize,
    /// Total ASes re-fixed across all incremental steps (final region
    /// sizes, stubs included).
    pub refixed_ases: usize,
    /// Frontier solves after the first round: verify steps that absorbed a
    /// core AS, each paid with a solve of only the absorbed frontier
    /// (stub-only absorption is resolved in place and costs no round).
    pub grow_rounds: usize,
    /// Steps back to the deployment before the last step not yet rewound,
    /// served by writing back the entries that step overwrote (see the
    /// module docs on retraced steps).
    pub rewound_steps: usize,
}

impl SweepStats {
    /// Total steps served. Invariant:
    /// `noop_steps + rewound_steps + incremental_steps + full_recomputes`
    /// equals the number of [`SweepEngine::advance`] calls (every call is
    /// counted exactly once, including mid-loop fallbacks), and
    /// `monotone_steps + retracting_steps + mixed_steps == incremental_steps`.
    pub fn steps(&self) -> usize {
        self.full_recomputes + self.incremental_steps + self.noop_steps + self.rewound_steps
    }

    /// Fraction of steps served by a full recompute (0 when no steps ran).
    /// Every step counts in the denominator, no-ops and rewinds included.
    pub fn fallback_rate(&self) -> f64 {
        let steps = self.steps();
        if steps == 0 {
            0.0
        } else {
            self.full_recomputes as f64 / steps as f64
        }
    }

    /// Mean fraction of the graph re-fixed per served step (0 when no
    /// steps ran). `universe` is the AS count of the swept graph.
    pub fn refixed_fraction(&self, universe: usize) -> f64 {
        let cells = self.steps() * universe;
        if cells == 0 {
            0.0
        } else {
            self.refixed_ases as f64 / cells as f64
        }
    }

    /// The counter deltas accumulated since `earlier` — a previously saved
    /// copy of this engine's stats. Lets a runner attribute counters to one
    /// unit of work on a long-lived engine whose totals span many sweeps.
    pub fn delta_since(&self, earlier: &SweepStats) -> SweepStats {
        self.zip(earlier, |now, then| now - then)
    }

    /// Accumulate another run's counters into this one (for merging
    /// per-worker stats into a per-run total).
    pub fn merge(&mut self, other: &SweepStats) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// Combine two stats counter by counter.
    fn zip(&self, other: &SweepStats, f: impl Fn(usize, usize) -> usize) -> SweepStats {
        // Destructured so that a new counter cannot be left out.
        let SweepStats {
            full_recomputes,
            incremental_steps,
            noop_steps,
            monotone_steps,
            retracting_steps,
            mixed_steps,
            fallback_steps,
            refixed_ases,
            grow_rounds,
            rewound_steps,
        } = *other;
        SweepStats {
            full_recomputes: f(self.full_recomputes, full_recomputes),
            incremental_steps: f(self.incremental_steps, incremental_steps),
            noop_steps: f(self.noop_steps, noop_steps),
            monotone_steps: f(self.monotone_steps, monotone_steps),
            retracting_steps: f(self.retracting_steps, retracting_steps),
            mixed_steps: f(self.mixed_steps, mixed_steps),
            fallback_steps: f(self.fallback_steps, fallback_steps),
            refixed_ases: f(self.refixed_ases, refixed_ases),
            grow_rounds: f(self.grow_rounds, grow_rounds),
            rewound_steps: f(self.rewound_steps, rewound_steps),
        }
    }
}

/// A committed step, kept so that an advance back to `before` can undo it.
#[derive(Debug)]
struct Step {
    /// The deployment before the step.
    before: Deployment,
    /// The happy bounds before the step.
    happy: (usize, usize),
    /// The base entries the step's commit overwrote.
    overwritten: Vec<(AsId, Entry)>,
}

/// Incremental routing-outcome computer for one `(scenario, policy)` over
/// an arbitrarily changing secure set.
///
/// Create one per worker thread and reuse it across `(m, d)` pairs:
/// [`SweepEngine::begin`] starts a new sweep, then each
/// [`SweepEngine::advance`] returns the exact stable outcome for the next
/// deployment, reusing the previous step's state for every same-universe
/// step — growth, retraction, or mixed churn alike — and rewinding a step
/// back to the deployment before the last one.
#[derive(Debug)]
pub struct SweepEngine<'g> {
    /// Its base is the outcome of the last served step.
    core: PatchCore<'g>,
    /// The sweep's fixed scenario and policy.
    run: Option<(AttackScenario, Policy)>,
    /// Deployment of the last served step.
    prev: Option<Deployment>,
    /// The committed steps not yet rewound are `trail[..depth]`, oldest
    /// first; the slots past `depth` keep their buffers for reuse.
    trail: Vec<Step>,
    depth: usize,
    stats: SweepStats,
}

impl<'g> SweepEngine<'g> {
    /// Create a sweep engine for `graph`.
    pub fn new(graph: &'g AsGraph) -> SweepEngine<'g> {
        SweepEngine {
            core: PatchCore::new(graph),
            run: None,
            prev: None,
            trail: Vec::new(),
            depth: 0,
            stats: SweepStats::default(),
        }
    }

    /// The topology this engine runs on.
    pub fn graph(&self) -> &'g AsGraph {
        self.core.graph()
    }

    /// Start a new sweep for a fixed `(scenario, policy)`, discarding any
    /// cached state: until the first [`SweepEngine::advance`],
    /// [`SweepEngine::outcome`] is empty and the happy bounds are zero
    /// (rather than stale data from the previous sweep). Statistics keep
    /// accumulating across sweeps.
    pub fn begin(&mut self, scenario: AttackScenario, policy: Policy) {
        self.run = Some((scenario, policy));
        self.prev = None;
        self.depth = 0;
        self.core.adopt(&Outcome::new_empty(), (0, 0));
    }

    /// Start a sweep *mid-flight* from an externally computed outcome —
    /// typically an [`crate::AttackDeltaEngine`] patch of the sequence's
    /// first deployment, which is how the attacker and deployment
    /// amortization axes compose: the delta engine serves `(m, d, S_0)`
    /// from the destination's shared normal outcome, this hook adopts the
    /// result, and [`SweepEngine::advance`] carries the remaining steps
    /// incrementally.
    ///
    /// `outcome` must be the exact stable outcome for `(scenario, policy)`
    /// under `deployment`, and `happy` its [`Outcome::count_happy`] value
    /// (the caller always has it; passing it avoids an `O(V)` rescan).
    ///
    /// # Panics
    ///
    /// Panics when `outcome` disagrees with `scenario` or the graph.
    pub fn begin_from(
        &mut self,
        scenario: AttackScenario,
        policy: Policy,
        deployment: &Deployment,
        outcome: &Outcome,
        happy: (usize, usize),
    ) {
        assert_eq!(outcome.len(), self.graph().len(), "outcome/graph mismatch");
        assert_eq!(
            (outcome.destination(), outcome.attackers),
            (scenario.destination, scenario.attacker_array()),
            "outcome/scenario mismatch"
        );
        debug_assert_eq!(outcome.count_happy(), happy, "stale happy bounds");
        self.run = Some((scenario, policy));
        self.core.adopt(outcome, happy);
        self.prev = Some(deployment.clone());
        self.depth = 0;
    }

    /// Compute the stable outcome for the next deployment of the sweep.
    ///
    /// Exact for *any* deployment; incremental for every same-universe step
    /// after the first, whether the secure set grew, shrank, or did both
    /// (the step is classified monotone / retracting / mixed in
    /// [`SweepStats`]), a no-op when the destination signs at neither end,
    /// and a rewind when `deployment` is the one before the last step not
    /// yet rewound (see the module docs). The returned outcome is valid
    /// until the next `advance`/`begin` call.
    ///
    /// # Panics
    ///
    /// Panics when called before [`SweepEngine::begin`].
    pub fn advance(&mut self, deployment: &Deployment) -> &Outcome {
        let (scenario, policy) = self.run.expect("SweepEngine::begin not called");
        let Some(prev) = self
            .prev
            .as_ref()
            .filter(|prev| deployment.universe() == prev.universe())
        else {
            self.stats.full_recomputes += 1;
            self.core.compute(scenario, deployment, policy);
            return self.commit(deployment);
        };

        // An unsigned destination admits no secure route, so while it signs
        // at neither end no validator flip can move an outcome.
        let d = scenario.destination;
        let (signs_now, signs_prev) = (deployment.signs_origin(d), prev.signs_origin(d));
        if !signs_now && !signs_prev {
            self.stats.noop_steps += 1;
            return self.commit(deployment);
        }
        if self.depth > 0 && self.trail[self.depth - 1].before == *deployment {
            return self.rewind();
        }

        // Dirty seeds: the symmetric difference of the `validates` sets,
        // plus the destination when its origin-signing status flipped in
        // either direction. Simplex flips elsewhere are invisible to the
        // engine (only the destination's signing is ever read), so an
        // empty region is a pure no-op.
        let graph = self.core.graph();
        let (_, region) = self.core.seed();
        let mut grew = false;
        let mut shrank = false;
        for v in deployment.newly_validating(prev) {
            grew = true;
            region.insert(v);
        }
        for v in deployment.newly_retired(prev) {
            shrank = true;
            region.insert(v);
        }
        if signs_now != signs_prev {
            grew |= signs_now;
            shrank |= !signs_now;
            region.insert(d);
        }
        if region.list.is_empty() {
            self.stats.noop_steps += 1;
            return self.commit(deployment);
        }

        let mass = region.list.iter().map(|&v| graph.degree(v)).sum();
        let served = self.core.serve(scenario, deployment, policy, mass);
        self.stats.grow_rounds += served.grow_rounds;
        let Some(refixed) = served.refixed else {
            self.stats.fallback_steps += 1;
            self.stats.full_recomputes += 1;
            return self.commit(deployment);
        };
        self.stats.incremental_steps += 1;
        match (grew, shrank) {
            (true, false) => self.stats.monotone_steps += 1,
            (false, true) => self.stats.retracting_steps += 1,
            // Both directions flipped (the region was non-empty, so at
            // least one direction did).
            _ => self.stats.mixed_steps += 1,
        }
        self.stats.refixed_ases += refixed;
        self.commit(deployment)
    }

    /// Make the served step the base of the next one, and push it on the
    /// trail when it has a deployment before it.
    fn commit(&mut self, deployment: &Deployment) -> &Outcome {
        match self.prev.replace(deployment.clone()) {
            None => self.core.commit(None),
            Some(before) => {
                let happy = self.core.base_happy();
                if self.depth == self.trail.len() {
                    self.trail.push(Step {
                        before,
                        happy,
                        overwritten: Vec::new(),
                    });
                } else {
                    let step = &mut self.trail[self.depth];
                    step.before = before;
                    step.happy = happy;
                }
                self.core
                    .commit(Some(&mut self.trail[self.depth].overwritten));
                self.depth += 1;
            }
        }
        self.core.outcome()
    }

    /// Undo the last step not yet rewound: its deployment before becomes
    /// the current one, and its overwritten entries and happy bounds the
    /// base again.
    fn rewind(&mut self) -> &Outcome {
        self.depth -= 1;
        let step = &mut self.trail[self.depth];
        self.core.rewind(&step.overwritten, step.happy);
        // Swapped, not cloned: the slot is dead until a push overwrites it.
        std::mem::swap(
            self.prev
                .as_mut()
                .expect("a step has a deployment after it"),
            &mut step.before,
        );
        self.stats.rewound_steps += 1;
        self.core.outcome()
    }

    /// The outcome of the last served step.
    pub fn outcome(&self) -> &Outcome {
        self.core.outcome()
    }

    /// Happy-source tie-break bounds of the current outcome, identical to
    /// [`Outcome::count_happy`] but maintained incrementally across steps.
    pub fn count_happy(&self) -> (usize, usize) {
        self.core.happy()
    }

    /// Cumulative sweep statistics.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackStrategy;
    use crate::engine::Engine;
    use crate::policy::{LpVariant, SecurityModel};
    use crate::region;
    use sbgp_topology::{AsId, GraphBuilder};

    /// AS count of the test graphs that carry a filler chain.
    const N: usize = 64;

    /// A graph builder for `N` ASes whose ids from `from` on are linked
    /// into a provider chain detached from the gadget below `from`. The
    /// chain never joins a region, but its adjacency lifts
    /// `region::mass_budget` past the gadget's whole mass: on a bare
    /// 8–16-AS gadget a fresh compute is cheaper than any patch, so every
    /// advance would fall back.
    fn with_filler_chain(from: u32) -> GraphBuilder {
        let mut b = GraphBuilder::new(N);
        for i in from + 1..N as u32 {
            b.add_provider(AsId(i), AsId(i - 1)).unwrap();
        }
        b
    }

    /// The Figure 2 downgrade gadget plus a second provider chain, so the
    /// sweep has something interesting to re-fix (and a filler chain).
    fn gadget() -> AsGraph {
        let mut b = with_filler_chain(8);
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

    fn assert_outcomes_match(sweep: &Outcome, fresh: &Outcome, graph: &AsGraph, ctx: &str) {
        for v in graph.ases() {
            assert_eq!(sweep.route(v), fresh.route(v), "{ctx}: route at {v}");
            assert_eq!(
                sweep.next_hop(v),
                fresh.next_hop(v),
                "{ctx}: next hop at {v}"
            );
            assert_eq!(
                sweep.may_traverse_mark(v),
                fresh.may_traverse_mark(v),
                "{ctx}: mark at {v}"
            );
        }
    }

    #[test]
    fn sweep_matches_fresh_compute_on_growing_deployments() {
        let g = gadget();
        let scenario = AttackScenario::attack(AsId(4), AsId(0));
        let steps: Vec<Deployment> = vec![
            Deployment::empty(N),
            Deployment::full_from_iter(N, [AsId(0)]),
            Deployment::full_from_iter(N, [AsId(0), AsId(1), AsId(2)]),
            Deployment::full_from_iter(N, [AsId(0), AsId(1), AsId(2), AsId(5), AsId(6)]),
        ];
        for model in SecurityModel::ALL {
            for variant in [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf] {
                let policy = Policy::with_variant(model, variant);
                let mut sweep = SweepEngine::new(&g);
                let mut fresh = Engine::new(&g);
                sweep.begin(scenario, policy);
                for (k, dep) in steps.iter().enumerate() {
                    let got = sweep.advance(dep);
                    let want = fresh.compute(scenario, dep, policy);
                    assert_outcomes_match(got, want, &g, &format!("{policy} step {k}"));
                    assert_eq!(
                        sweep.count_happy(),
                        want.count_happy(),
                        "{policy} step {k}: incremental happy bounds"
                    );
                }
                assert!(sweep.stats().incremental_steps >= 1, "{policy}");
            }
        }
    }

    #[test]
    fn destination_signing_flip_is_propagated() {
        // The destination joining S flips secure bits along whole chains —
        // the seed-the-destination path. The graph carries a long insecure
        // tail, and a filler chain keeps the dirty region under the budget.
        let mut b = with_filler_chain(16);
        b.add_provider(AsId(1), AsId(0)).unwrap();
        b.add_provider(AsId(5), AsId(0)).unwrap();
        b.add_provider(AsId(6), AsId(5)).unwrap();
        b.add_provider(AsId(7), AsId(6)).unwrap();
        for i in 8..16u32 {
            b.add_provider(AsId(i), AsId(i - 1)).unwrap();
        }
        let g = b.build();
        let scenario = AttackScenario::normal(AsId(0));
        let policy = Policy::new(SecurityModel::Security2nd);
        let mut sweep = SweepEngine::new(&g);
        let mut fresh = Engine::new(&g);
        sweep.begin(scenario, policy);
        let s0 = Deployment::full_from_iter(N, [AsId(1), AsId(5), AsId(6)]);
        let mut s1 = s0.clone();
        s1.insert_simplex(AsId(0)); // d signs (simplex) but never validates
        for dep in [&s0, &s1] {
            let got = sweep.advance(dep);
            let want = fresh.compute(scenario, dep, policy);
            assert_outcomes_match(got, want, &g, "signing flip");
        }
        assert_eq!(sweep.stats().incremental_steps, 1);
        // The secure chain exists and the tail stayed insecure.
        assert!(sweep.outcome().uses_secure_route(AsId(6)));
        assert!(!sweep.outcome().uses_secure_route(AsId(7)));
    }

    #[test]
    fn non_destination_simplex_additions_are_noops() {
        let g = gadget();
        let scenario = AttackScenario::attack(AsId(4), AsId(0));
        let policy = Policy::new(SecurityModel::Security1st);
        let mut sweep = SweepEngine::new(&g);
        sweep.begin(scenario, policy);
        let s0 = Deployment::full_from_iter(N, [AsId(0), AsId(1)]);
        let mut s1 = s0.clone();
        s1.insert_simplex(AsId(7));
        sweep.advance(&s0);
        sweep.advance(&s1);
        assert_eq!(sweep.stats().noop_steps, 1);
        let mut fresh = Engine::new(&g);
        let want = fresh.compute(scenario, &s1, policy);
        assert_outcomes_match(sweep.outcome(), want, &g, "noop step");
    }

    /// Every security model under the Standard, LP2 and LPinf variants.
    fn all_policies() -> Vec<Policy> {
        SecurityModel::ALL
            .into_iter()
            .flat_map(|model| {
                [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf]
                    .map(|variant| Policy::with_variant(model, variant))
            })
            .collect()
    }

    /// Sweep `scenario` over `steps` under every policy of
    /// [`all_policies`], comparing every AS and the happy bounds with a
    /// fresh compute at each step, and checking that `steps()` counts every
    /// advance. Returns each step's stats summed over the policies.
    fn sweep_checked(
        g: &AsGraph,
        scenario: AttackScenario,
        steps: &[Deployment],
        ctx: &str,
    ) -> Vec<SweepStats> {
        let mut per_step = vec![SweepStats::default(); steps.len()];
        for policy in all_policies() {
            let mut sweep = SweepEngine::new(g);
            let mut fresh = Engine::new(g);
            sweep.begin(scenario, policy);
            for (k, dep) in steps.iter().enumerate() {
                let before = sweep.stats();
                let got = sweep.advance(dep);
                let want = fresh.compute(scenario, dep, policy);
                let ctx = format!("{ctx} {policy} step {k}");
                assert_outcomes_match(got, want, g, &ctx);
                assert_eq!(sweep.count_happy(), want.count_happy(), "{ctx}");
                assert_eq!(sweep.stats().steps(), k + 1, "{ctx}: one step per advance");
                per_step[k].merge(&sweep.stats().delta_since(&before));
            }
        }
        per_step
    }

    /// Which steps after the first every sweep of [`sweep_checked`] served
    /// by the counter `field` (each step by all of them or by none).
    fn served_by(per_step: &[SweepStats], field: fn(&SweepStats) -> usize) -> Vec<bool> {
        let sweeps = all_policies().len();
        per_step[1..]
            .iter()
            .map(|step| {
                let n = field(step);
                assert!(n == 0 || n == sweeps, "{step:?}");
                n == sweeps
            })
            .collect()
    }

    /// The test scenarios on a graph whose destination is 0: a
    /// plain attack by `m`, a forged path, `m` colluding with `other`, and
    /// a plain attack whose routes are checked against a `mark`.
    fn scenarios(m: u32, other: u32, mark: u32) -> [(&'static str, AttackScenario); 4] {
        let attack = AttackScenario::attack(AsId(m), AsId(0));
        [
            ("attack", attack),
            (
                "forged path",
                attack.with_strategy(AttackStrategy::FakePath { hops: 2 }),
            ),
            (
                "colluding",
                AttackScenario::colluding(&[AsId(m), AsId(other)], AsId(0))
                    .with_strategy(AttackStrategy::FakePath { hops: 1 }),
            ),
            (
                "marked",
                AttackScenario {
                    mark: Some(AsId(mark)),
                    ..attack
                },
            ),
        ]
    }

    /// Sweep `scenario` over `steps` with [`sweep_checked`] and assert
    /// which steps after the first were served as no-ops.
    fn assert_noop_steps(
        g: &AsGraph,
        scenario: AttackScenario,
        steps: &[Deployment],
        noops: &[bool],
        ctx: &str,
    ) {
        assert_eq!(
            noops.len() + 1,
            steps.len(),
            "{ctx}: one flag per step after the first"
        );
        let per_step = sweep_checked(g, scenario, steps, ctx);
        assert_eq!(served_by(&per_step, |s| s.noop_steps), noops, "{ctx}");
    }

    #[test]
    fn steps_with_an_unsigned_destination_are_noops() {
        // d = 0 signs only from step 3 to step 5; every step flips some
        // validator. While d signs at neither end no route can be secure,
        // so the step is a no-op; the join, the leave and every step in
        // between are real.
        let g = gadget();
        let full = |ids: &[u32]| Deployment::full_from_iter(N, ids.iter().map(|&i| AsId(i)));
        let steps = [
            full(&[1, 2]),
            full(&[1, 2, 5]),
            full(&[1, 5, 6]),
            full(&[0, 1, 5, 6]),
            full(&[0, 1, 2, 5, 6]),
            full(&[0, 1, 2]),
            full(&[1, 2]),
            full(&[1, 2, 5, 6]),
            full(&[5]),
        ];
        let noops = [true, true, false, false, false, false, true, true];
        for (ctx, scenario) in scenarios(4, 7, 6) {
            assert_noop_steps(&g, scenario, &steps, &noops, ctx);
        }
    }

    #[test]
    fn a_signing_destination_makes_steps_real() {
        let g = gadget();
        let scenario = AttackScenario::attack(AsId(4), AsId(0));
        // A simplex d while validators flip: secure routes exist, so every
        // validator flip can move outcomes.
        let simplex_d = |ids: &[u32]| {
            let mut dep = Deployment::full_from_iter(N, ids.iter().map(|&i| AsId(i)));
            dep.insert_simplex(AsId(0));
            dep
        };
        let steps = [
            simplex_d(&[1]),
            simplex_d(&[1, 2, 5]),
            simplex_d(&[5, 6]),
            simplex_d(&[]),
        ];
        assert_noop_steps(&g, scenario, &steps, &[false; 3], "simplex d");
        // d's signing flips with no validator at all: `route(d).secure`
        // flips each time.
        let mut signed = Deployment::empty(N);
        signed.insert_simplex(AsId(0));
        let steps = [
            Deployment::empty(N),
            signed.clone(),
            Deployment::empty(N),
            signed,
        ];
        assert_noop_steps(&g, scenario, &steps, &[false; 3], "signing d alone");
    }

    /// Sweep every scenario of [`scenarios`] over `steps` with [`sweep_checked`] and
    /// assert which steps after the first were rewound; `served` asserts
    /// how the other steps went.
    fn assert_rewound_steps(
        g: &AsGraph,
        (m, other, mark): (u32, u32, u32),
        steps: &[Deployment],
        rewound: &[bool],
        served: impl Fn(&str, &[SweepStats]),
    ) {
        for (ctx, scenario) in scenarios(m, other, mark) {
            let per_step = sweep_checked(g, scenario, steps, ctx);
            assert_eq!(
                served_by(&per_step, |s| s.rewound_steps),
                rewound,
                "{ctx}: rewound?"
            );
            served(ctx, &per_step);
        }
    }

    #[test]
    fn a_step_back_after_a_patch_is_rewound() {
        let g = gadget();
        let full = |ids: &[u32]| Deployment::full_from_iter(N, ids.iter().map(|&i| AsId(i)));
        let (a, b) = (full(&[0, 1]), full(&[0, 1, 2, 5]));
        assert_rewound_steps(
            &g,
            (4, 7, 6),
            &[a.clone(), b, a],
            &[false, true],
            |ctx, s| {
                assert_eq!(
                    served_by(s, |s| s.incremental_steps),
                    [true, false],
                    "{ctx}"
                );
            },
        );
    }

    #[test]
    fn a_step_back_after_a_fallback_is_rewound() {
        // The destination's signing flip on a fully deployed 16-chain
        // passes the mass budget (see the mid-loop fallback test below).
        // The announcers 16 and 17 peer with 8 and 10, so 1..7 keep their
        // routes to d and flip to secure under every model.
        let mut b = GraphBuilder::new(18);
        for i in 1..16u32 {
            b.add_provider(AsId(i), AsId(i - 1)).unwrap();
        }
        b.add_peering(AsId(16), AsId(8)).unwrap();
        b.add_peering(AsId(17), AsId(10)).unwrap();
        let g = b.build();
        let unsigned = Deployment::full_from_iter(18, (1..16).map(AsId));
        let signed = Deployment::full_from_iter(18, (0..16).map(AsId));
        let steps = [unsigned.clone(), signed, unsigned];
        assert_rewound_steps(&g, (16, 17, 5), &steps, &[false, true], |ctx, s| {
            assert_eq!(served_by(s, |s| s.fallback_steps), [true, false], "{ctx}");
        });
    }

    #[test]
    fn a_step_back_after_a_noop_is_rewound_or_inert() {
        let g = gadget();
        // Only a non-destination simplex member flips: a no-op whose step
        // back is rewound.
        let a = Deployment::full_from_iter(N, [AsId(0), AsId(1)]);
        let mut b = a.clone();
        b.insert_simplex(AsId(7));
        assert_rewound_steps(
            &g,
            (4, 7, 6),
            &[a.clone(), b, a],
            &[false, true],
            |ctx, s| {
                assert_eq!(served_by(s, |s| s.noop_steps), [true, false], "{ctx}");
            },
        );
        // The destination signs at neither end: both steps are inert.
        let a = Deployment::full_from_iter(N, [AsId(1), AsId(2)]);
        let b = Deployment::full_from_iter(N, [AsId(1), AsId(2), AsId(5)]);
        assert_rewound_steps(
            &g,
            (4, 7, 6),
            &[a.clone(), b, a],
            &[false, false],
            |ctx, s| {
                assert_eq!(served_by(s, |s| s.noop_steps), [true, true], "{ctx}");
            },
        );
    }

    #[test]
    fn a_step_back_across_the_destination_signing_flip_is_rewound() {
        let g = gadget();
        let a = Deployment::full_from_iter(N, [AsId(1), AsId(2), AsId(5), AsId(6)]);
        let mut b = a.clone();
        b.insert_simplex(AsId(0));
        let steps = [a.clone(), b.clone(), a, b];
        assert_rewound_steps(&g, (4, 7, 6), &steps, &[false, true, false], |ctx, s| {
            assert_eq!(
                served_by(s, |s| s.monotone_steps),
                [true, false, true],
                "{ctx}"
            );
        });
    }

    #[test]
    fn retraced_paths_rewind_in_stack_order() {
        let g = gadget();
        let full = |ids: &[u32]| Deployment::full_from_iter(N, ids.iter().map(|&i| AsId(i)));
        let (a, b, c) = (full(&[0, 1]), full(&[0, 1, 2]), full(&[0, 1, 2, 5, 6]));
        // A → B → C → B → A: the two steps back pop the trail in order.
        let there_and_back = [a.clone(), b.clone(), c, b.clone(), a.clone()];
        let rewound = [false, false, true, true];
        assert_rewound_steps(&g, (4, 7, 6), &there_and_back, &rewound, |_, _| {});
        // A → B → A → B → A: a rewound step is off the trail, so stepping
        // forward again is served afresh, and stepping back rewinds again.
        let flapping = [a.clone(), b.clone(), a.clone(), b, a];
        let rewound = [false, true, false, true];
        assert_rewound_steps(&g, (4, 7, 6), &flapping, &rewound, |ctx, s| {
            let incremental = served_by(s, |s| s.incremental_steps);
            assert_eq!(incremental, [true, false, true, false], "{ctx}");
        });
    }

    #[test]
    fn a_new_pair_never_rewinds_into_the_old_one() {
        // Each sweep steps A → B for one pair, then starts another pair at
        // B (by `begin` or `begin_from`) and steps back to A. That step
        // must be served for the new pair, not rewound into the old one.
        let g = gadget();
        let a = Deployment::full_from_iter(N, [AsId(0), AsId(1)]);
        let b = Deployment::full_from_iter(N, [AsId(0), AsId(1), AsId(2), AsId(5)]);
        let old = AttackScenario::attack(AsId(7), AsId(0));
        for (ctx, scenario) in scenarios(4, 3, 6) {
            for policy in all_policies() {
                let ctx = format!("{ctx} {policy}");
                let mut fresh = Engine::new(&g);
                for from_outcome in [false, true] {
                    let mut sweep = SweepEngine::new(&g);
                    sweep.begin(old, policy);
                    sweep.advance(&a);
                    sweep.advance(&b);
                    if from_outcome {
                        let at_b = fresh.compute(scenario, &b, policy);
                        sweep.begin_from(scenario, policy, &b, at_b, at_b.count_happy());
                    } else {
                        sweep.begin(scenario, policy);
                        sweep.advance(&b);
                    }
                    let before = sweep.stats();
                    let got = sweep.advance(&a);
                    let want = fresh.compute(scenario, &a, policy);
                    let ctx = format!("{ctx} begin_from={from_outcome}");
                    assert_outcomes_match(got, want, &g, &ctx);
                    assert_eq!(sweep.count_happy(), want.count_happy(), "{ctx}");
                    let step = sweep.stats().delta_since(&before);
                    assert_eq!(step.rewound_steps, 0, "{ctx}: {step:?}");
                    assert_eq!(step.steps(), 1, "{ctx}: {step:?}");
                }
            }
        }
    }

    #[test]
    fn retraction_steps_are_served_incrementally() {
        let g = gadget();
        let scenario = AttackScenario::attack(AsId(4), AsId(0));
        for model in SecurityModel::ALL {
            let policy = Policy::new(model);
            let mut sweep = SweepEngine::new(&g);
            let mut fresh = Engine::new(&g);
            sweep.begin(scenario, policy);
            // Wax and wane: grow to four members, then shrink back down.
            let steps = [
                Deployment::full_from_iter(N, [AsId(0), AsId(1), AsId(2), AsId(5)]),
                Deployment::full_from_iter(N, [AsId(0), AsId(1)]),
                Deployment::full_from_iter(N, [AsId(0)]),
            ];
            for (k, dep) in steps.iter().enumerate() {
                let got = sweep.advance(dep);
                let want = fresh.compute(scenario, dep, policy);
                assert_outcomes_match(got, want, &g, &format!("{policy} shrink step {k}"));
                assert_eq!(sweep.count_happy(), want.count_happy(), "{policy} step {k}");
            }
            let stats = sweep.stats();
            assert_eq!(stats.full_recomputes, 1, "{policy}: only the first step");
            assert_eq!(stats.retracting_steps, 2, "{policy}");
            assert_eq!(stats.incremental_steps, 2, "{policy}");
        }
    }

    #[test]
    fn mixed_churn_steps_are_served_incrementally() {
        let g = gadget();
        let scenario = AttackScenario::attack(AsId(4), AsId(0));
        let policy = Policy::new(SecurityModel::Security1st);
        let mut sweep = SweepEngine::new(&g);
        let mut fresh = Engine::new(&g);
        sweep.begin(scenario, policy);
        // Step 2 drops {2, 5} while adding {6}: both directions at once.
        let steps = [
            Deployment::full_from_iter(N, [AsId(0), AsId(1), AsId(2), AsId(5)]),
            Deployment::full_from_iter(N, [AsId(0), AsId(1), AsId(6)]),
        ];
        for (k, dep) in steps.iter().enumerate() {
            let got = sweep.advance(dep);
            let want = fresh.compute(scenario, dep, policy);
            assert_outcomes_match(got, want, &g, &format!("mixed step {k}"));
            assert_eq!(sweep.count_happy(), want.count_happy(), "mixed step {k}");
        }
        let stats = sweep.stats();
        assert_eq!(stats.mixed_steps, 1);
        assert_eq!(stats.incremental_steps, 1);
        assert_eq!(stats.full_recomputes, 1);
    }

    #[test]
    fn destination_unsigning_is_propagated() {
        // The inverse of `destination_signing_flip_is_propagated`: d leaves
        // S entirely, so every secure route in the chain must flip back to
        // insecure — the retraction seed is the destination itself.
        let mut b = with_filler_chain(16);
        b.add_provider(AsId(1), AsId(0)).unwrap();
        b.add_provider(AsId(5), AsId(0)).unwrap();
        b.add_provider(AsId(6), AsId(5)).unwrap();
        b.add_provider(AsId(7), AsId(6)).unwrap();
        for i in 8..16u32 {
            b.add_provider(AsId(i), AsId(i - 1)).unwrap();
        }
        let g = b.build();
        let scenario = AttackScenario::normal(AsId(0));
        let policy = Policy::new(SecurityModel::Security2nd);
        let mut sweep = SweepEngine::new(&g);
        let mut fresh = Engine::new(&g);
        sweep.begin(scenario, policy);
        let mut s0 = Deployment::full_from_iter(N, [AsId(1), AsId(5), AsId(6)]);
        s0.insert_simplex(AsId(0));
        let s1 = Deployment::full_from_iter(N, [AsId(1), AsId(5), AsId(6)]);
        for dep in [&s0, &s1] {
            let got = sweep.advance(dep);
            let want = fresh.compute(scenario, dep, policy);
            assert_outcomes_match(got, want, &g, "unsigning flip");
        }
        assert_eq!(sweep.stats().retracting_steps, 1);
        assert!(!sweep.outcome().uses_secure_route(AsId(6)));
    }

    #[test]
    fn non_destination_simplex_removals_are_noops() {
        let g = gadget();
        let scenario = AttackScenario::attack(AsId(4), AsId(0));
        let policy = Policy::new(SecurityModel::Security1st);
        let mut sweep = SweepEngine::new(&g);
        sweep.begin(scenario, policy);
        let mut s0 = Deployment::full_from_iter(N, [AsId(0), AsId(1)]);
        s0.insert_simplex(AsId(7));
        let s1 = Deployment::full_from_iter(N, [AsId(0), AsId(1)]);
        sweep.advance(&s0);
        sweep.advance(&s1);
        assert_eq!(sweep.stats().noop_steps, 1);
        let mut fresh = Engine::new(&g);
        let want = fresh.compute(scenario, &s1, policy);
        assert_outcomes_match(sweep.outcome(), want, &g, "simplex-removal noop");
    }

    #[test]
    fn step_accounting_holds_through_mid_loop_fallback() {
        // Flipping d's signing on a fully deployed 16-chain dirties the
        // whole chain one grow round at a time, blowing the region budget
        // mid-loop. The step must still be counted exactly once:
        // noop + incremental + full == advance calls, and the blow-up is
        // visible as a fallback_step.
        let mut b = GraphBuilder::new(16);
        for i in 1..16u32 {
            b.add_provider(AsId(i), AsId(i - 1)).unwrap();
        }
        let g = b.build();
        let scenario = AttackScenario::normal(AsId(0));
        let policy = Policy::new(SecurityModel::Security1st);
        let mut sweep = SweepEngine::new(&g);
        sweep.begin(scenario, policy);
        let s0 = Deployment::full_from_iter(16, (1..16).map(AsId));
        let s1 = Deployment::full_from_iter(16, (0..16).map(AsId));
        let mut calls = 0;
        for dep in [&s0, &s1, &s1, &s0] {
            sweep.advance(dep);
            calls += 1;
            let stats = sweep.stats();
            assert_eq!(
                stats.noop_steps + stats.incremental_steps + stats.full_recomputes,
                calls,
                "step accounting broke at call {calls}"
            );
            assert_eq!(
                stats.monotone_steps + stats.retracting_steps + stats.mixed_steps,
                stats.incremental_steps,
                "direction accounting broke at call {calls}"
            );
        }
        let stats = sweep.stats();
        // The two signing flips each blow the region budget mid-loop.
        assert_eq!(stats.fallback_steps, 2);
        assert!(stats.grow_rounds >= 2, "blow-up should take grow rounds");
        assert_eq!(stats.noop_steps, 1);
        // Exactness after the mid-loop fallbacks.
        let mut fresh = Engine::new(&g);
        let want = fresh.compute(scenario, &s0, policy);
        assert_outcomes_match(sweep.outcome(), want, &g, "post-fallback state");
    }

    #[test]
    fn mass_budget_fires_before_a_re_solve() {
        // d(0) buys from v(1), which buys from the hub h(2); h also serves
        // the stubs 3..12. v joining S secures its route, and h, whose
        // customer route runs through v, is implicated by the verify step.
        // The seed region {v} fits the mass budget, so the first solve
        // runs; absorbing the core hub takes the region past it, so the
        // advance falls back before it would re-solve.
        let mut b = GraphBuilder::new(12);
        b.add_provider(AsId(0), AsId(1)).unwrap();
        b.add_provider(AsId(1), AsId(2)).unwrap();
        for stub in 3..12u32 {
            b.add_provider(AsId(stub), AsId(2)).unwrap();
        }
        let g = b.build();
        let budget = region::mass_budget(&g);
        assert!(g.degree(AsId(1)) <= budget, "seed must fit the budget");
        assert!(
            g.degree(AsId(1)) + g.degree(AsId(2)) > budget,
            "the hub must break the budget"
        );
        let scenario = AttackScenario::normal(AsId(0));
        let s0 = Deployment::full_from_iter(12, [AsId(0)]);
        let s1 = Deployment::full_from_iter(12, [AsId(0), AsId(1)]);
        for model in SecurityModel::ALL {
            let policy = Policy::new(model);
            let mut sweep = SweepEngine::new(&g);
            let mut fresh = Engine::new(&g);
            sweep.begin(scenario, policy);
            for (k, dep) in [&s0, &s1].into_iter().enumerate() {
                let got = sweep.advance(dep);
                let want = fresh.compute(scenario, dep, policy);
                assert_outcomes_match(got, want, &g, &format!("{policy} step {k}"));
                assert_eq!(sweep.count_happy(), want.count_happy(), "{policy} step {k}");
            }
            assert!(sweep.outcome().uses_secure_route(AsId(1)), "{policy}");
            let stats = sweep.stats();
            assert_eq!(stats.full_recomputes, 2, "{policy}");
            assert_eq!(stats.fallback_steps, 1, "{policy}");
            assert_eq!(stats.grow_rounds, 1, "{policy}: the hub's absorption only");
            assert_eq!(stats.incremental_steps, 0, "{policy}");
        }
    }

    /// d(0) buys from a(1), a from x(2) and x from p(3), so p's customer
    /// route runs through x. The `stubs` ASes from 4 on buy from both p and
    /// d; they route through d, so p's changes never reach them, but they
    /// add to p's degree. The ASes after them form a filler chain up to
    /// `n`, which sets `region::mass_budget`.
    fn provider_over_a_chain(stubs: u32, n: usize) -> AsGraph {
        let mut b = GraphBuilder::new(n);
        b.add_provider(AsId(0), AsId(1)).unwrap();
        b.add_provider(AsId(1), AsId(2)).unwrap();
        b.add_provider(AsId(2), AsId(3)).unwrap();
        for s in 4..4 + stubs {
            b.add_provider(AsId(s), AsId(3)).unwrap();
            b.add_provider(AsId(s), AsId(0)).unwrap();
        }
        for i in 5 + stubs..n as u32 {
            b.add_provider(AsId(i), AsId(i - 1)).unwrap();
        }
        b.build()
    }

    /// The step of [`provider_over_a_chain`] that secures the chain: a and
    /// p join S next to d and x. Round 1 solves the seeds {a, p}; p still
    /// sees x's insecure route, so only a changes. Its verify absorbs x,
    /// round 2 secures x, and that verify re-absorbs p.
    fn securing_the_chain(n: usize) -> [Deployment; 2] {
        [
            Deployment::full_from_iter(n, [AsId(0), AsId(2)]),
            Deployment::full_from_iter(n, (0..4).map(AsId)),
        ]
    }

    #[test]
    fn a_later_round_re_absorbs_an_earlier_member() {
        let g = provider_over_a_chain(0, N);
        let scenario = AttackScenario::normal(AsId(0));
        for model in SecurityModel::ALL {
            for variant in [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf] {
                let policy = Policy::with_variant(model, variant);
                let mut sweep = SweepEngine::new(&g);
                let mut fresh = Engine::new(&g);
                sweep.begin(scenario, policy);
                for (k, dep) in securing_the_chain(N).iter().enumerate() {
                    let got = sweep.advance(dep);
                    let want = fresh.compute(scenario, dep, policy);
                    assert_outcomes_match(got, want, &g, &format!("{policy} step {k}"));
                    assert_eq!(sweep.count_happy(), want.count_happy(), "{policy} step {k}");
                }
                assert!(sweep.outcome().uses_secure_route(AsId(3)), "{policy}");
                let stats = sweep.stats();
                assert_eq!(stats.incremental_steps, 1, "{policy}");
                // x's frontier, then p's again; the region is {a, p, x}.
                assert_eq!(stats.grow_rounds, 2, "{policy}");
                assert_eq!(stats.refixed_ases, 3, "{policy}");
            }
        }
    }

    #[test]
    fn re_absorbed_mass_counts_against_the_budget() {
        // Eight stubs make p heavy. The union region {a, p, x} fits the
        // budget, but p's second absorption is charged again and does not:
        // the step falls back before its third solve.
        let n = 36;
        let g = provider_over_a_chain(8, n);
        let budget = region::mass_budget(&g);
        let [a, x, p] = [1, 2, 3].map(|i| g.degree(AsId(i)));
        assert!(a + x + p <= budget, "the union must fit the budget");
        assert!(a + x + 2 * p > budget, "the re-absorbed p must break it");
        let scenario = AttackScenario::normal(AsId(0));
        for model in SecurityModel::ALL {
            let policy = Policy::new(model);
            let mut sweep = SweepEngine::new(&g);
            let mut fresh = Engine::new(&g);
            sweep.begin(scenario, policy);
            for (k, dep) in securing_the_chain(n).iter().enumerate() {
                let got = sweep.advance(dep);
                let want = fresh.compute(scenario, dep, policy);
                assert_outcomes_match(got, want, &g, &format!("{policy} step {k}"));
                assert_eq!(sweep.count_happy(), want.count_happy(), "{policy} step {k}");
            }
            let stats = sweep.stats();
            assert_eq!(stats.fallback_steps, 1, "{policy}");
            assert_eq!(stats.incremental_steps, 0, "{policy}");
            assert_eq!(stats.grow_rounds, 2, "{policy}");
        }
    }

    #[test]
    fn colluding_and_forged_scenarios_sweep_exactly() {
        let g = gadget();
        let steps: Vec<Deployment> = vec![
            Deployment::empty(N),
            Deployment::full_from_iter(N, [AsId(0), AsId(1)]),
            Deployment::full_from_iter(N, [AsId(0), AsId(1), AsId(2), AsId(5)]),
        ];
        let scenarios = [
            AttackScenario::colluding(&[AsId(4), AsId(7)], AsId(0)),
            AttackScenario::colluding(&[AsId(4), AsId(6), AsId(3)], AsId(0))
                .with_strategy(AttackStrategy::FakePath { hops: 2 }),
            AttackScenario::attack(AsId(4), AsId(0))
                .with_strategy(AttackStrategy::FakePath { hops: 0 }),
        ];
        for model in SecurityModel::ALL {
            let policy = Policy::new(model);
            for scenario in scenarios {
                let mut sweep = SweepEngine::new(&g);
                let mut fresh = Engine::new(&g);
                sweep.begin(scenario, policy);
                for (k, dep) in steps.iter().enumerate() {
                    let got = sweep.advance(dep);
                    let want = fresh.compute(scenario, dep, policy);
                    assert_outcomes_match(got, want, &g, &format!("{policy} step {k}"));
                    assert_eq!(sweep.count_happy(), want.count_happy(), "{policy} step {k}");
                }
            }
        }
    }

    /// d(0) buys from p(1), which also serves stubs 2 and 3; with
    /// `transit`, p buys from t(4), which serves stub 5. ASes from 6 on
    /// form a filler chain that keeps the region under the mass budget.
    fn provider_with_stubs(transit: bool) -> AsGraph {
        let mut b = with_filler_chain(6);
        b.add_provider(AsId(0), AsId(1)).unwrap();
        b.add_provider(AsId(2), AsId(1)).unwrap();
        b.add_provider(AsId(3), AsId(1)).unwrap();
        if transit {
            b.add_provider(AsId(1), AsId(4)).unwrap();
            b.add_provider(AsId(5), AsId(4)).unwrap();
        }
        b.build()
    }

    #[test]
    fn stub_only_growth_costs_no_grow_round() {
        // p joining S secures its route; the change reaches only p's stub
        // customers (stub 2 validates, so its route turns secure too).
        // They are resolved in place: no second solve. With a transit
        // provider t above p, t is implicated as well, and that core
        // growth costs exactly one round.
        let scenario = AttackScenario::normal(AsId(0));
        let s0 = Deployment::full_from_iter(N, [AsId(0), AsId(2)]);
        let s1 = Deployment::full_from_iter(N, [AsId(0), AsId(1), AsId(2)]);
        for (transit, rounds, refixed) in [(false, 0, 3), (true, 1, 4)] {
            let g = provider_with_stubs(transit);
            for model in SecurityModel::ALL {
                let policy = Policy::new(model);
                let ctx = format!("{policy} transit={transit}");
                let mut sweep = SweepEngine::new(&g);
                let mut fresh = Engine::new(&g);
                sweep.begin(scenario, policy);
                sweep.advance(&s0);
                let got = sweep.advance(&s1);
                assert!(got.uses_secure_route(AsId(2)), "{ctx}");
                let want = fresh.compute(scenario, &s1, policy);
                assert_outcomes_match(got, want, &g, &ctx);
                assert_eq!(sweep.count_happy(), want.count_happy(), "{ctx}");
                let stats = sweep.stats();
                assert_eq!(stats.incremental_steps, 1, "{ctx}");
                assert_eq!(stats.grow_rounds, rounds, "{ctx}");
                assert_eq!(stats.refixed_ases, refixed, "{ctx}");
            }
        }
    }

    #[test]
    fn collateral_damage_ripples_are_tracked() {
        // The §6.1 collateral-damage gadget: securing {d, r, q, p2, a}
        // *lengthens* a's route and flips s to unhappy — the change must
        // propagate beyond the seeds themselves.
        let mut b = with_filler_chain(10);
        b.add_provider(AsId(0), AsId(1)).unwrap();
        b.add_provider(AsId(1), AsId(2)).unwrap();
        b.add_provider(AsId(2), AsId(3)).unwrap();
        b.add_provider(AsId(0), AsId(4)).unwrap();
        b.add_provider(AsId(5), AsId(3)).unwrap();
        b.add_provider(AsId(5), AsId(4)).unwrap();
        b.add_provider(AsId(6), AsId(5)).unwrap();
        b.add_provider(AsId(6), AsId(7)).unwrap();
        b.add_provider(AsId(8), AsId(7)).unwrap();
        b.add_provider(AsId(9), AsId(8)).unwrap();
        let g = b.build();
        let scenario = AttackScenario::attack(AsId(9), AsId(0));
        let policy = Policy::new(SecurityModel::Security2nd);
        let mut sweep = SweepEngine::new(&g);
        let mut fresh = Engine::new(&g);
        sweep.begin(scenario, policy);
        let steps = [
            Deployment::empty(N),
            Deployment::full_from_iter(N, [AsId(0), AsId(1), AsId(2)]),
            Deployment::full_from_iter(N, [AsId(0), AsId(1), AsId(2), AsId(3), AsId(5)]),
        ];
        for (k, dep) in steps.iter().enumerate() {
            let got = sweep.advance(dep);
            let want = fresh.compute(scenario, dep, policy);
            assert_outcomes_match(got, want, &g, &format!("step {k}"));
        }
        // The last step must show the damage (s = 6 surely unhappy).
        assert!(sweep.outcome().flags(AsId(6)).surely_unhappy());
        assert!(sweep.stats().incremental_steps >= 1);
    }
}
