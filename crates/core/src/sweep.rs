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
//! deployments, the engine therefore only has to re-fix a **dirty region**
//! around the ASes whose `validates` bit flipped — in *either* direction —
//! and verify consistency at its border:
//!
//! 1. seed the region with the symmetric difference of the `validates`
//!    sets ([`Deployment::newly_validating`] ∪
//!    [`Deployment::newly_retired`]), plus the destination when its
//!    signing status flipped either way;
//! 2. unfix the region on top of the previous outcome, re-enqueue boundary
//!    offers from fixed neighbors, and re-run the ordinary bucket-queue
//!    stage schedule restricted to the region;
//! 3. compare the re-fixed region against the previous outcome; for every
//!    changed AS, absorb the neighbors its old or new offer could actually
//!    tie or beat under [`crate::policy::preference_key`] (hubs whose
//!    short routes dwarf the offer stay out) and retry. The condition is
//!    deliberately two-sided: a *withdrawn or worsened* offer (the old one
//!    tied or beat the neighbor's current route) can strictly worsen that
//!    neighbor's best route just as an improved offer can better it, which
//!    is exactly what makes retraction steps sound (see the crate-private
//!    `region::grow_affected`);
//! 4. when no change escapes the region, the patched state is locally
//!    consistent at every AS — inside the region by construction, outside
//!    it because no input changed — and uniqueness makes it exact.
//!
//! **Snapshot/undo invariant:** between steps, the engine's working outcome
//! is byte-identical to the snapshot of the last served step, and every
//! solve attempt confines its writes to the region (the engine's fix log
//! catches the one exception — an AS unreachable in the snapshot getting
//! fixed — and absorbs it into the region). Advancing a step therefore
//! patches the snapshot at the touched entries only: no `O(V)` memcpy per
//! step anywhere on the incremental path.
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
//! solve/verify/grow loop. Retraction needs no extra machinery because
//! every solve attempt unfixes the whole region and re-derives it from the
//! boundary under the *new* deployment — the region members never trust
//! stale secure bits — while everything outside the region kept all of its
//! route inputs unchanged. Only the first call, a universe mismatch, or a
//! region that balloons past half the graph falls back to a fresh
//! [`Engine::compute`], so `advance` is *always* exact; incrementality is
//! purely an optimization. The equivalence is enforced outcome-for-outcome
//! by `tests/sweep_equivalence.rs` against fresh computes — over monotone
//! *and* arbitrary grow/shrink/simplex-flip sequences — and, transitively,
//! by the message-level simulator oracle in `tests/equivalence.rs`.

use sbgp_topology::{AsGraph, AsId, AsSet};

use crate::attack::AttackScenario;
use crate::deployment::Deployment;
use crate::engine::Engine;
use crate::outcome::{Outcome, RootFlags};
use crate::policy::Policy;
use crate::region;

/// How the steps of a sweep were served (all counters cumulative since
/// [`SweepEngine::begin`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Steps served by a fresh [`Engine::compute`] (first step, universe
    /// mismatch, or dirty-region blow-up).
    pub full_recomputes: usize,
    /// Steps served by dirty-region re-fixing (any direction).
    pub incremental_steps: usize,
    /// Steps whose deployment change could not affect any outcome (only
    /// non-destination simplex flips).
    pub noop_steps: usize,
    /// Incremental steps where validators only joined (or the destination
    /// started signing).
    pub monotone_steps: usize,
    /// Incremental steps where validators only left (or the destination
    /// stopped signing).
    pub retracting_steps: usize,
    /// Incremental steps with flips in both directions.
    pub mixed_steps: usize,
    /// Steps that *attempted* the incremental path but blew the region
    /// budget mid-loop and fell back (a subset of `full_recomputes`).
    pub fallback_steps: usize,
    /// Total ASes re-fixed across all incremental steps.
    pub refixed_ases: usize,
    /// Extra verify-and-grow rounds beyond the first attempt.
    pub grow_rounds: usize,
}

impl SweepStats {
    /// Total steps served. Invariant:
    /// `noop_steps + incremental_steps + full_recomputes` equals the number
    /// of [`SweepEngine::advance`] calls (every call is counted exactly
    /// once, including mid-loop fallbacks), and
    /// `monotone_steps + retracting_steps + mixed_steps == incremental_steps`.
    pub fn steps(&self) -> usize {
        self.full_recomputes + self.incremental_steps + self.noop_steps
    }

    /// Fraction of steps served by a full recompute (0 when no steps ran).
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
        SweepStats {
            full_recomputes: self.full_recomputes - earlier.full_recomputes,
            incremental_steps: self.incremental_steps - earlier.incremental_steps,
            noop_steps: self.noop_steps - earlier.noop_steps,
            monotone_steps: self.monotone_steps - earlier.monotone_steps,
            retracting_steps: self.retracting_steps - earlier.retracting_steps,
            mixed_steps: self.mixed_steps - earlier.mixed_steps,
            fallback_steps: self.fallback_steps - earlier.fallback_steps,
            refixed_ases: self.refixed_ases - earlier.refixed_ases,
            grow_rounds: self.grow_rounds - earlier.grow_rounds,
        }
    }

    /// Accumulate another run's counters into this one (for merging
    /// per-worker stats into a per-run total).
    pub fn merge(&mut self, other: &SweepStats) {
        self.full_recomputes += other.full_recomputes;
        self.incremental_steps += other.incremental_steps;
        self.noop_steps += other.noop_steps;
        self.monotone_steps += other.monotone_steps;
        self.retracting_steps += other.retracting_steps;
        self.mixed_steps += other.mixed_steps;
        self.fallback_steps += other.fallback_steps;
        self.refixed_ases += other.refixed_ases;
        self.grow_rounds += other.grow_rounds;
    }
}

/// Incremental routing-outcome computer for one `(scenario, policy)` over
/// an arbitrarily changing secure set.
///
/// Create one per worker thread and reuse it across `(m, d)` pairs:
/// [`SweepEngine::begin`] starts a new sweep, then each
/// [`SweepEngine::advance`] returns the exact stable outcome for the next
/// deployment, reusing the previous step's state for every same-universe
/// step — growth, retraction, or mixed churn alike.
#[derive(Debug)]
pub struct SweepEngine<'g> {
    engine: Engine<'g>,
    scenario: Option<AttackScenario>,
    policy: Policy,
    /// Deployment of the last served step.
    prev: Option<Deployment>,
    /// Final outcome of the last served step. Invariant: equal to the
    /// engine's working outcome between [`SweepEngine::advance`] calls.
    snapshot: Outcome,
    /// The dirty region of the current incremental attempt.
    region: AsSet,
    region_list: Vec<AsId>,
    /// Happy-source bounds of the current snapshot, maintained
    /// incrementally (an `O(region)` patch instead of an `O(V)` rescan).
    happy: (usize, usize),
    stats: SweepStats,
}

impl<'g> SweepEngine<'g> {
    /// Create a sweep engine for `graph`.
    pub fn new(graph: &'g AsGraph) -> SweepEngine<'g> {
        let n = graph.len();
        SweepEngine {
            engine: Engine::new(graph),
            scenario: None,
            policy: Policy::new(crate::policy::SecurityModel::Security3rd),
            prev: None,
            snapshot: Outcome::new_empty(),
            region: AsSet::new(n),
            region_list: Vec::new(),
            happy: (0, 0),
            stats: SweepStats::default(),
        }
    }

    /// The topology this engine runs on.
    pub fn graph(&self) -> &'g AsGraph {
        self.engine.graph()
    }

    /// Start a new sweep for a fixed `(scenario, policy)`, discarding any
    /// cached state: until the first [`SweepEngine::advance`],
    /// [`SweepEngine::outcome`] is empty and the happy bounds are zero
    /// (rather than stale data from the previous sweep). Statistics keep
    /// accumulating across sweeps.
    pub fn begin(&mut self, scenario: AttackScenario, policy: Policy) {
        self.scenario = Some(scenario);
        self.policy = policy;
        self.prev = None;
        self.snapshot
            .reset(0, scenario.destination, scenario.attacker_array());
        self.happy = (0, 0);
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
        self.scenario = Some(scenario);
        self.policy = policy;
        self.snapshot.copy_from(outcome);
        // Re-establish the invariant that the working outcome equals the
        // snapshot between steps.
        self.engine.outcome_mut().copy_from(outcome);
        self.happy = happy;
        self.prev = Some(deployment.clone());
    }

    /// Compute the stable outcome for the next deployment of the sweep.
    ///
    /// Exact for *any* deployment; incremental for every same-universe step
    /// after the first, whether the secure set grew, shrank, or did both
    /// (the step is classified monotone / retracting / mixed in
    /// [`SweepStats`]). The returned outcome is valid until the next
    /// `advance`/`begin` call.
    ///
    /// # Panics
    ///
    /// Panics when called before [`SweepEngine::begin`].
    pub fn advance(&mut self, deployment: &Deployment) -> &Outcome {
        let scenario = self.scenario.expect("SweepEngine::begin not called");
        let incremental = self
            .prev
            .as_ref()
            .is_some_and(|prev| deployment.universe() == prev.universe());
        if !incremental {
            return self.full_recompute(scenario, deployment);
        }

        // Dirty seeds: the symmetric difference of the `validates` sets,
        // plus the destination when its origin-signing status flipped in
        // either direction. Simplex flips elsewhere are invisible to the
        // engine (only the destination's signing is ever read) — a pure
        // no-op, whether the simplex member joined or left.
        let prev = self.prev.take().expect("same universe implies prev");
        let d = scenario.destination;
        self.region.clear();
        self.region_list.clear();
        let mut grew = false;
        let mut shrank = false;
        for v in deployment.newly_validating(&prev) {
            grew = true;
            if self.region.insert(v) {
                self.region_list.push(v);
            }
        }
        for v in deployment.newly_retired(&prev) {
            shrank = true;
            if self.region.insert(v) {
                self.region_list.push(v);
            }
        }
        let signs_now = deployment.signs_origin(d);
        if signs_now != prev.signs_origin(d) {
            grew |= signs_now;
            shrank |= !signs_now;
            if self.region.insert(d) {
                self.region_list.push(d);
            }
        }
        if self.region_list.is_empty() {
            self.stats.noop_steps += 1;
            self.prev = Some(deployment.clone());
            return &self.snapshot;
        }

        let max_region = self.graph().len() / 2;
        loop {
            if self.region_list.len() > max_region {
                self.stats.fallback_steps += 1;
                return self.full_recompute(scenario, deployment);
            }
            self.solve_region(scenario, deployment);
            self.absorb_fix_log();
            let escaped = region::grow_affected(
                self.engine.graph(),
                self.engine.outcome(),
                &self.snapshot,
                scenario,
                deployment,
                self.policy,
                &mut self.region,
                &mut self.region_list,
            );
            if !escaped {
                break;
            }
            self.stats.grow_rounds += 1;
        }
        // Patch the happy bounds by the region's delta, then fold the
        // region back into the snapshot entry by entry — everything outside
        // the region is untouched by construction.
        let outcome = self.engine.outcome();
        for &v in &self.region_list {
            if v == d || scenario.is_attacker(v) {
                continue;
            }
            let old = self.snapshot.flags(v);
            let new = outcome.flags(v);
            self.happy.0 += usize::from(new.surely_happy());
            self.happy.0 -= usize::from(old.surely_happy());
            self.happy.1 += usize::from(new.may_reach_destination());
            self.happy.1 -= usize::from(old.may_reach_destination());
        }

        self.stats.incremental_steps += 1;
        match (grew, shrank) {
            (true, false) => self.stats.monotone_steps += 1,
            (false, true) => self.stats.retracting_steps += 1,
            // Both directions flipped (the region was non-empty, so at
            // least one direction did).
            _ => self.stats.mixed_steps += 1,
        }
        self.stats.refixed_ases += self.region_list.len();
        for &v in &self.region_list {
            self.snapshot.copy_entry_from(self.engine.outcome(), v);
        }
        self.prev = Some(deployment.clone());
        &self.snapshot
    }

    /// The outcome of the last served step.
    pub fn outcome(&self) -> &Outcome {
        &self.snapshot
    }

    /// Happy-source tie-break bounds of the current outcome, identical to
    /// [`Outcome::count_happy`] but maintained incrementally across steps.
    pub fn count_happy(&self) -> (usize, usize) {
        self.happy
    }

    /// Cumulative sweep statistics.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    fn full_recompute(&mut self, scenario: AttackScenario, deployment: &Deployment) -> &Outcome {
        self.stats.full_recomputes += 1;
        self.engine.compute(scenario, deployment, self.policy);
        self.snapshot.copy_from(self.engine.outcome());
        self.happy = self.snapshot.count_happy();
        self.prev = Some(deployment.clone());
        &self.snapshot
    }

    /// One attempt: re-fix exactly the current region on top of the
    /// previous outcome, treating everything outside it as fixed boundary.
    /// The engine's working outcome equals the snapshot at entry (either
    /// verbatim, or modified only at region members by an earlier attempt),
    /// so unfixing the region is all the preparation needed.
    fn solve_region(&mut self, scenario: AttackScenario, deployment: &Deployment) {
        self.engine.begin(scenario, deployment, self.policy);
        self.engine.enable_fix_log();
        for &v in &self.region_list {
            self.engine.outcome_mut().unfix(v);
        }
        // Roots inside the region are re-fixed exactly as `compute` would.
        let d = scenario.destination;
        if self.region.contains(d) {
            self.engine.fix_root(
                d,
                0,
                deployment.signs_origin(d),
                RootFlags::TO_D,
                deployment,
            );
        }
        for m in scenario.attackers() {
            if self.region.contains(m) {
                self.engine.fix_root(
                    m,
                    scenario.strategy.root_depth(),
                    false,
                    RootFlags::TO_M,
                    deployment,
                );
            }
        }
        for &v in &self.region_list {
            if v == d || scenario.is_attacker(v) {
                continue;
            }
            self.engine.seed_from_boundary(v, &self.region, deployment);
        }
        self.engine.run_schedule(self.policy, deployment);
    }

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
    use crate::attack::AttackStrategy;
    use crate::policy::{LpVariant, SecurityModel};
    use sbgp_topology::GraphBuilder;

    /// The Figure 2 downgrade gadget plus a second provider chain, so the
    /// sweep has something interesting to re-fix.
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
            Deployment::empty(8),
            Deployment::full_from_iter(8, [AsId(0)]),
            Deployment::full_from_iter(8, [AsId(0), AsId(1), AsId(2)]),
            Deployment::full_from_iter(8, [AsId(0), AsId(1), AsId(2), AsId(5), AsId(6)]),
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
        // tail so the dirty region stays well under the fallback cap.
        let mut b = GraphBuilder::new(16);
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
        let s0 = Deployment::full_from_iter(16, [AsId(1), AsId(5), AsId(6)]);
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
        let s0 = Deployment::full_from_iter(8, [AsId(0), AsId(1)]);
        let mut s1 = s0.clone();
        s1.insert_simplex(AsId(7));
        sweep.advance(&s0);
        sweep.advance(&s1);
        assert_eq!(sweep.stats().noop_steps, 1);
        let mut fresh = Engine::new(&g);
        let want = fresh.compute(scenario, &s1, policy);
        assert_outcomes_match(sweep.outcome(), want, &g, "noop step");
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
                Deployment::full_from_iter(8, [AsId(0), AsId(1), AsId(2), AsId(5)]),
                Deployment::full_from_iter(8, [AsId(0), AsId(1)]),
                Deployment::full_from_iter(8, [AsId(0)]),
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
            Deployment::full_from_iter(8, [AsId(0), AsId(1), AsId(2), AsId(5)]),
            Deployment::full_from_iter(8, [AsId(0), AsId(1), AsId(6)]),
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
        let mut b = GraphBuilder::new(16);
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
        let mut s0 = Deployment::full_from_iter(16, [AsId(1), AsId(5), AsId(6)]);
        s0.insert_simplex(AsId(0));
        let s1 = Deployment::full_from_iter(16, [AsId(1), AsId(5), AsId(6)]);
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
        let mut s0 = Deployment::full_from_iter(8, [AsId(0), AsId(1)]);
        s0.insert_simplex(AsId(7));
        let s1 = Deployment::full_from_iter(8, [AsId(0), AsId(1)]);
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
    fn colluding_and_forged_scenarios_sweep_exactly() {
        let g = gadget();
        let steps: Vec<Deployment> = vec![
            Deployment::empty(8),
            Deployment::full_from_iter(8, [AsId(0), AsId(1)]),
            Deployment::full_from_iter(8, [AsId(0), AsId(1), AsId(2), AsId(5)]),
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

    #[test]
    fn collateral_damage_ripples_are_tracked() {
        // The §6.1 collateral-damage gadget: securing {d, r, q, p2, a}
        // *lengthens* a's route and flips s to unhappy — the change must
        // propagate beyond the seeds themselves.
        let mut b = GraphBuilder::new(10);
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
            Deployment::empty(10),
            Deployment::full_from_iter(10, [AsId(0), AsId(1), AsId(2)]),
            Deployment::full_from_iter(10, [AsId(0), AsId(1), AsId(2), AsId(3), AsId(5)]),
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
