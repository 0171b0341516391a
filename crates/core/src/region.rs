//! Shared dirty-region machinery for the incremental engines.
//!
//! Both [`crate::SweepEngine`] (deployment axis) and
//! [`crate::AttackDeltaEngine`] (attacker axis) patch a previously computed
//! outcome by re-fixing only a *region* of ASes and then verifying local
//! consistency at the region border. The verify-and-grow step is identical
//! on both axes and lives here: a neighbor `u` of a changed AS `v` is
//! *affected* only when `v`'s old or new offer would tie or beat `u`'s
//! current route under the reference [`preference_key`] order. The
//! condition is deliberately **two-sided**, which is what makes retraction
//! steps sound:
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

use sbgp_topology::{AsGraph, AsId, AsSet};

use crate::attack::AttackScenario;
use crate::deployment::Deployment;
use crate::outcome::{Outcome, KIND_CUSTOMER, KIND_ORIGIN, KIND_PEER, KIND_PROVIDER, KIND_UNFIXED};
use crate::policy::{preference_key, Policy};

/// Compare `new` against `old` at every region member and absorb the
/// genuinely affected out-of-region neighbors into `region`/`region_list`.
/// Returns `true` when the region grew — i.e. some change escaped and
/// another solve round is needed. Returns `false` when the patched outcome
/// is locally consistent everywhere — inside the region by construction,
/// outside it because no input changed — which by Theorem 2.1 uniqueness
/// makes it exact.
///
/// The destination and the announcers never join the region: their entries
/// are roots, re-fixed explicitly by the caller when needed (with colluding
/// attackers, *every* member of the announcer set is excluded).
#[allow(clippy::too_many_arguments)]
pub(crate) fn grow_affected(
    graph: &AsGraph,
    new: &Outcome,
    old: &Outcome,
    scenario: AttackScenario,
    deployment: &Deployment,
    policy: Policy,
    region: &mut AsSet,
    region_list: &mut Vec<AsId>,
) -> bool {
    let d = scenario.destination;
    let mut frontier: Vec<AsId> = Vec::new();
    for &v in region_list.iter() {
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
                if region.contains(u) || u == d || scenario.is_attacker(u) {
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
    let mut escaped = false;
    for u in frontier {
        if region.insert(u) {
            region_list.push(u);
            escaped = true;
        }
    }
    escaped
}

/// Fold any AS a region solve fixed *outside* its seeded region into the
/// region (see [`crate::engine::Engine::fix_log`]: possible only for ASes
/// that were unreachable in the base outcome), keeping the touched list an
/// exact superset of the solve's writes — the invariant both engines'
/// snapshot/undo bookkeeping rests on.
pub(crate) fn absorb_fix_log(fix_log: &[u32], region: &mut AsSet, region_list: &mut Vec<AsId>) {
    for &x in fix_log {
        let v = AsId(x);
        if region.insert(v) {
            region_list.push(v);
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

/// Pack a lexicographic `(u32, u32, u32)` preference key into one `u128`
/// (strictly order-preserving, and always below `u128::MAX`).
#[inline]
pub(crate) fn pack_key(k: (u32, u32, u32)) -> u128 {
    ((k.0 as u128) << 64) | ((k.1 as u128) << 32) | (k.2 as u128)
}

/// The position of the route `u` would learn from `v` at class `rank`, or
/// `None` when `v` has no route or may not export it at that class (Ex).
fn offer_key(
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
