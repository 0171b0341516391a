//! Per-AS routing outcomes and the happy/unhappy classification (§4.1).
//!
//! The routing models determine each AS's choice only up to the arbitrary
//! intradomain tie-break **TB**, so the engine records, for every AS, the
//! *set* of equally-best routes (the paper's `BPR` set) — which by
//! construction all share the same class, length and security status — and
//! whether members of that set lead to the legitimate destination, the
//! attacker, or both. That three-way classification yields the lower and
//! upper bounds on the number of happy ASes used throughout the paper
//! (Appendix C).
//!
//! Storage layout: the per-AS root flags, the security bit and the
//! mark-traversal bit all live in one `flags` byte (the crate-private
//! `FLAG_ROOTS`, `FLAG_SECURE` and `FLAG_VIA_MARK` masks), so the engine's
//! inner rescan loop reads a single byte stream instead of three parallel
//! arrays.

use sbgp_topology::AsId;

use crate::attack::MAX_ATTACKERS;

/// Which roots the equally-best routes of an AS lead to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootFlags(pub(crate) u8);

/// Mask of the two root-reachability bits inside a packed flags byte.
pub(crate) const FLAG_ROOTS: u8 = 0b0011;
/// Packed-flags bit: the AS's equally-best routes are secure end-to-end.
pub(crate) const FLAG_SECURE: u8 = 0b0100;
/// Packed-flags bit: some equally-best route traverses the scenario mark.
pub(crate) const FLAG_VIA_MARK: u8 = 0b1000;

/// Pack root flags, the security bit and the mark bit into one byte.
#[inline]
pub(crate) fn pack_flags(root_flags: u8, secure: bool, via_mark: bool) -> u8 {
    debug_assert_eq!(root_flags & !FLAG_ROOTS, 0, "root flags overflow");
    root_flags | (u8::from(secure) << 2) | (u8::from(via_mark) << 3)
}

impl RootFlags {
    /// No route at all.
    pub const NONE: RootFlags = RootFlags(0);
    /// Every equally-best route reaches the legitimate destination.
    pub const TO_D: RootFlags = RootFlags(1);
    /// Every equally-best route reaches the attacker.
    pub const TO_M: RootFlags = RootFlags(2);
    /// The tie-break decides between legitimate and bogus routes.
    pub const MIXED: RootFlags = RootFlags(3);

    /// Some equally-best route reaches the destination.
    #[inline]
    pub fn may_reach_destination(self) -> bool {
        self.0 & 1 != 0
    }

    /// Some equally-best route reaches the attacker.
    #[inline]
    pub fn may_reach_attacker(self) -> bool {
        self.0 & 2 != 0
    }

    /// Happy under *every* tie-break: all best routes are legitimate.
    #[inline]
    pub fn surely_happy(self) -> bool {
        self == RootFlags::TO_D
    }

    /// Unhappy under every tie-break: all best routes are bogus.
    #[inline]
    pub fn surely_unhappy(self) -> bool {
        self == RootFlags::TO_M
    }

    /// Union of two flag sets.
    #[inline]
    pub fn union(self, other: RootFlags) -> RootFlags {
        RootFlags(self.0 | other.0)
    }
}

/// The LP class of an AS's chosen route (its next hop's relationship).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteClass {
    /// The AS *is* a root (the destination, or the attacker pretending).
    Origin,
    /// Route learned from a customer.
    Customer,
    /// Route learned from a peer.
    Peer,
    /// Route learned from a provider.
    Provider,
}

impl RouteClass {
    /// The LP rank used by [`crate::policy::preference_key`]
    /// (customer 0 ≺ peer 1 ≺ provider 2).
    pub fn rank(self) -> u8 {
        match self {
            RouteClass::Origin => 0,
            RouteClass::Customer => 0,
            RouteClass::Peer => 1,
            RouteClass::Provider => 2,
        }
    }
}

/// One AS's whole stored entry — kind, length, packed flags and next hop —
/// as a sweep saves it for a rewind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Entry {
    kind: u8,
    len: u32,
    flags: u8,
    next_hop: u32,
}

/// Resolved routing information for one AS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteInfo {
    /// LP class of the (equally-best) routes.
    pub class: RouteClass,
    /// AS-path length, counting the bogus "m, d" announcement as length 1
    /// at `m` itself (so `m`'s neighbors see length 2).
    pub length: u32,
    /// True when the routes are secure end-to-end from this AS's view.
    pub secure: bool,
    /// Which roots the routes lead to.
    pub flags: RootFlags,
}

/// The stable routing outcome for one `(attacker, destination, deployment,
/// policy)` instance, for every AS in the graph.
///
/// Produced by [`crate::Engine::compute`]; the buffers live inside the
/// engine and are reused across runs, so the outcome borrows the engine.
/// `Clone` exists so serving layers can retain an outcome past the
/// engine's next run — e.g. the planner service caches normal-conditions
/// outcomes and re-anchors later queries on them through
/// [`crate::AttackDeltaEngine::begin_from_normal`].
#[derive(Clone, Debug)]
pub struct Outcome {
    pub(crate) kind: Vec<u8>,
    pub(crate) len: Vec<u32>,
    /// Packed per-AS byte: root flags ([`FLAG_ROOTS`]), the security bit
    /// ([`FLAG_SECURE`]) and the mark-traversal bit ([`FLAG_VIA_MARK`]).
    pub(crate) flags: Vec<u8>,
    /// A representative next hop (lowest-id member of the `BPR` set);
    /// `u32::MAX` when unrouted or a root.
    pub(crate) next_hop: Vec<u32>,
    pub(crate) destination: AsId,
    /// Announcer set of the computed scenario, primary attacker first
    /// (front-packed; all `None` for normal conditions).
    pub(crate) attackers: [Option<AsId>; MAX_ATTACKERS],
}

pub(crate) const KIND_UNFIXED: u8 = 0;
pub(crate) const KIND_ORIGIN: u8 = 1;
pub(crate) const KIND_CUSTOMER: u8 = 2;
pub(crate) const KIND_PEER: u8 = 3;
pub(crate) const KIND_PROVIDER: u8 = 4;

impl Outcome {
    pub(crate) fn new_empty() -> Outcome {
        Outcome {
            kind: Vec::new(),
            len: Vec::new(),
            flags: Vec::new(),
            next_hop: Vec::new(),
            destination: AsId(0),
            attackers: [None; MAX_ATTACKERS],
        }
    }

    #[cfg(test)]
    pub(crate) fn reset(
        &mut self,
        n: usize,
        destination: AsId,
        attackers: [Option<AsId>; MAX_ATTACKERS],
    ) {
        self.reset_with_kinds(n, destination, attackers, |_| KIND_UNFIXED);
    }

    /// Reset to `n` ASes with no route, except that index `i` starts with
    /// kind `initial_kind(i)` — the engine marks the stubs it folds out of
    /// its BFS in the same pass.
    pub(crate) fn reset_with_kinds(
        &mut self,
        n: usize,
        destination: AsId,
        attackers: [Option<AsId>; MAX_ATTACKERS],
        initial_kind: impl FnMut(usize) -> u8,
    ) {
        self.kind.clear();
        self.kind.extend((0..n).map(initial_kind));
        self.len.clear();
        self.len.resize(n, u32::MAX);
        self.flags.clear();
        self.flags.resize(n, 0);
        self.next_hop.clear();
        self.next_hop.resize(n, u32::MAX);
        self.destination = destination;
        self.attackers = attackers;
    }

    /// Overwrite `self` with a copy of `other`, reusing buffers.
    pub(crate) fn copy_from(&mut self, other: &Outcome) {
        self.kind.clone_from(&other.kind);
        self.len.clone_from(&other.len);
        self.flags.clone_from(&other.flags);
        self.next_hop.clone_from(&other.next_hop);
        self.destination = other.destination;
        self.attackers = other.attackers;
    }

    /// Copy only `v`'s entry from `other` — the incremental engines' undo
    /// and commit primitive, `O(touched)` instead of `O(V)`.
    #[inline]
    pub(crate) fn copy_entry_from(&mut self, other: &Outcome, v: AsId) {
        self.set_entry(v, other.entry(v));
    }

    /// `v`'s whole entry.
    #[inline]
    pub(crate) fn entry(&self, v: AsId) -> Entry {
        let i = v.index();
        Entry {
            kind: self.kind[i],
            len: self.len[i],
            flags: self.flags[i],
            next_hop: self.next_hop[i],
        }
    }

    /// Overwrite `v`'s whole entry.
    #[inline]
    pub(crate) fn set_entry(&mut self, v: AsId, entry: Entry) {
        let i = v.index();
        self.kind[i] = entry.kind;
        self.len[i] = entry.len;
        self.flags[i] = entry.flags;
        self.next_hop[i] = entry.next_hop;
    }

    /// Return `v` to the unfixed state, as if the run had never reached it.
    pub(crate) fn unfix(&mut self, v: AsId) {
        let i = v.index();
        self.kind[i] = KIND_UNFIXED;
        self.len[i] = u32::MAX;
        self.flags[i] = 0;
        self.next_hop[i] = u32::MAX;
    }

    /// Write a fixed entry for index `i` (everything except the next hop,
    /// which roots never have and `try_fix` sets itself).
    #[inline]
    pub(crate) fn set_fixed(
        &mut self,
        i: usize,
        kind: u8,
        len: u32,
        secure: bool,
        root_flags: u8,
        via_mark: bool,
    ) {
        self.kind[i] = kind;
        self.len[i] = len;
        self.flags[i] = pack_flags(root_flags, secure, via_mark);
    }

    /// The packed flags byte for index `i` (root bits + secure + mark).
    #[inline]
    pub(crate) fn packed_flags(&self, i: usize) -> u8 {
        self.flags[i]
    }

    /// Security bit of index `i`'s routes.
    #[inline]
    pub(crate) fn secure_at(&self, i: usize) -> bool {
        self.flags[i] & FLAG_SECURE != 0
    }

    /// True when `v`'s entry agrees with `other`'s on every field a
    /// *neighbor* of `v` can observe (class, length, security, root flags,
    /// mark traversal — the latter three share the packed flags byte). The
    /// representative next hop is excluded: it can shrink with the `BPR`
    /// set without changing what `v` offers others.
    pub(crate) fn same_for_neighbors(&self, other: &Outcome, v: AsId) -> bool {
        let i = v.index();
        self.kind[i] == other.kind[i]
            && self.len[i] == other.len[i]
            && self.flags[i] == other.flags[i]
    }

    /// Number of ASes covered.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// True when the outcome covers no ASes.
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// The destination of the computed scenario.
    pub fn destination(&self) -> AsId {
        self.destination
    }

    /// The primary attacker of the computed scenario, if any.
    pub fn attacker(&self) -> Option<AsId> {
        self.attackers[0]
    }

    /// Every announcer of the computed scenario, primary first (empty for
    /// normal conditions).
    pub fn attackers(&self) -> impl Iterator<Item = AsId> + '_ {
        self.attackers.iter().copied().flatten()
    }

    /// The route information for `v`, or `None` when `v` has no route.
    /// Roots (the destination and the attacker) report
    /// [`RouteClass::Origin`].
    pub fn route(&self, v: AsId) -> Option<RouteInfo> {
        let i = v.index();
        let class = match self.kind[i] {
            KIND_UNFIXED => return None,
            KIND_ORIGIN => RouteClass::Origin,
            KIND_CUSTOMER => RouteClass::Customer,
            KIND_PEER => RouteClass::Peer,
            KIND_PROVIDER => RouteClass::Provider,
            other => unreachable!("bad kind {other}"),
        };
        Some(RouteInfo {
            class,
            length: self.len[i],
            secure: self.flags[i] & FLAG_SECURE != 0,
            flags: RootFlags(self.flags[i] & FLAG_ROOTS),
        })
    }

    /// Root flags for `v` ([`RootFlags::NONE`] when unreachable).
    #[inline]
    pub fn flags(&self, v: AsId) -> RootFlags {
        RootFlags(self.flags[v.index()] & FLAG_ROOTS)
    }

    /// True when `v` uses a secure route (necessarily legitimate).
    #[inline]
    pub fn uses_secure_route(&self, v: AsId) -> bool {
        self.flags[v.index()] & FLAG_SECURE != 0
    }

    /// True when some equally-best route of `v` traverses the scenario's
    /// marked AS (see [`crate::AttackScenario::normal_marked`]). Always
    /// false when no mark was set.
    #[inline]
    pub fn may_traverse_mark(&self, v: AsId) -> bool {
        self.flags[v.index()] & FLAG_VIA_MARK != 0
    }

    /// A representative next hop for `v`: the lowest-id neighbor whose
    /// route is in `v`'s equally-best set. `None` for roots and unrouted
    /// ASes. When `v` is tie-break-torn ([`RootFlags::MIXED`]) this is one
    /// *possible* choice, not a prediction.
    pub fn next_hop(&self, v: AsId) -> Option<AsId> {
        match self.next_hop[v.index()] {
            u32::MAX => None,
            u => Some(AsId(u)),
        }
    }

    /// Follow representative next hops from `v` to a root, inclusive of
    /// both endpoints (e.g. `[v, provider, d]`). Empty when `v` has no
    /// route; a bogus route ends at the attacker (the fake `"m, d"` tail
    /// is *claimed*, not real, so it is not included).
    pub fn trace(&self, v: AsId) -> Vec<AsId> {
        let mut path = Vec::new();
        if self.route(v).is_none() {
            return path;
        }
        let mut cur = v;
        path.push(cur);
        while let Some(next) = self.next_hop(cur) {
            debug_assert!(path.len() <= self.kind.len(), "next-hop cycle");
            path.push(next);
            cur = next;
        }
        path
    }

    /// True when `v` is a source AS for the computed scenario (neither the
    /// destination nor any announcer).
    pub fn is_source(&self, v: AsId) -> bool {
        v != self.destination && !self.attackers.contains(&Some(v))
    }

    /// Count happy sources: returns `(surely_happy, possibly_happy)` — the
    /// lower and upper tie-break bounds of §4.1.
    ///
    /// Branch-free over the flags array (the compiler vectorizes it), with
    /// the roots' contributions removed afterwards; on large graphs this
    /// scan otherwise rivals the routing computation itself.
    pub fn count_happy(&self) -> (usize, usize) {
        let mut lower = 0usize;
        let mut upper = 0usize;
        for &f in &self.flags {
            lower += usize::from(f & FLAG_ROOTS == RootFlags::TO_D.0);
            upper += usize::from(f & 1);
        }
        let root = |v: AsId| {
            let f = self.flags[v.index()];
            (
                usize::from(f & FLAG_ROOTS == RootFlags::TO_D.0),
                usize::from(f & 1 != 0),
            )
        };
        let (dl, du) = root(self.destination);
        lower -= dl;
        upper -= du;
        for m in self.attackers.iter().flatten() {
            let (ml, mu) = root(*m);
            lower -= ml;
            upper -= mu;
        }
        (lower, upper)
    }

    /// Count sources currently on secure routes.
    pub fn count_secure_sources(&self) -> usize {
        (0..self.kind.len())
            .filter(|&i| {
                let v = AsId(i as u32);
                self.is_source(v) && self.flags[i] & FLAG_SECURE != 0
            })
            .count()
    }

    /// Iterate over all source ASes of this scenario.
    pub fn sources(&self) -> impl Iterator<Item = AsId> + '_ {
        (0..self.kind.len() as u32)
            .map(AsId)
            .filter(move |&v| self.is_source(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_algebra() {
        assert!(RootFlags::TO_D.surely_happy());
        assert!(!RootFlags::MIXED.surely_happy());
        assert!(RootFlags::MIXED.may_reach_destination());
        assert!(RootFlags::MIXED.may_reach_attacker());
        assert!(RootFlags::TO_M.surely_unhappy());
        assert_eq!(RootFlags::TO_D.union(RootFlags::TO_M), RootFlags::MIXED);
        assert_eq!(RootFlags::NONE.union(RootFlags::TO_D), RootFlags::TO_D);
    }

    #[test]
    fn happy_counting_respects_bounds() {
        let mut o = Outcome::new_empty();
        o.reset(5, AsId(0), [Some(AsId(4)), None, None]);
        // Sources are 1,2,3.
        o.flags[1] = RootFlags::TO_D.0;
        o.flags[2] = RootFlags::MIXED.0;
        o.flags[3] = RootFlags::TO_M.0;
        let (lo, hi) = o.count_happy();
        assert_eq!((lo, hi), (1, 2));
    }

    #[test]
    fn multi_attacker_scenarios_shrink_the_source_pool() {
        let mut o = Outcome::new_empty();
        o.reset(6, AsId(0), [Some(AsId(4)), Some(AsId(5)), None]);
        assert_eq!(o.attacker(), Some(AsId(4)), "primary attacker");
        assert_eq!(o.attackers().collect::<Vec<_>>(), vec![AsId(4), AsId(5)]);
        assert!(!o.is_source(AsId(5)), "colluders are not sources");
        assert!(o.is_source(AsId(3)));
        // Sources are 1, 2, 3.
        o.flags[1] = RootFlags::TO_D.0;
        o.flags[2] = RootFlags::MIXED.0;
        o.flags[3] = RootFlags::TO_M.0;
        o.flags[4] = RootFlags::TO_M.0;
        o.flags[5] = RootFlags::TO_M.0;
        assert_eq!(o.count_happy(), (1, 2));
        assert_eq!(o.sources().count(), 3);
    }

    #[test]
    fn happy_counting_ignores_packed_state_bits() {
        let mut o = Outcome::new_empty();
        o.reset(4, AsId(0), [None; MAX_ATTACKERS]);
        // A secure, mark-traversing happy source still counts as TO_D.
        o.flags[1] = pack_flags(RootFlags::TO_D.0, true, true);
        o.flags[2] = pack_flags(RootFlags::TO_M.0, false, true);
        let (lo, hi) = o.count_happy();
        assert_eq!((lo, hi), (1, 1));
        assert!(o.uses_secure_route(AsId(1)));
        assert!(o.may_traverse_mark(AsId(2)));
        assert_eq!(o.flags(AsId(1)), RootFlags::TO_D);
    }

    #[test]
    fn route_accessor_roundtrips() {
        let mut o = Outcome::new_empty();
        o.reset(3, AsId(0), [None; MAX_ATTACKERS]);
        o.set_fixed(1, KIND_PEER, 4, true, RootFlags::TO_D.0, false);
        let r = o.route(AsId(1)).unwrap();
        assert_eq!(r.class, RouteClass::Peer);
        assert_eq!(r.length, 4);
        assert!(r.secure);
        assert!(r.flags.surely_happy());
        assert!(o.route(AsId(2)).is_none());
    }

    #[test]
    fn entry_copy_restores_a_single_as() {
        let mut a = Outcome::new_empty();
        a.reset(3, AsId(0), [None; MAX_ATTACKERS]);
        a.set_fixed(1, KIND_CUSTOMER, 2, false, RootFlags::TO_D.0, false);
        a.next_hop[1] = 0;
        let mut b = Outcome::new_empty();
        b.reset(3, AsId(0), [None; MAX_ATTACKERS]);
        b.set_fixed(1, KIND_PEER, 9, true, RootFlags::TO_M.0, true);
        b.next_hop[1] = 2;
        b.copy_entry_from(&a, AsId(1));
        assert!(b.same_for_neighbors(&a, AsId(1)));
        assert_eq!(b.next_hop(AsId(1)), a.next_hop(AsId(1)));
        // Untouched entries keep their own state.
        assert!(b.route(AsId(2)).is_none());
    }
}
