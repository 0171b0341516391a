//! The routing-outcome engine: Appendix B's multi-stage two-rooted BFS.
//!
//! For a destination `d`, optional attacker `m`, secure set `S` and policy,
//! the engine computes the unique stable routing state (Theorem 2.1) by
//! *fixing* AS routes in preference order, exactly as the paper's
//! `Fix-Routes` algorithm does:
//!
//! * **customer stages** are breadth-first searches up customer→provider
//!   edges (the paper's FCR/FSCR);
//! * **peer stages** extend fixed customer routes across one peer edge
//!   (FPeeR/FSPeeR);
//! * **provider stages** are breadth-first searches down
//!   provider→customer edges, extending fixed routes of any class
//!   (FPrvR/FSPrvR).
//!
//! Each (class, security) pair owns a monotone *bucket queue* of fix
//! candidates keyed by route length. A security model is then just a drain
//! order:
//!
//! | Model | Drain order (standard LP) | Paper |
//! |-------|---------------------------|-------|
//! | security 1st | Cᛋ Pᛋ Prᛋ C P Pr | B.4: FSCR FSPeeR FSPrvR FCR FPeeR FPrvR |
//! | security 2nd | Cᛋ C Pᛋ P Prᛋ Pr | B.3: FSCR FCR FPeeR FSPrvR FPrvR |
//! | security 3rd | C P Pr (secure wins length ties) | B.2: FCR FPeeR FPrvR |
//!
//! (The paper's single FPeeR sweep is equivalent to draining secure peer
//! candidates before insecure ones, because peer routes never extend other
//! peer routes.) The Appendix K `LPk` variants interleave customer and peer
//! classes up to length `k` before the unbounded drains.
//!
//! When an AS is fixed, the engine rescans its eligible neighbors to find
//! *all* equally-best routes (the `BPR` set) and unions their
//! [`RootFlags`], which is what makes the tie-break-free happy bounds of
//! §4.1 exact.
//!
//! Every other engine in this crate — [`crate::SweepEngine`],
//! [`crate::AttackDeltaEngine`] and the per-computation engines of
//! [`crate::FusedDeltaEngine`] — either calls [`Engine::compute`] or
//! re-runs its stage schedule over a sub-region of a previous outcome.

use sbgp_topology::{AsGraph, AsId};

use crate::attack::AttackScenario;
use crate::deployment::Deployment;
use crate::outcome::{
    Outcome, RootFlags, FLAG_ROOTS, FLAG_SECURE, FLAG_VIA_MARK, KIND_CUSTOMER, KIND_ORIGIN,
    KIND_PEER, KIND_PROVIDER, KIND_UNFIXED,
};
use crate::policy::{Policy, SecurityModel};

/// Sentinel for an empty per-length chain in [`BucketQueue`].
const NO_ENTRY: u32 = u32::MAX;

/// Monotone bucket queue of fix candidates keyed by route length.
///
/// Candidates live in one flat arena of `(node, next)` links; `heads[len]`
/// chains the candidates of each length as an intrusive LIFO stack. A
/// `clear` therefore truncates two `Vec`s and never frees per-bucket
/// storage — deep graphs used to pay a `Vec<Vec<u32>>` reallocation per
/// bucket per `compute`, and pop order (LIFO within a length) is unchanged.
#[derive(Debug, Default)]
struct BucketQueue {
    /// Arena index of the most recently pushed candidate per length.
    heads: Vec<u32>,
    /// `(node, next-arena-index)` links; stale (popped) entries are
    /// reclaimed wholesale by `clear`.
    arena: Vec<(u32, u32)>,
    cursor: usize,
    size: usize,
}

impl BucketQueue {
    fn clear(&mut self) {
        self.heads.clear();
        self.arena.clear();
        self.cursor = 0;
        self.size = 0;
    }

    fn push(&mut self, len: u32, node: u32) {
        let len = len as usize;
        if len >= self.heads.len() {
            self.heads.resize(len + 1, NO_ENTRY);
        }
        let idx = self.arena.len() as u32;
        self.arena.push((node, self.heads[len]));
        self.heads[len] = idx;
        self.size += 1;
        if len < self.cursor {
            self.cursor = len;
        }
    }

    /// Smallest candidate length currently queued.
    fn peek_len(&mut self) -> Option<u32> {
        if self.size == 0 {
            return None;
        }
        while self.heads[self.cursor] == NO_ENTRY {
            self.cursor += 1;
        }
        Some(self.cursor as u32)
    }

    /// Pop a candidate with length ≤ `max_len`, lowest lengths first.
    fn pop_at_most(&mut self, max_len: u32) -> Option<(u32, u32)> {
        let len = self.peek_len()?;
        if len > max_len {
            return None;
        }
        let (node, next) = self.arena[self.heads[len as usize] as usize];
        self.heads[len as usize] = next;
        self.size -= 1;
        Some((node, len))
    }
}

/// Which candidates a drain admits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Only fully secure routes (the FS* stages).
    SecureOnly,
    /// Any route; when `tie_prefer_secure` (security 3rd), a validating AS
    /// keeps only the secure members of an equal-length `BPR` set.
    Any { tie_prefer_secure: bool },
}

/// Which neighbor class a fix candidate extends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Customer,
    Peer,
    Provider,
}

/// Reusable routing-outcome computer for one topology.
///
/// Create one engine per worker thread; [`Engine::compute`] reuses all
/// internal buffers, so a single `(m, d, S)` evaluation on a graph with
/// `V` ASes and `E` edges costs `O(V + E)` with no allocation in the
/// steady state.
#[derive(Debug)]
pub struct Engine<'g> {
    graph: &'g AsGraph,
    outcome: Outcome,
    cust_sec: BucketQueue,
    cust_any: BucketQueue,
    peer_sec: BucketQueue,
    peer_any: BucketQueue,
    prov_sec: BucketQueue,
    prov_any: BucketQueue,
    /// Whether secure queues are in use this run (skipped for security 3rd
    /// and for the `S = ∅` baseline, where no secure route can exist).
    use_secure_queues: bool,
    /// The scenario's marked AS, if any (for route-traversal tracking).
    mark: Option<AsId>,
    /// When set, every AS fixed by this run is appended to `fix_log`. The
    /// incremental engines enable this for region solves so that ASes fixed
    /// *outside* the seeded region (possible only for ASes that were
    /// unreachable in the base outcome, e.g. an island reachable solely via
    /// the attacker's bogus announcement) are absorbed into the touched
    /// set — keeping the snapshot/undo bookkeeping exact.
    log_fixes: bool,
    fix_log: Vec<u32>,
}

impl<'g> Engine<'g> {
    /// Create an engine for `graph`.
    pub fn new(graph: &'g AsGraph) -> Engine<'g> {
        Engine {
            graph,
            outcome: Outcome::new_empty(),
            cust_sec: BucketQueue::default(),
            cust_any: BucketQueue::default(),
            peer_sec: BucketQueue::default(),
            peer_any: BucketQueue::default(),
            prov_sec: BucketQueue::default(),
            prov_any: BucketQueue::default(),
            use_secure_queues: false,
            mark: None,
            log_fixes: false,
            fix_log: Vec::new(),
        }
    }

    /// The topology this engine runs on.
    pub fn graph(&self) -> &'g AsGraph {
        self.graph
    }

    /// Compute the stable routing outcome for `scenario` under `deployment`
    /// and `policy`. The returned outcome borrows the engine and is valid
    /// until the next `compute` call.
    pub fn compute(
        &mut self,
        scenario: AttackScenario,
        deployment: &Deployment,
        policy: Policy,
    ) -> &Outcome {
        self.begin(scenario, deployment, policy);
        self.outcome.reset(
            self.graph.len(),
            scenario.destination,
            scenario.attacker_array(),
        );

        // Roots. The destination announces at depth 0; every announcer's
        // forged path makes it a root of the (multi-root) bogus tree at
        // the strategy's claimed depth (§3.1 generalized — the fake link
        // is depth 1, a k-hop forged path depth k).
        let d = scenario.destination;
        self.fix_root(
            d,
            0,
            deployment.signs_origin(d),
            RootFlags::TO_D,
            deployment,
        );
        for m in scenario.attackers() {
            self.fix_root(
                m,
                scenario.strategy.root_depth(),
                false,
                RootFlags::TO_M,
                deployment,
            );
        }

        self.run_schedule(policy, deployment);
        &self.outcome
    }

    /// Validate inputs and reset the per-run machinery (queues, secure-queue
    /// gating, mark) *without* touching the outcome buffers. `compute` calls
    /// this before resetting the outcome; [`crate::SweepEngine`] calls it
    /// before re-fixing only a dirty sub-region of a previous outcome.
    pub(crate) fn begin(
        &mut self,
        scenario: AttackScenario,
        deployment: &Deployment,
        policy: Policy,
    ) {
        let n = self.graph.len();
        assert_eq!(
            deployment.universe(),
            n,
            "deployment universe must match the graph"
        );
        assert!(scenario.destination.index() < n, "destination out of range");
        for m in scenario.attackers() {
            assert!(m.index() < n, "attacker out of range");
        }
        for q in [
            &mut self.cust_sec,
            &mut self.cust_any,
            &mut self.peer_sec,
            &mut self.peer_any,
            &mut self.prov_sec,
            &mut self.prov_any,
        ] {
            q.clear();
        }
        self.use_secure_queues =
            policy.model != SecurityModel::Security3rd && !deployment.is_baseline();
        self.mark = scenario.mark;
        self.log_fixes = false;
        self.fix_log.clear();
    }

    /// Record every subsequently fixed AS in the fix log (cleared by
    /// [`Engine::begin`]). Region solvers use the log to detect fixes that
    /// landed outside their seeded region.
    pub(crate) fn enable_fix_log(&mut self) {
        self.log_fixes = true;
    }

    /// The ASes fixed since the last [`Engine::begin`], in fix order (only
    /// populated after [`Engine::enable_fix_log`]).
    pub(crate) fn fix_log(&self) -> &[u32] {
        &self.fix_log
    }

    /// Drain every queue in the model's stage order (Appendix B). All fix
    /// candidates must already be enqueued — by the root fixes in `compute`,
    /// or by boundary seeding in an incremental sweep step.
    pub(crate) fn run_schedule(&mut self, policy: Policy, deployment: &Deployment) {
        let k = policy.variant.interleave_depth();
        match policy.model {
            SecurityModel::Security1st => {
                // Secure phase: every fully-secure class first (B.4).
                self.interleave(
                    k,
                    &[
                        (Class::Customer, Mode::SecureOnly),
                        (Class::Peer, Mode::SecureOnly),
                    ],
                    deployment,
                );
                self.drain(Class::Customer, Mode::SecureOnly, u32::MAX, deployment);
                self.drain(Class::Peer, Mode::SecureOnly, u32::MAX, deployment);
                self.drain(Class::Provider, Mode::SecureOnly, u32::MAX, deployment);
                // Insecure phase.
                let any = Mode::Any {
                    tie_prefer_secure: false,
                };
                self.interleave(k, &[(Class::Customer, any), (Class::Peer, any)], deployment);
                self.drain(Class::Customer, any, u32::MAX, deployment);
                self.drain(Class::Peer, any, u32::MAX, deployment);
                self.drain(Class::Provider, any, u32::MAX, deployment);
            }
            SecurityModel::Security2nd => {
                // Within every LP class: secure first, then the rest (B.3).
                let any = Mode::Any {
                    tie_prefer_secure: false,
                };
                self.interleave(
                    k,
                    &[
                        (Class::Customer, Mode::SecureOnly),
                        (Class::Customer, any),
                        (Class::Peer, Mode::SecureOnly),
                        (Class::Peer, any),
                    ],
                    deployment,
                );
                self.drain(Class::Customer, Mode::SecureOnly, u32::MAX, deployment);
                self.drain(Class::Customer, any, u32::MAX, deployment);
                self.drain(Class::Peer, Mode::SecureOnly, u32::MAX, deployment);
                self.drain(Class::Peer, any, u32::MAX, deployment);
                self.drain(Class::Provider, Mode::SecureOnly, u32::MAX, deployment);
                self.drain(Class::Provider, any, u32::MAX, deployment);
            }
            SecurityModel::Security3rd => {
                // One pass per class; security only breaks length ties (B.2).
                let tie = Mode::Any {
                    tie_prefer_secure: true,
                };
                self.interleave(k, &[(Class::Customer, tie), (Class::Peer, tie)], deployment);
                self.drain(Class::Customer, tie, u32::MAX, deployment);
                self.drain(Class::Peer, tie, u32::MAX, deployment);
                self.drain(Class::Provider, tie, u32::MAX, deployment);
            }
        }
    }

    /// Read access to the last computed outcome.
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }

    /// Mutable access to the outcome buffers, for [`crate::SweepEngine`]'s
    /// partial resets.
    pub(crate) fn outcome_mut(&mut self) -> &mut Outcome {
        &mut self.outcome
    }

    pub(crate) fn fix_root(
        &mut self,
        v: AsId,
        len: u32,
        secure: bool,
        flags: RootFlags,
        deployment: &Deployment,
    ) {
        let i = v.index();
        self.outcome
            .set_fixed(i, KIND_ORIGIN, len, secure, flags.0, self.mark == Some(v));
        if self.log_fixes {
            self.fix_log.push(v.0);
        }
        self.push_from_fixed(v, deployment);
    }

    /// Enqueue fix candidates created by `v` having just been fixed.
    fn push_from_fixed(&mut self, v: AsId, deployment: &Deployment) {
        let i = v.index();
        let len = self.outcome.len[i];
        let secure = self.outcome.secure_at(i);
        let kind = self.outcome.kind[i];
        let next = len + 1;

        // Customer-class routes only extend customer-or-origin routes, and
        // the same holds for the single peer hop (export rule Ex).
        if kind == KIND_ORIGIN || kind == KIND_CUSTOMER {
            for &p in self.graph.providers(v) {
                if self.outcome.kind[p.index()] == KIND_UNFIXED {
                    self.cust_any.push(next, p.0);
                    if self.use_secure_queues && secure && deployment.validates(p) {
                        self.cust_sec.push(next, p.0);
                    }
                }
            }
            for &q in self.graph.peers(v) {
                if self.outcome.kind[q.index()] == KIND_UNFIXED {
                    self.peer_any.push(next, q.0);
                    if self.use_secure_queues && secure && deployment.validates(q) {
                        self.peer_sec.push(next, q.0);
                    }
                }
            }
        }
        // Provider-class routes extend a route of any class.
        for &c in self.graph.customers(v) {
            if self.outcome.kind[c.index()] == KIND_UNFIXED {
                self.prov_any.push(next, c.0);
                if self.use_secure_queues && secure && deployment.validates(c) {
                    self.prov_sec.push(next, c.0);
                }
            }
        }
    }

    /// Enqueue fix candidates for the unfixed AS `v` from every *fixed*
    /// neighbor outside `region` — the incremental-sweep dual of
    /// [`Engine::push_from_fixed`]. Neighbors inside `region` are skipped:
    /// either they are re-fixed roots (whose own `push_from_fixed` already
    /// ran) or they will push to `v` when the schedule fixes them.
    pub(crate) fn seed_from_boundary(
        &mut self,
        v: AsId,
        region: &sbgp_topology::AsSet,
        deployment: &Deployment,
    ) {
        let validating = deployment.validates(v);
        // Customer- and peer-class routes may only extend what the neighbor
        // exports upward/sideways: its origin announcement or a customer
        // route (Ex) — the same admission rule `try_fix` rescans with.
        for &u in self.graph.customers(v) {
            let ui = u.index();
            let ukind = self.outcome.kind[ui];
            if region.contains(u) || (ukind != KIND_ORIGIN && ukind != KIND_CUSTOMER) {
                continue;
            }
            let next = self.outcome.len[ui] + 1;
            self.cust_any.push(next, v.0);
            if self.use_secure_queues && self.outcome.secure_at(ui) && validating {
                self.cust_sec.push(next, v.0);
            }
        }
        for &u in self.graph.peers(v) {
            let ui = u.index();
            let ukind = self.outcome.kind[ui];
            if region.contains(u) || (ukind != KIND_ORIGIN && ukind != KIND_CUSTOMER) {
                continue;
            }
            let next = self.outcome.len[ui] + 1;
            self.peer_any.push(next, v.0);
            if self.use_secure_queues && self.outcome.secure_at(ui) && validating {
                self.peer_sec.push(next, v.0);
            }
        }
        for &u in self.graph.providers(v) {
            let ui = u.index();
            if region.contains(u) || self.outcome.kind[ui] == KIND_UNFIXED {
                continue;
            }
            let next = self.outcome.len[ui] + 1;
            self.prov_any.push(next, v.0);
            if self.use_secure_queues && self.outcome.secure_at(ui) && validating {
                self.prov_sec.push(next, v.0);
            }
        }
    }

    /// Interleaved LPk prefix: process classes C(1) P(1) C(2) P(2) … up to
    /// length `k`, honoring the given per-class (class, mode) order within
    /// each length level.
    fn interleave(&mut self, k: u32, order: &[(Class, Mode)], deployment: &Deployment) {
        if k == 0 {
            return;
        }
        loop {
            // The next level is the smallest candidate length across the
            // queues that participate in this phase.
            let mut level: Option<u32> = None;
            for &(class, mode) in order {
                let l = self.queue_mut(class, mode).peek_len();
                level = match (level, l) {
                    (None, l) => l,
                    (Some(a), None) => Some(a),
                    (Some(a), Some(b)) => Some(a.min(b)),
                };
            }
            let Some(level) = level else { break };
            if level > k {
                break;
            }
            for &(class, mode) in order {
                self.drain(class, mode, level, deployment);
            }
        }
    }

    fn queue_mut(&mut self, class: Class, mode: Mode) -> &mut BucketQueue {
        let secure = matches!(mode, Mode::SecureOnly);
        match (class, secure) {
            (Class::Customer, true) => &mut self.cust_sec,
            (Class::Customer, false) => &mut self.cust_any,
            (Class::Peer, true) => &mut self.peer_sec,
            (Class::Peer, false) => &mut self.peer_any,
            (Class::Provider, true) => &mut self.prov_sec,
            (Class::Provider, false) => &mut self.prov_any,
        }
    }

    /// Drain one (class, mode) queue up to `max_len`, fixing ASes in
    /// ascending route-length order.
    fn drain(&mut self, class: Class, mode: Mode, max_len: u32, deployment: &Deployment) {
        while let Some((node, len)) = self.queue_mut(class, mode).pop_at_most(max_len) {
            self.try_fix(AsId(node), len, class, mode, deployment);
        }
    }

    /// Attempt to fix `v` at route length `len` in the given class/mode, by
    /// rescanning its eligible neighbors to build the exact `BPR` set.
    fn try_fix(&mut self, v: AsId, len: u32, class: Class, mode: Mode, deployment: &Deployment) {
        let i = v.index();
        if self.outcome.kind[i] != KIND_UNFIXED {
            return; // Stale candidate: already fixed by a better class.
        }
        let validating = deployment.validates(v);
        let want_len = len - 1;

        let neighbors = match class {
            Class::Customer => self.graph.customers(v),
            Class::Peer => self.graph.peers(v),
            Class::Provider => self.graph.providers(v),
        };

        let mut flags_any: u8 = 0;
        let mut flags_secure: u8 = 0;
        let mut via_any = false;
        let mut via_secure = false;
        let mut n_any = 0usize;
        let mut n_secure = 0usize;
        let mut hop_any = u32::MAX;
        let mut hop_secure = u32::MAX;
        for &u in neighbors {
            let ui = u.index();
            let ukind = self.outcome.kind[ui];
            if ukind == KIND_UNFIXED || self.outcome.len[ui] != want_len {
                continue;
            }
            // Customer and peer routes can only extend a route the neighbor
            // may export upward/sideways: its own origin announcement or a
            // customer route (Ex). Provider routes extend anything.
            if class != Class::Provider && ukind != KIND_ORIGIN && ukind != KIND_CUSTOMER {
                continue;
            }
            // One byte carries the neighbor's root flags, security bit and
            // mark bit — a single cache stream in this inner rescan loop.
            let packed = self.outcome.packed_flags(ui);
            let ext_secure = packed & FLAG_SECURE != 0 && validating;
            if let Mode::SecureOnly = mode {
                if !ext_secure {
                    continue;
                }
            }
            n_any += 1;
            flags_any |= packed & FLAG_ROOTS;
            via_any |= packed & FLAG_VIA_MARK != 0;
            hop_any = hop_any.min(u.0);
            if ext_secure {
                n_secure += 1;
                flags_secure |= packed & FLAG_ROOTS;
                via_secure |= packed & FLAG_VIA_MARK != 0;
                hop_secure = hop_secure.min(u.0);
            }
        }
        if n_any == 0 {
            return; // Stale candidate: its suffix was outcompeted.
        }

        let (flags, secure, via, hop) = match mode {
            Mode::SecureOnly => (flags_secure, true, via_secure, hop_secure),
            Mode::Any { tie_prefer_secure } => {
                if tie_prefer_secure && n_secure > 0 {
                    // Security 3rd: secure routes win the length tie.
                    (flags_secure, true, via_secure, hop_secure)
                } else {
                    // All equally-best routes form the BPR set; they are
                    // all secure only when every candidate extension is.
                    (flags_any, n_secure == n_any, via_any, hop_any)
                }
            }
        };

        let kind = match class {
            Class::Customer => KIND_CUSTOMER,
            Class::Peer => KIND_PEER,
            Class::Provider => KIND_PROVIDER,
        };
        self.outcome
            .set_fixed(i, kind, len, secure, flags, via || self.mark == Some(v));
        self.outcome.next_hop[i] = hop;
        debug_assert!(
            !secure || flags == RootFlags::TO_D.0,
            "secure routes cannot reach the attacker"
        );
        if self.log_fixes {
            self.fix_log.push(v.0);
        }
        self.push_from_fixed(v, deployment);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackStrategy;
    use crate::policy::LpVariant;
    use sbgp_topology::GraphBuilder;

    fn sec(model: SecurityModel) -> Policy {
        Policy::new(model)
    }

    /// d(0) has provider p(1); p has provider t(2); d also has a stub
    /// customer c(3); t peers with q(4), q is provider of e(5).
    fn chain() -> AsGraph {
        let mut b = GraphBuilder::new(6);
        b.add_provider(AsId(0), AsId(1)).unwrap();
        b.add_provider(AsId(1), AsId(2)).unwrap();
        b.add_provider(AsId(3), AsId(0)).unwrap();
        b.add_peering(AsId(2), AsId(4)).unwrap();
        b.add_provider(AsId(5), AsId(4)).unwrap();
        b.build()
    }

    #[test]
    fn baseline_routing_classes_and_lengths() {
        let g = chain();
        let dep = Deployment::empty(g.len());
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::normal(AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );

        // p learns d as a customer route of length 1.
        let p = o.route(AsId(1)).unwrap();
        assert_eq!(p.class, crate::RouteClass::Customer);
        assert_eq!(p.length, 1);
        assert!(!p.secure);
        // t: customer route of length 2.
        assert_eq!(o.route(AsId(2)).unwrap().length, 2);
        // c is d's customer: provider route of length 1.
        let c = o.route(AsId(3)).unwrap();
        assert_eq!(c.class, crate::RouteClass::Provider);
        assert_eq!(c.length, 1);
        // q: peer route of length 3 via t.
        let q = o.route(AsId(4)).unwrap();
        assert_eq!(q.class, crate::RouteClass::Peer);
        assert_eq!(q.length, 3);
        // e: provider route of length 4 via q.
        let e5 = o.route(AsId(5)).unwrap();
        assert_eq!(e5.class, crate::RouteClass::Provider);
        assert_eq!(e5.length, 4);
        // Everyone is happy: no attacker.
        let (lo, hi) = o.count_happy();
        assert_eq!((lo, hi), (5, 5));
    }

    #[test]
    fn export_rule_blocks_peer_to_peer_transit() {
        // d(0) peers with a(1); a peers with b(2). b must NOT reach d via
        // a (peer routes are not exported to peers).
        let mut g = GraphBuilder::new(3);
        g.add_peering(AsId(0), AsId(1)).unwrap();
        g.add_peering(AsId(1), AsId(2)).unwrap();
        let g = g.build();
        let dep = Deployment::empty(3);
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::normal(AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );
        assert!(o.route(AsId(1)).is_some());
        assert!(o.route(AsId(2)).is_none(), "valley-free export violated");
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer_and_provider() {
        // v(3) can reach d(0) three ways: via customer c(1) (length 3: a
        // detour), via peer q(2) (length 2), via provider... keep it to two
        // for clarity: LP must pick the customer route despite the length.
        let mut b = GraphBuilder::new(5);
        // chain d(0) <- x(4) <- c(1): c has customer route of length 2.
        b.add_provider(AsId(0), AsId(4)).unwrap();
        b.add_provider(AsId(4), AsId(1)).unwrap();
        // c is v's customer.
        b.add_provider(AsId(1), AsId(3)).unwrap();
        // q peers with v; q has customer route to d of length 1.
        b.add_provider(AsId(0), AsId(2)).unwrap();
        b.add_peering(AsId(2), AsId(3)).unwrap();
        let g = b.build();
        let dep = Deployment::empty(5);
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::normal(AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );
        let v = o.route(AsId(3)).unwrap();
        assert_eq!(v.class, crate::RouteClass::Customer);
        assert_eq!(v.length, 3);
    }

    /// The Figure 2 protocol-downgrade gadget.
    ///
    /// ids: 0 = d (Tier-1 "Level3 3356"), 1 = victim stub "21740",
    /// 2 = "174" (peer of both), 3 = "3491", 4 = m, 5 = stub "3536".
    fn figure2() -> AsGraph {
        let mut b = GraphBuilder::new(6);
        b.add_provider(AsId(1), AsId(0)).unwrap(); // 21740 buys from 3356
        b.add_peering(AsId(1), AsId(2)).unwrap(); // 21740 peers 174
        b.add_peering(AsId(0), AsId(2)).unwrap(); // 3356 peers 174
        b.add_provider(AsId(3), AsId(2)).unwrap(); // 3491 buys from 174
        b.add_provider(AsId(4), AsId(3)).unwrap(); // m buys from 3491
        b.add_provider(AsId(5), AsId(0)).unwrap(); // 3536 buys from 3356
        b.build()
    }

    #[test]
    fn figure2_protocol_downgrade_in_security_2nd_and_3rd() {
        let g = figure2();
        // Secure: d and the victim (and 174, which doesn't help it).
        let dep = Deployment::full_from_iter(6, [AsId(0), AsId(1), AsId(2)]);
        let mut e = Engine::new(&g);

        for model in [SecurityModel::Security2nd, SecurityModel::Security3rd] {
            // Normal conditions: the victim uses its secure provider route.
            let o = e.compute(AttackScenario::normal(AsId(0)), &dep, sec(model));
            let v = o.route(AsId(1)).unwrap();
            assert!(v.secure, "{model}: victim secure before attack");
            assert_eq!(v.length, 1);

            // Under attack: m's bogus customer chain reaches 174, which
            // exports it to its peer; the victim prefers the insecure peer
            // route (LP) and downgrades.
            let o = e.compute(AttackScenario::attack(AsId(4), AsId(0)), &dep, sec(model));
            let v = o.route(AsId(1)).unwrap();
            assert!(!v.secure, "{model}: victim downgraded");
            assert_eq!(v.class, crate::RouteClass::Peer);
            assert_eq!(v.length, 4);
            assert!(v.flags.surely_unhappy(), "{model}: victim routes to m");
            // 174 is doomed: bogus customer route beats legitimate peer.
            assert!(o.flags(AsId(2)).surely_unhappy(), "{model}: 174 doomed");
            // The single-homed stub is immune.
            assert!(o.flags(AsId(5)).surely_happy(), "{model}: 3536 immune");
        }
    }

    #[test]
    fn figure2_security_first_resists_downgrade() {
        let g = figure2();
        let dep = Deployment::full_from_iter(6, [AsId(0), AsId(1), AsId(2)]);
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::attack(AsId(4), AsId(0)),
            &dep,
            sec(SecurityModel::Security1st),
        );
        // Theorem 3.1: the victim keeps its secure route.
        let v = o.route(AsId(1)).unwrap();
        assert!(v.secure);
        assert!(v.flags.surely_happy());
        assert_eq!(v.length, 1);
        // 174 is now protectable and indeed protected (secure peer route).
        let r174 = o.route(AsId(2)).unwrap();
        assert!(r174.secure);
        assert!(r174.flags.surely_happy());
    }

    #[test]
    fn bogus_route_length_counts_the_fake_edge() {
        // m's neighbor sees "m, d": length 2.
        let mut b = GraphBuilder::new(3);
        b.add_provider(AsId(1), AsId(0)).unwrap(); // s buys from d... no:
        let _ = b; // rebuild cleanly below.
        let mut b = GraphBuilder::new(3);
        b.add_provider(AsId(2), AsId(1)).unwrap(); // m is customer of s(1)
        b.add_provider(AsId(1), AsId(0)).unwrap(); // s is customer of d(0)
        let g = b.build();
        let dep = Deployment::empty(3);
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::attack(AsId(2), AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );
        // s has a provider route to d of length 1, and a customer route to
        // m of claimed length 2. LP prefers the customer route to m.
        let s = o.route(AsId(1)).unwrap();
        assert_eq!(s.class, crate::RouteClass::Customer);
        assert_eq!(s.length, 2);
        assert!(s.flags.surely_unhappy());
    }

    #[test]
    fn mixed_flags_on_equal_insecure_routes() {
        // s(1) has two peers: pd(2) with a 2-hop customer route to d(0)
        // via x(5), and pm(3) with a claimed-2-hop customer route to m(4).
        // Both peer routes are length 3 from s: a genuine tie.
        let mut b = GraphBuilder::new(6);
        b.add_provider(AsId(0), AsId(5)).unwrap(); // d customer of x
        b.add_provider(AsId(5), AsId(2)).unwrap(); // x customer of pd
        b.add_provider(AsId(4), AsId(3)).unwrap(); // m customer of pm
        b.add_peering(AsId(1), AsId(2)).unwrap();
        b.add_peering(AsId(1), AsId(3)).unwrap();
        let g = b.build();
        let dep = Deployment::empty(6);
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::attack(AsId(4), AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );
        let s = o.route(AsId(1)).unwrap();
        assert_eq!(s.flags, RootFlags::MIXED);
        assert_eq!(s.length, 3);
        let (lo, hi) = o.count_happy();
        // Sources: 1, 2, 3, 5. pd, x are happy; pm is unhappy; s is mixed.
        assert_eq!((lo, hi), (2, 3));
    }

    #[test]
    fn security_3rd_breaks_ties_toward_secure_routes() {
        // Same topology; make the d-side path secure.
        let mut b = GraphBuilder::new(6);
        b.add_provider(AsId(0), AsId(5)).unwrap();
        b.add_provider(AsId(5), AsId(2)).unwrap();
        b.add_provider(AsId(4), AsId(3)).unwrap();
        b.add_peering(AsId(1), AsId(2)).unwrap();
        b.add_peering(AsId(1), AsId(3)).unwrap();
        let g = b.build();
        let dep = Deployment::full_from_iter(6, [AsId(0), AsId(1), AsId(2), AsId(5)]);
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::attack(AsId(4), AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );
        let s = o.route(AsId(1)).unwrap();
        assert!(s.secure);
        assert!(s.flags.surely_happy());
    }

    #[test]
    fn simplex_destination_supports_secure_routes() {
        // d(0) is a simplex stub; its provider p(1) and p's provider t(2)
        // run full S*BGP. t must see a secure route.
        let mut b = GraphBuilder::new(3);
        b.add_provider(AsId(0), AsId(1)).unwrap();
        b.add_provider(AsId(1), AsId(2)).unwrap();
        let g = b.build();
        let mut dep = Deployment::empty(3);
        dep.insert_simplex(AsId(0));
        dep.insert_full(AsId(1));
        dep.insert_full(AsId(2));
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::normal(AsId(0)),
            &dep,
            sec(SecurityModel::Security2nd),
        );
        assert!(o.route(AsId(1)).unwrap().secure);
        assert!(o.route(AsId(2)).unwrap().secure);
    }

    #[test]
    fn simplex_source_does_not_validate() {
        // Same chain, but the top AS is simplex: its route is insecure
        // from its own perspective.
        let mut b = GraphBuilder::new(3);
        b.add_provider(AsId(0), AsId(1)).unwrap();
        b.add_provider(AsId(1), AsId(2)).unwrap();
        let g = b.build();
        let mut dep = Deployment::empty(3);
        dep.insert_full(AsId(0));
        dep.insert_full(AsId(1));
        dep.insert_simplex(AsId(2));
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::normal(AsId(0)),
            &dep,
            sec(SecurityModel::Security2nd),
        );
        assert!(o.route(AsId(1)).unwrap().secure);
        assert!(!o.route(AsId(2)).unwrap().secure);
    }

    #[test]
    fn security_2nd_prefers_longer_secure_route_within_class() {
        // v(1) has two providers: pa(2) with an insecure route of length 1,
        // pb(3) with a secure route of length 2 (via t(4), all secure).
        let mut b = GraphBuilder::new(5);
        b.add_provider(AsId(0), AsId(2)).unwrap(); // d customer of pa
        b.add_provider(AsId(0), AsId(4)).unwrap(); // d customer of t
        b.add_provider(AsId(4), AsId(3)).unwrap(); // t customer of pb
        b.add_provider(AsId(1), AsId(2)).unwrap();
        b.add_provider(AsId(1), AsId(3)).unwrap();
        let g = b.build();
        let dep = Deployment::full_from_iter(5, [AsId(0), AsId(1), AsId(3), AsId(4)]);
        let mut e = Engine::new(&g);
        // Security 2nd: v picks the secure provider route (longer).
        let o = e.compute(
            AttackScenario::normal(AsId(0)),
            &dep,
            sec(SecurityModel::Security2nd),
        );
        let v = o.route(AsId(1)).unwrap();
        assert!(v.secure);
        assert_eq!(v.length, 3);
        // Security 3rd: v picks the shorter insecure route.
        let o = e.compute(
            AttackScenario::normal(AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );
        let v = o.route(AsId(1)).unwrap();
        assert!(!v.secure);
        assert_eq!(v.length, 2);
    }

    #[test]
    fn lp2_prefers_short_peer_over_long_customer() {
        // v(1): customer route of length 3 (via c(2) -> x(3) -> d(0)) and a
        // peer route of length 1 (peers with d).
        let mut b = GraphBuilder::new(4);
        b.add_provider(AsId(0), AsId(3)).unwrap();
        b.add_provider(AsId(3), AsId(2)).unwrap();
        b.add_provider(AsId(2), AsId(1)).unwrap();
        b.add_peering(AsId(1), AsId(0)).unwrap();
        let g = b.build();
        let dep = Deployment::empty(4);
        let mut e = Engine::new(&g);

        // Standard LP: customer wins.
        let o = e.compute(
            AttackScenario::normal(AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );
        assert_eq!(o.route(AsId(1)).unwrap().class, crate::RouteClass::Customer);

        // LP2: the 1-hop peer route wins.
        let lp2 = Policy::with_variant(SecurityModel::Security3rd, LpVariant::LpK(2));
        let o = e.compute(AttackScenario::normal(AsId(0)), &dep, lp2);
        let v = o.route(AsId(1)).unwrap();
        assert_eq!(v.class, crate::RouteClass::Peer);
        assert_eq!(v.length, 1);

        // LPinf behaves the same here.
        let lpinf = Policy::with_variant(SecurityModel::Security3rd, LpVariant::LpInf);
        let o = e.compute(AttackScenario::normal(AsId(0)), &dep, lpinf);
        assert_eq!(o.route(AsId(1)).unwrap().class, crate::RouteClass::Peer);
    }

    #[test]
    fn lp2_keeps_customer_priority_within_a_length() {
        // v(1): customer route length 2 and peer route length 2 -> C(2)
        // beats P(2) under LP2.
        let mut b = GraphBuilder::new(4);
        b.add_provider(AsId(0), AsId(2)).unwrap(); // d customer of c
        b.add_provider(AsId(2), AsId(1)).unwrap(); // c customer of v
        b.add_provider(AsId(0), AsId(3)).unwrap(); // d customer of q
        b.add_peering(AsId(3), AsId(1)).unwrap(); // q peers v
        let g = b.build();
        let dep = Deployment::empty(4);
        let mut e = Engine::new(&g);
        let lp2 = Policy::with_variant(SecurityModel::Security3rd, LpVariant::LpK(2));
        let o = e.compute(AttackScenario::normal(AsId(0)), &dep, lp2);
        assert_eq!(o.route(AsId(1)).unwrap().class, crate::RouteClass::Customer);
    }

    #[test]
    fn collateral_damage_gadget_security_2nd() {
        // See DESIGN.md §4 (Figures 14): a secure AS `a` switches to a
        // longer secure route, lengthening its customer s's legitimate
        // route past the bogus one.
        //
        // ids: 0=d, 1=r, 2=q, 3=p2, 4=p1, 5=a, 6=s, 7=b, 8=x, 9=m.
        let mut b = GraphBuilder::new(10);
        b.add_provider(AsId(0), AsId(1)).unwrap(); // d < r
        b.add_provider(AsId(1), AsId(2)).unwrap(); // r < q
        b.add_provider(AsId(2), AsId(3)).unwrap(); // q < p2
        b.add_provider(AsId(0), AsId(4)).unwrap(); // d < p1
        b.add_provider(AsId(5), AsId(3)).unwrap(); // a buys from p2
        b.add_provider(AsId(5), AsId(4)).unwrap(); // a buys from p1
        b.add_provider(AsId(6), AsId(5)).unwrap(); // s buys from a
        b.add_provider(AsId(6), AsId(7)).unwrap(); // s buys from b
        b.add_provider(AsId(8), AsId(7)).unwrap(); // x customer of b
        b.add_provider(AsId(9), AsId(8)).unwrap(); // m customer of x
        let g = b.build();
        let mut e = Engine::new(&g);
        let attack = AttackScenario::attack(AsId(9), AsId(0));

        // Baseline: a uses the short insecure provider route via p1; s's
        // legitimate route (len 3) beats the bogus one (len 4).
        let base = Deployment::empty(10);
        let o = e.compute(attack, &base, sec(SecurityModel::Security2nd));
        assert!(o.flags(AsId(6)).surely_happy());

        // Deploy S*BGP at {d, r, q, p2, a}: a switches to the secure
        // provider route (len 4); s's legitimate route becomes len 5 and
        // the bogus route (len 4) wins. Collateral damage.
        let dep = Deployment::full_from_iter(10, [AsId(0), AsId(1), AsId(2), AsId(3), AsId(5)]);
        let o = e.compute(attack, &dep, sec(SecurityModel::Security2nd));
        let a = o.route(AsId(5)).unwrap();
        assert!(a.secure);
        assert_eq!(a.length, 4);
        assert!(o.flags(AsId(6)).surely_unhappy(), "collateral damage");

        // Theorem 6.1: no such damage in security 3rd (a keeps the short
        // route).
        let o = e.compute(attack, &dep, sec(SecurityModel::Security3rd));
        assert!(o.flags(AsId(6)).surely_happy());
    }

    #[test]
    fn attacker_can_be_inside_the_deployment() {
        // m being "secure" must not make its bogus announcement secure: it
        // is sent via legacy BGP.
        let mut b = GraphBuilder::new(3);
        b.add_provider(AsId(1), AsId(0)).unwrap(); // s buys from d
        b.add_provider(AsId(2), AsId(1)).unwrap(); // m is customer of s
        let g = b.build();
        let dep = Deployment::full_from_iter(3, [AsId(0), AsId(1), AsId(2)]);
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::attack(AsId(2), AsId(0)),
            &dep,
            sec(SecurityModel::Security1st),
        );
        // Security 1st: s has a secure customer... no — d is s's provider,
        // so s's legitimate route is a secure *provider* route, while the
        // bogus route is an insecure customer route. Security 1st keeps s
        // safe regardless.
        let s = o.route(AsId(1)).unwrap();
        assert!(s.secure);
        assert!(s.flags.surely_happy());
    }

    #[test]
    fn unreachable_ases_have_no_route() {
        let mut b = GraphBuilder::new(3);
        b.add_provider(AsId(1), AsId(0)).unwrap();
        // 2 is isolated.
        let g = b.build();
        let dep = Deployment::empty(3);
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::normal(AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );
        assert!(o.route(AsId(2)).is_none());
        assert_eq!(o.flags(AsId(2)), RootFlags::NONE);
    }

    #[test]
    fn lp2_with_security_first_still_prefers_secure_routes() {
        // v(1): insecure 1-hop peer route to d(0) vs secure 3-hop customer
        // route (via c(2) -> x(3) -> d). LP2 alone would take the peer
        // route; security 1st overrides even the LPk classes.
        let mut b = GraphBuilder::new(4);
        b.add_provider(AsId(0), AsId(3)).unwrap();
        b.add_provider(AsId(3), AsId(2)).unwrap();
        b.add_provider(AsId(2), AsId(1)).unwrap();
        b.add_peering(AsId(1), AsId(0)).unwrap();
        let g = b.build();
        let all = Deployment::full_from_iter(4, (0..4).map(AsId));
        let mut e = Engine::new(&g);
        let lp2_sec1 = Policy::with_variant(SecurityModel::Security1st, LpVariant::LpK(2));
        let o = e.compute(AttackScenario::normal(AsId(0)), &all, lp2_sec1);
        let v = o.route(AsId(1)).unwrap();
        // Both routes are secure here (everyone deployed), so LP2 class
        // order applies among secure routes: the 1-hop peer route wins.
        assert_eq!(v.class, crate::RouteClass::Peer);
        assert!(v.secure);
        // Now make the peer route insecure by removing d from... d must
        // sign for any route to be secure; instead break the peer route's
        // security by removing v's *peer* from the deployment? The peer IS
        // d. Use a partial deployment where only the customer chain is
        // secure: {d, v, c, x} minus nothing... the peer route (v, d) is
        // secure whenever v and d are. So test the reverse: deploy nobody
        // but d and v and c and x — both routes secure again. Instead,
        // drop v from the deployment: nothing is secure, LP2 class wins.
        let dep = Deployment::full_from_iter(4, [AsId(0), AsId(2), AsId(3)]);
        let o = e.compute(AttackScenario::normal(AsId(0)), &dep, lp2_sec1);
        let v = o.route(AsId(1)).unwrap();
        assert_eq!(v.class, crate::RouteClass::Peer);
        assert!(!v.secure);
    }

    #[test]
    fn lpinf_with_security_second_prefers_secure_within_class() {
        // v(1) has two peer routes of length 2: via pa(2) (insecure chain)
        // and via pb(3) (secure chain). Under LPinf both are class P(2);
        // security 2nd picks the secure one.
        let mut b = GraphBuilder::new(6);
        b.add_provider(AsId(0), AsId(4)).unwrap(); // d customer of xa
        b.add_provider(AsId(0), AsId(5)).unwrap(); // d customer of xb
        b.add_provider(AsId(4), AsId(2)).unwrap(); // xa customer of pa
        b.add_provider(AsId(5), AsId(3)).unwrap(); // xb customer of pb
        b.add_peering(AsId(1), AsId(2)).unwrap();
        b.add_peering(AsId(1), AsId(3)).unwrap();
        let g = b.build();
        let dep = Deployment::full_from_iter(6, [AsId(0), AsId(1), AsId(3), AsId(5)]);
        let mut e = Engine::new(&g);
        let pol = Policy::with_variant(SecurityModel::Security2nd, LpVariant::LpInf);
        let o = e.compute(AttackScenario::normal(AsId(0)), &dep, pol);
        let v = o.route(AsId(1)).unwrap();
        assert!(v.secure, "security 2nd picks the secure P(3) route");
        assert_eq!(v.length, 3);
        // Under security 3rd + LPinf the tie also goes secure (SecP at TB).
        let pol3 = Policy::with_variant(SecurityModel::Security3rd, LpVariant::LpInf);
        let o = e.compute(AttackScenario::normal(AsId(0)), &dep, pol3);
        assert!(o.route(AsId(1)).unwrap().secure);
    }

    #[test]
    fn traces_follow_representative_routes() {
        let g = chain();
        let dep = Deployment::empty(g.len());
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::normal(AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );
        // e(5) -> q(4) -> t(2) -> p(1) -> d(0).
        assert_eq!(
            o.trace(AsId(5)),
            vec![AsId(5), AsId(4), AsId(2), AsId(1), AsId(0)]
        );
        assert_eq!(o.trace(AsId(0)), vec![AsId(0)], "root traces to itself");
        assert_eq!(o.next_hop(AsId(0)), None);
    }

    #[test]
    fn origin_hijack_beats_fake_link_for_the_attacker() {
        // d(0) <- s(1); m(2) is also a provider of s. With origin
        // authentication (FakeLink) s keeps the shorter legitimate route;
        // without it (OriginHijack) both routes tie at length 1 and s is
        // torn.
        let mut b = GraphBuilder::new(3);
        b.add_provider(AsId(1), AsId(0)).unwrap();
        b.add_provider(AsId(1), AsId(2)).unwrap();
        let g = b.build();
        let dep = Deployment::empty(3);
        let mut e = Engine::new(&g);
        let o = e.compute(
            AttackScenario::attack(AsId(2), AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );
        assert!(o.flags(AsId(1)).surely_happy(), "RPKI blunts the fake link");
        let o = e.compute(
            AttackScenario::hijack(AsId(2), AsId(0)),
            &dep,
            sec(SecurityModel::Security3rd),
        );
        assert_eq!(o.flags(AsId(1)), RootFlags::MIXED, "hijack ties the race");
    }

    #[test]
    fn forged_path_roots_at_its_claimed_depth() {
        // m(2) is a customer of s(1), s a customer of d(0): whatever the
        // claimed length, the bogus customer route beats s's provider
        // route under standard LP, and its length counts the fake tail.
        let mut b = GraphBuilder::new(3);
        b.add_provider(AsId(2), AsId(1)).unwrap();
        b.add_provider(AsId(1), AsId(0)).unwrap();
        let g = b.build();
        let dep = Deployment::empty(3);
        let mut e = Engine::new(&g);
        for hops in 0..4u8 {
            let scenario = AttackScenario::attack(AsId(2), AsId(0))
                .with_strategy(AttackStrategy::FakePath { hops });
            let o = e.compute(scenario, &dep, sec(SecurityModel::Security3rd));
            let s = o.route(AsId(1)).unwrap();
            assert_eq!(s.class, crate::RouteClass::Customer, "hops {hops}");
            assert_eq!(s.length, u32::from(hops) + 1, "hops {hops}");
            assert!(s.flags.surely_unhappy(), "hops {hops}");
            assert_eq!(o.route(AsId(2)).unwrap().length, u32::from(hops));
        }
    }

    #[test]
    fn colluding_roots_fix_a_multi_root_bogus_tree() {
        // d(0) <- s(1); m1(2) and m2(3) are both customers of s. Colluding
        // fake links tie at s: every equally-best route is bogus.
        let mut b = GraphBuilder::new(4);
        b.add_provider(AsId(1), AsId(0)).unwrap();
        b.add_provider(AsId(2), AsId(1)).unwrap();
        b.add_provider(AsId(3), AsId(1)).unwrap();
        let g = b.build();
        let dep = Deployment::empty(4);
        let mut e = Engine::new(&g);
        let scenario = AttackScenario::colluding(&[AsId(2), AsId(3)], AsId(0));
        let o = e.compute(scenario, &dep, sec(SecurityModel::Security3rd));
        let s = o.route(AsId(1)).unwrap();
        assert_eq!(s.class, crate::RouteClass::Customer);
        assert_eq!(s.length, 2);
        assert!(s.flags.surely_unhappy(), "both best routes are bogus");
        assert_eq!(o.attacker(), Some(AsId(2)));
        assert_eq!(o.attackers().collect::<Vec<_>>(), vec![AsId(2), AsId(3)]);
        // Only s is a source: n − 1 − 2 colluders.
        assert_eq!(o.sources().count(), 1);
        assert_eq!(o.count_happy(), (0, 0));
    }

    #[test]
    fn engine_reuse_is_clean() {
        let g = chain();
        let dep = Deployment::empty(g.len());
        let mut e = Engine::new(&g);
        let first: Vec<Option<crate::RouteInfo>> = {
            let o = e.compute(
                AttackScenario::normal(AsId(0)),
                &dep,
                sec(SecurityModel::Security3rd),
            );
            g.ases().map(|v| o.route(v)).collect()
        };
        // Interleave a different computation.
        let _ = e.compute(
            AttackScenario::attack(AsId(5), AsId(0)),
            &dep,
            sec(SecurityModel::Security2nd),
        );
        let again: Vec<Option<crate::RouteInfo>> = {
            let o = e.compute(
                AttackScenario::normal(AsId(0)),
                &dep,
                sec(SecurityModel::Security3rd),
            );
            g.ases().map(|v| o.route(v)).collect()
        };
        assert_eq!(first, again);
    }
}
