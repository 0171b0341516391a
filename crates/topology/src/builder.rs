//! Validated construction of [`AsGraph`]s from edge lists.

use std::collections::HashMap;

use crate::error::TopologyError;
use crate::graph::{AsGraph, AsId, Relationship};

/// Incremental, validated builder for [`AsGraph`].
///
/// Duplicate declarations of the same relationship are idempotent;
/// contradictory declarations (e.g. `a` peers `b` and `a` is provider of
/// `b`) are rejected. Peering between two ASes that already have a
/// customer/provider edge is likewise rejected — the routing models assume a
/// single relationship per adjacency.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    /// Relationship per normalized pair `(min, max)`; the flag records
    /// whether `min` is the customer (`true`) or the provider (`false`) for
    /// customer→provider edges.
    edges: HashMap<(u32, u32), EdgeKind>,
    asn_labels: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    /// `min` pair member is the customer of `max`.
    MinIsCustomer,
    /// `max` pair member is the customer of `min`.
    MaxIsCustomer,
    Peer,
}

impl GraphBuilder {
    /// Create a builder for a graph of `n` ASes with ids `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: HashMap::new(),
            asn_labels: Vec::new(),
        }
    }

    /// Number of ASes this builder was created with.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the builder covers zero ASes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Attach real-world ASN labels (index = AS id). Pass exactly `n`
    /// labels; any other length is rejected here with
    /// [`TopologyError::LabelCountMismatch`] (an empty vector is also
    /// accepted and clears the labels, the synthetic-graph state where
    /// every AS is labeled by its own id).
    pub fn set_asn_labels(&mut self, labels: Vec<u32>) -> Result<(), TopologyError> {
        if !labels.is_empty() && labels.len() != self.n {
            return Err(TopologyError::LabelCountMismatch {
                labels: labels.len(),
                len: self.n,
            });
        }
        self.asn_labels = labels;
        Ok(())
    }

    fn check(&self, a: AsId, b: AsId) -> Result<(), TopologyError> {
        for id in [a, b] {
            if id.index() >= self.n {
                return Err(TopologyError::IdOutOfRange { id, len: self.n });
            }
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        Ok(())
    }

    fn insert(&mut self, a: AsId, b: AsId, kind: EdgeKind) -> Result<(), TopologyError> {
        self.check(a, b)?;
        let (key, kind) = if a.0 <= b.0 {
            ((a.0, b.0), kind)
        } else {
            let flipped = match kind {
                EdgeKind::MinIsCustomer => EdgeKind::MaxIsCustomer,
                EdgeKind::MaxIsCustomer => EdgeKind::MinIsCustomer,
                EdgeKind::Peer => EdgeKind::Peer,
            };
            ((b.0, a.0), flipped)
        };
        match self.edges.insert(key, kind) {
            None => Ok(()),
            Some(prev) if prev == kind => Ok(()),
            Some(_) => Err(TopologyError::ConflictingRelationship(a, b)),
        }
    }

    /// Declare that `customer` buys transit from `provider`.
    pub fn add_provider(&mut self, customer: AsId, provider: AsId) -> Result<(), TopologyError> {
        self.insert(customer, provider, EdgeKind::MinIsCustomer)
    }

    /// Declare a settlement-free peering between `a` and `b`.
    pub fn add_peering(&mut self, a: AsId, b: AsId) -> Result<(), TopologyError> {
        self.insert(a, b, EdgeKind::Peer)
    }

    /// Declare an edge by [`Relationship`], read from `a`'s perspective
    /// (`a` is the customer for [`Relationship::CustomerToProvider`]).
    pub fn add_edge(&mut self, a: AsId, b: AsId, rel: Relationship) -> Result<(), TopologyError> {
        match rel {
            Relationship::CustomerToProvider => self.add_provider(a, b),
            Relationship::PeerToPeer => self.add_peering(a, b),
        }
    }

    /// Bulk construction: the batch equivalent of [`new`](Self::new) +
    /// [`add_edge`](Self::add_edge) per edge +
    /// [`set_asn_labels`](Self::set_asn_labels) +
    /// [`build`](Self::build), producing a bit-identical [`AsGraph`]
    /// without the per-edge hash-map probe that dominates incremental
    /// build time past ~60k ASes.
    ///
    /// Each edge is packed into one `u64` key (both ids and the
    /// relationship, in that sort order), the keys are sorted with one
    /// unstable integer sort, deduplicated and conflict-checked in a
    /// single linear scan, and written straight into the CSR arrays (the
    /// sort order makes every per-AS segment come out sorted without
    /// per-vertex sorting passes). The as-rel parser fills the same keys
    /// and shares the fill. Validation matches the incremental path
    /// exactly: out-of-range ids, self-loops, and contradictory duplicate
    /// declarations are rejected; exact repeats are deduplicated.
    /// `asn_labels` must be empty or exactly `n` long. A key holds ids
    /// below 2³¹, so `n` past 2³¹ is refused with
    /// [`TopologyError::IdOutOfRange`] before anything is allocated.
    pub fn from_edges<I>(n: usize, asn_labels: Vec<u32>, edges: I) -> Result<AsGraph, TopologyError>
    where
        I: IntoIterator<Item = (AsId, AsId, Relationship)>,
    {
        if n > MAX_KEYED_ASES {
            return Err(TopologyError::IdOutOfRange {
                id: AsId(MAX_KEYED_ASES as u32),
                len: n,
            });
        }
        if !asn_labels.is_empty() && asn_labels.len() != n {
            return Err(TopologyError::LabelCountMismatch {
                labels: asn_labels.len(),
                len: n,
            });
        }
        let edges = edges.into_iter();
        let mut keys: Vec<u64> = Vec::with_capacity(edges.size_hint().0);
        for (a, b, rel) in edges {
            for id in [a, b] {
                if id.index() >= n {
                    return Err(TopologyError::IdOutOfRange { id, len: n });
                }
            }
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            keys.push(edge_key(a, b, rel));
        }
        sort_edge_keys(&mut keys)?;
        Ok(fill_csr(n, asn_labels, &keys))
    }

    /// True when the pair already has an edge of any kind.
    pub fn has_edge(&self, a: AsId, b: AsId) -> bool {
        let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.edges.contains_key(&key)
    }

    /// Finalize into a CSR [`AsGraph`].
    pub fn build(self) -> AsGraph {
        let n = self.n;
        // Per-AS neighbor lists in the three classes.
        let mut customers: Vec<Vec<AsId>> = vec![Vec::new(); n];
        let mut peers: Vec<Vec<AsId>> = vec![Vec::new(); n];
        let mut providers: Vec<Vec<AsId>> = vec![Vec::new(); n];
        let mut num_c2p = 0usize;
        let mut num_p2p = 0usize;

        for (&(lo, hi), &kind) in &self.edges {
            let (lo, hi) = (AsId(lo), AsId(hi));
            match kind {
                EdgeKind::MinIsCustomer => {
                    // lo is customer of hi.
                    providers[lo.index()].push(hi);
                    customers[hi.index()].push(lo);
                    num_c2p += 1;
                }
                EdgeKind::MaxIsCustomer => {
                    providers[hi.index()].push(lo);
                    customers[lo.index()].push(hi);
                    num_c2p += 1;
                }
                EdgeKind::Peer => {
                    peers[lo.index()].push(hi);
                    peers[hi.index()].push(lo);
                    num_p2p += 1;
                }
            }
        }

        let mut offsets = Vec::with_capacity(n + 1);
        let mut cust_end = Vec::with_capacity(n);
        let mut peer_end = Vec::with_capacity(n);
        let mut neighbors = Vec::with_capacity(2 * (num_c2p + num_p2p));
        offsets.push(0u32);
        for v in 0..n {
            customers[v].sort_unstable();
            peers[v].sort_unstable();
            providers[v].sort_unstable();
            neighbors.extend_from_slice(&customers[v]);
            cust_end.push(neighbors.len() as u32);
            neighbors.extend_from_slice(&peers[v]);
            peer_end.push(neighbors.len() as u32);
            neighbors.extend_from_slice(&providers[v]);
            offsets.push(neighbors.len() as u32);
        }

        // `set_asn_labels` already refused any vector that is neither
        // empty nor exactly `n` long.
        let asn_labels = self.asn_labels;

        AsGraph {
            offsets,
            cust_end,
            peer_end,
            neighbors,
            asn_labels,
            num_c2p,
            num_p2p,
        }
    }
}

/// The ASes an edge key can address: ids below 2³¹.
pub(crate) const MAX_KEYED_ASES: usize = 1 << 31;

// Kind tags of an edge key, ordered so contradictory declarations of one
// pair sort adjacently right after the pair's exact repeats.
const MIN_IS_CUSTOMER: u64 = 0;
const MAX_IS_CUSTOMER: u64 = 1;
const PEER: u64 = 2;

/// One edge as one sortable `u64`: `lo << 33 | hi << 2 | kind` for the
/// pair's ids `lo < hi` (both below [`MAX_KEYED_ASES`]) and its kind
/// read from `lo`'s side. Keys sort by `(lo, hi, kind)`, the order the
/// CSR fill depends on, and a pair's repeats and contradictions sort
/// next to each other.
pub(crate) fn edge_key(a: AsId, b: AsId, rel: Relationship) -> u64 {
    let (lo, hi, kind) = match (a.0 <= b.0, rel) {
        (true, Relationship::CustomerToProvider) => (a.0, b.0, MIN_IS_CUSTOMER),
        (false, Relationship::CustomerToProvider) => (b.0, a.0, MAX_IS_CUSTOMER),
        (true, Relationship::PeerToPeer) => (a.0, b.0, PEER),
        (false, Relationship::PeerToPeer) => (b.0, a.0, PEER),
    };
    (u64::from(lo) << 33) | (u64::from(hi) << 2) | kind
}

/// The `(lo, hi)` ids of an edge key.
fn key_pair(key: u64) -> (usize, usize) {
    (
        (key >> 33) as usize,
        ((key >> 2) as u32 & (u32::MAX >> 1)) as usize,
    )
}

/// Sort edge keys, drop exact repeats, and refuse a pair declared with
/// two relationships.
pub(crate) fn sort_edge_keys(keys: &mut Vec<u64>) -> Result<(), TopologyError> {
    keys.sort_unstable();
    keys.dedup();
    // After dedup, two keys sharing a pair are necessarily contradictory
    // declarations of that pair.
    match keys.windows(2).find(|w| w[0] >> 2 == w[1] >> 2) {
        Some(w) => {
            let (lo, hi) = key_pair(w[0]);
            Err(TopologyError::ConflictingRelationship(
                AsId(lo as u32),
                AsId(hi as u32),
            ))
        }
        None => Ok(()),
    }
}

/// The CSR graph of `n` ASes from sorted, deduplicated, conflict-free
/// edge keys over ids below `n`.
pub(crate) fn fill_csr(n: usize, asn_labels: Vec<u32>, keys: &[u64]) -> AsGraph {
    // Per-class degree counts, then one prefix-sum pass for the CSR
    // segment bounds.
    let mut cust = vec![0u32; n];
    let mut peer = vec![0u32; n];
    let mut prov = vec![0u32; n];
    let mut num_c2p = 0usize;
    for &key in keys {
        let (lo, hi) = key_pair(key);
        match key & 3 {
            MIN_IS_CUSTOMER => {
                prov[lo] += 1;
                cust[hi] += 1;
                num_c2p += 1;
            }
            MAX_IS_CUSTOMER => {
                prov[hi] += 1;
                cust[lo] += 1;
                num_c2p += 1;
            }
            _ => {
                peer[lo] += 1;
                peer[hi] += 1;
            }
        }
    }
    // Each degree becomes its segment's start, the class's fill cursor.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut cust_end = Vec::with_capacity(n);
    let mut peer_end = Vec::with_capacity(n);
    let mut total = 0u32;
    for v in 0..n {
        offsets.push(total);
        let ce = total + cust[v];
        let pe = ce + peer[v];
        total = pe + prov[v];
        cust_end.push(ce);
        peer_end.push(pe);
        (cust[v], peer[v], prov[v]) = (offsets[v], ce, pe);
    }
    offsets.push(total);

    // Direct fill. Iterating the sorted keys once appends every vertex's
    // neighbors in ascending id order within each class segment: for a
    // vertex v, edges where v is the `max` member (their neighbors are
    // < v) arrive before edges where v is the `min` member (neighbors
    // > v), and each group arrives ascending — so the merged segment is
    // sorted, matching the incremental path's per-vertex `sort_unstable`
    // output exactly.
    let mut neighbors = vec![AsId(0); total as usize];
    for &key in keys {
        let (lo, hi) = key_pair(key);
        let mut put = |cur: &mut [u32], at: usize, neighbor: usize| {
            neighbors[cur[at] as usize] = AsId(neighbor as u32);
            cur[at] += 1;
        };
        match key & 3 {
            MIN_IS_CUSTOMER => {
                put(&mut prov, lo, hi);
                put(&mut cust, hi, lo);
            }
            MAX_IS_CUSTOMER => {
                put(&mut prov, hi, lo);
                put(&mut cust, lo, hi);
            }
            _ => {
                put(&mut peer, lo, hi);
                put(&mut peer, hi, lo);
            }
        }
    }

    AsGraph {
        offsets,
        cust_end,
        peer_end,
        neighbors,
        asn_labels,
        num_c2p,
        num_p2p: keys.len() - num_c2p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        let err = b.add_provider(AsId(0), AsId(5)).unwrap_err();
        assert!(matches!(err, TopologyError::IdOutOfRange { .. }));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        let err = b.add_peering(AsId(1), AsId(1)).unwrap_err();
        assert_eq!(err, TopologyError::SelfLoop(AsId(1)));
    }

    #[test]
    fn duplicate_same_relationship_is_idempotent() {
        let mut b = GraphBuilder::new(2);
        b.add_provider(AsId(0), AsId(1)).unwrap();
        b.add_provider(AsId(0), AsId(1)).unwrap();
        let g = b.build();
        assert_eq!(g.num_customer_provider_edges(), 1);
    }

    #[test]
    fn duplicate_reversed_declaration_conflicts() {
        let mut b = GraphBuilder::new(2);
        b.add_provider(AsId(0), AsId(1)).unwrap();
        let err = b.add_provider(AsId(1), AsId(0)).unwrap_err();
        assert!(matches!(err, TopologyError::ConflictingRelationship(..)));
    }

    #[test]
    fn peering_conflicts_with_transit() {
        let mut b = GraphBuilder::new(2);
        b.add_peering(AsId(0), AsId(1)).unwrap();
        let err = b.add_provider(AsId(0), AsId(1)).unwrap_err();
        assert!(matches!(err, TopologyError::ConflictingRelationship(..)));
    }

    #[test]
    fn symmetric_peering_declaration_is_idempotent() {
        let mut b = GraphBuilder::new(2);
        b.add_peering(AsId(0), AsId(1)).unwrap();
        b.add_peering(AsId(1), AsId(0)).unwrap();
        let g = b.build();
        assert_eq!(g.num_peer_edges(), 1);
        assert_eq!(g.peers(AsId(0)), &[AsId(1)]);
        assert_eq!(g.peers(AsId(1)), &[AsId(0)]);
    }

    #[test]
    fn has_edge_sees_both_orders() {
        let mut b = GraphBuilder::new(3);
        b.add_provider(AsId(2), AsId(1)).unwrap();
        assert!(b.has_edge(AsId(1), AsId(2)));
        assert!(b.has_edge(AsId(2), AsId(1)));
        assert!(!b.has_edge(AsId(0), AsId(1)));
    }

    #[test]
    fn labels_survive_build() {
        let mut b = GraphBuilder::new(2);
        b.add_peering(AsId(0), AsId(1)).unwrap();
        b.set_asn_labels(vec![3356, 174]).unwrap();
        let g = b.build();
        assert_eq!(g.asn_label(AsId(0)), 3356);
        assert_eq!(g.asn_label(AsId(1)), 174);
    }

    #[test]
    fn wrong_length_labels_are_rejected_in_the_setter() {
        let mut b = GraphBuilder::new(3);
        let err = b.set_asn_labels(vec![3356, 174]).unwrap_err();
        assert_eq!(err, TopologyError::LabelCountMismatch { labels: 2, len: 3 });
        // An empty vector clears the labels (synthetic-graph state).
        b.set_asn_labels(Vec::new()).unwrap();
        let g = b.build();
        assert_eq!(g.asn_label(AsId(2)), 2);
    }

    #[test]
    fn from_edges_matches_incremental_build() {
        let edges = [
            (AsId(3), AsId(1), Relationship::CustomerToProvider),
            (AsId(0), AsId(2), Relationship::PeerToPeer),
            (AsId(2), AsId(0), Relationship::PeerToPeer), // symmetric repeat
            (AsId(1), AsId(0), Relationship::CustomerToProvider),
            (AsId(3), AsId(1), Relationship::CustomerToProvider), // exact repeat
            (AsId(3), AsId(2), Relationship::CustomerToProvider),
        ];
        let mut b = GraphBuilder::new(4);
        b.set_asn_labels(vec![701, 3356, 174, 21740]).unwrap();
        for &(x, y, rel) in &edges {
            b.add_edge(x, y, rel).unwrap();
        }
        let g = b.build();
        let h = GraphBuilder::from_edges(4, vec![701, 3356, 174, 21740], edges).unwrap();
        for v in g.ases() {
            assert_eq!(g.customers(v), h.customers(v), "{v} customers");
            assert_eq!(g.peers(v), h.peers(v), "{v} peers");
            assert_eq!(g.providers(v), h.providers(v), "{v} providers");
            assert_eq!(g.asn_label(v), h.asn_label(v), "{v} label");
        }
        assert_eq!(
            g.num_customer_provider_edges(),
            h.num_customer_provider_edges()
        );
        assert_eq!(g.num_peer_edges(), h.num_peer_edges());
    }

    #[test]
    fn from_edges_rejects_what_the_incremental_path_rejects() {
        let conflict = [
            (AsId(0), AsId(1), Relationship::CustomerToProvider),
            (AsId(1), AsId(0), Relationship::CustomerToProvider),
        ];
        assert!(matches!(
            GraphBuilder::from_edges(2, Vec::new(), conflict),
            Err(TopologyError::ConflictingRelationship(..))
        ));
        let mixed = [
            (AsId(0), AsId(1), Relationship::PeerToPeer),
            (AsId(0), AsId(1), Relationship::CustomerToProvider),
        ];
        assert!(matches!(
            GraphBuilder::from_edges(2, Vec::new(), mixed),
            Err(TopologyError::ConflictingRelationship(..))
        ));
        assert!(matches!(
            GraphBuilder::from_edges(
                2,
                Vec::new(),
                [(AsId(0), AsId(5), Relationship::PeerToPeer)]
            ),
            Err(TopologyError::IdOutOfRange { .. })
        ));
        assert!(matches!(
            GraphBuilder::from_edges(
                2,
                Vec::new(),
                [(AsId(1), AsId(1), Relationship::PeerToPeer)]
            ),
            Err(TopologyError::SelfLoop(AsId(1)))
        ));
        assert!(matches!(
            GraphBuilder::from_edges(3, vec![1, 2], std::iter::empty()),
            Err(TopologyError::LabelCountMismatch { labels: 2, len: 3 })
        ));
    }

    #[test]
    fn edge_keys_sort_like_the_pair_and_kind_tuple() {
        // The fill relies on the order of the `(lo << 32 | hi, kind)`
        // tuple; the one-`u64` key must sort identically at both ends of
        // its id range, with every pair's repeats and contradictions side
        // by side.
        let top = AsId((MAX_KEYED_ASES - 1) as u32);
        let ids = [AsId(0), AsId(1), AsId(top.0 - 1), top];
        let mut edges = Vec::new();
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    for rel in [Relationship::CustomerToProvider, Relationship::PeerToPeer] {
                        edges.push((a, b, rel));
                        edges.push((a, b, rel)); // an exact repeat
                    }
                }
            }
        }
        let tuple = |&(a, b, rel): &(AsId, AsId, Relationship)| {
            let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
            let kind = match (a.0 <= b.0, rel) {
                (_, Relationship::PeerToPeer) => 2u8,
                (true, _) => 0,
                (false, _) => 1,
            };
            ((u64::from(lo) << 32) | u64::from(hi), kind)
        };
        let key = |&(a, b, rel): &(AsId, AsId, Relationship)| edge_key(a, b, rel);
        let mut by_tuple = edges.clone();
        by_tuple.sort_by_key(tuple);
        let mut by_key = edges.clone();
        by_key.sort_by_key(key);
        let tuples =
            |list: &[(AsId, AsId, Relationship)]| list.iter().map(tuple).collect::<Vec<_>>();
        assert_eq!(tuples(&by_key), tuples(&by_tuple));
        for w in by_key.windows(2) {
            // Distinct keys of one pair are its contradictions, and every
            // key of a pair sits in one run.
            let (k0, k1) = (key(&w[0]), key(&w[1]));
            assert_eq!(k0 >> 2 == k1 >> 2, tuple(&w[0]).0 == tuple(&w[1]).0);
        }
        for e in &edges {
            let (pair, _) = tuple(e);
            let (lo, hi) = key_pair(key(e));
            assert_eq!(
                (lo as u64, hi as u64),
                (pair >> 32, pair & u64::from(u32::MAX))
            );
        }
        // All three kinds of the top pair sort adjacently and in tag order.
        let mut top_pair: Vec<u64> = [
            (AsId(0), top, Relationship::PeerToPeer),
            (top, AsId(0), Relationship::CustomerToProvider),
            (AsId(0), top, Relationship::CustomerToProvider),
        ]
        .iter()
        .map(key)
        .collect();
        top_pair.sort_unstable();
        assert_eq!(
            top_pair.iter().map(|k| k & 3).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert!(matches!(
            sort_edge_keys(&mut top_pair),
            Err(TopologyError::ConflictingRelationship(AsId(0), t)) if t == top
        ));
    }

    #[test]
    fn from_edges_refuses_more_ases_than_a_key_holds_before_allocating() {
        // Three `n`-sized arrays of 2³¹ + 1 entries would take 24 GiB; the
        // guard must answer first, and fast.
        let start = std::time::Instant::now();
        let err = GraphBuilder::from_edges(MAX_KEYED_ASES + 1, Vec::new(), std::iter::empty())
            .unwrap_err();
        assert!(start.elapsed() < std::time::Duration::from_millis(100));
        assert_eq!(
            err,
            TopologyError::IdOutOfRange {
                id: AsId(1 << 31),
                len: MAX_KEYED_ASES + 1
            }
        );
        assert!(err.to_string().contains("past the 2147483648 ids"), "{err}");
    }
}
