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
    /// Edges are collected, normalized into packed `(min, max)` keys,
    /// sorted with one unstable integer sort, deduplicated and
    /// conflict-checked in a single linear scan, and written straight into
    /// the CSR arrays (the sort order makes every per-AS segment come out
    /// sorted without per-vertex sorting passes). Validation matches the
    /// incremental path exactly: out-of-range ids, self-loops, and
    /// contradictory duplicate declarations are rejected; exact repeats
    /// are deduplicated. `asn_labels` must be empty or exactly `n` long.
    pub fn from_edges<I>(n: usize, asn_labels: Vec<u32>, edges: I) -> Result<AsGraph, TopologyError>
    where
        I: IntoIterator<Item = (AsId, AsId, Relationship)>,
    {
        if !asn_labels.is_empty() && asn_labels.len() != n {
            return Err(TopologyError::LabelCountMismatch {
                labels: asn_labels.len(),
                len: n,
            });
        }
        // Kind tags ordered so contradictory declarations of one pair sort
        // adjacently right after the pair's exact repeats.
        const MIN_IS_CUSTOMER: u8 = 0;
        const MAX_IS_CUSTOMER: u8 = 1;
        const PEER: u8 = 2;

        let edges = edges.into_iter();
        let mut packed: Vec<(u64, u8)> = Vec::with_capacity(edges.size_hint().0);
        for (a, b, rel) in edges {
            for id in [a, b] {
                if id.index() >= n {
                    return Err(TopologyError::IdOutOfRange { id, len: n });
                }
            }
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            let (lo, hi, kind) = match (a.0 <= b.0, rel) {
                (true, Relationship::CustomerToProvider) => (a.0, b.0, MIN_IS_CUSTOMER),
                (false, Relationship::CustomerToProvider) => (b.0, a.0, MAX_IS_CUSTOMER),
                (true, Relationship::PeerToPeer) => (a.0, b.0, PEER),
                (false, Relationship::PeerToPeer) => (b.0, a.0, PEER),
            };
            packed.push((((lo as u64) << 32) | hi as u64, kind));
        }
        packed.sort_unstable();
        packed.dedup();
        // After dedup, two entries sharing a pair key are necessarily
        // contradictory declarations of that pair.
        for w in packed.windows(2) {
            if w[0].0 == w[1].0 {
                let (lo, hi) = (AsId((w[0].0 >> 32) as u32), AsId(w[0].0 as u32));
                return Err(TopologyError::ConflictingRelationship(lo, hi));
            }
        }

        // Per-class degree counts, then one prefix-sum pass for the CSR
        // segment bounds.
        let mut cust_deg = vec![0u32; n];
        let mut peer_deg = vec![0u32; n];
        let mut prov_deg = vec![0u32; n];
        let mut num_c2p = 0usize;
        let mut num_p2p = 0usize;
        for &(key, kind) in &packed {
            let (lo, hi) = ((key >> 32) as usize, key as u32 as usize);
            match kind {
                MIN_IS_CUSTOMER => {
                    prov_deg[lo] += 1;
                    cust_deg[hi] += 1;
                    num_c2p += 1;
                }
                MAX_IS_CUSTOMER => {
                    prov_deg[hi] += 1;
                    cust_deg[lo] += 1;
                    num_c2p += 1;
                }
                _ => {
                    peer_deg[lo] += 1;
                    peer_deg[hi] += 1;
                    num_p2p += 1;
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cust_end = Vec::with_capacity(n);
        let mut peer_end = Vec::with_capacity(n);
        let mut total = 0u32;
        for v in 0..n {
            offsets.push(total);
            let ce = total + cust_deg[v];
            let pe = ce + peer_deg[v];
            total = pe + prov_deg[v];
            cust_end.push(ce);
            peer_end.push(pe);
        }
        offsets.push(total);

        // Direct fill. Iterating the sorted edge list once appends every
        // vertex's neighbors in ascending id order within each class
        // segment: for a vertex v, edges where v is the `max` member (their
        // neighbors are < v) arrive before edges where v is the `min`
        // member (neighbors > v), and each group arrives ascending — so the
        // merged segment is sorted, matching the incremental path's
        // per-vertex `sort_unstable` output exactly.
        let mut cust_cur: Vec<u32> = offsets[..n].to_vec();
        let mut peer_cur = cust_end.clone();
        let mut prov_cur = peer_end.clone();
        let mut neighbors = vec![AsId(0); total as usize];
        for &(key, kind) in &packed {
            let (lo, hi) = ((key >> 32) as usize, key as u32 as usize);
            let mut put = |cur: &mut [u32], at: usize, neighbor: usize| {
                neighbors[cur[at] as usize] = AsId(neighbor as u32);
                cur[at] += 1;
            };
            match kind {
                MIN_IS_CUSTOMER => {
                    put(&mut prov_cur, lo, hi);
                    put(&mut cust_cur, hi, lo);
                }
                MAX_IS_CUSTOMER => {
                    put(&mut prov_cur, hi, lo);
                    put(&mut cust_cur, lo, hi);
                }
                _ => {
                    put(&mut peer_cur, lo, hi);
                    put(&mut peer_cur, hi, lo);
                }
            }
        }

        Ok(AsGraph {
            offsets,
            cust_end,
            peer_end,
            neighbors,
            asn_labels,
            num_c2p,
            num_p2p,
        })
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
}
