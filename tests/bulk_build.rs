//! Bulk-vs-incremental graph-build equivalence.
//!
//! [`GraphBuilder::from_edges`] (collect → sort → dedup-scan → direct CSR
//! fill, the parser's hot path since the `--file` ingestion work) must be
//! **bit-identical** to the incremental per-edge HashMap path on every
//! conflict-free input: same labels, same customer/peer/provider segment
//! for every AS *in the same order* — the engines iterate adjacency
//! segments directly, so even a reordering within a segment would be an
//! observable behavior change. The as-rel parser packs the same edge keys
//! without going through `from_edges`, so its graph is held to the same
//! standard.

use proptest::prelude::*;

use bgp_juice::prelude::*;
use bgp_juice::topology::gen::{generate, InternetConfig};
use bgp_juice::topology::io::parse_relationships;
use bgp_juice::topology::{Relationship, TopologyError};

/// Assert two graphs are identical, segment order included.
fn assert_identical(a: &AsGraph, b: &AsGraph) {
    assert_eq!(a.len(), b.len());
    assert_eq!(
        a.num_customer_provider_edges(),
        b.num_customer_provider_edges()
    );
    assert_eq!(a.num_peer_edges(), b.num_peer_edges());
    for v in a.ases() {
        assert_eq!(a.asn_label(v), b.asn_label(v), "{v} label");
        assert_eq!(a.customers(v), b.customers(v), "{v} customers");
        assert_eq!(a.peers(v), b.peers(v), "{v} peers");
        assert_eq!(a.providers(v), b.providers(v), "{v} providers");
    }
}

/// A random conflict-free edge list over `n` ASes: every unordered pair
/// appears at most once, with a random relationship and orientation.
fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(AsId, AsId, Relationship)>> {
    let pairs: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|a| (a + 1..n as u32).map(move |b| (a, b)))
        .collect();
    // For each pair: absent, customer→provider, provider→customer, peer.
    proptest::collection::vec(0u8..4, pairs.len()).prop_map(move |kinds| {
        pairs
            .iter()
            .zip(kinds)
            .filter_map(|(&(a, b), kind)| match kind {
                0 => None,
                1 => Some((AsId(a), AsId(b), Relationship::CustomerToProvider)),
                2 => Some((AsId(b), AsId(a), Relationship::CustomerToProvider)),
                _ => Some((AsId(a), AsId(b), Relationship::PeerToPeer)),
            })
            .collect()
    })
}

fn incremental(
    n: usize,
    labels: &[u32],
    edges: &[(AsId, AsId, Relationship)],
) -> Result<AsGraph, TopologyError> {
    let mut b = GraphBuilder::new(n);
    b.set_asn_labels(labels.to_vec())?;
    for &(x, y, rel) in edges {
        b.add_edge(x, y, rel)?;
    }
    Ok(b.build())
}

/// The serial-1 text of `edges` under `labels`, every other line written
/// twice (a peer line reversed the second time), with the ASN labels and
/// edges the parse must give: ids renumbered in the order the text first
/// names each ASN, repeats included.
fn serial1(
    labels: &[u32],
    edges: &[(AsId, AsId, Relationship)],
) -> (String, Vec<u32>, Vec<(AsId, AsId, Relationship)>) {
    let mut text = String::new();
    let mut renumber: Vec<Option<AsId>> = vec![None; labels.len()];
    let mut parsed_labels = Vec::new();
    let mut parsed_edges = Vec::new();
    let mut id = |v: AsId| {
        *renumber[v.index()].get_or_insert_with(|| {
            parsed_labels.push(labels[v.index()]);
            AsId(parsed_labels.len() as u32 - 1)
        })
    };
    for (i, &(x, y, rel)) in edges.iter().enumerate() {
        let (lx, ly) = (labels[x.index()], labels[y.index()]);
        let (line, again, edge) = match rel {
            // `x` is the customer; serial-1 names the provider first.
            Relationship::CustomerToProvider => {
                let (p, c) = (id(y), id(x));
                let line = format!("{ly}|{lx}|-1\n");
                (line.clone(), line, (c, p, rel))
            }
            Relationship::PeerToPeer => {
                let (a, b) = (id(x), id(y));
                (
                    format!("{lx}|{ly}|0\n"),
                    format!("{ly}|{lx}|0\n"),
                    (a, b, rel),
                )
            }
        };
        text.push_str(&line);
        parsed_edges.push(edge);
        if i % 2 == 1 {
            text.push_str(&again);
            parsed_edges.push(edge);
        }
    }
    (text, parsed_labels, parsed_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parse of a document ≡ the bulk build of its edges ≡ the
    /// incremental build, bit for bit, repeated lines included.
    #[test]
    fn parse_matches_bulk_and_incremental_builds(
        (n, edges, label_base) in (2usize..24)
            .prop_flat_map(|n| (Just(n), arb_edges(n), 1u32..1_000_000))
    ) {
        let labels: Vec<u32> = (0..n as u32).map(|i| label_base + 7 * i).collect();
        let (text, labels, edges) = serial1(&labels, &edges);
        let parsed = parse_relationships(text.as_bytes()).expect("conflict-free by construction");
        let bulk = GraphBuilder::from_edges(labels.len(), labels.clone(), edges.iter().copied())
            .expect("conflict-free by construction");
        let incr = incremental(labels.len(), &labels, &edges).expect("conflict-free by construction");
        assert_identical(&parsed, &bulk);
        assert_identical(&bulk, &incr);
    }

    /// Random conflict-free edge lists: bulk ≡ incremental, bit for bit.
    #[test]
    fn bulk_build_matches_incremental_on_random_edges(
        (n, edges, label_base) in (2usize..24)
            .prop_flat_map(|n| (Just(n), arb_edges(n), 1u32..1_000_000))
    ) {
        let labels: Vec<u32> = (0..n as u32).map(|i| label_base + 7 * i).collect();
        let bulk = GraphBuilder::from_edges(n, labels.clone(), edges.iter().copied())
            .expect("conflict-free by construction");
        let incr = incremental(n, &labels, &edges).expect("conflict-free by construction");
        assert_identical(&bulk, &incr);
    }

    /// Generator-shaped graphs (the realistic degree distribution): feeding
    /// a generated graph's own edge list through both paths reproduces it.
    #[test]
    fn bulk_build_matches_incremental_on_generated_graphs(
        (asns, seed) in (150usize..400, 0u64..500)
    ) {
        let g = generate(&InternetConfig::sized(asns, seed)).graph;
        let labels: Vec<u32> = g.ases().map(|v| g.asn_label(v)).collect();
        let edges: Vec<(AsId, AsId, Relationship)> = g.edges().collect();
        let bulk = GraphBuilder::from_edges(g.len(), labels.clone(), edges.iter().copied())
            .expect("a built graph has no conflicts");
        let incr = incremental(g.len(), &labels, &edges).expect("a built graph has no conflicts");
        assert_identical(&bulk, &incr);
        assert_identical(&bulk, &g);
    }

    /// Both paths agree on rejection too: duplicating a random edge with a
    /// *different* relationship makes both builders error.
    #[test]
    fn bulk_and_incremental_reject_the_same_conflicts(
        (n, edges, pick) in (3usize..16)
            .prop_flat_map(|n| (Just(n), arb_edges(n), any::<u32>()))
    ) {
        if edges.is_empty() {
            return Ok(()); // nothing to conflict with; vacuously fine
        }
        let &(x, y, rel) = &edges[pick as usize % edges.len()];
        let conflict = match rel {
            Relationship::CustomerToProvider => (x, y, Relationship::PeerToPeer),
            Relationship::PeerToPeer => (x, y, Relationship::CustomerToProvider),
        };
        let mut with_conflict = edges.clone();
        with_conflict.push(conflict);
        let labels: Vec<u32> = (0..n as u32).collect();
        assert!(matches!(
            GraphBuilder::from_edges(n, labels.clone(), with_conflict.iter().copied()),
            Err(TopologyError::ConflictingRelationship { .. })
        ));
        assert!(matches!(
            incremental(n, &labels, &with_conflict),
            Err(TopologyError::ConflictingRelationship { .. })
        ));
    }
}
