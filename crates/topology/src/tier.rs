//! The paper's Table 1 tier taxonomy.
//!
//! | Tier | Definition (Table 1) |
//! |------|----------------------|
//! | Tier 1 | 13 ASes with high customer degree & no providers |
//! | Tier 2 | 100 top ASes by customer degree & with providers |
//! | Tier 3 | Next 100 ASes by customer degree & with providers |
//! | CPs | 17 content-provider ASes (explicit list) |
//! | Small CPs | Top 300 ASes by peering degree (other than T1/T2/T3/CP) |
//! | Stubs-x | ASes with peers but no customers |
//! | Stubs | ASes with no customers & no peers |
//! | SMDG | Remaining non-stub ASes |
//!
//! Precedence follows the table's row order: an AS qualifying for several
//! rows is assigned the first one. In particular a customer-less AS with a
//! very high peering degree is a *Small CP*, not a stub-x.

use crate::{AsGraph, AsId, AsSet, TopologyError};

/// Tier of an AS per the paper's Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Large transit-free ISPs.
    Tier1,
    /// Top-100 customer-degree ASes with providers.
    Tier2,
    /// Next-100 customer-degree ASes with providers.
    Tier3,
    /// The 17 content providers (Google, Akamai, ... in the paper).
    Cp,
    /// Top-300 remaining ASes by peering degree.
    SmallCp,
    /// Mid-graph ASes: non-stubs not in any class above.
    Smdg,
    /// Customer-less ASes that do have peers.
    StubX,
    /// Customer-less, peer-less edge ASes.
    Stub,
}

/// All tiers in the order used by the paper's per-tier figures
/// (STUB, STUB-X, SMDG, SMCP, CP, T3, T2, T1).
pub const FIGURE_TIER_ORDER: [Tier; 8] = [
    Tier::Stub,
    Tier::StubX,
    Tier::Smdg,
    Tier::SmallCp,
    Tier::Cp,
    Tier::Tier3,
    Tier::Tier2,
    Tier::Tier1,
];

impl Tier {
    /// Short label used in reports (matches the paper's axis labels).
    pub fn label(self) -> &'static str {
        match self {
            Tier::Tier1 => "T1",
            Tier::Tier2 => "T2",
            Tier::Tier3 => "T3",
            Tier::Cp => "CP",
            Tier::SmallCp => "SMCP",
            Tier::Smdg => "SMDG",
            Tier::StubX => "STUB-X",
            Tier::Stub => "STUB",
        }
    }

    /// True for the two stub classes (no customers).
    pub fn is_stub(self) -> bool {
        matches!(self, Tier::Stub | Tier::StubX)
    }
}

/// Parameters of the classification; defaults mirror Table 1.
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// Number of Tier-1 ASes to select.
    pub tier1_count: usize,
    /// Number of Tier-2 ASes.
    pub tier2_count: usize,
    /// Number of Tier-3 ASes.
    pub tier3_count: usize,
    /// Number of small content providers.
    pub small_cp_count: usize,
    /// Explicit content-provider ids (the paper's 17 CP list).
    pub content_providers: Vec<AsId>,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            tier1_count: 13,
            tier2_count: 100,
            tier3_count: 100,
            small_cp_count: 300,
            content_providers: Vec::new(),
        }
    }
}

impl TierConfig {
    /// Table 1 defaults with the content-provider list given as
    /// *real-world ASNs* (the paper's explicit 17-CP list), resolved into
    /// dense ids through `graph`'s [`AsGraph::asn_label`]s.
    ///
    /// This is the entry point for parsed snapshots, where ids are
    /// first-appearance interning order and mean nothing outside the
    /// graph. An ASN no AS carries is a hard [`TopologyError::UnknownAsn`]
    /// — a CP list that silently shrank would skew every per-CP figure.
    /// Works on synthetic graphs too, where each AS is labeled by its own
    /// id.
    pub fn with_content_provider_asns(
        graph: &AsGraph,
        cp_asns: &[u32],
    ) -> Result<TierConfig, TopologyError> {
        // One scan of the labels against the sorted, deduplicated CP list
        // finds the AS of every listed ASN.
        let mut wanted = cp_asns.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let mut found: Vec<Option<AsId>> = vec![None; wanted.len()];
        for v in graph.ases() {
            if let Ok(k) = wanted.binary_search(&graph.asn_label(v)) {
                found[k] = Some(v);
            }
        }
        let mut content_providers = Vec::with_capacity(wanted.len());
        for &asn in cp_asns {
            let k = wanted
                .binary_search(&asn)
                .expect("every listed ASN is wanted");
            match found[k] {
                // A repeated ASN is kept once (first occurrence) — a
                // doubled id would count that CP twice in every per-CP
                // average. The CLI rejects duplicates up front; this
                // guards every other caller.
                Some(v) if !content_providers.contains(&v) => content_providers.push(v),
                Some(_) => {}
                None => return Err(TopologyError::UnknownAsn(asn)),
            }
        }
        Ok(TierConfig {
            content_providers,
            ..TierConfig::default()
        })
    }
}

/// The computed tier of every AS, plus per-tier member lists.
#[derive(Clone, Debug)]
pub struct TierMap {
    tiers: Vec<Tier>,
    /// Tier-1 ids, sorted by descending customer degree.
    tier1: Vec<AsId>,
    /// Tier-2 ids, sorted by descending customer degree.
    tier2: Vec<AsId>,
    /// Tier-3 ids, sorted by descending customer degree.
    tier3: Vec<AsId>,
    /// Content-provider ids.
    cps: Vec<AsId>,
}

impl TierMap {
    /// Classify every AS of `graph` per Table 1.
    pub fn classify(graph: &AsGraph, config: &TierConfig) -> TierMap {
        let n = graph.len();
        let mut tiers = vec![Tier::Smdg; n];
        let mut assigned = AsSet::new(n);

        // Tier 1: provider-free ASes, by descending customer degree.
        let mut t1_candidates: Vec<AsId> = graph
            .ases()
            .filter(|&v| graph.provider_degree(v) == 0 && graph.customer_degree(v) > 0)
            .collect();
        t1_candidates.sort_by_key(|&v| (std::cmp::Reverse(graph.customer_degree(v)), v));
        t1_candidates.truncate(config.tier1_count);
        for &v in &t1_candidates {
            tiers[v.index()] = Tier::Tier1;
            assigned.insert(v);
        }

        // Tier 2 and 3: top ASes by customer degree *with* providers.
        let mut with_providers: Vec<AsId> = graph
            .ases()
            .filter(|&v| {
                graph.provider_degree(v) > 0
                    && graph.customer_degree(v) > 0
                    && !assigned.contains(v)
            })
            .collect();
        with_providers.sort_by_key(|&v| (std::cmp::Reverse(graph.customer_degree(v)), v));
        let tier2: Vec<AsId> = with_providers
            .iter()
            .copied()
            .take(config.tier2_count)
            .collect();
        let tier3: Vec<AsId> = with_providers
            .iter()
            .copied()
            .skip(config.tier2_count)
            .take(config.tier3_count)
            .collect();
        for &v in &tier2 {
            tiers[v.index()] = Tier::Tier2;
            assigned.insert(v);
        }
        for &v in &tier3 {
            tiers[v.index()] = Tier::Tier3;
            assigned.insert(v);
        }

        // Content providers: explicit list (skip any already classified
        // higher, as the paper's CPs are below the large transit tiers).
        let mut cps = Vec::new();
        for &v in &config.content_providers {
            if v.index() < n && !assigned.contains(v) {
                tiers[v.index()] = Tier::Cp;
                assigned.insert(v);
                cps.push(v);
            }
        }

        // Small CPs: top remaining ASes by peering degree.
        let mut by_peering: Vec<AsId> = graph
            .ases()
            .filter(|&v| !assigned.contains(v) && graph.peer_degree(v) > 0)
            .collect();
        by_peering.sort_by_key(|&v| (std::cmp::Reverse(graph.peer_degree(v)), v));
        for &v in by_peering.iter().take(config.small_cp_count) {
            tiers[v.index()] = Tier::SmallCp;
            assigned.insert(v);
        }

        // Stubs, stubs-x, SMDG for the rest.
        for v in graph.ases() {
            if assigned.contains(v) {
                continue;
            }
            tiers[v.index()] = if graph.customer_degree(v) > 0 {
                Tier::Smdg
            } else if graph.peer_degree(v) > 0 {
                Tier::StubX
            } else {
                Tier::Stub
            };
        }

        TierMap {
            tiers,
            tier1: t1_candidates,
            tier2,
            tier3,
            cps,
        }
    }

    /// Tier of a single AS.
    #[inline]
    pub fn tier(&self, v: AsId) -> Tier {
        self.tiers[v.index()]
    }

    /// Tier-1 ASes, sorted by descending customer degree.
    pub fn tier1(&self) -> &[AsId] {
        &self.tier1
    }

    /// Tier-2 ASes, sorted by descending customer degree.
    pub fn tier2(&self) -> &[AsId] {
        &self.tier2
    }

    /// Tier-3 ASes, sorted by descending customer degree.
    pub fn tier3(&self) -> &[AsId] {
        &self.tier3
    }

    /// Content-provider ASes.
    pub fn content_providers(&self) -> &[AsId] {
        &self.cps
    }

    /// All members of a tier, in id order.
    pub fn members(&self, tier: Tier) -> Vec<AsId> {
        self.tiers
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == tier)
            .map(|(i, _)| AsId(i as u32))
            .collect()
    }

    /// Number of ASes in a tier.
    pub fn count(&self, tier: Tier) -> usize {
        self.tiers.iter().filter(|&&t| t == tier).count()
    }

    /// True when `v` is a stub of either kind — equivalently, when `v` is
    /// excluded from the paper's non-stub attacker set `M'`.
    pub fn is_stub(&self, v: AsId) -> bool {
        self.tier(v).is_stub()
    }

    /// The paper's non-stub attacker population `M'` (every AS that is not a
    /// stub or stub-x), in id order.
    pub fn non_stubs(&self) -> Vec<AsId> {
        self.tiers
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_stub())
            .map(|(i, _)| AsId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Small topology exercising every tier class.
    ///
    /// 0,1: provider-free cores (T1). 2: big ISP with providers (T2).
    /// 3: smaller ISP (T3, given counts of 1 each). 4: CP (explicit).
    /// 5: high-peering customer-less AS (small CP). 6: SMDG transit.
    /// 7: stub-x. 8,9,10,11: stubs.
    fn sample() -> (AsGraph, TierMap) {
        let mut b = GraphBuilder::new(12);
        b.add_peering(AsId(0), AsId(1)).unwrap();
        // 2 buys from 0 and 1 and has many customers.
        b.add_provider(AsId(2), AsId(0)).unwrap();
        b.add_provider(AsId(2), AsId(1)).unwrap();
        // 3 buys from 2, has one customer.
        b.add_provider(AsId(3), AsId(2)).unwrap();
        // 4: content provider, customer of 0, peers with 2.
        b.add_provider(AsId(4), AsId(0)).unwrap();
        b.add_peering(AsId(4), AsId(2)).unwrap();
        // 5: customer-less with two peers.
        b.add_provider(AsId(5), AsId(1)).unwrap();
        b.add_peering(AsId(5), AsId(4)).unwrap();
        b.add_peering(AsId(5), AsId(3)).unwrap();
        // 6: transit AS under 3.
        b.add_provider(AsId(6), AsId(3)).unwrap();
        // 7: stub-x (peer, no customers).
        b.add_provider(AsId(7), AsId(2)).unwrap();
        b.add_peering(AsId(7), AsId(6)).unwrap();
        // stubs under 2 and 6.
        for s in 8..12 {
            b.add_provider(AsId(s), AsId(2)).unwrap();
        }
        b.add_provider(AsId(8), AsId(6)).unwrap();
        let g = b.build();
        let cfg = TierConfig {
            tier1_count: 2,
            tier2_count: 1,
            tier3_count: 1,
            small_cp_count: 1,
            content_providers: vec![AsId(4)],
        };
        let tm = TierMap::classify(&g, &cfg);
        (g, tm)
    }

    #[test]
    fn classification_matches_table1() {
        let (_, tm) = sample();
        assert_eq!(tm.tier(AsId(0)), Tier::Tier1);
        assert_eq!(tm.tier(AsId(1)), Tier::Tier1);
        assert_eq!(tm.tier(AsId(2)), Tier::Tier2);
        assert_eq!(tm.tier(AsId(3)), Tier::Tier3);
        assert_eq!(tm.tier(AsId(4)), Tier::Cp);
        assert_eq!(tm.tier(AsId(5)), Tier::SmallCp);
        assert_eq!(tm.tier(AsId(6)), Tier::Smdg);
        assert_eq!(tm.tier(AsId(7)), Tier::StubX);
        for s in 8..12 {
            assert_eq!(tm.tier(AsId(s)), Tier::Stub, "AS{s}");
        }
    }

    #[test]
    fn member_lists_are_consistent() {
        let (_, tm) = sample();
        assert_eq!(tm.tier1(), &[AsId(0), AsId(1)]);
        assert_eq!(tm.tier2(), &[AsId(2)]);
        assert_eq!(tm.tier3(), &[AsId(3)]);
        assert_eq!(tm.content_providers(), &[AsId(4)]);
        assert_eq!(tm.count(Tier::Stub), 4);
        assert_eq!(tm.members(Tier::StubX), vec![AsId(7)]);
    }

    #[test]
    fn non_stub_attacker_population() {
        let (_, tm) = sample();
        let m: Vec<AsId> = tm.non_stubs();
        // Everything except 7..=11 (note: 5 is a SmallCp even though it has
        // no customers — Table 1 row precedence).
        assert_eq!(
            m,
            vec![
                AsId(0),
                AsId(1),
                AsId(2),
                AsId(3),
                AsId(4),
                AsId(5),
                AsId(6)
            ]
        );
    }

    #[test]
    fn tier1_requires_no_providers() {
        let (g, tm) = sample();
        for &t1 in tm.tier1() {
            assert_eq!(g.provider_degree(t1), 0);
        }
    }

    #[test]
    fn content_provider_asns_resolve_through_labels() {
        let mut b = GraphBuilder::new(3);
        b.add_provider(AsId(1), AsId(0)).unwrap();
        b.add_provider(AsId(2), AsId(0)).unwrap();
        b.set_asn_labels(vec![3356, 15169, 20940]).unwrap();
        let g = b.build();
        let cfg = TierConfig::with_content_provider_asns(&g, &[20940, 15169]).unwrap();
        assert_eq!(cfg.content_providers, vec![AsId(2), AsId(1)]);
        assert_eq!(cfg.tier1_count, TierConfig::default().tier1_count);
        assert!(matches!(
            TierConfig::with_content_provider_asns(&g, &[64512]),
            Err(TopologyError::UnknownAsn(64512))
        ));
        // A repeated ASN resolves to one CP, first occurrence kept.
        let cfg = TierConfig::with_content_provider_asns(&g, &[20940, 15169, 20940]).unwrap();
        assert_eq!(cfg.content_providers, vec![AsId(2), AsId(1)]);
        // Synthetic graphs label each AS by its own id.
        let mut b = GraphBuilder::new(2);
        b.add_peering(AsId(0), AsId(1)).unwrap();
        let g = b.build();
        let cfg = TierConfig::with_content_provider_asns(&g, &[1]).unwrap();
        assert_eq!(cfg.content_providers, vec![AsId(1)]);
    }

    #[test]
    fn content_provider_asns_keep_first_occurrences_and_name_the_first_missing() {
        let mut b = GraphBuilder::new(4);
        for v in 1..4 {
            b.add_provider(AsId(v), AsId(0)).unwrap();
        }
        b.set_asn_labels(vec![3356, 15169, 20940, 8075]).unwrap();
        let g = b.build();
        // Repeats are dropped in place: each CP keeps its first position.
        let cfg =
            TierConfig::with_content_provider_asns(&g, &[8075, 15169, 8075, 20940, 15169]).unwrap();
        assert_eq!(cfg.content_providers, vec![AsId(3), AsId(1), AsId(2)]);
        // The error names the first missing ASN in list order, not the
        // smallest one.
        for (cps, missing) in [
            (&[15169, 64513, 64512][..], 64513),
            (&[64512, 15169, 64513][..], 64512),
            (&[15169, 20940, 64513, 64512, 64513][..], 64513),
        ] {
            assert_eq!(
                TierConfig::with_content_provider_asns(&g, cps).unwrap_err(),
                TopologyError::UnknownAsn(missing),
                "{cps:?}"
            );
        }
    }

    #[test]
    fn figure_order_covers_all_tiers() {
        let mut v = FIGURE_TIER_ORDER.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 8);
    }
}
