//! Tiered preferential-attachment Internet generator.
//!
//! Ids are assigned so that every provider has a smaller id than its
//! customers' stubs — concretely, transit ASes are created top-down and
//! each AS only buys transit from ASes created before it. This guarantees an
//! acyclic provider hierarchy (a Gao–Rexford prerequisite) by construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tier::TierConfig;
use crate::{AsGraph, AsId, GraphBuilder};

/// Configuration for [`generate`].
///
/// Defaults are calibrated so that, at any size, the generated graph keeps
/// the UCLA-2012 shape the paper relies on: 13 transit-free Tier 1s in a
/// peering clique, ~100 large Tier 2s, 17 content providers with rich
/// peering, ~85 % stubs, and a customer→provider : peer–peer edge ratio
/// near the snapshot's 73 442 : 62 129 ≈ 1.18.
#[derive(Clone, Debug)]
pub struct InternetConfig {
    /// Total number of ASes.
    pub total_ases: usize,
    /// Number of transit-free Tier-1 ASes (paper: 13), fully peer-meshed.
    pub tier1_count: usize,
    /// Number of large transit ISPs attached directly below the Tier 1s
    /// (paper's Tier 2 population: 100).
    pub tier2_count: usize,
    /// Number of content-provider ASes (paper: 17).
    pub cp_count: usize,
    /// Fraction of all ASes that are stubs (no customers; paper: ~0.85).
    pub stub_fraction: f64,
    /// Fraction of stubs that get peering links ("stubs-x").
    pub stub_x_fraction: f64,
    /// Mean providers per stub (multihoming level).
    pub mean_stub_providers: f64,
    /// Mean providers per mid-tier transit AS.
    pub mean_mid_providers: f64,
    /// Mean peer links initiated per mid-tier transit AS.
    pub mid_peer_mean: f64,
    /// Mean peer links initiated per Tier-2 AS.
    pub tier2_peer_mean: f64,
    /// Mean peer links per content provider (CPs peer aggressively).
    pub cp_peer_mean: f64,
    /// Mean peer links per stub-x.
    pub stub_x_peer_mean: f64,
    /// Probability that a mid-tier transit AS buys directly from a Tier 1
    /// (instead of from the Tier-2/mid layer). Kept small: the real
    /// Internet's hierarchy is several levels deep, which is what makes
    /// the paper's Tier-1 phenomena (§4.6–4.7) appear.
    pub mid_t1_bias: f64,
    /// Probability that a stub buys directly from a Tier 1.
    pub stub_t1_bias: f64,
    /// RNG seed; equal configs generate identical graphs.
    pub seed: u64,
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig {
            total_ases: 8_000,
            tier1_count: 13,
            tier2_count: 100,
            cp_count: 17,
            stub_fraction: 0.85,
            stub_x_fraction: 0.16,
            mean_stub_providers: 1.8,
            mean_mid_providers: 2.2,
            mid_peer_mean: 8.0,
            tier2_peer_mean: 14.0,
            cp_peer_mean: 25.0,
            stub_x_peer_mean: 1.8,
            mid_t1_bias: 0.10,
            stub_t1_bias: 0.06,
            seed: 20130812, // SIGCOMM'13 started August 12, 2013.
        }
    }
}

impl InternetConfig {
    /// A convenience constructor: default shape at a given size and seed.
    pub fn sized(total_ases: usize, seed: u64) -> Self {
        InternetConfig {
            total_ases,
            seed,
            ..InternetConfig::default()
        }
    }

    /// The fewest total ASes [`generate`] accepts under this shape: the
    /// fixed Tier-1, Tier-2 and CP populations plus ten transit ASes.
    pub fn min_total_ases(&self) -> usize {
        self.tier1_count + self.tier2_count + self.cp_count + 10
    }
}

/// Output of [`generate`]: the graph plus the structural roles the
/// generator chose, ready to seed tier classification.
#[derive(Clone, Debug)]
pub struct GeneratedInternet {
    /// The topology.
    pub graph: AsGraph,
    /// Ids of the generated Tier-1 clique.
    pub tier1: Vec<AsId>,
    /// Ids of the generated content providers.
    pub content_providers: Vec<AsId>,
    /// The configuration the graph was generated from.
    pub config: InternetConfig,
}

impl GeneratedInternet {
    /// Tier-classification parameters matching this generated graph
    /// (Table 1 counts, with the generator's CP list plugged in).
    pub fn tier_config(&self) -> TierConfig {
        TierConfig {
            tier1_count: self.config.tier1_count,
            content_providers: self.content_providers.clone(),
            ..TierConfig::default()
        }
    }
}

/// Draw a count with the given mean: `floor(mean)` plus one with
/// probability `frac(mean)`, never below `min`.
fn draw_count(rng: &mut StdRng, mean: f64, min: usize) -> usize {
    let base = mean.floor() as usize;
    let extra = usize::from(rng.random_bool(mean.fract().clamp(0.0, 1.0)));
    (base + extra).max(min)
}

/// Degree-weighted provider sampler.
///
/// `pool` holds one entry per transit AS plus one entry per customer it has
/// acquired, so uniform sampling from the pool is preferential attachment
/// ("rich get richer"), which yields the heavy-tailed customer-degree
/// distribution the paper's tier taxonomy presumes.
struct AttachmentPool {
    pool: Vec<AsId>,
}

impl AttachmentPool {
    fn new() -> Self {
        AttachmentPool { pool: Vec::new() }
    }

    fn add_transit(&mut self, v: AsId) {
        // A single seed entry keeps the rich-get-richer dynamic sharp,
        // matching the heavy-tailed customer degrees of real AS graphs.
        self.pool.push(v);
    }

    fn record_customer(&mut self, provider: AsId) {
        self.pool.push(provider);
    }

    fn sample(&self, rng: &mut StdRng) -> AsId {
        self.pool[rng.random_range(0..self.pool.len())]
    }
}

/// Generate a synthetic Internet per `config`.
///
/// # Panics
///
/// Panics when the configuration is degenerate (fewer total ASes than the
/// fixed tiers require, or fractions outside `[0, 1]`).
pub fn generate(config: &InternetConfig) -> GeneratedInternet {
    let c = config;
    assert!(
        c.total_ases >= c.min_total_ases(),
        "total_ases too small for the configured tier counts"
    );
    assert!((0.0..=1.0).contains(&c.stub_fraction), "stub_fraction");
    assert!((0.0..=1.0).contains(&c.stub_x_fraction), "stub_x_fraction");

    let mut rng = StdRng::seed_from_u64(c.seed);
    let n = c.total_ases;
    let fixed = c.tier1_count + c.tier2_count + c.cp_count;
    // Keep a minimum mid-tier layer even at small sizes, otherwise the
    // configured stub fraction would leave no transit hierarchy at all.
    let min_mid = (n / 50).max(10);
    let stub_count = (((n as f64) * c.stub_fraction) as usize).min(n - fixed - min_mid);
    let mid_count = n - fixed - stub_count;

    // Id layout (creation order; providers always have smaller ids):
    //   [0, t1) tier-1 | [t1, t1+t2) tier-2 | mids | CPs | stubs.
    let t1_end = c.tier1_count;
    let t2_end = t1_end + c.tier2_count;
    let mid_end = t2_end + mid_count;
    let cp_end = mid_end + c.cp_count;

    let mut b = GraphBuilder::new(n);
    // The attachment pool holds only the Tier-2/mid transit layer. Tier 1s
    // are reached through the `*_t1_bias` probabilities instead: in the
    // real Internet most ASes buy transit from regional ISPs, which is what
    // gives the hierarchy its depth (and the paper its Tier-1 results).
    let mut pool = AttachmentPool::new();
    // Transit ASes eligible as peer partners (everything but T1s/stubs/CPs).
    let mut peerable: Vec<AsId> = Vec::new();

    // --- Tier 1 clique -----------------------------------------------------
    for i in 0..t1_end {
        let v = AsId(i as u32);
        for j in 0..i {
            b.add_peering(v, AsId(j as u32)).expect("t1 mesh");
        }
    }

    // --- Tier 2 ------------------------------------------------------------
    for i in t1_end..t2_end {
        let v = AsId(i as u32);
        let nprov = draw_count(&mut rng, 1.9, 1).min(c.tier1_count);
        let mut chosen = 0usize;
        let mut guard = 0usize;
        while chosen < nprov && guard < 64 {
            guard += 1;
            let p = AsId(rng.random_range(0..t1_end as u32));
            if !b.has_edge(v, p) {
                b.add_provider(v, p).expect("t2 provider");
                chosen += 1;
            }
        }
        let npeer = draw_count(&mut rng, c.tier2_peer_mean, 0);
        attach_peers(&mut b, &mut rng, v, npeer, &peerable);
        pool.add_transit(v);
        peerable.push(v);
    }

    // --- Mid-tier transit --------------------------------------------------
    for i in t2_end..mid_end {
        let v = AsId(i as u32);
        let nprov = draw_count(&mut rng, c.mean_mid_providers, 1);
        attach_providers(&mut b, &mut rng, &mut pool, v, nprov, c.mid_t1_bias, t1_end);
        let npeer = draw_count(&mut rng, c.mid_peer_mean, 0);
        attach_peers(&mut b, &mut rng, v, npeer, &peerable);
        pool.add_transit(v);
        peerable.push(v);
    }

    // --- Content providers ---------------------------------------------
    let mut content_providers = Vec::with_capacity(c.cp_count);
    for i in mid_end..cp_end {
        let v = AsId(i as u32);
        content_providers.push(v);
        // Every real hypergiant buys Tier-1 transit; guarantee one T1
        // provider, then add further providers from the general pool.
        let t1 = AsId(rng.random_range(0..t1_end as u32));
        b.add_provider(v, t1).expect("cp t1 provider");
        let nprov = draw_count(&mut rng, 1.6, 1);
        attach_providers(&mut b, &mut rng, &mut pool, v, nprov, 0.15, t1_end);
        let npeer = draw_count(&mut rng, c.cp_peer_mean, 3);
        attach_peers(&mut b, &mut rng, v, npeer, &peerable);
        // CPs are not transit providers: not added to the pool.
    }

    // --- Stubs ---------------------------------------------------------
    let stub_x_target = ((stub_count as f64) * c.stub_x_fraction) as usize;
    for i in cp_end..n {
        let v = AsId(i as u32);
        let nprov = draw_count(&mut rng, c.mean_stub_providers, 1);
        attach_providers(
            &mut b,
            &mut rng,
            &mut pool,
            v,
            nprov,
            c.stub_t1_bias,
            t1_end,
        );
        if i - cp_end < stub_x_target {
            let npeer = draw_count(&mut rng, c.stub_x_peer_mean, 1);
            // Stubs-x peer with transit ASes or with other already-built
            // stubs-x; use the peerable list plus earlier stub-x ids.
            let mut partners = peerable.clone();
            partners.extend(((cp_end as u32)..(i as u32)).map(AsId));
            attach_peers(&mut b, &mut rng, v, npeer, &partners);
        }
    }

    GeneratedInternet {
        graph: b.build(),
        tier1: (0..t1_end as u32).map(AsId).collect(),
        content_providers,
        config: config.clone(),
    }
}

/// Attach `count` distinct providers: each draw picks a Tier 1 uniformly
/// with probability `t1_bias`, otherwise a transit AS preferentially from
/// `pool`.
fn attach_providers(
    b: &mut GraphBuilder,
    rng: &mut StdRng,
    pool: &mut AttachmentPool,
    v: AsId,
    count: usize,
    t1_bias: f64,
    t1_count: usize,
) {
    let mut chosen = 0usize;
    let mut guard = 0usize;
    while chosen < count && guard < 20 * (count + 1) {
        guard += 1;
        let p = if rng.random_bool(t1_bias.clamp(0.0, 1.0)) {
            AsId(rng.random_range(0..t1_count as u32))
        } else {
            pool.sample(rng)
        };
        if p != v && !b.has_edge(v, p) {
            b.add_provider(v, p).expect("provider edge");
            if p.index() >= t1_count {
                pool.record_customer(p);
            }
            chosen += 1;
        }
    }
}

/// Attach up to `count` peering links from `v` to members of `partners`.
fn attach_peers(b: &mut GraphBuilder, rng: &mut StdRng, v: AsId, count: usize, partners: &[AsId]) {
    if partners.is_empty() {
        return;
    }
    let mut chosen = 0usize;
    let mut guard = 0usize;
    while chosen < count && guard < 20 * (count + 1) {
        guard += 1;
        let p = partners[rng.random_range(0..partners.len())];
        if p != v && !b.has_edge(v, p) {
            b.add_peering(v, p).expect("peer edge");
            chosen += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::{Tier, TierMap};

    fn small() -> GeneratedInternet {
        generate(&InternetConfig::sized(2_000, 7))
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate(&InternetConfig::sized(1_000, 42));
        let b = generate(&InternetConfig::sized(1_000, 42));
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        for v in a.graph.ases() {
            assert_eq!(a.graph.neighbors(v), b.graph.neighbors(v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&InternetConfig::sized(1_000, 1));
        let b = generate(&InternetConfig::sized(1_000, 2));
        let same = a
            .graph
            .ases()
            .all(|v| a.graph.neighbors(v) == b.graph.neighbors(v));
        assert!(!same);
    }

    #[test]
    fn structural_invariants() {
        let g = small().graph;
        assert!(g.provider_hierarchy_is_acyclic());
        assert!(g.is_connected());
        // Everyone but the tier-1 clique has a provider.
        for v in g.ases() {
            if v.index() >= 13 {
                assert!(g.provider_degree(v) >= 1, "{v} has no provider");
            } else {
                assert_eq!(g.provider_degree(v), 0, "{v} is tier-1");
            }
        }
    }

    #[test]
    fn shape_matches_paper_statistics() {
        let gen = small();
        let g = &gen.graph;
        let stubs = g
            .ases()
            .filter(|&v| g.customer_degree(v) == 0 && g.peer_degree(v) == 0)
            .count();
        let stub_x = g
            .ases()
            .filter(|&v| g.customer_degree(v) == 0 && g.peer_degree(v) > 0)
            .count();
        let stub_share = (stubs + stub_x) as f64 / g.len() as f64;
        // CPs and a few mids are customer-less too, so allow slack above 85%.
        assert!(
            (0.80..=0.92).contains(&stub_share),
            "stub share {stub_share}"
        );
        // UCLA 2012: c2p/p2p = 73442/62129 ~ 1.18. Accept a generous band.
        let ratio = g.num_customer_provider_edges() as f64 / g.num_peer_edges() as f64;
        assert!((0.7..=2.0).contains(&ratio), "c2p/p2p ratio {ratio}");
    }

    #[test]
    fn tier_classification_recovers_generator_roles() {
        let gen = small();
        let tiers = TierMap::classify(&gen.graph, &gen.tier_config());
        for &t1 in &gen.tier1 {
            assert_eq!(tiers.tier(t1), Tier::Tier1);
        }
        for &cp in &gen.content_providers {
            assert_eq!(tiers.tier(cp), Tier::Cp);
        }
        assert_eq!(tiers.tier1().len(), 13);
        assert_eq!(tiers.tier2().len(), 100);
        // Tier 2 should be dominated by the generator's tier-2 id range,
        // which received preferential attachment from the start.
        let early_t2 = tiers
            .tier2()
            .iter()
            .filter(|v| v.index() < 13 + 100 + 200)
            .count();
        assert!(early_t2 > 50, "only {early_t2} early tier-2s");
    }

    #[test]
    fn customer_degree_is_heavy_tailed() {
        let g = small().graph;
        let mut degrees: Vec<usize> = g.ases().map(|v| g.customer_degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = degrees.iter().sum();
        let top20: usize = degrees.iter().take(20).sum();
        // The top 20 transit ASes (1% of the graph) should carry a
        // disproportionate share of all customer links — heavy tail.
        assert!(
            top20 * 4 > total,
            "top-20 carry {top20} of {total} customer links"
        );
    }
}
