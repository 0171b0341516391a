//! Statistical estimation: tier-stratified pair sampling with streaming
//! confidence intervals and adaptive stopping.
//!
//! The paper evaluates `H_{M,D}(S)` over **all** `O(|V|²)` attacker–
//! destination pairs on a Blue Gene (Appendix H). On one machine we sample,
//! and this module makes every sampled number a *principled estimator*:
//!
//! * The pair universe `{(m, d) : m ∈ M, d ∈ D, m ≠ d}` is partitioned into
//!   **strata** — the cells of the (attacker tier × destination tier) grid
//!   ([`PairUniverse`]). Within a stratum, pairs are drawn **without
//!   replacement** through a seeded Feistel permutation of the stratum's
//!   index space ([`IndexPermutation`]): the first `k` images form a
//!   uniformly distributed `k`-subset, prefixes are *nested* as `k` grows,
//!   and the prefix of length `N_h` is the whole stratum. No index list is
//!   ever materialized, so strata of billions of pairs sample in O(1) per
//!   draw.
//! * Sample slots are allocated to strata **proportionally** via a
//!   seat-by-seat divisor method ([`PairUniverse::allocate_into`]) after a
//!   coverage pass that hands every nonempty stratum up to two slots.
//!   Seat-by-seat allocation is *house-monotone*: growing the total only
//!   adds seats, never moves one, so per-stratum samples are nested across
//!   adaptive rounds.
//! * Per-pair statistics stream into per-stratum [`Welford`] accumulators
//!   (mean and variance in one pass, no stored samples). **Chunk-order
//!   exactness invariant:** pairs are folded in their fixed sample order
//!   within each work chunk and chunk accumulators are merged in chunk
//!   order — never in worker-completion order — so every estimate is
//!   bit-identical at any [`Parallelism`] (`tests/determinism.rs`).
//! * [`Estimate`]s recombine the strata with **population weights**:
//!   `Ĥ = Σ_h (N_h/N) x̄_h`. Because each `x̄_h` is the mean of a uniform
//!   without-replacement sample of stratum `h`, `E[x̄_h]` is the stratum
//!   mean and `E[Ĥ]` the full-universe mean — the estimator is unbiased for
//!   the complete `m ≠ d` pair grid regardless of how slots were allocated
//!   (allocation only affects the variance). The confidence interval is the
//!   normal approximation with finite-population correction,
//!   `z · √(Σ_h W_h² (1 − n_h/N_h) s_h²/n_h)`, which collapses to zero at
//!   full budget — where the estimate *equals* the exhaustive value
//!   (`tests/estimator_conformance.rs` pins both properties against
//!   [`crate::sample::pairs_exhaustive`]).
//! * [`estimate_adaptive`] grows the sample in seeded, deterministic
//!   doubling rounds until the widest confidence half-width hits
//!   [`EstimatorConfig::ci_target`] or the pair budget is exhausted. The
//!   round schedule does not depend on the target, so a tighter target
//!   stops at a later round and its sample is a **superset** of every
//!   looser target's sample.
//! * The fused multi-cell drivers ([`estimate_metric_cells`],
//!   [`estimate_metric_sweep_cells`], [`estimate_strategy_ladder_cells`])
//!   run *every policy* of a figure through one
//!   [`sbgp_core::FusedDeltaEngine`] per worker, sharing the sample stream
//!   and the normal-conditions bases across cells. Because the sampling
//!   schedule depends only on the universe and the seed — never on the
//!   policy — each cell can stop at its own round and still reproduce its
//!   solo estimator **bit for bit** ([`estimate_adaptive_cells`]).

use std::collections::HashMap;

use sbgp_core::{
    AttackDeltaEngine, AttackScenario, AttackStrategy, Bounds, CellSet, Deployment,
    FusedDeltaEngine, Policy, SweepEngine,
};
use sbgp_topology::tier::{Tier, FIGURE_TIER_ORDER};
use sbgp_topology::AsId;

use crate::runner::{map_reduce_grouped, map_reduce_grouped_isolated, Parallelism};
use crate::Internet;

/// The default two-sided 95% normal quantile.
pub const Z_95: f64 = 1.959_963_984_540_054;

// ---------------------------------------------------------------------------
// Streaming moments
// ---------------------------------------------------------------------------

/// Streaming mean/variance accumulator (Welford's algorithm), mergeable via
/// the Chan et al. pairwise update. Merging is exact in operand order:
/// merging the same accumulators in the same order always produces the same
/// bits, which is what the chunk-order reduction relies on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fold one observation in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Merge another accumulator (Chan's parallel combination).
    pub fn merge(&mut self, o: Welford) {
        if o.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = o;
            return;
        }
        let n = self.n + o.n;
        let delta = o.mean - self.mean;
        self.mean += delta * (o.n as f64 / n as f64);
        self.m2 += o.m2 + delta * delta * (self.n as f64 * o.n as f64 / n as f64);
        self.n = n;
    }

    /// Observations folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).max(0.0)
        }
    }

    /// The raw `(n, mean, m2)` state — the wire form the supervised
    /// campaign ships between processes (floats as `to_bits`, so a round
    /// trip is bit-exact).
    pub(crate) fn raw(&self) -> (u64, f64, f64) {
        (self.n, self.mean, self.m2)
    }

    /// Rebuild from [`Welford::raw`] state.
    pub(crate) fn from_raw(n: u64, mean: f64, m2: f64) -> Welford {
        Welford { n, mean, m2 }
    }
}

// ---------------------------------------------------------------------------
// Seeded index permutation (without-replacement sampling in O(1) per draw)
// ---------------------------------------------------------------------------

/// A seeded pseudo-random bijection of `[0, n)`: a four-round balanced
/// Feistel network over the smallest even-bit-width power-of-two domain
/// covering `n`, restricted to `[0, n)` by cycle-walking. `nth(0..k)` is a
/// deterministic, duplicate-free, uniformly distributed `k`-prefix of a
/// permutation — the sampling primitive behind every stratum.
#[derive(Clone, Debug)]
pub struct IndexPermutation {
    n: u64,
    half_bits: u32,
    keys: [u64; 4],
}

/// SplitMix64 finalizer — the mixing function for Feistel rounds and seeds.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl IndexPermutation {
    /// Build the permutation of `[0, n)` for a seed. `n = 0` is allowed
    /// (the permutation is then empty).
    pub fn new(n: u64, seed: u64) -> IndexPermutation {
        // Domain 2^(2·half_bits) ≥ n, so cycle-walking terminates in < 4
        // expected steps; half_bits ≥ 1 keeps the halves non-degenerate.
        let bits = 64 - n.saturating_sub(1).leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        let mut keys = [0u64; 4];
        for (r, k) in keys.iter_mut().enumerate() {
            *k = mix64(seed ^ mix64(r as u64 + 1));
        }
        IndexPermutation { n, half_bits, keys }
    }

    #[inline]
    fn permute_once(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let (mut l, mut r) = (x >> self.half_bits, x & mask);
        for &k in &self.keys {
            let t = r;
            r = l ^ (mix64(k ^ r) & mask);
            l = t;
        }
        (l << self.half_bits) | r
    }

    /// The `i`-th element of the permutation (`i < n`).
    pub fn nth(&self, i: u64) -> u64 {
        debug_assert!(i < self.n, "index {i} out of range 0..{}", self.n);
        let mut x = i;
        loop {
            x = self.permute_once(x);
            if x < self.n {
                return x;
            }
        }
    }

    /// Domain size.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

// ---------------------------------------------------------------------------
// The stratified pair universe
// ---------------------------------------------------------------------------

/// One (attacker tier × destination tier) cell of the pair universe: the
/// cross product of the tier's members in each pool, minus the `m = d`
/// diagonal, addressable by a dense index in `[0, len)`.
#[derive(Clone, Debug)]
pub struct Stratum {
    /// Tier the attackers of this cell belong to.
    pub attacker_tier: Tier,
    /// Tier the destinations of this cell belong to.
    pub dest_tier: Tier,
    /// Attackers, reordered so the ones that also appear in `dests` come
    /// first — their rows are one pair shorter (the `m = d` diagonal),
    /// which keeps `pair_at` O(1).
    attackers: Vec<AsId>,
    /// For each of the first `colliding` attackers, its index in `dests`.
    skip: Vec<u32>,
    colliding: usize,
    dests: Vec<AsId>,
    size: u64,
}

impl Stratum {
    fn build(attacker_tier: Tier, dest_tier: Tier, pool_a: &[AsId], dests: Vec<AsId>) -> Stratum {
        let mut attackers = Vec::with_capacity(pool_a.len());
        let mut tail = Vec::new();
        let mut skip = Vec::new();
        for &m in pool_a {
            match dests.binary_search(&m) {
                Ok(j) => {
                    attackers.push(m);
                    skip.push(j as u32);
                }
                Err(_) => tail.push(m),
            }
        }
        let colliding = attackers.len();
        attackers.extend(tail);
        let dlen = dests.len() as u64;
        let size =
            colliding as u64 * dlen.saturating_sub(1) + (attackers.len() - colliding) as u64 * dlen;
        Stratum {
            attacker_tier,
            dest_tier,
            attackers,
            skip,
            colliding,
            dests,
            size,
        }
    }

    /// Number of `m ≠ d` pairs in the cell.
    pub fn len(&self) -> u64 {
        self.size
    }

    /// True when the cell holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The pair at dense index `p` (`p < len()`), diagonal skipped.
    pub fn pair_at(&self, p: u64) -> (AsId, AsId) {
        debug_assert!(p < self.size);
        let dlen = self.dests.len() as u64;
        let short = dlen - 1; // row width for colliding attackers
        let head = self.colliding as u64 * short;
        if p < head {
            let i = (p / short) as usize;
            let mut j = p % short;
            if j >= u64::from(self.skip[i]) {
                j += 1;
            }
            (self.attackers[i], self.dests[j as usize])
        } else {
            let q = p - head;
            let i = self.colliding + (q / dlen) as usize;
            (self.attackers[i], self.dests[(q % dlen) as usize])
        }
    }
}

/// The full `m ≠ d` pair universe over two AS pools, partitioned into the
/// nonempty cells of the (attacker tier × destination tier) grid in
/// [`FIGURE_TIER_ORDER`] × [`FIGURE_TIER_ORDER`] order.
#[derive(Clone, Debug)]
pub struct PairUniverse {
    strata: Vec<Stratum>,
    /// Stratum indices by descending size (ties by index) — the coverage
    /// pass order of the allocator.
    by_size_desc: Vec<usize>,
    population: u64,
}

impl PairUniverse {
    /// Partition `attacker_pool × dest_pool` (minus the diagonal) by tier.
    /// Pools are deduplicated; their order does not matter.
    pub fn new(net: &Internet, attacker_pool: &[AsId], dest_pool: &[AsId]) -> PairUniverse {
        let bucket = |pool: &[AsId]| -> HashMap<Tier, Vec<AsId>> {
            let mut sorted = pool.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let mut out: HashMap<Tier, Vec<AsId>> = HashMap::new();
            for v in sorted {
                out.entry(net.tiers.tier(v)).or_default().push(v);
            }
            out
        };
        let a_by_tier = bucket(attacker_pool);
        let d_by_tier = bucket(dest_pool);
        let mut strata = Vec::new();
        for ta in FIGURE_TIER_ORDER {
            let Some(pool_a) = a_by_tier.get(&ta) else {
                continue;
            };
            for td in FIGURE_TIER_ORDER {
                let Some(pool_d) = d_by_tier.get(&td) else {
                    continue;
                };
                let s = Stratum::build(ta, td, pool_a, pool_d.clone());
                if !s.is_empty() {
                    strata.push(s);
                }
            }
        }
        let mut by_size_desc: Vec<usize> = (0..strata.len()).collect();
        by_size_desc.sort_by_key(|&h| (std::cmp::Reverse(strata[h].size), h));
        let population = strata.iter().map(Stratum::len).sum();
        PairUniverse {
            strata,
            by_size_desc,
            population,
        }
    }

    /// Total `m ≠ d` pairs.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// The nonempty strata, in fixed grid order.
    pub fn strata(&self) -> &[Stratum] {
        &self.strata
    }

    /// Grow a per-stratum allocation until `Σ counts = min(target,
    /// population)`. Seats are handed out one at a time — first a coverage
    /// pass giving every stratum up to two slots (largest strata first,
    /// so tiny budgets go where the weight is), then proportionally by the
    /// D'Hondt divisor rule with exact integer comparisons. Because seats
    /// are only ever *added*, the allocation for a larger target extends
    /// the allocation for a smaller one — the nesting the adaptive rounds
    /// and the monotone-stopping guarantee are built on.
    pub fn allocate_into(&self, counts: &mut [u64], target: u64) {
        assert_eq!(counts.len(), self.strata.len());
        let target = target.min(self.population);
        let mut total: u64 = counts.iter().sum();
        // Coverage pass: up to two slots each (capped by stratum size) so
        // every stratum contributes a mean and a variance when possible.
        for floor in [1, 2] {
            for &h in &self.by_size_desc {
                if total >= target {
                    return;
                }
                if counts[h] < floor.min(self.strata[h].size) {
                    counts[h] += 1;
                    total += 1;
                }
            }
        }
        // Proportional pass: next seat to the stratum maximizing
        // N_h / (a_h + 1), compared exactly via cross-multiplication.
        while total < target {
            let mut best: Option<usize> = None;
            for h in 0..self.strata.len() {
                if counts[h] >= self.strata[h].size {
                    continue;
                }
                best = Some(match best {
                    None => h,
                    Some(b) => {
                        let lhs = self.strata[h].size as u128 * (counts[b] + 1) as u128;
                        let rhs = self.strata[b].size as u128 * (counts[h] + 1) as u128;
                        if lhs > rhs {
                            h
                        } else {
                            b
                        }
                    }
                });
            }
            let h = best.expect("target ≤ population, so some stratum has room");
            counts[h] += 1;
            total += 1;
        }
    }
}

/// A sampled pair, tagged with the stratum it was drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaggedPair {
    /// Index into [`PairUniverse::strata`].
    pub stratum: usize,
    /// The attacker.
    pub attacker: AsId,
    /// The destination.
    pub dest: AsId,
}

/// Draws nested without-replacement samples from a [`PairUniverse`]: one
/// seeded [`IndexPermutation`] per stratum, whose prefixes are the samples.
#[derive(Clone, Debug)]
pub struct StratifiedSampler<'a> {
    universe: &'a PairUniverse,
    perms: Vec<IndexPermutation>,
}

impl<'a> StratifiedSampler<'a> {
    /// Build the per-stratum permutations for a seed.
    pub fn new(universe: &'a PairUniverse, seed: u64) -> StratifiedSampler<'a> {
        let perms = universe
            .strata
            .iter()
            .enumerate()
            .map(|(h, s)| IndexPermutation::new(s.len(), mix64(seed ^ mix64(h as u64))))
            .collect();
        StratifiedSampler { universe, perms }
    }

    /// The pairs added when the per-stratum allocation grows from `from`
    /// to `to` (both from [`PairUniverse::allocate_into`]; `from[h] ≤
    /// to[h]`). Strata in grid order, pairs in permutation order within
    /// each — a fixed order, so downstream accumulation is deterministic.
    pub fn increment(&self, from: &[u64], to: &[u64]) -> Vec<TaggedPair> {
        let mut out = Vec::new();
        for (h, stratum) in self.universe.strata.iter().enumerate() {
            debug_assert!(from[h] <= to[h] && to[h] <= stratum.len());
            for i in from[h]..to[h] {
                let (attacker, dest) = stratum.pair_at(self.perms[h].nth(i));
                out.push(TaggedPair {
                    stratum: h,
                    attacker,
                    dest,
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Estimates
// ---------------------------------------------------------------------------

/// Per-stratum accumulators for one `Bounds`-valued pair statistic (the
/// lower and upper tie-break bounds stream independently).
#[derive(Clone, Copy, Debug, Default)]
pub struct StratumStats {
    /// Lower-bound (pessimistic tie-break) observations.
    pub lower: Welford,
    /// Upper-bound (optimistic tie-break) observations.
    pub upper: Welford,
}

impl StratumStats {
    pub(crate) fn push(&mut self, b: Bounds) {
        self.lower.push(b.lower);
        self.upper.push(b.upper);
    }

    pub(crate) fn merge(&mut self, o: StratumStats) {
        self.lower.merge(o.lower);
        self.upper.merge(o.upper);
    }
}

/// A population-weighted stratified estimate with its confidence interval.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Estimate {
    /// `Σ_h W_h x̄_h` for each tie-break bound.
    pub value: Bounds,
    /// Confidence half-width for each bound (zero at full budget).
    pub halfwidth: Bounds,
    /// Pairs sampled toward this estimate.
    pub pairs: u64,
}

impl Estimate {
    /// The larger of the two bounds' half-widths.
    pub fn max_halfwidth(&self) -> f64 {
        self.halfwidth.lower.max(self.halfwidth.upper)
    }
}

/// Recombine per-stratum accumulators into an [`Estimate`].
///
/// Strata not yet sampled (possible only while the budget is below the
/// stratum count) are dropped and the weights renormalized over the covered
/// population — documented bias that vanishes once the coverage pass has
/// reached every stratum. Fully enumerated strata contribute zero variance
/// (finite-population correction); strata with a single observation
/// contribute their weight but no variance estimate.
pub(crate) fn recombine(universe: &PairUniverse, stats: &[StratumStats], z: f64) -> Estimate {
    let mut covered = 0u64;
    let mut pairs = 0u64;
    for (s, acc) in universe.strata.iter().zip(stats) {
        if acc.lower.count() > 0 {
            covered += s.len();
            pairs += acc.lower.count();
        }
    }
    if covered == 0 {
        return Estimate::default();
    }
    let mut value = Bounds::default();
    let mut var = Bounds::default();
    for (s, acc) in universe.strata.iter().zip(stats) {
        let n = acc.lower.count();
        if n == 0 {
            continue;
        }
        let w = s.len() as f64 / covered as f64;
        value.lower += w * acc.lower.mean();
        value.upper += w * acc.upper.mean();
        let fpc = 1.0 - n as f64 / s.len() as f64;
        if n >= 2 && fpc > 0.0 {
            let f = w * w * fpc / n as f64;
            var.lower += f * acc.lower.sample_variance();
            var.upper += f * acc.upper.sample_variance();
        }
    }
    Estimate {
        value,
        halfwidth: Bounds {
            lower: z * var.lower.sqrt(),
            upper: z * var.upper.sqrt(),
        },
        pairs,
    }
}

// ---------------------------------------------------------------------------
// Adaptive estimation driver
// ---------------------------------------------------------------------------

/// Configuration for [`estimate_adaptive`] and its wrappers.
#[derive(Clone, Copy, Debug)]
pub struct EstimatorConfig {
    /// Stop once every tracked statistic's confidence half-width is at or
    /// below this (`None`: run to the budget).
    pub ci_target: Option<f64>,
    /// Hard cap on pairs sampled (clamped to the universe size).
    pub budget: u64,
    /// Sampler seed (permutations and nothing else — rounds are
    /// deterministic).
    pub seed: u64,
    /// Confidence quantile (default [`Z_95`]).
    pub z: f64,
    /// First-round size; `0` derives `max(64, 2 × strata)`.
    pub initial: u64,
}

impl EstimatorConfig {
    /// Budget-only estimation at 95% confidence.
    pub fn with_budget(budget: u64, seed: u64) -> EstimatorConfig {
        EstimatorConfig {
            ci_target: None,
            budget,
            seed,
            z: Z_95,
            initial: 0,
        }
    }

    /// Add a CI-half-width stopping target.
    pub fn with_ci(mut self, target: f64) -> EstimatorConfig {
        self.ci_target = Some(target);
        self
    }
}

/// One adaptive round's trace (the campaign's CI-width trajectory).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundTrace {
    /// Cumulative pairs sampled after the round.
    pub pairs: u64,
    /// Widest confidence half-width across statistics and bounds.
    pub max_halfwidth: f64,
}

/// The result of an adaptive estimation run.
#[derive(Clone, Debug)]
pub struct AdaptiveRun {
    /// One estimate per tracked statistic (e.g. per deployment step).
    pub estimates: Vec<Estimate>,
    /// Per-round sample-size / CI-width trajectory.
    pub rounds: Vec<RoundTrace>,
    /// Every sampled pair, in evaluation order (nested across rounds).
    pub sampled: Vec<(AsId, AsId)>,
    /// Universe size the estimates generalize to.
    pub population: u64,
    /// Nonempty strata in the universe.
    pub strata: usize,
    /// Destination groups whose evaluation was lost — poisoned in-process
    /// (a caught panic) or degraded by the supervisor's retry ladder.
    /// Their pairs are excluded from `sampled` and from every estimate;
    /// nonzero means the run is *degraded* but still statistically valid
    /// over the surviving sample.
    pub lost_groups: u64,
    /// Pairs dropped with those lost groups.
    pub lost_pairs: u64,
}

impl AdaptiveRun {
    /// Widest final half-width across statistics and bounds.
    pub fn max_halfwidth(&self) -> f64 {
        self.estimates
            .iter()
            .map(Estimate::max_halfwidth)
            .fold(0.0, f64::max)
    }
}

/// Group tagged pairs destination-major (first-appearance order), keeping
/// each attacker's stratum tag — the shape the delta engine amortizes.
pub(crate) fn group_tagged_by_destination(pairs: &[TaggedPair]) -> Vec<(AsId, Vec<(AsId, usize)>)> {
    let mut index: HashMap<AsId, usize> = HashMap::new();
    let mut groups: Vec<(AsId, Vec<(AsId, usize)>)> = Vec::new();
    for p in pairs {
        let slot = *index.entry(p.dest).or_insert_with(|| {
            groups.push((p.dest, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push((p.attacker, p.stratum));
    }
    groups
}

/// The generic adaptive estimation loop.
///
/// `stat_count` statistics are tracked per pair (for a deployment sweep,
/// one per step; for a strategy ladder, one per rung plus the optimum).
/// `begin_destination` runs once per destination group on the worker's
/// scratch (typically an engine `begin`); `eval_pair` evaluates one
/// `(m, d)` pair and emits each statistic's `Bounds` through the callback
/// (indices `0..stat_count`, at most once each per pair).
///
/// Rounds double the cumulative sample-size target from
/// [`EstimatorConfig::initial`] until the CI target is met or the budget
/// (clamped to the population) is exhausted. Every round's increment is
/// evaluated through [`map_reduce_grouped`] with chunk-order merging, and
/// round accumulators merge into the persistent per-stratum state in round
/// order — so the whole run is bit-identical at any thread count.
pub fn estimate_adaptive<W>(
    universe: &PairUniverse,
    cfg: &EstimatorConfig,
    stat_count: usize,
    par: Parallelism,
    make_worker: impl Fn() -> W + Sync,
    begin_destination: impl Fn(&mut W, AsId) + Sync,
    eval_pair: impl Fn(&mut W, AsId, AsId, &mut dyn FnMut(usize, Bounds)) + Sync,
) -> AdaptiveRun {
    let nstrata = universe.strata().len();
    let budget = cfg.budget.min(universe.population());
    let mut run = AdaptiveRun {
        estimates: vec![Estimate::default(); stat_count],
        rounds: Vec::new(),
        sampled: Vec::new(),
        population: universe.population(),
        strata: nstrata,
        lost_groups: 0,
        lost_pairs: 0,
    };
    if budget == 0 || stat_count == 0 {
        return run;
    }
    let sampler = StratifiedSampler::new(universe, cfg.seed);
    let initial = if cfg.initial == 0 {
        (2 * nstrata as u64).max(64)
    } else {
        cfg.initial
    };
    let mut counts = vec![0u64; nstrata];
    let mut persistent: Vec<Vec<StratumStats>> =
        vec![vec![StratumStats::default(); nstrata]; stat_count];
    let mut target = initial.min(budget);
    loop {
        let prev = counts.clone();
        universe.allocate_into(&mut counts, target);
        let incr = sampler.increment(&prev, &counts);
        let groups = group_tagged_by_destination(&incr);
        let round = map_reduce_grouped(
            par,
            &groups,
            &make_worker,
            || vec![vec![StratumStats::default(); nstrata]; stat_count],
            |worker, acc, (d, attackers)| {
                begin_destination(worker, *d);
                for &(m, h) in attackers {
                    eval_pair(worker, m, *d, &mut |k, b| acc[k][h].push(b));
                }
            },
            |a, b| {
                for (xs, ys) in a.iter_mut().zip(b) {
                    for (x, y) in xs.iter_mut().zip(ys) {
                        x.merge(y);
                    }
                }
            },
        );
        for (p, r) in persistent.iter_mut().zip(round) {
            for (x, y) in p.iter_mut().zip(r) {
                x.merge(y);
            }
        }
        run.sampled
            .extend(incr.iter().map(|p| (p.attacker, p.dest)));
        run.estimates = persistent
            .iter()
            .map(|stats| recombine(universe, stats, cfg.z))
            .collect();
        let total: u64 = counts.iter().sum();
        run.rounds.push(RoundTrace {
            pairs: total,
            max_halfwidth: run.max_halfwidth(),
        });
        let ci_met = cfg.ci_target.is_some_and(|t| run.max_halfwidth() <= t);
        if ci_met || total >= budget {
            return run;
        }
        target = (total * 2).min(budget);
    }
}

/// The multi-cell generalization of [`estimate_adaptive`]: `cell_stats[c]`
/// statistics are tracked for each of several *cells* (policy × figure
/// lanes sharing one worker), and every cell stops **on its own schedule**.
///
/// The round schedule — allocation targets, per-stratum counts, sampled
/// pairs — depends only on the universe and `cfg`, never on the observed
/// statistics, so cell `c`'s solo run ([`estimate_adaptive`] with
/// `stat_count = cell_stats[c]`) executes a *prefix* of the fused rounds.
/// The driver freezes each cell's accumulators, sample list and trajectory
/// at exactly the round where its solo run would stop (its CI target met,
/// or the shared budget exhausted), so each returned [`AdaptiveRun`] is
/// bit-identical to the solo run's. Evaluation for already-stopped cells
/// still happens (the fused engine serves all lanes in one call; the
/// marginal cost is the point) — its emissions are simply not folded.
///
/// Evaluation is **panic-isolated**
/// ([`map_reduce_grouped_isolated`]): a destination group that
/// panics mid-evaluation is dropped from every active cell (tracked in
/// [`AdaptiveRun::lost_groups`] / [`AdaptiveRun::lost_pairs`]) instead of
/// aborting the whole run. With no panics the isolation is free and the
/// results are unchanged, bit for bit.
pub fn estimate_adaptive_cells<W>(
    universe: &PairUniverse,
    cfg: &EstimatorConfig,
    cell_stats: &[usize],
    par: Parallelism,
    make_worker: impl Fn() -> W + Sync,
    begin_destination: impl Fn(&mut W, AsId) + Sync,
    eval_pair: impl Fn(&mut W, AsId, AsId, &mut dyn FnMut(usize, usize, Bounds)) + Sync,
) -> Vec<AdaptiveRun> {
    let nstrata = universe.strata().len();
    let budget = cfg.budget.min(universe.population());
    let mut runs: Vec<AdaptiveRun> = cell_stats
        .iter()
        .map(|&k| AdaptiveRun {
            estimates: vec![Estimate::default(); k],
            rounds: Vec::new(),
            sampled: Vec::new(),
            population: universe.population(),
            strata: nstrata,
            lost_groups: 0,
            lost_pairs: 0,
        })
        .collect();
    // A zero-stat cell is done before sampling, exactly like its solo run.
    let mut active: Vec<bool> = cell_stats.iter().map(|&k| k > 0 && budget > 0).collect();
    if !active.iter().any(|&a| a) {
        return runs;
    }
    let sampler = StratifiedSampler::new(universe, cfg.seed);
    let initial = if cfg.initial == 0 {
        (2 * nstrata as u64).max(64)
    } else {
        cfg.initial
    };
    let mut counts = vec![0u64; nstrata];
    let mut persistent: Vec<Vec<Vec<StratumStats>>> = cell_stats
        .iter()
        .map(|&k| vec![vec![StratumStats::default(); nstrata]; k])
        .collect();
    let mut target = initial.min(budget);
    loop {
        let prev = counts.clone();
        universe.allocate_into(&mut counts, target);
        let incr = sampler.increment(&prev, &counts);
        let groups = group_tagged_by_destination(&incr);
        let active_now = &active;
        let (round, poisoned) = map_reduce_grouped_isolated(
            par,
            &groups,
            &make_worker,
            || {
                cell_stats
                    .iter()
                    .map(|&k| vec![vec![StratumStats::default(); nstrata]; k])
                    .collect::<Vec<_>>()
            },
            |worker, acc, (d, attackers)| {
                begin_destination(worker, *d);
                for &(m, h) in attackers {
                    eval_pair(worker, m, *d, &mut |c, k, b| {
                        if active_now[c] {
                            acc[c][k][h].push(b);
                        }
                    });
                }
            },
            |a, b| {
                for (cell_a, cell_b) in a.iter_mut().zip(b) {
                    for (xs, ys) in cell_a.iter_mut().zip(cell_b) {
                        for (x, y) in xs.iter_mut().zip(ys) {
                            x.merge(y);
                        }
                    }
                }
            },
        );
        for (p, r) in persistent.iter_mut().zip(round) {
            for (xs, ys) in p.iter_mut().zip(r) {
                for (x, y) in xs.iter_mut().zip(ys) {
                    x.merge(y);
                }
            }
        }
        // Pairs of poisoned groups never reached an accumulator: drop
        // them from every active cell's sample and mark the loss, so the
        // estimates and the sample list stay consistent.
        let lost: std::collections::HashSet<AsId> = poisoned.iter().map(|&g| groups[g].0).collect();
        let lost_pairs: u64 = poisoned.iter().map(|&g| groups[g].1.len() as u64).sum();
        let total: u64 = counts.iter().sum();
        for (c, run) in runs.iter_mut().enumerate() {
            if !active[c] {
                continue;
            }
            if lost.is_empty() {
                run.sampled
                    .extend(incr.iter().map(|p| (p.attacker, p.dest)));
            } else {
                run.sampled.extend(
                    incr.iter()
                        .filter(|p| !lost.contains(&p.dest))
                        .map(|p| (p.attacker, p.dest)),
                );
                run.lost_groups += poisoned.len() as u64;
                run.lost_pairs += lost_pairs;
            }
            run.estimates = persistent[c]
                .iter()
                .map(|stats| recombine(universe, stats, cfg.z))
                .collect();
            run.rounds.push(RoundTrace {
                pairs: total,
                max_halfwidth: run.max_halfwidth(),
            });
            let ci_met = cfg.ci_target.is_some_and(|t| run.max_halfwidth() <= t);
            if ci_met || total >= budget {
                active[c] = false;
            }
        }
        if !active.iter().any(|&a| a) {
            return runs;
        }
        target = (total * 2).min(budget);
    }
}

// ---------------------------------------------------------------------------
// Concrete estimators
// ---------------------------------------------------------------------------

/// Estimate `H_{M,D}(S)` with a confidence interval (a one-step
/// [`estimate_metric_sweep`]); `estimates[0]` is the metric.
#[allow(clippy::too_many_arguments)]
pub fn estimate_metric(
    net: &Internet,
    attacker_pool: &[AsId],
    dest_pool: &[AsId],
    deployment: &Deployment,
    policy: Policy,
    strategy: AttackStrategy,
    cfg: &EstimatorConfig,
    par: Parallelism,
) -> AdaptiveRun {
    estimate_metric_sweep(
        net,
        attacker_pool,
        dest_pool,
        std::slice::from_ref(deployment),
        policy,
        strategy,
        cfg,
        par,
    )
}

/// Estimate `H_{M,D}(S_k)` for every deployment of a sweep, with one
/// confidence interval per step. Adaptive stopping watches the *widest*
/// half-width across steps, so every step meets the target. Rides the same
/// two-axis amortization as [`crate::sweep::metric_sweep`]: each
/// destination group's first step is an [`AttackDeltaEngine`] patch and the
/// remaining steps a [`SweepEngine`] adoption.
#[allow(clippy::too_many_arguments)]
pub fn estimate_metric_sweep(
    net: &Internet,
    attacker_pool: &[AsId],
    dest_pool: &[AsId],
    deployments: &[Deployment],
    policy: Policy,
    strategy: AttackStrategy,
    cfg: &EstimatorConfig,
    par: Parallelism,
) -> AdaptiveRun {
    let universe = PairUniverse::new(net, attacker_pool, dest_pool);
    let sources = (net.graph.len() - 2).max(1) as f64;
    let fraction = move |(lower, upper): (usize, usize)| Bounds {
        lower: lower as f64 / sources,
        upper: upper as f64 / sources,
    };
    estimate_adaptive(
        &universe,
        cfg,
        deployments.len(),
        par,
        || {
            (
                SweepEngine::new(&net.graph),
                AttackDeltaEngine::new(&net.graph),
            )
        },
        |(_, delta), d| {
            if let Some(first) = deployments.first() {
                delta.begin(d, first, policy);
            }
        },
        |(sweep, delta), m, d, emit| {
            delta.attack(m, strategy);
            emit(0, fraction(delta.count_happy()));
            if deployments.len() > 1 {
                let scenario = AttackScenario::attack(m, d).with_strategy(strategy);
                sweep.begin_from(
                    scenario,
                    policy,
                    &deployments[0],
                    delta.last_outcome(),
                    delta.count_happy(),
                );
                for (k, dep) in deployments.iter().enumerate().skip(1) {
                    sweep.advance(dep);
                    emit(k, fraction(sweep.count_happy()));
                }
            }
        },
    )
}

/// A strategy ladder with confidence intervals: per-rung estimates plus the
/// per-pair damage-maximizing choice (the statistic
/// [`crate::strategy::metric_strategy_ladder`] reports as `optimal`).
#[derive(Clone, Debug)]
pub struct LadderEstimate {
    /// The evaluated rungs.
    pub rungs: Vec<AttackStrategy>,
    /// One estimate per rung.
    pub per_rung: Vec<Estimate>,
    /// The per-pair optimal-rung estimate.
    pub optimal: Estimate,
    /// The underlying adaptive run (trajectory, sample, population).
    pub run: AdaptiveRun,
}

/// Estimate every rung of a strategy ladder and the per-pair optimum, with
/// confidence intervals, under one deployment.
///
/// # Panics
///
/// Panics when `rungs` is empty.
#[allow(clippy::too_many_arguments)]
pub fn estimate_strategy_ladder(
    net: &Internet,
    attacker_pool: &[AsId],
    dest_pool: &[AsId],
    deployment: &Deployment,
    policy: Policy,
    rungs: &[AttackStrategy],
    cfg: &EstimatorConfig,
    par: Parallelism,
) -> LadderEstimate {
    assert!(!rungs.is_empty(), "the ladder needs at least one rung");
    let universe = PairUniverse::new(net, attacker_pool, dest_pool);
    let sources = (net.graph.len() - 2).max(1) as f64;
    let run = estimate_adaptive(
        &universe,
        cfg,
        rungs.len() + 1,
        par,
        || AttackDeltaEngine::new(&net.graph),
        |delta, d| delta.begin(d, deployment, policy),
        |delta, m, _d, emit| {
            let mut best = (usize::MAX, usize::MAX);
            for (r, &strategy) in rungs.iter().enumerate() {
                delta.attack(m, strategy);
                let (lower, upper) = delta.count_happy();
                emit(
                    r,
                    Bounds {
                        lower: lower as f64 / sources,
                        upper: upper as f64 / sources,
                    },
                );
                best = best.min((lower, upper));
            }
            emit(
                rungs.len(),
                Bounds {
                    lower: best.0 as f64 / sources,
                    upper: best.1 as f64 / sources,
                },
            );
        },
    );
    // `run` keeps the full statistics vector (per rung, optimal last) so
    // its trajectory and max half-width stay meaningful to callers.
    let optimal = *run.estimates.last().expect("rungs is nonempty");
    LadderEstimate {
        rungs: rungs.to_vec(),
        per_rung: run.estimates[..rungs.len()].to_vec(),
        optimal,
        run,
    }
}

// ---------------------------------------------------------------------------
// Fused multi-cell estimators (one engine pass serves every policy)
// ---------------------------------------------------------------------------

/// A figure's multi-cell evaluation kernel, factored out of the closures
/// of [`estimate_adaptive_cells`] so the *same* code path serves both the
/// in-process estimators and the supervised multi-process campaign
/// ([`crate::supervise`]): a worker process rebuilds the evaluator from
/// its group spec and replays destination groups through it, which is
/// what makes an N-worker run bit-identical to the single-process run.
pub trait CellEval: Sync {
    /// Per-thread scratch (typically one fused engine, plus sweep engines).
    type Worker;

    /// Statistics tracked per cell (`cell_stats()[c]` for cell `c`).
    fn cell_stats(&self) -> Vec<usize>;

    /// Build fresh worker scratch.
    fn make_worker(&self) -> Self::Worker;

    /// Anchor the scratch on a destination group.
    fn begin(&self, w: &mut Self::Worker, dest: AsId);

    /// Evaluate one `(m, d)` pair, emitting `(cell, statistic, value)`
    /// triples (each statistic at most once per pair).
    fn eval_pair(
        &self,
        w: &mut Self::Worker,
        m: AsId,
        d: AsId,
        emit: &mut dyn FnMut(usize, usize, Bounds),
    );
}

/// [`estimate_adaptive_cells`] driven by a [`CellEval`].
pub fn estimate_adaptive_cells_eval<E: CellEval>(
    universe: &PairUniverse,
    cfg: &EstimatorConfig,
    eval: &E,
    par: Parallelism,
) -> Vec<AdaptiveRun> {
    estimate_adaptive_cells(
        universe,
        cfg,
        &eval.cell_stats(),
        par,
        || eval.make_worker(),
        |w, d| eval.begin(w, d),
        |w, m, d, emit| eval.eval_pair(w, m, d, emit),
    )
}

/// The deployment-sweep kernel behind [`estimate_metric_sweep_cells`]
/// (and, with a single deployment, [`estimate_metric_cells`]): one fused
/// patch per pair serves every policy lane's first step, and a per-lane
/// [`SweepEngine`] adopted from the fused outcome carries the remaining
/// deployments.
pub struct SweepCellsEval<'a> {
    net: &'a Internet,
    deployments: &'a [Deployment],
    cells: CellSet,
    npolicies: usize,
    sources: f64,
}

impl<'a> SweepCellsEval<'a> {
    /// Build the kernel for a policy set under one attack strategy.
    pub fn new(
        net: &'a Internet,
        deployments: &'a [Deployment],
        policies: &[Policy],
        strategy: AttackStrategy,
    ) -> SweepCellsEval<'a> {
        SweepCellsEval {
            net,
            deployments,
            cells: CellSet::per_policy(policies, strategy),
            npolicies: policies.len(),
            sources: (net.graph.len() - 2).max(1) as f64,
        }
    }

    fn fraction(&self, (lower, upper): (usize, usize)) -> Bounds {
        Bounds {
            lower: lower as f64 / self.sources,
            upper: upper as f64 / self.sources,
        }
    }
}

impl<'a> CellEval for SweepCellsEval<'a> {
    type Worker = (FusedDeltaEngine<'a>, Vec<SweepEngine<'a>>);

    fn cell_stats(&self) -> Vec<usize> {
        vec![self.deployments.len(); self.npolicies]
    }

    fn make_worker(&self) -> Self::Worker {
        let sweeps: Vec<SweepEngine> = (0..self.cells.lane_count())
            .map(|_| SweepEngine::new(&self.net.graph))
            .collect();
        (
            FusedDeltaEngine::new(&self.net.graph, self.cells.clone()),
            sweeps,
        )
    }

    fn begin(&self, (fused, _): &mut Self::Worker, d: AsId) {
        if let Some(first) = self.deployments.first() {
            fused.begin(d, first);
        }
    }

    fn eval_pair(
        &self,
        (fused, sweeps): &mut Self::Worker,
        m: AsId,
        d: AsId,
        emit: &mut dyn FnMut(usize, usize, Bounds),
    ) {
        fused.attack(m);
        for c in 0..self.cells.input_len() {
            emit(c, 0, self.fraction(fused.count_happy(c)));
        }
        if self.deployments.len() > 1 {
            for (j, (lane, sweep)) in self.cells.lanes().iter().zip(sweeps.iter_mut()).enumerate() {
                let scenario = AttackScenario::attack(m, d).with_strategy(lane.strategy);
                sweep.begin_from(
                    scenario,
                    lane.policy,
                    &self.deployments[0],
                    fused.lane_outcome(j),
                    fused.lane_happy(j),
                );
            }
            for (k, dep) in self.deployments.iter().enumerate().skip(1) {
                for sweep in sweeps.iter_mut() {
                    sweep.advance(dep);
                }
                for c in 0..self.cells.input_len() {
                    emit(
                        c,
                        k,
                        self.fraction(sweeps[self.cells.lane_of(c)].count_happy()),
                    );
                }
            }
        }
    }
}

/// The strategy-ladder kernel behind [`estimate_strategy_ladder_cells`]:
/// the (policy × rung) grid is one [`CellSet`], and statistic `nr` of each
/// policy cell is the per-pair damage-maximizing rung.
pub struct LadderCellsEval<'a> {
    net: &'a Internet,
    deployment: &'a Deployment,
    cells: CellSet,
    nr: usize,
    npolicies: usize,
    sources: f64,
}

impl<'a> LadderCellsEval<'a> {
    /// Build the kernel for a policy set over a rung ladder (nonempty).
    pub fn new(
        net: &'a Internet,
        deployment: &'a Deployment,
        policies: &[Policy],
        rungs: &[AttackStrategy],
    ) -> LadderCellsEval<'a> {
        assert!(!rungs.is_empty(), "the ladder needs at least one rung");
        LadderCellsEval {
            net,
            deployment,
            cells: CellSet::grid(policies, rungs),
            nr: rungs.len(),
            npolicies: policies.len(),
            sources: (net.graph.len() - 2).max(1) as f64,
        }
    }
}

impl<'a> CellEval for LadderCellsEval<'a> {
    type Worker = FusedDeltaEngine<'a>;

    fn cell_stats(&self) -> Vec<usize> {
        vec![self.nr + 1; self.npolicies]
    }

    fn make_worker(&self) -> Self::Worker {
        FusedDeltaEngine::new(&self.net.graph, self.cells.clone())
    }

    fn begin(&self, fused: &mut Self::Worker, d: AsId) {
        fused.begin(d, self.deployment);
    }

    fn eval_pair(
        &self,
        fused: &mut Self::Worker,
        m: AsId,
        _d: AsId,
        emit: &mut dyn FnMut(usize, usize, Bounds),
    ) {
        fused.attack(m);
        for p in 0..self.npolicies {
            let mut best = (usize::MAX, usize::MAX);
            for r in 0..self.nr {
                let (lower, upper) = fused.count_happy(p * self.nr + r);
                emit(
                    p,
                    r,
                    Bounds {
                        lower: lower as f64 / self.sources,
                        upper: upper as f64 / self.sources,
                    },
                );
                best = best.min((lower, upper));
            }
            emit(
                p,
                self.nr,
                Bounds {
                    lower: best.0 as f64 / self.sources,
                    upper: best.1 as f64 / self.sources,
                },
            );
        }
    }
}

/// [`estimate_metric`] for a whole set of policies at once: one fused
/// engine per worker serves every policy cell from one snapshot traversal
/// (and one computation per *distinct* lane — at zero validators the three
/// security models collapse onto a single lane). Returns one run per input
/// policy, each bit-identical to its solo [`estimate_metric`].
#[allow(clippy::too_many_arguments)]
pub fn estimate_metric_cells(
    net: &Internet,
    attacker_pool: &[AsId],
    dest_pool: &[AsId],
    deployment: &Deployment,
    policies: &[Policy],
    strategy: AttackStrategy,
    cfg: &EstimatorConfig,
    par: Parallelism,
) -> Vec<AdaptiveRun> {
    estimate_metric_sweep_cells(
        net,
        attacker_pool,
        dest_pool,
        std::slice::from_ref(deployment),
        policies,
        strategy,
        cfg,
        par,
    )
}

/// [`estimate_metric_sweep`] for a whole set of policies at once. The
/// first step of every destination group is one fused patch serving all
/// policy lanes; the remaining steps run one [`SweepEngine`] per lane,
/// adopted from the lane's fused outcome — exactly the composition the
/// solo estimator uses per policy, so each returned run is bit-identical
/// to its solo [`estimate_metric_sweep`].
#[allow(clippy::too_many_arguments)]
pub fn estimate_metric_sweep_cells(
    net: &Internet,
    attacker_pool: &[AsId],
    dest_pool: &[AsId],
    deployments: &[Deployment],
    policies: &[Policy],
    strategy: AttackStrategy,
    cfg: &EstimatorConfig,
    par: Parallelism,
) -> Vec<AdaptiveRun> {
    if policies.is_empty() {
        return Vec::new();
    }
    let universe = PairUniverse::new(net, attacker_pool, dest_pool);
    let eval = SweepCellsEval::new(net, deployments, policies, strategy);
    estimate_adaptive_cells_eval(&universe, cfg, &eval, par)
}

/// [`estimate_strategy_ladder`] for a whole set of policies at once: the
/// (policy × rung) grid becomes one [`CellSet`] (rungs deduped through
/// [`AttackStrategy::canonical`]), so every attack serves all policies'
/// whole ladders from one shared traversal. Returns one ladder per input
/// policy, each bit-identical to its solo [`estimate_strategy_ladder`].
///
/// # Panics
///
/// Panics when `rungs` is empty.
#[allow(clippy::too_many_arguments)]
pub fn estimate_strategy_ladder_cells(
    net: &Internet,
    attacker_pool: &[AsId],
    dest_pool: &[AsId],
    deployment: &Deployment,
    policies: &[Policy],
    rungs: &[AttackStrategy],
    cfg: &EstimatorConfig,
    par: Parallelism,
) -> Vec<LadderEstimate> {
    assert!(!rungs.is_empty(), "the ladder needs at least one rung");
    if policies.is_empty() {
        return Vec::new();
    }
    let universe = PairUniverse::new(net, attacker_pool, dest_pool);
    let eval = LadderCellsEval::new(net, deployment, policies, rungs);
    let runs = estimate_adaptive_cells_eval(&universe, cfg, &eval, par);
    let nr = rungs.len();
    runs.into_iter()
        .map(|run| {
            let optimal = *run.estimates.last().expect("rungs is nonempty");
            LadderEstimate {
                rungs: rungs.to_vec(),
                per_rung: run.estimates[..nr].to_vec(),
                optimal,
                run,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample;
    use sbgp_core::SecurityModel;
    use std::collections::HashSet;

    #[test]
    fn welford_matches_two_pass_moments() {
        let xs = [0.25, 0.5, 0.5, 0.75, 1.0, 0.0, 0.125];
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 =
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-15);
        assert!((w.sample_variance() - var).abs() < 1e-15);
        // Split/merge agrees with the straight stream.
        let (mut a, mut b) = (Welford::default(), Welford::default());
        for &x in &xs[..3] {
            a.push(x);
        }
        for &x in &xs[3..] {
            b.push(x);
        }
        a.merge(b);
        assert_eq!(a.count(), w.count());
        assert!((a.mean() - w.mean()).abs() < 1e-15);
        assert!((a.sample_variance() - w.sample_variance()).abs() < 1e-15);
        // Merging an empty accumulator is the identity, bit for bit.
        let before = a;
        a.merge(Welford::default());
        assert_eq!(a, before);
    }

    #[test]
    fn index_permutation_is_a_bijection() {
        for n in [1u64, 2, 3, 7, 64, 65, 1000] {
            let perm = IndexPermutation::new(n, 0xfeed ^ n);
            let seen: HashSet<u64> = (0..n).map(|i| perm.nth(i)).collect();
            assert_eq!(seen.len() as u64, n, "n={n}");
            assert!(seen.iter().all(|&x| x < n), "n={n}");
        }
    }

    #[test]
    fn index_permutation_depends_on_seed() {
        let a = IndexPermutation::new(1000, 1);
        let b = IndexPermutation::new(1000, 2);
        let same = (0..1000).all(|i| a.nth(i) == b.nth(i));
        assert!(!same);
    }

    fn net() -> Internet {
        Internet::synthetic(300, 9)
    }

    #[test]
    fn universe_covers_the_full_pair_grid() {
        let net = net();
        let attackers = net.tiers.non_stubs();
        let dests: Vec<AsId> = net.graph.ases().collect();
        let u = PairUniverse::new(&net, &attackers, &dests);
        let expected = attackers.len() * dests.len() - attackers.len(); // every attacker is a dest
        assert_eq!(u.population(), expected as u64);
        // Enumerating every stratum index reproduces the exhaustive grid.
        let mut seen = HashSet::new();
        for s in u.strata() {
            for p in 0..s.len() {
                let (m, d) = s.pair_at(p);
                assert_ne!(m, d);
                assert_eq!(net.tiers.tier(m), s.attacker_tier);
                assert_eq!(net.tiers.tier(d), s.dest_tier);
                assert!(seen.insert((m, d)), "duplicate pair {m:?}->{d:?}");
            }
        }
        let exhaustive: HashSet<(AsId, AsId)> = sample::pairs_exhaustive(&attackers, &dests)
            .into_iter()
            .collect();
        assert_eq!(seen, exhaustive);
    }

    #[test]
    fn allocation_is_nested_and_proportionalish() {
        let net = net();
        let dests: Vec<AsId> = net.graph.ases().collect();
        let u = PairUniverse::new(&net, &dests, &dests);
        let mut prev = vec![0u64; u.strata().len()];
        let mut grown = prev.clone();
        for target in [10u64, 64, 100, 1000, 5000, u.population()] {
            u.allocate_into(&mut grown, target);
            assert_eq!(grown.iter().sum::<u64>(), target.min(u.population()));
            for (h, (&p, &g)) in prev.iter().zip(&grown).enumerate() {
                assert!(g >= p, "stratum {h} shrank: {p} -> {g}");
                assert!(g <= u.strata()[h].len());
            }
            // One-shot allocation to the same target is identical.
            let mut fresh = vec![0u64; u.strata().len()];
            u.allocate_into(&mut fresh, target);
            assert_eq!(fresh, grown, "target {target}");
            prev.clone_from(&grown);
        }
        // Full budget enumerates everything.
        assert_eq!(
            grown,
            u.strata().iter().map(|s| s.len()).collect::<Vec<_>>()
        );
        // Proportionality: past the coverage floor, big strata get within
        // one seat of their exact quota.
        let mut mid = vec![0u64; u.strata().len()];
        let n = 4000u64;
        u.allocate_into(&mut mid, n);
        for (h, s) in u.strata().iter().enumerate() {
            let quota = n as f64 * s.len() as f64 / u.population() as f64;
            assert!(
                (mid[h] as f64) <= quota + 2.0 + 1.0,
                "stratum {h}: {} seats vs quota {quota:.2}",
                mid[h]
            );
        }
    }

    #[test]
    fn sampler_prefixes_are_nested_and_distinct() {
        let net = net();
        let dests: Vec<AsId> = net.graph.ases().collect();
        let u = PairUniverse::new(&net, &dests, &dests);
        let sampler = StratifiedSampler::new(&u, 7);
        let zero = vec![0u64; u.strata().len()];
        let mut small = zero.clone();
        u.allocate_into(&mut small, 200);
        let mut large = small.clone();
        u.allocate_into(&mut large, 900);
        let first = sampler.increment(&zero, &small);
        let grown = sampler.increment(&small, &large);
        let all = sampler.increment(&zero, &large);
        // Increment(0 -> small) ++ increment(small -> large) covers the
        // same pair set as increment(0 -> large): nested prefixes.
        let stitched: HashSet<TaggedPair> = first.iter().chain(&grown).copied().collect();
        let whole: HashSet<TaggedPair> = all.iter().copied().collect();
        assert_eq!(stitched, whole);
        assert_eq!(whole.len(), 900);
        for p in &all {
            assert_ne!(p.attacker, p.dest);
        }
    }

    #[test]
    fn estimator_handles_degenerate_inputs() {
        let net = net();
        let dests: Vec<AsId> = net.graph.ases().collect();
        let cfg = EstimatorConfig::with_budget(100, 3);
        // Empty attacker pool: an empty run.
        let r = estimate_metric(
            &net,
            &[],
            &dests,
            &Deployment::empty(net.len()),
            Policy::new(SecurityModel::Security2nd),
            AttackStrategy::FakeLink,
            &cfg,
            Parallelism(1),
        );
        assert_eq!(r.population, 0);
        assert!(r.sampled.is_empty());
        assert_eq!(r.estimates.len(), 1);
        // Empty deployment list: no statistics.
        let r = estimate_metric_sweep(
            &net,
            &dests,
            &dests,
            &[],
            Policy::new(SecurityModel::Security2nd),
            AttackStrategy::FakeLink,
            &cfg,
            Parallelism(1),
        );
        assert!(r.estimates.is_empty());
        assert!(r.sampled.is_empty());
    }

    #[test]
    fn estimate_respects_budget_and_reports_trajectory() {
        let net = net();
        let attackers = net.tiers.non_stubs();
        let dests: Vec<AsId> = net.graph.ases().collect();
        let cfg = EstimatorConfig::with_budget(500, 11);
        let r = estimate_metric(
            &net,
            &attackers,
            &dests,
            &Deployment::empty(net.len()),
            Policy::new(SecurityModel::Security3rd),
            AttackStrategy::FakeLink,
            &cfg,
            Parallelism(2),
        );
        assert_eq!(r.sampled.len(), 500);
        assert_eq!(r.estimates[0].pairs, 500);
        assert!(!r.rounds.is_empty());
        assert_eq!(r.rounds.last().unwrap().pairs, 500);
        // Sample sizes grow monotonically across rounds.
        for w in r.rounds.windows(2) {
            assert!(w[0].pairs < w[1].pairs);
        }
        // The baseline metric is known to sit above one half.
        assert!(r.estimates[0].value.lower > 0.5);
        assert!(r.estimates[0].max_halfwidth() > 0.0);
    }

    #[test]
    fn ladder_estimates_are_coherent() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 20, 5);
        let dests = sample::sample_all(&net, 40, 6);
        let cfg = EstimatorConfig::with_budget(300, 13);
        let r = estimate_strategy_ladder(
            &net,
            &attackers,
            &dests,
            &Deployment::empty(net.len()),
            Policy::new(SecurityModel::Security2nd),
            &AttackStrategy::LADDER,
            &cfg,
            Parallelism(2),
        );
        assert_eq!(r.per_rung.len(), AttackStrategy::LADDER.len());
        // The underlying run keeps every statistic (per rung + optimal),
        // so its trajectory and max half-width stay meaningful.
        assert_eq!(r.run.estimates.len(), AttackStrategy::LADDER.len() + 1);
        assert!(r.run.max_halfwidth() > 0.0, "partial sample, yet zero CI");
        // The per-pair optimum is at most every fixed rung.
        for rung in &r.per_rung {
            assert!(r.optimal.value.lower <= rung.value.lower + 1e-12);
        }
    }

    fn assert_runs_identical(fused: &AdaptiveRun, solo: &AdaptiveRun, label: &str) {
        assert_eq!(fused.estimates, solo.estimates, "{label}: estimates");
        assert_eq!(fused.rounds, solo.rounds, "{label}: trajectory");
        assert_eq!(fused.sampled, solo.sampled, "{label}: sample");
        assert_eq!(fused.population, solo.population, "{label}: population");
        assert_eq!(fused.strata, solo.strata, "{label}: strata");
    }

    #[test]
    fn fused_sweep_cells_match_solo_estimators_bit_for_bit() {
        let net = net();
        let attackers = net.tiers.non_stubs();
        let dests: Vec<AsId> = net.graph.ases().collect();
        let t2 = net.tiers.tier2();
        let deps = vec![
            Deployment::empty(net.len()),
            crate::scenario::isps_and_stubs(&net, &t2[..2.min(t2.len())]),
            crate::scenario::isps_and_stubs(&net, &t2[..4.min(t2.len())]),
        ];
        let policies: Vec<Policy> = SecurityModel::ALL.map(Policy::new).to_vec();
        // A CI target loose enough that cells stop at different rounds
        // (step 0 collapses across models, later steps diverge), so the
        // per-cell freeze is actually exercised.
        let cfg = EstimatorConfig::with_budget(400, 17).with_ci(0.04);
        let fused = estimate_metric_sweep_cells(
            &net,
            &attackers,
            &dests,
            &deps,
            &policies,
            AttackStrategy::FakeLink,
            &cfg,
            Parallelism(2),
        );
        assert_eq!(fused.len(), policies.len());
        for (i, &policy) in policies.iter().enumerate() {
            let solo = estimate_metric_sweep(
                &net,
                &attackers,
                &dests,
                &deps,
                policy,
                AttackStrategy::FakeLink,
                &cfg,
                Parallelism(2),
            );
            assert_runs_identical(&fused[i], &solo, &format!("{:?}", policy.model));
        }
        // Budget-only single-deployment form, at a different thread count.
        let cfg = EstimatorConfig::with_budget(300, 5);
        let dep = Deployment::empty(net.len());
        let fused = estimate_metric_cells(
            &net,
            &attackers,
            &dests,
            &dep,
            &policies,
            AttackStrategy::FakeLink,
            &cfg,
            Parallelism(1),
        );
        for (i, &policy) in policies.iter().enumerate() {
            let solo = estimate_metric(
                &net,
                &attackers,
                &dests,
                &dep,
                policy,
                AttackStrategy::FakeLink,
                &cfg,
                Parallelism(2),
            );
            assert_runs_identical(&fused[i], &solo, &format!("{:?}", policy.model));
        }
    }

    #[test]
    fn fused_ladder_cells_match_solo_estimators_bit_for_bit() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 25, 5);
        let dests = sample::sample_all(&net, 50, 6);
        let dep = Deployment::empty(net.len());
        let policies: Vec<Policy> = SecurityModel::ALL.map(Policy::new).to_vec();
        let cfg = EstimatorConfig::with_budget(250, 13);
        let fused = estimate_strategy_ladder_cells(
            &net,
            &attackers,
            &dests,
            &dep,
            &policies,
            &AttackStrategy::LADDER,
            &cfg,
            Parallelism(2),
        );
        assert_eq!(fused.len(), policies.len());
        for (i, &policy) in policies.iter().enumerate() {
            let solo = estimate_strategy_ladder(
                &net,
                &attackers,
                &dests,
                &dep,
                policy,
                &AttackStrategy::LADDER,
                &cfg,
                Parallelism(2),
            );
            assert_eq!(fused[i].rungs, solo.rungs);
            assert_eq!(fused[i].per_rung, solo.per_rung, "{:?}", policy.model);
            assert_eq!(fused[i].optimal, solo.optimal, "{:?}", policy.model);
            assert_runs_identical(&fused[i].run, &solo.run, &format!("{:?}", policy.model));
        }
    }

    #[test]
    fn fused_cells_handle_degenerate_inputs() {
        let net = net();
        let dests: Vec<AsId> = net.graph.ases().collect();
        let cfg = EstimatorConfig::with_budget(100, 3);
        // No policies: no runs.
        let r = estimate_metric_cells(
            &net,
            &dests,
            &dests,
            &Deployment::empty(net.len()),
            &[],
            AttackStrategy::FakeLink,
            &cfg,
            Parallelism(1),
        );
        assert!(r.is_empty());
        // Empty deployment list: one empty run per policy, like solo.
        let r = estimate_metric_sweep_cells(
            &net,
            &dests,
            &dests,
            &[],
            &[Policy::new(SecurityModel::Security2nd)],
            AttackStrategy::FakeLink,
            &cfg,
            Parallelism(1),
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].estimates.is_empty());
        assert!(r[0].sampled.is_empty());
    }
}
