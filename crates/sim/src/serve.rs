//! The deployment-planner what-if service.
//!
//! The paper's whole point is helping operators decide *where* partial
//! S\*BGP deployment buys security. This module graduates that decision
//! loop into a long-running server: a [`Planner`] loads one snapshot,
//! pre-warms and LRU-caches per-destination **normal-conditions
//! outcomes**, and answers *what-if* queries — "given this secure set
//! `S`, these suspected attackers, these policy cells: what is my happy
//! fraction ±CI?" — without ever recomputing a base outcome it has
//! already seen.
//!
//! # Serving path
//!
//! Every query is served off the engines built in PRs 2–8:
//!
//! * each destination's normal-conditions base ([`CachedBase`]: outcome
//!   plus packed preference keys) is fetched from the cache (keyed by
//!   the exact `(destination, deployment, policy)` cell) and adopted via
//!   [`FusedDeltaEngine::begin_with_bases`] /
//!   [`sbgp_core::AttackDeltaEngine::begin_from_base`], skipping both the
//!   route computation and the adoption scans; misses are computed once
//!   and harvested back into the cache;
//! * each suspected attacker is then a contested-region **patch**, and
//!   one fused pass serves every `(model, strategy)` cell of the query at
//!   once;
//! * when the `attackers × destinations` pair universe is large, the
//!   query opts into the stratified estimator (`"budget"`): tier-strata,
//!   Feistel without-replacement sampling, Welford accumulators and
//!   population-weighted recombination with confidence intervals, all
//!   from [`crate::stats`].
//!
//! # Protocol
//!
//! Transport-agnostic length-prefixed JSON frames, exactly PR 8's worker
//! protocol ([`crate::supervise::write_frame`] /
//! [`crate::supervise::read_frame`]), served over any `Read`/`Write`
//! pair ([`Planner::serve`] — the `planner` binary wires stdin/stdout).
//! Requests are JSON objects with an `"op"` field:
//!
//! ```text
//! {"op":"query","id":1,
//!  "secure":[1,2,3],"simplex":[9],        // the what-if deployment S
//!  "attackers":[4,5],"destinations":[0,6],// suspected pairs (m ≠ d)
//!  "models":["sec1","sec3"],"variant":"lp","strategies":["fakelink","path2"],
//!  "budget":0,"seed":42,"deadline_ms":0}  // budget>0 => stratified estimate
//! {"op":"stats"}                          // cache hit/miss/eviction counters
//! {"op":"shutdown"}
//! ```
//!
//! All ids are dense graph ids (`0..n`); `models`/`strategies` default to
//! `["sec3"]`/`["fakelink"]`, `variant` to `"lp"`. Replies echo the id:
//!
//! ```text
//! {"op":"reply","schema":"planner-v1","id":1,"mode":"exact","pairs":4,"population":4,
//!  "cells":[{"model":"sec3","variant":"lp","strategy":"fakelink",
//!            "lower":0.5,"upper":0.5,"hw_lower":0,"hw_upper":0,"pairs":4}, ...]}
//! ```
//!
//! A malformed message is rejected with a clean
//! `{"op":"error",...}` reply — never a crash, and the server keeps
//! answering.
//!
//! # Determinism contract
//!
//! Same snapshot + same query ⇒ **bit-identical** reply, at any cache
//! state and any [`Parallelism`]. Cache adoption is exact (an adopted
//! normal outcome is bit-identical to a freshly computed one — the
//! engines are deterministic and `tests/planner.rs` pins it), the exact
//! path merges per-destination accumulators in item order, and the
//! estimate path inherits the chunk-order reduction of [`crate::stats`].
//! Timing never appears in a reply (the `"stats"` op is the explicitly
//! cache-state-dependent exception). A `"deadline_ms"` overrun turns the
//! reply into an error frame instead of a partial answer, so successful
//! replies stay deterministic.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbgp_core::{
    AttackStrategy, CachedBase, CellSet, Deployment, FusedDeltaEngine, LpVariant, Policy,
    PolicyCell, SecurityModel,
};
use sbgp_topology::AsId;

use crate::runner::{map_reduce_grouped, Parallelism};
use crate::stats::{estimate_adaptive_cells_eval, CellEval, EstimatorConfig, PairUniverse};
use crate::supervise::{
    json_str_field, json_u64_field, json_u64s, json_value, read_frame, sanitize, write_frame,
};
use crate::Internet;
use sbgp_core::Bounds;

/// Wire-schema tag carried by every planner reply.
pub const PLANNER_SCHEMA: &str = "planner-v1";

// ---------------------------------------------------------------------------
// Tokens (the CLI vocabulary, reused on the wire)
// ---------------------------------------------------------------------------

/// The wire/CLI token of a security model (`sec1`/`sec2`/`sec3`).
pub fn model_token(m: SecurityModel) -> &'static str {
    match m {
        SecurityModel::Security1st => "sec1",
        SecurityModel::Security2nd => "sec2",
        SecurityModel::Security3rd => "sec3",
    }
}

/// Parse a security-model token.
pub fn parse_model(tok: &str) -> Result<SecurityModel, String> {
    match tok {
        "sec1" => Ok(SecurityModel::Security1st),
        "sec2" => Ok(SecurityModel::Security2nd),
        "sec3" => Ok(SecurityModel::Security3rd),
        other => Err(format!("unknown model {other:?} (want sec1|sec2|sec3)")),
    }
}

/// The wire/CLI token of an LP variant (`lp`/`lp2`/`lpinf`).
pub fn variant_token(v: LpVariant) -> String {
    match v {
        LpVariant::Standard => "lp".into(),
        LpVariant::LpK(k) => format!("lp{k}"),
        LpVariant::LpInf => "lpinf".into(),
    }
}

/// Parse an LP-variant token.
pub fn parse_variant(tok: &str) -> Result<LpVariant, String> {
    match tok {
        "lp" => Ok(LpVariant::Standard),
        "lp2" => Ok(LpVariant::LpK(2)),
        "lpinf" => Ok(LpVariant::LpInf),
        other => Err(format!("unknown variant {other:?} (want lp|lp2|lpinf)")),
    }
}

/// The wire/CLI token of an attack strategy (`fakelink`/`hijack`/`pathK`).
pub fn strategy_token(s: AttackStrategy) -> String {
    match s {
        AttackStrategy::FakeLink => "fakelink".into(),
        AttackStrategy::OriginHijack => "hijack".into(),
        AttackStrategy::FakePath { hops } => format!("path{hops}"),
    }
}

/// Parse an attack-strategy token (canonicalized, so `path1` ≡ `fakelink`).
pub fn parse_strategy(tok: &str) -> Result<AttackStrategy, String> {
    match tok {
        "fakelink" | "fake-link" => Ok(AttackStrategy::FakeLink),
        "hijack" => Ok(AttackStrategy::OriginHijack),
        other => match other.strip_prefix("path") {
            Some(k) => k
                .parse::<u8>()
                .map(|hops| AttackStrategy::FakePath { hops }.canonical())
                .map_err(|_| format!("bad forged-path depth in {other:?}")),
            None => Err(format!(
                "unknown strategy {other:?} (want fakelink|hijack|pathK)"
            )),
        },
    }
}

/// Parse `"key":["a","b",...]` as a list of strings (no escapes — the
/// planner vocabulary is plain tokens).
fn json_str_list(text: &str, key: &str) -> Option<Vec<String>> {
    let pat = format!("\"{key}\":[");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end = rest.find(']')?;
    let body = &rest[..end];
    let mut out = Vec::new();
    for tok in body.split(',') {
        let tok = tok.trim();
        if tok.is_empty() {
            continue;
        }
        out.push(tok.trim_matches('"').to_string());
    }
    Some(out)
}

/// Shortest-round-trip float formatting (Rust's `Display` for `f64` is
/// exact on parse-back, so replies are bit-faithful).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

// ---------------------------------------------------------------------------
// Configuration and cache
// ---------------------------------------------------------------------------

/// Planner-service configuration.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// LRU capacity of the normal-outcome cache (entries; each holds one
    /// per-AS outcome, so memory is `O(capacity × n)`).
    pub cache_capacity: usize,
    /// Destinations to pre-warm at boot: baseline (`S = ∅`) Sec-3rd/LP
    /// normal outcomes for the content providers first, then the lowest
    /// ids — the cells baseline what-if queries hit first.
    pub prewarm: usize,
    /// Worker threads for query evaluation (replies are bit-identical at
    /// any value).
    pub parallelism: Parallelism,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig {
            cache_capacity: 256,
            prewarm: 0,
            parallelism: Parallelism::sequential(),
        }
    }
}

/// Cache hit/miss counters (the `"stats"` op's payload).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Base computations served from the cache.
    pub hits: u64,
    /// Base computations that had to run (and were then cached).
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
}

/// Exact identity of a cached normal-conditions outcome. Keys compare the
/// *full* deployment member lists (not a hash of them), so a cache hit can
/// never serve a different cell's outcome — the bit-identical-at-any-
/// cache-state contract rests on this.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    dest: AsId,
    policy: Policy,
    full: Vec<AsId>,
    simplex: Vec<AsId>,
}

struct CacheEntry {
    base: Arc<CachedBase>,
    stamp: u64,
}

/// LRU cache of normal-conditions outcomes.
struct NormalCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<CacheKey, CacheEntry>,
    stats: CacheStats,
}

impl NormalCache {
    fn new(capacity: usize) -> NormalCache {
        NormalCache {
            capacity: capacity.max(1),
            clock: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Fetch (and refresh) an entry, counting a hit or miss.
    fn get(&mut self, key: &CacheKey) -> Option<&Arc<CachedBase>> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some(e) => {
                e.stamp = self.clock;
                self.stats.hits += 1;
                Some(&e.base)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly computed base, evicting the least recently used
    /// entry when over capacity.
    fn insert(&mut self, key: CacheKey, base: Arc<CachedBase>) {
        self.clock += 1;
        let stamp = self.clock;
        self.entries.insert(key, CacheEntry { base, stamp });
        while self.entries.len() > self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
    }

    /// Probe without touching the counters or the LRU order (used when
    /// pre-extracting bases for a parallel pass decided elsewhere).
    fn peek(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
    }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// A parsed what-if query.
#[derive(Clone, Debug)]
pub struct Query {
    /// Client-chosen id, echoed in the reply (0 when omitted).
    pub id: u64,
    /// Full-S\*BGP members of the what-if deployment.
    pub secure: Vec<AsId>,
    /// Simplex members (ids also listed in `secure` stay full).
    pub simplex: Vec<AsId>,
    /// Suspected attackers (each is evaluated singly against each
    /// destination; `m == d` pairs are skipped, the metric convention).
    pub attackers: Vec<AsId>,
    /// Destinations of interest.
    pub destinations: Vec<AsId>,
    /// Security models of the policy grid.
    pub models: Vec<SecurityModel>,
    /// LP variant (shared by every cell).
    pub variant: LpVariant,
    /// Attack-strategy rungs of the policy grid.
    pub strategies: Vec<AttackStrategy>,
    /// `Some(b)`: stratified estimation with pair budget `b`; `None`
    /// (or 0 on the wire): exact enumeration of every `m ≠ d` pair.
    pub budget: Option<u64>,
    /// Estimation seed (sampling permutations only).
    pub seed: u64,
    /// Per-query deadline; an overrun is reported as an error reply.
    pub deadline_ms: Option<u64>,
}

/// The ids listed under `key` (empty when the key is absent). A present
/// key whose value is not a list of ids in `[0, n)` is an error naming it.
fn parse_ids(text: &str, key: &str, n: usize) -> Result<Vec<AsId>, String> {
    if json_value(text, key).is_none() {
        return Ok(Vec::new());
    }
    let raw = json_u64s(text, key).ok_or_else(|| format!("{key}: not a list of AS ids"))?;
    let mut out = Vec::with_capacity(raw.len());
    for v in raw {
        if v >= n as u64 {
            return Err(format!("{key}: id {v} out of range (graph has {n} ASes)"));
        }
        out.push(AsId(v as u32));
    }
    Ok(out)
}

fn reject_duplicates(ids: &[AsId], key: &str) -> Result<(), String> {
    for (i, a) in ids.iter().enumerate() {
        if let Some(j) = ids[..i].iter().position(|b| b == a) {
            return Err(format!(
                "{key}: id {a} listed twice (items {} and {})",
                j + 1,
                i + 1
            ));
        }
    }
    Ok(())
}

impl Query {
    /// Parse a `{"op":"query",...}` message against a graph of `n` ASes.
    pub fn parse(text: &str, n: usize) -> Result<Query, String> {
        if n < 3 {
            return Err(format!("graph has {n} ASes; the metric needs at least 3"));
        }
        let id = json_u64_field(text, "id").unwrap_or(0);
        let secure = parse_ids(text, "secure", n)?;
        let simplex = parse_ids(text, "simplex", n)?;
        let attackers = parse_ids(text, "attackers", n)?;
        let destinations = parse_ids(text, "destinations", n)?;
        if attackers.is_empty() {
            return Err("attackers: need at least one suspected attacker".into());
        }
        if destinations.is_empty() {
            return Err("destinations: need at least one destination".into());
        }
        reject_duplicates(&attackers, "attackers")?;
        reject_duplicates(&destinations, "destinations")?;
        let models = match json_str_list(text, "models") {
            Some(toks) if !toks.is_empty() => toks
                .iter()
                .map(|t| parse_model(t))
                .collect::<Result<Vec<_>, _>>()?,
            _ => vec![SecurityModel::Security3rd],
        };
        let variant = match json_str_field(text, "variant") {
            Some(tok) => parse_variant(tok)?,
            None => LpVariant::Standard,
        };
        let strategies = match json_str_list(text, "strategies") {
            Some(toks) if !toks.is_empty() => toks
                .iter()
                .map(|t| parse_strategy(t))
                .collect::<Result<Vec<_>, _>>()?,
            _ => vec![AttackStrategy::FakeLink],
        };
        if models.len() * strategies.len() > 64 {
            return Err(format!(
                "{} models x {} strategies exceeds the 64-cell per-query cap",
                models.len(),
                strategies.len()
            ));
        }
        let budget = match json_u64_field(text, "budget") {
            Some(0) | None => None,
            Some(b) => Some(b),
        };
        let deadline_ms = match json_u64_field(text, "deadline_ms") {
            Some(0) | None => None,
            Some(ms) => Some(ms),
        };
        let pairs_exist = destinations
            .iter()
            .any(|d| attackers.iter().any(|m| m != d));
        if !pairs_exist {
            return Err("no valid pairs: every attacker equals every destination".into());
        }
        Ok(Query {
            id,
            secure,
            simplex,
            attackers,
            destinations,
            models,
            variant,
            strategies,
            budget,
            seed: json_u64_field(text, "seed").unwrap_or(0),
            deadline_ms,
        })
    }

    /// The query's deployment (full members win over simplex).
    pub fn deployment(&self, n: usize) -> Deployment {
        let mut dep = Deployment::empty(n);
        for &v in &self.secure {
            dep.insert_full(v);
        }
        for &v in &self.simplex {
            dep.insert_simplex(v);
        }
        dep
    }

    /// The query's policy grid, row-major `models × strategies`.
    pub fn cell_set(&self) -> CellSet {
        let policies: Vec<Policy> = self
            .models
            .iter()
            .map(|&m| Policy::with_variant(m, self.variant))
            .collect();
        CellSet::grid(&policies, &self.strategies)
    }

    /// Canonical member lists for the cache key (sorted, simplex minus
    /// full — the same normalization [`Deployment`] applies).
    fn canonical_sets(&self) -> (Vec<AsId>, Vec<AsId>) {
        let mut full = self.secure.clone();
        full.sort_unstable();
        full.dedup();
        let mut simplex: Vec<AsId> = self
            .simplex
            .iter()
            .copied()
            .filter(|v| full.binary_search(v).is_err())
            .collect();
        simplex.sort_unstable();
        simplex.dedup();
        (full, simplex)
    }
}

// ---------------------------------------------------------------------------
// Estimate-path kernel
// ---------------------------------------------------------------------------

/// [`CellEval`] kernel for one query's `(model × strategy)` grid under a
/// single deployment, with cached-base adoption: sampled destination
/// groups whose normal outcome is already cached anchor through
/// [`FusedDeltaEngine::begin_with_bases`]. (The estimate path reads the
/// cache but does not populate it — harvested bases would arrive in
/// sample order, not query order.)
struct GridCellsEval<'a> {
    net: &'a Internet,
    deployment: &'a Deployment,
    cells: CellSet,
    bases: HashMap<AsId, Vec<(Policy, Arc<CachedBase>)>>,
    sources: f64,
}

impl<'a> CellEval for GridCellsEval<'a> {
    type Worker = FusedDeltaEngine<'a>;

    fn cell_stats(&self) -> Vec<usize> {
        vec![1; self.cells.input_len()]
    }

    fn make_worker(&self) -> Self::Worker {
        FusedDeltaEngine::new(&self.net.graph, self.cells.clone())
    }

    fn begin(&self, w: &mut Self::Worker, d: AsId) {
        match self.bases.get(&d) {
            Some(bases) => w.begin_with_bases(d, self.deployment, |p| {
                bases.iter().find(|(q, _)| *q == p).map(|(_, o)| &**o)
            }),
            None => w.begin(d, self.deployment),
        }
    }

    fn eval_pair(
        &self,
        w: &mut Self::Worker,
        m: AsId,
        _d: AsId,
        emit: &mut dyn FnMut(usize, usize, Bounds),
    ) {
        w.attack(m);
        for c in 0..self.cells.input_len() {
            let (lower, upper) = w.count_happy(c);
            emit(
                c,
                0,
                Bounds {
                    lower: lower as f64 / self.sources,
                    upper: upper as f64 / self.sources,
                },
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------------

/// One evaluated cell of a reply.
#[derive(Clone, Debug)]
struct CellAnswer {
    cell: PolicyCell,
    lower: f64,
    upper: f64,
    hw_lower: f64,
    hw_upper: f64,
    pairs: u64,
}

/// Exact-path per-destination work item: the destination plus the cached
/// bases extracted for it (cloned up front so the parallel pass never
/// borrows the cache).
struct DestItem {
    dest: AsId,
    attackers: Vec<AsId>,
    bases: Vec<(Policy, Arc<CachedBase>)>,
}

/// Exact-path accumulator, merged in item order (deterministic at any
/// [`Parallelism`]).
struct ExactAcc {
    lower: Vec<f64>,
    upper: Vec<f64>,
    pairs: u64,
    harvest: Vec<(AsId, Policy, Arc<CachedBase>)>,
    timed_out: bool,
}

impl ExactAcc {
    fn new(cells: usize) -> ExactAcc {
        ExactAcc {
            lower: vec![0.0; cells],
            upper: vec![0.0; cells],
            pairs: 0,
            harvest: Vec::new(),
            timed_out: false,
        }
    }

    fn merge(&mut self, o: ExactAcc) {
        for (a, b) in self.lower.iter_mut().zip(&o.lower) {
            *a += b;
        }
        for (a, b) in self.upper.iter_mut().zip(&o.upper) {
            *a += b;
        }
        self.pairs += o.pairs;
        self.harvest.extend(o.harvest);
        self.timed_out |= o.timed_out;
    }
}

/// The long-running what-if service: one snapshot, an LRU cache of
/// normal-conditions outcomes, and a deterministic query loop. See the
/// module docs for the protocol and the determinism contract.
pub struct Planner {
    net: Internet,
    cfg: PlannerConfig,
    cache: NormalCache,
    prewarmed: usize,
    queries: u64,
}

impl Planner {
    /// Build the service and pre-warm the cache
    /// ([`PlannerConfig::prewarm`]).
    pub fn new(net: Internet, cfg: PlannerConfig) -> Planner {
        let mut planner = Planner {
            cache: NormalCache::new(cfg.cache_capacity),
            net,
            cfg,
            prewarmed: 0,
            queries: 0,
        };
        planner.prewarm();
        planner
    }

    /// The served snapshot.
    pub fn net(&self) -> &Internet {
        &self.net
    }

    /// Cache counters (hits/misses/evictions so far).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Pre-warm baseline (`S = ∅`) Sec-3rd/LP normal outcomes: content
    /// providers first, then the lowest ids, up to the configured count.
    fn prewarm(&mut self) {
        let want = self.cfg.prewarm.min(self.net.len());
        if want == 0 {
            return;
        }
        let n = self.net.len();
        let mut dests: Vec<AsId> = Vec::with_capacity(want);
        for &cp in &self.net.content_providers {
            if dests.len() == want {
                break;
            }
            if !dests.contains(&cp) {
                dests.push(cp);
            }
        }
        for v in self.net.graph.ases() {
            if dests.len() == want {
                break;
            }
            if !dests.contains(&v) {
                dests.push(v);
            }
        }
        let dep = Deployment::empty(n);
        let policy = Policy::new(SecurityModel::Security3rd);
        let mut delta = sbgp_core::AttackDeltaEngine::new(&self.net.graph);
        for d in dests {
            delta.begin(d, &dep, policy);
            self.cache.insert(
                CacheKey {
                    dest: d,
                    policy,
                    full: Vec::new(),
                    simplex: Vec::new(),
                },
                Arc::new(delta.export_base()),
            );
            self.prewarmed += 1;
        }
        // Pre-warming is boot work, not query traffic: reset the counters
        // so `"stats"` reflects serving behavior only.
        self.cache.stats = CacheStats::default();
    }

    /// The `{"op":"ready",...}` hello frame payload.
    pub fn hello(&self) -> String {
        format!(
            "{{\"op\":\"ready\",\"schema\":\"{PLANNER_SCHEMA}\",\"graph\":\"{}\",\"asns\":{},\
             \"cache_capacity\":{},\"prewarmed\":{}}}",
            sanitize(&self.net.name),
            self.net.len(),
            self.cfg.cache_capacity,
            self.prewarmed
        )
    }

    fn encode_error(id: u64, msg: &str) -> String {
        format!(
            "{{\"op\":\"error\",\"schema\":\"{PLANNER_SCHEMA}\",\"id\":{id},\"error\":\"{}\"}}",
            sanitize(msg)
        )
    }

    /// Handle one message; `None` means a clean shutdown request.
    pub fn handle(&mut self, text: &str) -> Option<String> {
        let Some(op) = json_str_field(text, "op") else {
            return Some(Self::encode_error(
                json_u64_field(text, "id").unwrap_or(0),
                "malformed message: no op field",
            ));
        };
        match op {
            "shutdown" => None,
            "stats" => {
                let s = self.cache.stats;
                Some(format!(
                    "{{\"op\":\"stats\",\"schema\":\"{PLANNER_SCHEMA}\",\"hits\":{},\"misses\":{},\
                     \"evictions\":{},\"entries\":{},\"queries\":{}}}",
                    s.hits,
                    s.misses,
                    s.evictions,
                    self.cache.entries.len(),
                    self.queries
                ))
            }
            "query" => {
                let id = json_u64_field(text, "id").unwrap_or(0);
                match Query::parse(text, self.net.len()) {
                    Ok(q) => Some(self.answer(&q)),
                    Err(e) => Some(Self::encode_error(id, &e)),
                }
            }
            other => Some(Self::encode_error(
                json_u64_field(text, "id").unwrap_or(0),
                &format!("unknown op {other:?}"),
            )),
        }
    }

    /// Answer a parsed query (error replies included).
    pub fn answer(&mut self, q: &Query) -> String {
        self.queries += 1;
        let deadline = q
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let result = match q.budget {
            Some(budget) => self.answer_estimate(q, budget, deadline),
            None => self.answer_exact(q, deadline),
        };
        match result {
            Ok((mode, pairs, population, cells)) => {
                let mut out = format!(
                    "{{\"op\":\"reply\",\"schema\":\"{PLANNER_SCHEMA}\",\"id\":{},\
                     \"mode\":\"{mode}\",\"pairs\":{pairs},\"population\":{population},\
                     \"cells\":[",
                    q.id
                );
                for (i, c) in cells.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"model\":\"{}\",\"variant\":\"{}\",\"strategy\":\"{}\",\
                         \"lower\":{},\"upper\":{},\"hw_lower\":{},\"hw_upper\":{},\"pairs\":{}}}",
                        model_token(c.cell.policy.model),
                        variant_token(c.cell.policy.variant),
                        strategy_token(c.cell.strategy),
                        fmt_f64(c.lower),
                        fmt_f64(c.upper),
                        fmt_f64(c.hw_lower),
                        fmt_f64(c.hw_upper),
                        c.pairs
                    ));
                }
                out.push_str("]}");
                out
            }
            Err(e) => Self::encode_error(q.id, &e),
        }
    }

    /// Exact path: enumerate every `m ≠ d` pair, one fused pass per
    /// destination, bases adopted from (and harvested into) the cache.
    #[allow(clippy::type_complexity)]
    fn answer_exact(
        &mut self,
        q: &Query,
        deadline: Option<Instant>,
    ) -> Result<(&'static str, u64, u64, Vec<CellAnswer>), String> {
        let n = self.net.len();
        let dep = q.deployment(n);
        let cells = q.cell_set();
        let (full, simplex) = q.canonical_sets();
        let key_of = |dest: AsId, policy: Policy| CacheKey {
            dest,
            policy,
            full: full.clone(),
            simplex: simplex.clone(),
        };

        // Pre-extract cached bases per destination (cloned, so the
        // parallel pass owns its inputs). Probing every lane policy
        // covers the model-collapse representatives too: a group's
        // representative is always some lane's policy.
        let lane_policies: Vec<Policy> = {
            let mut ps: Vec<Policy> = cells.lanes().iter().map(|c| c.policy).collect();
            ps.dedup();
            ps
        };
        let items: Vec<DestItem> = q
            .destinations
            .iter()
            .map(|&d| {
                let mut bases = Vec::new();
                for &p in &lane_policies {
                    let key = key_of(d, p);
                    if let Some(base) = self.cache.get(&key) {
                        bases.push((p, base.clone()));
                    }
                }
                DestItem {
                    dest: d,
                    attackers: q.attackers.clone(),
                    bases,
                }
            })
            .collect();

        let sources = (n - 2) as f64;
        let graph = &self.net.graph;
        let ncells = cells.input_len();
        let acc = map_reduce_grouped(
            self.cfg.parallelism,
            &items,
            || FusedDeltaEngine::new(graph, cells.clone()),
            || ExactAcc::new(ncells),
            |fused, acc, item| {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        acc.timed_out = true;
                        return;
                    }
                }
                fused.begin_with_bases(item.dest, &dep, |p| {
                    item.bases.iter().find(|(q, _)| *q == p).map(|(_, o)| &**o)
                });
                for (p, base) in fused.export_bases() {
                    if !item.bases.iter().any(|(q, _)| *q == p) {
                        acc.harvest.push((item.dest, p, Arc::new(base)));
                    }
                }
                for &m in &item.attackers {
                    if m == item.dest {
                        continue;
                    }
                    fused.attack(m);
                    for c in 0..ncells {
                        let (lower, upper) = fused.count_happy(c);
                        acc.lower[c] += lower as f64 / sources;
                        acc.upper[c] += upper as f64 / sources;
                    }
                    acc.pairs += 1;
                }
            },
            |a, b| a.merge(b),
        );
        if acc.timed_out {
            return Err(format!(
                "deadline exceeded ({} ms)",
                q.deadline_ms.unwrap_or(0)
            ));
        }
        // Harvest misses into the cache, in item order. `peek` guards the
        // rare case where two destinations... cannot collide (keys carry
        // the destination), but re-inserting a prewarmed entry twice
        // would double-count nothing either way.
        for (d, p, base) in acc.harvest {
            let key = key_of(d, p);
            if !self.cache.peek(&key) {
                self.cache.insert(key, base);
            }
        }
        let answers = (0..ncells)
            .map(|c| CellAnswer {
                cell: cells.lanes()[cells.lane_of(c)],
                lower: acc.lower[c] / acc.pairs.max(1) as f64,
                upper: acc.upper[c] / acc.pairs.max(1) as f64,
                hw_lower: 0.0,
                hw_upper: 0.0,
                pairs: acc.pairs,
            })
            .collect();
        Ok(("exact", acc.pairs, acc.pairs, answers))
    }

    /// Estimate path: stratified sampling of the pair universe with the
    /// query's budget and seed; confidence half-widths come back per cell.
    #[allow(clippy::type_complexity)]
    fn answer_estimate(
        &mut self,
        q: &Query,
        budget: u64,
        deadline: Option<Instant>,
    ) -> Result<(&'static str, u64, u64, Vec<CellAnswer>), String> {
        if let Some(dl) = deadline {
            // The adaptive loop has no abort hook; honor the deadline at
            // the query boundary (best effort, documented).
            if Instant::now() >= dl {
                return Err(format!(
                    "deadline exceeded ({} ms)",
                    q.deadline_ms.unwrap_or(0)
                ));
            }
        }
        let n = self.net.len();
        let dep = q.deployment(n);
        let cells = q.cell_set();
        let (full, simplex) = q.canonical_sets();
        let lane_policies: Vec<Policy> = {
            let mut ps: Vec<Policy> = cells.lanes().iter().map(|c| c.policy).collect();
            ps.dedup();
            ps
        };
        let mut bases: HashMap<AsId, Vec<(Policy, Arc<CachedBase>)>> = HashMap::new();
        for &d in &q.destinations {
            let mut found = Vec::new();
            for &p in &lane_policies {
                let key = CacheKey {
                    dest: d,
                    policy: p,
                    full: full.clone(),
                    simplex: simplex.clone(),
                };
                if let Some(base) = self.cache.get(&key) {
                    found.push((p, base.clone()));
                }
            }
            if !found.is_empty() {
                bases.insert(d, found);
            }
        }
        let universe = PairUniverse::new(&self.net, &q.attackers, &q.destinations);
        if universe.population() == 0 {
            return Err("no valid pairs in the estimation universe".into());
        }
        let eval = GridCellsEval {
            net: &self.net,
            deployment: &dep,
            cells: cells.clone(),
            bases,
            sources: (n - 2).max(1) as f64,
        };
        let cfg = EstimatorConfig::with_budget(budget, q.seed);
        let runs = estimate_adaptive_cells_eval(&universe, &cfg, &eval, self.cfg.parallelism);
        let mut pairs = 0;
        let answers: Vec<CellAnswer> = runs
            .iter()
            .enumerate()
            .map(|(c, run)| {
                let est = run.estimates[0];
                pairs = pairs.max(est.pairs);
                CellAnswer {
                    cell: cells.lanes()[cells.lane_of(c)],
                    lower: est.value.lower,
                    upper: est.value.upper,
                    hw_lower: est.halfwidth.lower,
                    hw_upper: est.halfwidth.upper,
                    pairs: est.pairs,
                }
            })
            .collect();
        Ok(("estimate", pairs, universe.population(), answers))
    }

    /// Serve frames until EOF or a shutdown request. Malformed messages
    /// get error replies; an unreadable frame (invalid UTF-8, an
    /// oversized length prefix — the stream may be desynced) gets a final
    /// error frame and a clean exit. Never panics on input.
    pub fn serve(&mut self, r: &mut impl Read, w: &mut impl Write) -> std::io::Result<()> {
        write_frame(w, &self.hello())?;
        loop {
            match read_frame(r) {
                Ok(None) => return Ok(()),
                Ok(Some(text)) => match self.handle(&text) {
                    Some(reply) => write_frame(w, &reply)?,
                    None => {
                        write_frame(
                            w,
                            &format!("{{\"op\":\"bye\",\"schema\":\"{PLANNER_SCHEMA}\"}}"),
                        )?;
                        return Ok(());
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    write_frame(w, &Self::encode_error(0, &format!("unreadable frame: {e}")))?;
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Internet {
        Internet::synthetic(200, 7)
    }

    #[test]
    fn tokens_round_trip() {
        for m in SecurityModel::ALL {
            assert_eq!(parse_model(model_token(m)).unwrap(), m);
        }
        for v in [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf] {
            assert_eq!(parse_variant(&variant_token(v)).unwrap(), v);
        }
        for s in [
            AttackStrategy::FakeLink,
            AttackStrategy::OriginHijack,
            AttackStrategy::FakePath { hops: 3 },
        ] {
            assert_eq!(parse_strategy(&strategy_token(s)).unwrap(), s);
        }
        // Degenerate forged paths canonicalize.
        assert_eq!(parse_strategy("path1").unwrap(), AttackStrategy::FakeLink);
        assert_eq!(
            parse_strategy("path0").unwrap(),
            AttackStrategy::OriginHijack
        );
        assert!(parse_model("sec9").is_err());
        assert!(parse_variant("lpx").is_err());
        assert!(parse_strategy("pathy").is_err());
    }

    #[test]
    fn query_parsing_validates() {
        let n = 100;
        let ok = Query::parse(
            "{\"op\":\"query\",\"id\":3,\"secure\":[1,2],\"attackers\":[5],\
             \"destinations\":[9],\"models\":[\"sec1\",\"sec2\"],\"variant\":\"lp2\",\
             \"strategies\":[\"hijack\"],\"budget\":50,\"seed\":11}",
            n,
        )
        .unwrap();
        assert_eq!(ok.id, 3);
        assert_eq!(ok.models.len(), 2);
        assert_eq!(ok.variant, LpVariant::LpK(2));
        assert_eq!(ok.budget, Some(50));
        assert_eq!(ok.seed, 11);

        // Defaults.
        let q = Query::parse(
            "{\"op\":\"query\",\"attackers\":[5],\"destinations\":[9]}",
            n,
        )
        .unwrap();
        assert_eq!(q.models, vec![SecurityModel::Security3rd]);
        assert_eq!(q.strategies, vec![AttackStrategy::FakeLink]);
        assert_eq!(q.budget, None);
        assert_eq!(q.id, 0);

        // JSON whitespace inside and around an id list.
        for frame in [
            "{\"op\":\"query\",\"secure\": [1, 2],\"attackers\":[5],\"destinations\":[9]}",
            "{\"op\":\"query\",\"secure\":[1, 2],\"attackers\":[5],\"destinations\":[9]}",
        ] {
            let q = Query::parse(frame, n).unwrap();
            assert_eq!(q.secure, vec![AsId(1), AsId(2)], "{frame}");
        }
        // A present key holding no valid id list is an error naming it.
        for (frame, key) in [
            (
                "{\"op\":\"query\",\"secure\":[1,x],\"attackers\":[5],\"destinations\":[9]}",
                "secure",
            ),
            (
                "{\"op\":\"query\",\"attackers\":[18446744073709551621],\"destinations\":[9]}",
                "attackers",
            ),
        ] {
            let err = Query::parse(frame, n).unwrap_err();
            assert!(err.starts_with(key), "{frame} -> {err}");
        }

        // Rejections.
        for bad in [
            "{\"op\":\"query\",\"destinations\":[9]}",
            "{\"op\":\"query\",\"attackers\":[5]}",
            "{\"op\":\"query\",\"attackers\":[500],\"destinations\":[9]}",
            "{\"op\":\"query\",\"attackers\":[5,5],\"destinations\":[9]}",
            "{\"op\":\"query\",\"attackers\":[5],\"destinations\":[9,9]}",
            "{\"op\":\"query\",\"attackers\":[5],\"destinations\":[5]}",
            "{\"op\":\"query\",\"attackers\":[5],\"destinations\":[9],\"models\":[\"sec9\"]}",
        ] {
            assert!(Query::parse(bad, n).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn malformed_messages_get_error_replies() {
        let mut planner = Planner::new(tiny(), PlannerConfig::default());
        for bad in [
            "not json at all",
            "{}",
            "{\"op\":\"transmogrify\"}",
            "{\"op\":\"query\",\"id\":9}",
        ] {
            let reply = planner.handle(bad).expect("an error reply, not shutdown");
            assert!(reply.contains("\"op\":\"error\""), "{bad} -> {reply}");
        }
        // ... and the server still answers real queries afterwards.
        let reply = planner
            .handle("{\"op\":\"query\",\"id\":1,\"attackers\":[5],\"destinations\":[9]}")
            .unwrap();
        assert!(reply.contains("\"op\":\"reply\""), "{reply}");
        assert!(planner.handle("{\"op\":\"shutdown\"}").is_none());
    }

    #[test]
    fn cache_serves_repeat_queries() {
        let mut planner = Planner::new(tiny(), PlannerConfig::default());
        let q = "{\"op\":\"query\",\"id\":1,\"secure\":[1,2,3],\"attackers\":[5,6],\
                 \"destinations\":[9,10]}";
        let first = planner.handle(q).unwrap();
        let s0 = planner.cache_stats();
        assert_eq!(s0.hits, 0);
        assert!(s0.misses > 0);
        let second = planner.handle(q).unwrap();
        let s1 = planner.cache_stats();
        assert_eq!(first, second, "cache state changed the reply");
        assert_eq!(s1.misses, s0.misses, "warm query recomputed a base");
        assert!(s1.hits > 0);
    }

    #[test]
    fn eviction_keeps_replies_identical() {
        let cfg = PlannerConfig {
            cache_capacity: 1,
            ..PlannerConfig::default()
        };
        let mut small = Planner::new(tiny(), cfg);
        let mut big = Planner::new(tiny(), PlannerConfig::default());
        let queries = [
            "{\"op\":\"query\",\"id\":1,\"attackers\":[5],\"destinations\":[9,10,11]}",
            "{\"op\":\"query\",\"id\":2,\"attackers\":[5],\"destinations\":[9]}",
            "{\"op\":\"query\",\"id\":3,\"attackers\":[5],\"destinations\":[11,9]}",
        ];
        for q in queries {
            assert_eq!(small.handle(q), big.handle(q), "{q}");
        }
        assert!(
            small.cache_stats().evictions > 0,
            "capacity 1 never evicted"
        );
    }

    #[test]
    fn prewarm_counts_and_stats_op() {
        let cfg = PlannerConfig {
            prewarm: 20,
            ..PlannerConfig::default()
        };
        let mut planner = Planner::new(tiny(), cfg);
        assert!(planner.hello().contains("\"prewarmed\":20"));
        let stats = planner.handle("{\"op\":\"stats\"}").unwrap();
        assert!(stats.contains("\"hits\":0"), "{stats}");
        assert!(stats.contains("\"entries\":20"), "{stats}");
        // A baseline sec3 query over prewarmed destinations is all hits.
        let cp = planner.net().content_providers[0].0;
        let q = format!("{{\"op\":\"query\",\"id\":1,\"attackers\":[5],\"destinations\":[{cp}]}}");
        let reply = planner.handle(&q).unwrap();
        assert!(reply.contains("\"op\":\"reply\""), "{reply}");
        let s = planner.cache_stats();
        assert_eq!(s.misses, 0, "prewarmed destination missed");
        assert!(s.hits > 0);
    }
}
