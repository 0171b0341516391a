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
//!   plus happy bounds) is fetched from the cache (keyed by the exact
//!   `(destination, deployment, policy)` cell, one key for all security
//!   models at a deployment without a full member, where they collapse)
//!   and adopted via [`sbgp_core::FusedDeltaEngine::begin_with_bases`] /
//!   [`sbgp_core::AttackDeltaEngine::begin_from_base`], skipping the route
//!   computation. Computation heads whose keys coincide share one probe;
//! * a destination that signs at neither level (in neither the full nor
//!   the simplex list) is keyed at `S = ∅` under Sec 3rd: a route is
//!   secure only when every AS on it signs, the origin included (§2.2),
//!   so by Theorem 2.1 its outcome is the `S = ∅` one under every model
//!   and at every deployment. Its entry also keeps the happy counts of
//!   every `(attacker, strategy)` it has answered, which depend on nothing
//!   else there: a pair found there is served from them
//!   ([`CacheStats::answered`]), the destination's engine `begin` is
//!   skipped when every one of its pairs is, and the counts the engines
//!   serve are kept after the pass, in item order. The answers live and
//!   are evicted with their entry;
//! * an exact-path miss is derived from the nearest cached base of the
//!   same destination and keyed policy — the entry whose full and simplex
//!   lists differ least from the query's, ties broken by those lists — by
//!   one [`SweepEngine`] advance ([`CachedBase::advanced`]): Theorem 2.1
//!   makes the advanced base exact, and the advance's own patch budget
//!   decides between a region patch ("my deployment plus this AS") and a
//!   compute. Derived bases are attached like hits and cached; a miss with
//!   no same-cell entry is computed once in the pass and harvested back
//!   into the cache. The probe still counts a derived base as a miss
//!   ([`CacheStats::derived`] counts the subset);
//! * each suspected attacker is then a contested-region **patch**, and
//!   one fused pass serves every `(model, strategy)` cell of the query at
//!   once — through [`crate::stats::SweepCellsEval`], the one-step case
//!   of the kernel every runner and estimator drives;
//! * when the `attackers × destinations` pair universe is large, the
//!   query opts into the stratified estimator (`"budget"`): tier-strata,
//!   Feistel without-replacement sampling, Welford accumulators and
//!   population-weighted recombination with confidence intervals, all
//!   from [`crate::stats`]. A sampled destination whose base is cached is
//!   patched off it; the others run plain computes, as every estimator
//!   does (the estimate path never derives bases: most destinations it
//!   would derive for are never sampled).
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
//! {"op":"stats"}                          // cache hit/miss/eviction/derived/answered counters
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
//! Frames are read by the strict reader of [`crate::json`]: any JSON
//! whitespace and string escapes are accepted, and keys the planner does
//! not know are skipped, but a repeated key, bytes after the object, a
//! leading zero, a sign or fraction where a count belongs, or an id past
//! the graph is an error. A malformed message is rejected with a clean
//! `{"op":"error",...}` reply whose message names the key and the byte
//! offset it concerns (`"attackers: byte 40: id 900 out of range ..."`),
//! wherever the frame's `op` key sits. A frame that is not an object, or
//! an object that reads cleanly without an `op` string, gets
//! `"malformed message: no op field"`. Never a crash, and the server keeps
//! answering.
//!
//! # Determinism contract
//!
//! Same snapshot + same query ⇒ **bit-identical** reply, at any cache
//! state and any [`Parallelism`]. Cache adoption is exact: an adopted
//! normal outcome is bit-identical to a freshly computed one (the engines
//! are deterministic), and so is a derived one (the stable state is
//! unique, whichever cached base the advance starts from), and so are the
//! counts kept at `S = ∅` (an unsigned destination's outcome is the
//! `S = ∅` one everywhere; `tests/theorems.rs` pins that property);
//! `tests/planner.rs` pins all three. The exact path merges per-destination
//! accumulators in item order, and the estimate path inherits the
//! chunk-order reduction of [`crate::stats`].
//! Timing never appears in a reply (the `"stats"` op is the explicitly
//! cache-state-dependent exception). A `"deadline_ms"` overrun turns the
//! reply into an error frame instead of a partial answer, so successful
//! replies stay deterministic.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbgp_core::{
    AttackStrategy, CachedBase, CellSet, Deployment, LpVariant, Policy, PolicyCell, SecurityModel,
    SweepEngine,
};
use sbgp_topology::AsId;

use crate::json::{self, JsonError, Reader};
use crate::runner::{map_reduce, Parallelism};
use crate::stats::{
    estimate_adaptive_cells_eval, CellEval, EstimatorConfig, PairUniverse, SweepCellsEval,
};
use crate::supervise::{read_frame, write_frame};
use crate::Internet;

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

/// Read a list of vocabulary tokens through `parse`.
fn tokens<T>(
    r: &mut Reader<'_>,
    parse: fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, JsonError> {
    let mut out = Vec::new();
    r.list(|r| {
        out.push(r.read_as(Reader::str, |s| parse(&s))?);
        Ok(())
    })?;
    Ok(out)
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
    /// per-AS outcome, and an entry keyed at `S = ∅` at most one kept
    /// answer per attacker and strategy, so memory stays
    /// `O(capacity × n)`).
    pub cache_capacity: usize,
    /// Destinations to pre-warm at boot: baseline (`S = ∅`) LP normal
    /// outcomes, which every security model shares there, for the content
    /// providers first, then the lowest ids — the cells baseline what-if
    /// queries hit first.
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
    /// Base lookups whose exact key was not cached (the base was then
    /// derived or computed, and cached).
    pub misses: u64,
    /// Misses derived from the nearest cached base of the same destination
    /// and policy by one deployment-sweep advance instead of a fresh
    /// compute (a subset of `misses`).
    pub derived: u64,
    /// Pairs served from the happy counts an entry keyed at `S = ∅` kept
    /// when it answered them before, with no engine work.
    pub answered: u64,
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

impl CacheKey {
    /// The key of `dest`'s base under `policy` at the canonical deployment
    /// `(full, simplex)`. A route is secure only when every AS on it signs,
    /// the origin included (§2.2), and the stable state is unique
    /// (Theorem 2.1), so a destination that signs at neither level has its
    /// `S = ∅` outcome under every model and at every deployment: it is
    /// keyed at the empty deployment. Without a full member the security
    /// models collapse onto one computation ([`CellSet::computations`]), so
    /// one representative model, Sec 3rd, keys them all.
    fn new(dest: AsId, policy: Policy, (full, simplex): &(Vec<AsId>, Vec<AsId>)) -> CacheKey {
        let signs = full.binary_search(&dest).is_ok() || simplex.binary_search(&dest).is_ok();
        let (full, simplex) = match signs {
            true => (full.clone(), simplex.clone()),
            false => (Vec::new(), Vec::new()),
        };
        let policy = if full.is_empty() {
            Policy::with_variant(SecurityModel::Security3rd, policy.variant)
        } else {
            policy
        };
        CacheKey {
            dest,
            policy,
            full,
            simplex,
        }
    }

    /// Whether the key sits at `S = ∅`, where a pair's happy counts depend
    /// on nothing but the key, the attacker and the strategy, so its entry
    /// keeps them ([`Answers`]).
    fn is_baseline(&self) -> bool {
        self.full.is_empty() && self.simplex.is_empty()
    }

    /// How many members the two keys' deployments differ by: the size of
    /// the symmetric difference of their full lists plus that of their
    /// simplex lists.
    fn distance(&self, other: &CacheKey) -> usize {
        sorted_symmetric_difference(&self.full, &other.full)
            + sorted_symmetric_difference(&self.simplex, &other.simplex)
    }
}

/// The deployment over `n` ASes with full members `full` and simplex
/// members `simplex` (full members win).
fn deployment_of(n: usize, full: &[AsId], simplex: &[AsId]) -> Deployment {
    let mut dep = Deployment::empty(n);
    for &v in full {
        dep.insert_full(v);
    }
    for &v in simplex {
        dep.insert_simplex(v);
    }
    dep
}

/// The size of the symmetric difference of two sorted, deduplicated lists.
fn sorted_symmetric_difference(a: &[AsId], b: &[AsId]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len() + b.len() - 2 * common
}

/// Bases attached to a query's pass, per destination, each under the
/// policy of the computation head that looked it up.
type Bases = HashMap<AsId, Vec<(Policy, Arc<CachedBase>)>>;

/// An attacker and the strategy it announces.
type Attack = (AsId, AttackStrategy);

/// The happy bounds `(lower, upper)` of the pairs an entry keyed at
/// `S = ∅` has answered, per attack.
type Answers = HashMap<Attack, (usize, usize)>;

struct CacheEntry {
    base: Arc<CachedBase>,
    /// Kept on `S = ∅` keys only: elsewhere a patch off the base costs
    /// little, and its answer belongs to one deployment.
    answers: Answers,
    stamp: u64,
}

/// What a query's probe of the cache found: the bases to attach, the keys
/// that missed (each with the computation heads that share it, in head
/// order), and the keys at `S = ∅`, hit or missed, in destination order.
struct Probe {
    bases: Bases,
    missed: Vec<(CacheKey, Vec<Policy>)>,
    baseline: Vec<CacheKey>,
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
    fn get(&mut self, key: &CacheKey) -> Option<&CacheEntry> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some(e) => {
                e.stamp = self.clock;
                self.stats.hits += 1;
                Some(e)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The entry nearest `key` (`CacheKey::distance`) among those of the
    /// same destination and keyed policy, ties broken by member lists, so
    /// the pick never depends on the map's iteration order. Not a use: no
    /// stamp moves and no counter.
    fn nearest(&self, key: &CacheKey) -> Option<(&CacheKey, &Arc<CachedBase>)> {
        self.entries
            .iter()
            .filter(|(k, _)| k.dest == key.dest && k.policy == key.policy)
            .min_by_key(|(k, _)| (k.distance(key), &k.full, &k.simplex))
            .map(|(k, e)| (k, &e.base))
    }

    /// Insert a freshly computed base, evicting the least recently used
    /// entry when over capacity.
    fn insert(&mut self, key: CacheKey, base: Arc<CachedBase>) {
        self.clock += 1;
        let stamp = self.clock;
        let answers = Answers::new();
        let entry = CacheEntry {
            base,
            answers,
            stamp,
        };
        self.entries.insert(key, entry);
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

    /// The answers `key`'s entry kept for `attackers` under each lane's
    /// strategy (empty when it is not cached). Not a use: no stamp moves.
    fn answers(&self, key: &CacheKey, attackers: &[AsId], lanes: &[PolicyCell]) -> Answers {
        let Some(e) = self.entries.get(key) else {
            return Answers::new();
        };
        attackers
            .iter()
            .flat_map(|&m| lanes.iter().map(move |l| (m, l.strategy)))
            .filter_map(|attack| Some((attack, *e.answers.get(&attack)?)))
            .collect()
    }

    /// Keep `counts` as the answer of `key`'s entry for `attack`, if the
    /// entry is still cached. Not a use: no stamp moves.
    fn keep(&mut self, key: &CacheKey, attack: Attack, counts: (usize, usize)) {
        if let Some(e) = self.entries.get_mut(key) {
            e.answers.insert(attack, counts);
        }
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

/// Read a list of graph ids, each in `[0, n)`.
fn ids(r: &mut Reader<'_>, n: usize) -> Result<Vec<AsId>, JsonError> {
    let mut out = Vec::new();
    r.list(|r| {
        out.push(r.read_as(Reader::u64, |v| match v < n as u64 {
            true => Ok(AsId(v as u32)),
            false => Err(format!("id {v} out of range (graph has {n} ASes)")),
        })?);
        Ok(())
    })?;
    Ok(out)
}

/// Reject an id listed twice under `key`, whose list starts at byte `at`.
fn reject_duplicates(ids: &[AsId], key: &str, at: usize) -> Result<(), String> {
    for (i, a) in ids.iter().enumerate() {
        if let Some(j) = ids[..i].iter().position(|b| b == a) {
            return Err(format!(
                "{key}: byte {at}: id {a} listed twice (items {} and {})",
                j + 1,
                i + 1
            ));
        }
    }
    Ok(())
}

/// What one strict pass made of a request frame: its `op` string with the
/// offset of that value, and its `id` (0 when absent), as far as the pass
/// got; then either the frame's first syntax error, or the query the frame
/// carries, itself an error when its fields make no query.
struct Request<'t> {
    op: Option<(usize, Cow<'t, str>)>,
    id: u64,
    read: Result<Result<Query, String>, String>,
}

impl<'t> Request<'t> {
    /// Read a request frame against a graph of `n` ASes. An error names
    /// the key it concerns, if any, and the byte where the problem lies;
    /// keys a request does not use are skipped.
    fn read(text: &'t str, n: usize) -> Request<'t> {
        let mut q = Query {
            id: 0,
            secure: Vec::new(),
            simplex: Vec::new(),
            attackers: Vec::new(),
            destinations: Vec::new(),
            models: vec![SecurityModel::Security3rd],
            variant: LpVariant::Standard,
            strategies: vec![AttackStrategy::FakeLink],
            budget: None,
            seed: 0,
            deadline_ms: None,
        };
        // The key whose value failed to read, and where the two required
        // lists start (for the errors about their contents).
        let (mut op, mut failed, mut attackers_at, mut destinations_at) = (None, None, None, None);
        let read = Reader::parse(text, |r| {
            r.object(|key, r| {
                let at = r.at();
                let read = match key {
                    "op" => r.str().map(|v| op = Some((at, v))),
                    "id" => r.u64().map(|v| q.id = v),
                    "secure" => ids(r, n).map(|v| q.secure = v),
                    "simplex" => ids(r, n).map(|v| q.simplex = v),
                    "attackers" => {
                        attackers_at = Some(at);
                        ids(r, n).map(|v| q.attackers = v)
                    }
                    "destinations" => {
                        destinations_at = Some(at);
                        ids(r, n).map(|v| q.destinations = v)
                    }
                    "models" => tokens(r, parse_model).map(|v| {
                        if !v.is_empty() {
                            q.models = v;
                        }
                    }),
                    "variant" => r
                        .read_as(Reader::str, |s| parse_variant(&s))
                        .map(|v| q.variant = v),
                    "strategies" => tokens(r, parse_strategy).map(|v| {
                        if !v.is_empty() {
                            q.strategies = v;
                        }
                    }),
                    "budget" => r.u64().map(|b| q.budget = (b > 0).then_some(b)),
                    "seed" => r.u64().map(|v| q.seed = v),
                    "deadline_ms" => r.u64().map(|ms| q.deadline_ms = (ms > 0).then_some(ms)),
                    _ => r.skip().map(drop),
                };
                if read.is_err() {
                    failed = Some(key.to_string());
                }
                read
            })
        });
        let id = q.id;
        let read = match read {
            Ok(end) => Ok(validate(q, n, end, attackers_at, destinations_at)),
            Err(e) => Err(match &failed {
                Some(key) => format!("{key}: {e}"),
                None => e.to_string(),
            }),
        };
        Request { op, id, read }
    }
}

/// Check that a query read from an object ending at byte `end` asks
/// something answerable on a graph of `n` ASes. `attackers_at` and
/// `destinations_at` are where those lists start, if present.
fn validate(
    q: Query,
    n: usize,
    end: usize,
    attackers_at: Option<usize>,
    destinations_at: Option<usize>,
) -> Result<Query, String> {
    if n < 3 {
        return Err(format!("graph has {n} ASes; the metric needs at least 3"));
    }
    let attackers_at = attackers_at.unwrap_or(end);
    let destinations_at = destinations_at.unwrap_or(end);
    if q.attackers.is_empty() {
        return Err(format!(
            "attackers: byte {attackers_at}: need at least one suspected attacker"
        ));
    }
    if q.destinations.is_empty() {
        return Err(format!(
            "destinations: byte {destinations_at}: need at least one destination"
        ));
    }
    reject_duplicates(&q.attackers, "attackers", attackers_at)?;
    reject_duplicates(&q.destinations, "destinations", destinations_at)?;
    if q.models.len() * q.strategies.len() > 64 {
        return Err(format!(
            "byte {end}: {} models x {} strategies exceeds the 64-cell per-query cap",
            q.models.len(),
            q.strategies.len()
        ));
    }
    let pairs_exist = q
        .destinations
        .iter()
        .any(|d| q.attackers.iter().any(|m| m != d));
    if !pairs_exist {
        return Err(format!(
            "destinations: byte {destinations_at}: no valid pairs: every attacker equals \
             every destination"
        ));
    }
    Ok(q)
}

impl Query {
    /// Parse a `{"op":"query",...}` message against a graph of `n` ASes.
    /// An error names the key it concerns, if any, and the byte where the
    /// problem lies; keys a query does not use are skipped.
    pub fn parse(text: &str, n: usize) -> Result<Query, String> {
        Request::read(text, n).read.and_then(|q| q)
    }

    /// The query's deployment (full members win over simplex).
    pub fn deployment(&self, n: usize) -> Deployment {
        deployment_of(n, &self.secure, &self.simplex)
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

/// Exact-path accumulator, merged in item order (deterministic at any
/// [`Parallelism`]).
struct ExactAcc {
    lower: Vec<f64>,
    upper: Vec<f64>,
    pairs: u64,
    /// Pairs served from kept answers.
    answered: u64,
    harvest: Vec<(CacheKey, Arc<CachedBase>)>,
    /// Counts the engines served for destinations keyed at `S = ∅`, to
    /// keep: `(key, (attacker, strategy), counts)`.
    answers: Vec<(CacheKey, Attack, (usize, usize))>,
    timed_out: bool,
}

impl ExactAcc {
    fn new(cells: usize) -> ExactAcc {
        ExactAcc {
            lower: vec![0.0; cells],
            upper: vec![0.0; cells],
            pairs: 0,
            answered: 0,
            harvest: Vec::new(),
            answers: Vec::new(),
            timed_out: false,
        }
    }

    /// Add one pair's happy counts for input cell `c`.
    fn add(&mut self, c: usize, (lower, upper): (usize, usize), sources: f64) {
        self.lower[c] += lower as f64 / sources;
        self.upper[c] += upper as f64 / sources;
    }

    fn merge(&mut self, o: ExactAcc) {
        for (a, b) in self.lower.iter_mut().zip(&o.lower) {
            *a += b;
        }
        for (a, b) in self.upper.iter_mut().zip(&o.upper) {
            *a += b;
        }
        self.pairs += o.pairs;
        self.answered += o.answered;
        self.harvest.extend(o.harvest);
        self.answers.extend(o.answers);
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
                CacheKey::new(d, policy, &(Vec::new(), Vec::new())),
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
        let mut graph = String::new();
        json::write_str(&mut graph, &self.net.name);
        format!(
            "{{\"op\":\"ready\",\"schema\":\"{PLANNER_SCHEMA}\",\"graph\":{graph},\"asns\":{},\
             \"cache_capacity\":{},\"prewarmed\":{}}}",
            self.net.len(),
            self.cfg.cache_capacity,
            self.prewarmed
        )
    }

    fn encode_error(id: u64, msg: &str) -> String {
        let mut s =
            format!("{{\"op\":\"error\",\"schema\":\"{PLANNER_SCHEMA}\",\"id\":{id},\"error\":");
        json::write_str(&mut s, msg);
        s.push('}');
        s
    }

    /// Handle one message; `None` means a clean shutdown request.
    pub fn handle(&mut self, text: &str) -> Option<String> {
        let Request { op, id, read } = Request::read(text, self.net.len());
        let Some((at, op)) = op else {
            // A frame that opens as an object gets its first located
            // error, wherever its `op` key sits; other text, or an object
            // that reads cleanly without one, has no op to speak of.
            let msg = match read {
                Err(e) if json::opens_object(text) => format!("malformed message: {e}"),
                _ => "malformed message: no op field".to_string(),
            };
            return Some(Self::encode_error(id, &msg));
        };
        match (&*op, read) {
            ("query", read) => Some(match read.and_then(|q| q) {
                Ok(q) => self.answer(&q),
                Err(e) => Self::encode_error(id, &e),
            }),
            (_, Err(e)) => Some(Self::encode_error(id, &format!("malformed message: {e}"))),
            ("shutdown", Ok(_)) => None,
            ("stats", Ok(_)) => {
                let s = self.cache.stats;
                Some(format!(
                    "{{\"op\":\"stats\",\"schema\":\"{PLANNER_SCHEMA}\",\"hits\":{},\"misses\":{},\
                     \"evictions\":{},\"entries\":{},\"queries\":{},\"derived\":{},\
                     \"answered\":{}}}",
                    s.hits,
                    s.misses,
                    s.evictions,
                    self.cache.entries.len(),
                    self.queries,
                    s.derived,
                    s.answered
                ))
            }
            (other, Ok(_)) => Some(Self::encode_error(
                id,
                &format!("byte {at}: unknown op {other:?}"),
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

    /// Probe the cache for a query at `dep` with canonical member lists
    /// `sets`: the bases found, per destination (destinations with none
    /// are absent), cloned so the parallel pass owns its inputs; the keys
    /// that missed, in destination order; and the keys at `S = ∅`. Only
    /// computation heads look a base up, and heads whose keys coincide (an
    /// unsigned destination's) share one probe: one hit or miss per
    /// distinct key. A found base is attached under each head's policy.
    fn cached_bases(
        &mut self,
        q: &Query,
        dep: &Deployment,
        cells: &CellSet,
        sets: &(Vec<AsId>, Vec<AsId>),
    ) -> Probe {
        let (comps, _) = cells.computations(dep);
        let heads: Vec<Policy> = comps
            .iter()
            .enumerate()
            .filter(|&(ci, comp)| comp.base == ci)
            .map(|(_, comp)| comp.cell.policy)
            .collect();
        let mut probe = Probe {
            bases: Bases::new(),
            missed: Vec::new(),
            baseline: Vec::new(),
        };
        for &d in &q.destinations {
            let mut keys: Vec<(CacheKey, Vec<Policy>)> = Vec::new();
            for &policy in &heads {
                let key = CacheKey::new(d, policy, sets);
                match keys.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, shared)) => shared.push(policy),
                    None => keys.push((key, vec![policy])),
                }
            }
            for (key, policies) in keys {
                if key.is_baseline() {
                    probe.baseline.push(key.clone());
                }
                let Some(entry) = self.cache.get(&key) else {
                    probe.missed.push((key, policies));
                    continue;
                };
                let attached = probe.bases.entry(d).or_default();
                attached.extend(policies.into_iter().map(|p| (p, entry.base.clone())));
            }
        }
        probe
    }

    /// Derive the bases the exact probe `missed` from the nearest cached
    /// base of the same destination and keyed policy (`NormalCache::nearest`),
    /// one [`CachedBase::advanced`] each on a per-query [`SweepEngine`]:
    /// exact by Theorem 2.1, a region patch when the deployments are close
    /// and one compute when the advance's own budget says they are not.
    /// Derived bases join `bases` like hits, under every head that shares
    /// the key, and are cached in destination order; keys with no
    /// same-cell entry are left to the pass.
    fn derive_bases(&mut self, missed: Vec<(CacheKey, Vec<Policy>)>, bases: &mut Bases) {
        let n = self.net.len();
        let mut sweep = None;
        let mut derived = Vec::new();
        for (key, policies) in missed {
            let Some((near, base)) = self.cache.nearest(&key) else {
                continue;
            };
            let sweep = sweep.get_or_insert_with(|| SweepEngine::new(&self.net.graph));
            // The advance runs under the keyed policy, to the keyed
            // deployment: a collapsed key's entry may hold a Sec-3rd base
            // at a deployment with full members, which is no base for the
            // head's own model there.
            let from = deployment_of(n, &near.full, &near.simplex);
            let to = deployment_of(n, &key.full, &key.simplex);
            let base = Arc::new(base.advanced(sweep, &from, &to, key.policy));
            let attached = bases.entry(key.dest).or_default();
            attached.extend(policies.into_iter().map(|p| (p, base.clone())));
            derived.push((key, base));
        }
        self.cache.stats.derived += derived.len() as u64;
        for (key, base) in derived {
            self.cache.insert(key, base);
        }
    }

    /// Exact path: enumerate every `m ≠ d` pair, one fused pass per
    /// destination, bases adopted from (and harvested into) the cache. A
    /// destination keyed at `S = ∅` serves the pairs its entry kept an
    /// answer for from those counts, and skips its `begin` when that is
    /// every pair; the engines serve the rest, and their counts are kept
    /// after the pass.
    #[allow(clippy::type_complexity)]
    fn answer_exact(
        &mut self,
        q: &Query,
        deadline: Option<Instant>,
    ) -> Result<(&'static str, u64, u64, Vec<CellAnswer>), String> {
        let n = self.net.len();
        let dep = q.deployment(n);
        let cells = q.cell_set();
        let sets = q.canonical_sets();
        let Probe {
            mut bases,
            missed,
            baseline,
        } = self.cached_bases(q, &dep, &cells, &sets);
        // Each destination keyed at `S = ∅`: its key and the answers its
        // entry kept for the query's pairs.
        let kept: HashMap<AsId, (CacheKey, Answers)> = baseline
            .into_iter()
            .map(|key| {
                let answers = self.cache.answers(&key, &q.attackers, cells.lanes());
                (key.dest, (key, answers))
            })
            .collect();
        self.derive_bases(missed, &mut bases);
        let eval = SweepCellsEval::from_cells(&self.net, std::slice::from_ref(&dep), cells.clone())
            .with_bases(bases);
        let sources = (n - 2) as f64;
        let ncells = cells.input_len();
        let strategy_of: Vec<AttackStrategy> = (0..ncells)
            .map(|c| cells.lanes()[cells.lane_of(c)].strategy)
            .collect();
        let acc = map_reduce(
            self.cfg.parallelism,
            &q.destinations,
            1,
            || eval.make_worker(),
            || ExactAcc::new(ncells),
            |w, acc, &d| {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        acc.timed_out = true;
                        return;
                    }
                }
                let kept = kept.get(&d);
                // Each pair's kept counts per input cell, when every
                // cell's strategy has one.
                let pairs: Vec<(AsId, Option<Vec<(usize, usize)>>)> = q
                    .attackers
                    .iter()
                    .filter(|&&m| m != d)
                    .map(|&m| {
                        let counts = kept.and_then(|(_, k)| {
                            strategy_of
                                .iter()
                                .map(|&s| k.get(&(m, s)).copied())
                                .collect()
                        });
                        (m, counts)
                    })
                    .collect();
                // Kept answers spare the engines' `begin` only when they
                // serve every pair: a destination with no pair still
                // begins, so a base it missed is harvested.
                let served = !pairs.is_empty() && pairs.iter().all(|(_, c)| c.is_some());
                if !served {
                    let mine = acc.harvest.len();
                    for (p, base) in eval.begin_exporting(w, d) {
                        let key = CacheKey::new(d, p, &sets);
                        // Heads sharing an unsigned destination's key
                        // computed the same base: harvest it once (keys
                        // of different destinations never coincide).
                        if acc.harvest[mine..].iter().all(|(k, _)| *k != key) {
                            acc.harvest.push((key, Arc::new(base)));
                        }
                    }
                }
                for (m, counts) in pairs {
                    match counts {
                        Some(counts) => {
                            for (c, &counts) in counts.iter().enumerate() {
                                acc.add(c, counts, sources);
                            }
                            acc.answered += 1;
                        }
                        None => eval.serve_pair(w, m, d, &mut |c, _, counts| {
                            acc.add(c, counts, sources);
                            if let Some((key, _)) = kept {
                                acc.answers.push((key.clone(), (m, strategy_of[c]), counts));
                            }
                        }),
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
        // Harvest the computed bases into the cache, in item order. Each
        // key missed this query's probe, the probe looked each distinct key
        // up once, and destinations are distinct, so none repeats. Then
        // keep the counts the engines served at `S = ∅` keys, in item
        // order.
        for (key, base) in acc.harvest {
            self.cache.insert(key, base);
        }
        for (key, attack, counts) in acc.answers {
            self.cache.keep(&key, attack, counts);
        }
        self.cache.stats.answered += acc.answered;
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
        let dep = q.deployment(self.net.len());
        let cells = q.cell_set();
        let bases = self
            .cached_bases(q, &dep, &cells, &q.canonical_sets())
            .bases;
        let universe = PairUniverse::new(&self.net, &q.attackers, &q.destinations);
        if universe.population() == 0 {
            return Err("no valid pairs in the estimation universe".into());
        }
        // Sampled destination groups whose normal outcome is cached adopt
        // it. (The estimate path reads the cache but does not populate it:
        // harvested bases would arrive in sample order, not query order.)
        let eval = SweepCellsEval::from_cells(&self.net, std::slice::from_ref(&dep), cells.clone())
            .with_bases(bases);
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
        // Keys of a nested object never shadow the top-level fields.
        let nested = Query::parse(
            "{\"op\":\"query\",\"attackers\":[5],\"destinations\":[9],\
             \"opts\":{\"seed\":4,\"budget\":7},\"seed\":11}",
            n,
        )
        .unwrap();
        assert_eq!(nested.seed, 11);
        assert_eq!(nested.budget, None);

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
        // Python's default `json.dumps` separators (", " and ": ") parse
        // exactly like the compact form.
        let spaced = Query::parse(
            "{\"op\": \"query\", \"attackers\": [1], \"destinations\": [2], \
             \"models\": [\"sec1\"], \"variant\": \"lp2\", \"budget\": 500, \"seed\": 9}",
            n,
        )
        .unwrap();
        let compact = Query::parse(
            "{\"op\":\"query\",\"attackers\":[1],\"destinations\":[2],\
             \"models\":[\"sec1\"],\"variant\":\"lp2\",\"budget\":500,\"seed\":9}",
            n,
        )
        .unwrap();
        assert_eq!(format!("{spaced:?}"), format!("{compact:?}"));
        assert_eq!(spaced.models, vec![SecurityModel::Security1st]);
        assert_eq!(spaced.variant, LpVariant::LpK(2));
        assert_eq!(spaced.budget, Some(500));
        assert_eq!(spaced.seed, 9);
        let listed = Query::parse(
            "{\"attackers\": [1], \"destinations\": [2], \
             \"models\" : [ \"sec1\" , \"sec2\" ], \"strategies\": [\"hijack\"], \"id\": 4}",
            n,
        )
        .unwrap();
        assert_eq!(
            listed.models,
            vec![SecurityModel::Security1st, SecurityModel::Security2nd]
        );
        assert_eq!(listed.strategies, vec![AttackStrategy::OriginHijack]);
        assert_eq!(listed.id, 4);

        // A present key holding no valid value is an error naming it.
        for (frame, key) in [
            (
                "{\"op\":\"query\",\"secure\":[1,x],\"attackers\":[5],\"destinations\":[9]}",
                "secure",
            ),
            (
                "{\"op\":\"query\",\"attackers\":[18446744073709551621],\"destinations\":[9]}",
                "attackers",
            ),
            (
                "{\"attackers\":[5],\"destinations\":[9],\"budget\": \"x\"}",
                "budget",
            ),
            (
                "{\"attackers\":[5],\"destinations\":[9],\"models\": \"sec1\"}",
                "models",
            ),
            (
                "{\"attackers\":[5],\"destinations\":[9],\"strategies\":[hijack]}",
                "strategies",
            ),
            (
                "{\"attackers\":[5],\"destinations\":[9],\"variant\":2}",
                "variant",
            ),
            (
                "{\"attackers\":[5],\"destinations\":[9],\"seed\":-1}",
                "seed",
            ),
            (
                "{\"attackers\":[5],\"destinations\":[9],\"deadline_ms\":1.5}",
                "deadline_ms",
            ),
            (
                "{\"id\":\"7\",\"attackers\":[5],\"destinations\":[9]}",
                "id",
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
    fn errors_stay_located_wherever_op_sits() {
        let mut planner = Planner::new(tiny(), PlannerConfig::default());
        let error = |planner: &mut Planner, frame: &str| {
            let reply = planner.handle(frame).expect("an error reply, not shutdown");
            let prefix = "{\"op\":\"error\",\"schema\":\"planner-v1\",";
            assert!(reply.starts_with(prefix), "{frame} -> {reply}");
            reply
        };
        // `op` after the bad list: the pass stops before it reaches `op`.
        let reply = error(
            &mut planner,
            "{\"id\":3,\"attackers\":[1,x],\"op\":\"query\"}",
        );
        assert_eq!(
            reply,
            "{\"op\":\"error\",\"schema\":\"planner-v1\",\"id\":3,\"error\":\
             \"malformed message: attackers: byte 23: expected an unsigned integer\"}"
        );
        // Leading whitespace still opens an object.
        let reply = error(&mut planner, " \n{\"id\":4,\"op\":7}");
        assert!(
            reply.contains("\"error\":\"malformed message: op: byte 15"),
            "{reply}"
        );
        // Non-objects, and objects that read cleanly without an `op`,
        // have no op to speak of.
        for frame in ["this is not a planner message", "[1,2]", "{}", "{\"id\":5}"] {
            let reply = error(&mut planner, frame);
            assert!(
                reply.ends_with("\"error\":\"malformed message: no op field\"}"),
                "{frame} -> {reply}"
            );
        }
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

    #[test]
    fn nearest_entry_differs_least_then_comes_first() {
        let net = tiny();
        let policy = Policy::new(SecurityModel::Security1st);
        let key = |d: u32, full: &[u32], simplex: &[u32]| {
            let ids = |v: &[u32]| v.iter().map(|&x| AsId(x)).collect::<Vec<_>>();
            CacheKey::new(AsId(d), policy, &(ids(full), ids(simplex)))
        };
        let mut delta = sbgp_core::AttackDeltaEngine::new(&net.graph);
        delta.begin(AsId(0), &Deployment::empty(net.len()), policy);
        let base = Arc::new(delta.export_base());
        let mut cache = NormalCache::new(8);
        // Each destination signs in its entries' deployments.
        for k in [
            key(0, &[0, 1, 2, 4], &[]),
            key(0, &[0, 1, 2, 3], &[]),
            key(0, &[0, 1], &[]),
            key(0, &[0, 1, 2], &[5, 6]),
            key(10, &[0, 1, 2, 10], &[]),
        ] {
            cache.insert(k, base.clone());
        }
        // Three entries differ from {0, 1, 2} by one member; the first by
        // member lists wins, and another destination never qualifies.
        let (near, _) = cache.nearest(&key(0, &[0, 1, 2], &[])).unwrap();
        assert_eq!(near, &key(0, &[0, 1], &[]));
        let (near, _) = cache.nearest(&key(0, &[0, 1, 2], &[5])).unwrap();
        assert_eq!(near, &key(0, &[0, 1, 2], &[5, 6]));
        assert!(cache.nearest(&key(11, &[0, 1, 2, 11], &[])).is_none());
        // Without a full member the key collapses onto Sec 3rd: no Sec-1st
        // entry qualifies.
        assert!(cache.nearest(&key(0, &[], &[0, 1, 2])).is_none());
        // A destination that signs at neither level is keyed at S = ∅,
        // under Sec 3rd, whatever the deployment and model.
        let empty = CacheKey::new(
            AsId(0),
            Policy::new(SecurityModel::Security3rd),
            &(Vec::new(), Vec::new()),
        );
        assert_eq!(key(0, &[1, 2], &[3]), empty);
        assert!(empty.is_baseline() && !key(0, &[0], &[]).is_baseline());
        assert!(cache.nearest(&empty).is_none());
        assert_eq!(cache.stats, CacheStats::default(), "nearest counted a use");
    }

    #[test]
    fn unsigned_destination_probes_one_key() {
        // Sec 1st and Sec 3rd are two computations at a deployment with
        // full members, but destination 9 signs at neither level: both
        // heads share its S = ∅ key, so one probe, one miss, one entry.
        let query = |secure: &str| {
            format!(
                "{{\"op\":\"query\",\"id\":1,\"secure\":[{secure}],\
                 \"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"],\
                 \"attackers\":[5,6],\"destinations\":[9]}}"
            )
        };
        let mut planner = Planner::new(tiny(), PlannerConfig::default());
        let first = planner.handle(&query("1,2,3")).unwrap();
        let s = planner.cache_stats();
        assert_eq!((s.hits, s.misses, s.answered), (0, 1, 0), "{s:?}");
        assert_eq!(planner.cache.entries.len(), 1, "one entry per key");
        let key = planner.cache.entries.keys().next().unwrap();
        assert!(key.is_baseline() && key.dest == AsId(9), "{key:?}");
        // Two pairs × two strategies kept; a second deployment where 9
        // does not sign is served from them, no engine run.
        assert_eq!(
            planner.cache.entries.values().next().unwrap().answers.len(),
            4
        );
        let second = planner.handle(&query("1,2,4,7")).unwrap();
        assert_eq!(first, second, "an unsigned destination's answer moved");
        let s = planner.cache_stats();
        assert_eq!((s.hits, s.misses, s.answered), (1, 1, 2), "{s:?}");
        let mut cold = Planner::new(tiny(), PlannerConfig::default());
        assert_eq!(cold.handle(&query("1,2,4,7")).unwrap(), second);
    }

    #[test]
    fn collapsed_models_share_one_cache_entry() {
        // At S = ∅ the security models collapse onto one computation per
        // LP variant, so one cached base per destination serves them all.
        let query = |models: &str| {
            format!(
                "{{\"op\":\"query\",\"id\":1,\"models\":[{models}],\
                 \"strategies\":[\"fakelink\",\"path2\"],\"attackers\":[5,6],\
                 \"destinations\":[9,10]}}"
            )
        };
        let all = query("\"sec1\",\"sec2\",\"sec3\"");
        let mut cold = Planner::new(tiny(), PlannerConfig::default());
        let reply = cold.handle(&all).unwrap();
        let s = cold.cache_stats();
        assert_eq!(s.misses, 2, "one base per destination");
        assert_eq!(
            s.misses as usize,
            cold.cache.entries.len(),
            "misses vs bases"
        );
        assert_eq!(cold.handle(&all).unwrap(), reply);
        assert_eq!(cold.cache_stats().misses, s.misses, "a repeat missed");

        // Prewarmed Sec-3rd bases serve a query whose group head is Sec 1st.
        let mixed = query("\"sec1\",\"sec3\"");
        let n = tiny().len();
        let cfg = PlannerConfig {
            prewarm: n,
            ..PlannerConfig::default()
        };
        let mut warm = Planner::new(tiny(), cfg);
        let reply = warm.handle(&mixed).unwrap();
        assert_eq!(warm.cache_stats().misses, 0, "a prewarmed base missed");
        assert_eq!(warm.cache.entries.len(), n, "a duplicate base was cached");
        let mut fresh = Planner::new(tiny(), PlannerConfig::default());
        assert_eq!(reply, fresh.handle(&mixed).unwrap());
    }
}
