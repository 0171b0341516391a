//! Core library for the SIGCOMM'13 *"BGP Security in Partial Deployment: Is
//! the Juice Worth the Squeeze?"* reproduction.
//!
//! This crate implements the paper's primary contribution — a framework for
//! quantifying how much security a *partial* S\*BGP deployment adds over
//! RPKI origin authentication:
//!
//! * [`policy`] — the three S\*BGP routing-policy models (**security 1st /
//!   2nd / 3rd**, §2.2.2) over the standard Gao–Rexford decision process,
//!   plus the Appendix K `LPk` local-preference variants.
//! * [`deployment`] — which ASes are secure, including **simplex S\*BGP**
//!   at stubs (§5.3.2: origin-signing without validation).
//! * [`attack`] — the threat model of §3.1 generalized along Goldberg et
//!   al.'s strategy taxonomy: `k`-hop forged paths (the paper's `"m, d"`
//!   fake link is `k = 1`, the pre-RPKI origin hijack `k = 0`) announced
//!   via legacy BGP by one attacker or a small set of colluding
//!   announcers.
//! * [`engine`] — the multi-stage two-rooted BFS of Appendix B that
//!   computes the unique stable routing outcome for a given (attacker,
//!   destination, deployment, policy) in `O(V + E)`.
//! * [`outcome`] — per-AS results: route class, length, security, and the
//!   happy/unhappy classification with tie-break lower/upper bounds
//!   (§4.1, Appendix C).
//! * [`partition`] — the doomed / protectable / immune partition of §4.3 /
//!   Appendix E, which bounds the metric over *every possible* deployment.
//! * [`analysis`] — protocol downgrades (§3.2, Appendix F), collateral
//!   benefits and damages (§6.1), and the root-cause decomposition of
//!   metric changes (§6.2, Figure 16).
//! * [`metric`] — the security metric `H_{M,D}(S)` of §4.1.
//! * [`sweep`] — the incremental deployment-sweep engine: for a fixed
//!   `(m, d, policy)`, recompute outcomes along a monotonically growing
//!   secure set by re-fixing only a dirty region (rollout curves cost a
//!   fraction of from-scratch recomputation).
//! * [`delta`] — the attacker-delta engine: for a fixed `(d, S, policy)`,
//!   compute the normal-conditions outcome at most once (deferred until
//!   the cell's second attacker, since a lone attacker is one direct
//!   compute either way) and serve every attacker
//!   `m ∈ M` by re-fixing only the contested region around its bogus
//!   announcement, with a touched-list snapshot restore between attackers.
//! * [`fused`] — the fused multi-cell pass: one call serves every policy
//!   cell (model × LP variant × strategy rung) of a
//!   `(destination, deployment)` pair at once, running one plain
//!   [`AttackDeltaEngine`] per distinct computation after collapsing
//!   behaviorally identical cells, so fused results are bit-identical to
//!   per-cell computes by construction.
//!
//! [`sweep`] and [`delta`] are the two axes of one amortization hierarchy
//! (deployment × attacker); `sbgp-sim` composes them destination-major —
//! the delta engine anchors each `(m, d)` pair's first step off the
//! destination's shared normal outcome, and a sweep adopted from that
//! patch ([`SweepEngine::begin_from`]) carries the remaining deployment
//! steps — so a whole rollout costs at most one base fix per destination
//! plus one anchor patch and `|S|−1` small sweep patches per pair.
//!
//! The crate is single-threaded by design; [`Engine`], [`SweepEngine`] and
//! [`AttackDeltaEngine`] instances hold reusable scratch and the
//! `sbgp-sim` crate runs one per worker thread to parallelize over
//! destinations and (attacker, destination) pairs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod attack;
pub mod delta;
pub mod deployment;
pub mod engine;
pub mod fused;
pub mod metric;
pub mod outcome;
pub mod partition;
pub mod policy;
mod region;
pub mod sweep;

pub use analysis::{PairAnalysis, PairAnalyzer};
pub use attack::{AttackScenario, AttackStrategy, MAX_ATTACKERS};
pub use delta::{AttackDeltaEngine, CachedBase, DeltaStats};
pub use deployment::Deployment;
pub use engine::Engine;
pub use fused::{CellSet, FusedDeltaEngine, FusedStats, PolicyCell};
pub use metric::{Bounds, HappyCount};
pub use outcome::{Outcome, RootFlags, RouteClass, RouteInfo};
pub use partition::{Fate, PartitionComputer, PartitionCounts};
pub use policy::{LpVariant, Policy, SecurityModel};
pub use sweep::{SweepEngine, SweepStats};

/// Re-export of the topology substrate this crate builds on.
pub use sbgp_topology as topology;
