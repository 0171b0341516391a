//! Experiment harness for the SIGCOMM'13 partial-deployment S\*BGP study.
//!
//! This crate turns `sbgp-core`'s per-pair primitives into the paper's
//! actual experiments:
//!
//! * [`Internet`] — a topology bundled with its Table 1 tier classification
//!   (synthetic, IXP-augmented, or loaded from a relationship file);
//! * [`sample`] — deterministic attacker/destination samplers (the paper's
//!   `M`, `M'` and `D` sets, subsampled reproducibly when full `V × V`
//!   enumeration is infeasible);
//! * [`scenario`] — the §5 deployment scenarios (Tier 1+2 rollouts, CP
//!   variants, Tier-2-only, all non-stubs, simplex-at-stubs);
//! * [`runner`] — the one map-reduce: a `std::thread::scope` worker pool
//!   that claims work items in chunks, keeps one reusable engine per
//!   worker, and merges chunk accumulators in a fixed order so results are
//!   bit-identical at any thread count (optionally panic-isolated);
//! * [`sweep`] — the pair-sample runners, one cell grid along one
//!   deployment sequence (a single policy is a one-cell grid, a single
//!   deployment a one-step sweep): per destination, each pair's first step
//!   is one compute per distinct computation of the cell grid, and a
//!   [`sbgp_core::SweepEngine`] per lane, adopted from that outcome,
//!   carries the remaining deployments incrementally — in any
//!   direction: the `metric_churn` variants serve wax-and-wane
//!   trajectories through the engine's retraction path and surface the
//!   merged per-run [`sbgp_core::SweepStats`];
//! * [`strategy`] — strategic attackers: per-pair optimal-strategy
//!   ladders over `k`-hop forged paths, and colluding announcer sets
//!   served by [`sbgp_core::AttackDeltaEngine::attack_set`];
//! * [`stats`] — the statistical estimation subsystem: tier-stratified
//!   pair sampling with nested without-replacement prefixes, streaming
//!   per-stratum Welford accumulators, population-weighted recombination
//!   with confidence intervals, and adaptive sample growth — one round
//!   loop, and one kernel ([`stats::SweepCellsEval`]) that every
//!   estimator, runner and campaign worker drives;
//! * [`supervise`] — the crash-contained distributed campaign: a
//!   coordinator sharding destination groups across supervised worker
//!   processes (watchdogs, exponential-backoff respawn, K-strikes
//!   degradation) with bit-identical merging, plus checkpoint content
//!   checksums;
//! * [`faultpoint`] — seeded deterministic fault injection (compiled to
//!   no-ops without the `fault-injection` feature) for exercising the
//!   recovery paths;
//! * [`serve`] — the deployment-planner what-if service: a long-running
//!   [`serve::Planner`] that caches normal-conditions outcomes per
//!   destination (exact-keyed LRU) and answers "what if I deploy at S?"
//!   queries over length-prefixed JSON frames by serving delta patches
//!   off the cached bases, with a documented bit-identical determinism
//!   contract;
//! * [`json`] — the one strict JSON pull reader (located errors, no
//!   tree) and string writer that every frame, checkpoint and campaign
//!   file goes through;
//! * [`experiments`] — one driver per figure/table, returning plain data
//!   that the `sbgp-bench` binaries print;
//! * [`report`] — aligned-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod faultpoint;
pub mod json;
pub mod report;
pub mod runner;
pub mod sample;
pub mod scenario;
pub mod serve;
pub mod stats;
pub mod strategy;
pub mod supervise;
pub mod sweep;
pub mod weights;

mod context;

pub use context::Internet;
pub use runner::Parallelism;

pub use sbgp_core as core;
pub use sbgp_topology as topology;
