//! **bgp-juice** — a full reproduction of *"BGP Security in Partial
//! Deployment: Is the Juice Worth the Squeeze?"* (Lychev, Goldberg,
//! Schapira; SIGCOMM 2013).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`topology`] — AS-graph substrate, Table 1 tiers, synthetic Internet
//!   generator, IXP augmentation, CAIDA serial-1 I/O;
//! * [`core`] — the paper's models and algorithms: security 1st/2nd/3rd
//!   routing policies, the Appendix B routing-outcome engine, the
//!   doomed/protectable/immune partition framework, downgrade/collateral
//!   analysis, the `H_{M,D}(S)` metric;
//! * [`proto`] — the event-driven message-level BGP/S\*BGP simulator
//!   (wedgies, convergence, link dynamics);
//! * [`sim`] — deployment scenarios, the parallel experiment harness and
//!   per-figure drivers;
//! * [`hardness`] — the Max-k-Security NP-hardness gadget and optimizers.
//!
//! # Quickstart
//!
//! ```
//! use bgp_juice::prelude::*;
//!
//! // A small synthetic Internet with the paper's UCLA-2012 shape.
//! let net = Internet::synthetic(1_000, 42);
//!
//! // Secure the Tier 1s, the 13 largest Tier 2s, and their stubs.
//! let step = scenario::tier12_step(&net, 13, 13);
//!
//! // How often does the "m, d" attack fail when security is 2nd?
//! let attackers = sample::sample_non_stubs(&net, 5, 7);
//! let dests = sample::sample_all(&net, 10, 8);
//! let pairs = sample::pairs(&attackers, &dests);
//! let h = runner::metric(
//!     &net,
//!     &pairs,
//!     &step.deployment,
//!     Policy::new(SecurityModel::Security2nd),
//!     Parallelism(1),
//! );
//! assert!(h.lower > 0.0 && h.upper <= 1.0);
//! ```
//!
//! See `README.md` for the architecture tour and the paper-to-crate
//! inventory. Measured-vs-paper results for every figure are regenerated
//! by `cargo run --release -p sbgp_bench --bin run_all` (one section per
//! figure/table on stdout).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sbgp_core as core;
pub use sbgp_hardness as hardness;
pub use sbgp_proto as proto;
pub use sbgp_sim as sim;
pub use sbgp_topology as topology;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use sbgp_core::{
        AttackDeltaEngine, AttackScenario, AttackStrategy, Bounds, CellSet, DeltaStats, Deployment,
        Engine, Fate, FusedDeltaEngine, FusedStats, HappyCount, LpVariant, Outcome, PairAnalysis,
        PairAnalyzer, PartitionComputer, Policy, PolicyCell, RouteClass, SecurityModel,
        SweepEngine, SweepStats,
    };
    pub use sbgp_sim::{runner, sample, scenario, stats, sweep, Internet, Parallelism};
    pub use sbgp_topology::{AsGraph, AsId, AsSet, GraphBuilder};
}
