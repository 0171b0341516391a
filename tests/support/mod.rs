//! Helpers shared by the integration tests: reading planner replies,
//! locating the product binaries the subprocess tests drive, and a churn
//! trajectory whose wane never retraces its wax.

// Each test crate compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::Command;

use bgp_juice::prelude::*;
use bgp_juice::sim::json::Reader;

/// The `lower` and `upper` happy fractions of the first cell of a planner
/// reply frame, read strictly through the crate's JSON reader.
pub fn first_cell_bounds(reply: &str) -> (f64, f64) {
    let mut first = None;
    Reader::parse(reply, |r| {
        r.object(|key, r| match key {
            "cells" => r.list(|r| {
                let (mut lower, mut upper) = (None, None);
                r.object(|key, r| {
                    match key {
                        "lower" => lower = Some(r.f64()?),
                        "upper" => upper = Some(r.f64()?),
                        _ => {
                            r.skip()?;
                        }
                    }
                    Ok(())
                })?;
                first.get_or_insert((lower.expect("lower"), upper.expect("upper")));
                Ok(())
            }),
            _ => r.skip().map(drop),
        })
    })
    .expect("a well-formed reply");
    first.expect("a reply with at least one cell")
}

/// The cargo target directory the tests' builds use: `CARGO_TARGET_DIR`
/// when set (a relative value is taken against the workspace root, where
/// the builds run), `<workspace root>/target` otherwise.
pub fn target_dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    match std::env::var_os("CARGO_TARGET_DIR") {
        // Joining an absolute path replaces `root`.
        Some(dir) if !dir.is_empty() => root.join(dir),
        _ => root.join("target"),
    }
}

/// Build the debug binary `bin` of the `sbgp_bench` package (cached by
/// the shared target dir) and return its path under [`target_dir`].
pub fn bench_bin(bin: &str) -> PathBuf {
    let out = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["build", "--offline", "-q", "-p", "sbgp_bench", "--bin", bin])
        .output()
        .expect("spawn cargo build");
    assert!(
        out.status.success(),
        "{bin} failed to build:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    target_dir().join("debug").join(bin)
}

/// A wax-and-wane churn trajectory whose wane never retraces its wax:
/// `scenario::churn_trajectory`'s wax half, then a wane that retires the
/// ISPs that joined after the first rung (with their stubs) in the order
/// they joined, down to the first rung again. On a ladder whose rungs
/// differ, every wane step is a strict subset of the one before it, so no
/// wane step returns to the deployment before the step that led to it: a
/// sweep serves the wane as real retractions, where on
/// `churn_trajectory` it rewinds. The first rung, `tier2()[0]` among it,
/// signs at every step. `2 * peak - 1` steps.
pub fn retiring_churn_trajectory(net: &Internet, peak: usize) -> Vec<Deployment> {
    let mut steps = scenario::sweep_rollout_steps(net, peak);
    let t2 = net.tiers.tier2();
    // The ISPs of a rung are a prefix of the Tier 2 list.
    let rungs: Vec<usize> = steps
        .iter()
        .map(|s| t2.iter().take_while(|&&v| s.validates(v)).count())
        .collect();
    let (first, top) = (rungs[0], rungs[peak - 1]);
    for &retired in &rungs[1..] {
        let isps = [&t2[..first], &t2[retired..top]].concat();
        steps.push(scenario::isps_and_stubs(net, &isps));
    }
    steps
}
