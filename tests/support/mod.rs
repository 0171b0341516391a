//! Helpers shared by the integration tests: reading planner replies, and
//! locating the product binaries the subprocess tests drive.

// Each test crate compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::Command;

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
