//! Deliverable smoke tests.
//!
//! The workspace's real product is the set of figure/table binaries and
//! examples; a green `cargo test` on the libraries alone would not notice
//! a bin that no longer compiles. These tests shell out to cargo (sharing
//! the same target directory, so everything already built stays cached)
//! to assert that every registered target builds, and they run one figure
//! binary end-to-end on a tiny topology to guard the full
//! generator → sampler → engine → renderer pipeline.

use std::path::Path;
use std::process::Command;

fn cargo() -> Command {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")));
    cmd.arg("--offline");
    cmd
}

/// Every bin and example target in the workspace must compile.
#[test]
fn all_targets_build() {
    let out = cargo()
        .args(["build", "--workspace", "--bins", "--examples"])
        .output()
        .expect("failed to spawn cargo");
    assert!(
        out.status.success(),
        "cargo build --bins --examples failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One figure binary, end to end, on a 200-AS topology: the banner and a
/// rendered table must come out, and the process must exit 0.
#[test]
fn figure03_runs_end_to_end_on_tiny_topology() {
    let out = cargo()
        .args([
            "run",
            "-q",
            "-p",
            "sbgp_bench",
            "--bin",
            "figure03",
            "--",
            "--asns",
            "200",
            "--attackers",
            "2",
            "--destinations",
            "4",
            "--per-tier",
            "1",
            "--threads",
            "2",
        ])
        .output()
        .expect("failed to spawn cargo run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "figure03 exited nonzero:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("Figure 3"),
        "figure03 printed no banner:\n{stdout}"
    );
    assert!(
        stdout.lines().count() > 5,
        "figure03 output suspiciously short:\n{stdout}"
    );
}

/// The strategic-attacker table, end to end on a tiny topology, with the
/// `--strategy` flag exercised (it must show up in the banner when
/// non-default).
#[test]
fn table_strategy_ladder_runs_end_to_end_on_tiny_topology() {
    let out = cargo()
        .args([
            "run",
            "-q",
            "-p",
            "sbgp_bench",
            "--bin",
            "table_strategy_ladder",
            "--",
            "--asns",
            "200",
            "--attackers",
            "4",
            "--destinations",
            "6",
            "--threads",
            "2",
            "--strategy",
            "path2",
        ])
        .output()
        .expect("failed to spawn cargo run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "table_strategy_ladder exited nonzero:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("strategy ladder"),
        "table_strategy_ladder printed no banner:\n{stdout}"
    );
    assert!(
        stdout.contains("attack strategy: forged path (k=2)"),
        "--strategy flag not reflected in the banner:\n{stdout}"
    );
    assert!(
        stdout.contains("colluding pairs"),
        "collusion table missing:\n{stdout}"
    );
    assert!(
        stdout.contains("optimal"),
        "optimal column missing:\n{stdout}"
    );
}

/// The `--file` ingestion path, end to end on the committed CAIDA-style
/// fixture: parse → label-aware CP resolution → tier classification →
/// partition rendering, with the snapshot name in the banner.
#[test]
fn figure03_runs_end_to_end_on_the_committed_snapshot_fixture() {
    let out = cargo()
        .args([
            "run",
            "-q",
            "-p",
            "sbgp_bench",
            "--bin",
            "figure03",
            "--",
            "--file",
            "tests/fixtures/cyclops_sample.as-rel",
            "--cps",
            "15169,8075,20940,32934,16509",
            "--attackers",
            "3",
            "--destinations",
            "4",
            "--threads",
            "2",
        ])
        .output()
        .expect("failed to spawn cargo run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "figure03 --file exited nonzero:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("cyclops_sample"),
        "snapshot name missing from the banner:\n{stdout}"
    );
    assert!(
        stdout.contains("24 ASes"),
        "parsed AS count missing from the banner:\n{stdout}"
    );
    assert!(
        stdout.lines().count() > 5,
        "figure03 output suspiciously short:\n{stdout}"
    );
}

/// The wedgie exhibit, end to end: both the protocol-level hysteresis and
/// the engine-level recovery (Theorem 2.1) must be reported, and the new
/// adoption-churn section must drive the engine's retraction path.
#[test]
fn exhibit_wedgie_runs_end_to_end() {
    let out = cargo()
        .args(["run", "-q", "-p", "sbgp_bench", "--bin", "exhibit_wedgie"])
        .output()
        .expect("failed to spawn cargo run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exhibit_wedgie exited nonzero:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("wedged = true"),
        "hysteresis not exhibited:\n{stdout}"
    );
    assert!(
        stdout.contains("returns to intended = true"),
        "engine recovery line missing:\n{stdout}"
    );
}

/// The wedgie example walks the §2.3 gadget through fail → recover and
/// must land in the stuck state, then recover under uniform sec-1st.
#[test]
fn example_wedgie_runs_end_to_end() {
    let out = cargo()
        .args(["run", "-q", "--example", "wedgie"])
        .output()
        .expect("failed to spawn cargo run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "examples/wedgie exited nonzero:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("the system is wedged"),
        "wedged section missing:\n{stdout}"
    );
    assert!(
        stdout.contains("Theorem 2.1"),
        "uniform-priority recovery missing:\n{stdout}"
    );
}

/// The downgrade example reproduces Figure 2: sec-2nd/3rd abandon the
/// secure route under attack, sec-1st keeps it (Theorem 3.1).
#[test]
fn example_downgrade_attack_runs_end_to_end() {
    let out = cargo()
        .args(["run", "-q", "--example", "downgrade_attack"])
        .output()
        .expect("failed to spawn cargo run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "examples/downgrade_attack exited nonzero:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("PROTOCOL DOWNGRADE"),
        "downgrade not exhibited:\n{stdout}"
    );
    assert!(
        stdout.contains("Theorem 3.1"),
        "sec-1st immunity line missing:\n{stdout}"
    );
}

/// A bad snapshot path must be a clean diagnostic exit, not a panic.
#[test]
fn figure03_reports_missing_snapshots_cleanly() {
    let out = cargo()
        .args([
            "run",
            "-q",
            "-p",
            "sbgp_bench",
            "--bin",
            "figure03",
            "--",
            "--file",
            "tests/fixtures/no_such_file.as-rel",
        ])
        .output()
        .expect("failed to spawn cargo run");
    assert!(
        !out.status.success(),
        "missing snapshot should exit nonzero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot load snapshot"),
        "no diagnostic on stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "missing snapshot caused a panic:\n{stderr}"
    );
}
