//! Deterministic chaos suite for the supervised campaign.
//!
//! Builds the `campaign` binary with the `fault-injection` feature (into
//! its own target dir, so the plain binary used by `tests/campaign.rs`
//! is never clobbered) and replays scripted faults against a small grid:
//! worker crashes mid-cell, hangs past the watchdog, wrong-schema
//! replies, torn/corrupted/dropped checkpoint writes, and a persistent
//! failure that exhausts the retry ladder into a *degraded* cell.
//!
//! The invariant under test is always the same: after the fault (and,
//! for on-disk damage, one repair rerun) the campaign's estimates are
//! **byte-identical** to the fault-free in-process reference. Crashes
//! cost retries, never bits.

mod support;

use std::path::PathBuf;
use std::process::Command;

use support::{bench_bin, target_dir};

/// Build the fault-injection campaign binary into `fault-injection/`
/// under the tests' target dir.
fn campaign_bin() -> PathBuf {
    let target = target_dir().join("fault-injection");
    let mut build = Command::new(env!("CARGO"));
    build.current_dir(env!("CARGO_MANIFEST_DIR")).args([
        "build",
        "--offline",
        "-q",
        "-p",
        "sbgp_bench",
        "--bin",
        "campaign",
        "--features",
        "fault-injection",
        "--target-dir",
    ]);
    build.arg(&target);
    let out = build.output().expect("spawn cargo build");
    assert!(
        out.status.success(),
        "fault-injection campaign failed to build:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    target.join("debug").join("campaign")
}

/// Strip timing fields and the content checksums that cover them.
fn estimates_only(json: &str) -> String {
    json.lines()
        .filter(|l| {
            !(l.contains("wall_ms")
                || l.contains("pairs_per_sec")
                || l.contains("\"checksum\"")
                || l.contains("_this_run")
                || l.contains("\"resumed\""))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

struct Harness {
    bin: PathBuf,
    dir: PathBuf,
    reference: String,
}

impl Harness {
    /// Run the fixed test grid; `extra` supplies the per-case flags
    /// (`--workers`, `--fault-plan`, checkpoint dir, output name).
    fn run(&self, extra: &[&str]) -> (String, String, String) {
        let out_name = extra
            .iter()
            .skip_while(|a| **a != "--out")
            .nth(1)
            .expect("--out in extra");
        let out = Command::new(&self.bin)
            .current_dir(&self.dir)
            .args([
                "--figures",
                "baseline",
                "--asns",
                "300",
                "--seeds",
                "7",
                "--models",
                "sec1,sec2",
                "--pairs",
                "100",
                "--threads",
                "2",
            ])
            .args(extra)
            .output()
            .expect("spawn campaign");
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(
            out.status.success(),
            "campaign {extra:?} failed:\nstdout:\n{stdout}\nstderr:\n{stderr}"
        );
        let json = std::fs::read_to_string(self.dir.join(out_name)).expect("campaign JSON");
        (json, stdout, stderr)
    }

    fn plan(&self, name: &str, text: &str) -> String {
        std::fs::write(self.dir.join(name), text).expect("write plan");
        name.to_string()
    }

    fn assert_reference(&self, json: &str, case: &str) {
        assert_eq!(
            estimates_only(&self.reference),
            estimates_only(json),
            "{case}: estimates diverged from the fault-free reference"
        );
    }
}

/// The whole fault matrix, sequentially (each case uses its own
/// checkpoint dir, but sharing one scratch dir and one reference run
/// keeps the suite cheap and the ordering deterministic).
#[test]
fn fault_matrix_heals_to_bit_identical_estimates() {
    let dir = std::env::temp_dir().join(format!("sbgp_fault_matrix_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut h = Harness {
        bin: campaign_bin(),
        dir,
        reference: String::new(),
    };

    // Fault-free in-process reference.
    let (reference, _, _) = h.run(&["--checkpoint-dir", "ck_ref", "--out", "ref.json"]);
    assert!(reference.contains("\"degraded\": [],"));
    h.reference = reference.clone();

    // Case 1: worker aborts mid-cell → respawned and the task retried.
    let plan = h.plan(
        "abort.plan",
        "point=worker.eval proc=worker0 key=task0 hit=1 action=abort\n",
    );
    let (json, _, stderr) = h.run(&[
        "--workers",
        "1",
        "--fault-plan",
        &plan,
        "--checkpoint-dir",
        "ck_abort",
        "--out",
        "abort.json",
    ]);
    assert!(
        stderr.contains("strike 1/3") && stderr.contains("died"),
        "abort was not struck:\n{stderr}"
    );
    assert!(json.contains("\"degraded\": [],"), "abort did not heal");
    h.assert_reference(&json, "worker abort");

    // Case 2: worker hangs → the watchdog kills and reassigns it.
    let plan = h.plan(
        "hang.plan",
        "point=worker.eval proc=worker0 key=task0 hit=1 action=hang\n",
    );
    let (json, _, stderr) = h.run(&[
        "--workers",
        "1",
        "--watchdog-ms",
        "2000",
        "--fault-plan",
        &plan,
        "--checkpoint-dir",
        "ck_hang",
        "--out",
        "hang.json",
    ]);
    assert!(
        stderr.contains("watchdog expired"),
        "hang did not trip the watchdog:\n{stderr}"
    );
    assert!(json.contains("\"degraded\": [],"), "hang did not heal");
    h.assert_reference(&json, "worker hang");

    // Case 3: wrong-schema reply → struck and retried on a respawn
    // (the plan pins the first incarnation, so the retry runs clean).
    let plan = h.plan(
        "garbage.plan",
        "point=worker.reply proc=worker0 key=task1 hit=1 action=garbage\n",
    );
    let (json, _, stderr) = h.run(&[
        "--workers",
        "1",
        "--fault-plan",
        &plan,
        "--checkpoint-dir",
        "ck_garbage",
        "--out",
        "garbage.json",
    ]);
    assert!(
        stderr.contains("wrong-schema"),
        "garbage reply was not detected:\n{stderr}"
    );
    assert!(json.contains("\"degraded\": [],"), "garbage did not heal");
    h.assert_reference(&json, "wrong-schema reply");

    // Case 4: torn checkpoint write → quarantined and recomputed on the
    // next run.
    let plan = h.plan(
        "torn.plan",
        "point=ckpt.write proc=coord key=baseline_300_7_sec1 hit=1 action=torn\n",
    );
    let (_, _, stderr) = h.run(&[
        "--fault-plan",
        &plan,
        "--checkpoint-dir",
        "ck_torn",
        "--out",
        "torn1.json",
    ]);
    assert!(stderr.contains("tearing checkpoint"), "{stderr}");
    let (json, stdout, stderr) = h.run(&["--checkpoint-dir", "ck_torn", "--out", "torn2.json"]);
    assert!(
        stderr.contains("quarantined to") && stderr.contains("torn"),
        "torn checkpoint was not quarantined:\n{stderr}"
    );
    assert!(stdout.contains("1 computed, 1 resumed"), "{stdout}");
    assert!(h
        .dir
        .join("ck_torn/baseline_300_7_sec1.json.quarantined")
        .exists());
    h.assert_reference(&json, "torn checkpoint repair");

    // Case 5: silent single-byte corruption → caught by the content
    // checksum, quarantined, recomputed.
    let plan = h.plan(
        "corrupt.plan",
        "point=ckpt.write proc=coord key=baseline_300_7_sec2 hit=1 action=corrupt\n",
    );
    let (_, _, stderr) = h.run(&[
        "--fault-plan",
        &plan,
        "--checkpoint-dir",
        "ck_corrupt",
        "--out",
        "corrupt1.json",
    ]);
    assert!(stderr.contains("corrupting checkpoint"), "{stderr}");
    let (json, stdout, stderr) =
        h.run(&["--checkpoint-dir", "ck_corrupt", "--out", "corrupt2.json"]);
    assert!(
        stderr.contains("fails its content checksum"),
        "corruption was not caught:\n{stderr}"
    );
    assert!(stdout.contains("1 computed, 1 resumed"), "{stdout}");
    h.assert_reference(&json, "corrupt checkpoint repair");

    // Case 6: crash between tmp write and rename → the tmp file is left
    // behind, the cell is simply missing and recomputed.
    let plan = h.plan(
        "rename.plan",
        "point=ckpt.rename proc=coord key=baseline_300_7_sec1 hit=1 action=err\n",
    );
    let (_, _, stderr) = h.run(&[
        "--fault-plan",
        &plan,
        "--checkpoint-dir",
        "ck_rename",
        "--out",
        "rename1.json",
    ]);
    assert!(stderr.contains("simulated rename failure"), "{stderr}");
    assert!(h
        .dir
        .join("ck_rename/baseline_300_7_sec1.json.tmp")
        .exists());
    assert!(!h.dir.join("ck_rename/baseline_300_7_sec1.json").exists());
    let (json, stdout, _) = h.run(&["--checkpoint-dir", "ck_rename", "--out", "rename2.json"]);
    assert!(stdout.contains("1 computed, 1 resumed"), "{stdout}");
    h.assert_reference(&json, "dropped rename repair");

    // Case 7: a fault that survives every respawn exhausts the retry
    // ladder: the cell is marked degraded (the grid still validates),
    // and a clean rerun refuses the degraded checkpoint and repairs it.
    let plan = h.plan(
        "persistent.plan",
        "point=worker.eval proc=worker* key=task1 hit=all action=panic\n",
    );
    let (json, stdout, stderr) = h.run(&[
        "--workers",
        "2",
        "--fault-plan",
        &plan,
        "--checkpoint-dir",
        "ck_degrade",
        "--out",
        "degrade1.json",
    ]);
    assert!(
        stderr.contains("degraded after 3 strikes"),
        "ladder was not exhausted:\n{stderr}"
    );
    assert!(stdout.contains("DEGRADED"), "{stdout}");
    assert!(json.contains("\"degraded\": true,"));
    assert!(json.contains("\"degraded\": [\"baseline_300_7_sec1\", \"baseline_300_7_sec2\"],"));
    let status = Command::new(&h.bin)
        .current_dir(&h.dir)
        .args(["--validate", "degrade1.json"])
        .status()
        .expect("spawn validate");
    assert!(status.success(), "a degraded grid must still validate");
    let (json, stdout, _) = h.run(&["--checkpoint-dir", "ck_degrade", "--out", "degrade2.json"]);
    assert!(
        stdout.contains("recomputing to repair"),
        "degraded checkpoints were resumed:\n{stdout}"
    );
    assert!(
        stdout.contains("2 computed, 0 resumed, 0 degraded"),
        "{stdout}"
    );
    assert!(json.contains("\"degraded\": [],"));
    h.assert_reference(&json, "degraded repair");

    let _ = std::fs::remove_dir_all(&h.dir);
}

/// Without the feature, `--fault-plan` must refuse loudly rather than
/// silently running clean.
#[test]
fn fault_plan_refused_without_feature() {
    let bin = bench_bin("campaign");
    let dir = std::env::temp_dir().join(format!("sbgp_fault_nofeat_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(
        dir.join("plan"),
        "point=worker.eval proc=worker0 hit=1 action=abort\n",
    )
    .unwrap();
    let out = Command::new(bin)
        .current_dir(&dir)
        .args(["--smoke", "--fault-plan", "plan"])
        .output()
        .expect("spawn campaign");
    assert!(
        !out.status.success(),
        "a featureless binary accepted a fault plan"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("without the fault-injection feature"),
        "missing refusal diagnostic:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
