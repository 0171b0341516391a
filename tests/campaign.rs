//! End-to-end checkpointing/resume test for the `campaign` runner.
//!
//! Runs `campaign --smoke` in a scratch directory, then simulates a killed
//! campaign by deleting the assembled JSON plus one cell checkpoint and
//! re-running: the second run must resume every surviving cell, recompute
//! only the missing one, and assemble byte-identical *estimates* (wall
//! clock may of course differ). The `--file` axis (a parsed snapshot next
//! to its synthetic twin) must resume the same way.

mod support;

use std::path::{Path, PathBuf};
use std::process::Command;

use bgp_juice::sim::json::Reader;
use support::bench_bin;

fn campaign_cmd(dir: &Path) -> Command {
    let mut cmd = Command::new(bench_bin("campaign"));
    cmd.current_dir(dir);
    cmd.args(["--smoke", "--threads", "2"]);
    cmd
}

/// Strip the timing fields (and the content checksums, which cover them)
/// so runs are comparable.
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

#[test]
fn campaign_smoke_checkpoints_and_resumes() {
    let dir = std::env::temp_dir().join(format!("sbgp_campaign_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // First run: all cells computed, JSON assembled and self-validated.
    let out = campaign_cmd(&dir).output().expect("spawn campaign");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "first campaign run failed:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("6 computed, 0 resumed"),
        "unexpected first-run summary:\n{stdout}"
    );
    let json_path = dir.join("BENCH_campaign_smoke.json");
    let first = std::fs::read_to_string(&json_path).expect("campaign JSON");
    assert!(first.contains("\"schema\": \"campaign-v1\""));
    assert!(first.contains("\"ci_trajectory\""));
    let ckpt = dir.join("campaign_smoke_ckpt");
    let cells: Vec<PathBuf> = std::fs::read_dir(&ckpt)
        .expect("checkpoint dir")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(cells.len(), 6, "expected 6 cell checkpoints: {cells:?}");

    // Kill simulation: the assembled JSON and one cell vanish.
    std::fs::remove_file(&json_path).unwrap();
    let victim = ckpt.join("rollout_400_11_sec2.json");
    assert!(victim.exists(), "victim cell missing from {ckpt:?}");
    std::fs::remove_file(&victim).unwrap();

    // Second run: 5 resumed, 1 recomputed, same estimates.
    let out = campaign_cmd(&dir).output().expect("spawn campaign");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "resumed campaign run failed:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("1 computed, 5 resumed"),
        "resume did not skip surviving cells:\n{stdout}"
    );
    assert!(stdout.contains("rollout_400_11_sec2: 300 pairs"));
    let second = std::fs::read_to_string(&json_path).expect("campaign JSON after resume");
    assert_eq!(
        estimates_only(&first),
        estimates_only(&second),
        "estimates drifted across a resume"
    );

    // Changed estimation parameters must invalidate every checkpoint:
    // reusing a 300-pair cell under a 301-pair grid header would be a
    // silent lie, so nothing may be resumed.
    let out = campaign_cmd(&dir)
        .args(["--pairs", "301"])
        .output()
        .expect("spawn campaign with changed budget");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "changed-budget run failed:\n{stdout}");
    assert!(
        stdout.contains("6 computed, 0 resumed"),
        "stale checkpoints were reused under changed --pairs:\n{stdout}"
    );
    assert!(stdout.contains("different estimation parameters"));
    let second = std::fs::read_to_string(&json_path).expect("campaign JSON after budget change");
    assert!(second.contains("\"budget\": 301,"));

    // Schema gate: the self-validation path accepts the fresh file and
    // rejects a mutilated one.
    let status = campaign_cmd(&dir)
        .args(["--validate", "BENCH_campaign_smoke.json"])
        .status()
        .expect("spawn validate");
    assert!(status.success(), "validation rejected a good file");
    std::fs::write(&json_path, second.replace("pairs_per_sec", "nope")).unwrap();
    let status = campaign_cmd(&dir)
        .args(["--validate", "BENCH_campaign_smoke.json"])
        .status()
        .expect("spawn validate");
    assert!(!status.success(), "validation accepted schema drift");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The parsed-snapshot axis end to end: a serialized 2,000-AS graph runs
/// next to its synthetic twin (two figures × one model each), and a second
/// invocation resumes all four cells from their checkpoints.
#[test]
fn campaign_file_axis_checkpoints_and_resumes() {
    use bgp_juice::sim::Internet;
    use bgp_juice::topology::io;

    let dir = std::env::temp_dir().join(format!("sbgp_campaign_file_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snapshot = dir.join("snapshot.as-rel");
    std::fs::write(
        &snapshot,
        io::write_relationships(&Internet::synthetic(2000, 11).graph),
    )
    .expect("write snapshot");

    let run = || {
        let out = Command::new(bench_bin("campaign"))
            .current_dir(&dir)
            .arg("--file")
            .arg(&snapshot)
            .args([
                "--seeds",
                "11",
                "--models",
                "sec2",
                "--pairs",
                "200",
                "--threads",
                "2",
            ])
            .output()
            .expect("spawn campaign");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "campaign --file failed:\nstdout:\n{stdout}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout
    };
    let first = run();
    assert!(
        first.contains("4 computed, 0 resumed"),
        "unexpected first-run summary:\n{first}"
    );
    let second = run();
    assert!(
        second.contains("0 computed, 4 resumed"),
        "the second run did not resume every cell:\n{second}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A supervised N-worker campaign must produce the same bytes as the
/// in-process run — the coordinator merges worker accumulators in group
/// order, the exact merge sequence of the thread pool — for every worker
/// count and every figure kind.
#[test]
fn campaign_workers_bit_identical() {
    let dir = std::env::temp_dir().join(format!("sbgp_campaign_workers_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let bin = bench_bin("campaign");

    let run = |workers: usize| -> String {
        let out_name = format!("out{workers}.json");
        let out = Command::new(&bin)
            .current_dir(&dir)
            .args([
                "--figures",
                "baseline,rollout,ladder",
                "--asns",
                "300",
                "--seeds",
                "7",
                "--models",
                "sec1,sec2",
                "--pairs",
                "100",
                "--rollout-steps",
                "2",
                "--threads",
                "2",
                "--workers",
                &workers.to_string(),
                "--checkpoint-dir",
                &format!("ck{workers}"),
                "--out",
                &out_name,
            ])
            .output()
            .expect("spawn campaign");
        assert!(
            out.status.success(),
            "campaign --workers {workers} failed:\nstdout:\n{}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("6 computed, 0 resumed, 0 degraded"),
            "--workers {workers}: unexpected summary:\n{stdout}"
        );
        std::fs::read_to_string(dir.join(out_name)).expect("campaign JSON")
    };

    let reference = run(0);
    assert!(
        reference.contains("\"degraded\": [],"),
        "clean run must report an empty degraded list"
    );
    for workers in [1usize, 2, 4] {
        let distributed = run(workers);
        assert_eq!(
            estimates_only(&reference),
            estimates_only(&distributed),
            "--workers {workers} diverged from the in-process run"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The supervised estimator over two real `campaign --worker` processes
/// reproduces the in-process estimator **bit for bit** — every
/// `AdaptiveRun` field, floats compared by `to_bits` — on a rollout cell
/// that runs several adaptive rounds, where any difference in the Welford
/// merge order surfaces in the last ulp. Cell JSON prints six decimals, so
/// [`campaign_workers_bit_identical`] alone cannot see such a drift.
#[test]
fn supervised_estimator_is_bit_identical_at_full_precision() {
    use std::time::Duration;

    use bgp_juice::prelude::*;
    use bgp_juice::sim::stats::{AdaptiveRun, EstimatorConfig, PairUniverse};
    use bgp_juice::sim::supervise::{self, Supervisor, SupervisorConfig};

    let (asns, seed, steps) = (300, 7, 5);
    let net = Internet::synthetic(asns, seed);
    let all: Vec<AsId> = net.graph.ases().collect();
    let non_stubs = net.tiers.non_stubs();
    let mut deps = vec![Deployment::empty(net.len())];
    deps.extend(scenario::sweep_rollout_steps(&net, steps));
    let policies = [SecurityModel::Security1st, SecurityModel::Security2nd].map(Policy::new);
    let est = EstimatorConfig::with_budget(1000, seed);

    let in_process = stats::estimate_metric_sweep_cells(
        &net,
        &non_stubs,
        &all,
        &deps,
        &policies,
        AttackStrategy::FakeLink,
        &est,
        Parallelism(2),
    );
    // The group spec the campaign coordinator sends for this cell.
    let spec = format!(
        "{{\"figure\":\"rollout\",\"asns\":{asns},\"seed\":{seed},\
         \"models\":[\"sec1\",\"sec2\"],\"steps\":{steps}}}"
    );
    let mut sup = Supervisor::new(SupervisorConfig {
        workers: 2,
        argv: vec![
            bench_bin("campaign").display().to_string(),
            "--worker".to_string(),
        ],
        watchdog: Duration::from_secs(300),
        strikes: 3,
        backoff: Duration::from_millis(10),
    });
    let supervised = supervise::estimate_adaptive_supervised(
        &PairUniverse::new(&net, &non_stubs, &all),
        &est,
        &[deps.len(); 2],
        &spec,
        &mut sup,
    );
    drop(sup);

    let bits = |run: &AdaptiveRun| -> Vec<u64> {
        let mut v = vec![
            run.population,
            run.strata as u64,
            run.lost_groups,
            run.lost_pairs,
        ];
        for e in &run.estimates {
            v.push(e.pairs);
            for x in [
                e.value.lower,
                e.value.upper,
                e.halfwidth.lower,
                e.halfwidth.upper,
            ] {
                v.push(x.to_bits());
            }
        }
        for r in &run.rounds {
            v.extend([r.pairs, r.max_halfwidth.to_bits()]);
        }
        v
    };
    assert_eq!(supervised.len(), in_process.len());
    for (c, (got, want)) in supervised.iter().zip(&in_process).enumerate() {
        assert!(
            want.rounds.len() >= 3,
            "cell {c}: only {} rounds",
            want.rounds.len()
        );
        assert_eq!(got.lost_groups, 0, "cell {c}: a worker group degraded");
        assert_eq!(got.sampled, want.sampled, "cell {c}: sample");
        assert_eq!(bits(got), bits(want), "cell {c}: fields differ in some bit");
    }
}

/// Resume must never trust damaged checkpoint bytes: a corrupted cell
/// (checksum mismatch) and a zero-byte cell are both quarantined to
/// `<name>.json.quarantined` and recomputed, and the repaired campaign
/// JSON is byte-identical to the undamaged one.
#[test]
fn campaign_quarantines_damaged_checkpoints() {
    let dir = std::env::temp_dir().join(format!("sbgp_campaign_quarantine_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let out = campaign_cmd(&dir).output().expect("spawn campaign");
    assert!(out.status.success(), "first campaign run failed");
    let json_path = dir.join("BENCH_campaign_smoke.json");
    let first = std::fs::read_to_string(&json_path).expect("campaign JSON");
    let ckpt = dir.join("campaign_smoke_ckpt");

    // Silent corruption: flip one digit of a checkpointed estimate.
    let victim = ckpt.join("baseline_400_11_sec1.json");
    let text = std::fs::read_to_string(&victim).expect("victim cell");
    let mut pos = None;
    Reader::parse(&text, |r| {
        r.object(|key, r| {
            if key == "population" {
                pos = Some(r.at());
            }
            r.skip().map(drop)
        })
    })
    .expect("victim cell is JSON");
    let pos = pos.expect("population key");
    let mut bytes = text.into_bytes();
    bytes[pos] = b'0' + (bytes[pos] - b'0' + 1) % 10;
    std::fs::write(&victim, &bytes).unwrap();

    // A crashed write(2) that only got as far as create: zero bytes.
    let truncated = ckpt.join("rollout_400_11_sec1.json");
    assert!(truncated.exists());
    std::fs::write(&truncated, b"").unwrap();

    std::fs::remove_file(&json_path).unwrap();
    let out = campaign_cmd(&dir).output().expect("spawn campaign");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repair run failed:\n{stderr}");
    assert!(
        stdout.contains("2 computed, 4 resumed"),
        "damaged cells were not both recomputed:\n{stdout}\n{stderr}"
    );
    assert!(
        stderr.contains("fails its content checksum") && stderr.contains("zero bytes"),
        "missing damage diagnoses:\n{stderr}"
    );
    assert_eq!(stderr.matches("quarantined to").count(), 2, "{stderr}");
    assert!(ckpt.join("baseline_400_11_sec1.json.quarantined").exists());
    assert!(ckpt.join("rollout_400_11_sec1.json.quarantined").exists());

    let second = std::fs::read_to_string(&json_path).expect("campaign JSON after repair");
    assert_eq!(
        estimates_only(&first),
        estimates_only(&second),
        "repair after corruption drifted the estimates"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--validate` audits every cell's checksum over the bytes the reader
/// located, wherever the cell sits: a flipped estimate digit is caught in
/// a cell indented by five spaces as well as in one indented by four.
#[test]
fn validate_audits_cells_at_any_indent() {
    let dir = std::env::temp_dir().join(format!("sbgp_campaign_indent_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = campaign_cmd(&dir).output().expect("spawn campaign");
    assert!(out.status.success(), "smoke run failed");
    let text = std::fs::read_to_string(dir.join("BENCH_campaign_smoke.json")).expect("JSON");

    // Flip one estimate digit of the second cell.
    let cell = text
        .match_indices("\n    {\n")
        .nth(1)
        .expect("a second cell")
        .0
        + 1;
    let digit = cell + text[cell..].find("\"lower\": 0.").expect("an estimate") + 11;
    let mut flipped = text.clone().into_bytes();
    flipped[digit] = b'0' + (flipped[digit] - b'0' + 1) % 10;
    let flipped = String::from_utf8(flipped).unwrap();
    let validate = |name: &str, json: &str| {
        std::fs::write(dir.join(name), json).unwrap();
        campaign_cmd(&dir)
            .args(["--validate", name])
            .output()
            .expect("spawn validate")
    };
    for (name, json) in [
        ("flipped.json", flipped.clone()),
        (
            "indented.json",
            format!("{} {}", &flipped[..cell], &flipped[cell..]),
        ),
    ] {
        let out = validate(name, &json);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{name}: a flipped digit passed --validate"
        );
        assert!(
            stderr.contains("cell checksum mismatch"),
            "{name}: {stderr}"
        );
    }
    // The untouched document still validates.
    assert!(validate("clean.json", &text).status.success());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint whose content names another cell (a file copied over
/// another's name) is recomputed, not resumed: the assembled grid holds
/// each cell exactly once.
#[test]
fn resume_recomputes_a_checkpoint_naming_another_cell() {
    let dir = std::env::temp_dir().join(format!("sbgp_campaign_copied_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = campaign_cmd(&dir).output().expect("spawn campaign");
    assert!(out.status.success(), "smoke run failed");
    let json_path = dir.join("BENCH_campaign_smoke.json");
    let first = std::fs::read_to_string(&json_path).expect("campaign JSON");

    let ckpt = dir.join("campaign_smoke_ckpt");
    std::fs::copy(
        ckpt.join("rollout_400_11_sec1.json"),
        ckpt.join("rollout_400_11_sec3.json"),
    )
    .expect("copy a checkpoint over another");
    let out = campaign_cmd(&dir).output().expect("spawn campaign");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "rerun failed:\n{stdout}");
    assert!(
        stdout.contains("1 computed, 5 resumed"),
        "the copied checkpoint was trusted:\n{stdout}"
    );
    assert!(
        stdout.contains("rollout_400_11_sec3: checkpoint names a different cell"),
        "{stdout}"
    );
    let second = std::fs::read_to_string(&json_path).expect("campaign JSON after rerun");
    assert_eq!(estimates_only(&first), estimates_only(&second));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot below the synthetic generator's floor has no synthetic
/// twin: the campaign says so and exits before computing anything.
#[test]
fn campaign_refuses_a_snapshot_too_small_for_a_twin() {
    let dir = std::env::temp_dir().join(format!("sbgp_campaign_tiny_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cyclops_sample.as-rel");
    let out = Command::new(bench_bin("campaign"))
        .current_dir(&dir)
        .arg("--file")
        .arg(&fixture)
        .output()
        .expect("spawn campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("below the synthetic generator's floor"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!dir.join("campaign_ckpt").read_dir().unwrap().any(|_| true));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A grid axis that repeats a value is a usage error (exit 2) naming both
/// positions, before any cell runs.
#[test]
fn campaign_rejects_a_repeated_grid_value() {
    let out = Command::new(bench_bin("campaign"))
        .args(["--smoke", "--seeds", "11,11"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--seeds lists 11 twice (items 1 and 2)"),
        "{stderr}"
    );
}
