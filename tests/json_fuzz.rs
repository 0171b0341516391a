//! Seeded mutation fuzzing of every JSON input boundary.
//!
//! Committed seeds — the client frames of
//! `tests/golden/planner_client_cyclops.txt`, one frame of each worker
//! protocol type, and the first cell of `BENCH_campaign.json` — are
//! mutated by byte flips, truncations, insertions and duplicated keys, and
//! each mutant is fed to the readers that face outside input:
//! `Query::parse`, `Planner::handle`, `parse_worker_msg`, the workers'
//! group-spec reader (`CellSpec::read`), the checkpoint resume reader
//! (`Cell::parse` plus the checksum audit) and `render_campaign_quotes`. None may panic, and every error must name a
//! byte offset inside its input. The mutation stream is fixed by the
//! seed, so a failure reproduces exactly; the whole run takes well under
//! a second in a debug build.

mod support;

use std::path::Path;

use bgp_juice::core::SecurityModel;
use bgp_juice::sim::json::{self, Reader};
use bgp_juice::sim::serve::{Planner, PlannerConfig, Query};
use bgp_juice::sim::supervise::{
    encode_error, encode_init, encode_ready, encode_result, encode_shutdown, encode_task,
    parse_worker_msg, verify_checksum,
};
use bgp_juice::sim::Internet;
use bgp_juice::topology::AsId;
use sbgp_bench::campaign::{Cell, CellSpec, Figure};
use sbgp_bench::render::render_campaign_quotes;
use support::Rng;

/// Mutants per seed.
const MUTANTS: usize = 400;

/// Bytes that steer a mutant toward the grammar's edges.
const ALPHABET: &[u8] = b"{}[]\",:\\/-+0123456789.eEtrufalsn \n\tu";

/// One to three mutations of `seed`. Bytes that stop being UTF-8 become
/// U+FFFD, since every reader takes `&str`.
fn mutate(seed: &str, rng: &mut Rng) -> String {
    let mut b = seed.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let i = rng.below(b.len() + 1);
        match rng.below(5) {
            0 if i < b.len() => b[i] ^= 1 << rng.below(8),
            1 => b.truncate(i),
            2 => b.insert(i, ALPHABET[rng.below(ALPHABET.len())]),
            3 => b.insert(i, rng.next() as u8),
            _ => {
                // Duplicate a key: copy one `"key":` of the text, with a
                // value, to just after the first brace.
                let text = String::from_utf8_lossy(&b).into_owned();
                let keys: Vec<usize> = text.match_indices("\":").map(|(k, _)| k).collect();
                let (Some(&end), Some(open)) = (keys.get(rng.below(keys.len())), text.find('{'))
                else {
                    continue;
                };
                let Some(start) = text[..end].rfind('"') else {
                    continue;
                };
                let member = format!("{}: 1, ", &text[start..=end]);
                b.splice(open + 1..open + 1, member.bytes());
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Whether `err` names a byte offset inside `input` (`byte N` with N at
/// most the input's length).
fn located(err: &str, input: &str) -> bool {
    err.match_indices("byte ").any(|(i, _)| {
        let digits: String = err[i + 5..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse::<usize>().is_ok_and(|at| at <= input.len())
    })
}

fn read(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Run `check` on `MUTANTS` mutants of every seed, plus the seeds.
fn fuzz(seeds: &[String], salt: u64, mut check: impl FnMut(&str)) {
    let mut rng = Rng(salt);
    for seed in seeds {
        check(seed);
        for _ in 0..MUTANTS {
            check(&mutate(seed, &mut rng));
        }
    }
}

#[test]
fn planner_frames_never_panic_and_errors_are_located() {
    let net = Internet::from_file(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cyclops_sample.as-rel"),
        &[],
    )
    .expect("cyclops fixture");
    let n = net.len();
    let seeds: Vec<String> = read("tests/golden/planner_client_cyclops.txt")
        .lines()
        .filter_map(|l| l.strip_prefix("-> "))
        .map(str::to_string)
        .collect();
    assert_eq!(seeds.len(), 9, "the client golden's request frames");
    let mut planner = Planner::new(net, PlannerConfig::default());
    let (mut parsed, mut errors) = (0, 0);
    fuzz(&seeds, 1, |text| {
        match Query::parse(text, n) {
            Ok(_) => parsed += 1,
            Err(e) => assert!(located(&e, text), "{text:?} -> {e}"),
        }
        let Some(reply) = planner.handle(text) else {
            return;
        };
        let (mut op, mut error) = (String::new(), None);
        Reader::parse(&reply, |r| {
            r.object(|key, r| {
                match key {
                    "op" => op = r.str()?.into_owned(),
                    "error" => error = Some(r.str()?.into_owned()),
                    _ => {
                        r.skip()?;
                    }
                }
                Ok(())
            })
        })
        .unwrap_or_else(|e| panic!("{text:?} drew a malformed reply {reply:?}: {e}"));
        if op == "error" {
            errors += 1;
            // The one reply without an offset, whose text the client golden
            // pins: a frame that is not an object, or an object that reads
            // cleanly without an `op` string. Any other frame that opens as
            // an object names where it broke, wherever its `op` key sits.
            let msg = error.expect("an error reply carries its message");
            let no_op =
                !json::opens_object(text) || Reader::parse(text, |r| r.skip().map(drop)).is_ok();
            assert!(
                (no_op && msg == "malformed message: no op field") || located(&msg, text),
                "{text:?} -> {msg}"
            );
        } else {
            assert!(matches!(&*op, "reply" | "stats"), "{text:?} -> {reply}");
        }
    });
    // The mutants reach both sides of the reader.
    assert!(
        parsed > 50 && errors > 1000,
        "{parsed} parsed, {errors} errors"
    );
}

#[test]
fn worker_frames_never_panic_and_errors_are_located() {
    let seeds = [
        encode_init(
            "{\"figure\":\"rollout\",\"asns\":400,\"seed\":11,\"models\":[\"sec1\"],\"steps\":3}",
        ),
        encode_task(3, AsId(7), &[(AsId(1), 0), (AsId(250), 2)]),
        encode_ready(&[4, 4], 16),
        encode_result(3, &[1, 4_602_678_819_172_646_912, u64::MAX]),
        encode_error(3, "injected \"Panic\" fault at worker.eval"),
        encode_shutdown(),
    ];
    let mut parsed = 0;
    fuzz(&seeds, 2, |text| match parse_worker_msg(text) {
        Ok(_) => parsed += 1,
        Err(e) => assert!(located(&e, text), "{text:?} -> {e}"),
    });
    assert!(parsed > 50, "{parsed} parsed");
}

#[test]
fn cell_specs_never_panic_and_errors_are_located() {
    let synthetic = CellSpec {
        figure: Figure::Rollout,
        asns: 400,
        seed: 11,
        models: vec![SecurityModel::Security1st, SecurityModel::Security3rd],
        rollout_steps: 3,
        budget: 300,
        ci_target: Some(0.005),
        ..CellSpec::default()
    };
    let snapshot = CellSpec {
        figure: Figure::Ladder,
        snapshot: Some("C:\\snaps\\\"odd\" name.as-rel".into()),
        cps: vec![15169, 8075],
        ci_target: None,
        ..synthetic.clone()
    };
    let mut parsed = 0;
    fuzz(
        &[synthetic.to_json(), snapshot.to_json()],
        5,
        |text| match CellSpec::read(text) {
            Ok(_) => parsed += 1,
            Err(e) => assert!(e.at <= text.len(), "{text:?} -> {e}"),
        },
    );
    assert!(parsed > 50, "{parsed} parsed");
}

#[test]
fn campaign_files_never_panic_and_errors_are_located() {
    let committed = read("BENCH_campaign.json");
    let start = committed.find("    {\n      \"schema\"").expect("a cell");
    let len = committed[start..].find("\n    }").expect("cell end") + "\n    }".len();
    let cell = committed[start..start + len].to_string();
    Cell::parse(&cell).expect("the committed cell reads as a checkpoint");
    let document = format!("{{\n  \"schema\": \"campaign-v1\",\n  \"cells\": [\n{cell}\n  ]\n}}\n");
    let (mut cells, mut quoted) = (0, 0);
    fuzz(std::slice::from_ref(&cell), 3, |text| {
        verify_checksum(text);
        match Cell::parse(text) {
            Ok(_) => cells += 1,
            Err(e) => assert!(e.at <= text.len(), "{text:?} -> {e}"),
        }
    });
    fuzz(&[document], 4, |text| match render_campaign_quotes(text) {
        Ok(_) => quoted += 1,
        Err(e) => assert!(e.at <= text.len(), "{text:?} -> {e}"),
    });
    assert!(cells > 5 && quoted > 20, "{cells} cells, {quoted} quoted");
}
