//! End-to-end tests for the deployment-planner what-if service.
//!
//! The issue's acceptance bar, pinned:
//!
//! * cold-cache, warm-cache and solo [`AttackDeltaEngine`] answers are
//!   **bit-identical** for the same query stream — including a query that
//!   mixes cached and uncached destinations — at every [`Parallelism`];
//! * a malformed frame draws a clean error reply and the server keeps
//!   answering (checked in-process *and* over a real subprocess pipe).
//!
//! The cache's speed gate (warm ≥5× cold on a 4,000-AS snapshot) is in
//! `tests/speed_gates.rs`.

mod support;

use std::process::{Command, Stdio};

use bgp_juice::prelude::*;
use bgp_juice::sim::serve::{Planner, PlannerConfig};
use bgp_juice::sim::supervise::{read_frame, write_frame};
use bgp_juice::sim::Internet;
use support::{bench_bin, json_f64};

fn planner_config(threads: usize) -> PlannerConfig {
    PlannerConfig {
        parallelism: Parallelism(threads),
        ..PlannerConfig::default()
    }
}

/// The shared what-if stream: a cold query, an exact repeat, a query
/// mixing cached (0, 3) and uncached (7, 11) destinations, and a
/// narrower solo-comparable cell.
fn query_stream(n: usize) -> Vec<String> {
    let (m1, m2) = (n - 1, n - 2);
    vec![
        format!(
            "{{\"op\":\"query\",\"id\":1,\"secure\":[0,1,2,3,4,5,6],\"simplex\":[8],\
             \"attackers\":[{m1},{m2}],\"destinations\":[0,3],\
             \"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"]}}"
        ),
        format!(
            "{{\"op\":\"query\",\"id\":2,\"secure\":[0,1,2,3,4,5,6],\"simplex\":[8],\
             \"attackers\":[{m1},{m2}],\"destinations\":[0,3],\
             \"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"]}}"
        ),
        format!(
            "{{\"op\":\"query\",\"id\":3,\"secure\":[0,1,2,3,4,5,6],\"simplex\":[8],\
             \"attackers\":[{m1},{m2}],\"destinations\":[0,3,7,11],\
             \"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"]}}"
        ),
        format!(
            "{{\"op\":\"query\",\"id\":4,\"secure\":[0,1,2,3,4,5,6],\"simplex\":[8],\
             \"attackers\":[{m1}],\"destinations\":[3],\"models\":[\"sec1\"],\
             \"strategies\":[\"fakelink\"]}}"
        ),
    ]
}

fn run_stream(planner: &mut Planner, stream: &[String]) -> Vec<String> {
    stream
        .iter()
        .map(|q| planner.handle(q).expect("reply"))
        .collect()
}

/// Cold replies, warm replies (same planner, stream pre-run once) and a
/// from-first-principles solo compute all agree bit-for-bit, at 1, 2 and
/// 5 worker threads alike.
#[test]
fn cold_warm_and_solo_replies_are_bit_identical() {
    let net = Internet::synthetic(600, 7);
    let stream = query_stream(net.len());

    let mut reference: Option<Vec<String>> = None;
    for threads in [1, 2, 5] {
        // Cold: fresh planner, every base outcome computed.
        let mut cold = Planner::new(net.clone(), planner_config(threads));
        let cold_replies = run_stream(&mut cold, &stream);
        assert!(cold.cache_stats().misses > 0, "cold pass must miss");

        // Warm: same stream again on a planner that has seen it all.
        let mut warm = Planner::new(net.clone(), planner_config(threads));
        run_stream(&mut warm, &stream);
        let before = warm.cache_stats();
        let warm_replies = run_stream(&mut warm, &stream);
        let after = warm.cache_stats();
        assert_eq!(
            before.misses, after.misses,
            "warm pass recomputed a base outcome"
        );
        assert!(after.hits > before.hits, "warm pass never hit the cache");

        assert_eq!(
            cold_replies, warm_replies,
            "cold and warm replies differ at {threads} thread(s)"
        );
        match &reference {
            Some(r) => assert_eq!(
                r, &cold_replies,
                "replies differ across Parallelism ({threads} threads)"
            ),
            None => reference = Some(cold_replies),
        }
    }

    // Solo cross-check: query 4 is one (m, d) pair under sec1/fakelink —
    // recompute it with a bare AttackDeltaEngine.
    let replies = reference.expect("reference replies");
    let (m, d) = (AsId(net.len() as u32 - 1), AsId(3));
    let mut dep = Deployment::empty(net.len());
    for v in 0..7 {
        dep.insert_full(AsId(v));
    }
    dep.insert_simplex(AsId(8));
    let mut delta = AttackDeltaEngine::new(&net.graph);
    delta.begin(d, &dep, Policy::new(SecurityModel::Security1st));
    delta.attack(m, AttackStrategy::FakeLink);
    let (lo, hi) = delta.count_happy();
    let sources = (net.len() - 2) as f64;
    assert_eq!(json_f64(&replies[3], "lower"), lo as f64 / sources);
    assert_eq!(json_f64(&replies[3], "upper"), hi as f64 / sources);
}

/// A malformed message mid-stream draws a clean `{"op":"error",...}`
/// reply and the very next query is answered normally (in-process).
#[test]
fn malformed_messages_do_not_poison_the_stream() {
    let net = Internet::synthetic(200, 7);
    let stream = query_stream(net.len());
    let mut planner = Planner::new(net, planner_config(1));

    let good = planner.handle(&stream[0]).expect("reply");
    assert!(good.contains("\"op\":\"reply\""));

    for bad in [
        "not json at all",
        "{\"op\":\"query\",\"id\":1}",
        "{\"op\":\"launch-missiles\"}",
        "{\"op\":\"query\",\"id\":1,\"secure\":[999999],\"attackers\":[1],\"destinations\":[2]}",
    ] {
        let err = planner.handle(bad).expect("error reply");
        assert!(
            err.contains("\"op\":\"error\""),
            "expected error reply for {bad:?}, got {err}"
        );
    }

    let again = planner.handle(&stream[0]).expect("reply");
    assert_eq!(good, again, "server state was poisoned by bad input");
}

// ---------------------------------------------------------------------------
// Subprocess end-to-end (the real binary over real pipes)
// ---------------------------------------------------------------------------

/// Full duplex conversation with the served binary: queries answered,
/// a garbage frame rejected with the server still alive, clean shutdown.
#[test]
fn served_binary_answers_over_pipes_and_survives_garbage() {
    let mut child = Command::new(bench_bin("planner"))
        .args(["--asns", "200", "--seed", "7"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn planner");
    let mut to = child.stdin.take().expect("stdin");
    let mut from = child.stdout.take().expect("stdout");

    let hello = read_frame(&mut from).expect("io").expect("hello");
    assert!(hello.contains("\"op\":\"ready\""));
    assert!(hello.contains("\"asns\":200"));

    let stream = query_stream(200);
    write_frame(&mut to, &stream[0]).expect("send");
    let first = read_frame(&mut from).expect("io").expect("reply");
    assert!(first.contains("\"op\":\"reply\""), "got {first}");

    write_frame(&mut to, "garbage, not a query").expect("send");
    let err = read_frame(&mut from).expect("io").expect("error reply");
    assert!(err.contains("\"op\":\"error\""), "got {err}");

    // The server must still answer — and identically.
    write_frame(&mut to, &stream[1]).expect("send");
    let second = read_frame(&mut from).expect("io").expect("reply");
    assert_eq!(
        first.replace("\"id\":1", "\"id\":2"),
        second,
        "replies before/after the garbage frame diverged"
    );

    write_frame(&mut to, "{\"op\":\"shutdown\"}").expect("send");
    let bye = read_frame(&mut from).expect("io").expect("bye");
    assert!(bye.contains("\"op\":\"bye\""));
    assert!(child.wait().expect("wait").success());
}

/// An unreadable frame (invalid UTF-8 payload) is answered with a final
/// error frame and a clean exit — never a crash.
#[test]
fn undecodable_frames_end_the_session_cleanly() {
    use std::io::Write as _;
    let mut child = Command::new(bench_bin("planner"))
        .args(["--asns", "200", "--seed", "7"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn planner");
    let mut to = child.stdin.take().expect("stdin");
    let mut from = child.stdout.take().expect("stdout");
    let _hello = read_frame(&mut from).expect("io").expect("hello");

    to.write_all(&4u32.to_be_bytes()).expect("len");
    to.write_all(&[0xff, 0xfe, 0xfd, 0xfc]).expect("payload");
    to.flush().expect("flush");
    let err = read_frame(&mut from).expect("io").expect("final error");
    assert!(err.contains("\"op\":\"error\""), "got {err}");
    assert!(child.wait().expect("wait").success(), "server crashed");
}
