//! End-to-end tests for the deployment-planner what-if service.
//!
//! The issue's acceptance bar, pinned:
//!
//! * cold-cache, warm-cache and solo [`AttackDeltaEngine`] answers are
//!   **bit-identical** for the same query stream — including a query that
//!   mixes cached and uncached destinations — at every [`Parallelism`];
//! * a miss derived from a nearby cached base (one sweep advance from
//!   the nearest deployment) replies exactly as a cold planner does, at
//!   100s and at 10,000 ASes (the latter `#[ignore]`d in tier-1);
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
use support::{bench_bin, first_cell_bounds};

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
    let bounds = (lo as f64 / sources, hi as f64 / sources);
    assert_eq!(first_cell_bounds(&replies[3]), bounds);
}

/// The policy grid of the near-miss queries: two models, two strategies.
const TWO_BY_TWO: &str = "\"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"]";

/// An exact what-if frame over the policy grid `grid`.
fn what_if(
    id: usize,
    (secure, simplex): (&[AsId], &[AsId]),
    attackers: &[AsId],
    dests: &[AsId],
    grid: &str,
) -> String {
    let ids = |v: &[AsId]| {
        v.iter()
            .map(|x| x.0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"op\":\"query\",\"id\":{id},\"secure\":[{}],\"simplex\":[{}],\
         \"attackers\":[{}],\"destinations\":[{}],{grid}}}",
        ids(secure),
        ids(simplex),
        ids(attackers),
        ids(dests)
    )
}

/// The stubs of `net`, in id order.
fn stubs(net: &Internet) -> Vec<AsId> {
    net.graph.ases().filter(|&v| net.tiers.is_stub(v)).collect()
}

/// Near-miss what-if queries: each probes a deployment no earlier query
/// used, so every base lookup misses the exact key, and most have a cached
/// base of the same destination and policy nearby to derive from.
fn near_miss_stream(net: &Internet) -> Vec<String> {
    let stubs = stubs(net);
    let (dests, attackers, extra, fresh_dest) = (&stubs[..3], &stubs[3..5], stubs[5], stubs[6]);
    let non_stubs = net.tiers.non_stubs();
    let base = [non_stubs.as_slice(), dests].concat();
    let without = |x: AsId| -> Vec<AsId> { base.iter().copied().filter(|&v| v != x).collect() };
    let everyone_even: Vec<AsId> = net.graph.ases().filter(|v| v.0 % 2 == 0).collect();
    let q = |id, deployment, dests: &[AsId]| what_if(id, deployment, attackers, dests, TWO_BY_TWO);
    vec![
        // Cold: one Sec 1st and one Sec 3rd base per destination.
        q(1, (&base, &[]), dests),
        // +1 stub.
        q(2, (&[base.as_slice(), &[extra]].concat(), &[]), dests),
        // −1 destination: it stops signing, and its own bases flip.
        q(3, (&without(dests[0]), &[]), dests),
        // A simplex flip: a non-stub downgrades from full to simplex.
        q(4, (&without(non_stubs[0]), &[non_stubs[0]]), dests),
        // No full member: the models collapse onto the Sec-3rd key, derived
        // from a Sec-3rd base that had full members...
        q(5, (&[], &dests[..2]), dests),
        // ...and then from that collapsed base.
        q(6, (&[], dests), dests),
        // A far deployment (the advance computes fresh), plus a
        // destination nothing is cached for.
        q(7, (&everyone_even, &[]), &[dests[0], fresh_dest]),
    ]
}

/// Misses served from a nearby cached base reply byte for byte as a
/// fresh one-query planner does, at 1, 2 and 5 threads; the counters say
/// which misses were derived, and a repeat of the stream is all hits.
#[test]
fn derived_misses_match_fresh_planners() {
    let net = Internet::synthetic(600, 7);
    let stream = near_miss_stream(&net);
    // A destination that signs at neither level is keyed at S = ∅ under
    // Sec 3rd, one key for both models. Queries 1, 2 and 4 look up
    // 3 destinations × {Sec 1st, Sec 3rd}. Query 3 leaves dests[0] out:
    // 2 × 2 keys plus its one S = ∅ key, derived from its Sec-3rd entries.
    // Queries 5 and 6 look up one collapsed key per destination (dests[2]
    // signs in neither list in query 5: its S = ∅ key). Query 7's
    // destinations, dests[0] and the fresh one, are odd, so neither signs
    // at `everyone_even`: dests[0] hits query 3's S = ∅ entry and serves
    // both its pairs from the answers kept there, and the fresh one misses
    // once, with no same-cell base to derive from. So 6 + 6 + 5 + 6 + 3 +
    // 3 + 1 misses, all derived but query 1's six and the fresh one, and
    // one hit.
    let stubs = stubs(&net);
    assert!(
        stubs[0].0 % 2 == 1 && stubs[6].0 % 2 == 1,
        "query 7's premise"
    );
    let (misses, derived) = (6 * 3 + 5 + 3 * 2 + 1, 6 * 2 + 5 + 3 * 2);
    for threads in [1, 2, 5] {
        let mut planner = Planner::new(net.clone(), planner_config(threads));
        let replies = run_stream(&mut planner, &stream);
        for (q, reply) in stream.iter().zip(&replies) {
            let mut fresh = Planner::new(net.clone(), planner_config(threads));
            assert_eq!(
                reply,
                &fresh.handle(q).expect("reply"),
                "{threads} thread(s): {q}"
            );
            assert_eq!(fresh.cache_stats().derived, 0, "a cold planner derived");
        }
        let first = planner.cache_stats();
        assert_eq!(
            (first.hits, first.misses, first.derived, first.answered),
            (1, misses, derived, 2),
            "{threads} thread(s)"
        );
        let stats = planner.handle("{\"op\":\"stats\"}").expect("stats");
        assert!(
            stats.ends_with(&format!(",\"derived\":{derived},\"answered\":2}}")),
            "{stats}"
        );

        assert_eq!(
            run_stream(&mut planner, &stream),
            replies,
            "{threads} thread(s)"
        );
        let again = planner.cache_stats();
        assert_eq!(
            again.hits - first.hits,
            misses + 1,
            "the repeat must be all hits"
        );
        assert_eq!(
            (again.misses, again.derived),
            (first.misses, first.derived),
            "the repeat missed"
        );
        // The repeat serves every pair at an unsigned destination from kept
        // answers: dests[0] in query 3, dests[2] in query 5, and both
        // destinations of query 7, two attackers each.
        assert_eq!(again.answered - first.answered, 8, "{threads} thread(s)");
    }
}

/// Destinations that sign at neither level have their S = ∅ outcome at
/// every deployment (§2.2, Theorem 2.1), so the planner keys them at ∅ and
/// keeps each pair's answer with the entry. Asked at two deployments and
/// at a true S = ∅, every reply matches a cold one-query planner's byte
/// for byte, at 1, 2 and 5 threads; the second deployment and S = ∅ are
/// served from the kept answers, with no base computed.
#[test]
fn unsigned_destinations_answer_from_kept_counts() {
    let net = Internet::synthetic(600, 7);
    let stubs = stubs(&net);
    let (dests, attackers) = (&stubs[..3], &stubs[3..5]);
    let non_stubs = net.tiers.non_stubs();
    let near: Vec<AsId> = non_stubs[1..].to_vec();
    let stream = [
        what_if(1, (&non_stubs, &stubs[5..6]), attackers, dests, TWO_BY_TWO),
        what_if(2, (&near, &stubs[6..8]), attackers, dests, TWO_BY_TWO),
        what_if(3, (&[], &[]), attackers, dests, TWO_BY_TWO),
    ];
    // The pairs the second and third queries serve from kept answers.
    let pairs = (dests.len() * attackers.len()) as u64;
    for threads in [1, 2, 5] {
        let mut planner = Planner::new(net.clone(), planner_config(threads));
        for (i, q) in stream.iter().enumerate() {
            let before = planner.cache_stats();
            let reply = planner.handle(q).expect("reply");
            let after = planner.cache_stats();
            let mut cold = Planner::new(net.clone(), planner_config(threads));
            assert_eq!(
                reply,
                cold.handle(q).expect("reply"),
                "{threads} thread(s): {q}"
            );
            // One S = ∅ key per destination, shared by both models.
            assert_eq!(cold.cache_stats().misses, dests.len() as u64, "{q}");
            let (misses, answered) = match i {
                0 => (dests.len() as u64, 0),
                _ => (0, pairs),
            };
            assert_eq!(
                (
                    after.misses - before.misses,
                    after.answered - before.answered
                ),
                (misses, answered),
                "{threads} thread(s): {q}"
            );
            assert_eq!(after.derived, 0, "{q}");
        }
    }
}

/// The kept answers live and die with their entry: with room for two
/// entries, an unsigned destination's S = ∅ entry is evicted and its
/// answers with it, and the replies stay those of an unbounded cache.
#[test]
fn evicted_answers_leave_replies_unchanged() {
    let net = Internet::synthetic(600, 7);
    let stubs = stubs(&net);
    let attackers = &stubs[3..5];
    let non_stubs = net.tiers.non_stubs();
    let signing = [non_stubs.as_slice(), &stubs[1..3]].concat();
    let stream = [
        // stubs[0] signs at neither level: keyed at S = ∅, answers kept.
        what_if(1, (&non_stubs, &[]), attackers, &stubs[..1], TWO_BY_TWO),
        // Two Sec-1st and two Sec-3rd bases push it out.
        what_if(2, (&signing, &[]), attackers, &stubs[1..3], TWO_BY_TWO),
        // Asked again at another deployment: a miss, served afresh.
        what_if(3, (&signing, &[]), attackers, &stubs[..1], TWO_BY_TWO),
        // And then from the re-kept answers.
        what_if(4, (&[], &[]), attackers, &stubs[..1], TWO_BY_TWO),
    ];
    let small = PlannerConfig {
        cache_capacity: 2,
        ..planner_config(1)
    };
    let mut evicting = Planner::new(net.clone(), small);
    let mut roomy = Planner::new(net.clone(), planner_config(1));
    let mut answered = Vec::new();
    for q in &stream {
        let before = evicting.cache_stats().answered;
        assert_eq!(evicting.handle(q), roomy.handle(q), "{q}");
        answered.push(evicting.cache_stats().answered - before);
    }
    let s = evicting.cache_stats();
    assert!(s.evictions >= 3, "{s:?}");
    assert_eq!(answered, [0, 0, 0, 2], "kept answers outlived their entry");
    assert_eq!(roomy.cache_stats().answered, 4, "the roomy cache kept both");
}

/// The `planner-10k` stream shape at 10,000 ASes: candidate deployments of
/// every non-stub plus the operator's destinations, one stub added or one
/// destination left out, and novel never-seen stubs now and then. Every
/// reply must match a cold one-query planner's, and every miss but each
/// destination's first must be derived.
#[test]
#[ignore = "10k-AS scale check; run in release with --ignored"]
fn derived_misses_match_fresh_planners_at_10k() {
    let net = Internet::synthetic(10_000, 1);
    let stubs = stubs(&net);
    let (dests, suspects) = (&stubs[..8], &stubs[8..12]);
    let (extras, novel) = (&stubs[12..16], &stubs[16..20]);
    let mut base = net.tiers.non_stubs();
    base.extend_from_slice(dests);
    let candidates: Vec<Vec<AsId>> = (0..8)
        .map(|k| {
            if k < 4 {
                [base.as_slice(), &[extras[k]]].concat()
            } else {
                base.iter()
                    .copied()
                    .filter(|&v| v != dests[k - 4])
                    .collect()
            }
        })
        .collect();
    // Sec 1st, fake link; the candidates cycle, so later rounds also hit.
    let stream: Vec<String> = (0..24)
        .map(|i| {
            let mut secure = candidates[(i * 5) % 8].clone();
            if i % 6 == 5 {
                secure.push(novel[i / 6]);
            }
            let group = &dests[(i % 2) * 4..(i % 2) * 4 + 4];
            let attackers = &suspects[i % 3..i % 3 + 2];
            what_if(i, (&secure, &[]), attackers, group, "\"models\":[\"sec1\"]")
        })
        .collect();
    let mut planner = Planner::new(net.clone(), planner_config(1));
    for q in &stream {
        let reply = planner.handle(q).expect("reply");
        assert!(reply.contains("\"op\":\"reply\""), "{reply}");
        let mut cold = Planner::new(net.clone(), planner_config(1));
        assert_eq!(reply, cold.handle(q).expect("reply"), "{q}");
    }
    // Query i uses candidate (5i mod 8) and group i mod 2. Only the even
    // queries ask about dests[0..4], and only candidates 4–7 leave one out:
    // candidates 4 and 6 (queries 4 and 6, mod 8) leave out dests[0] and
    // dests[2], which sign at neither level there and are keyed at S = ∅.
    // The even queries use 4 distinct deployments: 16 misses, of which
    // query 0's four (each destination's first) and the two S = ∅ keys
    // (no Sec-3rd entry to derive from) are computed. The odd ones use 8
    // (candidates 5, 7, 1+novel, 3, 7+novel, 1, 5+novel, 3+novel): 32
    // misses, all derived but query 1's four. So 48 misses, 38 derived.
    // Kept answers: queries 12 and 20 share one attacker each with query
    // 4's S = ∅ pairs at dests[0], and query 22 both of its attackers with
    // queries 6 and 14 at dests[2].
    let stats = planner.cache_stats();
    assert_eq!(
        (stats.misses, stats.derived, stats.answered),
        (48, 38, 4),
        "{stats:?}"
    );
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
