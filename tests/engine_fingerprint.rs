//! Exact-outcome fingerprints of `Engine::compute`.
//!
//! The protocol-oracle suite (`tests/equivalence.rs`) checks each AS's
//! route class, length and security, and only loosely its root flags.
//! Everything else a computed [`Outcome`] carries — the exact `BPR` flag
//! union, the mark-traversal bit and the lowest-id representative next
//! hop — is pinned here instead: every scenario's outcome is folded into
//! one FNV-1a digest over all ASes, and the digests must match a
//! committed golden line for line.
//!
//! The grid is 4 deployments × 3 security models × {LP, LP2, LPinf} ×
//! 4 stub-heavy scenario shapes on a synthetic Internet, whose ~85% stub
//! share matches the paper's topology:
//!
//! - `normal_marked`: normal conditions with a multihomed stub as the mark;
//! - `fakelink`: a stub attacker's fake link to a content provider;
//! - `hijack`: a Tier-2 origin hijack of a stub destination;
//! - `collude2`: two colluding stubs flooding 2-hop forged paths.
//!
//! The 2 000-AS grid runs in tier-1. The 40 000-AS grid (the `scale_smoke`
//! graph) is `#[ignore]`d and run in release by CI's bench-smoke job:
//! `cargo test --release --test engine_fingerprint -- --ignored`.
//!
//! Both goldens pin the outcomes of the plain staged BFS. Each test prints
//! the fingerprint it computed (shown on failure). A change that
//! *intentionally* alters routing outcomes regenerates a golden by
//! redirecting that output:
//!
//! ```text
//! cargo test -q --release --test engine_fingerprint -- --include-ignored --exact \
//!     outcomes_match_the_fingerprint_golden_at_2000_ases --nocapture \
//!     | grep -E '^(empty|stub_simplex|mixed|everyone) ' \
//!     > tests/golden/engine_fingerprint_asns2000_seed7.txt
//! cargo test -q --release --test engine_fingerprint -- --include-ignored --exact \
//!     outcomes_match_the_fingerprint_golden_at_40000_ases --nocapture \
//!     | grep -E '^(empty|stub_simplex|mixed|everyone) ' \
//!     > tests/golden/engine_fingerprint_asns40000_seed42.txt
//! ```
//!
//! and says so in the commit message.

use std::fmt::Write as _;
use std::path::Path;

use bgp_juice::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over every AS's route class, length, security, root flags, mark
/// bit and next hop, then the happy-count bounds.
fn digest(graph: &AsGraph, o: &Outcome) -> u64 {
    let mut h = FNV_OFFSET;
    for v in graph.ases() {
        match o.route(v) {
            None => fnv(&mut h, &[0xff]),
            Some(r) => {
                let roots = u8::from(r.flags.may_reach_destination())
                    | u8::from(r.flags.may_reach_attacker()) << 1;
                fnv(&mut h, &[r.class as u8, u8::from(r.secure), roots]);
                fnv(&mut h, &r.length.to_le_bytes());
            }
        }
        fnv(&mut h, &[u8::from(o.may_traverse_mark(v))]);
        let hop = o.next_hop(v).map_or(u32::MAX, |u| u.0);
        fnv(&mut h, &hop.to_le_bytes());
    }
    let (lo, hi) = o.count_happy();
    fnv(&mut h, &(lo as u64).to_le_bytes());
    fnv(&mut h, &(hi as u64).to_le_bytes());
    h
}

/// A deterministic per-AS hash for the mixed deployment (splitmix64).
fn mix(seed: u64, v: AsId) -> u64 {
    let mut z = seed ^ u64::from(v.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn deployments(net: &Internet) -> Vec<(&'static str, Deployment)> {
    let g = &net.graph;
    let n = g.len();
    let everyone = Deployment::full_from_iter(n, g.ases());
    let mut mixed = Deployment::empty(n);
    for v in g.ases() {
        match mix(0x5eed, v) % 3 {
            0 => mixed.insert_full(v),
            1 => mixed.insert_simplex(v),
            _ => {}
        }
    }
    vec![
        ("empty", Deployment::empty(n)),
        ("stub_simplex", everyone.stubs_to_simplex(g)),
        ("mixed", mixed),
        ("everyone", everyone),
    ]
}

/// The four scenario shapes, built around stubs (ASes with no customers).
fn shapes(net: &Internet) -> Vec<(&'static str, AttackScenario)> {
    let g = &net.graph;
    let stubs: Vec<AsId> = g.ases().filter(|&v| g.customer_degree(v) == 0).collect();
    let multihomed: Vec<AsId> = stubs
        .iter()
        .copied()
        .filter(|&v| g.provider_degree(v) >= 2)
        .collect();
    assert!(multihomed.len() >= 4, "too few multihomed stubs");
    let cp = net.content_providers[0];
    let tier2 = net.tiers.tier2()[0];
    let mark = multihomed[multihomed.len() / 5];
    let attacker = multihomed[multihomed.len() / 2];
    let dest = stubs[stubs.len() / 3];
    let colluders = [multihomed[multihomed.len() / 4], stubs[2 * stubs.len() / 3]];
    assert!(![mark, attacker, dest, colluders[0], colluders[1]].contains(&cp));
    assert_ne!(colluders[0], colluders[1]);
    vec![
        ("normal_marked", AttackScenario::normal_marked(cp, mark)),
        ("fakelink", AttackScenario::attack(attacker, cp)),
        ("hijack", AttackScenario::hijack(tier2, dest)),
        (
            "collude2",
            AttackScenario::colluding(&colluders, cp)
                .with_strategy(AttackStrategy::FakePath { hops: 2 }),
        ),
    ]
}

/// One line per scenario: `deployment model variant shape digest lo hi`.
fn fingerprint(net: &Internet) -> String {
    let mut engine = Engine::new(&net.graph);
    let mut out = String::new();
    for (dep_name, dep) in deployments(net) {
        for model in SecurityModel::ALL {
            for variant in [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf] {
                let policy = Policy::with_variant(model, variant);
                for (shape, scenario) in shapes(net) {
                    let o = engine.compute(scenario, &dep, policy);
                    let (lo, hi) = o.count_happy();
                    let model = model.label().replace(' ', "");
                    writeln!(
                        out,
                        "{dep_name} {model} {variant} {shape} {:016x} {lo} {hi}",
                        digest(&net.graph, o)
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

/// Print `net`'s fingerprint, then compare it with the committed golden.
fn check(net: &Internet, golden_name: &str) {
    let got = fingerprint(net);
    print!("{got}");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden_name);
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "line {} diverged from tests/golden/{golden_name}",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "line count diverged from tests/golden/{golden_name}"
    );
}

#[test]
fn outcomes_match_the_fingerprint_golden_at_2000_ases() {
    check(
        &Internet::synthetic(2000, 7),
        "engine_fingerprint_asns2000_seed7.txt",
    );
}

#[test]
#[ignore = "40k-AS fingerprint; run by CI bench-smoke with --ignored"]
fn outcomes_match_the_fingerprint_golden_at_40000_ases() {
    check(
        &Internet::synthetic(40_000, 42),
        "engine_fingerprint_asns40000_seed42.txt",
    );
}
