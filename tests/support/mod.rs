//! Helpers shared by the integration tests: reading planner replies,
//! locating the product binaries the subprocess tests drive, a churn
//! trajectory whose wane never retraces its wax, the fuzzers' seeded
//! generator, and the reference as-rel parser with the graph comparison
//! its differential checks use.

// Each test crate compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::Command;

use bgp_juice::prelude::*;
use bgp_juice::sim::json::Reader;
use bgp_juice::topology::{Relationship, TopologyError};

/// The provenance tokens serial-2 releases append as a fourth column.
const SERIAL2_SOURCES: [&str; 3] = ["bgp", "mlp", "ixp"];

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

/// SplitMix64: a tiny seeded generator, so the stream never changes.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The as-rel parser as it stood before the one-pass rewrite, kept
/// verbatim as the oracle `tests/asrel_fuzz.rs` and the parse speed gate
/// compare `io::parse_relationships` against: a line-counting pre-pass,
/// SipHash interning, and a `seen` map that locates exact repeats and
/// conflicts while it reads. Non-UTF-8 input is an `Io` error here.
pub fn reference_parse_relationships<R: Read>(mut reader: R) -> Result<AsGraph, TopologyError> {
    // Slurp the document, then pre-size every container from a cheap
    // line-counting pass: at 100k+ ASes the re-hash/re-allocation churn of
    // growing the intern and dedup maps from empty is measurable, and the
    // text itself is small (a full Internet snapshot is a few MB).
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let data_lines = text
        .lines()
        .filter(|l| {
            let l = l.trim();
            !l.is_empty() && !l.starts_with('#')
        })
        .count();

    let mut ids: HashMap<u32, AsId> = HashMap::with_capacity(data_lines);
    let mut labels: Vec<u32> = Vec::with_capacity(data_lines / 2 + 1);
    let mut edges: Vec<(AsId, AsId, Relationship)> = Vec::with_capacity(data_lines);
    // Relationship of each normalized ASN pair as first declared, plus its
    // line number: exact repeats are deduplicated, *contradictory* repeats
    // (peer vs transit, or the transit direction reversed) are rejected
    // here — with both line numbers — instead of surfacing later from the
    // builder without any location, or worse, silently double-counting.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum DeclaredRel {
        /// The named ASN is the provider of the pair's other member.
        ProviderIs(u32),
        Peer,
    }
    let mut seen: HashMap<(u32, u32), (DeclaredRel, usize)> = HashMap::new();

    let mut intern = |asn: u32, labels: &mut Vec<u32>| -> AsId {
        *ids.entry(asn).or_insert_with(|| {
            let id = AsId(labels.len() as u32);
            labels.push(asn);
            id
        })
    };

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('|');
        let (a, b, rel) = match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(b), Some(rel)) => (a, b, rel),
            _ => {
                return Err(TopologyError::Parse {
                    line: lineno + 1,
                    message: format!("expected 'a|b|rel', got {line:?}"),
                })
            }
        };
        // Serial-2 appends exactly one provenance column; anything else
        // trailing is junk and must not parse as a valid snapshot.
        match (parts.next(), parts.next()) {
            (None, _) => {}
            (Some(source), None) if SERIAL2_SOURCES.contains(&source.trim()) => {}
            (Some(source), None) => {
                return Err(TopologyError::Parse {
                    line: lineno + 1,
                    message: format!(
                        "unknown trailing column {source:?} (serial-2 allows one \
                         source column: bgp|mlp|ixp)"
                    ),
                })
            }
            (Some(_), Some(_)) => {
                return Err(TopologyError::Parse {
                    line: lineno + 1,
                    message: format!("too many '|' columns in {line:?}"),
                })
            }
        }
        let parse_asn = |s: &str| -> Result<u32, TopologyError> {
            s.trim().parse().map_err(|_| TopologyError::Parse {
                line: lineno + 1,
                message: format!("bad ASN {s:?}"),
            })
        };
        let a = parse_asn(a)?;
        let b = parse_asn(b)?;
        let declared = match rel.trim() {
            // serial-1: "a|b|-1" means a is the *provider* of b.
            "-1" => DeclaredRel::ProviderIs(a),
            "0" => DeclaredRel::Peer,
            other => {
                return Err(TopologyError::Parse {
                    line: lineno + 1,
                    message: format!("unknown relationship code {other:?}"),
                })
            }
        };
        if a == b {
            return Err(TopologyError::Parse {
                line: lineno + 1,
                message: format!("self-loop on AS{a}"),
            });
        }
        let key = (a.min(b), a.max(b));
        match seen.get(&key) {
            Some(&(prev, _)) if prev == declared => continue, // exact repeat
            Some(&(_, prev_line)) => {
                return Err(TopologyError::Parse {
                    line: lineno + 1,
                    message: format!(
                        "conflicting duplicate of the {a}|{b} edge \
                         (first declared on line {prev_line})"
                    ),
                })
            }
            None => {
                seen.insert(key, (declared, lineno + 1));
            }
        }
        let a = intern(a, &mut labels);
        let b = intern(b, &mut labels);
        match declared {
            DeclaredRel::ProviderIs(_) => edges.push((b, a, Relationship::CustomerToProvider)),
            DeclaredRel::Peer => edges.push((a, b, Relationship::PeerToPeer)),
        }
    }

    // Bulk sorted-edge CSR build: the `seen` map above already guarantees
    // the edge list is duplicate-free and conflict-free, so this cannot
    // fail on relationships — it only re-checks structure (and the label
    // count, which matches by construction).
    GraphBuilder::from_edges(labels.len(), labels, edges)
}

/// Same labels in the same order, and the same customer, peer and
/// provider segments for every AS.
pub fn assert_same_graph(a: &AsGraph, b: &AsGraph) {
    assert_eq!(a.len(), b.len());
    for v in a.ases() {
        assert_eq!(a.asn_label(v), b.asn_label(v), "{v} label");
        assert_eq!(a.customers(v), b.customers(v), "{v} customers");
        assert_eq!(a.peers(v), b.peers(v), "{v} peers");
        assert_eq!(a.providers(v), b.providers(v), "{v} providers");
    }
}
