//! Differential fuzzing of the as-rel reader.
//!
//! Seeded mutants of the Cyclops fixture and of small generated serial-1
//! documents are fed to `io::parse_relationships` and to the reference
//! parser in `tests/support` (the design the one-pass parser replaced).
//! Every mutant must give the same graph from both — the same labels in
//! the same order and the same customer, peer and provider segments —
//! or the same error text, and neither may panic. Mutations splice in
//! the tokens the grammar turns on (digits, `|`, `-1`, `0`, source
//! columns, junk words, `+`, tabs and spaces, CRLF, `#`, ASNs past
//! `u32`), delete spans, and duplicate a line with its relationship or
//! direction flipped, so exact repeats and contradictions are common. A
//! disagreement is shrunk line by line before it is reported.
//!
//! The mutation stream is fixed by the seed, so a failure reproduces
//! exactly. The tier-1 run takes well under a second in a debug build;
//! the long run is `#[ignore]`d:
//!
//! ```text
//! cargo test --release --test asrel_fuzz -- --ignored --nocapture
//! ```

mod support;

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

use bgp_juice::prelude::*;
use bgp_juice::topology::io::parse_relationships;
use bgp_juice::topology::TopologyError;
use support::{assert_same_graph, reference_parse_relationships, Rng};

/// The tokens mutants are spliced from.
const ATOMS: &[&str] = &[
    "0",
    "7",
    "42",
    "3356",
    "15169",
    "|",
    "|",
    "-1",
    "0",
    "|-1",
    "|0",
    "bgp",
    "|bgp",
    "|mlp",
    "|ixp",
    "x",
    "--1",
    "1e3",
    "ixpx",
    "\u{a0}",
    "é",
    "+",
    "\t",
    " ",
    "\r\n",
    "\n",
    "\r",
    "#",
    "4294967295",
    "4294967296",
    "99999999999",
    "000000000042",
];

/// Small ASN pool for generated documents, so pairs repeat.
const POOL: &[u32] = &[1, 2, 3, 7, 42, 174, 3356, 15169, 4_294_967_295];

/// A small serial-1/serial-2 document drawn from [`POOL`].
fn generated(rng: &mut Rng) -> String {
    let mut doc = String::new();
    for _ in 0..1 + rng.below(12) {
        match rng.below(10) {
            0 => doc.push_str("# comment\n"),
            1 => doc.push('\n'),
            _ => {
                let a = POOL[rng.below(POOL.len())];
                let b = POOL[rng.below(POOL.len())];
                let rel = ["-1", "0"][rng.below(2)];
                let source = ["", "", "|bgp", "|mlp", "|ixp"][rng.below(5)];
                doc.push_str(&format!("{a}|{b}|{rel}{source}\n"));
            }
        }
    }
    doc
}

/// One to three mutations of `seed`.
fn mutate(seed: &str, rng: &mut Rng) -> String {
    let mut s = seed.to_string();
    for _ in 0..1 + rng.below(3) {
        let at = char_boundary(&s, rng.below(s.len() + 1));
        match rng.below(4) {
            0 => s.insert_str(at, ATOMS[rng.below(ATOMS.len())]),
            1 => {
                let end = char_boundary(&s, at + rng.below(8));
                s.replace_range(at..end, ATOMS[rng.below(ATOMS.len())]);
            }
            2 => {
                let end = char_boundary(&s, at + 1 + rng.below(6));
                s.replace_range(at..end, "");
            }
            _ => {
                // Repeat a line — flipped in relationship or direction, or
                // verbatim — before a random line.
                let mut lines: Vec<&str> = s.split_inclusive('\n').collect();
                let Some(line) = lines.get(rng.below(lines.len())) else {
                    continue;
                };
                let line = line.trim_end_matches('\n');
                let mut copy = match rng.below(3) {
                    0 if line.contains("|-1") => line.replacen("|-1", "|0", 1),
                    0 => line.replacen("|0", "|-1", 1),
                    1 => match line.splitn(3, '|').collect::<Vec<_>>()[..] {
                        [a, b, rel] => format!("{b}|{a}|{rel}"),
                        _ => line.to_string(),
                    },
                    _ => line.to_string(),
                };
                copy.push('\n');
                lines.insert(rng.below(lines.len() + 1), &copy);
                s = lines.concat();
            }
        }
    }
    s
}

/// The largest char boundary of `s` at or before `at`.
fn char_boundary(s: &str, at: usize) -> usize {
    (0..=at.min(s.len()))
        .rev()
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(0)
}

/// What a parser made of one document.
enum Outcome {
    Graph(AsGraph),
    Error(String),
    Panic,
}

fn run(parse: fn(&[u8]) -> Result<AsGraph, TopologyError>, doc: &str) -> Outcome {
    match panic::catch_unwind(AssertUnwindSafe(|| parse(doc.as_bytes()))) {
        Ok(Ok(graph)) => Outcome::Graph(graph),
        Ok(Err(e)) => Outcome::Error(e.to_string()),
        Err(_) => Outcome::Panic,
    }
}

/// Whether both parsers agree on `doc` — the same graph (`Ok(true)`) or
/// the same error text (`Ok(false)`) — or how they differ.
fn agree(doc: &str) -> Result<bool, String> {
    let fast = run(|b| parse_relationships(b), doc);
    let reference = run(|b| reference_parse_relationships(b), doc);
    match (&fast, &reference) {
        (Outcome::Graph(g), Outcome::Graph(h)) => {
            panic::catch_unwind(AssertUnwindSafe(|| assert_same_graph(g, h)))
                .map(|()| true)
                .map_err(|_| "the parsers built different graphs".to_string())
        }
        (Outcome::Error(e), Outcome::Error(f)) if e == f => Ok(false),
        _ => {
            let show = |o: &Outcome| match o {
                Outcome::Graph(g) => format!("a graph of {} ASes", g.len()),
                Outcome::Error(e) => format!("error {e:?}"),
                Outcome::Panic => "a panic".to_string(),
            };
            Err(format!(
                "parser: {}; reference: {}",
                show(&fast),
                show(&reference)
            ))
        }
    }
}

/// Drop lines from `doc` while the parsers still disagree on it.
fn shrink(doc: &str) -> String {
    let mut lines: Vec<&str> = doc.split_inclusive('\n').collect();
    let mut i = 0;
    while i < lines.len() {
        let mut fewer = lines.clone();
        fewer.remove(i);
        if agree(&fewer.concat()).is_err() {
            lines = fewer;
        } else {
            i += 1;
        }
    }
    lines.concat()
}

/// Check `mutants` mutants (half of the fixture, half of generated
/// documents) and return how many built equal graphs and how many drew
/// equal errors.
fn differential(mutants: usize, salt: u64) -> (usize, usize) {
    let fixture = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cyclops_sample.as-rel"),
    )
    .expect("cyclops fixture");
    let mut rng = Rng(salt);
    let (mut graphs, mut errors) = (0, 0);
    for k in 0..mutants {
        let doc = if k % 2 == 0 {
            mutate(&fixture, &mut rng)
        } else {
            let seed = generated(&mut rng);
            mutate(&seed, &mut rng)
        };
        match agree(&doc) {
            Ok(true) => graphs += 1,
            Ok(false) => errors += 1,
            Err(_) => {
                let doc = shrink(&doc);
                let why = agree(&doc).expect_err("a shrunk mutant still disagrees");
                panic!("the parsers disagree on {doc:?} (shrunk): {why}");
            }
        }
    }
    (graphs, errors)
}

#[test]
fn one_pass_parser_matches_the_reference_on_mutants() {
    let (graphs, errors) = differential(3_000, 7);
    println!("3000 mutants: {graphs} equal graphs, {errors} equal errors");
    // The mutants reach both sides of the reader.
    assert!(
        graphs > 300 && errors > 300,
        "{graphs} graphs, {errors} errors"
    );
}

#[test]
#[ignore = "long differential run; use --release"]
fn one_pass_parser_matches_the_reference_on_200k_mutants() {
    let (graphs, errors) = differential(200_000, 0x5eed);
    println!("200000 mutants: {graphs} equal graphs, {errors} equal errors");
    assert!(
        graphs > 20_000 && errors > 20_000,
        "{graphs} graphs, {errors} errors"
    );
}
