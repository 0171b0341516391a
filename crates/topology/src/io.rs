//! CAIDA serial-1/serial-2 relationship-file I/O.
//!
//! Format (one edge per line, `#` comments):
//!
//! ```text
//! <provider-asn>|<customer-asn>|-1
//! <peer-asn>|<peer-asn>|0
//! <provider-asn>|<customer-asn>|-1|<source>     (serial-2)
//! ```
//!
//! Serial-2 releases append one provenance column — the inference source,
//! one of `bgp`, `mlp` or `ixp` — which is accepted and ignored; any other
//! trailing column (or a fifth column) is rejected with a located parse
//! error rather than silently dropped, so junk files cannot masquerade as
//! valid snapshots.
//!
//! Real-world ASNs are remapped to dense [`AsId`]s in first-appearance
//! order; the original numbers are preserved as [`AsGraph::asn_label`]s.
//! This is the format of CAIDA's `as-rel` releases and of the UCLA Cyclops
//! snapshots the paper used, so published snapshots can be dropped in as a
//! replacement for the synthetic generator.
//!
//! The parser reads a document in one pass: canonical lines
//! (`digits|digits|-1|0`, with an optional source column) take a
//! byte-level fast path, every other line the general parser, and ASNs
//! are interned through a dense open-addressing table. Each edge is kept
//! as one `u64` key, the key [`GraphBuilder::from_edges`] builds from.
//! Repeated lines are not tracked while reading: the keys are sorted,
//! exact repeats dropped and contradictory ones found, and the text is
//! freed before the CSR arrays are filled. Only when a line fails to
//! parse or the sort finds a contradiction is the text scanned again,
//! with a map of each pair's first declaration, so the error names the
//! first bad line in file order — for a contradiction, with the line of
//! the declaration it contradicts. Bytes that are not UTF-8 are a parse
//! error on their line, naming the byte offset.
//!
//! **Caveat:** the relationship format carries edges only, so an AS with no
//! edges at all is unrepresentable — a write→parse round trip drops
//! edge-less ASes. Real snapshots never contain them (an AS with no
//! relationships is not observable in BGP), and the synthetic generator
//! never produces them.
//!
//! [`GraphBuilder::from_edges`]: crate::GraphBuilder::from_edges

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasher, Hasher};
use std::io::Read;
use std::path::Path;

use crate::builder::{edge_key, fill_csr, sort_edge_keys, MAX_KEYED_ASES};
use crate::{AsGraph, AsId, Relationship, TopologyError};

/// The provenance tokens serial-2 releases append as a fourth column.
const SERIAL2_SOURCES: [&str; 3] = ["bgp", "mlp", "ixp"];

/// One data line, in file order: `a|b|-1` (`a` is `b`'s provider) or
/// `a|b|0` (`peer`).
struct Line {
    a: u32,
    b: u32,
    peer: bool,
}

/// Parse a serial-1 or serial-2 relationship document from any reader.
///
/// One pass over the text interns ASNs and packs every declared edge into
/// one `u64` key, the key [`GraphBuilder::from_edges`] builds from. The
/// keys are then sorted, exact repeats (in either direction for peers)
/// dropped and contradictory declarations of one pair found while the
/// text is still held; the text is freed before the CSR arrays are
/// filled, so the two never coexist. The returned error is always the
/// first one in file order: a line that does not parse, or a line that
/// contradicts an earlier declaration of its pair (naming that
/// declaration's line). Both are located by re-scanning the text, which
/// only happens once the document is known to be bad. Bytes that are not
/// UTF-8 are a parse error on their line, naming the byte offset.
///
/// [`GraphBuilder::from_edges`]: crate::GraphBuilder::from_edges
pub fn parse_relationships<R: Read>(mut reader: R) -> Result<AsGraph, TopologyError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let text = match std::str::from_utf8(&bytes) {
        Ok(text) => text,
        Err(e) => return Err(not_utf8(&bytes, e.valid_up_to())),
    };

    let mut ids = AsnIds::new();
    let mut labels: Vec<u32> = Vec::new();
    // Room for as many edges as the text can hold (the shortest data line,
    // `1|2|0\n`, is six bytes), so the list never regrows and leaves no
    // copies behind; the pages past the edges actually read are never
    // written, so they cost address space, not memory.
    let mut keys: Vec<u64> = Vec::with_capacity(text.len() / 6 + 1);
    for (lineno, line) in text.lines().enumerate() {
        let Line { a, b, peer } = match parse_line(line, lineno + 1) {
            Ok(Some(line)) => line,
            Ok(None) => continue,
            Err(e) => return Err(first_error(text).unwrap_or(e)),
        };
        let (Some(a), Some(b)) = (ids.intern(a, &mut labels), ids.intern(b, &mut labels)) else {
            return Err(TopologyError::Parse {
                line: lineno + 1,
                message: format!("more than {MAX_KEYED_ASES} distinct ASNs"),
            });
        };
        keys.push(if peer {
            edge_key(a, b, Relationship::PeerToPeer)
        } else {
            edge_key(b, a, Relationship::CustomerToProvider)
        });
    }
    // The table is done with; the sort and the fill may reuse its memory.
    drop(ids);
    // Every id is interned and no line is a self-loop, so the only
    // relationship error left is a contradiction, which the re-scan
    // locates.
    if let Err(e) = sort_edge_keys(&mut keys) {
        return Err(first_error(text).unwrap_or(e));
    }
    drop(bytes);
    Ok(fill_csr(labels.len(), labels, &keys))
}

/// Dense ASN → [`AsId`] interning: open addressing with linear probing
/// over a power-of-two table of ids, kept at most half full. Ids are
/// handed out in first-appearance order, and `labels[id]` is the ASN of
/// `id`, so a slot holds only the id.
///
/// Slots come from multiply-shift hashing with a random odd multiplier
/// drawn per table: ASNs come from the file, and a fixed multiplier would
/// let a crafted file pile every ASN into one probe run. The ids do not
/// depend on the multiplier.
struct AsnIds {
    /// An id per slot, or [`AsnIds::FREE`].
    slots: Vec<u32>,
    mul: u64,
    /// 64 minus log2 of the slot count.
    shift: u32,
}

impl AsnIds {
    const FREE: u32 = u32::MAX;

    fn new() -> AsnIds {
        let mut random = RandomState::new().build_hasher();
        random.write_u8(0);
        AsnIds {
            slots: Vec::new(),
            mul: random.finish() | 1,
            shift: 64,
        }
    }

    fn slot(&self, asn: u32) -> usize {
        (self.mul.wrapping_mul(u64::from(asn)) >> self.shift) as usize
    }

    /// The id of `asn`, or `None` when it would be new and every id an
    /// edge key holds is taken.
    fn intern(&mut self, asn: u32, labels: &mut Vec<u32>) -> Option<AsId> {
        if 2 * (labels.len() + 1) > self.slots.len() {
            self.grow(labels);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.slot(asn);
        loop {
            match self.slots[i] {
                Self::FREE if labels.len() == MAX_KEYED_ASES => return None,
                Self::FREE => {
                    let id = labels.len() as u32;
                    self.slots[i] = id;
                    labels.push(asn);
                    return Some(AsId(id));
                }
                id if labels[id as usize] == asn => return Some(AsId(id)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Double the table (1,024 slots at first) and re-insert every id.
    fn grow(&mut self, labels: &[u32]) {
        let len = (2 * self.slots.len()).max(1024);
        self.slots = vec![Self::FREE; len];
        self.shift = 64 - len.trailing_zeros();
        for (id, &asn) in labels.iter().enumerate() {
            let mut i = self.slot(asn);
            while self.slots[i] != Self::FREE {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = id as u32;
        }
    }
}

/// Parse one line (numbered `lineno` from 1): `None` for a blank or
/// comment line. Canonical lines take a byte-level fast path; every other
/// line goes through the general parser, which trims whitespace around
/// each column and accepts whatever `u32::from_str` accepts.
fn parse_line(line: &str, lineno: usize) -> Result<Option<Line>, TopologyError> {
    match canonical_line(line.as_bytes()) {
        Some(line) => Ok(Some(line)),
        None => general_line(line, lineno),
    }
}

/// `digits|digits|-1` or `digits|digits|0`, optionally followed by one
/// `|bgp`, `|mlp` or `|ixp` column, with nothing else on the line and two
/// different ASNs. `None` hands the line to [`general_line`].
fn canonical_line(line: &[u8]) -> Option<Line> {
    /// Up to ten leading ASCII digits that fit a `u32`, and the rest.
    fn asn(s: &[u8]) -> Option<(u32, &[u8])> {
        let n = s.iter().take_while(|c| c.is_ascii_digit()).count();
        if n == 0 || n > 10 {
            return None;
        }
        let v = s[..n]
            .iter()
            .fold(0u64, |v, &c| 10 * v + u64::from(c - b'0'));
        Some((u32::try_from(v).ok()?, &s[n..]))
    }
    let (a, rest) = asn(line)?;
    let (b, rest) = asn(rest.strip_prefix(b"|")?)?;
    let (peer, rest) = match rest.strip_prefix(b"|-1") {
        Some(rest) => (false, rest),
        None => (true, rest.strip_prefix(b"|0")?),
    };
    let source = matches!(rest, b"" | b"|bgp" | b"|mlp" | b"|ixp");
    (source && a != b).then_some(Line { a, b, peer })
}

/// The general line parser, which also produces every located parse
/// error.
fn general_line(line: &str, lineno: usize) -> Result<Option<Line>, TopologyError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split('|');
    let (a, b, rel) = match (parts.next(), parts.next(), parts.next()) {
        (Some(a), Some(b), Some(rel)) => (a, b, rel),
        _ => {
            return Err(TopologyError::Parse {
                line: lineno,
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
                line: lineno,
                message: format!(
                    "unknown trailing column {source:?} (serial-2 allows one \
                     source column: bgp|mlp|ixp)"
                ),
            })
        }
        (Some(_), Some(_)) => {
            return Err(TopologyError::Parse {
                line: lineno,
                message: format!("too many '|' columns in {line:?}"),
            })
        }
    }
    let parse_asn = |s: &str| -> Result<u32, TopologyError> {
        s.trim().parse().map_err(|_| TopologyError::Parse {
            line: lineno,
            message: format!("bad ASN {s:?}"),
        })
    };
    let a = parse_asn(a)?;
    let b = parse_asn(b)?;
    let peer = match rel.trim() {
        // serial-1: "a|b|-1" means a is the *provider* of b.
        "-1" => false,
        "0" => true,
        other => {
            return Err(TopologyError::Parse {
                line: lineno,
                message: format!("unknown relationship code {other:?}"),
            })
        }
    };
    if a == b {
        return Err(TopologyError::Parse {
            line: lineno,
            message: format!("self-loop on AS{a}"),
        });
    }
    Ok(Some(Line { a, b, peer }))
}

/// The first error of `text` in file order, if it has one: a line that
/// does not parse, or the first line that contradicts an earlier
/// declaration of its ASN pair (peer vs transit, or the transit direction
/// reversed), named with that declaration's line. Exact repeats are not
/// errors.
#[cold]
fn first_error(text: &str) -> Option<TopologyError> {
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum DeclaredRel {
        /// The named ASN is the provider of the pair's other member.
        ProviderIs(u32),
        Peer,
    }
    let mut seen: HashMap<(u32, u32), (DeclaredRel, usize)> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let Line { a, b, peer } = match parse_line(line, lineno + 1) {
            Ok(Some(line)) => line,
            Ok(None) => continue,
            Err(e) => return Some(e),
        };
        let declared = if peer {
            DeclaredRel::Peer
        } else {
            DeclaredRel::ProviderIs(a)
        };
        match seen.entry((a.min(b), a.max(b))) {
            Entry::Vacant(slot) => {
                slot.insert((declared, lineno + 1));
            }
            Entry::Occupied(first) if first.get().0 == declared => {}
            Entry::Occupied(first) => {
                return Some(TopologyError::Parse {
                    line: lineno + 1,
                    message: format!(
                        "conflicting duplicate of the {a}|{b} edge \
                         (first declared on line {})",
                        first.get().1
                    ),
                })
            }
        }
    }
    None
}

/// The error for a document whose bytes stop being UTF-8 at offset `at`:
/// the first error of the lines before the bad byte's line, if there is
/// one, or else a parse error on that line naming the offset.
#[cold]
fn not_utf8(bytes: &[u8], at: usize) -> TopologyError {
    let start = bytes[..at]
        .iter()
        .rposition(|&c| c == b'\n')
        .map_or(0, |i| i + 1);
    let before = std::str::from_utf8(&bytes[..start]).expect("valid up to the bad byte");
    first_error(before).unwrap_or_else(|| TopologyError::Parse {
        line: 1 + before.matches('\n').count(),
        message: format!("invalid UTF-8 at byte {at}"),
    })
}

/// Parse a serial-1/serial-2 relationship file from disk.
pub fn read_relationships_file(path: &Path) -> Result<AsGraph, TopologyError> {
    let file = std::fs::File::open(path)?;
    parse_relationships(file)
}

/// Serialize `graph` to serial-1 text (using ASN labels when present).
///
/// The format carries edges only: an AS with no edges at all does not
/// appear in the output, so parsing it back drops such ASes (see the
/// module docs). Every connected graph round-trips exactly.
pub fn write_relationships(graph: &AsGraph) -> String {
    let mut out = String::new();
    out.push_str("# serial-1 AS relationships: <provider>|<customer>|-1, <peer>|<peer>|0\n");
    for (a, b, rel) in graph.edges() {
        let (la, lb) = (graph.asn_label(a), graph.asn_label(b));
        match rel {
            // `a` is the customer in our edge iterator.
            Relationship::CustomerToProvider => {
                writeln!(out, "{lb}|{la}|-1").expect("string write")
            }
            Relationship::PeerToPeer => writeln!(out, "{la}|{lb}|0").expect("string write"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, InternetConfig};

    const SAMPLE: &str = "\
# a comment
3356|21740|-1
174|21740|0

3356|174|0
701|3356|-1
";

    #[test]
    fn parses_sample() {
        let g = parse_relationships(SAMPLE.as_bytes()).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_customer_provider_edges(), 2);
        assert_eq!(g.num_peer_edges(), 2);
        // Find ids via labels.
        let id_of = |asn: u32| g.ases().find(|&v| g.asn_label(v) == asn).unwrap();
        let (l3, enom, cogent, uunet) = (id_of(3356), id_of(21740), id_of(174), id_of(701));
        assert_eq!(g.providers(enom), &[l3]);
        assert!(g.peers(enom).contains(&cogent));
        assert!(g.peers(l3).contains(&cogent));
        assert_eq!(g.providers(l3), &[uunet]);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            parse_relationships("1|2".as_bytes()),
            Err(TopologyError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_relationships("1|2|7".as_bytes()),
            Err(TopologyError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_relationships("x|2|0".as_bytes()),
            Err(TopologyError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_conflicts_with_line_numbers() {
        // A reversed transit declaration contradicts the first line; the
        // parser must say so (with both line numbers) rather than letting
        // the builder fail later without location information.
        for doc in [
            "1|2|-1\n2|1|-1\n", // provider direction reversed
            "1|2|-1\n1|2|0\n",  // transit vs peering
            "1|2|0\n2|1|-1\n",  // peering vs transit, reversed order
        ] {
            match parse_relationships(doc.as_bytes()) {
                Err(TopologyError::Parse { line: 2, message }) => {
                    assert!(message.contains("line 1"), "{message}");
                    assert!(message.contains("conflicting duplicate"), "{message}");
                }
                other => panic!("{doc:?}: expected a line-2 parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_contradiction_on_the_last_line_of_a_large_document_is_located() {
        // The text is freed before the CSR fill; the contradiction must
        // still be found while it is held, with both lines named.
        let text = write_relationships(&generate(&InternetConfig::sized(2_000, 5)).graph);
        let (first_at, first) = text
            .lines()
            .enumerate()
            .find(|(_, l)| l.ends_with("|-1"))
            .expect("a transit line");
        let (p, c) = first.split_once('|').expect("a|b|-1");
        let c = c.trim_end_matches("|-1");
        let doc = format!("{text}{c}|{p}|-1\n");
        let last = doc.lines().count();
        assert!(last > 4_000, "{last} lines");
        match parse_relationships(doc.as_bytes()) {
            Err(TopologyError::Parse { line, message }) => {
                assert_eq!(line, last);
                assert!(
                    message.contains(&format!("first declared on line {}", first_at + 1)),
                    "{message}"
                );
            }
            other => panic!("expected a located conflict, got {other:?}"),
        }
    }

    #[test]
    fn the_first_error_in_file_order_is_reported() {
        // The key sort meets the 1|2 pair first (lowest ids), but the 5|6
        // contradiction comes first in the file.
        let doc = "1|2|-1\n5|6|0\n5|6|-1\n1|2|0\n";
        match parse_relationships(doc.as_bytes()) {
            Err(TopologyError::Parse { line: 3, message }) => {
                assert!(message.contains("5|6"), "{message}");
                assert!(message.contains("line 2"), "{message}");
            }
            other => panic!("expected a line-3 conflict, got {other:?}"),
        }
        // A conflict before a bad line wins, and a bad line before a
        // conflict wins.
        for (doc, line) in [("1|2|0\n1|2|-1\nx|y|0\n", 2), ("1|2|0\nx|3|0\n1|2|-1\n", 2)] {
            match parse_relationships(doc.as_bytes()) {
                Err(TopologyError::Parse { line: l, .. }) if l == line => {}
                other => panic!("{doc:?}: expected a line-{line} error, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_utf8_bytes_are_a_located_parse_error() {
        match parse_relationships(&b"1|2|0\n\xff|3|0\n"[..]) {
            Err(TopologyError::Parse { line: 2, message }) => {
                assert!(message.contains("byte 6"), "{message}");
            }
            other => panic!("expected a line-2 parse error, got {other:?}"),
        }
        // An error on an earlier line still comes first.
        assert!(matches!(
            parse_relationships(&b"7|7|0\n1|2|0\n3|\xc3(|0\n"[..]),
            Err(TopologyError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn canonical_and_general_lines_parse_alike() {
        // Whitespace, `+` signs and a serial-2 column with spaces leave the
        // byte-level fast path for the general parser; the graph must not
        // depend on which path read a line.
        let canonical = "4200000000|21740|-1\n174|21740|0|bgp\n3356|174|0\n";
        let general = "4200000000 | 21740|-1\r\n+174|021740|0| bgp\n\t3356|174|0 \n";
        let (g, h) = (
            parse_relationships(canonical.as_bytes()).unwrap(),
            parse_relationships(general.as_bytes()).unwrap(),
        );
        assert_eq!(g.len(), h.len());
        for v in g.ases() {
            assert_eq!(g.asn_label(v), h.asn_label(v));
            assert_eq!(g.customers(v), h.customers(v));
            assert_eq!(g.peers(v), h.peers(v));
            assert_eq!(g.providers(v), h.providers(v));
        }
        // Past `u32` is a bad ASN on either path.
        assert!(matches!(
            parse_relationships("4294967296|1|0\n".as_bytes()),
            Err(TopologyError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn exact_duplicates_are_deduplicated() {
        // Repeating the same declaration (in either direction for peers)
        // must not double the adjacency.
        let doc = "1|2|-1\n1|2|-1\n3|4|0\n4|3|0\n";
        let g = parse_relationships(doc.as_bytes()).unwrap();
        assert_eq!(g.num_customer_provider_edges(), 1);
        assert_eq!(g.num_peer_edges(), 1);
        let id_of = |asn: u32| g.ases().find(|&v| g.asn_label(v) == asn).unwrap();
        assert_eq!(g.customers(id_of(1)).len(), 1);
        assert_eq!(g.peers(id_of(3)).len(), 1);
    }

    #[test]
    fn serial2_source_column_is_accepted() {
        let doc = "3356|21740|-1|bgp\n174|3356|0|mlp\n174|21740|0|ixp\n";
        let g = parse_relationships(doc.as_bytes()).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.num_customer_provider_edges(), 1);
        assert_eq!(g.num_peer_edges(), 2);
    }

    #[test]
    fn junk_trailing_columns_are_rejected_with_location() {
        for doc in [
            "1|2|0|junk\n",      // unknown source token
            "1|2|-1|\n",         // empty source column
            "1|2|-1|bgp|more\n", // five columns
            "1|2|0|bgp|bgp\n",   // five columns, all known tokens
        ] {
            match parse_relationships(doc.as_bytes()) {
                Err(TopologyError::Parse { line: 1, .. }) => {}
                other => panic!("{doc:?}: expected a line-1 parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_self_loops_with_location() {
        assert!(matches!(
            parse_relationships("7|7|0\n".as_bytes()),
            Err(TopologyError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn round_trips_generated_graph() {
        let g = generate(&InternetConfig::sized(600, 3)).graph;
        let text = write_relationships(&g);
        let g2 = parse_relationships(text.as_bytes()).unwrap();
        assert_eq!(g.len(), g2.len());
        assert_eq!(
            g.num_customer_provider_edges(),
            g2.num_customer_provider_edges()
        );
        assert_eq!(g.num_peer_edges(), g2.num_peer_edges());
        // Compare adjacency via labels (ids may be permuted).
        let mut to_g2 = std::collections::HashMap::new();
        for v in g2.ases() {
            to_g2.insert(g2.asn_label(v), v);
        }
        for v in g.ases() {
            let v2 = to_g2[&g.asn_label(v)];
            let mut provs: Vec<u32> = g.providers(v).iter().map(|&p| g.asn_label(p)).collect();
            let mut provs2: Vec<u32> = g2.providers(v2).iter().map(|&p| g2.asn_label(p)).collect();
            provs.sort_unstable();
            provs2.sort_unstable();
            assert_eq!(provs, provs2, "{v} providers");
        }
    }
}
