//! Error type for topology construction and parsing.

use std::fmt;

use crate::AsId;

/// Errors raised while building or parsing a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An edge references an AS id outside `0..n`, or a graph of `n`
    /// ASes would need an id past the 2³¹ that bulk construction holds
    /// (`id` is then the first id it cannot hold).
    IdOutOfRange {
        /// The offending id.
        id: AsId,
        /// Number of ASes the builder was created with.
        len: usize,
    },
    /// An AS was connected to itself.
    SelfLoop(AsId),
    /// The same AS pair was added twice with conflicting relationships.
    ConflictingRelationship(AsId, AsId),
    /// A relationship file line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An ASN-label vector of the wrong length was attached to a builder.
    LabelCountMismatch {
        /// Number of labels supplied.
        labels: usize,
        /// Number of ASes the builder was created with.
        len: usize,
    },
    /// A real-world ASN (e.g. from a `--cps` list) has no AS in the graph.
    UnknownAsn(u32),
    /// The customer→provider hierarchy of a parsed snapshot contains a
    /// cycle, violating the Gao–Rexford prerequisite.
    CyclicProviderHierarchy,
    /// Underlying I/O failure while reading a relationship file.
    Io(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::IdOutOfRange { id, len } if id.index() < *len => {
                write!(
                    f,
                    "a graph of {len} ASes is past the {} ids a graph can hold",
                    id.0
                )
            }
            TopologyError::IdOutOfRange { id, len } => {
                write!(f, "{id} is out of range for a graph of {len} ASes")
            }
            TopologyError::SelfLoop(id) => write!(f, "{id} cannot be its own neighbor"),
            TopologyError::ConflictingRelationship(a, b) => {
                write!(f, "conflicting relationships declared between {a} and {b}")
            }
            TopologyError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            TopologyError::LabelCountMismatch { labels, len } => {
                write!(f, "{labels} ASN labels attached to a graph of {len} ASes")
            }
            TopologyError::UnknownAsn(asn) => {
                write!(f, "no AS in the graph carries ASN {asn}")
            }
            TopologyError::CyclicProviderHierarchy => {
                write!(
                    f,
                    "the customer\u{2192}provider hierarchy contains a cycle \
                     (Gao\u{2013}Rexford stability requires an acyclic hierarchy)"
                )
            }
            TopologyError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<std::io::Error> for TopologyError {
    fn from(e: std::io::Error) -> Self {
        TopologyError::Io(e.to_string())
    }
}
