//! Plain-text graph interchange: whitespace edge lists.
//!
//! Keeps experiments debuggable (dump a failing graph, re-load it in a
//! test) without adding serialization dependencies.

use std::fmt::Write as _;
use std::num::ParseIntError;

use crate::graph::Graph;

/// Errors raised when parsing an edge list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseError {
    /// A non-comment line did not have exactly two fields.
    BadArity {
        /// 1-based line number.
        line: usize,
    },
    /// An endpoint failed to parse as an integer.
    BadVertex {
        /// 1-based line number.
        line: usize,
        /// The parse failure.
        source: ParseIntError,
    },
    /// Both endpoints of an edge were the same vertex. The graphs in this
    /// workspace are simple, so a self-loop in an input file is a data
    /// error rather than something to drop silently.
    SelfLoop {
        /// 1-based line number.
        line: usize,
        /// The offending vertex.
        vertex: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadArity { line } => {
                write!(f, "line {line}: expected exactly two vertex fields")
            }
            ParseError::BadVertex { line, source } => {
                write!(f, "line {line}: invalid vertex: {source}")
            }
            ParseError::SelfLoop { line, vertex } => {
                write!(
                    f,
                    "line {line}: self-loop at vertex {vertex} (graphs are simple)"
                )
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::BadVertex { source, .. } => Some(source),
            ParseError::BadArity { .. } | ParseError::SelfLoop { .. } => None,
        }
    }
}

/// Renders a graph as a `u v` edge list (one edge per line, `u < v`),
/// preceded by a `# n=<n> m=<m>` header comment.
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# n={} m={}", g.n(), g.m());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

/// Parses a `u v` edge list. Lines starting with `#` and blank lines are
/// ignored; the vertex count is `max endpoint + 1` (or `min_n` if larger).
///
/// Duplicate edges — including the same edge listed in both orientations,
/// as many interchange formats do — are collapsed to a single undirected
/// edge, so `from_edge_list` ∘ [`to_edge_list`] is the identity on graphs
/// and [`to_edge_list`] ∘ `from_edge_list` canonicalizes any valid edge
/// list (each edge once, `u < v`, as the `# n= m=` header claims).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed lines; self-loops are rejected with
/// [`ParseError::SelfLoop`] because the workspace's graphs are simple.
pub fn from_edge_list(text: &str, min_n: usize) -> Result<Graph, ParseError> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut max_v = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(a), Some(b), None) = (fields.next(), fields.next(), fields.next()) else {
            return Err(ParseError::BadArity { line: idx + 1 });
        };
        let u: usize = a.parse().map_err(|source| ParseError::BadVertex {
            line: idx + 1,
            source,
        })?;
        let v: usize = b.parse().map_err(|source| ParseError::BadVertex {
            line: idx + 1,
            source,
        })?;
        if u == v {
            return Err(ParseError::SelfLoop {
                line: idx + 1,
                vertex: u,
            });
        }
        max_v = max_v.max(u).max(v);
        edges.push((u, v));
    }
    let n = if edges.is_empty() {
        min_n
    } else {
        (max_v + 1).max(min_n)
    };
    Ok(Graph::from_edges(n, &edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_roundtrip() {
        let g = generators::grid(4, 3);
        let text = to_edge_list(&g);
        let back = from_edge_list(&text, 0).unwrap();
        assert_eq!(back, g);
        // Text-level round trip: re-rendering the parsed graph reproduces
        // the canonical text exactly (header included).
        assert_eq!(to_edge_list(&back), text);
    }

    #[test]
    fn header_claims_hold_on_canonical_output() {
        let g = generators::caveman(4, 5);
        let text = to_edge_list(&g);
        let header = text.lines().next().unwrap();
        assert_eq!(header, format!("# n={} m={}", g.n(), g.m()));
        // Every edge line satisfies u < v and appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for line in text.lines().skip(1) {
            let mut it = line.split_whitespace();
            let u: usize = it.next().unwrap().parse().unwrap();
            let v: usize = it.next().unwrap().parse().unwrap();
            assert!(u < v, "{line}");
            assert!(seen.insert((u, v)), "duplicate {line}");
        }
        assert_eq!(seen.len(), g.m());
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        // The same edge repeated — including both orientations — parses to
        // a single undirected edge, and re-rendering canonicalizes.
        let g = from_edge_list("0 1\n1 0\n0 1\n1 2\n", 0).unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(to_edge_list(&g), "# n=3 m=2\n0 1\n1 2\n");
    }

    #[test]
    fn self_loops_are_rejected() {
        let err = from_edge_list("0 1\n2 2\n", 0).unwrap_err();
        assert_eq!(err, ParseError::SelfLoop { line: 2, vertex: 2 });
        assert!(err.to_string().contains("self-loop"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g = from_edge_list("# header\n\n0 1\n  \n1 2\n", 0).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn min_n_pads_isolated_vertices() {
        let g = from_edge_list("0 1\n", 5).unwrap();
        assert_eq!(g.n(), 5);
        let empty = from_edge_list("# nothing\n", 3).unwrap();
        assert_eq!(empty.n(), 3);
        assert_eq!(empty.m(), 0);
    }

    #[test]
    fn malformed_lines_are_reported() {
        let err = from_edge_list("0 1 2\n", 0).unwrap_err();
        assert_eq!(err, ParseError::BadArity { line: 1 });
        let err = from_edge_list("0\n", 0).unwrap_err();
        assert_eq!(err, ParseError::BadArity { line: 1 });
        let err = from_edge_list("0 x\n", 0).unwrap_err();
        assert!(matches!(err, ParseError::BadVertex { line: 1, .. }));
        assert!(err.to_string().contains("line 1"));
    }
}
