//! Plain-text edge-list I/O and vertex-label interning.
//!
//! Formats supported per line (whitespace-separated, `#` comments):
//!
//! * `src dst` — unit weight;
//! * `src dst weight`;
//! * `src dst weight timestamp` — timestamp is returned alongside (used by
//!   the update-stream replayer).
//!
//! Vertex tokens may be arbitrary strings; the [`Interner`] maps them to
//! dense [`VertexId`]s in first-seen order so datasets with sparse numeric
//! or textual ids load into flat-array form.

use crate::error::GraphError;
use crate::graph::DynamicGraph;
use crate::hash::FxHashMap;
use crate::id::VertexId;
use crate::Result;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Maps external string labels to dense vertex ids in first-seen order.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: FxHashMap<String, VertexId>,
    labels: Vec<String>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `label`, allocating the next dense id on first
    /// sight.
    pub fn intern(&mut self, label: &str) -> VertexId {
        if let Some(&id) = self.map.get(label) {
            return id;
        }
        let id = VertexId::from_index(self.labels.len());
        self.labels.push(label.to_owned());
        self.map.insert(label.to_owned(), id);
        id
    }

    /// Looks up an already-interned label.
    pub fn get(&self, label: &str) -> Option<VertexId> {
        self.map.get(label).copied()
    }

    /// The label of `id`, if allocated.
    pub fn label(&self, id: VertexId) -> Option<&str> {
        self.labels.get(id.index()).map(String::as_str)
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// One parsed edge record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRecord {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight (1.0 when the line omits it).
    pub weight: f64,
    /// Timestamp in stream time units (0 when the line omits it).
    pub timestamp: u64,
}

/// Parses an edge list from any reader. Returns the records and the
/// interner used for label resolution.
pub fn read_edge_list<R: Read>(reader: R) -> Result<(Vec<EdgeRecord>, Interner)> {
    let mut interner = Interner::new();
    let mut records = Vec::new();
    let mut line = String::new();
    let mut reader = BufReader::new(reader);
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let src_tok = it.next().ok_or_else(|| GraphError::Parse {
            line: lineno,
            message: "missing source vertex".into(),
        })?;
        let dst_tok = it.next().ok_or_else(|| GraphError::Parse {
            line: lineno,
            message: "missing destination vertex".into(),
        })?;
        let weight = match it.next() {
            None => 1.0,
            Some(tok) => tok.parse::<f64>().map_err(|_| GraphError::Parse {
                line: lineno,
                message: format!("bad weight {tok:?}"),
            })?,
        };
        let timestamp = match it.next() {
            None => 0,
            Some(tok) => tok.parse::<u64>().map_err(|_| GraphError::Parse {
                line: lineno,
                message: format!("bad timestamp {tok:?}"),
            })?,
        };
        records.push(EdgeRecord {
            src: interner.intern(src_tok),
            dst: interner.intern(dst_tok),
            weight,
            timestamp,
        });
    }
    Ok((records, interner))
}

/// Loads an edge list from `path` into a fresh [`DynamicGraph`]
/// (zero vertex weights; self-loops and non-positive weights are skipped
/// with a count of rejects returned).
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<(DynamicGraph, Interner, usize)> {
    let file = std::fs::File::open(path)?;
    let (records, interner) = read_edge_list(file)?;
    let mut g = DynamicGraph::with_capacity(interner.len());
    for _ in 0..interner.len() {
        g.add_vertex(0.0)?;
    }
    let mut rejected = 0usize;
    for r in &records {
        if g.insert_edge(r.src, r.dst, r.weight).is_err() {
            rejected += 1;
        }
    }
    Ok((g, interner, rejected))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_dense_first_seen_order() {
        let mut i = Interner::new();
        assert_eq!(i.intern("alice"), VertexId(0));
        assert_eq!(i.intern("bob"), VertexId(1));
        assert_eq!(i.intern("alice"), VertexId(0));
        assert_eq!(i.label(VertexId(1)), Some("bob"));
        assert_eq!(i.get("carol"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn parses_all_line_shapes() {
        let input = "\
# a comment
u1 m1
u1 m2 2.5
u2 m1 0.5 17

% another comment style
";
        let (records, interner) = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].weight, 1.0);
        assert_eq!(records[1].weight, 2.5);
        assert_eq!(records[2].timestamp, 17);
        assert_eq!(interner.len(), 4); // u1, m1, m2, u2
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let input = "a b\na b bogus\n";
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("bogus"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn load_graph_skips_invalid_lines_gracefully() {
        let dir = std::env::temp_dir().join("spade_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        std::fs::write(&path, "a b 1.0\na a 1.0\nb c 2.0\n").unwrap();
        let (g, interner, rejected) = load_graph(&path).unwrap();
        assert_eq!(rejected, 1); // the self-loop
        assert_eq!(g.num_edges(), 2);
        assert_eq!(interner.len(), 3);
    }
}
