//! Graph IO: SNAP-style edge-list text, and [`IoError`], the error type of
//! every graph reader and writer.
//!
//! The one binary graph format is `SRGD` (see [`crate::storage`]):
//! checksummed, page-aligned and queryable in place through a
//! [`DiskGraph`](crate::storage::DiskGraph), which
//! [`to_csr`](crate::storage::DiskGraph::to_csr) copies into RAM.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::view::GraphView;
use simrank_common::NodeId;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Error type for graph IO.
#[derive(Debug)]
pub enum IoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The input did not parse as the expected format.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses a whitespace-separated edge list (`src dst` per line, `#`/`%`
/// comments and blank lines ignored) into a builder so callers can apply
/// their own normalisation policy.
pub fn read_edge_list<R: Read>(reader: R) -> Result<GraphBuilder, IoError> {
    let mut builder = GraphBuilder::new();
    let reader = BufReader::new(reader);
    // Reuse one line buffer to avoid per-line allocation (perf-book: reading
    // lines from a file).
    let mut line = String::new();
    let mut reader = reader;
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
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(IoError::Format(format!("line {lineno}: expected two ids")));
        };
        let s: NodeId = a
            .parse()
            .map_err(|_| IoError::Format(format!("line {lineno}: bad id {a:?}")))?;
        let t: NodeId = b
            .parse()
            .map_err(|_| IoError::Format(format!("line {lineno}: bad id {b:?}")))?;
        builder.add_edge(s, t);
    }
    Ok(builder)
}

/// Reads an edge-list file from `path` (see [`read_edge_list`]).
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<GraphBuilder, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes the graph as a plain edge list.
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for (s, t) in g.edges() {
        writeln!(w, "{s} {t}")?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::shapes;

    #[test]
    fn edge_list_round_trip() -> Result<(), IoError> {
        let g = shapes::jeh_widom();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf)?;
        let parsed = read_edge_list(&buf[..])?.build();
        assert_eq!(parsed, g);
        Ok(())
    }

    #[test]
    fn edge_list_skips_comments_and_blanks() -> Result<(), IoError> {
        let text = "# comment\n% other comment\n\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes())?.build();
        assert_eq!(g.num_edges(), 2);
        Ok(())
    }

    #[test]
    fn edge_list_reports_bad_lines() {
        let err = read_edge_list("0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        let err = read_edge_list("a b\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad id"));
    }

    #[test]
    fn read_edge_list_missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("simrank-io-test-no-such.txt");
        let err = read_edge_list_file(&path).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "{err}");
        assert!(err.to_string().starts_with("io error:"), "{err}");
    }

    #[test]
    fn edge_list_propagates_reader_failures() {
        /// Reader whose first read fails, modelling a mid-stream IO fault.
        struct FailingReader;
        impl Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("injected fault"))
            }
        }
        let err = read_edge_list(FailingReader).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "{err}");
        assert!(err.to_string().contains("injected fault"), "{err}");
    }
}
