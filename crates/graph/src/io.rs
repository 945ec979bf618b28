//! Plain-text graph I/O in the CSCE format, which round-trips every
//! feature of [`Graph`] (vertex labels, edge labels, per-edge direction):
//!
//! ```text
//! t <n> <m>
//! v <id> <label>        # label "-" means unlabeled
//! e <src> <dst> <elabel> <d|u>
//! ```

use crate::graph::{Graph, GraphBuilder};
use crate::{Label, NO_LABEL};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Errors raised when parsing a graph file.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    /// Parse failure with 1-based line number and message.
    Parse(usize, String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(line, msg) => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err<T>(line: usize, msg: impl Into<String>) -> Result<T, IoError> {
    Err(IoError::Parse(line, msg.into()))
}

/// Write a graph in the CSCE format.
pub fn write_csce<W: Write>(g: &Graph, w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "t {} {}", g.n(), g.m())?;
    for (v, &l) in g.labels().iter().enumerate() {
        if l == NO_LABEL {
            writeln!(w, "v {v} -")?;
        } else {
            writeln!(w, "v {v} {l}")?;
        }
    }
    for e in g.edges() {
        let lab = if e.label == NO_LABEL { "-".to_string() } else { e.label.to_string() };
        let dir = if e.directed { 'd' } else { 'u' };
        writeln!(w, "e {} {} {} {}", e.src, e.dst, lab, dir)?;
    }
    w.flush()
}

/// Save a graph in the CSCE format to a file path.
pub fn save_csce(g: &Graph, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_csce(g, std::fs::File::create(path)?)
}

fn parse_label(tok: &str, line: usize) -> Result<Label, IoError> {
    if tok == "-" {
        return Ok(NO_LABEL);
    }
    tok.parse::<Label>().map_err(|_| IoError::Parse(line, format!("bad label {tok:?}")))
}

/// Read a graph in the CSCE format.
pub fn read_csce<R: BufRead>(r: R) -> Result<Graph, IoError> {
    let mut b = GraphBuilder::new();
    let mut declared: Option<(usize, usize)> = None;
    for (idx, line) in r.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            Some("t") => {
                let n = it.next().and_then(|t| t.parse().ok());
                let m = it.next().and_then(|t| t.parse().ok());
                match (n, m) {
                    (Some(n), Some(m)) => declared = Some((n, m)),
                    _ => return parse_err(lineno, "bad t line"),
                }
            }
            Some("v") => {
                let id: u32 = match it.next().and_then(|t| t.parse().ok()) {
                    Some(id) => id,
                    None => return parse_err(lineno, "bad vertex id"),
                };
                if id as usize != b.vertex_count() {
                    return parse_err(lineno, "vertex ids must be dense and in order");
                }
                let label = match it.next() {
                    Some(tok) => parse_label(tok, lineno)?,
                    None => return parse_err(lineno, "missing vertex label"),
                };
                b.add_vertex(label);
            }
            Some("e") => {
                let src: u32 = match it.next().and_then(|t| t.parse().ok()) {
                    Some(x) => x,
                    None => return parse_err(lineno, "bad edge src"),
                };
                let dst: u32 = match it.next().and_then(|t| t.parse().ok()) {
                    Some(x) => x,
                    None => return parse_err(lineno, "bad edge dst"),
                };
                let label = match it.next() {
                    Some(tok) => parse_label(tok, lineno)?,
                    None => return parse_err(lineno, "missing edge label"),
                };
                let res = match it.next() {
                    Some("d") => b.add_edge(src, dst, label),
                    Some("u") => b.add_undirected_edge(src, dst, label),
                    other => return parse_err(lineno, format!("bad direction {other:?}")),
                };
                if let Err(e) = res {
                    return parse_err(lineno, e.to_string());
                }
            }
            other => return parse_err(lineno, format!("unknown record {other:?}")),
        }
    }
    if let Some((n, m)) = declared {
        if n != b.vertex_count() || m != b.edge_count() {
            return parse_err(0, "t line does not match body");
        }
    }
    Ok(b.build())
}

/// Load a graph in the CSCE format from a file path.
pub fn load_csce(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    read_csce(std::io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_vertex(0);
        b.add_vertex(1);
        b.add_vertex(NO_LABEL);
        b.add_edge(0, 1, 7).unwrap();
        b.add_undirected_edge(1, 2, NO_LABEL).unwrap();
        b.build()
    }

    #[test]
    fn csce_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_csce(&g, &mut buf).unwrap();
        let g2 = read_csce(buf.as_slice()).unwrap();
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        assert_eq!(g2.labels(), g.labels());
        assert_eq!(g2.edges(), g.edges());
    }

    #[test]
    fn csce_rejects_malformed() {
        assert!(read_csce("x 1 2\n".as_bytes()).is_err());
        assert!(read_csce("v 5 0\n".as_bytes()).is_err()); // non-dense id
        assert!(read_csce("t 1 0\n".as_bytes()).is_err()); // t mismatch
        assert!(read_csce("v 0 0\nv 1 0\ne 0 1 - x\n".as_bytes()).is_err());
        assert!(read_csce("v 0 0\ne 0 0 - d\n".as_bytes()).is_err()); // self loop
    }

    #[test]
    fn csce_skips_comments_and_blanks() {
        let text = "# header\n\nt 2 1\nv 0 5\nv 1 -\ne 0 1 - u\n";
        let g = read_csce(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.label(0), 5);
        assert_eq!(g.label(1), NO_LABEL);
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir().join("csce_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csce");
        save_csce(&g, &path).unwrap();
        let g2 = load_csce(&path).unwrap();
        assert_eq!(g2.edges(), g.edges());
        std::fs::remove_file(path).ok();
    }
}
