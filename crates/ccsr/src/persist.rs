//! Binary persistence of `G_C`.
//!
//! Clustering is the offline stage of Fig. 2 and is paid once per data
//! graph; the result is written to a compact little-endian binary file and
//! memory-loaded for each matching task. The format is entirely
//! hand-rolled: a magic header, the vertex label array, then each
//! cluster's key, the paper's `(value, repeat)` runs of its row offsets,
//! and its column index. The runs convert to and from the in-memory row
//! index in O(runs).
//!
//! A file is the only way a `G_C` enters the program from outside, so
//! decoding admits only a `G_C` the engine can serve. When [`from_bytes`]
//! (or [`load`]) succeeds:
//!
//! * every row's runs were well formed and covered `n + 1` offsets, and
//!   the whole `G_C` passed [`Ccsr::check`] — ids in range, rows strictly
//!   increasing, keys agreeing with the vertex labels, `inc` the exact
//!   transpose of `out`, undirected clusters symmetric, no empty cluster;
//! * the bytes are the canonical encoding of the result: clusters appear
//!   in strictly increasing key order, flag bytes are `0` or `1`, runs are
//!   maximal and nothing trails, so [`to_bytes`] gives the input back.
//!
//! Any other input is a [`PersistError::Corrupt`] naming the first broken
//! rule; no input makes decoding, or a later query, panic.

use crate::build::Ccsr;
use crate::check::Corrupt;
use crate::cluster::Cluster;
use crate::index::RowIndex;
use crate::key::ClusterKey;
use crate::CcsrError;
use std::path::Path;

const MAGIC: &[u8; 8] = b"CSCEGC1\0";

/// Errors raised when encoding or decoding a persisted `G_C`.
#[derive(Debug)]
pub enum PersistError {
    Io(std::io::Error),
    /// The byte stream is not the encoding of a valid `G_C`.
    Corrupt(Corrupt),
    /// The in-memory `G_C` exceeds the format's 32-bit counters.
    Encode(CcsrError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(c) => write!(f, "corrupt ccsr file: {c}"),
            PersistError::Encode(e) => write!(f, "cannot encode ccsr: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CcsrError> for PersistError {
    fn from(e: CcsrError) -> Self {
        PersistError::Encode(e)
    }
}

impl From<Corrupt> for PersistError {
    fn from(c: Corrupt) -> Self {
        PersistError::Corrupt(c)
    }
}

#[inline]
fn put_u32_le(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Checked narrowing for the format's `u32` counters.
fn counter_u32(v: usize, what: &'static str) -> Result<u32, CcsrError> {
    u32::try_from(v).map_err(|_| CcsrError::Overflow { what })
}

/// Split `n` bytes off the front of the cursor, or fail cleanly with the
/// field name that was being decoded.
fn take<'a>(buf: &mut &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8], PersistError> {
    if buf.len() < n {
        return Err(Corrupt::new(what).into());
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Decode a little-endian `u32` from a slice, failing with context instead
/// of panicking when the slice is not exactly four bytes.
fn le_u32(bytes: &[u8], what: &'static str) -> Result<u32, PersistError> {
    let arr: [u8; 4] = bytes.try_into().map_err(|_| Corrupt::new(what))?;
    Ok(u32::from_le_bytes(arr))
}

fn read_u32(buf: &mut &[u8], what: &'static str) -> Result<u32, PersistError> {
    le_u32(take(buf, 4, what)?, what)
}

/// Decode a flag byte; anything but `0` or `1` would not re-encode to
/// itself.
fn read_flag(buf: &mut &[u8], what: &'static str) -> Result<bool, PersistError> {
    match take(buf, 1, what)? {
        [0] => Ok(false),
        [1] => Ok(true),
        _ => Err(Corrupt::new("flag-byte").into()),
    }
}

fn put_index(buf: &mut Vec<u8>, index: &RowIndex, n: u32) -> Result<(), CcsrError> {
    let runs = index.runs(n)?;
    put_u32_le(buf, counter_u32(runs.len(), "run count")?);
    for (value, count) in runs {
        put_u32_le(buf, value);
        put_u32_le(buf, count);
    }
    put_u32_le(buf, counter_u32(index.neighbors().len(), "neighbor count")?);
    for &x in index.neighbors() {
        put_u32_le(buf, x);
    }
    Ok(())
}

fn get_index(buf: &mut &[u8], key: ClusterKey, n: u32) -> Result<RowIndex, PersistError> {
    let runs_len = read_u32(buf, "truncated run count")? as usize;
    let runs_bytes = take(buf, runs_len * 8, "truncated runs")?;
    let mut runs = Vec::with_capacity(runs_len);
    for chunk in runs_bytes.chunks_exact(8) {
        let value = le_u32(&chunk[..4], "run value")?;
        let count = le_u32(&chunk[4..], "run count")?;
        runs.push((value, count));
    }
    let nbr_len = read_u32(buf, "truncated neighbor count")? as usize;
    let nbr_bytes = take(buf, nbr_len * 4, "truncated neighbors")?;
    let mut neighbors = Vec::with_capacity(nbr_len);
    for chunk in nbr_bytes.chunks_exact(4) {
        neighbors.push(le_u32(chunk, "neighbor id")?);
    }
    RowIndex::from_runs(n, &runs, &neighbors).map_err(|rule| Corrupt::in_cluster(rule, key).into())
}

/// Encode a `G_C` into bytes. Fails with [`CcsrError::Overflow`] when a
/// counter exceeds the format's 32-bit fields.
pub fn to_bytes(ccsr: &Ccsr) -> Result<Vec<u8>, CcsrError> {
    // About the size of the labels and the row buffers the runs encode.
    let rows: usize = ccsr.clusters().map(Cluster::heap_bytes).sum();
    let mut buf = Vec::with_capacity(64 + 4 * ccsr.n() + rows);
    buf.extend_from_slice(MAGIC);
    let n = counter_u32(ccsr.n(), "vertex count")?;
    put_u32_le(&mut buf, n);
    for &l in ccsr.vertex_labels() {
        put_u32_le(&mut buf, l);
    }
    let mut clusters: Vec<&Cluster> = ccsr.clusters().collect();
    clusters.sort_unstable_by_key(|c| c.key);
    put_u32_le(&mut buf, counter_u32(clusters.len(), "cluster count")?);
    for c in clusters {
        put_u32_le(&mut buf, c.key.src_label);
        put_u32_le(&mut buf, c.key.dst_label);
        put_u32_le(&mut buf, c.key.edge_label);
        buf.push(u8::from(c.key.directed));
        put_index(&mut buf, &c.out, n)?;
        match &c.inc {
            Some(inc) => {
                buf.push(1);
                put_index(&mut buf, inc, n)?;
            }
            None => buf.push(0),
        }
    }
    Ok(buf)
}

/// Decode a `G_C` from bytes, admitting only the canonical encoding of a
/// `G_C` that passes [`Ccsr::check`] (see the module doc).
pub fn from_bytes(mut buf: &[u8]) -> Result<Ccsr, PersistError> {
    if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return Err(Corrupt::new("bad magic").into());
    }
    buf = &buf[MAGIC.len()..];
    let n = read_u32(&mut buf, "truncated vertex count")?;
    let label_bytes = take(&mut buf, n as usize * 4, "truncated labels")?;
    let mut labels = Vec::with_capacity(n as usize);
    for chunk in label_bytes.chunks_exact(4) {
        labels.push(le_u32(chunk, "vertex label")?);
    }
    let cluster_count = read_u32(&mut buf, "truncated cluster count")? as usize;
    // No capacity hint: the count is unchecked input until its clusters
    // have been read.
    let mut clusters: Vec<Cluster> = Vec::new();
    for _ in 0..cluster_count {
        let src_label = read_u32(&mut buf, "truncated key")?;
        let dst_label = read_u32(&mut buf, "truncated key")?;
        let edge_label = read_u32(&mut buf, "truncated key")?;
        let directed = read_flag(&mut buf, "truncated key")?;
        let key = ClusterKey { src_label, dst_label, edge_label, directed };
        if clusters.last().is_some_and(|prev| prev.key >= key) {
            // `to_bytes` emits clusters sorted by key, so the encoding is
            // canonical; anything out of order (or duplicated) is corrupt.
            return Err(Corrupt::new("key-order").into());
        }
        let out = get_index(&mut buf, key, n)?;
        let inc = if read_flag(&mut buf, "truncated inc flag")? {
            Some(get_index(&mut buf, key, n)?)
        } else {
            None
        };
        clusters.push(Cluster { key, out, inc });
    }
    if !buf.is_empty() {
        return Err(Corrupt::new("trailing bytes").into());
    }
    let ccsr = Ccsr::from_parts(n, labels, clusters);
    ccsr.check()?;
    Ok(ccsr)
}

/// Write a `G_C` to a file.
pub fn save(ccsr: &Ccsr, path: impl AsRef<Path>) -> Result<(), PersistError> {
    std::fs::write(path, to_bytes(ccsr)?)?;
    Ok(())
}

/// Load a `G_C` from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Ccsr, PersistError> {
    from_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_ccsr;
    use csce_graph::{GraphBuilder, NO_LABEL};

    fn sample_ccsr() -> Ccsr {
        let mut b = GraphBuilder::new();
        for l in [0, 1, 2, 0, 1, 2] {
            b.add_vertex(l);
        }
        b.add_edge(0, 1, 7).unwrap();
        b.add_edge(3, 1, 7).unwrap();
        b.add_edge(1, 2, NO_LABEL).unwrap();
        b.add_undirected_edge(2, 4, NO_LABEL).unwrap();
        b.add_undirected_edge(2, 5, 3).unwrap();
        build_ccsr(&b.build()).unwrap()
    }

    fn assert_same(a: &Ccsr, b: &Ccsr) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.vertex_labels(), b.vertex_labels());
        assert_eq!(a.cluster_count(), b.cluster_count());
        for c in a.clusters() {
            let other = b.cluster(&c.key).expect("cluster present after roundtrip");
            assert_eq!(c.out, other.out);
            assert_eq!(c.inc, other.inc);
        }
    }

    #[test]
    fn roundtrip_bytes() {
        let gc = sample_ccsr();
        let bytes = to_bytes(&gc).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_same(&gc, &back);
        assert_eq!(back.negation_clusters(0, 1).len(), gc.negation_clusters(0, 1).len());
    }

    #[test]
    fn roundtrip_file() {
        let gc = sample_ccsr();
        let dir = std::env::temp_dir().join("csce_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.ccsr");
        save(&gc, &path).unwrap();
        let back = load(&path).unwrap();
        assert_same(&gc, &back);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_corruption() {
        let gc = sample_ccsr();
        let mut bytes = to_bytes(&gc).unwrap();
        assert!(from_bytes(&bytes[..4]).is_err(), "truncated magic");
        bytes[0] = b'X';
        assert!(from_bytes(&bytes).is_err(), "bad magic");
        let bytes = to_bytes(&gc).unwrap();
        assert!(from_bytes(&bytes[..bytes.len() - 2]).is_err(), "truncated body");
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(from_bytes(&extended).is_err(), "trailing bytes");
        // A cluster count far beyond the stream is an error, not an
        // allocation of billions of clusters.
        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&0u32.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(from_bytes(&huge).is_err(), "cluster count beyond the stream");
    }

    #[test]
    fn empty_graph_roundtrips() {
        let gc = build_ccsr(&GraphBuilder::new().build()).unwrap();
        let back = from_bytes(&to_bytes(&gc).unwrap()).unwrap();
        assert_eq!(back.n(), 0);
        assert_eq!(back.cluster_count(), 0);
    }

    #[test]
    fn built_ccsr_passes_check() {
        assert_eq!(sample_ccsr().check(), Ok(()));
    }

    #[test]
    fn empty_ccsr_passes_check() {
        let gc = build_ccsr(&GraphBuilder::new().build()).unwrap();
        assert_eq!(gc.check(), Ok(()));
    }

    #[test]
    fn valid_bytes_pass_and_reencode_exactly() {
        let bytes = to_bytes(&sample_ccsr()).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.check(), Ok(()));
        assert_eq!(to_bytes(&back).unwrap(), bytes);
    }

    #[test]
    fn flipped_row_index_run_is_detected() {
        // Swap each adjacent pair of words past the magic; at least one
        // swap lands on a row-index run and must be rejected.
        let good = to_bytes(&sample_ccsr()).unwrap();
        let rejected = (8..good.len().saturating_sub(8)).step_by(4).any(|i| {
            let mut bad = good.clone();
            bad[i..i + 8].rotate_left(4);
            bad != good && from_bytes(&bad).is_err()
        });
        assert!(rejected, "no corruption detected by any 4-byte swap");
    }

    #[test]
    fn label_swap_is_detected() {
        // Swapping the labels of vertices 0 (label 0) and 2 (label 2) keeps
        // the stream well-formed but desynchronizes keys from arc labels.
        let mut bytes = to_bytes(&sample_ccsr()).unwrap();
        let base = MAGIC.len() + 4;
        bytes.swap(base, base + 8);
        match from_bytes(&bytes) {
            Err(PersistError::Corrupt(c)) => assert_eq!(c.invariant, "key-label-agreement"),
            other => panic!("label-swapped G_C accepted or misreported: {other:?}"),
        }
    }
}
