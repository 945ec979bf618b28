//! Mini CCSR read path: one hot narrow cast (reachable from `read_csr`)
//! and one cold narrow cast reported as a plain `lossy-cast`.

pub fn read_csr(row: usize) -> u32 {
    narrow(row)
}

/// Reachable from `read_csr`: the `as u32` is a hot-cast finding.
fn narrow(row: usize) -> u32 {
    row as u32
}

/// NOT reachable from the read path: `lossy-cast`, not `hot-cast`.
fn cold_cast(row: usize) -> u32 {
    row as u32
}
