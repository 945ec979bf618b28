//! Small utilities shared across the workspace: a fast non-cryptographic
//! hasher (the FxHash algorithm used throughout rustc), the one row-table
//! type [`Csr`], and sorted-slice set operations that the matching engines
//! lean on.

mod csr;
mod fxhash;

pub use csr::Csr;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};

/// Intersect two ascending sorted slices into `out` (cleared first).
///
/// Uses galloping when the sizes are lopsided, which matters when
/// intersecting a small candidate set against a large adjacency list.
pub fn intersect_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    // Galloping pays off roughly when one side is 8x+ larger.
    if large.len() / small.len().max(1) >= 8 {
        let mut lo = 0usize;
        for &x in small {
            lo += gallop(&large[lo..], x);
            if lo < large.len() && large[lo] == x {
                out.push(x);
                lo += 1;
            }
            if lo >= large.len() {
                break;
            }
        }
    } else {
        let (mut i, mut j) = (0usize, 0usize);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(small[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// Remove from the ascending sorted `a` (in place) every element present in
/// the ascending sorted `b`. Used for vertex-induced negation.
pub fn subtract_sorted(a: &mut Vec<u32>, b: &[u32]) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    let mut j = 0usize;
    a.retain(|&x| {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        !(j < b.len() && b[j] == x)
    });
}

/// Index of the first element `>= x` in the ascending sorted slice, found by
/// exponential probing followed by binary search.
fn gallop(slice: &[u32], x: u32) -> usize {
    let mut hi = 1usize;
    while hi < slice.len() && slice[hi - 1] < x {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(slice.len());
    lo + slice[lo..hi].partition_point(|&v| v < x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|x| b.contains(x)).collect()
    }

    #[test]
    fn intersect_basic() {
        let mut out = Vec::new();
        intersect_sorted(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], &mut out);
        assert_eq!(out, vec![3, 7]);
    }

    #[test]
    fn intersect_empty_sides() {
        let mut out = vec![99];
        intersect_sorted(&[], &[1, 2], &mut out);
        assert!(out.is_empty());
        intersect_sorted(&[1, 2], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn intersect_galloping_path() {
        let small = [5u32, 500, 5000, 50_000];
        let large: Vec<u32> = (0..60_000).collect();
        let mut out = Vec::new();
        intersect_sorted(&small, &large, &mut out);
        assert_eq!(out, small);
        // And with a miss at each end.
        let small = [0u32, 70_000];
        let large: Vec<u32> = (1..60_000).collect();
        intersect_sorted(&small, &large, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn intersect_matches_naive_on_random_inputs() {
        let mut seed = 0x9e3779b9u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as u32
        };
        for _ in 0..50 {
            let mut a: Vec<u32> = (0..100).map(|_| next() % 200).collect();
            let mut b: Vec<u32> = (0..30).map(|_| next() % 200).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let mut out = Vec::new();
            intersect_sorted(&a, &b, &mut out);
            assert_eq!(out, naive_intersect(&a, &b));
        }
    }

    #[test]
    fn subtract_basic() {
        let mut a = vec![1, 2, 3, 4, 5];
        subtract_sorted(&mut a, &[2, 4, 6]);
        assert_eq!(a, vec![1, 3, 5]);
    }

    #[test]
    fn subtract_disjoint_and_superset() {
        let mut a = vec![1, 3];
        subtract_sorted(&mut a, &[0, 2, 4]);
        assert_eq!(a, vec![1, 3]);
        subtract_sorted(&mut a, &[1, 3]);
        assert!(a.is_empty());
    }
}
