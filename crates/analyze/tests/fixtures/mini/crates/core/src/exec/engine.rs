//! Mini match engine: the certified executor entry points plus helpers
//! with known, pinned defects for the static-analyzer golden test.
//!
//! This file is analyzer input, not compiled Rust — it lives under
//! `tests/fixtures/` so the workspace lint and cargo both skip it.

pub struct Executor {
    progress: Arc<AtomicU64>,
    budget: AtomicUsize,
}

impl Executor {
    pub fn count(&self) {
        self.scan();
    }

    pub fn drive(&self) {
        self.scan();
    }

    pub fn enumerate(&self) {
        self.scan();
    }

    pub fn scan(&self) {
        self.walk(0);
    }

    pub fn walk(&self, d: usize) {
        self.try_candidate();
        self.count_node(d);
    }

    pub fn try_candidate(&self) {
        lookup(&[], 1);
    }

    pub fn count_node(&self, _d: usize) {}

    pub fn check_deadline(&self) {}
}

/// Reachable from `Executor::try_candidate`: the index is a panic site.
fn lookup(v: &[u64], k: usize) -> u64 {
    v[k]
}

/// NOT reachable from any certified entry: `no-panic`, not `panic-reach`.
fn cold() {
    panic!("unreachable from the certified entries");
}
