//! Phase-timed spans: a nestable, thread-aware wall-clock profiler.
//!
//! A [`Recorder`] owns a tree of phase timings. Entering a [`Span`] pushes
//! a node onto the *current thread's* open-span stack; dropping it adds
//! the elapsed time to that node. Spans opened while another span of the
//! same thread is open become its children, so instrumented call trees
//! come out as phase trees (`load → parse`, `plan → gcf/dag/nec/tree`).
//! Spans from different threads attach at the root independently, and the
//! same phase name aggregates (total time + call count) across entries.
//!
//! There is no global state: recorders are plain values passed by
//! reference, and a [`Recorder::disabled`] recorder makes `span()` a
//! branch-and-return so uninstrumented paths stay fast.

use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// One node of the phase tree: aggregate time and call count for a named
/// phase at one position in the hierarchy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseNode {
    pub name: String,
    pub nanos: u128,
    pub calls: u64,
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    /// Total recorded duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.nanos.min(u64::MAX as u128) as u64)
    }

    /// Find a direct child by name.
    pub fn child(&self, name: &str) -> Option<&PhaseNode> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// A snapshot of a recorder's phase tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseTree {
    pub roots: Vec<PhaseNode>,
}

impl PhaseTree {
    /// Find a top-level phase by name.
    pub fn root(&self, name: &str) -> Option<&PhaseNode> {
        self.roots.iter().find(|c| c.name == name)
    }

    /// Look up a node by `/`-separated path, e.g. `"plan/gcf"`.
    pub fn at(&self, path: &str) -> Option<&PhaseNode> {
        let mut parts = path.split('/');
        let mut node = self.root(parts.next()?)?;
        for part in parts {
            node = node.child(part)?;
        }
        Some(node)
    }

    /// Sum of top-level phase durations.
    pub fn total(&self) -> Duration {
        self.roots.iter().map(|r| r.duration()).sum()
    }

    /// Render as an indented, aligned text block.
    pub fn render(&self) -> String {
        let mut rows: Vec<(String, String, String)> = Vec::new();
        fn walk(node: &PhaseNode, depth: usize, rows: &mut Vec<(String, String, String)>) {
            rows.push((
                format!("{}{}", "  ".repeat(depth), node.name),
                crate::format_duration(node.duration()),
                if node.calls == 1 { String::new() } else { format!("x{}", node.calls) },
            ));
            for child in &node.children {
                walk(child, depth + 1, rows);
            }
        }
        for root in &self.roots {
            walk(root, 0, &mut rows);
        }
        let name_w = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
        let time_w = rows.iter().map(|r| r.1.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, time, calls) in rows {
            out.push_str(&format!("{name:<name_w$}  {time:>time_w$}"));
            if !calls.is_empty() {
                out.push_str("  ");
                out.push_str(&calls);
            }
            out.push('\n');
        }
        out
    }
}

/// Index path from the root to an open node.
type NodePath = Vec<usize>;

#[derive(Default)]
struct RecorderState {
    tree: PhaseTree,
    /// Open-span stack per thread: each entry is the index path of the
    /// span's node in `tree`.
    stacks: HashMap<ThreadId, Vec<NodePath>>,
}

impl RecorderState {
    fn node_mut(&mut self, path: &[usize]) -> &mut PhaseNode {
        let mut node = &mut self.tree.roots[path[0]];
        for &i in &path[1..] {
            node = &mut node.children[i];
        }
        node
    }

    /// Find or create the node at an explicit `/`-separated path from the
    /// root, creating intermediate nodes as needed, and push it onto the
    /// current thread's open-span stack.
    fn open_at(&mut self, path_names: &str) -> NodePath {
        let tid = std::thread::current().id();
        let mut path = NodePath::new();
        for name in path_names.split('/').filter(|s| !s.is_empty()) {
            let siblings: &mut Vec<PhaseNode> = if path.is_empty() {
                &mut self.tree.roots
            } else {
                &mut self.node_mut(&path).children
            };
            let idx = match siblings.iter().position(|c| c.name == name) {
                Some(i) => i,
                None => {
                    siblings.push(PhaseNode { name: name.to_string(), ..PhaseNode::default() });
                    siblings.len() - 1
                }
            };
            path.push(idx);
        }
        self.stacks.entry(tid).or_default().push(path.clone());
        path
    }

    /// Find or create the child named `name` under the current thread's
    /// innermost open span (or at the root), returning its index path.
    fn open(&mut self, name: &str) -> NodePath {
        let tid = std::thread::current().id();
        let parent: Option<NodePath> = self.stacks.get(&tid).and_then(|s| s.last().cloned());
        let mut path = parent.unwrap_or_default();
        let siblings: &mut Vec<PhaseNode> =
            if path.is_empty() { &mut self.tree.roots } else { &mut self.node_mut(&path).children };
        let idx = match siblings.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                siblings.push(PhaseNode { name: name.to_string(), ..PhaseNode::default() });
                siblings.len() - 1
            }
        };
        path.push(idx);
        self.stacks.entry(tid).or_default().push(path.clone());
        path
    }

    fn close(&mut self, path: &[usize], elapsed: Duration) {
        if path.is_empty() {
            return;
        }
        let node = self.node_mut(path);
        node.nanos += elapsed.as_nanos();
        node.calls += 1;
        let tid = std::thread::current().id();
        if let Some(stack) = self.stacks.get_mut(&tid) {
            if stack.last().map(|p| p.as_slice()) == Some(path) {
                stack.pop();
            }
        }
    }
}

/// Collects a tree of phase timings. Cheap to share by reference; all
/// mutation happens behind a mutex that is touched only at span
/// boundaries, never inside them.
pub struct Recorder {
    enabled: bool,
    state: Mutex<RecorderState>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An active recorder.
    pub fn new() -> Recorder {
        Recorder { enabled: true, state: Mutex::new(RecorderState::default()) }
    }

    /// A recorder that ignores everything; `span()` costs one branch.
    /// Library entry points default to this so uninstrumented callers pay
    /// nothing.
    pub fn disabled() -> Recorder {
        Recorder { enabled: false, state: Mutex::new(RecorderState::default()) }
    }

    /// Whether spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Lock the state, recovering from poisoning: a worker thread that
    /// panics while a span is open must not take the whole recorder (and
    /// every later report) down with it — the tree holds only counters,
    /// which stay structurally valid.
    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Enter a phase; the returned guard records the elapsed time into the
    /// tree when dropped. Drop order defines nesting, so bind it to a
    /// local (`let _span = ...`), not `_`.
    pub fn span(&self, name: &str) -> Span<'_> {
        if !self.enabled {
            return Span { recorder: self, path: Vec::new(), start: Instant::now(), live: false };
        }
        let path = self.lock().open(name);
        Span { recorder: self, path, start: Instant::now(), live: true }
    }

    /// Enter a phase at an explicit `/`-separated position in the tree,
    /// creating intermediate nodes as needed (only the innermost node's
    /// time is recorded). This is how worker threads attach under the
    /// phase that spawned them (`span_path("execute/worker")`): a plain
    /// `span()` from a fresh thread would land at the root. The guard
    /// joins the calling thread's open-span stack, so nested `span()`
    /// calls attach beneath it.
    pub fn span_path(&self, path: &str) -> Span<'_> {
        if !self.enabled {
            return Span { recorder: self, path: Vec::new(), start: Instant::now(), live: false };
        }
        let path = self.lock().open_at(path);
        Span { recorder: self, path, start: Instant::now(), live: true }
    }

    /// Time a closure as one phase.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    /// Snapshot the phase tree collected so far.
    pub fn snapshot(&self) -> PhaseTree {
        self.lock().tree.clone()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.enabled).finish()
    }
}

/// An RAII phase guard; see [`Recorder::span`].
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    recorder: &'a Recorder,
    path: NodePath,
    start: Instant,
    live: bool,
}

impl Span<'_> {
    /// Enter a phase on `recorder` — alias of [`Recorder::span`] reading
    /// closer to the call sites (`Span::enter(rec, "ccsr.build")`).
    pub fn enter<'a>(recorder: &'a Recorder, name: &str) -> Span<'a> {
        recorder.span(name)
    }

    /// Elapsed time since the span was entered.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.live {
            let elapsed = self.start.elapsed();
            self.recorder.lock().close(&self.path, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_a_tree() {
        let rec = Recorder::new();
        {
            let _outer = rec.span("plan");
            {
                let _inner = rec.span("gcf");
            }
            {
                let _inner = rec.span("ldsf");
            }
        }
        let tree = rec.snapshot();
        assert_eq!(tree.roots.len(), 1);
        let plan = tree.root("plan").expect("plan phase recorded");
        assert_eq!(plan.calls, 1);
        assert_eq!(plan.children.len(), 2);
        assert!(tree.at("plan/gcf").is_some());
        assert!(tree.at("plan/ldsf").is_some());
        assert!(tree.at("plan/missing").is_none());
    }

    #[test]
    fn repeated_phases_aggregate() {
        let rec = Recorder::new();
        for _ in 0..3 {
            let _s = rec.span("read");
        }
        let tree = rec.snapshot();
        assert_eq!(tree.root("read").expect("read phase").calls, 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        {
            let _s = Span::enter(&rec, "x");
        }
        assert!(rec.snapshot().roots.is_empty());
        assert!(!rec.is_enabled());
    }

    #[test]
    fn threads_record_independently() {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _outer = rec.span("worker");
                    let _inner = rec.span("step");
                });
            }
        });
        let tree = rec.snapshot();
        let worker = tree.root("worker").expect("worker phase");
        assert_eq!(worker.calls, 4);
        assert_eq!(tree.at("worker/step").expect("nested").calls, 4);
    }

    #[test]
    fn span_path_attaches_threads_under_an_existing_phase() {
        let rec = Recorder::new();
        {
            let _exec = rec.span("execute");
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {
                        let _worker = rec.span_path("execute/worker");
                        // Nested plain spans attach beneath the path span.
                        let _step = rec.span("claim");
                    });
                }
            });
        }
        let tree = rec.snapshot();
        assert_eq!(tree.roots.len(), 1, "workers did not land at the root");
        assert_eq!(tree.at("execute/worker").expect("worker under execute").calls, 3);
        assert_eq!(tree.at("execute/worker/claim").expect("nested under worker").calls, 3);
    }

    #[test]
    fn span_path_on_disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        {
            let _s = rec.span_path("a/b");
        }
        assert!(rec.snapshot().roots.is_empty());
    }

    #[test]
    fn time_wraps_a_closure() {
        let rec = Recorder::new();
        let out = rec.time("compute", || 7 * 6);
        assert_eq!(out, 42);
        assert_eq!(rec.snapshot().root("compute").expect("phase").calls, 1);
    }

    #[test]
    fn render_is_indented_and_aligned() {
        let rec = Recorder::new();
        {
            let _a = rec.span("alpha");
            let _b = rec.span("beta");
        }
        let text = rec.snapshot().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("alpha"));
        assert!(lines[1].starts_with("  beta"));
    }
}
