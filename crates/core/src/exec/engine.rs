//! The matching engine: one recursion body behind [`MatchSink`].
//!
//! [`Executor`] grows partial embeddings one pattern vertex at a time.
//! The candidate loop lives in [`Executor::scan`]. The sink walk
//! ([`Executor::drive`]) maps the vertices along `Φ*` and hands each
//! embedding to the sink. Factorized counting ([`Executor::count`]) walks
//! the plan's [`ExecTree`](crate::plan::ExecTree) program instead: each
//! call takes a component's slice of its flat step array, a `Split`
//! multiplies the counts of its `H`-independent components instead of
//! enumerating their Cartesian product, and each non-root leaf is counted
//! by one pass over its candidates ([`Executor::count_leaf`]). Both loops
//! admit a candidate by the same test ([`Executor::admissible`]).
//! Counting without factorization is the sink walk into a [`CountSink`].
//!
//! The two walks map a splitting plan's vertices in different orders:
//! `Φ*` interleaves the components, which the program lays out one after
//! another. For the sink walk that matters, because it enumerates their
//! Cartesian product: run in program order, every component is walked
//! again for each embedding of the components before it, so a selective
//! vertex that `Φ*` placed early waits for them.
//!
//! Every run is a scheduled run: the root vertex's candidate loop claims
//! chunks from a [`Scheduler`], which also owns the run's stop flag and
//! deadline. A standalone executor makes a private one-worker scheduler
//! at each entry point; workers of a parallel run share one
//! ([`Executor::with_scheduler`]).

use super::scheduler::{deadline_after, Scheduler};
use super::sink::{CallbackSink, CountSink, MatchSink};
use super::stats::{add_clamped, mul_clamped, ExecStats};
use super::RunConfig;
use crate::catalog::Catalog;
use crate::plan::{Plan, Step};
use csce_ccsr::ClusterKey;
use csce_graph::util::{intersect_sorted, subtract_sorted};
use csce_graph::{Graph, Variant, VertexId};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One per-slot candidate cache: `cands` is the candidate set computed
/// under the parents' mappings that the slot's range `sig` of
/// [`Executor::signatures`] records. `valid` stays false while the SCE
/// cache is ablated, so every lookup recomputes.
#[derive(Clone, Debug, Default)]
struct CandCache {
    valid: bool,
    sig: Range<usize>,
    cands: Vec<VertexId>,
}

/// The empty cache of every slot and the one signature buffer they share:
/// slot `s` owns the next range of as many entries as its vertices have
/// `H`-parents. The vertices sharing a slot have the same parents
/// ([`Plan::cache_slot`]), so the length is the slot's, whichever of them
/// is asked. Every entry starts unmapped.
fn slot_caches(plan: &Plan) -> (Vec<CandCache>, Vec<VertexId>) {
    let mut caches = vec![CandCache::default(); plan.slot_count];
    for (u, &slot) in (0..).zip(&plan.cache_slot) {
        if let Some(cache) = caches.get_mut(slot as usize) {
            cache.sig = 0..plan.dag.parents(u).len();
        }
    }
    let mut total = 0;
    for cache in &mut caches {
        let len = cache.sig.len();
        cache.sig = total..total + len;
        total += len;
    }
    (caches, vec![UNMAPPED; total])
}

/// The matching executor for one `(catalog, plan)` pair. Reusable across
/// calls; state resets at each entry point.
pub struct Executor<'a> {
    catalog: &'a Catalog<'a>,
    plan: &'a Plan,
    config: RunConfig,
    f: Vec<VertexId>,
    used: Vec<bool>,
    caches: Vec<CandCache>,
    /// Every slot's signature, each in its slot's range ([`slot_caches`]):
    /// the parents' mappings its candidates were computed under.
    signatures: Vec<VertexId>,
    stats: ExecStats,
    stopped: bool,
    /// Live recursion-node counter shared with a progress reporter; bumped
    /// in batches from `check_deadline` so the hot loop never touches it.
    progress: Option<Arc<AtomicU64>>,
    /// Nodes already published to `progress`.
    progress_published: u64,
    /// Ordering restrictions `f(a) < f(b)`, indexed by the pattern vertex
    /// at which each becomes checkable (the later one in `Φ*`, the order
    /// of the sink walk, which is the only walk that checks them).
    checks_at: Vec<Vec<(VertexId, VertexId)>>,
    /// This run's scheduler: the root vertex claims candidate chunks from
    /// it, and it carries the run-wide stop flag and deadline.
    scheduler: Arc<Scheduler>,
    /// Whether `scheduler` is shared with sibling workers
    /// ([`Executor::with_scheduler`]); otherwise each run makes a fresh
    /// private one.
    shared: bool,
    /// Candidate-computation scratch, reused across calls: the parent
    /// rows being intersected, and the intersection's output buffer.
    rows: Vec<&'a [u32]>,
    tmp: Vec<VertexId>,
}

const UNMAPPED: VertexId = VertexId::MAX;

impl<'a> Executor<'a> {
    pub fn new(catalog: &'a Catalog<'a>, plan: &'a Plan, config: RunConfig) -> Executor<'a> {
        let (caches, signatures) = slot_caches(plan);
        Executor {
            catalog,
            plan,
            config,
            f: vec![UNMAPPED; catalog.pattern().n()],
            used: vec![false; catalog.data_n()],
            caches,
            signatures,
            stats: ExecStats::new(catalog.pattern().n()),
            stopped: false,
            progress: None,
            progress_published: 0,
            checks_at: vec![Vec::new(); catalog.pattern().n()],
            scheduler: Arc::new(Scheduler::new(1, None)),
            shared: false,
            rows: Vec::new(),
            tmp: Vec::new(),
        }
    }

    /// Publish live recursion-node counts into `sink` (batched — roughly
    /// every 4096 nodes). Used by the CLI's `--progress` heartbeat; with
    /// multiple workers sharing one sink the counts add up.
    pub fn with_progress(mut self, sink: Arc<AtomicU64>) -> Executor<'a> {
        self.progress = Some(sink);
        self
    }

    /// Share this run's root loop, stop flag and deadline with other
    /// workers: the root vertex claims candidate chunks from `scheduler`
    /// instead of scanning them all, and the deadline/stop checks consult
    /// the scheduler so cancellation propagates across workers.
    pub fn with_scheduler(mut self, scheduler: Arc<Scheduler>) -> Executor<'a> {
        self.scheduler = scheduler;
        self.shared = true;
        self
    }

    /// Impose ordering restrictions `f(a) < f(b)` on the enumeration.
    ///
    /// CSCE itself applies no symmetry breaking (§III / Finding 2), but
    /// applications that want each *subgraph* once — e.g. clique counting
    /// for higher-order analysis (§VII-G) — can supply the orbit
    /// restrictions of the pattern's automorphism group. Restrictions are
    /// checked per candidate; to keep SCE caches sound they are applied at
    /// scan time, never baked into cached candidate sets, each at the end
    /// that `Φ*` maps later.
    pub fn with_restrictions(mut self, restrictions: &[(VertexId, VertexId)]) -> Executor<'a> {
        for list in &mut self.checks_at {
            list.clear();
        }
        for &(a, b) in restrictions {
            let later = self.plan.order.iter().rfind(|&&u| u == a || u == b).map_or(b, |&u| u);
            self.checks_at[later as usize].push((a, b));
        }
        self
    }

    /// Whether candidate `v` for pattern vertex `u` may extend the current
    /// partial embedding: unused when the variant is injective, and
    /// satisfying every ordering restriction checkable at `u`. The one
    /// admissibility test of [`Executor::try_candidate`] and
    /// [`Executor::count_leaf`].
    #[inline]
    fn admissible(&self, u: VertexId, v: VertexId, injective: bool) -> bool {
        if injective && self.used.get(v as usize).is_some_and(|&used| used) {
            return false;
        }
        let Some(checks) = self.checks_at.get(u as usize) else {
            return true;
        };
        let image = |w: VertexId| {
            if w == u {
                v
            } else {
                self.f.get(w as usize).copied().unwrap_or(UNMAPPED)
            }
        };
        checks.iter().all(|&(a, b)| image(a) < image(b))
    }

    fn reset(&mut self) {
        self.f.fill(UNMAPPED);
        self.used.fill(false);
        for c in &mut self.caches {
            c.valid = false;
        }
        self.stats.reset();
        // A parallel run keeps the driver's scheduler; a standalone run
        // gets a fresh one, so its cursor is unspent and its deadline
        // starts now.
        if !self.shared {
            let deadline = deadline_after(self.config.time_limit);
            self.scheduler = Arc::new(Scheduler::new(1, deadline));
        }
        self.stopped = false;
        self.progress_published = 0;
    }

    /// Count all embeddings. Uses the factorized tree when enabled (and
    /// when no cross-cutting ordering restrictions are imposed), whose
    /// non-root leaves are counted by one pass over their candidates
    /// (`count_leaf`); otherwise the sink walk counts them one
    /// by one into a [`CountSink`].
    pub fn count(&mut self) -> u64 {
        let has_restrictions = self.checks_at.iter().any(|l| !l.is_empty());
        if !self.config.factorize || has_restrictions {
            let mut sink = CountSink::default();
            self.drive(&mut sink);
            return sink.count;
        }
        self.reset();
        let plan = self.plan;
        let count = self.count_node(plan.root.steps());
        self.stats.embeddings = count;
        self.finish();
        count
    }

    /// Run the full search, handing each complete embedding to `sink`.
    /// The sink's `Break` stops this worker and, in a scheduled run,
    /// cooperatively stops every other worker too.
    pub fn drive<S: MatchSink>(&mut self, sink: &mut S) {
        self.reset();
        let plan = self.plan;
        self.walk(&plan.order, sink);
        self.finish();
    }

    /// Enumerate embeddings, invoking `emit` with the mapping array
    /// (`emit[i]` = data vertex of pattern vertex `i`). Return `false`
    /// from `emit` to stop early. (A [`CallbackSink`] adapter over
    /// [`Executor::drive`].)
    pub fn enumerate(&mut self, emit: &mut dyn FnMut(&[VertexId]) -> bool) {
        let mut sink = CallbackSink::new(|f: &[VertexId]| emit(f));
        self.drive(&mut sink);
    }

    /// Statistics of the last run.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The last run's statistics, moved out of the executor.
    pub(crate) fn into_stats(self) -> ExecStats {
        self.stats
    }

    /// End a run: total the per-vertex counters and publish progress.
    fn finish(&mut self) {
        self.stats.total_vertex_counts();
        self.publish_progress();
    }

    /// Push the not-yet-published node count into the progress sink.
    fn publish_progress(&mut self) {
        if let Some(sink) = &self.progress {
            let delta = self.stats.nodes - self.progress_published;
            if delta > 0 {
                sink.fetch_add(delta, Ordering::Relaxed);
                self.progress_published = self.stats.nodes;
            }
        }
    }

    /// Batched stop check (roughly every 4096 recursion nodes): publishes
    /// progress, observes stops requested by sibling workers, and consults
    /// the run's deadline. On a shared deadline exactly one worker wins the
    /// stop transition and flags `timed_out`, so the merged stats report
    /// the timeout once.
    fn check_deadline(&mut self) -> bool {
        if self.stopped {
            return true;
        }
        if self.stats.nodes.is_multiple_of(4096) {
            self.publish_progress();
            if self.scheduler.stopped() {
                self.stopped = true;
            } else if self.scheduler.deadline().is_some_and(|d| Instant::now() >= d) {
                if self.scheduler.stop_once() {
                    self.stats.timed_out = true;
                }
                self.stopped = true;
            }
        }
        self.stopped
    }

    /// Scan `u`'s candidates for the current partial embedding, calling
    /// `visit` once per admissible candidate with the mapping extended —
    /// the one candidate loop shared by counting and sink-driven search
    /// (a factorized non-root leaf counts instead: [`Executor::count_leaf`]).
    ///
    /// The root vertex (`Φ*[0]`, the first step of both walks) iterates
    /// over the chunks it claims from the run's scheduler; every other
    /// vertex tries all its candidates.
    fn scan<F>(&mut self, u: VertexId, mut visit: F)
    where
        F: FnMut(&mut Self),
    {
        let injective = self.plan.variant.injective();
        let (slot, len) = self.materialize_candidates(u);
        if self.plan.order.first() == Some(&u) {
            let sched = Arc::clone(&self.scheduler);
            while let Some(chunk) = sched.claim(len) {
                self.stats.chunks_claimed += 1;
                for i in chunk {
                    self.try_candidate(u, slot, i, injective, &mut visit);
                    if self.stopped {
                        return;
                    }
                }
            }
            return;
        }
        for i in 0..len {
            self.try_candidate(u, slot, i, injective, &mut visit);
            if self.stopped {
                return;
            }
        }
    }

    /// Try candidate `i` of cache slot `slot` for `u`: apply the
    /// admissibility test ([`Executor::admissible`]), count it at `u`,
    /// extend the mapping, recurse via `visit`, and restore the mapping.
    #[inline]
    fn try_candidate<F>(
        &mut self,
        u: VertexId,
        slot: usize,
        i: usize,
        injective: bool,
        visit: &mut F,
    ) where
        F: FnMut(&mut Self),
    {
        let v = self.caches[slot].cands[i];
        if !self.admissible(u, v, injective) {
            return;
        }
        if let Some(scanned) = self.stats.vertex_candidates.get_mut(u as usize) {
            *scanned += 1;
        }
        self.f[u as usize] = v;
        if injective {
            self.used[v as usize] = true;
        }
        visit(self);
        if injective {
            self.used[v as usize] = false;
        }
        self.f[u as usize] = UNMAPPED;
    }

    /// Factorized counting over `steps`, a component slice of the plan's
    /// [`ExecTree`](crate::plan::ExecTree) program. A `Seq` shares
    /// [`Executor::scan`] with the sink path and continues with the rest
    /// of the slice, except a leaf
    /// (the last `Seq` of a component, not the root): it is counted by
    /// [`Executor::count_leaf`] with the same work counters. A `Split`
    /// multiplies the counts of its `H`-independent components. The empty
    /// slice is `Done`: one embedding. Products and sums clamp at
    /// `u64::MAX` (a homomorphic count can overflow `u64`) and set
    /// [`ExecStats::saturated`]; a product that a zero component ends is
    /// exact whatever it had reached.
    fn count_node(&mut self, steps: &'a [Step]) -> u64 {
        let Some((step, rest)) = steps.split_first() else {
            return 1;
        };
        match step {
            Step::Split { components } => {
                self.stats.splits_taken += 1;
                let tree = &self.plan.root;
                let mut product = 1u64;
                let mut clamped = false;
                for comp in tree.components(components, rest) {
                    let c = self.count_node(comp);
                    if c == 0 {
                        return 0;
                    }
                    product = mul_clamped(product, c, &mut clamped);
                }
                self.stats.saturated |= clamped;
                product
            }
            Step::Seq { u, leaf } => {
                self.stats.nodes += 1;
                if self.check_deadline() {
                    return 0;
                }
                // The root claims its candidates from the scheduler, so it
                // is never a leaf that counts them all at once.
                if *leaf {
                    return self.count_leaf(*u);
                }
                let mut total = 0u64;
                self.scan(*u, |me| {
                    total = add_clamped(total, me.count_node(rest), &mut me.stats.saturated);
                });
                total
            }
        }
    }

    /// Count the admissible candidates of leaf `u` — the pattern vertex
    /// whose next node is `Done` — in one pass over its materialized
    /// candidate set, and add them to `u`'s candidate count in one step.
    /// Each admissible candidate completes exactly one embedding, so this
    /// equals [`Executor::scan`] visiting them one by one, with every
    /// counter unchanged.
    fn count_leaf(&mut self, u: VertexId) -> u64 {
        let injective = self.plan.variant.injective();
        let (slot, _) = self.materialize_candidates(u);
        let cands = self.caches.get(slot).map(|c| c.cands.as_slice()).unwrap_or_default();
        let admitted = cands.iter().filter(|&&v| self.admissible(u, v, injective)).count() as u64;
        if let Some(scanned) = self.stats.vertex_candidates.get_mut(u as usize) {
            *scanned = scanned.saturating_add(admitted);
        }
        admitted
    }

    /// The sink-driven recursion body over `order`, the rest of `Φ*`: map
    /// its first vertex and walk the rest, with the sink deciding at the
    /// end of `Φ*` whether the search continues.
    fn walk<S: MatchSink>(&mut self, order: &'a [VertexId], sink: &mut S) {
        let Some((&u, rest)) = order.split_first() else {
            self.stats.embeddings =
                add_clamped(self.stats.embeddings, 1, &mut self.stats.saturated);
            if sink.on_embedding(&self.f).is_break() {
                // Early stop (e.g. a filled first-k quota) propagates to
                // every worker of the run.
                self.stopped = true;
                self.scheduler.request_stop();
            }
            return;
        };
        self.stats.nodes += 1;
        if self.check_deadline() {
            return;
        }
        self.scan(u, |me| me.walk(rest, sink));
    }

    /// Ensure `u`'s candidate set is in its cache slot for the current
    /// partial embedding; returns `(slot, candidate count)`.
    ///
    /// The candidates are exactly `C(u | Φ, f)` of Definition 1 — the
    /// injectivity filter (`C \ {v_x}`) is applied by the caller per
    /// candidate, which is what makes the cached set reusable across
    /// sibling mappings.
    fn materialize_candidates(&mut self, u: VertexId) -> (usize, usize) {
        // `u`'s `H` rows, read once; they borrow the plan, not `self`.
        let plan = self.plan;
        let slot = plan.cache_slot[u as usize] as usize;
        let (parents, edge_parents) = (plan.dag.parents(u), plan.dag.edge_parents(u));
        // Signature: the mappings of all H-parents (edge + negation).
        let cache = &self.caches[slot];
        let sig_matches = cache.valid
            && self.signatures.get(cache.sig.clone()).is_some_and(|sig| {
                sig.len() == parents.len()
                    && parents.iter().zip(sig).all(|(&p, &s)| self.f.get(p as usize) == Some(&s))
            });
        if sig_matches {
            if let Some(hits) = self.stats.vertex_sce_hits.get_mut(u as usize) {
                *hits += 1;
            }
            let len = self.caches[slot].cands.len();
            return (slot, len);
        }
        self.stats.candidate_computations += 1;
        let mut cands = std::mem::take(&mut self.caches[slot].cands);
        self.compute_candidates(u, parents, edge_parents, &mut cands);
        let cache = &mut self.caches[slot];
        if let Some(sig) = self.signatures.get_mut(cache.sig.clone()) {
            for (s, &p) in sig.iter_mut().zip(parents) {
                *s = self.f.get(p as usize).copied().unwrap_or(UNMAPPED);
            }
        }
        cache.cands = cands;
        cache.valid = self.config.use_sce_cache;
        let len = cache.cands.len();
        (slot, len)
    }

    /// Compute `C(u | Φ, f)` from scratch into `out`, given `u`'s `H`
    /// parents and edge parents.
    fn compute_candidates(
        &mut self,
        u: VertexId,
        parents: &[VertexId],
        edge_parents: &[(VertexId, usize)],
        out: &mut Vec<VertexId>,
    ) {
        out.clear();
        if edge_parents.is_empty() {
            // First vertex of the order (or an isolated pattern vertex):
            // worst-case-optimal join seed over all incident relations.
            out.extend(self.catalog.seeds(u));
        } else {
            // Gather the parent rows, smallest first, then intersect.
            let catalog = self.catalog;
            self.rows.clear();
            for &(parent, eidx) in edge_parents {
                let parent_side = catalog.side_of(eidx, parent);
                let row = catalog.extend_row(eidx, parent_side, self.f[parent as usize]);
                if row.is_empty() {
                    return;
                }
                self.rows.push(row);
            }
            self.rows.sort_unstable_by_key(|r| r.len());
            let multi_way = self.rows.len() > 1;
            out.extend_from_slice(self.rows[0]);
            for &row in &self.rows[1..] {
                self.stats.intersection_input =
                    self.stats.intersection_input.saturating_add((out.len() + row.len()) as u64);
                intersect_sorted(out, row, &mut self.tmp);
                std::mem::swap(out, &mut self.tmp);
                if out.is_empty() {
                    break;
                }
            }
            if multi_way {
                self.stats.intersection_output =
                    self.stats.intersection_output.saturating_add(out.len() as u64);
            }
            if out.is_empty() {
                return;
            }
        }
        // Vertex-induced filtering: a candidate is disqualified by any
        // data arc to a matched dependency parent that the pattern pair
        // does not have — negation for a parent with no pattern edge to
        // `u`, extra-arc rejection for an edge parent (e.g. an
        // antiparallel arc).
        if self.plan.variant != Variant::VertexInduced {
            return;
        }
        let (p, star) = (self.catalog.pattern(), self.catalog.star());
        for &parent in parents {
            let w = self.f[parent as usize];
            debug_assert_ne!(w, UNMAPPED, "dependency parents are mapped before u");
            let parent_label = p.label(parent);
            for cluster in star.pair_clusters(star.label_id(u), star.label_id(parent)) {
                self.stats.negation_clusters += 1;
                let key = &cluster.key;
                if key.directed {
                    if key.src_label == parent_label
                        && !pattern_has_arc(p, edge_parents, parent, key, true)
                    {
                        subtract_sorted(out, cluster.out_neighbors(w));
                    }
                    if key.dst_label == parent_label
                        && !pattern_has_arc(p, edge_parents, parent, key, false)
                    {
                        subtract_sorted(out, cluster.in_neighbors(w));
                    }
                } else if !pattern_has_arc(p, edge_parents, parent, key, true) {
                    subtract_sorted(out, cluster.out_neighbors(w));
                }
                if out.is_empty() {
                    return;
                }
            }
        }
    }
}

/// Whether the pattern has an arc between `parent` and `u` like the data
/// arcs of cluster `key` — leaving `parent` when `from_parent`, entering
/// it otherwise (an undirected key ignores the direction). The pattern
/// edges between the pair are the ones `u`'s `edge_parents` names for
/// `parent`; a negation parent has none.
fn pattern_has_arc(
    p: &Graph,
    edge_parents: &[(VertexId, usize)],
    parent: VertexId,
    key: &ClusterKey,
    from_parent: bool,
) -> bool {
    edge_parents.iter().any(|&(q, eidx)| {
        q == parent
            && p.edges().get(eidx).is_some_and(|e| {
                e.label == key.edge_label
                    && e.directed == key.directed
                    && (!e.directed || (e.src == parent) == from_parent)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CollectSink;
    use crate::plan::tests::{random_graph, with_twin_leaves, Rng};
    use crate::plan::{Planner, PlannerConfig};
    use csce_ccsr::{build_ccsr, read_csr, Ccsr};
    use csce_graph::{oracle_count, GraphBuilder, NO_LABEL};
    use proptest::prelude::*;

    impl<'a> Executor<'a> {
        /// Factorized counting with every leaf visited one candidate at a
        /// time, through [`Executor::scan`] and the empty slice: the
        /// counter [`Executor::count_leaf`] replaced. Kept as the oracle
        /// the one-pass leaf must reproduce, counters included.
        fn count_node_per_candidate(&mut self, steps: &'a [Step]) -> u64 {
            let Some((step, rest)) = steps.split_first() else {
                return 1;
            };
            match step {
                Step::Split { components } => {
                    self.stats.splits_taken += 1;
                    let tree = &self.plan.root;
                    let mut product = 1u64;
                    let mut clamped = false;
                    for comp in tree.components(components, rest) {
                        let c = self.count_node_per_candidate(comp);
                        if c == 0 {
                            return 0;
                        }
                        product = mul_clamped(product, c, &mut clamped);
                    }
                    self.stats.saturated |= clamped;
                    product
                }
                Step::Seq { u, .. } => {
                    self.stats.nodes += 1;
                    if self.check_deadline() {
                        return 0;
                    }
                    let mut total = 0u64;
                    self.scan(*u, |me| {
                        let c = me.count_node_per_candidate(rest);
                        total = add_clamped(total, c, &mut me.stats.saturated);
                    });
                    total
                }
            }
        }

        /// One factorized run from a fresh state, through the one-pass
        /// leaves or through the per-candidate oracle, bypassing
        /// [`Executor::count`]'s fallback to the sink walk under
        /// restrictions.
        fn factorized(&mut self, per_candidate: bool) -> (u64, ExecStats) {
            self.reset();
            let plan = self.plan;
            let count = if per_candidate {
                self.count_node_per_candidate(plan.root.steps())
            } else {
                self.count_node(plan.root.steps())
            };
            self.stats.embeddings = count;
            self.finish();
            (count, self.stats.clone())
        }
    }

    fn cached(use_sce_cache: bool) -> RunConfig {
        RunConfig { use_sce_cache, ..RunConfig::default() }
    }

    /// The count and stats of [`Executor::count`] and of the
    /// per-candidate oracle for `p` in `gc`, under one planner preset
    /// and cache setting.
    fn both(
        gc: &Ccsr,
        p: &Graph,
        variant: Variant,
        config: PlannerConfig,
        use_sce_cache: bool,
    ) -> [(u64, ExecStats); 2] {
        let star = read_csr(gc, p, variant);
        let catalog = Catalog::new(p, &star);
        let plan = Planner::new(config).plan(&catalog, variant);
        let mut exec = Executor::new(&catalog, &plan, cached(use_sce_cache));
        let count = exec.count();
        let leaf = (count, exec.stats().clone());
        [leaf, exec.factorized(true)]
    }

    /// An undirected graph over `labels`, one vertex per entry, with
    /// `edges`.
    fn graph(labels: &[u32], edges: &[(VertexId, VertexId)]) -> Graph {
        let mut b = GraphBuilder::new();
        for &l in labels {
            b.add_vertex(l);
        }
        for &(a, c) in edges {
            b.add_undirected_edge(a, c, NO_LABEL).unwrap();
        }
        b.build()
    }

    /// A one-vertex pattern is its own root and leaf: it keeps claiming
    /// its candidates from the scheduler.
    #[test]
    fn one_vertex_pattern_counts_its_root_through_the_scheduler() {
        let g = graph(&[0, 1, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        let p = graph(&[0], &[]);
        let gc = build_ccsr(&g).unwrap();
        for variant in Variant::ALL {
            for config in PlannerConfig::ALL {
                for cache in [true, false] {
                    let [leaf, oracle] = both(&gc, &p, variant, config, cache);
                    assert_eq!(leaf.0, 3, "{variant}");
                    assert_eq!(leaf, oracle, "{variant} {config:?} cache {cache}");
                    assert!(leaf.1.chunks_claimed >= 1);
                }
            }
        }
    }

    /// A star whose three arms carry distinct labels, over data whose
    /// only arcs join the centre's label to the arms' labels, splits into
    /// three one-vertex leaves in every variant.
    #[test]
    fn split_of_leaves_matches_the_oracle() {
        let p = graph(&[0, 1, 2, 3], &[(0, 1), (0, 2), (0, 3)]);
        let mut labels = vec![0, 0, 0];
        let mut edges = Vec::new();
        for arm in 1..4u32 {
            for k in 0..3 {
                let v = labels.len() as VertexId;
                labels.push(arm);
                edges.extend((0..3).filter(|c| (c + k + arm) % 3 != 0).map(|c| (c, v)));
            }
        }
        let g = graph(&labels, &edges);
        let gc = build_ccsr(&g).unwrap();
        for variant in Variant::ALL {
            let star = read_csr(&gc, &p, variant);
            let catalog = Catalog::new(&p, &star);
            for config in PlannerConfig::ALL {
                let plan = Planner::new(config).plan(&catalog, variant);
                let [Step::Seq { u: 0, leaf: false }, Step::Split { components }, rest @ ..] =
                    plan.root.steps()
                else {
                    panic!("{variant}: the centre is the root and the arms split: {:?}", plan.root);
                };
                assert_eq!(components.len(), 3);
                for c in plan.root.components(components, rest) {
                    assert!(matches!(c, [Step::Seq { leaf: true, .. }]), "{c:?}");
                }
                for cache in [true, false] {
                    let [leaf, oracle] = both(&gc, &p, variant, config, cache);
                    assert_eq!(leaf.0, oracle_count(&g, &p, variant), "{variant}");
                    assert_eq!(leaf, oracle, "{variant} {config:?} cache {cache}");
                    assert_eq!(leaf.1.splits_taken, 3);
                }
            }
        }
    }

    /// A leaf honours the ordering restrictions checkable at it, as the
    /// per-candidate scan does, although [`Executor::count`] hands a
    /// restricted run to the sink walk.
    #[test]
    fn leaf_honours_restrictions() {
        // A 5-cycle with a chord, every vertex one label, and the path
        // a–b–c whose ends are ordered: each path is counted once.
        let g = graph(&[0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let p = graph(&[0; 3], &[(0, 1), (1, 2)]);
        let gc = build_ccsr(&g).unwrap();
        for variant in [Variant::EdgeInduced, Variant::Homomorphic] {
            let star = read_csr(&gc, &p, variant);
            let catalog = Catalog::new(&p, &star);
            let plan = Planner::new(PlannerConfig::csce()).plan(&catalog, variant);
            let mut exec =
                Executor::new(&catalog, &plan, cached(true)).with_restrictions(&[(0, 2)]);
            let leaf = exec.factorized(false);
            assert_eq!(leaf, exec.factorized(true), "{variant}");
            let mut sink = CountSink::default();
            exec.drive(&mut sink);
            if plan.root.split_count() == 0 {
                assert_eq!(leaf.0, sink.count, "{variant}");
            }
            assert!(leaf.0 < oracle_count(&g, &p, variant), "{variant}: restricted");
        }
    }

    /// The double-arm star `c:0 – a:1 – a':3`, `c – b:2 – b':4` splits
    /// into its arms after the centre, and `Φ*` maps the arms in another
    /// order than the program, which lays them out one after the other. A
    /// restriction is checked at whichever end the sink walk (`Φ*`) maps
    /// later: checked at its later end in program order, one arm's check
    /// would read the other arm's vertex unmapped. Every restriction
    /// `f(a) < f(b)` between two vertices counts the oracle's embeddings
    /// that satisfy it, and the sink walk collects exactly the oracle's
    /// embeddings in every variant.
    #[test]
    fn restrictions_are_checked_where_the_walk_maps_both_ends() {
        let p = graph(&[0, 1, 2, 3, 4], &[(0, 1), (1, 3), (0, 2), (2, 4)]);
        // Three data vertices per label, interleaved so that restrictions
        // between any two labels go both ways; each pattern edge's label
        // pair is joined where `(i + j) % 3 != 2`.
        let id = |label: u32, i: u32| 5 * i + label;
        let mut labels = vec![0; 15];
        for label in 0..5 {
            for i in 0..3 {
                labels[id(label, i) as usize] = label;
            }
        }
        let mut edges = Vec::new();
        for (x, y) in [(0, 1), (1, 3), (0, 2), (2, 4)] {
            for i in 0..3 {
                edges.extend((0..3).filter(|j| (i + j) % 3 != 2).map(|j| (id(x, i), id(y, j))));
            }
        }
        let g = graph(&labels, &edges);
        let gc = build_ccsr(&g).unwrap();
        for variant in Variant::ALL {
            let want = csce_graph::oracle_embeddings(&g, &p, variant);
            assert!(!want.is_empty(), "{variant}");
            let star = read_csr(&gc, &p, variant);
            let catalog = Catalog::new(&p, &star);
            for config in PlannerConfig::ALL {
                let plan = Planner::new(config).plan(&catalog, variant);
                let mut sink = CollectSink::default();
                Executor::new(&catalog, &plan, RunConfig::default()).drive(&mut sink);
                sink.embeddings.sort_unstable();
                assert_eq!(sink.embeddings, want, "{variant} {}", config.name());
                if variant == Variant::Homomorphic {
                    continue;
                }
                assert!(plan.root.split_count() > 0, "{variant} {}: the arms split", config.name());
                for a in 0..5 {
                    for b in (0..5).filter(|&b| b != a) {
                        let expected = want.iter().filter(|f| f[a as usize] < f[b as usize]);
                        let count = Executor::new(&catalog, &plan, RunConfig::default())
                            .with_restrictions(&[(a, b)])
                            .count();
                        assert_eq!(
                            count,
                            expected.count() as u64,
                            "{variant} {}: f({a}) < f({b})",
                            config.name()
                        );
                    }
                }
            }
        }
    }

    /// `noise` plus `copies` copies of every vertex of `p`. Each pattern
    /// edge joins copy `i` of one end to copy `j` of the other, always
    /// when `i == j` (so every copy index holds an embedding) and
    /// otherwise at random, so same-label pattern vertices compete for
    /// the same data vertices.
    fn planted(rng: &mut Rng, p: &Graph, noise: &Graph, copies: usize) -> Graph {
        fn add(b: &mut GraphBuilder, a: VertexId, c: VertexId, directed: bool, label: u32) {
            let _ =
                if directed { b.add_edge(a, c, label) } else { b.add_undirected_edge(a, c, label) };
        }
        let mut b = GraphBuilder::new();
        for v in 0..noise.n() as VertexId {
            b.add_vertex(noise.label(v));
        }
        for e in noise.edges() {
            add(&mut b, e.src, e.dst, e.directed, e.label);
        }
        for u in 0..p.n() as VertexId {
            for _ in 0..copies {
                b.add_vertex(p.label(u));
            }
        }
        let copy = |u: VertexId, i: usize| (noise.n() + u as usize * copies + i) as VertexId;
        for e in p.edges() {
            for i in 0..copies {
                for j in 0..copies {
                    if i == j || rng.below(2) == 0 {
                        add(&mut b, copy(e.src, i), copy(e.dst, j), e.directed, e.label);
                    }
                }
            }
        }
        b.build()
    }

    /// The signature rows on planted data: 2–3-vertex connected random
    /// patterns over 2–3 labels, each with a group of 2–4 equal-label
    /// leaves on a shared hub, planted once or twice into random
    /// noise over the same labels. Every variant, planner preset, cache
    /// setting and counting path (factorized or the sink walk) counts what
    /// the brute-force oracle counts. Across the seeds, some slots are
    /// shared by NEC classes, some vertex-induced slots have negation
    /// parents, and the cache hits: a slot's signature range that
    /// overlaps another's, or a signature left stale, turns a hit into a
    /// wrong count, and a signature that never matches loses every hit.
    #[test]
    fn signature_rows_keep_planted_counts_exact() {
        let (mut shared, mut negation, mut hits) = (0, 0, 0);
        for seed in 0..48 {
            let mut rng = Rng(seed);
            let n = 2 + rng.below(2);
            let labels = 2 + rng.below(2);
            let extra = rng.below(n);
            let base = random_graph(&mut rng, n, 0..labels, true, extra);
            let p = with_twin_leaves(&mut rng, &base, labels, 1);
            let noise_n = 2 + rng.below(6);
            let noise_extra = rng.below(2 * noise_n);
            let noise = random_graph(&mut rng, noise_n, 0..labels, false, noise_extra);
            let copies = 1 + rng.below(2);
            let g = planted(&mut rng, &p, &noise, copies);
            let gc = build_ccsr(&g).unwrap();
            for variant in Variant::ALL {
                let want = oracle_count(&g, &p, variant);
                let star = read_csr(&gc, &p, variant);
                let catalog = Catalog::new(&p, &star);
                for config in PlannerConfig::ALL {
                    let plan = Planner::new(config).plan(&catalog, variant);
                    shared += p.n() - plan.slot_count;
                    negation += (0..p.n() as VertexId)
                        .filter(|&u| plan.dag.negation_parents(u).next().is_some())
                        .count();
                    for use_sce_cache in [true, false] {
                        for factorize in [true, false] {
                            let run =
                                RunConfig { use_sce_cache, factorize, ..RunConfig::default() };
                            let mut exec = Executor::new(&catalog, &plan, run);
                            let count = exec.count();
                            assert_eq!(
                                count, want,
                                "seed {seed} {variant} {} cache {use_sce_cache} factorize {factorize}",
                                config.name()
                            );
                            hits += exec.stats().sce_cache_hits;
                        }
                    }
                }
            }
        }
        assert!(shared > 0, "no slot is shared");
        assert!(negation > 0, "no vertex-induced slot has negation parents");
        assert!(hits > 0, "the cache never hits");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One-pass leaves reproduce the per-candidate oracle exactly —
        /// count and every counter, the per-vertex series included — for
        /// every variant, planner preset and cache setting: 1–6-vertex
        /// connected random patterns over 1–4 labels, planted 0–3 times
        /// into a 2–16-vertex random data graph over the same labels.
        #[test]
        fn leaf_count_matches_the_per_candidate_oracle(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let n = 1 + rng.below(6);
            let labels = 1 + rng.below(4);
            let extra = rng.below(n + 1);
            let p = random_graph(&mut rng, n, 0..labels, true, extra);
            let data_n = 2 + rng.below(15);
            let data_extra = rng.below(3 * data_n);
            let noise = random_graph(&mut rng, data_n, 0..labels, false, data_extra);
            let copies = rng.below(4);
            let g = planted(&mut rng, &p, &noise, copies);
            let gc = build_ccsr(&g).unwrap();
            for variant in Variant::ALL {
                for config in PlannerConfig::ALL {
                    for cache in [true, false] {
                        let [leaf, oracle] = both(&gc, &p, variant, config, cache);
                        prop_assert_eq!(leaf, oracle, "{} {:?} cache {}", variant, config, cache);
                    }
                }
            }
        }
    }
}
