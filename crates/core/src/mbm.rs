//! MBM — the minimum bounding method (paper §3.3, Figures 3.5–3.7).
//!
//! MBM traverses the data R-tree once, pruning with the MBR `M` of the
//! query group:
//!
//! * *Heuristic 2* (cheap, one rectangle distance): prune `N` when
//!   `mindist(N, M) ≥ best_dist / n` — generalised here to
//!   `W·mindist(N,M) ≥ best_dist` (SUM) and `mindist(N,M) ≥ best_dist`
//!   (MAX/MIN) via [`QueryGroup::cheap_bound_rect`].
//! * *Heuristic 3* (tight, `n` distances): prune `N` when
//!   `Σ_i mindist(N, q_i) ≥ best_dist` (aggregate-generalised via
//!   [`QueryGroup::tight_bound_rect`]). Applied only to nodes that pass
//!   heuristic 2, exactly as the paper recommends (footnote 3: H2 exists to
//!   save CPU, H3 to save I/O).
//! * At the leaf level, `mindist(p, M)` filters points before their exact
//!   aggregate distance is computed.
//!
//! The best-first variant is exposed as an *incremental* [`MbmStream`]
//! yielding group neighbors in ascending `dist(p, Q)` — the building block
//! F-MQM needs (§4.2), and also how `k` can remain unknown in advance.
//!
//! The hot path is allocation-free in steady state: node scans run through
//! the batched `mindist²` kernels of the cursor's [`PageRef`] view, leaves
//! enter the best-first heap as sorted runs, and all per-query storage —
//! the heap, the bound buffers, the runs, the result list — lives in a
//! reusable [`MbmScratch`] / [`crate::QueryScratch`].

use crate::best_list::KBestList;
use crate::query::QueryGroup;
use crate::result::{GnnResult, Neighbor, QueryStats};
use crate::scratch::QueryScratch;
use crate::{Aggregate, MemoryGnnAlgorithm, Traversal};
use gnn_geom::{OrderedF64, Point};
use gnn_rtree::{LeafEntry, PageId, PageRef, ScratchRef, TreeCursor};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Default pre-sizing of the incremental stream's priority queue; covers the
/// paper-scale workloads without a single regrowth.
const STREAM_HEAP_CAPACITY: usize = 256;

/// How many pending leaf-run points the stream converts to exact
/// distances per batch. Conversion keys only rise (approx → exact), so the
/// node-access trace is unaffected; batching merely amortises the kernel
/// and the run bookkeeping over 16 points.
const CONVERT_CHUNK: usize = 16;

/// The minimum bounding method.
#[derive(Debug, Clone, Copy)]
pub struct Mbm {
    /// Best-first (paper's experimental default) or depth-first traversal.
    pub traversal: Traversal,
    /// Apply heuristic 2 (cheap MBR bound). Disabling it is an ablation: the
    /// paper keeps it "because it reduces the CPU time requirements".
    pub use_h2: bool,
    /// Apply heuristic 3 (tight per-query-point bound). Disabling it leaves
    /// H2 only — the configuration the paper found inferior even to SPM.
    pub use_h3: bool,
}

impl Default for Mbm {
    fn default() -> Self {
        Mbm {
            traversal: Traversal::BestFirst,
            use_h2: true,
            use_h3: true,
        }
    }
}

impl Mbm {
    /// MBM with best-first traversal and both heuristics (paper default).
    pub fn best_first() -> Self {
        Mbm::default()
    }

    /// MBM with depth-first traversal (Figure 3.7's walkthrough).
    pub fn depth_first() -> Self {
        Mbm {
            traversal: Traversal::DepthFirst,
            ..Mbm::default()
        }
    }

    /// Retrieves the `k` group nearest neighbors (convenience wrapper that
    /// allocates a fresh [`QueryScratch`]; see [`Mbm::k_gnn_in`] for the
    /// steady-state entry point).
    pub fn k_gnn(&self, cursor: &TreeCursor<'_>, group: &QueryGroup, k: usize) -> GnnResult {
        let mut scratch = QueryScratch::new();
        let (neighbors, stats) = self.k_gnn_in(cursor, group, k, &mut scratch);
        GnnResult {
            neighbors: neighbors.to_vec(),
            stats,
        }
    }

    /// Retrieves the `k` group nearest neighbors using caller-provided
    /// scratch storage. A warmed-up scratch makes repeated queries perform
    /// **zero heap allocations**.
    pub fn k_gnn_in<'s>(
        &self,
        cursor: &TreeCursor<'_>,
        group: &QueryGroup,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Neighbor], QueryStats) {
        assert!(
            self.use_h2 || self.use_h3,
            "MBM needs at least one pruning heuristic enabled"
        );
        let t0 = Instant::now();
        let before = cursor.stats();
        let QueryScratch {
            best,
            out,
            mbm,
            df_pool,
            ..
        } = scratch;
        best.reset(k);
        let mut dist_computations = 0u64;

        match self.traversal {
            Traversal::BestFirst => {
                // The stream ascends, so its first k items are exactly the
                // k-GNN; pulling a (k+1)-th would only waste node accesses.
                let mut stream = MbmStream::with_heuristics_in(cursor, group, self.use_h3, mbm);
                while best.len() < k {
                    let Some(n) = stream.next() else { break };
                    best.offer(n);
                }
                dist_computations += stream.dist_computations();
            }
            Traversal::DepthFirst => {
                if !cursor.is_empty() {
                    self.df_visit(
                        cursor,
                        cursor.root(),
                        group,
                        best,
                        &mut dist_computations,
                        df_pool,
                        0,
                    );
                }
            }
        }

        let stats = QueryStats {
            data_tree: cursor.stats().since(before),
            dist_computations,
            elapsed: t0.elapsed(),
            ..QueryStats::default()
        };
        best.drain_sorted_into(out);
        (&*out, stats)
    }

    /// Opens the incremental best-first stream (always uses heuristic-3
    /// bounds when this `Mbm` does).
    pub fn stream<'t, 'c, 'g>(
        &self,
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
    ) -> MbmStream<'t, 'c, 'g, 'static> {
        MbmStream::with_heuristics(cursor, group, self.use_h3)
    }

    /// Figure 3.7's depth-first recursion. Per-level sort buffers come from
    /// the scratch pool, so the recursion allocates nothing in steady state.
    #[allow(clippy::too_many_arguments)]
    fn df_visit(
        &self,
        cursor: &TreeCursor<'_>,
        id: PageId,
        group: &QueryGroup,
        best: &mut KBestList,
        dist_computations: &mut u64,
        pool: &mut Vec<Vec<(f64, u32)>>,
        depth: usize,
    ) {
        if pool.len() <= depth {
            pool.resize_with(depth + 1, Vec::new);
        }
        let mut order = std::mem::take(&mut pool[depth]);
        order.clear();
        match cursor.read(id) {
            PageRef::Internal(view) => {
                // Children sorted by mindist² to M (same order as mindist).
                let m = group.mbr();
                order.extend((0..view.len()).map(|i| (view.mbr(i).mindist_rect_sq(&m), i as u32)));
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                for &(d2, i) in &order {
                    if self.use_h2 && group.cheap_bound_from_sq(d2) >= best.bound() {
                        break; // sorted by the same metric: the rest fail too
                    }
                    if self.use_h3 {
                        *dist_computations += group.len() as u64;
                        if group.tight_bound_rect(&view.mbr(i as usize)) >= best.bound() {
                            continue;
                        }
                    }
                    self.df_visit(
                        cursor,
                        view.child(i as usize),
                        group,
                        best,
                        dist_computations,
                        pool,
                        depth + 1,
                    );
                }
            }
            PageRef::Leaf(es) => {
                let m = group.mbr();
                order.extend(
                    es.entries()
                        .iter()
                        .enumerate()
                        .map(|(i, e)| (m.mindist_point_sq(e.point), i as u32)),
                );
                *dist_computations += es.len() as u64;
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                for &(d2, i) in &order {
                    if group.cheap_bound_from_sq(d2) >= best.bound() {
                        break;
                    }
                    let e = es.entries()[i as usize];
                    let dist = group.dist(e.point);
                    *dist_computations += group.len() as u64;
                    best.offer(Neighbor {
                        id: e.id,
                        point: e.point,
                        dist,
                    });
                }
            }
        }
        pool[depth] = order;
    }
}

impl MemoryGnnAlgorithm for Mbm {
    fn name(&self) -> &'static str {
        "MBM"
    }

    fn supports(&self, _aggregate: Aggregate, _weighted: bool) -> bool {
        true
    }

    fn k_gnn(&self, cursor: &TreeCursor<'_>, group: &QueryGroup, k: usize) -> GnnResult {
        Mbm::k_gnn(self, cursor, group, k)
    }

    fn k_gnn_in<'s>(
        &self,
        cursor: &TreeCursor<'_>,
        group: &QueryGroup,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Neighbor], QueryStats) {
        Mbm::k_gnn_in(self, cursor, group, k, scratch)
    }
}

/// Heap element of the incremental stream. Every key is a lower bound on the
/// aggregate distance of whatever the element may still produce, so popping
/// in key order yields neighbors in exact ascending order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StreamItem {
    key: OrderedF64,
    /// Exact points pop before runs and runs before nodes on ties,
    /// surfacing results as early as possible.
    kind: StreamKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum StreamKind {
    Node(PageId),
    /// A data point keyed by its exact aggregate distance.
    PointExact(LeafEntry),
    /// A whole leaf's entries keyed by a lower bound on their aggregate
    /// distance (the paper's `mindist(p, M)` filter, for SUM strengthened
    /// with the anchor bound), key-sorted ascending in
    /// [`MbmScratch::runs`] and represented in the heap by its unconsumed
    /// head — one heap item per leaf instead of one per entry. Popping
    /// converts a chunk starting at the head to exact distances (points
    /// never reached never pay the `n`-distance computation) and re-inserts
    /// the run keyed by its next entry.
    Run(u32),
}

impl Eq for StreamItem {}
impl PartialOrd for StreamItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for StreamItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(k: &StreamKind) -> (u8, u64) {
            match k {
                StreamKind::PointExact(e) => (0, e.id.0),
                StreamKind::Run(rid) => (1, u64::from(*rid)),
                StreamKind::Node(p) => (2, u64::from(p.raw())),
            }
        }
        self.key
            .cmp(&other.key)
            .then_with(|| rank(&self.kind).cmp(&rank(&other.kind)))
    }
}

/// Reusable storage of one incremental MBM stream: the priority queue, the
/// batched-kernel bound buffers, and the stream's distance-computation
/// counter and anchor (which must survive suspend/resume cycles — F-MQM
/// serves its group streams round-robin through [`MbmStream::resume_in`]).
#[derive(Debug, Default)]
pub struct MbmScratch {
    heap: BinaryHeap<Reverse<StreamItem>>,
    bounds: Vec<f64>,
    bounds2: Vec<f64>,
    bounds3: Vec<f64>,
    /// Anchor `(c, dist(c, Q))` of the strengthened point keys (SUM only).
    anchor: Option<(Point, f64)>,
    /// Sorted leaf runs: per-run `(key, entry)` ascending.
    runs: Vec<Vec<(f64, LeafEntry)>>,
    /// Consumption cursor of each run.
    run_pos: Vec<usize>,
    /// Recycled run slots.
    free_runs: Vec<u32>,
    dist_computations: u64,
}

impl MbmScratch {
    /// Scratch pre-sized for a heap of `capacity` pending items.
    pub fn with_capacity(capacity: usize) -> Self {
        MbmScratch {
            heap: BinaryHeap::with_capacity(capacity),
            bounds: Vec::with_capacity(64),
            bounds2: Vec::with_capacity(64),
            bounds3: Vec::with_capacity(64),
            anchor: None,
            runs: Vec::new(),
            run_pos: Vec::new(),
            free_runs: Vec::new(),
            dist_computations: 0,
        }
    }

    fn alloc_run(&mut self) -> u32 {
        if let Some(rid) = self.free_runs.pop() {
            rid
        } else {
            self.runs.push(Vec::new());
            self.run_pos.push(0);
            u32::try_from(self.runs.len() - 1).expect("run id overflow")
        }
    }

    /// Current heap capacity (diagnostics for the no-regrowth tests).
    pub fn heap_capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Current number of pending heap items (diagnostics).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Every internal buffer capacity (for the no-regrowth tests — any
    /// buffer omitted here could silently reintroduce steady-state
    /// allocations). Public so scratches that embed an `MbmScratch` (e.g.
    /// `gnn-network`'s) can fold it into their own profiles.
    pub fn capacity_profile(&self) -> impl Iterator<Item = usize> + '_ {
        [
            self.heap.capacity(),
            self.bounds.capacity(),
            self.bounds2.capacity(),
            self.bounds3.capacity(),
            self.runs.capacity(),
            self.run_pos.capacity(),
            self.free_runs.capacity(),
        ]
        .into_iter()
        .chain(self.runs.iter().map(Vec::capacity))
    }

    /// Point-distance evaluations performed by the stream backed by this
    /// scratch since it was last (re)seeded.
    pub fn dist_computations(&self) -> u64 {
        self.dist_computations
    }

    fn reset(&mut self) {
        self.heap.clear();
        self.bounds.clear();
        self.bounds2.clear();
        self.bounds3.clear();
        self.anchor = None;
        self.free_runs.clear();
        for i in 0..self.runs.len() {
            self.free_runs.push(i as u32);
        }
        self.dist_computations = 0;
    }
}

/// Incremental best-first MBM: yields group nearest neighbors in ascending
/// aggregate distance, reading R-tree nodes lazily.
pub struct MbmStream<'t, 'c, 'g, 's> {
    cursor: &'c TreeCursor<'t>,
    group: &'g QueryGroup,
    use_tight: bool,
    scratch: ScratchRef<'s, MbmScratch>,
}

impl<'t, 'c, 'g, 's> MbmStream<'t, 'c, 'g, 's> {
    /// Opens a stream with heuristic-3 (tight) node bounds and its own
    /// (pre-sized) storage.
    pub fn new(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
    ) -> MbmStream<'t, 'c, 'g, 'static> {
        Self::with_heuristics(cursor, group, true)
    }

    /// Opens a stream choosing between tight (H3) and cheap (H2-only) node
    /// bounds, with its own (pre-sized) storage.
    pub fn with_heuristics(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        use_tight: bool,
    ) -> MbmStream<'t, 'c, 'g, 'static> {
        MbmStream::<'t, 'c, 'g, 'static>::open(
            cursor,
            group,
            use_tight,
            ScratchRef::Owned(Box::new(MbmScratch::with_capacity(STREAM_HEAP_CAPACITY))),
        )
    }

    /// Opens a stream reusing `scratch` (cleared and re-seeded first).
    pub fn new_in(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        scratch: &'s mut MbmScratch,
    ) -> MbmStream<'t, 'c, 'g, 's> {
        Self::with_heuristics_in(cursor, group, true, scratch)
    }

    /// Opens a stream with explicit heuristics, reusing `scratch`.
    pub fn with_heuristics_in(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        use_tight: bool,
        scratch: &'s mut MbmScratch,
    ) -> MbmStream<'t, 'c, 'g, 's> {
        Self::open(cursor, group, use_tight, ScratchRef::Borrowed(scratch))
    }

    /// Re-attaches to a suspended stream whose state lives in `scratch`
    /// (seeded earlier by [`MbmStream::new_in`]): nothing is cleared, the
    /// stream continues exactly where it stopped. This is how F-MQM serves
    /// many group streams round-robin without keeping borrow-holding stream
    /// objects alive.
    pub fn resume_in(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        use_tight: bool,
        scratch: &'s mut MbmScratch,
    ) -> MbmStream<'t, 'c, 'g, 's> {
        MbmStream {
            cursor,
            group,
            use_tight,
            scratch: ScratchRef::Borrowed(scratch),
        }
    }

    fn open(
        cursor: &'c TreeCursor<'t>,
        group: &'g QueryGroup,
        use_tight: bool,
        mut scratch: ScratchRef<'s, MbmScratch>,
    ) -> MbmStream<'t, 'c, 'g, 's> {
        let s = scratch.get();
        s.reset();
        if !cursor.is_empty() {
            // For SUM, point keys are strengthened with the Lemma-1 anchor
            // bound `W·|p c| − dist(c, Q)` (a valid lower bound for any
            // anchor `c`, by the triangle inequality). Point keys never
            // steer node expansion — a node is read iff its own key beats
            // the k-th result distance — so they cut per-point CPU and
            // priority-queue traffic without changing node accesses.
            if group.aggregate() == Aggregate::Sum {
                let c = group.mbr().center();
                s.anchor = Some((c, group.dist(c)));
                s.dist_computations += group.len() as u64;
            }
            s.heap.push(Reverse(StreamItem {
                key: OrderedF64(0.0), // root must always be expanded
                kind: StreamKind::Node(cursor.root()),
            }));
        }
        MbmStream {
            cursor,
            group,
            use_tight,
            scratch,
        }
    }

    /// Point-distance evaluations performed so far (CPU proxy).
    pub fn dist_computations(&self) -> u64 {
        self.scratch.peek().dist_computations
    }

    /// Lower bound on the aggregate distance of every not-yet-yielded data
    /// point (`None` when the stream is exhausted).
    pub fn peek_bound(&self) -> Option<f64> {
        self.scratch
            .peek()
            .heap
            .peek()
            .map(|Reverse(i)| i.key.get())
    }
}

impl Iterator for MbmStream<'_, '_, '_, '_> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        let group = self.group;
        let cursor = self.cursor;
        let use_tight = self.use_tight;
        let s = self.scratch.get();
        while let Some(Reverse(item)) = s.heap.pop() {
            match item.kind {
                StreamKind::PointExact(e) => {
                    return Some(Neighbor {
                        id: e.id,
                        point: e.point,
                        dist: item.key.get(),
                    });
                }
                StreamKind::Run(rid) => {
                    // The run's head is the global heap minimum: consume a
                    // chunk starting at it (exact keys only rise above the
                    // bounds they replace, so order and node accesses are
                    // unaffected), convert the chunk through the batched
                    // distance kernel, and re-insert the run keyed by its
                    // next entry.
                    let ri = rid as usize;
                    let pos = s.run_pos[ri];
                    let end = (pos + CONVERT_CHUNK).min(s.runs[ri].len());
                    s.bounds.clear();
                    s.bounds2.clear();
                    for &(_, e) in &s.runs[ri][pos..end] {
                        s.bounds.push(e.point.x);
                        s.bounds2.push(e.point.y);
                    }
                    // Pad the staging buffers to the SIMD lane quantum so
                    // the fused aggregate kernel runs full vectors; the
                    // sentinels are computed on but truncated at `end-pos`,
                    // so results stay bit-identical (see gnn_geom::simd).
                    for _ in end - pos..gnn_geom::simd::pad_len(end - pos) {
                        s.bounds.push(0.0);
                        s.bounds2.push(0.0);
                    }
                    group.dist_many_padded(&s.bounds, &s.bounds2, end - pos, &mut s.bounds3);
                    s.dist_computations += ((end - pos) * group.len()) as u64;
                    for (&(_, e), &dist) in s.runs[ri][pos..end].iter().zip(&s.bounds3) {
                        s.heap.push(Reverse(StreamItem {
                            key: OrderedF64(dist),
                            kind: StreamKind::PointExact(e),
                        }));
                    }
                    s.run_pos[ri] = end;
                    if end < s.runs[ri].len() {
                        let next_key = s.runs[ri][end].0;
                        s.heap.push(Reverse(StreamItem {
                            key: OrderedF64(next_key),
                            kind: StreamKind::Run(rid),
                        }));
                    } else {
                        s.free_runs.push(rid);
                    }
                }
                StreamKind::Node(id) => match cursor.read(id) {
                    PageRef::Leaf(leaf) => {
                        // Batched mindist²(p, M) (and |p c|² to the anchor)
                        // over the whole page, keys sorted into a run — one
                        // heap item per leaf instead of one per entry.
                        leaf.mindist_sq_rect_into(&group.mbr(), &mut s.bounds);
                        s.dist_computations += leaf.len() as u64;
                        let rid = s.alloc_run();
                        if let Some((c, dist_c)) = s.anchor {
                            leaf.dist_sq_into(c, &mut s.bounds2);
                            s.dist_computations += leaf.len() as u64;
                            let w = group.total_weight();
                            let run = &mut s.runs[rid as usize];
                            run.clear();
                            run.extend(leaf.entries().iter().zip(&s.bounds).zip(&s.bounds2).map(
                                |((&e, &d2m), &d2c)| {
                                    let cheap = group.cheap_bound_from_sq(d2m);
                                    (cheap.max(w * d2c.sqrt() - dist_c), e)
                                },
                            ));
                        } else {
                            let run = &mut s.runs[rid as usize];
                            run.clear();
                            run.extend(
                                leaf.entries()
                                    .iter()
                                    .zip(&s.bounds)
                                    .map(|(&e, &d2)| (group.cheap_bound_from_sq(d2), e)),
                            );
                        }
                        let run = &mut s.runs[rid as usize];
                        run.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
                        if let Some(&(head_key, _)) = run.first() {
                            s.run_pos[rid as usize] = 0;
                            s.heap.push(Reverse(StreamItem {
                                key: OrderedF64(head_key),
                                kind: StreamKind::Run(rid),
                            }));
                        } else {
                            s.free_runs.push(rid);
                        }
                    }
                    PageRef::Internal(view) => {
                        // Batched mindist²(N, M) over the whole page; the
                        // tight bound (n distances) through the fused SoA
                        // kernel.
                        view.mindist_sq_rect_into(&group.mbr(), &mut s.bounds);
                        s.dist_computations += view.len() as u64;
                        for i in 0..view.len() {
                            let cheap = group.cheap_bound_from_sq(s.bounds[i]);
                            let key = if use_tight {
                                s.dist_computations += group.len() as u64;
                                cheap.max(group.tight_bound_rect(&view.mbr(i)))
                            } else {
                                cheap
                            };
                            s.heap.push(Reverse(StreamItem {
                                key: OrderedF64(key),
                                kind: StreamKind::Node(view.child(i)),
                            }));
                        }
                    }
                },
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::linear_scan_entries;
    use gnn_geom::{Point, PointId};
    use gnn_rtree::{RTree, RTreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tree(n: usize, seed: u64) -> RTree {
        let mut rng = StdRng::seed_from_u64(seed);
        RTree::bulk_load(
            RTreeParams::with_capacity(8),
            (0..n).map(|i| {
                LeafEntry::new(
                    PointId(i as u64),
                    Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0),
                )
            }),
        )
    }

    fn random_group(n: usize, seed: u64, agg: Aggregate) -> QueryGroup {
        let mut rng = StdRng::seed_from_u64(seed);
        QueryGroup::with_aggregate(
            (0..n)
                .map(|_| {
                    Point::new(
                        10.0 + rng.gen::<f64>() * 40.0,
                        10.0 + rng.gen::<f64>() * 40.0,
                    )
                })
                .collect(),
            agg,
        )
        .unwrap()
    }

    #[test]
    fn all_variants_match_oracle() {
        let tree = random_tree(700, 1);
        let cursor = TreeCursor::unbuffered(&tree);
        let variants = [
            Mbm::best_first(),
            Mbm::depth_first(),
            Mbm {
                traversal: Traversal::BestFirst,
                use_h2: true,
                use_h3: false,
            },
            Mbm {
                traversal: Traversal::DepthFirst,
                use_h2: true,
                use_h3: false,
            },
            Mbm {
                traversal: Traversal::DepthFirst,
                use_h2: false,
                use_h3: true,
            },
        ];
        for seed in 0..6 {
            for &k in &[1usize, 8] {
                let group = random_group(6, seed, Aggregate::Sum);
                let want = linear_scan_entries(tree.iter(), &group, k);
                for mbm in variants {
                    let got = mbm.k_gnn(&cursor, &group, k);
                    assert_eq!(
                        got.distances(),
                        want.distances(),
                        "{mbm:?} seed={seed} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let tree = random_tree(600, 9);
        let cursor = TreeCursor::unbuffered(&tree);
        let mut scratch = QueryScratch::new();
        for seed in 0..8 {
            let group = random_group(5, 60 + seed, Aggregate::Sum);
            let want = linear_scan_entries(tree.iter(), &group, 4);
            let (neighbors, _) = Mbm::best_first().k_gnn_in(&cursor, &group, 4, &mut scratch);
            let got: Vec<f64> = neighbors.iter().map(|n| n.dist).collect();
            assert_eq!(got, want.distances(), "seed={seed}");
        }
    }

    #[test]
    fn packed_backend_identical_results_and_accesses() {
        let tree = random_tree(900, 10);
        let packed = tree.freeze();
        let ac = TreeCursor::unbuffered(&tree);
        let pc = TreeCursor::packed(&packed);
        for seed in 0..5 {
            let group = random_group(6, 80 + seed, Aggregate::Sum);
            let a = Mbm::best_first().k_gnn(&ac, &group, 5);
            let p = Mbm::best_first().k_gnn(&pc, &group, 5);
            assert_eq!(a.distances(), p.distances(), "seed={seed}");
            assert_eq!(
                a.stats.data_tree.logical, p.stats.data_tree.logical,
                "node accesses diverged (seed={seed})"
            );
        }
    }

    #[test]
    fn max_and_min_aggregates_match_oracle() {
        let tree = random_tree(500, 2);
        let cursor = TreeCursor::unbuffered(&tree);
        for agg in [Aggregate::Max, Aggregate::Min] {
            for seed in 0..5 {
                let group = random_group(5, 50 + seed, agg);
                let want = linear_scan_entries(tree.iter(), &group, 4);
                for mbm in [Mbm::best_first(), Mbm::depth_first()] {
                    let got = mbm.k_gnn(&cursor, &group, 4);
                    for (a, b) in got.distances().iter().zip(want.distances()) {
                        assert!((a - b).abs() < 1e-9, "{agg} seed={seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn stream_yields_ascending_and_complete() {
        let tree = random_tree(300, 3);
        let cursor = TreeCursor::unbuffered(&tree);
        let group = random_group(4, 9, Aggregate::Sum);
        let stream = MbmStream::new(&cursor, &group);
        let all: Vec<Neighbor> = stream.collect();
        assert_eq!(all.len(), 300);
        for w in all.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // Spot-check exactness of distances.
        for n in all.iter().step_by(37) {
            assert!((n.dist - group.dist(n.point)).abs() < 1e-12);
        }
    }

    #[test]
    fn stream_prefix_equals_k_gnn() {
        let tree = random_tree(400, 4);
        let cursor = TreeCursor::unbuffered(&tree);
        let group = random_group(8, 10, Aggregate::Sum);
        let by_stream: Vec<f64> = MbmStream::new(&cursor, &group)
            .take(6)
            .map(|n| n.dist)
            .collect();
        let by_query = Mbm::best_first().k_gnn(&cursor, &group, 6);
        assert_eq!(by_stream, by_query.distances());
    }

    #[test]
    fn suspended_stream_resumes_where_it_stopped() {
        let tree = random_tree(400, 12);
        let cursor = TreeCursor::unbuffered(&tree);
        let group = random_group(4, 13, Aggregate::Sum);
        let want: Vec<f64> = MbmStream::new(&cursor, &group)
            .take(10)
            .map(|n| n.dist)
            .collect();
        let mut scratch = MbmScratch::default();
        let mut got = Vec::new();
        {
            let mut s = MbmStream::new_in(&cursor, &group, &mut scratch);
            got.extend(s.by_ref().take(4).map(|n| n.dist));
        }
        for _ in 0..6 {
            let mut s = MbmStream::resume_in(&cursor, &group, true, &mut scratch);
            got.push(s.next().unwrap().dist);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn peek_bound_is_valid() {
        let tree = random_tree(200, 5);
        let cursor = TreeCursor::unbuffered(&tree);
        let group = random_group(3, 11, Aggregate::Sum);
        let mut stream = MbmStream::new(&cursor, &group);
        while let Some(bound) = stream.peek_bound() {
            let Some(n) = stream.next() else { break };
            assert!(
                n.dist >= bound - 1e-9,
                "yielded {} below bound {bound}",
                n.dist
            );
        }
    }

    #[test]
    fn weighted_sum_matches_oracle() {
        let tree = random_tree(300, 6);
        let cursor = TreeCursor::unbuffered(&tree);
        let mut rng = StdRng::seed_from_u64(13);
        let pts: Vec<Point> = (0..5)
            .map(|_| Point::new(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
            .collect();
        let w: Vec<f64> = (0..5).map(|_| 0.1 + rng.gen::<f64>() * 2.0).collect();
        let group = QueryGroup::weighted_sum(pts, w).unwrap();
        let want = linear_scan_entries(tree.iter(), &group, 3);
        let got = Mbm::best_first().k_gnn(&cursor, &group, 3);
        for (a, b) in got.distances().iter().zip(want.distances()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn h3_heuristic_saves_node_accesses() {
        // On clustered queries, H2+H3 must access no more nodes than H2
        // alone (the paper's footnote-3 ablation).
        let tree = random_tree(5000, 7);
        let group = random_group(16, 14, Aggregate::Sum);
        let c_full = TreeCursor::unbuffered(&tree);
        Mbm::best_first().k_gnn(&c_full, &group, 8);
        let c_h2 = TreeCursor::unbuffered(&tree);
        Mbm {
            traversal: Traversal::BestFirst,
            use_h2: true,
            use_h3: false,
        }
        .k_gnn(&c_h2, &group, 8);
        assert!(
            c_full.stats().logical <= c_h2.stats().logical,
            "H3 {} vs H2-only {}",
            c_full.stats().logical,
            c_h2.stats().logical
        );
    }

    #[test]
    fn figure_3_5_heuristic_2() {
        // n=2, best_dist=5: node N1 with mindist(N1,M)=3 is pruned since
        // 2*3 >= 5; node N2 with mindist(N2,M)=2 passes H2 but its tight
        // bound 6 >= 5 prunes it (heuristic 3).
        let group = QueryGroup::sum(vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)]).unwrap();
        let n1 = gnn_geom::Rect::from_corners(0.0, 3.0, 4.0, 4.0); // 3 above M
        assert_eq!(n1.mindist_rect(&group.mbr()), 3.0);
        assert!(group.cheap_bound_rect(&n1) >= 5.0);
        let n2 = gnn_geom::Rect::from_corners(-3.0, 2.0, -2.0, 3.0);
        assert!(group.cheap_bound_rect(&n2) < 6.0);
        assert!(group.tight_bound_rect(&n2) > 5.0);
    }

    #[test]
    fn empty_tree() {
        let tree = RTree::new(RTreeParams::default());
        let cursor = TreeCursor::unbuffered(&tree);
        let group = QueryGroup::sum(vec![Point::new(0.0, 0.0)]).unwrap();
        assert!(Mbm::best_first()
            .k_gnn(&cursor, &group, 1)
            .neighbors
            .is_empty());
        assert!(MbmStream::new(&cursor, &group).next().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one pruning heuristic")]
    fn rejects_no_heuristics() {
        let tree = random_tree(10, 8);
        let cursor = TreeCursor::unbuffered(&tree);
        let group = QueryGroup::sum(vec![Point::new(0.0, 0.0)]).unwrap();
        Mbm {
            traversal: Traversal::BestFirst,
            use_h2: false,
            use_h3: false,
        }
        .k_gnn(&cursor, &group, 1);
    }
}
