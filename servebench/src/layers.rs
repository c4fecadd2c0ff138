//! The per-layer ladder of the traced run.
//!
//! [`sequential_ladder`] times single calls into each crate's public
//! functions on the workload's own inputs, on one thread, before traffic
//! starts; [`service_ladder`] reads the service layer from the traced
//! phases and the stats the service exposes. A rung runs only on the
//! workloads whose serving path uses its layer; elsewhere it reads 0 (see
//! README.md).

use std::hint::black_box;
use std::time::{Duration, Instant};

use gnn_core::{Planner, QueryRequest, QueryScratch, Target};
use gnn_geom::simd::pad_len;
use gnn_network::{NetworkScratch, NetworkSnapshot};
use gnn_rtree::{LeafEntry, NnScratch, PackedRTree, PageRef, RTreeParams, ShardedTree};
use gnn_service::{RefreshPolicy, Update};

use crate::load::Phase;
use crate::report::{slot_median_throughput, Metrics, Summary};
use crate::spans::Spans;
use crate::stack::{
    with_sharded, Cost, Finished, Reference, Serving, SetupTimings, Stack, WORKERS,
};
use crate::workloads::{Data, Inputs};
use crate::{median_secs, quantile_sorted};

/// Time budget of each repeated microbenchmark loop.
const BUDGET: Duration = Duration::from_millis(300);
/// Interleaved freeze/refreeze repetitions.
const FREEZE_REPS: usize = 7;

/// Layers below the service, measured sequentially.
pub fn sequential_ladder(
    inputs: &Inputs,
    stack: &Stack,
    reference: &Reference,
    setups: &[SetupTimings],
    spans: &mut Spans,
    m: &mut Metrics,
) {
    // The kernels run over the serving trees, or over the network's IER
    // filter index.
    let (trees, network): (Vec<&PackedRTree>, Option<&NetworkSnapshot>) = match &stack.serving {
        Serving::Live { initial: s, .. } => (s.shards().iter().map(|t| t.as_ref()).collect(), None),
        Serving::Network(n) => (vec![n.data_tree()], Some(n.as_ref())),
    };

    // geom: the leaf kernels over every leaf page, on the workload's groups.
    m.push(
        "geom.kernel_ns_per_elem",
        kernel_ns_per_elem(&trees, inputs, spans),
        "ns",
    );

    // rtree / core counters of the reference executions (exact counts).
    let n = reference.costs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Cost) -> f64| reference.costs.iter().map(f).sum::<f64>() / n;
    m.push(
        "rtree.na_per_query",
        mean(&|c| c.stats.data_tree.logical as f64),
        "count",
    );
    m.push(
        "core.dist_per_query",
        mean(&|c| c.stats.dist_computations as f64),
        "count",
    );

    // rtree set-up steps (Euclidean workloads) or the network freeze
    // (`road-trips`): medians over the run's set-ups.
    let median_ms = |f: fn(&SetupTimings) -> Duration| {
        median_secs(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    let (bulk_load, freeze, network_freeze) = match network {
        None => (median_ms(|s| s.bulk_load), median_ms(|s| s.freeze), 0.0),
        Some(_) => (0.0, 0.0, median_ms(|s| s.freeze)),
    };
    m.push("rtree.bulk_load_ms", bulk_load, "ms");
    m.push("rtree.freeze_ms", freeze, "ms");

    // rtree: incremental refreeze against a full freeze of the same tree
    // dirtied by the live update stream (`ts-live` only).
    let (refreeze, full) = match &inputs.data {
        Data::Points(entries) if !inputs.updates.is_empty() => {
            refreeze_comparison(entries, &inputs.updates, spans)
        }
        _ => (0.0, 0.0),
    };
    m.push("rtree.refreeze_ms", refreeze, "ms");
    m.push("rtree.freeze_dirty_ms", full, "ms");
    let speedup = if refreeze > 0.0 { full / refreeze } else { 0.0 };
    m.push("rtree.refreeze_speedup", speedup, "ratio");

    // core: one sequential `execute_on` per pool request, warm.
    let planner = Planner::new();
    let mut scratch = QueryScratch::new();
    let mut exec_ns = Vec::with_capacity(inputs.pool.len());
    let mut core = |target: &Target<'_, '_>| {
        for request in &inputs.pool {
            let s = Instant::now();
            black_box(request.execute_on(&planner, target, &mut scratch));
            let e = Instant::now();
            spans.span(0, 0, "core.execute_on", s, e);
            exec_ns.push(crate::since(s, e));
        }
    };
    match &stack.serving {
        Serving::Live { initial: s, .. } => with_sharded(s, |t| core(t)),
        Serving::Network(n) => core(&Target::Network(n.as_ref())),
    }
    exec_ns.sort_unstable();
    let us = |q| quantile_sorted(&exec_ns, q).unwrap_or(0) as f64 / 1e3;
    m.push("core.execute_us_p50", us(0.50), "us");
    m.push("core.execute_us_p99", us(0.99), "us");

    // network: the backend's own entry points (`road-trips` only).
    let (exec_p50, snap_us) = match network {
        Some(n) => network_calls(n, &inputs.pool, spans),
        None => (0.0, 0.0),
    };
    m.push("network.freeze_ms", network_freeze, "ms");
    m.push("network.execute_us_p50", exec_p50, "us");
    m.push("network.snap_us", snap_us, "us");
    m.push(
        "network.settled_per_query",
        mean(&|c| c.stats.settled_vertices as f64),
        "count",
    );
    m.push(
        "network.relaxed_per_query",
        mean(&|c| c.stats.relaxed_edges as f64),
        "count",
    );
}

/// Layers at and above the service, from the traced phases.
pub fn service_ladder(
    summary: &Summary,
    phases: &[Phase],
    finished: &Finished,
    spans: &Spans,
    m: &mut Metrics,
) {
    let open: Vec<&Phase> = phases.iter().filter(|p| p.open).collect();
    let mut submit: Vec<u64> = open
        .iter()
        .flat_map(|p| p.submit_ns.iter().copied())
        .collect();
    submit.sort_unstable();
    let mut queue: Vec<u64> = open
        .iter()
        .flat_map(|p| p.stages_ns.iter().map(|s| s.0))
        .collect();
    queue.sort_unstable();
    let mut exec: Vec<u64> = open
        .iter()
        .flat_map(|p| p.stages_ns.iter().map(|s| s.1))
        .collect();
    exec.sort_unstable();
    let mut reply_self = spans.reply_self_ns();
    reply_self.sort_unstable();
    let us = |v: &[u64], q| quantile_sorted(v, q).unwrap_or(0) as f64 / 1e3;

    let execute_p50 = m.get("core.execute_us_p50").unwrap_or(0.0);
    m.push("service.submit_us_p50", us(&submit, 0.50), "us");
    m.push(
        "service.overhead_us_p50",
        summary.latency_ms(0.50) * 1e3 - execute_p50,
        "us",
    );
    m.push("service.queue_wait_us_p50", us(&queue, 0.50), "us");
    m.push("service.queue_wait_us_p99", us(&queue, 0.99), "us");
    m.push("service.execution_us_p50", us(&exec, 0.50), "us");
    m.push(
        "service.reply_us_p50",
        finished
            .stats
            .stages
            .reply
            .p50()
            .map_or(0.0, |d| d.as_secs_f64() * 1e6),
        "us",
    );
    m.push("service.reply_self_us_p50", us(&reply_self, 0.50), "us");

    // Closed-loop slices: busy share of the workers, and what tracing costs.
    let untraced: Vec<&Phase> = phases
        .iter()
        .filter(|p| !p.open && !p.traced && p.name != "warmup")
        .collect();
    let window: f64 = untraced.iter().map(|p| p.window.as_secs_f64()).sum();
    let busy: f64 = untraced.iter().map(|p| p.busy.as_secs_f64()).sum();
    m.push(
        "service.worker_busy_frac",
        busy / (window * WORKERS as f64),
        "frac",
    );
    m.push("service.publishes", finished.published as f64, "count");
    // The driver's own `refreeze_all` calls while serving (`ts-live` only).
    let refreeze_ms = if finished.refreezes.is_empty() {
        0.0
    } else {
        median_secs(&finished.refreezes) * 1e3
    };
    m.push("service.refresh_refreeze_ms", refreeze_ms, "ms");
    m.push(
        "bench.generator_lag_p99_ms",
        summary.lag_p99_ns as f64 / 1e6,
        "ms",
    );
    m.push(
        "bench.trace_overhead",
        slot_median_throughput(phases, true) / slot_median_throughput(phases, false),
        "ratio",
    );
}

/// Median over groups of (kernel time / elements) for
/// `QueryGroup::dist_many_padded` over every leaf page.
fn kernel_ns_per_elem(trees: &[&PackedRTree], inputs: &Inputs, spans: &mut Spans) -> f64 {
    // Stage each leaf's coordinates in lane-padded buffers once.
    let mut leaves: Vec<(Vec<f64>, Vec<f64>, usize)> = Vec::new();
    for tree in trees {
        if tree.is_empty() {
            continue;
        }
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            match tree.page(id) {
                PageRef::Leaf(leaf) => {
                    let n = leaf.len();
                    let mut xs = vec![0.0; pad_len(n)];
                    let mut ys = vec![0.0; pad_len(n)];
                    for (i, e) in leaf.entries().iter().enumerate() {
                        xs[i] = e.point.x;
                        ys[i] = e.point.y;
                    }
                    leaves.push((xs, ys, n));
                }
                PageRef::Internal(branches) => {
                    stack.extend((0..branches.len()).map(|i| branches.child(i)));
                }
            }
        }
    }
    let entries: usize = leaves.iter().map(|l| l.2).sum();
    if entries == 0 {
        return 0.0;
    }
    let mut out = Vec::new();
    let mut samples = Vec::new();
    let start = Instant::now();
    for request in inputs.pool.iter().cycle() {
        if samples.len() >= 8 && start.elapsed() >= BUDGET {
            break;
        }
        let group = &request.group;
        let s = Instant::now();
        for (xs, ys, n) in &leaves {
            group.dist_many_padded(xs, ys, *n, &mut out);
            black_box(&out);
        }
        let e = Instant::now();
        spans.span(0, 0, "geom.dist_many_padded", s, e);
        samples.push(crate::since(s, e) as f64 / (entries * group.len()) as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Dirties a fresh 1-shard tree over `entries` with `updates` up to the
/// refresh policy's trigger, then times `refreeze_all` against
/// `freeze_all` of the same state (interleaved; medians, ms). Each
/// snapshot is dropped after its timer stops.
fn refreeze_comparison(
    entries: &[LeafEntry],
    updates: &[(u64, Update)],
    spans: &mut Spans,
) -> (f64, f64) {
    let mut tree = ShardedTree::build(RTreeParams::default(), entries.iter().copied(), 1);
    let prev = tree.freeze_all();
    let trigger = RefreshPolicy::default().dirty_fraction;
    for (i, (_, update)) in updates.iter().enumerate() {
        match *update {
            Update::Insert(entry) => {
                tree.insert(entry);
            }
            Update::Remove { id, point } => {
                tree.remove(id, point);
            }
        }
        if i % 16 == 15 && tree.max_dirty_fraction(&prev) >= trigger {
            break;
        }
    }
    let (mut full, mut incremental) = (Vec::new(), Vec::new());
    for _ in 0..FREEZE_REPS {
        let s = Instant::now();
        let frozen = black_box(tree.freeze_all());
        let e = Instant::now();
        drop(frozen);
        spans.span(0, 0, "rtree.freeze_all", s, e);
        full.push(e - s);
        let s = Instant::now();
        let refrozen = black_box(tree.refreeze_all(&prev));
        let e = Instant::now();
        drop(refrozen);
        spans.span(0, 0, "rtree.refreeze_all", s, e);
        incremental.push(e - s);
    }
    (median_secs(&incremental) * 1e3, median_secs(&full) * 1e3)
}

/// `NetworkSnapshot::execute` p50 (µs) and `PackedGraph::snap_in` mean
/// (µs per point) over `pool`.
fn network_calls(n: &NetworkSnapshot, pool: &[QueryRequest], spans: &mut Spans) -> (f64, f64) {
    let planner = Planner::new();
    let mut net = NetworkScratch::new();
    let mut exec = Vec::with_capacity(pool.len());
    for request in pool {
        let s = Instant::now();
        black_box(n.execute(request, &planner, &mut net));
        let e = Instant::now();
        spans.span(0, 0, "network.execute", s, e);
        exec.push(crate::since(s, e));
    }
    exec.sort_unstable();
    let mut nn = NnScratch::with_capacity(64);
    let mut snaps = 0usize;
    let s = Instant::now();
    for request in pool {
        for &p in request.group.points() {
            black_box(n.graph().snap_in(p, &mut nn));
            snaps += 1;
        }
    }
    let e = Instant::now();
    spans.span(0, 0, "network.snap_in", s, e);
    (
        quantile_sorted(&exec, 0.5).unwrap_or(0) as f64 / 1e3,
        crate::since(s, e) as f64 / 1e3 / snaps.max(1) as f64,
    )
}
