//! Seeded workloads and record formats shared by the trace-fixture tests.
//!
//! Each function replays one fixed workload and renders one text line per
//! query: result ids with their distance **bits**, plus the query's cost
//! counters. The committed files under `tests/fixtures/` were recorded
//! once, while each algorithm still had a separate reference engine on the
//! arena tree, and are never regenerated: they pin results and search
//! traces independently of the engine that runs today.

// Each test target uses only some of these helpers.
#![allow(dead_code)]

use gnn::datasets::{pp_synthetic, query_workload, QuerySpec};
use gnn::network::NetworkGnnStats;
use gnn::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Recorded Euclidean traces (see [`euclidean_traces`]).
pub const EUCLIDEAN_FIXTURE: &str = include_str!("../fixtures/euclidean_traces.txt");
/// Recorded network traces (see [`network_traces`]).
pub const NETWORK_FIXTURE: &str = include_str!("../fixtures/network_traces.txt");

/// LRU pages of the buffered arena cursor. Small enough that the buffer
/// evicts, so the recorded `io` count depends on the exact page-read order.
const LRU_PAGES: usize = 32;
const QUERIES: usize = 6;
const K: usize = 8;

/// Renders `id:bits` pairs of a result list.
fn push_neighbors(line: &mut String, neighbors: &[Neighbor]) {
    for n in neighbors {
        let _ = write!(line, " {}:{:016x}", n.id.0, n.dist.to_bits());
    }
}

/// MBM (best-first and depth-first), SPM (SUM only) and MQM on the PP
/// substitute, n ∈ {4, 64}, SUM/MAX/MIN, k = 8, six queries per cell over
/// an 8 % query MBR. Each algorithm runs the cell's queries in order on
/// one LRU-buffered arena cursor (a warm buffer across queries) and on one
/// unbuffered packed cursor; every line records the query's ids, distance
/// bits and logical/io node accesses.
pub fn euclidean_traces() -> String {
    let points = pp_synthetic(20_040_301);
    let tree = RTree::bulk_load(
        RTreeParams::default(),
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p)),
    );
    let packed = tree.freeze();
    let mut out = String::new();
    let mut scratch = QueryScratch::new();
    for n in [4usize, 64] {
        let spec = QuerySpec {
            n,
            area_fraction: 0.08,
        };
        let queries = query_workload(tree.root_mbr(), spec, QUERIES, 7_000 + n as u64);
        for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
            let algos: [(&str, &dyn MemoryGnnAlgorithm); 4] = [
                ("MBM-bf", &Mbm::best_first()),
                ("MBM-df", &Mbm::depth_first()),
                ("SPM", &Spm::best_first()),
                ("MQM", &Mqm::new()),
            ];
            for (name, algo) in algos {
                if !algo.supports(agg, false) {
                    continue;
                }
                for (cursor_name, cursor) in [
                    ("arena-lru", TreeCursor::with_buffer(&tree, LRU_PAGES)),
                    ("packed", TreeCursor::packed(&packed)),
                ] {
                    for (qi, q) in queries.iter().enumerate() {
                        let group = QueryGroup::with_aggregate(q.clone(), agg).unwrap();
                        let (neighbors, stats) = algo.k_gnn_in(&cursor, &group, K, &mut scratch);
                        let na = stats.data_tree;
                        let mut line = format!(
                            "{name} n={n} {agg:?} q={qi} {cursor_name} na={}/{} |",
                            na.logical, na.io
                        );
                        push_neighbors(&mut line, neighbors);
                        out.push_str(&line);
                        out.push('\n');
                    }
                }
            }
        }
    }
    out
}

/// Picks `count` distinct vertices of `g` (seeded partial Fisher–Yates).
pub fn sample_vertices(g: &RoadNetwork, count: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<u32> = (0..g.vertex_count() as u32).collect();
    for i in 0..count.min(picked.len()) {
        let j = rng.gen_range(i..picked.len());
        picked.swap(i, j);
    }
    picked.truncate(count);
    picked.into_iter().map(VertexId).collect()
}

/// One perturbed-grid network case: `(graph, data vertices, query
/// vertices)` for `seed` ∈ 0..4.
pub fn perturbed_grid(seed: u64) -> (RoadNetwork, Vec<VertexId>, Vec<VertexId>) {
    let g = RoadNetwork::grid(12, 12, 0.25, seed);
    let data = sample_vertices(&g, 50, seed + 100);
    let query = sample_vertices(&g, 1 + (seed as usize % 5), seed + 200);
    (g, data, query)
}

/// One network query's outcome as [`network_cases`] reports it.
pub struct NetworkCase<'a> {
    /// `NET-TA grid=<seed> <aggregate> k=<k>` (or `NET-IER ...`).
    pub label: String,
    pub graph: &'a RoadNetwork,
    pub data: &'a [VertexId],
    pub query: &'a [VertexId],
    pub k: usize,
    pub aggregate: Aggregate,
    pub neighbors: &'a [Neighbor],
    pub stats: NetworkGnnStats,
}

/// NET-TA and NET-IER on four perturbed 12×12 grids (50 data vertices,
/// 1–4 query vertices), SUM/MAX/MIN, k ∈ {1, 4}, all through one reused
/// [`NetworkScratch`] on a [`NetworkSnapshot`]; `visit` sees every query.
pub fn network_cases(mut visit: impl FnMut(NetworkCase<'_>)) {
    let mut scratch = NetworkScratch::new();
    for seed in 0..4u64 {
        let (g, data, query) = perturbed_grid(seed);
        let snapshot = NetworkSnapshot::new(g.freeze(), data.clone());
        for aggregate in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
            for k in [1usize, 4] {
                for algo in ["NET-TA", "NET-IER"] {
                    let (neighbors, stats) = if algo == "NET-TA" {
                        NetworkTa.k_gnn_in(
                            snapshot.graph(),
                            snapshot.data(),
                            &query,
                            k,
                            aggregate,
                            &mut scratch,
                        )
                    } else {
                        NetworkIer.k_gnn_in(
                            snapshot.graph(),
                            snapshot.data_tree(),
                            &query,
                            k,
                            aggregate,
                            &mut scratch,
                        )
                    };
                    visit(NetworkCase {
                        label: format!("{algo} grid={seed} {aggregate:?} k={k}"),
                        graph: &g,
                        data: &data,
                        query: &query,
                        k,
                        aggregate,
                        neighbors,
                        stats,
                    });
                }
            }
        }
    }
}

/// Renders one network query's record line: the ids, distance bits,
/// settled vertices, relaxed edges, Euclidean candidates and R-tree
/// accesses.
pub fn network_line(case: &NetworkCase<'_>) -> String {
    let stats = &case.stats;
    let mut line = format!(
        "{} settled={} relaxed={} candidates={} rtree={} |",
        case.label,
        stats.settled_vertices,
        stats.relaxed_edges,
        stats.euclidean_candidates,
        stats.rtree_accesses
    );
    push_neighbors(&mut line, case.neighbors);
    line
}

/// Every [`network_cases`] query rendered by [`network_line`].
pub fn network_traces() -> String {
    let mut out = String::new();
    network_cases(|case| {
        out.push_str(&network_line(&case));
        out.push('\n');
    });
    out
}

/// Asserts `got` equals the recorded `want`, reporting the first
/// differing line.
pub fn assert_matches_fixture(name: &str, got: &str, want: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{name}: line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{name}: line count"
    );
}
