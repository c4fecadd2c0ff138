//! Exact network-distance GNN algorithms.
//!
//! Setting: data objects sit on network vertices; the query group is a set
//! of vertices; `dist_N(p, Q)` aggregates *shortest-path* distances. Both
//! algorithms are exact and are tested against [`network_oracle`].

use crate::dijkstra::single_source_distances;
use crate::graph::{RoadNetwork, VertexId};
use crate::packed::PackedGraph;
use crate::scratch::{DijkstraState, NetworkScratch};
use gnn_core::{Aggregate, KBestList, MbmStream, Neighbor, QueryGroup};
use gnn_geom::PointId;
use gnn_rtree::{PackedRTree, TreeCursor};
use std::time::{Duration, Instant};

/// One network group nearest neighbor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkNeighbor {
    /// The data vertex.
    pub vertex: VertexId,
    /// Aggregate network distance to the query group.
    pub dist: f64,
}

/// Cost counters of one network GNN query — the quantities the
/// service-level bit-identity gates compare.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetworkGnnStats {
    /// Vertices settled across all Dijkstra expansions (the I/O proxy of
    /// network search \[PZMT03\]).
    pub settled_vertices: u64,
    /// Edge relaxations across all expansions (CPU proxy).
    pub relaxed_edges: u64,
    /// Candidates pulled from the Euclidean stream (IER only).
    pub euclidean_candidates: u64,
    /// R-tree node accesses of the Euclidean filter (IER only).
    pub rtree_accesses: u64,
    /// Wall time of the query.
    pub elapsed: Duration,
}

fn neighbors_from(best: KBestList) -> Vec<NetworkNeighbor> {
    best.into_sorted()
        .into_iter()
        .map(|n| NetworkNeighbor {
            vertex: VertexId(n.id.0 as u32),
            dist: n.dist,
        })
        .collect()
}

/// Folds the network distances from every query vertex to `v` (expanding
/// each Dijkstra state as far as needed) into the aggregate.
fn aggregate_over_queries(
    graph: &PackedGraph,
    states: &mut [DijkstraState],
    v: VertexId,
    aggregate: Aggregate,
) -> f64 {
    let mut acc = aggregate.identity();
    for s in states.iter_mut() {
        let d = s.distance_to(graph, v).unwrap_or(f64::INFINITY);
        acc = aggregate.fold(acc, d);
        if acc.is_infinite() && aggregate != Aggregate::Min {
            // Unreachable from some query point: Sum/Max can never recover.
            return f64::INFINITY;
        }
    }
    acc
}

/// Runs stream `si` until `v` settles, keeping the bookkeeping coherent:
/// every vertex the probe settles updates the stream's threshold, and data
/// vertices it sweeps past are queued for evaluation (otherwise they would
/// silently escape the search — the subtle bug of naive TA-over-networks).
/// Data membership is the epoch-stamped `data_epoch` set (stamp equality =
/// member).
#[allow(clippy::too_many_arguments)]
fn probe(
    graph: &PackedGraph,
    states: &mut [DijkstraState],
    si: usize,
    v: VertexId,
    thresholds: &mut [f64],
    live: &mut [bool],
    data_epoch: &[u32],
    epoch: u32,
    pending: &mut Vec<VertexId>,
) -> Option<f64> {
    if let Some(d) = states[si].settled_distance(v) {
        return Some(d);
    }
    loop {
        match states[si].step(graph) {
            None => {
                thresholds[si] = f64::INFINITY;
                live[si] = false;
                return None;
            }
            Some((u, d)) => {
                thresholds[si] = d;
                if data_epoch[u.index()] == epoch {
                    pending.push(u);
                }
                if u == v {
                    return Some(d);
                }
            }
        }
    }
}

/// Brute-force oracle: one full Dijkstra per query vertex, then an argmin
/// scan over the data vertices. `O(n · (E log V) + |P|·n)`.
pub fn network_oracle(
    graph: &RoadNetwork,
    data: &[VertexId],
    query: &[VertexId],
    k: usize,
    aggregate: Aggregate,
) -> Vec<NetworkNeighbor> {
    assert!(!query.is_empty(), "query group must be non-empty");
    let tables: Vec<Vec<f64>> = query
        .iter()
        .map(|&q| single_source_distances(graph, q))
        .collect();
    let mut best = KBestList::new(k);
    for &v in data {
        let agg = aggregate.aggregate(tables.iter().map(|t| t[v.index()]));
        if agg.is_finite() {
            best.offer(Neighbor {
                id: PointId(u64::from(v.0)),
                point: graph.position(v),
                dist: agg,
            });
        }
    }
    neighbors_from(best)
}

/// Threshold-algorithm / concurrent-expansion network GNN (the network
/// analog of MQM): one incremental Dijkstra per query vertex, advanced
/// round-robin. A data vertex settled by any stream becomes a candidate and
/// is probed for its exact aggregate distance; the per-stream frontier
/// distances combine into the global termination threshold exactly like
/// MQM's `T`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkTa;

impl NetworkTa {
    /// Runs the query against a [`PackedGraph`] snapshot, reusing
    /// `scratch` (no `V`-sized allocations in steady state). Data vertices
    /// unreachable from any query vertex are excluded (their SUM/MAX
    /// aggregate is infinite).
    pub fn k_gnn_in<'s>(
        &self,
        graph: &PackedGraph,
        data: &[VertexId],
        query: &[VertexId],
        k: usize,
        aggregate: Aggregate,
        scratch: &'s mut NetworkScratch,
    ) -> (&'s [Neighbor], NetworkGnnStats) {
        assert!(!query.is_empty(), "query group must be non-empty");
        let t0 = Instant::now();
        scratch.begin(graph.vertex_count(), query.len(), k);
        let NetworkScratch {
            states,
            thresholds,
            live,
            pending,
            data_epoch,
            evaluated_epoch,
            epoch,
            best,
            out,
            ..
        } = scratch;
        let epoch = *epoch;
        let states = &mut states[..query.len()];
        for (s, &q) in states.iter_mut().zip(query) {
            s.begin(graph, q);
        }
        for &v in data {
            data_epoch[v.index()] = epoch;
        }

        'outer: loop {
            let mut progressed = false;
            for si in 0..states.len() {
                // Drain candidates discovered so far (including those swept
                // up by probes) before judging the termination threshold.
                while let Some(v) = pending.pop() {
                    if evaluated_epoch[v.index()] == epoch {
                        continue;
                    }
                    evaluated_epoch[v.index()] = epoch;
                    let mut acc = aggregate.identity();
                    let mut reachable = true;
                    for pi in 0..states.len() {
                        match probe(
                            graph, states, pi, v, thresholds, live, data_epoch, epoch, pending,
                        ) {
                            Some(d) => acc = aggregate.fold(acc, d),
                            None => {
                                if aggregate != Aggregate::Min {
                                    reachable = false;
                                    break;
                                }
                            }
                        }
                    }
                    if reachable && acc.is_finite() {
                        best.offer(Neighbor {
                            id: PointId(u64::from(v.0)),
                            point: graph.position(v),
                            dist: acc,
                        });
                    }
                }
                let t = aggregate.aggregate(thresholds.iter().copied());
                if t >= best.bound() {
                    break 'outer;
                }
                if !live[si] {
                    continue;
                }
                // Advance stream si by one settled vertex.
                match states[si].step(graph) {
                    None => {
                        // Stream exhausted: every reachable vertex settled.
                        thresholds[si] = f64::INFINITY;
                        live[si] = false;
                    }
                    Some((v, d)) => {
                        progressed = true;
                        thresholds[si] = d;
                        if data_epoch[v.index()] == epoch && evaluated_epoch[v.index()] != epoch {
                            pending.push(v);
                        }
                    }
                }
            }
            if !progressed && pending.is_empty() {
                break;
            }
        }

        let stats = NetworkGnnStats {
            settled_vertices: states.iter().map(|s| s.settled_count() as u64).sum(),
            relaxed_edges: states.iter().map(|s| s.relaxed_edges()).sum(),
            euclidean_candidates: 0,
            rtree_accesses: 0,
            elapsed: t0.elapsed(),
        };
        best.drain_sorted_into(out);
        (&*out, stats)
    }
}

/// Incremental Euclidean restriction (IER) network GNN: data vertices are
/// indexed by an R\*-tree; the Euclidean MBM stream yields candidates in
/// ascending *Euclidean* aggregate distance, which lower-bounds the network
/// aggregate (shortest paths dominate straight lines — enforced by
/// [`RoadNetwork::add_edge_weighted`]). Each candidate is refined with exact
/// network distances; the search stops when the Euclidean bound reaches the
/// k-th best network distance.
///
/// This is the paper's own machinery (MBM!) recycled as the filter step of
/// the network extension.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkIer;

impl NetworkIer {
    /// Runs the query against a [`PackedGraph`] snapshot. The Euclidean
    /// filter runs over a **prebuilt** frozen R\*-tree of the data vertices
    /// (`data_tree`, ids = vertex ids — see `NetworkSnapshot`, which builds
    /// it once at freeze time instead of per query), the MBM stream reuses
    /// the scratch's `MbmScratch`, and refinement runs epoch-stamped
    /// Dijkstra states.
    pub fn k_gnn_in<'s>(
        &self,
        graph: &PackedGraph,
        data_tree: &PackedRTree,
        query: &[VertexId],
        k: usize,
        aggregate: Aggregate,
        scratch: &'s mut NetworkScratch,
    ) -> (&'s [Neighbor], NetworkGnnStats) {
        assert!(!query.is_empty(), "query group must be non-empty");
        let t0 = Instant::now();
        scratch.begin(graph.vertex_count(), query.len(), k);
        let cursor = TreeCursor::packed(data_tree);
        let group = QueryGroup::with_aggregate(
            query.iter().map(|&q| graph.position(q)).collect(),
            aggregate,
        )
        .expect("non-empty query group");
        let NetworkScratch {
            states,
            mbm,
            best,
            out,
            ..
        } = scratch;
        let states = &mut states[..query.len()];
        for (s, &q) in states.iter_mut().zip(query) {
            s.begin(graph, q);
        }
        let mut euclid_stream = MbmStream::new_in(&cursor, &group, mbm);
        let mut candidates = 0u64;
        for cand in euclid_stream.by_ref() {
            // cand.dist is the Euclidean aggregate = a network lower bound.
            if cand.dist >= best.bound() {
                break;
            }
            candidates += 1;
            let v = VertexId(cand.id.0 as u32);
            let agg = aggregate_over_queries(graph, states, v, aggregate);
            if agg.is_finite() {
                best.offer(Neighbor {
                    id: cand.id,
                    point: cand.point,
                    dist: agg,
                });
            }
        }

        let stats = NetworkGnnStats {
            settled_vertices: states.iter().map(|s| s.settled_count() as u64).sum(),
            relaxed_edges: states.iter().map(|s| s.relaxed_edges()).sum(),
            euclidean_candidates: candidates,
            rtree_accesses: cursor.stats().logical,
            elapsed: t0.elapsed(),
        };
        best.drain_sorted_into(out);
        (&*out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::NetworkSnapshot;
    use gnn_geom::{Point, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_vertices(graph: &RoadNetwork, count: usize, seed: u64) -> Vec<VertexId> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut picked: Vec<u32> = (0..graph.vertex_count() as u32).collect();
        // Partial Fisher-Yates.
        for i in 0..count.min(picked.len()) {
            let j = rng.gen_range(i..picked.len());
            picked.swap(i, j);
        }
        picked.truncate(count);
        picked.into_iter().map(VertexId).collect()
    }

    /// NET-TA and NET-IER results (in that order) on a snapshot of `graph`.
    fn run_both(
        graph: &RoadNetwork,
        data: &[VertexId],
        query: &[VertexId],
        k: usize,
        aggregate: Aggregate,
    ) -> [(Vec<Neighbor>, NetworkGnnStats); 2] {
        let snapshot = NetworkSnapshot::new(graph.freeze(), data.to_vec());
        let mut scratch = NetworkScratch::new();
        let (got, stats) = NetworkTa.k_gnn_in(
            snapshot.graph(),
            snapshot.data(),
            query,
            k,
            aggregate,
            &mut scratch,
        );
        let ta = (got.to_vec(), stats);
        let (got, stats) = NetworkIer.k_gnn_in(
            snapshot.graph(),
            snapshot.data_tree(),
            query,
            k,
            aggregate,
            &mut scratch,
        );
        [ta, (got.to_vec(), stats)]
    }

    fn check_matches_oracle(
        graph: &RoadNetwork,
        data: &[VertexId],
        query: &[VertexId],
        k: usize,
        aggregate: Aggregate,
    ) {
        let want = network_oracle(graph, data, query, k, aggregate);
        let [(ta, _), (ier, _)] = run_both(graph, data, query, k, aggregate);
        for (name, got) in [("TA", &ta), ("IER", &ier)] {
            assert_eq!(got.len(), want.len(), "{name} {aggregate}");
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g.dist - w.dist).abs() < 1e-9 * (1.0 + w.dist),
                    "{name} {aggregate}: {} vs {}",
                    g.dist,
                    w.dist
                );
            }
        }
    }

    #[test]
    fn grid_network_all_aggregates() {
        let g = RoadNetwork::grid(12, 12, 0.2, 1);
        let data = sample_vertices(&g, 40, 2);
        let query = sample_vertices(&g, 5, 3);
        for agg in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
            check_matches_oracle(&g, &data, &query, 3, agg);
        }
    }

    #[test]
    fn random_geometric_networks() {
        let ws = Rect::from_corners(0.0, 0.0, 10.0, 10.0);
        for seed in 0..4 {
            let g = RoadNetwork::random_geometric(150, ws, 1.4, seed);
            let data = sample_vertices(&g, 50, seed + 10);
            let query = sample_vertices(&g, 4, seed + 20);
            check_matches_oracle(&g, &data, &query, 4, Aggregate::Sum);
        }
    }

    #[test]
    fn k_one_on_path_graph() {
        // Path 0-1-2-3-4 with unit edges; Q = {0, 4}; SUM distance of every
        // vertex is 4 (the path length) -> all tie; MAX is minimised at the
        // middle vertex 2.
        let mut g = RoadNetwork::new();
        let vs: Vec<VertexId> = (0..5)
            .map(|i| g.add_vertex(Point::new(i as f64, 0.0)))
            .collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let query = vec![vs[0], vs[4]];
        let [(ta, _), _] = run_both(&g, &vs, &query, 1, Aggregate::Max);
        assert_eq!(ta[0].id.0, u64::from(vs[2].0));
        assert_eq!(ta[0].dist, 2.0);
        let [_, (ier, _)] = run_both(&g, &vs, &query, 1, Aggregate::Sum);
        assert_eq!(ier[0].dist, 4.0);
    }

    #[test]
    fn detour_networks_separate_euclidean_from_network() {
        // Two parallel roads connected only at the far ends: the Euclidean
        // nearest data vertex is across the gap, but its network distance is
        // long. IER must keep refining and return the network-correct answer.
        let mut g = RoadNetwork::new();
        let mut south = Vec::new();
        let mut north = Vec::new();
        for i in 0..11 {
            south.push(g.add_vertex(Point::new(i as f64, 0.0)));
            north.push(g.add_vertex(Point::new(i as f64, 1.0)));
        }
        for w in south.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        for w in north.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        // Only the ends connect the two roads.
        g.add_edge(south[0], north[0]);
        g.add_edge(south[10], north[10]);

        // Query on the south road, data on both roads.
        let query = vec![south[4], south[6]];
        let data = vec![north[5], south[9]];
        let want = network_oracle(&g, &data, &query, 1, Aggregate::Sum);
        // north[5] is Euclidean-closest (1 unit away) but 11+ by network.
        assert_eq!(want[0].vertex, south[9]);
        check_matches_oracle(&g, &data, &query, 1, Aggregate::Sum);
    }

    #[test]
    fn disconnected_data_is_excluded() {
        let mut g = RoadNetwork::grid(4, 4, 0.0, 4);
        let island_a = g.add_vertex(Point::new(100.0, 100.0));
        let island_b = g.add_vertex(Point::new(101.0, 100.0));
        g.add_edge(island_a, island_b);
        let data = vec![VertexId(0), island_a];
        let query = vec![VertexId(5), VertexId(10)];
        for (got, _) in run_both(&g, &data, &query, 2, Aggregate::Sum) {
            assert_eq!(got.len(), 1, "island must be excluded");
            assert_eq!(got[0].id, PointId(0));
        }
    }

    #[test]
    fn ier_prunes_candidates() {
        // With spread-out data and a tight query, IER should refine only a
        // few of the many data vertices.
        let g = RoadNetwork::grid(20, 20, 0.2, 5);
        let data = sample_vertices(&g, 200, 6);
        let query = vec![VertexId(210), VertexId(211), VertexId(230)];
        let [(ta, _), (ier, ier_stats)] = run_both(&g, &data, &query, 1, Aggregate::Sum);
        assert!(
            ier_stats.euclidean_candidates < 60,
            "refined {} of 200 candidates",
            ier_stats.euclidean_candidates
        );
        // And it still matches TA.
        assert!((ier[0].dist - ta[0].dist).abs() < 1e-9);
    }

    #[test]
    fn cost_counters_are_populated() {
        let g = RoadNetwork::grid(8, 8, 0.1, 7);
        let data = sample_vertices(&g, 20, 8);
        let query = sample_vertices(&g, 3, 9);
        let [(_, ta), (_, ier)] = run_both(&g, &data, &query, 2, Aggregate::Sum);
        assert!(ta.settled_vertices > 0);
        assert!(ta.relaxed_edges > 0);
        assert!(ier.rtree_accesses > 0);
        assert!(ier.euclidean_candidates > 0);
    }
}
