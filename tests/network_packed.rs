//! The packed (CSR snapshot + reusable scratch) network algorithms against
//! independent references: the Dijkstra oracle ([`network_oracle`], a full
//! single-source expansion per query vertex over the arena graph) and the
//! recorded trace fixture. Compared per query: distance **bits** against
//! the oracle, and against the fixture additionally the neighbor ids and
//! every expansion counter (`settled_vertices`, `relaxed_edges`,
//! `euclidean_candidates`, `rtree_accesses`).

mod support;

use gnn::network::{network_oracle, NetworkNeighbor, RoadNetwork};
use gnn::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::{network_cases, network_line, sample_vertices, NETWORK_FIXTURE};

/// Asserts `got` carries exactly the oracle's distance bits. The packed
/// expansion relaxes edges in the arena adjacency order and folds
/// per-source distances in query order, exactly like the oracle, so the
/// aggregates agree bit for bit. Ids are not compared: at an exact
/// distance tie on the k-th place TA and IER may stop before reaching the
/// lowest-id vertex the oracle reports (the fixture pins their ids).
fn assert_matches_oracle(label: &str, got: &[Neighbor], want: &[NetworkNeighbor]) {
    assert_eq!(got.len(), want.len(), "{label}: oracle cardinality");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            g.dist.to_bits(),
            w.dist.to_bits(),
            "{label}: distance bits ({} vs oracle {})",
            g.dist,
            w.dist
        );
    }
}

#[test]
fn packed_matches_oracle_and_fixture_on_perturbed_grids() {
    let mut recorded = NETWORK_FIXTURE.lines();
    network_cases(|case| {
        let want = network_oracle(case.graph, case.data, case.query, case.k, case.aggregate);
        assert_matches_oracle(&case.label, case.neighbors, &want);
        assert_eq!(
            Some(network_line(&case).as_str()),
            recorded.next(),
            "{}: recorded trace",
            case.label
        );
    });
    assert_eq!(recorded.next(), None, "fixture has unvisited cases");
}

#[test]
fn packed_snap_matches_linear_scan_oracle() {
    // The frozen vertex R-tree snap must pick the same vertex as the O(V)
    // scan it replaced (both tie-break toward the lowest vertex id).
    for seed in 0..3u64 {
        let g = RoadNetwork::grid(10, 10, 0.3, seed);
        let packed = g.freeze();
        let mut rng = StdRng::seed_from_u64(seed + 900);
        for _ in 0..200 {
            let p = Point::new(rng.gen::<f64>() * 11.0 - 1.0, rng.gen::<f64>() * 11.0 - 1.0);
            assert_eq!(packed.snap(p), g.snap_linear(p), "seed {seed} point {p:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// TA and IER across all three aggregates and k ∈ {1, 4}, reusing a
    /// single scratch so the epoch-stamped reset is exercised too.
    #[test]
    fn packed_matches_oracle_on_random_geometric_networks(
        seed in 0u64..10_000,
        n_data in 5usize..40,
        n_query in 1usize..6,
    ) {
        let g = RoadNetwork::random_geometric(
            80,
            Rect::from_corners(0.0, 0.0, 10.0, 10.0),
            1.6,
            seed,
        );
        let data = sample_vertices(&g, n_data, seed + 1);
        let query = sample_vertices(&g, n_query, seed + 2);
        let snapshot = NetworkSnapshot::new(g.freeze(), data.clone());
        let mut scratch = NetworkScratch::new();
        for aggregate in [Aggregate::Sum, Aggregate::Max, Aggregate::Min] {
            for k in [1usize, 4] {
                let tag = format!("rg seed={seed} {aggregate:?} k={k}");
                let want = network_oracle(&g, &data, &query, k, aggregate);
                let (got, _) = NetworkTa.k_gnn_in(
                    snapshot.graph(),
                    snapshot.data(),
                    &query,
                    k,
                    aggregate,
                    &mut scratch,
                );
                assert_matches_oracle(&format!("{tag} TA"), got, &want);
                let (got, _) = NetworkIer.k_gnn_in(
                    snapshot.graph(),
                    snapshot.data_tree(),
                    &query,
                    k,
                    aggregate,
                    &mut scratch,
                );
                assert_matches_oracle(&format!("{tag} IER"), got, &want);
            }
        }
    }
}
