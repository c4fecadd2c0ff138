//! The named workloads: what each generates from the seed, and the fixed
//! knobs (pool size, open-loop rate, update rate) it runs with.
//!
//! The datasets are the repository's canonical substitutes at their fixed
//! seeds (the paper's TS is a fixed real dataset); the seed picks
//! the traffic: query groups, their order and arrival instants, and the
//! live update stream.

use gnn_core::{NetworkQuery, QueryGroup, QueryRequest};
use gnn_datasets::{
    mixed_traffic, query_workload, trip_workload, ts_synthetic, MixedOp, MixedSpec, QuerySpec,
    TripSpec,
};
use gnn_geom::{Point, PointId, Rect};
use gnn_network::{RoadNetwork, VertexId};
use gnn_rtree::LeafEntry;
use gnn_service::Update;

/// The seed a run uses when `--seed` is absent. README.md names the
/// held-out seed.
pub const DEFAULT_SEED: u64 = 1;

/// Road-network grid side (vertices per row and column).
const GRID_SIDE: usize = 64;
/// Live updates per second on `ts-live`: a publish about every 2 s.
/// `RefreshPolicy::default()` publishes once 10% of the TS snapshot's pages
/// are dirty, about 440 updates of this stream. The refresh driver keeps
/// every snapshot it publishes (about 10 MiB each on TS), so one publish a
/// second would take peak RSS from about 160 to 270 MiB (README.md).
const UPDATE_RATE_UPS: f64 = 220.0;
/// Seconds of update stream generated (longer than any run).
const UPDATE_STREAM_SECS: f64 = 240.0;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TS, n=16 M=8% k=8 behind a refresh driver with a live update stream.
    TsLive,
    /// Grid road network, trip groups of 4, k=4, half pinned, half snapped.
    RoadTrips,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 2] = [Workload::TsLive, Workload::RoadTrips];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TsLive => "ts-live",
            Workload::RoadTrips => "road-trips",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop Poisson arrival rate, queries per second: about half the
    /// closed-loop throughput measured on a 2-core host.
    fn open_rate_qps(self) -> f64 {
        match self {
            Workload::TsLive => 3_600.0,
            Workload::RoadTrips => 1_050.0,
        }
    }
}

/// The indexed data a workload serves.
pub enum Data {
    /// Points with bulk-load ids `0..len`.
    Points(Vec<LeafEntry>),
    /// A road network with data objects on some of its vertices.
    Road {
        network: RoadNetwork,
        data: Vec<VertexId>,
    },
}

/// Everything a run is driven with, generated before set-up starts.
pub struct Inputs {
    pub data: Data,
    /// Distinct requests; the traffic submits them one at a time, cycling
    /// in order.
    pub pool: Vec<QueryRequest>,
    /// Open-loop arrival rate, queries per second.
    pub open_rate_qps: f64,
    /// Live updates as (offset from traffic start in ns, update).
    pub updates: Vec<(u64, Update)>,
    /// Seed of the arrival-gap stream.
    pub arrival_seed: u64,
    /// The request that ends each set-up: one point at the centre of the
    /// data, k=1. It does not depend on the seed, so neither does
    /// `setup_s`.
    pub probe: QueryRequest,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut inputs = match workload {
            Workload::TsLive => {
                let points = ts_synthetic(20_040_302);
                let pool = query_workload(workspace(&points), spec(16, 0.08), 2048, seed)
                    .into_iter()
                    .map(|q| QueryRequest::new(QueryGroup::sum(q).expect("non-empty group"), 8))
                    .collect();
                let mut inputs = Inputs::new(workload, points_data(&points), pool);
                inputs.updates = update_stream(&points, seed);
                inputs
            }
            Workload::RoadTrips => {
                let network = RoadNetwork::grid(GRID_SIDE, GRID_SIDE, 0.25, 0x2004_0301);
                // Data objects on ~10% of the vertices, fixed like the
                // network itself.
                let mut rng = SplitMix::new(0x2004_0302);
                let data: Vec<VertexId> = (0..network.vertex_count() as u32)
                    .filter(|_| rng.next_f64() < 0.10)
                    .map(VertexId)
                    .collect();
                let trips = trip_workload(
                    &network,
                    TripSpec {
                        group_size: 4,
                        max_retries: 8,
                    },
                    2048,
                    seed,
                );
                // Even pool slots pin their source vertices; odd ones let
                // the backend snap the group points.
                let pool = trips
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let group = QueryGroup::sum(t.points).expect("non-empty trip group");
                        let payload = if i % 2 == 0 {
                            NetworkQuery::at_vertices(t.sources.iter().map(|v| v.0).collect())
                        } else {
                            NetworkQuery::snapped()
                        };
                        QueryRequest::new(group, 4).with_network(payload)
                    })
                    .collect();
                Inputs::new(workload, Data::Road { network, data }, pool)
            }
        };
        inputs.arrival_seed = seed ^ 0xA11C_E5ED_0000_0001;
        inputs
    }

    fn new(workload: Workload, data: Data, pool: Vec<QueryRequest>) -> Inputs {
        let (center, network) = match &data {
            Data::Points(entries) => (
                Rect::bounding(entries.iter().map(|e| e.point))
                    .expect("non-empty dataset")
                    .center(),
                None,
            ),
            Data::Road { network, .. } => (
                network.bounding_box().expect("non-empty network").center(),
                Some(NetworkQuery::snapped()),
            ),
        };
        let mut probe = QueryRequest::new(QueryGroup::sum(vec![center]).expect("one point"), 1);
        probe.network = network;
        Inputs {
            data,
            pool,
            open_rate_qps: workload.open_rate_qps(),
            updates: Vec::new(),
            arrival_seed: 0,
            probe,
        }
    }
}

/// `mixed_traffic` inserts and deletes over `points` (ids `0..len`), half
/// inserts, at [`UPDATE_RATE_UPS`] for [`UPDATE_STREAM_SECS`], as (offset
/// in ns, update).
fn update_stream(points: &[Point], seed: u64) -> Vec<(u64, Update)> {
    let stream = MixedSpec {
        query: spec(1, 1.0),
        queries: 0,
        query_rate_qps: 0.0,
        updates: (UPDATE_RATE_UPS * UPDATE_STREAM_SECS) as usize,
        update_rate_ups: UPDATE_RATE_UPS,
        insert_fraction: 0.5,
    };
    mixed_traffic(workspace(points), stream, points, seed ^ 0x0000_D1E7)
        .into_iter()
        .map(|e| {
            let update = match e.op {
                MixedOp::Insert { id, point } => Update::Insert(LeafEntry::new(PointId(id), point)),
                MixedOp::Delete { id, point } => Update::Remove {
                    id: PointId(id),
                    point,
                },
                MixedOp::Query { .. } => unreachable!("update-only stream"),
            };
            (e.offset_nanos, update)
        })
        .collect()
}

fn spec(n: usize, area_fraction: f64) -> QuerySpec {
    QuerySpec { n, area_fraction }
}

fn workspace(points: &[Point]) -> Rect {
    Rect::bounding(points.iter().copied()).expect("non-empty dataset")
}

fn points_data(points: &[Point]) -> Data {
    Data::Points(
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| LeafEntry::new(PointId(i as u64), p))
            .collect(),
    )
}

/// SplitMix64: the benchmark's own small seeded generator (arrival gaps,
/// data-object placement).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() * mean
    }
}
