//! The serving stack under test — set-up, teardown — and the sequential
//! reference every response is checked against.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gnn_core::{
    Neighbor, NetworkBackend, Planner, QueryRequest, QueryScratch, QueryStats, ShardRouting, Target,
};
use gnn_network::NetworkSnapshot;
use gnn_rtree::{RTreeParams, ShardedSnapshot, ShardedTree};
use gnn_service::{RefreshDriver, RefreshPolicy, Service, ServiceConfig, ServiceStats};

use crate::load::Later;
use crate::workloads::{Data, Inputs};

/// Service workers on every workload (the 2-core host's `nproc`).
pub const WORKERS: usize = 2;

/// Where one set-up spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    /// Inputs in hand → first request answered.
    pub total: Duration,
    /// R-tree bulk load.
    pub bulk_load: Duration,
    /// Snapshot freeze (for `road-trips`: `RoadNetwork::freeze` plus
    /// `NetworkSnapshot::new`).
    pub freeze: Duration,
}

/// What the service serves from.
pub enum Serving {
    /// A refresh driver republishing a mutating sharded tree.
    Live {
        initial: Arc<ShardedSnapshot>,
        driver: RefreshDriver,
    },
    /// A road-network snapshot.
    Network(Arc<NetworkSnapshot>),
}

pub struct Stack {
    pub service: Arc<Service>,
    pub serving: Serving,
    pub timings: SetupTimings,
    /// Fingerprint of the probe's response (checked against the reference).
    pub first: Option<u64>,
}

/// A torn-down stack: final counters and every generation it served.
pub struct Finished {
    pub stats: ServiceStats,
    /// `generations[g - 1]` served generation `g` (empty for networks).
    pub generations: Vec<Arc<ShardedSnapshot>>,
    /// Snapshots the refresh driver published (`ts-live`).
    pub published: u64,
    /// Wall time of each of the driver's `refreeze_all` calls (`ts-live`).
    pub refreezes: Vec<Duration>,
}

impl Stack {
    /// Stands the stack up from generated inputs and waits for the first
    /// response.
    pub fn stand_up(inputs: &Inputs) -> Stack {
        let config = ServiceConfig::with_workers(WORKERS);
        let mut t = SetupTimings::default();
        let t0 = Instant::now();
        let (service, serving) = match &inputs.data {
            Data::Points(entries) => {
                let s = Instant::now();
                let tree = ShardedTree::build(RTreeParams::default(), entries.iter().copied(), 1);
                t.bulk_load = s.elapsed();
                let s = Instant::now();
                let snapshot = Arc::new(tree.freeze_all());
                t.freeze = s.elapsed();
                let service = Arc::new(Service::start_sharded(Arc::clone(&snapshot), config));
                let driver =
                    RefreshDriver::start(tree, Arc::clone(&service), RefreshPolicy::default());
                let serving = Serving::Live {
                    initial: snapshot,
                    driver,
                };
                (service, serving)
            }
            Data::Road { network, data } => {
                let s = Instant::now();
                let snapshot = Arc::new(NetworkSnapshot::new(network.freeze(), data.clone()));
                t.freeze = s.elapsed();
                let backend: Arc<dyn NetworkBackend> = snapshot.clone();
                let service = Arc::new(Service::start_network(backend, config));
                (service, Serving::Network(snapshot))
            }
        };
        let first = service
            .submit(inputs.probe.clone())
            .and_then(|h| h.wait())
            .ok()
            .map(|r| fingerprint(&r.neighbors, &r.stats, r.routing));
        t.total = t0.elapsed();
        Stack {
            service,
            serving,
            timings: t,
            first,
        }
    }

    /// The refresh driver, on `ts-live`.
    pub fn driver(&self) -> Option<&RefreshDriver> {
        match &self.serving {
            Serving::Live { driver, .. } => Some(driver),
            _ => None,
        }
    }

    /// Stops the driver and the service and returns what they served.
    pub fn finish(self) -> Finished {
        let (generations, published, refreezes) = match self.serving {
            Serving::Live { driver, .. } => {
                let outcome = driver.join().expect("refresh driver finished cleanly");
                let refreezes = outcome.publishes.iter().map(|p| p.refreeze).collect();
                (outcome.snapshots, outcome.stats.published, refreezes)
            }
            Serving::Network(_) => (Vec::new(), 0, Vec::new()),
        };
        let service = match Arc::try_unwrap(self.service) {
            Ok(service) => service,
            Err(_) => panic!("the service outlived its driver"),
        };
        Finished {
            stats: service.shutdown(),
            generations,
            published,
            refreezes,
        }
    }

    /// The sequential reference on the first generation: the probe's
    /// fingerprint, and one fingerprint and cost sample per pool request.
    pub fn reference(&self, inputs: &Inputs) -> Reference {
        let planner = Planner::new();
        let mut scratch = QueryScratch::new();
        let mut reference = Reference::default();
        let mut run = |target: &Target<'_, '_>| {
            let (_, neighbors, stats, routing) =
                inputs.probe.execute_on(&planner, target, &mut scratch);
            reference.probe = fingerprint(neighbors, &stats, routing);
            for request in &inputs.pool {
                let (_, neighbors, stats, routing) =
                    request.execute_on(&planner, target, &mut scratch);
                reference
                    .first
                    .push(fingerprint(neighbors, &stats, routing));
                reference.costs.push(Cost { stats });
            }
        };
        match &self.serving {
            Serving::Network(n) => run(&Target::Network(n.as_ref())),
            Serving::Live { initial: s, .. } => with_sharded(s, |target| run(target)),
        }
        reference
    }
}

/// Runs `f` on a sharded target with fresh cursors over `snapshot`.
pub fn with_sharded<R>(snapshot: &ShardedSnapshot, f: impl FnOnce(&Target<'_, '_>) -> R) -> R {
    let cursors: Vec<_> = snapshot.shards().iter().map(|s| s.cursor()).collect();
    f(&Target::Sharded {
        snapshot,
        cursors: &cursors,
    })
}

/// The bits a response must reproduce: neighbor ids and distance bits,
/// node accesses, distance evaluations, network expansion counters, and
/// the shard routing.
pub fn fingerprint(neighbors: &[Neighbor], stats: &QueryStats, routing: ShardRouting) -> u64 {
    let mut h = DefaultHasher::new();
    neighbors.len().hash(&mut h);
    for n in neighbors {
        n.id.0.hash(&mut h);
        n.dist.to_bits().hash(&mut h);
    }
    stats.data_tree.logical.hash(&mut h);
    stats.dist_computations.hash(&mut h);
    stats.settled_vertices.hash(&mut h);
    stats.relaxed_edges.hash(&mut h);
    routing.primary.hash(&mut h);
    routing.consulted.hash(&mut h);
    h.finish()
}

/// One reference execution's cost counters.
pub struct Cost {
    pub stats: QueryStats,
}

/// The sequential reference: first-generation fingerprints and costs, one
/// per pool request, and the set-up probe's fingerprint.
#[derive(Default)]
pub struct Reference {
    pub probe: u64,
    pub first: Vec<u64>,
    pub costs: Vec<Cost>,
}

impl Reference {
    /// Checks the later-generation fingerprints the generator kept against
    /// the reference of the snapshot that served them. Returns how many
    /// responses carried a wrong one.
    pub fn verify_later(&self, inputs: &Inputs, finished: &Finished, later: &Later) -> u64 {
        let mut by_generation: HashMap<u64, Vec<(u32, u64, u64)>> = HashMap::new();
        for (&(generation, idx), &(hash, count)) in later {
            by_generation
                .entry(generation)
                .or_default()
                .push((idx, hash, count));
        }
        let planner = Planner::new();
        let mut scratch = QueryScratch::new();
        let mut mismatched = 0;
        for (generation, mut seen) in by_generation {
            seen.sort_unstable();
            let snapshot = (generation as usize)
                .checked_sub(1)
                .and_then(|g| finished.generations.get(g));
            let Some(snapshot) = snapshot else {
                // A generation the driver never published matches nothing.
                mismatched += seen.iter().map(|s| s.2).sum::<u64>();
                continue;
            };
            with_sharded(snapshot, |target| {
                for &(idx, hash, count) in &seen {
                    let request: &QueryRequest = &inputs.pool[idx as usize];
                    let (_, neighbors, stats, routing) =
                        request.execute_on(&planner, target, &mut scratch);
                    if fingerprint(neighbors, &stats, routing) != hash {
                        mismatched += count;
                    }
                }
            });
        }
        mismatched
    }
}
