//! Host speed probe: a fixed piece of work that belongs to the benchmark,
//! not to the program under test, timed about every 100 ms while the
//! service is under closed-loop load (`load.rs`) and between set-ups.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed drifts by
//! a fifth or more over tens of seconds. The probe slows down with the host
//! and not with the program, so `throughput_qps` is each slot's raw rate
//! times the slot's median probe time over [`REFERENCE`]: the rate the same
//! program would have reached on a host where the probe takes exactly
//! [`REFERENCE`]. `setup_s` is scaled the other way, by the probes taken
//! between set-ups. A change to the program moves both; a change in the
//! host's speed mostly cancels. The raw figures are kept in the run record.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::workloads::SplitMix;

/// Probe time that `throughput_qps` and `setup_s` are scaled to: about its median on the
/// 2-vCPU reference host under `road-trips` load (README.md). A constant,
/// so it only sets the scale of the figure, never its changes.
pub const REFERENCE: Duration = Duration::from_micros(250);

/// Heap entries the probe keeps.
const HEAP_LEN: usize = 512;
/// Pop-and-push rounds per probe.
const ROUNDS: usize = 4096;

/// Probes taken before each set-up.
const SETUP_SAMPLES: usize = 3;

/// Runs the probe [`SETUP_SAMPLES`] times, appending each wall time.
pub fn sample(into: &mut Vec<Duration>) {
    into.extend((0..SETUP_SAMPLES).map(|_| probe()));
}

/// Runs the probe once and returns its wall time.
pub fn probe() -> Duration {
    let start = Instant::now();
    black_box(work(black_box(0x5EED)));
    start.elapsed()
}

/// Priority-queue churn over pseudo-random keys: branchy, cache-resident
/// work of the kind a shortest-path search or a best-first descent does,
/// written with the standard library only.
fn work(seed: u64) -> u64 {
    let mut rng = SplitMix::new(seed);
    let mut heap = BinaryHeap::with_capacity(HEAP_LEN + 1);
    for _ in 0..HEAP_LEN {
        heap.push(rng.next_u64() >> 16);
    }
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        let top = heap.pop().unwrap_or(0);
        acc = acc.wrapping_add(top);
        heap.push(top.wrapping_sub(rng.next_u64() >> 20));
    }
    acc
}
