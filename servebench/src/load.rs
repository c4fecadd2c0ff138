//! The load generator: one thread that submits, waits and records.
//!
//! * **Closed loop** — a fixed window of submissions stays in flight; the
//!   oldest is awaited, then replaced. Gives `throughput_qps`.
//! * **Open loop** — requests arrive on a seeded Poisson schedule at a fixed
//!   rate regardless of completions. Each request is timed from its due
//!   instant to the moment the generator sees its response: the generator
//!   waits on the oldest in-flight submission and polls the rest whenever
//!   it wakes, so a response that overtakes an older one is seen when the
//!   older one completes. Gives the latency percentiles.
//!
//! On `ts-live` the same thread also feeds the update stream to the
//! refresh driver at its scheduled instants, in both phases.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use gnn_core::QueryResponse;
use gnn_service::{RefreshDriver, ResponseHandle, Service, SubmitError, Update};

use crate::spans::Spans;
use crate::speed;
use crate::stack::{fingerprint, Stack};
use crate::workloads::{Inputs, SplitMix};

/// Each phase window is cut into equal slots, and a run reports the median
/// over slots of each figure, so one disturbed slot cannot move it. A
/// closed-loop slot lasts about this long.
const CLOSED_SLOT: Duration = Duration::from_secs(1);
/// Slots of an open-loop phase: few, so each holds enough samples for its
/// p99 (at least 10 beyond it).
const OPEN_SLOTS: usize = 4;
/// Closed loop: the host speed probe runs about this often.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Checks responses as they arrive. The first generation is compared with
/// the reference at once; a later generation (`ts-live`) has no reference
/// until the run ends, so its first fingerprint per pool request is kept,
/// every repeat must equal it, and the kept ones are checked at the end.
pub struct Checker<'r> {
    first: &'r [u64],
    later: Later,
}

/// Fingerprints of later generations: (generation, pool index) →
/// (kept fingerprint, responses that matched it).
pub type Later = HashMap<(u64, u32), (u64, u64)>;

impl<'r> Checker<'r> {
    pub fn new(first: &'r [u64]) -> Checker<'r> {
        Checker {
            first,
            later: HashMap::new(),
        }
    }

    fn check(&mut self, generation: u64, idx: u32, hash: u64) -> bool {
        if generation == 1 {
            return self.first.get(idx as usize) == Some(&hash);
        }
        let (kept, count) = self.later.entry((generation, idx)).or_insert((hash, 0));
        if *kept != hash {
            return false;
        }
        *count += 1;
        true
    }
}

/// Everything one phase recorded. Nothing here grows with throughput, so
/// `peak_rss_mib` sees the program, not the benchmark's bookkeeping.
pub struct Phase {
    pub name: &'static str,
    pub open: bool,
    pub traced: bool,
    /// Length of the measured window.
    pub window: Duration,
    /// Equal slots the window is cut into.
    slots: usize,
    /// Queries submitted.
    pub sent: u64,
    /// Queries that failed: submit errors, typed query errors, responses
    /// that differ from the reference.
    pub failed: u64,
    /// Closed loop: correct responses completed in each slot.
    slot_done: Vec<u64>,
    /// Closed loop: host speed probe times taken in each slot, ns.
    slot_probe: Vec<Vec<u64>>,
    /// Open loop: latencies of the requests due in each slot, ns (failed
    /// ones as `u64::MAX`).
    slot_latency: Vec<Vec<u64>>,
    /// Open loop, per request: submit start − due instant.
    pub lags_ns: Vec<u64>,
    /// Open loop, per request: time inside `Service::submit`.
    pub submit_ns: Vec<u64>,
    /// Open loop, per traced response: (queue wait, execution) in ns.
    pub stages_ns: Vec<(u64, u64)>,
    /// Summed worker busy time during the phase.
    pub busy: Duration,
    /// Updates fed to the refresh driver during the phase.
    pub updates: u64,
    /// Start of the measured window.
    start: Instant,
}

impl Phase {
    fn new(name: &'static str, open: bool, traced: bool, window: Duration) -> Phase {
        let slots = if open {
            OPEN_SLOTS
        } else {
            (window.as_secs_f64() / CLOSED_SLOT.as_secs_f64())
                .round()
                .max(1.0) as usize
        };
        Phase {
            name,
            open,
            traced,
            window,
            slots,
            sent: 0,
            failed: 0,
            slot_done: vec![0; slots],
            slot_probe: vec![Vec::new(); slots],
            slot_latency: vec![Vec::new(); slots],
            lags_ns: Vec::new(),
            submit_ns: Vec::new(),
            stages_ns: Vec::new(),
            busy: Duration::ZERO,
            updates: 0,
            start: Instant::now(),
        }
    }

    /// One request's outcome: answered correctly or not. `slot` is by
    /// completion in the closed loop (`slots` = after the window) and by
    /// due instant in the open loop.
    fn record(&mut self, ok: bool, slot: usize, latency_ns: u64) {
        self.failed += u64::from(!ok);
        if self.open {
            let latency = if ok { latency_ns } else { u64::MAX };
            self.slot_latency[slot.min(self.slots - 1)].push(latency);
        } else if slot < self.slots {
            self.slot_done[slot] += u64::from(ok);
        }
    }

    /// Per slot: correct responses completed in it, per second.
    pub fn slot_raw_throughputs(&self) -> Vec<f64> {
        let slot_secs = self.window.as_secs_f64() / self.slots as f64;
        self.slot_done
            .iter()
            .map(|&d| d as f64 / slot_secs)
            .collect()
    }

    /// Per slot: the raw rate scaled to a host of reference speed, by the
    /// slot's median probe time over [`speed::REFERENCE`].
    pub fn slot_throughputs(&self) -> Vec<f64> {
        let reference = speed::REFERENCE.as_nanos() as f64;
        self.slot_raw_throughputs()
            .into_iter()
            .zip(self.slot_probe_ns())
            .map(|(qps, probe)| qps * probe as f64 / reference)
            .collect()
    }

    /// Per slot: median host speed probe time, ns (0 when none ran).
    pub fn slot_probe_ns(&self) -> Vec<u64> {
        self.slot_probe
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.sort_unstable();
                s.get(s.len() / 2).copied().unwrap_or(0)
            })
            .collect()
    }

    /// Per slot: ascending latencies of the requests due in it.
    pub fn slot_latencies(&self) -> Vec<Vec<u64>> {
        let mut slots = self.slot_latency.clone();
        for s in &mut slots {
            s.sort_unstable();
        }
        slots
    }
}

/// The slot of instant `t` in the phase window (`slots` past its end).
fn slot_of(phase: &Phase, t: Instant) -> usize {
    let offset = t.saturating_duration_since(phase.start).as_nanos();
    let slot = offset * phase.slots as u128 / phase.window.as_nanos().max(1);
    (slot as usize).min(phase.slots)
}

/// A submission awaiting its response.
struct InFlight {
    /// Pool index of the request.
    idx: u32,
    /// Request id in the span file.
    request: u32,
    due: Instant,
    start: Instant,
    end: Instant,
    handle: ResponseHandle,
}

type Outcome = Result<QueryResponse, SubmitError>;

pub struct Generator<'a> {
    service: &'a Service,
    checker: Checker<'a>,
    inputs: &'a Inputs,
    driver: Option<&'a RefreshDriver>,
    next_idx: usize,
    next_request: u32,
    rng: SplitMix,
    updates: &'a [(u64, Update)],
    next_update: usize,
    updates_epoch: Instant,
}

impl<'a> Generator<'a> {
    pub fn new(stack: &'a Stack, inputs: &'a Inputs, reference: &'a [u64]) -> Generator<'a> {
        Generator {
            service: &stack.service,
            checker: Checker::new(reference),
            inputs,
            driver: stack.driver(),
            next_idx: 0,
            next_request: 1,
            rng: SplitMix::new(inputs.arrival_seed),
            updates: &inputs.updates,
            next_update: 0,
            updates_epoch: Instant::now(),
        }
    }

    /// Updates fed so far, and the later-generation fingerprints left to
    /// check against the reference.
    pub fn finish(self) -> (u64, Later) {
        (self.next_update as u64, self.checker.later)
    }

    fn next_update_due(&self) -> Option<Instant> {
        let (offset, _) = self.updates.get(self.next_update)?;
        Some(self.updates_epoch + Duration::from_nanos(*offset))
    }

    /// Feeds every update whose instant has come.
    fn pump_updates(&mut self, phase: &mut Phase) {
        let Some(driver) = self.driver else { return };
        let now = Instant::now();
        while let Some(&(offset, update)) = self.updates.get(self.next_update) {
            if self.updates_epoch + Duration::from_nanos(offset) > now {
                break;
            }
            driver.apply(update);
            self.next_update += 1;
            phase.updates += 1;
        }
    }

    /// Submits the next request of the traffic cycle; `None` when the
    /// submission itself failed (recorded as a failed query).
    fn submit(&mut self, due: Instant, traced: bool, phase: &mut Phase) -> Option<InFlight> {
        let idx = self.next_idx;
        self.next_idx = (self.next_idx + 1) % self.inputs.pool.len();
        let mut request = self.inputs.pool[idx].clone();
        if traced {
            request = request.with_trace();
        }
        let start = Instant::now();
        let handle = self.service.submit(request);
        let end = Instant::now();
        phase.sent += 1;
        if phase.open {
            phase.submit_ns.push(crate::since(start, end));
            phase.lags_ns.push(crate::since(due, start));
        }
        let request = self.next_request;
        self.next_request += 1;
        match handle {
            Ok(handle) => Some(InFlight {
                idx: idx as u32,
                request,
                due,
                start,
                end,
                handle,
            }),
            Err(_) => {
                phase.record(false, slot_of(phase, due), u64::MAX);
                None
            }
        }
    }

    /// Checks and records a completed request, and its spans.
    fn complete(
        &mut self,
        f: InFlight,
        outcome: Outcome,
        done: Instant,
        slot: usize,
        phase: &mut Phase,
        spans: &mut Spans,
    ) {
        let correct = match outcome {
            Ok(r) => {
                // Request spans cover the open loop only: a closed-loop
                // response waits behind the older ones by design.
                if let Some(t) = r.trace.filter(|_| phase.open) {
                    phase.stages_ns.push((
                        t.queue_wait.as_nanos() as u64,
                        t.execution.as_nanos() as u64,
                    ));
                    if spans.enabled() {
                        // The service starts its queue-wait clock inside
                        // `submit`, so `f.start` is the earliest instant
                        // the wait can begin.
                        let dequeued = f.start + t.queue_wait;
                        let mut children = Vec::with_capacity(4);
                        if f.start > f.due {
                            children.push(("bench.lag", f.due, f.start));
                        }
                        children.push(("service.submit", f.start, f.end));
                        children.push(("service.queue_wait", f.start, dequeued));
                        children.push(("core.execution", dequeued, dequeued + t.execution));
                        spans.request(f.request, f.due, done, &children);
                    }
                }
                let hash = fingerprint(&r.neighbors, &r.stats, r.routing);
                self.checker.check(r.generation, f.idx, hash)
            }
            Err(_) => false,
        };
        phase.record(correct, slot, crate::since(f.due, done));
    }

    /// Closed loop for `window`: `depth` submissions stay in flight.
    pub fn closed_loop(
        &mut self,
        name: &'static str,
        window: Duration,
        depth: usize,
        traced: bool,
        spans: &mut Spans,
    ) -> Phase {
        let mut phase = Phase::new(name, false, traced, window);
        let before = self.service.stats();
        phase.start = Instant::now();
        let end = phase.start + window;
        let mut inflight = VecDeque::with_capacity(depth);
        for _ in 0..depth {
            inflight.extend(self.submit(Instant::now(), traced, &mut phase));
        }
        let far = end + Duration::from_secs(3600);
        // The probe runs at least once in every slot that completes a
        // request, so every nonzero slot rate has a probe time to scale by.
        let (mut next_probe, mut probed_slot) = (phase.start, usize::MAX);
        while let Some(mut f) = inflight.pop_front() {
            let outcome = loop {
                let wake = self.next_update_due().unwrap_or(far);
                if let Some(o) = f.handle.wait_deadline(wake) {
                    break o;
                }
                self.pump_updates(&mut phase);
            };
            let now = Instant::now();
            let slot = slot_of(&phase, now);
            self.complete(f, outcome, now, slot, &mut phase, spans);
            if (now >= next_probe || slot != probed_slot) && slot < phase.slots {
                phase.slot_probe[slot].push(speed::probe().as_nanos() as u64);
                (next_probe, probed_slot) = (now + PROBE_EVERY, slot);
            }
            self.pump_updates(&mut phase);
            if now < end {
                inflight.extend(self.submit(Instant::now(), traced, &mut phase));
            }
        }
        self.account(&mut phase, &before);
        phase
    }

    /// Open loop for `window` at `rate_qps`, then drains.
    pub fn open_loop(
        &mut self,
        name: &'static str,
        window: Duration,
        rate_qps: f64,
        traced: bool,
        spans: &mut Spans,
    ) -> Phase {
        let mut phase = Phase::new(name, true, traced, window);
        let before = self.service.stats();
        // Poisson arrivals: exponential gaps with mean 1 / `rate_qps`.
        let mean_gap = 1.0 / rate_qps;
        phase.start = Instant::now() + Duration::from_millis(1);
        let end = phase.start + window;
        let mut next_due = phase.start + Duration::from_secs_f64(self.rng.exp(mean_gap));
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        loop {
            self.pump_updates(&mut phase);
            let now = Instant::now();
            if next_due < end && next_due <= now {
                inflight.extend(self.submit(next_due, traced, &mut phase));
                next_due += Duration::from_secs_f64(self.rng.exp(mean_gap));
                continue;
            }
            // Harvest whatever has already arrived.
            let mut i = 0;
            while i < inflight.len() {
                if let Some(o) = inflight[i].handle.poll() {
                    let f = inflight.remove(i).expect("index in range");
                    let slot = slot_of(&phase, f.due);
                    self.complete(f, o, Instant::now(), slot, &mut phase, spans);
                } else {
                    i += 1;
                }
            }
            let arrivals_left = next_due < end;
            if !arrivals_left && inflight.is_empty() {
                break;
            }
            let far = now + Duration::from_secs(3600);
            let wake = [arrivals_left.then_some(next_due), self.next_update_due()]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or(far);
            match inflight.front_mut() {
                Some(f) => {
                    if let Some(o) = f.handle.wait_deadline(wake) {
                        let f = inflight.pop_front().expect("front exists");
                        let slot = slot_of(&phase, f.due);
                        self.complete(f, o, Instant::now(), slot, &mut phase, spans);
                    }
                }
                None => {
                    let now = Instant::now();
                    if wake > now {
                        std::thread::sleep(wake - now);
                    }
                }
            }
        }
        self.account(&mut phase, &before);
        phase
    }

    /// Service-side counters of the phase.
    fn account(&self, phase: &mut Phase, before: &gnn_service::ServiceStats) {
        let after = self.service.stats();
        let busy =
            |s: &gnn_service::ServiceStats| s.per_worker.iter().map(|w| w.busy).sum::<Duration>();
        phase.busy = busy(&after).saturating_sub(busy(before));
    }
}
