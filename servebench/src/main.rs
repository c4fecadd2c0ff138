//! `servebench` — the GNN serving benchmark.
//!
//! One command stands up the real serving stack for a named workload,
//! drives it from one load-generator thread, checks every answer
//! bit-for-bit against the sequential `QueryRequest::execute_on` reference,
//! and prints every metric by name with its unit. The last line of standard
//! output is the machine-readable result:
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload ts-live --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! per-layer ladder and writes the span file. See `servebench/README.md`.

mod layers;
mod load;
mod report;
mod spans;
mod speed;
mod stack;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use load::{Generator, Phase};
use report::{Host, Metrics};
use spans::Spans;
use stack::Stack;
use workloads::{Inputs, Workload};

/// Set-ups timed per run (at least the first count, more while their
/// summed time stays under the budget, at most the last count); `setup_s`
/// is their median.
const SETUP_REPS: (usize, usize) = (5, 100);
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// In-flight submissions per service worker in the closed-loop phase.
const WINDOW_PER_WORKER: usize = 4;
/// Share of `--seconds` spent in the closed-loop phase; the open-loop phase
/// gets the rest.
const CLOSED_SHARE: f64 = 0.8;

const USAGE: &str = "usage: servebench --workload <ts-live|road-trips> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("seconds must be positive, got {value:?}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.unwrap_or(workloads::DEFAULT_SEED),
            seconds: seconds.unwrap_or(30.0),
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    eprintln!(
        "[servebench] {} seed={} seconds={} trace={}",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let inputs = Inputs::generate(wl, args.seed);
    let mut spans = Spans::new(args.trace);

    // Set-up: inputs in hand → first request answered, several times; the
    // last stack stays up and serves the run. The host speed probe runs
    // before each set-up, and `setup_s` is scaled by it (speed.rs).
    let mut setups = Vec::new();
    let mut firsts = Vec::new();
    let mut setup_speed = Vec::new();
    speed::sample(&mut setup_speed);
    let mut stack = Stack::stand_up(&inputs);
    loop {
        setups.push(stack.timings);
        firsts.push(stack.first);
        let spent: Duration = setups.iter().map(|s| s.total).sum();
        let (min, max) = SETUP_REPS;
        if setups.len() >= max || (setups.len() >= min && spent >= SETUP_BUDGET) {
            break;
        }
        drop(stack.finish());
        speed::sample(&mut setup_speed);
        stack = Stack::stand_up(&inputs);
    }

    // Sequential reference on the first generation; every set-up's probe
    // response must already match it.
    let reference = stack.reference(&inputs);
    let setup_ok = firsts.iter().all(|f| *f == Some(reference.probe));
    let mut layer_metrics = Metrics::default();
    if args.trace {
        layers::sequential_ladder(
            &inputs,
            &stack,
            &reference,
            &setups,
            &mut spans,
            &mut layer_metrics,
        );
    }

    let measured = Duration::from_secs_f64(args.seconds);
    let closed = measured.mul_f64(CLOSED_SHARE);
    let open = measured - closed;
    let window = WINDOW_PER_WORKER * stack::WORKERS;
    let mut gen = Generator::new(&stack, &inputs, &reference.first);
    let warm = gen.closed_loop(
        "warmup",
        Duration::from_millis(300),
        window,
        false,
        &mut spans,
    );
    let mut phases: Vec<Phase> = vec![warm];
    if args.trace {
        // Alternate untraced and traced closed-loop slices so machine
        // drift hits both sides of the trace-overhead ratio alike.
        for i in 0..4 {
            let traced = i % 2 == 1;
            let name = if traced { "closed-traced" } else { "closed" };
            phases.push(gen.closed_loop(name, closed / 4, window, traced, &mut spans));
        }
    } else {
        phases.push(gen.closed_loop("closed", closed, window, false, &mut spans));
    }
    phases.push(gen.open_loop("open", open, inputs.open_rate_qps, args.trace, &mut spans));
    let (updates, later) = gen.finish();

    let finished = stack.finish();
    let late_mismatches = reference.verify_later(&inputs, &finished, &later);

    let host = Host::capture(wl.name(), args.seed, args.trace, inputs.open_rate_qps);
    let summary = report::Summary::new(
        &phases,
        &setups,
        &setup_speed,
        updates,
        late_mismatches,
        &finished,
    );
    let mut metrics = if args.trace {
        layers::service_ladder(&summary, &phases, &finished, &spans, &mut layer_metrics);
        layer_metrics
    } else {
        summary.end_to_end()
    };
    let (fits, overrun_us) = spans.fit();
    if args.trace {
        let (max_gap, within) = spans.coverage();
        metrics.push("bench.trace_gap_max_us", max_gap, "us");
        metrics.push("bench.trace_gap_ok_frac", within, "frac");
        eprintln!("[servebench] trace fit: largest child overrun {overrun_us} us");
    }
    // Warm-up responses are not counted in `attempted`, but they must be
    // correct too.
    let correct = setup_ok && fits && summary.failed == 0 && phases.iter().all(|p| p.failed == 0);
    let out_dir = report::out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        wl.name(),
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        match spans.write(&out_dir.join(format!("spans-{stem}.tsv"))) {
            Ok(path) => eprintln!("[servebench] spans: {}", path.display()),
            Err(e) => eprintln!("[servebench] could not write spans: {e}"),
        }
    }
    let record = report::run_record(&host, &summary, &phases, &metrics, overrun_us, correct);
    if let Err(e) = report::write_file(&out_dir.join(format!("run-{stem}.json")), &record) {
        eprintln!("[servebench] could not write run record: {e}");
    }
    summary.print_human(&host, &phases, &metrics);
    println!(
        "{}",
        report::result_line(correct, summary.attempted, summary.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "[servebench] FAILED: {} failed requests ({late_mismatches} found after the run); \
             set-up responses correct: {setup_ok}; trace spans fit: {fits}",
            summary.failed
        );
        ExitCode::from(1)
    }
}

/// Median of a non-empty slice of durations, in seconds.
pub fn median_secs(xs: &[Duration]) -> f64 {
    let mut v: Vec<f64> = xs.iter().map(Duration::as_secs_f64).collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Nearest-rank quantile of an ascending-sorted slice (`None` when empty).
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nanoseconds from `epoch` to `t` (0 when `t` precedes it).
pub fn since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}
