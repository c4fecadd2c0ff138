//! Run summary, host header, human-readable output, the run-record file and
//! the final result line.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::load::Phase;
use crate::quantile_sorted;
use crate::stack::{Finished, SetupTimings};

/// Metrics in print order: (name, value, unit).
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// What the run record names about where it ran.
pub struct Host {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub open_rate_qps: f64,
    pub commit: String,
    pub available_parallelism: usize,
    pub simd_level: &'static str,
    pub force_scalar: String,
}

impl Host {
    pub fn capture(workload: &'static str, seed: u64, trace: bool, open_rate_qps: f64) -> Host {
        Host {
            workload,
            seed,
            trace,
            open_rate_qps,
            commit: commit().unwrap_or_else(|| "unknown".into()),
            available_parallelism: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            simd_level: gnn_geom::simd::dispatch_level().label(),
            force_scalar: std::env::var("GNN_FORCE_SCALAR").unwrap_or_default(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"open_rate_qps\":{},\"commit\":{},\
             \"available_parallelism\":{},\"simd_level\":{},\"GNN_FORCE_SCALAR\":{}}}",
            json_str(self.workload),
            self.seed,
            self.trace,
            self.open_rate_qps,
            json_str(&self.commit),
            self.available_parallelism,
            json_str(self.simd_level),
            json_str(&self.force_scalar)
        )
    }
}

/// The commit of the checkout when it is a git work tree (read from
/// `.git` directly; the benchmark spawns no processes).
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Run-level figures shared by both output modes.
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    /// Median over closed-loop slots, scaled to the reference host speed
    /// (`speed.rs`).
    pub throughput_qps: f64,
    /// Median over closed-loop slots, unscaled.
    pub throughput_raw_qps: f64,
    /// Median over closed-loop slots of the slot's median probe time, us.
    pub probe_us: f64,
    /// Ascending open-loop latencies per slot, ns (failed = `u64::MAX`).
    pub slot_latencies: Vec<Vec<u64>>,
    /// All open-loop latencies, ascending.
    pub latencies_ns: Vec<u64>,
    /// Median set-up time scaled to the reference host speed, s.
    pub setup_s: f64,
    /// Median set-up time, unscaled, s.
    pub setup_raw_s: f64,
    /// Median speed probe time between set-ups, us.
    pub setup_probe_us: f64,
    pub peak_rss_mib: f64,
    pub lag_p99_ns: u64,
    pub updates: u64,
    pub published: u64,
    /// The refresh driver's summed `refreeze_all` time, s.
    pub refreeze_s: f64,
    /// Wall time of the traffic phases (warm-up included), s.
    pub traffic_s: f64,
}

impl Summary {
    pub fn new(
        phases: &[Phase],
        setups: &[SetupTimings],
        setup_speed: &[Duration],
        updates: u64,
        late_mismatches: u64,
        finished: &Finished,
    ) -> Summary {
        let measured: Vec<&Phase> = phases.iter().filter(|p| p.name != "warmup").collect();
        let open: Vec<&&Phase> = measured.iter().filter(|p| p.open).collect();
        let slot_latencies: Vec<Vec<u64>> = open.iter().flat_map(|p| p.slot_latencies()).collect();
        let mut latencies_ns: Vec<u64> = slot_latencies.iter().flatten().copied().collect();
        latencies_ns.sort_unstable();
        let mut lags: Vec<u64> = measured
            .iter()
            .flat_map(|p| p.lags_ns.iter().copied())
            .collect();
        lags.sort_unstable();
        let totals: Vec<Duration> = setups.iter().map(|s| s.total).collect();
        let setup_raw_s = crate::median_secs(&totals);
        let setup_probe_s = crate::median_secs(setup_speed);
        Summary {
            attempted: measured.iter().map(|p| p.sent).sum(),
            failed: measured.iter().map(|p| p.failed).sum::<u64>() + late_mismatches,
            throughput_qps: slot_median_throughput(phases, false),
            throughput_raw_qps: slot_median(phases, false, Phase::slot_raw_throughputs),
            probe_us: slot_median(phases, false, |p| {
                p.slot_probe_ns()
                    .iter()
                    .map(|&ns| ns as f64 / 1e3)
                    .collect()
            }),
            slot_latencies,
            latencies_ns,
            setup_s: setup_raw_s * crate::speed::REFERENCE.as_secs_f64() / setup_probe_s,
            setup_raw_s,
            setup_probe_us: setup_probe_s * 1e6,
            peak_rss_mib: peak_rss_mib(),
            lag_p99_ns: quantile_sorted(&lags, 0.99).unwrap_or(0),
            updates,
            published: finished.published,
            refreeze_s: finished.refreezes.iter().sum::<Duration>().as_secs_f64(),
            traffic_s: phases.iter().map(|p| p.window.as_secs_f64()).sum(),
        }
    }

    /// Share of one core's traffic time the refresh driver spent in
    /// `refreeze_all`.
    fn refreeze_share(&self) -> f64 {
        self.refreeze_s / self.traffic_s
    }

    /// Open-loop latency quantile in ms: the median over slots of each
    /// slot's quantile (failed requests sort last).
    pub fn latency_ms(&self, q: f64) -> f64 {
        let mut per_slot: Vec<f64> = self
            .slot_latencies
            .iter()
            .filter_map(|s| quantile_sorted(s, q))
            .map(|ns| ns as f64 / 1e6)
            .collect();
        per_slot.sort_by(f64::total_cmp);
        per_slot
            .get(per_slot.len() / 2)
            .copied()
            .unwrap_or(f64::NAN)
    }

    /// Fewest samples beyond the p99 sample in any slot (the p99 rule asks
    /// for at least 10).
    fn beyond_p99(&self) -> usize {
        self.slot_latencies
            .iter()
            .map(|s| {
                let p99 = quantile_sorted(s, 0.99).unwrap_or(u64::MAX);
                s.iter().filter(|&&l| l > p99).count()
            })
            .min()
            .unwrap_or(0)
    }

    /// The end-to-end metrics (untraced run). Open-loop latency is not
    /// among them: see README.md.
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("throughput_qps", self.throughput_qps, "1/s");
        m.push("setup_s", self.setup_s, "s");
        m.push("peak_rss_mib", self.peak_rss_mib, "MiB");
        m
    }

    /// Human-readable report: host header, phases, metrics.
    pub fn print_human(&self, host: &Host, phases: &[Phase], metrics: &Metrics) {
        println!("# host {}", host.json());
        println!(
            "# {:<14} {:>9} {:>9} {:>7} {:>9}",
            "phase", "sent", "succeeded", "failed", "window_s"
        );
        for p in phases {
            println!(
                "# {:<14} {:>9} {:>9} {:>7} {:>9.3}",
                p.name,
                p.sent,
                p.sent - p.failed,
                p.failed,
                p.window.as_secs_f64()
            );
        }
        println!(
            "# failed_frac {} ({} of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!(
            "# open loop (not bounded, see README.md): {} samples, latency p50 {:.3} ms, \
             p99 {:.3} ms (fewest samples beyond p99 in a slot: {}), generator lag p99 {:.3} ms",
            self.latencies_ns.len(),
            self.latency_ms(0.50),
            self.latency_ms(0.99),
            self.beyond_p99(),
            self.lag_p99_ns as f64 / 1e6,
        );
        println!(
            "# closed loop: {:.1} correct responses/s as measured, speed probe {:.1} us \
             (reference {} us), {:.1}/s at reference speed",
            self.throughput_raw_qps,
            self.probe_us,
            crate::speed::REFERENCE.as_micros(),
            self.throughput_qps
        );
        println!(
            "# set-up: {:.6} s median as measured, speed probe {:.1} us, {:.6} s at reference \
             speed",
            self.setup_raw_s, self.setup_probe_us, self.setup_s
        );
        println!(
            "# updates fed {}, snapshots published {}, refreeze {:.4} s = {:.3}% of one core's \
             traffic time",
            self.updates,
            self.published,
            self.refreeze_s,
            self.refreeze_share() * 100.0
        );
        for (name, value, unit) in &metrics.0 {
            println!("{name} {value} {unit}");
        }
    }
}

/// Median over the slots of the closed-loop phases (untraced or traced)
/// of their correct-response rate, per second, scaled to the reference
/// host speed.
pub fn slot_median_throughput(phases: &[Phase], traced: bool) -> f64 {
    slot_median(phases, traced, Phase::slot_throughputs)
}

/// Median over the slots of the closed-loop phases (untraced or traced) of
/// a per-slot figure.
fn slot_median(phases: &[Phase], traced: bool, per_slot: impl Fn(&Phase) -> Vec<f64>) -> f64 {
    let mut slots: Vec<f64> = phases
        .iter()
        .filter(|p| !p.open && p.traced == traced && p.name != "warmup")
        .flat_map(per_slot)
        .collect();
    slots.sort_by(f64::total_cmp);
    slots.get(slots.len() / 2).copied().unwrap_or(f64::NAN)
}

/// The per-run record written next to the span file.
pub fn run_record(
    host: &Host,
    summary: &Summary,
    phases: &[Phase],
    metrics: &Metrics,
    trace_overrun_us: f64,
    correct: bool,
) -> String {
    let mut out = format!("{{\"host\":{},\"phases\":[", host.json());
    for (i, p) in phases.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":{},\"open_loop\":{},\"traced\":{},\"window_s\":{},\"sent\":{},\
             \"succeeded\":{},\"failed\":{},\"updates\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(p.name),
            p.open,
            p.traced,
            p.window.as_secs_f64(),
            p.sent,
            p.sent - p.failed,
            p.failed,
            p.updates
        );
    }
    out.push_str("],\"closed_slots\":[");
    let closed = phases.iter().filter(|p| !p.open && p.name != "warmup");
    for (i, p) in closed.enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":{},\"qps\":{:?},\"raw_qps\":{:?},\"probe_ns\":{:?}}}",
            if i > 0 { "," } else { "" },
            json_str(p.name),
            p.slot_throughputs(),
            p.slot_raw_throughputs(),
            p.slot_probe_ns()
        );
    }
    let _ = writeln!(
        out,
        "],\"throughput_raw_qps\":{},\"probe_us\":{},\
         \"setup_raw_s\":{},\"setup_probe_us\":{},\"open_loop_samples\":{},\"latency_p50_ms\":{},\"latency_p99_ms\":{},\
         \"open_loop_min_beyond_p99_per_slot\":{},\"generator_lag_p99_ms\":{},\
         \"updates_fed\":{},\"snapshots_published\":{},\"refreeze_s\":{},\
         \"refreeze_share_of_traffic\":{},\"trace_child_overrun_max_us\":{},\"result\":{}}}",
        summary.throughput_raw_qps,
        summary.probe_us,
        summary.setup_raw_s,
        summary.setup_probe_us,
        summary.latencies_ns.len(),
        summary.latency_ms(0.50),
        summary.latency_ms(0.99),
        summary.beyond_p99(),
        summary.lag_p99_ns as f64 / 1e6,
        summary.updates,
        summary.published,
        summary.refreeze_s,
        summary.refreeze_share(),
        trace_overrun_us,
        result_line(correct, summary.attempted, summary.failed, metrics)
    );
    out
}

/// The final stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{}{}: {{\"value\": {value}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            json_str(unit)
        );
    }
    out.push_str("}}");
    out
}

/// Where run records and span files go: `$CARGO_TARGET_DIR/servebench`
/// (or `target/servebench`).
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("servebench")
}

pub fn write_file(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

/// Process peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
