//! The road-network serving experiment: NET-TA and NET-IER on a CSR
//! snapshot with a reusable scratch over a group-size sweep, then the
//! fixed-seed trip workload served through `Service::start_network` at
//! 1/2/8 workers plus a batched-submission cell.
//!
//! ```text
//! cargo run -p gnn-bench --release --bin network_throughput
//! cargo run -p gnn-bench --release --bin network_throughput -- --quick --json BENCH_network.json
//! ```
//!
//! Flags:
//! * `--quick`      smaller network + workload (smoke / CI run)
//! * `--json PATH`  write the `gnn-network-bench/2` report (the committed
//!   `BENCH_network.json` at the repo root is a `--quick --json` run)
//!
//! The exit code gates equivalence: every sweep result carries the
//! Dijkstra oracle's distance bits, and every service cell is
//! bit-identical to the sequential reference on every worker count.

use gnn_bench::run_network_throughput;

fn main() {
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => {
                let path = args.next().expect("--json needs a file path");
                // Fail fast on an unwritable path, but WITHOUT truncating:
                // the target is typically the committed BENCH_network.json,
                // which must survive an interrupted run.
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .unwrap_or_else(|e| panic!("--json path {path} is not writable: {e}"));
                json_path = Some(path);
            }
            other => {
                eprintln!("unknown argument: {other} (flags: --quick, --json PATH)");
                std::process::exit(2);
            }
        }
    }

    eprintln!("[network_throughput] building road network + running (quick={quick})...");
    let report = run_network_throughput(quick);

    println!(
        "== network GNN serving ({}x{} grid, {} vertices / {} edges, {} data objects, \
         {} queries/cell, k={}, host cores: {}) ==",
        report.grid.0,
        report.grid.1,
        report.vertices,
        report.edges,
        report.data_objects,
        report.queries,
        report.k,
        report.host_parallelism
    );
    println!("-- group-size sweep (crossover read off the columns) --");
    println!(
        "{:<10} {:>4} {:>12} {:>10} {:>10} {:>9}",
        "algo", "n", "q/s", "settled/q", "relaxed/q", "rtree/q"
    );
    for c in &report.algo_cells {
        println!(
            "{:<10} {:>4} {:>12.0} {:>10.1} {:>10.1} {:>9.1}{}",
            c.algo,
            c.n,
            c.qps,
            c.settled_per_query,
            c.relaxed_per_query,
            c.rtree_per_query,
            if c.matches_oracle { "" } else { "  MISMATCH" }
        );
    }
    println!("-- trip workload through Service::start_network --");
    println!("{:<20} {:>12} {:>10}", "config", "q/s", "vs seq");
    println!(
        "{:<20} {:>12.0} {:>10}",
        "sequential", report.sequential_qps, "-"
    );
    for c in &report.service_cells {
        println!(
            "{:<20} {:>12.0} {:>9.2}x{}",
            format!(
                "{} worker{}{}",
                c.workers,
                if c.workers == 1 { "" } else { "s" },
                if c.batched { " (batched)" } else { "" }
            ),
            c.qps,
            c.speedup_vs_sequential,
            if c.matches_sequential {
                ""
            } else {
                "  MISMATCH"
            }
        );
    }

    if let Some(path) = &json_path {
        std::fs::write(path, report.to_json()).expect("write json report");
        eprintln!("[json] {path}");
    }
    if !report.gate_passes() {
        eprintln!(
            "[network_throughput] GATE FAILED: oracle or service/sequential \
             equivalence violated"
        );
        std::process::exit(1);
    }
}
