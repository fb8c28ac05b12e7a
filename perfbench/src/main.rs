//! `perfbench`: the ReactDB-rs benchmark.
//!
//! ```text
//! perfbench --workload <wire-smallbank|fanout-transfer|durable-ycsb>
//!           --seed <n> --seconds <s> --trace <0|1> [--violate]
//! ```
//!
//! One process drives one workload against an engine it boots itself (over
//! the wire through an embedded `Server`, or in process through `Client`),
//! checks the outcome is correct, and prints one JSON object as its last
//! stdout line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! repeats the run with spans around the driver's calls into each layer,
//! per-thread CPU from `/proc` and metric-snapshot deltas, and reports the
//! per-layer metrics instead. `--violate` feeds every correctness check a
//! violated invariant; the run must then fail. Human-readable detail goes
//! to stderr. See `perfbench/NOTES.md` for the workloads and their sizing.

mod durable;
mod fanout;
mod harness;
mod inproc;
mod smallbank_mix;
mod wire;

use std::path::PathBuf;

use harness::{Opts, Report};

/// End-to-end metrics: what a user of the system sees.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("idle_p50_us", "us"),
    ("p50_us", "us"),
    ("tps", "1/s"),
    ("cpu_us_per_txn", "us"),
    ("wal_bytes_per_txn", "B"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not cross
/// reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.submit_ns", "ns"),
    ("client.encode_ns", "ns"),
    ("client.decode_ns", "ns"),
    ("client.request_bytes", "B"),
    ("client.reader_cpu_us_per_txn", "us"),
    ("server.net_decode_ns", "ns"),
    ("server.net_dispatch_ns", "ns"),
    ("server.net_reply_ns", "ns"),
    ("server.net_decode_busy_ms", "ms"),
    ("server.net_dispatch_busy_ms", "ms"),
    ("server.net_reply_busy_ms", "ms"),
    ("server.net_cpu_user_us_per_txn", "us"),
    ("server.net_cpu_sys_us_per_txn", "us"),
    ("server.accept_cpu_us_per_s", "us/s"),
    ("engine.submit_ns", "ns"),
    ("engine.session_wait_ns", "ns"),
    ("engine.execute_ns", "ns"),
    ("engine.unattributed_ns", "ns"),
    ("engine.exec_cpu_us_per_txn", "us"),
    ("engine.executor_utilization", "ratio"),
    ("engine.sub_txns_dispatched_per_txn", "count"),
    ("engine.sub_txns_inlined_per_txn", "count"),
    ("txn.lock_ns", "ns"),
    ("txn.fence_ns", "ns"),
    ("txn.validate_ns", "ns"),
    ("txn.write_ns", "ns"),
    ("txn.commit_ratio", "ratio"),
    ("txn.aborts.occ_read", "count"),
    ("txn.aborts.phantom", "count"),
    ("txn.aborts.lock_busy", "count"),
    ("txn.aborts.dangerous_structure", "count"),
    ("txn.aborts.wal_failure", "count"),
    ("txn.aborts.user_abort", "count"),
    ("txn.aborts.other", "count"),
    ("wal.log_ns", "ns"),
    ("wal.sync_wait_ns", "ns"),
    ("wal.fsync_ns", "ns"),
    ("wal.durable_ack_ns", "ns"),
    ("wal.txns_per_sync", "count"),
    ("wal.log_bytes_per_txn", "B"),
    ("wal.sync_cpu_us_per_txn", "us"),
    ("wal.ckpt_count", "count"),
    ("wal.ckpt_bytes", "B"),
    ("wal.ckpt_part_write_ns", "ns"),
    ("wal.ckpt_cpu_us_per_s", "us/s"),
    ("wal.truncated_bytes", "B"),
    ("wal.replay_ns", "ns"),
    ("wal.recovered_txns", "count"),
    ("wal.recovered_ckpt_rows", "count"),
    ("storage.boot_s", "s"),
    ("storage.load_rows_per_s", "1/s"),
    ("driver.cpu_us_per_txn", "us"),
    ("driver.late_p99_us", "us"),
    ("driver.idle_p99_us", "us"),
    ("driver.open_p99_us", "us"),
    ("driver.trace_overhead_pct", "%"),
    ("driver.transport_errors", "count"),
    ("driver.timeouts", "count"),
    ("driver.host_steal_pct", "%"),
    ("cpu.other_us_per_txn", "us"),
    ("cpu.unattributed_pct", "%"),
];

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload wire-smallbank|fanout-transfer|durable-ycsb \
         --seed N --seconds S --trace 0|1 [--violate]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let (mut workload, mut seed, mut seconds, mut trace, mut violate) =
        (None, None, None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace wants 0 or 1"),
                })
            }
            "--violate" => violate = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        usage("--seconds must be in (0, 120]");
    }
    let run_dir = PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()));
    Opts {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        violate,
        run_dir,
    }
}

fn main() {
    let opts = parse_opts();
    if !matches!(
        opts.workload.as_str(),
        "wire-smallbank" | "fanout-transfer" | "durable-ycsb"
    ) {
        usage(&format!("unknown workload {}", opts.workload));
    }
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    if let Err(e) = std::fs::create_dir_all(&opts.run_dir) {
        eprintln!("error: cannot create {}: {e}", opts.run_dir.display());
        std::process::exit(1);
    }
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} violate={} cores={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        opts.violate,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut report = Report::new();
    match opts.workload.as_str() {
        "wire-smallbank" => wire::run(&opts, &mut report),
        "fanout-transfer" => fanout::run(&opts, &mut report),
        _ => durable::run(&opts, &mut report),
    }
    report.check(report.attempted > 0, "the run attempted transactions");
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    // Drop the parent too once no concurrent run uses it.
    let _ = std::fs::remove_dir(".bench_run");

    let wanted = if opts.trace { PER_LAYER } else { END_TO_END };
    let json = report.finish(wanted);
    println!("{json}");
    std::process::exit(if report.correct { 0 } else { 1 });
}
