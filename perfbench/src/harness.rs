//! Machinery shared by the workloads: run options, outcome accounting,
//! latency samples, per-thread CPU read from `/proc`, metric-snapshot
//! arithmetic and the JSON report.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use reactdb_common::{TxnError, Value};
use reactdb_core::ReactorDatabaseSpec;
use reactdb_engine::ReactDB;
use reactdb_obs::{AbortReason, Counter, HistogramSummary, MetricsSnapshot, Phase};

/// Command-line options of one benchmark run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Measured seconds, split across the workload's phases.
    pub seconds: f64,
    /// Traced run: per-layer spans and metrics instead of end-to-end ones.
    pub trace: bool,
    /// Self-test: feed every correctness check a violated invariant.
    pub violate: bool,
    /// Directory for write-ahead logs, under the working directory.
    pub run_dir: PathBuf,
}

/// Engine instances each run sets up, measures, crashes and recovers in
/// turn; `setup_s` and `recover_s` are medians over them.
pub const SETUPS: usize = 3;

/// Further set-ups each run times and tears down at once, after the
/// measured instances, so that `setup_s` is a median over
/// `SETUPS + SETUP_ONLY` of them.
pub const SETUP_ONLY: usize = 2;

/// Rounds of each phase measured on each instance.
pub const ROUNDS_PER_INSTANCE: usize = 5;

/// How long the driver waits for one request before counting a timeout.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Times the driver sends one request in all. A concurrency-control abort
/// (an OCC read or phantom conflict, or a 2PC participant voting no) is
/// transient, and the driver sends the same request again, as a SmallBank
/// or YCSB client would; the request fails only if it aborts this often.
pub const ATTEMPT_LIMIT: u32 = 100;

/// Outcome counts of one phase, by cause. `attempted` counts requests, not
/// sends: a request resent after a concurrency-control abort is counted
/// once, by its final outcome, and each resend in `retries`.
#[derive(Debug, Default, Clone)]
pub struct Outcomes {
    pub attempted: u64,
    pub committed: u64,
    pub aborts: [u64; AbortReason::ALL.len()],
    pub transport: u64,
    pub timeouts: u64,
    pub retries: u64,
}

impl Outcomes {
    /// Whether a request that ended with `result` after `attempts` sends
    /// is to be sent again; counts the resend when it is.
    pub fn retry(&mut self, result: &reactdb_common::Result<Value>, attempts: u32) -> bool {
        let again = attempts < ATTEMPT_LIMIT && matches!(result, Err(e) if e.is_cc_abort());
        self.retries += again as u64;
        again
    }

    pub fn record(&mut self, result: &reactdb_common::Result<Value>) {
        self.attempted += 1;
        match result {
            Ok(_) => self.committed += 1,
            Err(TxnError::Runtime(msg)) if msg.contains("timed out") => self.timeouts += 1,
            Err(TxnError::Runtime(msg)) if msg.starts_with("wire client") => self.transport += 1,
            Err(error) => self.aborts[AbortReason::classify(error) as usize] += 1,
        }
    }

    /// A request the driver gave up waiting for.
    pub fn record_timeout(&mut self) {
        self.attempted += 1;
        self.timeouts += 1;
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.committed
    }

    pub fn add(&mut self, o: &Outcomes) {
        self.attempted += o.attempted;
        self.committed += o.committed;
        for (a, b) in self.aborts.iter_mut().zip(o.aborts) {
            *a += b;
        }
        self.transport += o.transport;
        self.timeouts += o.timeouts;
        self.retries += o.retries;
    }
}

/// Latency samples in nanoseconds, in the order the requests resolved.
#[derive(Default, Clone)]
pub struct Samples(Vec<u64>);

/// Requests per chunk of [`Samples::tail_us`]: a p99 with ten samples
/// beyond it.
const TAIL_CHUNK: usize = 1_000;

/// The `p`-quantile (nearest rank) of sorted samples, in microseconds.
fn quantile_us(sorted: &[u64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// The `p`-quantile of all samples in microseconds, 0 without samples.
    pub fn pct_us(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        quantile_us(&sorted, p)
    }

    /// The tail a run reports: the median over consecutive chunks of
    /// `TAIL_CHUNK` requests of each chunk's `p`-quantile (all samples
    /// form one chunk when there are fewer). A rare multi-millisecond
    /// stall then moves the tail of the chunks it hits, not the figure of
    /// the whole run; `log_tail` prints the whole-run tail beside it.
    pub fn tail_us(&self, p: f64) -> f64 {
        if self.0.len() < 2 * TAIL_CHUNK {
            return self.pct_us(p);
        }
        let per_chunk: Vec<f64> = self
            .0
            .chunks_exact(TAIL_CHUNK)
            .map(|c| {
                let mut sorted = c.to_vec();
                sorted.sort_unstable();
                quantile_us(&sorted, p)
            })
            .collect();
        median(&per_chunk)
    }

    /// Logs the whole-run distribution to stderr.
    pub fn log_tail(&self, phase: &str) {
        let max = self.0.iter().max().copied().unwrap_or(0) as f64 / 1e3;
        eprintln!(
            "  latency[{phase}] n={} p50={:.1}us p90={:.1}us p99={:.1}us p999={:.1}us max={max:.1}us | chunked p99={:.1}us",
            self.len(),
            self.pct_us(0.5),
            self.pct_us(0.9),
            self.pct_us(0.99),
            self.pct_us(0.999),
            self.tail_us(0.99),
        );
    }

    pub fn mean_ns(&self) -> f64 {
        ratio(self.0.iter().sum::<u64>() as f64, self.0.len() as f64)
    }

    /// Mean over these samples and `other` together.
    pub fn mean_with_ns(&self, other: &Samples) -> f64 {
        let sum: u64 = self.0.iter().chain(&other.0).sum();
        ratio(sum as f64, (self.len() + other.len()) as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sleeps until `deadline` (returns at once when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Shrinks the calling thread's timer slack from the default 50 µs to
/// 1 µs, so an open loop's timed waits return close to the due time.
pub fn precise_timers() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (the slack in ns)
    // and touches no memory of the caller.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

// ---------------------------------------------------------------------------
// CPU accounting by thread.
// ---------------------------------------------------------------------------

/// Thread groups by `comm` prefix (the kernel keeps 15 bytes of a thread
/// name). Order matters: the accept thread also matches `reactdb-net-`.
const GROUPS: [(&str, &str); 6] = [
    ("reactdb-net-acc", "accept"),
    ("reactdb-net-", "net"),
    ("reactdb-exec-", "exec"),
    ("reactdb-wal-syn", "wal_sync"),
    ("reactdb-checkpo", "checkpoint"),
    ("reactdb-wire-re", "wire_reader"),
];

/// Clock ticks per second of `/proc/*/stat` times (`CLK_TCK`, 100 on Linux).
const TICK_NS: f64 = 1e7;

struct ThreadCpu {
    group: &'static str,
    run_ns: u64,
    user_ticks: u64,
    sys_ticks: u64,
}

/// CPU counters of every live thread plus the process total.
pub struct CpuSample {
    at: Instant,
    process_ticks: u64,
    /// Ticks the hypervisor ran other guests on this machine's CPUs
    /// (`steal` of `/proc/stat`).
    steal_ticks: u64,
    threads: BTreeMap<u32, ThreadCpu>,
}

/// `(utime, stime)` ticks from a `stat` line (fields 14 and 15; the
/// command name may itself hold spaces, so count from its closing paren).
fn stat_ticks(stat: &str) -> (u64, u64) {
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse().ok()).unwrap_or(0);
    (tick(11), tick(12))
}

pub fn cpu_sample() -> CpuSample {
    let pid = std::process::id();
    let (pu, ps) = stat_ticks(&std::fs::read_to_string("/proc/self/stat").unwrap_or_default());
    let mut threads = BTreeMap::new();
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            let path = entry.path();
            let read = |f: &str| std::fs::read_to_string(path.join(f)).unwrap_or_default();
            let comm = read("comm");
            let comm = comm.trim_end();
            let group = if tid == pid {
                "driver"
            } else {
                GROUPS
                    .iter()
                    .find(|(prefix, _)| comm.starts_with(prefix))
                    .map_or("other", |(_, g)| g)
            };
            let run_ns = read("schedstat")
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            let (user_ticks, sys_ticks) = stat_ticks(&read("stat"));
            threads.insert(
                tid,
                ThreadCpu {
                    group,
                    run_ns,
                    user_ticks,
                    sys_ticks,
                },
            );
        }
    }
    let steal_ticks = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0);
    CpuSample {
        at: Instant::now(),
        process_ticks: pu + ps,
        steal_ticks,
        threads,
    }
}

/// CPU a group of threads used over an interval.
#[derive(Debug, Default, Clone, Copy)]
pub struct GroupCpu {
    pub ns: f64,
    pub user_ns: f64,
    pub sys_ns: f64,
}

/// CPU use between two samples, grouped by thread role.
#[derive(Default)]
pub struct CpuDelta {
    pub wall_s: f64,
    pub groups: BTreeMap<&'static str, GroupCpu>,
    /// Process CPU no live thread accounts for: threads that exited
    /// during the interval.
    pub unattributed_ns: f64,
    pub process_ns: f64,
    /// CPU time the hypervisor stole from this machine.
    pub steal_ns: f64,
}

impl CpuDelta {
    pub fn between(a: &CpuSample, b: &CpuSample) -> Self {
        let mut groups: BTreeMap<&'static str, GroupCpu> = BTreeMap::new();
        let mut thread_ticks = 0u64;
        for (tid, t) in &b.threads {
            let (run0, u0, s0) = a
                .threads
                .get(tid)
                .map_or((0, 0, 0), |t0| (t0.run_ns, t0.user_ticks, t0.sys_ticks));
            let ns = t.run_ns.saturating_sub(run0) as f64;
            let (du, ds) = (
                t.user_ticks.saturating_sub(u0),
                t.sys_ticks.saturating_sub(s0),
            );
            thread_ticks += du + ds;
            // Split the precise run time by the tick-sampled user share.
            let user_share = ratio(du as f64, (du + ds) as f64);
            let g = groups.entry(t.group).or_default();
            g.ns += ns;
            g.user_ns += ns * user_share;
            g.sys_ns += ns * (1.0 - user_share);
        }
        let process_ticks = b.process_ticks.saturating_sub(a.process_ticks);
        Self {
            wall_s: (b.at - a.at).as_secs_f64(),
            groups,
            unattributed_ns: process_ticks.saturating_sub(thread_ticks) as f64 * TICK_NS,
            process_ns: process_ticks as f64 * TICK_NS,
            steal_ns: b.steal_ticks.saturating_sub(a.steal_ticks) as f64 * TICK_NS,
        }
    }

    pub fn add(&mut self, o: &CpuDelta) {
        self.wall_s += o.wall_s;
        for (g, c) in &o.groups {
            let mine = self.groups.entry(g).or_default();
            mine.ns += c.ns;
            mine.user_ns += c.user_ns;
            mine.sys_ns += c.sys_ns;
        }
        self.unattributed_ns += o.unattributed_ns;
        self.process_ns += o.process_ns;
        self.steal_ns += o.steal_ns;
    }

    pub fn group(&self, name: &str) -> GroupCpu {
        self.groups.get(name).copied().unwrap_or_default()
    }

    /// CPU of every thread but the driver's, exited threads included.
    pub fn program_ns(&self) -> f64 {
        self.groups
            .iter()
            .filter(|(g, _)| **g != "driver")
            .map(|(_, c)| c.ns)
            .sum::<f64>()
            + self.unattributed_ns
    }

    /// Logs the per-group split to stderr.
    pub fn log(&self, phase: &str, committed: u64) {
        let per_txn = |ns: f64| ratio(ns / 1e3, committed as f64);
        let mut line = format!("  cpu[{phase}] us/txn:");
        for (g, c) in &self.groups {
            line.push_str(&format!(" {g}={:.2}", per_txn(c.ns)));
        }
        line.push_str(&format!(
            " unattributed={:.2} | threads+unattributed={:.3}s process={:.3}s",
            per_txn(self.unattributed_ns),
            (self.groups.values().map(|c| c.ns).sum::<f64>() + self.unattributed_ns) / 1e9,
            self.process_ns / 1e9
        ));
        eprintln!("{line}");
    }
}

/// Hands freed heap back to the OS. Called once an engine instance is torn
/// down, so the next one's peak starts from the same resident set instead
/// of from whatever the allocator kept of the last one.
fn release_free_heap() {
    // SAFETY: malloc_trim only releases free heap pages; it takes a plain
    // size and touches no memory of the caller.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size (`VmRSS`) in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A size field of `/proc/self/status` in MiB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Metric snapshots.
// ---------------------------------------------------------------------------

/// The subset of `ReactDB::metrics()` the benchmark reads, built from the
/// same `DbStats` counters and phase histograms. The full snapshot also
/// renders two counters per logged table, and `MetricsSnapshot::delta`
/// compares counters pairwise, so at this benchmark's table counts one
/// full snapshot delta takes seconds.
pub fn snapshot(db: &ReactDB) -> MetricsSnapshot {
    let s = db.stats();
    let mut counters: Vec<Counter> = [
        ("txn_committed", s.committed()),
        ("sub_txns_dispatched", s.sub_txns_dispatched()),
        ("sub_txns_inlined", s.sub_txns_inlined()),
        ("recovered_txns", s.recovered_txns()),
        ("recovered_checkpoint_rows", s.recovered_checkpoint_rows()),
        ("log_bytes", s.log_bytes()),
        ("log_syncs", s.log_syncs()),
        ("checkpoints_taken", s.checkpoints_taken()),
        ("checkpoint_bytes", s.checkpoint_bytes()),
        ("log_truncated_bytes", s.log_truncated_bytes()),
    ]
    .into_iter()
    .map(|(name, value)| Counter {
        name: name.to_string(),
        value,
    })
    .collect();
    for (reason, value) in s.aborts_by_reason() {
        counters.push(Counter {
            name: format!("txn_aborts{{reason=\"{}\"}}", reason.name()),
            value,
        });
    }
    let m = db.metrics_registry();
    MetricsSnapshot {
        uptime_us: m.uptime_ns() / 1_000,
        counters,
        gauges: Vec::new(),
        histograms: Phase::ALL
            .iter()
            .map(|&p| HistogramSummary::of(format!("phase_{}_ns", p.name()), &m.phase_histogram(p)))
            .collect(),
    }
}

/// Adds a delta's counters and histogram counts and sums into `acc`.
fn merge(acc: &mut MetricsSnapshot, d: &MetricsSnapshot) {
    for c in &d.counters {
        match acc.counters.iter_mut().find(|a| a.name == c.name) {
            Some(a) => a.value += c.value,
            None => acc.counters.push(c.clone()),
        }
    }
    for h in &d.histograms {
        match acc.histograms.iter_mut().find(|a| a.name == h.name) {
            Some(a) => {
                a.count += h.count;
                a.sum_ns += h.sum_ns;
            }
            None => acc.histograms.push(h.clone()),
        }
    }
    acc.uptime_us += d.uptime_us;
}

/// What one round of a load loop observed.
#[derive(Default)]
pub struct Round {
    pub out: Outcomes,
    /// Driver-observed latencies (untraced requests).
    pub lat: Samples,
    /// How late an open loop sent each request.
    pub late: Samples,
    /// Traced idle requests: whole latency and the spans around the
    /// submit and the wait calls.
    pub lat_spanned: Samples,
    pub submit_span: Samples,
    pub wait_span: Samples,
}

/// One phase (idle, open or closed) accumulated over the run's rounds.
pub struct PhaseAcc {
    pub name: &'static str,
    pub round: Round,
    /// Summed engine (and server) metric deltas.
    pub delta: MetricsSnapshot,
    pub cpu: CpuDelta,
    /// Executor worker busy time, and worker count times wall time.
    pub busy_ns: u64,
    pub worker_ns: f64,
    /// Per round: committed transactions per second, program CPU per
    /// committed transaction (µs), CPU time the host stole (ns), and the
    /// untraced latencies.
    pub tps: Vec<f64>,
    pub cpu_per_txn: Vec<f64>,
    pub steal_ns: Vec<f64>,
    pub round_lat: Vec<Samples>,
}

impl PhaseAcc {
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            round: Round::default(),
            delta: MetricsSnapshot {
                uptime_us: 0,
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
            },
            cpu: CpuDelta::default(),
            busy_ns: 0,
            worker_ns: 0.0,
            tps: Vec::new(),
            cpu_per_txn: Vec::new(),
            steal_ns: Vec::new(),
            round_lat: Vec::new(),
        }
    }

    /// The rounds the phase's end-to-end figures come from: the half (the
    /// larger half of an odd count) in which the host stole the least CPU
    /// time, the earlier round first among equals. Steal is time the
    /// hypervisor ran other guests on this machine's CPUs; on a shared
    /// host it comes in bursts that stall every thread of the program at
    /// once, and rounds that overlap one read slower by a margin that has
    /// nothing to do with the program. Which rounds are kept depends only
    /// on the steal, never on the figures themselves.
    pub fn quiet_rounds(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.steal_ns.len()).collect();
        order.sort_by(|&a, &b| self.steal_ns[a].total_cmp(&self.steal_ns[b]));
        order.truncate(self.steal_ns.len().div_ceil(2));
        order.sort_unstable();
        eprintln!(
            "  quiet rounds[{}]: {order:?} of {} (steal ms {:.0?})",
            self.name,
            self.steal_ns.len(),
            self.steal_ns.iter().map(|ns| ns / 1e6).collect::<Vec<_>>()
        );
        order
    }

    /// The median of a per-round figure over the quiet rounds.
    pub fn quiet_median(&self, per_round: &[f64]) -> f64 {
        let kept: Vec<f64> = self.quiet_rounds().iter().map(|&i| per_round[i]).collect();
        median(&kept)
    }

    /// The `p`-quantile of the latencies of the quiet rounds, pooled.
    pub fn quiet_pct_us(&self, p: f64) -> f64 {
        let mut kept = Samples::default();
        for i in self.quiet_rounds() {
            kept.extend(self.round_lat[i].clone());
        }
        kept.pct_us(p)
    }

    /// Adds the metric delta and CPU since `m0` and `cpu0`; returns that
    /// interval's CPU.
    pub fn add_since(&mut self, db: &ReactDB, m0: &MetricsSnapshot, cpu0: &CpuSample) -> CpuDelta {
        let cpu = CpuDelta::between(cpu0, &cpu_sample());
        merge(&mut self.delta, &snapshot(db).delta(m0));
        self.cpu.add(&cpu);
        cpu
    }

    /// Runs one round of the phase, adding what it observed plus its
    /// metric delta, CPU and executor busy time.
    pub fn measure(&mut self, db: &ReactDB, body: impl FnOnce() -> Round) {
        let (m0, busy0, cpu0) = (snapshot(db), executor_busy_ns(db), cpu_sample());
        let r = body();
        self.busy_ns += executor_busy_ns(db) - busy0;
        let cpu = self.add_since(db, &m0, &cpu0);
        let workers = db.config().default_mpl * db.executor_count();
        self.worker_ns += cpu.wall_s * 1e9 * workers as f64;
        let committed = r.out.committed as f64;
        eprintln!(
            "    round[{}] {:.2}s tps={:.0} cpu/txn={:.1}us p50={:.1}us p99={:.1}us steal={:.0}ms",
            self.name,
            cpu.wall_s,
            committed / cpu.wall_s,
            ratio(cpu.program_ns() / 1e3, committed),
            r.lat.pct_us(0.5),
            r.lat.pct_us(0.99),
            cpu.steal_ns / 1e6
        );
        self.tps.push(committed / cpu.wall_s);
        self.cpu_per_txn
            .push(ratio(cpu.program_ns() / 1e3, committed));
        self.steal_ns.push(cpu.steal_ns);
        self.round_lat.push(r.lat.clone());
        let round = &mut self.round;
        round.out.add(&r.out);
        round.lat.extend(r.lat);
        round.late.extend(r.late);
        round.lat_spanned.extend(r.lat_spanned);
        round.submit_span.extend(r.submit_span);
        round.wait_span.extend(r.wait_span);
    }
}

pub fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

/// `(count, sum_ns)` of a phase histogram (`phase_<name>_ns`).
pub fn phase(s: &MetricsSnapshot, name: &str) -> (f64, f64) {
    s.histogram(&format!("phase_{name}_ns"))
        .map_or((0.0, 0.0), |h| (h.count as f64, h.sum_ns as f64))
}

/// Mean duration of a phase in ns over a delta snapshot.
pub fn phase_mean(s: &MetricsSnapshot, name: &str) -> f64 {
    let (count, sum) = phase(s, name);
    ratio(sum, count)
}

/// Median of a phase since boot, in ns (histogram bucket bound).
pub fn phase_p50(s: &MetricsSnapshot, name: &str) -> f64 {
    s.histogram(&format!("phase_{name}_ns"))
        .map_or(0.0, |h| h.p50_ns as f64)
}

/// Committed root transactions and aborts by reason over a delta.
pub fn engine_aborts(s: &MetricsSnapshot) -> Vec<(&'static str, f64)> {
    AbortReason::ALL
        .iter()
        .map(|r| {
            (
                r.name(),
                counter(s, &format!("txn_aborts{{reason=\"{}\"}}", r.name())),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Idle latency budget.
// ---------------------------------------------------------------------------

/// Splits the mean driver-observed latency of an idle phase into the
/// measured layers' mean shares plus the unattributed residual; logs it and
/// returns the residual in ns. The phase means cover every idle request,
/// so `observed_ns` must too (spanned and untraced halves alike).
pub fn idle_budget(observed_ns: f64, parts: &[(&str, f64)]) -> f64 {
    let attributed: f64 = parts.iter().map(|(_, ns)| ns).sum();
    let residual = observed_ns - attributed;
    let mut line = format!("  idle budget (mean ns): observed={observed_ns:.0} =");
    for (name, ns) in parts {
        line.push_str(&format!(" {name}={ns:.0} +"));
    }
    line.push_str(&format!(" unattributed={residual:.0}"));
    eprintln!("{line}");
    residual
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

/// What a run prints as its last line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }

    /// Sets a metric (end-to-end or per-layer; the run mode picks which
    /// are printed).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// `peak_rss_mb` once the first instance's measured rounds are over:
    /// the peak of boot, load and load-driving. Later peaks are left out:
    /// a checkpoint and a recovery read log segments whose size follows
    /// the measured throughput, and later instances start on whatever heap
    /// the allocator kept of the earlier ones, which varies from run to
    /// run.
    pub fn note_peak_rss(&mut self) {
        let peak = peak_rss_mb();
        eprintln!(
            "  after the measured rounds: RSS {:.1} MiB, peak {peak:.1} MiB",
            rss_mb()
        );
        self.metrics.entry("peak_rss_mb").or_insert(peak);
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: &str) {
        eprintln!("  check {}: {what}", if ok { "ok" } else { "FAILED" });
        self.correct &= ok;
    }

    /// Adds a measured phase's outcomes to the run totals and logs them.
    pub fn count(&mut self, phase: &str, o: &Outcomes) {
        self.attempted += o.attempted;
        self.failed += o.failed();
        let mut line = format!(
            "  outcomes[{phase}]: attempted={} committed={}",
            o.attempted, o.committed
        );
        for (reason, n) in AbortReason::ALL.iter().zip(o.aborts) {
            if n > 0 {
                line.push_str(&format!(" abort.{}={n}", reason.name()));
            }
        }
        line.push_str(&format!(
            " transport={} timeouts={} | resent after a cc abort={}",
            o.transport, o.timeouts, o.retries
        ));
        eprintln!("{line}");
    }

    /// The report as one JSON object holding exactly the `wanted` metrics.
    /// A metric the workload did not set reports 0 (a layer it does not
    /// cross); a non-finite one is a benchmark bug and fails the run.
    pub fn finish(&mut self, wanted: &[(&str, &str)]) -> String {
        let mut fields = Vec::new();
        for (name, unit) in wanted {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                self.check(false, &format!("{name} is finite"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            eprintln!("  {name:<36} {value:>16.4} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

// ---------------------------------------------------------------------------
// Reporting shared by the workloads.
// ---------------------------------------------------------------------------

/// Runs the workload on `SETUPS` engine instances in turn, each set up
/// from scratch in its own log directory, so that what one instance
/// happens to be (its hash seeds, its memory layout) is one third of the
/// run, not all of it. `run` measures the instance's share of the rounds,
/// checks it, and crashes and recovers it, returning the recovery times.
/// Then `SETUP_ONLY` more instances are only set up and torn down.
/// Reports `setup_s`, `recover_s` and the storage layer's rates.
pub fn on_instances<S>(
    opts: &Opts,
    rep: &mut Report,
    rows: f64,
    setup: impl Fn(&std::path::Path) -> (S, [f64; 3]),
    mut run: impl FnMut(S, &mut Report) -> Vec<f64>,
) {
    let (mut setups, mut recoveries) = (Vec::new(), Vec::new());
    for i in 0..SETUPS {
        let dir = opts.run_dir.join(format!("instance-{i}"));
        let rss0 = rss_mb();
        let (system, t) = setup(&dir);
        eprintln!(
            "  instance {i}: boot {:.3}s load {:.3}s setup {:.3}s, RSS {rss0:.1} -> {:.1} MiB",
            t[0],
            t[1],
            t[2],
            rss_mb()
        );
        setups.push(t);
        recoveries.extend(run(system, rep));
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!(
            "  instance {i}: done, peak RSS so far {:.1} MiB",
            peak_rss_mb()
        );
        release_free_heap();
    }
    for i in SETUPS..SETUPS + SETUP_ONLY {
        let dir = opts.run_dir.join(format!("instance-{i}"));
        let (system, t) = setup(&dir);
        eprintln!(
            "  set-up {i}: boot {:.3}s load {:.3}s setup {:.3}s",
            t[0], t[1], t[2]
        );
        setups.push(t);
        drop(system);
        let _ = std::fs::remove_dir_all(&dir);
        release_free_heap();
    }
    eprintln!("  recoveries (s): {recoveries:.3?}");
    if !recoveries.is_empty() {
        rep.set("recover_s", median(&recoveries));
    }
    report_setup(rep, &setups, rows);
}

/// `setup_s` and the storage layer's boot and load rates.
pub fn report_setup(rep: &mut Report, times: &[[f64; 3]], rows: f64) {
    let col = |k: usize| times.iter().map(|t| t[k]).collect::<Vec<_>>();
    rep.set("setup_s", median(&col(2)));
    rep.set("storage.boot_s", median(&col(0)));
    let rates: Vec<f64> = col(1).iter().map(|s| rows / s).collect();
    rep.set("storage.load_rows_per_s", median(&rates));
}

/// Idle-phase latency: the median over its quiet rounds, and the chunked
/// p99 of all rounds for the traced run.
pub fn report_idle(rep: &mut Report, idle: &PhaseAcc) {
    idle.round.lat.log_tail(idle.name);
    rep.set("idle_p50_us", idle.quiet_pct_us(0.50));
    rep.set("driver.idle_p99_us", idle.round.lat.tail_us(0.99));
}

/// Spans of an in-process idle phase and the engine phases inside them.
pub fn report_idle_inproc(rep: &mut Report, idle: &PhaseAcc) {
    let (d, idle) = (&idle.delta, &idle.round);
    let layers = [
        ("engine.execute_ns", "execute"),
        ("txn.lock_ns", "lock"),
        ("txn.fence_ns", "fence"),
        ("txn.validate_ns", "validate"),
        ("txn.write_ns", "write"),
        ("wal.log_ns", "log"),
    ];
    let mut parts = vec![("engine.submit", idle.submit_span.mean_ns())];
    for (name, key) in layers {
        parts.push((name.trim_end_matches("_ns"), phase_mean(d, key)));
        rep.set(name, phase_mean(d, key));
    }
    parts.push(("wal.durable_ack", phase_mean(d, "durable_ack")));
    rep.set(
        "engine.unattributed_ns",
        idle_budget(idle.lat.mean_with_ns(&idle.lat_spanned), &parts),
    );
    rep.set("engine.submit_ns", idle.submit_span.mean_ns());
    rep.set("engine.session_wait_ns", idle.wait_span.mean_ns());
    rep.set(
        "driver.trace_overhead_pct",
        100.0 * (idle.lat_spanned.pct_us(0.5) / idle.lat.pct_us(0.5) - 1.0),
    );
}

/// An open-loop generator that sent half its requests or more later than
/// this could not keep up with its schedule, and the run is void. Late
/// sends during a stall of the host are not that: they catch up, and the
/// lateness is part of each request's latency, timed from its due time.
const LATE_P50_LIMIT_US: f64 = 1_000.0;

/// Open-loop latency (the median over its quiet rounds, the chunked p99 of
/// all rounds) and generator lateness; a generator that fell behind voids
/// the run.
pub fn report_open(rep: &mut Report, open: &PhaseAcc, rate: f64) {
    let (lat, late) = (&open.round.lat, &open.round.late);
    let (late_p50, late_p99) = (late.pct_us(0.5), late.pct_us(0.99));
    eprintln!(
        "  open: {rate}/s, generator late p50={late_p50:.1}us p90={:.1}us p99={late_p99:.1}us",
        late.pct_us(0.9)
    );
    rep.check(
        late_p50 <= LATE_P50_LIMIT_US,
        &format!("open-loop generator kept up (late p50 {late_p50:.0}us <= {LATE_P50_LIMIT_US}us)"),
    );
    lat.log_tail("open");
    rep.set("p50_us", open.quiet_pct_us(0.50));
    rep.set("driver.open_p99_us", lat.tail_us(0.99));
    rep.set("driver.late_p99_us", late_p99);
}

/// Summed busy time of every executor's workers since boot, in ns.
pub fn executor_busy_ns(db: &ReactDB) -> u64 {
    let m = db.metrics_registry();
    (0..db.executor_count()).map(|i| m.busy_ns(i)).sum()
}

/// Throughput, CPU by thread role, executor utilization and fan-out over
/// the loaded phase; the end-to-end figures are medians over its quiet
/// rounds.
pub fn report_loaded(rep: &mut Report, loaded: &PhaseAcc) {
    let (cpu, d) = (&loaded.cpu, &loaded.delta);
    let committed = loaded.round.out.committed;
    cpu.log(loaded.name, committed);
    eprintln!(
        "  rounds[{}]: tps {:.0?} cpu_us_per_txn {:.2?}",
        loaded.name, loaded.tps, loaded.cpu_per_txn
    );
    let quiet = loaded.quiet_rounds();
    let of_quiet =
        |per_round: &[f64]| median(&quiet.iter().map(|&i| per_round[i]).collect::<Vec<_>>());
    rep.set("tps", of_quiet(&loaded.tps));
    rep.set("cpu_us_per_txn", of_quiet(&loaded.cpu_per_txn));
    let committed = committed as f64;
    let per_txn = |ns: f64| ratio(ns / 1e3, committed);
    rep.set(
        "client.reader_cpu_us_per_txn",
        per_txn(cpu.group("wire_reader").ns),
    );
    let net = cpu.group("net");
    rep.set("server.net_cpu_user_us_per_txn", per_txn(net.user_ns));
    rep.set("server.net_cpu_sys_us_per_txn", per_txn(net.sys_ns));
    rep.set("engine.exec_cpu_us_per_txn", per_txn(cpu.group("exec").ns));
    rep.set("driver.cpu_us_per_txn", per_txn(cpu.group("driver").ns));
    rep.set("cpu.other_us_per_txn", per_txn(cpu.group("other").ns));
    rep.set(
        "cpu.unattributed_pct",
        100.0 * ratio(cpu.unattributed_ns, cpu.process_ns),
    );
    rep.set(
        "engine.executor_utilization",
        ratio(loaded.busy_ns as f64, loaded.worker_ns),
    );
    rep.set(
        "engine.sub_txns_dispatched_per_txn",
        ratio(counter(d, "sub_txns_dispatched"), committed),
    );
    rep.set(
        "engine.sub_txns_inlined_per_txn",
        ratio(counter(d, "sub_txns_inlined"), committed),
    );
    for (name, key) in [
        ("server.net_decode_busy_ms", "net_decode"),
        ("server.net_dispatch_busy_ms", "net_dispatch"),
        ("server.net_reply_busy_ms", "net_reply"),
    ] {
        rep.set(name, phase(d, key).1 / 1e6);
    }
}

/// WAL metrics over a measured run: `wal_bytes_per_txn` and the `wal.*`
/// layer counters.
pub fn report_wal(rep: &mut Report, whole: &PhaseAcc, phases: &[&PhaseAcc]) {
    let (d, cpu) = (&whole.delta, &whole.cpu);
    let committed = phases.iter().map(|p| p.round.out.committed).sum::<u64>() as f64;
    let log_bytes = counter(d, "log_bytes");
    let ckpt_bytes = counter(d, "checkpoint_bytes");
    rep.set(
        "wal_bytes_per_txn",
        ratio(log_bytes + ckpt_bytes, committed),
    );
    rep.set("wal.log_bytes_per_txn", ratio(log_bytes, committed));
    rep.set(
        "wal.txns_per_sync",
        ratio(committed, counter(d, "log_syncs")),
    );
    rep.set("wal.sync_wait_ns", phase_mean(d, "wal_sync_wait"));
    rep.set("wal.fsync_ns", phase_mean(d, "wal_fsync"));
    rep.set("wal.durable_ack_ns", phase_mean(d, "durable_ack"));
    rep.set(
        "wal.sync_cpu_us_per_txn",
        ratio(cpu.group("wal_sync").ns / 1e3, committed),
    );
    rep.set("wal.ckpt_count", counter(d, "checkpoints_taken"));
    rep.set("wal.ckpt_bytes", ckpt_bytes);
    rep.set("wal.ckpt_part_write_ns", phase_mean(d, "ckpt_part_write"));
    rep.set(
        "wal.ckpt_cpu_us_per_s",
        cpu.group("checkpoint").ns / 1e3 / cpu.wall_s,
    );
    rep.set("wal.truncated_bytes", counter(d, "log_truncated_bytes"));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    rep.set(
        "driver.host_steal_pct",
        100.0 * ratio(cpu.steal_ns, cpu.wall_s * 1e9 * cores),
    );
}

/// Every phase's outcomes, counted into the run totals; the engine commit
/// ratio and aborts by reason; the driver's transport errors and timeouts.
pub fn report_aborts(rep: &mut Report, d: &MetricsSnapshot, phases: &[&PhaseAcc]) {
    for p in phases {
        rep.count(p.name, &p.round.out);
    }
    let committed = counter(d, "txn_committed");
    let mut aborts = 0.0;
    for (reason, n) in engine_aborts(d) {
        aborts += n;
        let name: &'static str = match reason {
            "occ_read" => "txn.aborts.occ_read",
            "phantom" => "txn.aborts.phantom",
            "lock_busy" => "txn.aborts.lock_busy",
            "dangerous_structure" => "txn.aborts.dangerous_structure",
            "wal_failure" => "txn.aborts.wal_failure",
            "user_abort" => "txn.aborts.user_abort",
            _ => "txn.aborts.other",
        };
        rep.set(name, n);
    }
    rep.set("txn.commit_ratio", ratio(committed, committed + aborts));
    let sum = |f: fn(&Outcomes) -> u64| phases.iter().map(|p| f(&p.round.out)).sum::<u64>() as f64;
    rep.set("driver.transport_errors", sum(|o| o.transport));
    rep.set("driver.timeouts", sum(|o| o.timeouts));
}

/// Requests a workload runs between the checkpoint that follows its
/// measured rounds and the crash.
pub const TAIL: u64 = 20_000;

/// Checkpoints `db` once its measured rounds are over, runs `TAIL` more
/// requests through `run` and makes them durable. Recovery then restores
/// that checkpoint and replays exactly those requests, so `recover_s` and
/// the memory recovery takes do not grow with how many transactions the
/// measured rounds committed (a faster engine would otherwise read worse).
pub fn checkpoint_and_tail(db: &ReactDB, rep: &mut Report, run: impl FnOnce(u64) -> Outcomes) {
    // A group commit first advances the epoch past every commit so far, so
    // the checkpoint covers the whole log and truncation deletes it.
    if let Err(e) = db.wal_sync() {
        rep.check(false, &format!("group commit before the checkpoint ({e})"));
    }
    match db.checkpoint_now() {
        Ok(c) => eprintln!(
            "  checkpoint: {} rows, {} bytes, {} log bytes truncated",
            c.rows, c.bytes, c.truncated_bytes
        ),
        Err(e) => rep.check(false, &format!("checkpoint before the crash ({e})")),
    }
    let out = run(TAIL);
    rep.count("tail", &out);
    if let Err(e) = db.wal_sync() {
        rep.check(false, &format!("group commit before the crash ({e})"));
    }
}

/// Crashes `db`, recovers it and checks the recovered instance with
/// `check`, `times` times over (each round crashes the instance the last
/// one recovered, which replays the same log); returns the recovery wall
/// times. Also reports what recovery replayed (the last instance's
/// figures stand).
pub fn crash_and_recover(
    rep: &mut Report,
    mut db: ReactDB,
    spec: ReactorDatabaseSpec,
    times: usize,
    check: impl Fn(&ReactDB, &mut Report),
) -> Vec<f64> {
    let mut recover_s = Vec::new();
    for _ in 0..times {
        let config = db.config().clone();
        let before = rss_mb();
        db.simulate_crash();
        release_free_heap();
        let after = rss_mb();
        let t = Instant::now();
        db = match ReactDB::recover(spec.clone(), config) {
            Ok(recovered) => recovered,
            Err(e) => {
                rep.check(false, &format!("recovery succeeded ({e})"));
                break;
            }
        };
        let s = t.elapsed().as_secs_f64();
        eprintln!(
            "  crash: RSS {before:.1} -> {after:.1} MiB; recovered in {s:.3}s: RSS {:.1} MiB, peak {:.1} MiB",
            rss_mb(),
            peak_rss_mb()
        );
        recover_s.push(s);
        let m = snapshot(&db);
        rep.set("wal.replay_ns", phase(&m, "recovery_replay").1);
        rep.set("wal.recovered_txns", counter(&m, "recovered_txns"));
        rep.set(
            "wal.recovered_ckpt_rows",
            counter(&m, "recovered_checkpoint_rows"),
        );
        check(&db, rep);
    }
    recover_s
}
