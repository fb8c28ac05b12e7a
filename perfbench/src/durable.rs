//! `durable-ycsb`: single-key 100 B updates through the in-process
//! `Client`, every one acked `Durable`, Zipfian keys over a table larger
//! than the CPU caches, periodic checkpoints, then a crash and recovery.
//!
//! Group commit, the log codec, the checkpointer and replay do the work;
//! the wire is absent. Phases: idle (one durable update outstanding), open
//! loop at a fixed rate, closed loop with a fixed window, then
//! `simulate_crash` and `ReactDB::recover`. Every value written is unique
//! and names its sequence number and key, so recovery can be checked: each
//! key must hold its last durable-acked value or a later one.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use reactdb_common::zipf::Zipfian;
use reactdb_common::{
    AckLevel, CheckpointConfig, DeploymentConfig, DurabilityConfig, Key, Result, Value,
};
use reactdb_engine::{Client, ReactDB, TxnHandle};
use reactdb_workloads::ycsb::{self, key_name, RECORD_SIZE};

use crate::harness::*;
use crate::inproc;

/// Key reactors, one 100 B row each.
const KEYS: usize = 100_000;
/// Zipfian skew of the key choice (YCSB's default).
const THETA: f64 = 0.99;
/// Open-loop rate of durable updates.
const OPEN_RATE: f64 = 4_000.0;
/// Closed-loop window of durable updates.
const WINDOW: usize = 64;
/// How often the open loop checks its requests in flight.
const POLL: Duration = Duration::from_micros(200);
/// Background checkpoint period in epochs (10 ms each); after the full
/// checkpoint taken at setup, each one captures only the rows dirtied
/// since the previous one.
const CKPT_EPOCHS: u64 = 50;
/// Share of `--seconds` given to the idle, open and closed phases.
const SPLIT: [f64; 3] = [0.3, 0.45, 0.25];

fn config(dir: &std::path::Path) -> DeploymentConfig {
    DeploymentConfig::shared_nothing(2)
        .with_durability(DurabilityConfig::epoch_sync(dir.to_string_lossy()))
        .with_checkpoint(CheckpointConfig::every_epochs(CKPT_EPOCHS).with_full_every(u64::MAX))
}

/// Boots, loads and checkpoints the load; returns `(boot_s, load_s,
/// total_s)`.
fn setup(dir: &std::path::Path) -> (ReactDB, [f64; 3]) {
    let t0 = Instant::now();
    let db = ReactDB::boot(ycsb::spec(KEYS), config(dir));
    let t1 = Instant::now();
    ycsb::load(&db, KEYS).expect("load ycsb");
    let t2 = Instant::now();
    db.checkpoint_now().expect("checkpoint the load");
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    (db, [s(t0, t1), s(t1, t2), s(t0, Instant::now())])
}

/// The unique 100 B value of update `seq` on `key`.
fn value(seq: u64, key: usize) -> String {
    let mut v = format!("{seq:012}:{key:09}:");
    v.extend(std::iter::repeat_n('.', RECORD_SIZE - v.len()));
    v
}

/// `(seq, key)` of a value written by [`value`]; `None` for a loaded row.
fn parse(v: &str) -> Option<(u64, usize)> {
    let mut parts = v.split(':');
    Some((parts.next()?.parse().ok()?, parts.next()?.parse().ok()?))
}

struct Updates {
    client: Client,
    rng: StdRng,
    zipf: Zipfian,
    seq: u64,
    /// Commit epoch of every committed update, by sequence number.
    committed: HashMap<u64, u64>,
    /// Per key, the durable-acked update with the highest commit epoch:
    /// `(epoch, seq)`.
    acked: HashMap<usize, (u64, u64)>,
}

impl inproc::Load for Updates {
    /// Key and sequence number.
    type Tag = (usize, u64);

    fn next(&mut self) -> (usize, u64) {
        self.seq += 1;
        (self.zipf.sample(&mut self.rng) as usize, self.seq)
    }

    fn send(&mut self, &(key, seq): &(usize, u64)) -> Result<TxnHandle> {
        self.client.submit_with(
            &key_name(key),
            "update",
            vec![Value::Str(value(seq, key))],
            AckLevel::Durable,
        )
    }

    fn done(&mut self, (key, seq): (usize, u64), result: &Result<Value>, epoch: Option<u64>) {
        if let (Ok(_), Some(epoch)) = (result, epoch) {
            self.committed.insert(seq, epoch);
            let acked = self.acked.entry(key).or_default();
            *acked = (*acked).max((epoch, seq));
        }
    }
}

/// Keys whose recovered value is older than their last durable ack,
/// described. A recovered value passes when it is the acked one or a
/// committed update of the key from the same or a later epoch (the order
/// of two commits within one epoch is not visible to the client);
/// anything else, a value never committed included, fails.
fn lost_acks(
    db: &ReactDB,
    acked: &HashMap<usize, (u64, u64)>,
    committed: &HashMap<u64, u64>,
) -> Vec<String> {
    let mut lost = Vec::new();
    for (&key, &(epoch, seq)) in acked {
        let found = db
            .table(&key_name(key), "usertable")
            .ok()
            .and_then(|t| t.get(&Key::Int(0)))
            .and_then(|r| parse(r.read_stable().1.at(1).as_str()));
        let holds = matches!(found, Some((s, k)) if k == key
            && (s == seq || committed.get(&s).is_some_and(|&e| e >= epoch)));
        if !holds {
            lost.push(format!(
                "key {key}: acked update {seq} of epoch {epoch}, recovered (update, key) {found:?}"
            ));
        }
    }
    lost
}

pub fn run(opts: &Opts, rep: &mut Report) {
    precise_timers();
    let zipf = Zipfian::new(KEYS as u64, THETA);
    let (mut rng, mut seq) = (StdRng::seed_from_u64(opts.seed), 0);
    let round_s = |k: usize| {
        Duration::from_secs_f64(opts.seconds * SPLIT[k] / (SETUPS * ROUNDS_PER_INSTANCE) as f64)
    };
    let mut idle = PhaseAcc::new("idle");
    let mut open = PhaseAcc::new("open");
    let mut closed = PhaseAcc::new("closed");
    let mut whole = PhaseAcc::new("run");
    on_instances(opts, rep, KEYS as f64, setup, |db, rep| {
        let mut u = Updates {
            client: db.client(),
            rng: rng.clone(),
            zipf: zipf.clone(),
            seq,
            committed: HashMap::new(),
            acked: HashMap::new(),
        };
        // Open-loop requests are acked once their commit epoch is durable.
        let acked = |h: &TxnHandle| match h.try_result()? {
            Ok(_) if h.commit_epoch() > db.durable_epoch() => None,
            r => Some(r),
        };
        let (m0, cpu0) = (snapshot(&db), cpu_sample());
        for _ in 0..ROUNDS_PER_INSTANCE {
            idle.measure(&db, || {
                inproc::idle(round_s(0), opts.trace, &mut u, TxnHandle::wait_durable)
            });
            open.measure(&db, || {
                inproc::open(round_s(1), OPEN_RATE, POLL, &mut u, acked)
            });
            closed.measure(&db, || {
                let end = Instant::now() + round_s(2);
                inproc::closed(WINDOW, &mut u, |now, _| now >= end, TxnHandle::wait_durable)
            });
        }
        whole.add_since(&db, &m0, &cpu0);
        rep.note_peak_rss();
        let Updates {
            acked, committed, ..
        } = u;
        (rng, seq) = (u.rng, u.seq);

        // Every durable ack survives the crash.
        if opts.violate {
            // Roll the hottest acked key back to a value older than its ack.
            if let Some(&key) = acked.keys().min() {
                let _ = db.client().invoke_durable(
                    &key_name(key),
                    "update",
                    vec![Value::Str(value(0, key))],
                );
            }
        }
        crash_and_recover(rep, db, ycsb::spec(KEYS), 1, |db, rep| {
            let lost = lost_acks(db, &acked, &committed);
            rep.check(
                lost.is_empty(),
                &format!(
                    "all {} durable-acked keys hold their acked value or a later one \
                     ({} do not, e.g. {:?})",
                    acked.len(),
                    lost.len(),
                    lost.first()
                ),
            );
        })
    });

    report_idle(rep, &idle);
    if opts.trace {
        report_idle_inproc(rep, &idle);
    }
    report_open(rep, &open, OPEN_RATE);
    // CPU is read at the open loop's fixed rate, so the time-driven
    // checkpoints cost the same per transaction in every run; throughput
    // comes from the closed loop.
    report_loaded(rep, &open);
    rep.set("tps", closed.quiet_median(&closed.tps));
    let all = [&idle, &open, &closed];
    report_wal(rep, &whole, &all);
    report_aborts(rep, &whole.delta, &all);
}
