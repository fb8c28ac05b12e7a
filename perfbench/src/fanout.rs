//! `fanout-transfer`: `multi_transfer_opt` of size 3 through the
//! in-process `Client`, shared-nothing over 2 executors.
//!
//! No wire, so cross-reactor sub-transactions, the executor queue and the
//! OCC/2PC commit carry the work. The WAL is on in epoch-sync mode with
//! validated acks only (it appends, no client waits on it), so the run
//! can end in a crash and a recovery like the other workloads. Phases:
//! idle, open loop at a fixed rate, closed loop with a fixed window, then
//! crash and recovery. Money is only moved, never created: the total
//! balance must be the loaded one after the run and after recovery.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reactdb_common::{AckLevel, DeploymentConfig, DurabilityConfig, Key, Result, Value};
use reactdb_engine::{Client, ReactDB, TxnHandle};
use reactdb_workloads::smallbank::{self, customer_name, INITIAL_BALANCE};

use crate::harness::*;
use crate::inproc;

/// Customers (reactors), each with a savings and a checking account.
const CUSTOMERS: usize = 20_000;
/// Destinations per multi-transfer.
const FANOUT: usize = 3;
/// Open-loop rate: well under the closed-loop capacity (about 18 000/s on
/// a 2-core box).
const OPEN_RATE: f64 = 3_000.0;
/// Closed-loop window.
const WINDOW: usize = 8;
/// How often the open loop checks its requests in flight.
const POLL: Duration = Duration::from_micros(20);
/// Share of `--seconds` given to the idle, open and closed phases.
const SPLIT: [f64; 3] = [0.25, 0.35, 0.40];

/// Group-commit period of the WAL. The log only has to make the run
/// recoverable here, and a group commit holds each log writer's lock
/// through its fsync: at the default 10 ms about a tenth of the commits
/// would wait one out, and the host's fsync latency would decide this
/// workload's figures. Once a second keeps the fsyncs off most requests.
const GROUP_COMMIT_MS: u64 = 1_000;

fn config(dir: &std::path::Path) -> DeploymentConfig {
    DeploymentConfig::shared_nothing(2).with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy()).with_interval_ms(GROUP_COMMIT_MS),
    )
}

/// Boots and loads; returns `(boot_s, load_s, total_s)`.
fn setup(dir: &std::path::Path) -> (ReactDB, [f64; 3]) {
    let t0 = Instant::now();
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config(dir));
    let t1 = Instant::now();
    smallbank::load(&db, CUSTOMERS).expect("load smallbank");
    let t2 = Instant::now();
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    (db, [s(t0, t1), s(t1, t2), s(t0, t2)])
}

/// Sum of every savings and checking balance.
fn total_balance(db: &ReactDB) -> f64 {
    let mut total = 0.0;
    for c in 0..CUSTOMERS {
        for relation in ["savings", "checking"] {
            total += db
                .table(&customer_name(c), relation)
                .ok()
                .and_then(|t| t.get(&Key::Int(c as i64)))
                .map_or(f64::NAN, |r| r.read_stable().1.at(1).as_float());
        }
    }
    total
}

struct Transfers {
    client: Client,
    rng: StdRng,
}

impl inproc::Load for Transfers {
    /// Source, destinations and amount.
    type Tag = (usize, Vec<usize>, f64);

    fn next(&mut self) -> Self::Tag {
        let rng = &mut self.rng;
        let src = rng.gen_range(0..CUSTOMERS);
        let mut dsts = Vec::with_capacity(FANOUT);
        while dsts.len() < FANOUT {
            let d = rng.gen_range(0..CUSTOMERS);
            if d != src && !dsts.contains(&d) {
                dsts.push(d);
            }
        }
        (src, dsts, rng.gen_range(1..=10i64) as f64)
    }

    fn send(&mut self, (src, dsts, amount): &Self::Tag) -> Result<TxnHandle> {
        self.client.submit_with(
            &customer_name(*src),
            "multi_transfer_opt",
            smallbank::multi_transfer_invocation(*src, dsts, *amount),
            AckLevel::Validated,
        )
    }
}

pub fn run(opts: &Opts, rep: &mut Report) {
    precise_timers();
    let expected = (2 * CUSTOMERS) as f64 * INITIAL_BALANCE;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let round_s = |k: usize| {
        Duration::from_secs_f64(opts.seconds * SPLIT[k] / (SETUPS * ROUNDS_PER_INSTANCE) as f64)
    };
    let wait = |h: &TxnHandle| h.wait_timeout(REQUEST_TIMEOUT);
    let mut idle = PhaseAcc::new("idle");
    let mut open = PhaseAcc::new("open");
    let mut closed = PhaseAcc::new("closed");
    let mut whole = PhaseAcc::new("run");
    let rows = (3 * CUSTOMERS) as f64;
    on_instances(opts, rep, rows, setup, |db, rep| {
        let mut load = Transfers {
            client: db.client(),
            rng: rng.clone(),
        };
        let (m0, cpu0) = (snapshot(&db), cpu_sample());
        for _ in 0..ROUNDS_PER_INSTANCE {
            idle.measure(&db, || {
                inproc::idle(round_s(0), opts.trace, &mut load, wait)
            });
            open.measure(&db, || {
                inproc::open(
                    round_s(1),
                    OPEN_RATE,
                    POLL,
                    &mut load,
                    TxnHandle::try_result,
                )
            });
            closed.measure(&db, || {
                let end = Instant::now() + round_s(2);
                inproc::closed(WINDOW, &mut load, |now, _| now >= end, wait)
            });
        }
        whole.add_since(&db, &m0, &cpu0);
        rep.note_peak_rss();

        // Money is only moved: the total holds after the run, and after a
        // crash and the replay of the whole log.
        if opts.violate {
            // Money from nowhere, made durable so recovery keeps it too.
            let _ = db.invoke(
                &customer_name(0),
                "deposit_checking",
                vec![Value::Float(1.0)],
            );
            let _ = db.wal_sync();
        }
        let total = total_balance(&db);
        rep.check(
            total == expected,
            &format!("total balance conserved across the run ({total} == {expected})"),
        );
        checkpoint_and_tail(&db, rep, |tail| {
            inproc::closed(WINDOW, &mut load, |_, sent| sent >= tail, wait).out
        });
        rng = load.rng;
        crash_and_recover(rep, db, smallbank::spec(CUSTOMERS), 1, |db, rep| {
            let total = total_balance(db);
            rep.check(
                total == expected,
                &format!("total balance conserved after recovery ({total} == {expected})"),
            );
        })
    });

    report_idle(rep, &idle);
    if opts.trace {
        report_idle_inproc(rep, &idle);
    }
    report_open(rep, &open, OPEN_RATE);
    report_loaded(rep, &closed);
    let all = [&idle, &open, &closed];
    report_wal(rep, &whole, &all);
    report_aborts(rep, &whole.delta, &all);
}
