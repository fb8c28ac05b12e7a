//! `wire-smallbank`: the SmallBank mix over TCP against an embedded
//! `Server`, validated acks only, epoch-sync WAL on.
//!
//! The only workload that crosses `client` and `server`; its tiny
//! transactions make the net loop, codec and executor handoff dominate.
//! The WAL appends but no client waits on it. Phases: idle (one request
//! outstanding), open loop at a fixed rate, closed loop with a fixed
//! window, then crash and recovery.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reactdb_client::codec::{self, Request, Response};
use reactdb_client::{AckLevel, WireClient, WireHandle};
use reactdb_common::{DeploymentConfig, DurabilityConfig, Key, Value};
use reactdb_engine::ReactDB;
use reactdb_server::{Server, ServerConfig};
use reactdb_workloads::smallbank;

use crate::harness::*;
use crate::smallbank_mix::{Call, Mix};

/// SmallBank customers (three rows each).
const CUSTOMERS: usize = 10_000;
/// Open-loop rate: about a seventh of the closed-loop capacity (about
/// 28 000/s on a 2-core box). On a shared host each stall of a CPU queues
/// the requests due meanwhile, and the backlog drains in about
/// `rate / (capacity - rate)` of the stall; at half the capacity that
/// doubled the share of requests a stall delays, and the median followed
/// the host.
const OPEN_RATE: f64 = 4_000.0;
/// Closed-loop window: requests kept in flight on the one connection.
const WINDOW: usize = 32;
/// Crashes and recoveries per instance. Recovering the checkpoint and the
/// tail takes about 0.2 s here, short enough for one stall of the host to
/// decide a sample, and tearing this engine down is quick, so each
/// instance is recovered three times over.
const RECOVERIES: usize = 3;
/// Share of `--seconds` given to the idle, open and closed phases. The
/// idle phase is the steadiest, so the loaded phases get the most time.
const SPLIT: [f64; 3] = [0.15, 0.40, 0.45];

fn config(dir: &std::path::Path) -> DeploymentConfig {
    DeploymentConfig::shared_nothing(2)
        .with_durability(DurabilityConfig::epoch_sync(dir.to_string_lossy()))
}

struct System {
    db: Arc<ReactDB>,
    server: Server,
}

/// Boots, loads and starts the server; returns `(boot_s, load_s, total_s)`.
fn setup(dir: &std::path::Path) -> (System, [f64; 3]) {
    let t0 = Instant::now();
    let db = ReactDB::boot(smallbank::spec(CUSTOMERS), config(dir));
    let t1 = Instant::now();
    smallbank::load(&db, CUSTOMERS).expect("load smallbank");
    let t2 = Instant::now();
    let db = Arc::new(db);
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).expect("start server");
    let t3 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    (
        System { db, server },
        [secs(t0, t1), secs(t1, t2), secs(t0, t3)],
    )
}

fn send(client: &WireClient, call: &Call, ack: AckLevel) -> reactdb_common::Result<WireHandle> {
    let (reactor, procedure, args) = call;
    client.submit_with_ack(reactor, procedure, args.clone(), ack)
}

/// A request in flight: its handle, the time it counts from, what it is,
/// and how many times it was sent.
struct InFlight {
    handle: WireHandle,
    since: Instant,
    call: Call,
    attempts: u32,
}

/// Sends a new request; a send that fails at once is recorded as the
/// request's outcome.
fn start(
    client: &WireClient,
    mix: &mut Mix,
    since: Instant,
    out: &mut Outcomes,
) -> Option<InFlight> {
    let call = mix.next_call();
    match send(client, &call, AckLevel::Validated) {
        Ok(handle) => Some(InFlight {
            handle,
            since,
            call,
            attempts: 1,
        }),
        Err(e) => {
            out.record(&Err(e));
            None
        }
    }
}

/// Resolves a request that ended with `result`: sends it again after a
/// concurrency-control abort (returning it, still in flight), otherwise
/// records its outcome.
fn settle(
    client: &WireClient,
    mut req: InFlight,
    result: reactdb_common::Result<Value>,
    out: &mut Outcomes,
) -> Option<InFlight> {
    if out.retry(&result, req.attempts) {
        req.attempts += 1;
        match send(client, &req.call, AckLevel::Validated) {
            Ok(handle) => {
                req.handle = handle;
                return Some(req);
            }
            Err(e) => return settle(client, req, Err(e), out),
        }
    }
    out.record(&result);
    None
}

/// Waits a request out to its final outcome, resending it after
/// concurrency-control aborts.
fn reap(client: &WireClient, mut req: InFlight, out: &mut Outcomes) {
    loop {
        let Some(result) = req.handle.wait_timeout(REQUEST_TIMEOUT) else {
            out.record_timeout();
            return;
        };
        match settle(client, req, result, out) {
            Some(again) => req = again,
            None => return,
        }
    }
}

/// One request outstanding at a time; a traced run spans every other
/// request, so the untraced half measures the spans' own overhead.
fn idle(client: &WireClient, mix: &mut Mix, duration: Duration, trace: bool) -> Round {
    let mut r = Round::default();
    let end = Instant::now() + duration;
    let mut i = 0u64;
    while Instant::now() < end {
        let spanned = trace && i % 2 == 1;
        i += 1;
        let t0 = Instant::now();
        let req = start(client, mix, t0, &mut r.out);
        let t1 = Instant::now();
        if let Some(req) = req {
            reap(client, req, &mut r.out);
        }
        let t2 = Instant::now();
        if spanned {
            r.submit_span.push(t1 - t0);
            r.wait_span.push(t2 - t1);
            r.lat_spanned.push(t2 - t0);
        } else {
            r.lat.push(t2 - t0);
        }
    }
    r
}

/// Requests due at `OPEN_RATE`, each timed from its due time to its final
/// reply.
fn open(client: &WireClient, mix: &mut Mix, duration: Duration) -> Round {
    let mut r = Round::default();
    let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let start_at = Instant::now();
    let end = start_at + duration;
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut sent = 0u32;
    loop {
        let mut now = Instant::now();
        let mut due = start_at + interval * sent;
        while due <= now && due < end {
            r.late.push(now - due);
            inflight.extend(start(client, mix, due, &mut r.out));
            sent += 1;
            due = start_at + interval * sent;
            now = Instant::now();
        }
        let Some(front) = inflight.front() else {
            if due >= end {
                break;
            }
            sleep_until(due);
            continue;
        };
        // Replies come back per connection mostly in order: block on the
        // oldest request until the next one is due.
        let wait = if due < end {
            due.saturating_duration_since(now)
        } else {
            REQUEST_TIMEOUT
        };
        if let Some(first) = front.handle.wait_timeout(wait) {
            let done = Instant::now();
            let mut first = Some(first);
            // Anything else already resolved resolved no later than now.
            while let Some(result) = first
                .take()
                .or_else(|| inflight.front().and_then(|f| f.handle.try_result()))
            {
                let req = inflight.pop_front().expect("a request in flight");
                let since = req.since;
                match settle(client, req, result, &mut r.out) {
                    Some(again) => inflight.push_back(again),
                    None => r.lat.push(done - since),
                }
            }
        } else if due >= end {
            r.out.record_timeout();
            inflight.pop_front();
        }
    }
    r
}

/// `WINDOW` requests kept in flight on the one connection until `until`
/// says to stop sending (given the time and the requests sent so far).
fn closed(
    client: &WireClient,
    mix: &mut Mix,
    mut until: impl FnMut(Instant, u64) -> bool,
) -> Round {
    let mut r = Round::default();
    let mut window: VecDeque<InFlight> = VecDeque::new();
    let mut sent = 0u64;
    loop {
        while window.len() < WINDOW && !until(Instant::now(), sent) {
            sent += 1;
            window.extend(start(client, mix, Instant::now(), &mut r.out));
        }
        let Some(front) = window.pop_front() else {
            break;
        };
        match front.handle.wait_timeout(REQUEST_TIMEOUT) {
            Some(result) => window.extend(settle(client, front, result, &mut r.out)),
            None => r.out.record_timeout(),
        }
    }
    r
}

pub fn run(opts: &Opts, rep: &mut Report) {
    precise_timers();
    let mut mix = Mix::new(opts.seed, CUSTOMERS);
    let round_s = |k: usize| {
        Duration::from_secs_f64(opts.seconds * SPLIT[k] / (SETUPS * ROUNDS_PER_INSTANCE) as f64)
    };
    let mut idle_acc = PhaseAcc::new("idle");
    let mut open_acc = PhaseAcc::new("open");
    let mut closed_acc = PhaseAcc::new("closed");
    let mut whole = PhaseAcc::new("run");
    let mut last_end = None;
    on_instances(
        opts,
        rep,
        (3 * CUSTOMERS) as f64,
        setup,
        |System { db, server }, rep| {
            let client = WireClient::connect(server.local_addr()).expect("connect");
            let (m0, cpu0) = (snapshot(&db), cpu_sample());
            for _ in 0..ROUNDS_PER_INSTANCE {
                idle_acc.measure(&db, || idle(&client, &mut mix, round_s(0), opts.trace));
                open_acc.measure(&db, || open(&client, &mut mix, round_s(1)));
                closed_acc.measure(&db, || {
                    let end = Instant::now() + round_s(2);
                    closed(&client, &mut mix, |now, _| now >= end)
                });
            }
            whole.add_since(&db, &m0, &cpu0);
            last_end = Some(snapshot(&db));
            rep.note_peak_rss();
            checkpoint_and_tail(&db, rep, |tail| {
                closed(&client, &mut mix, |_, sent| sent >= tail).out
            });
            drop(client);
            check_server(opts, rep, &server);

            // Once every commit is durable, recovery restores the
            // checkpoint and replays the tail, which must give every
            // customer the balances it had.
            server.shutdown();
            let db = Arc::try_unwrap(db).expect("the server released the engine");
            db.wal_sync().expect("group commit before the crash");
            let before = balances(&db);
            crash_and_recover(
                rep,
                db,
                smallbank::spec(CUSTOMERS),
                RECOVERIES,
                |db, rep| {
                    let after = balances(db);
                    let differ = before.iter().zip(&after).filter(|(a, b)| a != b).count();
                    rep.check(
                        differ == 0,
                        &format!("recovery restored every customer's balances ({differ} differ)"),
                    );
                },
            )
        },
    );

    report_idle(rep, &idle_acc);
    if opts.trace {
        let (d, r) = (&idle_acc.delta, &idle_acc.round);
        let parts = [
            ("client.submit", r.submit_span.mean_ns()),
            ("server.net_decode", phase_mean(d, "net_decode")),
            ("server.net_dispatch", phase_mean(d, "net_dispatch")),
            ("engine.execute", phase_mean(d, "execute")),
            ("txn.lock", phase_mean(d, "lock")),
            ("txn.fence", phase_mean(d, "fence")),
            ("txn.validate", phase_mean(d, "validate")),
            ("txn.write", phase_mean(d, "write")),
            ("wal.log", phase_mean(d, "log")),
            ("server.net_reply", phase_mean(d, "net_reply")),
        ];
        rep.set(
            "engine.unattributed_ns",
            idle_budget(r.lat_spanned.mean_ns(), &parts),
        );
        rep.set("client.submit_ns", r.submit_span.mean_ns());
        for (name, key) in [
            ("engine.execute_ns", "execute"),
            ("txn.lock_ns", "lock"),
            ("txn.fence_ns", "fence"),
            ("txn.validate_ns", "validate"),
            ("txn.write_ns", "write"),
            ("wal.log_ns", "log"),
        ] {
            rep.set(name, phase_mean(d, key));
        }
        rep.set(
            "driver.trace_overhead_pct",
            100.0 * (r.lat_spanned.pct_us(0.5) / r.lat.pct_us(0.5) - 1.0),
        );
        codec_costs(opts.seed, rep);
    }
    report_open(rep, &open_acc, OPEN_RATE);
    report_loaded(rep, &closed_acc);
    if let Some(end) = &last_end {
        for (name, key) in [
            ("server.net_decode_ns", "net_decode"),
            ("server.net_dispatch_ns", "net_dispatch"),
            ("server.net_reply_ns", "net_reply"),
        ] {
            rep.set(name, phase_p50(end, key));
        }
    }
    rep.set(
        "server.accept_cpu_us_per_s",
        whole.cpu.group("accept").ns / 1e3 / whole.cpu.wall_s,
    );
    let all = [&idle_acc, &open_acc, &closed_acc];
    report_wal(rep, &whole, &all);
    report_aborts(rep, &whole.delta, &all);
}

/// After a run nothing is left in flight and the server still serves.
fn check_server(opts: &Opts, rep: &mut Report, server: &Server) {
    let addr = server.local_addr();
    let mut violation = None;
    if opts.violate {
        // A durable reply is held until the next group commit: leave a
        // stream of them pending right before an immediate drain check.
        let c = WireClient::connect(addr).expect("connect");
        let mut mix = Mix::new(opts.seed ^ 0xbad, CUSTOMERS);
        let until = Instant::now() + Duration::from_millis(30);
        let mut held = Vec::new();
        while Instant::now() < until {
            held.extend(send(&c, &mix.next_call(), AckLevel::Durable).ok());
        }
        violation = Some((c, held));
    }
    let drain = if opts.violate {
        Duration::ZERO
    } else {
        Duration::from_secs(5)
    };
    let deadline = Instant::now() + drain;
    let in_flight = loop {
        let n = server.net_stats().in_flight();
        if n == 0 || Instant::now() >= deadline {
            break n;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    rep.check(
        in_flight == 0,
        &format!("server in-flight drained to 0 (saw {in_flight})"),
    );
    drop(violation);
    let probe = if opts.violate {
        // Nothing listens on a port the OS just handed out and released.
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    } else {
        addr
    };
    let pong = WireClient::connect(probe).map(|c| c.ping());
    rep.check(
        matches!(pong, Ok(Ok(()))),
        "a fresh connection still pings after the run",
    );
}

/// Every customer's savings and checking balance (NaN when missing).
fn balances(db: &ReactDB) -> Vec<[f64; 2]> {
    (0..CUSTOMERS)
        .map(|c| {
            ["savings", "checking"].map(|relation| {
                db.table(&smallbank::customer_name(c), relation)
                    .ok()
                    .and_then(|t| t.get(&Key::Int(c as i64)))
                    .map_or(f64::NAN, |r| r.read_stable().1.at(1).as_float())
            })
        })
        .collect()
}

/// Codec cost on the generated mix: mean encode time and size of a
/// request, and mean decode time of a committed reply.
fn codec_costs(seed: u64, rep: &mut Report) {
    const N: usize = 20_000;
    let mut mix = Mix::new(seed ^ 0xc0dec, CUSTOMERS);
    let requests: Vec<Request> = (0..N as u64)
        .map(|id| {
            let (reactor, procedure, args) = mix.next_call();
            Request::Invoke {
                correlation_id: id,
                ack: AckLevel::Validated,
                reactor,
                procedure: procedure.to_string(),
                args,
            }
        })
        .collect();
    let t = Instant::now();
    let mut bytes = 0usize;
    for r in &requests {
        bytes += codec::frame(&codec::encode_request(std::hint::black_box(r))).len();
    }
    rep.set("client.encode_ns", t.elapsed().as_nanos() as f64 / N as f64);
    rep.set("client.request_bytes", bytes as f64 / N as f64);
    let replies: Vec<Vec<u8>> = (0..N as u64)
        .map(|id| {
            codec::encode_response(&Response::TxnOk {
                correlation_id: id,
                value: Value::Float(10_000.0 + id as f64),
                commit_epoch: Some(id / 100),
            })
        })
        .collect();
    let t = Instant::now();
    for r in &replies {
        std::hint::black_box(codec::decode_response(std::hint::black_box(r)).expect("decodes"));
    }
    rep.set("client.decode_ns", t.elapsed().as_nanos() as f64 / N as f64);
}
