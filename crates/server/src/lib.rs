//! TCP wire-protocol front end for a ReactDB-rs engine instance.
//!
//! The offline build environment rules out async runtimes, so the server is
//! a sharded thread-per-core design in the spirit of the paper's
//! executor/affinity model: one acceptor thread plus N I/O worker threads,
//! each new connection pinned to a worker by peer-address hash and never
//! migrated. A worker owns its connections outright, so no locks are taken
//! on the per-connection hot path.
//!
//! **Event loop** — every thread blocks in one `epoll_wait` (`poller.rs`).
//! A worker registers its nonblocking sockets edge-triggered and owns an
//! `eventfd` waker; it services its connections, then re-checks for work
//! and sleeps until one of these wakes it:
//!
//! * socket readiness (bytes to read, room to write, peer hang-up);
//! * a transaction publishing its result — each connection's engine
//!   session carries a post-publish notifier ([`Client::with_notifier`]);
//! * the acceptor handing it a connection, or [`Server::shutdown`];
//! * a follower acknowledgement (the quorum epoch may have advanced while
//!   a `Replicated` reply is held);
//! * a deadline: a read or write stall, the shutdown drain, or the 1 ms
//!   WAL-kick cadence while a `Durable`/`Replicated` reply waits for group
//!   commit (the kick syncs the log itself, so the next pass replies).
//!
//! A waker writes the eventfd only while the worker announced it is going
//! to sleep (`poller::Waker`), so a busy worker pays no syscall per
//! completion. The acceptor blocks the same way on the listener and a
//! shutdown waker.
//!
//! Each accepted connection performs the version handshake and then maps
//! 1:1 onto an engine [`Client`] session. Requests are pipelined: a worker
//! decodes as many frames as the connection's in-flight cap allows, submits
//! each invoke without waiting ([`Client::submit`]), and polls the
//! resulting `TxnHandle`s as it services the connection — replying at
//! validation time, at durable time, or at replicated time per the
//! request's [`AckLevel`](reactdb_common::AckLevel), in whatever order
//! transactions actually resolve (responses carry the request's
//! correlation id, so ordering is the client's problem by design).
//!
//! **Replication** — a connection that sends `ReplSubscribe` is handed off
//! from its I/O worker to a dedicated feeder thread that streams the
//! engine's log directory through a [`reactdb_wal::ShipCursor`]: the
//! newest checkpoint chain first, then the durable tail of every log
//! segment, interleaved with durable-epoch announcements. `ReplAck`
//! frames flowing back advance that follower's entry in the per-follower
//! registry; [`ReplState::quorum_epoch`] — the `quorum`-th-highest acked
//! epoch across live followers — is the gate
//! [`AckLevel::Replicated`](reactdb_common::AckLevel) invokes wait
//! behind, so a transaction is acknowledged at that level only once a
//! quorum of followers has durably applied its commit epoch. The
//! follower side of the stream lives in [`replica`].
//!
//! Robustness rules:
//!
//! * **Backpressure** — a connection at its in-flight cap (or with a
//!   backed-up send buffer) is not read from until it drains; misbehaving
//!   clients stall themselves, not the worker.
//! * **Timeouts** — a connection that stalls mid-frame, or that refuses to
//!   accept writes while responses are queued, is killed after a deadline.
//! * **Malformed frames** — a failed length/checksum/body decode kills
//!   only the offending connection; its session drops and the engine
//!   resolves whatever was still in flight.
//! * **Graceful shutdown** — [`Server::shutdown`] stops accepting, drains
//!   in-flight transactions and send buffers (bounded by
//!   `drain_timeout`), then joins every thread. Dropping the last
//!   `Arc<ReactDB>` afterwards releases the `LogDirLock` via the engine's
//!   own shutdown path.
//!
//! The server records its request lifecycle into the engine's metrics
//! registry (`net_decode` / `net_dispatch` / `net_reply` phases) and
//! augments [`ReactDB::metrics`] with connection counters and gauges; the
//! wire protocol's metrics op returns that augmented snapshot rendered as
//! Prometheus text or JSON — the `GET /metrics` equivalent.

mod poller;
pub mod replica;

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reactdb_client::codec::{self, MetricsFormat, Request, Response};
use reactdb_common::{AckLevel, ReplicationConfig};
use reactdb_engine::{Client, ReactDB, TxnHandle};
use reactdb_obs::{Counter, Gauge, Metrics, MetricsSnapshot, Phase};
use reactdb_wal::{ShipCursor, ShipEvent};

use poller::{Poller, Waker};

pub use replica::{run_follower, FollowerOpts, FollowerReport};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// I/O worker threads; connections are pinned across them by
    /// peer-address hash.
    pub workers: usize,
    /// Per-connection cap on invokes submitted but not yet replied to;
    /// reaching it pauses reads from that connection until work drains.
    pub max_in_flight: usize,
    /// A connection that has started a frame (or the handshake) and makes
    /// no read progress for this long is killed.
    pub read_timeout: Duration,
    /// A connection with queued responses that accepts no bytes for this
    /// long is killed.
    pub write_timeout: Duration,
    /// Upper bound on how long [`Server::shutdown`] waits for in-flight
    /// transactions and send buffers to drain before force-closing.
    pub drain_timeout: Duration,
    /// Shipping knobs (chunk size, poll interval) for replication
    /// subscriptions; defaults match
    /// [`reactdb_common::ReplicationConfig::default`].
    pub replication: ReplicationConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_in_flight: 128,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            replication: ReplicationConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the I/O worker thread count (at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-connection in-flight cap (at least 1).
    pub fn with_max_in_flight(mut self, cap: usize) -> Self {
        self.max_in_flight = cap.max(1);
        self
    }

    /// Sets both stall timeouts.
    pub fn with_timeouts(mut self, read: Duration, write: Duration) -> Self {
        self.read_timeout = read;
        self.write_timeout = write;
        self
    }

    /// Sets the graceful-shutdown drain bound.
    pub fn with_drain_timeout(mut self, drain: Duration) -> Self {
        self.drain_timeout = drain;
        self
    }

    /// Sets the replication shipping knobs.
    pub fn with_replication(mut self, replication: ReplicationConfig) -> Self {
        self.replication = replication;
        self
    }
}

/// Connection-level counters the server adds to the metrics snapshot.
#[derive(Debug, Default)]
pub struct NetStats {
    accepted: AtomicU64,
    active: AtomicU64,
    rejected: AtomicU64,
    malformed: AtomicU64,
    timeouts: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    in_flight: AtomicU64,
}

impl NetStats {
    /// Connections accepted over the server's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections currently open (post-handshake or still handshaking).
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Connections refused at the handshake (bad magic or version).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Connections killed for a malformed frame or body.
    pub fn malformed(&self) -> u64 {
        self.malformed.load(Ordering::Relaxed)
    }

    /// Connections killed for a read or write stall.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Requests dispatched (all kinds).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Responses written (all kinds).
    pub fn responses(&self) -> u64 {
        self.responses.load(Ordering::Relaxed)
    }

    /// Invokes submitted to the engine and not yet replied to, across all
    /// connections.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }
}

/// One live follower subscription in the primary's registry.
#[derive(Debug, Clone)]
struct FollowerEntry {
    /// The follower's wire-carried stable id (constant across its
    /// reconnects).
    id: u64,
    /// Highest epoch this follower has durably applied and acknowledged.
    acked: u64,
    /// Live subscriptions carrying this id: briefly 2 while a resubscribe
    /// overlaps the dying feeder it replaces; the entry is pruned at 0.
    live: u32,
}

/// Replication progress shared between the wire server, its feeder
/// threads, and (on a follower) the apply loop in [`replica`].
///
/// One struct serves both roles because a promoted follower *becomes* a
/// primary without restarting its server: the primary-side fields start
/// mattering the moment a follower of its own subscribes.
///
/// The primary side keeps a per-follower registry keyed by the stable
/// `follower_id` each subscription carries: [`ReplState::quorum_epoch`]
/// is the `quorum`-th-highest acked epoch across *live* followers, and
/// it — not the fastest follower's ack — gates
/// [`AckLevel::Replicated`](reactdb_common::AckLevel) replies, so a
/// replicated ack means "durable on at least quorum + 1 nodes". Dead
/// followers are pruned when their feeder exits (via the registration
/// guard's drop, so even a panicking feeder prunes), which can move
/// `quorum_epoch` *backwards*: pending replicated acks then correctly
/// re-stall until a quorum of live followers catches up again.
#[derive(Debug, Default)]
pub struct ReplState {
    /// Live follower subscriptions (primary side).
    followers: AtomicU64,
    /// Highest epoch some (the fastest) follower has durably applied and
    /// acknowledged (primary side). Kept for observability; the
    /// replicated-ack gate is [`ReplState::quorum_epoch`].
    acked_epoch: AtomicU64,
    /// Replicated-ack quorum (how many followers must have durably
    /// applied an epoch); 0 reads as 1.
    quorum: AtomicU64,
    /// Per-follower ack registry (primary side).
    roster: Mutex<Vec<FollowerEntry>>,
    /// Highest epoch this node has durably applied (follower side).
    applied_epoch: AtomicU64,
    /// Highest durable epoch the primary has announced to this node
    /// (follower side).
    shipped_epoch: AtomicU64,
    /// Set while this node tails a primary; cleared by promotion.
    follower_mode: AtomicBool,
}

impl ReplState {
    /// Live follower subscriptions on this node.
    pub fn followers(&self) -> u64 {
        self.followers.load(Ordering::Relaxed)
    }

    /// Highest epoch acknowledged as durably applied by any follower —
    /// the *fastest* follower's progress, for observability. The
    /// replicated-ack gate is [`ReplState::quorum_epoch`].
    pub fn acked_epoch(&self) -> u64 {
        self.acked_epoch.load(Ordering::Acquire)
    }

    /// The replicated-ack quorum this primary enforces (at least 1).
    pub fn quorum(&self) -> usize {
        (self.quorum.load(Ordering::Relaxed) as usize).max(1)
    }

    /// Sets the replicated-ack quorum (0 reads as 1).
    pub fn set_quorum(&self, quorum: usize) {
        self.quorum.store(quorum as u64, Ordering::Relaxed);
    }

    /// The highest epoch durably applied by at least [`ReplState::quorum`]
    /// live followers: the `quorum`-th-highest acked epoch of the
    /// registry, or 0 while fewer than `quorum` followers are subscribed.
    /// Not monotonic by design — a follower dying can lower it, re-gating
    /// pending replicated acks on the followers that still exist.
    pub fn quorum_epoch(&self) -> u64 {
        let roster = self.roster.lock().unwrap();
        let quorum = self.quorum();
        if roster.len() < quorum {
            return 0;
        }
        let mut acked: Vec<u64> = roster.iter().map(|f| f.acked).collect();
        acked.sort_unstable_by(|a, b| b.cmp(a));
        acked[quorum - 1]
    }

    /// Live follower ids and their acked epochs (for metrics and tests).
    pub fn follower_acks(&self) -> Vec<(u64, u64)> {
        let roster = self.roster.lock().unwrap();
        roster.iter().map(|f| (f.id, f.acked)).collect()
    }

    /// Highest epoch this node has durably applied from its primary.
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch.load(Ordering::Acquire)
    }

    /// Highest durable epoch the primary has announced to this node.
    pub fn shipped_epoch(&self) -> u64 {
        self.shipped_epoch.load(Ordering::Acquire)
    }

    /// Whether this node is currently tailing a primary.
    pub fn is_follower(&self) -> bool {
        self.follower_mode.load(Ordering::Acquire)
    }

    /// Enters `follower_id` into the registry (or revives its entry on a
    /// reconnect) and returns a guard whose drop deregisters it. The
    /// feeder holds the guard for the life of the subscription, so a
    /// follower that dies — or a feeder that panics — is pruned and the
    /// `repl_followers` gauge stays truthful.
    pub fn register_follower(self: &Arc<Self>, follower_id: u64) -> FollowerRegistration {
        {
            let mut roster = self.roster.lock().unwrap();
            match roster.iter_mut().find(|f| f.id == follower_id) {
                Some(entry) => entry.live += 1,
                None => roster.push(FollowerEntry {
                    id: follower_id,
                    acked: 0,
                    live: 1,
                }),
            }
        }
        self.followers.fetch_add(1, Ordering::Relaxed);
        FollowerRegistration {
            repl: Arc::clone(self),
            follower_id,
        }
    }

    /// Monotonically raises `follower_id`'s acked epoch (primary side).
    /// Unregistered ids are ignored: an ack can only advance the quorum
    /// through a live registry entry.
    pub fn observe_ack(&self, follower_id: u64, applied_epoch: u64) {
        {
            let mut roster = self.roster.lock().unwrap();
            let Some(entry) = roster.iter_mut().find(|f| f.id == follower_id) else {
                return;
            };
            entry.acked = entry.acked.max(applied_epoch);
        }
        self.acked_epoch.fetch_max(applied_epoch, Ordering::AcqRel);
    }

    /// Records follower-side apply progress.
    pub fn observe_apply(&self, applied_epoch: u64, shipped_epoch: u64) {
        self.applied_epoch
            .fetch_max(applied_epoch, Ordering::AcqRel);
        self.shipped_epoch
            .fetch_max(shipped_epoch, Ordering::AcqRel);
    }

    /// Flags or clears follower mode (promotion clears it).
    pub fn set_follower_mode(&self, follower: bool) {
        self.follower_mode.store(follower, Ordering::Release);
    }

    fn deregister(&self, follower_id: u64) {
        let mut roster = self.roster.lock().unwrap();
        if let Some(pos) = roster.iter().position(|f| f.id == follower_id) {
            roster[pos].live = roster[pos].live.saturating_sub(1);
            if roster[pos].live == 0 {
                roster.remove(pos);
            }
        }
        self.followers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Registration of one follower subscription; dropping it deregisters
/// the follower (see [`ReplState::register_follower`]).
#[derive(Debug)]
pub struct FollowerRegistration {
    repl: Arc<ReplState>,
    follower_id: u64,
}

impl Drop for FollowerRegistration {
    fn drop(&mut self) {
        self.repl.deregister(self.follower_id);
    }
}

/// What other threads reach of one net worker: the waker that ends its
/// `epoll_wait` and the inbox the acceptor hands connections through.
struct WorkerSlot {
    waker: Waker,
    /// `None` once the worker has exited; a connection handed over after
    /// that is closed by the acceptor instead.
    inbox: Mutex<Option<Vec<TcpStream>>>,
}

impl WorkerSlot {
    fn inbox(&self) -> std::sync::MutexGuard<'_, Option<Vec<TcpStream>>> {
        self.inbox
            .lock()
            .expect("no thread panics while holding an inbox")
    }
}

struct Shared {
    db: Arc<ReactDB>,
    metrics: Arc<Metrics>,
    stats: NetStats,
    repl: Arc<ReplState>,
    /// Feeder threads serving replication subscriptions; joined at
    /// shutdown.
    feeders: Mutex<Vec<JoinHandle<()>>>,
    config: ServerConfig,
    shutdown: AtomicBool,
    workers: Vec<Arc<WorkerSlot>>,
    /// Ends the acceptor's wait at shutdown.
    acceptor_waker: Waker,
}

impl Shared {
    fn wake_workers(&self) {
        for worker in &self.workers {
            worker.waker.wake();
        }
    }

    /// The engine snapshot augmented with the server's connection counters
    /// and gauges — what the wire metrics op renders.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.db.metrics();
        let s = &self.stats;
        for (name, value) in [
            ("net_connections_accepted", s.accepted()),
            ("net_connections_rejected", s.rejected()),
            (
                "net_connections_killed{reason=\"malformed\"}",
                s.malformed(),
            ),
            ("net_connections_killed{reason=\"timeout\"}", s.timeouts()),
            ("net_requests", s.requests()),
            ("net_responses", s.responses()),
        ] {
            snap.counters.push(Counter {
                name: name.to_string(),
                value,
            });
        }
        snap.gauges.push(Gauge {
            name: "net_connections_active".to_string(),
            value: s.active() as f64,
        });
        snap.gauges.push(Gauge {
            name: "net_requests_in_flight".to_string(),
            value: s.in_flight() as f64,
        });
        let repl = &self.repl;
        snap.gauges.push(Gauge {
            name: "repl_followers".to_string(),
            value: repl.followers() as f64,
        });
        snap.gauges.push(Gauge {
            name: "repl_acked_epoch".to_string(),
            value: repl.acked_epoch() as f64,
        });
        // Per-follower progress plus the quorum epoch that actually gates
        // replicated acks ("durable on >= quorum + 1 nodes").
        for (id, acked) in repl.follower_acks() {
            snap.gauges.push(Gauge {
                name: format!("repl_acked_epoch{{follower=\"{id:016x}\"}}"),
                value: acked as f64,
            });
        }
        let quorum_epoch = repl.quorum_epoch();
        snap.gauges.push(Gauge {
            name: "repl_quorum_epoch".to_string(),
            value: quorum_epoch as f64,
        });
        // Primary-side lag: durable epochs no follower has acknowledged
        // yet. Zero with durability off (nothing to ship) or no follower
        // progress recorded. The quorum variant measures against the
        // quorum-acked epoch — what a replicated invoke would wait on now.
        let durable = self.db.durable_epoch();
        let lag = durable.map_or(0, |durable| durable.saturating_sub(repl.acked_epoch()));
        snap.gauges.push(Gauge {
            name: "repl_lag_epochs".to_string(),
            value: lag as f64,
        });
        let quorum_lag = durable.map_or(0, |durable| durable.saturating_sub(quorum_epoch));
        snap.gauges.push(Gauge {
            name: "repl_quorum_epoch_lag".to_string(),
            value: quorum_lag as f64,
        });
        if repl.is_follower() {
            snap.gauges.push(Gauge {
                name: "repl_applied_epoch".to_string(),
                value: repl.applied_epoch() as f64,
            });
            snap.gauges.push(Gauge {
                name: "repl_follower_lag_epochs".to_string(),
                value: repl.shipped_epoch().saturating_sub(repl.applied_epoch()) as f64,
            });
        }
        snap
    }
}

/// A running wire server fronting one engine instance.
///
/// Obtained from [`Server::start`]; stopped by [`Server::shutdown`] (or
/// drop, which performs the same drain).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and worker threads, and returns. The
    /// server shares `db`'s metrics registry, so its `net_*` phases land
    /// in the same snapshot as the engine's.
    pub fn start(db: Arc<ReactDB>, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let metrics = db.metrics_registry();

        let mut pollers = Vec::new();
        let mut slots = Vec::new();
        for _ in 0..config.workers {
            let poller = Poller::new()?;
            let waker = Waker::new()?;
            poller.add_level(&waker, WAKER_TOKEN)?;
            pollers.push(poller);
            slots.push(Arc::new(WorkerSlot {
                waker,
                inbox: Mutex::new(Some(Vec::new())),
            }));
        }
        let accept_poller = Poller::new()?;
        let acceptor_waker = Waker::new()?;
        accept_poller.add_level(&listener, LISTENER_TOKEN)?;
        accept_poller.add_level(&acceptor_waker, WAKER_TOKEN)?;

        let shared = Arc::new(Shared {
            db,
            metrics,
            stats: NetStats::default(),
            repl: Arc::new(ReplState::default()),
            feeders: Mutex::new(Vec::new()),
            config,
            shutdown: AtomicBool::new(false),
            workers: slots,
            acceptor_waker,
        });
        shared
            .repl
            .set_quorum(shared.config.replication.effective_quorum());

        let mut workers = Vec::new();
        for (idx, poller) in pollers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("reactdb-net-{idx}"))
                    .spawn(move || worker_loop(shared, idx, poller))?,
            );
        }
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("reactdb-net-accept".into())
            .spawn(move || accept_loop(listener, accept_poller, acceptor_shared))?;

        Ok(Self {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live connection counters.
    pub fn net_stats(&self) -> &NetStats {
        &self.shared.stats
    }

    /// Replication progress: follower count and acked epoch on a primary,
    /// applied/shipped epochs on a follower. The follower apply loop
    /// ([`run_follower`]) updates the same instance, so the server's
    /// metrics snapshot reflects it live.
    pub fn repl_state(&self) -> Arc<ReplState> {
        Arc::clone(&self.shared.repl)
    }

    /// The engine's metrics snapshot augmented with the server's `net_*`
    /// counters and gauges.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Stops accepting, drains in-flight transactions and send buffers
    /// (bounded by the configured drain timeout), and joins every thread.
    /// The engine itself keeps running; dropping the last `Arc<ReactDB>`
    /// afterwards shuts it down and releases the log-directory lock.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.acceptor_waker.wake();
        self.shared.wake_workers();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let feeders = std::mem::take(&mut *self.shared.feeders.lock().unwrap());
        for feeder in feeders {
            let _ = feeder.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Token of a thread's eventfd waker on its poller; connection tokens
/// count up from 0.
const WAKER_TOKEN: u64 = u64::MAX;

/// Token of the listening socket on the acceptor's poller.
const LISTENER_TOKEN: u64 = 0;

fn accept_loop(listener: TcpListener, mut poller: Poller, shared: Arc<Shared>) {
    loop {
        shared.acceptor_waker.prepare_sleep();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Both registrations are level-triggered: a connection still
        // pending, or a wake, ends the wait at once.
        let mut events = poller
            .wait(None)
            .expect("epoll_wait on the acceptor's own poller");
        if events.any(|e| e.token == WAKER_TOKEN) {
            shared.acceptor_waker.drain();
        }
        shared.acceptor_waker.awake();
        loop {
            let (stream, peer) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Out of descriptors or memory: the listener stays
                    // readable, so back off rather than spin on it.
                    std::thread::sleep(Duration::from_millis(1));
                    break;
                }
            };
            shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
            shared.stats.active.fetch_add(1, Ordering::Relaxed);
            // Pin by peer-address hash so a client's connection always
            // lands on the same worker (stable, no rebalancing).
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for b in peer.to_string().bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
            let worker = &shared.workers[(hash % shared.workers.len() as u64) as usize];
            match worker.inbox().as_mut() {
                Some(inbox) => inbox.push(stream),
                // The worker has exited (shutting down): close the stream.
                None => {
                    shared.stats.active.fetch_sub(1, Ordering::Relaxed);
                    continue;
                }
            }
            worker.waker.wake();
        }
    }
}

/// One invoke submitted to the engine, awaiting its reply point.
struct Pending {
    correlation_id: u64,
    handle: TxnHandle,
    ack: AckLevel,
}

/// Per-connection state owned by exactly one worker.
struct Conn {
    stream: TcpStream,
    /// Poller token; a worker's tokens only grow, so its connection list
    /// stays sorted by token.
    token: u64,
    session: Client,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    inflight: VecDeque<Pending>,
    handshaken: bool,
    /// Edge-triggered readiness: set by a poller report, cleared when a
    /// read (write) hits `WouldBlock`. Both start set, so a fresh socket
    /// is tried once before its first report.
    readable: bool,
    writable: bool,
    /// Last time a read made progress; the read-stall clock only matters
    /// while the peer owes bytes (mid-handshake or mid-frame).
    last_read: Instant,
    /// Last time a write drained bytes while responses were queued.
    last_write: Instant,
    /// When the running stall clock (read or write) kills the connection;
    /// the worker's sleep ends there. `None` while no clock runs.
    stall_deadline: Option<Instant>,
    /// Set when the connection must be closed.
    kill: Option<KillReason>,
}

impl Conn {
    fn new(stream: TcpStream, token: u64, session: Client) -> Self {
        let now = Instant::now();
        Self {
            stream,
            token,
            session,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            inflight: VecDeque::new(),
            handshaken: false,
            readable: true,
            writable: true,
            last_read: now,
            last_write: now,
            stall_deadline: None,
            kill: None,
        }
    }

    /// Reads pause while shutting down, at the in-flight cap, or with
    /// buffers backed up past the high-water mark.
    fn read_paused(&self, shared: &Shared, shutting: bool) -> bool {
        shutting
            || self.inflight.len() >= shared.config.max_in_flight
            || self.wbuf.len() >= WBUF_HIGH_WATER
            || self.rbuf.len() >= WBUF_HIGH_WATER
    }

    /// Whether a [`service`] pass would do anything now: the worker's
    /// re-check before it sleeps. A reply that resolved but waits for
    /// durability or a quorum does not count — the worker would spin on
    /// it; its wake-ups are the WAL-kick deadline and follower acks.
    fn has_work(
        &self,
        shared: &Shared,
        shutting: bool,
        durable_epoch: Option<u64>,
        quorum_epoch: &mut Option<u64>,
    ) -> bool {
        let frame_waiting = || !matches!(codec::decode_frame(&self.rbuf), Ok(None));
        (self.readable && !self.read_paused(shared, shutting))
            || (self.writable && !self.wbuf.is_empty())
            || (!self.handshaken && self.rbuf.len() >= codec::HANDSHAKE_LEN)
            || (self.handshaken
                && self.inflight.len() < shared.config.max_in_flight
                && frame_waiting())
            || self
                .inflight
                .iter()
                .any(|pending| reply_due(shared, pending, durable_epoch, quorum_epoch))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillReason {
    /// Peer closed or the socket errored; nothing to count specially.
    Gone,
    /// Handshake failed (magic or version); counted as rejected.
    HandshakeRejected,
    /// Frame or body failed to decode; counted as malformed.
    Malformed,
    /// Read or write stall exceeded its deadline; counted as timeout.
    Stalled,
    /// Graceful shutdown finished draining this connection.
    Drained,
    /// The connection subscribed as a replication follower and its socket
    /// was handed to a feeder thread; the worker forgets the connection
    /// without shutting the socket down.
    ReplHandoff,
}

/// Soft cap on a connection's buffered bytes; reads pause above it.
const WBUF_HIGH_WATER: usize = 4 << 20;

/// Minimum spacing between WAL sync kicks a worker issues on behalf of
/// stalled durable acknowledgements.
const WAL_KICK_INTERVAL: Duration = Duration::from_millis(1);

fn worker_loop(shared: Arc<Shared>, worker_idx: usize, mut poller: Poller) {
    let slot = Arc::clone(&shared.workers[worker_idx]);
    let notifier: Arc<dyn Fn() + Send + Sync> = {
        let slot = Arc::clone(&slot);
        Arc::new(move || slot.waker.wake())
    };
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_token = 0u64;
    let mut last_wal_kick = Instant::now();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let shutting = shared.shutdown.load(Ordering::SeqCst);
        if shutting && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + shared.config.drain_timeout);
        }

        // Adopt connections the acceptor pinned to this worker.
        let adopted = std::mem::take(
            slot.inbox()
                .as_mut()
                .expect("the inbox stays open while its worker runs"),
        );
        for stream in adopted {
            if stream.set_nonblocking(true).is_err()
                || stream.set_nodelay(true).is_err()
                || poller.add_edge(&stream, next_token).is_err()
            {
                shared.stats.active.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let session = shared.db.client().with_notifier(Arc::clone(&notifier));
            conns.push(Conn::new(stream, next_token, session));
            next_token += 1;
        }

        let mut want_wal_kick = false;
        for conn in conns.iter_mut() {
            service(&shared, conn, worker_idx, shutting, &mut want_wal_kick);
        }

        // A durable acknowledgement is waiting on group commit; nudge the
        // WAL rather than trusting the interval daemon alone, rate-limited
        // per worker.
        if want_wal_kick && last_wal_kick.elapsed() >= WAL_KICK_INTERVAL {
            last_wal_kick = Instant::now();
            let _ = shared.db.wal_sync();
        }

        conns.retain_mut(|conn| {
            let Some(reason) = conn.kill else { return true };
            match reason {
                KillReason::HandshakeRejected => {
                    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                }
                KillReason::Malformed => {
                    shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
                }
                KillReason::Stalled => {
                    shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                KillReason::Gone | KillReason::Drained | KillReason::ReplHandoff => {}
            }
            // Deregister before the drop: a handed-off socket shares its
            // open file description with the feeder's duplicate, and epoll
            // forgets a registration only once every duplicate is closed.
            let _ = poller.delete(&conn.stream);
            // Dropping the connection drops its session and handles; the
            // engine resolves whatever was still in flight on its own, so
            // a mid-run kill leaks nothing.
            shared
                .stats
                .in_flight
                .fetch_sub(conn.inflight.len() as u64, Ordering::Relaxed);
            shared.stats.active.fetch_sub(1, Ordering::Relaxed);
            // A handed-off socket lives on in its feeder thread (the
            // worker's fd is a duplicate); shutting it down here would
            // sever the replication stream.
            if reason != KillReason::ReplHandoff {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            }
            false
        });

        if shutting {
            let deadline_passed = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if conns.is_empty() || deadline_passed {
                // Close the inbox: the acceptor closes any connection it
                // hands over from now on, and those handed over since the
                // last adoption are dropped here.
                let leftover = slot.inbox().take().unwrap_or_default();
                shared
                    .stats
                    .active
                    .fetch_sub(leftover.len() as u64, Ordering::Relaxed);
                return;
            }
            let drained = conns
                .iter()
                .all(|c| c.inflight.is_empty() && c.wbuf.is_empty());
            if drained {
                for conn in conns.iter_mut() {
                    conn.kill = Some(KillReason::Drained);
                }
                continue; // next retain pass closes them
            }
        }

        // Announce the sleep, then re-check everything a wake-up stands
        // for: a waker that fires after the announcement writes the
        // eventfd; one that fired before it left its change visible here.
        slot.waker.prepare_sleep();
        let durable_epoch = shared.db.durable_epoch();
        let mut quorum_epoch = None;
        let ready = shared.shutdown.load(Ordering::SeqCst) != shutting
            || slot.inbox().as_ref().is_some_and(|inbox| !inbox.is_empty())
            || conns
                .iter()
                .any(|c| c.has_work(&shared, shutting, durable_epoch, &mut quorum_epoch));
        if ready {
            slot.waker.awake();
            continue;
        }
        let wal_kick_at = want_wal_kick.then(|| last_wal_kick + WAL_KICK_INTERVAL);
        let deadline = conns
            .iter()
            .filter_map(|c| c.stall_deadline)
            .chain(drain_deadline)
            .chain(wal_kick_at)
            .min();
        let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let events = poller
            .wait(timeout)
            .expect("epoll_wait on the worker's own poller");
        for event in events {
            if event.token == WAKER_TOKEN {
                slot.waker.drain();
            } else if let Ok(idx) = conns.binary_search_by_key(&event.token, |c| c.token) {
                conns[idx].readable |= event.readable();
                conns[idx].writable |= event.writable();
            }
        }
        slot.waker.awake();
    }
}

/// True while a committed `Durable`/`Replicated` invoke waits for its ack
/// point: group commit covering its epoch and, for `Replicated`, a
/// *quorum* of followers having durably applied it. With no WAL configured
/// both levels degrade to validated, like the in-process `wait_durable`.
/// `quorum_epoch` caches the roster lookup across calls.
fn held(
    shared: &Shared,
    pending: &Pending,
    durable_epoch: Option<u64>,
    quorum_epoch: &mut Option<u64>,
) -> bool {
    if !pending.ack.requires_durable() {
        return false;
    }
    let (Some(durable), Some(commit)) = (durable_epoch, pending.handle.commit_epoch()) else {
        return false;
    };
    let replicated = !pending.ack.requires_replicated()
        || commit <= *quorum_epoch.get_or_insert_with(|| shared.repl.quorum_epoch());
    !(commit <= durable && replicated)
}

/// Whether `pending` can be replied to now. Aborts are never durable and
/// reply as soon as they resolve.
fn reply_due(
    shared: &Shared,
    pending: &Pending,
    durable_epoch: Option<u64>,
    quorum_epoch: &mut Option<u64>,
) -> bool {
    if !pending.ack.requires_durable() {
        return pending.handle.is_resolved();
    }
    match pending.handle.try_result() {
        None => false,
        Some(Err(_)) => true,
        Some(Ok(_)) => !held(shared, pending, durable_epoch, quorum_epoch),
    }
}

/// Services one connection once: read, handshake, decode/dispatch, reply
/// to resolved transactions, flush, and check stall deadlines.
fn service(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    worker_idx: usize,
    shutting: bool,
    want_wal_kick: &mut bool,
) {
    if conn.kill.is_some() {
        return;
    }

    let paused = conn.read_paused(shared, shutting);
    if paused {
        // Not our peer's fault we aren't reading; restart its window so
        // the stall clock measures only willing-to-read time.
        conn.last_read = Instant::now();
    } else if conn.readable {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.kill = Some(KillReason::Gone);
                    return;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    conn.last_read = Instant::now();
                    if conn.rbuf.len() >= WBUF_HIGH_WATER {
                        break; // plenty buffered; decode before reading more
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    conn.readable = false;
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.kill = Some(KillReason::Gone);
                    return;
                }
            }
        }
    }

    // Handshake precedes any frame.
    if !conn.handshaken && conn.rbuf.len() >= codec::HANDSHAKE_LEN {
        let mut hello = [0u8; codec::HANDSHAKE_LEN];
        hello.copy_from_slice(&conn.rbuf[..codec::HANDSHAKE_LEN]);
        conn.rbuf.drain(..codec::HANDSHAKE_LEN);
        match codec::parse_client_hello(&hello) {
            Ok(_) => {
                conn.wbuf.extend_from_slice(&codec::server_hello(true));
                conn.handshaken = true;
            }
            Err(codec::WireError::VersionMismatch { .. }) => {
                // Tell the client which version we speak, then hang up.
                let _ = conn.stream.write_all(&codec::server_hello(false));
                conn.kill = Some(KillReason::HandshakeRejected);
                return;
            }
            Err(_) => {
                conn.kill = Some(KillReason::HandshakeRejected);
                return;
            }
        }
    }

    // Decode and dispatch pipelined requests up to the in-flight cap.
    while conn.handshaken && conn.inflight.len() < shared.config.max_in_flight {
        let decode_clock = shared.metrics.clock();
        let (request, consumed) = match codec::decode_frame(&conn.rbuf) {
            Ok(None) => break,
            Ok(Some((payload, consumed))) => match codec::decode_request(payload) {
                Ok(request) => (request, consumed),
                Err(_) => {
                    conn.kill = Some(KillReason::Malformed);
                    return;
                }
            },
            Err(_) => {
                conn.kill = Some(KillReason::Malformed);
                return;
            }
        };
        conn.rbuf.drain(..consumed);
        if let Some(since) = decode_clock {
            shared
                .metrics
                .record_elapsed(Phase::NetDecode, worker_idx, since);
        }
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);

        let dispatch_clock = shared.metrics.clock();
        match request {
            Request::Invoke {
                correlation_id,
                ack,
                reactor,
                procedure,
                args,
            } => match conn.session.submit(&reactor, &procedure, args) {
                Ok(handle) => {
                    shared.stats.in_flight.fetch_add(1, Ordering::Relaxed);
                    conn.inflight.push_back(Pending {
                        correlation_id,
                        handle,
                        ack,
                    });
                }
                Err(error) => reply(
                    shared,
                    conn,
                    worker_idx,
                    &Response::TxnErr {
                        correlation_id,
                        error,
                    },
                ),
            },
            Request::Metrics {
                correlation_id,
                format,
            } => {
                let snap = shared.snapshot();
                let text = match format {
                    MetricsFormat::Prometheus => snap.to_prometheus_text(),
                    MetricsFormat::Json => snap.to_json(),
                };
                reply(
                    shared,
                    conn,
                    worker_idx,
                    &Response::MetricsText {
                        correlation_id,
                        text,
                    },
                );
            }
            Request::Ping { correlation_id } => {
                reply(shared, conn, worker_idx, &Response::Pong { correlation_id })
            }
            Request::ReplSubscribe {
                correlation_id,
                // The primary always ships the full bootstrap (checkpoint
                // chain + durable log); a follower that already applied
                // through `from_epoch` skips those epochs at apply time,
                // so re-shipping is merely redundant, never wrong.
                from_epoch: _,
                follower_id,
            } => {
                subscribe_follower(shared, conn, worker_idx, correlation_id, follower_id);
                return;
            }
            // Acks are read by the feeder on the subscribed connection
            // they belong to; one arriving on an ordinary connection has
            // no registered follower behind it and is dropped — it must
            // not advance any quorum it never subscribed to.
            Request::ReplAck { .. } => {}
        }
        if let Some(since) = dispatch_clock {
            shared
                .metrics
                .record_elapsed(Phase::NetDispatch, worker_idx, since);
        }
    }

    // Reply to every in-flight transaction that reached its ack point, in
    // whatever order they resolved.
    let durable_epoch = shared.db.durable_epoch();
    let mut quorum_epoch: Option<u64> = None;
    let mut still_pending = VecDeque::with_capacity(conn.inflight.len());
    while let Some(pending) = conn.inflight.pop_front() {
        let outcome = match pending.handle.try_result() {
            None => {
                still_pending.push_back(pending);
                continue;
            }
            Some(outcome) => outcome,
        };
        if outcome.is_ok() && held(shared, &pending, durable_epoch, &mut quorum_epoch) {
            *want_wal_kick = true;
            still_pending.push_back(pending);
            continue;
        }
        let response = match outcome {
            Ok(value) => Response::TxnOk {
                correlation_id: pending.correlation_id,
                value,
                commit_epoch: pending.handle.commit_epoch(),
            },
            Err(error) => Response::TxnErr {
                correlation_id: pending.correlation_id,
                error,
            },
        };
        shared.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        reply(shared, conn, worker_idx, &response);
    }
    conn.inflight = still_pending;

    // Flush the send buffer.
    while conn.writable && !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => {
                conn.kill = Some(KillReason::Gone);
                return;
            }
            Ok(n) => {
                conn.wbuf.drain(..n);
                conn.last_write = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => conn.writable = false,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.kill = Some(KillReason::Gone);
                return;
            }
        }
    }

    // Stall deadlines. The read clock only runs while the peer owes us
    // bytes — mid-handshake or with the buffer's first frame incomplete —
    // and only when we were actually willing to read (a connection paused
    // by our own backpressure is not the peer stalling). An idle client
    // with no partial frame may stay connected indefinitely.
    let partial_frame =
        !conn.rbuf.is_empty() && matches!(codec::decode_frame(&conn.rbuf), Ok(None));
    let owes_bytes = !conn.handshaken || partial_frame;
    let read_deadline =
        (!paused && owes_bytes).then(|| conn.last_read + shared.config.read_timeout);
    let write_deadline =
        (!conn.wbuf.is_empty()).then(|| conn.last_write + shared.config.write_timeout);
    conn.stall_deadline = read_deadline.into_iter().chain(write_deadline).min();
    if conn.stall_deadline.is_some_and(|d| Instant::now() >= d) {
        conn.kill = Some(KillReason::Stalled);
    }
}

/// Encodes a response and queues it on the connection's send buffer,
/// recording the reply phase.
fn reply(shared: &Shared, conn: &mut Conn, worker_idx: usize, response: &Response) {
    let clock = shared.metrics.clock();
    let mut payload = codec::encode_response(response);
    if payload.len() > codec::MAX_FRAME_LEN as usize {
        // Too big for one frame (a large metrics render): answer with an
        // error the client can read rather than break the connection.
        payload = codec::encode_response(&Response::ServerError {
            correlation_id: response.correlation_id(),
            message: format!(
                "reply of {} bytes exceeds the {}-byte frame cap",
                payload.len(),
                codec::MAX_FRAME_LEN
            ),
        });
    }
    conn.wbuf.extend_from_slice(&codec::frame(&payload));
    if let Some(since) = clock {
        shared
            .metrics
            .record_elapsed(Phase::NetReply, worker_idx, since);
    }
    shared.stats.responses.fetch_add(1, Ordering::Relaxed);
}

/// Hands a connection that sent `ReplSubscribe` off to a feeder thread.
///
/// The worker's nonblocking poll loop is the wrong shape for a one-way
/// bulk stream, so the subscription gets a dedicated thread working a
/// duplicated socket handle in blocking mode; the worker then forgets the
/// connection via [`KillReason::ReplHandoff`] (which closes the worker's
/// duplicate without shutting the socket down). Whatever responses were
/// still queued on the connection are shipped first, in order.
fn subscribe_follower(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    worker_idx: usize,
    correlation_id: u64,
    follower_id: u64,
) {
    let Some(dir) = shared.db.wal().map(|w| w.dir().to_path_buf()) else {
        // Nothing to ship without a log; tell the follower and move on.
        reply(
            shared,
            conn,
            worker_idx,
            &Response::ReplEnd {
                correlation_id,
                reason: "primary has durability off: nothing to replicate".to_string(),
            },
        );
        return;
    };
    let stream = match conn.stream.try_clone() {
        Ok(stream) => stream,
        Err(_) => {
            conn.kill = Some(KillReason::Gone);
            return;
        }
    };
    let backlog = std::mem::take(&mut conn.wbuf);
    conn.kill = Some(KillReason::ReplHandoff);

    let shared_for_feeder = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("reactdb-repl-feed".into())
        .spawn(move || {
            // The registration guard deregisters on drop, so the follower
            // count and quorum roster stay truthful even if the feeder
            // panics or bails early — the gauge can no longer leak.
            let registration = shared_for_feeder.repl.register_follower(follower_id);
            feeder_loop(
                &shared_for_feeder,
                stream,
                backlog,
                correlation_id,
                follower_id,
                &dir,
            );
            drop(registration);
        });
    match spawned {
        Ok(handle) => shared.feeders.lock().unwrap().push(handle),
        Err(_) => conn.kill = Some(KillReason::Gone),
    }
}

/// Streams the log directory to one follower until the stream ends.
///
/// Blocking socket with a short read timeout: each round ships whatever
/// the [`ShipCursor`] found new, then drains any `ReplAck` frames the
/// follower sent back into [`ReplState::observe_ack`] under this
/// subscription's `follower_id`. A cursor error (e.g. a checkpoint
/// truncated a segment mid-ship) ends the stream with a clean `ReplEnd`
/// so the follower reconnects and resubscribes instead of seeing a
/// connection drop.
///
/// Failpoints (scoped to the log directory's name): `feeder-stall`
/// delays each round (or, armed as `err`, kills the feeder abruptly —
/// no `ReplEnd`, exercising the registration guard), `ack-drop` discards
/// follower acks before they reach the quorum registry.
fn feeder_loop(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
    backlog: Vec<u8>,
    correlation_id: u64,
    follower_id: u64,
    dir: &std::path::Path,
) {
    let fp_scope = dir
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("")
        .to_string();
    let poll_interval = Duration::from_millis(shared.config.replication.poll_interval_ms.max(1));
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(poll_interval)).is_err()
        || stream
            .set_write_timeout(Some(shared.config.write_timeout))
            .is_err()
    {
        return;
    }
    if !backlog.is_empty() && stream.write_all(&backlog).is_err() {
        return;
    }
    // Chunks must fit the wire frame cap with room for the envelope.
    let chunk = shared
        .config
        .replication
        .chunk_bytes
        .min(codec::MAX_FRAME_LEN as usize / 2);
    let mut cursor = ShipCursor::new(dir, chunk);
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk_buf = [0u8; 16 * 1024];

    let send = |stream: &mut TcpStream, shared: &Shared, response: &Response| -> bool {
        let clock = shared.metrics.clock();
        let framed = codec::frame(&codec::encode_response(response));
        if stream.write_all(&framed).is_err() {
            return false;
        }
        if let Some(since) = clock {
            shared
                .metrics
                .record_elapsed(Phase::NetReplicate, usize::MAX, since);
        }
        shared.stats.responses.fetch_add(1, Ordering::Relaxed);
        true
    };

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = send(
                &mut stream,
                shared,
                &Response::ReplEnd {
                    correlation_id,
                    reason: "primary shutting down".to_string(),
                },
            );
            return;
        }
        // A `stall` spec sleeps inside `fire_scoped`; an `err` spec kills
        // the feeder abruptly, as a panic or a crashed thread would.
        if matches!(
            reactdb_wal::failpoint::fire_scoped("feeder-stall", &fp_scope),
            Some(reactdb_wal::failpoint::FpAction::Err)
        ) {
            return;
        }

        let events = match cursor.poll() {
            Ok(events) => events,
            Err(e) => {
                let _ = send(
                    &mut stream,
                    shared,
                    &Response::ReplEnd {
                        correlation_id,
                        reason: e.to_string(),
                    },
                );
                return;
            }
        };
        let idle = events.is_empty();
        for event in events {
            let response = match event {
                ShipEvent::File {
                    name,
                    offset,
                    bytes,
                } => Response::ReplFile {
                    correlation_id,
                    name,
                    offset,
                    bytes,
                },
                ShipEvent::DurableEpoch(epoch) => Response::ReplEpoch {
                    correlation_id,
                    epoch,
                },
            };
            if !send(&mut stream, shared, &response) {
                return;
            }
        }

        // Drain follower acknowledgements. The read timeout doubles as the
        // idle pacing: an idle round blocks here for one poll interval.
        loop {
            match stream.read(&mut chunk_buf) {
                Ok(0) => return, // follower hung up
                Ok(n) => {
                    rbuf.extend_from_slice(&chunk_buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
            if !idle {
                break; // more shipping to do; don't linger on the socket
            }
        }
        loop {
            match codec::decode_frame(&rbuf) {
                Ok(None) => break,
                Ok(Some((payload, consumed))) => {
                    match codec::decode_request(payload) {
                        Ok(Request::ReplAck { applied_epoch, .. }) => {
                            // `ack-drop`: the follower applied and acked,
                            // but the primary never hears it — the quorum
                            // gate must stall, not lie.
                            if reactdb_wal::failpoint::fire_scoped("ack-drop", &fp_scope)
                                != Some(reactdb_wal::failpoint::FpAction::Err)
                            {
                                shared.repl.observe_ack(follower_id, applied_epoch);
                                // The quorum epoch may have moved past a
                                // held `Replicated` reply.
                                shared.wake_workers();
                            }
                        }
                        Ok(_) => {} // a subscribed connection is repl-only
                        Err(_) => return,
                    }
                    rbuf.drain(..consumed);
                }
                Err(_) => return,
            }
        }
    }
}
