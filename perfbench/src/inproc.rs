//! Load loops over the in-process `Client`: idle, open and closed.
//!
//! Every loop sends a request again after a concurrency-control abort
//! (see [`Outcomes::retry`]); its latency runs from the first send (or its
//! due time) to its final resolution.

use std::time::{Duration, Instant};

use reactdb_common::{Result, Value};
use reactdb_engine::TxnHandle;

use crate::harness::{sleep_until, Outcomes, Round, REQUEST_TIMEOUT};

/// A stream of root transactions generated from the run's seed.
pub trait Load {
    /// One request: what the driver needs to send it, and to send it
    /// again.
    type Tag;
    /// Generates the next request.
    fn next(&mut self) -> Self::Tag;
    /// Sends a request.
    fn send(&mut self, tag: &Self::Tag) -> Result<TxnHandle>;
    /// Learns how a request ended, and its commit epoch when it has one.
    fn done(&mut self, _tag: Self::Tag, _result: &Result<Value>, _epoch: Option<u64>) {}
}

/// A request in flight: its handle, the time it counts from, what it is,
/// and how many times it was sent.
struct InFlight<T> {
    handle: TxnHandle,
    since: Instant,
    tag: T,
    attempts: u32,
}

/// Sends a new request; a send that fails at once is recorded as the
/// request's outcome.
fn start<L: Load>(load: &mut L, since: Instant, out: &mut Outcomes) -> Option<InFlight<L::Tag>> {
    let tag = load.next();
    match load.send(&tag) {
        Ok(handle) => Some(InFlight {
            handle,
            since,
            tag,
            attempts: 1,
        }),
        Err(e) => {
            let e = Err(e);
            out.record(&e);
            load.done(tag, &e, None);
            None
        }
    }
}

/// Resolves a request that ended with `result`: sends it again after a
/// concurrency-control abort (keeping it in flight, `true`), otherwise
/// records its outcome (`false`).
fn settle<L: Load>(
    load: &mut L,
    req: &mut Option<InFlight<L::Tag>>,
    result: Result<Value>,
    out: &mut Outcomes,
) -> bool {
    let r = req.as_mut().expect("a request in flight");
    if out.retry(&result, r.attempts) {
        r.attempts += 1;
        match load.send(&r.tag) {
            Ok(handle) => {
                r.handle = handle;
                return true;
            }
            Err(e) => return settle(load, req, Err(e), out),
        }
    }
    let r = req.take().expect("a request in flight");
    out.record(&result);
    load.done(r.tag, &result, r.handle.commit_epoch());
    false
}

/// The idle phase: one request outstanding at a time; `wait` blocks until
/// a request is acknowledged. A traced run spans every other request, so
/// the untraced half measures the spans' own overhead.
pub fn idle<L: Load>(
    duration: Duration,
    trace: bool,
    load: &mut L,
    wait: impl Fn(&TxnHandle) -> Result<Value>,
) -> Round {
    let mut r = Round::default();
    let end = Instant::now() + duration;
    let mut i = 0u64;
    while Instant::now() < end {
        let spanned = trace && i % 2 == 1;
        i += 1;
        let t0 = Instant::now();
        let mut req = start(load, t0, &mut r.out);
        let t1 = Instant::now();
        while let Some(f) = &req {
            let result = wait(&f.handle);
            settle(load, &mut req, result, &mut r.out);
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

/// An open loop: requests are due at a fixed `rate` for `duration` and
/// each is timed from its due time until `acked` first reports it
/// resolved. The driver checks every request in flight every `poll`, so
/// a latency reads at most `poll` late. Also records how late the
/// generator sent each request.
pub fn open<L: Load>(
    duration: Duration,
    rate: f64,
    poll: Duration,
    load: &mut L,
    acked: impl Fn(&TxnHandle) -> Option<Result<Value>>,
) -> Round {
    let mut r = Round::default();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start_at = Instant::now();
    let end = start_at + duration;
    let mut inflight: Vec<Option<InFlight<L::Tag>>> = Vec::new();
    let mut sent = 0u32;
    loop {
        let mut now = Instant::now();
        let mut due = start_at + interval * sent;
        while due <= now && due < end {
            r.late.push(now - due);
            inflight.extend(start(load, due, &mut r.out).map(Some));
            sent += 1;
            due = start_at + interval * sent;
            now = Instant::now();
        }
        let mut i = 0;
        while i < inflight.len() {
            let f = inflight[i].as_ref().expect("a request in flight");
            let since = f.since;
            if let Some(result) = acked(&f.handle) {
                if !settle(load, &mut inflight[i], result, &mut r.out) {
                    r.lat.push(now - since);
                    inflight.swap_remove(i);
                    continue;
                }
            } else if now - since > REQUEST_TIMEOUT {
                inflight.swap_remove(i);
                r.out.record_timeout();
                continue;
            }
            i += 1;
        }
        if due >= end && inflight.is_empty() {
            break;
        }
        let next_poll = now + poll;
        sleep_until(if inflight.is_empty() || (due < end && due < next_poll) {
            due
        } else {
            next_poll
        });
    }
    r
}

/// A closed loop keeping `window` requests in flight until `until` says
/// to stop sending (given the time and the requests sent so far); `wait`
/// blocks until a request is acknowledged.
pub fn closed<L: Load>(
    window: usize,
    load: &mut L,
    mut until: impl FnMut(Instant, u64) -> bool,
    wait: impl Fn(&TxnHandle) -> Result<Value>,
) -> Round {
    let mut r = Round::default();
    let mut inflight = std::collections::VecDeque::new();
    let mut sent = 0u64;
    loop {
        while inflight.len() < window && !until(Instant::now(), sent) {
            sent += 1;
            inflight.extend(start(load, Instant::now(), &mut r.out).map(Some));
        }
        let Some(mut req) = inflight.pop_front() else {
            break;
        };
        let result = wait(&req.as_ref().expect("a request in flight").handle);
        if settle(load, &mut req, result, &mut r.out) {
            inflight.push_back(req);
        }
    }
    r
}
