//! Engine-level benchmarks on the real runtime (Appendix F.3's
//! containerization-overhead measurement and a Smallbank multi-transfer on
//! the live engine). Absolute numbers depend on the host; the interesting
//! quantity is the per-invocation overhead of an (almost) empty transaction.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use reactdb_common::{DeploymentConfig, TracingConfig, Value};
use reactdb_core::{ReactorDatabaseSpec, ReactorType};
use reactdb_engine::{Client, ReactDB};
use reactdb_workloads::smallbank;

fn empty_txn_db() -> ReactDB {
    let ty = ReactorType::new("Empty").with_procedure("noop", |_ctx, _args| Ok(Value::Null));
    let mut spec = ReactorDatabaseSpec::new();
    spec.add_type(ty);
    spec.add_reactor("empty-0", "Empty");
    ReactDB::boot(spec, DeploymentConfig::shared_everything_with_affinity(1))
}

fn bench_engine(c: &mut Criterion) {
    // Appendix F.3: overhead of an empty transaction invocation through the
    // full container/executor/commit path (client session API).
    let db = empty_txn_db();
    let client = db.client();
    c.bench_function("engine/empty_transaction_overhead", |b| {
        b.iter(|| client.invoke("empty-0", "noop", vec![]).unwrap())
    });

    // A size-3 multi-transfer (opt formulation) on the live engine under a
    // shared-nothing deployment.
    let customers = 16;
    let bank = ReactDB::boot(
        smallbank::spec(customers),
        DeploymentConfig::shared_nothing(4),
    );
    smallbank::load(&bank, customers).unwrap();
    let bank_client = bank.client();
    c.bench_function("engine/smallbank_multi_transfer_opt_size3", |b| {
        b.iter(|| {
            bank_client
                .invoke(
                    &smallbank::customer_name(0),
                    "multi_transfer_opt",
                    smallbank::multi_transfer_invocation(0, &[1, 2, 3], 0.01),
                )
                .unwrap()
        })
    });
}

/// Transactions per timed sample of the tracing-overhead measurement.
const OVERHEAD_BATCH: usize = 400;
/// Interleaved samples per variant; the minimum over these is compared.
const OVERHEAD_ROUNDS: usize = 7;
/// Hard ceiling on the tracing-on / tracing-off time ratio (the <5%
/// overhead guard of the observability layer).
const OVERHEAD_LIMIT: f64 = 1.05;

fn smallbank_db(tracing: TracingConfig) -> (ReactDB, Client) {
    let customers = 16;
    let db = ReactDB::boot(
        smallbank::spec(customers),
        DeploymentConfig::shared_nothing(4).with_tracing(tracing),
    );
    smallbank::load(&db, customers).unwrap();
    let client = db.client();
    (db, client)
}

/// Seconds for one batch of size-3 multi-transfers through the full
/// client/executor/commit path.
fn overhead_batch_secs(client: &Client) -> f64 {
    let started = Instant::now();
    for _ in 0..OVERHEAD_BATCH {
        client
            .invoke(
                &smallbank::customer_name(0),
                "multi_transfer_opt",
                smallbank::multi_transfer_invocation(0, &[1, 2, 3], 0.01),
            )
            .unwrap();
    }
    started.elapsed().as_secs_f64()
}

/// The observability overhead guard: the same Smallbank multi-transfer
/// workload on two identically deployed databases, one with tracing on
/// (the default) and one with `TracingConfig::off()`. Samples interleave
/// round-robin so CPU-frequency drift hits both variants equally, and the
/// best (minimum) sample per variant is compared — minimum time is the
/// standard low-noise estimator for this kind of A/B gate. Panics (failing
/// the bench job) when tracing costs more than 5%.
fn bench_tracing_overhead(c: &mut Criterion) {
    let (db_on, client_on) = smallbank_db(TracingConfig::default());
    let (_db_off, client_off) = smallbank_db(TracingConfig::off());

    // Warm both paths (thread spawn, table touch, allocator) before timing.
    overhead_batch_secs(&client_on);
    overhead_batch_secs(&client_off);

    let mut best_on = f64::MAX;
    let mut best_off = f64::MAX;
    for _ in 0..OVERHEAD_ROUNDS {
        best_off = best_off.min(overhead_batch_secs(&client_off));
        best_on = best_on.min(overhead_batch_secs(&client_on));
    }
    let ratio = best_on / best_off;
    println!(
        "engine/tracing_overhead: on {:.1}µs/txn, off {:.1}µs/txn, ratio {ratio:.4}",
        best_on / OVERHEAD_BATCH as f64 * 1e6,
        best_off / OVERHEAD_BATCH as f64 * 1e6,
    );
    assert!(
        ratio < OVERHEAD_LIMIT,
        "tracing hot path costs {:.1}% (limit {:.0}%)",
        (ratio - 1.0) * 100.0,
        (OVERHEAD_LIMIT - 1.0) * 100.0
    );

    // The client-observed invoke round trip from the tracing-on run:
    // session wait spans submit to result, so it covers queueing, execution
    // and the commit path together (single-threaded submission keeps the
    // queueing share small).
    let snapshot = db_on.metrics();
    if let Some(h) = snapshot.histogram("phase_session_wait_ns") {
        emit_metric("engine/invoke_roundtrip_p50_ns", h.p50_ns as f64, h.count);
        emit_metric("engine/invoke_roundtrip_p99_ns", h.p99_ns as f64, h.count);
    }
    // As a percentage: the shim's writer keeps one decimal, which would
    // flatten a ratio like 1.013 to 1.0.
    emit_metric(
        "engine/tracing_overhead_pct",
        (ratio - 1.0) * 100.0,
        (OVERHEAD_BATCH * OVERHEAD_ROUNDS) as u64,
    );

    // Registered as a criterion benchmark too, so the ratio's inputs show
    // up alongside the other engine numbers in BENCH_results.json.
    c.bench_function("engine/multi_transfer_opt_tracing_on", |b| {
        b.iter(|| {
            client_on
                .invoke(
                    &smallbank::customer_name(0),
                    "multi_transfer_opt",
                    smallbank::multi_transfer_invocation(0, &[1, 2, 3], 0.01),
                )
                .unwrap()
        })
    });
}

/// Appends a machine-readable result line through the criterion shim's
/// JSON-lines writer (value carried in `ns_per_iter`), so CI's
/// `BENCH_results.json` records the commit-path percentiles and the
/// overhead ratio per commit.
fn emit_metric(name: &str, value: f64, iterations: u64) {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    criterion::append_json_line(&path, name, value, iterations);
}

criterion_group!(benches, bench_engine, bench_tracing_overhead);
criterion_main!(benches);
