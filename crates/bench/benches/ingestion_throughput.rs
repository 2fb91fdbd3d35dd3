//! Ingestion-plane throughput of the per-shard rings: per-job against
//! batched submission.
//!
//! Two configurations of the same engine, workload, and algorithm:
//!
//! * **per-job** — one blocking `submit` per job (one ring publish per
//!   job);
//! * **batched** — the compact `submit_batch_into` API: routed batches
//!   published into the per-shard rings with one lock acquisition and
//!   one release store per shard, no per-submission allocation.
//!
//! The artifact (`BENCH_ingest.json`) also certifies that the two
//! submission paths produce bit-identical decision streams on this
//! workload (flight-recorder comparison, wall-clock fields excluded) —
//! how jobs are submitted must never change an admission decision.
//!
//! Knobs: `CSLACK_BENCH_QUICK=1` shrinks the workload for the CI smoke
//! check; `CSLACK_BENCH_INGEST_OUT` overrides the output path.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cslack_algorithms::{OnlineScheduler, Threshold};
use cslack_engine::{Engine, EngineConfig, EngineReport, FlightConfig, ObsConfig};
use cslack_kernel::Instance;
use cslack_obs::DecisionEvent;
use cslack_workloads::WorkloadSpec;
use serde::Serialize;

const M: usize = 8;
const EPS: f64 = 0.25;
const N: usize = 20_000;
const SHARDS: usize = 4;

fn quick_mode() -> bool {
    std::env::var("CSLACK_BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn start(instance_n: usize, flight: bool) -> Engine {
    let obs = ObsConfig {
        flight: flight
            .then(|| FlightConfig::new(instance_n.div_ceil(SHARDS), "threshold", EPS, 42)),
        ..ObsConfig::default()
    };
    Engine::start_observed(M, EngineConfig::new(SHARDS), obs, |_, g| {
        Box::new(Threshold::new(g, EPS)) as Box<dyn OnlineScheduler>
    })
    .expect("engine start")
}

/// The per-job path: one blocking `submit` per job.
fn run_perjob(instance: &Instance, flight: bool) -> EngineReport {
    let engine = start(instance.len(), flight);
    for job in instance.jobs() {
        engine.submit(*job).expect("submit");
    }
    engine.finish().expect("drain")
}

/// The batched path: compact `submit_batch_into`, one routed publish
/// per chunk per shard, failures (none expected here) via out-buffer.
fn run_batched(instance: &Instance, flight: bool) -> EngineReport {
    let engine = start(instance.len(), flight);
    let mut failures = Vec::new();
    for chunk in instance.jobs().chunks(256) {
        assert_eq!(
            engine.submit_batch_into(chunk, &mut failures),
            chunk.len(),
            "healthy engine enqueues everything"
        );
    }
    engine.finish().expect("drain")
}

fn best_dps(rounds: usize, mut run: impl FnMut() -> EngineReport) -> f64 {
    (0..rounds)
        .map(|_| run().metrics.decisions_per_sec)
        .fold(0.0f64, f64::max)
}

/// Strips the wall-clock fields so the two paths' streams compare
/// equal; everything semantic (order, decision, commitment) stays.
fn timeless(e: &DecisionEvent) -> DecisionEvent {
    let mut e = e.clone();
    e.latency_ns = 0;
    e.queue_wait_ns = 0;
    e
}

/// Runs both submission paths with the flight recorder on and
/// compares the full per-shard decision streams.
fn streams_identical(instance: &Instance) -> bool {
    let stream = |report: EngineReport| -> Vec<DecisionEvent> {
        let snap = report.flight.expect("flight recording requested");
        let mut stream: Vec<DecisionEvent> = snap.decisions().into_iter().map(timeless).collect();
        stream.sort_by_key(|d| (d.shard, d.seq));
        stream
    };
    stream(run_perjob(instance, true)) == stream(run_batched(instance, true))
}

/// The per-job vs batched ingestion record in `BENCH_ingest.json`.
#[derive(Serialize)]
struct IngestArtifact {
    m: usize,
    eps: f64,
    n: usize,
    shards: usize,
    rounds: usize,
    /// One blocking `submit` per job.
    perjob_dps: f64,
    /// Batched `submit_batch_into`: one routed ring publish per chunk
    /// per shard.
    ring_dps: f64,
    /// `ring_dps / perjob_dps` — what batching buys.
    speedup_vs_perjob: f64,
    /// Per-job and batched submission produced bit-identical decision
    /// streams on this workload. Must always be `true`.
    decision_streams_identical: bool,
}

fn write_ingest_artifact() {
    let (n, rounds) = if quick_mode() { (2_000, 2) } else { (N, 5) };
    let instance = WorkloadSpec::default_spec(M, EPS, n, 42)
        .generate()
        .expect("ingest workload");
    // Warm code paths and page in ring memory before measuring.
    run_batched(&instance, false);
    let perjob_dps = best_dps(rounds, || run_perjob(&instance, false));
    let ring_dps = best_dps(rounds, || run_batched(&instance, false));
    let artifact = IngestArtifact {
        m: M,
        eps: EPS,
        n,
        shards: SHARDS,
        rounds,
        perjob_dps,
        ring_dps,
        speedup_vs_perjob: ring_dps / perjob_dps.max(f64::MIN_POSITIVE),
        decision_streams_identical: streams_identical(&instance),
    };
    let path = std::env::var("CSLACK_BENCH_INGEST_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json").to_string()
    });
    let json = serde_json::to_string_pretty(&artifact).expect("serialize ingest artifact");
    std::fs::write(&path, json + "\n").expect("write BENCH_ingest.json");
    println!(
        "ingestion m={M} shards={SHARDS}: per-job {:.0}/s -> batched {:.0}/s ({:.2}x), \
         streams identical: {} [{}]",
        artifact.perjob_dps,
        artifact.ring_dps,
        artifact.speedup_vs_perjob,
        artifact.decision_streams_identical,
        path,
    );
}

fn ingestion_throughput(c: &mut Criterion) {
    if quick_mode() {
        write_ingest_artifact();
        return;
    }
    let instance = WorkloadSpec::default_spec(M, EPS, N, 42)
        .generate()
        .expect("bench workload");
    let mut group = c.benchmark_group("ingestion_20k_jobs");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function(BenchmarkId::from_parameter("ring-perjob"), |b| {
        b.iter(|| black_box(run_perjob(&instance, false)));
    });
    group.bench_function(BenchmarkId::from_parameter("ring-batched"), |b| {
        b.iter(|| black_box(run_batched(&instance, false)));
    });
    group.finish();
    write_ingest_artifact();
}

criterion_group!(benches, ingestion_throughput);
criterion_main!(benches);
