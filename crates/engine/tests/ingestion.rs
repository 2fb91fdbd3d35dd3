//! Ingestion-plane contracts of the per-shard rings.
//!
//! * **Order** — multi-producer routing into rings preserves each
//!   producer's per-shard submission order (batches publish whole, a
//!   blocking `submit` returns only after its job is visible).
//! * **Backpressure** — a full ring is a deterministic, typed
//!   [`SubmitError::Full`]: with the worker wedged, exactly
//!   `queue_capacity` jobs fit and the next `try_submit` bounces with
//!   the job handed back.
//! * **Equivalence** — for a fixed instance and shard count, per-job
//!   and batched submission produce bit-identical decision streams
//!   (same `(shard, seq)` order, same decisions, same commitments),
//!   and the recording replays bit-identically.
//! * **Faults** — a shard panic drains the shard's ring,
//!   accounts the queued-but-undecided jobs, writes the crash snapshot
//!   at failure time, and still finishes degraded.

use cslack_algorithms::{Decision, Greedy, OnlineScheduler, Threshold};
use cslack_engine::{
    Engine, EngineConfig, EngineReport, FailureKind, FlightConfig, IngestConfig, ObsConfig,
    SubmitError,
};
use cslack_kernel::{validate_schedule, Job, JobId, Time};
use cslack_obs::flight::FlightSnapshot;
use cslack_obs::DecisionEvent;
use cslack_sim::fault::{FaultSpec, FaultyScheduler};
use cslack_workloads::WorkloadSpec;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

const M: usize = 8;
const EPS: f64 = 0.4;

fn loose_job(id: u32) -> Job {
    Job::new(JobId(id), Time::ZERO, 1.0, Time::new(1e9))
}

fn flight_obs(capacity: usize) -> ObsConfig {
    ObsConfig {
        flight: Some(FlightConfig::new(capacity, "test", EPS, 0)),
        ..ObsConfig::default()
    }
}

/// Strips the wall-clock fields so two runs of the same logical stream
/// compare equal; everything semantic (order, decision, commitment)
/// stays.
fn timeless(e: &DecisionEvent) -> DecisionEvent {
    let mut e = e.clone();
    e.latency_ns = 0;
    e.queue_wait_ns = 0;
    e
}

/// Many producers, each with a strictly increasing job-id stream, all
/// routed into the same shards concurrently: within every shard's
/// arrival stream, each producer's jobs must still appear in that
/// producer's submission order, and the per-shard sequence numbers must
/// be gap-free.
#[test]
fn ring_preserves_per_producer_order_within_each_shard() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: u32 = 500;
    let shards = 2; // divides PRODUCERS: two producers interleave per shard
    let engine = Engine::start_with_ingest(
        M,
        EngineConfig::new(shards),
        IngestConfig::default(),
        flight_obs(PRODUCERS * PER_PRODUCER as usize),
        |_, g| Box::new(Greedy::new(g)),
    )
    .unwrap();

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS as u32 {
            let engine = &engine;
            scope.spawn(move || {
                for i in 0..PER_PRODUCER {
                    engine.submit(loose_job(p + i * PRODUCERS as u32)).unwrap();
                }
            });
        }
    });
    let report = engine.finish().unwrap();
    let snap = report.flight.expect("flight recording requested");

    for shard in 0..shards {
        let mut stream: Vec<&DecisionEvent> = snap
            .decisions()
            .into_iter()
            .filter(|d| d.shard == shard)
            .collect();
        stream.sort_by_key(|d| d.seq);
        assert_eq!(
            stream.len() as u32,
            PRODUCERS as u32 / shards as u32 * PER_PRODUCER,
            "shard {shard} decided every job routed to it"
        );
        for (i, d) in stream.iter().enumerate() {
            assert_eq!(d.seq, i as u64, "gap-free per-shard sequence");
        }
        // Per-producer subsequences are in submission order.
        for p in 0..PRODUCERS as u32 {
            let ids: Vec<u32> = stream
                .iter()
                .filter(|d| d.job % PRODUCERS as u32 == p)
                .map(|d| d.job)
                .collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "producer {p}'s jobs reordered within shard {shard}: {ids:?}"
            );
        }
    }
}

/// A scheduler that announces its first offer and then wedges until the
/// test drops the release channel — freezing the worker mid-decision so
/// the queue fills deterministically behind it.
struct Wedge {
    started: mpsc::Sender<()>,
    release: Arc<Mutex<mpsc::Receiver<()>>>,
}

impl OnlineScheduler for Wedge {
    fn name(&self) -> &'static str {
        "wedge"
    }

    fn machines(&self) -> usize {
        1
    }

    fn offer(&mut self, _job: &Job) -> Decision {
        let _ = self.started.send(());
        // Blocks until the test drops its sender; instant afterwards.
        let _ = self.release.lock().unwrap().recv();
        Decision::Reject
    }

    fn reset(&mut self) {}
}

/// With the single worker wedged on job 0 (already taken out of the
/// ring), exactly `capacity` further jobs fit; the next `try_submit`
/// is a typed `Full` that hands the job back.
#[test]
fn ring_full_backpressure_is_deterministic() {
    const CAP: usize = 8;
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release = Arc::new(Mutex::new(release_rx));
    let mut config = EngineConfig::new(1);
    config.queue_capacity = CAP;
    let engine = Engine::start_observed(1, config, ObsConfig::default(), {
        let started = started_tx.clone();
        let release = Arc::clone(&release);
        move |_, _| {
            Box::new(Wedge {
                started: started.clone(),
                release: Arc::clone(&release),
            })
        }
    })
    .unwrap();

    engine.try_submit(loose_job(0)).unwrap();
    started_rx.recv().expect("worker reached the scheduler");
    // The worker holds job 0 and is wedged; the ring is empty.
    for id in 1..=CAP as u32 {
        engine
            .try_submit(loose_job(id))
            .unwrap_or_else(|e| panic!("job {id} must fit: {e}"));
    }
    match engine.try_submit(loose_job(CAP as u32 + 1)) {
        Err(SubmitError::Full(job)) => {
            assert_eq!(job.id, JobId(CAP as u32 + 1), "the job comes back intact");
        }
        other => panic!("expected Full, got {other:?}"),
    }
    drop(release_tx); // un-wedge: every blocked recv fails fast
    let report = engine.finish().unwrap();
    assert_eq!(
        report.metrics.submitted,
        CAP as u64 + 1,
        "the bounced job never reached a ring"
    );
}

/// Same instance, same shard count: per-job `submit` and batched
/// `submit_batch_into` (chunks of 64, straddling shards) must produce
/// bit-identical decision streams — identical `(shard, seq)`
/// interleavings, decisions, thresholds, and commitments (only
/// wall-clock latency fields may differ) — and the recording must
/// replay bit-identically.
#[test]
fn perjob_and_batched_decision_streams_are_identical_and_replay() {
    let n = 2_000;
    let inst = WorkloadSpec::default_spec(M, EPS, n, 7)
        .generate()
        .expect("workload generation");
    let shards = 4;
    let start = || {
        Engine::start_with_ingest(
            M,
            EngineConfig::new(shards),
            IngestConfig::default(),
            flight_obs(n),
            |_, g| Box::new(Threshold::new(g, EPS)),
        )
        .unwrap()
    };
    let stream = |report: &EngineReport| -> Vec<DecisionEvent> {
        assert!(validate_schedule(&inst, &report.schedule).is_valid());
        let snap = report.flight.as_ref().expect("flight recording requested");
        let mut stream: Vec<DecisionEvent> = snap.decisions().into_iter().map(timeless).collect();
        stream.sort_by_key(|d| (d.shard, d.seq));
        stream
    };

    let engine = start();
    for job in inst.jobs() {
        engine.submit(*job).unwrap();
    }
    let perjob = engine.finish().unwrap();

    let engine = start();
    let mut failures = Vec::new();
    for chunk in inst.jobs().chunks(64) {
        assert_eq!(
            engine.submit_batch_into(chunk, &mut failures),
            chunk.len(),
            "healthy engine enqueues everything"
        );
    }
    let batched = engine.finish().unwrap();

    assert_eq!(perjob.metrics.accepted, batched.metrics.accepted);
    assert!(batched.metrics.accepted > 0, "degenerate run");
    assert_eq!(
        stream(&perjob),
        stream(&batched),
        "per-job vs batched decision streams diverged"
    );
    let snap = batched.flight.as_ref().unwrap();
    let replay =
        cslack_sim::audit::replay_snapshot(snap, |_, g| Box::new(Threshold::new(g, EPS))).unwrap();
    assert!(replay.is_identical(), "{:?}", replay.divergence);
    assert_eq!(replay.decisions_replayed, n as u64);
}

/// Chaos on an explicitly sized ring: a shard panic mid-stream
/// drains its ring (lost jobs accounted, producers unblocked), writes
/// the crash snapshot at failure time, and the run still finishes
/// degraded with the healthy shard's schedule intact.
#[test]
fn ring_shard_panic_drains_ring_and_writes_crash_snapshot() {
    let path = std::env::temp_dir().join(format!("cslack-ingest-crash-{}.cfr", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut flight = FlightConfig::new(1 << 12, "greedy", EPS, 0);
    flight.snapshot_on_error = Some(path.clone());
    let spec: FaultSpec = "panic@5".parse().unwrap();
    let mut config = EngineConfig::new(2);
    config.queue_capacity = 64;
    let engine = Engine::start_observed(
        4,
        config,
        ObsConfig {
            flight: Some(flight),
            ..ObsConfig::default()
        },
        move |shard, g| {
            let inner: Box<dyn OnlineScheduler> = Box::new(Greedy::new(g));
            if shard == 0 {
                Box::new(FaultyScheduler::new(inner, spec))
            } else {
                inner
            }
        },
    )
    .unwrap();

    let mut bounced = 0u64;
    for id in 0..400 {
        match engine.submit(loose_job(id)) {
            Ok(()) => {}
            Err(SubmitError::ShardFailed(j)) => {
                assert_eq!(j.id, JobId(id), "the job comes back with the error");
                bounced += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(
        path.exists(),
        "crash snapshot must be written at failure time, before finish"
    );

    let report = engine.finish().expect("degraded, not dead");
    assert!(report.is_degraded());
    let f = &report.degraded[0];
    assert_eq!((f.shard, f.kind), (0, FailureKind::Panic));
    // Conservation: shard 0's 200 even-id jobs are decided before the
    // fault (`seq`), the failing one, lost from its ring/batch at the
    // fault, or bounced at submission afterwards — never more.
    assert!(
        f.seq + 1 + f.queued_lost + bounced <= 200,
        "lost accounting exceeds the shard's share: {f} bounced={bounced}"
    );
    assert!(bounced > 0, "late submissions must bounce, not hang");
    assert!(report.metrics.accepted > 0, "healthy shard kept serving");

    let mut file = std::fs::File::open(&path).unwrap();
    let snap = FlightSnapshot::read_cfr(&mut file).unwrap();
    assert!(
        snap.decisions().iter().any(|d| d.shard == 0),
        "crash snapshot carries the failing shard's stream"
    );
    let _ = std::fs::remove_file(&path);
}
