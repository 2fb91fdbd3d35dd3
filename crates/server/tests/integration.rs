//! End-to-end server tests: the wire decision stream is bit-identical
//! to an in-process engine run, flight snapshots fetched over HTTP
//! replay cleanly, and one tenant's faults or quota pressure never
//! touch another tenant.

use cslack_engine::{Engine, EngineConfig, ObsConfig};
use cslack_obs::flight::StampedDecision;
use cslack_obs::timeline::Stage;
use cslack_server::client::Connection;
use cslack_server::proto::{Frame, RejectCode, TenantSummary, WireJob};
use cslack_server::{Server, ServerConfig, TenantSpec};
use cslack_sim::fault::FaultSpec;
use cslack_sim::sweep::AlgoKind;
use cslack_workloads::WorkloadSpec;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const EPHEMERAL: &str = "127.0.0.1:0";

fn start_server(tenants: Vec<TenantSpec>, telemetry: bool) -> Server {
    Server::start(ServerConfig {
        listen: EPHEMERAL.parse().unwrap(),
        telemetry: telemetry.then(|| EPHEMERAL.parse().unwrap()),
        tenants,
    })
    .expect("server starts")
}

fn wire_jobs(m: usize, eps: f64, n: usize, seed: u64) -> Vec<WireJob> {
    WorkloadSpec::default_spec(m, eps, n, seed)
        .generate()
        .expect("workload generates")
        .jobs()
        .iter()
        .map(|j| WireJob {
            id: j.id.0,
            release: j.release.raw(),
            proc_time: j.proc_time,
            deadline: j.deadline.raw(),
        })
        .collect()
}

/// What one connection saw while pushing a workload through a tenant.
#[derive(Default)]
struct RunOutcome {
    decisions: Vec<StampedDecision>,
    rejects: Vec<(Option<u32>, RejectCode)>,
    backpressured: u64,
    summary: Option<TenantSummary>,
}

/// Submits `jobs` in batches, then drains, collecting every frame the
/// server streams back until the summary arrives.
fn push_and_drain(conn: &mut Connection, jobs: &[WireJob], batch: usize) -> RunOutcome {
    for chunk in jobs.chunks(batch) {
        conn.send(&Frame::SubmitBatch {
            jobs: chunk.to_vec(),
            client_send_ns: 7_777,
        })
        .expect("submit");
    }
    conn.send(&Frame::Drain).expect("drain");
    let mut out = RunOutcome::default();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "server never sent the summary");
        match conn.recv().expect("stream stays whole until the summary") {
            Frame::Decision(event) => out.decisions.push(event),
            Frame::Reject { job, code, .. } => out.rejects.push((job, code)),
            Frame::Backpressure { refused, .. } => out.backpressured += u64::from(refused),
            Frame::Summary(summary) => {
                out.summary = Some(summary);
                return out;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

/// The deterministic fields of a decision — timings excluded, since
/// wall-clock latency legitimately differs between runs.
type DecisionKey = (usize, u64, u32, bool, Option<u32>, Option<f64>);

fn keys(mut events: Vec<StampedDecision>) -> Vec<DecisionKey> {
    events.sort_by_key(|e| (e.shard, e.seq));
    events
        .into_iter()
        .map(|e| (e.shard, e.seq, e.job, e.accepted, e.machine, e.start))
        .collect()
}

/// Minimal HTTP GET returning (status line, body bytes).
fn http_get(addr: SocketAddr, path: &str) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("telemetry reachable");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body split");
    let head = String::from_utf8_lossy(&response[..split]);
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, response[split + 4..].to_vec())
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/// The tentpole contract: for a fixed seed and workload, the decision
/// stream observed over the network is bit-identical (in every
/// deterministic field) to an in-process engine run, and the flight
/// snapshot fetched over HTTP replays bit-identically offline.
#[test]
fn wire_decision_stream_matches_in_process_engine() {
    let (m, eps, n, seed, shards) = (4, 0.5, 400, 42u64, 2);
    let mut spec = TenantSpec::new("alpha", m, eps);
    spec.shards = shards;
    spec.seed = seed;
    let server = start_server(vec![spec], true);

    let mut conn = Connection::connect(server.addr()).expect("connect");
    let info = conn.hello("alpha").expect("handshake");
    assert_eq!(info.m, m);
    assert_eq!(info.shards, shards);
    assert_eq!(info.algorithm, "threshold");

    let jobs = wire_jobs(m, eps, n, seed);
    let outcome = push_and_drain(&mut conn, &jobs, 64);
    assert_eq!(
        outcome.decisions.len(),
        n,
        "every job gets exactly one decision"
    );
    assert!(outcome.rejects.is_empty(), "{:?}", outcome.rejects);
    let summary = outcome.summary.as_ref().expect("summary streamed");
    assert_eq!(summary.submitted, n as u64);
    assert_eq!(summary.failed_shards, 0);
    assert!(summary.accepted > 0);

    // The wire stamps carry the full pipeline: the client's own send
    // stamp echoed back verbatim, every server stage stamped, and the
    // server-side stages in pipeline order.
    for d in &outcome.decisions {
        assert_eq!(d.stamps.get(Stage::ClientSend), 7_777, "client stamp echo");
        for stage in [
            Stage::FrameDecode,
            Stage::Dispatch,
            Stage::Enqueue,
            Stage::Dequeue,
            Stage::Decide,
            Stage::Delivery,
        ] {
            assert_ne!(d.stamps.get(stage), 0, "{stage:?} unstamped on J{}", d.job);
        }
        assert!(d.stamps.server_monotone(), "J{} stamps reordered", d.job);
    }

    // Reference: the same engine geometry driven in-process.
    let (tx, rx) = std::sync::mpsc::channel::<StampedDecision>();
    let obs = ObsConfig {
        decisions: Some(tx),
        ..ObsConfig::default()
    };
    let engine = Engine::start_observed(m, EngineConfig::new(shards), obs, move |shard, group| {
        AlgoKind::Threshold.build(group, eps, seed.wrapping_add(shard as u64))
    })
    .expect("engine starts");
    let instance = WorkloadSpec::default_spec(m, eps, n, seed)
        .generate()
        .unwrap();
    let mut failures = Vec::new();
    assert_eq!(
        engine.submit_batch_into(instance.jobs(), &mut failures),
        instance.len(),
        "in-process submit"
    );
    assert!(failures.is_empty(), "{failures:?}");
    let report = engine.finish().expect("in-process finish");
    let reference: Vec<StampedDecision> = rx.iter().collect();

    assert_eq!(keys(outcome.decisions), keys(reference));
    assert_eq!(summary.accepted, report.metrics.accepted);
    assert!((summary.accepted_load - report.metrics.accepted_load).abs() < 1e-9);

    // The post-drain flight snapshot, fetched over the wire, replays
    // bit-identically against freshly built schedulers.
    let telemetry = server.telemetry_addr().expect("telemetry bound");
    let (status, cfr) = http_get(telemetry, "/flight/snapshot?tenant=alpha");
    assert!(status.contains("200"), "{status}");
    let snap = cslack_obs::FlightSnapshot::read_cfr(&mut cfr.as_slice()).expect("valid cfr");
    let replay = cslack_sim::audit::replay_snapshot(&snap, |shard, group| {
        AlgoKind::Threshold.build(group, eps, seed.wrapping_add(shard as u64))
    })
    .expect("replay runs");
    assert!(replay.is_identical(), "{:?}", replay.divergence);
    assert_eq!(replay.decisions_replayed, n as u64);

    server.shutdown();
}

/// Two connections to the same tenant interleave submissions; every
/// job still gets exactly one decision, routed to the connection that
/// submitted it.
#[test]
fn decisions_route_to_the_submitting_connection() {
    let mut spec = TenantSpec::new("alpha", 4, 0.5);
    spec.seed = 7;
    let server = start_server(vec![spec], false);

    let jobs = wire_jobs(4, 0.5, 200, 7);
    let (first_half, second_half) = jobs.split_at(100);
    // Distinct id spaces per connection (the tenant namespace is
    // shared).
    let second_half: Vec<WireJob> = second_half
        .iter()
        .map(|j| WireJob {
            id: j.id + 1000,
            ..*j
        })
        .collect();

    let mut a = Connection::connect(server.addr()).expect("connect a");
    let mut b = Connection::connect(server.addr()).expect("connect b");
    a.hello("alpha").expect("hello a");
    b.hello("alpha").expect("hello b");
    for (chunk_a, chunk_b) in first_half.chunks(10).zip(second_half.chunks(10)) {
        a.send(&Frame::SubmitBatch {
            jobs: chunk_a.to_vec(),
            client_send_ns: 0,
        })
        .unwrap();
        b.send(&Frame::SubmitBatch {
            jobs: chunk_b.to_vec(),
            client_send_ns: 0,
        })
        .unwrap();
    }
    let mut seen_a = Vec::new();
    while seen_a.len() < 100 {
        if let Frame::Decision(e) = a.recv().expect("a streams decisions") {
            seen_a.push(e.job);
        }
    }
    let mut seen_b = Vec::new();
    while seen_b.len() < 100 {
        if let Frame::Decision(e) = b.recv().expect("b streams decisions") {
            seen_b.push(e.job);
        }
    }
    assert!(seen_a.iter().all(|&id| id < 1000), "a got b's decisions");
    assert!(seen_b.iter().all(|&id| id >= 1000), "b got a's decisions");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Tenant isolation
// ---------------------------------------------------------------------

/// Chaos drill: one tenant's shard panics mid-run. That tenant keeps
/// getting *typed* answers (ShardFailed rejects or an Undecided sweep
/// at drain) while a second tenant's run is completely untouched.
#[test]
fn a_failed_shard_is_contained_to_its_tenant() {
    let mut faulty = TenantSpec::new("faulty", 4, 0.5);
    faulty.shards = 2;
    faulty.seed = 3;
    faulty.fault = Some("panic@5".parse::<FaultSpec>().unwrap());
    let healthy = TenantSpec::new("healthy", 4, 0.5);
    let server = start_server(vec![faulty, healthy], true);

    let n = 200;
    let jobs = wire_jobs(4, 0.5, n, 3);

    // Drive the faulty tenant slowly enough for the shard-0 panic (at
    // its 5th decision) to land while submissions are still arriving.
    let mut conn = Connection::connect(server.addr()).expect("connect faulty");
    conn.hello("faulty").expect("hello faulty");
    for chunk in jobs.chunks(20) {
        conn.send(&Frame::SubmitBatch {
            jobs: chunk.to_vec(),
            client_send_ns: 0,
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    // Health must flag the dead shard while the tenant is still live
    // (after drain the engine is gone and reports nothing). The panic
    // has already landed, but give the watchdog a moment to notice.
    let telemetry = server.telemetry_addr().unwrap();
    let health_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, body) = http_get(telemetry, "/healthz");
        if status.contains("503") {
            assert!(String::from_utf8_lossy(&body).starts_with("degraded"));
            break;
        }
        assert!(
            Instant::now() < health_deadline,
            "healthz never reported the failed shard: {status}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    conn.send(&Frame::Drain).unwrap();
    let mut outcome = RunOutcome::default();
    loop {
        match conn
            .recv()
            .expect("typed answers, not a dropped connection")
        {
            Frame::Decision(e) => outcome.decisions.push(e),
            Frame::Reject { job, code, .. } => outcome.rejects.push((job, code)),
            Frame::Summary(s) => {
                outcome.summary = Some(s);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    // Shard 1 keeps deciding; shard 0's jobs come back as typed
    // rejects. Every job is answered exactly once, one way or another.
    let summary = outcome.summary.expect("degraded drain still summarizes");
    assert_eq!(summary.failed_shards, 1, "exactly shard 0 died");
    assert_eq!(
        outcome.decisions.len() + outcome.rejects.len(),
        n,
        "every job answered: {} decisions + {:?}",
        outcome.decisions.len(),
        outcome.rejects
    );
    assert!(!outcome.rejects.is_empty(), "the dead shard's jobs bounce");
    assert!(
        outcome
            .rejects
            .iter()
            .all(|(_, code)| matches!(code, RejectCode::ShardFailed | RejectCode::Undecided)),
        "{:?}",
        outcome.rejects
    );
    // `panic@5` is 0-based: offers 0..=4 complete, the 6th kills the
    // shard.
    let shard0_decisions = outcome.decisions.iter().filter(|e| e.shard == 0).count();
    assert!(
        shard0_decisions <= 5,
        "shard 0 decided {shard0_decisions} jobs past its injected panic"
    );
    assert!(
        outcome.decisions.iter().any(|e| e.shard == 1),
        "the healthy shard keeps deciding"
    );

    // The other tenant never notices any of it.
    let mut conn = Connection::connect(server.addr()).expect("connect healthy");
    conn.hello("healthy").expect("hello healthy");
    let outcome = push_and_drain(&mut conn, &jobs, 64);
    assert_eq!(outcome.decisions.len(), n);
    assert!(outcome.rejects.is_empty());
    assert_eq!(outcome.summary.unwrap().failed_shards, 0);
    server.shutdown();
}

/// Recovery drill: with `recover` on, a mid-stream shard panic never
/// surfaces as a terminal `ShardFailed` reject — submissions caught in
/// the failure window get a transient `Retry` frame, the tenant's
/// watcher resurrects the shard by flight-ring replay, resubmitted
/// jobs get real decisions, and the tenant finishes with zero failed
/// shards and `cslack_shard_restarts_total` at 1.
///
/// The Retry window is the gap between the panic landing and the
/// watcher's next poll (≤ 10 ms), so catching a Retry in flight is
/// timing-dependent; the drill repeats with fresh servers until one
/// attempt observes it. Every other invariant is asserted on every
/// attempt.
#[test]
fn recovery_turns_shard_failure_into_transient_retries() {
    let mut total_retried = 0u64;
    for attempt in 0..5u64 {
        let mut spec = TenantSpec::new("phoenix", 4, 0.5);
        spec.shards = 2;
        spec.seed = 7 + attempt;
        spec.inflight_limit = 4096;
        spec.fault = Some("panic@5".parse::<FaultSpec>().unwrap());
        spec.recover = true;
        let server = start_server(vec![spec], true);

        let n = 2000;
        let jobs = wire_jobs(4, 0.5, n, 7);
        let mut conn = Connection::connect(server.addr()).expect("connect");
        conn.hello("phoenix").expect("hello");
        // Pound the stream so some batch lands between the panic and
        // the watcher's restart.
        for chunk in jobs.chunks(50) {
            conn.send(&Frame::SubmitBatch {
                jobs: chunk.to_vec(),
                client_send_ns: 0,
            })
            .unwrap();
        }

        let mut answered = 0usize;
        let mut retried = 0u64;
        let mut rejects = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        while answered < n {
            assert!(Instant::now() < deadline, "jobs never fully answered");
            match conn.recv().expect("stream stays whole") {
                Frame::Decision(_) => answered += 1,
                Frame::Reject { job, code, .. } => {
                    rejects.push((job, code));
                    answered += 1;
                }
                Frame::Retry { job } => {
                    retried += 1;
                    // Transient by contract: give the watcher a beat,
                    // then resubmit and expect a real decision.
                    std::thread::sleep(Duration::from_millis(10));
                    let wire = *jobs
                        .iter()
                        .find(|w| w.id == job)
                        .expect("retry names a submitted job");
                    conn.send(&Frame::SubmitBatch {
                        jobs: vec![wire],
                        client_send_ns: 0,
                    })
                    .unwrap();
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert!(
            rejects
                .iter()
                .all(|(_, code)| !matches!(code, RejectCode::ShardFailed)),
            "recover tenants never see terminal ShardFailed: {rejects:?}"
        );

        // Post-recovery, pre-drain: health is green again and the
        // restart counter is up — exactly one resurrection, because
        // the injected fault is one-shot under `recover`.
        let telemetry = server.telemetry_addr().unwrap();
        let (status, _) = http_get(telemetry, "/healthz");
        assert!(status.contains("200"), "healthz after recovery: {status}");
        let (status, body) = http_get(telemetry, "/metrics");
        assert!(status.contains("200"), "{status}");
        let page = String::from_utf8_lossy(&body);
        assert!(
            page.contains("cslack_shard_restarts_total{tenant=\"phoenix\"} 1"),
            "restart counter missing:\n{page}"
        );
        assert!(
            !page.contains("NaN"),
            "non-finite metric published:\n{page}"
        );

        conn.send(&Frame::Drain).unwrap();
        let summary = loop {
            match conn.recv().expect("summary") {
                Frame::Summary(s) => break s,
                Frame::Decision(_) | Frame::Reject { .. } | Frame::Retry { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        };
        assert_eq!(
            summary.failed_shards, 0,
            "the resurrected shard finishes healthy"
        );
        server.shutdown();

        total_retried += retried;
        if total_retried > 0 {
            break;
        }
    }
    assert!(
        total_retried > 0,
        "five drills never caught a submission in the retry window"
    );
}

/// A batch that would exceed the tenant's in-flight quota is refused
/// whole with a typed Backpressure frame; a conforming batch on the
/// same connection still goes through, and other tenants are never
/// throttled by it.
#[test]
fn quota_pressure_is_typed_and_tenant_scoped() {
    let mut small = TenantSpec::new("small", 4, 0.5);
    small.inflight_limit = 16;
    small.seed = 11;
    let big = TenantSpec::new("big", 4, 0.5);
    let server = start_server(vec![small, big], false);

    let jobs = wire_jobs(4, 0.5, 32, 11);
    let mut conn = Connection::connect(server.addr()).expect("connect");
    conn.hello("small").expect("hello");
    // 17 > 16: refused wholesale, nothing enters the engine.
    conn.send(&Frame::SubmitBatch {
        jobs: jobs[..17].to_vec(),
        client_send_ns: 0,
    })
    .unwrap();
    match conn.recv().expect("typed refusal") {
        Frame::Backpressure {
            inflight,
            limit,
            refused,
        } => {
            assert_eq!(inflight, 0);
            assert_eq!(limit, 16);
            assert_eq!(refused, 17);
        }
        other => panic!("expected Backpressure, got {other:?}"),
    }
    // A conforming batch is admitted and fully decided.
    let outcome = push_and_drain(&mut conn, &jobs[..16], 16);
    assert_eq!(outcome.decisions.len(), 16);
    assert_eq!(outcome.backpressured, 0);

    // The sibling tenant's quota is its own.
    let mut conn = Connection::connect(server.addr()).expect("connect big");
    conn.hello("big").expect("hello big");
    let outcome = push_and_drain(&mut conn, &wire_jobs(4, 0.5, 64, 5), 32);
    assert_eq!(outcome.decisions.len(), 64);
    assert_eq!(outcome.backpressured, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Protocol edge behavior against a live server
// ---------------------------------------------------------------------

#[test]
fn malformed_and_duplicate_jobs_get_typed_rejects() {
    let mut spec = TenantSpec::new("alpha", 4, 0.5);
    // Slow the (single) shard down so the duplicate check races
    // nothing: the first copy is still pending when the second arrives.
    spec.fault = Some("delay@20000".parse::<FaultSpec>().unwrap());
    let server = start_server(vec![spec], false);

    let mut conn = Connection::connect(server.addr()).expect("connect");
    conn.hello("alpha").expect("hello");
    let good = WireJob {
        id: 1,
        release: 0.0,
        proc_time: 1.0,
        deadline: 3.0,
    };
    conn.send(&Frame::SubmitBatch {
        jobs: vec![
            good,
            WireJob {
                id: 2,
                proc_time: -1.0,
                ..good
            },
            WireJob {
                id: 3,
                release: f64::NAN,
                ..good
            },
            WireJob { ..good }, // duplicate of id 1, same batch
        ],
        client_send_ns: 0,
    })
    .unwrap();

    let mut rejects = Vec::new();
    let mut decisions = 0;
    while rejects.len() < 3 || decisions < 1 {
        match conn.recv().expect("typed answers") {
            Frame::Reject { job, code, .. } => rejects.push((job, code)),
            Frame::Decision(_) => decisions += 1,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    rejects.sort_by_key(|(job, code)| (*job, code.as_str()));
    assert_eq!(
        rejects,
        vec![
            (Some(1), RejectCode::DuplicateJob),
            (Some(2), RejectCode::Malformed),
            (Some(3), RejectCode::Malformed),
        ]
    );
    server.shutdown();
}

#[test]
fn unknown_tenant_and_protocol_garbage_are_typed() {
    let server = start_server(vec![TenantSpec::new("alpha", 2, 0.5)], false);

    // Unknown tenant: typed reject, then the server hangs up.
    let mut conn = Connection::connect(server.addr()).expect("connect");
    let err = conn.hello("nope").expect_err("unknown tenant refused");
    assert!(err.contains("unknown_tenant"), "{err}");

    // Raw garbage instead of a frame: the server answers with a typed
    // Protocol reject before closing, it does not just drop the socket.
    let mut raw = TcpStream::connect(server.addr()).expect("connect raw");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    raw.flush().unwrap();
    match cslack_server::proto::read_frame(&mut raw) {
        Ok(Frame::Reject { code, .. }) => assert_eq!(code, RejectCode::Protocol),
        other => panic!("expected typed Protocol reject, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn v1_hello_is_refused_and_the_connection_closes() {
    let server = start_server(vec![TenantSpec::new("alpha", 2, 0.5)], false);
    // A well-formed v1 `Hello`: the current encoding with the version
    // byte set to 1 and the checksum (which covers it) repaired.
    let mut hello = cslack_server::proto::encode_frame(&Frame::Hello {
        tenant: "alpha".into(),
    });
    hello[2] = 1;
    let len = hello.len();
    let sum = cslack_server::proto::fnv1a32(&hello[..len - 4]);
    hello[len - 4..].copy_from_slice(&sum.to_le_bytes());

    let mut raw = TcpStream::connect(server.addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&hello).expect("write v1 hello");
    match cslack_server::proto::read_frame(&mut raw) {
        Ok(Frame::Reject { job, code, detail }) => {
            assert_eq!((job, code), (None, RejectCode::Protocol));
            assert!(detail.contains("version 1"), "{detail}");
        }
        other => panic!("expected typed Protocol reject, got {other:?}"),
    }
    // Nothing follows the refusal: the server closed the connection.
    // It never read the refused frame's payload, so its close may be
    // abortive (a reset); either way it is a close, not a timeout.
    let mut rest = Vec::new();
    match raw.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "bytes after the refusal: {rest:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    server.shutdown();
}

#[test]
fn stats_track_the_run_and_drain_is_idempotent_across_connections() {
    let mut spec = TenantSpec::new("alpha", 4, 0.5);
    spec.seed = 9;
    let server = start_server(vec![spec], false);

    let mut conn = Connection::connect(server.addr()).expect("connect");
    conn.hello("alpha").expect("hello");
    let jobs = wire_jobs(4, 0.5, 50, 9);
    let outcome = push_and_drain(&mut conn, &jobs, 25);
    let summary = outcome.summary.unwrap();
    assert!(server.all_drained());

    // Stats after drain: counters survive, drained flag set.
    conn.send(&Frame::StatsRequest).unwrap();
    match conn.recv().expect("stats") {
        Frame::Stats(stats) => {
            assert_eq!(stats.submitted, 50);
            assert_eq!(stats.accepted, summary.accepted);
            assert_eq!(stats.inflight, 0);
            assert!(stats.drained);
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    // A second drain — from a *different* connection — returns the
    // same summary instead of inventing a new one.
    let mut conn2 = Connection::connect(server.addr()).expect("connect 2");
    conn2.hello("alpha").expect("hello 2");
    let again = conn2.drain().expect("idempotent drain");
    assert_eq!(again, summary);

    // Submitting after drain is a typed Closed reject.
    conn.send(&Frame::SubmitBatch {
        jobs: vec![WireJob {
            id: 999,
            release: 0.0,
            proc_time: 1.0,
            deadline: 9.0,
        }],
        client_send_ns: 0,
    })
    .unwrap();
    match conn.recv().expect("typed answer") {
        Frame::Reject { job, code, .. } => {
            assert_eq!(job, Some(999));
            assert_eq!(code, RejectCode::Closed);
        }
        other => panic!("expected Closed reject, got {other:?}"),
    }
    server.shutdown();
}
