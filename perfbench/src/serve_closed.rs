//! `serve_closed`: an in-process server hosts the default tenant; one
//! client thread drives one connection in a closed loop with a fixed
//! number of jobs outstanding and a fixed batch size.

use crate::common::{
    generate, instance_spec, tenant, Lifecycle, Reference, Workload, EPS, JOBS, M, SUBMIT_BATCH,
};
use crate::trace::Tracer;
use cslack_kernel::Instance;
use cslack_server::proto::{read_frame, write_frame, Frame, TenantSummary, WireJob};
use cslack_server::{Server, ServerConfig};
use cslack_workloads::WorkloadSpec;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Jobs the client keeps outstanding (submitted, not yet decided).
pub const WINDOW: usize = 512;

pub struct ServeClosed {
    spec: WorkloadSpec,
    instance: Instance,
    reference: Reference,
}

/// One connected client on a freshly started server.
struct Session {
    server: Server,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// What the measured closed loop saw.
struct Outcome {
    accepted: Vec<bool>,
    rtt_ms: Vec<f64>,
}

impl ServeClosed {
    pub fn prepare(seed: u64, tr: &mut Tracer) -> Result<ServeClosed, String> {
        let spec = instance_spec(seed);
        let instance = generate(&spec, tr)?;
        let reference = Reference::of(&instance, tr)?;
        Ok(ServeClosed {
            spec,
            instance,
            reference,
        })
    }
}

/// Starts a server hosting the default tenant.
fn start(tr: &mut Tracer) -> Result<Server, String> {
    let config = ServerConfig {
        listen: "127.0.0.1:0".parse().expect("literal socket address"),
        telemetry: None,
        tenants: vec![tenant()],
    };
    tr.span("server.start", || Server::start(config))
}

/// Opens the connection and binds it to the tenant.
fn hello(
    server: &Server,
    tenant: &str,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), String> {
    let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    let hello = Frame::Hello {
        tenant: tenant.to_string(),
    };
    write_frame(&mut writer, &hello)
        .and_then(|_| writer.flush())
        .map_err(|e| format!("send hello: {e}"))?;
    match read_frame(&mut reader).map_err(|e| format!("await hello ack: {e}"))? {
        Frame::HelloAck { m, eps, .. } if m as usize == M && eps == EPS => Ok((reader, writer)),
        other => Err(format!("unexpected reply to hello: {other:?}")),
    }
}

impl Session {
    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        write_frame(&mut self.writer, frame)
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Frame, String> {
        read_frame(&mut self.reader).map_err(|e| format!("recv: {e}"))
    }

    /// Submits every job with at most `WINDOW` outstanding and waits for
    /// every decision.
    fn closed_loop(&mut self, instance: &Instance, tr: &mut Tracer) -> Result<Outcome, String> {
        let jobs = instance.jobs();
        let n = jobs.len();
        let epoch = Instant::now();
        let mut sent_ns = vec![0u64; n];
        let mut seen = vec![false; n];
        let mut accepted = vec![false; n];
        let mut rtt_ms = Vec::with_capacity(n);
        let (mut next, mut outstanding) = (0usize, 0usize);
        while rtt_ms.len() < n {
            while next < n && outstanding + SUBMIT_BATCH <= WINDOW {
                let end = (next + SUBMIT_BATCH).min(n);
                let batch: Vec<WireJob> = jobs[next..end]
                    .iter()
                    .map(|j| WireJob {
                        id: j.id.0,
                        release: j.release.raw(),
                        proc_time: j.proc_time,
                        deadline: j.deadline.raw(),
                    })
                    .collect();
                let now = epoch.elapsed().as_nanos() as u64;
                let frame = Frame::SubmitBatch {
                    jobs: batch,
                    client_send_ns: now.max(1),
                };
                tr.span("client.send", || self.send(&frame))?;
                sent_ns[next..end].fill(now);
                outstanding += end - next;
                next = end;
            }
            let frame = tr.span("client.recv", || self.recv())?;
            let Frame::Decision(d) = frame else {
                return Err(format!("expected a decision, got {frame:?}"));
            };
            let job = d.job as usize;
            if job >= n || std::mem::replace(&mut seen[job], true) {
                return Err(format!("unexpected or repeated decision for job {job}"));
            }
            accepted[job] = d.accepted;
            let now = epoch.elapsed().as_nanos() as u64;
            rtt_ms.push(now.saturating_sub(sent_ns[job]) as f64 / 1e6);
            outstanding -= 1;
        }
        Ok(Outcome { accepted, rtt_ms })
    }

    /// Drains the tenant, closes the connection and stops the server.
    fn drain(mut self, tr: &mut Tracer) -> Result<TenantSummary, String> {
        let reply = tr.span("server.drain", || {
            self.send(&Frame::Drain)?;
            self.recv()
        });
        drop(self.reader);
        drop(self.writer);
        let server = self.server;
        tr.span("server.shutdown", || server.shutdown());
        match reply? {
            Frame::Summary(summary) => Ok(summary),
            other => Err(format!("unexpected reply to drain: {other:?}")),
        }
    }
}

impl Workload for ServeClosed {
    fn params(&self) -> String {
        format!(
            "{{\"m\":{M},\"eps\":{EPS},\"jobs\":{JOBS},\"submit_batch\":{SUBMIT_BATCH},\"window\":{WINDOW},\"connections\":1,\"instance\":\"default_spec\"}}"
        )
    }

    fn prepare_setups(&self) -> Vec<f64> {
        Vec::new()
    }

    fn lifecycle(&mut self, tr: &mut Tracer) -> Lifecycle {
        let mut out = Lifecycle {
            attempted: JOBS as u64,
            ..Lifecycle::default()
        };
        let root = tr.enter("bench.lifecycle");
        let t0 = Instant::now();
        let setup = tr.enter("bench.setup");
        let started = generate(&self.spec, tr).and_then(|i| start(tr).map(|s| (i, s)));
        tr.exit(setup);
        out.setup_s = Some(t0.elapsed().as_secs_f64());
        // The handshake waits for the server's accept loop to notice the
        // connection; it is timed on its own (`client.hello`), not as
        // set-up.
        let started = started.and_then(|(instance, server)| {
            let (reader, writer) = tr.span("client.hello", || hello(&server, &tenant().name))?;
            let session = Session {
                server,
                reader,
                writer,
            };
            Ok((instance, session))
        });
        let result = started.and_then(|(instance, mut session)| {
            let measured = tr.enter("bench.measured");
            let t1 = Instant::now();
            let outcome = session.closed_loop(&instance, tr);
            out.measured_s = t1.elapsed().as_secs_f64();
            tr.exit(measured);
            let teardown = tr.enter("bench.teardown");
            let summary = session.drain(tr);
            tr.exit(teardown);
            Ok((instance, outcome?, summary?))
        });
        let check = tr.enter("bench.check");
        match result {
            Ok((instance, outcome, summary)) => {
                if instance != self.instance {
                    out.errors
                        .push("regenerated instance differs for the same seed".to_string());
                }
                let load: f64 = instance
                    .jobs()
                    .iter()
                    .zip(&outcome.accepted)
                    .filter(|(_, &a)| a)
                    .map(|(j, _)| j.proc_time)
                    .sum();
                self.reference
                    .check("server", &outcome.accepted, load, &mut out.errors);
                self.reference.check(
                    "server summary",
                    &outcome.accepted,
                    summary.accepted_load,
                    &mut out.errors,
                );
                if summary.submitted != JOBS as u64 || summary.failed_shards != 0 {
                    out.errors.push(format!(
                        "summary: {} submitted, {} failed shards",
                        summary.submitted, summary.failed_shards
                    ));
                }
                out.work = outcome.rtt_ms.len() as u64;
                out.samples_ms = outcome.rtt_ms;
                out.accepted_load = load;
                out.offered_load = self.reference.offered_load;
            }
            Err(e) => out.errors.push(e),
        }
        if !out.errors.is_empty() {
            out.failed = out.attempted;
        }
        tr.exit(check);
        tr.exit(root);
        out
    }
}
