//! `replay_audit`: set-up records a run whose flight ring holds the whole
//! run and encodes it to `.cfr` bytes; each measured pass decodes the
//! bytes, replays the decision stream and audits it.

use crate::common::{
    generate, instance_spec, start_engine, threshold_builder, Lifecycle, Obs, Reference, Workload,
    EPS, JOBS, M,
};
use crate::engine_saturate::submit_all;
use crate::trace::Tracer;
use cslack_obs::{FlightSnapshot, MetricsRegistry};
use std::sync::Arc;
use std::time::Instant;

/// Recordings made per run; set-up time is their median.
pub const SETUPS: usize = 5;

pub struct ReplayAudit {
    cfr: Vec<u8>,
    reference: Reference,
    setups: Vec<f64>,
}

/// Records one run of `seed`'s instance and encodes it to `.cfr` bytes.
pub fn record(seed: u64, tr: &mut Tracer) -> Result<Vec<u8>, String> {
    let instance = generate(&instance_spec(seed), tr)?;
    let registry = Arc::new(MetricsRegistry::enabled());
    let engine = start_engine(Obs::Flight { capacity: JOBS }, &registry, tr)
        .map_err(|e| format!("engine start: {e}"))?;
    let refused = submit_all(&engine, instance.jobs(), tr);
    if tr.enabled() {
        // A live snapshot of the nearly full ring, timed on its own; the
        // untraced run skips it.
        let snap = tr.span("obs.flight_snapshot", || engine.flight_snapshot());
        std::hint::black_box(snap);
    }
    let report = tr
        .span("engine.finish", || engine.finish())
        .map_err(|e| format!("engine finish: {e}"))?;
    if refused > 0 {
        return Err(format!("{refused} submissions refused while recording"));
    }
    let snap = report
        .flight
        .ok_or("recording engine kept no flight snapshot")?;
    let mut cfr = Vec::new();
    tr.span("obs.write_cfr", || snap.write_cfr(&mut cfr))
        .map_err(|e| format!("encode .cfr: {e}"))?;
    Ok(cfr)
}

impl ReplayAudit {
    pub fn prepare(seed: u64, tr: &mut Tracer) -> Result<ReplayAudit, String> {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut cfr = Vec::new();
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            let open = tr.enter("bench.setup");
            let run = record(seed, tr);
            tr.exit(open);
            cfr = run?;
            setups.push(t0.elapsed().as_secs_f64());
        }
        let reference = Reference::of(&generate(&instance_spec(seed), tr)?, tr)?;
        Ok(ReplayAudit {
            cfr,
            reference,
            setups,
        })
    }
}

impl Workload for ReplayAudit {
    fn params(&self) -> String {
        format!(
            "{{\"m\":{M},\"eps\":{EPS},\"jobs\":{JOBS},\"shards\":1,\"cfr_bytes\":{},\"setups\":{SETUPS},\"instance\":\"default_spec\"}}",
            self.cfr.len()
        )
    }

    fn prepare_setups(&self) -> Vec<f64> {
        self.setups.clone()
    }

    fn lifecycle(&mut self, tr: &mut Tracer) -> Lifecycle {
        let mut out = Lifecycle {
            attempted: JOBS as u64,
            ..Lifecycle::default()
        };
        let root = tr.enter("bench.lifecycle");
        let measured = tr.enter("bench.measured");
        let t0 = Instant::now();
        let snap = tr.span("obs.read_cfr", || {
            FlightSnapshot::read_cfr(&mut self.cfr.as_slice())
        });
        let checked = snap.and_then(|snap| {
            let replay = tr.span("sim.replay_snapshot", || {
                cslack_sim::audit::replay_snapshot(&snap, threshold_builder)
            })?;
            let audit = tr.span("sim.audit_snapshot", || {
                cslack_sim::audit::audit_snapshot(&snap)
            });
            Ok((snap, replay, audit))
        });
        out.measured_s = t0.elapsed().as_secs_f64();
        tr.exit(measured);
        let check = tr.enter("bench.check");
        match checked {
            Ok((snap, replay, audit)) => {
                if let Some(d) = &replay.divergence {
                    out.errors.push(format!("replay diverged: {d:?}"));
                }
                if replay.decisions_replayed != JOBS as u64 {
                    out.errors.push(format!(
                        "{} of {JOBS} decisions replayed",
                        replay.decisions_replayed
                    ));
                }
                if !audit.is_clean() {
                    out.errors
                        .push(format!("audit: {} violation(s)", audit.violations.len()));
                }
                if snap.total_dropped() != 0 || audit.dropped != 0 {
                    out.errors.push("recording dropped records".to_string());
                }
                let mut accepted = vec![false; JOBS];
                let (mut load, mut offered) = (0.0, 0.0);
                for d in snap.decisions() {
                    match accepted.get_mut(d.job as usize) {
                        Some(slot) => *slot = d.accepted,
                        None => out
                            .errors
                            .push(format!("recorded job {} out of range", d.job)),
                    }
                    offered += d.proc_time;
                    if d.accepted {
                        load += d.proc_time;
                    }
                }
                self.reference
                    .check("recording", &accepted, load, &mut out.errors);
                out.work = replay.decisions_replayed;
                out.samples_ms = vec![out.measured_s * 1e3];
                out.accepted_load = load;
                out.offered_load = offered;
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
