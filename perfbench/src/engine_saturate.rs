//! `engine_saturate`: one producer thread pushes a pre-generated
//! instance through `submit_batch_into` into an in-process engine with
//! the tenant-default observability, blocking while the ingest ring is
//! full (a closed loop).

use crate::common::{
    generate, instance_spec, start_engine, Lifecycle, Obs, Reference, Workload, EPS, JOBS, M,
    SUBMIT_BATCH,
};
use crate::trace::Tracer;
use cslack_engine::EngineReport;
use cslack_kernel::Instance;
use cslack_obs::{MetricsRegistry, Stage};
use cslack_workloads::WorkloadSpec;
use std::sync::Arc;
use std::time::Instant;

pub struct EngineSaturate {
    spec: WorkloadSpec,
    instance: Instance,
    reference: Reference,
    obs: Obs,
}

impl EngineSaturate {
    pub fn prepare(seed: u64, tr: &mut Tracer) -> Result<EngineSaturate, String> {
        EngineSaturate::with_obs(seed, Obs::Tenant, tr)
    }

    pub fn with_obs(seed: u64, obs: Obs, tr: &mut Tracer) -> Result<EngineSaturate, String> {
        let spec = instance_spec(seed);
        let instance = generate(&spec, tr)?;
        let reference = Reference::of(&instance, tr)?;
        Ok(EngineSaturate {
            spec,
            instance,
            reference,
            obs,
        })
    }
}

/// Submits every job in `SUBMIT_BATCH` slices; returns the jobs refused.
pub fn submit_all(
    engine: &cslack_engine::Engine,
    jobs: &[cslack_kernel::Job],
    tr: &mut Tracer,
) -> u64 {
    let mut failures = Vec::new();
    let mut refused = 0u64;
    for chunk in jobs.chunks(SUBMIT_BATCH) {
        let enqueued = tr.span("engine.submit_batch_into", || {
            engine.submit_batch_into(chunk, &mut failures)
        });
        refused += (chunk.len() - enqueued) as u64;
    }
    refused
}

impl Workload for EngineSaturate {
    fn params(&self) -> String {
        format!(
            "{{\"m\":{M},\"eps\":{EPS},\"jobs\":{JOBS},\"submit_batch\":{SUBMIT_BATCH},\"shards\":1,\"obs\":\"{:?}\",\"instance\":\"default_spec\"}}",
            self.obs
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
        let started = generate(&self.spec, tr).and_then(|instance| {
            let registry = Arc::new(MetricsRegistry::enabled());
            start_engine(self.obs, &registry, tr)
                .map(|engine| (instance, registry, engine))
                .map_err(|e| format!("engine start: {e}"))
        });
        tr.exit(setup);
        out.setup_s = Some(t0.elapsed().as_secs_f64());
        let (instance, registry, engine) = match started {
            Ok(s) => s,
            Err(e) => {
                tr.exit(root);
                out.failed = out.attempted;
                out.errors.push(e);
                return out;
            }
        };
        let clock = Arc::clone(engine.clock());
        let measured = tr.enter("bench.measured");
        let t1 = Instant::now();
        let refused = submit_all(&engine, instance.jobs(), tr);
        let report = tr.span("engine.finish", || engine.finish());
        let report_ns = clock.now_ns();
        out.measured_s = t1.elapsed().as_secs_f64();
        tr.exit(measured);
        let check = tr.enter("bench.check");
        match report {
            Ok(report) => {
                self.check(&instance, &report, refused, report_ns, &mut out);
                let windows = registry.quality.windows_closed.get() as f64;
                out.layer = vec![
                    ("engine.busy_s", report.metrics.busy_secs),
                    (
                        "engine.batches",
                        report
                            .metrics
                            .per_shard
                            .iter()
                            .map(|s| s.batches)
                            .sum::<u64>() as f64,
                    ),
                    (
                        "engine.backpressure_stalls",
                        report.metrics.backpressure_stalls as f64,
                    ),
                    ("obs.quality_windows", windows),
                ];
            }
            Err(e) => {
                out.failed = out.attempted;
                out.errors.push(format!("engine finish: {e}"));
            }
        }
        tr.exit(check);
        tr.exit(root);
        out
    }
}

impl EngineSaturate {
    /// Checks the report against the reference. The per-job samples are
    /// the time from a job's enqueue until the report holding its
    /// decision reached the caller: in-process, decisions become visible
    /// at `finish`.
    fn check(
        &self,
        instance: &Instance,
        report: &EngineReport,
        refused: u64,
        report_ns: u64,
        out: &mut Lifecycle,
    ) {
        let mut errors = Vec::new();
        if *instance != self.instance {
            errors.push("regenerated instance differs for the same seed".to_string());
        }
        if refused > 0 {
            errors.push(format!("{refused} submissions refused"));
        }
        if report.is_degraded() {
            errors.push(format!("{} shard(s) failed", report.degraded.len()));
        }
        let decided = report.metrics.submitted;
        if decided != JOBS as u64 {
            errors.push(format!("{decided} of {JOBS} jobs decided"));
        }
        let mut accepted = vec![false; instance.len()];
        for c in report.schedule.iter() {
            accepted[c.job.id.index()] = true;
        }
        self.reference.check(
            "engine",
            &accepted,
            report.schedule.accepted_load(),
            &mut errors,
        );
        out.work = decided;
        out.accepted_load = report.schedule.accepted_load();
        out.offered_load = self.reference.offered_load;
        if self.obs != Obs::Dark {
            match &report.flight {
                Some(snap) if snap.total_dropped() == 0 => {
                    out.samples_ms = snap
                        .stamped_decisions()
                        .iter()
                        .map(|d| {
                            report_ns.saturating_sub(d.stamps.get(Stage::Enqueue)) as f64 / 1e6
                        })
                        .collect();
                }
                Some(snap) => errors.push(format!("flight ring dropped {}", snap.total_dropped())),
                None => errors.push("no flight snapshot".to_string()),
            }
        }
        if !errors.is_empty() {
            out.failed = out.attempted;
        }
        out.errors = errors;
    }
}
