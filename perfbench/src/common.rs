//! What every workload shares: the tenant-default engine wiring, the
//! single-thread reference run the outputs are checked against, and the
//! per-lifecycle result type.

use crate::trace::Tracer;
use cslack_algorithms::{OnlineScheduler, Threshold};
use cslack_engine::{Engine, EngineConfig, EngineError, FlightConfig, ObsConfig};
use cslack_kernel::Instance;
use cslack_obs::MetricsRegistry;
use cslack_server::TenantSpec;
use cslack_workloads::WorkloadSpec;
use std::sync::Arc;

/// Machines of the default tenant (the paper's `m`).
pub const M: usize = 8;
/// System slack of the default tenant.
pub const EPS: f64 = 0.25;
/// Jobs per engine, server and recorded run. Below the 65,536-record
/// tenant flight ring, so nothing is dropped.
pub const JOBS: usize = 50_000;
/// Jobs per `submit_batch_into` call and per `SubmitBatch` frame.
pub const SUBMIT_BATCH: usize = 64;

/// The benchmark's default tenant: what `TenantSpec::new` wires.
pub fn tenant() -> TenantSpec {
    TenantSpec::new("bench", M, EPS)
}

pub fn instance_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec::default_spec(M, EPS, JOBS, seed)
}

pub fn generate(spec: &WorkloadSpec, tr: &mut Tracer) -> Result<Instance, String> {
    tr.span("workloads.generate", || spec.generate())
        .map_err(|e| format!("generate: {e}"))
}

/// Which observability an in-process engine carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Obs {
    /// No registry, no flight ring, no observatory.
    Dark,
    /// Registry and flight ring of `capacity` records.
    Flight { capacity: usize },
    /// Registry, the tenant flight ring and the tenant observatory.
    Tenant,
}

/// Starts an engine laid out like the default tenant's, with `obs`.
pub fn start_engine(
    obs: Obs,
    registry: &Arc<MetricsRegistry>,
    tr: &mut Tracer,
) -> Result<Engine, EngineError> {
    let spec = tenant();
    let flight = |capacity| {
        Some(FlightConfig::new(
            capacity,
            spec.algo.as_str(),
            EPS,
            spec.seed,
        ))
    };
    let obs = match obs {
        Obs::Dark => ObsConfig::default(),
        Obs::Flight { capacity } => ObsConfig {
            registry: Some(Arc::clone(registry)),
            flight: flight(capacity),
            ..ObsConfig::default()
        },
        Obs::Tenant => ObsConfig {
            registry: Some(Arc::clone(registry)),
            flight: flight(spec.flight_capacity),
            observatory: spec.observatory.clone(),
            ..ObsConfig::default()
        },
    };
    let mut config = EngineConfig::new(spec.shards);
    config.queue_capacity = spec.queue_capacity;
    config.batch_size = spec.batch_size;
    let (algo, seed) = (spec.algo, spec.seed);
    tr.span("engine.start", || {
        Engine::start_with_ingest(M, config, spec.ingest, obs, move |shard, group| {
            let built: Box<dyn OnlineScheduler> =
                algo.build(group, EPS, seed.wrapping_add(shard as u64));
            built
        })
    })
}

/// The scheduler a replay rebuilds for shard `shard` of `group` machines.
pub fn threshold_builder(shard: usize, group: usize) -> Box<dyn OnlineScheduler> {
    let spec = tenant();
    spec.algo
        .build(group, EPS, spec.seed.wrapping_add(shard as u64))
}

/// The single-thread Threshold run every engine and server lifecycle
/// must reproduce.
pub struct Reference {
    pub accepted: Vec<bool>,
    pub accepted_load: f64,
    pub offered_load: f64,
}

impl Reference {
    pub fn of(instance: &Instance, tr: &mut Tracer) -> Result<Reference, String> {
        let mut threshold = Threshold::new(instance.machines(), instance.slack());
        let report = tr
            .span("algorithms.simulate", || {
                cslack_sim::simulate(instance, &mut threshold)
            })
            .map_err(|e| format!("reference simulate: {e}"))?;
        let mut accepted = vec![false; instance.len()];
        for d in &report.decisions {
            accepted[d.job.index()] = d.accepted;
        }
        Ok(Reference {
            accepted,
            accepted_load: report.accepted_load(),
            offered_load: report.offered_load,
        })
    }

    /// Checks an accepted set and its load against the reference. Loads
    /// may differ by float summation order only.
    pub fn check(&self, what: &str, accepted: &[bool], load: f64, errors: &mut Vec<String>) {
        if accepted != self.accepted.as_slice() {
            let first = accepted
                .iter()
                .zip(&self.accepted)
                .position(|(a, b)| a != b);
            errors.push(format!(
                "{what}: accepted set differs from the reference (first job {first:?})"
            ));
        }
        if (load - self.accepted_load).abs() > 1e-9 * self.accepted_load.max(1.0) {
            errors.push(format!(
                "{what}: accepted load {load} != reference {}",
                self.accepted_load
            ));
        }
    }
}

/// One fresh lifecycle (or one pass) of a workload.
#[derive(Default)]
pub struct Lifecycle {
    /// Set-up time of this lifecycle, for workloads that set up per
    /// lifecycle.
    pub setup_s: Option<f64>,
    /// Decisions (or certified instances) in the measured phase.
    pub work: u64,
    pub measured_s: f64,
    /// Raw per-operation times.
    pub samples_ms: Vec<f64>,
    pub accepted_load: f64,
    pub offered_load: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Layer counters observed by this lifecycle, by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

impl Lifecycle {
    pub fn work_per_s(&self) -> f64 {
        self.work as f64 / self.measured_s
    }
}

/// A workload: set up once per run, then run fresh lifecycles.
pub trait Workload {
    /// Workload parameters, as a JSON object, for provenance.
    fn params(&self) -> String;
    /// Set-up times taken by `prepare` itself (workloads that set up
    /// per lifecycle report them there instead).
    fn prepare_setups(&self) -> Vec<f64>;
    fn lifecycle(&mut self, tr: &mut Tracer) -> Lifecycle;
}
