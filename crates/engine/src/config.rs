//! Engine tuning and observability configuration types.

use crate::observatory::ObservatoryConfig;
use cslack_obs::flight::StampedDecision;
use cslack_obs::timeline::ClockBase;
use cslack_obs::MetricsRegistry;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// Tuning knobs for [`Engine::start`](crate::Engine::start).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of shards (worker threads / scheduler instances).
    pub shards: usize,
    /// Bounded capacity of each shard's ingestion ring in queued *jobs*
    /// (rounded up to a power of two); a full ring makes
    /// [`Engine::try_submit`](crate::Engine::try_submit) fail and
    /// [`Engine::submit`](crate::Engine::submit) block.
    pub queue_capacity: usize,
    /// Maximum jobs a shard drains from its queue per wakeup.
    pub batch_size: usize,
}

impl EngineConfig {
    /// A config with `shards` shards and default queue/batch sizing.
    pub fn new(shards: usize) -> EngineConfig {
        EngineConfig {
            shards,
            queue_capacity: 1024,
            batch_size: 64,
        }
    }
}

/// Ingestion-plane knobs for
/// [`Engine::start_with_ingest`](crate::Engine::start_with_ingest).
///
/// Lives outside [`EngineConfig`] so existing exhaustive
/// `EngineConfig { .. }` literals keep compiling; the plain
/// [`Engine::start`](crate::Engine::start) /
/// [`Engine::start_observed`](crate::Engine::start_observed)
/// constructors use the default (no pinning). The ingestion ring's
/// size is [`EngineConfig::queue_capacity`]. DESIGN.md §10 describes
/// the ring's layout and publish protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestConfig {
    /// Pin each shard worker to a CPU (`(pin_offset + shard) mod
    /// available_parallelism`). Best-effort: on platforms without a
    /// raw `sched_setaffinity` path, or when the kernel refuses, the
    /// worker simply runs unpinned. Off by default — pinning helps
    /// steady-state cache locality on dedicated multi-core hosts and
    /// does nothing (or harms fairness) on shared or single-core
    /// boxes.
    pub pin_workers: bool,
    /// First CPU index used when `pin_workers` is set; lets several
    /// engines (or an embedding server's tenants) interleave onto
    /// disjoint CPUs.
    pub pin_offset: usize,
}

/// Observability wiring for
/// [`Engine::start_observed`](crate::Engine::start_observed).
///
/// The default is fully dark: no registry, no flight recorder, and the
/// built-in histograms still populate
/// [`EngineMetrics`](crate::EngineMetrics) (they are shard-local,
/// contention-free, and cheap).
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// Shared metrics registry the workers stream counters and
    /// histogram samples into while running (only when the registry is
    /// [enabled](MetricsRegistry::is_enabled)). Workers accumulate
    /// shard-locally and flush once per drained batch, so a live
    /// registry adds no per-decision contention; scraped values trail
    /// the truth by at most one batch. `None` skips registry writes
    /// entirely.
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Flight-recorder wiring; `None` records nothing. The flight ring
    /// is the engine's one per-decision record: a decision trace is an
    /// export of its snapshot (see [`FlightConfig`]).
    pub flight: Option<FlightConfig>,
    /// Bind address for the live telemetry HTTP endpoint serving
    /// `/metrics` (Prometheus text), `/healthz`, and `/flight/snapshot`
    /// (the current `.cfr` bytes, when a flight recorder is active).
    /// Port 0 binds an ephemeral port — read it back with
    /// [`Engine::metrics_addr`](crate::Engine::metrics_addr). When set
    /// without a registry, an enabled [`MetricsRegistry`] is created
    /// automatically so `/metrics` has data to serve. Which of the
    /// three endpoints the listener answers is governed by
    /// [`ObsConfig::endpoints`] — an embedding process that serves its
    /// own telemetry (e.g. `cslack-server`) leaves this `None` and no
    /// port is ever bound.
    pub serve_metrics: Option<SocketAddr>,
    /// Which endpoints the [`ObsConfig::serve_metrics`] listener
    /// answers; disabled endpoints return 404. Ignored when no
    /// listener is requested. Defaults to all three.
    pub endpoints: TelemetryEndpoints,
    /// Live decision subscription: every completed decision is sent to
    /// this channel as a [`StampedDecision`] (a
    /// [`DecisionEvent`](cslack_obs::DecisionEvent) with global machine
    /// ids plus its timeline stamps), in per-shard `(shard, seq)`
    /// order. Shards send concurrently, so the receiver observes an
    /// interleaving of the per-shard streams; within one shard the
    /// order is exactly arrival order. The channel closes when the
    /// engine is finished (all senders dropped), which is the
    /// receiver's drain signal. The channel is unbounded: a slow
    /// subscriber buffers decisions rather than stalling the workers
    /// or losing any.
    pub decisions: Option<Sender<StampedDecision>>,
    /// Quality-observatory wiring: a background thread slicing the
    /// flight-recorded decision stream into release-time windows and
    /// scoring each against the max-flow OPT bound — the
    /// `cslack_empirical_ratio` gauges. Needs both a flight recorder
    /// ([`ObsConfig::flight`]) to read decisions from and a registry to
    /// publish into (one is created automatically when
    /// [`ObsConfig::serve_metrics`] is set); with either missing the
    /// knob is ignored. `None` (the default) runs no observatory.
    pub observatory: Option<ObservatoryConfig>,
    /// The monotonic clock base timeline stamps are measured against.
    /// An embedding process that stamps hops *outside* the engine (the
    /// cslack server stamps frame decode and dispatch, and every tenant
    /// engine must agree on the axis) passes its own shared clock;
    /// `None` gives the engine a private one.
    pub clock: Option<Arc<ClockBase>>,
}

/// Which endpoints the engine's telemetry listener serves. Each is
/// opt-out individually so an embedding process can expose exactly the
/// surface it wants (e.g. `/healthz` only on an internal port, with
/// metrics scraped elsewhere); a disabled endpoint answers 404.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryEndpoints {
    /// Serve `/metrics` (Prometheus text exposition).
    pub metrics: bool,
    /// Serve `/healthz` (per-shard liveness; 503 on any failed shard).
    pub healthz: bool,
    /// Serve `/flight/snapshot` (current `.cfr` bytes).
    pub flight: bool,
}

impl Default for TelemetryEndpoints {
    fn default() -> TelemetryEndpoints {
        TelemetryEndpoints {
            metrics: true,
            healthz: true,
            flight: true,
        }
    }
}

/// Flight-recorder wiring for
/// [`Engine::start_observed`](crate::Engine::start_observed).
///
/// The recorder captures the complete causal record of the run — one
/// record per decision, carrying the job's arrival order and shard
/// routing and, for an accept, its irrevocable placement — in bounded
/// per-shard binary rings
/// ([`SharedFlightRing`](cslack_obs::flight::SharedFlightRing)). Each
/// shard's worker is its ring's single writer: a decision is encoded
/// straight into its slot with relaxed atomic word stores and one
/// release publish, so the per-decision path takes no locks at all
/// while live readers (`/flight/snapshot`, error snapshots) take
/// seqlock-validated copies at any time without ever stalling a
/// worker. Records carry the decision's
/// [`TimelineStamps`](cslack_obs::timeline::TimelineStamps), so
/// snapshots double as the stage-latency evidence `cslack latency`
/// aggregates.
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Per-shard ring capacity in records; `0` disables recording.
    /// Each decision costs exactly one record, and a snapshot holds
    /// exactly the records the ring holds.
    pub capacity: usize,
    /// Algorithm label written into the `.cfr` header, in the CLI
    /// vocabulary (`threshold`, `greedy`, ...) — replay rebuilds the
    /// schedulers from it, and the auditor gates the `c(eps, m)` check
    /// on it.
    pub algorithm: String,
    /// System slack the schedulers were configured with.
    pub eps: f64,
    /// Base RNG seed (shard `s` derives `seed + s` by convention).
    pub seed: u64,
    /// Write a `.cfr` snapshot here when
    /// [`Engine::finish`](crate::Engine::finish) fails with a contract
    /// violation, a shard panic, or a merge error — the crash-dump
    /// path.
    pub snapshot_on_error: Option<PathBuf>,
    /// Run the trace-driven invariant auditor over the final snapshot
    /// inside [`Engine::finish`](crate::Engine::finish); the result
    /// lands in [`EngineReport::audit`](crate::EngineReport::audit).
    pub audit_on_finish: bool,
}

impl FlightConfig {
    /// A recorder of `capacity` records per shard describing a run of
    /// `algorithm` under `eps`/`seed`, with no error snapshot and no
    /// finish-time audit.
    pub fn new(capacity: usize, algorithm: impl Into<String>, eps: f64, seed: u64) -> FlightConfig {
        FlightConfig {
            capacity,
            algorithm: algorithm.into(),
            eps,
            seed,
            snapshot_on_error: None,
            audit_on_finish: false,
        }
    }
}
