//! The CLI subcommands.

use crate::args::Opts;
use cslack_adversary::{run as adversary_run, AdversaryConfig};
use cslack_algorithms::{
    ablation, Greedy, LeeClassify, OnlineScheduler, RandomizedClassifySelect, Threshold,
};
use cslack_engine::{
    Engine, EngineConfig, EngineMetrics, IngestConfig, ObsConfig, RecoveryStats, ShardFailure,
    ShardState, SubmitError,
};
use cslack_kernel::Instance;
use cslack_obs::{
    FlightEvent, HistogramSummary, MetricsRegistry, StageBreakdown, TraceSummary, STAGE_SPANS,
};
use cslack_ratio::RatioFn;
use cslack_sim::fault::{FaultSpec, FaultyScheduler};
use cslack_sim::simulate as run_sim;
use cslack_workloads::{trace, WorkloadSpec};
use serde::Serialize;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Top-level usage text.
pub const USAGE: &str = "\
cslack — Commitment and Slack for Online Load Maximization (SPAA 2020)

USAGE:
  cslack ratio     --m <int> [--eps <float>]
  cslack generate  --m <int> --eps <float> --n <int> [--seed <int>] --out <file>
  cslack simulate  --algo <name> (--trace <file> | --m <int> --eps <float> --n <int> [--seed <int>]) [--json]
  cslack serve-bench --algo <name> --shards <int> --m <int> --eps <float> --n <int>
                   [--seed <int>] [--queue-cap <int>] [--batch <int>] [--json]
                   [--pin-workers] [--pin-offset <int>]
                   [--trace-out <jsonl>]
                   [--metrics-out <json>] [--prom-out <txt>] [--spans]
                   [--flight-out <cfr>] [--flight-cap <int>] [--flight-audit]
                   [--serve-metrics <addr>] [--hold <secs>] [--window <float>]
                   [--inject <kind>@<n>] [--crash-out <cfr>] [--recover]
  cslack serve     --tenants name:m:eps[:algo[:shards[:seed]]][,name2:...]
                   [--listen <addr>] [--telemetry <addr>] [--inflight <int>]
                   [--queue-cap <int>] [--batch <int>]
                   [--pin-workers] [--pin-offset <int>]
                   [--inject <tenant>=<kind>@<n>] [--recover] [--exit-when-drained]
                   [--max-secs <float>]
  cslack loadgen   --tenants <name>[,<name2>...] [--connect <addr>]
                   [--conns <int>] [--rate <float>] [--n <int>] [--batch <int>]
                   [--seed <int>] [--no-drain] [--json] [--out <file>]
  cslack trace-summary <jsonl|run.cfr> [--json]
  cslack replay    <run.cfr> [--json]
  cslack audit     <run.cfr> [--json]
  cslack latency   (<run.cfr> | --url http://<addr>/flight/snapshot[?tenant=NAME])
                   [--top <int>] [--json]
                   [--follow [--every <secs>] [--polls <int>]]
  cslack watch     (--url http://<addr>/metrics | <run.cfr>)
                   [--every <secs>] [--once] [--json]
                   [--window <float>] [--max-window-jobs <int>]
  cslack adversary --algo <name> --m <int> --eps <float> [--beta <float>]
  cslack opt       --trace <file> [--exact-limit <int>]
  cslack import-swf --file <swf> --m <int> --eps <float> --out <file>
                   [--seed <int>] [--procs-scale true] [--time-scale <float>]
  cslack tree      --m <int> --eps <float>
  cslack cover     --algo <name> (--trace <file> | --m <int> --eps <float> --n <int>)

ALGORITHMS:
  threshold (paper's Algorithm 1), greedy, lee, randomized,
  threshold-k1, threshold-km, threshold-constant-f, threshold-worst-fit,
  threshold-latest-start";

/// Builds an algorithm by CLI name.
fn build_algo(
    name: &str,
    m: usize,
    eps: f64,
    seed: u64,
) -> Result<Box<dyn OnlineScheduler>, String> {
    Ok(match name {
        "threshold" => Box::new(Threshold::new(m, eps)),
        "greedy" => Box::new(Greedy::new(m)),
        "lee" => Box::new(LeeClassify::new(m, eps)),
        "randomized" => Box::new(RandomizedClassifySelect::new(eps, seed)),
        "threshold-k1" => Box::new(ablation::forced_k(m, eps, 1)),
        "threshold-km" => Box::new(ablation::forced_k(m, eps, m)),
        "threshold-constant-f" => Box::new(ablation::constant_factors(m, eps)),
        "threshold-worst-fit" => Box::new(ablation::worst_fit(m, eps)),
        "threshold-latest-start" => Box::new(ablation::latest_start(m, eps)),
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

fn load_or_generate(opts: &Opts) -> Result<Instance, String> {
    if let Some(path) = opts.get("trace") {
        return trace::load(Path::new(path)).map_err(|e| e.to_string());
    }
    let m: usize = opts.require_as("m")?;
    let eps: f64 = opts.require_as("eps")?;
    let n: usize = opts.require_as("n")?;
    let seed: u64 = opts.get_or("seed", 0)?;
    WorkloadSpec::default_spec(m, eps, n, seed)
        .generate()
        .map_err(|e| e.to_string())
}

/// `cslack ratio` — print the c(eps, m) structure.
pub fn ratio(opts: &Opts) -> Result<(), String> {
    let m: usize = opts.require_as("m")?;
    let r = RatioFn::new(m);
    println!("c(eps, m) for m = {m}");
    for k in 1..=m {
        println!("  corner eps_({k},{m}) = {:.6}", r.corner(k));
    }
    if let Some(raw) = opts.get("eps") {
        let eps: f64 = raw.parse().map_err(|_| format!("invalid --eps `{raw}`"))?;
        let p = r.eval(eps);
        println!("at eps = {eps}: phase k = {}", p.k);
        println!("  c(eps, m)           = {:.6}", p.c);
        println!(
            "  Threshold guarantee = {:.6}",
            r.threshold_upper_bound(eps)
        );
        for h in p.k..=m {
            println!("  f_{h} = {:.6}", p.f(h));
        }
    }
    Ok(())
}

/// `cslack generate` — write a workload trace.
pub fn generate(opts: &Opts) -> Result<(), String> {
    let m: usize = opts.require_as("m")?;
    let eps: f64 = opts.require_as("eps")?;
    let n: usize = opts.require_as("n")?;
    let seed: u64 = opts.get_or("seed", 0)?;
    let out = opts.require("out")?;
    let inst = WorkloadSpec::default_spec(m, eps, n, seed)
        .generate()
        .map_err(|e| e.to_string())?;
    trace::save(&inst, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {n} jobs (m = {m}, eps = {eps}, volume {:.3}) to {out}",
        inst.total_load()
    );
    Ok(())
}

/// `cslack simulate` — run an algorithm on a trace or generated load.
pub fn simulate_cmd_inner(opts: &Opts) -> Result<(), String> {
    let inst = load_or_generate(opts)?;
    let algo_name = opts.get("algo").unwrap_or("threshold");
    let seed: u64 = opts.get_or("seed", 0)?;
    let mut alg = build_algo(algo_name, inst.machines(), inst.slack(), seed)?;
    if alg.machines() != inst.machines() {
        return Err(format!(
            "`{algo_name}` runs on {} machine(s); the instance has {}",
            alg.machines(),
            inst.machines()
        ));
    }
    let report = run_sim(&inst, alg.as_mut()).map_err(|e| e.to_string())?;
    if opts.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!(
        "{}: accepted {}/{} jobs, load {:.4} of {:.4} ({:.1}%)",
        report.algorithm,
        report.accepted_count(),
        inst.len(),
        report.accepted_load(),
        report.offered_load,
        report.load_fraction() * 100.0
    );
    let est = cslack_opt::estimate(&inst, opts.get_or("exact-limit", 16)?);
    println!(
        "offline denominator: {:.4} ({}) => measured ratio {:.4}",
        est.denominator(),
        if est.exact.is_some() {
            "exact"
        } else {
            "flow upper bound"
        },
        report.ratio_against(est.denominator()),
    );
    if opts.get("gantt").map(|v| v == "true").unwrap_or(false) {
        print!("{}", report.schedule.gantt_ascii(100));
    }
    Ok(())
}

/// `cslack simulate` entry point.
pub fn simulate(opts: &Opts) -> Result<(), String> {
    simulate_cmd_inner(opts)
}

/// The serializable outcome of one `serve-bench` run.
#[derive(Serialize)]
struct ServeBenchReport {
    algorithm: String,
    metrics: EngineMetrics,
    schedule_valid: bool,
    violations: usize,
    offered_load: f64,
    opt_upper_bound: f64,
    measured_ratio: f64,
    paper_bound: f64,
    trace_events: usize,
    trace_dropped: u64,
    flight_events: usize,
    flight_dropped: u64,
    audit_violations: Option<usize>,
    /// Submissions bounced because their shard had already failed.
    bounced_submissions: usize,
    /// Bounced submissions successfully re-offered after `--recover`
    /// resurrected their shard.
    resubmitted: usize,
    /// Restart counters and the four-way job conservation ledger; all
    /// zero unless `--recover` resurrected a shard.
    recovery: RecoveryStats,
    /// Per-shard failure reports; empty on a fully healthy run (a
    /// successfully resurrected shard finishes healthy and does not
    /// appear here).
    degraded: Vec<ShardFailure>,
}

/// Parses the shared ingestion-plane flags: `--pin-workers` and
/// `--pin-offset <int>` (best-effort shard-worker CPU affinity). The
/// ring's size is `--queue-cap`.
fn parse_ingest(opts: &Opts) -> Result<IngestConfig, String> {
    Ok(IngestConfig {
        pin_workers: opts.flag("pin-workers"),
        pin_offset: opts.get_or("pin-offset", 0)?,
    })
}

/// `cslack serve-bench` — stream a generated workload through the
/// sharded admission-control engine and report throughput plus the
/// competitive ratio against a cheap offline upper bound.
///
/// Observability options: `--trace-out <jsonl>` exports the flight
/// recording's decisions as a JSONL decision trace (recording the run
/// for the export if nothing else asked for a recording; the default
/// capacity covers the whole run, `--flight-cap` bounds it),
/// `--metrics-out <json>` writes the live registry snapshot,
/// `--prom-out <txt>` writes a Prometheus text exposition, and
/// `--spans` turns on the `span!` profiling timers.
///
/// Flight-recorder options: `--flight-out <cfr>` records the run and
/// writes a `.cfr` flight recording replayable with `cslack replay`
/// (default ring capacity covers the whole run; cap it with
/// `--flight-cap`), `--flight-audit` runs the invariant auditor over
/// the recording at shutdown, `--serve-metrics <addr>` serves live
/// `/metrics`, `/healthz` and `/flight/snapshot` over HTTP while the
/// run lasts, and `--hold <secs>` keeps the engine (and the endpoint)
/// alive that long after the workload drains so scrapers can connect.
///
/// Fault injection: `--inject <kind>@<n>` wraps shard 0's scheduler in
/// a [`FaultyScheduler`] (`panic@N`, `contract@N`, or `delay@MICROS`) —
/// the run finishes *degraded* with the healthy shards' merged schedule
/// and a per-shard failure report, and exits 0 so chaos harnesses can
/// assert on the JSON. `--crash-out <cfr>` sets the crash-snapshot
/// path: the failing shard writes it at failure time (implies flight
/// recording) and `cslack replay` verifies it bit-identically.
///
/// `--recover` turns the drill into a resurrection exercise: when a
/// submission bounces with `ShardFailed`, the failed shard is rebuilt
/// in place ([`Engine::restart_shard`] replays its flight ring through
/// a fresh scheduler, bit-identically), the bounced job is re-offered,
/// and the injected fault is one-shot so the replacement runs clean.
/// The report then carries the restart count and the four-way job
/// conservation ledger (recovered-committed / re-admitted /
/// re-rejected / lost).
pub fn serve_bench(opts: &Opts) -> Result<(), String> {
    let m: usize = opts.require_as("m")?;
    let eps: f64 = opts.require_as("eps")?;
    let n: usize = opts.require_as("n")?;
    let seed: u64 = opts.get_or("seed", 0)?;
    let shards: usize = opts.get_or("shards", m.min(4))?;
    let algo_name = opts.get("algo").unwrap_or("threshold");
    let inst = WorkloadSpec::default_spec(m, eps, n, seed)
        .generate()
        .map_err(|e| e.to_string())?;

    let trace_out = opts.get("trace-out");
    let metrics_out = opts.get("metrics-out");
    let prom_out = opts.get("prom-out");
    let flight_out = opts.get("flight-out");
    let flight_audit = opts.flag("flight-audit");
    let crash_out = opts.get("crash-out");
    let inject: Option<FaultSpec> = match opts.get("inject") {
        Some(raw) => Some(raw.parse()?),
        None => None,
    };
    let recover = opts.flag("recover");
    let serve_metrics: Option<std::net::SocketAddr> = match opts.get("serve-metrics") {
        Some(_) => Some(opts.require_as("serve-metrics")?),
        None => None,
    };
    if opts.flag("spans") {
        cslack_obs::set_spans_enabled(true);
    }
    // The registry is only worth streaming into when some output wants
    // its counters; the engine's own metrics are always collected.
    // (`--serve-metrics` makes the engine create an enabled registry of
    // its own when none is passed.)
    let registry = (metrics_out.is_some() || prom_out.is_some() || serve_metrics.is_some())
        .then(|| Arc::new(MetricsRegistry::enabled()));
    // The ring stores one compact record per decision and shard
    // routing splits jobs evenly, so ceil(n / shards) per shard covers
    // any run completely. A failing shard appends one extra submission
    // record (the job that tripped it) on top of its per-decision
    // share, so recovery drills get headroom — a lapped ring would make
    // the ring unreplayable for any later restart.
    let whole_run = n.max(1).div_ceil(shards.max(1)) + if recover { 8 } else { 0 };
    // `--recover` implies flight recording: resurrection replays the
    // failed shard's decision stream out of its flight ring.
    let flight_wanted = flight_out.is_some()
        || flight_audit
        || serve_metrics.is_some()
        || crash_out.is_some()
        || recover;
    let flight_capacity: usize =
        opts.get_or("flight-cap", if flight_wanted { whole_run } else { 0 })?;
    // `--trace-out` exports the recorded decisions, so it records the
    // run even when no flight output was asked for. That recording only
    // feeds the export: the observatory and the flight fields of the
    // report still follow `flight_capacity`.
    let record_capacity = if trace_out.is_some() && flight_capacity == 0 {
        whole_run
    } else {
        flight_capacity
    };
    let flight = (record_capacity > 0).then(|| {
        let mut cfg = cslack_engine::FlightConfig::new(record_capacity, algo_name, eps, seed);
        cfg.audit_on_finish = flight_audit;
        cfg.snapshot_on_error = crash_out.map(std::path::PathBuf::from);
        cfg
    });
    // The quality observatory needs a flight ring to drain and a
    // registry to publish into; when both are on (any metrics output or
    // a telemetry endpoint), score release windows live so `/metrics`
    // carries `cslack_empirical_ratio` for `cslack watch`. `--window 0`
    // disables it.
    let window: f64 = opts.get_or("window", 16.0)?;
    let observatory =
        (flight_capacity > 0 && (registry.is_some() || serve_metrics.is_some()) && window > 0.0)
            .then(|| cslack_engine::ObservatoryConfig::new(window));
    let obs = ObsConfig {
        registry: registry.clone(),
        flight,
        serve_metrics,
        observatory,
        ..ObsConfig::default()
    };

    // Validate the algorithm name once up front (shard groups may have
    // different sizes; the builder below cannot return an error).
    build_algo(algo_name, m, eps, seed)?;
    let mut config = EngineConfig::new(shards);
    config.queue_capacity = opts.get_or("queue-cap", config.queue_capacity)?;
    config.batch_size = opts.get_or("batch", config.batch_size)?;
    let ingest = parse_ingest(opts)?;
    let submit_chunk = config.batch_size.max(1);
    // The builder outlives this call (restart_shard re-invokes it to
    // construct the replacement scheduler), so it owns its inputs.
    let algo = algo_name.to_string();
    let armed = Arc::new(AtomicBool::new(true));
    let engine = Engine::start_with_ingest(m, config, ingest, obs, move |shard, group| {
        let inner = build_algo(&algo, group, eps, seed.wrapping_add(shard as u64))
            .expect("algorithm name validated above");
        // Fault injection targets shard 0 only: the other shards stay
        // healthy so a degraded finish still has a schedule to merge.
        // With `--recover` the wrapper is one-shot — the replacement
        // build after a restart gets the bare scheduler, so replay and
        // resumed serving run clean instead of re-tripping the fault.
        match inject {
            Some(spec) if shard == 0 && (!recover || armed.swap(false, Ordering::SeqCst)) => {
                Box::new(FaultyScheduler::new(inner, spec))
            }
            _ => inner,
        }
    })
    .map_err(|e| e.to_string())?;

    if let Some(addr) = engine.metrics_addr() {
        // On stderr so `--json` consumers keep a clean stdout.
        eprintln!("serving telemetry on http://{addr} (/metrics /healthz /flight/snapshot)");
    }
    // Keep streaming past a failed shard: its jobs bounce with
    // `ShardFailed` while the healthy shards keep accepting. Batched
    // submission amortizes one ring publish over `batch_size` jobs per
    // shard; the `_into` path makes the all-accepted case
    // allocation-free.
    let mut bounced = 0usize;
    let mut resubmitted = 0usize;
    let mut restart_refused = false;
    let mut failures = Vec::new();
    for chunk in inst.jobs().chunks(submit_chunk) {
        engine.submit_batch_into(chunk, &mut failures);
        for err in failures.drain(..) {
            match err {
                SubmitError::ShardFailed(job) => {
                    bounced += 1;
                    if recover && !restart_refused {
                        // Resurrect whatever the health table reports
                        // failed, then re-offer the bounced job on the
                        // rebuilt shard. A refused restart (lossy
                        // flight ring, replay divergence) leaves the
                        // shard down for good — stop retrying so the
                        // rest of the run degrades quietly.
                        for h in engine.health() {
                            if h.state == ShardState::Failed {
                                if let Err(e) = engine.restart_shard(h.shard) {
                                    eprintln!("warning: restart of shard {} refused: {e}", h.shard);
                                    restart_refused = true;
                                }
                            }
                        }
                        if !restart_refused && engine.submit(job).is_ok() {
                            resubmitted += 1;
                        }
                    }
                }
                e => return Err(e.to_string()),
            }
        }
    }
    if recover && inject.is_some() && !restart_refused {
        // Failure detection is asynchronous — the worker marks the
        // health table from its own thread while it dies — so a fault
        // that trips after the producer finished enqueueing never
        // bounces a submission. Sweep the health table briefly and
        // resurrect whatever settles into `Failed`; a fault that never
        // trips (e.g. `delay@N`) just times the grace window out.
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(1500);
        loop {
            let failed: Vec<usize> = engine
                .health()
                .into_iter()
                .filter(|h| h.state == ShardState::Failed)
                .map(|h| h.shard)
                .collect();
            if !failed.is_empty() {
                for shard in failed {
                    if let Err(e) = engine.restart_shard(shard) {
                        eprintln!("warning: restart of shard {shard} refused: {e}");
                        restart_refused = true;
                    }
                }
                break;
            }
            if engine.recovery_stats().restarts > 0 || std::time::Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    let _ = restart_refused;
    let hold: f64 = opts.get_or("hold", 0.0)?;
    if hold > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(hold));
    }
    let report = engine.finish().map_err(|e| e.to_string())?;
    // The flight recording as far as the flight outputs are concerned:
    // absent when only `--trace-out` recorded the run.
    let flight_snap = report.flight.as_ref().filter(|_| flight_capacity > 0);

    let (mut trace_events, mut trace_dropped) = (0, 0);
    if let Some(path) = trace_out {
        let snap = report
            .flight
            .as_ref()
            .ok_or("decision trace requested but no recording was produced")?;
        let decisions = snap.decisions();
        trace_events = decisions.len();
        trace_dropped = snap.total_dropped();
        let file =
            std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
        let mut w = BufWriter::new(file);
        cslack_obs::write_jsonl(decisions, &mut w).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
    }
    if let Some(path) = metrics_out {
        let reg = registry.as_ref().expect("registry created for metrics-out");
        let json = serde_json::to_string_pretty(&reg.snapshot()).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if let Some(path) = prom_out {
        let reg = registry.as_ref().expect("registry created for prom-out");
        std::fs::write(path, reg.render_prometheus())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if let Some(path) = flight_out {
        let snap = flight_snap.ok_or("flight recording requested but none was produced")?;
        let file =
            std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
        let mut w = BufWriter::new(file);
        snap.write_cfr(&mut w).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
    }
    if trace_dropped > 0 {
        eprintln!(
            "warning: the recording behind the decision trace dropped {trace_dropped} \
             record(s); raise --flight-cap for a complete trace"
        );
    }
    let flight_dropped = flight_snap.map_or(0, |s| s.total_dropped());
    if flight_dropped > 0 {
        eprintln!(
            "warning: flight recorder dropped {flight_dropped} record(s); the recording \
             cannot be replayed — raise --flight-cap"
        );
    }

    let validation = cslack_kernel::validate_schedule(&inst, &report.schedule);
    let opt_bound = cslack_opt::bounds::capacity_upper_bound(&inst).min(inst.total_load());
    let accepted_load = report.schedule.accepted_load();
    let measured_ratio = if accepted_load > 0.0 {
        opt_bound / accepted_load
    } else {
        f64::INFINITY
    };
    let paper_bound = RatioFn::new(m).eval(eps).c;
    let out = ServeBenchReport {
        algorithm: algo_name.to_string(),
        metrics: report.metrics,
        schedule_valid: validation.is_valid(),
        violations: validation.violations.len(),
        offered_load: inst.total_load(),
        opt_upper_bound: opt_bound,
        measured_ratio,
        paper_bound,
        trace_events,
        trace_dropped,
        flight_events: flight_snap.map_or(0, |s| s.len()),
        flight_dropped,
        audit_violations: report.audit.as_ref().map(|a| a.violations.len()),
        bounced_submissions: bounced,
        resubmitted,
        recovery: report.recovery,
        degraded: report.degraded.clone(),
    };
    if opts.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "serve-bench {}: shards = {}, m = {m}, eps = {eps}, n = {n}",
            out.algorithm, out.metrics.shards
        );
        println!(
            "  accepted {}/{} jobs, load {:.4} of {:.4} ({:.1}%)",
            out.metrics.accepted,
            out.metrics.submitted,
            out.metrics.accepted_load,
            out.offered_load,
            100.0 * out.metrics.accepted_load / out.offered_load.max(1e-12)
        );
        println!(
            "  merged schedule: {} ({} violation(s))",
            if out.schedule_valid {
                "valid"
            } else {
                "INVALID"
            },
            out.violations
        );
        if !out.degraded.is_empty() {
            println!(
                "  DEGRADED: {} shard(s) failed, {} submission(s) bounced",
                out.degraded.len(),
                out.bounced_submissions
            );
            for failure in &out.degraded {
                println!("    {failure}");
            }
        }
        if !out.recovery.is_empty() {
            let r = &out.recovery;
            println!(
                "  recovery: {} restart(s) — {} recovered-committed, {} re-admitted, \
                 {} re-rejected, {} lost ({} bounced submission(s) re-offered)",
                r.restarts,
                r.recovered_committed,
                r.re_admitted,
                r.re_rejected,
                r.lost,
                out.resubmitted
            );
        }
        println!(
            "  throughput: {:.0} decisions/sec over {:.3}s",
            out.metrics.decisions_per_sec, out.metrics.elapsed_secs
        );
        println!(
            "  decision latency: p50 {} ns, p99 {} ns, max {} ns (queue-wait p99 {} ns)",
            out.metrics.latency.p50_ns,
            out.metrics.latency.p99_ns,
            out.metrics.latency.max_ns,
            out.metrics.queue_wait.p99_ns
        );
        if trace_out.is_some() {
            println!(
                "  trace: {} event(s) recorded, {} dropped",
                out.trace_events, out.trace_dropped
            );
        }
        if flight_wanted {
            println!(
                "  flight: {} record(s) recorded, {} dropped{}",
                out.flight_events,
                out.flight_dropped,
                flight_out
                    .map(|p| format!(", written to {p}"))
                    .unwrap_or_default()
            );
        }
        if let Some(v) = out.audit_violations {
            println!(
                "  audit: {}",
                if v == 0 {
                    "clean".to_string()
                } else {
                    format!("{v} violation(s)")
                }
            );
        }
        println!(
            "  offline upper bound: {:.4} => measured ratio {:.4} (paper c(eps, m) = {:.4})",
            out.opt_upper_bound, out.measured_ratio, out.paper_bound
        );
        println!(
            "  metrics: {}",
            serde_json::to_string(&out.metrics).map_err(|e| e.to_string())?
        );
    }
    if !out.schedule_valid {
        return Err(format!(
            "merged schedule failed validation with {} violation(s)",
            out.violations
        ));
    }
    if let Some(audit) = &report.audit {
        if !audit.is_clean() {
            let first = &audit.violations[0];
            return Err(format!(
                "flight audit found {} violation(s), first [{}]: {}",
                audit.violations.len(),
                first.check,
                first.message
            ));
        }
    }
    Ok(())
}

/// `cslack serve` — host the network-facing admission service.
///
/// Tenants are comma-separated `name:m:eps[:algo[:shards[:seed]]]`
/// specs; each gets its own engine, metrics, flight recorder, and
/// in-flight quota. `--telemetry <addr>` serves `/metrics`, `/healthz`
/// and `/flight/snapshot?tenant=NAME` over HTTP. `--inject
/// <tenant>=<kind>@<n>` wraps that tenant's shard-0 scheduler in a
/// [`FaultyScheduler`] for chaos drills. `--recover` arms every
/// tenant's recovery watcher: a failed shard is resurrected in place
/// (flight-ring replay, bit-identical), submissions caught mid-failure
/// get a transient `Retry` frame instead of a terminal reject, and the
/// injected fault fires only on the first build so the replacement
/// serves clean. With `--exit-when-drained` the process exits 0 once
/// every tenant has been drained by its clients; `--max-secs` bounds
/// the run either way.
pub fn serve(opts: &Opts) -> Result<(), String> {
    use cslack_server::{Server, ServerConfig, TenantSpec};
    let listen: std::net::SocketAddr = opts.get_or("listen", "127.0.0.1:7437".parse().unwrap())?;
    let telemetry: Option<std::net::SocketAddr> = match opts.get("telemetry") {
        Some(_) => Some(opts.require_as("telemetry")?),
        None => None,
    };
    let ingest = parse_ingest(opts)?;
    let mut tenants = Vec::new();
    for spec in opts.require("tenants")?.split(',') {
        let mut spec = TenantSpec::parse(spec)?;
        spec.inflight_limit = opts.get_or("inflight", spec.inflight_limit)?;
        spec.queue_capacity = opts.get_or("queue-cap", spec.queue_capacity)?;
        spec.batch_size = opts.get_or("batch", spec.batch_size)?;
        spec.ingest = ingest;
        spec.recover = opts.flag("recover");
        tenants.push(spec);
    }
    if let Some(raw) = opts.get("inject") {
        let (name, fault) = raw
            .split_once('=')
            .ok_or_else(|| format!("--inject `{raw}` is not of the form tenant=kind@n"))?;
        let fault: FaultSpec = fault.parse()?;
        let tenant = tenants
            .iter_mut()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("--inject names unknown tenant `{name}`"))?;
        tenant.fault = Some(fault);
    }
    let server = Server::start(ServerConfig {
        listen,
        telemetry,
        tenants,
    })?;
    println!("listening on {}", server.addr());
    if let Some(addr) = server.telemetry_addr() {
        println!("telemetry on http://{addr} (/metrics /healthz /flight/snapshot)");
    }
    // The CI smoke test parses the lines above from a pipe; make sure
    // they are not stuck in a block buffer.
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let exit_when_drained = opts.flag("exit-when-drained");
    let max_secs: f64 = opts.get_or("max-secs", 0.0)?;
    let started = std::time::Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(50));
        if exit_when_drained && server.all_drained() {
            break;
        }
        if max_secs > 0.0 && started.elapsed().as_secs_f64() >= max_secs {
            server.drain_all();
            break;
        }
    }
    server.shutdown();
    println!("drained; bye");
    Ok(())
}

/// `cslack loadgen` — open-loop load generator against a running
/// server. Offers `--rate` jobs/sec on each of `--conns` connections
/// per tenant, measures decision latency end to end, then drains each
/// tenant (unless `--no-drain`) and reports offered vs achieved
/// throughput with tail percentiles. `--out <file>` writes the JSON
/// report (the committed benchmark artifact is `BENCH_serve.json`).
pub fn loadgen(opts: &Opts) -> Result<(), String> {
    use cslack_server::loadgen::{run as loadgen_run, LoadgenConfig};
    let mut config = LoadgenConfig::default();
    config.connect = opts.get_or("connect", config.connect)?;
    config.tenants = opts
        .require("tenants")?
        .split(',')
        .map(str::to_string)
        .collect();
    config.conns = opts.get_or("conns", config.conns)?;
    config.rate = opts.get_or("rate", config.rate)?;
    config.jobs = opts.get_or("n", config.jobs)?;
    config.batch = opts.get_or("batch", config.batch)?;
    config.seed = opts.get_or("seed", config.seed)?;
    config.drain = !opts.flag("no-drain");
    let report = loadgen_run(&config)?;
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    if let Some(path) = opts.get("out") {
        std::fs::write(path, json.clone() + "\n")
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if opts.flag("json") {
        println!("{json}");
        return Ok(());
    }
    println!(
        "loadgen: {} tenant(s) x {} conn(s) x {} job(s), offered {:.0}/s",
        report.tenants, report.conns_per_tenant, report.jobs_per_conn, report.offered_rate
    );
    println!(
        "  achieved {:.0} decisions/s over {:.3}s wall",
        report.achieved_rate, report.wall_secs
    );
    println!(
        "  submitted {}, decided {} (accepted {}, rejected {}), backpressured {}, \
         errored {}, undecided {}",
        report.submitted,
        report.decided,
        report.accepted,
        report.rejected,
        report.backpressured,
        report.errored,
        report.undecided
    );
    println!(
        "  decision latency: p50 {} us, p99 {} us, p999 {} us, max {} us",
        report.latency_us.p50, report.latency_us.p99, report.latency_us.p999, report.latency_us.max
    );
    for t in &report.per_tenant {
        println!(
            "  tenant {}: submitted {}, accepted {}, rejected {}, p99 {} us{}",
            t.tenant,
            t.submitted,
            t.accepted,
            t.rejected,
            t.latency_us.p99,
            match &t.summary {
                Some(s) => format!(
                    " | drained: load {:.3}, makespan {:.3}, {} failed shard(s)",
                    s.accepted_load, s.makespan, s.failed_shards
                ),
                None => String::new(),
            }
        );
    }
    Ok(())
}

/// Reads and checksums a `.cfr` flight recording.
pub(crate) fn read_cfr_file(path: &str) -> Result<cslack_obs::FlightSnapshot, String> {
    let mut file = std::fs::File::open(path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
    cslack_obs::FlightSnapshot::read_cfr(&mut file)
}

/// `cslack replay <run.cfr>` — rebuild the recorded run's schedulers
/// from the `.cfr` header, feed each shard its recorded submission
/// stream, and verify the regenerated decision stream is bit-identical
/// to the recorded one. A divergence (or an incomplete recording) is a
/// hard error naming the first differing decision.
pub fn replay(opts: &Opts) -> Result<(), String> {
    let path = opts.require("in")?;
    let snap = read_cfr_file(path)?;
    let algo = snap.header.algorithm.clone();
    let eps = snap.header.eps;
    let seed = snap.header.seed;
    // Validate the algorithm label once up front; per-shard builders
    // below cannot return an error.
    build_algo(&algo, (snap.header.m as usize).max(1), eps, seed)?;
    let report = cslack_sim::audit::replay_snapshot(&snap, |shard, group| {
        build_algo(&algo, group, eps, seed.wrapping_add(shard as u64))
            .expect("algorithm label validated above")
    })?;
    if opts.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "replay {path}: {} (m = {}, shards = {}, eps = {}, algo = {algo})",
            if report.is_identical() {
                "bit-identical"
            } else {
                "DIVERGED"
            },
            snap.header.m,
            snap.header.shards,
            eps
        );
        println!(
            "  {} decision(s) re-derived and compared",
            report.decisions_replayed
        );
    }
    match report.divergence {
        None => Ok(()),
        Some(d) => Err(format!(
            "replay diverged at shard {} seq {} (job {}): {} recorded as {} but \
             regenerated as {}",
            d.shard, d.seq, d.job, d.field, d.recorded, d.regenerated
        )),
    }
}

/// `cslack audit <run.cfr>` — re-derive every invariant the paper's
/// model imposes from the trace alone: lane exclusivity, commitment
/// windows (`r_j <= s_j <= d_j - p_j`), the slack condition at
/// admission, threshold accept/reject consistency against the recorded
/// load and the `c(eps, m)` table, and counter agreement. Any violation
/// is a hard error.
pub fn audit(opts: &Opts) -> Result<(), String> {
    let path = opts.require("in")?;
    let snap = read_cfr_file(path)?;
    let report = cslack_sim::audit::audit_snapshot(&snap);
    if opts.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "audit {path}: {} (m = {}, shards = {}, eps = {}, algo = {})",
            if report.is_clean() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", report.violations.len())
            },
            snap.header.m,
            snap.header.shards,
            snap.header.eps,
            snap.header.algorithm
        );
        println!(
            "  {} decision(s), {} commitment(s) checked; counters {}; {} dropped record(s)",
            report.decisions_checked,
            report.commitments_checked,
            if report.counters_checked {
                "cross-checked"
            } else {
                "skipped (incomplete window)"
            },
            report.dropped
        );
        for v in &report.violations {
            let mut site = String::new();
            if let Some(s) = v.shard {
                site.push_str(&format!(" shard {s}"));
            }
            if let Some(j) = v.job {
                site.push_str(&format!(" job {j}"));
            }
            println!("  [{}]{}: {}", v.check, site, v.message);
        }
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "flight audit found {} violation(s)",
            report.violations.len()
        ))
    }
}

/// One stage's span distribution in a latency waterfall.
#[derive(Serialize)]
struct StageStats {
    stage: &'static str,
    summary: HistogramSummary,
}

/// One shard's slice of the waterfall.
#[derive(Serialize)]
struct ShardLatency {
    shard: u32,
    stamped: u64,
    end_to_end: HistogramSummary,
    stages: Vec<StageStats>,
}

/// One span of a slow job's timeline (`None`: a hop never stamped).
#[derive(Serialize)]
struct SlowSpan {
    stage: &'static str,
    ns: Option<u64>,
}

/// A top-k slowest job with its full per-stage timeline.
#[derive(Serialize)]
struct SlowJob {
    job: u32,
    shard: u32,
    accepted: bool,
    end_to_end_ns: u64,
    spans: Vec<SlowSpan>,
}

/// The full `cslack latency --json` report.
#[derive(Serialize)]
struct LatencyReport {
    source: String,
    algorithm: String,
    m: u32,
    shards: u32,
    eps: f64,
    decisions: u64,
    stamped: u64,
    unstamped: u64,
    dropped: u64,
    stages: Vec<StageStats>,
    end_to_end: HistogramSummary,
    per_shard: Vec<ShardLatency>,
    slowest: Vec<SlowJob>,
}

fn breakdown_rows(b: &StageBreakdown) -> Vec<StageStats> {
    STAGE_SPANS
        .iter()
        .zip(b.spans.iter())
        .map(|(&(name, _, _), h)| StageStats {
            stage: name,
            summary: h.summary(),
        })
        .collect()
}

/// Minimal HTTP/1.1 GET over plain TCP (std only) — enough to fetch
/// `/flight/snapshot` from the engine's or server's telemetry endpoint.
pub(crate) fn http_get_bytes(url: &str) -> Result<Vec<u8>, String> {
    use std::io::{Read as _, Write as _};
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("`{url}`: only http:// URLs are supported"))?;
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    let mut stream = std::net::TcpStream::connect(host)
        .map_err(|e| format!("cannot connect to `{host}`: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("reading response from `{host}`: {e}"))?;
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("malformed HTTP response (no header/body split)")?;
    let head = String::from_utf8_lossy(&response[..split]);
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200") {
        return Err(format!("GET {url} failed: {status}"));
    }
    Ok(response[split + 4..].to_vec())
}

/// One stage's row in a `latency --follow` poll: p99 over the
/// decisions new in this poll, and over the trailing 60 s window.
#[derive(Serialize)]
struct FollowStage {
    stage: &'static str,
    new_p99_ns: u64,
    p99_60s_ns: u64,
}

/// One `latency --follow` poll, emitted as a JSON line with `--json`.
#[derive(Serialize)]
struct FollowSample {
    poll: u64,
    new_decisions: u64,
    end_to_end_new: HistogramSummary,
    end_to_end_60s: HistogramSummary,
    stages: Vec<FollowStage>,
}

/// `cslack latency --follow` — re-polls a live `/flight/snapshot`
/// every `--every` seconds and prints per-stage latency of only the
/// decisions that are *new* since the previous poll (per-shard `seq`
/// watermarks), alongside a trailing-60s windowed view fed through the
/// same bucket rings the engine's window panel uses. Cumulative
/// since-boot numbers — what repeated plain `latency` calls would show
/// — never appear.
fn latency_follow(opts: &Opts) -> Result<(), String> {
    use cslack_obs::WindowedHistogram;
    use std::collections::HashMap;

    let url = opts
        .get("url")
        .ok_or("`--follow` needs `--url http://<addr>/flight/snapshot`")?;
    let every: f64 = opts.get_or("every", 2.0)?;
    if !(every.is_finite() && every > 0.0) {
        return Err("`--every` must be positive".to_string());
    }
    let polls: u64 = opts.get_or("polls", 0)?; // 0 = follow forever
    let json = opts.flag("json");

    // Trailing-window rings driven by this process's own monotonic
    // clock: absolute bucket indexing makes the "60s" column an honest
    // sliding window even though polls arrive in bursts.
    let start = std::time::Instant::now();
    let stage_windows: Vec<WindowedHistogram> = STAGE_SPANS
        .iter()
        .map(|_| WindowedHistogram::seconds())
        .collect();
    let e2e_window = WindowedHistogram::seconds();
    let mut next_seq: HashMap<u32, u64> = HashMap::new();
    let mut poll_no = 0u64;
    loop {
        poll_no += 1;
        let body = http_get_bytes(url)?;
        let snap = cslack_obs::FlightSnapshot::read_cfr(&mut body.as_slice())?;
        let now_ns = start.elapsed().as_nanos() as u64;
        let mut delta = StageBreakdown::new();
        for block in &snap.shards {
            let watermark = next_seq.entry(block.shard).or_insert(0);
            for event in &block.events {
                if let FlightEvent::Decision(d) = event {
                    if d.seq < *watermark {
                        continue;
                    }
                    *watermark = d.seq + 1;
                    delta.record(&d.stamps);
                    for (i, &(_, from, to)) in STAGE_SPANS.iter().enumerate() {
                        if let Some(ns) = d.stamps.span(from, to) {
                            stage_windows[i].record(now_ns, ns);
                        }
                    }
                    if let Some(e2e) = d.stamps.server_end_to_end() {
                        e2e_window.record(now_ns, e2e);
                    }
                }
            }
        }
        let sample = FollowSample {
            poll: poll_no,
            new_decisions: delta.stamped + delta.unstamped,
            end_to_end_new: delta.end_to_end.summary(),
            end_to_end_60s: e2e_window.aggregate_last(now_ns, 60).summary(),
            stages: STAGE_SPANS
                .iter()
                .zip(delta.spans.iter())
                .zip(stage_windows.iter())
                .map(|((&(name, _, _), new_h), win)| FollowStage {
                    stage: name,
                    new_p99_ns: new_h.summary().p99_ns,
                    p99_60s_ns: win.aggregate_last(now_ns, 60).summary().p99_ns,
                })
                .collect(),
        };
        if json {
            println!(
                "{}",
                serde_json::to_string(&sample).map_err(|e| e.to_string())?
            );
        } else {
            let stages = sample
                .stages
                .iter()
                .map(|s| format!("{} {}/{}", s.stage, s.new_p99_ns, s.p99_60s_ns))
                .collect::<Vec<_>>()
                .join("  ");
            println!(
                "poll {} (+{} new)  e2e p99 {}/{} ns  [stage p99 new/60s ns] {stages}",
                sample.poll,
                sample.new_decisions,
                sample.end_to_end_new.p99_ns,
                sample.end_to_end_60s.p99_ns,
            );
        }
        if polls != 0 && poll_no >= polls {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(every));
    }
}

/// `cslack latency` — the stage-resolved waterfall of a run. Reads a
/// `.cfr` flight recording (positional or `--in`) or fetches a live
/// one from a telemetry endpoint (`--url
/// http://<addr>/flight/snapshot[?tenant=NAME]`), then reports per-span
/// p50/p90/p99/p999 overall and per shard, plus the `--top` slowest
/// jobs with their complete timelines. A recording without stage stamps
/// degrades to an explicit "no timeline data" note instead of an empty
/// waterfall.
/// With `--follow`, switches to the windowed live poller instead.
pub fn latency(opts: &Opts) -> Result<(), String> {
    if opts.flag("follow") {
        return latency_follow(opts);
    }
    let top: usize = opts.get_or("top", 5)?;
    let (source, snap) = match opts.get("url") {
        Some(url) => {
            let body = http_get_bytes(url)?;
            (
                url.to_string(),
                cslack_obs::FlightSnapshot::read_cfr(&mut body.as_slice())?,
            )
        }
        None => {
            let path = opts.require("in")?;
            (path.to_string(), read_cfr_file(path)?)
        }
    };

    let mut total = StageBreakdown::new();
    let mut per_shard = Vec::new();
    let mut slowest = Vec::new();
    for block in &snap.shards {
        let mut b = StageBreakdown::new();
        for event in &block.events {
            if let FlightEvent::Decision(d) = event {
                b.record(&d.stamps);
                if let Some(e2e) = d.stamps.server_end_to_end() {
                    slowest.push(SlowJob {
                        job: d.job,
                        shard: block.shard,
                        accepted: d.accepted,
                        end_to_end_ns: e2e,
                        spans: STAGE_SPANS
                            .iter()
                            .map(|&(name, from, to)| SlowSpan {
                                stage: name,
                                ns: d.stamps.span(from, to),
                            })
                            .collect(),
                    });
                }
            }
        }
        per_shard.push(ShardLatency {
            shard: block.shard,
            stamped: b.stamped,
            end_to_end: b.end_to_end.summary(),
            stages: breakdown_rows(&b),
        });
        total.merge(&b);
    }
    slowest.sort_by(|a, b| {
        b.end_to_end_ns
            .cmp(&a.end_to_end_ns)
            .then(a.job.cmp(&b.job))
    });
    slowest.truncate(top);

    let report = LatencyReport {
        source,
        algorithm: snap.header.algorithm.clone(),
        m: snap.header.m,
        shards: snap.header.shards,
        eps: snap.header.eps,
        decisions: total.stamped + total.unstamped,
        stamped: total.stamped,
        unstamped: total.unstamped,
        dropped: snap.total_dropped(),
        stages: breakdown_rows(&total),
        end_to_end: total.end_to_end.summary(),
        per_shard,
        slowest,
    };
    if opts.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!(
        "latency {}: algo {}, m = {}, shards = {}, eps = {}",
        report.source, report.algorithm, report.m, report.shards, report.eps
    );
    println!(
        "  {} decision(s): {} stamped, {} unstamped, {} dropped record(s)",
        report.decisions, report.stamped, report.unstamped, report.dropped
    );
    if !total.has_timeline() {
        println!("  no timeline data (the recording carries no stage stamps)");
        return Ok(());
    }
    let e2e_mean = total.end_to_end.mean().max(1);
    println!(
        "  {:<10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}  waterfall",
        "stage", "count", "p50 ns", "p90 ns", "p99 ns", "p999 ns", "max ns"
    );
    for row in &report.stages {
        let s = &row.summary;
        // Bar length = this span's share of the end-to-end mean.
        let share = s.mean_ns as f64 / e2e_mean as f64;
        let bar = "#".repeat(((share * 24.0).round() as usize).min(24));
        println!(
            "  {:<10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}  |{bar:<24}| {:.1}%",
            row.stage,
            s.count,
            s.p50_ns,
            s.p90_ns,
            s.p99_ns,
            s.p999_ns,
            s.max_ns,
            100.0 * share
        );
    }
    let e = &report.end_to_end;
    println!(
        "  {:<10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "end-to-end", e.count, e.p50_ns, e.p90_ns, e.p99_ns, e.p999_ns, e.max_ns
    );
    for s in &report.per_shard {
        println!(
            "  shard {}: {} stamped, e2e p50 {} ns, p99 {} ns, max {} ns (queue p99 {} ns, \
             decide p99 {} ns)",
            s.shard,
            s.stamped,
            s.end_to_end.p50_ns,
            s.end_to_end.p99_ns,
            s.end_to_end.max_ns,
            s.stages[2].summary.p99_ns,
            s.stages[3].summary.p99_ns
        );
    }
    if !report.slowest.is_empty() {
        println!("  slowest end-to-end job(s):");
        for j in &report.slowest {
            let spans = j
                .spans
                .iter()
                .map(|s| match s.ns {
                    Some(ns) => format!("{} {ns}", s.stage),
                    None => format!("{} -", s.stage),
                })
                .collect::<Vec<_>>()
                .join(" | ");
            println!(
                "    J{} shard {} {}: e2e {} ns  ({spans})",
                j.job,
                j.shard,
                if j.accepted { "accepted" } else { "rejected" },
                j.end_to_end_ns
            );
        }
    }
    Ok(())
}

/// The timeline section a `.cfr` adds to `trace-summary --json`.
#[derive(Serialize)]
struct TimelineSection {
    /// Decisions that carried at least one stamp.
    stamped: u64,
    /// Decisions with all-zero stamps (nothing stamped them).
    unstamped: u64,
    /// Per-stage span distributions, [`STAGE_SPANS`] order.
    stages: Vec<StageStats>,
    /// Server-side end-to-end distribution.
    end_to_end: HistogramSummary,
}

/// `trace-summary --json` output for a `.cfr` input: the JSONL-shaped
/// summary plus the timeline section when the recording carries stamps.
#[derive(Serialize)]
struct CfrTraceSummary {
    summary: TraceSummary,
    timeline: Option<TimelineSection>,
}

fn timeline_section(b: &StageBreakdown) -> Option<TimelineSection> {
    b.has_timeline().then(|| TimelineSection {
        stamped: b.stamped,
        unstamped: b.unstamped,
        stages: breakdown_rows(b),
        end_to_end: b.end_to_end.summary(),
    })
}

/// `cslack trace-summary` — aggregate a decision trace back into
/// counters and latency distributions. Accepts either a JSONL decision
/// trace or a `.cfr` flight recording (detected by magic); the totals
/// reproduce the engine's own metrics exactly when the trace captured
/// every event. A `.cfr` whose decisions carry stage stamps
/// additionally gets a per-stage timeline section; JSONL traces (and
/// unstamped recordings) degrade to an explicit "no timeline data"
/// note.
pub fn trace_summary(opts: &Opts) -> Result<(), String> {
    let path = opts.require("in")?;
    let mut magic = [0u8; 4];
    {
        use std::io::Read as _;
        let mut file =
            std::fs::File::open(path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
        // A short file simply fails the magic check and falls through
        // to the JSONL parser (which reports its own error).
        let _ = file.read(&mut magic);
    }
    let is_cfr = &magic == cslack_obs::flight::CFR_MAGIC;
    let (events, breakdown) = if is_cfr {
        let snap = read_cfr_file(path)?;
        let mut b = StageBreakdown::new();
        let mut events = Vec::new();
        for d in snap.stamped_decisions() {
            b.record(&d.stamps);
            events.push(d.event.clone());
        }
        (events, Some(b))
    } else {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
        (cslack_obs::read_jsonl(BufReader::new(file))?, None)
    };
    let summary = cslack_obs::summarize(&events)?;
    if opts.flag("json") {
        // JSONL inputs keep the bare TraceSummary shape existing
        // consumers parse; `.cfr` inputs wrap it with the timeline.
        let json = match &breakdown {
            Some(b) => serde_json::to_string_pretty(&CfrTraceSummary {
                summary,
                timeline: timeline_section(b),
            }),
            None => serde_json::to_string_pretty(&summary),
        };
        println!("{}", json.map_err(|e| e.to_string())?);
        return Ok(());
    }
    println!(
        "trace {path}: {} decision(s), accepted {}, rejected {}",
        summary.decisions,
        summary.accepted,
        summary.rejected.total()
    );
    if summary.dropped > 0 {
        println!(
            "  WARNING: ring dropped {} event(s) (inferred from seq gaps); totals below \
             cover only the recorded window",
            summary.dropped
        );
    }
    for reason in cslack_obs::RejectReason::ALL {
        let count = summary.rejected.get(reason);
        if count > 0 {
            println!("  rejected[{}] = {count}", reason.as_str());
        }
    }
    println!(
        "  decision latency: p50 {} ns, p90 {} ns, p99 {} ns, max {} ns",
        summary.latency.p50_ns,
        summary.latency.p90_ns,
        summary.latency.p99_ns,
        summary.latency.max_ns
    );
    println!(
        "  queue wait:       p50 {} ns, p90 {} ns, p99 {} ns, max {} ns",
        summary.queue_wait.p50_ns,
        summary.queue_wait.p90_ns,
        summary.queue_wait.p99_ns,
        summary.queue_wait.max_ns
    );
    for s in &summary.per_shard {
        println!(
            "  shard {}: {} decision(s), accepted {}, rejected {}, dropped {}",
            s.shard,
            s.decisions,
            s.accepted,
            s.rejected.total(),
            s.dropped
        );
    }
    match &breakdown {
        Some(b) if b.has_timeline() => {
            println!(
                "  timeline (per-stage means over {} stamped decision(s)):",
                b.stamped
            );
            for (&(name, _, _), h) in STAGE_SPANS.iter().zip(b.spans.iter()) {
                println!(
                    "    {name:<10} mean {:>9} ns  (p99 {} ns, {} sample(s))",
                    h.mean(),
                    h.quantile(0.99),
                    h.count()
                );
            }
            let e = &b.end_to_end;
            println!(
                "    {:<10} mean {:>9} ns  (p99 {} ns, {} sample(s))",
                "end-to-end",
                e.mean(),
                e.quantile(0.99),
                e.count()
            );
        }
        Some(_) => println!("  no timeline data (the recording carries no stage stamps)"),
        None => println!("  no timeline data (JSONL traces carry no stage stamps)"),
    }
    Ok(())
}

/// `cslack adversary` — play the Theorem-1 game.
pub fn adversary(opts: &Opts) -> Result<(), String> {
    let m: usize = opts.require_as("m")?;
    let eps: f64 = opts.require_as("eps")?;
    let seed: u64 = opts.get_or("seed", 0)?;
    let algo_name = opts.get("algo").unwrap_or("threshold");
    let mut alg = build_algo(algo_name, m, eps, seed)?;
    let mut cfg = AdversaryConfig::new(m, eps);
    cfg.beta = opts.get_or("beta", cfg.beta)?;
    let out = adversary_run(&cfg, alg.as_mut());
    println!("adversary vs {}: m = {m}, eps = {eps}", alg.name());
    println!("  stop: {:?}", out.stop);
    println!("  online load : {:.4}", out.online_load());
    println!("  witness OPT : {:.4}", out.witness_load());
    println!("  forced ratio: {:.4}", out.ratio);
    println!(
        "  c(eps, m)   : {:.4}  (ratio/c = {:.4})",
        out.predicted,
        out.ratio / out.predicted
    );
    Ok(())
}

/// `cslack import-swf` — convert a Standard Workload Format log into a
/// cslack trace (deadlines synthesized per the system slack).
pub fn import_swf(opts: &Opts) -> Result<(), String> {
    use cslack_workloads::swf;
    let file = opts.require("file")?;
    let m: usize = opts.require_as("m")?;
    let eps: f64 = opts.require_as("eps")?;
    let out = opts.require("out")?;
    let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
    let jobs = swf::parse_swf(&text).map_err(|e| e.to_string())?;
    let mut import = swf::SwfImport::new(m, eps, opts.get_or("seed", 0)?);
    import.procs_scale = opts
        .get("procs-scale")
        .map(|v| v == "true")
        .unwrap_or(false);
    import.time_scale = opts.get_or("time-scale", import.time_scale)?;
    let inst = swf::swf_to_instance(&jobs, &import).map_err(|e| e.to_string())?;
    trace::save(&inst, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "imported {} SWF jobs -> {} (m = {m}, eps = {eps}, volume {:.3})",
        inst.len(),
        out,
        inst.total_load()
    );
    Ok(())
}

/// `cslack tree` — print the Fig.-2 style adversary decision tree.
pub fn tree(opts: &Opts) -> Result<(), String> {
    let m: usize = opts.require_as("m")?;
    let eps: f64 = opts.require_as("eps")?;
    let t = cslack_adversary::tree::DecisionTree::build(m, eps);
    print!("{}", t.ascii());
    println!(
        "minimax = {:.4}  (Theorem 1 c(eps, m) = {:.4})",
        t.min_leaf_ratio(),
        t.params.c
    );
    Ok(())
}

/// `cslack cover` — covered-interval diagnostics of one run.
pub fn cover(opts: &Opts) -> Result<(), String> {
    let inst = load_or_generate(opts)?;
    let algo_name = opts.get("algo").unwrap_or("threshold");
    let mut alg = build_algo(
        algo_name,
        inst.machines(),
        inst.slack(),
        opts.get_or("seed", 0)?,
    )?;
    let report = run_sim(&inst, alg.as_mut()).map_err(|e| e.to_string())?;
    let a = cslack_sim::analysis::cover_analysis(&inst, &report);
    println!(
        "{}: {} covered interval(s) over horizon {:.3} ({:.1}% covered)",
        report.algorithm,
        a.covered.len(),
        a.horizon,
        100.0 * a.covered_time() / a.horizon.max(1e-12)
    );
    for c in &a.covered {
        println!(
            "  [{:.3}, {:.3})  rejected {:>3} jobs ({:.3} volume)  online load {:.3}/{:.3} ({:.0}%)",
            c.interval.start,
            c.interval.end,
            c.rejected_jobs,
            c.rejected_volume,
            c.online_load,
            c.capacity,
            100.0 * c.utilization()
        );
    }
    Ok(())
}

/// `cslack opt` — offline bounds for a trace.
pub fn opt(opts: &Opts) -> Result<(), String> {
    let inst = load_or_generate(opts)?;
    let limit: usize = opts.get_or("exact-limit", 16)?;
    let est = cslack_opt::estimate(&inst, limit);
    println!(
        "jobs: {}, machines: {}, volume {:.4}",
        inst.len(),
        inst.machines(),
        inst.total_load()
    );
    println!("  certified lower bound: {:.4}", est.lower);
    println!("  certified upper bound: {:.4}", est.upper);
    match est.exact {
        Some(x) => println!("  exact optimum: {x:.4}"),
        None => {
            println!("  exact optimum: skipped (n > {limit}; raise --exact-limit)");
            let rounds: usize = opts.get_or("local-search", 0)?;
            if rounds > 0 {
                let ls = cslack_opt::bounds::local_search_lower_bound(&inst, rounds);
                println!("  local-search lower bound ({rounds} rounds): {ls:.4}");
            }
        }
    }
    Ok(())
}
