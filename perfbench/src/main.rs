//! The cslack benchmark: four workloads, their end-to-end metrics, the
//! correctness checks on every output, and a traced run that resolves
//! the time layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <engine_saturate|serve_closed|replay_audit|opt_exact|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Any failed check makes the run exit with status 1.

mod common;
mod engine_saturate;
mod opt_exact;
mod probes;
mod provenance;
mod replay_audit;
mod serve_closed;
mod stats;
mod trace;

use common::{Lifecycle, Workload, JOBS, M};
use stats::{beyond, median, quantile};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};
use trace::Tracer;

const WORKLOADS: [&str; 4] = [
    "engine_saturate",
    "serve_closed",
    "replay_audit",
    "opt_exact",
];

/// Consecutive lifecycles pooled into one sample; the end-to-end figures
/// are medians over these samples. Single in-process engine lifecycles
/// spread by more than a tenth within one run, so a sample measures
/// several.
const GROUP: usize = 4;
/// Every run measures at least this many groups after the warm-up.
const MIN_GROUPS: usize = 2;

/// End-to-end metrics, printed with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("load_share", "ratio"),
];

/// Per-layer metrics, printed by the traced run, in output order.
const PER_LAYER: [(&str, &str); 45] = [
    ("workloads.generate_s", "s"),
    ("ratio.solve_s", "s"),
    ("algorithms.offer_ns", "ns"),
    ("engine.start_s", "s"),
    ("engine.finish_s", "s"),
    ("engine.submit_block_share", "ratio"),
    ("engine.busy_share", "ratio"),
    ("engine.batches", "count"),
    ("engine.backpressure_stalls", "count"),
    ("engine.window_quality_ms", "ms"),
    ("obs.flight_tax", "ratio"),
    ("obs.flight_tax_base", "1/s"),
    ("obs.observatory_tax", "ratio"),
    ("obs.observatory_tax_base", "1/s"),
    ("obs.quality_windows", "count/1k"),
    ("obs.snapshot_s", "s"),
    ("obs.write_cfr_s", "s"),
    ("obs.cfr_bytes_per_decision", "B"),
    ("obs.cfr_read_ns", "ns"),
    ("sim.replay_ns", "ns"),
    ("sim.audit_ns", "ns"),
    ("opt.flow_ms", "ms"),
    ("opt.exact_ms_hard", "ms"),
    ("opt.exact_ms_easy", "ms"),
    ("server.start_s", "s"),
    ("server.encode_ns", "ns"),
    ("server.decode_ns", "ns"),
    ("client.hello_s", "s"),
    ("client.send_block_share", "ratio"),
    ("client.recv_wait_share", "ratio"),
    ("client.p99_ms", "ms"),
    ("client.p999_ms", "ms"),
    ("client.samples", "count"),
    ("trace.overhead", "ratio"),
    ("trace.work_per_s_traced", "1/s"),
    ("trace.work_per_s_untraced", "1/s"),
    ("trace.spans", "count"),
    ("self_share.bench", "ratio"),
    ("self_share.client", "ratio"),
    ("self_share.workloads", "ratio"),
    ("self_share.engine", "ratio"),
    ("self_share.obs", "ratio"),
    ("self_share.sim", "ratio"),
    ("self_share.opt", "ratio"),
    ("self_share.server", "ratio"),
];

/// The layers `self_share.*` covers, with their metric names.
const SELF_LAYERS: [(&str, &str); 8] = [
    ("bench", "self_share.bench"),
    ("client", "self_share.client"),
    ("workloads", "self_share.workloads"),
    ("engine", "self_share.engine"),
    ("obs", "self_share.obs"),
    ("sim", "self_share.sim"),
    ("opt", "self_share.opt"),
    ("server", "self_share.server"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn prepare(name: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "engine_saturate" => Box::new(engine_saturate::EngineSaturate::prepare(seed, tr)?),
        "serve_closed" => Box::new(serve_closed::ServeClosed::prepare(seed, tr)?),
        "replay_audit" => Box::new(replay_audit::ReplayAudit::prepare(seed, tr)?),
        "opt_exact" => Box::new(opt_exact::OptExact::prepare(seed, tr)?),
        other => unreachable!("workload {other} was validated"),
    })
}

/// Everything one workload's run produced.
#[derive(Default)]
struct Run {
    params: String,
    /// Measured lifecycles, each flagged with whether it was traced.
    lifecycles: Vec<(bool, Lifecycle)>,
    setups: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    seconds_used: f64,
}

impl Run {
    fn absorb_checks(&mut self, life: &Lifecycle) {
        self.attempted += life.attempted;
        self.failed += life.failed;
        self.errors.extend(life.errors.iter().cloned());
    }

    fn lifecycles(&self, traced: bool) -> impl Iterator<Item = &Lifecycle> {
        self.lifecycles
            .iter()
            .filter(move |(t, _)| *t == traced)
            .map(|(_, l)| l)
    }

    /// Full groups of consecutive lifecycles that were (not) traced.
    fn groups(&self, traced: bool) -> Vec<Vec<&Lifecycle>> {
        let lives: Vec<&Lifecycle> = self.lifecycles(traced).collect();
        lives.chunks_exact(GROUP).map(<[_]>::to_vec).collect()
    }

    /// Median over groups of each group's work per second.
    fn work_per_s(&self, traced: bool) -> f64 {
        let rates: Vec<f64> = self
            .groups(traced)
            .iter()
            .map(|g| {
                let work: u64 = g.iter().map(|l| l.work).sum();
                let secs: f64 = g.iter().map(|l| l.measured_s).sum();
                work as f64 / secs
            })
            .collect();
        median(&rates)
    }

    /// Median over groups of each group's median per-operation time.
    fn p50_ms(&self, traced: bool) -> f64 {
        let medians: Vec<f64> = self
            .groups(traced)
            .iter()
            .map(|g| {
                let mut pooled: Vec<f64> = g
                    .iter()
                    .flat_map(|l| l.samples_ms.iter().copied())
                    .collect();
                quantile(&mut pooled, 0.5)
            })
            .collect();
        median(&medians)
    }

    fn layer_values(&self, name: &str) -> Vec<f64> {
        self.lifecycles
            .iter()
            .flat_map(|(_, l)| l.layer.iter())
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    }

    fn samples_ms(&self) -> Vec<f64> {
        self.lifecycles
            .iter()
            .flat_map(|(_, l)| l.samples_ms.iter().copied())
            .collect()
    }

    /// The end-to-end metrics over the untraced lifecycles.
    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let untraced: Vec<&Lifecycle> = self.lifecycles(false).collect();
        let accepted: f64 = untraced.iter().map(|l| l.accepted_load).sum();
        let offered: f64 = untraced.iter().map(|l| l.offered_load).sum();
        BTreeMap::from([
            ("setup_s", median(&self.setups)),
            ("work_per_s", self.work_per_s(false)),
            ("p50_ms", self.p50_ms(false)),
            ("load_share", accepted / offered),
        ])
    }
}

/// Prepares `name`, runs one warm-up lifecycle, then measures fresh
/// lifecycles for `seconds` (and at least `min`), stopping only after a
/// full group. With `alternate`, every second group is traced and the
/// others are not.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    min: usize,
    alternate: bool,
    tr: &mut Tracer,
) -> Run {
    let mut run = Run::default();
    let mut workload = match prepare(name, seed, tr) {
        Ok(w) => w,
        Err(e) => {
            run.attempted = 1;
            run.failed = 1;
            run.errors.push(format!("{name} set-up: {e}"));
            return run;
        }
    };
    run.params = workload.params();
    run.setups = workload.prepare_setups();
    let warm = workload.lifecycle(tr);
    run.absorb_checks(&warm);
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let tracing = tr.enabled();
    while run.lifecycles.len() < min || t0.elapsed() < budget || run.lifecycles.len() % GROUP != 0 {
        let traced = if alternate {
            let traced = (run.lifecycles.len() / GROUP) % 2 == 1;
            tr.set_enabled(traced);
            traced
        } else {
            tracing
        };
        let life = workload.lifecycle(tr);
        run.absorb_checks(&life);
        run.setups.extend(life.setup_s);
        run.lifecycles.push((traced, life));
    }
    tr.set_enabled(tracing);
    run.seconds_used = t0.elapsed().as_secs_f64();
    run
}

/// The offline layer probes: the offer loop, the observability taxes,
/// and wire codec and window scoring on a recorded stream.
fn layer_probes(seed: u64, tr: &mut Tracer) -> Result<probes::Metrics, String> {
    let mut out = probes::Metrics::new();
    let instance = common::generate(&common::instance_spec(seed), tr)?;
    probes::offer_loop(&instance, tr)?;
    probes::observability_tax(seed, &mut out)?;
    let cfr = replay_audit::record(seed, &mut Tracer::new(false))?;
    let snap = cslack_obs::FlightSnapshot::read_cfr(&mut cfr.as_slice())?;
    probes::wire_codec(&snap.stamped_decisions(), &mut out)?;
    probes::window_quality(&snap, &mut out);
    out.push(("obs.cfr_bytes_per_decision", cfr.len() as f64 / JOBS as f64));
    Ok(out)
}

/// Per-layer metrics of a traced run of `main`: the main workload runs
/// with every second group traced, every other workload runs one traced
/// group, then the offline layer probes run.
fn traced_run(main: &str, seed: u64, seconds: f64) -> (Run, BTreeMap<&'static str, f64>, Tracer) {
    let mut tr = Tracer::new(true);
    // The first Threshold in the process solves the ratio recursion cold.
    let cold = tr.span("ratio.threshold_new", || {
        cslack_algorithms::Threshold::new(M, common::EPS)
    });
    std::hint::black_box(cold);
    let mut scopes: BTreeMap<&str, Range<usize>> = BTreeMap::new();
    let mut runs: BTreeMap<&str, Run> = BTreeMap::new();
    for name in std::iter::once(main).chain(WORKLOADS.into_iter().filter(|w| *w != main)) {
        let start = tr.spans().len();
        let run = if name == main {
            run_workload(name, seed, seconds, 2 * MIN_GROUPS * GROUP, true, &mut tr)
        } else {
            run_workload(name, seed, 0.0, GROUP, false, &mut tr)
        };
        scopes.insert(name, start..tr.spans().len());
        runs.insert(name, run);
    }
    let probed = layer_probes(seed, &mut tr);
    let mut m = span_metrics(&tr, &scopes, &runs, main);
    let mut summary = runs.remove(main).expect("main run recorded");
    for run in runs.values() {
        summary.attempted += run.attempted;
        summary.failed += run.failed;
        summary.errors.extend(run.errors.iter().cloned());
    }
    match probed {
        Ok(values) => m.extend(values),
        Err(e) => {
            summary.errors.push(format!("layer probe: {e}"));
            summary.failed += 1;
        }
    }
    (summary, m, tr)
}

/// The per-layer metrics read from spans and lifecycle counters. Each
/// workload's spans are read within its own scope.
fn span_metrics(
    tr: &Tracer,
    scopes: &BTreeMap<&str, Range<usize>>,
    runs: &BTreeMap<&str, Run>,
    main: &str,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let all = 0..tr.spans().len();
    let scope = |w: &str| scopes[w].clone();
    let med = |r: Range<usize>, name: &str| median(&tr.durations_s(r, name));
    m.insert(
        "workloads.generate_s",
        med(all.clone(), "workloads.generate"),
    );
    m.insert("ratio.solve_s", med(all.clone(), "ratio.threshold_new"));
    m.insert(
        "algorithms.offer_ns",
        med(all.clone(), "algorithms.simulate") * 1e9 / JOBS as f64,
    );
    let engine = scope("engine_saturate");
    let engine_run = &runs["engine_saturate"];
    let engine_measured = tr.total_s(engine.clone(), "bench.measured");
    m.insert("engine.start_s", med(engine.clone(), "engine.start"));
    m.insert("engine.finish_s", med(engine.clone(), "engine.finish"));
    m.insert(
        "engine.submit_block_share",
        tr.total_s(engine.clone(), "engine.submit_batch_into") / engine_measured,
    );
    let busy: f64 = engine_run.layer_values("engine.busy_s").iter().sum();
    let measured: f64 = engine_run
        .lifecycles
        .iter()
        .map(|(_, l)| l.measured_s)
        .sum();
    m.insert("engine.busy_share", busy / measured);
    m.insert(
        "engine.batches",
        median(&engine_run.layer_values("engine.batches")),
    );
    m.insert(
        "engine.backpressure_stalls",
        median(&engine_run.layer_values("engine.backpressure_stalls")),
    );
    m.insert(
        "obs.quality_windows",
        median(&engine_run.layer_values("obs.quality_windows")) * 1e3 / JOBS as f64,
    );
    let replay = scope("replay_audit");
    m.insert("obs.snapshot_s", med(replay.clone(), "obs.flight_snapshot"));
    m.insert("obs.write_cfr_s", med(replay.clone(), "obs.write_cfr"));
    let per_decision = |name: &str| med(replay.clone(), name) * 1e9 / JOBS as f64;
    m.insert("obs.cfr_read_ns", per_decision("obs.read_cfr"));
    m.insert("sim.replay_ns", per_decision("sim.replay_snapshot"));
    m.insert("sim.audit_ns", per_decision("sim.audit_snapshot"));
    let opt = scope("opt_exact");
    m.insert(
        "opt.flow_ms",
        med(opt.clone(), "opt.preemptive_load_bound") * 1e3,
    );
    m.insert(
        "opt.exact_ms_hard",
        med(opt.clone(), "opt.max_load.hard") * 1e3,
    );
    m.insert(
        "opt.exact_ms_easy",
        med(opt.clone(), "opt.max_load.easy") * 1e3,
    );
    let serve = scope("serve_closed");
    let serve_measured = tr.total_s(serve.clone(), "bench.measured");
    m.insert("server.start_s", med(serve.clone(), "server.start"));
    m.insert("client.hello_s", med(serve.clone(), "client.hello"));
    m.insert(
        "client.send_block_share",
        tr.total_s(serve.clone(), "client.send") / serve_measured,
    );
    m.insert(
        "client.recv_wait_share",
        tr.total_s(serve.clone(), "client.recv") / serve_measured,
    );
    let mut rtt = runs["serve_closed"].samples_ms();
    m.insert("client.p99_ms", quantile(&mut rtt, 0.99));
    m.insert("client.p999_ms", quantile(&mut rtt, 0.999));
    m.insert("client.samples", rtt.len() as f64);
    let main_run = &runs[main];
    let (traced, untraced) = (main_run.work_per_s(true), main_run.work_per_s(false));
    m.insert("trace.overhead", 1.0 - traced / untraced);
    m.insert("trace.work_per_s_traced", traced);
    m.insert("trace.work_per_s_untraced", untraced);
    m.insert("trace.spans", tr.spans().len() as f64);
    let (self_s, root_s) = tr.self_time_by_layer(scope(main), "bench.lifecycle");
    for (layer, key) in SELF_LAYERS {
        m.insert(key, self_s.get(layer).copied().unwrap_or(0.0) / root_s);
    }
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints every metric by name and unit, then the result line.
fn report(
    label: &str,
    metrics: &[(String, &str, f64)],
    attempted: u64,
    failed: u64,
    errors: &[String],
) -> bool {
    let nonfinite: Vec<&str> = metrics
        .iter()
        .filter(|(_, _, v)| !v.is_finite())
        .map(|(n, _, _)| n.as_str())
        .collect();
    let correct = errors.is_empty() && failed == 0 && nonfinite.is_empty();
    for (name, unit, value) in metrics {
        println!("{label} {name:<32} {value:>16.6} {unit}");
    }
    let fail_share = failed as f64 / attempted.max(1) as f64;
    println!(
        "{label} {:<32} {fail_share:>16.6} ratio ({failed} of {attempted})",
        "fail_share"
    );
    for e in errors.iter().take(20) {
        println!("{label} CHECK FAILED: {e}");
    }
    if !nonfinite.is_empty() {
        println!("{label} CHECK FAILED: non-finite metrics {nonfinite:?}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    correct
}

/// Lines a reader can use to judge a run's spread and tails.
fn describe(label: &str, run: &Run) {
    let mut wps: Vec<f64> = run.lifecycles(false).map(Lifecycle::work_per_s).collect();
    let n = wps.len();
    println!(
        "{label} lifecycles {n}, work_per_s q1 {:.1} median {:.1} q3 {:.1}, setups {}",
        quantile(&mut wps, 0.25),
        quantile(&mut wps, 0.5),
        quantile(&mut wps, 0.75),
        run.setups.len()
    );
    let samples = run.samples_ms();
    if samples.len() >= 1000 {
        let mut s = samples.clone();
        let tail = if beyond(&samples, 0.999) >= 10 {
            0.999
        } else {
            0.99
        };
        println!(
            "{label} per-operation ms: p50 {:.4} p{} {:.4} over {} samples",
            quantile(&mut s, 0.5),
            tail * 100.0,
            quantile(&mut s, tail),
            samples.len()
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let seconds = args.seconds as f64;
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    let (mut attempted, mut failed, mut errors) = (0u64, 0u64, Vec::new());
    for name in &names {
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        let (run, values, list): (Run, BTreeMap<&str, f64>, &[(&str, &str)]) = if args.trace {
            let (run, values, tr) = traced_run(name, args.seed, seconds);
            let dir = provenance::repo_root().join("perfbench").join("out");
            let path = dir.join(format!("spans-{name}-seed{}.jsonl", args.seed));
            let written = std::fs::create_dir_all(&dir)
                .and_then(|_| std::fs::File::create(&path))
                .and_then(|f| {
                    let mut w = std::io::BufWriter::new(f);
                    tr.write_jsonl(&mut w)?;
                    std::io::Write::flush(&mut w)
                });
            match written {
                Ok(()) => println!("{name} spans written to {}", path.display()),
                Err(e) => println!("{name} spans not written: {e}"),
            }
            (run, values, &PER_LAYER)
        } else {
            let mut tr = Tracer::new(false);
            let run = run_workload(name, args.seed, seconds, MIN_GROUPS * GROUP, false, &mut tr);
            let values = run.end_to_end();
            (run, values, &END_TO_END)
        };
        describe(name, &run);
        println!(
            "{name} provenance {}",
            provenance::json(
                name,
                args.seed,
                args.trace,
                seconds,
                run.seconds_used,
                &run.params
            )
        );
        for (metric, unit) in list {
            let value = values.get(metric).copied().unwrap_or(f64::NAN);
            metrics.push((format!("{prefix}{metric}"), unit, value));
        }
        attempted += run.attempted;
        failed += run.failed;
        errors.extend(run.errors);
    }
    let label = args.workload.as_str();
    if !report(label, &metrics, attempted, failed, &errors) {
        std::process::exit(1);
    }
}
