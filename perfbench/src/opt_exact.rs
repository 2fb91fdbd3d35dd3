//! `opt_exact`: a single thread certifies a fixed instance set. Each
//! instance gets the exact offline optimum (`exact::max_load`), the
//! preemptive max-flow bound and a Threshold run, and must satisfy
//! online <= exact <= flow with a valid witness schedule.

use crate::common::{Lifecycle, Workload, EPS};
use crate::trace::Tracer;
use cslack_algorithms::Threshold;
use cslack_kernel::{validate_schedule, Instance};
use cslack_workloads::{ArrivalLaw, SizeLaw, SlackLaw, WorkloadSpec};
use std::time::Instant;

/// Machines of every instance in the set.
pub const OPT_M: usize = 4;
/// Hard instances: simultaneous arrivals, uniform sizes 0.2-3.0 and
/// generous slack, where the exact solver's frontier sets grow widest.
/// Solve times vary by instance, so the set is large enough for its
/// total to vary little from seed to seed.
pub const HARD: usize = 32;
pub const HARD_JOBS: usize = 7;
/// Easy instances: `default_spec`, the common case; most of the set, so
/// the median instance is an easy one.
pub const EASY: usize = 192;
pub const EASY_JOBS: usize = 12;
/// Set-ups per run; set-up time is their median.
pub const SETUPS: usize = 3;

struct Case {
    instance: Instance,
    hard: bool,
}

pub struct OptExact {
    seed: u64,
    cases: Vec<Case>,
    setups: Vec<f64>,
}

fn hard_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        m: OPT_M,
        eps: EPS,
        n: HARD_JOBS,
        arrivals: ArrivalLaw::Simultaneous,
        sizes: SizeLaw::Uniform { lo: 0.2, hi: 3.0 },
        slack: SlackLaw::Generous { factor: 2.0 },
        seed,
    }
}

fn generate_set(seed: u64, tr: &mut Tracer) -> Result<Vec<Case>, String> {
    let base = seed.wrapping_mul(1_000);
    let specs = (0..HARD)
        .map(|i| (hard_spec(base.wrapping_add(i as u64)), true))
        .chain((0..EASY).map(|i| {
            let s = base.wrapping_add((HARD + i) as u64);
            (WorkloadSpec::default_spec(OPT_M, EPS, EASY_JOBS, s), false)
        }));
    tr.span("workloads.generate_set", || {
        specs
            .map(|(spec, hard)| {
                let instance = spec.generate().map_err(|e| format!("generate: {e}"))?;
                Ok(Case { instance, hard })
            })
            .collect()
    })
}

impl OptExact {
    /// Each set-up generates the set and warms up with one certifying
    /// pass, whose checks count like any other pass.
    pub fn prepare(seed: u64, tr: &mut Tracer) -> Result<OptExact, String> {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut opt = OptExact {
            seed,
            cases: Vec::new(),
            setups: Vec::new(),
        };
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            let open = tr.enter("bench.setup");
            let set = generate_set(seed, tr);
            let warm = set.map(|cases| {
                opt.cases = cases;
                opt.lifecycle(tr)
            });
            tr.exit(open);
            if let Some(e) = warm?.errors.first() {
                return Err(format!("warm-up pass: {e}"));
            }
            setups.push(t0.elapsed().as_secs_f64());
        }
        opt.setups = setups;
        Ok(opt)
    }
}

impl Workload for OptExact {
    fn params(&self) -> String {
        format!(
            "{{\"m\":{OPT_M},\"eps\":{EPS},\"hard\":{HARD},\"hard_jobs\":{HARD_JOBS},\"easy\":{EASY},\"easy_jobs\":{EASY_JOBS},\"hard_shape\":\"simultaneous, uniform 0.2-3.0, generous 2.0\",\"set_seed\":{}}}",
            self.seed.wrapping_mul(1_000)
        )
    }

    fn prepare_setups(&self) -> Vec<f64> {
        self.setups.clone()
    }

    fn lifecycle(&mut self, tr: &mut Tracer) -> Lifecycle {
        let mut out = Lifecycle {
            attempted: self.cases.len() as u64,
            ..Lifecycle::default()
        };
        let root = tr.enter("bench.lifecycle");
        let measured = tr.enter("bench.measured");
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(self.cases.len());
        for case in &self.cases {
            let t = Instant::now();
            let exact_name = if case.hard {
                "opt.max_load.hard"
            } else {
                "opt.max_load.easy"
            };
            let exact = tr.span(exact_name, || cslack_opt::exact::max_load(&case.instance));
            let flow = tr.span("opt.preemptive_load_bound", || {
                cslack_opt::flow::preemptive_load_bound(&case.instance)
            });
            let mut threshold = Threshold::new(OPT_M, case.instance.slack());
            let online = tr.span("sim.simulate", || {
                cslack_sim::simulate(&case.instance, &mut threshold)
            });
            out.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
            results.push((exact, flow, online));
        }
        out.measured_s = t0.elapsed().as_secs_f64();
        tr.exit(measured);
        let check = tr.enter("bench.check");
        for (i, (case, (exact, flow, online))) in self.cases.iter().zip(results).enumerate() {
            let online = match online {
                Ok(report) => report.accepted_load(),
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("instance {i}: simulate: {e}"));
                    continue;
                }
            };
            let tol = 1e-9 * flow.max(1.0);
            let mut bad = Vec::new();
            if online > exact.load + tol {
                bad.push(format!("online {online} > exact {}", exact.load));
            }
            if exact.load > flow + 1e-6 * flow.max(1.0) {
                bad.push(format!("exact {} > flow bound {flow}", exact.load));
            }
            if !validate_schedule(&case.instance, &exact.schedule).is_valid() {
                bad.push("exact witness schedule is invalid".to_string());
            }
            if (exact.schedule.accepted_load() - exact.load).abs() > tol {
                bad.push(format!(
                    "witness load {} != exact {}",
                    exact.schedule.accepted_load(),
                    exact.load
                ));
            }
            if bad.is_empty() {
                out.work += 1;
                out.accepted_load += online;
                out.offered_load += exact.load;
            } else {
                out.failed += 1;
                out.errors
                    .extend(bad.into_iter().map(|b| format!("instance {i}: {b}")));
            }
        }
        tr.exit(check);
        tr.exit(root);
        out
    }
}
