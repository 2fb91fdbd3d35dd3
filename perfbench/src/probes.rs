//! Layer probes of the traced run: measurements taken from outside by
//! timing calls into one crate's public functions, with tracing off
//! unless a span is the measurement.

use crate::common::{Obs, Reference, Workload, M, SUBMIT_BATCH};
use crate::engine_saturate::EngineSaturate;
use crate::stats::median;
use crate::trace::Tracer;
use cslack_kernel::Instance;
use cslack_obs::{FlightSnapshot, StampedDecision};
use cslack_server::proto::{read_frame, write_frame, Frame, WireJob};
use std::time::Instant;

/// Paired rounds of the observability-tax probe.
const TAX_ROUNDS: usize = 5;
/// Repetitions of the cheaper probes; each reports its median.
const REPS: usize = 5;
/// Frames per encode/decode repetition.
const FRAME_BATCHES: usize = 500;

pub type Metrics = Vec<(&'static str, f64)>;

/// Single-thread `sim::simulate` time per decision on the engine
/// instance (spans named `algorithms.simulate`).
pub fn offer_loop(instance: &Instance, tr: &mut Tracer) -> Result<(), String> {
    for _ in 0..REPS {
        Reference::of(instance, tr)?;
    }
    Ok(())
}

/// Throughput lost to registry + flight on a dark engine, and to the
/// observatory on top, from lifecycles of the same instance run back to
/// back in rotating order. Each tax comes with its base.
pub fn observability_tax(seed: u64, out: &mut Metrics) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    let flight = Obs::Flight {
        capacity: crate::common::tenant().flight_capacity,
    };
    let mut sides = [
        EngineSaturate::with_obs(seed, Obs::Dark, &mut tr)?,
        EngineSaturate::with_obs(seed, flight, &mut tr)?,
        EngineSaturate::with_obs(seed, Obs::Tenant, &mut tr)?,
    ];
    for side in &mut sides {
        side.lifecycle(&mut tr);
    }
    let mut wps = vec![Vec::new(); sides.len()];
    for round in 0..TAX_ROUNDS {
        for k in 0..sides.len() {
            let i = (round + k) % sides.len();
            let life = sides[i].lifecycle(&mut tr);
            if let Some(e) = life.errors.first() {
                return Err(format!("observability tax: {e}"));
            }
            wps[i].push(life.work_per_s());
        }
    }
    let paired = |num: usize, den: usize| {
        let ratios: Vec<f64> = wps[num].iter().zip(&wps[den]).map(|(a, b)| a / b).collect();
        1.0 - median(&ratios)
    };
    out.push(("obs.flight_tax", paired(1, 0)));
    out.push(("obs.flight_tax_base", median(&wps[0])));
    out.push(("obs.observatory_tax", paired(2, 1)));
    out.push(("obs.observatory_tax_base", median(&wps[1])));
    Ok(())
}

/// Encode and decode cost per job of the wire frames one job travels
/// in: its share of a `SubmitBatch` frame plus its own `Decision` frame.
pub fn wire_codec(decisions: &[&StampedDecision], out: &mut Metrics) -> Result<(), String> {
    let batch = Frame::SubmitBatch {
        jobs: decisions
            .iter()
            .take(SUBMIT_BATCH)
            .map(|d| WireJob {
                id: d.job,
                release: d.release,
                proc_time: d.proc_time,
                deadline: d.deadline,
            })
            .collect(),
        client_send_ns: 1,
    };
    let frames: Vec<Frame> = decisions
        .iter()
        .take(SUBMIT_BATCH)
        .map(|d| Frame::Decision((*d).clone()))
        .collect();
    let jobs = FRAME_BATCHES * frames.len();
    let mut buf = Vec::new();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..FRAME_BATCHES {
            buf.clear();
            write_frame(&mut buf, &batch).map_err(|e| e.to_string())?;
            for f in &frames {
                write_frame(&mut buf, f).map_err(|e| e.to_string())?;
            }
            std::hint::black_box(&buf);
        }
        enc.push(t.elapsed().as_nanos() as f64 / jobs as f64);
        let t = Instant::now();
        for _ in 0..FRAME_BATCHES {
            let mut r = buf.as_slice();
            for _ in 0..=frames.len() {
                std::hint::black_box(read_frame(&mut r).map_err(|e| e.to_string())?);
            }
        }
        dec.push(t.elapsed().as_nanos() as f64 / jobs as f64);
    }
    out.push(("server.encode_ns", median(&enc)));
    out.push(("server.decode_ns", median(&dec)));
    Ok(())
}

/// The observatory's scoring core run offline on a recorded stream.
pub fn window_quality(snap: &FlightSnapshot, out: &mut Metrics) {
    let cfg = crate::common::tenant()
        .observatory
        .expect("the default tenant runs an observatory");
    let decisions: Vec<_> = snap.decisions().into_iter().cloned().collect();
    let mut ms = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let windows = cslack_engine::window_quality(&decisions, cfg.window, M, cfg.max_window_jobs);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(windows);
    }
    out.push(("engine.window_quality_ms", median(&ms)));
}
