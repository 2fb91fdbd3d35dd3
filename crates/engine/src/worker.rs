//! The shard worker: drain the shard's queue in batches, decide and
//! commit each job in arrival order, contain faults.

use crate::error::{FailureKind, ShardFailure};
use crate::flight_state::FlightState;
use crate::health::HealthState;
use crate::queue::{RingConsumer, Submission};
use crate::recovery::RecoveryLedger;
use crate::report::ShardOutcome;
use cslack_algorithms::OnlineScheduler;
use cslack_kernel::{MachineId, Schedule};
use cslack_obs::flight::{FlightEvent, StampedDecision};
use cslack_obs::timeline::{ClockBase, Stage, TimelineStamps, STAGE_SPANS};
use cslack_obs::{DecisionEvent, Histogram, MetricsRegistry, RejectCounts, RejectReason};
use cslack_sim::apply_decision;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a shard worker needs besides its queue and scheduler.
pub(crate) struct ShardCtx {
    pub(crate) shard: usize,
    /// Global machine ids of this shard's group, for remapping the
    /// scheduler's shard-local machine ids in decision events.
    pub(crate) group: Vec<MachineId>,
    pub(crate) batch_size: usize,
    pub(crate) registry: Option<Arc<MetricsRegistry>>,
    pub(crate) flight: Option<Arc<FlightState>>,
    /// Live decision-stream subscriber
    /// ([`ObsConfig::decisions`](crate::ObsConfig::decisions)); the
    /// worker sends every built [`StampedDecision`] here in (shard,
    /// seq) order.
    pub(crate) decisions: Option<Sender<StampedDecision>>,
    pub(crate) health: Arc<HealthState>,
    /// The engine's start instant: heartbeats and the busy-window edge
    /// are nanoseconds since this point.
    pub(crate) started: Instant,
    /// Shared stamp clock: dequeue/decide stamps are read off it so
    /// they line up with the submit-side enqueue stamps.
    pub(crate) clock: Arc<ClockBase>,
    /// CPU to pin this worker to at startup (best-effort), when worker
    /// pinning was requested via
    /// [`IngestConfig::pin_workers`](crate::IngestConfig::pin_workers).
    pub(crate) pin_cpu: Option<usize>,
}

/// What a replacement worker inherits when it takes over a failed
/// shard: the replay-rebuilt schedule, the dead worker's outcome (its
/// counters and histograms keep accumulating — the decision stream is
/// one continuous sequence across the restart), how many of
/// the first incoming jobs are re-offers of bounced work, and the
/// engine-wide recovery ledger those re-offers are accounted into.
pub(crate) struct ResumeState {
    /// The shard-local schedule rebuilt bit-identical by replay.
    pub(crate) schedule: Schedule,
    /// The dead worker's outcome with `failure` cleared; `submitted`
    /// is exactly the next decision seq, so flight/observatory
    /// watermarks stay contiguous across the restart.
    pub(crate) outcome: ShardOutcome,
    /// The first `readmit` jobs this worker decides are re-offered
    /// bounced jobs: their verdicts land in the recovery ledger.
    pub(crate) readmit: u64,
    pub(crate) ledger: Arc<RecoveryLedger>,
}

#[inline]
pub(crate) fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Renders a `catch_unwind` payload: panics carry `&'static str` or
/// `String` in practice; anything else gets a placeholder.
pub(crate) fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Shard-local accumulator for the shared [`MetricsRegistry`]: the
/// worker records every decision here (plain, contention-free) and
/// publishes the delta once per drained batch, so concurrent shards
/// never fight over the registry's cache lines on the per-decision
/// path. Live readers see counters at most one batch behind.
#[derive(Default)]
struct RegistryDelta {
    submitted: u64,
    accepted: u64,
    rejected: RejectCounts,
    latency: Histogram,
    queue_wait: Histogram,
    /// Per-stage span samples in [`STAGE_SPANS`] order. The worker
    /// only ever populates the first four (dispatch, enqueue, queue,
    /// decide); the delivery span is recorded by whoever actually
    /// delivers the decision (the server's dispatcher), so it is never
    /// double counted here.
    stages: [Histogram; STAGE_SPANS.len()],
    /// Flight records dropped since the last flush.
    flight_dropped: u64,
}

impl RegistryDelta {
    /// Folds the worker-side stage spans of one decision in.
    fn record_stages(&mut self, stamps: &TimelineStamps) {
        for (slot, &(_, from, to)) in self.stages.iter_mut().take(4).zip(STAGE_SPANS.iter()) {
            if let Some(ns) = stamps.span(from, to) {
                slot.record(ns);
            }
        }
    }

    fn flush(&mut self, reg: &MetricsRegistry) {
        if self.submitted == 0 && self.flight_dropped == 0 {
            return;
        }
        reg.submitted.add(self.submitted);
        reg.accepted.add(self.accepted);
        for reason in RejectReason::ALL {
            let n = self.rejected.get(reason);
            if n > 0 {
                reg.rejected(reason).add(n);
            }
        }
        reg.decision_latency.merge_histogram(&self.latency);
        reg.queue_wait.merge_histogram(&self.queue_wait);
        for (hist, delta) in reg.stage_durations.iter().zip(self.stages.iter()) {
            hist.merge_histogram(delta);
        }
        reg.flight_dropped.add(self.flight_dropped);
        // The same batch delta feeds the rolling-window panel: one call
        // per flush (not per decision), so the windowed gauges cost the
        // hot path nothing beyond this mutex-guarded fold.
        reg.windows.record_batch(
            self.submitted,
            self.accepted,
            &self.rejected,
            &self.latency,
            &self.queue_wait,
            &self.stages,
        );
        *self = RegistryDelta::default();
    }
}

/// One shard's worker loop: block for a job, drain a batch from the
/// shard's ingestion ring, decide and commit each job in arrival order,
/// repeat until the ring closes.
///
/// ## Fault containment
///
/// The decide/commit loop of every batch runs under `catch_unwind`: a
/// panicking scheduler (or a contract-violating decision) poisons only
/// this shard. The worker converts the fault into a typed
/// [`ShardFailure`], writes the crash `.cfr` snapshot *at failure
/// time* (so the evidence survives an abandoned or long-held engine),
/// marks itself failed in the health table, drains and counts the jobs
/// it will never decide, and returns its partial outcome — dropping
/// the ring consumer, which wakes any producer blocked on the full ring
/// with [`PushError::Gone`](crate::queue::PushError::Gone) instead of
/// deadlocking it.
///
/// Unwind safety: the closure mutates the shard-local schedule,
/// counters, and flight ring. The flight ring is lock-free
/// (single-writer atomics, nothing to poison) and every structure is
/// left at its last per-decision checkpoint — decisions are applied
/// one at a time and `out.submitted` is incremented only *after* a
/// decision fully commits, so the counters never include the decision
/// that died halfway. `AssertUnwindSafe` is sound because the worker
/// stops deciding the moment a fault is observed: the possibly
/// half-updated scheduler is never offered another job.
pub(crate) fn shard_worker(
    source: RingConsumer,
    mut scheduler: Box<dyn OnlineScheduler>,
    ctx: ShardCtx,
    resume: Option<ResumeState>,
) -> ShardOutcome {
    if let Some(cpu) = ctx.pin_cpu {
        // Best-effort: a refused affinity call just runs unpinned.
        let _ = crate::pin::pin_current_thread(cpu);
    }
    let group_len = ctx.group.len();
    // A replacement worker continues the dead worker's schedule,
    // counters, and decision sequence; a fresh worker starts at zero.
    let (mut schedule, mut out, mut readmit_left, ledger) = match resume {
        Some(r) => (r.schedule, r.outcome, r.readmit, Some(r.ledger)),
        None => (
            Schedule::new(group_len.max(1)),
            ShardOutcome {
                schedule: Schedule::new(group_len.max(1)),
                submitted: 0,
                accepted: 0,
                rejected: RejectCounts::default(),
                batches: 0,
                latency: Histogram::new(),
                queue_wait: Histogram::new(),
                last_decision_ns: 0,
                failure: None,
                undecided: Vec::new(),
            },
            0,
            None,
        ),
    };
    let mut delta = RegistryDelta::default();
    // High-water mark of the flight ring's dropped counter already
    // published to the registry.
    let mut flight_dropped_flushed = 0u64;
    let mut batch: Vec<Submission> = Vec::with_capacity(ctx.batch_size);
    loop {
        batch.clear();
        if !source.fill_batch(&mut batch, ctx.batch_size) {
            break;
        }
        out.batches += 1;
        ctx.health
            .beat(ctx.shard, saturating_ns(ctx.started.elapsed()));
        // Checked once per batch: toggling the registry mid-run takes
        // effect at the next wakeup, and the per-decision path stays
        // free of shared-state loads.
        let recording = ctx.registry.as_deref().filter(|reg| reg.is_enabled());
        if let Some(reg) = recording {
            // The consumer-side edge of the gauge: what is left queued
            // after this batch was taken. Producers publish the other
            // edge on enqueue, so scrapes see depth bounded-stale from
            // both directions.
            let depth = source.depth();
            reg.queue_depth.set(ctx.shard, depth);
            reg.windows.record_queue_depth(depth);
        }
        // Index of the decision currently in flight; read after an
        // unwind to identify the failing job and the in-batch losses.
        let mut decided = 0usize;
        let fault: Option<(FailureKind, String)> = {
            let unwound =
                catch_unwind(AssertUnwindSafe(|| -> Result<(), (FailureKind, String)> {
                    // The worker is the ring's single writer, so flight
                    // recording takes no lock at all: each decision
                    // encodes straight into its slot with relaxed word
                    // stores and one release publish. Live snapshot
                    // readers never wait on the decision loop. One
                    // record per decision: the job is committed the
                    // instant it is accepted, so the decision record
                    // is also its submission and its commitment.
                    let flight_ring = ctx.flight.as_deref().map(|state| &state.rings[ctx.shard]);
                    while decided < batch.len() {
                        let (job, mut stamps) = batch[decided];
                        let seq = out.submitted;
                        // One clock read before the offer and one after:
                        // dequeue and decide stamps, from which the
                        // queue-wait and decision-latency metrics also
                        // fall out — no extra `Instant` reads per hop.
                        let dequeue_ns = ctx.clock.now_ns();
                        stamps.set(Stage::Dequeue, dequeue_ns);
                        let queue_wait_ns = dequeue_ns.saturating_sub(stamps.get(Stage::Enqueue));
                        let (decision, info) = {
                            let _route = cslack_obs::span!("route");
                            scheduler.offer_explained(&job)
                        };
                        let decide_ns = ctx.clock.now_ns();
                        stamps.set(Stage::Decide, decide_ns);
                        // In-process the decision is "delivered" the
                        // moment it is made; the server's dispatcher
                        // overwrites this stamp at actual route time.
                        stamps.set(Stage::Delivery, decide_ns);
                        let latency_ns = decide_ns.saturating_sub(dequeue_ns);
                        let accepted = match apply_decision(&mut schedule, &job, decision) {
                            Ok(true) => true,
                            Ok(false) => false,
                            Err(e) => {
                                return Err((FailureKind::Contract, e.to_string()));
                            }
                        };
                        // The decision is committed: only now do the
                        // counters see it, so a fault mid-decision
                        // leaves submitted == completed decisions and
                        // the degraded report agrees with the flight
                        // audit.
                        out.submitted += 1;
                        out.latency.record(latency_ns);
                        out.queue_wait.record(queue_wait_ns);
                        if recording.is_some() {
                            delta.submitted += 1;
                            delta.latency.record(latency_ns);
                            delta.queue_wait.record(queue_wait_ns);
                            delta.record_stages(&stamps);
                        }
                        if accepted {
                            out.accepted += 1;
                            if recording.is_some() {
                                delta.accepted += 1;
                            }
                        } else {
                            let reason = info.reject_reason.unwrap_or(RejectReason::Unattributed);
                            out.rejected.bump(reason);
                            if recording.is_some() {
                                delta.rejected.bump(reason);
                            }
                        }
                        // The first `readmit` decisions of a
                        // replacement worker are re-offers of bounced
                        // jobs: their verdicts feed the recovery
                        // ledger (re-admitted or re-rejected) on top
                        // of the ordinary counters above.
                        if readmit_left > 0 {
                            readmit_left -= 1;
                            if let Some(ledger) = ledger.as_deref() {
                                if accepted {
                                    ledger.re_admitted.inc();
                                    if let Some(reg) = recording {
                                        reg.recovered_jobs.inc();
                                    }
                                } else {
                                    ledger.re_rejected.inc();
                                }
                            }
                        }
                        // The decision's two writers — the flight ring
                        // (the one per-decision record) and the live
                        // subscription — share one built event.
                        if flight_ring.is_some() || ctx.decisions.is_some() {
                            let (machine, start) = match decision {
                                cslack_algorithms::Decision::Accept { machine, start } => {
                                    // Remap the scheduler's shard-local
                                    // machine id to the global cluster
                                    // id.
                                    let global = ctx
                                        .group
                                        .get(machine.0 as usize)
                                        .map(|id| id.0)
                                        .unwrap_or(machine.0);
                                    (Some(global), Some(start.raw()))
                                }
                                cslack_algorithms::Decision::Reject => (None, None),
                            };
                            let event = DecisionEvent {
                                seq,
                                job: job.id.0,
                                shard: ctx.shard,
                                release: job.release.raw(),
                                proc_time: job.proc_time,
                                deadline: job.deadline.raw(),
                                candidates: info.candidates,
                                threshold: info.threshold,
                                min_load: info.min_load,
                                accepted,
                                machine,
                                start,
                                reject_reason: info.reject_reason,
                                latency_ns,
                                queue_wait_ns,
                            };
                            if let Some(flight) = flight_ring {
                                // One pass of relaxed stores into the
                                // shard's own ring: no lock, no
                                // allocation.
                                flight.record_decision(&event, &stamps);
                            }
                            if let Some(tx) = &ctx.decisions {
                                // A closed subscriber is not a shard
                                // fault: the engine keeps deciding and
                                // only the live stream goes dark.
                                let _ = tx.send(StampedDecision::new(event, stamps));
                            }
                        }
                        decided += 1;
                    }
                    Ok(())
                }));
            match unwound {
                Ok(Ok(())) => None,
                Ok(Err(contract)) => Some(contract),
                Err(payload) => Some((FailureKind::Panic, panic_payload_string(payload.as_ref()))),
            }
        };
        if let Some((kind, payload)) = fault {
            // The partial schedule rides along for per-shard metrics
            // (accepted load before the fault); the merge skips it.
            out.schedule = schedule;
            return fail_shard(source, ctx, out, delta, &batch, decided, kind, payload);
        }
        out.last_decision_ns = saturating_ns(ctx.started.elapsed());
        if let Some(reg) = recording {
            // Overwritten flight records are surfaced as a counter
            // delta so a live scrape sees ring churn, not just the
            // snapshot-time dropped field.
            if let Some(state) = ctx.flight.as_deref() {
                let dropped = state.rings[ctx.shard].dropped();
                delta.flight_dropped = dropped - flight_dropped_flushed;
                flight_dropped_flushed = dropped;
            }
            delta.flush(reg);
        }
    }
    if let Some(reg) = ctx.registry.as_deref().filter(|reg| reg.is_enabled()) {
        // Drained and exiting: the gauge must not freeze at the last
        // batch's depth.
        reg.queue_depth.set(ctx.shard, 0);
    }
    out.schedule = schedule;
    out
}

/// The contained-fault epilogue of [`shard_worker`]: converts the fault
/// into a [`ShardFailure`], preserves the evidence, and returns the
/// partial outcome.
///
/// Ordering matters here. (1) The health table is marked `Failed`
/// first, so producers that race the teardown see `ShardFailed`, not
/// `Closed`. (2) The failing job's submission is recorded into the
/// flight ring (its decision never completed, so nothing else carries
/// it) and the crash `.cfr` is written *now*, from the worker — not at
/// some future `finish` that may never run. (3) The queue is drained
/// and *collected* — the failing job, the rest of its batch, and the
/// queued remainder ride back on the outcome as `undecided`, which is
/// both the loss accounting (`queued_lost`) and the recovery manifest
/// a replacement worker re-offers (the ring is poisoned first so
/// producers stop publishing into the drain). Returning then drops the
/// ring consumer, waking any producer blocked on the full ring.
#[allow(clippy::too_many_arguments)]
fn fail_shard(
    source: RingConsumer,
    ctx: ShardCtx,
    mut out: ShardOutcome,
    mut delta: RegistryDelta,
    batch: &[Submission],
    decided: usize,
    kind: FailureKind,
    payload: String,
) -> ShardOutcome {
    let recording = ctx.registry.as_deref().filter(|reg| reg.is_enabled());
    ctx.health.mark_failed(ctx.shard);
    let seq = out.submitted;
    let failing = batch.get(decided).map(|(job, _)| *job);
    if let Some(state) = ctx.flight.as_deref() {
        if let Some(job) = &failing {
            // The worker thread is still the ring's only writer, so
            // the failing job's submission can be appended directly.
            state.rings[ctx.shard].record(&FlightEvent::Submission {
                seq,
                shard: ctx.shard as u32,
                job: job.id.0,
                release: job.release.raw(),
                proc_time: job.proc_time,
                deadline: job.deadline.raw(),
            });
        }
        state.write_error_snapshot();
    }
    // Publish the pre-fault decisions the batch delta still holds, so
    // live scrapes don't lose them.
    if let Some(reg) = recording {
        delta.flush(reg);
    }
    // Collect every job this shard received but never decided, in
    // arrival order: the failing job itself, the rest of its batch,
    // then the drained queue (the ring is poisoned inside
    // `drain_into` so producers stop publishing into the drain). The
    // conservation identity is explicit — with `submitted` counting
    // only fully committed decisions,
    //
    //   received == out.submitted + failing + queued_lost
    //
    // where `queued_lost` is exactly `undecided.len() - failing`, so
    // the failing job is never double counted whatever its batch
    // position.
    let mut undecided: Vec<Submission> = batch[decided.min(batch.len())..].to_vec();
    source.drain_into(&mut undecided);
    let failing_count = failing.is_some() as u64;
    let queued_lost = undecided.len() as u64 - failing_count;
    if let Some(reg) = recording {
        reg.queue_depth.set(ctx.shard, 0);
    }
    out.failure = Some(ShardFailure {
        shard: ctx.shard,
        kind,
        payload,
        failing_job: failing.map(|job| job.id.0),
        seq,
        queued_lost,
    });
    out.undecided = undecided;
    out
}
