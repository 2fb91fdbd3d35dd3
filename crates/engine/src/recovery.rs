//! Shard resurrection: replay-driven failover with explicit job
//! conservation.
//!
//! A shard that died to a contained fault normally stays dead for the
//! rest of the run (degraded mode). [`Engine::restart_shard`] instead
//! brings it back:
//!
//! 1. **Join** the dead worker and take its partial outcome — which
//!    carries, since the `queued_lost` conservation rework, every job
//!    the shard received but never decided (`undecided`, in arrival
//!    order: the failing job first, then the rest of its batch, then
//!    the drained queue).
//! 2. **Replay** the shard's flight-ring decision stream through a
//!    scheduler built by the *same* builder the run started with
//!    ([`rebuild_shard_state`]): the regenerated stream must be
//!    bit-identical to the recording, and the rebuilt shard-local
//!    schedule then holds exactly the pre-crash commitments. Jobs
//!    already committed stay committed — the paper's commitment model
//!    (arXiv 1811.08238) forbids revoking them, and the replay keeps
//!    the scheduler's internal load state consistent with them.
//! 3. **Swap** a fresh ingestion ring in for the poisoned one and
//!    spawn a replacement worker that resumes the decision sequence at
//!    `seq = submitted` (so flight/observatory per-shard watermarks
//!    stay contiguous across the restart).
//! 4. **Re-admit** the bounced jobs by enqueueing them first, ahead of
//!    any new producer traffic: each is re-offered to the recovered
//!    scheduler, which accepts it only if its commitment point
//!    `d_j - (1+eps)p_j` still allows an immediate commitment — jobs
//!    whose slack the outage consumed are re-rejected, exactly the
//!    commitment-point re-admission rule the theory permits.
//!
//! Every job a failed-then-recovered shard ever received is conserved
//! into exactly one bucket: decided before the crash (accepted →
//! `recovered_committed`, rejected → the ordinary reject counters),
//! re-offered and admitted (`re_admitted`), re-offered and rejected
//! (`re_rejected`), or not re-offerable at all (`lost`, only when the
//! replacement ring refused the re-enqueue). The ledger surfaces
//! in [`EngineReport::recovery`](crate::EngineReport) and on
//! `/metrics` as `cslack_shard_restarts_total` /
//! `cslack_recovered_jobs_total`.

use crate::engine::{spawn_worker, Engine, ShardSlot};
use crate::error::{EngineError, ShardFailure};
use crate::queue::IngestRing;
use crate::report::{RecoveryStats, ShardOutcome};
use crate::worker::{panic_payload_string, ResumeState, ShardCtx};
use cslack_obs::Counter;
use cslack_sim::audit::rebuild_shard_state;
use std::sync::{Arc, PoisonError};

/// The engine-wide recovery ledger: lock-free counters written by
/// [`Engine::restart_shard`] (restarts, recovered commitments, lost)
/// and by replacement workers deciding re-offered jobs (re-admitted /
/// re-rejected).
#[derive(Debug, Default)]
pub(crate) struct RecoveryLedger {
    pub(crate) restarts: Counter,
    pub(crate) recovered_committed: Counter,
    pub(crate) re_admitted: Counter,
    pub(crate) re_rejected: Counter,
    pub(crate) lost: Counter,
}

impl RecoveryLedger {
    pub(crate) fn snapshot(&self) -> RecoveryStats {
        RecoveryStats {
            restarts: self.restarts.get(),
            recovered_committed: self.recovered_committed.get(),
            re_admitted: self.re_admitted.get(),
            re_rejected: self.re_rejected.get(),
            lost: self.lost.get(),
        }
    }
}

/// Restores `outcome` (failure re-attached) into the slot's parked
/// seat so a later `finish` still reports the shard faithfully, and
/// renders the refusal as a typed error.
fn refuse_and_park(
    slot: &mut ShardSlot,
    mut outcome: ShardOutcome,
    failure: ShardFailure,
    shard: usize,
    reason: String,
) -> EngineError {
    outcome.failure = Some(failure);
    slot.parked = Some(outcome);
    EngineError::Recovery { shard, reason }
}

impl Engine {
    /// Resurrects a failed shard: joins the dead worker, replays its
    /// recorded decision stream into a freshly built scheduler
    /// (bit-identity asserted), swaps in a fresh ingestion ring,
    /// re-offers the bounced jobs that never reached a decision, and
    /// marks the shard alive again. Returns the number of jobs
    /// re-offered to the replacement worker.
    ///
    /// Callable from any thread holding `&Engine` — concurrent
    /// submitters block only for the duration of the swap (they
    /// read-lock the shard's slot). Refused with
    /// [`EngineError::Recovery`] when the shard is not failed, no
    /// flight recorder is active, the recording is lossy, or the
    /// replay diverges; a refused restart loses nothing (the dead
    /// worker's outcome is parked for `finish`), but the shard stays
    /// down for good.
    pub fn restart_shard(&self, shard: usize) -> Result<u64, EngineError> {
        let refuse = |reason: String| EngineError::Recovery { shard, reason };
        if shard >= self.shards.len() {
            return Err(refuse(format!(
                "no such shard (engine has {})",
                self.shards.len()
            )));
        }
        let Some(flight) = self.flight.as_ref() else {
            return Err(refuse(
                "recovery needs an active flight recorder (ObsConfig::flight) to replay".into(),
            ));
        };
        if !self.health.is_failed(shard) {
            return Err(refuse("shard is not failed".into()));
        }
        let handle = &self.shards[shard];
        let mut slot = handle.slot.write().unwrap_or_else(PoisonError::into_inner);
        if !self.health.is_failed(shard) {
            // Lost the race to a concurrent recoverer that already
            // brought the shard back while we waited for the lock.
            return Err(refuse("shard is not failed".into()));
        }
        let Some(join) = slot.join.take() else {
            return Err(refuse(if slot.parked.is_some() {
                "a previous restart attempt was refused; the shard stays down".into()
            } else {
                "the worker was already joined (engine shutting down?)".into()
            }));
        };
        // The worker marked itself failed before returning, so this
        // join is immediate — we are not waiting out a drain here.
        let mut outcome = match join.join() {
            Ok(outcome) => outcome,
            Err(payload) => {
                // Died outside containment: no outcome, no manifest of
                // bounced jobs, nothing trustworthy to resume from.
                return Err(refuse(format!(
                    "the worker panicked outside fault containment ({}); \
                     there is no outcome to recover from",
                    panic_payload_string(payload.as_ref())
                )));
            }
        };
        let Some(failure) = outcome.failure.take() else {
            slot.parked = Some(outcome);
            return Err(refuse(
                "the worker exited healthy; nothing to recover".into(),
            ));
        };

        // --- Replay: rebuild schedule + scheduler state, asserted
        // bit-identical to the recorded stream. ---
        let (events, dropped) = flight.rings[shard].snapshot_events();
        if dropped > 0 {
            return Err(refuse_and_park(
                &mut slot,
                outcome,
                failure,
                shard,
                format!(
                    "the flight ring dropped {dropped} event(s); replay needs a complete \
                     recording (raise FlightConfig::capacity)"
                ),
            ));
        }
        let group = &handle.machines;
        let lo = group.first().map(|id| id.0 as usize).unwrap_or(0);
        let mut scheduler = (self.builder)(shard, group.len());
        let (schedule, replayed) =
            match rebuild_shard_state(&events, shard as u32, lo, group.len(), scheduler.as_mut()) {
                Ok(rebuilt) => rebuilt,
                Err(reason) => {
                    return Err(refuse_and_park(&mut slot, outcome, failure, shard, reason))
                }
            };
        if replayed != outcome.submitted {
            let committed = outcome.submitted;
            return Err(refuse_and_park(
                &mut slot,
                outcome,
                failure,
                shard,
                format!(
                    "the recording holds {replayed} decision(s) but the dead worker \
                     committed {committed}; the streams cannot be reconciled"
                ),
            ));
        }
        debug_assert_eq!(
            schedule.len() as u64,
            outcome.accepted,
            "a bit-identical replay must re-commit exactly the recorded accepts"
        );

        // --- Fresh ring, with the bounced jobs enqueued ahead of any
        // producer (the slot is still write-locked, so no producer can
        // reach the new ring yet). The ring is sized to hold the whole
        // re-offer batch so the pre-spawn push can never block.
        let undecided = std::mem::take(&mut outcome.undecided);
        let capacity = self.config.queue_capacity.max(undecided.len());
        let ring = Arc::new(IngestRing::new(capacity));
        let mut lost = 0u64;
        if !undecided.is_empty() {
            if let Err((pushed, _)) = ring.push_batch_blocking(&undecided) {
                lost = (undecided.len() - pushed) as u64;
            }
        }
        let readmit = undecided.len() as u64 - lost;
        let recovered_committed = outcome.accepted;
        // The failure is consumed here: the shard is no longer failed,
        // and `finish` must not report it as degraded.
        drop(failure);

        // --- Replacement worker: resumes counters and the decision
        // sequence exactly where the dead worker stopped. ---
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let ctx = ShardCtx {
            shard,
            group: group.clone(),
            batch_size: self.config.batch_size.max(1),
            registry: self.obs.registry.clone(),
            flight: Some(Arc::clone(flight)),
            decisions: self.obs.decisions.clone(),
            health: Arc::clone(&self.health),
            started: self.started,
            clock: Arc::clone(&self.clock),
            pin_cpu: self
                .ingest
                .pin_workers
                .then(|| (self.ingest.pin_offset + shard) % cpus),
        };
        let resume = ResumeState {
            schedule,
            outcome,
            readmit,
            ledger: Arc::clone(&self.ledger),
        };
        let restart_n = self.ledger.restarts.get() + 1;
        let join = spawn_worker(
            format!("cslack-shard-{shard}-r{restart_n}"),
            Arc::clone(&ring),
            scheduler,
            ctx,
            Some(resume),
        )
        .map_err(|e| refuse(format!("failed to spawn the replacement worker: {e}")))?;
        slot.queue = Some(ring);
        slot.join = Some(join);
        slot.parked = None;
        // Only now — with the new ring installed — does the shard
        // go back to `Alive`: a producer that sees the recovered state
        // always finds a working queue behind it.
        self.health.mark_recovered(shard);
        drop(slot);

        self.ledger.restarts.inc();
        self.ledger.recovered_committed.add(recovered_committed);
        self.ledger.lost.add(lost);
        if let Some(reg) = self.obs.registry.as_deref().filter(|r| r.is_enabled()) {
            reg.shard_restarts.inc();
            reg.recovered_jobs.add(recovered_committed);
        }
        Ok(readmit)
    }
}
