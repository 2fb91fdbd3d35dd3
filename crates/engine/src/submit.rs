//! Producer-side submission paths: single-job (non-blocking, blocking,
//! deadline-bounded) and batched, all publishing into the per-shard
//! ingestion rings.

use crate::engine::Engine;
use crate::error::SubmitError;
use crate::queue::{IngestRing, PushError, Submission};
use crate::shard_of;
use crate::worker::saturating_ns;
use cslack_kernel::Job;
use cslack_obs::timeline::{Stage, TimelineStamps};
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Per-shard outcome of one batched submission.
struct GroupResult {
    /// How many of the shard's routed jobs were enqueued. A group
    /// interrupted by shutdown or a shard fault is partially published:
    /// exactly this prefix landed.
    pushed: usize,
    err: Option<GroupErr>,
}

enum GroupErr {
    Closed,
    Failed,
}

thread_local! {
    /// Per-producer-thread routing scratch: one submission vector per
    /// shard, reused across batch calls so steady-state batching
    /// performs no routing allocation at all (the vectors keep their
    /// high-water capacity).
    static ROUTE_SCRATCH: RefCell<Vec<Vec<Submission>>> = const { RefCell::new(Vec::new()) };
    /// Per-producer-thread result scratch for the batch APIs: the
    /// per-shard outcomes plus the taken-index counters used to map
    /// them back to per-job results.
    static BATCH_SCRATCH: RefCell<(Vec<GroupResult>, Vec<usize>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

impl Engine {
    /// Writes the crash-dump `.cfr` if the flight config asked for one
    /// and no failing worker already wrote it at failure time.
    pub(crate) fn write_error_snapshot(&self) {
        if let Some(state) = &self.flight {
            state.write_error_snapshot();
        }
    }

    /// Records a successful enqueue for the busy-window throughput
    /// measure (first one wins).
    fn note_enqueue(&self) {
        self.first_enqueue_ns
            .fetch_min(saturating_ns(self.started.elapsed()), Ordering::Relaxed);
    }

    /// Publishes the producer-side edge of the queue-depth gauge after
    /// a ring enqueue. The worker publishes the consumer-side edge, so
    /// scrapes see the depth bounded-stale from both directions.
    fn publish_depth(&self, shard: usize, ring: &IngestRing) {
        if let Some(reg) = &self.obs.registry {
            if reg.is_enabled() {
                reg.queue_depth.set(shard, ring.depth());
            }
        }
    }

    /// Timeline stamps for an in-process submission: one clock read,
    /// with the server-side network hops (frame decode, dispatch)
    /// coinciding with the enqueue — a direct caller has no wire
    /// between itself and the queue, so those spans are honestly zero
    /// rather than absent. Client send stays absent: only a real
    /// client can stamp its own clock domain.
    fn inprocess_stamps(&self) -> TimelineStamps {
        let now = self.clock.now_ns();
        let mut stamps = TimelineStamps::empty();
        stamps.set(Stage::FrameDecode, now);
        stamps.set(Stage::Dispatch, now);
        stamps.set(Stage::Enqueue, now);
        stamps
    }

    /// Maps a refused push to the right submit error: a failed shard's
    /// ring is poisoned by its dying worker, which would otherwise be
    /// indistinguishable from graceful shutdown.
    fn closed_or_failed(&self, shard: usize, job: Job) -> SubmitError {
        if self.health.is_failed(shard) {
            SubmitError::ShardFailed(job)
        } else {
            SubmitError::Closed(job)
        }
    }

    /// Enqueues a job without blocking.
    ///
    /// Fails with [`SubmitError::Full`] when the target shard's queue
    /// is at capacity — the backpressure signal for callers that must
    /// not block — and with [`SubmitError::ShardFailed`] when the
    /// shard's worker died to a contained fault.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        let shard = shard_of(job.id, self.shards.len());
        if self.health.is_failed(shard) {
            return Err(SubmitError::ShardFailed(job));
        }
        let slot = self.shards[shard].read_slot();
        let Some(ring) = &slot.queue else {
            return Err(SubmitError::Closed(job));
        };
        match ring.try_push((job, self.inprocess_stamps())) {
            Ok(()) => {
                self.note_enqueue();
                self.publish_depth(shard, ring);
                Ok(())
            }
            Err(PushError::Full) => Err(SubmitError::Full(job)),
            Err(PushError::Closed | PushError::Gone) => Err(self.closed_or_failed(shard, job)),
        }
    }

    /// Enqueues a job, blocking while the target shard's queue is full.
    ///
    /// A full queue is counted as a backpressure stall (metric
    /// `backpressure_stalls`) and then waited out — the job is never
    /// dropped. A shard that failed mid-wait poisons its ring, so the
    /// blocked push returns [`SubmitError::ShardFailed`] rather than
    /// hanging.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        let shard = shard_of(job.id, self.shards.len());
        if self.health.is_failed(shard) {
            return Err(SubmitError::ShardFailed(job));
        }
        let slot = self.shards[shard].read_slot();
        let Some(ring) = &slot.queue else {
            return Err(SubmitError::Closed(job));
        };
        let sub = (job, self.inprocess_stamps());
        match ring.push_batch_blocking(std::slice::from_ref(&sub)) {
            Ok(stalled) => {
                if stalled {
                    self.note_stall();
                }
                self.note_enqueue();
                self.publish_depth(shard, ring);
                Ok(())
            }
            Err(_) => Err(self.closed_or_failed(shard, job)),
        }
    }

    /// Enqueues a batch of jobs with **one queue publish per involved
    /// shard** instead of one per job — the ingestion path for callers
    /// that already hold many submissions (the network server's
    /// `SubmitBatch` frames, `serve-bench`'s workload streaming). Jobs
    /// are grouped by their deterministic shard route with relative
    /// order preserved, so the per-shard arrival streams — and
    /// therefore the decision streams — are identical to submitting
    /// the same slice job-by-job through [`Engine::submit`].
    ///
    /// Returns how many jobs were enqueued and appends one
    /// [`SubmitError`] per *failed* job (in input order, each carrying
    /// its job) to the caller-owned `failures` buffer, which is cleared
    /// first and reused across calls. A full shard queue is waited out
    /// like [`Engine::submit`] (counted as one backpressure stall per
    /// shard-group, not per job); a failed or closed shard fails its
    /// jobs with [`SubmitError::ShardFailed`] / [`SubmitError::Closed`]
    /// while the other shards' groups still enqueue. Ring capacity
    /// bounds queued *jobs*: a group larger than the free space
    /// publishes in chunks as the worker drains. When every job lands,
    /// the call touches no allocator at all: routing scratch is
    /// thread-local and `failures` keeps its capacity.
    pub fn submit_batch_into(&self, jobs: &[Job], failures: &mut Vec<SubmitError>) -> usize {
        self.submit_batch_stamped_into(jobs, TimelineStamps::empty(), failures)
    }

    /// [`Engine::submit_batch_into`] with caller-provided timeline
    /// stamps — the wire-ingestion path. `stamps` carries the hops that
    /// happened *before* the engine saw the batch (client send from the
    /// frame, frame decode, dispatcher route); the engine stamps
    /// `Enqueue` itself (one clock read for the whole batch) and fills
    /// a missing frame-decode/dispatch stamp with it, so every
    /// server-side stage is always present downstream. A zero
    /// client-send stamp is left absent — it belongs to the client's
    /// clock domain and cannot be synthesized here. Returns the number
    /// of jobs enqueued.
    pub fn submit_batch_stamped_into(
        &self,
        jobs: &[Job],
        stamps: TimelineStamps,
        failures: &mut Vec<SubmitError>,
    ) -> usize {
        failures.clear();
        BATCH_SCRATCH.with(|scratch| {
            let (outcomes, taken) = &mut *scratch.borrow_mut();
            self.submit_batch_core(jobs, stamps, outcomes);
            if outcomes.iter().all(|g| g.err.is_none()) {
                // Steady state: everything enqueued, nothing to report.
                return jobs.len();
            }
            taken.clear();
            taken.resize(self.shards.len(), 0);
            let mut enqueued = 0usize;
            for job in jobs {
                let shard = shard_of(job.id, self.shards.len());
                let idx = taken[shard];
                taken[shard] += 1;
                let group = &outcomes[shard];
                if idx < group.pushed {
                    enqueued += 1;
                } else {
                    failures.push(match group.err {
                        Some(GroupErr::Failed) => SubmitError::ShardFailed(*job),
                        _ => SubmitError::Closed(*job),
                    });
                }
            }
            enqueued
        })
    }

    /// The core of [`Engine::submit_batch_stamped_into`]: stamp, route into the
    /// thread-local per-shard scratch, and publish one group per shard,
    /// recording each group's outcome into `outcomes` (indexed by
    /// shard).
    fn submit_batch_core(
        &self,
        jobs: &[Job],
        mut stamps: TimelineStamps,
        outcomes: &mut Vec<GroupResult>,
    ) {
        let shards = self.shards.len();
        let now = self.clock.now_ns();
        for stage in [Stage::FrameDecode, Stage::Dispatch] {
            if stamps.get(stage) == 0 {
                stamps.set(stage, now);
            }
        }
        stamps.set(Stage::Enqueue, now);
        ROUTE_SCRATCH.with(|scratch| {
            let groups = &mut *scratch.borrow_mut();
            if groups.len() < shards {
                groups.resize_with(shards, Vec::new);
            }
            for group in groups.iter_mut() {
                group.clear();
            }
            for job in jobs {
                groups[shard_of(job.id, shards)].push((*job, stamps));
            }
            outcomes.clear();
            for (shard, group) in groups.iter().take(shards).enumerate() {
                outcomes.push(self.submit_group(shard, group));
            }
        });
    }

    /// Publishes one shard's routed group. Empty groups are vacuously
    /// enqueued; a full queue is waited out (one stall per group); a
    /// failed or closed shard reports the error with an exact `pushed`
    /// prefix so partial ring publishes map back to per-job results.
    fn submit_group(&self, shard: usize, group: &[Submission]) -> GroupResult {
        let len = group.len();
        if len == 0 {
            return GroupResult {
                pushed: 0,
                err: None,
            };
        }
        if self.health.is_failed(shard) {
            return GroupResult {
                pushed: 0,
                err: Some(GroupErr::Failed),
            };
        }
        // Holding the read guard for the whole publish keeps a
        // concurrent `restart_shard` (write lock) from swapping the
        // ring out from under a partially pushed group.
        let slot = self.shards[shard].read_slot();
        let Some(ring) = slot.queue.as_ref() else {
            return GroupResult {
                pushed: 0,
                err: Some(GroupErr::Closed),
            };
        };
        let outcome = match ring.push_batch_blocking(group) {
            Ok(stalled) => {
                if stalled {
                    self.note_stall();
                }
                GroupResult {
                    pushed: len,
                    err: None,
                }
            }
            Err((pushed, _)) => GroupResult {
                pushed,
                err: Some(if self.health.is_failed(shard) {
                    GroupErr::Failed
                } else {
                    GroupErr::Closed
                }),
            },
        };
        if outcome.pushed > 0 {
            self.note_enqueue();
            self.publish_depth(shard, ring);
        }
        outcome
    }

    /// Counts one backpressure stall (report counter + live registry).
    fn note_stall(&self) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
        if let Some(reg) = &self.obs.registry {
            if reg.is_enabled() {
                reg.backpressure_stalls.inc();
            }
        }
    }

    /// Enqueues a job with a deadline on the *submission* (not the
    /// job's own scheduling deadline): retries a full queue with
    /// bounded exponential backoff (50 µs doubling to a 10 ms cap,
    /// never past the deadline) and gives up with
    /// [`SubmitError::Full`] once `deadline` has elapsed.
    ///
    /// Producers that must not block indefinitely — the paper's
    /// admission setting is online, a job held too long is worthless —
    /// get a bounded-latency alternative to the unboundedly blocking
    /// [`Engine::submit`]. [`SubmitError::ShardFailed`] and
    /// [`SubmitError::Closed`] surface immediately; backpressure is
    /// the only condition worth waiting out.
    pub fn submit_with_deadline(&self, job: Job, deadline: Duration) -> Result<(), SubmitError> {
        const INITIAL_BACKOFF: Duration = Duration::from_micros(50);
        const MAX_BACKOFF: Duration = Duration::from_millis(10);
        let start = Instant::now();
        let mut backoff = INITIAL_BACKOFF;
        let mut job = job;
        let mut stalled = false;
        loop {
            match self.try_submit(job) {
                Ok(()) => return Ok(()),
                Err(SubmitError::Full(j)) => {
                    if !stalled {
                        // One stall per submission, matching `submit`'s
                        // accounting, however many retries follow.
                        stalled = true;
                        self.note_stall();
                    }
                    let elapsed = start.elapsed();
                    if elapsed >= deadline {
                        return Err(SubmitError::Full(j));
                    }
                    std::thread::sleep(backoff.min(deadline - elapsed));
                    backoff = (backoff * 2).min(MAX_BACKOFF);
                    job = j;
                }
                Err(other) => return Err(other),
            }
        }
    }
}
