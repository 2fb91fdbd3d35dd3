//! The ingestion plane: how submissions travel from producer threads to
//! a shard worker.
//!
//! Each shard has one [`IngestRing`]: a bounded power-of-two slot array
//! that producers publish whole routed batches into with **one lock
//! acquisition and one release store per batch**, and that the shard
//! worker drains lock-free through its [`RingConsumer`]. Slots are
//! preallocated up front and hold the submissions by value
//! ([`Submission`] is `Copy`), so the hot path performs no per-job
//! allocation at all — the ring *is* the job pool.
//!
//! ## Ring layout and publish protocol
//!
//! The ring is a fixed `capacity.next_power_of_two()` array of
//! [`Submission`] slots indexed by two monotonically increasing
//! cursors: `tail` (next write position, advanced by producers) and
//! `head` (next read position, advanced by the single consumer). The
//! occupied region is `[head, tail)`; `depth = tail - head` is exact,
//! and ring capacity bounds queued **jobs**, however they were batched.
//!
//! Producers serialize on a `Mutex` (uncontended in the single-producer
//! case; one acquisition per *batch*, not per job, otherwise), write
//! their items into the free slots, and publish them with a single
//! `Release` store of `tail`. The consumer `Acquire`-loads `tail`,
//! copies the published slots out, and `Release`-stores the advanced
//! `head`; the acquire/release pair on each cursor is the entire
//! happens-before protocol. The consumer never takes the producer lock
//! on the hot path — only to wake producers that are blocked on a full
//! ring (tracked by `space_waiters`).
//!
//! Consumer sleep/wake uses a parked-flag + `park_timeout` protocol:
//! the consumer advertises `parked`, re-checks emptiness, and parks
//! with a bounded (1 ms) timeout; producers `SeqCst`-fence after
//! publishing and unpark an advertised sleeper. A lost wakeup
//! therefore costs at most one timeout, never a hang. Producers
//! blocked on a full ring wait on a condvar with the same bounded
//! timeout and are notified by the consumer after it frees slots, or
//! by `close`/`consumer_exit` on shutdown and shard failure.

use cslack_kernel::Job;
use cslack_obs::timeline::TimelineStamps;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::Thread;
use std::time::Duration;

/// Queue payload: the job plus the timeline stamps accumulated up to —
/// and including — its enqueue. The worker reads queue wait straight
/// off the enqueue stamp and keeps stamping the later hops into the
/// same array.
pub(crate) type Submission = (Job, TimelineStamps);

/// Why a ring push did not (fully) enqueue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PushError {
    /// No free slot (non-blocking push only) — the backpressure signal.
    Full,
    /// The engine closed the ring (graceful shutdown).
    Closed,
    /// The consumer (shard worker) is gone — the shard failed.
    Gone,
}

/// Interior-padded atomic so the producer and consumer cursors do not
/// share a cache line with each other or with the slot array.
#[repr(align(64))]
struct Padded<T>(T);

struct Slot(UnsafeCell<MaybeUninit<Submission>>);

/// The lock-free-consumer ingestion ring described in the module docs.
///
/// Safety invariants: slots in `[head, tail)` are initialized and owned
/// (read-only) by the consumer; slots outside it are owned by whichever
/// producer holds the `prod` lock. `Submission` is `Copy`, so slots
/// never need dropping and a seq-lock style re-read can never observe a
/// torn non-trivial value — the cursors alone gate slot access.
pub(crate) struct IngestRing {
    mask: u64,
    slots: Box<[Slot]>,
    /// Consumer cursor: next position to read.
    head: Padded<AtomicU64>,
    /// Producer cursor: next position to write; advanced only under
    /// `prod`, read by the consumer with `Acquire`.
    tail: Padded<AtomicU64>,
    /// Serializes producers; one acquisition per published batch.
    prod: Mutex<()>,
    /// Producers blocked on a full ring wait here (with `prod` held).
    space: Condvar,
    /// How many producers are waiting on `space` — the consumer only
    /// takes `prod` to notify when this is nonzero.
    space_waiters: AtomicU64,
    /// Graceful shutdown: no further pushes, consumer drains and exits.
    closed: AtomicBool,
    /// The consumer died (shard fault): pushes fail with `Gone`.
    consumer_gone: AtomicBool,
    /// The consumer advertises that it is about to park.
    parked: AtomicBool,
    /// The consumer's thread handle, registered at worker startup, so
    /// producers can unpark it.
    consumer: Mutex<Option<Thread>>,
}

// SAFETY: all slot access is gated by the cursor protocol documented
// on the struct; every other field is a std sync primitive.
unsafe impl Send for IngestRing {}
unsafe impl Sync for IngestRing {}

/// Bounded condvar/park timeouts: the backstop that turns any lost
/// wakeup into bounded staleness instead of a hang.
const SPACE_WAIT: Duration = Duration::from_micros(100);
const PARK_WAIT: Duration = Duration::from_millis(1);

impl IngestRing {
    /// A ring with at least `capacity` job slots (rounded up to a power
    /// of two, minimum 1). Every slot is touched here, on the caller's
    /// thread, so the hot path never page-faults into fresh memory.
    pub(crate) fn new(capacity: usize) -> IngestRing {
        let cap = capacity.max(1).next_power_of_two();
        let slots: Box<[Slot]> = (0..cap)
            .map(|_| Slot(UnsafeCell::new(MaybeUninit::zeroed())))
            .collect();
        IngestRing {
            mask: (cap - 1) as u64,
            slots,
            head: Padded(AtomicU64::new(0)),
            tail: Padded(AtomicU64::new(0)),
            prod: Mutex::new(()),
            space: Condvar::new(),
            space_waiters: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            consumer_gone: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            consumer: Mutex::new(None),
        }
    }

    #[inline]
    fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// Jobs currently queued (exact).
    #[inline]
    pub(crate) fn depth(&self) -> u64 {
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    #[inline]
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// SAFETY: `pos` must lie in a region this thread currently owns
    /// per the cursor protocol.
    unsafe fn write_slot(&self, pos: u64, sub: Submission) {
        let slot = &self.slots[(pos & self.mask) as usize];
        (*slot.0.get()).write(sub);
    }

    /// SAFETY: `pos` must lie in `[head, tail)` as observed by the
    /// consumer (initialized and published).
    unsafe fn read_slot(&self, pos: u64) -> Submission {
        let slot = &self.slots[(pos & self.mask) as usize];
        (*slot.0.get()).assume_init_read()
    }

    /// Publishes slots up to `new_tail` and wakes an advertised parked
    /// consumer. Caller holds the `prod` lock.
    fn publish(&self, new_tail: u64) {
        self.tail.0.store(new_tail, Ordering::Release);
        // Total-order the tail publish against the consumer's
        // parked-flag advertisement (Dekker); the park timeout bounds
        // any residual race.
        fence(Ordering::SeqCst);
        self.wake_consumer();
    }

    fn wake_consumer(&self) {
        if self.parked.swap(false, Ordering::Relaxed) {
            if let Some(t) = self
                .consumer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ref()
            {
                t.unpark();
            }
        }
    }

    /// Non-blocking single push — the `try_submit` backpressure probe.
    pub(crate) fn try_push(&self, sub: Submission) -> Result<(), PushError> {
        let _guard = self.prod.lock().unwrap_or_else(PoisonError::into_inner);
        if self.consumer_gone.load(Ordering::Acquire) {
            return Err(PushError::Gone);
        }
        if self.closed.load(Ordering::Acquire) {
            return Err(PushError::Closed);
        }
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if tail - head >= self.capacity() {
            return Err(PushError::Full);
        }
        unsafe { self.write_slot(tail, sub) };
        self.publish(tail + 1);
        Ok(())
    }

    /// Publishes `subs` in order, blocking while the ring is full.
    /// Batches larger than the ring publish in chunks as slots free up
    /// — every chunk is one release store, and no job is ever published
    /// twice. Returns `Ok(stalled)` where `stalled` reports whether the
    /// push ever had to wait (one backpressure stall per call, however
    /// long the wait). On `Err((pushed, e))`
    /// exactly the first `pushed` items were enqueued and the rest were
    /// not.
    pub(crate) fn push_batch_blocking(
        &self,
        subs: &[Submission],
    ) -> Result<bool, (usize, PushError)> {
        let mut guard = self.prod.lock().unwrap_or_else(PoisonError::into_inner);
        let mut pushed = 0usize;
        let mut stalled = false;
        loop {
            if self.consumer_gone.load(Ordering::Acquire) {
                return Err((pushed, PushError::Gone));
            }
            if self.closed.load(Ordering::Acquire) {
                return Err((pushed, PushError::Closed));
            }
            let tail = self.tail.0.load(Ordering::Relaxed);
            let head = self.head.0.load(Ordering::Acquire);
            let free = (self.capacity() - (tail - head)) as usize;
            let chunk = free.min(subs.len() - pushed);
            if chunk > 0 {
                for (i, sub) in subs[pushed..pushed + chunk].iter().enumerate() {
                    unsafe { self.write_slot(tail + i as u64, *sub) };
                }
                self.publish(tail + chunk as u64);
                pushed += chunk;
                if pushed == subs.len() {
                    return Ok(stalled);
                }
                continue;
            }
            stalled = true;
            self.space_waiters.fetch_add(1, Ordering::SeqCst);
            let (reacquired, _timeout) = self
                .space
                .wait_timeout(guard, SPACE_WAIT)
                .unwrap_or_else(PoisonError::into_inner);
            guard = reacquired;
            self.space_waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Consumer-side batch pop: copies up to `max` published
    /// submissions into `out` and frees their slots. Returns how many
    /// were popped; wakes blocked producers when slots were freed.
    pub(crate) fn pop_into(&self, out: &mut Vec<Submission>, max: usize) -> usize {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        let n = ((tail - head) as usize).min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for i in 0..n {
            out.push(unsafe { self.read_slot(head + i as u64) });
        }
        self.head.0.store(head + n as u64, Ordering::Release);
        // Pair with the producers' waiter registration; the condvar
        // timeout bounds the race either way.
        fence(Ordering::SeqCst);
        if self.space_waiters.load(Ordering::Relaxed) > 0 {
            let _guard = self.prod.lock().unwrap_or_else(PoisonError::into_inner);
            self.space.notify_all();
        }
        n
    }

    /// Registers the calling thread as the ring's consumer so producers
    /// can unpark it. Must run on the worker thread, before parking.
    pub(crate) fn register_consumer(&self) {
        *self.consumer.lock().unwrap_or_else(PoisonError::into_inner) =
            Some(std::thread::current());
    }

    /// Blocks the consumer briefly while the ring is empty. The parked
    /// flag is advertised before the emptiness re-check (Dekker against
    /// [`IngestRing::publish`]), and the park itself is bounded, so a
    /// lost wakeup costs one timeout, never a hang.
    pub(crate) fn park_for_data(&self) {
        self.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.depth() > 0 || self.is_closed() || self.consumer_gone.load(Ordering::Acquire) {
            self.parked.store(false, Ordering::Relaxed);
            return;
        }
        std::thread::park_timeout(PARK_WAIT);
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Graceful shutdown (engine finish/drop): no further pushes; the
    /// consumer drains what is published and exits. Wakes both sides.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        {
            let _guard = self.prod.lock().unwrap_or_else(PoisonError::into_inner);
            self.space.notify_all();
        }
        fence(Ordering::SeqCst);
        self.wake_consumer();
    }

    /// The consumer is gone (worker exit or shard fault): blocked and
    /// future pushes fail with [`PushError::Gone`] so producers never
    /// hang on a dead shard.
    pub(crate) fn consumer_exit(&self) {
        self.consumer_gone.store(true, Ordering::Release);
        let _guard = self.prod.lock().unwrap_or_else(PoisonError::into_inner);
        self.space.notify_all();
    }
}

/// The consumer half of a ring, owned by the shard worker. Dropping it
/// (normal exit, fault, or an unwind that escaped containment) marks
/// the consumer gone, so producers blocked on a full ring wake with
/// [`PushError::Gone`] instead of hanging.
pub(crate) struct RingConsumer {
    ring: Arc<IngestRing>,
}

impl RingConsumer {
    /// Binds the calling thread as the ring's consumer. Must run on the
    /// worker thread, so producers unpark the right thread.
    pub(crate) fn new(ring: Arc<IngestRing>) -> RingConsumer {
        ring.register_consumer();
        RingConsumer { ring }
    }

    /// Blocks until at least one submission is available and fills
    /// `batch` with up to `max` jobs in arrival order. Returns `false`
    /// when the ring is closed and fully drained — the worker's exit
    /// signal.
    pub(crate) fn fill_batch(&self, batch: &mut Vec<Submission>, max: usize) -> bool {
        loop {
            if self.ring.pop_into(batch, max) > 0 {
                return true;
            }
            if self.ring.is_closed() && self.ring.depth() == 0 {
                return false;
            }
            self.ring.park_for_data();
        }
    }

    /// Jobs still queued.
    pub(crate) fn depth(&self) -> u64 {
        self.ring.depth()
    }

    /// Fault-path drain: collects every queued submission that will
    /// never be decided into `out`, in arrival order. The ring is
    /// poisoned first (`consumer_exit`) so producers stop publishing
    /// into the drain. Collecting (rather than counting) is what makes
    /// recovery possible: the drained submissions are exactly the jobs
    /// a replacement worker can re-offer.
    pub(crate) fn drain_into(&self, out: &mut Vec<Submission>) {
        self.ring.consumer_exit();
        while self.ring.pop_into(out, usize::MAX) > 0 {}
    }
}

impl Drop for RingConsumer {
    fn drop(&mut self) {
        self.ring.consumer_exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cslack_kernel::{JobId, Time};

    fn sub(id: u32) -> Submission {
        (
            Job::new(JobId(id), Time::ZERO, 1.0, Time::new(1e9)),
            TimelineStamps::empty(),
        )
    }

    fn ids(batch: &[Submission]) -> Vec<u32> {
        batch.iter().map(|(j, _)| j.id.0).collect()
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two_and_bounds_jobs() {
        let ring = IngestRing::new(3);
        assert_eq!(ring.capacity(), 4);
        for id in 0..4 {
            ring.try_push(sub(id)).unwrap();
        }
        assert_eq!(ring.try_push(sub(4)), Err(PushError::Full));
        assert_eq!(ring.depth(), 4);
    }

    #[test]
    fn fifo_order_survives_wraparound() {
        let ring = IngestRing::new(4);
        let mut out = Vec::new();
        let mut next = 0u32;
        for round in 0..10 {
            let k = 1 + (round % 4) as u32;
            for _ in 0..k {
                ring.try_push(sub(next)).unwrap();
                next += 1;
            }
            ring.pop_into(&mut out, usize::MAX);
        }
        assert_eq!(ids(&out), (0..next).collect::<Vec<u32>>());
        assert_eq!(ring.depth(), 0);
    }

    #[test]
    fn batch_larger_than_capacity_publishes_in_chunks() {
        let ring = Arc::new(IngestRing::new(4));
        let subs: Vec<Submission> = (0..10).map(sub).collect();
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push_batch_blocking(&subs))
        };
        let mut out = Vec::new();
        while out.len() < 10 {
            ring.pop_into(&mut out, usize::MAX);
            std::thread::yield_now();
        }
        let stalled = producer.join().unwrap().expect("publish completes");
        assert!(stalled, "an oversized batch must report the stall");
        assert_eq!(ids(&out), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn close_mid_wait_reports_partial_publish_exactly() {
        let ring = Arc::new(IngestRing::new(2));
        let subs: Vec<Submission> = (0..8).map(sub).collect();
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push_batch_blocking(&subs))
        };
        // Let the producer fill the ring and block, then close without
        // ever consuming.
        while ring.depth() < 2 {
            std::thread::yield_now();
        }
        ring.close();
        let (pushed, err) = producer.join().unwrap().expect_err("close interrupts");
        assert_eq!(err, PushError::Closed);
        assert_eq!(pushed, 2, "exactly the published prefix is reported");
        let mut out = Vec::new();
        assert_eq!(ring.pop_into(&mut out, usize::MAX), 2);
        assert_eq!(ids(&out), vec![0, 1]);
    }

    #[test]
    fn consumer_exit_unblocks_producers_with_gone() {
        let ring = Arc::new(IngestRing::new(1));
        ring.try_push(sub(0)).unwrap();
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push_batch_blocking(&[sub(1)]))
        };
        std::thread::sleep(Duration::from_millis(5));
        ring.consumer_exit();
        let (pushed, err) = producer.join().unwrap().expect_err("gone interrupts");
        assert_eq!(err, PushError::Gone);
        assert_eq!(pushed, 0);
        assert_eq!(ring.try_push(sub(2)), Err(PushError::Gone));
    }

    #[test]
    fn concurrent_producers_never_lose_or_duplicate() {
        const PRODUCERS: u32 = 4;
        const PER: u32 = 2_000;
        let ring = Arc::new(IngestRing::new(64));
        let mut out = Vec::new();
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let ring = &ring;
                scope.spawn(move || {
                    let subs: Vec<Submission> = (0..PER).map(|i| sub(p * PER + i)).collect();
                    for chunk in subs.chunks(7) {
                        ring.push_batch_blocking(chunk).unwrap();
                    }
                });
            }
            while out.len() < (PRODUCERS * PER) as usize {
                if ring.pop_into(&mut out, usize::MAX) == 0 {
                    ring.park_for_data();
                }
            }
        });
        // Every id exactly once, and each producer's stream in order.
        let mut seen = vec![false; (PRODUCERS * PER) as usize];
        let mut last = vec![None::<u32>; PRODUCERS as usize];
        for (job, _) in &out {
            let id = job.id.0;
            assert!(!seen[id as usize], "duplicate id {id}");
            seen[id as usize] = true;
            let p = (id / PER) as usize;
            if let Some(prev) = last[p] {
                assert!(prev < id, "producer {p} reordered: {prev} then {id}");
            }
            last[p] = Some(id);
        }
        assert!(seen.iter().all(|&s| s));
    }
}
