//! The **flight recorder**: a bounded binary ring capturing the complete
//! causal record of an engine run, snapshottable to a `.cfr` file.
//!
//! The paper's model commits a job on admission: the accept and the
//! `(machine, start)` binding happen at the same instant, so one record
//! per decision is the whole life cycle. Two event kinds exist:
//!
//! * [`FlightEvent::Decision`] — the full [`DecisionEvent`] the shard
//!   produced: the job's parameters and shard routing, its per-shard
//!   arrival index, candidates, threshold, min-load and, for an accept,
//!   the irrevocable placement in global machine ids;
//! * [`FlightEvent::Submission`] — a job that entered a shard's decision
//!   loop but whose decision never completed. Only a contained fault
//!   writes one (for the failing job), so a recording holds at most one
//!   per fault; after a shard restart it can sit mid-stream.
//!
//! Together they are enough to *replay* the run (rebuild the per-shard
//! submission streams, re-run the scheduler, compare decision streams
//! bit for bit) and to *audit* it (recheck every schedule invariant and
//! the threshold admission rule from the trace alone) — see
//! `cslack_sim::audit`.
//!
//! Each shard records into its own [`SharedFlightRing`]: one
//! fixed-size [`RECORD_SIZE`]-byte little-endian record per decision,
//! written with relaxed word stores into a buffer touched at setup, so
//! the hot path never allocates or page-faults. A snapshot and a `.cfr`
//! file hold exactly the records the ring holds.
//! When the ring is full the oldest record is overwritten and counted in
//! [`SharedFlightRing::dropped`] — a long run keeps the most recent
//! window instead of stalling the shard.
//!
//! The decision records are also the engine's only per-decision trace:
//! a JSONL decision trace is an export of [`FlightSnapshot::decisions`]
//! through [`crate::trace::write_jsonl`].
//!
//! The `.cfr` ("cslack flight recording") container holds a header with
//! the run parameters needed for deterministic replay (`m`, shard
//! count, `eps`, seed, algorithm label) plus the engine's own counters,
//! followed by one record block per shard, and ends in an FNV-1a
//! checksum so a truncated or bit-flipped file is rejected on read.
//! There is one container version ([`CFR_VERSION`]) and one record
//! width; a file with any other version word is refused.

use crate::timeline::{TimelineStamps, STAGES};
use crate::trace::{DecisionEvent, RejectCounts, RejectReason};
use std::io::{Read, Write};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// Byte offset of the timeline stamp block inside a record.
const STAMPS_OFFSET: usize = 96;

/// Size in bytes of one encoded flight record: the decision fields plus
/// one u64 timeline stamp per [`crate::timeline::Stage`].
pub const RECORD_SIZE: usize = STAMPS_OFFSET + STAGES * 8;

/// Magic bytes opening a `.cfr` file.
pub const CFR_MAGIC: &[u8; 4] = b"CFR1";

/// The `.cfr` container version this build writes and reads: one
/// stage-stamped record per decision, plus at most one arrival record
/// per contained fault. Any other version is refused.
pub const CFR_VERSION: u32 = 3;

/// Bytes of a shard block's header in a `.cfr` body: shard index
/// (u32), dropped count (u64), record count (u64).
const SHARD_BLOCK_HEADER: usize = 4 + 8 + 8;

const KIND_SUBMISSION: u8 = 0;
const KIND_DECISION: u8 = 1;

const FLAG_ACCEPTED: u8 = 1 << 0;
const FLAG_THRESHOLD: u8 = 1 << 1;
const FLAG_MIN_LOAD: u8 = 1 << 2;
const FLAG_PLACEMENT: u8 = 1 << 3;
const FLAG_REJECT_REASON: u8 = 1 << 4;

/// A [`DecisionEvent`] plus its per-stage timeline stamps.
///
/// The stamps are a recording-side extension: the decision itself (and
/// therefore replay, JSONL traces and the audit's bit-identity checks)
/// is unchanged, so `StampedDecision` derefs to its [`DecisionEvent`] —
/// read sites keep saying `d.accepted`, `d.threshold`, and so on.
#[derive(Clone, Debug, PartialEq)]
pub struct StampedDecision {
    /// The decision the shard produced.
    pub event: DecisionEvent,
    /// Nanosecond stamps per pipeline stage (0 = stage not stamped).
    pub stamps: TimelineStamps,
}

impl StampedDecision {
    /// Pairs a decision with its stamps.
    pub fn new(event: DecisionEvent, stamps: TimelineStamps) -> StampedDecision {
        StampedDecision { event, stamps }
    }

    /// A decision with no timeline data (e.g. one read back from a
    /// JSONL trace, which carries no stamps).
    pub fn unstamped(event: DecisionEvent) -> StampedDecision {
        StampedDecision {
            event,
            stamps: TimelineStamps::empty(),
        }
    }
}

impl From<DecisionEvent> for StampedDecision {
    fn from(event: DecisionEvent) -> StampedDecision {
        StampedDecision::unstamped(event)
    }
}

impl Deref for StampedDecision {
    type Target = DecisionEvent;

    fn deref(&self) -> &DecisionEvent {
        &self.event
    }
}

impl DerefMut for StampedDecision {
    fn deref_mut(&mut self) -> &mut DecisionEvent {
        &mut self.event
    }
}

/// One entry of the causal flight record.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightEvent {
    /// A job entered `shard`'s decision loop as its `seq`-th submission
    /// but its decision never completed (written by a contained fault).
    Submission {
        /// Per-shard arrival index (0-based).
        seq: u64,
        /// The deciding shard.
        shard: u32,
        /// Job id.
        job: u32,
        /// Release time `r_j`.
        release: f64,
        /// Processing time `p_j`.
        proc_time: f64,
        /// Deadline `d_j`.
        deadline: f64,
    },
    /// The decision the shard produced for its `seq`-th submission,
    /// with its stage-resolved timeline stamps.
    Decision(StampedDecision),
}

fn reject_reason_code(r: RejectReason) -> u8 {
    match r {
        RejectReason::ThresholdExceeded => 0,
        RejectReason::NoFeasibleMachine => 1,
        RejectReason::PolicyFiltered => 2,
        RejectReason::Unattributed => 3,
    }
}

fn reject_reason_from_code(code: u8) -> Result<RejectReason, String> {
    Ok(match code {
        0 => RejectReason::ThresholdExceeded,
        1 => RejectReason::NoFeasibleMachine,
        2 => RejectReason::PolicyFiltered,
        3 => RejectReason::Unattributed,
        other => return Err(format!("unknown reject-reason code {other}")),
    })
}

/// Encodes one event into its fixed-size binary record.
///
/// Layout (little-endian):
/// ```text
/// off  len  field
///   0    1  kind (0 submission, 1 decision)
///   1    1  flags (accepted / threshold / min_load / placement / reason)
///   2    1  reject reason code (valid when flagged)
///   3    1  reserved (0)
///   4    4  shard         u32
///   8    8  seq           u64
///  16    4  job           u32
///  20    4  candidates    u32
///  24    8  release       f64
///  32    8  proc_time     f64
///  40    8  deadline      f64
///  48    8  threshold     f64 (valid when flagged)
///  56    8  min_load      f64 (valid when flagged)
///  64    4  machine       u32 (valid when flagged)
///  68    4  reserved (0)
///  72    8  start         f64 (valid when flagged)
///  80    8  latency_ns    u64
///  88    8  queue_wait_ns u64
///  96   56  timeline stamps, 7 × u64 ns in stage order (0 = absent)
/// ```
pub fn encode_event(event: &FlightEvent) -> [u8; RECORD_SIZE] {
    let mut rec = [0u8; RECORD_SIZE];
    encode_event_to(&mut rec, event);
    rec
}

fn encode_event_to(rec: &mut [u8], event: &FlightEvent) {
    let put_u32 = |rec: &mut [u8], off: usize, v: u32| {
        rec[off..off + 4].copy_from_slice(&v.to_le_bytes());
    };
    let put_u64 = |rec: &mut [u8], off: usize, v: u64| {
        rec[off..off + 8].copy_from_slice(&v.to_le_bytes());
    };
    let put_f64 = |rec: &mut [u8], off: usize, v: f64| {
        rec[off..off + 8].copy_from_slice(&v.to_le_bytes());
    };
    match event {
        FlightEvent::Submission {
            seq,
            shard,
            job,
            release,
            proc_time,
            deadline,
        } => {
            rec[0] = KIND_SUBMISSION;
            put_u32(rec, 4, *shard);
            put_u64(rec, 8, *seq);
            put_u32(rec, 16, *job);
            put_f64(rec, 24, *release);
            put_f64(rec, 32, *proc_time);
            put_f64(rec, 40, *deadline);
        }
        FlightEvent::Decision(sd) => encode_decision_to(rec, &sd.event, &sd.stamps),
    }
}

/// Encodes a decision record from its parts — the hot-path encoder
/// behind both [`encode_event`] and
/// [`SharedFlightRing::record_decision`] (which skips building the
/// [`FlightEvent`] wrapper entirely).
#[inline]
fn encode_decision_to(rec: &mut [u8], d: &DecisionEvent, stamps: &TimelineStamps) {
    let put_u32 = |rec: &mut [u8], off: usize, v: u32| {
        rec[off..off + 4].copy_from_slice(&v.to_le_bytes());
    };
    let put_u64 = |rec: &mut [u8], off: usize, v: u64| {
        rec[off..off + 8].copy_from_slice(&v.to_le_bytes());
    };
    let put_f64 = |rec: &mut [u8], off: usize, v: f64| {
        rec[off..off + 8].copy_from_slice(&v.to_le_bytes());
    };
    rec[0] = KIND_DECISION;
    let mut flags = 0u8;
    if d.accepted {
        flags |= FLAG_ACCEPTED;
    }
    if d.threshold.is_some() {
        flags |= FLAG_THRESHOLD;
    }
    if d.min_load.is_some() {
        flags |= FLAG_MIN_LOAD;
    }
    if d.machine.is_some() && d.start.is_some() {
        flags |= FLAG_PLACEMENT;
    }
    if let Some(reason) = d.reject_reason {
        flags |= FLAG_REJECT_REASON;
        rec[2] = reject_reason_code(reason);
    }
    rec[1] = flags;
    put_u32(rec, 4, d.shard as u32);
    put_u64(rec, 8, d.seq);
    put_u32(rec, 16, d.job);
    put_u32(rec, 20, d.candidates);
    put_f64(rec, 24, d.release);
    put_f64(rec, 32, d.proc_time);
    put_f64(rec, 40, d.deadline);
    put_f64(rec, 48, d.threshold.unwrap_or(0.0));
    put_f64(rec, 56, d.min_load.unwrap_or(0.0));
    put_u32(rec, 64, d.machine.unwrap_or(0));
    put_f64(rec, 72, d.start.unwrap_or(0.0));
    put_u64(rec, 80, d.latency_ns);
    put_u64(rec, 88, d.queue_wait_ns);
    for (i, &stamp) in stamps.0.iter().enumerate() {
        put_u64(rec, STAMPS_OFFSET + i * 8, stamp);
    }
}

/// Decodes one fixed-size [`RECORD_SIZE`]-byte record back into its
/// event.
pub fn decode_event(rec: &[u8]) -> Result<FlightEvent, String> {
    if rec.len() != RECORD_SIZE {
        return Err(format!(
            "flight record must be {RECORD_SIZE} bytes, got {}",
            rec.len()
        ));
    }
    let get_u32 = |off: usize| u32::from_le_bytes(rec[off..off + 4].try_into().unwrap());
    let get_u64 = |off: usize| u64::from_le_bytes(rec[off..off + 8].try_into().unwrap());
    let get_f64 = |off: usize| f64::from_le_bytes(rec[off..off + 8].try_into().unwrap());
    let flags = rec[1];
    let shard = get_u32(4);
    let seq = get_u64(8);
    let job = get_u32(16);
    Ok(match rec[0] {
        KIND_SUBMISSION => FlightEvent::Submission {
            seq,
            shard,
            job,
            release: get_f64(24),
            proc_time: get_f64(32),
            deadline: get_f64(40),
        },
        KIND_DECISION => {
            let mut stamps = TimelineStamps::empty();
            for (i, slot) in stamps.0.iter_mut().enumerate() {
                *slot = get_u64(STAMPS_OFFSET + i * 8);
            }
            FlightEvent::Decision(StampedDecision {
                event: DecisionEvent {
                    seq,
                    job,
                    shard: shard as usize,
                    release: get_f64(24),
                    proc_time: get_f64(32),
                    deadline: get_f64(40),
                    candidates: get_u32(20),
                    threshold: (flags & FLAG_THRESHOLD != 0).then(|| get_f64(48)),
                    min_load: (flags & FLAG_MIN_LOAD != 0).then(|| get_f64(56)),
                    accepted: flags & FLAG_ACCEPTED != 0,
                    machine: (flags & FLAG_PLACEMENT != 0).then(|| get_u32(64)),
                    start: (flags & FLAG_PLACEMENT != 0).then(|| get_f64(72)),
                    reject_reason: if flags & FLAG_REJECT_REASON != 0 {
                        Some(reject_reason_from_code(rec[2])?)
                    } else {
                        None
                    },
                    latency_ns: get_u64(80),
                    queue_wait_ns: get_u64(88),
                },
                stamps,
            })
        }
        other => return Err(format!("unknown flight record kind {other}")),
    })
}

const RECORD_WORDS: usize = RECORD_SIZE / 8;

/// How many times a snapshot re-reads a wrapping ring before it settles
/// for a best-effort (lenient) decode.
const SNAPSHOT_RETRIES: usize = 64;

/// A bounded **single-writer, lock-free** ring of encoded flight
/// records, snapshottable from any thread without stopping the writer.
///
/// This is the shape the engine's hot path wants: the shard worker owns
/// the write side exclusively and appends with plain relaxed word
/// stores — no mutex, no CAS loop, no allocation (the whole buffer is
/// one `Box<[AtomicU64]>`, written once at construction so every page
/// is touched before the first decision). Records are stored in their
/// [`RECORD_SIZE`]-byte wire encoding, [`RECORD_WORDS`] words per slot.
///
/// Two publication regimes keep concurrent snapshots consistent:
///
/// * **Append** (`len < cap`): the writer fills the slot's words, then
///   publishes with `len.store(len + 1, Release)`. A reader loads `len`
///   with `Acquire` and only reads slots below it — published slots are
///   never mutated again until the ring wraps, so appends are wait-free
///   for both sides.
/// * **Wrap** (`len == cap`): overwriting the oldest slot mutates data
///   a reader may be copying, so the writer brackets the overwrite in a
///   seqlock: `wrap_seq` goes odd, the slot (and `head`/`dropped`) are
///   updated, `wrap_seq` goes even again. A reader validates that
///   `wrap_seq` was even and unchanged across its copy and retries
///   otherwise.
///
/// If the writer wraps continuously a reader could retry forever, so
/// after [`SNAPSHOT_RETRIES`] attempts the snapshot downgrades to a
/// *lenient* pass: it copies once without validating and skips any slot
/// that no longer decodes. That recording has `dropped > 0` — it was
/// already only a most-recent window, unusable for replay — so a
/// best-effort event list is the right answer there.
#[derive(Debug)]
pub struct SharedFlightRing {
    cap: usize,
    /// Published record count (monotone until the ring is full).
    len: AtomicUsize,
    /// Oldest slot once wrapped (writer-owned; readers see it via the
    /// seqlock bracket).
    head: AtomicUsize,
    /// Records overwritten or discarded.
    dropped: AtomicU64,
    /// Seqlock word guarding wrap-path overwrites: odd while the writer
    /// is inside a slot.
    wrap_seq: AtomicU64,
    buf: Box<[AtomicU64]>,
}

impl SharedFlightRing {
    /// A ring holding at most `capacity` records (0 disables recording:
    /// every push is counted as dropped). Allocates — and touches — the
    /// full backing buffer up front.
    pub fn new(capacity: usize) -> SharedFlightRing {
        SharedFlightRing {
            cap: capacity,
            len: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            wrap_seq: AtomicU64::new(0),
            buf: (0..capacity * RECORD_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records currently published.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records overwritten (or discarded by a zero-capacity ring).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn store_slot(&self, slot: usize, rec: &[u8; RECORD_SIZE]) {
        let base = slot * RECORD_WORDS;
        let words = &self.buf[base..base + RECORD_WORDS];
        for (word, chunk) in words.iter().zip(rec.chunks_exact(8)) {
            word.store(
                u64::from_le_bytes(chunk.try_into().unwrap()),
                Ordering::Relaxed,
            );
        }
    }

    /// Writes one encoded record into the ring — the shared tail of
    /// [`SharedFlightRing::record`] and
    /// [`SharedFlightRing::record_decision`].
    fn push_record(&self, rec: &[u8; RECORD_SIZE]) {
        let len = self.len.load(Ordering::Relaxed);
        if len < self.cap {
            self.store_slot(len, rec);
            self.len.store(len + 1, Ordering::Release);
        } else {
            let head = self.head.load(Ordering::Relaxed);
            let seq = self.wrap_seq.load(Ordering::Relaxed);
            self.wrap_seq.store(seq.wrapping_add(1), Ordering::Relaxed);
            fence(Ordering::Release);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.store_slot(head, rec);
            self.head.store((head + 1) % self.cap, Ordering::Relaxed);
            self.wrap_seq.store(seq.wrapping_add(2), Ordering::Release);
        }
    }

    /// Appends one event. **Single-writer**: exactly one thread may call
    /// this (and [`SharedFlightRing::record_decision`]) per ring — the
    /// engine gives each shard worker its own ring. Wait-free on the
    /// append path; the wrap path is a short seqlock write.
    pub fn record(&self, event: &FlightEvent) {
        if self.cap == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.push_record(&encode_event(event));
    }

    /// Records a decision straight from its parts: no [`FlightEvent`]
    /// wrapper, no [`StampedDecision`] copy — one stack-buffer encode
    /// and one pass of relaxed stores. This is the per-decision write
    /// on the engine's hot path, where the whole flight tax has to fit
    /// the < 5% observability budget.
    pub fn record_decision(&self, event: &DecisionEvent, stamps: &TimelineStamps) {
        if self.cap == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut rec = [0u8; RECORD_SIZE];
        encode_decision_to(&mut rec, event, stamps);
        self.push_record(&rec);
    }

    /// Copies one consistent pass of `(len, head, slot words)` out.
    /// Returns `None` when a wrap raced the copy.
    fn try_copy(&self) -> Option<(usize, usize, Vec<u8>)> {
        let s1 = self.wrap_seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return None;
        }
        let (len, head, raw) = self.copy_unvalidated();
        fence(Ordering::Acquire);
        (self.wrap_seq.load(Ordering::Relaxed) == s1).then_some((len, head, raw))
    }

    fn copy_unvalidated(&self) -> (usize, usize, Vec<u8>) {
        let len = self.len.load(Ordering::Acquire).min(self.cap);
        let head = self.head.load(Ordering::Relaxed) % self.cap.max(1);
        let mut raw = Vec::with_capacity(len * RECORD_SIZE);
        for i in 0..len {
            let base = ((head + i) % self.cap) * RECORD_WORDS;
            for w in 0..RECORD_WORDS {
                raw.extend_from_slice(&self.buf[base + w].load(Ordering::Relaxed).to_le_bytes());
            }
        }
        (len, head, raw)
    }

    /// Decodes the buffered records in insertion order without stopping
    /// the writer — the live-snapshot path. Returns the events and the
    /// drop counter observed in the same pass.
    pub fn snapshot_events(&self) -> (Vec<FlightEvent>, u64) {
        if self.cap == 0 {
            return (Vec::new(), self.dropped());
        }
        for _ in 0..SNAPSHOT_RETRIES {
            if let Some((len, _, raw)) = self.try_copy() {
                let mut events = Vec::with_capacity(len);
                for rec in raw.chunks_exact(RECORD_SIZE) {
                    match decode_event(rec) {
                        Ok(event) => events.push(event),
                        // A validated copy always decodes; tolerate
                        // rather than panic a telemetry path.
                        Err(_) => continue,
                    }
                }
                return (events, self.dropped());
            }
            std::thread::yield_now();
        }
        // The writer is wrapping faster than we can copy: take one
        // unvalidated pass and keep whatever still decodes. dropped > 0
        // here by construction, so the recording was already a lossy
        // window.
        let (_, _, raw) = self.copy_unvalidated();
        let events = raw
            .chunks_exact(RECORD_SIZE)
            .filter_map(|rec| decode_event(rec).ok())
            .collect();
        (events, self.dropped())
    }
}

/// The replay/audit metadata of one recorded run.
///
/// Everything a reader needs to rebuild the engine configuration and
/// re-run the schedulers deterministically, plus the engine's own
/// counters so an auditor can cross-check them against the recomputed
/// totals.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightHeader {
    /// Cluster machine count.
    pub m: u32,
    /// Shard count (disjoint contiguous machine groups, engine layout).
    pub shards: u32,
    /// System slack `eps` the schedulers were configured with.
    pub eps: f64,
    /// Base RNG seed; shard `s` ran with `seed + s` (engine convention).
    pub seed: u64,
    /// Algorithm label in CLI vocabulary (`threshold`, `greedy`, ...).
    pub algorithm: String,
    /// Jobs the engine reported as submitted.
    pub submitted: u64,
    /// Jobs the engine reported as accepted.
    pub accepted: u64,
    /// Engine rejection counters by typed reason.
    pub rejected: RejectCounts,
}

/// One shard's slice of a flight snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardFlight {
    /// Shard index.
    pub shard: u32,
    /// Records the shard's bounded ring overwrote.
    pub dropped: u64,
    /// Buffered events in recording order.
    pub events: Vec<FlightEvent>,
}

/// A complete flight recording: header plus one event block per shard.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightSnapshot {
    /// Run metadata and engine counters.
    pub header: FlightHeader,
    /// Per-shard event streams, indexed by shard.
    pub shards: Vec<ShardFlight>,
}

impl FlightSnapshot {
    /// Total events across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.events.len()).sum()
    }

    /// Whether no shard recorded anything.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.events.is_empty())
    }

    /// Total records dropped by the bounded rings.
    pub fn total_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped).sum()
    }

    /// All decision events, in `(shard, seq)` order.
    pub fn decisions(&self) -> Vec<&DecisionEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for event in &shard.events {
                if let FlightEvent::Decision(d) = event {
                    out.push(&d.event);
                }
            }
        }
        out
    }

    /// All decisions with their timeline stamps, in `(shard, seq)`
    /// order.
    pub fn stamped_decisions(&self) -> Vec<&StampedDecision> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for event in &shard.events {
                if let FlightEvent::Decision(d) = event {
                    out.push(d);
                }
            }
        }
        out
    }

    /// Serializes the snapshot as a `.cfr` byte stream.
    pub fn write_cfr<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut body: Vec<u8> = Vec::new();
        let h = &self.header;
        body.extend_from_slice(&h.m.to_le_bytes());
        body.extend_from_slice(&h.shards.to_le_bytes());
        body.extend_from_slice(&h.eps.to_le_bytes());
        body.extend_from_slice(&h.seed.to_le_bytes());
        let name = h.algorithm.as_bytes();
        body.extend_from_slice(&(name.len() as u32).to_le_bytes());
        body.extend_from_slice(name);
        body.extend_from_slice(&h.submitted.to_le_bytes());
        body.extend_from_slice(&h.accepted.to_le_bytes());
        for reason in RejectReason::ALL {
            body.extend_from_slice(&h.rejected.get(reason).to_le_bytes());
        }
        body.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for shard in &self.shards {
            body.extend_from_slice(&shard.shard.to_le_bytes());
            body.extend_from_slice(&shard.dropped.to_le_bytes());
            body.extend_from_slice(&(shard.events.len() as u64).to_le_bytes());
            for event in &shard.events {
                body.extend_from_slice(&encode_event(event));
            }
        }
        w.write_all(CFR_MAGIC)?;
        w.write_all(&CFR_VERSION.to_le_bytes())?;
        w.write_all(&body)?;
        w.write_all(&fnv1a(&body).to_le_bytes())?;
        Ok(())
    }

    /// Reads a `.cfr` byte stream back, verifying magic, version and
    /// checksum.
    ///
    /// Every failure is an `Err`, never a panic or an allocation sized
    /// by an untrusted field: block and record counts are checked
    /// against the bytes left before anything is reserved for them.
    pub fn read_cfr<R: Read>(r: &mut R) -> Result<FlightSnapshot, String> {
        let mut raw = Vec::new();
        r.read_to_end(&mut raw).map_err(|e| e.to_string())?;
        if raw.len() < 16 || &raw[..4] != CFR_MAGIC {
            return Err("not a .cfr flight recording (bad magic)".to_string());
        }
        let version = u32::from_le_bytes(raw[4..8].try_into().unwrap());
        if version != CFR_VERSION {
            return Err(format!(
                "unsupported .cfr version {version} (this build reads version {CFR_VERSION})"
            ));
        }
        let body = &raw[8..raw.len() - 8];
        let stored = u64::from_le_bytes(raw[raw.len() - 8..].try_into().unwrap());
        let computed = fnv1a(body);
        if stored != computed {
            return Err(format!(
                "corrupt .cfr: checksum {computed:#018x} != recorded {stored:#018x}"
            ));
        }
        let mut cur = Cursor::new(body);
        let m = cur.u32()?;
        let shard_count_header = cur.u32()?;
        let eps = cur.f64()?;
        let seed = cur.u64()?;
        let name_len = cur.u32()? as usize;
        let algorithm = String::from_utf8(cur.bytes(name_len)?.to_vec())
            .map_err(|_| "algorithm label is not UTF-8".to_string())?;
        let submitted = cur.u64()?;
        let accepted = cur.u64()?;
        // Field order is `RejectReason::ALL` order, as written.
        let rejected = RejectCounts {
            threshold_exceeded: cur.u64()?,
            no_feasible_machine: cur.u64()?,
            policy_filtered: cur.u64()?,
            unattributed: cur.u64()?,
        };
        let announced = cur.u32()?;
        let blocks = cur.count(SHARD_BLOCK_HEADER, u64::from(announced))?;
        let mut shards = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            let shard = cur.u32()?;
            let dropped = cur.u64()?;
            let announced = cur.u64()?;
            let count = cur.count(RECORD_SIZE, announced)?;
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                events.push(decode_event(cur.bytes(RECORD_SIZE)?)?);
            }
            shards.push(ShardFlight {
                shard,
                dropped,
                events,
            });
        }
        Ok(FlightSnapshot {
            header: FlightHeader {
                m,
                shards: shard_count_header,
                eps,
                seed,
                algorithm,
                submitted,
                accepted,
                rejected,
            },
            shards,
        })
    }
}

/// FNV-1a 64-bit checksum — cheap, dependency-free integrity check for
/// `.cfr` payloads.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(truncated)?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Validates an untrusted element count against the bytes left:
    /// `count` items of at least `item_size` bytes each must fit, so a
    /// forged count fails here instead of sizing an allocation.
    fn count(&self, item_size: usize, count: u64) -> Result<usize, String> {
        let left = (self.buf.len() - self.pos) / item_size;
        usize::try_from(count)
            .ok()
            .filter(|&n| n <= left)
            .ok_or_else(truncated)
    }
}

fn truncated() -> String {
    "truncated .cfr payload".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(seq: u64, accepted: bool) -> DecisionEvent {
        DecisionEvent {
            seq,
            job: seq as u32 * 2,
            shard: 1,
            release: 0.25 * seq as f64,
            proc_time: 1.5,
            deadline: 12.5,
            candidates: 3,
            threshold: Some(4.75),
            min_load: Some(0.5),
            accepted,
            machine: accepted.then_some(2),
            start: accepted.then_some(3.25),
            reject_reason: (!accepted).then_some(RejectReason::ThresholdExceeded),
            latency_ns: 1234,
            queue_wait_ns: 567,
        }
    }

    /// The arrival record a contained fault writes for the job whose
    /// decision never completed.
    fn arrival(seq: u64) -> FlightEvent {
        FlightEvent::Submission {
            seq,
            shard: 0,
            job: seq as u32,
            release: 0.25 * seq as f64,
            proc_time: 1.5,
            deadline: 12.5,
        }
    }

    fn sample_events() -> Vec<FlightEvent> {
        vec![
            FlightEvent::Decision(StampedDecision::new(
                decision(0, true),
                TimelineStamps([11, 12, 13, 14, 15, 16, 17]),
            )),
            FlightEvent::Decision(decision(1, false).into()),
            arrival(2),
        ]
    }

    #[test]
    fn record_codec_round_trips_every_kind() {
        for event in sample_events() {
            let rec = encode_event(&event);
            let back = decode_event(&rec).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn record_codec_round_trips_every_reject_reason() {
        for reason in RejectReason::ALL {
            let mut d = decision(7, false);
            d.reject_reason = Some(reason);
            let event = FlightEvent::Decision(d.into());
            assert_eq!(decode_event(&encode_event(&event)).unwrap(), event);
        }
    }

    #[test]
    fn decision_without_optionals_round_trips() {
        let d = DecisionEvent {
            threshold: None,
            min_load: None,
            machine: None,
            start: None,
            reject_reason: None,
            ..decision(3, true)
        };
        let event = FlightEvent::Decision(d.into());
        assert_eq!(decode_event(&encode_event(&event)).unwrap(), event);
    }

    #[test]
    fn bad_records_are_rejected() {
        assert!(decode_event(&[0u8; 10]).is_err());
        // A record of any other width (e.g. the old 96-byte layout
        // without stamps) is refused, not guessed at.
        assert!(decode_event(&encode_event(&sample_events()[0])[..96]).is_err());
        // Kind 2 was the synthesized commitment record of version 2
        // files; it is now as unknown as any other kind.
        for kind in [2, 77] {
            let mut rec = encode_event(&sample_events()[0]);
            rec[0] = kind;
            let err = decode_event(&rec).unwrap_err();
            assert_eq!(err, format!("unknown flight record kind {kind}"));
        }
        let mut rec = encode_event(&FlightEvent::Decision(decision(0, false).into()));
        rec[2] = 9; // unknown reject reason
        assert!(decode_event(&rec).is_err());
    }

    fn sample_snapshot() -> FlightSnapshot {
        let mut rejected = RejectCounts::default();
        rejected.bump(RejectReason::ThresholdExceeded);
        FlightSnapshot {
            header: FlightHeader {
                m: 4,
                shards: 2,
                eps: 0.25,
                seed: 42,
                algorithm: "threshold".to_string(),
                submitted: 2,
                accepted: 1,
                rejected,
            },
            shards: vec![
                ShardFlight {
                    shard: 0,
                    dropped: 0,
                    events: sample_events(),
                },
                ShardFlight {
                    shard: 1,
                    dropped: 3,
                    events: vec![],
                },
            ],
        }
    }

    #[test]
    fn cfr_file_round_trips() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        snap.write_cfr(&mut buf).unwrap();
        assert_eq!(&buf[..4], CFR_MAGIC);
        let back = FlightSnapshot::read_cfr(&mut buf.as_slice()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.len(), 3);
        assert_eq!(back.total_dropped(), 3);
        assert_eq!(back.decisions().len(), 2);
        // Exactly what the snapshot holds is written, one record each:
        // magic + version, the fixed header fields (m, shards, eps,
        // seed, label length, submitted, accepted, four reject
        // counters, block count), the label, one block header per
        // shard, the records, and the checksum.
        let fixed = 4 + 4 + (4 + 4 + 8 + 8 + 4 + 8 + 8 + 4 * 8 + 4) + 8;
        let label = snap.header.algorithm.len();
        assert_eq!(
            buf.len(),
            fixed + label + SHARD_BLOCK_HEADER * snap.shards.len() + RECORD_SIZE * snap.len()
        );
    }

    /// Wraps `body` in a `.cfr` container with version word `version`
    /// and a valid checksum.
    fn container(version: u32, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(CFR_MAGIC);
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(body);
        buf.extend_from_slice(&fnv1a(body).to_le_bytes());
        buf
    }

    #[test]
    fn version_one_cfr_is_refused_with_a_typed_error() {
        // Version 1 had narrower records; version 2 carried synthesized
        // submission and commitment records beside every decision. Both
        // are refused by version word, never decoded.
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        snap.write_cfr(&mut buf).unwrap();
        for version in [1, 2] {
            let old = container(version, &buf[8..buf.len() - 8]);
            let err = FlightSnapshot::read_cfr(&mut old.as_slice()).unwrap_err();
            assert!(
                err.contains(&format!("unsupported .cfr version {version}")),
                "unexpected error: {err}"
            );
        }
    }

    /// A header for `blocks` shard blocks, everything else empty.
    fn forged_header(blocks: u32) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&4u32.to_le_bytes()); // m
        body.extend_from_slice(&1u32.to_le_bytes()); // shards
        body.extend_from_slice(&0.25f64.to_le_bytes()); // eps
        body.extend_from_slice(&0u64.to_le_bytes()); // seed
        body.extend_from_slice(&0u32.to_le_bytes()); // empty algorithm label
        body.extend_from_slice(&[0u8; 6 * 8]); // submitted, accepted, 4 reasons
        body.extend_from_slice(&blocks.to_le_bytes());
        body
    }

    #[test]
    fn forged_record_count_is_a_truncation_error_not_a_panic() {
        // One shard block announcing 2^62 records behind a valid
        // checksum: the count must be refused before it sizes a Vec.
        let mut body = forged_header(1);
        body.extend_from_slice(&0u32.to_le_bytes()); // shard
        body.extend_from_slice(&0u64.to_le_bytes()); // dropped
        body.extend_from_slice(&(1u64 << 62).to_le_bytes()); // record count
        let forged = container(CFR_VERSION, &body);
        let err = FlightSnapshot::read_cfr(&mut forged.as_slice()).unwrap_err();
        assert_eq!(err, "truncated .cfr payload");
    }

    #[test]
    fn forged_block_count_and_reject_counters_are_bounded() {
        // u32::MAX shard blocks in an otherwise empty body, and reject
        // counters of u64::MAX (read as values, never counted out).
        let mut body = forged_header(u32::MAX);
        body[28 + 16..28 + 48].fill(0xFF);
        let forged = container(CFR_VERSION, &body);
        let err = FlightSnapshot::read_cfr(&mut forged.as_slice()).unwrap_err();
        assert_eq!(err, "truncated .cfr payload");
        let mut body = forged_header(0);
        body[28 + 16..28 + 48].fill(0xFF);
        let snap = FlightSnapshot::read_cfr(&mut container(CFR_VERSION, &body).as_slice())
            .expect("an empty recording with saturated counters decodes");
        assert_eq!(snap.header.rejected.unattributed, u64::MAX);
    }

    #[test]
    fn unknown_cfr_version_is_rejected() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        snap.write_cfr(&mut buf).unwrap();
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = FlightSnapshot::read_cfr(&mut buf.as_slice()).unwrap_err();
        assert!(err.contains("version"), "unexpected error: {err}");
    }

    #[test]
    fn shared_ring_keeps_most_recent_window_and_counts_drops() {
        let ring = SharedFlightRing::new(3);
        for seq in 0..5u64 {
            ring.record(&arrival(seq));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let (events, dropped) = ring.snapshot_events();
        assert_eq!(events, (2..5).map(arrival).collect::<Vec<_>>());
        assert_eq!(dropped, 2);
        // Snapshot is non-destructive.
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn shared_ring_zero_capacity_records_nothing() {
        let ring = SharedFlightRing::new(0);
        ring.record(&arrival(0));
        ring.record_decision(&decision(1, true), &TimelineStamps::empty());
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2);
        assert!(ring.snapshot_events().0.is_empty());
    }

    #[test]
    fn shared_ring_round_trips_stamps() {
        let ring = SharedFlightRing::new(8);
        let event = FlightEvent::Decision(StampedDecision::new(
            decision(0, true),
            TimelineStamps([11, 12, 13, 14, 15, 16, 17]),
        ));
        ring.record(&event);
        let (events, _) = ring.snapshot_events();
        assert_eq!(events, vec![event]);
    }

    #[test]
    fn shared_ring_append_snapshots_are_exact_prefixes() {
        use std::sync::Arc;

        // Never wraps, so every snapshot takes the validated path and
        // must be an exact prefix 0..len of the recorded stream.
        let ring = Arc::new(SharedFlightRing::new(20_000));
        let writer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for seq in 0..20_000u64 {
                    ring.record(&arrival(seq));
                }
            })
        };
        for _ in 0..200 {
            let (events, dropped) = ring.snapshot_events();
            assert_eq!(dropped, 0);
            for (i, event) in events.iter().enumerate() {
                assert_eq!(event, &arrival(i as u64));
            }
        }
        writer.join().unwrap();
        assert_eq!(ring.snapshot_events().0.len(), 20_000);
    }

    #[test]
    fn shared_ring_wrapping_writer_never_breaks_a_snapshot() {
        use std::sync::Arc;

        // A tiny ring under a fast writer exercises the seqlock retry
        // and lenient-fallback paths: snapshots may be best-effort but
        // must stay bounded and decodable, and the final quiesced
        // snapshot is exact.
        let ring = Arc::new(SharedFlightRing::new(64));
        let writer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for seq in 0..20_000u64 {
                    ring.record(&arrival(seq));
                }
            })
        };
        for _ in 0..100 {
            let (events, _) = ring.snapshot_events();
            assert!(events.len() <= 64);
            for event in &events {
                assert!(matches!(event, FlightEvent::Submission { .. }));
            }
        }
        writer.join().unwrap();
        let (events, dropped) = ring.snapshot_events();
        let expected: Vec<FlightEvent> = (20_000 - 64..20_000).map(arrival).collect();
        assert_eq!(events, expected);
        assert_eq!(dropped, 20_000 - 64);
    }

    #[test]
    fn cfr_detects_corruption_truncation_and_bad_magic() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        snap.write_cfr(&mut buf).unwrap();

        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let err = FlightSnapshot::read_cfr(&mut flipped.as_slice()).unwrap_err();
        assert!(err.contains("checksum"), "unexpected error: {err}");

        let truncated = &buf[..buf.len() - 20];
        assert!(FlightSnapshot::read_cfr(&mut &truncated[..]).is_err());

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        let err = FlightSnapshot::read_cfr(&mut bad_magic.as_slice()).unwrap_err();
        assert!(err.contains("magic"), "unexpected error: {err}");
    }
}
