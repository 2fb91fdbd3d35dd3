//! The cslack wire protocol: length-prefixed little-endian binary
//! frames over TCP.
//!
//! ## Frame layout
//!
//! ```text
//! +--------+---------+------+----------+=========+----------+
//! | magic  | version | type | len      | payload | checksum |
//! | u16 LE | u8      | u8   | u32 LE   | len B   | u32 LE   |
//! +--------+---------+------+----------+=========+----------+
//! ```
//!
//! The checksum is FNV-1a (32-bit) over the 8-byte header plus the
//! payload, so a flipped bit anywhere in the frame is caught before the
//! payload is interpreted. `len` counts payload bytes only and is
//! bounded by [`MAX_FRAME`]; a peer announcing more is cut off without
//! allocating.
//!
//! Within payloads: integers and floats are little-endian and
//! fixed-width, strings are a `u32` byte length followed by UTF-8
//! bytes, `Option<T>` is a `u8` tag (0 absent / 1 present) followed by
//! the value. All decoding is total: any malformed input becomes a
//! typed [`ProtoError`], never a panic, and trailing bytes after a
//! well-formed payload are an error (no smuggling).
//!
//! ## One version
//!
//! Both sides speak exactly [`VERSION`]. A frame carrying any other
//! version byte is refused with the typed [`ProtoError::BadVersion`]
//! before its payload is read; the server answers it with a
//! `Reject { code: Protocol }` and closes the connection.

use cslack_obs::flight::StampedDecision;
use cslack_obs::timeline::{TimelineStamps, STAGES};
use cslack_obs::trace::{DecisionEvent, RejectReason};
use serde::Serialize;
use std::fmt;
use std::io::{Read, Write};

/// Frame magic: `0xC57A` ("cslack admission", little-endian on the
/// wire as `7A C5`).
pub const MAGIC: u16 = 0xC57A;
/// The protocol version this build speaks, and the only one it
/// accepts: `SubmitBatch` carries the client-send stamp, `Decision` the
/// server's stage timeline, and `Retry` exists.
pub const VERSION: u8 = 3;
/// Hard cap on a frame's payload length. A `SubmitBatch` of maximum
/// size is ~28 B per job, so this admits batches of ~500k jobs while
/// bounding what a hostile length field can make the server allocate.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 8;
/// Longest accepted string field (tenant names, reject details).
pub const MAX_STRING: usize = 4096;

/// FNV-1a 32-bit — the same hash family the flight-recorder container
/// uses, tiny and dependency-free.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A job as submitted on the wire. Validated server-side before it
/// touches a scheduler (finite fields, positive processing time) — the
/// submitter is untrusted.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct WireJob {
    /// Tenant-scoped job identifier; must be unique among the tenant's
    /// undecided jobs.
    pub id: u32,
    /// Release date `r_j`.
    pub release: f64,
    /// Processing time `p_j > 0`.
    pub proc_time: f64,
    /// Hard completion deadline `d_j`.
    pub deadline: f64,
}

/// Why the server refused a job (or the whole connection).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum RejectCode {
    /// The byte stream broke framing; the connection closes after this
    /// frame (there is no way to resynchronize).
    Protocol,
    /// The frame parsed but its content is invalid (non-finite job
    /// fields, non-positive processing time, empty batch).
    Malformed,
    /// `Hello` named a tenant this server does not host.
    UnknownTenant,
    /// The job id is already in flight (or repeated within the batch)
    /// for this tenant.
    DuplicateJob,
    /// The job's target shard died to a contained fault; other shards
    /// keep serving.
    ShardFailed,
    /// The tenant's engine has been drained; no further admissions.
    Closed,
    /// The tenant drained while this job was queued; it was never
    /// offered to a scheduler.
    Undecided,
    /// A frame that only makes sense after `Hello` arrived first, or a
    /// `Hello` arrived twice.
    BadState,
}

impl RejectCode {
    const ALL: [RejectCode; 8] = [
        RejectCode::Protocol,
        RejectCode::Malformed,
        RejectCode::UnknownTenant,
        RejectCode::DuplicateJob,
        RejectCode::ShardFailed,
        RejectCode::Closed,
        RejectCode::Undecided,
        RejectCode::BadState,
    ];

    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectCode::Protocol => "protocol",
            RejectCode::Malformed => "malformed",
            RejectCode::UnknownTenant => "unknown_tenant",
            RejectCode::DuplicateJob => "duplicate_job",
            RejectCode::ShardFailed => "shard_failed",
            RejectCode::Closed => "closed",
            RejectCode::Undecided => "undecided",
            RejectCode::BadState => "bad_state",
        }
    }

    fn to_u8(self) -> u8 {
        RejectCode::ALL.iter().position(|&c| c == self).unwrap() as u8
    }

    fn from_u8(v: u8) -> Option<RejectCode> {
        RejectCode::ALL.get(v as usize).copied()
    }
}

/// A tenant's live counters, served in response to `StatsRequest`.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Jobs offered to the tenant's engine.
    pub submitted: u64,
    /// Jobs admitted.
    pub accepted: u64,
    /// Jobs rejected by the admission algorithm.
    pub rejected: u64,
    /// Submissions that found a full shard queue.
    pub backpressure_stalls: u64,
    /// Jobs submitted but not yet decided.
    pub inflight: u32,
    /// Whether the tenant has been drained.
    pub drained: bool,
}

/// A tenant's final schedule summary, streamed on drain.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TenantSummary {
    /// Tenant name.
    pub tenant: String,
    /// Total jobs decided.
    pub submitted: u64,
    /// Jobs admitted with a commitment.
    pub accepted: u64,
    /// Jobs rejected.
    pub rejected: u64,
    /// Total processing time admitted (the paper's objective).
    pub accepted_load: f64,
    /// Completion time of the last committed job.
    pub makespan: f64,
    /// Machines in the tenant's cluster.
    pub machines: u32,
    /// Shards lost to contained faults during the run.
    pub failed_shards: u32,
}

/// Every message that travels the wire, in both directions.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: bind this connection to a tenant namespace.
    /// Must be the first frame on a connection.
    Hello {
        /// Tenant to join.
        tenant: String,
    },
    /// Server → client: the tenant's engine parameters, so a client
    /// can reproduce the run offline (the determinism contract).
    HelloAck {
        /// Tenant name (echoed).
        tenant: String,
        /// Machines in the tenant's cluster.
        m: u32,
        /// System slack `eps`.
        eps: f64,
        /// Engine shard count.
        shards: u32,
        /// Base RNG seed (shard `s` derives `seed + s`).
        seed: u64,
        /// Admission algorithm (CLI vocabulary).
        algorithm: String,
        /// Maximum undecided jobs the tenant may have in flight.
        inflight_limit: u32,
    },
    /// Client → server: a batch of jobs to admit, in arrival order.
    SubmitBatch {
        /// The jobs; the whole batch shares one quota check.
        jobs: Vec<WireJob>,
        /// The client's monotonic send stamp, in the *client's* clock
        /// domain (never comparable to server stamps); `0` means
        /// unset.
        client_send_ns: u64,
    },
    /// Server → client: one admission decision, streamed as the engine
    /// makes it. Carries `(shard, seq)` so the client can reconstruct
    /// the deterministic per-shard order, plus the server's stage
    /// timeline for the job.
    Decision(StampedDecision),
    /// Server → client: the batch was refused because it would exceed
    /// the tenant's in-flight quota. Retryable — resubmit after
    /// decisions drain the quota.
    Backpressure {
        /// Undecided jobs currently in flight for the tenant.
        inflight: u32,
        /// The tenant's in-flight quota.
        limit: u32,
        /// Jobs in the refused batch.
        refused: u32,
    },
    /// Server → client: a job (or the connection) was refused with a
    /// typed cause. `job` is `None` for connection-level rejections.
    Reject {
        /// The refused job id, when job-scoped.
        job: Option<u32>,
        /// Typed cause.
        code: RejectCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Client → server: ask for the tenant's live counters.
    StatsRequest,
    /// Server → client: the tenant's live counters.
    Stats(TenantStats),
    /// Client → server: gracefully drain this connection's tenant —
    /// finish the engine, decide nothing further, stream the summary.
    Drain,
    /// Server → client: the tenant's final schedule summary.
    Summary(TenantSummary),
    /// Server → client: the job was *not* decided because its target
    /// shard failed and is being resurrected — resubmit it. A transient
    /// condition, unlike the terminal `ShardFailed` reject a
    /// non-recovering server sends.
    Retry {
        /// The job to resubmit.
        job: u32,
    },
}

const TYPE_HELLO: u8 = 0x01;
const TYPE_HELLO_ACK: u8 = 0x02;
const TYPE_SUBMIT_BATCH: u8 = 0x03;
const TYPE_DECISION: u8 = 0x04;
const TYPE_BACKPRESSURE: u8 = 0x05;
const TYPE_REJECT: u8 = 0x06;
const TYPE_STATS_REQUEST: u8 = 0x07;
const TYPE_STATS: u8 = 0x08;
const TYPE_DRAIN: u8 = 0x09;
const TYPE_SUMMARY: u8 = 0x0A;
const TYPE_RETRY: u8 = 0x0B;

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TYPE_HELLO,
            Frame::HelloAck { .. } => TYPE_HELLO_ACK,
            Frame::SubmitBatch { .. } => TYPE_SUBMIT_BATCH,
            Frame::Decision(_) => TYPE_DECISION,
            Frame::Backpressure { .. } => TYPE_BACKPRESSURE,
            Frame::Reject { .. } => TYPE_REJECT,
            Frame::StatsRequest => TYPE_STATS_REQUEST,
            Frame::Stats(_) => TYPE_STATS,
            Frame::Drain => TYPE_DRAIN,
            Frame::Summary(_) => TYPE_SUMMARY,
            Frame::Retry { .. } => TYPE_RETRY,
        }
    }
}

/// Typed decode / framing failures. `Eof` is the *clean* close (the
/// peer hung up between frames); everything else is a protocol fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// Stream closed cleanly at a frame boundary.
    Eof,
    /// Stream closed mid-frame.
    Truncated,
    /// First two header bytes are not [`MAGIC`].
    BadMagic(u16),
    /// Version byte this build does not speak.
    BadVersion(u8),
    /// Announced payload length exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// Checksum mismatch — the frame was corrupted in flight.
    BadChecksum,
    /// Unknown frame type byte.
    UnknownType(u8),
    /// Payload did not decode as its frame type.
    Malformed(&'static str),
    /// Underlying transport error.
    Io(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Eof => write!(f, "connection closed"),
            ProtoError::Truncated => write!(f, "stream closed mid-frame"),
            ProtoError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::Oversized(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME}")
            }
            ProtoError::BadChecksum => write!(f, "frame checksum mismatch"),
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl ProtoError {
    /// Whether the connection can continue after this error. Framing is
    /// length-prefixed, so after any error that reached a full frame
    /// read the stream is still in sync; errors that lose sync (bad
    /// magic, truncation, transport faults) are fatal.
    pub fn is_fatal(&self) -> bool {
        !matches!(self, ProtoError::UnknownType(_) | ProtoError::Malformed(_))
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}
fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
        None => out.push(0),
    }
}
fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(x) => {
            out.push(1);
            put_u32(out, x);
        }
        None => out.push(0),
    }
}

fn encode_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Hello { tenant } => put_str(out, tenant),
        Frame::HelloAck {
            tenant,
            m,
            eps,
            shards,
            seed,
            algorithm,
            inflight_limit,
        } => {
            put_str(out, tenant);
            put_u32(out, *m);
            put_f64(out, *eps);
            put_u32(out, *shards);
            put_u64(out, *seed);
            put_str(out, algorithm);
            put_u32(out, *inflight_limit);
        }
        Frame::SubmitBatch {
            jobs,
            client_send_ns,
        } => {
            put_u64(out, *client_send_ns);
            put_u32(out, jobs.len() as u32);
            for job in jobs {
                put_u32(out, job.id);
                put_f64(out, job.release);
                put_f64(out, job.proc_time);
                put_f64(out, job.deadline);
            }
        }
        Frame::Decision(d) => {
            put_u64(out, d.seq);
            put_u32(out, d.job);
            put_u32(out, d.shard as u32);
            put_f64(out, d.release);
            put_f64(out, d.proc_time);
            put_f64(out, d.deadline);
            put_u32(out, d.candidates);
            put_opt_f64(out, d.threshold);
            put_opt_f64(out, d.min_load);
            out.push(u8::from(d.accepted));
            put_opt_u32(out, d.machine);
            put_opt_f64(out, d.start);
            match d.reject_reason {
                Some(reason) => {
                    out.push(1);
                    out.push(reason_to_u8(reason));
                }
                None => out.push(0),
            }
            put_u64(out, d.latency_ns);
            put_u64(out, d.queue_wait_ns);
            for i in 0..STAGES {
                put_u64(out, d.stamps.0[i]);
            }
        }
        Frame::Backpressure {
            inflight,
            limit,
            refused,
        } => {
            put_u32(out, *inflight);
            put_u32(out, *limit);
            put_u32(out, *refused);
        }
        Frame::Reject { job, code, detail } => {
            put_opt_u32(out, *job);
            out.push(code.to_u8());
            put_str(out, detail);
        }
        Frame::StatsRequest | Frame::Drain => {}
        Frame::Stats(s) => {
            put_str(out, &s.tenant);
            put_u64(out, s.submitted);
            put_u64(out, s.accepted);
            put_u64(out, s.rejected);
            put_u64(out, s.backpressure_stalls);
            put_u32(out, s.inflight);
            out.push(u8::from(s.drained));
        }
        Frame::Summary(s) => {
            put_str(out, &s.tenant);
            put_u64(out, s.submitted);
            put_u64(out, s.accepted);
            put_u64(out, s.rejected);
            put_f64(out, s.accepted_load);
            put_f64(out, s.makespan);
            put_u32(out, s.machines);
            put_u32(out, s.failed_shards);
        }
        Frame::Retry { job } => put_u32(out, *job),
    }
}

fn reason_to_u8(reason: RejectReason) -> u8 {
    RejectReason::ALL
        .iter()
        .position(|&r| r == reason)
        .unwrap_or(RejectReason::ALL.len() - 1) as u8
}

fn reason_from_u8(v: u8) -> Option<RejectReason> {
    RejectReason::ALL.get(v as usize).copied()
}

/// Encodes a frame into its full wire representation (header, payload,
/// checksum) at [`VERSION`].
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u16(&mut buf, MAGIC);
    buf.push(VERSION);
    buf.push(frame.type_byte());
    put_u32(&mut buf, 0); // payload length backpatched below
    encode_payload(frame, &mut buf);
    let len = (buf.len() - HEADER_LEN) as u32;
    buf[4..8].copy_from_slice(&len.to_le_bytes());
    let sum = fnv1a32(&buf);
    put_u32(&mut buf, sum);
    buf
}

/// Encodes and writes a frame at [`VERSION`]. One `write_all`, no
/// interleaving hazard for a single writer.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Malformed("payload shorter than field"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        if len > MAX_STRING {
            return Err(ProtoError::Malformed("string field over length cap"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Malformed("string not UTF-8"))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, ProtoError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(ProtoError::Malformed("bad option tag")),
        }
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, ProtoError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            _ => Err(ProtoError::Malformed("bad option tag")),
        }
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtoError::Malformed("bad bool")),
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after payload"))
        }
    }
}

fn decode_payload(type_byte: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut c = Cursor::new(payload);
    let frame = match type_byte {
        TYPE_HELLO => Frame::Hello {
            tenant: c.string()?,
        },
        TYPE_HELLO_ACK => Frame::HelloAck {
            tenant: c.string()?,
            m: c.u32()?,
            eps: c.f64()?,
            shards: c.u32()?,
            seed: c.u64()?,
            algorithm: c.string()?,
            inflight_limit: c.u32()?,
        },
        TYPE_SUBMIT_BATCH => {
            let client_send_ns = c.u64()?;
            let count = c.u32()? as usize;
            // 28 bytes per encoded job: a count the remaining payload
            // cannot hold is rejected before any allocation sized by it.
            if count > payload.len().saturating_sub(c.pos) / 28 {
                return Err(ProtoError::Malformed("job count exceeds payload"));
            }
            let mut jobs = Vec::with_capacity(count);
            for _ in 0..count {
                jobs.push(WireJob {
                    id: c.u32()?,
                    release: c.f64()?,
                    proc_time: c.f64()?,
                    deadline: c.f64()?,
                });
            }
            Frame::SubmitBatch {
                jobs,
                client_send_ns,
            }
        }
        TYPE_DECISION => {
            let seq = c.u64()?;
            let job = c.u32()?;
            let shard = c.u32()? as usize;
            let release = c.f64()?;
            let proc_time = c.f64()?;
            let deadline = c.f64()?;
            let candidates = c.u32()?;
            let threshold = c.opt_f64()?;
            let min_load = c.opt_f64()?;
            let accepted = c.bool()?;
            let machine = c.opt_u32()?;
            let start = c.opt_f64()?;
            let reject_reason = match c.u8()? {
                0 => None,
                1 => Some(
                    reason_from_u8(c.u8()?)
                        .ok_or(ProtoError::Malformed("unknown reject reason"))?,
                ),
                _ => return Err(ProtoError::Malformed("bad option tag")),
            };
            let event = DecisionEvent {
                seq,
                job,
                shard,
                release,
                proc_time,
                deadline,
                candidates,
                threshold,
                min_load,
                accepted,
                machine,
                start,
                reject_reason,
                latency_ns: c.u64()?,
                queue_wait_ns: c.u64()?,
            };
            let mut stamps = TimelineStamps::empty();
            for slot in stamps.0.iter_mut() {
                *slot = c.u64()?;
            }
            Frame::Decision(StampedDecision::new(event, stamps))
        }
        TYPE_BACKPRESSURE => Frame::Backpressure {
            inflight: c.u32()?,
            limit: c.u32()?,
            refused: c.u32()?,
        },
        TYPE_REJECT => Frame::Reject {
            job: c.opt_u32()?,
            code: RejectCode::from_u8(c.u8()?)
                .ok_or(ProtoError::Malformed("unknown reject code"))?,
            detail: c.string()?,
        },
        TYPE_STATS_REQUEST => Frame::StatsRequest,
        TYPE_STATS => Frame::Stats(TenantStats {
            tenant: c.string()?,
            submitted: c.u64()?,
            accepted: c.u64()?,
            rejected: c.u64()?,
            backpressure_stalls: c.u64()?,
            inflight: c.u32()?,
            drained: c.bool()?,
        }),
        TYPE_DRAIN => Frame::Drain,
        TYPE_RETRY => Frame::Retry { job: c.u32()? },
        TYPE_SUMMARY => Frame::Summary(TenantSummary {
            tenant: c.string()?,
            submitted: c.u64()?,
            accepted: c.u64()?,
            rejected: c.u64()?,
            accepted_load: c.f64()?,
            makespan: c.f64()?,
            machines: c.u32()?,
            failed_shards: c.u32()?,
        }),
        other => return Err(ProtoError::UnknownType(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Reads exactly `buf.len()` bytes. Distinguishes a clean close before
/// the first byte (`clean_eof` becomes [`ProtoError::Eof`]) from a
/// close mid-read ([`ProtoError::Truncated`]).
fn read_exactly(r: &mut impl Read, buf: &mut [u8], clean_eof: bool) -> Result<(), ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && clean_eof {
                    ProtoError::Eof
                } else {
                    ProtoError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Reads and decodes one frame from `r`.
///
/// Every failure is a typed [`ProtoError`]; malformed or hostile input
/// never panics. The header is validated (magic, version equal to
/// [`VERSION`], length cap) before the payload is read, and the
/// checksum before the payload is interpreted.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    read_exactly(r, &mut header, true)?;
    let magic = u16::from_le_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let version = header[2];
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let type_byte = header[3];
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized(len));
    }
    let mut rest = vec![0u8; len as usize + 4];
    read_exactly(r, &mut rest, false)?;
    let (payload, sum_bytes) = rest.split_at(len as usize);
    let sent_sum = u32::from_le_bytes(sum_bytes.try_into().unwrap());
    let mut hashed = Vec::with_capacity(HEADER_LEN + payload.len());
    hashed.extend_from_slice(&header);
    hashed.extend_from_slice(payload);
    if fnv1a32(&hashed) != sent_sum {
        return Err(ProtoError::BadChecksum);
    }
    decode_payload(type_byte, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple_frames() {
        for frame in [
            Frame::Hello {
                tenant: "alpha".into(),
            },
            Frame::StatsRequest,
            Frame::Drain,
            Frame::Backpressure {
                inflight: 3,
                limit: 8,
                refused: 5,
            },
            Frame::Retry { job: 17 },
        ] {
            let bytes = encode_frame(&frame);
            let back = read_frame(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn corrupted_byte_is_a_checksum_error() {
        let mut bytes = encode_frame(&Frame::Hello {
            tenant: "alpha".into(),
        });
        let mid = HEADER_LEN + 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            read_frame(&mut bytes.as_slice()),
            Err(ProtoError::BadChecksum)
        );
    }

    #[test]
    fn clean_close_is_eof_not_truncated() {
        assert_eq!(read_frame(&mut (&[][..])), Err(ProtoError::Eof));
        let bytes = encode_frame(&Frame::Drain);
        assert_eq!(read_frame(&mut &bytes[..3]), Err(ProtoError::Truncated));
    }

    fn stamped() -> Frame {
        Frame::Decision(StampedDecision::new(
            DecisionEvent {
                seq: 7,
                job: 42,
                shard: 1,
                release: 0.0,
                proc_time: 2.0,
                deadline: 9.0,
                candidates: 3,
                threshold: Some(1.5),
                min_load: Some(0.5),
                accepted: true,
                machine: Some(2),
                start: Some(0.25),
                reject_reason: None,
                latency_ns: 111,
                queue_wait_ns: 222,
            },
            TimelineStamps([10, 20, 30, 40, 50, 60, 70]),
        ))
    }

    #[test]
    fn frames_round_trip_stamps_and_client_send() {
        let batch = Frame::SubmitBatch {
            jobs: vec![WireJob {
                id: 1,
                release: 0.0,
                proc_time: 1.0,
                deadline: 3.0,
            }],
            client_send_ns: 12_345,
        };
        for frame in [batch, stamped()] {
            let bytes = encode_frame(&frame);
            assert_eq!(bytes[2], VERSION);
            assert_eq!(read_frame(&mut bytes.as_slice()).unwrap(), frame);
        }
    }

    /// Re-stamps an encoded frame with `version`, repairing the
    /// checksum (which covers the header) so only the version differs.
    fn with_version(mut bytes: Vec<u8>, version: u8) -> Vec<u8> {
        bytes[2] = version;
        let len = bytes.len();
        let sum = fnv1a32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn v1_and_v2_frames_are_refused_with_bad_version() {
        let hello = Frame::Hello {
            tenant: "alpha".into(),
        };
        for old in [1u8, 2] {
            for frame in [hello.clone(), stamped(), Frame::Retry { job: 9 }] {
                let bytes = with_version(encode_frame(&frame), old);
                assert_eq!(
                    read_frame(&mut bytes.as_slice()),
                    Err(ProtoError::BadVersion(old))
                );
            }
        }
        assert!(
            ProtoError::BadVersion(1).is_fatal(),
            "no resync after a refusal"
        );
    }

    #[test]
    fn future_versions_are_rejected() {
        let bytes = with_version(encode_frame(&Frame::Drain), VERSION + 1);
        assert_eq!(
            read_frame(&mut bytes.as_slice()),
            Err(ProtoError::BadVersion(VERSION + 1))
        );
    }
}
