//! Structured decision traces: one [`DecisionEvent`] per submission,
//! exported as JSONL and aggregated back into counters by
//! [`summarize`].
//!
//! The engine records decisions once, into its flight rings
//! ([`crate::flight`]); a JSONL trace is an export of
//! [`FlightSnapshot::decisions`](crate::flight::FlightSnapshot::decisions).
//!
//! The point of the trace is to make a rejection *explainable*: instead
//! of an opaque boolean, every rejected job carries a typed
//! [`RejectReason`] that maps back to the admission conditions of the
//! paper's Algorithm 1 (see DESIGN.md, "RejectReason taxonomy").

use crate::hist::Histogram;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// Why an admission-control algorithm rejected a job.
///
/// The taxonomy mirrors the two ways the paper's Threshold algorithm
/// (Algorithm 1) can refuse a job, plus two service-level causes:
///
/// * [`RejectReason::ThresholdExceeded`] — the deadline test failed:
///   `d_j < d_lim` with `d_lim = max_h (r_j + l(m_h) f_h)` (Eq. 9–10).
/// * [`RejectReason::NoFeasibleMachine`] — the threshold passed but no
///   machine could complete the job by its deadline (no feasible
///   interval; impossible for the paper's parameters by Claim 1, but
///   reachable by ablated variants and by greedy, where it is the only
///   reject cause).
/// * [`RejectReason::PolicyFiltered`] — a randomized/classifying policy
///   filtered the job out (e.g. it landed on a non-selected virtual
///   machine), independent of load.
/// * [`RejectReason::Unattributed`] — the algorithm rejected without
///   reporting a structured cause (default for schedulers that do not
///   override [`explained`](RejectReason#explained-offers)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RejectReason {
    /// Deadline below the load threshold `d_lim` (paper Eq. 10).
    ThresholdExceeded,
    /// No machine can finish the job by its deadline.
    NoFeasibleMachine,
    /// Filtered by a policy decision unrelated to current load.
    PolicyFiltered,
    /// The algorithm gave no structured cause.
    Unattributed,
}

impl RejectReason {
    /// All variants, in a stable reporting order.
    pub const ALL: [RejectReason; 4] = [
        RejectReason::ThresholdExceeded,
        RejectReason::NoFeasibleMachine,
        RejectReason::PolicyFiltered,
        RejectReason::Unattributed,
    ];

    /// Stable snake_case label (metric/exposition name).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::ThresholdExceeded => "threshold_exceeded",
            RejectReason::NoFeasibleMachine => "no_feasible_machine",
            RejectReason::PolicyFiltered => "policy_filtered",
            RejectReason::Unattributed => "unattributed",
        }
    }
}

/// Rejections split by [`RejectReason`]; the engine's counters and the
/// trace summary both use this shape, so they can be compared directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectCounts {
    /// Deadline below the load threshold.
    pub threshold_exceeded: u64,
    /// No machine could finish by the deadline.
    pub no_feasible_machine: u64,
    /// Filtered by a load-independent policy.
    pub policy_filtered: u64,
    /// No structured cause reported.
    pub unattributed: u64,
}

impl RejectCounts {
    /// Increments the counter for `reason`.
    pub fn bump(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::ThresholdExceeded => self.threshold_exceeded += 1,
            RejectReason::NoFeasibleMachine => self.no_feasible_machine += 1,
            RejectReason::PolicyFiltered => self.policy_filtered += 1,
            RejectReason::Unattributed => self.unattributed += 1,
        }
    }

    /// The counter for `reason`.
    pub fn get(&self, reason: RejectReason) -> u64 {
        match reason {
            RejectReason::ThresholdExceeded => self.threshold_exceeded,
            RejectReason::NoFeasibleMachine => self.no_feasible_machine,
            RejectReason::PolicyFiltered => self.policy_filtered,
            RejectReason::Unattributed => self.unattributed,
        }
    }

    /// Total rejections across all reasons.
    pub fn total(&self) -> u64 {
        RejectReason::ALL.iter().map(|&r| self.get(r)).sum()
    }

    /// Adds `other` into `self` (commutative, associative).
    pub fn merge(&mut self, other: &RejectCounts) {
        self.threshold_exceeded += other.threshold_exceeded;
        self.no_feasible_machine += other.no_feasible_machine;
        self.policy_filtered += other.policy_filtered;
        self.unattributed += other.unattributed;
    }
}

/// One admission decision, as recorded by the engine's shard workers.
///
/// Serialized one-per-line (JSONL) so traces stream and concatenate;
/// `cslack trace-summary` aggregates a file back into counters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionEvent {
    /// Per-shard decision sequence number (0-based, arrival order).
    pub seq: u64,
    /// The job's id.
    pub job: u32,
    /// The shard that decided.
    pub shard: usize,
    /// Release time `r_j`.
    pub release: f64,
    /// Processing time `p_j`.
    pub proc_time: f64,
    /// Deadline `d_j`.
    pub deadline: f64,
    /// Machine candidates the allocator evaluated (0 when rejected at
    /// the threshold test, before allocation).
    pub candidates: u32,
    /// The admission threshold `d_lim` the job was tested against, when
    /// the algorithm exposes one.
    pub threshold: Option<f64>,
    /// Outstanding load of the least loaded machine at decision time,
    /// when the algorithm exposes it.
    pub min_load: Option<f64>,
    /// Whether the job was admitted.
    pub accepted: bool,
    /// Committed machine (global id) for accepted jobs.
    pub machine: Option<u32>,
    /// Committed start time for accepted jobs.
    pub start: Option<f64>,
    /// Why the job was rejected (`None` for accepted jobs).
    pub reject_reason: Option<RejectReason>,
    /// Scheduler decision latency, nanoseconds.
    pub latency_ns: u64,
    /// Time from enqueue to decision start, nanoseconds.
    pub queue_wait_ns: u64,
}

/// Writes events as JSONL (one compact JSON object per line). Takes
/// any sequence of event references, so a flight snapshot's
/// [`decisions`](crate::flight::FlightSnapshot::decisions) export
/// without copying.
pub fn write_jsonl<'a, W: Write>(
    events: impl IntoIterator<Item = &'a DecisionEvent>,
    w: &mut W,
) -> std::io::Result<()> {
    for e in events {
        let line = serde_json::to_string(e)
            .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string()))?;
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Reads a JSONL trace back into events (blank lines are skipped).
pub fn read_jsonl<R: BufRead>(r: R) -> Result<Vec<DecisionEvent>, String> {
    let mut events = Vec::new();
    for (no, line) in r.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", no + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let event: DecisionEvent =
            serde_json::from_str(&line).map_err(|e| format!("line {}: {e}", no + 1))?;
        events.push(event);
    }
    Ok(events)
}

/// Per-shard slice of a [`TraceSummary`].
#[derive(Clone, Debug, Default, Serialize)]
pub struct ShardTraceSummary {
    /// Shard index.
    pub shard: usize,
    /// Decisions recorded for this shard.
    pub decisions: u64,
    /// Accepted jobs.
    pub accepted: u64,
    /// Rejected jobs, split by reason.
    pub rejected: RejectCounts,
    /// Events the shard's bounded recorder dropped before the trace was
    /// written, inferred from the sequence numbers: the recorder keeps
    /// the most recent window, so `max_seq + 1 - recorded` events are
    /// gone.
    pub dropped: u64,
}

/// Aggregate view of a decision trace, reproducible from the JSONL file
/// alone — `cslack trace-summary` prints this, and the engine's own
/// counters must match it exactly when the trace captured every event.
#[derive(Clone, Debug, Default, Serialize)]
pub struct TraceSummary {
    /// Total decisions in the trace.
    pub decisions: u64,
    /// Accepted jobs.
    pub accepted: u64,
    /// Rejected jobs, split by reason.
    pub rejected: RejectCounts,
    /// Events dropped by the bounded recorders before the trace was
    /// written (sum of the per-shard inferred counts). Nonzero means
    /// the trace is a most-recent window, not the full run.
    pub dropped: u64,
    /// Decision latency distribution rebuilt from the events.
    pub latency: crate::hist::HistogramSummary,
    /// Queue-wait distribution rebuilt from the events.
    pub queue_wait: crate::hist::HistogramSummary,
    /// Per-shard breakdown (indexed densely, shards with no events are
    /// present but zero).
    pub per_shard: Vec<ShardTraceSummary>,
}

/// Highest shard index [`summarize`] accepts. The per-shard breakdown
/// is dense, so the bound caps what one hostile `shard` field can make
/// it allocate; every shard is a worker thread, so no engine comes
/// near it.
pub const MAX_TRACE_SHARD: usize = u16::MAX as usize;

/// Aggregates a trace into counters and distributions.
///
/// Fails, instead of sizing the dense per-shard breakdown by it, on an
/// event whose shard index exceeds [`MAX_TRACE_SHARD`].
pub fn summarize(events: &[DecisionEvent]) -> Result<TraceSummary, String> {
    let mut out = TraceSummary::default();
    // Per shard: one past the highest seq seen, i.e. how many events
    // were once recorded up to the newest one in the trace.
    let mut pushed: Vec<u64> = Vec::new();
    let mut latency = Histogram::new();
    let mut queue_wait = Histogram::new();
    for e in events {
        if e.shard > MAX_TRACE_SHARD {
            return Err(format!(
                "event seq {} (job {}) names shard {}; traces cover shards 0..={MAX_TRACE_SHARD}",
                e.seq, e.job, e.shard
            ));
        }
        if e.shard >= out.per_shard.len() {
            let from = out.per_shard.len();
            out.per_shard
                .extend((from..=e.shard).map(|shard| ShardTraceSummary {
                    shard,
                    ..ShardTraceSummary::default()
                }));
            pushed.resize(e.shard + 1, 0);
        }
        pushed[e.shard] = pushed[e.shard].max(e.seq.saturating_add(1));
        out.decisions += 1;
        let slot = &mut out.per_shard[e.shard];
        slot.decisions += 1;
        if e.accepted {
            out.accepted += 1;
            slot.accepted += 1;
        } else {
            // Absent reason in a hand-written trace still counts.
            let reason = e.reject_reason.unwrap_or(RejectReason::Unattributed);
            out.rejected.bump(reason);
            slot.rejected.bump(reason);
        }
        latency.record(e.latency_ns);
        queue_wait.record(e.queue_wait_ns);
    }
    // Seq numbers are dense per shard, so a trace recording the most
    // recent window reveals its losses: everything up to the highest
    // seq was once pushed.
    for (slot, pushed) in out.per_shard.iter_mut().zip(pushed) {
        slot.dropped = pushed.saturating_sub(slot.decisions);
        out.dropped = out.dropped.saturating_add(slot.dropped);
    }
    out.latency = latency.summary();
    out.queue_wait = queue_wait.summary();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(
        seq: u64,
        shard: usize,
        accepted: bool,
        reason: Option<RejectReason>,
    ) -> DecisionEvent {
        DecisionEvent {
            seq,
            job: seq as u32,
            shard,
            release: 0.5 * seq as f64,
            proc_time: 1.0,
            deadline: 10.0,
            candidates: 2,
            threshold: Some(3.0),
            min_load: Some(1.0),
            accepted,
            machine: accepted.then_some(0),
            start: accepted.then_some(0.0),
            reject_reason: reason,
            latency_ns: 100 + seq,
            queue_wait_ns: 10,
        }
    }

    #[test]
    fn jsonl_round_trip_preserves_events() {
        let events = vec![
            event(0, 0, true, None),
            event(1, 1, false, Some(RejectReason::ThresholdExceeded)),
            event(2, 0, false, Some(RejectReason::NoFeasibleMachine)),
        ];
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"ThresholdExceeded\""));
        let back = read_jsonl(text.as_bytes()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn summary_counts_by_reason_and_shard() {
        let events = vec![
            event(0, 0, true, None),
            event(1, 0, false, Some(RejectReason::ThresholdExceeded)),
            event(2, 1, false, Some(RejectReason::ThresholdExceeded)),
            event(3, 1, false, Some(RejectReason::NoFeasibleMachine)),
            event(4, 2, false, None), // unattributed fallback
        ];
        let s = summarize(&events).unwrap();
        assert_eq!(s.decisions, 5);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.rejected.threshold_exceeded, 2);
        assert_eq!(s.rejected.no_feasible_machine, 1);
        assert_eq!(s.rejected.unattributed, 1);
        assert_eq!(s.rejected.total(), 4);
        assert_eq!(s.per_shard.len(), 3);
        assert_eq!(s.per_shard[0].accepted, 1);
        assert_eq!(s.per_shard[1].rejected.total(), 2);
        assert_eq!(s.latency.count, 5);
    }

    #[test]
    fn most_recent_window_survives_jsonl_round_trip() {
        // What a bounded recorder of 4 keeps after 11 decisions.
        let events: Vec<DecisionEvent> = (7..11)
            .map(|seq| event(seq, 0, seq % 2 == 0, None))
            .collect();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let back = read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back, events);
        // The summary recovers the loss from the seq gap alone.
        let s = summarize(&back).unwrap();
        assert_eq!(s.dropped, 7);
        assert_eq!(s.per_shard[0].dropped, 7);
    }

    #[test]
    fn every_reject_reason_round_trips_through_jsonl() {
        let events: Vec<DecisionEvent> = RejectReason::ALL
            .iter()
            .enumerate()
            .map(|(i, &reason)| event(i as u64, 0, false, Some(reason)))
            .collect();
        let mut buf = Vec::new();
        write_jsonl(&events, &mut buf).unwrap();
        let back = read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back, events);
        for (e, reason) in back.iter().zip(RejectReason::ALL) {
            assert_eq!(e.reject_reason, Some(reason));
        }
        let s = summarize(&back).unwrap();
        for reason in RejectReason::ALL {
            assert_eq!(s.rejected.get(reason), 1, "{}", reason.as_str());
        }
    }

    #[test]
    fn complete_trace_reports_zero_dropped() {
        let events = vec![event(0, 0, true, None), event(1, 0, false, None)];
        let s = summarize(&events).unwrap();
        assert_eq!(s.dropped, 0);
        assert_eq!(s.per_shard[0].dropped, 0);
    }

    #[test]
    fn hostile_shard_and_seq_fields_are_bounded() {
        // One JSONL line naming shard u64::MAX must not overflow
        // `shard + 1` or index out of bounds.
        let line = serde_json::to_string(&event(0, 0, true, None))
            .unwrap()
            .replace("\"shard\":0", "\"shard\":18446744073709551615");
        let events = read_jsonl(line.as_bytes()).unwrap();
        let err = summarize(&events).unwrap_err();
        assert!(err.contains("shard 18446744073709551615"), "{err}");
        // A shard of 4e9 would size a dense 4e9-entry breakdown.
        let err = summarize(&[event(0, 4_000_000_000, true, None)]).unwrap_err();
        assert!(err.contains("shard 4000000000"), "{err}");
        // The largest accepted shard still summarizes, densely.
        let s = summarize(&[event(0, MAX_TRACE_SHARD, true, None)]).unwrap();
        assert_eq!(s.per_shard.len(), MAX_TRACE_SHARD + 1);
        // A seq of u64::MAX saturates instead of overflowing.
        let last = DecisionEvent {
            seq: u64::MAX,
            ..event(0, 0, true, None)
        };
        let s = summarize(&[last]).unwrap();
        assert_eq!(s.dropped, u64::MAX - 1);
    }

    #[test]
    fn reject_counts_merge_is_exact() {
        let mut a = RejectCounts::default();
        a.bump(RejectReason::ThresholdExceeded);
        let mut b = RejectCounts::default();
        b.bump(RejectReason::PolicyFiltered);
        b.bump(RejectReason::ThresholdExceeded);
        a.merge(&b);
        assert_eq!(a.threshold_exceeded, 2);
        assert_eq!(a.policy_filtered, 1);
        assert_eq!(a.total(), 3);
    }
}
