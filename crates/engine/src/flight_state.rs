//! Shared flight-recorder state: the per-shard rings plus snapshot and
//! crash-dump assembly.

use crate::config::FlightConfig;
use cslack_obs::flight::{
    FlightEvent, FlightHeader, FlightSnapshot, ShardFlight, SharedFlightRing,
};
use cslack_obs::RejectCounts;
use std::sync::atomic::{AtomicBool, Ordering};

/// Shared flight-recorder state: one bounded binary ring per shard plus
/// the run metadata the `.cfr` header needs. Each ring is a lock-free
/// [`SharedFlightRing`]: the shard worker is its single writer (a
/// wait-free encoded append per decision — no mutex, no batch
/// staging), while snapshot readers (finish, the telemetry endpoint,
/// error dumps) take seqlock-validated copies without ever stalling
/// the writer.
pub(crate) struct FlightState {
    pub(crate) rings: Vec<SharedFlightRing>,
    pub(crate) cfg: FlightConfig,
    pub(crate) m: usize,
    pub(crate) shard_count: usize,
    /// First-wins claim on the crash `.cfr`: the failing worker writes
    /// the snapshot *at failure time*, and later writers (a second
    /// failing shard, the finish/merge error path) must not overwrite
    /// that evidence with a staler or larger window.
    pub(crate) error_snapshot_written: AtomicBool,
}

impl FlightState {
    /// Preallocates one ring per shard; `SharedFlightRing::new` touches
    /// every word of the backing buffer on this (the caller's) thread,
    /// so a shard's first pass over its ring never page-faults inside
    /// the decision loop.
    pub(crate) fn new(cfg: FlightConfig, m: usize, shard_count: usize) -> FlightState {
        FlightState {
            rings: (0..shard_count)
                .map(|_| SharedFlightRing::new(cfg.capacity))
                .collect(),
            cfg,
            m,
            shard_count,
            error_snapshot_written: AtomicBool::new(false),
        }
    }

    /// Assembles a [`FlightSnapshot`] from the current ring contents,
    /// record for record.
    ///
    /// `counters` carries the engine's own totals when they are known
    /// (the finish path); live and error snapshots pass `None` and the
    /// header counters are recomputed from the buffered decisions, so
    /// they stay consistent with the (possibly partial) event window.
    pub(crate) fn snapshot(&self, counters: Option<(u64, u64, RejectCounts)>) -> FlightSnapshot {
        let mut shards = Vec::with_capacity(self.rings.len());
        for (index, ring) in self.rings.iter().enumerate() {
            let (events, dropped) = ring.snapshot_events();
            shards.push(ShardFlight {
                shard: index as u32,
                dropped,
                events,
            });
        }
        let (submitted, accepted, rejected) = counters.unwrap_or_else(|| {
            let mut submitted = 0u64;
            let mut accepted = 0u64;
            let mut rejected = RejectCounts::default();
            for shard in &shards {
                for event in &shard.events {
                    if let FlightEvent::Decision(d) = event {
                        submitted += 1;
                        if d.accepted {
                            accepted += 1;
                        } else if let Some(reason) = d.reject_reason {
                            rejected.bump(reason);
                        }
                    }
                }
            }
            (submitted, accepted, rejected)
        });
        FlightSnapshot {
            header: FlightHeader {
                m: self.m as u32,
                shards: self.shard_count as u32,
                eps: self.cfg.eps,
                seed: self.cfg.seed,
                algorithm: self.cfg.algorithm.clone(),
                submitted,
                accepted,
                rejected,
            },
            shards,
        }
    }

    /// Writes the crash-dump `.cfr` if the config asked for one and no
    /// earlier fault already claimed it. Returns `true` if this call
    /// wrote the file — the failing worker calls this *at failure
    /// time*, so the evidence survives even if the engine is then
    /// abandoned or held open for hours.
    pub(crate) fn write_error_snapshot(&self) -> bool {
        let Some(path) = &self.cfg.snapshot_on_error else {
            return false;
        };
        if self.error_snapshot_written.swap(true, Ordering::AcqRel) {
            return false;
        }
        match std::fs::File::create(path) {
            Ok(mut file) => self.snapshot(None).write_cfr(&mut file).is_ok(),
            Err(_) => false,
        }
    }
}
