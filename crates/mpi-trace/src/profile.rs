//! Trace profiling: the summaries an analyst pulls from a trace before
//! deciding how to power-manage it.
//!
//! Three views are provided:
//!
//! * [`CallProfile`] — per-call-type counts, payload bytes, and the idle
//!   time attributable to the gaps preceding each type (which call types
//!   "guard" the exploitable idle);
//! * [`CommMatrix`] — bytes exchanged per (src, dst) rank pair, the
//!   standard communication-topology picture;
//! * [`ActivityProfile`] — time-binned call activity per rank (how bursty
//!   the communication is), the quantity Fig. 6 visualises.

use crate::event::{MpiCall, MpiOp};
use crate::trace::{RankTrace, Trace};
use ibp_simcore::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-call-type aggregate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CallTypeStats {
    /// Number of calls of this type across all ranks.
    pub count: u64,
    /// Bytes this type injects (sender side).
    pub send_bytes: u64,
    /// Total idle time in the gaps immediately preceding calls of this
    /// type.
    pub preceding_idle: SimDuration,
}

/// Per-call-type profile of a whole trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CallProfile {
    /// Stats per call type, keyed by the Paraver-style id for stable
    /// ordering.
    pub by_call: BTreeMap<u16, CallTypeStats>,
}

impl CallProfile {
    /// Profile `trace`.
    pub fn of(trace: &Trace) -> Self {
        let mut by_call: BTreeMap<u16, CallTypeStats> = BTreeMap::new();
        for rank in &trace.ranks {
            for ev in &rank.events {
                let e = by_call.entry(ev.op.call().id()).or_default();
                e.count += 1;
                e.send_bytes += ev.op.send_bytes(trace.nprocs);
                e.preceding_idle += ev.compute_before;
            }
        }
        CallProfile { by_call }
    }

    /// Stats for one call type, if present.
    pub fn get(&self, call: MpiCall) -> Option<&CallTypeStats> {
        self.by_call.get(&call.id())
    }

    /// Total calls across types.
    pub fn total_calls(&self) -> u64 {
        self.by_call.values().map(|s| s.count).sum()
    }

    /// The call type guarding the most idle time (the natural lane-off
    /// anchor), if any.
    pub fn dominant_idle_guard(&self) -> Option<MpiCall> {
        let id = self.by_call.iter().max_by_key(|(_, s)| s.preceding_idle)?.0;
        // Map ids back to the enum (ids are the single source of truth).
        [
            MpiCall::Send,
            MpiCall::Recv,
            MpiCall::Isend,
            MpiCall::Irecv,
            MpiCall::Wait,
            MpiCall::Waitall,
            MpiCall::Bcast,
            MpiCall::Barrier,
            MpiCall::Reduce,
            MpiCall::Allreduce,
            MpiCall::Alltoall,
            MpiCall::Allgather,
            MpiCall::Gather,
            MpiCall::Scatter,
            MpiCall::Init,
            MpiCall::Finalize,
            MpiCall::Sendrecv,
        ]
        .into_iter()
        .find(|c| c.id() == *id)
    }
}

/// Bytes exchanged per (src, dst) pair. Collectives are attributed to
/// their nominal sender(s) (the same upper-bound accounting as
/// [`MpiOp::send_bytes`], spread over the communicator for all-to-all
/// styles is *not* attempted — this is a point-to-point heat map).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommMatrix {
    /// Rank count.
    pub nprocs: u32,
    /// Row-major `nprocs × nprocs` byte counts.
    pub bytes: Vec<u64>,
}

impl CommMatrix {
    /// Build the point-to-point communication matrix of `trace`.
    pub fn of(trace: &Trace) -> Self {
        let n = trace.nprocs as usize;
        let mut bytes = vec![0u64; n * n];
        for rank in &trace.ranks {
            let src = rank.rank as usize;
            for ev in &rank.events {
                match ev.op {
                    MpiOp::Send { to, bytes: b } | MpiOp::Isend { to, bytes: b, .. } => {
                        bytes[src * n + to as usize] += b;
                    }
                    MpiOp::Sendrecv { to, send_bytes, .. } => {
                        bytes[src * n + to as usize] += send_bytes;
                    }
                    _ => {}
                }
            }
        }
        CommMatrix {
            nprocs: trace.nprocs,
            bytes,
        }
    }

    /// Bytes sent from `src` to `dst`.
    pub fn get(&self, src: u32, dst: u32) -> u64 {
        self.bytes[(src * self.nprocs + dst) as usize]
    }

    /// Total point-to-point bytes.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Number of distinct communicating pairs.
    pub fn pairs(&self) -> usize {
        self.bytes.iter().filter(|&&b| b > 0).count()
    }

    /// Is the matrix symmetric (every exchange is mirrored)?
    pub fn is_symmetric(&self) -> bool {
        let n = self.nprocs;
        (0..n).all(|i| (0..n).all(|j| self.get(i, j) == self.get(j, i)))
    }
}

/// Nominal call-entry times of one rank (compute before each call,
/// summed; saturating, so any in-memory trace is total).
fn entry_times(rank: &RankTrace) -> impl Iterator<Item = u64> + '_ {
    rank.events.compute().iter().scan(0u64, |t, gap| {
        *t = t.saturating_add(gap.as_ns());
        Some(*t)
    })
}

/// Upper bound on [`ActivityProfile`] bins per rank: a trace whose span
/// needs more bins at the requested width is binned at a wider one.
pub const MAX_ACTIVITY_BINS: u64 = 1 << 20;

/// Time-binned MPI activity per rank, using nominal times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityProfile {
    /// Bin width: the requested width, or the smallest multiple of it
    /// that keeps every rank within [`MAX_ACTIVITY_BINS`] bins.
    pub bin: SimDuration,
    /// Per-rank vectors of call counts per bin.
    pub bins: Vec<Vec<u32>>,
}

impl ActivityProfile {
    /// Bin the call-entry times of `trace` into windows of `bin`,
    /// widened to the smallest multiple of `bin` that needs at most
    /// [`MAX_ACTIVITY_BINS`] bins per rank, so memory follows the
    /// trace's size rather than its simulated span.
    ///
    /// # Panics
    /// Panics if `bin` is zero.
    pub fn of(trace: &Trace, bin: SimDuration) -> Self {
        assert!(!bin.is_zero(), "bin width must be positive");
        let span = trace
            .ranks
            .iter()
            .filter_map(|rank| entry_times(rank).last())
            .max()
            .unwrap_or(0);
        // The smallest k with span / (k · bin) < MAX_ACTIVITY_BINS.
        let k = span / bin.as_ns().saturating_mul(MAX_ACTIVITY_BINS) + 1;
        let width = bin.as_ns().saturating_mul(k);
        let bins = trace
            .ranks
            .iter()
            .map(|rank| {
                let mut v: Vec<u32> = Vec::new();
                for t in entry_times(rank) {
                    let idx = (t / width) as usize;
                    if idx >= v.len() {
                        v.resize(idx + 1, 0);
                    }
                    v[idx] += 1;
                }
                v
            })
            .collect();
        ActivityProfile {
            bin: SimDuration::from_ns(width),
            bins,
        }
    }

    /// Peak calls in any bin of any rank.
    pub fn peak(&self) -> u32 {
        self.bins
            .iter()
            .flat_map(|v| v.iter())
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Fraction of bins with no activity at all (averaged over ranks) —
    /// a burstiness signal: high for compute-dominated applications.
    pub fn quiet_fraction(&self) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        self.bins
            .iter()
            .map(|v| {
                if v.is_empty() {
                    return 0.0;
                }
                v.iter().filter(|&&c| c == 0).count() as f64 / v.len() as f64
            })
            .sum::<f64>()
            / self.bins.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn us(x: u64) -> SimDuration {
        SimDuration::from_us(x)
    }

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("prof", 3);
        for it in 0..4 {
            let _ = it;
            for r in 0..3u32 {
                b.compute(r, us(500));
                b.op(
                    r,
                    MpiOp::Sendrecv {
                        to: (r + 1) % 3,
                        send_bytes: 1000,
                        from: (r + 2) % 3,
                        recv_bytes: 1000,
                    },
                );
                b.compute(r, us(100));
                b.op(r, MpiOp::Allreduce { bytes: 8 });
            }
        }
        b.build()
    }

    #[test]
    fn call_profile_counts_and_idle() {
        let p = CallProfile::of(&sample());
        assert_eq!(p.total_calls(), 24);
        let sr = p.get(MpiCall::Sendrecv).unwrap();
        assert_eq!(sr.count, 12);
        assert_eq!(sr.send_bytes, 12_000);
        assert_eq!(sr.preceding_idle, us(500 * 12));
        let ar = p.get(MpiCall::Allreduce).unwrap();
        assert_eq!(ar.preceding_idle, us(100 * 12));
        // The big idle sits before the Sendrecvs.
        assert_eq!(p.dominant_idle_guard(), Some(MpiCall::Sendrecv));
    }

    #[test]
    fn comm_matrix_captures_ring() {
        let m = CommMatrix::of(&sample());
        assert_eq!(m.get(0, 1), 4000);
        assert_eq!(m.get(1, 2), 4000);
        assert_eq!(m.get(2, 0), 4000);
        assert_eq!(m.get(0, 2), 0);
        assert_eq!(m.total(), 12_000);
        assert_eq!(m.pairs(), 3);
        assert!(!m.is_symmetric(), "one-directional ring");
    }

    #[test]
    fn symmetric_exchange_detected() {
        let mut b = TraceBuilder::new("sym", 2);
        for r in 0..2u32 {
            b.op(
                r,
                MpiOp::Sendrecv {
                    to: 1 - r,
                    send_bytes: 77,
                    from: 1 - r,
                    recv_bytes: 77,
                },
            );
        }
        let m = CommMatrix::of(&b.build());
        assert!(m.is_symmetric());
    }

    #[test]
    fn activity_profile_bins_calls() {
        let t = sample();
        let p = ActivityProfile::of(&t, us(200));
        assert_eq!(p.bins.len(), 3);
        // 8 calls per rank over 2.4 ms of nominal time.
        let rank0_total: u32 = p.bins[0].iter().sum();
        assert_eq!(rank0_total, 8);
        // Compute-dominated: a visible share of empty bins (calls land
        // in 2 bins of each ~3-bin iteration window).
        assert!(p.quiet_fraction() > 0.3, "{}", p.quiet_fraction());
        // With coarser bins the sendrecv+allreduce pair lands together.
        let coarse = ActivityProfile::of(&t, us(600));
        assert!(coarse.peak() >= 2, "peak {}", coarse.peak());
    }

    #[test]
    fn activity_bins_widen_to_fit_the_cap() {
        // Two calls per rank, 10^13 ns apart: 2·10^7 bins at 1 ms.
        let mut b = TraceBuilder::new("long", 2);
        for r in 0..2u32 {
            for _ in 0..2 {
                b.compute(r, SimDuration::from_ns(10_000_000_000_000));
                b.op(r, MpiOp::Allreduce { bytes: 8 });
            }
        }
        let p = ActivityProfile::of(&b.build(), SimDuration::from_ms(1));
        assert_eq!(p.bin, SimDuration::from_ms(20), "smallest fitting multiple");
        for v in &p.bins {
            assert!(v.len() as u64 <= MAX_ACTIVITY_BINS, "{} bins", v.len());
            assert_eq!(v.iter().sum::<u32>(), 2);
        }
        // One millisecond less of span fits at 19 ms.
        let mut b = TraceBuilder::new("fits", 1);
        b.compute(0, SimDuration::from_ms(19 * MAX_ACTIVITY_BINS - 1));
        b.op(0, MpiOp::Barrier);
        let p = ActivityProfile::of(&b.build(), SimDuration::from_ms(1));
        assert_eq!(p.bin, SimDuration::from_ms(19));
        assert_eq!(p.bins[0].len() as u64, MAX_ACTIVITY_BINS);
    }

    #[test]
    fn empty_trace_profiles_cleanly() {
        let t = TraceBuilder::new("empty", 2).build();
        assert_eq!(CallProfile::of(&t).total_calls(), 0);
        assert_eq!(CommMatrix::of(&t).total(), 0);
        let a = ActivityProfile::of(&t, us(100));
        assert_eq!(a.peak(), 0);
    }
}
