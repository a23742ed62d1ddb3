//! Per-rank and whole-application traces.
//!
//! A trace follows Dimemas replay semantics: each rank is a sequence of
//! *(compute burst, MPI operation)* records. The compute burst is the CPU
//! time the rank spent before entering the MPI call — during replay it is
//! reproduced verbatim, while the MPI operation is re-simulated on the
//! modelled network. The burst before a call is also exactly the
//! "inter-communication interval" the paper's prediction algorithm feeds on.

use crate::event::{MpiCall, MpiOp, Rank};
use ibp_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// One trace record: the compute burst since the previous MPI call, then
/// the MPI operation itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// CPU time spent computing before this MPI call was entered.
    pub compute_before: SimDuration,
    /// The MPI operation.
    pub op: MpiOp,
}

/// The recorded activity of a single MPI rank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankTrace {
    /// The rank this trace belongs to.
    pub rank: Rank,
    /// The (compute, MPI op) sequence.
    pub events: Vec<TraceEvent>,
    /// Compute performed after the last MPI call (finalisation work).
    pub final_compute: SimDuration,
}

impl RankTrace {
    /// Create an empty trace for `rank`.
    pub fn new(rank: Rank) -> Self {
        RankTrace {
            rank,
            events: Vec::new(),
            final_compute: SimDuration::ZERO,
        }
    }

    /// Number of MPI calls in the trace.
    pub fn call_count(&self) -> usize {
        self.events.len()
    }

    /// Total compute time recorded (all bursts + final compute).
    pub fn total_compute(&self) -> SimDuration {
        self.events
            .iter()
            .map(|e| e.compute_before)
            .sum::<SimDuration>()
            + self.final_compute
    }

    /// Iterate over `(call id, compute-before)` pairs — the exact stream
    /// the PPA consumes.
    pub fn call_stream(&self) -> impl Iterator<Item = (MpiCall, SimDuration)> + '_ {
        self.events.iter().map(|e| (e.op.call(), e.compute_before))
    }
}

/// A whole-application, all-ranks trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Human-readable workload name (e.g. `"alya"`).
    pub name: String,
    /// Number of MPI processes.
    pub nprocs: u32,
    /// One entry per rank, indexed by rank.
    pub ranks: Vec<RankTrace>,
}

impl Trace {
    /// Create an empty trace for `nprocs` ranks.
    pub fn new(name: impl Into<String>, nprocs: u32) -> Self {
        Trace {
            name: name.into(),
            nprocs,
            ranks: (0..nprocs).map(RankTrace::new).collect(),
        }
    }

    /// Total number of MPI calls across all ranks.
    pub fn total_calls(&self) -> usize {
        self.ranks.iter().map(|r| r.call_count()).sum()
    }

    /// Validate internal consistency:
    ///
    /// * rank indices are dense and match positions,
    /// * point-to-point peers are in range,
    /// * every `Wait`/`Waitall` request was previously posted by an
    ///   `Isend`/`Irecv` on the same rank and is claimed exactly once,
    /// * collective roots are in range.
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks.len() != self.nprocs as usize {
            return Err(format!(
                "trace says {} procs but holds {} rank traces",
                self.nprocs,
                self.ranks.len()
            ));
        }
        for (i, r) in self.ranks.iter().enumerate() {
            if r.rank as usize != i {
                return Err(format!("rank {} stored at position {}", r.rank, i));
            }
            let in_range = |p: Rank| (p as usize) < self.ranks.len();
            let mut posted: std::collections::HashSet<u32> = std::collections::HashSet::new();
            for (j, ev) in r.events.iter().enumerate() {
                let err = |msg: String| Err(format!("rank {i} event {j}: {msg}"));
                match &ev.op {
                    MpiOp::Send { to, .. } | MpiOp::Isend { to, .. } if !in_range(*to) => {
                        return err(format!("peer {to} out of range"));
                    }
                    MpiOp::Recv { from, .. } | MpiOp::Irecv { from, .. } if !in_range(*from) => {
                        return err(format!("peer {from} out of range"));
                    }
                    MpiOp::Sendrecv { to, from, .. } if !in_range(*to) || !in_range(*from) => {
                        return err(format!("peer {to}/{from} out of range"));
                    }
                    MpiOp::Bcast { root, .. } | MpiOp::Reduce { root, .. }
                        if !in_range(*root) =>
                    {
                        return err(format!("root {root} out of range"));
                    }
                    MpiOp::Isend { req, .. } | MpiOp::Irecv { req, .. }
                        if !posted.insert(*req) =>
                    {
                        return err(format!("request {req} posted twice"));
                    }
                    MpiOp::Wait { req } if !posted.remove(req) => {
                        return err(format!("wait on unposted request {req}"));
                    }
                    MpiOp::Waitall { reqs } => {
                        for req in reqs {
                            if !posted.remove(req) {
                                return err(format!("waitall on unposted request {req}"));
                            }
                        }
                    }
                    _ => {}
                }
            }
            if !posted.is_empty() {
                return Err(format!(
                    "rank {i}: {} request(s) never completed by wait",
                    posted.len()
                ));
            }
        }
        Ok(())
    }
}

/// Incremental construction of a [`Trace`].
///
/// ```
/// use ibp_trace::{TraceBuilder, MpiOp};
/// use ibp_simcore::SimDuration;
///
/// let mut b = TraceBuilder::new("demo", 2);
/// b.compute(0, SimDuration::from_us(100));
/// b.op(0, MpiOp::Send { to: 1, bytes: 1024 });
/// b.compute(1, SimDuration::from_us(80));
/// b.op(1, MpiOp::Recv { from: 0, bytes: 1024 });
/// let trace = b.build();
/// assert_eq!(trace.total_calls(), 2);
/// assert!(trace.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: Trace,
    /// Compute accumulated per rank since its last MPI op.
    pending_compute: Vec<SimDuration>,
    /// Next request id per rank (for convenience isend/irecv helpers).
    next_req: Vec<u32>,
}

impl TraceBuilder {
    /// Start building a trace for `nprocs` ranks.
    pub fn new(name: impl Into<String>, nprocs: u32) -> Self {
        TraceBuilder {
            trace: Trace::new(name, nprocs),
            pending_compute: vec![SimDuration::ZERO; nprocs as usize],
            next_req: vec![0; nprocs as usize],
        }
    }

    /// Number of ranks in the trace under construction.
    pub fn nprocs(&self) -> u32 {
        self.trace.nprocs
    }

    /// Accumulate compute time on `rank`.
    pub fn compute(&mut self, rank: Rank, dur: SimDuration) {
        self.pending_compute[rank as usize] += dur;
    }

    /// Record an MPI operation on `rank`, consuming the pending compute as
    /// its `compute_before`.
    pub fn op(&mut self, rank: Rank, op: MpiOp) {
        let compute_before =
            std::mem::replace(&mut self.pending_compute[rank as usize], SimDuration::ZERO);
        self.trace.ranks[rank as usize]
            .events
            .push(TraceEvent { compute_before, op });
    }

    /// Post an `Isend` with a freshly allocated request id; returns the id.
    pub fn isend(&mut self, rank: Rank, to: Rank, bytes: u64) -> u32 {
        let req = self.next_req[rank as usize];
        self.next_req[rank as usize] += 1;
        self.op(rank, MpiOp::Isend { to, bytes, req });
        req
    }

    /// Post an `Irecv` with a freshly allocated request id; returns the id.
    pub fn irecv(&mut self, rank: Rank, from: Rank, bytes: u64) -> u32 {
        let req = self.next_req[rank as usize];
        self.next_req[rank as usize] += 1;
        self.op(rank, MpiOp::Irecv { from, bytes, req });
        req
    }

    /// Finish the trace, attributing any pending compute to
    /// `final_compute`.
    pub fn build(mut self) -> Trace {
        for (rank, pending) in self.pending_compute.iter().enumerate() {
            self.trace.ranks[rank].final_compute = *pending;
        }
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rank_trace() -> Trace {
        let mut b = TraceBuilder::new("t", 2);
        b.compute(0, SimDuration::from_us(50));
        b.op(0, MpiOp::Send { to: 1, bytes: 2048 });
        b.compute(0, SimDuration::from_us(10));
        b.op(0, MpiOp::Allreduce { bytes: 8 });
        b.compute(1, SimDuration::from_us(30));
        b.op(1, MpiOp::Recv { from: 0, bytes: 2048 });
        b.op(1, MpiOp::Allreduce { bytes: 8 });
        b.compute(1, SimDuration::from_us(5));
        b.build()
    }

    #[test]
    fn builder_assembles_records() {
        let t = two_rank_trace();
        assert_eq!(t.total_calls(), 4);
        assert_eq!(t.ranks[0].events[0].compute_before, SimDuration::from_us(50));
        assert_eq!(t.ranks[1].events[1].compute_before, SimDuration::ZERO);
        assert_eq!(t.ranks[1].final_compute, SimDuration::from_us(5));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn total_compute_includes_final() {
        let t = two_rank_trace();
        assert_eq!(t.ranks[1].total_compute(), SimDuration::from_us(35));
    }

    #[test]
    fn call_stream_matches_events() {
        let t = two_rank_trace();
        let stream: Vec<_> = t.ranks[0].call_stream().collect();
        assert_eq!(stream.len(), 2);
        assert_eq!(stream[0].0, MpiCall::Send);
        assert_eq!(stream[1], (MpiCall::Allreduce, SimDuration::from_us(10)));
    }

    #[test]
    fn validate_rejects_out_of_range_peer() {
        let mut b = TraceBuilder::new("bad", 2);
        b.op(0, MpiOp::Send { to: 5, bytes: 1 });
        let t = b.build();
        assert!(t.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn validate_rejects_unmatched_wait() {
        let mut b = TraceBuilder::new("bad", 1);
        b.op(0, MpiOp::Wait { req: 3 });
        assert!(b.build().validate().unwrap_err().contains("unposted"));
    }

    #[test]
    fn validate_rejects_unclaimed_request() {
        let mut b = TraceBuilder::new("bad", 2);
        b.isend(0, 1, 100);
        assert!(b.build().validate().unwrap_err().contains("never completed"));
    }

    #[test]
    fn validate_accepts_request_lifecycle() {
        let mut b = TraceBuilder::new("ok", 2);
        let r1 = b.isend(0, 1, 100);
        let r2 = b.irecv(0, 1, 100);
        b.op(0, MpiOp::Waitall { reqs: vec![r1, r2] });
        b.op(1, MpiOp::Recv { from: 0, bytes: 100 });
        b.op(1, MpiOp::Send { to: 0, bytes: 100 });
        assert!(b.build().validate().is_ok());
    }
}
