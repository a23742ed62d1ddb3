//! Per-rank and whole-application traces.
//!
//! A trace follows Dimemas replay semantics: each rank is a sequence of
//! *(compute burst, MPI operation)* records. The compute burst is the CPU
//! time the rank spent before entering the MPI call — during replay it is
//! reproduced verbatim, while the MPI operation is re-simulated on the
//! modelled network. The burst before a call is also exactly the
//! "inter-communication interval" the paper's prediction algorithm feeds on.
//!
//! A rank's records live in an [`EventColumns`]: [`TraceEvent`] is the
//! value type records are pushed and iterated as, not how they are
//! stored.

use crate::columns::EventColumns;
use crate::event::{MpiCall, MpiOp, Rank};
use ibp_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Compute time, in ns, that all ranks of a trace may hold together:
/// the replay's scheduler key packs a rank's clock above the rank-id
/// bits, so at 252 ranks it holds `u64::MAX >> 8` ns (about 2.3
/// simulated years). [`Trace::validate`] caps each rank at this range
/// divided by the rank count — about 79 simulated hours per rank at 252
/// ranks — so every rank's compute fits the replay clock and any sum
/// over the whole trace (idle totals, call profiles) fits as well.
const TRACE_COMPUTE_NS: u64 = u64::MAX >> 8;

/// Payload bytes that all ranks of a trace may send together, counted
/// by [`max_sent_bytes`]: [`Trace::validate`] caps each rank at this
/// divided by the rank count, so the replay's fabric byte total (and any
/// other sum of sent bytes) fits in a `u64`.
const TRACE_SENT_BYTES: u64 = u64::MAX;

/// What every rank must agree on about a collective: its kind and, for
/// rooted ones, the root. `None` for point-to-point operations.
fn collective(op: &MpiOp) -> Option<(MpiCall, Option<Rank>)> {
    match *op {
        MpiOp::Barrier
        | MpiOp::Allreduce { .. }
        | MpiOp::Allgather { .. }
        | MpiOp::Alltoall { .. } => Some((op.call(), None)),
        MpiOp::Bcast { root, .. } | MpiOp::Reduce { root, .. } => Some((op.call(), Some(root))),
        _ => None,
    }
}

/// A collective as error messages name it: `MPI_Bcast (root 1)`,
/// `MPI_Allreduce`.
fn describe((call, root): (MpiCall, Option<Rank>)) -> String {
    match root {
        Some(root) => format!("{call} (root {root})"),
        None => call.to_string(),
    }
}

/// An upper bound on the payload bytes `op` makes one rank of `nprocs`
/// send: its payload times the messages it can send. A collective sends
/// at most `nprocs − 1` messages per rank, a barrier 1 byte each. `None`
/// when that overflows.
fn max_sent_bytes(op: &MpiOp, nprocs: u32) -> Option<u64> {
    let peers = u64::from(nprocs.saturating_sub(1));
    match *op {
        MpiOp::Send { bytes, .. } | MpiOp::Isend { bytes, .. } => Some(bytes),
        MpiOp::Sendrecv { send_bytes, .. } => Some(send_bytes),
        MpiOp::Barrier => Some(peers),
        MpiOp::Bcast { bytes, .. }
        | MpiOp::Reduce { bytes, .. }
        | MpiOp::Allreduce { bytes }
        | MpiOp::Allgather { bytes }
        | MpiOp::Alltoall { bytes } => bytes.checked_mul(peers),
        MpiOp::Recv { .. } | MpiOp::Irecv { .. } | MpiOp::Wait { .. } | MpiOp::Waitall { .. } => {
            Some(0)
        }
    }
}

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
    pub events: EventColumns,
    /// Compute performed after the last MPI call (finalisation work).
    pub final_compute: SimDuration,
}

impl RankTrace {
    /// Create an empty trace for `rank`.
    pub fn new(rank: Rank) -> Self {
        RankTrace {
            rank,
            events: EventColumns::new(),
            final_compute: SimDuration::ZERO,
        }
    }

    /// Number of MPI calls in the trace.
    pub fn call_count(&self) -> usize {
        self.events.len()
    }

    /// Total compute time recorded (all bursts + final compute).
    pub fn total_compute(&self) -> SimDuration {
        self.events.compute().iter().copied().sum::<SimDuration>() + self.final_compute
    }

    /// Iterate over `(call id, compute-before)` pairs — the exact stream
    /// the PPA consumes.
    pub fn call_stream(&self) -> impl Iterator<Item = (MpiCall, SimDuration)> + '_ {
        self.events
            .calls()
            .zip(self.events.compute().iter().copied())
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

    /// Heap bytes held by the trace: every rank's
    /// [`EventColumns::heap_bytes`], the rank vector and the name.
    pub fn heap_bytes(&self) -> usize {
        self.name.capacity()
            + self.ranks.capacity() * std::mem::size_of::<RankTrace>()
            + self
                .ranks
                .iter()
                .map(|r| r.events.heap_bytes())
                .sum::<usize>()
    }

    /// Validate internal consistency:
    ///
    /// * rank indices are dense and match positions,
    /// * point-to-point peers are in range,
    /// * every `Wait`/`Waitall` request was previously posted by an
    ///   `Isend`/`Irecv` on the same rank and is claimed exactly once,
    /// * collective roots are in range,
    /// * every rank issues the same sequence of collectives — kind and
    ///   root, in order, and as many (replay matches collectives across
    ///   ranks by position),
    /// * each rank's compute (its bursts plus `final_compute`) stays at
    ///   or below `(u64::MAX >> 8) / nprocs` ns, its share of the replay
    ///   clock's range at 252 ranks,
    /// * the payload bytes each rank can send (every event's payload
    ///   times the messages it can send) stay at or below
    ///   `u64::MAX / nprocs`, so fabric byte totals fit in a `u64`.
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
        // Rank 0's collectives (event index, kind and root): the
        // sequence every other rank must issue.
        let mut reference = Vec::new();
        for (i, r) in self.ranks.iter().enumerate() {
            if r.rank as usize != i {
                return Err(format!("rank {} stored at position {}", r.rank, i));
            }
            let cap = TRACE_COMPUTE_NS / u64::from(self.nprocs);
            let compute = r
                .events
                .compute()
                .iter()
                .try_fold(r.final_compute.as_ns(), |sum, c| sum.checked_add(c.as_ns()));
            if compute.is_none_or(|ns| ns > cap) {
                return Err(format!(
                    "rank {i}: compute time exceeds the {cap} ns a rank may hold \
                     in a {}-rank trace",
                    self.nprocs
                ));
            }
            let in_range = |p: Rank| (p as usize) < self.ranks.len();
            let mut posted: std::collections::HashSet<u32> = std::collections::HashSet::new();
            let sent_cap = TRACE_SENT_BYTES / u64::from(self.nprocs);
            let mut sent = 0u64;
            let mut collectives = 0;
            for (j, ev) in r.events.iter().enumerate() {
                let err = |msg: String| Err(format!("rank {i} event {j}: {msg}"));
                if let Some(c) = collective(&ev.op) {
                    if i == 0 {
                        reference.push((j, c));
                    } else if reference.get(collectives).map(|r| r.1) != Some(c) {
                        let theirs = reference
                            .get(collectives)
                            .map_or("none".into(), |&(j0, c0)| {
                                format!("{} at event {j0}", describe(c0))
                            });
                        return err(format!(
                            "collective {collectives} is {} but rank 0's is {theirs}",
                            describe(c)
                        ));
                    }
                    collectives += 1;
                }
                match max_sent_bytes(&ev.op, self.nprocs).and_then(|b| sent.checked_add(b)) {
                    Some(total) if total <= sent_cap => sent = total,
                    _ => {
                        return err(format!(
                            "bytes sent exceed the {sent_cap} a rank may send in a {}-rank trace",
                            self.nprocs
                        ))
                    }
                }
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
                    MpiOp::Bcast { root, .. } | MpiOp::Reduce { root, .. } if !in_range(*root) => {
                        return err(format!("root {root} out of range"));
                    }
                    MpiOp::Isend { req, .. } | MpiOp::Irecv { req, .. } if !posted.insert(*req) => {
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
            if let Some(&(j0, c0)) = reference.get(collectives) {
                return Err(format!(
                    "rank {i}: issues {collectives} collectives but rank 0's collective \
                     {collectives} is {} at event {j0}",
                    describe(c0)
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

    /// Record a `Waitall` completing `reqs` on `rank`, consuming the
    /// pending compute like [`op`](Self::op). Unlike pushing an
    /// `MpiOp::Waitall`, it needs no owned id list: the rank's columns
    /// copy one only for a list they have not seen.
    pub fn waitall(&mut self, rank: Rank, reqs: &[u32]) {
        let compute_before =
            std::mem::replace(&mut self.pending_compute[rank as usize], SimDuration::ZERO);
        self.trace.ranks[rank as usize]
            .events
            .push_waitall(compute_before, reqs);
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
    /// `final_compute` and releasing the columns' spare capacity.
    pub fn build(mut self) -> Trace {
        for (rank, pending) in self.pending_compute.iter().enumerate() {
            let r = &mut self.trace.ranks[rank];
            r.final_compute = *pending;
            r.events.shrink_to_fit();
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
        b.op(
            1,
            MpiOp::Recv {
                from: 0,
                bytes: 2048,
            },
        );
        b.op(1, MpiOp::Allreduce { bytes: 8 });
        b.compute(1, SimDuration::from_us(5));
        b.build()
    }

    #[test]
    fn builder_assembles_records() {
        let t = two_rank_trace();
        assert_eq!(t.total_calls(), 4);
        assert_eq!(t.ranks[0].events.compute()[0], SimDuration::from_us(50));
        assert_eq!(t.ranks[1].events.compute()[1], SimDuration::ZERO);
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
    fn validate_caps_the_bytes_a_rank_sends() {
        let allgathers = |bytes: u64| {
            let mut b = TraceBuilder::new("bytes", 2);
            for r in 0..2 {
                b.op(r, MpiOp::Allgather { bytes });
                b.op(r, MpiOp::Allgather { bytes });
            }
            b.build()
        };
        // Two ranks may send u64::MAX / 2 bytes each: two allgathers of
        // a quarter of that fit, of u64::MAX bytes do not.
        assert!(allgathers(u64::MAX / 4).validate().is_ok());
        let err = allgathers(u64::MAX).validate().unwrap_err();
        assert!(
            err.starts_with("rank 0 event 0: bytes sent exceed"),
            "{err}"
        );
        let err = allgathers(u64::MAX / 4 + 1).validate().unwrap_err();
        assert!(err.starts_with("rank 0 event 1:"), "{err}");
        // A collective's payload counts once per message it can send.
        let mut b = TraceBuilder::new("alltoall", 3);
        for r in 0..3 {
            b.op(
                r,
                MpiOp::Alltoall {
                    bytes: u64::MAX / 5,
                },
            );
        }
        assert!(b.build().validate().unwrap_err().contains("bytes sent"));
    }

    #[test]
    fn validate_requires_every_rank_to_issue_the_same_collectives() {
        let trace = |ops: [[MpiOp; 2]; 2]| {
            let mut b = TraceBuilder::new("coll", 2);
            for (r, ops) in ops.into_iter().enumerate() {
                for op in ops {
                    b.op(r as Rank, op);
                }
            }
            b.build()
        };
        let bcast = |root| MpiOp::Bcast { root, bytes: 8 };
        let ar = MpiOp::Allreduce { bytes: 8 };
        let ag = MpiOp::Allgather { bytes: 8 };
        // Point-to-point operations between collectives do not count.
        let send = MpiOp::Send { to: 0, bytes: 1 };
        let recv = MpiOp::Recv { from: 1, bytes: 1 };
        assert!(
            trace([[recv.clone(), ar.clone()], [send.clone(), ar.clone()]])
                .validate()
                .is_ok()
        );
        // Kinds differ at the same position.
        let err = trace([[bcast(0), ar.clone()], [bcast(0), ag.clone()]])
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            "rank 1 event 1: collective 1 is MPI_Allgather but rank 0's is MPI_Allreduce at event 1"
        );
        // Roots differ.
        let err = trace([[bcast(0), ar.clone()], [bcast(1), ar.clone()]])
            .validate()
            .unwrap_err();
        assert!(
            err.starts_with("rank 1 event 0: collective 0 is MPI_Bcast (root 1)"),
            "{err}"
        );
        // One rank issues more collectives, or fewer.
        let extra = MpiOp::Reduce { root: 0, bytes: 8 };
        let err = trace([[MpiOp::Barrier, send], [MpiOp::Barrier, extra]])
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            "rank 1 event 1: collective 1 is MPI_Reduce (root 0) but rank 0's is none"
        );
        let err = trace([[ar.clone(), ag], [ar, recv]])
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            "rank 1: issues 1 collectives but rank 0's collective 1 is MPI_Allgather at event 1"
        );
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
        assert!(b
            .build()
            .validate()
            .unwrap_err()
            .contains("never completed"));
    }

    #[test]
    fn validate_accepts_request_lifecycle() {
        let mut b = TraceBuilder::new("ok", 2);
        let r1 = b.isend(0, 1, 100);
        let r2 = b.irecv(0, 1, 100);
        b.waitall(0, &[r1, r2]);
        b.op(
            1,
            MpiOp::Recv {
                from: 0,
                bytes: 100,
            },
        );
        b.op(1, MpiOp::Send { to: 0, bytes: 100 });
        let t = b.build();
        assert!(t.validate().is_ok());
        assert_eq!(
            t.ranks[0].events.iter().last().map(|e| e.op),
            Some(MpiOp::Waitall { reqs: vec![r1, r2] })
        );
    }
}
