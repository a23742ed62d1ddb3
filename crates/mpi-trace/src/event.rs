//! MPI call identifiers and operation payloads.
//!
//! The prediction algorithm in the paper operates on a stream of *MPI call
//! ids* — the integers shown in Fig. 2 ("41" = `MPI_Sendrecv`,
//! "10" = `MPI_Allreduce`). Those are Paraver's MPI event values, and we
//! keep the same numbering (anchored at the two ids the paper prints) so
//! our traces, logs and examples read like the paper's.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An MPI process rank.
pub type Rank = u32;

/// A non-blocking request handle, local to one rank's trace.
pub type ReqId = u32;

/// The MPI call type, with Paraver-style numeric ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u16)]
pub enum MpiCall {
    /// `MPI_Send` — blocking point-to-point send.
    Send = 1,
    /// `MPI_Recv` — blocking point-to-point receive.
    Recv = 2,
    /// `MPI_Isend` — non-blocking send.
    Isend = 3,
    /// `MPI_Irecv` — non-blocking receive.
    Irecv = 4,
    /// `MPI_Wait` — wait for one request.
    Wait = 5,
    /// `MPI_Waitall` — wait for a set of requests.
    Waitall = 6,
    /// `MPI_Bcast` — one-to-all broadcast.
    Bcast = 7,
    /// `MPI_Barrier` — full synchronisation.
    Barrier = 8,
    /// `MPI_Reduce` — all-to-one reduction.
    Reduce = 9,
    /// `MPI_Allreduce` — reduction + broadcast (Paraver id 10, as in Fig. 2).
    Allreduce = 10,
    /// `MPI_Alltoall` — personalised all-to-all exchange.
    Alltoall = 11,
    /// `MPI_Allgather` — gather + broadcast.
    Allgather = 12,
    /// `MPI_Gather` — all-to-one gather.
    Gather = 13,
    /// `MPI_Scatter` — one-to-all scatter.
    Scatter = 14,
    /// `MPI_Init` — runtime initialisation.
    Init = 31,
    /// `MPI_Finalize` — runtime teardown.
    Finalize = 32,
    /// `MPI_Sendrecv` — paired send+receive (Paraver id 41, as in Fig. 2).
    Sendrecv = 41,
}

impl MpiCall {
    /// The Paraver-style numeric id of this call (what the PPA hashes on).
    #[inline]
    pub fn id(self) -> u16 {
        self as u16
    }

    /// Every call type, in id order (drives exhaustive decode tables).
    pub const ALL: [MpiCall; 17] = [
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
    ];

    /// Decode a Paraver-style numeric id back to the call type (inverse
    /// of [`MpiCall::id`]); `None` for ids no variant carries. This is
    /// what wire-protocol decoders use, so it must stay total.
    #[inline]
    pub fn from_id(id: u16) -> Option<MpiCall> {
        Some(match id {
            1 => MpiCall::Send,
            2 => MpiCall::Recv,
            3 => MpiCall::Isend,
            4 => MpiCall::Irecv,
            5 => MpiCall::Wait,
            6 => MpiCall::Waitall,
            7 => MpiCall::Bcast,
            8 => MpiCall::Barrier,
            9 => MpiCall::Reduce,
            10 => MpiCall::Allreduce,
            11 => MpiCall::Alltoall,
            12 => MpiCall::Allgather,
            13 => MpiCall::Gather,
            14 => MpiCall::Scatter,
            31 => MpiCall::Init,
            32 => MpiCall::Finalize,
            41 => MpiCall::Sendrecv,
            _ => return None,
        })
    }

    /// The canonical MPI function name.
    pub fn name(self) -> &'static str {
        match self {
            MpiCall::Send => "MPI_Send",
            MpiCall::Recv => "MPI_Recv",
            MpiCall::Isend => "MPI_Isend",
            MpiCall::Irecv => "MPI_Irecv",
            MpiCall::Wait => "MPI_Wait",
            MpiCall::Waitall => "MPI_Waitall",
            MpiCall::Bcast => "MPI_Bcast",
            MpiCall::Barrier => "MPI_Barrier",
            MpiCall::Reduce => "MPI_Reduce",
            MpiCall::Allreduce => "MPI_Allreduce",
            MpiCall::Alltoall => "MPI_Alltoall",
            MpiCall::Allgather => "MPI_Allgather",
            MpiCall::Gather => "MPI_Gather",
            MpiCall::Scatter => "MPI_Scatter",
            MpiCall::Init => "MPI_Init",
            MpiCall::Finalize => "MPI_Finalize",
            MpiCall::Sendrecv => "MPI_Sendrecv",
        }
    }
}

impl fmt::Display for MpiCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully parameterised MPI operation as recorded in a trace.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MpiOp {
    /// Blocking send of `bytes` to rank `to`.
    Send {
        /// Destination rank.
        to: Rank,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Blocking receive of `bytes` from rank `from`.
    Recv {
        /// Source rank.
        from: Rank,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Non-blocking send; completion is claimed by `Wait`/`Waitall` on `req`.
    Isend {
        /// Destination rank.
        to: Rank,
        /// Payload size in bytes.
        bytes: u64,
        /// Request handle, unique within the issuing rank's trace.
        req: ReqId,
    },
    /// Non-blocking receive; completion is claimed by `Wait`/`Waitall` on `req`.
    Irecv {
        /// Source rank.
        from: Rank,
        /// Payload size in bytes.
        bytes: u64,
        /// Request handle, unique within the issuing rank's trace.
        req: ReqId,
    },
    /// Wait for a single outstanding request.
    Wait {
        /// The request to complete.
        req: ReqId,
    },
    /// Wait for a set of outstanding requests.
    Waitall {
        /// The requests to complete.
        reqs: Vec<ReqId>,
    },
    /// Paired exchange: send to `to` and receive from `from` concurrently.
    Sendrecv {
        /// Destination of the outgoing message.
        to: Rank,
        /// Outgoing payload size in bytes.
        send_bytes: u64,
        /// Source of the incoming message.
        from: Rank,
        /// Incoming payload size in bytes.
        recv_bytes: u64,
    },
    /// Full synchronisation across all ranks.
    Barrier,
    /// One-to-all broadcast of `bytes` from `root`.
    Bcast {
        /// Broadcast root.
        root: Rank,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// All-to-one reduction of `bytes` at `root`.
    Reduce {
        /// Reduction root.
        root: Rank,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Reduction + broadcast of `bytes` across all ranks.
    Allreduce {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Gather + broadcast: every rank contributes `bytes`.
    Allgather {
        /// Per-rank contribution in bytes.
        bytes: u64,
    },
    /// Personalised all-to-all: `bytes` to each peer.
    Alltoall {
        /// Per-destination payload size in bytes.
        bytes: u64,
    },
}

impl MpiOp {
    /// The call type of this operation (the id the PPA observes).
    pub fn call(&self) -> MpiCall {
        match self {
            MpiOp::Send { .. } => MpiCall::Send,
            MpiOp::Recv { .. } => MpiCall::Recv,
            MpiOp::Isend { .. } => MpiCall::Isend,
            MpiOp::Irecv { .. } => MpiCall::Irecv,
            MpiOp::Wait { .. } => MpiCall::Wait,
            MpiOp::Waitall { .. } => MpiCall::Waitall,
            MpiOp::Sendrecv { .. } => MpiCall::Sendrecv,
            MpiOp::Barrier => MpiCall::Barrier,
            MpiOp::Bcast { .. } => MpiCall::Bcast,
            MpiOp::Reduce { .. } => MpiCall::Reduce,
            MpiOp::Allreduce { .. } => MpiCall::Allreduce,
            MpiOp::Allgather { .. } => MpiCall::Allgather,
            MpiOp::Alltoall { .. } => MpiCall::Alltoall,
        }
    }

    /// Bytes this rank injects into the network for this operation (an
    /// upper-bound accounting used by workload statistics, not by the
    /// replay engine, which decomposes collectives properly).
    pub fn send_bytes(&self, nprocs: u32) -> u64 {
        match *self {
            MpiOp::Send { bytes, .. } | MpiOp::Isend { bytes, .. } => bytes,
            MpiOp::Sendrecv { send_bytes, .. } => send_bytes,
            MpiOp::Bcast { bytes, .. } | MpiOp::Reduce { bytes, .. } => bytes,
            MpiOp::Allreduce { bytes } | MpiOp::Allgather { bytes } => bytes,
            MpiOp::Alltoall { bytes } => bytes * u64::from(nprocs.saturating_sub(1)),
            MpiOp::Recv { .. }
            | MpiOp::Irecv { .. }
            | MpiOp::Wait { .. }
            | MpiOp::Waitall { .. }
            | MpiOp::Barrier => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_ids_match() {
        // Fig. 2 of the paper: 41 = MPI_Sendrecv, 10 = MPI_Allreduce.
        assert_eq!(MpiCall::Sendrecv.id(), 41);
        assert_eq!(MpiCall::Allreduce.id(), 10);
    }

    #[test]
    fn op_reports_its_call() {
        assert_eq!(
            MpiOp::Sendrecv {
                to: 1,
                send_bytes: 100,
                from: 2,
                recv_bytes: 100
            }
            .call(),
            MpiCall::Sendrecv
        );
        assert_eq!(MpiOp::Allreduce { bytes: 8 }.call(), MpiCall::Allreduce);
        assert_eq!(MpiOp::Barrier.call(), MpiCall::Barrier);
        assert_eq!(MpiOp::Waitall { reqs: vec![1, 2] }.call(), MpiCall::Waitall);
    }

    #[test]
    fn send_bytes_accounting() {
        assert_eq!(MpiOp::Send { to: 0, bytes: 7 }.send_bytes(4), 7);
        assert_eq!(MpiOp::Recv { from: 0, bytes: 7 }.send_bytes(4), 0);
        assert_eq!(MpiOp::Alltoall { bytes: 10 }.send_bytes(4), 30);
        assert_eq!(MpiOp::Barrier.send_bytes(4), 0);
    }

    #[test]
    fn from_id_inverts_id_for_every_variant() {
        for call in MpiCall::ALL {
            assert_eq!(MpiCall::from_id(call.id()), Some(call));
        }
        // Unassigned ids decode to None — the wire decoder depends on it.
        for id in [0u16, 15, 30, 33, 40, 42, 999, u16::MAX] {
            assert_eq!(MpiCall::from_id(id), None);
        }
    }

    #[test]
    fn names_are_mpi_style() {
        assert_eq!(MpiCall::Sendrecv.to_string(), "MPI_Sendrecv");
        assert_eq!(MpiCall::Allreduce.to_string(), "MPI_Allreduce");
    }
}
