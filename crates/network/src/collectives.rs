//! Decomposition of MPI collectives into point-to-point exchanges.
//!
//! Dimemas replays collectives with structured point-to-point phases; we
//! do the same so collective traffic exercises the fabric (and feels
//! contention) like any other traffic:
//!
//! * `Bcast` / `Reduce` — binomial trees (⌈log₂ n⌉ rounds);
//! * `Allreduce` / `Barrier` — binomial reduce to rank 0 + binomial
//!   broadcast (works for any process count);
//! * `Allgather` — ring (n−1 rounds, each passing one block);
//! * `Alltoall` — n−1 rounds of pairwise shifted exchange.
//!
//! Every rank executes the micro-op sequence [`for_each_micro`] streams
//! for it; matching per (src, dst) pair is FIFO, and because all ranks
//! derive their sequences from the same deterministic schedule, sends
//! and receives pair up exactly.

use ibp_trace::{MpiOp, Rank};

/// One primitive network action of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Inject a message (non-blocking at this level; the sender is busy
    /// only for the injection time).
    SendTo {
        /// Destination rank.
        to: Rank,
        /// Payload bytes.
        bytes: u64,
    },
    /// Block until the matching message arrives.
    RecvFrom {
        /// Source rank.
        from: Rank,
        /// Payload bytes (bookkeeping only; timing is set by the send).
        bytes: u64,
    },
}

/// Stream the binomial-tree *reduce* (toward `root`) micro-ops for `me`.
fn reduce_tree(me: Rank, root: Rank, n: u32, bytes: u64, sink: &mut impl FnMut(MicroOp)) {
    let v = (me + n - root) % n; // virtual rank with root at 0
    let mut mask: u32 = 1;
    while mask < n {
        if v & mask != 0 {
            let peer = ((v - mask) + root) % n;
            sink(MicroOp::SendTo { to: peer, bytes });
            return; // contribution sent; done
        }
        if v + mask < n {
            let peer = ((v + mask) + root) % n;
            sink(MicroOp::RecvFrom { from: peer, bytes });
        }
        mask <<= 1;
    }
}

/// Stream the binomial-tree *broadcast* (from `root`) micro-ops for `me`.
fn bcast_tree(me: Rank, root: Rank, n: u32, bytes: u64, sink: &mut impl FnMut(MicroOp)) {
    let v = (me + n - root) % n;
    // Receive from the parent (unless root).
    let mut mask: u32 = 1;
    while mask < n {
        if v & mask != 0 {
            let peer = ((v - mask) + root) % n;
            sink(MicroOp::RecvFrom { from: peer, bytes });
            break;
        }
        mask <<= 1;
    }
    // Forward to children, highest bit first (mirror of the search above).
    let mut mask = if mask >= n {
        // me == root (no set bit found below n): start from the top.
        let mut m: u32 = 1;
        while m < n {
            m <<= 1;
        }
        m >> 1
    } else {
        mask >> 1
    };
    while mask > 0 {
        if v + mask < n && v & mask == 0 {
            let peer = ((v + mask) + root) % n;
            sink(MicroOp::SendTo { to: peer, bytes });
        }
        mask >>= 1;
    }
}

/// Stream the micro-ops rank `me` of `n` executes for a collective into
/// `sink`, in execution order, without allocating.
///
/// This is the engine-facing form: the replay engine walks it once per
/// (collective, root, nprocs) to build the schedule it memoizes, so no
/// temporary vector is built per event.
///
/// Point-to-point and request-based operations are not handled here (the
/// replay engine executes them directly); calling this with one emits
/// nothing.
pub fn for_each_micro(op: &MpiOp, me: Rank, n: u32, sink: &mut impl FnMut(MicroOp)) {
    match *op {
        MpiOp::Barrier => {
            // 1-byte allreduce.
            reduce_tree(me, 0, n, 1, sink);
            bcast_tree(me, 0, n, 1, sink);
        }
        MpiOp::Allreduce { bytes } => {
            reduce_tree(me, 0, n, bytes, sink);
            bcast_tree(me, 0, n, bytes, sink);
        }
        MpiOp::Bcast { root, bytes } => bcast_tree(me, root, n, bytes, sink),
        MpiOp::Reduce { root, bytes } => reduce_tree(me, root, n, bytes, sink),
        MpiOp::Allgather { bytes } => {
            // Ring: n−1 rounds, each forwarding one block.
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            for _ in 0..n.saturating_sub(1) {
                sink(MicroOp::SendTo { to: right, bytes });
                sink(MicroOp::RecvFrom { from: left, bytes });
            }
        }
        MpiOp::Alltoall { bytes } => {
            // Pairwise shifted exchange.
            for k in 1..n {
                let to = (me + k) % n;
                let from = (me + n - k) % n;
                sink(MicroOp::SendTo { to, bytes });
                sink(MicroOp::RecvFrom { from, bytes });
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The micro-ops rank `me` of `n` executes for `op`, in order.
    fn decompose(op: &MpiOp, me: Rank, n: u32) -> Vec<MicroOp> {
        let mut out = Vec::new();
        for_each_micro(op, me, n, &mut |m| out.push(m));
        out
    }

    /// Simulate the matching of all ranks' micro-op streams: every send
    /// must pair with exactly one receive on the destination, FIFO per
    /// (src, dst).
    fn check_matching(op: &MpiOp, n: u32) {
        use std::collections::HashMap;
        let mut sends: HashMap<(Rank, Rank), u64> = HashMap::new();
        let mut recvs: HashMap<(Rank, Rank), u64> = HashMap::new();
        for me in 0..n {
            for m in decompose(op, me, n) {
                match m {
                    MicroOp::SendTo { to, .. } => {
                        assert_ne!(to, me, "self-send in collective");
                        assert!(to < n);
                        *sends.entry((me, to)).or_default() += 1;
                    }
                    MicroOp::RecvFrom { from, .. } => {
                        assert_ne!(from, me, "self-recv in collective");
                        assert!(from < n);
                        *recvs.entry((from, me)).or_default() += 1;
                    }
                }
            }
        }
        assert_eq!(
            sends, recvs,
            "sends and recvs must pair up for {op:?} n={n}"
        );
    }

    #[test]
    fn allreduce_matches_at_all_counts() {
        for n in [2, 3, 4, 5, 7, 8, 9, 16, 36, 100, 128] {
            check_matching(&MpiOp::Allreduce { bytes: 8 }, n);
        }
    }

    #[test]
    fn barrier_matches() {
        for n in [2, 3, 8, 13, 64] {
            check_matching(&MpiOp::Barrier, n);
        }
    }

    #[test]
    fn bcast_and_reduce_match_with_nonzero_root() {
        for n in [2, 5, 8, 100] {
            for root in [0, 1, n - 1] {
                check_matching(&MpiOp::Bcast { root, bytes: 100 }, n);
                check_matching(&MpiOp::Reduce { root, bytes: 100 }, n);
            }
        }
    }

    #[test]
    fn allgather_and_alltoall_match() {
        for n in [2, 3, 8, 17] {
            check_matching(&MpiOp::Allgather { bytes: 64 }, n);
            check_matching(&MpiOp::Alltoall { bytes: 64 }, n);
        }
    }

    #[test]
    fn bcast_root_only_sends() {
        let ops = decompose(&MpiOp::Bcast { root: 3, bytes: 10 }, 3, 8);
        assert!(ops.iter().all(|m| matches!(m, MicroOp::SendTo { .. })));
        assert!(!ops.is_empty());
    }

    #[test]
    fn reduce_leaf_only_sends_once() {
        // In an 8-rank binomial reduce to 0, odd ranks send immediately.
        let ops = decompose(&MpiOp::Reduce { root: 0, bytes: 10 }, 5, 8);
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], MicroOp::SendTo { to: 4, .. }));
    }

    #[test]
    fn alltoall_covers_all_peers() {
        let ops = decompose(&MpiOp::Alltoall { bytes: 4 }, 2, 6);
        let sends: Vec<Rank> = ops
            .iter()
            .filter_map(|m| match m {
                MicroOp::SendTo { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        let mut expect: Vec<Rank> = (0..6).filter(|&r| r != 2).collect();
        let mut got = sends.clone();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn p2p_ops_decompose_to_nothing() {
        assert!(decompose(&MpiOp::Send { to: 1, bytes: 5 }, 0, 4).is_empty());
        assert!(decompose(&MpiOp::Wait { req: 0 }, 0, 4).is_empty());
    }

    #[test]
    fn two_rank_allreduce_is_one_exchange() {
        let a = decompose(&MpiOp::Allreduce { bytes: 8 }, 0, 2);
        let b = decompose(&MpiOp::Allreduce { bytes: 8 }, 1, 2);
        // Rank 1 sends its contribution, rank 0 reduces and sends back.
        assert_eq!(
            a,
            vec![
                MicroOp::RecvFrom { from: 1, bytes: 8 },
                MicroOp::SendTo { to: 1, bytes: 8 }
            ]
        );
        assert_eq!(
            b,
            vec![
                MicroOp::SendTo { to: 0, bytes: 8 },
                MicroOp::RecvFrom { from: 0, bytes: 8 }
            ]
        );
    }
}
