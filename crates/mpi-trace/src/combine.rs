//! Multi-job trace composition.
//!
//! A production fabric rarely runs one application: several jobs share
//! the switches (and, under random up/down routing, the top-level
//! channels). [`combine`] merges independent application traces into one
//! fabric-wide trace with disjoint rank ranges — the replay engine then
//! simulates them concurrently, contention and all, and per-link power
//! management applies to every job's host links.
//!
//! Ranks are remapped by job offset; since jobs never communicate with
//! each other, the combined trace is consistent iff each input was.

use crate::event::{MpiCall, MpiOp};
use crate::trace::Trace;

/// Remap every rank reference in an operation by `offset`.
fn offset_op(op: &MpiOp, offset: u32) -> MpiOp {
    match *op {
        MpiOp::Send { to, bytes } => MpiOp::Send {
            to: to + offset,
            bytes,
        },
        MpiOp::Recv { from, bytes } => MpiOp::Recv {
            from: from + offset,
            bytes,
        },
        MpiOp::Isend { to, bytes, req } => MpiOp::Isend {
            to: to + offset,
            bytes,
            req,
        },
        MpiOp::Irecv { from, bytes, req } => MpiOp::Irecv {
            from: from + offset,
            bytes,
            req,
        },
        MpiOp::Sendrecv {
            to,
            send_bytes,
            from,
            recv_bytes,
        } => MpiOp::Sendrecv {
            to: to + offset,
            send_bytes,
            from: from + offset,
            recv_bytes,
        },
        MpiOp::Bcast { root, bytes } => MpiOp::Bcast {
            root: root + offset,
            bytes,
        },
        MpiOp::Reduce { root, bytes } => MpiOp::Reduce {
            root: root + offset,
            bytes,
        },
        ref other => other.clone(),
    }
}

/// The placement of one job inside a combined trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPlacement {
    /// First fabric-wide rank of the job.
    pub first_rank: u32,
    /// Number of ranks.
    pub nprocs: u32,
}

/// Merge independent job traces into one fabric-wide trace. Returns the
/// combined trace and each job's placement, in input order.
///
/// **Caveat**: collectives in each job remain *job-local* only for
/// point-to-point-decomposable semantics — which holds here because the
/// replay engine decomposes every collective into point-to-point
/// messages among the ranks the operation names. Barrier/Allreduce/
/// Allgather/Alltoall operate on "all ranks of the communicator"; after
/// combination that would be the whole fabric, which is wrong, so
/// `combine` *rejects* traces containing whole-communicator collectives
/// unless the job is placed alone.
pub fn combine(jobs: &[&Trace]) -> Result<(Trace, Vec<JobPlacement>), String> {
    for (j, t) in jobs.iter().enumerate() {
        if jobs.len() > 1 {
            if let Some(op) = first_global_collective(t) {
                return Err(format!(
                    "job {j} ('{}') uses whole-communicator collective {op}; \
                     it cannot be combined with other jobs",
                    t.name
                ));
            }
        }
    }
    let total: u32 = jobs.iter().map(|t| t.nprocs).sum();
    let name = jobs
        .iter()
        .map(|t| t.name.as_str())
        .collect::<Vec<_>>()
        .join("+");
    let mut combined = Trace::new(name, total);
    let mut placements = Vec::with_capacity(jobs.len());
    let mut offset = 0u32;
    for t in jobs {
        placements.push(JobPlacement {
            first_rank: offset,
            nprocs: t.nprocs,
        });
        for (r, rank_trace) in t.ranks.iter().enumerate() {
            let dst = &mut combined.ranks[offset as usize + r];
            dst.final_compute = rank_trace.final_compute;
            dst.events = rank_trace
                .events
                .iter()
                .map(|e| crate::trace::TraceEvent {
                    compute_before: e.compute_before,
                    op: offset_op(&e.op, offset),
                })
                .collect();
        }
        offset += t.nprocs;
    }
    combined.validate()?;
    Ok((combined, placements))
}

fn first_global_collective(trace: &Trace) -> Option<&'static str> {
    for r in &trace.ranks {
        for call in r.events.calls() {
            match call {
                MpiCall::Barrier => return Some("MPI_Barrier"),
                MpiCall::Allreduce => return Some("MPI_Allreduce"),
                MpiCall::Allgather => return Some("MPI_Allgather"),
                MpiCall::Alltoall => return Some("MPI_Alltoall"),
                MpiCall::Bcast | MpiCall::Reduce => {
                    // Rooted collectives decompose over the ranks the
                    // tree names — also whole-communicator. Reject.
                    return Some("rooted collective");
                }
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use ibp_simcore::SimDuration;

    fn p2p_job(name: &str, nprocs: u32, bytes: u64) -> Trace {
        let mut b = TraceBuilder::new(name, nprocs);
        for it in 0..5 {
            let _ = it;
            for r in 0..nprocs {
                b.compute(r, SimDuration::from_us(100));
                b.op(
                    r,
                    MpiOp::Sendrecv {
                        to: (r + 1) % nprocs,
                        send_bytes: bytes,
                        from: (r + nprocs - 1) % nprocs,
                        recv_bytes: bytes,
                    },
                );
            }
        }
        b.build()
    }

    #[test]
    fn combines_disjoint_jobs() {
        let a = p2p_job("a", 4, 1024);
        let b = p2p_job("b", 6, 2048);
        let (t, places) = combine(&[&a, &b]).unwrap();
        assert_eq!(t.nprocs, 10);
        assert_eq!(t.name, "a+b");
        assert_eq!(
            places,
            vec![
                JobPlacement {
                    first_rank: 0,
                    nprocs: 4
                },
                JobPlacement {
                    first_rank: 4,
                    nprocs: 6
                }
            ]
        );
        t.validate().unwrap();
        // Job b's ring is shifted: rank 4 talks to 5 and 9.
        match &t.ranks[4].events.iter().next().unwrap().op {
            MpiOp::Sendrecv { to, from, .. } => {
                assert_eq!(*to, 5);
                assert_eq!(*from, 9);
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn rejects_global_collectives_in_multi_job() {
        let mut b = TraceBuilder::new("coll", 2);
        b.op(0, MpiOp::Allreduce { bytes: 8 });
        b.op(1, MpiOp::Allreduce { bytes: 8 });
        let coll = b.build();
        let p2p = p2p_job("p", 2, 64);
        let err = combine(&[&coll, &p2p]).unwrap_err();
        assert!(err.contains("MPI_Allreduce"), "{err}");
    }

    #[test]
    fn single_job_with_collectives_is_fine() {
        let mut b = TraceBuilder::new("coll", 2);
        b.op(0, MpiOp::Allreduce { bytes: 8 });
        b.op(1, MpiOp::Allreduce { bytes: 8 });
        let coll = b.build();
        let (t, _) = combine(&[&coll]).unwrap();
        assert_eq!(t.nprocs, 2);
    }

    #[test]
    fn nonblocking_requests_survive_combination() {
        let mut b = TraceBuilder::new("nb", 2);
        let r0 = b.irecv(0, 1, 512);
        b.op(0, MpiOp::Wait { req: r0 });
        b.op(1, MpiOp::Send { to: 0, bytes: 512 });
        let nb = b.build();
        let other = p2p_job("p", 3, 64);
        let (t, places) = combine(&[&other, &nb]).unwrap();
        t.validate().unwrap();
        assert_eq!(places[1].first_rank, 3);
        match &t.ranks[3].events.iter().next().unwrap().op {
            MpiOp::Irecv { from, .. } => assert_eq!(*from, 4),
            other => panic!("unexpected {other:?}"),
        }
    }
}
