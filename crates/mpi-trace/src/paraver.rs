//! Paraver-flavoured trace export.
//!
//! The paper's traces were captured and inspected with BSC's Paraver
//! toolchain (`.prv` text traces). This module writes our traces in a
//! simplified dialect of that format so they can be eyeballed with the
//! same mental model: a header line with the rank count, then one record
//! per line, sorted by time:
//!
//! ```text
//! #Paraver (ibpower): <duration_ns> ns, <nprocs> tasks
//! 1:<rank>:<start_ns>:<end_ns>:COMPUTE
//! 2:<rank>:<time_ns>:<mpi_call_id>:<call_name>
//! ```
//!
//! Record type 1 is a state record (computation burst); record type 2 is
//! an event record (MPI call entry, with the Paraver-style numeric id the
//! PPA hashes on — 41 = `MPI_Sendrecv`, 10 = `MPI_Allreduce`, …).
//!
//! The export uses *nominal* per-rank times (communication treated as
//! instantaneous), the same approximation the analysis pass uses; replays
//! produce the timing-accurate picture.

use crate::trace::Trace;
use std::fmt::Write as _;

/// Serialise `trace` to the simplified `.prv` dialect.
pub fn to_prv(trace: &Trace) -> String {
    let mut records: Vec<(u64, String)> = Vec::new();
    let mut horizon = 0u64;
    for rank in &trace.ranks {
        let mut t = 0u64;
        for (call, gap) in rank.call_stream() {
            let start = t;
            t += gap.as_ns();
            if gap.as_ns() > 0 {
                records.push((start, format!("1:{}:{}:{}:COMPUTE", rank.rank, start, t)));
            }
            records.push((
                t,
                format!("2:{}:{}:{}:{}", rank.rank, t, call.id(), call.name()),
            ));
        }
        t += rank.final_compute.as_ns();
        horizon = horizon.max(t);
    }
    records.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut out = format!(
        "#Paraver (ibpower): {} ns, {} tasks\n",
        horizon, trace.nprocs
    );
    for (_, line) in records {
        let _ = writeln!(out, "{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MpiOp;
    use crate::trace::TraceBuilder;
    use ibp_simcore::SimDuration;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("prv", 2);
        b.compute(0, SimDuration::from_us(10));
        b.op(
            0,
            MpiOp::Sendrecv {
                to: 1,
                send_bytes: 64,
                from: 1,
                recv_bytes: 64,
            },
        );
        b.compute(1, SimDuration::from_us(5));
        b.op(
            1,
            MpiOp::Sendrecv {
                to: 0,
                send_bytes: 64,
                from: 0,
                recv_bytes: 64,
            },
        );
        b.op(1, MpiOp::Allreduce { bytes: 8 });
        b.op(0, MpiOp::Allreduce { bytes: 8 });
        b.build()
    }

    #[test]
    fn header_reports_tasks_and_horizon() {
        let prv = to_prv(&sample());
        let header = prv.lines().next().unwrap();
        assert!(header.starts_with("#Paraver (ibpower):"));
        assert!(header.contains("2 tasks"));
        assert!(header.contains("10000 ns"));
    }

    #[test]
    fn events_use_paper_ids() {
        let prv = to_prv(&sample());
        assert!(prv.contains(":41:MPI_Sendrecv"));
        assert!(prv.contains(":10:MPI_Allreduce"));
    }

    #[test]
    fn records_sorted_by_time() {
        let prv = to_prv(&sample());
        let times: Vec<u64> = prv
            .lines()
            .skip(1)
            .map(|l| l.split(':').nth(2).unwrap().parse().unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn compute_states_cover_bursts() {
        let prv = to_prv(&sample());
        let states: Vec<&str> = prv.lines().filter(|l| l.starts_with("1:")).collect();
        assert_eq!(states.len(), 2);
        assert!(states.iter().any(|s| s.contains("1:0:0:10000:COMPUTE")));
        assert!(states.iter().any(|s| s.contains("1:1:0:5000:COMPUTE")));
    }

    #[test]
    fn zero_length_bursts_omitted() {
        let prv = to_prv(&sample());
        // Rank 0's second call follows the first immediately: no state
        // record of zero length may appear.
        assert!(!prv.contains(":10000:10000:COMPUTE"));
    }
}
