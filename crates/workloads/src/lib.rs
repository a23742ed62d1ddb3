//! # ibp-workloads — synthetic HPC application traces
//!
//! The paper evaluates on execution traces of five production HPC codes
//! (GROMACS, ALYA, WRF, NAS BT, NAS MG) captured on MareNostrum nodes.
//! Those traces are proprietary, so this crate generates synthetic traces
//! that reproduce each application's *communication structure*: the MPI
//! call mix, the gram/gap geometry the prediction algorithm feeds on
//! (Table I idle-interval distributions), the pattern (in)stability that
//! sets the hit rates of Table III, and strong-scaling behaviour across
//! the paper's process counts.
//!
//! Each generator is deterministic given a seed, SPMD-consistent across
//! ranks (collective schedules are shared), and produces traces that
//! [`ibp_trace::Trace::validate`] accepts — in particular, every
//! non-blocking request is completed and all point-to-point operations
//! pair up across ranks, which the replay engine in `ibp-network` relies
//! on.
//!
//! ```
//! use ibp_workloads::{AppKind, Scaling, Workload};
//!
//! let alya = AppKind::Alya.workload(Scaling::Strong);
//! let trace = alya.generate(8, 42);
//! assert_eq!(trace.nprocs, 8);
//! assert!(trace.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alya;
pub mod common;
pub mod gromacs;
pub mod nas_bt;
pub mod nas_mg;
pub mod spec;
pub mod wrf;

pub use alya::Alya;
pub use common::{GapModel, Scaling};
pub use gromacs::Gromacs;
pub use nas_bt::NasBt;
pub use nas_mg::NasMg;
pub use spec::{AppKind, Workload};
pub use wrf::Wrf;

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace layout's memory contract: a generated trace costs at
    /// most 16 heap bytes per event, columns and per-rank op tables
    /// included (12 B of columns plus the tables the request-id encoding
    /// keeps small), for every application at 64 ranks.
    #[test]
    fn generated_traces_cost_at_most_16_bytes_per_event() {
        for app in AppKind::ALL {
            let trace = app.workload(Scaling::Strong).generate(64, 7);
            let events = trace.total_calls();
            let per_event = trace.heap_bytes() as f64 / events as f64;
            assert!(
                per_event <= 16.0,
                "{}: {per_event:.2} B/event over {events} events",
                app.name()
            );
        }
    }

    /// Replay pairs collectives across ranks by position, so
    /// `Trace::validate` requires every rank to issue the same
    /// collectives in the same order: each application's full-length
    /// trace at its smallest paper scale, under both scalings, does.
    #[test]
    fn full_traces_validate_at_the_smallest_paper_scale() {
        for app in AppKind::ALL {
            for scaling in [Scaling::Strong, Scaling::Weak] {
                let w = app.workload(scaling);
                let n = w.paper_procs()[0];
                if let Err(e) = w.generate(n, 0xD1C0).validate() {
                    panic!("{} at {n} ({scaling:?}): {e}", app.name());
                }
            }
        }
    }
}
