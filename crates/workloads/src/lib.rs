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
