//! # ibp-trace — MPI traces and trace statistics
//!
//! The trace layer of the `ibpower` workspace (reproduction of Dickov et
//! al., ICPP 2014). It defines:
//!
//! * [`MpiCall`] / [`MpiOp`] — Paraver-style call ids and fully
//!   parameterised MPI operations (41 = `MPI_Sendrecv`,
//!   10 = `MPI_Allreduce`, matching the ids printed in the paper's Fig. 2);
//! * [`Trace`] / [`RankTrace`] / [`TraceBuilder`] — Dimemas-semantics
//!   traces: per rank, a sequence of *(compute burst, MPI op)* records,
//!   stored by column in [`EventColumns`];
//! * [`IdleDistribution`] — the idle-interval bucketing behind Table I;
//! * [`io`] — JSON (de)serialisation with validation;
//! * [`viz`] — Fig. 6-style ASCII timeline rendering.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod columns;
pub mod combine;
pub mod event;
pub mod io;
pub mod paraver;
pub mod profile;
pub mod stats;
pub mod trace;
pub mod viz;

pub use columns::EventColumns;
pub use combine::{combine, JobPlacement};
pub use event::{MpiCall, MpiOp, Rank, ReqId};
pub use io::TraceError;
pub use profile::{ActivityProfile, CallProfile, CommMatrix};
pub use stats::{IdleBucket, IdleDistribution};
pub use trace::{RankTrace, Trace, TraceBuilder, TraceEvent};
