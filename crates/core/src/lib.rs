//! # ibp-core — the paper's contribution
//!
//! Rust implementation of the software-managed InfiniBand link power
//! reduction mechanism of *Dickov et al., ICPP 2014*:
//!
//! * [`gram`] — **Algorithm 1**: grouping of MPI calls into grams by the
//!   grouping threshold GT;
//! * [`ppa`] — **Algorithm 2**: the n-gram Pattern Prediction Algorithm
//!   that detects continuously repeating gram patterns (validated against
//!   the paper's Fig. 3 walk-through);
//! * [`runtime`] — the PMPI-style interception loop and **Algorithm 3**,
//!   the power-mode controller that programs lane-off timers with a
//!   displacement-factor safety margin and handles both misprediction
//!   kinds (pattern break, late reactivation);
//! * [`annotate`] — whole-trace application, producing the lane
//!   directives / overheads / penalties that `ibp-network` replays;
//! * [`stats`] — hit-rate and overhead accounting (Tables III & IV).
//!
//! ## Quickstart
//!
//! ```
//! use ibp_core::{PowerConfig, RankRuntime};
//! use ibp_simcore::SimDuration;
//! use ibp_trace::MpiCall::{Allreduce, Sendrecv};
//!
//! let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.10);
//! let mut rt = RankRuntime::new(0, cfg);
//! // Feed the Fig. 2 Alya stream: three Sendrecvs back-to-back, then two
//! // Allreduces after long compute phases, repeated every iteration.
//! for iter in 0..6 {
//!     let lead = if iter == 0 { SimDuration::ZERO } else { SimDuration::from_us(300) };
//!     rt.intercept(Sendrecv, lead);
//!     rt.intercept(Sendrecv, SimDuration::from_us(2));
//!     rt.intercept(Sendrecv, SimDuration::from_us(3));
//!     rt.intercept(Allreduce, SimDuration::from_us(300));
//!     rt.intercept(Allreduce, SimDuration::from_us(300));
//! }
//! assert!(rt.predicting(), "pattern 41-41-41,10,10 declared (Fig. 3)");
//! ```

#![warn(missing_docs)]
#![warn(clippy::perf)]
#![forbid(unsafe_code)]

pub mod annotate;
pub mod baselines;
pub mod config;
pub mod gram;
pub mod pattern;
pub mod ppa;
pub mod runtime;
pub mod snapshot;
pub mod stats;

pub use annotate::{
    annotate_trace, annotate_trace_jobs, effective_jobs, map_ordered, map_ranks, TraceAnnotations,
    SERIAL_CUTOVER_EVENTS,
};
pub use baselines::{history_annotate_rank, oracle_annotate_rank, reactive_annotate_rank};
pub use config::{PowerConfig, ResilienceConfig, SleepKind, SleepRungs};
pub use gram::{Gram, GramBuilder, GramId, GramInterner};
pub use pattern::{
    OccurrenceWindow, PatternEntry, PatternId, PatternInterner, PatternList, PatternUpdate,
    RunningMean, DEFAULT_OCCURRENCE_WINDOW,
};
pub use ppa::{Declaration, Ppa};
pub use runtime::{
    annotate_rank, DirectiveDigest, EventOutcome, LaneDirective, RankAnnotation, RankRuntime,
};
pub use snapshot::{RuntimeSnapshot, SnapshotError, SNAPSHOT_VERSION};
pub use stats::RankStats;
