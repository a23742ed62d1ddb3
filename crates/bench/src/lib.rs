//! Hot-path measurement for `ibpower bench-report`.
//!
//! [`hotpath`] times the paper-critical paths (PMPI interception, PPA
//! scan, trace replay, rank-parallel annotation, the GT sweep, the serve
//! round trip) with plain [`std::time::Instant`], so the CLI can emit
//! regression-trackable numbers without a benchmark harness.

pub mod hotpath;
