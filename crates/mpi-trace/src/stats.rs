//! Idle-interval statistics — the machinery behind the paper's Table I.
//!
//! With one MPI process per node (the paper's configuration), a node's
//! InfiniBand link is idle exactly while its process computes between MPI
//! calls. Table I of the paper buckets those *link idle intervals* into
//! `< 20 µs`, `20–200 µs` and `> 200 µs` (20 µs = 2·T_react being the
//! minimum exploitable interval) and reports, per bucket: the interval
//! count, the percentage of intervals, and the percentage of accumulated
//! idle time.

use crate::trace::Trace;
use ibp_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Default lower edge: intervals below `2·T_react = 20 µs` cannot be
/// exploited (lane off+on costs more than the interval).
pub const SHORT_EDGE_US: f64 = 20.0;
/// Default upper edge: the paper singles out `> 200 µs` as the intervals
/// where "significant power can be saved".
pub const LONG_EDGE_US: f64 = 200.0;

/// One bucket row of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdleBucket {
    /// Number of idle intervals in the bucket.
    pub intervals: u64,
    /// Share of the interval *count*, in percent.
    pub interval_pct: f64,
    /// Share of accumulated idle *time*, in percent.
    pub time_pct: f64,
}

/// The idle-interval distribution of one application trace — one Table I
/// row group (three buckets).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdleDistribution {
    /// `T_idle < short_edge` — unusable intervals.
    pub short: IdleBucket,
    /// `short_edge ≤ T_idle < long_edge` — exploitable, modest savings.
    pub medium: IdleBucket,
    /// `T_idle ≥ long_edge` — exploitable, large savings.
    pub long: IdleBucket,
    /// Bucket edges used, in microseconds.
    pub edges_us: (f64, f64),
    /// Total accumulated idle time across all ranks.
    pub total_idle: SimDuration,
    /// Total number of intervals observed.
    pub total_intervals: u64,
}

impl IdleDistribution {
    /// Compute the distribution over every inter-communication interval of
    /// every rank in `trace`, using the paper's 20/200 µs edges.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_trace_with_edges(trace, SHORT_EDGE_US, LONG_EDGE_US)
    }

    /// Compute the distribution with custom bucket edges (µs).
    ///
    /// # Panics
    /// Panics if `short_us >= long_us`.
    pub fn from_trace_with_edges(trace: &Trace, short_us: f64, long_us: f64) -> Self {
        assert!(short_us < long_us, "bucket edges must be increasing");
        Self::from_intervals(
            trace
                .ranks
                .iter()
                .flat_map(|r| r.events.compute().iter().copied()),
            short_us,
            long_us,
        )
    }

    /// Compute the distribution from raw idle intervals.
    pub fn from_intervals(
        intervals: impl IntoIterator<Item = SimDuration>,
        short_us: f64,
        long_us: f64,
    ) -> Self {
        let mut counts = [0u64; 3];
        let mut sums = [0f64; 3]; // in µs
        for iv in intervals {
            // Zero-length gaps (back-to-back MPI calls) are not link idle
            // intervals at all; the link never went quiet.
            if iv.is_zero() {
                continue;
            }
            let us = iv.as_us_f64();
            let b = if us < short_us {
                0
            } else if us < long_us {
                1
            } else {
                2
            };
            counts[b] += 1;
            sums[b] += us;
        }
        let total_n: u64 = counts.iter().sum();
        let total_t: f64 = sums.iter().sum();
        let bucket = |i: usize| IdleBucket {
            intervals: counts[i],
            interval_pct: if total_n == 0 {
                0.0
            } else {
                100.0 * counts[i] as f64 / total_n as f64
            },
            time_pct: if total_t == 0.0 {
                0.0
            } else {
                100.0 * sums[i] / total_t
            },
        };
        IdleDistribution {
            short: bucket(0),
            medium: bucket(1),
            long: bucket(2),
            edges_us: (short_us, long_us),
            total_idle: SimDuration::from_us_f64(total_t),
            total_intervals: total_n,
        }
    }

    /// Percentage of accumulated idle time that is exploitable
    /// (`T_idle ≥ 2·T_react`, i.e. medium + long buckets).
    pub fn exploitable_time_pct(&self) -> f64 {
        self.medium.time_pct + self.long.time_pct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MpiOp;
    use crate::trace::TraceBuilder;

    fn iv(us: u64) -> SimDuration {
        SimDuration::from_us(us)
    }

    #[test]
    fn buckets_split_at_edges() {
        let d = IdleDistribution::from_intervals(
            vec![iv(5), iv(19), iv(20), iv(199), iv(200), iv(10_000)],
            20.0,
            200.0,
        );
        assert_eq!(d.short.intervals, 2);
        assert_eq!(d.medium.intervals, 2);
        assert_eq!(d.long.intervals, 2);
        assert_eq!(d.total_intervals, 6);
    }

    #[test]
    fn zero_intervals_are_skipped() {
        let d = IdleDistribution::from_intervals(vec![SimDuration::ZERO, iv(50)], 20.0, 200.0);
        assert_eq!(d.total_intervals, 1);
        assert_eq!(d.medium.intervals, 1);
    }

    #[test]
    fn percentages_sum_to_100() {
        let d =
            IdleDistribution::from_intervals((1..100).map(|i| iv(i * 7 % 400 + 1)), 20.0, 200.0);
        let n = d.short.interval_pct + d.medium.interval_pct + d.long.interval_pct;
        let t = d.short.time_pct + d.medium.time_pct + d.long.time_pct;
        assert!((n - 100.0).abs() < 1e-9);
        assert!((t - 100.0).abs() < 1e-9);
    }

    #[test]
    fn long_intervals_dominate_time_share() {
        // The paper's key observation: even when tiny intervals dominate the
        // count (WRF: 94% of intervals), the long ones dominate the time
        // (>97% of idle time).
        let mut intervals: Vec<SimDuration> = (0..9_400).map(|_| iv(2)).collect();
        intervals.extend((0..600).map(|_| SimDuration::from_ms(5)));
        let d = IdleDistribution::from_intervals(intervals, 20.0, 200.0);
        assert!(d.short.interval_pct > 90.0);
        assert!(d.long.time_pct > 97.0);
        assert!(d.exploitable_time_pct() > 97.0);
    }

    #[test]
    fn from_trace_uses_compute_gaps() {
        let mut b = TraceBuilder::new("t", 1);
        b.compute(0, iv(100));
        b.op(0, MpiOp::Barrier);
        b.compute(0, iv(10));
        b.op(0, MpiOp::Barrier);
        b.op(0, MpiOp::Barrier); // zero gap, skipped
        let d = IdleDistribution::from_trace(&b.build());
        assert_eq!(d.total_intervals, 2);
        assert_eq!(d.short.intervals, 1);
        assert_eq!(d.medium.intervals, 1);
        assert_eq!(d.total_idle, iv(110));
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let d = IdleDistribution::from_trace(&TraceBuilder::new("e", 2).build());
        assert_eq!(d.total_intervals, 0);
        assert_eq!(d.short.interval_pct, 0.0);
        assert_eq!(d.exploitable_time_pct(), 0.0);
    }
}
