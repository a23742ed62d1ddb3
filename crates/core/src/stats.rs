//! Per-rank statistics of the power-saving mechanism.
//!
//! These counters feed three of the paper's exhibits directly:
//!
//! * **Table III** — "MPI call hit rate": fraction of all MPI calls that
//!   arrived while prediction was active *and* matched the expectation;
//! * **Table IV** — PPA overheads: fraction of calls on which the PPA ran,
//!   mean overhead per invoking call, and overhead amortised over all
//!   calls;
//! * the quick power estimate used by GT sweeps (Fig. 10), where a full
//!   network replay per GT value would be wasteful.

use crate::SleepKind;
use ibp_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Counters accumulated by one rank's runtime.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RankStats {
    /// All MPI calls intercepted.
    pub total_calls: u64,
    /// Calls that arrived while prediction was active.
    pub predicted_calls: u64,
    /// Predicted calls that matched the expected pattern position.
    pub correct_calls: u64,
    /// Prediction aborts because the arriving call stream diverged from
    /// the declared pattern.
    pub pattern_mispredictions: u64,
    /// Lane reactivations that completed after the communication wanted
    /// to start (late wake-ups; the idle interval was shorter than
    /// predicted).
    pub timing_mispredictions: u64,
    /// Pattern declarations (fresh three-consecutive proofs).
    pub declarations: u64,
    /// Declarations that re-armed an already-detected pattern.
    pub rearms: u64,
    /// Calls on which the PPA did scanning work.
    pub ppa_invoked_calls: u64,
    /// Modelled PPA overhead accumulated across invocations.
    pub ppa_overhead: SimDuration,
    /// Modelled interception overhead (≈1 µs × total_calls).
    pub intercept_overhead: SimDuration,
    /// Lane-off directives issued.
    pub lane_off_count: u64,
    /// Nominal time spent in each sleep depth, indexed by [`SleepKind`].
    pub sleep_time: [SimDuration; 3],
    /// Total reactivation stall injected into this rank.
    pub total_penalty: SimDuration,
    /// Nominal (communication-free) duration of the rank's trace.
    pub nominal_duration: SimDuration,
    /// Misprediction storms detected by the resilience controller.
    #[serde(default)]
    pub storms: u64,
    /// Calls intercepted while prediction was held off after a storm.
    #[serde(default)]
    pub holdoff_calls: u64,
    /// Sleep directives withheld by the slowdown-budget guard.
    #[serde(default)]
    pub suppressed_directives: u64,
}

impl RankStats {
    /// Table III metric: correctly predicted MPI calls as a percentage of
    /// all MPI calls.
    pub fn hit_rate_pct(&self) -> f64 {
        if self.total_calls == 0 {
            0.0
        } else {
            100.0 * self.correct_calls as f64 / self.total_calls as f64
        }
    }

    /// Table IV column 1: percentage of MPI calls on which the PPA ran.
    pub fn ppa_invocation_pct(&self) -> f64 {
        if self.total_calls == 0 {
            0.0
        } else {
            100.0 * self.ppa_invoked_calls as f64 / self.total_calls as f64
        }
    }

    /// Table IV column 2: mean overhead per PPA-invoking call, in µs.
    pub fn overhead_per_invoked_call_us(&self) -> f64 {
        if self.ppa_invoked_calls == 0 {
            0.0
        } else {
            self.ppa_overhead.as_us_f64() / self.ppa_invoked_calls as f64
        }
    }

    /// Table IV column 3: total mechanism overhead amortised over all MPI
    /// calls (interception + PPA), in µs.
    pub fn overhead_per_call_us(&self) -> f64 {
        if self.total_calls == 0 {
            0.0
        } else {
            (self.ppa_overhead + self.intercept_overhead).as_us_f64() / self.total_calls as f64
        }
    }

    /// Fraction of the rank's nominal duration spent in WRPS low-power
    /// mode.
    pub fn low_power_fraction(&self) -> f64 {
        let total = self.nominal_duration.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            (self.sleep_time[SleepKind::Wrps as usize].as_secs_f64() / total).min(1.0)
        }
    }

    /// Quick estimate of the link power saving (%), without a network
    /// replay: `(1 − low_power_fraction_draw) × low-power time share`.
    pub fn est_power_saving_pct(&self, low_power_draw: f64) -> f64 {
        100.0 * (1.0 - low_power_draw) * self.low_power_fraction()
    }

    /// Merge another rank's counters into an aggregate.
    pub fn merge(&mut self, other: &RankStats) {
        self.total_calls += other.total_calls;
        self.predicted_calls += other.predicted_calls;
        self.correct_calls += other.correct_calls;
        self.pattern_mispredictions += other.pattern_mispredictions;
        self.timing_mispredictions += other.timing_mispredictions;
        self.declarations += other.declarations;
        self.rearms += other.rearms;
        self.ppa_invoked_calls += other.ppa_invoked_calls;
        self.ppa_overhead += other.ppa_overhead;
        self.intercept_overhead += other.intercept_overhead;
        self.lane_off_count += other.lane_off_count;
        for (mine, theirs) in self.sleep_time.iter_mut().zip(other.sleep_time) {
            *mine += theirs;
        }
        self.total_penalty += other.total_penalty;
        self.nominal_duration += other.nominal_duration;
        self.storms += other.storms;
        self.holdoff_calls += other.holdoff_calls;
        self.suppressed_directives += other.suppressed_directives;
    }

    /// Total mechanism-added time: interception + PPA overheads plus all
    /// reactivation stalls. This is what the resilience controller's
    /// slowdown budget bounds against [`RankStats::nominal_duration`].
    pub fn mechanism_added_time(&self) -> SimDuration {
        self.intercept_overhead + self.ppa_overhead + self.total_penalty
    }

    /// Mechanism-added time as a percentage of the nominal duration (an
    /// upper bound on this rank's slowdown; overlap can only hide cost).
    pub fn added_time_pct(&self) -> f64 {
        let total = self.nominal_duration.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.mechanism_added_time().as_secs_f64() / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RankStats {
        RankStats {
            total_calls: 1000,
            predicted_calls: 800,
            correct_calls: 780,
            ppa_invoked_calls: 40,
            ppa_overhead: SimDuration::from_us(600),
            intercept_overhead: SimDuration::from_us(1000),
            sleep_time: [
                SimDuration::from_ms(570),
                SimDuration::ZERO,
                SimDuration::ZERO,
            ],
            nominal_duration: SimDuration::from_secs(1),
            ..RankStats::default()
        }
    }

    #[test]
    fn hit_rate() {
        assert!((sample().hit_rate_pct() - 78.0).abs() < 1e-12);
        assert_eq!(RankStats::default().hit_rate_pct(), 0.0);
    }

    #[test]
    fn table4_metrics() {
        let s = sample();
        assert!((s.ppa_invocation_pct() - 4.0).abs() < 1e-12);
        assert!((s.overhead_per_invoked_call_us() - 15.0).abs() < 1e-12);
        // (600 + 1000) µs over 1000 calls = 1.6 µs/call.
        assert!((s.overhead_per_call_us() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn power_estimate() {
        let s = sample();
        assert!((s.low_power_fraction() - 0.57).abs() < 1e-12);
        // 57% of time in low power at 43% draw → 0.57 * 0.57 = 32.49%.
        assert!((s.est_power_saving_pct(0.43) - 32.49).abs() < 1e-10);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total_calls, 2000);
        assert_eq!(a.ppa_overhead, SimDuration::from_us(1200));
        assert!((a.hit_rate_pct() - 78.0).abs() < 1e-12, "ratios preserved");
    }

    #[test]
    fn low_power_fraction_clamped() {
        let s = RankStats {
            sleep_time: [
                SimDuration::from_secs(2),
                SimDuration::ZERO,
                SimDuration::ZERO,
            ],
            nominal_duration: SimDuration::from_secs(1),
            ..RankStats::default()
        };
        assert_eq!(s.low_power_fraction(), 1.0);
    }
}
