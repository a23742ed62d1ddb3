//! Replay results and power/performance summaries.

use crate::fabric::FabricStats;
use crate::faults::FaultStats;
use crate::power::LinkPower;
use ibp_core::SleepKind;
use ibp_simcore::{SimDuration, SimTime, StateTimeline};

/// Outcome of one replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// End-to-end execution time (latest rank finish).
    pub exec_time: SimDuration,
    /// Per-rank finish times.
    pub rank_finish: Vec<SimTime>,
    /// Per-rank host-link time in each sleep depth, indexed by
    /// [`SleepKind`] (only WRPS under the paper's rung set).
    pub link_sleep: Vec<[SimDuration; 3]>,
    /// Per-rank host-link transition time.
    pub link_transition: Vec<SimDuration>,
    /// Per-rank sleep-window counts.
    pub link_sleeps: Vec<u64>,
    /// Optional per-rank link power timelines (Fig. 6 rendering).
    pub timelines: Option<Vec<StateTimeline<LinkPower>>>,
    /// Fabric traffic statistics.
    pub fabric: FabricStats,
    /// Relative draw of each sleep depth (from the parameters used),
    /// indexed by [`SleepKind`].
    pub sleep_power_fraction: [f64; 3],
    /// Fault-injection accounting (all zeros on a reliable fabric).
    pub faults: FaultStats,
}

impl SimResult {
    /// Number of ranks.
    #[must_use]
    pub fn nprocs(&self) -> usize {
        self.rank_finish.len()
    }

    /// Fraction of the run each rank's host link spent in sleep depth
    /// `kind`, averaged over ranks.
    #[must_use]
    pub fn mean_sleep_fraction(&self, kind: SleepKind) -> f64 {
        if self.exec_time.is_zero() || self.link_sleep.is_empty() {
            return 0.0;
        }
        let total = self.exec_time.as_secs_f64();
        self.link_sleep
            .iter()
            .map(|l| (l[kind as usize].as_secs_f64() / total).min(1.0))
            .sum::<f64>()
            / self.link_sleep.len() as f64
    }

    /// IB switch power saving (%) relative to always-on links — the
    /// paper's Figs. 7a/8a/9a metric: each port in a sleep state draws
    /// that state's fraction of nominal, so the saving sums
    /// `(1 − state fraction) × state-time share` over the three depths,
    /// averaged over the managed (host-facing) ports.
    #[must_use]
    pub fn power_saving_pct(&self) -> f64 {
        SleepKind::ALL
            .iter()
            .map(|&kind| {
                100.0
                    * (1.0 - self.sleep_power_fraction[kind as usize])
                    * self.mean_sleep_fraction(kind)
            })
            .sum()
    }

    /// Mean relative power draw of the managed links (1.0 = always-on).
    #[must_use]
    pub fn mean_relative_power(&self) -> f64 {
        1.0 - self.power_saving_pct() / 100.0
    }

    /// Execution-time increase (%) of this run relative to `baseline` —
    /// the paper's Figs. 7b/8b/9b metric.
    #[must_use]
    pub fn slowdown_pct(&self, baseline: &SimResult) -> f64 {
        let b = baseline.exec_time.as_secs_f64();
        if b == 0.0 {
            return 0.0;
        }
        100.0 * (self.exec_time.as_secs_f64() - b) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(exec_us: u64, low_us: &[u64]) -> SimResult {
        SimResult {
            exec_time: SimDuration::from_us(exec_us),
            rank_finish: low_us.iter().map(|_| SimTime::from_us(exec_us)).collect(),
            link_sleep: low_us
                .iter()
                .map(|&l| {
                    [
                        SimDuration::from_us(l),
                        SimDuration::ZERO,
                        SimDuration::ZERO,
                    ]
                })
                .collect(),
            link_transition: vec![SimDuration::ZERO; low_us.len()],
            link_sleeps: vec![0; low_us.len()],
            timelines: None,
            fabric: FabricStats::default(),
            sleep_power_fraction: [0.43, 0.25, 0.10],
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn power_saving_from_low_fraction() {
        // Both links low for half the run: saving = 57% × 0.5 = 28.5%.
        let r = result(1000, &[500, 500]);
        assert!((r.power_saving_pct() - 28.5).abs() < 1e-9);
        assert!((r.mean_relative_power() - 0.715).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_ranks_average() {
        let r = result(1000, &[1000, 0]);
        assert!((r.mean_sleep_fraction(SleepKind::Wrps) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn depth_savings_stack() {
        // One rank: 20% low, 30% rate, 40% deep.
        let mut r = result(1000, &[200]);
        r.link_sleep[0][SleepKind::Rate as usize] = SimDuration::from_us(300);
        r.link_sleep[0][SleepKind::Deep as usize] = SimDuration::from_us(400);
        let want = 100.0 * (0.2 * (1.0 - 0.43) + 0.3 * (1.0 - 0.25) + 0.4 * (1.0 - 0.10));
        assert!((r.power_saving_pct() - want).abs() < 1e-9);
    }

    #[test]
    fn slowdown_relative_to_baseline() {
        let base = result(1000, &[0]);
        let managed = result(1010, &[400]);
        assert!((managed.slowdown_pct(&base) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cases() {
        let r = result(0, &[0]);
        assert_eq!(r.power_saving_pct(), 0.0);
        assert_eq!(r.slowdown_pct(&r), 0.0);
    }
}
