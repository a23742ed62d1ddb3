//! Component-level switch power model.
//!
//! The paper cites Wang, Peh & Malik's router power characterisation
//! (\[19\] in the paper) and two anchor facts: links take ~64% of an IB
//! switch's power (IBM 12X switch, \[4\]) and a Mellanox SX6036 under WRPS
//! on all ports draws 43% of nominal (\[11\]). This module turns those into
//! an explicit component breakdown so whole-switch (not just per-port)
//! power can be reported, and so the §VI deep-sleep extension has a
//! physical basis (buffers + crossbar are what deep sleep turns off).
//!
//! Default breakdown of a nominal switch:
//!
//! | component | share | scaled off by |
//! |---|---|---|
//! | link PHYs (per port)     | 64% | WRPS and rate reduction (per-port, to the depth's draw) |
//! | input buffers (per port) | 18% | deep sleep |
//! | crossbar                 | 12% | deep sleep |
//! | arbitration/control      |  6% | never (keeps the switch reachable) |
//!
//! Per-port figures divide the per-port shares by the port count. The
//! per-depth link draws are not part of the model: a report reads them
//! from the replay result it scores ([`SimResult::sleep_power_fraction`],
//! the draws the replay accounted with), so they live only in
//! [`crate::SimParams`].

use crate::results::SimResult;
use ibp_core::SleepKind;
use ibp_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Power breakdown of one switch, in watts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchPowerModel {
    /// Number of ports.
    pub ports: u32,
    /// Nominal whole-switch power, W.
    pub nominal_w: f64,
    /// Fraction of nominal going to link PHYs (all ports together).
    pub link_share: f64,
    /// Fraction going to input buffers (all ports together).
    pub buffer_share: f64,
    /// Fraction going to the crossbar.
    pub crossbar_share: f64,
    /// Fraction going to arbitration/control (never powered down).
    pub control_share: f64,
}

impl Default for SwitchPowerModel {
    /// A 36-port QDR edge switch (SX6036-class): ~130 W nominal with the
    /// 64% link share of the paper's \[4\].
    fn default() -> Self {
        SwitchPowerModel {
            ports: 36,
            nominal_w: 130.0,
            link_share: 0.64,
            buffer_share: 0.18,
            crossbar_share: 0.12,
            control_share: 0.06,
        }
    }
}

/// Whole-switch power summary over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchPowerReport {
    /// Mean whole-switch power with management active, W.
    pub managed_w: f64,
    /// Nominal (always-on) power, W.
    pub nominal_w: f64,
    /// Whole-switch saving, %.
    pub switch_saving_pct: f64,
    /// Saving counting only the managed (host-facing) ports, % — the
    /// paper's Figs. 7–9 metric.
    pub port_saving_pct: f64,
    /// Energy consumed over the run, J.
    pub energy_j: f64,
    /// Energy an always-on switch would have consumed, J.
    pub nominal_energy_j: f64,
}

impl SwitchPowerModel {
    /// Validate the share decomposition. Returns a message naming the
    /// offending field (the `PowerConfig::validate` convention) rather
    /// than panicking, so hostile or fat-fingered model files surface as
    /// CLI errors instead of aborts. Float range checks double as NaN
    /// rejection.
    pub fn validate(&self) -> Result<(), String> {
        let sum = self.link_share + self.buffer_share + self.crossbar_share + self.control_share;
        if (sum - 1.0).abs() >= 1e-9 || sum.is_nan() {
            return Err(format!("component shares must sum to 1, got {sum}"));
        }
        let shares = [
            ("link_share", self.link_share),
            ("buffer_share", self.buffer_share),
            ("crossbar_share", self.crossbar_share),
            ("control_share", self.control_share),
        ];
        for (name, s) in shares {
            if !(0.0..=1.0).contains(&s) {
                return Err(format!("{name} must be in [0, 1], got {s}"));
            }
        }
        if self.ports == 0 {
            return Err("switch needs at least one port".to_string());
        }
        if self.nominal_w <= 0.0 || !self.nominal_w.is_finite() {
            return Err(format!(
                "nominal_w must be positive and finite, got {}",
                self.nominal_w
            ));
        }
        Ok(())
    }

    /// Mean whole-switch power given per-port time shares.
    ///
    /// * `managed` — number of ports under management (the rest are
    ///   assumed always-on, e.g. uplinks);
    /// * `sleep_frac` — mean fraction of the run each managed port spent
    ///   in each sleep depth, indexed by [`SleepKind`];
    /// * `draws` — each depth's relative link draw, indexed by
    ///   [`SleepKind`] (a run's [`SimResult::sleep_power_fraction`]);
    ///   the deep entry goes unused, as a deep-sleeping PHY's residual
    ///   draw is folded into control.
    ///
    /// WRPS and rate reduction scale only the PHYs (every lane of a
    /// rate-reduced port stays up, slower). Deep sleep also removes the
    /// sleeping ports' share of buffers, and the crossbar in proportion
    /// to the ports asleep; control power never goes away.
    ///
    /// # Panics
    /// Panics if the model itself is invalid (callers building models
    /// from external input must [`SwitchPowerModel::validate`] first) or
    /// if `managed` exceeds the port count.
    pub fn mean_power_ladder_w(&self, managed: u32, sleep_frac: [f64; 3], draws: [f64; 3]) -> f64 {
        self.validate().expect("switch power model invalid");
        let [low_frac, rate_frac, deep_frac] = sleep_frac;
        let [wrps_draw, rate_draw, _] = draws;
        assert!(managed <= self.ports, "more managed ports than ports");
        let managed_f = f64::from(managed);
        let ports_f = f64::from(self.ports);
        let link_w = self.nominal_w * self.link_share;
        let buffer_w = self.nominal_w * self.buffer_share;
        let crossbar_w = self.nominal_w * self.crossbar_share;
        let control_w = self.nominal_w * self.control_share;

        // Link PHYs: managed ports reduce to the WRPS draw during WRPS,
        // to the rate draw while rate-reduced, and to ~0 during deep
        // sleep (one lane's PLL stays up; fold it into control);
        // unmanaged ports stay at full draw.
        let per_port_link = link_w / ports_f;
        let managed_link = managed_f
            * per_port_link
            * (1.0 - low_frac - rate_frac - deep_frac
                + low_frac * wrps_draw
                + rate_frac * rate_draw);
        let unmanaged_link = (ports_f - managed_f) * per_port_link;

        // Buffers: per-port, off during deep sleep only.
        let per_port_buffer = buffer_w / ports_f;
        let managed_buffer = managed_f * per_port_buffer * (1.0 - deep_frac);
        let unmanaged_buffer = (ports_f - managed_f) * per_port_buffer;

        // Crossbar: shared; scales with the fraction of ports awake.
        let awake_share = 1.0 - managed_f / ports_f * deep_frac;
        let crossbar = crossbar_w * awake_share;

        managed_link + unmanaged_link + managed_buffer + unmanaged_buffer + crossbar + control_w
    }

    /// Build a whole-switch report from a replay result, treating the
    /// result's ranks as this switch's managed host ports and pricing
    /// each sleep depth at the draw the replay accounted with.
    ///
    /// # Panics
    /// Panics if the result has more ranks than the switch has ports.
    pub fn report(&self, result: &SimResult, duration: SimDuration) -> SwitchPowerReport {
        let managed = result.nprocs() as u32;
        let sleep_frac = SleepKind::ALL.map(|kind| result.mean_sleep_fraction(kind));
        let managed_w = self.mean_power_ladder_w(managed, sleep_frac, result.sleep_power_fraction);
        let secs = duration.as_secs_f64();
        SwitchPowerReport {
            managed_w,
            nominal_w: self.nominal_w,
            switch_saving_pct: 100.0 * (1.0 - managed_w / self.nominal_w),
            port_saving_pct: result.power_saving_pct(),
            energy_j: managed_w * secs,
            nominal_energy_j: self.nominal_w * secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimParams;

    /// Mean switch power at the paper's per-depth draws.
    fn watts(m: &SwitchPowerModel, managed: u32, low: f64, rate: f64, deep: f64) -> f64 {
        let draws = SleepKind::ALL.map(|kind| SimParams::paper().draw_of(kind));
        m.mean_power_ladder_w(managed, [low, rate, deep], draws)
    }

    #[test]
    fn default_shares_are_consistent() {
        SwitchPowerModel::default().validate().unwrap();
    }

    #[test]
    fn always_on_draws_nominal() {
        let m = SwitchPowerModel::default();
        let w = watts(&m, 36, 0.0, 0.0, 0.0);
        assert!((w - 130.0).abs() < 1e-9);
        // No managed ports → also nominal.
        assert!((watts(&m, 0, 0.9, 0.0, 0.0) - 130.0).abs() < 1e-9);
    }

    #[test]
    fn all_ports_wrps_matches_mellanox_anchor() {
        // All 36 ports in WRPS all the time: switch at
        // 0.64×0.43 + 0.36 = 63.5% of nominal. (The paper's 43% figure is
        // the *port-level* low-power consumption; at the switch level the
        // non-link components keep drawing.)
        let m = SwitchPowerModel::default();
        let w = watts(&m, 36, 1.0, 0.0, 0.0);
        let expect = 130.0 * (0.64 * 0.43 + 0.36);
        assert!((w - expect).abs() < 1e-9, "{w} vs {expect}");
    }

    #[test]
    fn deep_sleep_cuts_buffers_and_crossbar() {
        let m = SwitchPowerModel::default();
        // All ports deep all the time: only control remains (+ nothing of
        // links/buffers/crossbar).
        let w = watts(&m, 36, 0.0, 0.0, 1.0);
        let expect = 130.0 * 0.06;
        assert!((w - expect).abs() < 1e-9, "{w} vs {expect}");
        // Deep beats WRPS for the same time share.
        assert!(watts(&m, 36, 0.0, 0.0, 0.5) < watts(&m, 36, 0.5, 0.0, 0.0));
    }

    #[test]
    fn partial_management_interpolates() {
        let m = SwitchPowerModel::default();
        // 18 of 36 ports managed, half the time in WRPS.
        let w = watts(&m, 18, 0.5, 0.0, 0.0);
        assert!(w < 130.0);
        assert!(w > watts(&m, 36, 0.5, 0.0, 0.0));
    }

    #[test]
    fn report_combines_port_and_switch_views() {
        use crate::fabric::FabricStats;
        use ibp_simcore::SimTime;
        let m = SwitchPowerModel::default();
        let n = 18usize;
        let result = SimResult {
            exec_time: SimDuration::from_secs(10),
            rank_finish: vec![SimTime::from_secs(10); n],
            // Half the run low.
            link_sleep: vec![
                [
                    SimDuration::from_secs(5),
                    SimDuration::ZERO,
                    SimDuration::ZERO
                ];
                n
            ],
            link_transition: vec![SimDuration::ZERO; n],
            link_sleeps: vec![1; n],
            timelines: None,
            fabric: FabricStats::default(),
            sleep_power_fraction: [0.43, 0.25, 0.10],
            faults: crate::faults::FaultStats::default(),
        };
        let rep = m.report(&result, result.exec_time);
        // Port view: 0.57 × 0.5 = 28.5%.
        assert!((rep.port_saving_pct - 28.5).abs() < 1e-9);
        // Switch view is diluted by unmanaged ports and non-link power.
        assert!(rep.switch_saving_pct < rep.port_saving_pct);
        assert!(rep.switch_saving_pct > 0.0);
        assert!((rep.nominal_energy_j - 1300.0).abs() < 1e-9);
        assert!(rep.energy_j < rep.nominal_energy_j);
    }

    #[test]
    fn bad_shares_rejected_with_typed_error() {
        let m = SwitchPowerModel {
            link_share: 0.9,
            ..SwitchPowerModel::default()
        };
        let err = m.validate().unwrap_err();
        assert!(err.contains("sum to 1"), "{err}");
        let m = SwitchPowerModel {
            ports: 0,
            ..SwitchPowerModel::default()
        };
        assert!(m.validate().unwrap_err().contains("port"));
        let m = SwitchPowerModel {
            nominal_w: f64::NAN,
            ..SwitchPowerModel::default()
        };
        assert!(m.validate().unwrap_err().contains("nominal_w"));
    }

    #[test]
    fn rate_rung_sits_between_wrps_and_deep() {
        let m = SwitchPowerModel::default();
        let wrps = watts(&m, 36, 1.0, 0.0, 0.0);
        let rate = watts(&m, 36, 0.0, 1.0, 0.0);
        let deep = watts(&m, 36, 0.0, 0.0, 1.0);
        assert!(deep < rate && rate < wrps, "{deep} < {rate} < {wrps}");
        // All ports rate-reduced: PHYs at 25%, everything else nominal.
        let expect = 130.0 * (0.64 * 0.25 + 0.36);
        assert!((rate - expect).abs() < 1e-9, "{rate} vs {expect}");
    }
}
