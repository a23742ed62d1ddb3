//! Multi-generation InfiniBand link models.
//!
//! The paper evaluates exactly one hardware point: IB 4X QDR links with
//! the WRPS 4X→1X width-reduction pair. This module generalizes the
//! link along the IB signalling ladder (QDR → XDR), with the per-lane
//! rates of the standard naming table (`getIBStandardName`): QDR 10,
//! FDR 14, EDR 25, HDR 50, NDR 100, XDR 200 Gb/s per lane, four lanes
//! per link. Each generation also carries a representative 36–64-port
//! switch power envelope so [`crate::SwitchPowerModel`] can report
//! switch-level savings per generation.
//!
//! A generation changes the link bandwidth and the switch model only.
//! The sleep depths (WRPS, rate reduction, deep sleep) are one model
//! shared by every generation: their floors and wake latencies live in
//! [`SimParams`] and `ibp_core::PowerConfig`, and the planner's rung
//! set (`ibp_core::SleepRungs`) picks which of them a run may use.
//!
//! Everything here is opt-in: [`IbGeneration::Qdr`]'s parameters are
//! bit-identical to [`SimParams::paper`], so the paper's exhibits are
//! unchanged unless a caller explicitly asks for another generation.

use crate::config::SimParams;
use crate::switch_power::SwitchPowerModel;
use serde::{Deserialize, Serialize};

/// An InfiniBand signalling generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IbGeneration {
    /// Quad Data Rate: 10 Gb/s per lane, 40 Gb/s per 4X link (the
    /// paper's Table II configuration).
    Qdr,
    /// Fourteen Data Rate: 14 Gb/s per lane, 56 Gb/s per 4X link.
    Fdr,
    /// Enhanced Data Rate: 25 Gb/s per lane, 100 Gb/s per 4X link.
    Edr,
    /// High Data Rate: 50 Gb/s per lane, 200 Gb/s per 4X link.
    Hdr,
    /// Next Data Rate: 100 Gb/s per lane, 400 Gb/s per 4X link.
    Ndr,
    /// Extended Data Rate: 200 Gb/s per lane, 800 Gb/s per 4X link.
    Xdr,
}

impl Default for IbGeneration {
    /// The paper's generation.
    fn default() -> Self {
        IbGeneration::Qdr
    }
}

impl IbGeneration {
    /// Every generation, oldest (slowest) first.
    pub const ALL: [IbGeneration; 6] = [
        IbGeneration::Qdr,
        IbGeneration::Fdr,
        IbGeneration::Edr,
        IbGeneration::Hdr,
        IbGeneration::Ndr,
        IbGeneration::Xdr,
    ];

    /// Lanes per link (all modelled links are 4X).
    pub const LANES: u32 = 4;

    /// Per-lane signalling rate, Gb/s.
    #[must_use]
    pub fn per_lane_gbps(self) -> f64 {
        match self {
            IbGeneration::Qdr => 10.0,
            IbGeneration::Fdr => 14.0,
            IbGeneration::Edr => 25.0,
            IbGeneration::Hdr => 50.0,
            IbGeneration::Ndr => 100.0,
            IbGeneration::Xdr => 200.0,
        }
    }

    /// Full 4X link rate, Gb/s.
    #[must_use]
    pub fn link_gbps(self) -> f64 {
        f64::from(Self::LANES) * self.per_lane_gbps()
    }

    /// Standard name (`QDR`, `FDR`, ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IbGeneration::Qdr => "QDR",
            IbGeneration::Fdr => "FDR",
            IbGeneration::Edr => "EDR",
            IbGeneration::Hdr => "HDR",
            IbGeneration::Ndr => "NDR",
            IbGeneration::Xdr => "XDR",
        }
    }

    /// Parse a standard name, case-insensitively.
    #[must_use]
    pub fn from_name(name: &str) -> Option<IbGeneration> {
        Self::ALL
            .into_iter()
            .find(|g| g.name().eq_ignore_ascii_case(name))
    }

    /// Map a 4X link rate to its standard name — the
    /// `getIBStandardName` thresholds (≥800 XDR, ≥400 NDR, ≥200 HDR,
    /// ≥100 EDR, ≥56 FDR, else QDR).
    #[must_use]
    pub fn from_rate_gbps(rate_gbps: f64) -> IbGeneration {
        match rate_gbps {
            r if r >= 800.0 => IbGeneration::Xdr,
            r if r >= 400.0 => IbGeneration::Ndr,
            r if r >= 200.0 => IbGeneration::Hdr,
            r if r >= 100.0 => IbGeneration::Edr,
            r if r >= 56.0 => IbGeneration::Fdr,
            _ => IbGeneration::Qdr,
        }
    }

    /// Ports on the representative edge switch of this generation.
    #[must_use]
    pub fn switch_ports(self) -> u32 {
        match self {
            IbGeneration::Qdr | IbGeneration::Fdr | IbGeneration::Edr => 36,
            IbGeneration::Hdr => 40,
            IbGeneration::Ndr | IbGeneration::Xdr => 64,
        }
    }

    /// Nominal power of the representative edge switch, watts
    /// (QDR/FDR match the paper's 130 W 36-port reference; later
    /// generations follow vendor-typical envelopes, monotonically
    /// rising with the signalling rate).
    #[must_use]
    pub fn switch_nominal_w(self) -> f64 {
        match self {
            IbGeneration::Qdr | IbGeneration::Fdr => 130.0,
            IbGeneration::Edr => 136.0,
            IbGeneration::Hdr => 247.0,
            IbGeneration::Ndr => 384.0,
            IbGeneration::Xdr => 560.0,
        }
    }

    /// Replay parameters for this generation: the paper's Table II with
    /// the link bandwidth swapped for this generation's 4X rate. For
    /// [`IbGeneration::Qdr`] this is exactly [`SimParams::paper`].
    #[must_use]
    pub fn sim_params(self) -> SimParams {
        SimParams {
            bandwidth_bps: self.link_gbps() * 1e9,
            generation: self,
            ..SimParams::paper()
        }
    }

    /// Switch power model for this generation's representative switch
    /// (component shares kept at the paper's split).
    #[must_use]
    pub fn switch_power_model(self) -> SwitchPowerModel {
        SwitchPowerModel {
            ports: self.switch_ports(),
            nominal_w: self.switch_nominal_w(),
            ..SwitchPowerModel::default()
        }
    }
}

impl std::fmt::Display for IbGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_core::{PowerConfig, SleepKind, SleepRungs};
    use ibp_simcore::SimDuration;

    #[test]
    fn generation_rates_follow_the_standard_table() {
        let per_lane: Vec<f64> = IbGeneration::ALL
            .iter()
            .map(|g| g.per_lane_gbps())
            .collect();
        assert_eq!(per_lane, [10.0, 14.0, 25.0, 50.0, 100.0, 200.0]);
        assert_eq!(IbGeneration::Qdr.link_gbps(), 40.0);
        assert_eq!(IbGeneration::Fdr.link_gbps(), 56.0);
        assert_eq!(IbGeneration::Xdr.link_gbps(), 800.0);
    }

    #[test]
    fn rate_to_name_mapping_matches_get_ib_standard_name() {
        for g in IbGeneration::ALL {
            assert_eq!(IbGeneration::from_rate_gbps(g.link_gbps()), g);
        }
        // Thresholds are lower-inclusive, like the reference function.
        assert_eq!(IbGeneration::from_rate_gbps(55.9), IbGeneration::Qdr);
        assert_eq!(IbGeneration::from_rate_gbps(56.0), IbGeneration::Fdr);
        assert_eq!(IbGeneration::from_rate_gbps(1000.0), IbGeneration::Xdr);
    }

    #[test]
    fn names_roundtrip() {
        for g in IbGeneration::ALL {
            assert_eq!(IbGeneration::from_name(g.name()), Some(g));
            assert_eq!(IbGeneration::from_name(&g.name().to_lowercase()), Some(g));
        }
        assert_eq!(IbGeneration::from_name("sdr"), None);
    }

    #[test]
    fn qdr_params_are_bit_identical_to_paper() {
        assert_eq!(IbGeneration::Qdr.sim_params(), SimParams::paper());
        assert_eq!(
            IbGeneration::Qdr.switch_power_model(),
            crate::SwitchPowerModel::default()
        );
    }

    #[test]
    fn faster_generations_only_raise_bandwidth() {
        for g in IbGeneration::ALL {
            let p = g.sim_params();
            assert_eq!(p.bandwidth_bps, g.link_gbps() * 1e9);
            assert_eq!(p.t_react, SimParams::paper().t_react);
            assert_eq!(p.segment_bytes, SimParams::paper().segment_bytes);
        }
    }

    #[test]
    fn switch_power_rises_with_generation() {
        let mut last = 0.0;
        for g in IbGeneration::ALL {
            let w = g.switch_nominal_w();
            assert!(w >= last, "{g}: {w} W below predecessor {last} W");
            last = w;
            g.switch_power_model().validate().expect("model valid");
        }
    }

    #[test]
    fn ladder_power_config_is_valid_and_ladder_enabled() {
        // A generation changes bandwidth and the switch model only: the
        // planner's ladder config describes every generation's links.
        let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01).with_ladder();
        assert_eq!(cfg.rungs, SleepRungs::ALL);
        cfg.validate().expect("ladder config valid");
        for g in IbGeneration::ALL {
            let p = g.sim_params();
            for kind in SleepKind::ALL {
                assert_eq!(cfg.draw_of(kind), p.draw_of(kind), "{g} {kind:?} floor");
                assert_eq!(cfg.react_of(kind), p.react_of(kind), "{g} {kind:?} wake");
            }
        }
    }
}
