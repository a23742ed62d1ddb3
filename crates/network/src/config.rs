//! Simulation parameters — the paper's Table II.

use ibp_core::SleepKind;
use ibp_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Network and replay parameters (defaults reproduce Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimParams {
    /// Link bandwidth in bits per second (IB 4X QDR: 40 Gb/s).
    pub bandwidth_bps: f64,
    /// Segment (MTU) size in bytes.
    pub segment_bytes: u64,
    /// Software MPI latency charged per message.
    pub mpi_latency: SimDuration,
    /// Per-switch-hop latency (port arbitration + crossbar).
    pub hop_latency: SimDuration,
    /// Nodes per leaf switch (XGFT m1 = 18).
    pub nodes_per_leaf: u32,
    /// Number of leaf switches (XGFT m2 = 14).
    pub leaf_count: u32,
    /// Number of top switches (XGFT w2 = 18).
    pub top_count: u32,
    /// CPU speed ratio applied to replayed compute bursts (Table II: 1).
    pub cpu_speedup: f64,
    /// Relative power draw of a link in WRPS low-power (1X) mode.
    pub low_power_fraction: f64,
    /// Lane reactivation/deactivation time.
    pub t_react: SimDuration,
    /// Deep-sleep reactivation time (buffers/crossbar; §VI extension).
    pub deep_t_react: SimDuration,
    /// Retrain time of the rate-reduced state (ladder middle rung).
    #[serde(default = "default_rate_t_react")]
    pub rate_t_react: SimDuration,
    /// Relative power draw of a link in rate-reduced mode.
    #[serde(default = "default_rate_power_fraction")]
    pub rate_power_fraction: f64,
    /// Relative power draw of a link in deep sleep.
    #[serde(default = "default_deep_power_fraction")]
    pub deep_power_fraction: f64,
    /// The link generation being modelled (QDR unless a caller asked
    /// for another rung of the generation ladder; see
    /// [`crate::genlink::IbGeneration::sim_params`]).
    #[serde(default)]
    pub generation: crate::genlink::IbGeneration,
}

/// Relative draw of the deep sleep state (buffers/crossbar down).
pub const DEEP_POWER_FRACTION: f64 = 0.10;

/// Relative draw of the rate-reduced state (all lanes at the lowest
/// signalling rate).
pub const RATE_POWER_FRACTION: f64 = 0.25;

fn default_rate_t_react() -> SimDuration {
    SimDuration::from_us(100)
}

fn default_rate_power_fraction() -> f64 {
    RATE_POWER_FRACTION
}

fn default_deep_power_fraction() -> f64 {
    DEEP_POWER_FRACTION
}

impl Default for SimParams {
    /// Table II: XGFT(2;18,14;1,18), 40 Gb/s, 2 KB segments, 1 µs MPI
    /// latency, random routing, CPU speedup 1.
    fn default() -> Self {
        SimParams {
            bandwidth_bps: 40e9,
            segment_bytes: 2048,
            mpi_latency: SimDuration::from_us(1),
            hop_latency: SimDuration::from_ns(100),
            nodes_per_leaf: 18,
            leaf_count: 14,
            top_count: 18,
            cpu_speedup: 1.0,
            low_power_fraction: 0.43,
            t_react: SimDuration::from_us(10),
            deep_t_react: SimDuration::from_ms(1),
            rate_t_react: default_rate_t_react(),
            rate_power_fraction: default_rate_power_fraction(),
            deep_power_fraction: default_deep_power_fraction(),
            generation: crate::genlink::IbGeneration::Qdr,
        }
    }
}

impl SimParams {
    /// The paper's configuration (alias for [`Default`]).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Reactivation time of a sleep kind (mirrors
    /// [`ibp_core::PowerConfig::react_of`]).
    #[inline]
    #[must_use]
    pub fn react_of(&self, kind: SleepKind) -> SimDuration {
        match kind {
            SleepKind::Wrps => self.t_react,
            SleepKind::Rate => self.rate_t_react,
            SleepKind::Deep => self.deep_t_react,
        }
    }

    /// Relative draw of a sleep kind (mirrors
    /// [`ibp_core::PowerConfig::draw_of`]).
    #[inline]
    #[must_use]
    pub fn draw_of(&self, kind: SleepKind) -> f64 {
        match kind {
            SleepKind::Wrps => self.low_power_fraction,
            SleepKind::Rate => self.rate_power_fraction,
            SleepKind::Deep => self.deep_power_fraction,
        }
    }

    /// Total node slots in the fat tree.
    #[inline]
    #[must_use]
    pub fn node_capacity(&self) -> u32 {
        self.nodes_per_leaf * self.leaf_count
    }

    /// Serialization time of `bytes` on one link.
    #[inline]
    #[must_use]
    pub fn serialize(&self, bytes: u64) -> SimDuration {
        // bits / (bits/sec) — IB data rate already accounts for encoding.
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }

    /// Number of segments a message of `bytes` is split into.
    #[inline]
    #[must_use]
    pub fn segments(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.segment_bytes).max(1)
    }

    /// A human-readable rendering of the configuration (the `params`
    /// binary prints this as the Table II reproduction).
    pub fn describe(&self) -> String {
        format!(
            "Simulator            event-driven replay (Dimemas/Venus-style)\n\
             Connectivity         XGFT(2;{},{};1,{})\n\
             Topology             Extended Generalized Fat Tree, 2 levels\n\
             Switch technology    InfiniBand\n\
             Network bandwidth    {} Gbit/s\n\
             Segment size         {} KB\n\
             MPI latency          {}\n\
             CPU speedup          {}\n\
             Routing scheme       random (up/down)\n\
             WRPS low-power draw  {}% of nominal\n\
             T_react              {}",
            self.nodes_per_leaf,
            self.leaf_count,
            self.top_count,
            self.bandwidth_bps / 1e9,
            self.segment_bytes / 1024,
            self.mpi_latency,
            self.cpu_speedup,
            (self.low_power_fraction * 100.0).round(),
            self.t_react,
        )
    }

    /// End of a compute burst of `dur` starting at `t` (CPU speedup
    /// applied).
    #[inline]
    #[must_use]
    pub fn compute_end(&self, t: SimTime, dur: SimDuration) -> SimTime {
        if self.cpu_speedup == 1.0 {
            t + dur
        } else {
            t + dur.mul_f64(1.0 / self.cpu_speedup)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let p = SimParams::paper();
        assert_eq!(p.bandwidth_bps, 40e9);
        assert_eq!(p.segment_bytes, 2048);
        assert_eq!(p.mpi_latency, SimDuration::from_us(1));
        assert_eq!(p.node_capacity(), 252);
        assert_eq!(p.cpu_speedup, 1.0);
    }

    #[test]
    fn serialization_time() {
        let p = SimParams::paper();
        // 2 KB at 40 Gb/s = 2048*8/40e9 s ≈ 409.6 ns.
        let t = p.serialize(2048);
        assert_eq!(t.as_ns(), 410);
        // 1 MB ≈ 209.7 µs.
        let t = p.serialize(1 << 20);
        assert!((t.as_us_f64() - 209.7).abs() < 0.1);
    }

    #[test]
    fn segment_count() {
        let p = SimParams::paper();
        assert_eq!(p.segments(1), 1);
        assert_eq!(p.segments(2048), 1);
        assert_eq!(p.segments(2049), 2);
        assert_eq!(p.segments(0), 1);
    }

    #[test]
    fn compute_end_with_speedup() {
        let mut p = SimParams::paper();
        let t = SimTime::from_us(10);
        assert_eq!(p.compute_end(t, SimDuration::from_us(4)), SimTime::from_us(14));
        p.cpu_speedup = 2.0;
        assert_eq!(p.compute_end(t, SimDuration::from_us(4)), SimTime::from_us(12));
    }

    #[test]
    fn describe_mentions_topology() {
        let d = SimParams::paper().describe();
        assert!(d.contains("XGFT(2;18,14;1,18)"));
        assert!(d.contains("40 Gbit/s"));
    }

    #[test]
    fn pre_ladder_params_still_parse() {
        use serde::{Deserialize, Serialize};
        let mut v = SimParams::paper().to_value();
        let serde::Value::Map(entries) = &mut v else {
            panic!("params serialize as an object");
        };
        entries.retain(|(k, _)| {
            !matches!(
                k.as_str(),
                "rate_t_react" | "rate_power_fraction" | "deep_power_fraction" | "generation"
            )
        });
        let back = SimParams::from_value(&v).unwrap();
        assert_eq!(back, SimParams::paper());
    }

    #[test]
    fn generation_params_only_change_bandwidth_and_tag() {
        use crate::genlink::IbGeneration;
        let p = IbGeneration::Hdr.sim_params();
        assert_eq!(p.bandwidth_bps, 200e9);
        assert_eq!(p.generation, IbGeneration::Hdr);
        let mut back_to_paper = p;
        back_to_paper.bandwidth_bps = 40e9;
        back_to_paper.generation = IbGeneration::Qdr;
        assert_eq!(back_to_paper, SimParams::paper());
    }
}
