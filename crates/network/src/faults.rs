//! Deterministic fault injection for the replay engine.
//!
//! The paper's mechanism assumes the HCA wake timer and the links behave
//! perfectly; real fabrics misbehave. This module injects three fault
//! classes — seeded, so every run is exactly reproducible — that the
//! replay threads through its timing and power accounting:
//!
//! * **Wake-timer misfires** — the programmed HCA timer fails to fire, so
//!   the lanes stay in low power until the next send/receive *demands*
//!   the network, at which point the rank pays the full reactivation
//!   time of the active sleep kind (a `T_react`-class stall) instead of
//!   the runtime's predicted penalty.
//! * **Transient link flaps** — a link drops for a short outage window
//!   just as a message is injected; the send is delayed by the outage.
//! * **Stuck-at-1X degradation** — a link that was asked to reactivate
//!   comes back with only one lane for a while, quartering bandwidth:
//!   every transfer in the degraded window pays 3 extra serialization
//!   times (4× the 4X wire time).
//!
//! Faults are drawn per *host link* (one per rank) from independent
//! [`DetRng`] sub-streams split off the experiment seed, so adding a
//! fault class or a rank never perturbs the draws of another link.

use crate::config::SimParams;
use ibp_simcore::{DetRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Fault-injection configuration (all probabilities are per-event).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed for the fault RNG streams (independent of routing).
    pub seed: u64,
    /// Probability, per sleep window, that the wake timer misfires and
    /// the lanes stay down until the next network demand.
    #[serde(default)]
    pub wake_misfire_prob: f64,
    /// Probability, per send, of a transient link flap.
    #[serde(default)]
    pub flap_prob: f64,
    /// Shortest flap outage (uniform draw between min and max).
    #[serde(default)]
    pub flap_outage_min: SimDuration,
    /// Longest flap outage.
    #[serde(default)]
    pub flap_outage_max: SimDuration,
    /// Probability, per send on a healthy link, that the link enters a
    /// stuck-at-1X degraded window.
    #[serde(default)]
    pub degrade_prob: f64,
    /// Length of a stuck-at-1X window once entered.
    #[serde(default)]
    pub degraded_window: SimDuration,
}

impl FaultConfig {
    /// A quiet plan: seeded but with every fault class at rate zero.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            wake_misfire_prob: 0.0,
            flap_prob: 0.0,
            flap_outage_min: SimDuration::from_us(50),
            flap_outage_max: SimDuration::from_us(500),
            degrade_prob: 0.0,
            degraded_window: SimDuration::from_ms(2),
        }
    }

    /// The reference fault mix scaled by a single `rate` knob (the CLI's
    /// `--fault-rate`): `rate = 1.0` gives a mildly unreliable fabric
    /// (1% misfires, 0.1% flaps, 0.05% degradations); `rate = 10.0` is
    /// the fault-storm regime of the robustness study.
    pub fn with_rate(seed: u64, rate: f64) -> Self {
        FaultConfig {
            wake_misfire_prob: (0.01 * rate).min(1.0),
            flap_prob: (0.001 * rate).min(1.0),
            degrade_prob: (0.0005 * rate).min(1.0),
            ..FaultConfig::quiet(seed)
        }
    }

    /// True when every fault class has rate zero (no plan needed).
    pub fn is_quiet(&self) -> bool {
        self.wake_misfire_prob == 0.0 && self.flap_prob == 0.0 && self.degrade_prob == 0.0
    }

    /// Check that probabilities are in `[0, 1]` and ranges are ordered.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("wake_misfire_prob", self.wake_misfire_prob),
            ("flap_prob", self.flap_prob),
            ("degrade_prob", self.degrade_prob),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if self.flap_outage_min > self.flap_outage_max {
            return Err(format!(
                "flap_outage_min ({}) exceeds flap_outage_max ({})",
                self.flap_outage_min, self.flap_outage_max
            ));
        }
        Ok(())
    }
}

/// Fault outcome for one send.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendFault {
    /// A transient flap hit this send.
    pub flapped: bool,
    /// Outage delay before the injection can start (link flap).
    pub flap_delay: SimDuration,
    /// The link is in a stuck-at-1X window: serialization is 4×.
    pub degraded: bool,
}

/// Per-link mutable fault state.
#[derive(Debug, Clone)]
struct LinkFaultState {
    rng: DetRng,
    degraded_until: SimTime,
}

/// A scheduled, per-link fault drawing plan for one replay run.
///
/// Construct once per run via [`FaultPlan::new`]; the replay engine
/// consults it at every sleep-window resolution and every send.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    links: Vec<LinkFaultState>,
}

impl FaultPlan {
    /// Build the plan for `nprocs` host links.
    pub fn new(cfg: &FaultConfig, nprocs: u32) -> FaultPlan {
        let root = DetRng::seed_from_u64(cfg.seed);
        FaultPlan {
            cfg: cfg.clone(),
            links: (0..nprocs)
                .map(|r| LinkFaultState {
                    // Label sub-streams by link id; stable under changes
                    // elsewhere in the engine.
                    rng: root.split(0xFA01_0000 ^ u64::from(r)),
                    degraded_until: SimTime::ZERO,
                })
                .collect(),
        }
    }

    /// Does the wake timer of `link`'s current sleep window misfire?
    /// One RNG draw per window, whatever its depth, and none at all when
    /// misfires are off.
    pub fn wake_misfires_at(&mut self, link: usize) -> bool {
        let p = self.cfg.wake_misfire_prob;
        p > 0.0 && self.links[link].rng.chance(p)
    }

    /// Draw the fault outcome for a send leaving `link` at `now`.
    pub fn send_fault(&mut self, link: usize, now: SimTime) -> SendFault {
        let cfg = &self.cfg;
        let st = &mut self.links[link];
        let mut fault = SendFault::default();
        if cfg.flap_prob > 0.0 && st.rng.chance(cfg.flap_prob) {
            let lo = cfg.flap_outage_min.as_ns();
            let hi = cfg.flap_outage_max.as_ns();
            let ns = if hi > lo {
                lo + (st.rng.next_u64() % (hi - lo + 1))
            } else {
                lo
            };
            fault.flapped = true;
            fault.flap_delay = SimDuration::from_ns(ns);
        }
        if now < st.degraded_until {
            fault.degraded = true;
        } else if cfg.degrade_prob > 0.0 && st.rng.chance(cfg.degrade_prob) {
            st.degraded_until = now + cfg.degraded_window;
            fault.degraded = true;
        }
        fault
    }

    /// Extra serialization charged to a degraded (1X) transfer: the wire
    /// time is 4× nominal, so 3 extra copies of the 4X serialization.
    pub fn degraded_extra(params: &SimParams, bytes: u64) -> SimDuration {
        let one = params.serialize(bytes);
        one + one + one
    }
}

/// Aggregate fault accounting for one replay run (all zeros when no
/// faults were injected).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Sleep windows whose wake timer misfired.
    pub wake_misfires: u64,
    /// Total reactivation stall charged by misfires.
    pub misfire_stall: SimDuration,
    /// Sends delayed by a transient link flap.
    pub link_flaps: u64,
    /// Total outage delay charged by flaps.
    pub flap_delay: SimDuration,
    /// Sends that ran over a stuck-at-1X link.
    pub degraded_sends: u64,
    /// Total extra serialization charged to degraded sends.
    pub degraded_extra: SimDuration,
}

impl FaultStats {
    /// Total number of fault events of any class.
    pub fn total_events(&self) -> u64 {
        self.wake_misfires + self.link_flaps + self.degraded_sends
    }

    /// Total extra time charged to ranks by faults (an upper bound on
    /// the exec-time impact; overlap can hide some of it).
    pub fn total_charged(&self) -> SimDuration {
        self.misfire_stall + self.flap_delay + self.degraded_extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_faults() {
        let cfg = FaultConfig::quiet(7);
        assert!(cfg.is_quiet());
        let mut plan = FaultPlan::new(&cfg, 4);
        for link in 0..4 {
            assert!(!plan.wake_misfires_at(link));
            let f = plan.send_fault(link, SimTime::from_us(10));
            assert!(f.flap_delay.is_zero() && !f.degraded);
        }
    }

    #[test]
    fn with_rate_scales_and_saturates() {
        let mild = FaultConfig::with_rate(1, 1.0);
        assert!((mild.wake_misfire_prob - 0.01).abs() < 1e-12);
        let storm = FaultConfig::with_rate(1, 10.0);
        assert!((storm.wake_misfire_prob - 0.10).abs() < 1e-12);
        let max = FaultConfig::with_rate(1, 1e6);
        assert_eq!(max.wake_misfire_prob, 1.0);
        assert_eq!(max.flap_prob, 1.0);
        assert!(max.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_probs_and_ranges() {
        let mut cfg = FaultConfig::quiet(0);
        cfg.flap_prob = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::quiet(0);
        cfg.wake_misfire_prob = -0.1;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::quiet(0);
        cfg.flap_outage_min = SimDuration::from_ms(10);
        cfg.flap_outage_max = SimDuration::from_us(1);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn misfire_draws_are_one_per_window() {
        // Each link draws from its own split stream, one uniform per
        // sleep window, so a run's misfires follow the seed alone.
        let cfg = FaultConfig::with_rate(0xFEED, 40.0);
        let mut plan = FaultPlan::new(&cfg, 2);
        let root = DetRng::seed_from_u64(cfg.seed);
        let mut streams: Vec<DetRng> = (0..2u64).map(|r| root.split(0xFA01_0000 ^ r)).collect();
        for i in 0..200u64 {
            let link = (i % 2) as usize;
            assert_eq!(
                plan.wake_misfires_at(link),
                streams[link].chance(cfg.wake_misfire_prob),
                "window {i}"
            );
        }
    }

    #[test]
    fn deterministic_draws_per_seed() {
        let cfg = FaultConfig::with_rate(0xD1C0, 10.0);
        let draw = |cfg: &FaultConfig| {
            let mut plan = FaultPlan::new(cfg, 8);
            let mut log = Vec::new();
            for i in 0..200u64 {
                let link = (i % 8) as usize;
                let t = SimTime::from_us(i * 13);
                log.push((
                    plan.wake_misfires_at(link),
                    plan.send_fault(link, t).flap_delay,
                ));
            }
            log
        };
        assert_eq!(draw(&cfg), draw(&cfg));
        let other = FaultConfig::with_rate(0xD1C1, 10.0);
        assert_ne!(draw(&cfg), draw(&other));
    }

    #[test]
    fn degraded_window_sticks_until_expiry() {
        let mut cfg = FaultConfig::quiet(3);
        cfg.degrade_prob = 1.0;
        cfg.degraded_window = SimDuration::from_us(100);
        let mut plan = FaultPlan::new(&cfg, 1);
        assert!(plan.send_fault(0, SimTime::from_us(0)).degraded);
        // Inside the window: degraded without a fresh draw.
        assert!(plan.send_fault(0, SimTime::from_us(50)).degraded);
        // Past expiry a fresh draw happens (p = 1 → degraded again, and
        // the window is re-armed from the new now).
        assert!(plan.send_fault(0, SimTime::from_us(200)).degraded);
    }

    #[test]
    fn degraded_extra_is_three_serializations() {
        let p = SimParams::paper();
        let extra = FaultPlan::degraded_extra(&p, 1 << 20);
        let one = p.serialize(1 << 20);
        assert_eq!(extra, one + one + one);
    }

    #[test]
    fn flap_outage_within_bounds() {
        let mut cfg = FaultConfig::quiet(11);
        cfg.flap_prob = 1.0;
        let mut plan = FaultPlan::new(&cfg, 1);
        for i in 0..100u64 {
            let f = plan.send_fault(0, SimTime::from_us(i));
            assert!(f.flap_delay >= cfg.flap_outage_min);
            assert!(f.flap_delay <= cfg.flap_outage_max);
        }
    }
}
