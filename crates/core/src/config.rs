//! Configuration of the power-saving mechanism.
//!
//! All defaults are the values the paper uses:
//!
//! * `T_react = 10 µs` — worst-case lane activation/deactivation time
//!   (Hoefler's figure, used symmetrically for on and off);
//! * grouping threshold `GT ≥ 2·T_react` — the minimum exploitable idle
//!   interval (per-application values in Table III);
//! * displacement factor ∈ {1%, 5%, 10%} — the safety margin of Figs. 7–9;
//! * low-power draw = 43% of nominal — Mellanox SX6036 under WRPS;
//! * 3 consecutive appearances before a pattern is declared predictable;
//! * ≈1 µs per-call interception overhead (gettimeofday + PMPI hook).

use ibp_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// The depth chosen for one sleep window. The discriminant is the
/// depth's index in [`SleepKind::ALL`] and in every per-depth `[T; 3]`
/// table (`kind as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SleepKind {
    /// Lane-width reduction (4X → 1X), `T_react ≈ 10 µs`, 43% draw.
    Wrps = 0,
    /// Rate reduction: all four lanes drop to the lowest signalling
    /// rate (retrain ≈ 100 µs, ~25% draw).
    Rate = 1,
    /// Deep switch sleep, `T_react ≈ 1 ms`, ~10% draw.
    Deep = 2,
}

impl SleepKind {
    /// All depths, shallowest first.
    pub const ALL: [SleepKind; 3] = [SleepKind::Wrps, SleepKind::Rate, SleepKind::Deep];

    /// Short lower-case label (`wrps` / `rate` / `deep`), used for
    /// metric labels and table columns.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SleepKind::Wrps => "wrps",
            SleepKind::Rate => "rate",
            SleepKind::Deep => "deep",
        }
    }
}

/// The sleep depths the controller may plan: a bitmask over
/// [`SleepKind`] (bit `kind as usize`). WRPS, the paper's mechanism,
/// is always present; [`PowerConfig::validate`] rejects a set without
/// it or with unknown bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SleepRungs(u8);

impl SleepRungs {
    /// The paper's mechanism alone.
    pub const WRPS: SleepRungs = SleepRungs(1 << SleepKind::Wrps as u8);
    /// The paper's §VI extension: WRPS plus deep sleep.
    pub const DEEP: SleepRungs = SleepRungs(Self::WRPS.0 | 1 << SleepKind::Deep as u8);
    /// The full three-rung ladder.
    pub const ALL: SleepRungs = SleepRungs(Self::DEEP.0 | 1 << SleepKind::Rate as u8);

    /// Whether the set enables `kind`.
    #[inline]
    #[must_use]
    pub fn contains(self, kind: SleepKind) -> bool {
        self.0 & 1 << kind as u8 != 0
    }

    /// Enabled depths, shallowest first.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = SleepKind> {
        SleepKind::ALL.into_iter().filter(move |&k| self.contains(k))
    }
}

/// Adaptive resilience controller parameters (misprediction-storm
/// backoff + variance-aware guard band + slowdown budget).
///
/// Disabled by default so the paper's exact behaviour is preserved; see
/// [`ResilienceConfig::standard`] for the recommended active values and
/// [`PowerConfig::with_resilience`] to attach it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Master switch. When `false` the runtime behaves exactly as the
    /// paper's mechanism (all other fields ignored).
    #[serde(default)]
    pub enabled: bool,
    /// Sliding window, in intercepted MPI calls, over which pattern
    /// mispredictions are counted for storm detection.
    #[serde(default)]
    pub storm_window: u32,
    /// Pattern mispredictions within one window that declare a storm.
    #[serde(default)]
    pub storm_threshold: u32,
    /// Calls to suspend prediction (and the PPA) after the first storm.
    #[serde(default)]
    pub base_holdoff: u32,
    /// Cap for the exponentially growing hold-off.
    #[serde(default)]
    pub max_holdoff: u32,
    /// Additive widening of the effective displacement factor per timing
    /// misprediction (late wake-up).
    #[serde(default)]
    pub guard_step: f64,
    /// Multiplicative decay of the guard band per cleanly resolved sleep
    /// window (wake-up on time).
    #[serde(default)]
    pub guard_decay: f64,
    /// Upper bound on the guard band (extra displacement).
    #[serde(default)]
    pub max_guard: f64,
    /// Worst-case mechanism-added time, as a percentage of the nominal
    /// trace duration: once interception + PPA overhead + stalls exceed
    /// this share, no further sleep directives are issued until the
    /// ratio recovers. Zero disables the budget guard.
    #[serde(default)]
    pub slowdown_budget_pct: f64,
}

impl ResilienceConfig {
    /// The recommended active configuration: storms are 3 pattern
    /// mispredictions within 50 calls; the first storm suspends
    /// prediction for 100 calls, doubling per storm up to 6400; each
    /// late wake-up widens the guard band by 5 percentage points (decay
    /// 0.85 per clean wake, capped at +40%); the mechanism may add at
    /// most 2% to the nominal duration.
    pub fn standard() -> Self {
        ResilienceConfig {
            enabled: true,
            storm_window: 50,
            storm_threshold: 3,
            base_holdoff: 100,
            max_holdoff: 6400,
            guard_step: 0.05,
            guard_decay: 0.85,
            max_guard: 0.40,
            slowdown_budget_pct: 2.0,
        }
    }

    /// [`ResilienceConfig::standard`] with a caller-chosen slowdown
    /// budget (percent of nominal duration).
    pub fn with_budget(budget_pct: f64) -> Self {
        assert!(
            budget_pct >= 0.0,
            "slowdown budget must be non-negative: {budget_pct}"
        );
        ResilienceConfig {
            slowdown_budget_pct: budget_pct,
            ..ResilienceConfig::standard()
        }
    }
}

impl Default for ResilienceConfig {
    /// Disabled — exact paper behaviour.
    fn default() -> Self {
        ResilienceConfig {
            enabled: false,
            ..ResilienceConfig::standard()
        }
    }
}

/// Tunable parameters of the prediction + power-control mechanism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerConfig {
    /// Lane reactivation (and deactivation) time, `T_react`.
    pub t_react: SimDuration,
    /// Grouping threshold `GT`: adjacent MPI calls closer than this are
    /// grouped into one gram; gaps of at least `GT` separate grams and are
    /// the candidate lane-off intervals.
    pub grouping_threshold: SimDuration,
    /// Displacement factor: fraction of the predicted idle time reserved
    /// as a safety margin so lanes are back up *before* the next call.
    pub displacement: f64,
    /// Consecutive pattern appearances required before prediction starts.
    pub min_consecutive: u32,
    /// Hard cap on pattern length (in grams) before a pattern is declared;
    /// once declared, the declared length becomes the cap (the paper's
    /// `maxPatternSize` freeze that pins the natural iteration).
    pub max_pattern_size: usize,
    /// Relative power draw of a link with 3 of 4 lanes off (WRPS 1X mode).
    pub low_power_fraction: f64,
    /// Fixed overhead charged to every intercepted MPI call.
    pub intercept_overhead: SimDuration,
    /// Base overhead of one PPA invocation (hash lookups, bookkeeping).
    pub ppa_base_overhead: SimDuration,
    /// Additional PPA overhead per gram element examined in the invocation.
    pub ppa_per_element_overhead: SimDuration,
    /// The sleep depths the planner may choose from. No serde default:
    /// a config without it predates the rung set and must not decode.
    pub rungs: SleepRungs,
    /// Minimum predicted idle for a deep sleep.
    pub deep_threshold: SimDuration,
    /// Reactivation time of the deep state (buffers/crossbar power-up;
    /// the paper quotes "up to a millisecond").
    pub deep_t_react: SimDuration,
    /// Relative power draw of the deep state.
    pub deep_power_fraction: f64,
    /// Minimum predicted idle for a rate-reduction sleep.
    #[serde(default = "default_rate_threshold")]
    pub rate_threshold: SimDuration,
    /// Retrain time of the rate-reduced state (lanes renegotiate back
    /// to full signalling rate).
    #[serde(default = "default_rate_t_react")]
    pub rate_t_react: SimDuration,
    /// Relative power draw of the rate-reduced state.
    #[serde(default = "default_rate_power_fraction")]
    pub rate_power_fraction: f64,
    /// Adaptive resilience controller (disabled by default).
    #[serde(default)]
    pub resilience: ResilienceConfig,
    /// Bound on the per-pattern occurrence window retained by the PPA
    /// (`checkO` is O(window); the paper's uthash kept every occurrence).
    #[serde(default = "default_occurrence_window")]
    pub occurrence_window: usize,
}

fn default_occurrence_window() -> usize {
    crate::pattern::DEFAULT_OCCURRENCE_WINDOW
}

fn default_rate_threshold() -> SimDuration {
    SimDuration::from_us(500)
}

fn default_rate_t_react() -> SimDuration {
    SimDuration::from_us(100)
}

fn default_rate_power_fraction() -> f64 {
    0.25
}

impl PowerConfig {
    /// The paper's baseline configuration with a caller-chosen GT and
    /// displacement factor.
    ///
    /// # Panics
    /// Panics if `gt < 2·T_react` (such intervals cannot be exploited:
    /// the off+on transitions would outlast the idle gap) or if
    /// `displacement` is outside `[0, 1)`.
    pub fn paper(gt: SimDuration, displacement: f64) -> Self {
        let t_react = SimDuration::from_us(10);
        assert!(
            gt >= t_react * 2,
            "grouping threshold {gt} below 2*T_react = {}",
            t_react * 2
        );
        assert!(
            (0.0..1.0).contains(&displacement),
            "displacement factor must be in [0, 1): {displacement}"
        );
        PowerConfig {
            t_react,
            grouping_threshold: gt,
            displacement,
            min_consecutive: 3,
            max_pattern_size: 64,
            low_power_fraction: 0.43,
            intercept_overhead: SimDuration::from_us(1),
            ppa_base_overhead: SimDuration::from_us(5),
            ppa_per_element_overhead: SimDuration::from_ns(200),
            rungs: SleepRungs::WRPS,
            deep_threshold: SimDuration::from_ms(5),
            deep_t_react: SimDuration::from_ms(1),
            deep_power_fraction: 0.10,
            rate_threshold: default_rate_threshold(),
            rate_t_react: default_rate_t_react(),
            rate_power_fraction: default_rate_power_fraction(),
            resilience: ResilienceConfig::default(),
            occurrence_window: default_occurrence_window(),
        }
    }

    /// The lane-off timer for a predicted idle interval, per Algorithm 3:
    ///
    /// ```text
    /// safetyLimit      = idleTime * displacement + T_react
    /// predictIdleTime  = idleTime - safetyLimit
    /// ```
    ///
    /// Returns `None` when the resulting window leaves no net low-power
    /// time (i.e. `predictIdleTime ≤ T_react`, since the off-transition
    /// itself consumes `T_react` at full power).
    pub fn lane_off_timer(&self, predicted_idle: SimDuration) -> Option<SimDuration> {
        self.depth_timer_with(self.displacement, predicted_idle, SleepKind::Wrps)
    }

    /// Relative power saved while a link sits in low-power mode
    /// (`1 − low_power_fraction`, ≈ 0.57 for WRPS).
    pub fn low_power_saving(&self) -> f64 {
        1.0 - self.low_power_fraction
    }

    /// The paper's §VI extension: same mechanism, but predicted idles of
    /// at least `threshold` also power down switch buffers/crossbar
    /// (deep state: 1 ms reactivation, 10% draw).
    pub fn with_deep_sleep(mut self, threshold: SimDuration) -> Self {
        assert!(
            threshold >= self.deep_t_react * 2,
            "deep threshold {threshold} below 2×deep T_react"
        );
        self.rungs = SleepRungs::DEEP;
        self.deep_threshold = threshold;
        self
    }

    /// Enable the full sleep-depth ladder (off by default): each
    /// predicted idle commits to the deepest of deep sleep, rate
    /// reduction, or WRPS whose wake cost fits inside the prediction.
    ///
    /// # Panics
    /// Panics if the configured ladder violates its ordering invariants
    /// (power floors must strictly deepen, wake latencies must not
    /// shrink with depth, thresholds must cover two reactivations).
    pub fn with_ladder(mut self) -> Self {
        self.rungs = SleepRungs::ALL;
        if let Err(e) = self.validate() {
            panic!("invalid sleep ladder: {e}");
        }
        self
    }

    /// Reactivation time of a sleep kind.
    pub fn react_of(&self, kind: SleepKind) -> SimDuration {
        match kind {
            SleepKind::Wrps => self.t_react,
            SleepKind::Rate => self.rate_t_react,
            SleepKind::Deep => self.deep_t_react,
        }
    }

    /// Relative draw of a sleep kind.
    pub fn draw_of(&self, kind: SleepKind) -> f64 {
        match kind {
            SleepKind::Wrps => self.low_power_fraction,
            SleepKind::Rate => self.rate_power_fraction,
            SleepKind::Deep => self.deep_power_fraction,
        }
    }

    /// Minimum predicted idle that makes a sleep kind eligible.
    pub fn threshold_of(&self, kind: SleepKind) -> SimDuration {
        match kind {
            SleepKind::Wrps => SimDuration::ZERO,
            SleepKind::Rate => self.rate_threshold,
            SleepKind::Deep => self.deep_threshold,
        }
    }

    /// Plan a sleep for a predicted idle interval: pick the depth (among
    /// the enabled [`SleepRungs`]) and compute the Algorithm 3 timer for
    /// it. Deeper rungs fall back to shallower ones when the idle is
    /// below their threshold or their timer would be unprofitable.
    pub fn plan_sleep(&self, predicted_idle: SimDuration) -> Option<(SleepKind, SimDuration)> {
        self.plan_sleep_with(self.displacement, predicted_idle)
    }

    /// [`PowerConfig::plan_sleep`] with an explicit (possibly guard-band
    /// widened) displacement factor.
    pub fn plan_sleep_with(
        &self,
        displacement: f64,
        predicted_idle: SimDuration,
    ) -> Option<(SleepKind, SimDuration)> {
        // Deepest first: commit to the deepest enabled state whose wake
        // cost fits inside the prediction minus the guard band.
        self.rungs
            .iter()
            .rev()
            .filter(|&kind| predicted_idle >= self.threshold_of(kind))
            .find_map(|kind| {
                self.depth_timer_with(displacement, predicted_idle, kind)
                    .map(|timer| (kind, timer))
            })
    }

    /// Algorithm 3's timer generalized to an arbitrary sleep depth:
    /// `timer = idle − (idle·displacement + react)`, profitable only
    /// when the result exceeds the depth's own reactivation time.
    fn depth_timer_with(
        &self,
        displacement: f64,
        predicted_idle: SimDuration,
        kind: SleepKind,
    ) -> Option<SimDuration> {
        let react = self.react_of(kind);
        let safety = predicted_idle.mul_f64(displacement) + react;
        let timer = predicted_idle.saturating_sub(safety);
        (timer > react).then_some(timer)
    }

    /// Check every invariant the runtime's arithmetic depends on,
    /// without panicking — for configs that arrive over the wire
    /// (an `Open` frame or a restored snapshot) where [`PowerConfig::paper`]'s
    /// asserts would let hostile input kill a server worker. NaN and
    /// infinite floats are rejected along with out-of-range values.
    pub fn validate(&self) -> Result<(), String> {
        if self.grouping_threshold < self.t_react * 2 {
            return Err(format!(
                "grouping threshold {} below 2*T_react",
                self.grouping_threshold
            ));
        }
        // Range checks on floats double as NaN rejection: a NaN
        // compares false with everything, so `contains` fails.
        if !(0.0..1.0).contains(&self.displacement) {
            return Err(format!("displacement {} outside [0, 1)", self.displacement));
        }
        if self.min_consecutive < 2 || self.max_pattern_size < 2 {
            return Err("declaration policy below the bi-gram minimum".into());
        }
        if !(0.0..=1.0).contains(&self.low_power_fraction)
            || !(0.0..=1.0).contains(&self.rate_power_fraction)
            || !(0.0..=1.0).contains(&self.deep_power_fraction)
        {
            return Err("power fractions must be in [0, 1]".into());
        }
        if self.rungs.0 & !SleepRungs::ALL.0 != 0 || !self.rungs.contains(SleepKind::Wrps) {
            return Err(format!(
                "rung set {:#05b} must contain WRPS and only known depths",
                self.rungs.0
            ));
        }
        // One ordering check over the enabled rungs, shallowest first.
        let mut shallower = SleepKind::Wrps;
        for kind in self.rungs.iter().skip(1) {
            if self.draw_of(kind) >= self.draw_of(shallower) {
                return Err(format!(
                    "power floors must strictly deepen: {} {} not below {} {}",
                    kind.label(),
                    self.draw_of(kind),
                    shallower.label(),
                    self.draw_of(shallower)
                ));
            }
            if self.react_of(kind) < self.react_of(shallower) {
                return Err(format!(
                    "wake latencies must not shrink with depth: {} {} below {} {}",
                    kind.label(),
                    self.react_of(kind),
                    shallower.label(),
                    self.react_of(shallower)
                ));
            }
            if self.threshold_of(kind) < self.react_of(kind) * 2 {
                return Err(format!(
                    "{} threshold {} below 2x its reactivation time",
                    kind.label(),
                    self.threshold_of(kind)
                ));
            }
            shallower = kind;
        }
        let r = &self.resilience;
        if r.enabled {
            if !r.max_guard.is_finite()
                || r.max_guard < 0.0
                || self.displacement + r.max_guard >= 1.0
            {
                return Err(format!(
                    "displacement {} + max_guard {} must stay below 1",
                    self.displacement, r.max_guard
                ));
            }
            if !(0.0..=1.0).contains(&r.guard_decay) {
                return Err(format!("guard_decay {} outside [0, 1]", r.guard_decay));
            }
            if !r.guard_step.is_finite() || r.guard_step < 0.0 {
                return Err(format!("guard_step {} must be finite and >= 0", r.guard_step));
            }
            if !r.slowdown_budget_pct.is_finite() || r.slowdown_budget_pct < 0.0 {
                return Err(format!(
                    "slowdown budget {} must be finite and >= 0",
                    r.slowdown_budget_pct
                ));
            }
            if r.storm_threshold < 1 || r.storm_window < 1 {
                return Err("storm detection needs a window and threshold of at least 1".into());
            }
        }
        Ok(())
    }

    /// Attach a resilience controller configuration.
    ///
    /// # Panics
    /// Panics if the widest possible effective displacement
    /// (`displacement + max_guard`) reaches 1 (the timer would always be
    /// unprofitable), or if decay/step parameters are out of range.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        if resilience.enabled {
            assert!(
                self.displacement + resilience.max_guard < 1.0,
                "displacement + max_guard must stay below 1"
            );
            assert!(
                (0.0..=1.0).contains(&resilience.guard_decay),
                "guard_decay must be in [0, 1]"
            );
            assert!(resilience.guard_step >= 0.0, "guard_step must be >= 0");
            assert!(
                resilience.slowdown_budget_pct >= 0.0,
                "slowdown budget must be >= 0"
            );
            assert!(
                resilience.storm_threshold >= 1 && resilience.storm_window >= 1,
                "storm detection needs a window and threshold of at least 1"
            );
        }
        self.resilience = resilience;
        self
    }
}

impl Default for PowerConfig {
    /// Paper defaults with `GT = 2·T_react = 20 µs` and the 10%
    /// displacement of Fig. 7.
    fn default() -> Self {
        PowerConfig::paper(SimDuration::from_us(20), 0.10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PowerConfig::default();
        assert_eq!(c.t_react, SimDuration::from_us(10));
        assert_eq!(c.grouping_threshold, SimDuration::from_us(20));
        assert_eq!(c.displacement, 0.10);
        assert_eq!(c.min_consecutive, 3);
        assert!((c.low_power_fraction - 0.43).abs() < 1e-12);
        assert_eq!(c.intercept_overhead, SimDuration::from_us(1));
    }

    #[test]
    fn lane_off_timer_follows_algorithm3() {
        let c = PowerConfig::paper(SimDuration::from_us(20), 0.10);
        // idle = 1000 µs: safety = 100 + 10 = 110 µs, timer = 890 µs.
        let timer = c.lane_off_timer(SimDuration::from_us(1000)).unwrap();
        assert_eq!(timer, SimDuration::from_us(890));
    }

    #[test]
    fn lane_off_timer_rejects_unprofitable_windows() {
        let c = PowerConfig::paper(SimDuration::from_us(20), 0.10);
        // idle = 20 µs: timer = 20 - 2 - 10 = 8 µs ≤ T_react → no saving.
        assert!(c.lane_off_timer(SimDuration::from_us(20)).is_none());
        // idle = 0 must not underflow.
        assert!(c.lane_off_timer(SimDuration::ZERO).is_none());
    }

    #[test]
    fn lane_off_timer_monotone_in_idle() {
        let c = PowerConfig::paper(SimDuration::from_us(36), 0.05);
        let mut last = SimDuration::ZERO;
        for us in (40..2000).step_by(37) {
            if let Some(t) = c.lane_off_timer(SimDuration::from_us(us)) {
                assert!(t >= last, "timer must grow with idle time");
                last = t;
            }
        }
        assert!(last > SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "below 2*T_react")]
    fn rejects_too_small_gt() {
        let _ = PowerConfig::paper(SimDuration::from_us(5), 0.10);
    }

    #[test]
    #[should_panic(expected = "displacement")]
    fn rejects_bad_displacement() {
        let _ = PowerConfig::paper(SimDuration::from_us(20), 1.5);
    }

    #[test]
    fn low_power_saving_is_complement() {
        let c = PowerConfig::default();
        assert!((c.low_power_saving() - 0.57).abs() < 1e-12);
    }

    #[test]
    fn ladder_picks_deepest_profitable_state() {
        let c = PowerConfig::paper(SimDuration::from_us(20), 0.01).with_ladder();
        // 10 ms ≥ deep_threshold (5 ms): deep wins.
        let (kind, _) = c.plan_sleep(SimDuration::from_ms(10)).unwrap();
        assert_eq!(kind, SleepKind::Deep);
        // 1 ms: below the deep threshold, above the rate threshold.
        let (kind, timer) = c.plan_sleep(SimDuration::from_ms(1)).unwrap();
        assert_eq!(kind, SleepKind::Rate);
        assert!(timer > c.rate_t_react);
        // 100 µs: too short for a rate retrain, WRPS still profitable.
        let (kind, _) = c.plan_sleep(SimDuration::from_us(100)).unwrap();
        assert_eq!(kind, SleepKind::Wrps);
        // 20 µs: nothing profitable.
        assert!(c.plan_sleep(SimDuration::from_us(20)).is_none());
    }

    #[test]
    fn ladder_timer_follows_algorithm3_per_depth() {
        let c = PowerConfig::paper(SimDuration::from_us(20), 0.10).with_ladder();
        // idle = 1 ms: safety = 100 µs + 100 µs retrain → timer 800 µs.
        let (kind, timer) = c.plan_sleep(SimDuration::from_ms(1)).unwrap();
        assert_eq!(kind, SleepKind::Rate);
        assert_eq!(timer, SimDuration::from_us(800));
    }

    #[test]
    fn default_policy_never_emits_rate_or_deep() {
        let c = PowerConfig::default();
        for us in [30, 100, 600, 6_000, 60_000] {
            if let Some((kind, _)) = c.plan_sleep(SimDuration::from_us(us)) {
                assert_eq!(kind, SleepKind::Wrps, "paper config must stay WRPS-only");
            }
        }
    }

    #[test]
    fn ladder_validate_rejects_inverted_floors() {
        let mut c = PowerConfig::default().with_ladder();
        c.rate_power_fraction = 0.05; // below the deep floor
        let err = c.validate().unwrap_err();
        assert!(err.contains("strictly deepen"), "{err}");
        let mut c = PowerConfig::default().with_ladder();
        c.rate_t_react = SimDuration::from_us(1);
        let err = c.validate().unwrap_err();
        assert!(err.contains("wake latencies"), "{err}");
    }

    #[test]
    fn validate_rejects_malformed_rung_sets() {
        // No WRPS, only unknown bits, or a known set plus an unknown bit.
        for bits in [0b000, 0b110, 0b1000, 0b1001, 0xff] {
            let c = PowerConfig {
                rungs: SleepRungs(bits),
                ..PowerConfig::default()
            };
            let err = c.validate().unwrap_err();
            assert!(err.contains("rung set"), "{bits:#b}: {err}");
        }
        for rungs in [SleepRungs::WRPS, SleepRungs::DEEP, SleepRungs::ALL] {
            let c = PowerConfig { rungs, ..PowerConfig::default() };
            assert_eq!(c.validate(), Ok(()), "{rungs:?}");
        }
    }

    #[test]
    fn sleep_kind_labels() {
        assert_eq!(SleepKind::Wrps.label(), "wrps");
        assert_eq!(SleepKind::Rate.label(), "rate");
        assert_eq!(SleepKind::Deep.label(), "deep");
    }

    #[test]
    fn pre_rung_set_configs_do_not_decode() {
        // A config written with the old `policy` enum has no rung set;
        // it must fail to decode rather than fall back to WRPS.
        let mut v = PowerConfig::default().with_ladder().to_value();
        let serde::Value::Map(entries) = &mut v else {
            panic!("config serializes as an object");
        };
        entries.retain(|(k, _)| k != "rungs");
        entries.push(("policy".into(), serde::Value::Str("Ladder".into())));
        let err = PowerConfig::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("rungs"), "{err}");
    }

    #[test]
    fn old_wire_configs_still_parse() {
        // A config serialized before the ladder fields existed must
        // deserialize with the default (paper-identical) ladder values.
        let mut v = PowerConfig::default().to_value();
        let serde::Value::Map(entries) = &mut v else {
            panic!("config serializes as an object");
        };
        entries.retain(|(k, _)| {
            !matches!(k.as_str(), "rate_threshold" | "rate_t_react" | "rate_power_fraction")
        });
        let back = PowerConfig::from_value(&v).unwrap();
        assert_eq!(back, PowerConfig::default());
    }
}
