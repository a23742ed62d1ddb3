//! Link power states and per-link power accounting.
//!
//! Each rank's host link (HCA ↔ leaf-switch port) is driven by the lane
//! directives the runtime issued: after the anchoring MPI call completes,
//! the three inactive lanes transition off (`T_react`, billed at full
//! power, per the paper's assumption for the switching mode), sit in
//! low-power 1X mode (43% of nominal draw), and transition back on when
//! the HCA timer fires — or earlier, on demand, when the next MPI call
//! wants the network before the timer.

use crate::config::SimParams;
use ibp_core::SleepKind;
use ibp_simcore::{SimDuration, SimTime, StateTimeline};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Power state of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkPower {
    /// All four lanes active (nominal draw).
    Full,
    /// One lane active, three off (WRPS 1X mode, 43% of nominal).
    Low,
    /// All four lanes at the lowest signalling rate (ladder middle
    /// rung, ~25% draw).
    Rate,
    /// Switch buffers/crossbar down too (§VI deep sleep, ~10% draw).
    Deep,
    /// Lanes shifting between modes (billed at full power).
    Transition,
}

impl LinkPower {
    /// The state a link is in while a runtime's sleep directive is
    /// outstanding: no pending sleep means all lanes up; a WRPS sleep
    /// is the 1X low-power mode; a rate sleep keeps all lanes up at the
    /// lowest signalling rate; a deep sleep powers the port down.
    /// This is the readout `ibpower stat`/`top` render per session.
    #[must_use]
    pub fn from_pending_sleep(pending: Option<SleepKind>) -> LinkPower {
        match pending {
            None => LinkPower::Full,
            Some(SleepKind::Wrps) => LinkPower::Low,
            Some(SleepKind::Rate) => LinkPower::Rate,
            Some(SleepKind::Deep) => LinkPower::Deep,
        }
    }

    /// Active lanes in this state (the paper's links are 4X). Rate
    /// reduction keeps every lane up — only the signalling rate drops.
    #[must_use]
    pub fn lane_width(self) -> u8 {
        match self {
            LinkPower::Full | LinkPower::Transition | LinkPower::Rate => 4,
            LinkPower::Low => 1,
            LinkPower::Deep => 0,
        }
    }

    /// Signalling rate at this state, Gb/s, for the paper's QDR links
    /// (see [`LinkPower::speed_gbps_for`] for other generations).
    #[must_use]
    pub fn speed_gbps(self) -> f64 {
        self.speed_gbps_for(crate::genlink::IbGeneration::Qdr)
    }

    /// Signalling rate at this state for a link generation, Gb/s:
    /// width reduction keeps the per-lane rate on one lane, rate
    /// reduction keeps all lanes at a quarter of the per-lane rate
    /// (QDR's rate rung is SDR signalling), deep sleep carries nothing.
    #[must_use]
    pub fn speed_gbps_for(self, generation: crate::genlink::IbGeneration) -> f64 {
        match self {
            LinkPower::Full | LinkPower::Transition => generation.link_gbps(),
            LinkPower::Low => generation.per_lane_gbps(),
            LinkPower::Rate => generation.link_gbps() / 4.0,
            LinkPower::Deep => 0.0,
        }
    }

    /// `ibstat`-style state label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LinkPower::Full => "Full",
            LinkPower::Low => "Low",
            LinkPower::Rate => "Rate",
            LinkPower::Deep => "Deep",
            LinkPower::Transition => "Trans",
        }
    }
}

/// One resolved sleep window, ready for batched application — see
/// [`LinkPowerTracker::apply_windows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SleepWindow {
    /// When the lanes were directed to shut down.
    pub t0: SimTime,
    /// Programmed HCA wake timer; `None` models a misfired timer (only
    /// the demand at `t_want` wakes the lanes).
    pub timer: Option<SimDuration>,
    /// When the rank next wanted the network.
    pub t_want: SimTime,
    /// Sleep depth.
    pub kind: SleepKind,
}

/// Power bookkeeping for one host link.
#[derive(Debug, Clone)]
pub struct LinkPowerTracker {
    /// Optional full state timeline (for Fig. 6-style rendering).
    pub timeline: Option<StateTimeline<LinkPower>>,
    /// Accumulated time in each sleep depth, indexed by [`SleepKind`].
    pub sleep_time: [SimDuration; 3],
    /// Accumulated transition time.
    pub transition_time: SimDuration,
    /// No new state may begin before this instant (end of the last
    /// recorded transition).
    floor: SimTime,
    /// Number of sleep windows applied.
    pub sleeps: u64,
}

impl LinkPowerTracker {
    /// Create a tracker; `record` enables the full timeline.
    pub fn new(record: bool) -> Self {
        LinkPowerTracker {
            timeline: record.then(|| StateTimeline::new(LinkPower::Full)),
            sleep_time: [SimDuration::ZERO; 3],
            transition_time: SimDuration::ZERO,
            floor: SimTime::ZERO,
            sleeps: 0,
        }
    }

    /// Earliest instant a new sleep may begin.
    #[inline]
    #[must_use]
    pub fn floor(&self) -> SimTime {
        self.floor
    }

    /// Apply a batch of resolved windows in order — the entry point
    /// replay scoring uses ([`crate::ReplayTiming::score`]): window
    /// *resolution* (which only needs timestamps) happens on the timing
    /// hot path, and the link's whole power timeline is advanced here in
    /// one pass after the run completes. Applying a batch in one call or
    /// split over several calls gives identical accounting, because the
    /// only state a window reads besides its own fields is the floor
    /// left by its predecessor.
    ///
    /// Each window's lanes shut down at `t0` (clamped to the floor) and
    /// wake when the HCA timer fires or, earlier, on demand at `t_want`;
    /// a misfired timer (`None`) leaves only the demand wake. The depth's
    /// reactivation time bounds the low-power span on both sides.
    pub fn apply_windows(
        &mut self,
        params: &SimParams,
        windows: impl IntoIterator<Item = impl Borrow<SleepWindow>>,
    ) {
        for w in windows {
            let w = w.borrow();
            let react = params.react_of(w.kind);
            let t0 = w.t0.max(self.floor);
            let off_end = t0 + react;
            // Demand wake cannot precede the end of the off transition
            // (the lanes must finish shutting down before they can start
            // waking).
            let demand = w.t_want.max(off_end);
            let wake = match w.timer {
                Some(timer) => (t0 + timer).min(demand),
                None => demand, // misfired timer: only demand wakes the lanes
            };
            let low_span = wake.saturating_since(off_end);
            let full_again = wake + react;

            if let Some(tl) = &mut self.timeline {
                tl.record(t0, LinkPower::Transition);
                if !low_span.is_zero() {
                    tl.record(off_end, LinkPower::from_pending_sleep(Some(w.kind)));
                }
                tl.record(wake, LinkPower::Transition);
                tl.record(full_again, LinkPower::Full);
            }
            self.sleep_time[w.kind as usize] += low_span;
            self.transition_time += full_again.since(wake) + off_end.since(t0);
            self.floor = full_again;
            self.sleeps += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimTime {
        SimTime::from_us(x)
    }

    fn dur(x: u64) -> SimDuration {
        SimDuration::from_us(x)
    }

    fn window(t0: u64, timer: Option<u64>, t_want: u64, kind: SleepKind) -> SleepWindow {
        SleepWindow {
            t0: us(t0),
            timer: timer.map(dur),
            t_want: us(t_want),
            kind,
        }
    }

    /// Apply one window and return the low-power span it achieved.
    fn apply(t: &mut LinkPowerTracker, p: &SimParams, w: SleepWindow) -> SimDuration {
        let before = t.sleep_time[w.kind as usize];
        t.apply_windows(p, [w]);
        t.sleep_time[w.kind as usize] - before
    }

    #[test]
    fn normal_sleep_window() {
        let p = SimParams::paper();
        let mut t = LinkPowerTracker::new(true);
        // Sleep at t=100 µs with a 90 µs timer; next demand at 200 µs.
        let span = apply(&mut t, &p, window(100, Some(90), 200, SleepKind::Wrps));
        // Low power from 110 to 190 µs.
        assert_eq!(span, dur(80));
        assert_eq!(
            t.sleep_time,
            [dur(80), SimDuration::ZERO, SimDuration::ZERO]
        );
        assert_eq!(t.transition_time, dur(20));
        assert_eq!(t.floor(), us(200));
        let tl = t.timeline.as_ref().unwrap();
        assert_eq!(tl.time_in(us(300), |s| s == LinkPower::Low), dur(80));
        assert_eq!(tl.current(), LinkPower::Full);
    }

    #[test]
    fn demand_wake_truncates_low_span() {
        let p = SimParams::paper();
        let mut t = LinkPowerTracker::new(false);
        // Timer says 90 µs but the rank wants the network at t=150 µs.
        let span = apply(&mut t, &p, window(100, Some(90), 150, SleepKind::Wrps));
        // Low power 110..150 only.
        assert_eq!(span, dur(40));
    }

    #[test]
    fn demand_before_off_transition_gives_zero_span() {
        let p = SimParams::paper();
        let mut t = LinkPowerTracker::new(true);
        let span = apply(&mut t, &p, window(100, Some(90), 105, SleepKind::Wrps));
        assert_eq!(span, SimDuration::ZERO);
        // Still pays both transitions.
        assert_eq!(t.transition_time, dur(20));
    }

    #[test]
    fn floor_prevents_overlapping_sleeps() {
        let p = SimParams::paper();
        let mut t = LinkPowerTracker::new(true);
        apply(&mut t, &p, window(100, Some(90), 1000, SleepKind::Wrps));
        // Second sleep nominally at t=150 (inside the first window) gets
        // pushed past the first's wake transition.
        let span = apply(&mut t, &p, window(150, Some(50), 1000, SleepKind::Wrps));
        // Start shifted to the floor (200 µs): off transition ends at
        // 210 µs, timer fires at 250 µs → 40 µs of low power.
        assert_eq!(t.floor(), us(260));
        assert_eq!(span, dur(40));
    }

    #[test]
    fn misfire_extends_low_span_past_timer() {
        let p = SimParams::paper();
        let mut ok = LinkPowerTracker::new(false);
        let mut bad = LinkPowerTracker::new(false);
        // Timer 90 µs, next demand at 400 µs. A working timer wakes at
        // 190 µs; a misfired one sleeps until demand.
        let span_ok = apply(&mut ok, &p, window(100, Some(90), 400, SleepKind::Wrps));
        let span_bad = apply(&mut bad, &p, window(100, None, 400, SleepKind::Wrps));
        assert_eq!(span_ok, dur(80));
        assert_eq!(span_bad, dur(290)); // 110..400
        assert!(bad.floor() > us(400)); // wake transition after demand
    }

    #[test]
    fn batched_windows_match_single_application() {
        let p = SimParams::paper();
        let windows = [
            window(100, Some(90), 400, SleepKind::Wrps),
            // Inside the first window: floor-clamped.
            window(150, Some(50), 1000, SleepKind::Wrps),
            // Misfired timer.
            window(1200, None, 1900, SleepKind::Deep),
            window(4000, Some(900), 6000, SleepKind::Rate),
        ];
        let mut single = LinkPowerTracker::new(true);
        for w in &windows {
            single.apply_windows(&p, std::slice::from_ref(w));
        }
        let mut batched = LinkPowerTracker::new(true);
        batched.apply_windows(&p, windows);
        assert_eq!(batched.sleep_time, single.sleep_time);
        assert_eq!(batched.transition_time, single.transition_time);
        assert_eq!(batched.floor(), single.floor());
        assert_eq!(batched.sleeps, single.sleeps);
        let a = batched.timeline.as_ref().unwrap();
        let b = single.timeline.as_ref().unwrap();
        assert_eq!(
            a.time_in(us(100_000), |s| s == LinkPower::Low),
            b.time_in(us(100_000), |s| s == LinkPower::Low)
        );
        assert_eq!(
            a.time_in(us(100_000), |s| s == LinkPower::Deep),
            b.time_in(us(100_000), |s| s == LinkPower::Deep)
        );
    }

    #[test]
    fn rate_window_uses_rate_react_and_floor() {
        let p = SimParams::paper();
        let mut t = LinkPowerTracker::new(true);
        // Rate sleep at t=1 ms with a 900 µs timer: the 100 µs retrain
        // bounds the state on both sides.
        let span = apply(&mut t, &p, window(1000, Some(900), 10_000, SleepKind::Rate));
        // Rate-reduced from 1100 to 1900 µs.
        assert_eq!(span, dur(800));
        assert_eq!(
            t.sleep_time,
            [SimDuration::ZERO, dur(800), SimDuration::ZERO]
        );
        assert_eq!(t.transition_time, dur(200));
        assert_eq!(t.floor(), us(2000));
        let tl = t.timeline.as_ref().unwrap();
        assert_eq!(tl.time_in(us(10_000), |s| s == LinkPower::Rate), dur(800));
    }

    #[test]
    fn speeds_scale_with_generation() {
        use crate::genlink::IbGeneration;
        assert_eq!(LinkPower::Full.speed_gbps(), 40.0);
        assert_eq!(LinkPower::Low.speed_gbps(), 10.0);
        assert_eq!(LinkPower::Rate.speed_gbps(), 10.0);
        assert_eq!(LinkPower::Deep.speed_gbps(), 0.0);
        assert_eq!(LinkPower::Full.speed_gbps_for(IbGeneration::Hdr), 200.0);
        assert_eq!(LinkPower::Low.speed_gbps_for(IbGeneration::Hdr), 50.0);
        assert_eq!(LinkPower::Rate.speed_gbps_for(IbGeneration::Hdr), 50.0);
    }
}
