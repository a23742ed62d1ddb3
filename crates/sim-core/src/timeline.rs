//! State timelines.
//!
//! A [`StateTimeline`] records when a component (a link, a lane group, a
//! switch port) changes state, and can afterwards answer "how long was it
//! in state S?" — the per-link power timelines rendered as Fig. 6.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One maximal interval during which the state was constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateInterval<S> {
    /// Interval start (inclusive).
    pub start: SimTime,
    /// Interval end (exclusive).
    pub end: SimTime,
    /// The state held throughout the interval.
    pub state: S,
}

impl<S> StateInterval<S> {
    /// Length of the interval.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// An append-only record of state transitions over simulated time.
///
/// Transitions must be recorded in non-decreasing time order. Recording the
/// same state again is a no-op (intervals stay maximal); recording a new
/// state at the exact time of the previous transition *replaces* it (the
/// zero-length interval is dropped).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateTimeline<S> {
    /// (transition time, new state) pairs, strictly increasing in time.
    transitions: Vec<(SimTime, S)>,
}

impl<S: Copy + PartialEq> StateTimeline<S> {
    /// Start a timeline in `initial` state at time zero.
    pub fn new(initial: S) -> Self {
        StateTimeline {
            transitions: vec![(SimTime::ZERO, initial)],
        }
    }

    /// Record that the state becomes `state` at time `t`.
    ///
    /// # Panics
    /// Panics if `t` precedes the last recorded transition.
    pub fn record(&mut self, t: SimTime, state: S) {
        let (last_t, last_s) = *self.transitions.last().expect("timeline never empty");
        assert!(t >= last_t, "StateTimeline::record: time went backwards");
        if state == last_s {
            return;
        }
        if t == last_t {
            // Replace the zero-length interval.
            self.transitions.last_mut().expect("non-empty").1 = state;
            // Collapse with predecessor if this made it redundant.
            let n = self.transitions.len();
            if n >= 2 && self.transitions[n - 2].1 == state {
                self.transitions.pop();
            }
            return;
        }
        self.transitions.push((t, state));
    }

    /// The state currently in effect (after the last transition).
    pub fn current(&self) -> S {
        self.transitions.last().expect("timeline never empty").1
    }

    /// The time of the last recorded transition.
    pub fn last_transition(&self) -> SimTime {
        self.transitions.last().expect("timeline never empty").0
    }

    /// Iterate over maximal constant-state intervals, closing the final
    /// interval at `end`.
    ///
    /// # Panics
    /// Panics if `end` precedes the last transition.
    pub fn intervals(&self, end: SimTime) -> impl Iterator<Item = StateInterval<S>> + '_ {
        assert!(
            end >= self.last_transition(),
            "timeline end before last transition"
        );
        let n = self.transitions.len();
        (0..n).filter_map(move |i| {
            let (start, state) = self.transitions[i];
            let stop = if i + 1 < n {
                self.transitions[i + 1].0
            } else {
                end
            };
            (stop > start).then_some(StateInterval {
                start,
                end: stop,
                state,
            })
        })
    }

    /// Total time spent in states satisfying `pred`, up to `end`.
    pub fn time_in(&self, end: SimTime, mut pred: impl FnMut(S) -> bool) -> SimDuration {
        self.intervals(end)
            .filter(|iv| pred(iv.state))
            .map(|iv| iv.duration())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Mode {
        Full,
        Low,
    }

    #[test]
    fn records_and_integrates() {
        let mut tl = StateTimeline::new(Mode::Full);
        tl.record(SimTime::from_us(10), Mode::Low);
        tl.record(SimTime::from_us(30), Mode::Full);
        let end = SimTime::from_us(40);

        let low = tl.time_in(end, |s| s == Mode::Low);
        assert_eq!(low, SimDuration::from_us(20));
        assert_eq!(
            tl.time_in(end, |s| s == Mode::Full),
            SimDuration::from_us(20)
        );
    }

    #[test]
    fn duplicate_state_is_noop() {
        let mut tl = StateTimeline::new(Mode::Full);
        tl.record(SimTime::from_us(5), Mode::Full);
        tl.record(SimTime::from_us(9), Mode::Full);
        assert_eq!(tl.intervals(SimTime::from_us(20)).count(), 1);
    }

    #[test]
    fn same_time_transition_replaces() {
        let mut tl = StateTimeline::new(Mode::Full);
        tl.record(SimTime::from_us(10), Mode::Low);
        tl.record(SimTime::from_us(10), Mode::Full); // collapses back
        assert_eq!(tl.intervals(SimTime::from_us(10)).count(), 1);
        assert_eq!(tl.current(), Mode::Full);

        tl.record(SimTime::from_us(20), Mode::Low);
        let ivs: Vec<_> = tl.intervals(SimTime::from_us(30)).collect();
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].state, Mode::Full);
        assert_eq!(ivs[0].duration(), SimDuration::from_us(20));
    }

    #[test]
    fn intervals_cover_whole_range_without_gaps() {
        let mut tl = StateTimeline::new(0u8);
        for i in 1..=5 {
            tl.record(SimTime::from_us(i * 7), i as u8);
        }
        let end = SimTime::from_us(100);
        let ivs: Vec<_> = tl.intervals(end).collect();
        assert_eq!(ivs.first().unwrap().start, SimTime::ZERO);
        assert_eq!(ivs.last().unwrap().end, end);
        for w in ivs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "no gaps, no overlaps");
        }
        let total: SimDuration = ivs.iter().map(|iv| iv.duration()).sum();
        assert_eq!(total, SimDuration::from_us(100));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_going_backwards_panics() {
        let mut tl = StateTimeline::new(0u8);
        tl.record(SimTime::from_us(10), 1);
        tl.record(SimTime::from_us(5), 2);
    }
}
