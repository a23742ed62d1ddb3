//! The two halves of a replay: a timing run and a power score.
//!
//! The timing loop reads only part of an annotation: each event's
//! overhead and penalty, and each directive's position, delay and depth.
//! A directive's wake timer (and the predicted idle it was derived from)
//! matter only to the power pass after the run. So
//! [`crate::replay_timing`] returns a [`ReplayTiming`] that keeps what
//! the run timed, and [`ReplayTiming::score`] applies to it any
//! annotation with the same [`TimingKey`]. The paper's displacement
//! factors often change only the timers, and then one timing run serves
//! every displacement (DESIGN.md §16).

use crate::config::SimParams;
use crate::fabric::FabricStats;
use crate::faults::FaultStats;
use crate::power::{LinkPowerTracker, SleepWindow};
use crate::results::SimResult;
use ibp_core::{SleepKind, TraceAnnotations};
use ibp_simcore::{SimDuration, SimTime};

/// A sleep window as the timing run resolved it: when the lanes were
/// told to shut down, and when the rank next wanted the network. Its
/// wake timer and depth come from the directive it was resolved from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResolvedWindow {
    pub(crate) t0: SimTime,
    pub(crate) t_want: SimTime,
}

/// A 128-bit digest of everything the timing run reads from an
/// annotation: per event the overhead and the penalty, per directive
/// `after_event`, `delay` and `kind` (fault misfires are drawn at the
/// directives' positions and charge their depth's reactivation time),
/// and every length. `timer` and `predicted_idle` are left out: only the
/// power score reads them.
///
/// For one trace, [`SimParams`] and [`crate::ReplayOptions`], two
/// annotations with equal keys time identically. The digest runs two
/// independently seeded 64-bit lanes; each step of a lane is a bijection
/// of its state, so two inputs of one shape that differ in a single
/// field never share a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingKey([u64; 2]);

/// Per lane: seed, multiplier (odd) and xorshift.
const LANES: [(u64, u64, u32); 2] = [
    (0x243F_6A88_85A3_08D3, 0x9E37_79B9_7F4A_7C15, 32),
    (0x1319_8A2E_0370_7344, 0xD6E8_FEB8_6659_FD93, 29),
];

impl TimingKey {
    /// The key of `ann`; `None` (the baseline replay) has a key of its
    /// own.
    #[must_use]
    pub fn of(ann: Option<&TraceAnnotations>) -> TimingKey {
        let mut h = LANES.map(|(seed, _, _)| seed);
        let mut push = |w: u64| {
            for (h, (_, mul, shift)) in h.iter_mut().zip(LANES) {
                let x = *h ^ w;
                *h = (x ^ (x >> shift)).wrapping_mul(mul);
            }
        };
        match ann {
            None => push(0),
            Some(a) => {
                push(1);
                push(a.ranks.len() as u64);
                for ra in &a.ranks {
                    push(ra.overhead.len() as u64);
                    push(ra.penalty.len() as u64);
                    push(ra.directives.len() as u64);
                    for d in ra.overhead.iter().chain(&ra.penalty) {
                        push(d.as_ns());
                    }
                    for d in &ra.directives {
                        push(d.after_event as u64);
                        push(d.delay.as_ns());
                        push(d.kind as u64);
                    }
                }
            }
        }
        TimingKey(h)
    }
}

/// What a replay timed, without its power accounting: the result's
/// timing fields and each link's resolved sleep windows without their
/// timers. [`ReplayTiming::score`] turns it into a [`SimResult`].
#[derive(Debug, Clone)]
pub struct ReplayTiming {
    key: TimingKey,
    exec_time: SimDuration,
    rank_finish: Vec<SimTime>,
    fabric: FabricStats,
    faults: FaultStats,
    /// Every rank's windows, rank-major; window `i` of a rank came from
    /// the rank's directive `i`.
    windows: Vec<ResolvedWindow>,
    /// Per rank, where its windows end in `windows`.
    window_end: Vec<usize>,
    /// Indices into `windows` whose wake timer misfired, ascending.
    misfired: Vec<usize>,
    record_timelines: bool,
}

impl ReplayTiming {
    /// Gather a finished run; `windows[r]` and `misfired[r]` are rank
    /// `r`'s buffers (misfires as indices into its windows). Makes a
    /// fixed number of exactly sized allocations.
    pub(crate) fn new(
        key: TimingKey,
        rank_finish: Vec<SimTime>,
        fabric: FabricStats,
        faults: FaultStats,
        windows: &[Vec<ResolvedWindow>],
        misfired: &[Vec<usize>],
        record_timelines: bool,
    ) -> Self {
        let mut flat = Vec::with_capacity(windows.iter().map(Vec::len).sum());
        let mut flat_misfired = Vec::with_capacity(misfired.iter().map(Vec::len).sum());
        let mut window_end = Vec::with_capacity(windows.len());
        for (w, m) in windows.iter().zip(misfired) {
            flat_misfired.extend(m.iter().map(|&i| flat.len() + i));
            flat.extend_from_slice(w);
            window_end.push(flat.len());
        }
        let exec = rank_finish.iter().copied().max().unwrap_or(SimTime::ZERO);
        ReplayTiming {
            key,
            exec_time: exec.since(SimTime::ZERO),
            rank_finish,
            fabric,
            faults,
            windows: flat,
            window_end,
            misfired: flat_misfired,
            record_timelines,
        }
    }

    /// The [`TimingKey`] of the annotation this run was timed with.
    #[must_use]
    pub fn key(&self) -> TimingKey {
        self.key
    }

    /// The replay's result under `ann`, whose [`TimingKey`] must be this
    /// timing's (checked in debug builds): each link's windows take
    /// their timers and depths from `ann`'s directives and are applied
    /// in one batched [`LinkPowerTracker::apply_windows`] pass.
    #[must_use]
    pub fn score(&self, ann: Option<&TraceAnnotations>, params: &SimParams) -> SimResult {
        debug_assert!(
            TimingKey::of(ann) == self.key,
            "scored against an annotation this run did not time"
        );
        let mut misfired = self.misfired.iter().copied().peekable();
        let mut start = 0;
        let links: Vec<LinkPowerTracker> = self
            .window_end
            .iter()
            .enumerate()
            .map(|(r, &end)| {
                let mut power = LinkPowerTracker::new(self.record_timelines);
                if end > start {
                    let directives =
                        &ann.expect("windows come from directives").ranks[r].directives;
                    let windows = self.windows[start..end].iter().zip(directives).zip(start..);
                    power.apply_windows(
                        params,
                        windows.map(|((w, d), i)| SleepWindow {
                            t0: w.t0,
                            timer: misfired.next_if_eq(&i).is_none().then_some(d.timer),
                            t_want: w.t_want,
                            kind: d.kind,
                        }),
                    );
                }
                start = end;
                power
            })
            .collect();

        // Accounting invariant: no host link sleeps or switches for
        // longer than the run lasts, so its full-power residency is
        // never negative.
        for (r, power) in links.iter().enumerate() {
            let asleep = power.sleep_time.iter().copied().sum::<SimDuration>();
            debug_assert!(
                asleep + power.transition_time <= self.exec_time,
                "link {r}: {asleep} asleep + {} in transition exceeds the {} run",
                power.transition_time,
                self.exec_time
            );
        }
        SimResult {
            exec_time: self.exec_time,
            rank_finish: self.rank_finish.clone(),
            link_sleep: links.iter().map(|l| l.sleep_time).collect(),
            link_transition: links.iter().map(|l| l.transition_time).collect(),
            link_sleeps: links.iter().map(|l| l.sleeps).collect(),
            timelines: self.record_timelines.then(|| {
                links
                    .into_iter()
                    .map(|l| l.timeline.expect("recording enabled"))
                    .collect()
            }),
            fabric: self.fabric,
            sleep_power_fraction: SleepKind::ALL.map(|kind| params.draw_of(kind)),
            faults: self.faults.clone(),
        }
    }
}
