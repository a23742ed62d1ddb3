//! Alternative power-management policies for comparison.
//!
//! The paper motivates software prediction by contrast with two families
//! from its related work: hardware on/off schemes that react to observed
//! idleness (Alonso et al., Kim et al.) and idealised knowledge of link
//! usage (compiler-directed schemes, Li et al.). This module implements
//! both ends of that spectrum so the predictive mechanism can be placed
//! between them quantitatively:
//!
//! * [`oracle_annotate_rank`] — perfect knowledge of every idle interval:
//!   lanes shut down at the start of each exploitable gap and wake
//!   *exactly* on time, with zero mispredictions and zero software
//!   overhead. The unreachable upper bound on savings at zero slowdown.
//! * [`reactive_annotate_rank`] — the hardware baseline: lanes shut down
//!   after the link has been idle for a timeout τ, and wake *on demand*
//!   when the next communication arrives, stalling it for a full
//!   `T_react`. More aggressive than prediction (it exploits every gap
//!   longer than τ, predictable or not) but pays the reactivation
//!   latency on the critical path every single time — exactly the
//!   trade-off the paper's introduction describes.
//! * [`history_annotate_rank`] — a sliding-mean predictor with no
//!   notion of patterns, between the two.
//!
//! Each policy is one decision rule run by a shared driver (`drive`): after
//! every event that has a successor, the rule may arm a WRPS lane-off
//! `(delay, timer, predicted_idle)`, and the next event settles it against
//! the gap that actually followed through the same rule the PPA runtime
//! uses (`runtime::settle`), so stalls and low-power spans are computed in
//! one place. The rule sees both the gap before and the gap after the
//! event; the oracle and the reactive policy read the gap after (they are
//! clairvoyant by definition), the history policy does not.
//!
//! All produce ordinary [`RankAnnotation`]s, so the replay engine and the
//! analysis pipeline treat them exactly like the predictive runtime.

use crate::config::{PowerConfig, SleepKind};
use crate::runtime::{settle, LaneDirective, RankAnnotation};
use crate::stats::RankStats;
use ibp_simcore::SimDuration;
use ibp_trace::RankTrace;
use std::collections::VecDeque;

/// Run a baseline decision rule over one rank. After event `i`,
/// `decide(gap_before, gap_after)` — the idle gaps before and after it —
/// returns the `(delay, timer, predicted_idle)` of a WRPS lane-off to arm,
/// or `None`; event `i + 1` settles it. No software overhead is charged.
fn drive(
    trace: &RankTrace,
    cfg: &PowerConfig,
    mut decide: impl FnMut(SimDuration, SimDuration) -> Option<(SimDuration, SimDuration, SimDuration)>,
) -> RankAnnotation {
    let gaps = trace.events.compute();
    let n = gaps.len();
    let react = cfg.react_of(SleepKind::Wrps);
    let mut directives = Vec::new();
    let mut penalty = vec![SimDuration::ZERO; n];
    let mut stats = RankStats {
        total_calls: n as u64,
        nominal_duration: trace.total_compute(),
        ..RankStats::default()
    };
    let mut pending: Option<LaneDirective> = None;

    for (i, &gap) in gaps.iter().enumerate() {
        if let Some(d) = pending.take() {
            let (stall, span) = settle(d.delay, d.timer, react, gap);
            if !stall.is_zero() {
                stats.timing_mispredictions += 1;
                stats.total_penalty += stall;
                penalty[i] = stall;
            }
            stats.sleep_time[SleepKind::Wrps as usize] += span;
        }
        let Some(&gap_after) = gaps.get(i + 1) else {
            break;
        };
        if let Some((delay, timer, predicted_idle)) = decide(gap, gap_after) {
            let d = LaneDirective {
                after_event: i,
                delay,
                timer,
                predicted_idle,
                kind: SleepKind::Wrps,
            };
            directives.push(d);
            stats.lane_off_count += 1;
            pending = Some(d);
        }
    }

    RankAnnotation {
        rank: trace.rank,
        directives,
        overhead: vec![SimDuration::ZERO; n],
        penalty,
        stats,
    }
}

/// Annotate one rank with the oracle policy (see module docs).
pub fn oracle_annotate_rank(trace: &RankTrace, cfg: &PowerConfig) -> RankAnnotation {
    // Exploitable iff the lanes can go down and come back inside the gap
    // with some low-power time left: gap > 2·T_react. Off at gap start,
    // timer such that reactivation completes exactly when the gap ends.
    let mut ann = drive(trace, cfg, |_, gap| {
        (gap > cfg.t_react * 2).then(|| (SimDuration::ZERO, gap - cfg.t_react, gap))
    });
    // The oracle "predicts" everything correctly.
    ann.stats.predicted_calls = ann.stats.total_calls;
    ann.stats.correct_calls = ann.stats.total_calls;
    ann
}

/// Annotate one rank with the reactive idle-timeout policy (see module
/// docs). `timeout` is the idleness threshold τ after which the lanes
/// shut down; `τ = 0` shuts down immediately after every call.
pub fn reactive_annotate_rank(
    trace: &RankTrace,
    cfg: &PowerConfig,
    timeout: SimDuration,
) -> RankAnnotation {
    // The hardware monitors idleness: once the link has been quiet for τ,
    // the lanes go down. Profitable only if some low-power time remains
    // after the off transition and before the demand wake: gap > τ +
    // 2·T_react. The demand wake clamps the window (a timer as long as
    // the gap means "sleep until traffic arrives"), so the arriving call
    // stalls for a full T_react.
    drive(trace, cfg, |_, gap| {
        (gap > timeout + cfg.t_react * 2).then_some((timeout, gap, gap))
    })
}

/// Annotate one rank with a history-window predictor (the hardware
/// DVS-style policy of Shang et al., \[7\] in the paper): the next idle
/// interval is predicted as the mean of the last `window` observed
/// inter-call gaps, with no notion of patterns. Algorithm 3's timer
/// formula is then applied to that prediction.
///
/// This is the instructive middle ground: unlike the reactive policy it
/// wakes up proactively (no unconditional `T_react` stall), but unlike
/// the PPA it has no idea *which* gap comes next — at every transition
/// between long-gap and short-gap program phases the sliding mean is
/// wrong, and the stalls and lost windows land exactly there.
pub fn history_annotate_rank(
    trace: &RankTrace,
    cfg: &PowerConfig,
    window: usize,
) -> RankAnnotation {
    assert!(window > 0, "history window must be non-empty");
    let mut history: VecDeque<u64> = VecDeque::new();
    drive(trace, cfg, |gap, _| {
        // Predict the next gap from the sliding mean of the observed ones.
        history.push_back(gap.as_ns());
        if history.len() > window {
            history.pop_front();
        }
        let mean_ns = history.iter().sum::<u64>() / history.len() as u64;
        let predicted = SimDuration::from_ns(mean_ns);
        cfg.lane_off_timer(predicted)
            .map(|timer| (SimDuration::ZERO, timer, predicted))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::{annotate_trace, map_ranks};
    use ibp_trace::{MpiOp, Trace, TraceBuilder};

    fn us(x: u64) -> SimDuration {
        SimDuration::from_us(x)
    }

    /// One rank, alternating 500 µs and 10 µs gaps.
    fn mixed_trace() -> Trace {
        let mut b = TraceBuilder::new("mixed", 1);
        for i in 0..20 {
            b.compute(0, if i % 2 == 0 { us(500) } else { us(10) });
            b.op(0, MpiOp::Barrier);
        }
        b.build()
    }

    #[test]
    fn oracle_exploits_every_large_gap_without_penalty() {
        let t = mixed_trace();
        let cfg = PowerConfig::default();
        let ann = oracle_annotate_rank(&t.ranks[0], &cfg);
        // 9 large gaps follow a previous event (the first event's gap has
        // no preceding event to anchor the directive on).
        assert_eq!(ann.directives.len(), 9);
        assert!(ann.penalty.iter().all(|p| p.is_zero()));
        assert!(ann.overhead.iter().all(|o| o.is_zero()));
        for d in &ann.directives {
            assert_eq!(d.timer, us(490));
        }
        assert_eq!(ann.stats.hit_rate_pct(), 100.0);
    }

    #[test]
    fn reactive_pays_treact_on_every_exploited_gap() {
        let t = mixed_trace();
        let cfg = PowerConfig::default();
        let ann = reactive_annotate_rank(&t.ranks[0], &cfg, us(50));
        assert_eq!(ann.directives.len(), 9);
        let stalls = ann.penalty.iter().filter(|p| !p.is_zero()).count();
        assert_eq!(stalls, 9);
        assert!(ann.penalty.iter().all(|p| *p <= cfg.t_react));
        for d in &ann.directives {
            assert_eq!(d.delay, us(50));
        }
    }

    #[test]
    fn reactive_ignores_gaps_below_timeout() {
        let t = mixed_trace();
        let cfg = PowerConfig::default();
        // τ = 600 µs: no gap qualifies.
        let ann = reactive_annotate_rank(&t.ranks[0], &cfg, us(600));
        assert!(ann.directives.is_empty());
        assert!(ann.stats.sleep_time[SleepKind::Wrps as usize].is_zero());
    }

    #[test]
    fn oracle_dominates_prediction_dominates_nothing() {
        // On a perfectly periodic trace, oracle low-power time must be an
        // upper bound on the predictive mechanism's.
        let mut b = TraceBuilder::new("periodic", 1);
        for _ in 0..60 {
            b.compute(0, us(400));
            b.op(0, MpiOp::Barrier);
            b.compute(0, us(300));
            b.op(0, MpiOp::Allreduce { bytes: 8 });
        }
        let t = b.build();
        let cfg = PowerConfig::paper(us(20).max(SimDuration::from_us(20)), 0.01);
        let oracle = crate::TraceAnnotations {
            ranks: map_ranks(&t.ranks, 1, |r| oracle_annotate_rank(r, &cfg)),
        };
        let predicted = annotate_trace(&t, &cfg);
        let o = oracle.aggregate_stats().sleep_time[SleepKind::Wrps as usize];
        let p = predicted.aggregate_stats().sleep_time[SleepKind::Wrps as usize];
        assert!(o >= p, "oracle {o} < predictive {p}");
        assert!(!p.is_zero());
    }

    #[test]
    fn history_predictor_stumbles_on_phase_changes() {
        // Alternating 500/10 µs gaps: the sliding mean (window 4) sits
        // around 255 µs — too long for the 10 µs gaps (stall every other
        // call) and far too short for the 500 µs gaps (half the window
        // wasted). The PPA learns the alternation exactly.
        let t = mixed_trace();
        let cfg = PowerConfig::default();
        let hist = history_annotate_rank(&t.ranks[0], &cfg, 4);
        assert!(hist.stats.timing_mispredictions > 0, "no stalls?");
        let ppa = crate::runtime::annotate_rank(&t.ranks[0], &cfg);
        // Same trace, steady state: the PPA's per-slot means are exact,
        // so its stall count is lower.
        assert!(
            ppa.stats.timing_mispredictions < hist.stats.timing_mispredictions,
            "ppa {} vs history {}",
            ppa.stats.timing_mispredictions,
            hist.stats.timing_mispredictions
        );
    }

    #[test]
    fn history_predictor_matches_oracle_on_constant_gaps() {
        // Uniform gaps: the sliding mean is exact, so the history policy
        // approaches the oracle (modulo the displacement margin).
        let mut b = TraceBuilder::new("uniform", 1);
        for _ in 0..30 {
            b.compute(0, us(400));
            b.op(0, MpiOp::Barrier);
        }
        let t = b.build();
        let cfg = PowerConfig::default();
        let hist = history_annotate_rank(&t.ranks[0], &cfg, 8);
        let oracle = oracle_annotate_rank(&t.ranks[0], &cfg);
        assert_eq!(hist.stats.timing_mispredictions, 0);
        let h = hist.stats.sleep_time[SleepKind::Wrps as usize].as_us_f64();
        let o = oracle.stats.sleep_time[SleepKind::Wrps as usize].as_us_f64();
        assert!(h > 0.8 * o, "history {h} far below oracle {o}");
    }

    #[test]
    fn reactive_zero_timeout_sleeps_longer_but_stalls() {
        // τ=0 reactive actually accumulates MORE low-power time than the
        // zero-slowdown oracle: it lets the wake transition bleed into
        // the next communication (paying a T_react stall) instead of
        // spending it inside the gap. One extra T_react of low power per
        // exploited gap, bought with one T_react of delay — the
        // power/performance trade the paper's introduction describes.
        let t = mixed_trace();
        let cfg = PowerConfig::default();
        let oracle = oracle_annotate_rank(&t.ranks[0], &cfg);
        let reactive = reactive_annotate_rank(&t.ranks[0], &cfg, SimDuration::ZERO);
        let wrps = SleepKind::Wrps as usize;
        let extra = reactive.stats.sleep_time[wrps] - oracle.stats.sleep_time[wrps];
        assert_eq!(extra, cfg.t_react * 9, "one T_react per exploited gap");
        assert!(reactive.stats.total_penalty > SimDuration::ZERO);
        assert!(oracle.stats.total_penalty.is_zero());
    }
}
