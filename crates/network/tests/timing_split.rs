//! The timing/power split of replay: a timing run scored against any
//! annotation with its [`TimingKey`] is that annotation's replay, and
//! the key moves with every field the timing loop reads.

use ibp_core::{annotate_trace, PowerConfig, SleepKind, TraceAnnotations};
use ibp_network::{replay, replay_timing, FaultConfig, ReplayOptions, SimParams, TimingKey};
use ibp_simcore::{DetRng, SimDuration};
use ibp_trace::Trace;
use ibp_workloads::Workload;
use proptest::prelude::*;

/// A small ALYA run: halo exchanges and reductions in a steady pattern
/// the runtime learns to sleep through.
fn small_trace(n: u32, iterations: u32, seed: u64) -> Trace {
    let alya = ibp_workloads::Alya {
        iterations,
        ..Default::default()
    };
    alya.generate(n, seed)
}

/// `ann` with every directive's timer and predicted idle redrawn: the
/// fields only the power score reads.
fn retimed(ann: &TraceAnnotations, rng: &mut DetRng) -> TraceAnnotations {
    let mut out = ann.clone();
    for d in out.ranks.iter_mut().flat_map(|r| &mut r.directives) {
        d.timer = SimDuration::from_ns(rng.index(200_000) as u64);
        d.predicted_idle = SimDuration::from_ns(rng.index(400_000) as u64);
    }
    out
}

/// `ann` with one keyed field changed, chosen by `pick`.
fn perturbed(ann: &TraceAnnotations, pick: u64) -> TraceAnnotations {
    let mut out = ann.clone();
    let mut rng = DetRng::seed_from_u64(pick);
    let r = rng.index(out.ranks.len());
    let ra = &mut out.ranks[r];
    let field = if ra.directives.is_empty() {
        rng.index(2)
    } else {
        rng.index(5)
    };
    let one = SimDuration::from_ns(1);
    match field {
        0 => {
            let ev = rng.index(ra.overhead.len());
            ra.overhead[ev] += one;
        }
        1 => {
            let ev = rng.index(ra.penalty.len());
            ra.penalty[ev] += one;
        }
        _ => {
            let d = rng.index(ra.directives.len());
            let d = &mut ra.directives[d];
            match field {
                2 => d.after_event += 1,
                3 => d.delay += one,
                _ => d.kind = SleepKind::ALL[(d.kind as usize + 1) % SleepKind::ALL.len()],
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_timing_run_scores_any_annotation_with_its_key(
        n in 2u32..10,
        iterations in 8u32..30,
        seed in any::<u64>(),
        faults in any::<bool>(),
        record in any::<bool>(),
    ) {
        let trace = small_trace(n, iterations, seed);
        let params = SimParams::paper();
        let opts = ReplayOptions {
            seed: seed.rotate_left(9),
            record_timelines: record,
            faults: faults.then(|| FaultConfig::with_rate(seed, 30.0)),
        };
        let cfg = |disp| PowerConfig::paper(SimDuration::from_us(20), disp);
        let a = annotate_trace(&trace, &cfg(0.10));
        let timing = replay_timing(&trace, Some(&a), &params, &opts).expect("timing");
        prop_assert_eq!(timing.key(), TimingKey::of(Some(&a)));

        // Same key by construction: only the timers moved.
        let b = retimed(&a, &mut DetRng::seed_from_u64(seed ^ 0x7153));
        prop_assert_eq!(TimingKey::of(Some(&b)), timing.key());
        prop_assert_eq!(timing.score(Some(&b), &params), replay(&trace, Some(&b), &params, &opts).expect("replay"));
        prop_assert_eq!(timing.score(Some(&a), &params), replay(&trace, Some(&a), &params, &opts).expect("replay"));

        // Another displacement, reused wherever its key matches.
        let c = annotate_trace(&trace, &cfg(0.05));
        if TimingKey::of(Some(&c)) == timing.key() {
            prop_assert_eq!(timing.score(Some(&c), &params), replay(&trace, Some(&c), &params, &opts).expect("replay"));
        }

        // The baseline has a key of its own and scores to its replay.
        let base = replay_timing(&trace, None, &params, &opts).expect("timing");
        prop_assert!(base.key() != timing.key());
        prop_assert_eq!(base.score(None, &params), replay(&trace, None, &params, &opts).expect("replay"));
    }

    #[test]
    fn every_keyed_field_moves_the_key(
        n in 2u32..8,
        iterations in 8u32..24,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let trace = small_trace(n, iterations, seed);
        let a = annotate_trace(&trace, &PowerConfig::paper(SimDuration::from_us(20), 0.01));
        let key = TimingKey::of(Some(&a));
        prop_assert!(key != TimingKey::of(Some(&perturbed(&a, pick))));
        prop_assert_eq!(key, TimingKey::of(Some(&retimed(&a, &mut DetRng::seed_from_u64(pick)))));
    }
}

/// The split needs directives and, with faults, misfired windows to
/// mean anything: a small run has both, and still scores its retimed
/// annotation to that annotation's replay.
#[test]
fn misfired_windows_score_like_a_replay() {
    let trace = small_trace(4, 20, 1);
    let params = SimParams::paper();
    let opts = ReplayOptions {
        faults: Some(FaultConfig::with_rate(7, 60.0)),
        ..ReplayOptions::default()
    };
    let ann = annotate_trace(&trace, &PowerConfig::paper(SimDuration::from_us(20), 0.01));
    assert!(ann.total_directives() > 0);
    let timing = replay_timing(&trace, Some(&ann), &params, &opts).expect("timing");
    let retimed = retimed(&ann, &mut DetRng::seed_from_u64(3));
    let want = replay(&trace, Some(&retimed), &params, &opts).expect("replay");
    assert!(want.faults.wake_misfires > 0, "{:?}", want.faults);
    assert_eq!(timing.score(Some(&retimed), &params), want);
}
