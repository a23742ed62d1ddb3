//! Property-based tests for the simulation substrate.

use ibp_simcore::{DetRng, SimDuration, SimTime, StateTimeline};
use proptest::prelude::*;

proptest! {
    /// A timeline built from arbitrary transition deltas tiles [0, end)
    /// exactly: interval durations sum to the horizon.
    #[test]
    fn timeline_tiles_time(
        deltas in proptest::collection::vec(1u64..10_000, 0..100),
        states in proptest::collection::vec(0u8..4, 0..100),
        tail in 1u64..10_000,
    ) {
        let mut tl = StateTimeline::new(0u8);
        let mut t = SimTime::ZERO;
        for (d, s) in deltas.iter().zip(states.iter()) {
            t += SimDuration::from_ns(*d);
            tl.record(t, *s);
        }
        let end = t + SimDuration::from_ns(tail);
        let total: SimDuration = tl.intervals(end).map(|iv| iv.duration()).sum();
        prop_assert_eq!(total, end.since(SimTime::ZERO));

        // time_in over all states also covers everything.
        let all = tl.time_in(end, |_| true);
        prop_assert_eq!(all, end.since(SimTime::ZERO));

        // integrate with constant 1.0 gives the horizon in seconds.
        let x = tl.integrate(end, |_| 1.0);
        prop_assert!((x - end.as_secs_f64()).abs() < 1e-12);
    }

    /// Split RNG streams are reproducible: same root seed + label always
    /// gives the same draws.
    #[test]
    fn rng_split_reproducible(seed in any::<u64>(), label in any::<u64>()) {
        let mut a = DetRng::seed_from_u64(seed).split(label);
        let mut b = DetRng::seed_from_u64(seed).split(label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Lognormal jitter is always strictly positive.
    #[test]
    fn lognormal_jitter_positive(seed in any::<u64>(), sigma in 0.0f64..2.0) {
        let mut r = DetRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(r.lognormal_jitter(sigma) > 0.0);
        }
    }
}
