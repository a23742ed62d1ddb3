//! Property-based tests for the fabric, topology and power accounting.

use ibp_network::power::SleepWindow;
use ibp_network::{replay, Fabric, FaultConfig, LinkPowerTracker, ReplayOptions, SimParams};
use ibp_core::SleepKind;
use ibp_simcore::{SimDuration, SimTime};
use ibp_trace::{MpiOp, Trace, TraceBuilder};
use proptest::prelude::*;

/// A two-rank ping-pong with arbitrary message sizes and compute gaps.
fn ping_pong(rounds: &[(u32, u32, u32)]) -> Trace {
    let mut b = TraceBuilder::new("prop-pp", 2);
    for &(bytes, gap0_us, gap1_us) in rounds {
        let bytes = u64::from(bytes) + 1;
        b.compute(0, SimDuration::from_us(u64::from(gap0_us)));
        b.compute(1, SimDuration::from_us(u64::from(gap1_us)));
        b.op(0, MpiOp::Send { to: 1, bytes });
        b.op(1, MpiOp::Recv { from: 0, bytes });
        b.op(1, MpiOp::Send { to: 0, bytes });
        b.op(0, MpiOp::Recv { from: 1, bytes });
    }
    b.build()
}

/// Arbitrary — including invalid-free — fault configurations.
fn arb_fault_config() -> impl Strategy<Value = FaultConfig> {
    (
        any::<u64>(),
        0.0f64..=1.0,
        0.0f64..=1.0,
        0u64..1_000,
        0u64..1_000,
        0.0f64..=1.0,
        0u64..10_000,
    )
        .prop_map(|(seed, misfire, flap, o_lo, o_extra, degrade, window)| {
            let mut cfg = FaultConfig::quiet(seed);
            cfg.wake_misfire_prob = misfire;
            cfg.flap_prob = flap;
            cfg.flap_outage_min = SimDuration::from_us(o_lo);
            cfg.flap_outage_max = SimDuration::from_us(o_lo + o_extra);
            cfg.degrade_prob = degrade;
            cfg.degraded_window = SimDuration::from_us(window);
            cfg
        })
}

proptest! {
    /// Transfers are causal (arrival after send) and monotone in size.
    #[test]
    fn transfers_are_causal(
        msgs in proptest::collection::vec((0u32..36, 0u32..36, 1u64..1_000_000, 0u64..1_000_000), 1..100)
    ) {
        let mut f = Fabric::new(SimParams::paper(), 36, 7);
        for &(src, dst, bytes, at_us) in &msgs {
            let t = SimTime::from_us(at_us);
            let arrival = f.transfer(t, src, dst, bytes);
            prop_assert!(arrival > t, "arrival not after send");
            let min = SimParams::paper().serialize(bytes);
            if src != dst {
                prop_assert!(arrival.since(t) >= min, "faster than line rate");
            }
        }
        prop_assert_eq!(f.stats().messages, msgs.len() as u64);
    }

    /// The same message sequence always produces the same arrivals
    /// (identity-stable routing).
    #[test]
    fn fabric_is_deterministic(
        msgs in proptest::collection::vec((0u32..128, 0u32..128, 1u64..100_000), 1..60),
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut f = Fabric::new(SimParams::paper(), 128, seed);
            msgs.iter()
                .map(|&(s, d, b)| f.transfer(SimTime::ZERO, s, d, b))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Replay with an arbitrary fault plan never panics — every outcome
    /// is an `Ok` result or a typed error — and injected faults can only
    /// lengthen execution, never shorten it.
    #[test]
    fn arbitrary_fault_plans_never_panic(
        rounds in proptest::collection::vec((0u32..1_000_000, 0u32..3_000, 0u32..3_000), 1..40),
        faults in arb_fault_config(),
    ) {
        let trace = ping_pong(&rounds);
        let params = SimParams::paper();
        let cfg = ibp_core::PowerConfig::paper(SimDuration::from_us(20), 0.01);
        let ann = ibp_core::annotate_trace(&trace, &cfg);

        let clean = replay(&trace, Some(&ann), &params, &ReplayOptions::default())
            .expect("fault-free replay");
        let opts = ReplayOptions { faults: Some(faults), ..ReplayOptions::default() };
        let faulted = replay(&trace, Some(&ann), &params, &opts).expect("faulted replay");

        prop_assert!(
            faulted.exec_time >= clean.exec_time,
            "faults shortened execution: {} < {}",
            faulted.exec_time,
            clean.exec_time
        );
        // The execution-time gap is explained by the charged fault costs.
        prop_assert!(
            faulted.exec_time - clean.exec_time <= faulted.faults.total_charged(),
            "gap above charged fault cost"
        );
    }

    /// A quiet fault plan (all probabilities zero) is bit-identical to no
    /// fault plan at all, whatever its seed.
    #[test]
    fn quiet_fault_plans_are_inert(
        rounds in proptest::collection::vec((0u32..100_000, 0u32..2_000, 0u32..2_000), 1..20),
        seed in any::<u64>(),
    ) {
        let trace = ping_pong(&rounds);
        let params = SimParams::paper();
        let cfg = ibp_core::PowerConfig::paper(SimDuration::from_us(20), 0.01);
        let ann = ibp_core::annotate_trace(&trace, &cfg);
        let clean = replay(&trace, Some(&ann), &params, &ReplayOptions::default()).unwrap();
        let opts = ReplayOptions {
            faults: Some(FaultConfig::quiet(seed)),
            ..ReplayOptions::default()
        };
        let quiet = replay(&trace, Some(&ann), &params, &opts).unwrap();
        prop_assert_eq!(clean.exec_time, quiet.exec_time);
        prop_assert_eq!(quiet.faults.total_events(), 0);
    }

    /// Power tracker: sleep windows never overlap, accumulated times are
    /// consistent with the recorded timeline, and 2 transitions are paid
    /// per sleep.
    #[test]
    fn tracker_accounting_consistent(
        sleeps in proptest::collection::vec((0u64..10_000, 21u64..5_000, 0u64..10_000), 1..50)
    ) {
        use ibp_network::LinkPower;
        let p = SimParams::paper();
        let mut tracker = LinkPowerTracker::new(true);
        let mut t_cursor = SimTime::ZERO;
        for &(gap_us, timer_us, want_extra_us) in &sleeps {
            let t0 = t_cursor + SimDuration::from_us(gap_us);
            let timer = SimDuration::from_us(timer_us);
            let t_want = t0 + timer + SimDuration::from_us(want_extra_us);
            tracker.apply_windows(&p, &[SleepWindow {
                t0,
                timer: Some(timer),
                t_want,
                kind: SleepKind::Wrps,
            }]);
            t_cursor = tracker.floor();
        }
        prop_assert_eq!(tracker.sleeps, sleeps.len() as u64);
        // Timeline agreement.
        let end = tracker.floor();
        let tl = tracker.timeline.as_ref().unwrap();
        let low = tl.time_in(end, |s| s == LinkPower::Low);
        let trans = tl.time_in(end, |s| s == LinkPower::Transition);
        prop_assert_eq!(low, tracker.sleep_time[SleepKind::Wrps as usize]);
        prop_assert_eq!(trans, tracker.transition_time);
        prop_assert_eq!(
            trans,
            SimDuration::from_us(20) * sleeps.len() as u64,
            "2 × T_react per sleep"
        );
    }
}
