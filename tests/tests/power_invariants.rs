//! Property-based cross-crate invariants of the power accounting and the
//! prediction mechanism.

use ibp_core::{annotate_rank, PowerConfig, RankRuntime, SleepKind};
use ibp_network::IbGeneration;
use ibp_simcore::{DetRng, SimDuration};
use ibp_trace::{MpiCall, MpiOp, TraceBuilder};
use proptest::prelude::*;

/// Build a single-rank trace from arbitrary (call, gap) streams.
fn rank_trace(calls: &[(u8, u32)]) -> ibp_trace::RankTrace {
    let mut b = TraceBuilder::new("prop", 1);
    for &(c, gap_us) in calls {
        b.compute(0, SimDuration::from_us(u64::from(gap_us)));
        let op = match c % 4 {
            0 => MpiOp::Allreduce { bytes: 8 },
            1 => MpiOp::Barrier,
            2 => MpiOp::Sendrecv {
                to: 0,
                send_bytes: 64,
                from: 0,
                recv_bytes: 64,
            },
            _ => MpiOp::Bcast { root: 0, bytes: 64 },
        };
        b.op(0, op);
    }
    b.build().ranks.remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The runtime never claims more low-power time than the total idle
    /// time it observed, never predicts more calls than arrived, and
    /// charges every penalty below T_react.
    #[test]
    fn runtime_accounting_invariants(
        calls in proptest::collection::vec((0u8..4, 0u32..2_000), 1..400)
    ) {
        let trace = rank_trace(&calls);
        let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.05);
        let ann = annotate_rank(&trace, &cfg);
        let s = &ann.stats;

        prop_assert_eq!(s.total_calls as usize, calls.len());
        prop_assert!(s.correct_calls <= s.predicted_calls);
        prop_assert!(s.predicted_calls <= s.total_calls);
        prop_assert!(s.sleep_time[SleepKind::Wrps as usize] <= s.nominal_duration);
        prop_assert!(s.hit_rate_pct() <= 100.0);
        prop_assert_eq!(ann.overhead.len(), calls.len());
        prop_assert_eq!(ann.penalty.len(), calls.len());
        for p in &ann.penalty {
            prop_assert!(*p <= cfg.t_react, "penalty above T_react");
        }
        // Directives are anchored to valid events, in order, with timers
        // that satisfy Algorithm 3's profitability bound.
        let mut last = None;
        for d in &ann.directives {
            prop_assert!(d.after_event < calls.len());
            if let Some(prev) = last {
                prop_assert!(d.after_event > prev);
            }
            last = Some(d.after_event);
            prop_assert!(d.timer > cfg.t_react);
            prop_assert!(d.timer <= d.predicted_idle);
        }
    }

    /// A perfectly periodic stream eventually predicts nearly all calls;
    /// the declaration happens within the first few periods.
    #[test]
    fn periodic_streams_are_learned(
        period_len in 2usize..6,
        reps in 20usize..60,
        gap_us in 25u32..5_000,
    ) {
        let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
        let mut rt = RankRuntime::new(0, cfg);
        let calls = [
            MpiCall::Allreduce,
            MpiCall::Barrier,
            MpiCall::Bcast,
            MpiCall::Reduce,
            MpiCall::Alltoall,
        ];
        for _ in 0..reps {
            for c in calls.iter().take(period_len) {
                rt.intercept(*c, SimDuration::from_us(u64::from(gap_us)));
            }
        }
        prop_assert!(rt.predicting(), "periodic stream never predicted");
        // Learning takes at most ~5 periods (3 consecutive sightings of
        // a pattern of up to period_len grams plus scan lookahead).
        let hit = rt.finish(SimDuration::ZERO).hit_rate_pct();
        prop_assert!(hit > 50.0, "hit rate only {hit}%");
    }

    /// Under wake-timer misfire injection, every misfired wake-up is
    /// charged at most the active sleep kind's reactivation latency:
    /// T_react for WRPS-only configs, deep_t_react with deep sleep on.
    #[test]
    fn per_wake_misfire_stall_capped_at_active_react(
        rounds in proptest::collection::vec((1u32..100_000, 21u32..3_000, 21u32..3_000), 5..40),
        misfire in 0.05f64..=1.0,
        seed in proptest::prelude::any::<u64>(),
        deep in proptest::prelude::any::<bool>(),
    ) {
        use ibp_network::{replay, FaultConfig, ReplayOptions, SimParams};

        let mut b = TraceBuilder::new("misfire-cap", 2);
        for &(bytes, g0, g1) in &rounds {
            b.compute(0, SimDuration::from_us(u64::from(g0)));
            b.compute(1, SimDuration::from_us(u64::from(g1)));
            b.op(0, MpiOp::Send { to: 1, bytes: u64::from(bytes) });
            b.op(1, MpiOp::Recv { from: 0, bytes: u64::from(bytes) });
            b.op(1, MpiOp::Send { to: 0, bytes: u64::from(bytes) });
            b.op(0, MpiOp::Recv { from: 1, bytes: u64::from(bytes) });
        }
        let trace = b.build();

        let mut cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
        if deep {
            cfg = cfg.with_deep_sleep(SimDuration::from_ms(5));
        }
        let ann = ibp_core::annotate_trace(&trace, &cfg);
        let mut faults = FaultConfig::quiet(seed);
        faults.wake_misfire_prob = misfire;
        let opts = ReplayOptions { faults: Some(faults), ..ReplayOptions::default() };
        let result = replay(&trace, Some(&ann), &SimParams::paper(), &opts).expect("replay");

        let cap = if deep { cfg.deep_t_react } else { cfg.t_react };
        prop_assert!(
            result.faults.misfire_stall <= cap * result.faults.wake_misfires,
            "misfire stall {} above {} x {} wakes",
            result.faults.misfire_stall,
            cap,
            result.faults.wake_misfires
        );
    }

    /// Random (aperiodic) gap structure must never fabricate directives
    /// with timers longer than the largest observed idle.
    #[test]
    fn timers_bounded_by_observed_idle(
        gaps in proptest::collection::vec(21u32..10_000, 30..200),
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
        let mut rt = RankRuntime::new(0, cfg);
        let mut max_gap = 0u32;
        let mut directives = Vec::new();
        for &g in &gaps {
            let call = if rng.chance(0.5) {
                MpiCall::Allreduce
            } else {
                MpiCall::Sendrecv
            };
            max_gap = max_gap.max(g);
            directives.extend(rt.intercept(call, SimDuration::from_us(u64::from(g))).directive);
        }
        for d in &directives {
            prop_assert!(
                d.predicted_idle <= SimDuration::from_us(u64::from(max_gap)),
                "predicted idle {} above max observed {}us",
                d.predicted_idle,
                max_gap
            );
        }
    }

    /// The ladder stays ordered for any (GT, displacement) the sweep
    /// could hand it: the built `PowerConfig` validates, and each
    /// deeper depth keeps a strictly lower draw with a wake latency at
    /// least as long.
    #[test]
    fn ladder_configs_validate_for_any_sweep_point(
        gt_us in 20u64..1_000,
        disp in 0.0f64..0.5,
    ) {
        let cfg = PowerConfig::paper(SimDuration::from_us(gt_us), disp).with_ladder();
        prop_assert!(cfg.validate().is_ok(), "{:?}", cfg.validate());
        for pair in SleepKind::ALL.windows(2) {
            prop_assert!(cfg.draw_of(pair[1]) < cfg.draw_of(pair[0]));
            prop_assert!(cfg.react_of(pair[1]) >= cfg.react_of(pair[0]));
        }
    }
}

/// Every generation's links trade wake latency for power as the replay
/// charges them: deeper rungs have strictly lower power floors and wake
/// latencies at least as large. Exhaustive over the enum — stronger
/// than sampling.
#[test]
fn deeper_rungs_trade_latency_for_power_in_every_generation() {
    for gen in IbGeneration::ALL {
        let p = gen.sim_params();
        for pair in SleepKind::ALL.windows(2) {
            let (shallow, deep) = (pair[0], pair[1]);
            assert!(
                p.draw_of(deep) < p.draw_of(shallow),
                "{gen:?}: {deep:?} floor {} not below {shallow:?} floor {}",
                p.draw_of(deep),
                p.draw_of(shallow)
            );
            assert!(
                p.react_of(deep) >= p.react_of(shallow),
                "{gen:?}: {deep:?} wakes faster than {shallow:?}"
            );
        }
    }
}

/// Per-lane (and hence full-link) signalling rates rise monotonically
/// through the generation ladder, matching the IB standard name table.
#[test]
fn generation_rates_rise_monotonically() {
    for pair in IbGeneration::ALL.windows(2) {
        assert!(
            pair[1].per_lane_gbps() > pair[0].per_lane_gbps(),
            "{:?} per-lane rate not above {:?}",
            pair[1],
            pair[0]
        );
        assert!(pair[1].link_gbps() > pair[0].link_gbps());
    }
}

/// The extension's bit-identity guarantee, run end-to-end over all
/// five paper applications: a ladder-disabled (paper-policy) run from
/// today's config produces byte-identical directives, stats, and
/// replay timing to one driven by a pre-ladder configuration file (the
/// ladder-era keys stripped, serde defaults filling them back in).
#[test]
fn ladder_disabled_runs_match_the_paper_baseline_on_all_apps() {
    use ibp_workloads::{AppKind, Scaling};
    use serde::{Deserialize, Serialize};

    let cfg_now = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    // A config file written before the ladder landed: no rate-rung
    // keys at all.
    let mut v = cfg_now.to_value();
    let serde::Value::Map(entries) = &mut v else {
        panic!("config serializes as an object");
    };
    entries.retain(|(k, _)| {
        !matches!(
            k.as_str(),
            "rate_threshold" | "rate_t_react" | "rate_power_fraction"
        )
    });
    let cfg_pre = PowerConfig::from_value(&v).expect("pre-ladder config parses");
    assert_eq!(cfg_pre, cfg_now);

    let params_now = ibp_network::SimParams::paper();
    let mut pv = params_now.to_value();
    let serde::Value::Map(entries) = &mut pv else {
        panic!("params serialize as an object");
    };
    entries.retain(|(k, _)| k != "generation");
    let params_pre = ibp_network::SimParams::from_value(&pv).expect("pre-ladder params parse");

    for app in AppKind::ALL {
        let w = app.workload(Scaling::Strong);
        // 4 ranks suits every app (square for BT, power of two for MG).
        let trace = w.generate(4, 11);
        let ann_now = ibp_core::annotate_trace(&trace, &cfg_now);
        let ann_pre = ibp_core::annotate_trace(&trace, &cfg_pre);
        for (a, b) in ann_now.ranks.iter().zip(&ann_pre.ranks) {
            assert_eq!(
                serde_json::to_string(&a.directives).unwrap(),
                serde_json::to_string(&b.directives).unwrap(),
                "{app:?}: directives diverge"
            );
            assert_eq!(a.stats, b.stats, "{app:?}: stats diverge");
            for d in &a.directives {
                assert_eq!(d.kind, SleepKind::Wrps, "{app:?}: ladder-off run left WRPS");
            }
        }
        let opts = ibp_network::ReplayOptions::default();
        let now = ibp_network::replay(&trace, Some(&ann_now), &params_now, &opts).unwrap();
        let pre = ibp_network::replay(&trace, Some(&ann_pre), &params_pre, &opts).unwrap();
        assert_eq!(
            now.exec_time, pre.exec_time,
            "{app:?}: replay timing diverges"
        );
        assert_eq!(
            now.power_saving_pct().to_bits(),
            pre.power_saving_pct().to_bits(),
            "{app:?}: power accounting diverges"
        );
        for kind in [SleepKind::Rate, SleepKind::Deep] {
            let share = now.mean_sleep_fraction(kind);
            assert_eq!(share, 0.0, "{app:?}: {kind:?} rung engaged while off");
        }
    }
}
