//! Property-based tests for gram formation, the PPA, and the
//! rank-parallel annotation path.

use ibp_core::{
    annotate_trace, annotate_trace_jobs, GramBuilder, GramInterner, PowerConfig, Ppa,
    ResilienceConfig,
};
use ibp_simcore::SimDuration;
use ibp_trace::MpiCall;
use ibp_workloads::{AppKind, Scaling};
use proptest::prelude::*;

fn call_of(idx: u8) -> MpiCall {
    match idx % 5 {
        0 => MpiCall::Send,
        1 => MpiCall::Recv,
        2 => MpiCall::Allreduce,
        3 => MpiCall::Sendrecv,
        _ => MpiCall::Barrier,
    }
}

proptest! {
    /// Gram formation is a partition: every event lands in exactly one
    /// gram, grams are non-empty, and their first_event indices are
    /// strictly increasing and contiguous.
    #[test]
    fn gram_formation_partitions_events(
        stream in proptest::collection::vec((0u8..5, 0u64..200), 1..300)
    ) {
        let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.05);
        let mut b = GramBuilder::new(&cfg);
        let mut interner = GramInterner::new();
        let mut grams = Vec::new();
        for &(c, gap) in &stream {
            if let Some(g) = b.push(call_of(c), SimDuration::from_us(gap), &mut interner) {
                grams.push(g);
            }
        }
        if let Some(g) = b.flush(&mut interner) {
            grams.push(g);
        }
        let total: u32 = grams.iter().map(|g| g.len).sum();
        prop_assert_eq!(total as usize, stream.len());
        let mut expect_start = 0usize;
        for g in &grams {
            prop_assert!(g.len > 0);
            prop_assert_eq!(g.first_event, expect_start);
            expect_start += g.len as usize;
        }
        // Every gram after the first is preceded by a gap >= GT.
        for g in grams.iter().skip(1) {
            prop_assert!(g.preceding_idle >= cfg.grouping_threshold);
        }
        // All gaps inside a gram are < GT.
        for g in &grams {
            for k in 1..g.len as usize {
                let (_, gap) = stream[g.first_event + k];
                let _ = gap; // by construction of push(); checked via GT above
            }
        }
    }

    /// Interning is injective on shapes: equal ids iff equal sequences.
    #[test]
    fn interning_is_injective(shapes in proptest::collection::vec(
        proptest::collection::vec(0u16..8, 1..6), 1..60))
    {
        let mut interner = GramInterner::new();
        let ids: Vec<u32> = shapes.iter().map(|s| interner.intern(s)).collect();
        for i in 0..shapes.len() {
            for j in 0..shapes.len() {
                prop_assert_eq!(ids[i] == ids[j], shapes[i] == shapes[j]);
            }
        }
        // Shape lookups roundtrip.
        for (s, &id) in shapes.iter().zip(&ids) {
            prop_assert_eq!(interner.shape(id), &s[..]);
        }
    }

    /// The PPA never declares a pattern that did not appear at
    /// `min_consecutive` consecutive positions (for fresh declarations).
    #[test]
    fn fresh_declarations_are_backed_by_repeats(
        grams in proptest::collection::vec(0u32..4, 8..120)
    ) {
        let mut ppa = Ppa::new(3, 16);
        for n in 1..=grams.len() {
            if let Some(d) = ppa.advance(&grams[..n]) {
                if !d.rearmed {
                    let len = d.pattern.len();
                    // The declared pattern occupies the three windows
                    // ending right before predict_from.
                    prop_assert!(d.predict_from >= 3 * len);
                    for k in 1..=3 {
                        let start = d.predict_from - k * len;
                        prop_assert_eq!(
                            &grams[start..start + len],
                            &*d.pattern,
                            "occurrence {} missing",
                            k
                        );
                    }
                }
                break;
            }
        }
    }

    /// Algorithm 3 timer bounds: for any idle time, the planned window
    /// never exceeds the idle and respects the displacement margin.
    #[test]
    fn lane_off_timer_bounds(idle_us in 0u64..1_000_000, disp in 0.0f64..0.5) {
        let cfg = PowerConfig::paper(SimDuration::from_us(20), disp);
        let idle = SimDuration::from_us(idle_us);
        if let Some(timer) = cfg.lane_off_timer(idle) {
            prop_assert!(timer > cfg.t_react);
            prop_assert!(timer + cfg.t_react <= idle, "wake after the idle ends");
            // Safety margin honoured: wake completes at least disp·idle
            // before the predicted next call (up to rounding).
            let slack = idle - (timer + cfg.t_react);
            prop_assert!(
                slack.as_us_f64() + 0.001 >= idle.as_us_f64() * disp,
                "slack {slack} below displacement margin"
            );
        }
    }

    /// Rank-parallel annotation is byte-identical to the serial path for
    /// any paper workload under any "fault plan" (resilience controller
    /// settings + deep sleep + occurrence-window bound). Per-rank state
    /// is fully independent, so worker count must never leak into the
    /// output; serde byte equality is the strictest observable check.
    #[test]
    fn parallel_annotation_is_byte_identical_to_serial(
        app_idx in 0usize..5,
        nprocs_sel in 0usize..3,
        seed in 0u64..1_000,
        jobs in 2usize..6,
        gt_us in 15u64..200,
        disp in 0.01f64..0.2,
        resilient in any::<bool>(),
        storm_window in 8u32..64,
        storm_threshold in 1u32..6,
        base_holdoff in 8u32..128,
        guard_step in 0.0f64..0.1,
        budget_pct in 0.0f64..5.0,
        deep in any::<bool>(),
        window_sel in 0usize..3,
    ) {
        let app = AppKind::ALL[app_idx];
        let w = app.workload(Scaling::Strong);
        let valid: Vec<u32> = (2..=16).filter(|&n| w.valid_nprocs(n)).collect();
        prop_assert!(!valid.is_empty());
        let nprocs = valid[nprocs_sel % valid.len()];
        let trace = w.generate(nprocs, seed);

        let mut cfg = PowerConfig::paper(SimDuration::from_us(gt_us), disp);
        if resilient {
            cfg = cfg.with_resilience(ResilienceConfig {
                enabled: true,
                storm_window,
                storm_threshold,
                base_holdoff,
                max_holdoff: base_holdoff * 16,
                guard_step,
                guard_decay: 0.85,
                max_guard: 0.40,
                slowdown_budget_pct: budget_pct,
            });
        }
        if deep {
            cfg = cfg.with_deep_sleep(SimDuration::from_ms(2));
        }
        cfg.occurrence_window = [16, ibp_core::DEFAULT_OCCURRENCE_WINDOW, usize::MAX][window_sel];

        let serial = annotate_trace(&trace, &cfg);
        let parallel = annotate_trace_jobs(&trace, &cfg, jobs);
        let a = serde_json::to_string(&serial.ranks).expect("serialize");
        let b = serde_json::to_string(&parallel.ranks).expect("serialize");
        prop_assert!(a == b, "{} @{nprocs} seed {seed} jobs {jobs}: outputs differ", app.name());
    }

    /// plan_sleep_with falls back gracefully: it returns Deep only above the
    /// threshold and with a profitable window, otherwise WRPS or nothing.
    #[test]
    fn plan_sleep_depth_selection(idle_us in 0u64..100_000_000) {
        use ibp_core::SleepKind;
        let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01)
            .with_deep_sleep(SimDuration::from_ms(5));
        let idle = SimDuration::from_us(idle_us);
        match cfg.plan_sleep_with(cfg.displacement, idle) {
            Some((SleepKind::Deep, timer)) => {
                prop_assert!(idle >= cfg.deep_threshold);
                prop_assert!(timer > cfg.deep_t_react);
            }
            Some((SleepKind::Wrps, timer)) => {
                prop_assert!(timer > cfg.t_react);
                prop_assert!(timer + cfg.t_react <= idle);
            }
            Some((SleepKind::Rate, _)) => {
                prop_assert!(false, "rate sleep emitted under the deep-sleep policy");
            }
            None => {
                prop_assert!(idle.as_us_f64() < 25.0, "profitable idle ignored: {idle}");
            }
        }
    }

    /// Under the full ladder, every emitted depth obeys its own
    /// threshold and Algorithm 3 profitability bound, and the planner
    /// never picks a shallower state when a deeper one was profitable.
    #[test]
    fn plan_sleep_ladder_depth_selection(idle_us in 0u64..100_000_000, disp in 0.0f64..0.5) {
        use ibp_core::SleepKind;
        let cfg = PowerConfig::paper(SimDuration::from_us(20), disp).with_ladder();
        let idle = SimDuration::from_us(idle_us);
        match cfg.plan_sleep_with(cfg.displacement, idle) {
            Some((kind, timer)) => {
                prop_assert!(idle >= cfg.threshold_of(kind));
                prop_assert!(timer > cfg.react_of(kind));
                // Deeper rungs were either below threshold or unprofitable.
                for deeper in SleepKind::ALL.iter().rev() {
                    if *deeper == kind {
                        break;
                    }
                    let safety = idle.mul_f64(cfg.displacement) + cfg.react_of(*deeper);
                    prop_assert!(
                        idle < cfg.threshold_of(*deeper)
                            || idle.saturating_sub(safety) <= cfg.react_of(*deeper),
                        "planner skipped profitable {deeper:?} for {kind:?} at idle {idle}"
                    );
                }
            }
            None => {
                // Not even WRPS was profitable.
                let safety = idle.mul_f64(cfg.displacement) + cfg.t_react;
                prop_assert!(idle.saturating_sub(safety) <= cfg.t_react);
            }
        }
    }
}

/// The bounded occurrence window is an optimisation, not a model change:
/// on all five paper workloads the default 64-occurrence recency bound
/// produces byte-identical annotations to an unbounded history. (Random
/// shapes are covered by the windowed case of
/// `parallel_annotation_is_byte_identical_to_serial` above.)
#[test]
fn bounded_occurrence_window_never_changes_declarations() {
    for app in AppKind::ALL {
        let w = app.workload(Scaling::Strong);
        let nprocs = (2..=16)
            .find(|&n| w.valid_nprocs(n))
            .expect("every paper app runs somewhere in 2..=16");
        let trace = w.generate(nprocs, 42);

        let bounded = PowerConfig::paper(SimDuration::from_us(20), 0.01);
        assert_eq!(
            bounded.occurrence_window,
            ibp_core::DEFAULT_OCCURRENCE_WINDOW
        );
        let mut unbounded = bounded.clone();
        unbounded.occurrence_window = usize::MAX;

        let a = annotate_trace(&trace, &bounded);
        let b = annotate_trace(&trace, &unbounded);
        assert!(
            a.ranks.iter().map(|r| r.stats.declarations).sum::<u64>() > 0,
            "{}: workload never declared a pattern — test is vacuous",
            app.name()
        );
        assert_eq!(
            serde_json::to_string(&a.ranks).unwrap(),
            serde_json::to_string(&b.ranks).unwrap(),
            "{} @{nprocs}: bounded window changed the annotations",
            app.name()
        );
    }
}

/// One rank of a random small trace: `motif` (call selector, gap in µs)
/// repeated `reps` times, every gap perturbed by a cheap hash of its
/// position scaled by `jitter_pct`, so the PPA meets both a learnable
/// period and timing noise. Gaps span short bursts to deep-sleep idles.
fn motif_trace(
    motif: &[(u8, u64)],
    reps: usize,
    jitter_pct: u64,
    tail_us: u64,
) -> ibp_trace::Trace {
    use ibp_trace::{MpiOp, TraceBuilder};
    let mut b = TraceBuilder::new("motif", 1);
    for rep in 0..reps {
        for (k, &(c, gap_us)) in motif.iter().enumerate() {
            let h = ((rep * motif.len() + k) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let jitter = gap_us * jitter_pct / 100 * (h % 101) / 100;
            b.compute(0, SimDuration::from_us(gap_us + jitter));
            b.op(
                0,
                match c % 5 {
                    0 => MpiOp::Barrier,
                    1 => MpiOp::Allreduce { bytes: 8 },
                    2 => MpiOp::Bcast { root: 0, bytes: 64 },
                    3 => MpiOp::Reduce { root: 0, bytes: 16 },
                    _ => MpiOp::Allgather { bytes: 32 },
                },
            );
        }
    }
    b.compute(0, SimDuration::from_us(tail_us));
    b.build()
}

proptest! {
    /// Directive accounting is consistent for every sleep policy — the
    /// PPA runtime (WRPS, full ladder, resilience controller), the
    /// oracle, the reactive idle-timeout and the history window: the
    /// nominal duration is the rank's compute, the penalty totals and
    /// timing-misprediction counts agree with the per-event penalties,
    /// every directive is counted, and no stall exceeds the reactivation
    /// time of the depth its directive slept at.
    #[test]
    fn policy_accounting_is_consistent(
        motif in proptest::collection::vec(
            (0u8..5, 0usize..3, 0u64..1_000)
                .prop_map(|(c, class, x)| (c, [1 + x % 14, 20 + x % 580, 1_000 + 11 * x][class])),
            1..6,
        ),
        reps in 1usize..40,
        jitter_pct in 0u64..60,
        tail_us in 0u64..500,
        timeout_us in 0u64..300,
        window in 1usize..10,
    ) {
        use ibp_core::{
            annotate_rank, history_annotate_rank, oracle_annotate_rank, reactive_annotate_rank,
        };
        let trace = motif_trace(&motif, reps, jitter_pct, tail_us);
        let rank = &trace.ranks[0];
        let paper = PowerConfig::paper(SimDuration::from_us(20), 0.05);
        let resilient = paper.clone().with_resilience(ResilienceConfig::standard());
        let policies = [
            ("ppa", annotate_rank(rank, &paper)),
            ("ppa-ladder", annotate_rank(rank, &paper.clone().with_ladder())),
            ("ppa+resilience", annotate_rank(rank, &resilient)),
            ("oracle", oracle_annotate_rank(rank, &paper)),
            ("reactive", reactive_annotate_rank(rank, &paper, SimDuration::from_us(timeout_us))),
            ("history", history_annotate_rank(rank, &paper, window)),
        ];
        let nominal = rank.total_compute();
        for (name, ann) in &policies {
            let s = &ann.stats;
            prop_assert_eq!(s.nominal_duration, nominal, "{}: nominal duration", name);
            prop_assert_eq!(
                s.total_penalty,
                ann.penalty.iter().copied().sum::<SimDuration>(),
                "{}: total penalty", name
            );
            prop_assert_eq!(
                s.timing_mispredictions,
                ann.penalty.iter().filter(|p| !p.is_zero()).count() as u64,
                "{}: timing mispredictions", name
            );
            prop_assert_eq!(s.lane_off_count, ann.directives.len() as u64, "{}: lane-offs", name);
            for (i, p) in ann.penalty.iter().enumerate().filter(|(_, p)| !p.is_zero()) {
                // A stall settles the directive armed after the previous
                // event, at that directive's depth (the rung set changes
                // which depths are used, not their reactivation times).
                let d = ann.directives.iter().find(|d| d.after_event + 1 == i);
                prop_assert!(d.is_some(), "{}: stall at event {} without a directive", name, i);
                let react = paper.react_of(d.unwrap().kind);
                prop_assert!(*p <= react, "{}: stall {} above T_react {}", name, p, react);
            }
        }
    }
}
