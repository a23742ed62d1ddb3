//! Replay-engine semantics across crates: property tests on random (but
//! consistent) traces, plus targeted MPI-semantics scenarios.

use ibp_core::{annotate_trace_jobs, PowerConfig};
use ibp_network::{
    replay, replay_with_scratch, FaultConfig, ReplayOptions, ReplayScratch, SimParams,
};
use ibp_simcore::{DetRng, SimDuration};
use ibp_trace::{MpiOp, Trace, TraceBuilder};
use proptest::prelude::*;

/// Generate a random, *consistent* SPMD trace: every rank executes the
/// same schedule of collectives and symmetric ring exchanges, with
/// rank-specific compute gaps.
fn random_spmd_trace(nprocs: u32, schedule: &[u8], seed: u64) -> Trace {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut b = TraceBuilder::new("random-spmd", nprocs);
    // Pre-draw gap matrix so ranks differ but the schedule is shared.
    for r in 0..nprocs {
        let mut rank_rng = DetRng::seed_from_u64(seed ^ (u64::from(r) << 32));
        for &s in schedule {
            b.compute(
                r,
                SimDuration::from_us_f64(rank_rng.uniform_range(1.0, 500.0)),
            );
            let op = match s % 6 {
                0 => MpiOp::Allreduce { bytes: 64 },
                1 => MpiOp::Barrier,
                2 => MpiOp::Bcast {
                    root: s as u32 % nprocs,
                    bytes: 1024,
                },
                3 => MpiOp::Reduce {
                    root: (s as u32 + 1) % nprocs,
                    bytes: 512,
                },
                4 => MpiOp::Sendrecv {
                    to: (r + 1) % nprocs,
                    send_bytes: 4096,
                    from: (r + nprocs - 1) % nprocs,
                    recv_bytes: 4096,
                },
                _ => MpiOp::Allgather { bytes: 128 },
            };
            b.op(r, op);
        }
    }
    let _ = &mut rng;
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any consistent SPMD trace replays to completion (no deadlock) with
    /// every rank finishing no earlier than its own compute total.
    #[test]
    fn spmd_traces_replay_to_completion(
        nprocs in 2u32..17,
        schedule in proptest::collection::vec(any::<u8>(), 1..40),
        seed in any::<u64>(),
    ) {
        let trace = random_spmd_trace(nprocs, &schedule, seed);
        trace.validate().unwrap();
        let result = replay(&trace, None, &SimParams::paper(), &ReplayOptions::default()).expect("replay");
        for (r, finish) in result.rank_finish.iter().enumerate() {
            let own = trace.ranks[r].total_compute();
            prop_assert!(
                finish.as_ns() >= own.as_ns(),
                "rank {r} finished before its own compute"
            );
        }
        prop_assert!(result.exec_time >= SimDuration::ZERO);
    }

    /// Execution time is monotone under added compute: inflating one
    /// rank's gaps can never shorten the run.
    #[test]
    fn exec_time_monotone_in_compute(
        nprocs in 2u32..9,
        schedule in proptest::collection::vec(any::<u8>(), 2..20),
        seed in any::<u64>(),
        extra_us in 1u64..5_000,
    ) {
        let base = random_spmd_trace(nprocs, &schedule, seed);
        let mut inflated = base.clone();
        // Inflate every gap on rank 0.
        for ev in &mut inflated.ranks[0].events {
            ev.compute_before += SimDuration::from_us(extra_us);
        }
        let params = SimParams::paper();
        let opts = ReplayOptions::default();
        let a = replay(&base, None, &params, &opts).expect("replay");
        let b = replay(&inflated, None, &params, &opts).expect("replay");
        prop_assert!(
            b.exec_time >= a.exec_time,
            "adding compute shortened the run: {} -> {}",
            a.exec_time,
            b.exec_time
        );
    }
}

/// Like [`random_spmd_trace`] but with a per-step payload size:
/// exercises the replay scratch's collective-schedule cache across its
/// full key space (collective kind × root × payload bytes × nprocs).
fn random_sized_trace(nprocs: u32, schedule: &[(u8, u32)], seed: u64) -> Trace {
    let mut b = TraceBuilder::new("random-sized", nprocs);
    for r in 0..nprocs {
        let mut rank_rng = DetRng::seed_from_u64(seed ^ (u64::from(r) << 32));
        for &(s, sz) in schedule {
            let bytes = u64::from(sz) + 1;
            b.compute(
                r,
                SimDuration::from_us_f64(rank_rng.uniform_range(1.0, 200.0)),
            );
            let op = match s % 6 {
                0 => MpiOp::Allreduce { bytes },
                1 => MpiOp::Barrier,
                2 => MpiOp::Bcast { root: s as u32 % nprocs, bytes },
                3 => MpiOp::Reduce { root: (s as u32 + 1) % nprocs, bytes },
                4 => MpiOp::Sendrecv {
                    to: (r + 1) % nprocs,
                    send_bytes: bytes,
                    from: (r + nprocs - 1) % nprocs,
                    recv_bytes: bytes,
                },
                _ => MpiOp::Allgather { bytes },
            };
            b.op(r, op);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The collective-schedule cache is semantically invisible: pushing a
    /// stream of differently-shaped traces through ONE warm scratch —
    /// annotated, with fault injection live — produces results identical
    /// in every field to a fresh scratch per trace. A memoized expansion
    /// leaking across (collective, root, bytes, nprocs) keys, or any
    /// stale arena state surviving `prepare`, breaks this immediately.
    #[test]
    fn warm_schedule_cache_is_byte_identical(
        nprocs in 2u32..13,
        schedules in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), 0u32..(1 << 18)), 1..16),
            2..4,
        ),
        seed in any::<u64>(),
        fault_rate in 0.0f64..6.0,
    ) {
        let params = SimParams::paper();
        let opts = ReplayOptions {
            faults: (fault_rate > 0.01).then(|| FaultConfig::with_rate(seed, fault_rate)),
            ..ReplayOptions::default()
        };
        let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
        let mut warm = ReplayScratch::new();
        for (i, sched) in schedules.iter().enumerate() {
            // Vary the rank count per trace so the warm scratch also
            // crosses nprocs boundaries between runs.
            let n = 2 + (nprocs + i as u32) % 11;
            let trace = random_sized_trace(n, sched, seed ^ (i as u64));
            trace.validate().unwrap();
            let ann = annotate_trace_jobs(&trace, &cfg, 1);
            let a = replay_with_scratch(&trace, Some(&ann), &params, &opts, &mut warm)
                .expect("warm replay");
            let b = replay_with_scratch(
                &trace, Some(&ann), &params, &opts, &mut ReplayScratch::new(),
            )
            .expect("fresh replay");
            prop_assert_eq!(a.exec_time, b.exec_time);
            prop_assert_eq!(&a.rank_finish, &b.rank_finish);
            prop_assert_eq!(&a.link_sleep, &b.link_sleep);
            prop_assert_eq!(&a.link_transition, &b.link_transition);
            prop_assert_eq!(&a.link_sleeps, &b.link_sleeps);
            prop_assert_eq!(a.fabric, b.fabric);
            prop_assert_eq!(a.faults, b.faults);
        }
    }
}

#[test]
fn bcast_reaches_all_ranks_after_root_compute() {
    // Root computes 10 ms then broadcasts; everyone's finish reflects the
    // root's compute (the broadcast cannot complete earlier).
    let n = 8;
    let mut b = TraceBuilder::new("bcast", n);
    b.compute(0, SimDuration::from_ms(10));
    for r in 0..n {
        b.op(r, MpiOp::Bcast { root: 0, bytes: 1 << 16 });
    }
    let result = replay(
        &b.build(),
        None,
        &SimParams::paper(),
        &ReplayOptions::default(),
    ).expect("replay");
    for (r, f) in result.rank_finish.iter().enumerate() {
        assert!(
            f.as_us_f64() >= 10_000.0,
            "rank {r} finished at {f} before the root's data existed"
        );
    }
}

#[test]
fn reduce_waits_for_slowest_contributor() {
    let n = 8;
    let mut b = TraceBuilder::new("reduce", n);
    b.compute(5, SimDuration::from_ms(7)); // rank 5 is late
    for r in 0..n {
        b.op(r, MpiOp::Reduce { root: 0, bytes: 4096 });
    }
    let result = replay(
        &b.build(),
        None,
        &SimParams::paper(),
        &ReplayOptions::default(),
    ).expect("replay");
    assert!(
        result.rank_finish[0].as_us_f64() >= 7_000.0,
        "root finished before the late contributor: {}",
        result.rank_finish[0]
    );
    // Non-ancestors of rank 5 in the binomial tree may finish early —
    // that's correct collective semantics (no global barrier in reduce).
    assert!(result.rank_finish[7].as_us_f64() < 7_000.0);
}

#[test]
fn alltoall_transports_n_squared_messages() {
    let n = 6u32;
    let mut b = TraceBuilder::new("a2a", n);
    for r in 0..n {
        b.op(r, MpiOp::Alltoall { bytes: 2048 });
    }
    let result = replay(
        &b.build(),
        None,
        &SimParams::paper(),
        &ReplayOptions::default(),
    ).expect("replay");
    assert_eq!(result.fabric.messages, u64::from(n) * u64::from(n - 1));
}

#[test]
fn wait_enforces_request_completion_time() {
    // Rank 0 posts an Irecv early, computes, then waits; the wait must
    // not complete before the (late) sender's message arrives.
    let mut b = TraceBuilder::new("wait", 2);
    let req = b.irecv(0, 1, 1 << 20);
    b.compute(0, SimDuration::from_us(10));
    b.op(0, MpiOp::Wait { req });
    b.compute(1, SimDuration::from_ms(5)); // sender is busy 5 ms
    b.op(1, MpiOp::Send { to: 0, bytes: 1 << 20 });
    let result = replay(
        &b.build(),
        None,
        &SimParams::paper(),
        &ReplayOptions::default(),
    ).expect("replay");
    assert!(
        result.rank_finish[0].as_us_f64() > 5_000.0,
        "wait returned before the message existed: {}",
        result.rank_finish[0]
    );
}

#[test]
fn message_ordering_is_fifo_per_pair() {
    // Two back-to-back sends with different sizes: the receiver's first
    // recv matches the first (large) send even though the second (small)
    // one would "arrive" earlier if reordered.
    let mut b = TraceBuilder::new("fifo", 2);
    b.op(0, MpiOp::Send { to: 1, bytes: 4 << 20 });
    b.op(0, MpiOp::Send { to: 1, bytes: 64 });
    b.op(1, MpiOp::Recv { from: 0, bytes: 4 << 20 });
    // The first recv's completion must dominate the big serialization.
    b.op(1, MpiOp::Recv { from: 0, bytes: 64 });
    let result = replay(
        &b.build(),
        None,
        &SimParams::paper(),
        &ReplayOptions::default(),
    ).expect("replay");
    let serial_big = SimParams::paper().serialize(4 << 20);
    assert!(
        result.rank_finish[1].as_ns() >= serial_big.as_ns(),
        "FIFO violated"
    );
}
