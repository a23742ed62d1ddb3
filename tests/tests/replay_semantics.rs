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
        inflated.ranks[0].events = base.ranks[0]
            .events
            .iter()
            .map(|mut ev| {
                ev.compute_before += SimDuration::from_us(extra_us);
                ev
            })
            .collect();
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
/// full key space (collective kind × root × nprocs) with many payloads
/// sharing each schedule.
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
                2 => MpiOp::Bcast {
                    root: s as u32 % nprocs,
                    bytes,
                },
                3 => MpiOp::Reduce {
                    root: (s as u32 + 1) % nprocs,
                    bytes,
                },
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
    /// in every field to a fresh scratch per trace. A memoized schedule
    /// leaking across (collective, root, nprocs) keys, a payload leaking
    /// between events that share a schedule, or any stale arena state
    /// surviving `prepare`, breaks this immediately.
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
        b.op(
            r,
            MpiOp::Bcast {
                root: 0,
                bytes: 1 << 16,
            },
        );
    }
    let result = replay(
        &b.build(),
        None,
        &SimParams::paper(),
        &ReplayOptions::default(),
    )
    .expect("replay");
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
        b.op(
            r,
            MpiOp::Reduce {
                root: 0,
                bytes: 4096,
            },
        );
    }
    let result = replay(
        &b.build(),
        None,
        &SimParams::paper(),
        &ReplayOptions::default(),
    )
    .expect("replay");
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
    )
    .expect("replay");
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
    b.op(
        1,
        MpiOp::Send {
            to: 0,
            bytes: 1 << 20,
        },
    );
    let result = replay(
        &b.build(),
        None,
        &SimParams::paper(),
        &ReplayOptions::default(),
    )
    .expect("replay");
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
    b.op(
        0,
        MpiOp::Send {
            to: 1,
            bytes: 4 << 20,
        },
    );
    b.op(0, MpiOp::Send { to: 1, bytes: 64 });
    b.op(
        1,
        MpiOp::Recv {
            from: 0,
            bytes: 4 << 20,
        },
    );
    // The first recv's completion must dominate the big serialization.
    b.op(1, MpiOp::Recv { from: 0, bytes: 64 });
    let result = replay(
        &b.build(),
        None,
        &SimParams::paper(),
        &ReplayOptions::default(),
    )
    .expect("replay");
    let serial_big = SimParams::paper().serialize(4 << 20);
    assert!(
        result.rank_finish[1].as_ns() >= serial_big.as_ns(),
        "FIFO violated"
    );
}

/// One round of the digest corpus, shared by every rank: what to run,
/// its payload, and a selector (root, shift) drawn once per round.
#[derive(Clone, Copy)]
struct CorpusRound {
    kind: u8,
    bytes: u64,
    sel: u32,
}

/// A valid trace mixing every collective with point-to-point traffic
/// on the pairs the collectives use: blocking ring sends and the
/// allgather ring share `r → r + 1`, and non-blocking receives are
/// posted on those pairs *before* a collective and waited after it, so
/// collective and point-to-point arrivals interleave in one FIFO.
///
/// The rounds repeat with a short period, like an iterative solver, and
/// each (rank, slot) keeps its compute gap from short to several
/// milliseconds up to a few percent of jitter, so the runtime predicts
/// idle periods and issues directives for every sleep depth.
fn corpus_trace(nprocs: u32, rounds: usize, seed: u64) -> Trace {
    let mut rng = DetRng::seed_from_u64(seed);
    let period = 3 + rng.index(4);
    let slots: Vec<CorpusRound> = (0..period)
        .map(|_| CorpusRound {
            kind: rng.index(10) as u8,
            bytes: 1 + rng.index(1 << 17) as u64,
            sel: rng.index(nprocs as usize) as u32,
        })
        .collect();
    let plan: Vec<CorpusRound> = (0..rounds).map(|i| slots[i % period]).collect();
    let mut b = TraceBuilder::new("digest-corpus", nprocs);
    for r in 0..nprocs {
        let mut rank_rng = DetRng::seed_from_u64(seed ^ (u64::from(r) << 32));
        let gaps_us: Vec<f64> = (0..period)
            .map(|_| match rank_rng.index(3) {
                0 => rank_rng.uniform_range(1.0, 30.0),
                1 => rank_rng.uniform_range(50.0, 900.0),
                _ => rank_rng.uniform_range(1_000.0, 8_000.0),
            })
            .collect();
        let right = (r + 1) % nprocs;
        let left = (r + nprocs - 1) % nprocs;
        for (i, round) in plan.iter().enumerate() {
            let bytes = round.bytes;
            let jitter = rank_rng.uniform_range(0.97, 1.03);
            b.compute(r, SimDuration::from_us_f64(gaps_us[i % period] * jitter));
            match round.kind {
                0 => b.op(r, MpiOp::Alltoall { bytes }),
                1 => b.op(r, MpiOp::Allgather { bytes }),
                2 => b.op(
                    r,
                    MpiOp::Bcast {
                        root: round.sel,
                        bytes,
                    },
                ),
                3 => b.op(
                    r,
                    MpiOp::Reduce {
                        root: round.sel,
                        bytes,
                    },
                ),
                4 => b.op(r, MpiOp::Barrier),
                5 => b.op(r, MpiOp::Allreduce { bytes }),
                6 => {
                    let shift = 1 + round.sel % (nprocs - 1);
                    b.op(
                        r,
                        MpiOp::Sendrecv {
                            to: (r + shift) % nprocs,
                            send_bytes: bytes,
                            from: (r + nprocs - shift) % nprocs,
                            recv_bytes: bytes,
                        },
                    );
                }
                7 => {
                    let a = b.irecv(r, left, bytes);
                    let c = b.irecv(r, right, bytes);
                    let d = b.isend(r, right, bytes);
                    let e = b.isend(r, left, bytes);
                    b.op(
                        r,
                        MpiOp::Allgather {
                            bytes: bytes / 8 + 1,
                        },
                    );
                    b.op(
                        r,
                        MpiOp::Waitall {
                            reqs: vec![a, c, d, e],
                        },
                    );
                }
                8 => {
                    b.op(r, MpiOp::Send { to: right, bytes });
                    b.op(r, MpiOp::Recv { from: left, bytes });
                }
                _ => {
                    let a = b.irecv(r, left, bytes);
                    b.op(r, MpiOp::Send { to: right, bytes });
                    b.op(r, MpiOp::Barrier);
                    b.op(r, MpiOp::Wait { req: a });
                }
            }
        }
    }
    b.build()
}

/// FNV-1a over every field of a [`ibp_network::SimResult`].
fn digest_result(r: &ibp_network::SimResult) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    eat(r.exec_time.as_ns());
    for t in &r.rank_finish {
        eat(t.as_ns());
    }
    for depths in &r.link_sleep {
        for d in depths {
            eat(d.as_ns());
        }
    }
    for d in &r.link_transition {
        eat(d.as_ns());
    }
    for &n in &r.link_sleeps {
        eat(n);
    }
    match &r.timelines {
        None => eat(0),
        Some(tls) => {
            eat(1);
            for tl in tls {
                let end = tl
                    .last_transition()
                    .max(ibp_simcore::SimTime::ZERO + r.exec_time);
                for iv in tl.intervals(end) {
                    eat(iv.start.as_ns());
                    eat(iv.end.as_ns());
                    eat(iv.state as u64);
                }
            }
        }
    }
    eat(r.fabric.messages);
    eat(r.fabric.bytes);
    eat(r.fabric.contended);
    for f in r.sleep_power_fraction {
        eat(f.to_bits());
    }
    let f = &r.faults;
    eat(f.wake_misfires);
    eat(f.misfire_stall.as_ns());
    eat(f.link_flaps);
    eat(f.flap_delay.as_ns());
    eat(f.degraded_sends);
    eat(f.degraded_extra.as_ns());
    format!("{h:016x}")
}

/// The replay engine's exact output, pinned: a seeded corpus of mixed
/// collective / point-to-point traces at 2–252 ranks (252 fills the
/// paper XGFT), each replayed as a baseline, annotated under the paper
/// rung set with faults on, and annotated under the full sleep ladder
/// with faults on. Every `SimResult` field goes into the digest, so any
/// change to scheduling order, arrival matching, routing draws or fault
/// draws shows up here even where the paper goldens would not notice.
///
/// Regenerate only after an intentional model change:
/// `IBP_UPDATE_GOLDEN=1 cargo test -p ibpower-integration-tests --test replay_semantics`
#[test]
fn replay_digest_matches_golden() {
    use ibpower_integration_tests::golden::assert_matches_golden;
    use serde::Value;

    let params = SimParams::paper();
    let gt = SimDuration::from_us(20);
    let paper = PowerConfig::paper(gt, 0.01);
    let ladder = PowerConfig::paper(gt, 0.01).with_ladder();
    let cases: [(u32, usize); 9] = [
        (2, 60),
        (3, 48),
        (5, 48),
        (8, 40),
        (17, 36),
        (36, 30),
        (64, 24),
        (128, 24),
        (252, 30),
    ];
    let mut rows = Vec::new();
    let mut scratch = ReplayScratch::new();
    let mut seen = std::collections::BTreeSet::new();
    for (i, &(nprocs, rounds)) in cases.iter().enumerate() {
        let seed = 0xD16E_0000 + i as u64;
        let trace = corpus_trace(nprocs, rounds, seed);
        trace.validate().unwrap();
        for ev in &trace.ranks[0].events {
            let name = format!("{:?}", ev.op);
            seen.insert(
                name.split([' ', '{'])
                    .next()
                    .unwrap_or_default()
                    .to_string(),
            );
        }
        let faulty = ReplayOptions {
            faults: Some(FaultConfig::with_rate(seed, 20.0)),
            record_timelines: nprocs <= 17,
            ..ReplayOptions::default()
        };
        let runs = [
            ("baseline", None, ReplayOptions::default()),
            ("paper+faults", Some(&paper), faulty.clone()),
            ("ladder+faults", Some(&ladder), faulty),
        ];
        for (label, cfg, opts) in runs {
            let ann = cfg.map(|c| annotate_trace_jobs(&trace, c, 1));
            let r = replay_with_scratch(&trace, ann.as_ref(), &params, &opts, &mut scratch)
                .expect("corpus replay");
            rows.push(Value::Map(vec![
                ("nprocs".into(), Value::U64(u64::from(nprocs))),
                ("run".into(), Value::Str(label.into())),
                ("exec_ns".into(), Value::U64(r.exec_time.as_ns())),
                ("messages".into(), Value::U64(r.fabric.messages)),
                ("fault_events".into(), Value::U64(r.faults.total_events())),
                (
                    "sleep_windows".into(),
                    Value::U64(r.link_sleeps.iter().sum()),
                ),
                (
                    "deep_ns".into(),
                    Value::U64(r.link_sleep.iter().map(|l| l[2].as_ns()).sum()),
                ),
                ("digest".into(), Value::Str(digest_result(&r))),
            ]));
        }
    }
    let every_op = [
        "Alltoall",
        "Allgather",
        "Bcast",
        "Reduce",
        "Barrier",
        "Allreduce",
        "Sendrecv",
        "Send",
        "Recv",
        "Isend",
        "Irecv",
        "Wait",
        "Waitall",
    ];
    for op in every_op {
        assert!(seen.contains(op), "corpus never issues {op}: {seen:?}");
    }
    assert_matches_golden("replay_digest.json", &Value::Seq(rows));
}

/// Hands out one rank's request ids in a scrambled, wrapping order: the
/// ids start a few below `u32::MAX` and step by `stride` (odd, so the
/// ids stay distinct for 2^32 posts). A stride of 1 numbers posts in
/// order and wraps through zero after a few posts; other strides scatter
/// them.
struct IdSource {
    next: u32,
    stride: u32,
}

impl IdSource {
    fn take(&mut self) -> u32 {
        let id = self.next;
        self.next = self.next.wrapping_add(self.stride);
        id
    }
}

/// A valid trace whose request ids are *not* the builder's `0, 1, 2, …`:
/// each rank draws its own start near `u32::MAX` and its own stride from
/// [`IdSource`]. The rounds also complete requests in every order the
/// replay must honour:
///
/// - `Waitall` lists in reverse posting order;
/// - a `Wait` separated from its `Irecv` by collectives;
/// - `Isend`s completed by a single `Wait` and inside a `Waitall`;
/// - a request left open across a collective and a blocking exchange;
///
/// and every collective kind. Like [`corpus_trace`], rounds repeat with
/// a short period so the runtime predicts idle time and issues
/// directives.
fn request_id_trace(nprocs: u32, rounds: usize, seed: u64) -> Trace {
    const KINDS: usize = 12;
    let mut rng = DetRng::seed_from_u64(seed);
    let period = 4 + rng.index(4);
    let slots: Vec<CorpusRound> = (0..period)
        .map(|_| CorpusRound {
            kind: rng.index(KINDS) as u8,
            bytes: 1 + rng.index(1 << 16) as u64,
            sel: rng.index(nprocs as usize) as u32,
        })
        .collect();
    let mut b = TraceBuilder::new("request-id-corpus", nprocs);
    for r in 0..nprocs {
        let mut rank_rng = DetRng::seed_from_u64(seed ^ (u64::from(r) << 32) ^ 0x1D5);
        let mut ids = IdSource {
            next: u32::MAX - rank_rng.index(6) as u32,
            stride: match r % 3 {
                0 => 1,
                1 => 0x9E37_79B1,
                _ => (rank_rng.index(1 << 20) as u32) << 1 | 1,
            },
        };
        let gaps_us: Vec<f64> = (0..period)
            .map(|_| match rank_rng.index(3) {
                0 => rank_rng.uniform_range(1.0, 30.0),
                1 => rank_rng.uniform_range(50.0, 900.0),
                _ => rank_rng.uniform_range(1_000.0, 8_000.0),
            })
            .collect();
        let right = (r + 1) % nprocs;
        let left = (r + nprocs - 1) % nprocs;
        for i in 0..rounds {
            let CorpusRound { kind, bytes, sel } = slots[i % period];
            let jitter = rank_rng.uniform_range(0.97, 1.03);
            b.compute(r, SimDuration::from_us_f64(gaps_us[i % period] * jitter));
            let mut irecv = |b: &mut TraceBuilder, from: u32| {
                let req = ids.take();
                b.op(r, MpiOp::Irecv { from, bytes, req });
                req
            };
            match kind {
                0 => b.op(r, MpiOp::Alltoall { bytes }),
                1 => b.op(r, MpiOp::Allgather { bytes }),
                2 => b.op(r, MpiOp::Bcast { root: sel, bytes }),
                3 => b.op(r, MpiOp::Reduce { root: sel, bytes }),
                4 => b.op(r, MpiOp::Barrier),
                5 => b.op(r, MpiOp::Allreduce { bytes }),
                6 => {
                    // One exchange, completed in reverse posting order.
                    let a = irecv(&mut b, left);
                    let s = ids.take();
                    b.op(
                        r,
                        MpiOp::Isend {
                            to: right,
                            bytes,
                            req: s,
                        },
                    );
                    b.op(r, MpiOp::Waitall { reqs: vec![s, a] });
                }
                7 => {
                    // Both directions, four requests, reversed.
                    let a = irecv(&mut b, left);
                    let c = irecv(&mut b, right);
                    let d = ids.take();
                    b.op(
                        r,
                        MpiOp::Isend {
                            to: right,
                            bytes,
                            req: d,
                        },
                    );
                    let e = ids.take();
                    b.op(
                        r,
                        MpiOp::Isend {
                            to: left,
                            bytes,
                            req: e,
                        },
                    );
                    b.op(
                        r,
                        MpiOp::Waitall {
                            reqs: vec![e, d, c, a],
                        },
                    );
                }
                8 => {
                    // The receive stays open across two collectives.
                    let a = irecv(&mut b, left);
                    b.op(r, MpiOp::Send { to: right, bytes });
                    b.op(r, MpiOp::Allreduce { bytes: 8 });
                    b.op(
                        r,
                        MpiOp::Bcast {
                            root: sel,
                            bytes: 64,
                        },
                    );
                    b.op(r, MpiOp::Wait { req: a });
                }
                9 => {
                    // An `Isend` completed by a single `Wait`.
                    let s = ids.take();
                    b.op(
                        r,
                        MpiOp::Isend {
                            to: right,
                            bytes,
                            req: s,
                        },
                    );
                    b.op(r, MpiOp::Recv { from: left, bytes });
                    b.op(r, MpiOp::Wait { req: s });
                }
                10 => {
                    // Receive first, send later: the send is still open
                    // through a collective and a blocking exchange.
                    let a = irecv(&mut b, right);
                    let s = ids.take();
                    b.op(
                        r,
                        MpiOp::Isend {
                            to: left,
                            bytes,
                            req: s,
                        },
                    );
                    b.op(r, MpiOp::Wait { req: a });
                    b.op(r, MpiOp::Allgather { bytes: 32 });
                    b.op(
                        r,
                        MpiOp::Sendrecv {
                            to: right,
                            send_bytes: bytes,
                            from: left,
                            recv_bytes: bytes,
                        },
                    );
                    b.op(r, MpiOp::Wait { req: s });
                }
                _ => {
                    // Two receives on one pair, waited newest first.
                    let a = irecv(&mut b, left);
                    let c = irecv(&mut b, left);
                    b.op(r, MpiOp::Send { to: right, bytes });
                    b.op(
                        r,
                        MpiOp::Send {
                            to: right,
                            bytes: bytes / 2 + 1,
                        },
                    );
                    b.op(r, MpiOp::Wait { req: c });
                    b.op(r, MpiOp::Alltoall { bytes: 16 });
                    b.op(r, MpiOp::Wait { req: a });
                }
            }
        }
    }
    b.build()
}

/// The replay's exact output on traces with arbitrary request ids: the
/// [`request_id_trace`] corpus (scrambled and wrapping ids, out-of-order
/// completion), replayed as a baseline, under the paper rung set with
/// faults on and under the full sleep ladder with faults on. The
/// builder's traces number requests `0, 1, 2, …` in posting order, so
/// `replay_digest_matches_golden` alone would not notice an engine
/// that assumed it.
///
/// Regenerate only after an intentional model change:
/// `IBP_UPDATE_GOLDEN=1 cargo test -p ibpower-integration-tests --test replay_semantics`
#[test]
fn replay_ids_digest_matches_golden() {
    use ibpower_integration_tests::golden::assert_matches_golden;
    use serde::Value;

    let params = SimParams::paper();
    let gt = SimDuration::from_us(20);
    let paper = PowerConfig::paper(gt, 0.01);
    let ladder = PowerConfig::paper(gt, 0.01).with_ladder();
    let cases: [(u32, usize); 8] = [
        (2, 48),
        (3, 40),
        (4, 40),
        (7, 36),
        (12, 36),
        (16, 30),
        (33, 24),
        (64, 20),
    ];
    let mut rows = Vec::new();
    let mut scratch = ReplayScratch::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut wrapped = false;
    for (i, &(nprocs, rounds)) in cases.iter().enumerate() {
        let seed = 0x1D5_0000 + i as u64;
        let trace = request_id_trace(nprocs, rounds, seed);
        trace.validate().unwrap();
        for rank in &trace.ranks {
            for ev in &rank.events {
                let name = format!("{:?}", ev.op);
                seen.insert(
                    name.split([' ', '{'])
                        .next()
                        .unwrap_or_default()
                        .to_string(),
                );
                wrapped |= matches!(
                    ev.op,
                    MpiOp::Isend { req: 0..=7, .. } | MpiOp::Irecv { req: 0..=7, .. }
                );
            }
        }
        let faulty = ReplayOptions {
            faults: Some(FaultConfig::with_rate(seed, 20.0)),
            record_timelines: nprocs <= 16,
            ..ReplayOptions::default()
        };
        let runs = [
            ("baseline", None, ReplayOptions::default()),
            ("paper+faults", Some(&paper), faulty.clone()),
            ("ladder+faults", Some(&ladder), faulty),
        ];
        for (label, cfg, opts) in runs {
            let ann = cfg.map(|c| annotate_trace_jobs(&trace, c, 1));
            let r = replay_with_scratch(&trace, ann.as_ref(), &params, &opts, &mut scratch)
                .expect("request-id corpus replay");
            rows.push(Value::Map(vec![
                ("nprocs".into(), Value::U64(u64::from(nprocs))),
                ("run".into(), Value::Str(label.into())),
                ("exec_ns".into(), Value::U64(r.exec_time.as_ns())),
                ("messages".into(), Value::U64(r.fabric.messages)),
                ("fault_events".into(), Value::U64(r.faults.total_events())),
                (
                    "sleep_windows".into(),
                    Value::U64(r.link_sleeps.iter().sum()),
                ),
                ("digest".into(), Value::Str(digest_result(&r))),
            ]));
        }
    }
    let every_op = [
        "Alltoall",
        "Allgather",
        "Bcast",
        "Reduce",
        "Barrier",
        "Allreduce",
        "Sendrecv",
        "Send",
        "Recv",
        "Isend",
        "Irecv",
        "Wait",
        "Waitall",
    ];
    for op in every_op {
        assert!(seen.contains(op), "corpus never issues {op}: {seen:?}");
    }
    assert!(wrapped, "no request id wrapped past u32::MAX");
    assert_matches_golden("replay_ids_digest.json", &Value::Seq(rows));
}

/// A valid trace built around the edges of a ring allgather, one
/// scenario per round, cycling:
///
/// 0. one late entrant: rank `late` computes 250 µs longer first;
/// 1. one early leaver: rank `early` computes least, leaves the
///    allgather first and sends to a ring member, which receives after
///    its own allgather;
/// 2. back-to-back 1-byte, 512-byte and 1-byte allgathers, where the
///    remaining-send bound is loosest;
/// 3. an `Isend` to the right neighbour left unreceived across the
///    allgather, received after it;
/// 4. an allreduce between allgathers of a different size.
///
/// Compute gaps repeat per scenario with a few percent of jitter, so
/// the runtime issues directives.
fn ring_window_trace(nprocs: u32, rounds: usize, seed: u64) -> Trace {
    let n = nprocs;
    let mut b = TraceBuilder::new("ring-window", n);
    let mut rng = DetRng::seed_from_u64(seed);
    let late = rng.index(n as usize) as u32;
    let early = rng.index(n as usize) as u32;
    for r in 0..n {
        let mut rank_rng = DetRng::seed_from_u64(seed ^ (u64::from(r) << 32) ^ 0x21A6);
        let gaps_us: Vec<f64> = (0..5)
            .map(|_| rank_rng.uniform_range(40.0, 1_500.0))
            .collect();
        let (right, left) = ((r + 1) % n, (r + n - 1) % n);
        for i in 0..rounds {
            let scenario = i % 5;
            let mut gap = gaps_us[scenario] * rank_rng.uniform_range(0.97, 1.03);
            if scenario == 0 && r == late {
                gap += 250.0;
            }
            if scenario == 1 && r == early {
                gap = 1.0;
            }
            b.compute(r, SimDuration::from_us_f64(gap));
            match scenario {
                0 => b.op(r, MpiOp::Allgather { bytes: 4096 }),
                1 => {
                    b.op(r, MpiOp::Allgather { bytes: 2048 });
                    let member = (early + 1 + (n > 2) as u32) % n;
                    if r == early {
                        b.op(
                            r,
                            MpiOp::Send {
                                to: member,
                                bytes: 8192,
                            },
                        );
                    }
                    if r == member {
                        b.op(
                            r,
                            MpiOp::Recv {
                                from: early,
                                bytes: 8192,
                            },
                        );
                    }
                }
                2 => {
                    b.op(r, MpiOp::Allgather { bytes: 1 });
                    b.op(r, MpiOp::Allgather { bytes: 512 });
                    b.op(r, MpiOp::Allgather { bytes: 1 });
                }
                3 => {
                    let s = b.isend(r, right, 1024);
                    b.op(r, MpiOp::Allgather { bytes: 256 });
                    b.op(
                        r,
                        MpiOp::Recv {
                            from: left,
                            bytes: 1024,
                        },
                    );
                    b.op(r, MpiOp::Wait { req: s });
                }
                _ => {
                    b.op(r, MpiOp::Allgather { bytes: 64 });
                    b.op(r, MpiOp::Allreduce { bytes: 8 });
                    b.op(r, MpiOp::Allgather { bytes: 16384 });
                }
            }
        }
    }
    b.build()
}

/// The replay's exact output around ring allgathers on the paper tree,
/// at ring sizes within one leaf (2, 3, 17), leaving a rank alone on a
/// leaf (19, 37) and spanning eight leaves (128): [`ring_window_trace`]
/// replayed as a baseline, with flap and degrade faults, managed under
/// the paper rung set, and managed with every fault class on.
///
/// Regenerate only after an intentional model change:
/// `IBP_UPDATE_GOLDEN=1 cargo test -p ibpower-integration-tests --test replay_semantics`
#[test]
fn ring_window_digest_matches_golden() {
    use ibpower_integration_tests::golden::assert_matches_golden;
    use serde::Value;

    let params = SimParams::paper();
    let paper = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let mut rows = Vec::new();
    let mut scratch = ReplayScratch::new();
    for (i, &(nprocs, rounds)) in [(2, 40), (3, 40), (17, 30), (19, 30), (37, 30), (128, 30)]
        .iter()
        .enumerate()
    {
        let seed = 0x21A6_0000 + i as u64;
        let trace = ring_window_trace(nprocs, rounds, seed);
        trace.validate().unwrap();
        let link_faults = FaultConfig {
            flap_prob: 0.02,
            degrade_prob: 0.01,
            ..FaultConfig::quiet(seed)
        };
        let ann = annotate_trace_jobs(&trace, &paper, 1);
        let runs = [
            ("baseline", None, None),
            ("flap+degrade", None, Some(link_faults)),
            ("managed", Some(&ann), None),
            (
                "managed+faults",
                Some(&ann),
                Some(FaultConfig::with_rate(seed, 20.0)),
            ),
        ];
        for (label, ann, faults) in runs {
            let opts = ReplayOptions {
                faults,
                ..ReplayOptions::default()
            };
            let r = replay_with_scratch(&trace, ann, &params, &opts, &mut scratch)
                .expect("ring-window replay");
            rows.push(Value::Map(vec![
                ("nprocs".into(), Value::U64(u64::from(nprocs))),
                ("run".into(), Value::Str(label.into())),
                ("exec_ns".into(), Value::U64(r.exec_time.as_ns())),
                ("messages".into(), Value::U64(r.fabric.messages)),
                ("contended".into(), Value::U64(r.fabric.contended)),
                ("fault_events".into(), Value::U64(r.faults.total_events())),
                (
                    "sleep_windows".into(),
                    Value::U64(r.link_sleeps.iter().sum()),
                ),
                ("digest".into(), Value::Str(digest_result(&r))),
            ]));
        }
    }
    assert_matches_golden("ring_window_digest.json", &Value::Seq(rows));
}

/// Ring windows carry the grid's allgathers: on the 128-rank GROMACS
/// and 100-rank NAS-BT grid traces at the exhibits' seed, the window
/// sends at least 70% of the baseline replay's messages, and it engages
/// at 8 ranks too. Together with the goldens this keeps the window from
/// being switched off unnoticed.
#[test]
fn ring_windows_send_most_grid_messages() {
    use ibp_analysis::{exhibits::SEED, experiment::make_trace};
    use ibp_workloads::AppKind;

    let mut scratch = ReplayScratch::new();
    let mut share = |app: AppKind, nprocs: u32| {
        let trace = make_trace(app, nprocs, SEED);
        let r = replay_with_scratch(
            &trace,
            None,
            &SimParams::paper(),
            &ReplayOptions::default(),
            &mut scratch,
        )
        .expect("grid replay");
        scratch.window_messages() as f64 / r.fabric.messages as f64
    };
    for (app, nprocs) in [(AppKind::Gromacs, 128), (AppKind::NasBt, 100)] {
        let share = share(app, nprocs);
        assert!(share >= 0.70, "{app:?}@{nprocs}: window sent {share:.3}");
    }
    let share = share(AppKind::Gromacs, 8);
    assert!(share > 0.0, "no window at 8 ranks");
}
