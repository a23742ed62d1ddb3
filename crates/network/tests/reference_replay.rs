//! A reference replay that the optimised engine must match byte for byte.
//!
//! The reference schedules every step of every rank off one global
//! `(time, rank)` min-heap: pop the earliest rank, run exactly one step
//! (an event expansion, one send, one receive, one wait or one event
//! close), push it back. It keeps no step stream, no schedule memo, no
//! eager rank-local runs and no special cases for any collective: each
//! event is decomposed afresh through [`for_each_micro`], every arrival
//! of the run is kept, and sleep windows are applied one at a time as
//! they resolve. It reuses the model itself — [`Fabric`], [`FaultPlan`]
//! and [`LinkPowerTracker`] — so it checks scheduling only: that the
//! engine's send order, message matching, fault-draw order and window
//! accounting are those of the plain heap-driven design.

use ibp_core::{annotate_trace, PowerConfig, SleepKind, TraceAnnotations};
use ibp_network::power::SleepWindow;
use ibp_network::{
    for_each_micro, replay_with_scratch, Fabric, FaultConfig, FaultPlan, FaultStats,
    LinkPowerTracker, MicroOp, ReplayOptions, ReplayScratch, SimParams, SimResult,
};
use ibp_simcore::{DetRng, SimDuration, SimTime};
use ibp_trace::{MpiOp, Rank, Trace, TraceBuilder, TraceEvent};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Library cost of posting a non-blocking operation.
const POST_OVERHEAD: SimDuration = SimDuration::from_ns(300);

/// One schedulable step of an expanded event.
#[derive(Debug, Clone, Copy)]
enum Step {
    Send { to: Rank, bytes: u64 },
    Isend { to: Rank, bytes: u64, req: u32 },
    Recv { from: Rank },
    Wait { req: u32 },
    Done,
}

#[derive(Debug, Clone, Copy)]
enum Req {
    Send { done: SimTime },
    Recv { pair: usize, k: usize },
}

struct RankState {
    t: SimTime,
    events: Vec<TraceEvent>,
    ev: usize,
    /// Steps left of the event being run; `None` between events.
    steps: Option<VecDeque<Step>>,
    reqs: HashMap<u32, Req>,
    next_directive: usize,
    pending_sleep: Option<(SimTime, SimDuration, SleepKind)>,
    power: LinkPowerTracker,
    done: bool,
}

/// What one step did to its rank.
enum Outcome {
    Runnable,
    Parked,
    Finished,
}

struct Reference<'a> {
    trace: &'a Trace,
    ann: Option<&'a TraceAnnotations>,
    params: SimParams,
    fabric: Fabric,
    faults: Option<FaultPlan>,
    stats: FaultStats,
    ranks: Vec<RankState>,
    /// Every arrival of the run, per `src * n + dst` pair, in send order.
    arrivals: Vec<Vec<SimTime>>,
    /// The next message number a receive on each pair takes.
    recv_next: Vec<usize>,
    /// Rank parked on each (pair, message number).
    waiters: HashMap<(usize, usize), Rank>,
    heap: BinaryHeap<Reverse<(SimTime, Rank)>>,
}

/// Replay `trace` on the reference scheduler.
fn reference_replay(
    trace: &Trace,
    ann: Option<&TraceAnnotations>,
    params: &SimParams,
    opts: &ReplayOptions,
) -> SimResult {
    let n = trace.nprocs;
    let faults = opts
        .faults
        .as_ref()
        .filter(|cfg| !cfg.is_quiet())
        .map(|cfg| FaultPlan::new(cfg, n));
    let pairs = (n as usize) * (n as usize);
    let mut sim = Reference {
        trace,
        ann,
        params: params.clone(),
        fabric: Fabric::new(params.clone(), n, opts.seed),
        faults,
        stats: FaultStats::default(),
        ranks: trace
            .ranks
            .iter()
            .map(|rt| RankState {
                t: SimTime::ZERO,
                events: rt.events.iter().collect(),
                ev: 0,
                steps: None,
                reqs: HashMap::new(),
                next_directive: 0,
                pending_sleep: None,
                power: LinkPowerTracker::new(opts.record_timelines),
                done: false,
            })
            .collect(),
        arrivals: vec![Vec::new(); pairs],
        recv_next: vec![0; pairs],
        waiters: HashMap::new(),
        heap: (0..n).map(|r| Reverse((SimTime::ZERO, r))).collect(),
    };
    while let Some(Reverse((_, r))) = sim.heap.pop() {
        if let Outcome::Runnable = sim.step(r) {
            sim.heap.push(Reverse((sim.ranks[r as usize].t, r)));
        }
    }
    assert!(sim.ranks.iter().all(|s| s.done), "reference deadlocked");
    let ranks = &sim.ranks;
    SimResult {
        exec_time: ranks
            .iter()
            .map(|s| s.t)
            .max()
            .unwrap()
            .since(SimTime::ZERO),
        rank_finish: ranks.iter().map(|s| s.t).collect(),
        link_sleep: ranks.iter().map(|s| s.power.sleep_time).collect(),
        link_transition: ranks.iter().map(|s| s.power.transition_time).collect(),
        link_sleeps: ranks.iter().map(|s| s.power.sleeps).collect(),
        timelines: opts.record_timelines.then(|| {
            ranks
                .iter()
                .map(|s| s.power.timeline.clone().unwrap())
                .collect()
        }),
        fabric: sim.fabric.stats(),
        sleep_power_fraction: SleepKind::ALL.map(|kind| params.draw_of(kind)),
        faults: sim.stats,
    }
}

impl Reference<'_> {
    /// Run one step of rank `r`.
    fn step(&mut self, r: Rank) -> Outcome {
        let ri = r as usize;
        let Some(steps) = self.ranks[ri].steps.as_mut() else {
            return self.expand(r);
        };
        let step = *steps.front().expect("every event ends in Done");
        let n = self.trace.nprocs as usize;
        match step {
            Step::Send { to, bytes } => {
                let t = self.ranks[ri].t;
                self.ranks[ri].t = self.send(r, to, t, bytes);
            }
            Step::Isend { to, bytes, req } => {
                let t = self.ranks[ri].t;
                let done = self.send(r, to, t, bytes);
                let state = &mut self.ranks[ri];
                state.reqs.insert(req, Req::Send { done });
                state.t += POST_OVERHEAD;
            }
            Step::Recv { from } => {
                let pair = from as usize * n + ri;
                let k = self.recv_next[pair];
                if !self.read(r, pair, k) {
                    return Outcome::Parked;
                }
                self.recv_next[pair] = k + 1;
            }
            Step::Wait { req } => {
                match self.ranks[ri].reqs[&req] {
                    Req::Send { done } => {
                        let state = &mut self.ranks[ri];
                        state.t = state.t.max(done);
                    }
                    Req::Recv { pair, k } => {
                        if !self.read(r, pair, k) {
                            return Outcome::Parked;
                        }
                    }
                }
                self.ranks[ri].reqs.remove(&req);
            }
            Step::Done => self.close_event(ri),
        }
        if let Some(steps) = self.ranks[ri].steps.as_mut() {
            steps.pop_front();
        }
        Outcome::Runnable
    }

    /// Read arrival `k` of `pair` into rank `r`'s clock, or park `r` on
    /// it if it has not been sent.
    fn read(&mut self, r: Rank, pair: usize, k: usize) -> bool {
        match self.arrivals[pair].get(k) {
            Some(&at) => {
                let state = &mut self.ranks[r as usize];
                state.t = state.t.max(at);
                true
            }
            None => {
                self.waiters.insert((pair, k), r);
                false
            }
        }
    }

    /// Fault draws, injection, arrival record and wake-up of one send;
    /// returns the sender-side completion.
    fn send(&mut self, src: Rank, dst: Rank, t: SimTime, bytes: u64) -> SimTime {
        let mut t = t;
        let mut extra = SimDuration::ZERO;
        if let Some(plan) = self.faults.as_mut() {
            let fault = plan.send_fault(src as usize, t);
            if fault.flapped {
                self.stats.link_flaps += 1;
                self.stats.flap_delay += fault.flap_delay;
                t += fault.flap_delay;
            }
            if fault.degraded {
                extra = FaultPlan::degraded_extra(&self.params, bytes);
                self.stats.degraded_sends += 1;
                self.stats.degraded_extra += extra;
            }
        }
        let pair = (src * self.trace.nprocs + dst) as usize;
        let seq = self.arrivals[pair].len() as u64 + 1;
        let at = self.fabric.transfer(t, src, dst, seq, bytes) + extra;
        self.arrivals[pair].push(at);
        if let Some(w) = self.waiters.remove(&(pair, self.arrivals[pair].len() - 1)) {
            self.heap.push(Reverse((self.ranks[w as usize].t, w)));
        }
        self.fabric.inject_done(t, bytes) + extra
    }

    /// Apply one resolved sleep window to rank `ri`'s link.
    fn window(&mut self, ri: usize, w: SleepWindow) {
        self.ranks[ri]
            .power
            .apply_windows(&self.params, std::slice::from_ref(&w));
    }

    /// Enter rank `r`'s next event (compute, overhead, sleep resolution,
    /// penalty) and lay out its steps; past the last event, run the
    /// trailing compute and finish.
    fn expand(&mut self, r: Rank) -> Outcome {
        let ri = r as usize;
        let misfire = self.ranks[ri].pending_sleep.is_some()
            && self
                .faults
                .as_mut()
                .is_some_and(|plan| plan.wake_misfires_at(ri));
        let ev = self.ranks[ri].ev;
        if ev == self.ranks[ri].events.len() {
            let t = self
                .params
                .compute_end(self.ranks[ri].t, self.trace.ranks[ri].final_compute);
            self.ranks[ri].t = t;
            if let Some((t0, timer, kind)) = self.ranks[ri].pending_sleep.take() {
                if misfire {
                    self.stats.wake_misfires += 1;
                }
                let timer = (!misfire).then_some(timer);
                self.window(
                    ri,
                    SleepWindow {
                        t0,
                        timer,
                        t_want: t,
                        kind,
                    },
                );
            }
            self.ranks[ri].done = true;
            return Outcome::Finished;
        }
        let (overhead, penalty) = match self.ann {
            Some(a) => (a.ranks[ri].overhead[ev], a.ranks[ri].penalty[ev]),
            None => (SimDuration::ZERO, SimDuration::ZERO),
        };
        let event = self.ranks[ri].events[ev].clone();
        let t = self
            .params
            .compute_end(self.ranks[ri].t, event.compute_before + overhead);
        self.ranks[ri].t = t;
        match self.ranks[ri].pending_sleep.take() {
            Some((t0, _, kind)) if misfire => {
                self.window(
                    ri,
                    SleepWindow {
                        t0,
                        timer: None,
                        t_want: t,
                        kind,
                    },
                );
                let react = self.params.react_of(kind);
                self.ranks[ri].t += react;
                self.stats.wake_misfires += 1;
                self.stats.misfire_stall += react;
            }
            Some((t0, timer, kind)) => {
                self.window(
                    ri,
                    SleepWindow {
                        t0,
                        timer: Some(timer),
                        t_want: t,
                        kind,
                    },
                );
                self.ranks[ri].t += penalty;
            }
            None => self.ranks[ri].t += penalty,
        }

        let n = self.trace.nprocs;
        let mut steps = VecDeque::new();
        match event.op {
            MpiOp::Send { to, bytes } => steps.push_back(Step::Send { to, bytes }),
            MpiOp::Recv { from, .. } => steps.push_back(Step::Recv { from }),
            MpiOp::Sendrecv {
                to,
                send_bytes,
                from,
                ..
            } => {
                steps.push_back(Step::Send {
                    to,
                    bytes: send_bytes,
                });
                steps.push_back(Step::Recv { from });
            }
            MpiOp::Isend { to, bytes, req } => steps.push_back(Step::Isend { to, bytes, req }),
            MpiOp::Irecv { from, req, .. } => {
                // Posting reserves the pair's next message number.
                let pair = (from * n + r) as usize;
                let k = self.recv_next[pair];
                self.recv_next[pair] = k + 1;
                let state = &mut self.ranks[ri];
                state.reqs.insert(req, Req::Recv { pair, k });
                state.t += POST_OVERHEAD;
            }
            MpiOp::Wait { req } => steps.push_back(Step::Wait { req }),
            MpiOp::Waitall { ref reqs } => {
                steps.extend(reqs.iter().map(|&req| Step::Wait { req }));
            }
            ref op => for_each_micro(op, r, n, &mut |m| {
                steps.push_back(match m {
                    MicroOp::SendTo { to, bytes } => Step::Send { to, bytes },
                    MicroOp::RecvFrom { from, .. } => Step::Recv { from },
                })
            }),
        }
        steps.push_back(Step::Done);
        self.ranks[ri].steps = Some(steps);
        Outcome::Runnable
    }

    /// Close rank `ri`'s event and pick up the directive attached to it.
    fn close_event(&mut self, ri: usize) {
        let state = &mut self.ranks[ri];
        state.steps = None;
        let ev = state.ev;
        state.ev += 1;
        let Some(a) = self.ann else { return };
        let dirs = &a.ranks[ri].directives;
        let di = state.next_directive;
        if di < dirs.len() && dirs[di].after_event == ev {
            state.next_directive += 1;
            let d = &dirs[di];
            state.pending_sleep = Some((state.t + d.delay, d.timer, d.kind));
        }
    }
}

/// A valid random trace of `rounds` SPMD rounds on `n` ranks: every
/// collective kind, blocking and non-blocking point-to-point on ring
/// pairs, allgathers entered with per-rank skew and one late rank, an
/// early leaver that sends to a ring member, an `Isend` to the right
/// neighbour left unreceived across an allgather, and crowded rounds of
/// large collectives entered together. Rounds repeat with a short
/// period so the runtime issues directives.
fn random_trace(n: u32, seed: u64, rounds: usize) -> Trace {
    let mut rng = DetRng::seed_from_u64(seed);
    let period = 2 + rng.index(4);
    let slots: Vec<(usize, u64, u32)> = (0..period)
        .map(|_| {
            let width = 4 + rng.index(14);
            let bytes = 1 + rng.index(1 << width) as u64;
            (rng.index(14), bytes, rng.index(n as usize) as u32)
        })
        .collect();
    let mut b = TraceBuilder::new("reference", n);
    for r in 0..n {
        let mut rank_rng = DetRng::seed_from_u64(seed ^ (u64::from(r) << 32) ^ 0x0EAC);
        let gaps: Vec<f64> = (0..period)
            .map(|_| rank_rng.uniform_range(1.0, 2_000.0))
            .collect();
        let (right, left) = ((r + 1) % n, (r + n - 1) % n);
        for i in 0..rounds {
            let (kind, bytes, sel) = slots[i % period];
            let skew = if r == sel { 300.0 } else { 0.0 };
            let gap = match kind {
                // Crowded rounds start right after the last collective.
                12 | 13 => rank_rng.uniform_range(0.0, 2.0),
                _ => gaps[i % period] * rank_rng.uniform_range(0.97, 1.03) + skew,
            };
            b.compute(r, SimDuration::from_us_f64(gap));
            let shift = 1 + sel % (n - 1);
            match kind {
                0 => b.op(r, MpiOp::Alltoall { bytes }),
                1 => b.op(r, MpiOp::Allgather { bytes }),
                2 => b.op(r, MpiOp::Bcast { root: sel, bytes }),
                3 => b.op(r, MpiOp::Reduce { root: sel, bytes }),
                4 => b.op(r, MpiOp::Barrier),
                5 => b.op(r, MpiOp::Allreduce { bytes }),
                6 => b.op(
                    r,
                    MpiOp::Sendrecv {
                        to: (r + shift) % n,
                        send_bytes: bytes,
                        from: (r + n - shift) % n,
                        recv_bytes: bytes,
                    },
                ),
                7 => {
                    let a = b.irecv(r, left, bytes);
                    let s = b.isend(r, right, bytes);
                    b.op(
                        r,
                        MpiOp::Allgather {
                            bytes: bytes / 4 + 1,
                        },
                    );
                    b.waitall(r, &[s, a]);
                }
                8 => {
                    b.op(r, MpiOp::Send { to: right, bytes });
                    b.op(r, MpiOp::Recv { from: left, bytes });
                }
                9 => {
                    // Early leaver: `sel` leaves the allgather and sends
                    // to a ring member, which receives after its own.
                    b.op(r, MpiOp::Allgather { bytes });
                    let to = (sel + shift) % n;
                    if r == sel {
                        b.op(r, MpiOp::Send { to, bytes: 64 });
                    }
                    if r == to {
                        b.op(
                            r,
                            MpiOp::Recv {
                                from: sel,
                                bytes: 64,
                            },
                        );
                    }
                    b.op(r, MpiOp::Allgather { bytes: 1 });
                }
                10 => {
                    // An `Isend` left unreceived across the allgather.
                    let s = b.isend(r, right, bytes);
                    b.op(r, MpiOp::Allgather { bytes: 512 });
                    b.op(r, MpiOp::Recv { from: left, bytes });
                    b.op(r, MpiOp::Wait { req: s });
                }
                12 => {
                    // Crowded trees and pairwise exchange: channels
                    // shared by several senders at once.
                    b.op(r, MpiOp::Alltoall { bytes: 1 << 15 });
                    b.op(r, MpiOp::Allreduce { bytes: 1 << 14 });
                    b.op(
                        r,
                        MpiOp::Bcast {
                            root: sel,
                            bytes: 1 << 14,
                        },
                    );
                }
                13 => {
                    b.op(r, MpiOp::Allgather { bytes: 1 << 14 });
                    b.op(r, MpiOp::Alltoall { bytes: 1 << 13 });
                    b.op(
                        r,
                        MpiOp::Reduce {
                            root: sel,
                            bytes: 1 << 15,
                        },
                    );
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

/// Replay `trace` on both engines and require identical results.
fn assert_engines_agree(
    trace: &Trace,
    power: Option<&PowerConfig>,
    params: &SimParams,
    opts: &ReplayOptions,
    scratch: &mut ReplayScratch,
) {
    trace.validate().expect("valid trace");
    let ann = power.map(|cfg| annotate_trace(trace, cfg));
    let engine =
        replay_with_scratch(trace, ann.as_ref(), params, opts, scratch).expect("engine replay");
    let reference = reference_replay(trace, ann.as_ref(), params, opts);
    assert_eq!(
        format!("{engine:?}"),
        format!("{reference:?}"),
        "{} ranks on {} per leaf",
        trace.nprocs,
        params.nodes_per_leaf
    );
}

/// The run's power configuration: none, the paper rung set, or the full
/// sleep ladder.
fn power_config(choice: u8) -> Option<PowerConfig> {
    let paper = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    match choice {
        0 => None,
        1 => Some(paper),
        _ => Some(paper.with_ladder()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random traces on random small fat trees (so small rings cross
    /// leaves), with and without faults and annotations.
    #[test]
    fn engine_matches_reference_on_random_traces(
        n in 2u32..24,
        nodes_per_leaf in 1u32..5,
        spare_leaves in 0u32..2,
        top_count in 1u32..4,
        seed in any::<u64>(),
        rounds in 1usize..24,
        power in 0u8..3,
        fault_rate in 0.0f64..60.0,
        record in any::<bool>(),
    ) {
        let params = SimParams {
            nodes_per_leaf,
            leaf_count: n.div_ceil(nodes_per_leaf) + spare_leaves,
            top_count,
            ..SimParams::paper()
        };
        let opts = ReplayOptions {
            seed: seed.rotate_left(17),
            record_timelines: record,
            // A third of the runs replay a reliable fabric.
            faults: (fault_rate >= 20.0).then(|| FaultConfig::with_rate(seed, fault_rate - 20.0)),
        };
        let trace = random_trace(n, seed, rounds);
        let cfg = power_config(power);
        assert_engines_agree(&trace, cfg.as_ref(), &params, &opts, &mut ReplayScratch::new());
    }
}

/// The paper tree at ring sizes that leave ranks alone on a leaf (19,
/// 37) or fill several leaves, through one recycled scratch.
#[test]
fn engine_matches_reference_on_the_paper_tree() {
    let params = SimParams::paper();
    let mut scratch = ReplayScratch::new();
    for (i, n) in [2u32, 3, 17, 19, 37, 64].into_iter().enumerate() {
        let seed = 0x5EF0 + i as u64;
        let trace = random_trace(n, seed, 10);
        for power in 0..3 {
            let opts = ReplayOptions {
                faults: (power == 2).then(|| FaultConfig::with_rate(seed, 20.0)),
                ..ReplayOptions::default()
            };
            let cfg = power_config(power);
            assert_engines_agree(&trace, cfg.as_ref(), &params, &opts, &mut scratch);
        }
    }
}
