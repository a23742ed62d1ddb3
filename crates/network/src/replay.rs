//! Trace replay — the Dimemas side of the co-simulation.
//!
//! Each rank replays its trace: compute bursts elapse verbatim (scaled by
//! the CPU-speedup parameter), MPI operations are re-simulated against
//! the fabric, and — when annotations from the power-saving runtime are
//! supplied — per-call overheads, reactivation penalties, and lane-off
//! directives are applied, exactly as the paper inserts its new events
//! into the traces before re-simulating.
//!
//! ## Engine
//!
//! A conservative, deterministic scheduler advances one rank at a time,
//! always the one with the smallest local clock (ties broken by rank id),
//! so fabric contention is resolved in near-global time order. A rank
//! blocks when it needs a message that has not been sent yet; the sender
//! wakes it. Sends are eager (the sender is busy only for the injection
//! time), matching Dimemas' default. Traces validated by
//! [`ibp_trace::Trace::validate`] cannot deadlock: every receive has a
//! matching send and request discipline is enforced.
//!
//! The scheduler heap holds one packed `u64` key per runnable rank: the
//! clock in nanoseconds above just enough low bits for the rank id, so
//! one integer compare orders by (clock, rank). A rank that yields at the
//! send gate swaps itself into the heap top's slot and the displaced
//! rank runs next — one sift-down instead of a push and a pop.
//!
//! When the last rank enters a collective whose every send runs on
//! channels private to its sender (a ring allgather on any fat-tree
//! shape), the engine opens a *ring window*: it runs the collective's
//! sends and receives round by round without the gate, up to a lower
//! bound on the first rank's exit, then rebuilds the heap and hands
//! back. Sends on private channels commute, so the results are the
//! gated engine's, byte for byte.
//!
//! ## Memory and data layout
//!
//! All growable engine state lives in a [`ReplayScratch`] arena that is
//! reused across replays, sized by what a replay needs — distinct ops,
//! rank pairs and messages in flight — not by the trace's length. A
//! rank's trace stores each distinct op once, in its interned op table
//! ([`ibp_trace::EventColumns::table`]), and the build pass lowers each
//! table entry once into a flat structure-of-arrays **step stream**
//! (parallel kind/arg/bytes vectors walked by a per-rank cursor); every
//! event points the cursor at its entry's steps. Table entries carry
//! request ids relative to the rank's post counter, so each rank counts
//! its posts and decodes ids where it uses them. A collective is one
//! step naming a memoized schedule keyed by (collective, root, nprocs);
//! the rank walks its segment of that schedule with a sub-cursor, so a
//! sweep decomposes each distinct collective once instead of once per
//! cell.
//!
//! Each (src, dst) pair keeps a FIFO of only the arrivals that have been
//! delivered and not yet consumed, the way an eager MPI buffers
//! unexpected messages per connection. Receives reserve their message
//! number when they run, and parked waiters are per-pair slots (only the
//! destination rank ever receives on a pair, so at most one rank can
//! wait on it). [`replay`] keeps a thread-local scratch; sweeps that
//! replay thousands of cells can pass their own via
//! [`replay_with_scratch`].
//!
//! Per-link *power* accounting is decoupled from the timing loop: sleep
//! windows are resolved (timestamped) on the hot path but buffered, and
//! each link's whole power timeline is advanced in one batched
//! [`LinkPowerTracker::apply_windows`] pass after the run — bit-identical
//! because a window's accounting depends only on its own fields and the
//! floor left by its per-link predecessor.

use crate::collectives::{for_each_micro, MicroOp};
use crate::config::SimParams;
use crate::fabric::Fabric;
use crate::faults::{FaultConfig, FaultPlan, FaultStats};
use crate::power::{LinkPowerTracker, SleepWindow};
use crate::results::SimResult;
use fxhash::FxHashMap;
use ibp_core::{SleepKind, TraceAnnotations};
use ibp_simcore::{SimDuration, SimTime};
use ibp_trace::{MpiOp, Rank, Trace};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::mem::size_of;

/// Replay options.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Seed for routing randomness.
    pub seed: u64,
    /// Record full per-rank link power timelines (costs memory; needed
    /// only for visualisation).
    pub record_timelines: bool,
    /// Optional fault injection (see [`crate::faults`]); `None` replays
    /// a perfectly reliable fabric.
    pub faults: Option<FaultConfig>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            seed: 0x1B,
            record_timelines: false,
            faults: None,
        }
    }
}

/// Why a replay could not run (or could not finish).
///
/// Replay inputs come straight from files and CLI flags, so malformed
/// input must surface as a value, not a panic: the CLI prints these and
/// exits non-zero.
/// `#[non_exhaustive]`: downstream matches must keep a wildcard arm so
/// new error variants don't break them.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplayError {
    /// The trace has no ranks.
    EmptyTrace,
    /// The trace has more ranks than the fat tree has nodes (each rank
    /// gets a node of its own).
    TooManyRanks {
        /// Ranks in the trace.
        nprocs: u32,
        /// Node slots in the fat tree.
        capacity: u32,
    },
    /// The annotation set covers a different number of ranks than the
    /// trace.
    AnnotationRankMismatch {
        /// Ranks in the trace.
        trace: u32,
        /// Ranks in the annotation set.
        annotated: usize,
    },
    /// One rank's annotation arrays do not line up with its call count.
    AnnotationLengthMismatch {
        /// The offending rank.
        rank: usize,
        /// MPI calls in the trace for that rank.
        calls: usize,
        /// Entries in the annotation arrays.
        annotated: usize,
    },
    /// The fault configuration is out of range (probability outside
    /// `[0, 1]`, inverted outage bounds, …).
    InvalidFaultConfig(String),
    /// The trace deadlocked: a rank waits for a message nobody sends.
    /// Traces accepted by `Trace::validate` cannot reach this.
    Deadlock {
        /// First stuck rank.
        rank: usize,
        /// Event index the rank is stuck at.
        event: usize,
        /// How many ranks were parked on missing messages.
        parked: usize,
    },
    /// A rank's clock outgrew the scheduler key. The key packs the clock
    /// (ns) above just enough bits for the rank id, so the clock must
    /// stay at or below `u64::MAX >> rank_bits` — about 2.3 simulated
    /// years on the paper's 252-node fabric.
    ClockOverflow {
        /// The rank whose clock overflowed.
        rank: usize,
        /// Its clock, ns.
        clock_ns: u64,
        /// The largest clock the key holds at this rank count, ns.
        max_ns: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::EmptyTrace => write!(f, "trace has no ranks"),
            ReplayError::TooManyRanks { nprocs, capacity } => write!(
                f,
                "trace has {nprocs} ranks but the fat tree has only \
                 {capacity} nodes"
            ),
            ReplayError::AnnotationRankMismatch { trace, annotated } => write!(
                f,
                "annotation/trace rank mismatch: trace has {trace} ranks, \
                 annotations cover {annotated}"
            ),
            ReplayError::AnnotationLengthMismatch {
                rank,
                calls,
                annotated,
            } => write!(
                f,
                "rank {rank}: annotation length mismatch ({calls} MPI calls \
                 in trace, {annotated} annotated)"
            ),
            ReplayError::InvalidFaultConfig(msg) => {
                write!(f, "invalid fault configuration: {msg}")
            }
            ReplayError::Deadlock {
                rank,
                event,
                parked,
            } => write!(
                f,
                "replay deadlock: rank {rank} stuck at event {event} \
                 ({parked} parked)"
            ),
            ReplayError::ClockOverflow {
                rank,
                clock_ns,
                max_ns,
            } => write!(
                f,
                "rank {rank}: simulated clock {clock_ns} ns exceeds the \
                 scheduler's {max_ns} ns limit at this rank count"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Cost of posting a non-blocking operation (library bookkeeping only).
const POST_OVERHEAD: SimDuration = SimDuration::from_ns(300);

/// Step kinds of the flat step stream (see [`ReplayScratch`]).
///
/// The stream is structure-of-arrays: `step_kind[i]` says how to read the
/// parallel `step_arg` / `step_bytes` slots at `i` (documented per
/// variant), so the hot loop dispatches on a one-byte tag and reads
/// dense arrays instead of matching a trace-event enum per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    /// Blocking send: `arg` = destination rank, `bytes` = payload.
    Send,
    /// Blocking receive: `arg` = pair id.
    Recv,
    /// Non-blocking send post: `arg` = destination, `bytes` = payload
    /// (the relative request id rides on the entry's `OpDone`, the next
    /// step).
    IsendPost,
    /// Non-blocking receive post (consumed at event expansion, never
    /// scheduled): `arg` = pair id, `bytes` = relative request id.
    IrecvPost,
    /// Wait on a posted request: `arg` = relative request id (the
    /// absolute id is the rank's post count minus it).
    WaitReq,
    /// A whole collective: `arg` = index of its memoized schedule,
    /// `bytes` = payload of every message it sends.
    Coll,
    /// Event boundary: advance the event counter, resolve directives.
    /// `arg` = the relative request id when the op is an `Isend`, else 0.
    OpDone,
}

#[derive(Debug, Clone, Copy)]
enum Req {
    Send { done: SimTime },
    Recv { pair: u32, k: u32 },
}

struct RankState {
    t: SimTime,
    ev: usize,
    /// Cursor into the scratch step stream.
    cur: usize,
    /// Posts (`Isend`/`Irecv`) made so far, wrapping: the base that
    /// turns the op table's relative request ids into absolute ones.
    posts: u32,
    /// Sub-cursor into the current `Coll` step's schedule: the next
    /// micro-op of this rank's segment, and the segment's end.
    sub: u32,
    sub_end: u32,
    /// Whether the cursor sits inside an expanded event (between the
    /// event's expansion bookkeeping and its `OpDone`).
    in_event: bool,
    /// Open requests, keyed by absolute id.
    reqs: FxHashMap<u32, Req>,
    next_directive: usize,
    pending_sleep: Option<(SimTime, SimDuration, SleepKind)>,
    power: LinkPowerTracker,
    done: bool,
}

/// What `advance_rank` did with its scheduling quantum.
enum Advance {
    /// The rank yielded at the send gate and took the heap top's slot;
    /// the displaced rank runs next.
    Yield(Rank),
    /// The rank parked on a missing message or finished its trace.
    Blocked,
}

/// "No rank is parked on this pair" sentinel for [`ReplayScratch`].
const NO_WAITER: Rank = Rank::MAX;

/// A delivered message: its arrival time, and whether its receive has
/// consumed it.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    taken: bool,
}

/// One (src, dst) pair's receive state. Messages are numbered in send
/// order; `fifo` holds numbers `head ..` — everything delivered since
/// the oldest message not yet consumed.
#[derive(Debug)]
struct Pair {
    /// Delivered arrivals from number `head` on, oldest first. A
    /// `Waitall` may consume them out of order; the front is dropped
    /// once consumed.
    fifo: VecDeque<Arrival>,
    /// Number of `fifo`'s front: every earlier message is consumed.
    head: u32,
    /// The next message number a receive reserves.
    recv_next: u32,
    /// Rank parked on this pair ([`NO_WAITER`] when none).
    waiter: Rank,
    /// Which message number the parked rank waits for.
    waiter_k: u32,
}

impl Default for Pair {
    fn default() -> Self {
        Pair {
            fifo: VecDeque::new(),
            head: 0,
            recv_next: 0,
            waiter: NO_WAITER,
            waiter_k: 0,
        }
    }
}

impl Pair {
    /// Messages sent on the pair so far.
    fn sent(&self) -> u32 {
        self.head + self.fifo.len() as u32
    }
}

/// Memoization key of a collective schedule: (collective id, root,
/// nprocs). The payload is not part of it — a schedule's structure does
/// not depend on the bytes moved. A barrier shares the allreduce entry:
/// it *is* a 1-byte allreduce (reduce + broadcast over the same trees).
type SchedKey = (u8, Rank, u32);

const K_ALLREDUCE: u8 = 1;
const K_BCAST: u8 = 2;
const K_REDUCE: u8 = 3;
const K_ALLGATHER: u8 = 4;
const K_ALLTOALL: u8 = 5;

/// Cache key and payload bytes of `op`, or `None` for point-to-point /
/// request ops (which never go through the schedule cache).
fn sched_key(op: &MpiOp, nprocs: u32) -> Option<(SchedKey, u64)> {
    Some(match *op {
        MpiOp::Barrier => ((K_ALLREDUCE, 0, nprocs), 1),
        MpiOp::Allreduce { bytes } => ((K_ALLREDUCE, 0, nprocs), bytes),
        MpiOp::Bcast { root, bytes } => ((K_BCAST, root, nprocs), bytes),
        MpiOp::Reduce { root, bytes } => ((K_REDUCE, root, nprocs), bytes),
        MpiOp::Allgather { bytes } => ((K_ALLGATHER, 0, nprocs), bytes),
        MpiOp::Alltoall { bytes } => ((K_ALLTOALL, 0, nprocs), bytes),
        _ => return None,
    })
}

/// Direction flag of a packed schedule micro-op (set = send).
const SEND_BIT: u32 = 1 << 31;

/// A memoized collective schedule: every rank's micro-ops, one packed
/// word each — the peer rank, with [`SEND_BIT`] set for a send. Payload
/// size is not stored: every micro-op of one collective event carries the
/// event's bytes, which ride on its `Coll` step.
#[derive(Debug)]
struct CollSched {
    /// Exclusive per-rank offsets into `ops` (`nprocs + 1`).
    rank_base: Vec<u32>,
    /// Packed micro-ops, rank-major, in execution order.
    ops: Vec<u32>,
}

impl CollSched {
    /// A placeholder that holds no memory.
    const EMPTY: CollSched = CollSched {
        rank_base: Vec::new(),
        ops: Vec::new(),
    };
}

fn build_sched(op: &MpiOp, nprocs: u32) -> CollSched {
    let mut sched = CollSched {
        rank_base: Vec::with_capacity(nprocs as usize + 1),
        ops: Vec::new(),
    };
    sched.rank_base.push(0);
    for me in 0..nprocs {
        for_each_micro(op, me, nprocs, &mut |m| match m {
            MicroOp::SendTo { to, .. } => sched.ops.push(SEND_BIT | to),
            MicroOp::RecvFrom { from, .. } => sched.ops.push(from),
        });
        sched.rank_base.push(sched.ops.len() as u32);
    }
    sched
}

/// Whether every send of `sched` runs on channels no other sender of it
/// uses, when its `nprocs` ranks sit `nodes_per_leaf` to a leaf (rank
/// `r` on node `r`, as [`crate::topology::FatTree`] places them): every
/// destination receives from one source only (its host downlink and its
/// pair), and every leaf has at most one cross-leaf sender (its leaf→top
/// channels) and at most one cross-leaf receiver (its top→leaf
/// channels). `claims` is reusable scratch.
fn channel_private(
    sched: &CollSched,
    nprocs: u32,
    nodes_per_leaf: u32,
    claims: &mut Vec<u32>,
) -> bool {
    const FREE: u32 = u32::MAX;
    let n = nprocs as usize;
    let leaves = nprocs.div_ceil(nodes_per_leaf) as usize;
    claims.clear();
    claims.resize(n + 2 * leaves, FREE);
    // Claim `slot` for `owner`: it must be free or `owner`'s already.
    let mut claim = |slot: usize, owner: u32| {
        let held = &mut claims[slot];
        let ok = *held == FREE || *held == owner;
        *held = owner;
        ok
    };
    for src in 0..nprocs {
        let segment = sched.rank_base[src as usize]..sched.rank_base[src as usize + 1];
        for &micro in &sched.ops[segment.start as usize..segment.end as usize] {
            if micro & SEND_BIT == 0 {
                continue;
            }
            let dst = micro & !SEND_BIT;
            let (from_leaf, to_leaf) = (src / nodes_per_leaf, dst / nodes_per_leaf);
            let private = claim(dst as usize, src)
                && (from_leaf == to_leaf
                    || claim(n + from_leaf as usize, src)
                        && claim(n + leaves + to_leaf as usize, dst));
            if !private {
                return false;
            }
        }
    }
    true
}

/// One rank's state inside a ring window, copied out of its
/// `RankState` while the window runs.
#[derive(Debug, Clone, Copy)]
struct WindowRank {
    t: SimTime,
    /// The rank's next micro-op and its segment's end.
    sub: u32,
    end: u32,
    /// Sends left in the rank's segment.
    sends_left: u64,
    /// Payload of every message of the rank's collective.
    bytes: u64,
    /// The least a send adds to the rank's clock, ns: the MPI latency
    /// plus the payload's serialization.
    cost: u64,
}

/// Entry bound on the schedule cache — far above what any sweep produces
/// (distinct (collective, root, nprocs) combinations), a guard against
/// unbounded growth under pathological root diversity.
const SCHED_CACHE_CAP: usize = 4096;

/// Reusable buffers for the replay engine.
///
/// A replay's growable state — the SoA step stream, the per-pair
/// arrival FIFOs, receive cursors and parked waiters, buffered sleep
/// windows, the memoized collective-schedule cache and the scheduler
/// heap — lives here so that back-to-back replays (parameter sweeps run
/// thousands) recycle the allocations instead of rebuilding `nprocs²`
/// vectors every call. [`replay`] keeps one per thread automatically;
/// hand a scratch to [`replay_with_scratch`] to control reuse
/// explicitly.
///
/// Its size follows the replay's needs, not the trace's length. The
/// step stream holds each rank's op *table* lowered once — entry `j` of
/// rank `r` starts at `entry_step[rank_entry_base[r] + j]` and ends with
/// its `OpDone` — so it is as long as the distinct ops, however many
/// events repeat them. A pair's FIFO holds only the messages delivered
/// and not yet consumed. Only the sleep-window buffers grow with the
/// run (one record per window of a managed replay). Steady-state
/// replay therefore never reallocates or rehashes; see
/// [`heap_bytes`](Self::heap_bytes).
#[derive(Debug, Default)]
pub struct ReplayScratch {
    /// Per (src, dst) pair, `src * nprocs + dst`: arrivals in flight,
    /// receive cursor and parked waiter.
    pairs: Vec<Pair>,
    /// Runnable ranks as packed (clock, rank) keys — min first.
    heap: BinaryHeap<Reverse<u64>>,
    /// Step stream: kind tags (see [`StepKind`] for slot meanings).
    step_kind: Vec<StepKind>,
    /// Step stream: peer rank / pair id / request id / schedule index.
    step_arg: Vec<u32>,
    /// Step stream: payload bytes (request id for `IrecvPost`).
    step_bytes: Vec<u64>,
    /// First step of every rank's op-table entries, rank-major.
    entry_step: Vec<usize>,
    /// Per rank, where its entries start in `entry_step`.
    rank_entry_base: Vec<usize>,
    /// Resolved sleep windows per rank, buffered during the timing run
    /// and applied in one batched power pass afterwards.
    windows: Vec<Vec<SleepWindow>>,
    /// Memoized collective schedules, kept across `prepare` calls so a
    /// sweep decomposes each distinct collective once, not once per cell;
    /// `Coll` steps index into `scheds` through `sched_index`.
    scheds: Vec<CollSched>,
    sched_index: FxHashMap<SchedKey, u32>,
    /// Per schedule, how many ranks are inside one of its segments now.
    coll_inside: Vec<u32>,
    /// Per schedule, whether it is channel-private on this replay's
    /// fat-tree shape; worked out on first need, reset by `prepare`
    /// (the answer depends on `nodes_per_leaf`, not on the cache key).
    sched_private: Vec<Option<bool>>,
    /// Slot owners for [`channel_private`].
    claims: Vec<u32>,
    /// Every rank's place in the current ring window.
    window: Vec<WindowRank>,
    /// Messages sent inside ring windows during the last replay.
    window_messages: u64,
}

impl ReplayScratch {
    /// An empty scratch; arenas are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Messages the last replay sent inside ring windows (DESIGN.md
    /// §16), out of its `fabric.messages`.
    #[must_use]
    pub fn window_messages(&self) -> u64 {
        self.window_messages
    }

    /// Heap bytes held, by capacity: the step stream, the pair table with
    /// every pair's FIFO, the scheduler heap, the buffered sleep windows
    /// and the schedule cache (its index's buckets estimated the way the
    /// standard hash map sizes them).
    pub fn heap_bytes(&self) -> usize {
        let fifos: usize = self
            .pairs
            .iter()
            .map(|p| p.fifo.capacity() * size_of::<Arrival>())
            .sum();
        let windows: usize = self
            .windows
            .iter()
            .map(|w| w.capacity() * size_of::<SleepWindow>())
            .sum();
        let scheds: usize = self
            .scheds
            .iter()
            .map(|c| (c.rank_base.capacity() + c.ops.capacity()) * size_of::<u32>())
            .sum();
        let cap = self.sched_index.capacity();
        let buckets = match cap {
            0 => 0,
            1..=7 => cap + 1,
            _ => cap / 7 * 8,
        };
        self.pairs.capacity() * size_of::<Pair>()
            + fifos
            + self.heap.capacity() * size_of::<Reverse<u64>>()
            + self.step_kind.capacity() * size_of::<StepKind>()
            + self.step_arg.capacity() * size_of::<u32>()
            + self.step_bytes.capacity() * size_of::<u64>()
            + (self.entry_step.capacity() + self.rank_entry_base.capacity()) * size_of::<usize>()
            + self.windows.capacity() * size_of::<Vec<SleepWindow>>()
            + windows
            + self.scheds.capacity() * size_of::<CollSched>()
            + scheds
            + buckets * (size_of::<(SchedKey, u32)>() + 1)
            + (self.coll_inside.capacity() + self.claims.capacity()) * size_of::<u32>()
            + self.sched_private.capacity() * size_of::<Option<bool>>()
            + self.window.capacity() * size_of::<WindowRank>()
    }

    /// Reset per-run state and lower every rank's op table into the step
    /// stream. Costs O(table entries + pairs), independent of how many
    /// events the trace holds.
    fn prepare(&mut self, trace: &Trace) {
        let nprocs = trace.nprocs;
        let pairs = (nprocs as usize) * (nprocs as usize);
        self.pairs.truncate(pairs);
        for pair in &mut self.pairs {
            pair.fifo.clear();
            pair.head = 0;
            pair.recv_next = 0;
            pair.waiter = NO_WAITER;
        }
        self.pairs.resize_with(pairs, Pair::default);
        self.heap.clear();
        self.step_kind.clear();
        self.step_arg.clear();
        self.step_bytes.clear();
        self.entry_step.clear();
        self.rank_entry_base.clear();
        self.windows.truncate(nprocs as usize);
        self.windows.resize_with(nprocs as usize, Vec::new);
        for w in &mut self.windows {
            w.clear();
        }
        if self.scheds.len() > SCHED_CACHE_CAP {
            self.scheds.clear();
            self.sched_index.clear();
        }

        for (r, rank_trace) in trace.ranks.iter().enumerate() {
            self.rank_entry_base.push(self.entry_step.len());
            for op in rank_trace.events.table() {
                self.entry_step.push(self.step_kind.len());
                self.lower(op, r as Rank, nprocs);
            }
        }
        self.coll_inside.clear();
        self.coll_inside.resize(self.scheds.len(), 0);
        self.sched_private.clear();
        self.sched_private.resize(self.scheds.len(), None);
        self.window_messages = 0;
    }

    /// Append the steps of rank `r`'s table entry `op`, ending with its
    /// `OpDone`. Request ids stay relative, as the table stores them.
    fn lower(&mut self, op: &MpiOp, r: Rank, nprocs: u32) {
        let mut isend_req = 0;
        match *op {
            MpiOp::Send { to, bytes } => self.step(StepKind::Send, to, bytes),
            MpiOp::Recv { from, .. } => self.step(StepKind::Recv, from * nprocs + r, 0),
            MpiOp::Sendrecv {
                to,
                send_bytes,
                from,
                ..
            } => {
                self.step(StepKind::Send, to, send_bytes);
                self.step(StepKind::Recv, from * nprocs + r, 0);
            }
            MpiOp::Isend { to, bytes, req } => {
                self.step(StepKind::IsendPost, to, bytes);
                isend_req = req;
            }
            MpiOp::Irecv { from, req, .. } => {
                self.step(StepKind::IrecvPost, from * nprocs + r, u64::from(req));
            }
            MpiOp::Wait { req } => self.step(StepKind::WaitReq, req, 0),
            MpiOp::Waitall { ref reqs } => {
                for &req in reqs {
                    self.step(StepKind::WaitReq, req, 0);
                }
            }
            _ => {
                let (key, bytes) =
                    sched_key(op, nprocs).expect("point-to-point ops are handled above");
                let idx = match self.sched_index.get(&key) {
                    Some(&idx) => idx,
                    None => {
                        let idx = self.scheds.len() as u32;
                        self.scheds.push(build_sched(op, nprocs));
                        self.sched_index.insert(key, idx);
                        idx
                    }
                };
                self.step(StepKind::Coll, idx, bytes);
            }
        }
        self.step(StepKind::OpDone, isend_req, 0);
    }

    /// Append one step to the stream.
    #[inline]
    fn step(&mut self, kind: StepKind, arg: u32, bytes: u64) {
        self.step_kind.push(kind);
        self.step_arg.push(arg);
        self.step_bytes.push(bytes);
    }
}

/// The replay engine.
struct Replay<'a> {
    trace: &'a Trace,
    ann: Option<&'a TraceAnnotations>,
    params: SimParams,
    fabric: Fabric,
    ranks: Vec<RankState>,
    /// Arenas (step stream, pairs, heap), prepared for this trace and
    /// recycled across replays.
    scratch: &'a mut ReplayScratch,
    /// Low bits of a scheduler key that hold the rank id: just enough
    /// for `nprocs` (8 on the paper's 252-node fabric).
    rank_bits: u32,
    /// The largest clock (ns) a key holds: `u64::MAX >> rank_bits`.
    max_clock: u64,
    /// How many ranks are parked on missing messages.
    parked: usize,
    /// Fault drawing plan (None on a reliable fabric).
    faults: Option<FaultPlan>,
    /// Aggregate fault accounting.
    fault_stats: FaultStats,
    /// The longest flap outage a send can draw (zero without flaps).
    flap_max: SimDuration,
    /// The latest arrival of the run so far: no channel is busy past it.
    last_arrival: SimTime,
    /// The last key the send gate admitted (checked in debug builds).
    gate_key: u64,
}

/// What entering the next event of a rank led to.
enum Entered {
    /// The rank's trace is exhausted; it is finished.
    Finished,
    /// The rank is inside an event.
    Event,
    /// The rank entered a segment of collective schedule `s`, and every
    /// rank is now inside one of that schedule's segments.
    AllInside(usize),
}

/// Replay `trace` through the modelled network. Supplying `ann` turns on
/// the power-saving mechanism's effects (overheads, penalties, lane-off
/// windows); `None` replays the unmodified, power-unaware baseline.
///
/// Engine buffers come from a per-thread [`ReplayScratch`], so repeated
/// calls on one thread reuse their allocations; see
/// [`replay_with_scratch`] to manage the scratch yourself.
pub fn replay(
    trace: &Trace,
    ann: Option<&TraceAnnotations>,
    params: &SimParams,
    opts: &ReplayOptions,
) -> Result<SimResult, ReplayError> {
    thread_local! {
        static SCRATCH: RefCell<ReplayScratch> = RefCell::new(ReplayScratch::new());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => replay_with_scratch(trace, ann, params, opts, &mut scratch),
        // Re-entrant call (replay invoked from inside a replay-owned
        // callback on this thread): fall back to a throwaway scratch.
        Err(_) => replay_with_scratch(trace, ann, params, opts, &mut ReplayScratch::new()),
    })
}

/// [`replay`] with an explicitly managed buffer arena. The scratch is
/// resized for `trace` and left ready for the next call; results are
/// identical whether the scratch is fresh or recycled.
pub fn replay_with_scratch(
    trace: &Trace,
    ann: Option<&TraceAnnotations>,
    params: &SimParams,
    opts: &ReplayOptions,
    scratch: &mut ReplayScratch,
) -> Result<SimResult, ReplayError> {
    let n = trace.nprocs;
    if n < 1 {
        return Err(ReplayError::EmptyTrace);
    }
    if n > params.node_capacity() {
        return Err(ReplayError::TooManyRanks {
            nprocs: n,
            capacity: params.node_capacity(),
        });
    }
    if let Some(a) = ann {
        if a.ranks.len() != n as usize {
            return Err(ReplayError::AnnotationRankMismatch {
                trace: n,
                annotated: a.ranks.len(),
            });
        }
        for (r, ra) in a.ranks.iter().enumerate() {
            let calls = trace.ranks[r].call_count();
            if ra.overhead.len() != calls {
                return Err(ReplayError::AnnotationLengthMismatch {
                    rank: r,
                    calls,
                    annotated: ra.overhead.len(),
                });
            }
        }
    }
    let faults = match &opts.faults {
        Some(cfg) => {
            cfg.validate().map_err(ReplayError::InvalidFaultConfig)?;
            (!cfg.is_quiet()).then(|| FaultPlan::new(cfg, n))
        }
        None => None,
    };
    let flap_max = match &opts.faults {
        Some(cfg) if cfg.flap_prob > 0.0 => cfg.flap_outage_max,
        _ => SimDuration::ZERO,
    };

    scratch.prepare(trace);
    let ranks = (0..n)
        .map(|_| RankState {
            t: SimTime::ZERO,
            ev: 0,
            cur: 0,
            posts: 0,
            sub: 0,
            sub_end: 0,
            in_event: false,
            reqs: FxHashMap::default(),
            next_directive: 0,
            pending_sleep: None,
            power: LinkPowerTracker::new(opts.record_timelines),
            done: false,
        })
        .collect();
    let rank_bits = u32::BITS - (n - 1).leading_zeros();
    let mut engine = Replay {
        trace,
        ann,
        params: params.clone(),
        fabric: Fabric::new(params.clone(), n, opts.seed),
        ranks,
        scratch,
        rank_bits,
        max_clock: u64::MAX >> rank_bits,
        parked: 0,
        faults,
        fault_stats: FaultStats::default(),
        flap_max,
        last_arrival: SimTime::ZERO,
        gate_key: 0,
    };

    // Every rank starts runnable at clock zero: its key is its id.
    engine
        .scratch
        .heap
        .extend((0..n).map(|r| Reverse(u64::from(r))));
    engine.run()?;

    // Batched power pass: the timing loop only buffered each link's
    // resolved sleep windows; advance every link's power timeline in one
    // slice call now that the run is over.
    for (state, windows) in engine.ranks.iter_mut().zip(engine.scratch.windows.iter()) {
        state.power.apply_windows(&engine.params, windows);
    }

    let exec = engine
        .ranks
        .iter()
        .map(|s| s.t)
        .max()
        .unwrap_or(SimTime::ZERO);
    let exec_time = exec.since(SimTime::ZERO);
    // Accounting invariant: no host link sleeps or switches for longer
    // than the run lasts, so its full-power residency is never negative.
    for (r, s) in engine.ranks.iter().enumerate() {
        let asleep = s.power.sleep_time.iter().copied().sum::<SimDuration>();
        debug_assert!(
            asleep + s.power.transition_time <= exec_time,
            "link {r}: {asleep} asleep + {} in transition exceeds the {exec_time} run",
            s.power.transition_time
        );
    }
    Ok(SimResult {
        exec_time,
        rank_finish: engine.ranks.iter().map(|s| s.t).collect(),
        link_sleep: engine.ranks.iter().map(|s| s.power.sleep_time).collect(),
        link_transition: engine
            .ranks
            .iter()
            .map(|s| s.power.transition_time)
            .collect(),
        link_sleeps: engine.ranks.iter().map(|s| s.power.sleeps).collect(),
        timelines: opts.record_timelines.then(|| {
            engine
                .ranks
                .iter()
                .map(|s| s.power.timeline.clone().expect("recording enabled"))
                .collect()
        }),
        fabric: engine.fabric.stats(),
        sleep_power_fraction: SleepKind::ALL.map(|kind| params.draw_of(kind)),
        faults: engine.fault_stats,
    })
}

impl<'a> Replay<'a> {
    /// The scheduler key of rank `r` at clock `t`: the clock above
    /// `rank_bits` bits of rank id, so one compare orders by (clock,
    /// rank). A clock the key cannot hold is an error, never a silent
    /// misorder.
    #[inline]
    fn key(&self, t: SimTime, r: Rank) -> Result<u64, ReplayError> {
        let ns = t.as_ns();
        if ns > self.max_clock {
            return Err(ReplayError::ClockOverflow {
                rank: r as usize,
                clock_ns: ns,
                max_ns: self.max_clock,
            });
        }
        Ok((ns << self.rank_bits) | u64::from(r))
    }

    /// The rank a scheduler key belongs to.
    #[inline]
    fn rank_of(&self, key: u64) -> Rank {
        (key & ((1u64 << self.rank_bits) - 1)) as Rank
    }

    /// Pop the earliest runnable rank.
    fn pop_rank(&mut self) -> Option<Rank> {
        let Reverse(key) = self.scratch.heap.pop()?;
        Some(self.rank_of(key))
    }

    fn run(&mut self) -> Result<(), ReplayError> {
        let mut next = self.pop_rank();
        while let Some(r) = next {
            next = match self.advance_rank(r)? {
                Advance::Yield(w) => Some(w),
                Advance::Blocked => self.pop_rank(),
            };
        }
        if let Some((r, s)) = self.ranks.iter().enumerate().find(|(_, s)| !s.done) {
            return Err(ReplayError::Deadlock {
                rank: r,
                event: s.ev,
                parked: self.parked,
            });
        }
        Ok(())
    }

    /// The send gate: if another runnable rank is earlier than `r`, `r`
    /// takes its place at the heap top and the displaced rank is returned
    /// to run next. The top is smaller than `r`'s key by construction, so
    /// the swap costs one sift-down where a push and a pop cost two.
    #[inline]
    fn yield_to_earlier(&mut self, r: Rank) -> Result<Option<Rank>, ReplayError> {
        let Some(&Reverse(top)) = self.scratch.heap.peek() else {
            self.check_gate_order(r);
            return Ok(None);
        };
        let key = self.key(self.ranks[r as usize].t, r)?;
        if top > key {
            self.check_gate_order(r);
            return Ok(None);
        }
        if let Some(mut slot) = self.scratch.heap.peek_mut() {
            *slot = Reverse(key);
        }
        Ok(Some(self.rank_of(top)))
    }

    /// Debug builds: the gate admits sends in non-decreasing key order
    /// (ring windows send below the gate, never past a later gate key).
    #[inline]
    fn check_gate_order(&mut self, r: Rank) {
        if cfg!(debug_assertions) {
            if let Ok(key) = self.key(self.ranks[r as usize].t, r) {
                debug_assert!(
                    key >= self.gate_key,
                    "rank {r} sends at key {key} after key {}",
                    self.gate_key
                );
                self.gate_key = key;
            }
        }
    }

    /// Advance rank `r` as far as it can go in one scheduling quantum:
    /// until it parks, finishes, or is preempted before a fabric send.
    ///
    /// Only *fabric-mutating* steps (sends, including a collective's) are
    /// gated on the rank's clock being minimal among runnable ranks —
    /// channel occupancy, pair sequence numbers and contention stats
    /// depend on the global order of `Fabric::transfer` calls. Everything
    /// else commutes with other ranks and runs eagerly without a heap
    /// round trip: event expansion, compute, sleep-window buffering and
    /// directive resolution are rank-local (misfire draws come from the
    /// rank's own per-link fault stream, so their order per link is the
    /// rank's program order either way), and arrival reads (receives and
    /// waits) are order-independent — a delivered arrival time never
    /// changes, and reading "too early" just parks the rank until the
    /// sender wakes it at the exact same clock.
    fn advance_rank(&mut self, r: Rank) -> Result<Advance, ReplayError> {
        let ri = r as usize;
        loop {
            if !self.ranks[ri].in_event {
                match self.expand_next_event(r) {
                    Entered::Finished => return Ok(Advance::Blocked),
                    Entered::AllInside(s) if self.ring_window(s)? => {
                        // Every rank is back on the heap or parked.
                        return Ok(Advance::Blocked);
                    }
                    _ => {}
                }
                continue;
            }
            let cur = self.ranks[ri].cur;
            let arg = self.scratch.step_arg[cur];
            match self.scratch.step_kind[cur] {
                StepKind::Send => {
                    if let Some(w) = self.yield_to_earlier(r)? {
                        return Ok(Advance::Yield(w));
                    }
                    let t = self.ranks[ri].t;
                    self.ranks[ri].t = self.send(r, arg, t, self.scratch.step_bytes[cur])?;
                    self.ranks[ri].cur = cur + 1;
                }
                StepKind::IsendPost => {
                    if let Some(w) = self.yield_to_earlier(r)? {
                        return Ok(Advance::Yield(w));
                    }
                    let t = self.ranks[ri].t;
                    let done = self.send(r, arg, t, self.scratch.step_bytes[cur])?;
                    debug_assert_eq!(self.scratch.step_kind[cur + 1], StepKind::OpDone);
                    let rel = self.scratch.step_arg[cur + 1];
                    let state = &mut self.ranks[ri];
                    state
                        .reqs
                        .insert(rel.wrapping_add(state.posts), Req::Send { done });
                    state.posts = state.posts.wrapping_add(1);
                    state.t += POST_OVERHEAD;
                    state.cur = cur + 1;
                }
                StepKind::Recv => {
                    if !self.recv(r, arg) {
                        return Ok(Advance::Blocked);
                    }
                    self.ranks[ri].cur = cur + 1;
                }
                StepKind::Coll => {
                    if let Some(advance) = self.advance_coll(r, cur)? {
                        return Ok(advance);
                    }
                    self.ranks[ri].cur = cur + 1;
                }
                StepKind::WaitReq => {
                    let req = self.ranks[ri].posts.wrapping_sub(arg);
                    let handle = *self.ranks[ri]
                        .reqs
                        .get(&req)
                        .expect("wait on unknown request (trace validated?)");
                    let at = match handle {
                        Req::Send { done } => done,
                        Req::Recv { pair, k } => match self.take_arrival(pair, k) {
                            Some(at) => at,
                            None => {
                                self.park(r, pair, k);
                                return Ok(Advance::Blocked);
                            }
                        },
                    };
                    let state = &mut self.ranks[ri];
                    state.reqs.remove(&req);
                    state.t = state.t.max(at);
                    state.cur = cur + 1;
                }
                StepKind::IrecvPost => unreachable!("IrecvPost is consumed at event expansion"),
                StepKind::OpDone => self.finish_event(ri),
            }
        }
    }

    /// Walk rank `r`'s segment of the collective at step `cur` from its
    /// sub-cursor: sends pass the same gate as point-to-point sends,
    /// receives reserve arrivals like `Recv`. Returns `None` once the
    /// segment is done, or how the quantum ended if the rank yields or
    /// parks mid-collective (the sub-cursor keeps its place).
    fn advance_coll(&mut self, r: Rank, cur: usize) -> Result<Option<Advance>, ReplayError> {
        let ri = r as usize;
        let sched = self.scratch.step_arg[cur] as usize;
        let bytes = self.scratch.step_bytes[cur];
        let (mut i, end) = (self.ranks[ri].sub, self.ranks[ri].sub_end);
        while i < end {
            let micro = self.scratch.scheds[sched].ops[i as usize];
            let peer = micro & !SEND_BIT;
            let stop = if micro & SEND_BIT != 0 {
                match self.yield_to_earlier(r)? {
                    Some(w) => Some(Advance::Yield(w)),
                    None => {
                        let t = self.ranks[ri].t;
                        self.ranks[ri].t = self.send(r, peer, t, bytes)?;
                        None
                    }
                }
            } else {
                (!self.recv(r, peer * self.trace.nprocs + r)).then_some(Advance::Blocked)
            };
            if stop.is_some() {
                self.ranks[ri].sub = i;
                return Ok(stop);
            }
            i += 1;
        }
        self.scratch.coll_inside[sched] -= 1;
        Ok(None)
    }

    /// A ring window over schedule `s`, which every rank has just
    /// entered (DESIGN.md §16). While all ranks are inside a
    /// channel-private schedule, no fabric write but its own sends can
    /// happen until a rank leaves its segment, and each of those sends
    /// touches channels only its sender uses, so sends of different
    /// ranks commute. The window therefore sweeps the ranks' micro-ops
    /// round by round without the gate, sending only below `L`: the
    /// least clock at which any rank can finish its segment (its clock
    /// plus one latency and serialization per send it has left). A rank
    /// never runs its last micro-op here, and the window opens only if
    /// no clock it can reach outgrows the scheduler key. Afterwards the
    /// heap and the parked waiters are rebuilt from the ranks' state.
    ///
    /// Returns `false`, having changed nothing, when `s` is not
    /// channel-private or the key could overflow.
    fn ring_window(&mut self, s: usize) -> Result<bool, ReplayError> {
        let n = self.trace.nprocs;
        let scratch = &mut *self.scratch;
        let private = *scratch.sched_private[s].get_or_insert_with(|| {
            channel_private(
                &scratch.scheds[s],
                n,
                self.params.nodes_per_leaf,
                &mut scratch.claims,
            )
        });
        if !private || scratch.scheds[s].ops.is_empty() {
            return Ok(false);
        }
        self.check_window(s);

        // Each send can raise the latest clock or arrival by at most
        // `step`: a flap, the latency, four hops and a degraded (4x)
        // serialization.
        let scratch = &mut *self.scratch;
        let sched = &scratch.scheds[s];
        let lat = self.params.mpi_latency.as_ns();
        let (mut latest, mut total_sends, mut serial_max) = (self.last_arrival.as_ns(), 0u64, 0);
        scratch.window.clear();
        for st in &self.ranks {
            let bytes = scratch.step_bytes[st.cur];
            let serial = self.params.serialize(bytes).as_ns();
            let segment = &sched.ops[st.sub as usize..st.sub_end as usize];
            let sends = segment
                .iter()
                .filter(|&&micro| micro & SEND_BIT != 0)
                .count() as u64;
            scratch.window.push(WindowRank {
                t: st.t,
                sub: st.sub,
                end: st.sub_end,
                sends_left: sends,
                bytes,
                cost: lat + serial,
            });
            serial_max = serial_max.max(serial);
            total_sends += sends;
            latest = latest.max(st.t.as_ns());
        }
        let step =
            self.flap_max.as_ns() + lat + 4 * self.params.hop_latency.as_ns() + 4 * serial_max;
        if latest.saturating_add(total_sends.saturating_mul(step)) > self.max_clock {
            return Ok(false);
        }

        // Take every rank off the heap and out of its parked slot.
        scratch.heap.clear();
        for (r, st) in self.ranks.iter().enumerate() {
            let micro = sched.ops[st.sub as usize];
            if micro & SEND_BIT == 0 {
                let pair = &mut scratch.pairs[(micro * n) as usize + r];
                if pair.waiter as usize == r {
                    pair.waiter = NO_WAITER;
                }
            }
        }
        self.parked = 0;

        // Sweep with the schedule and the window ranks out of the
        // scratch, and put them back whatever the outcome. Borrowing the
        // schedule from the scratch on every micro-op instead costs 44
        // rather than 24 ns per message on a 128-rank ring.
        let sched = std::mem::replace(&mut self.scratch.scheds[s], CollSched::EMPTY);
        let mut window = std::mem::take(&mut self.scratch.window);
        let swept = self.sweep(&sched, &mut window);
        self.scratch.scheds[s] = sched;
        for (st, w) in self.ranks.iter_mut().zip(&window) {
            st.t = w.t;
            st.sub = w.sub;
        }
        self.scratch.window = window;
        swept?;

        let mut heap = std::mem::take(&mut self.scratch.heap).into_vec();
        for r in 0..n {
            let st = &self.ranks[r as usize];
            let micro = self.scratch.scheds[s].ops[st.sub as usize];
            if micro & SEND_BIT == 0 {
                let pair = micro * n + r;
                let k = self.scratch.pairs[pair as usize].recv_next;
                if k >= self.scratch.pairs[pair as usize].sent() {
                    self.park(r, pair, k);
                    continue;
                }
            }
            heap.push(Reverse(self.key(st.t, r)?));
        }
        self.scratch.heap = BinaryHeap::from(heap);
        Ok(true)
    }

    /// The ring window's rounds over `sched`: each rank in turn runs
    /// micro-ops while it can — receives whose messages have arrived and
    /// at most one send, below the bound `L` — short of its segment's
    /// last one. One send per rank and round keeps a ring pair's backlog
    /// at two messages, where letting each rank run on would leave
    /// `k + 1` on the pair out of rank `k`. `L` only grows as ranks
    /// advance, so it is recomputed when a round under the old value
    /// stalls, and the window ends when that does not raise it.
    fn sweep(&mut self, sched: &CollSched, window: &mut [WindowRank]) -> Result<(), ReplayError> {
        let n = self.trace.nprocs;
        let bound_of = |window: &[WindowRank]| {
            window
                .iter()
                .map(|w| w.t.as_ns() + w.sends_left * w.cost)
                .min()
                .unwrap_or(0)
        };
        let mut bound = bound_of(window);
        loop {
            debug_assert!(bound <= bound_of(window), "window bound fell");
            let mut progress = false;
            for (r, w) in (0..n).zip(window.iter_mut()) {
                let mut sent = false;
                while w.sub + 1 < w.end {
                    let micro = sched.ops[w.sub as usize];
                    let peer = micro & !SEND_BIT;
                    if micro & SEND_BIT != 0 {
                        if sent || w.t.as_ns() >= bound {
                            break;
                        }
                        sent = true;
                        w.t = self.send(r, peer, w.t, w.bytes)?;
                        w.sends_left -= 1;
                        self.scratch.window_messages += 1;
                    } else {
                        let Some(at) = self.take_next(peer * n + r) else {
                            break;
                        };
                        w.t = w.t.max(at);
                    }
                    w.sub += 1;
                    progress = true;
                }
            }
            if !progress {
                let raised = bound_of(window);
                if raised == bound {
                    return Ok(());
                }
                bound = raised;
            }
        }
    }

    /// Debug builds: a ring window opens only while every rank sits in a
    /// segment of the one channel-private schedule `s`, none parked on
    /// anything else.
    fn check_window(&self, s: usize) {
        if cfg!(debug_assertions) {
            debug_assert_eq!(self.scratch.sched_private[s], Some(true));
            for (r, st) in self.ranks.iter().enumerate() {
                debug_assert!(st.in_event && st.sub < st.sub_end, "rank {r} left");
                debug_assert_eq!(self.scratch.step_kind[st.cur], StepKind::Coll);
                debug_assert_eq!(self.scratch.step_arg[st.cur] as usize, s, "rank {r}");
            }
        }
    }

    /// Enter the next trace event of rank `r`: apply compute, overhead,
    /// penalty and sleep resolution, and point the cursor at the steps
    /// of the event's op-table entry.
    fn expand_next_event(&mut self, r: Rank) -> Entered {
        let ri = r as usize;
        let ev = self.ranks[ri].ev;
        let events = &self.trace.ranks[ri].events;
        let compute = events.compute();
        if ev >= compute.len() {
            // Trailing compute, final sleep resolution, done.
            let misfire = self.ranks[ri].pending_sleep.is_some()
                && self
                    .faults
                    .as_mut()
                    .is_some_and(|plan| plan.wake_misfires_at(ri));
            let state = &mut self.ranks[ri];
            if !state.done {
                let t = self
                    .params
                    .compute_end(state.t, self.trace.ranks[ri].final_compute);
                state.t = t;
                if let Some((t0, timer, kind)) = state.pending_sleep.take() {
                    // No later demand exists; the run's end bounds the
                    // window. A misfire here charges no stall (the rank
                    // is done) but still voids the wake timer.
                    let timer = if misfire {
                        self.fault_stats.wake_misfires += 1;
                        None
                    } else {
                        Some(timer)
                    };
                    self.scratch.windows[ri].push(SleepWindow {
                        t0,
                        timer,
                        t_want: t,
                        kind,
                    });
                }
                state.done = true;
            }
            return Entered::Finished;
        }

        let (overhead, penalty) = match self.ann {
            Some(a) => (a.ranks[ri].overhead[ev], a.ranks[ri].penalty[ev]),
            None => (SimDuration::ZERO, SimDuration::ZERO),
        };
        let compute = compute[ev];

        // Compute burst (+ mechanism overhead), then the rank wants the
        // network: resolve any pending sleep against that demand, then
        // serve the reactivation stall. Window *accounting* is buffered
        // ([`ReplayScratch::windows`]) and applied after the run.
        {
            let misfire = self.ranks[ri].pending_sleep.is_some()
                && self
                    .faults
                    .as_mut()
                    .is_some_and(|plan| plan.wake_misfires_at(ri));
            let state = &mut self.ranks[ri];
            state.t = self.params.compute_end(state.t, compute + overhead);
            match state.pending_sleep.take() {
                Some((t0, _timer, kind)) if misfire => {
                    // Misfired wake timer: lanes stay low until this
                    // demand, and the rank pays the full reactivation
                    // time *instead of* the runtime's predicted penalty
                    // (the reactive wake replaces the planned one).
                    self.scratch.windows[ri].push(SleepWindow {
                        t0,
                        timer: None,
                        t_want: state.t,
                        kind,
                    });
                    let react = self.params.react_of(kind);
                    state.t += react;
                    self.fault_stats.wake_misfires += 1;
                    self.fault_stats.misfire_stall += react;
                }
                Some((t0, timer, kind)) => {
                    self.scratch.windows[ri].push(SleepWindow {
                        t0,
                        timer: Some(timer),
                        t_want: state.t,
                        kind,
                    });
                    state.t += penalty;
                }
                None => state.t += penalty,
            }
        }

        // The entry's steps were laid out by `prepare`. A non-blocking
        // receive is pure library bookkeeping: it reserves its message
        // number and posts here, at expansion, leaving its `OpDone` as the
        // only scheduled step. A collective starts its sub-cursor at this
        // rank's schedule segment.
        let entry = events.op_ids()[ev] as usize;
        let cur = self.scratch.entry_step[self.scratch.rank_entry_base[ri] + entry];
        let state = &mut self.ranks[ri];
        state.in_event = true;
        state.cur = cur;
        match self.scratch.step_kind[cur] {
            StepKind::IrecvPost => {
                let pair = self.scratch.step_arg[cur];
                let rel = self.scratch.step_bytes[cur] as u32;
                let slot = &mut self.scratch.pairs[pair as usize];
                let k = slot.recv_next;
                slot.recv_next = k + 1;
                state
                    .reqs
                    .insert(rel.wrapping_add(state.posts), Req::Recv { pair, k });
                state.posts = state.posts.wrapping_add(1);
                state.t += POST_OVERHEAD;
                state.cur = cur + 1;
            }
            StepKind::Coll => {
                let s = self.scratch.step_arg[cur] as usize;
                let sched = &self.scratch.scheds[s];
                state.sub = sched.rank_base[ri];
                state.sub_end = sched.rank_base[ri + 1];
                let inside = &mut self.scratch.coll_inside[s];
                *inside += 1;
                if *inside == self.trace.nprocs {
                    return Entered::AllInside(s);
                }
            }
            _ => {}
        }
        Entered::Event
    }

    /// The `OpDone` step: close the event and pick up the directive (if
    /// any) the runtime attached after it.
    fn finish_event(&mut self, ri: usize) {
        let state = &mut self.ranks[ri];
        state.cur += 1;
        state.in_event = false;
        let ev = state.ev;
        state.ev += 1;
        if let Some(a) = self.ann {
            let ra = &a.ranks[ri];
            let di = state.next_directive;
            if di < ra.directives.len() && ra.directives[di].after_event == ev {
                state.next_directive += 1;
                // The lanes shut down when the call completes (plus any
                // reactive-policy delay); a window still in its wake
                // transition pushes the start forward (the tracker clamps
                // to its floor).
                state.pending_sleep = Some((
                    state.t + ra.directives[di].delay,
                    ra.directives[di].timer,
                    ra.directives[di].kind,
                ));
            }
        }
    }

    /// Consume message `k` of `pair` and return its arrival time, or
    /// `None` if it has not been sent yet. The FIFO's front is dropped
    /// while it is consumed: `k` is the front unless a later reservation
    /// (a `Waitall` completing out of order) got there first.
    #[inline]
    fn take_arrival(&mut self, pair: u32, k: u32) -> Option<SimTime> {
        let p = &mut self.scratch.pairs[pair as usize];
        debug_assert!(k >= p.head, "message {k} of pair {pair} consumed twice");
        let slot = p.fifo.get_mut((k - p.head) as usize)?;
        slot.taken = true;
        let at = slot.at;
        while p.fifo.front().is_some_and(|a| a.taken) {
            p.fifo.pop_front();
            p.head += 1;
        }
        Some(at)
    }

    /// Complete a receive of rank `r` on `pair`: take the pair's next
    /// message number and wait for that message. Returns `false` after
    /// parking `r` if the message has not been sent yet; the number stays
    /// unreserved, so the retry after the wake-up takes the same one.
    /// Only a pair's destination rank receives on it, in program order,
    /// so the numbers follow the senders' FIFO order.
    #[inline]
    fn recv(&mut self, r: Rank, pair: u32) -> bool {
        match self.take_next(pair) {
            Some(at) => {
                let state = &mut self.ranks[r as usize];
                state.t = state.t.max(at);
                true
            }
            None => {
                let k = self.scratch.pairs[pair as usize].recv_next;
                self.park(r, pair, k);
                false
            }
        }
    }

    /// Consume `pair`'s next message by number and return its arrival,
    /// or `None`, changing nothing, if it has not been sent yet.
    #[inline]
    fn take_next(&mut self, pair: u32) -> Option<SimTime> {
        let k = self.scratch.pairs[pair as usize].recv_next;
        let at = self.take_arrival(pair, k)?;
        self.scratch.pairs[pair as usize].recv_next = k + 1;
        Some(at)
    }

    /// Park rank `r` until message `k` of `pair` is delivered. Only the
    /// pair's destination rank ever receives on it, so the slot is
    /// necessarily free.
    fn park(&mut self, r: Rank, pair: u32, k: u32) {
        let p = &mut self.scratch.pairs[pair as usize];
        debug_assert_eq!(p.waiter, NO_WAITER);
        p.waiter = r;
        p.waiter_k = k;
        self.parked += 1;
    }

    /// Draw fault effects for a send leaving rank `link` at `t`: returns
    /// the (possibly flap-delayed) injection time and the extra
    /// serialization charged by a stuck-at-1X degraded link.
    fn draw_send_fault(&mut self, link: usize, t: SimTime, bytes: u64) -> (SimTime, SimDuration) {
        let Some(plan) = self.faults.as_mut() else {
            return (t, SimDuration::ZERO);
        };
        let fault = plan.send_fault(link, t);
        let mut t = t;
        if fault.flapped {
            self.fault_stats.link_flaps += 1;
            self.fault_stats.flap_delay += fault.flap_delay;
            t += fault.flap_delay;
        }
        let extra = if fault.degraded {
            let extra = FaultPlan::degraded_extra(&self.params, bytes);
            self.fault_stats.degraded_sends += 1;
            self.fault_stats.degraded_extra += extra;
            extra
        } else {
            SimDuration::ZERO
        };
        (t, extra)
    }

    /// Send one message from rank `src` whose clock is `t`: draw the
    /// link's faults, inject, record the arrival, and wake the
    /// destination if it is parked on exactly this message. Returns the
    /// sender-side completion (eager protocol), including any fault
    /// surcharge.
    fn send(
        &mut self,
        src: Rank,
        dst: Rank,
        t: SimTime,
        bytes: u64,
    ) -> Result<SimTime, ReplayError> {
        let (t, extra) = self.draw_send_fault(src as usize, t, bytes);
        let p = &mut self.scratch.pairs[(src * self.trace.nprocs + dst) as usize];
        let k = p.sent();
        let at = self.fabric.transfer(t, src, dst, u64::from(k) + 1, bytes) + extra;
        self.last_arrival = self.last_arrival.max(at);
        p.fifo.push_back(Arrival { at, taken: false });
        if p.waiter != NO_WAITER && p.waiter_k == k {
            let w = p.waiter;
            p.waiter = NO_WAITER;
            self.parked -= 1;
            let key = self.key(self.ranks[w as usize].t, w)?;
            self.scratch.heap.push(Reverse(key));
        }
        Ok(self.fabric.inject_done(t, bytes) + extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_core::{annotate_trace, PowerConfig};
    use ibp_trace::TraceBuilder;

    fn us(x: u64) -> SimDuration {
        SimDuration::from_us(x)
    }

    fn ping_pong(iters: u32, bytes: u64) -> Trace {
        let mut b = TraceBuilder::new("pingpong", 2);
        for _ in 0..iters {
            b.compute(0, us(100));
            b.op(0, MpiOp::Send { to: 1, bytes });
            b.op(0, MpiOp::Recv { from: 1, bytes });
            b.compute(1, us(100));
            b.op(1, MpiOp::Recv { from: 0, bytes });
            b.op(1, MpiOp::Send { to: 0, bytes });
        }
        b.build()
    }

    #[test]
    fn ping_pong_timing() {
        let t = ping_pong(1, 2048);
        let r = replay(&t, None, &SimParams::paper(), &ReplayOptions::default()).expect("replay");
        // One round trip after 100 µs compute each: ~100 + 2×(1 µs + hops
        // + 0.41 µs) ≈ 103 µs.
        let exec = r.exec_time.as_us_f64();
        assert!((102.0..106.0).contains(&exec), "exec {exec}");
        assert_eq!(r.fabric.messages, 2);
    }

    #[test]
    fn compute_only_trace_sums_compute() {
        let mut b = TraceBuilder::new("compute", 2);
        b.compute(0, us(500));
        b.op(0, MpiOp::Barrier);
        b.compute(1, us(500));
        b.op(1, MpiOp::Barrier);
        b.compute(0, us(200));
        b.compute(1, us(100));
        let t = b.build();
        let r = replay(&t, None, &SimParams::paper(), &ReplayOptions::default()).expect("replay");
        // 500 µs + barrier (µs-scale) + 200 µs trailing.
        let exec = r.exec_time.as_us_f64();
        assert!((700.0..705.0).contains(&exec), "exec {exec}");
    }

    #[test]
    fn imbalance_propagates_through_barrier() {
        let mut b = TraceBuilder::new("imb", 4);
        for r in 0..4u32 {
            b.compute(r, us(100 * (u64::from(r) + 1))); // 100..400 µs
            b.op(r, MpiOp::Barrier);
            b.compute(r, us(50));
        }
        let t = b.build();
        let r = replay(&t, None, &SimParams::paper(), &ReplayOptions::default()).expect("replay");
        // Everyone leaves the barrier after the slowest (400 µs) rank.
        let exec = r.exec_time.as_us_f64();
        assert!((450.0..460.0).contains(&exec), "exec {exec}");
        for f in &r.rank_finish {
            assert!(f.as_us_f64() >= 450.0);
        }
    }

    #[test]
    fn nonblocking_overlap_beats_blocking() {
        // Exchange with Isend/Irecv + Waitall vs sequential Send/Recv
        // ordering that serialises.
        let bytes = 1 << 20; // 1 MB ≈ 210 µs serialization
        let mut b = TraceBuilder::new("nb", 2);
        for r in 0..2u32 {
            let peer = 1 - r;
            let r1 = b.irecv(r, peer, bytes);
            let r2 = b.isend(r, peer, bytes);
            b.op(r, MpiOp::Waitall { reqs: vec![r1, r2] });
        }
        let nb = replay(
            &b.build(),
            None,
            &SimParams::paper(),
            &ReplayOptions::default(),
        )
        .expect("replay");

        // One serialization (~210 µs) suffices: the two transfers overlap.
        let one_serial = SimParams::paper().serialize(bytes).as_us_f64();
        assert!(
            nb.exec_time.as_us_f64() < 1.2 * one_serial,
            "non-blocking exchange failed to overlap: {}",
            nb.exec_time
        );

        let mut b = TraceBuilder::new("blk", 2);
        // Serialised ping-pong: rank 1 receives before it sends, so its
        // send cannot start until rank 0's full message has arrived.
        b.op(0, MpiOp::Send { to: 1, bytes });
        b.op(0, MpiOp::Recv { from: 1, bytes });
        b.op(1, MpiOp::Recv { from: 0, bytes });
        b.op(1, MpiOp::Send { to: 0, bytes });
        let blk = replay(
            &b.build(),
            None,
            &SimParams::paper(),
            &ReplayOptions::default(),
        )
        .expect("replay");

        assert!(
            blk.exec_time.as_us_f64() > 1.8 * one_serial,
            "serialised ping-pong should need two serializations: {}",
            blk.exec_time
        );
        assert!(nb.exec_time < blk.exec_time);
    }

    #[test]
    fn contention_extends_execution() {
        // Many ranks all sending large messages to rank 0 at once.
        let bytes = 1 << 20;
        let mut b = TraceBuilder::new("incast", 8);
        for r in 1..8u32 {
            b.op(r, MpiOp::Send { to: 0, bytes });
        }
        for r in 1..8u32 {
            b.op(0, MpiOp::Recv { from: r, bytes });
        }
        let t = b.build();
        let r = replay(&t, None, &SimParams::paper(), &ReplayOptions::default()).expect("replay");
        // 7 MB must serialise through rank 0's host downlink: ≥ 7 × 210 µs.
        assert!(r.exec_time >= us(1400), "incast too fast: {}", r.exec_time);
        assert!(r.fabric.contended > 0);
    }

    #[test]
    fn deterministic_replay() {
        let t = ping_pong(50, 4096);
        let p = SimParams::paper();
        let o = ReplayOptions::default();
        let a = replay(&t, None, &p, &o).expect("replay");
        let b = replay(&t, None, &p, &o).expect("replay");
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.rank_finish, b.rank_finish);
    }

    #[test]
    fn recycled_scratch_matches_fresh_scratch() {
        // Run traces of *different* shapes and sizes through one scratch;
        // every result must match a replay on a brand-new scratch.
        let p = SimParams::paper();
        let o = ReplayOptions::default();
        let mut big = TraceBuilder::new("mix", 6);
        for r in 0..6u32 {
            b_round(&mut big, r);
        }
        let traces = [ping_pong(30, 4096), big.build(), ping_pong(2, 64)];
        let mut scratch = ReplayScratch::new();
        for t in &traces {
            let recycled = replay_with_scratch(t, None, &p, &o, &mut scratch).expect("replay");
            let fresh =
                replay_with_scratch(t, None, &p, &o, &mut ReplayScratch::new()).expect("replay");
            assert_eq!(recycled.exec_time, fresh.exec_time);
            assert_eq!(recycled.rank_finish, fresh.rank_finish);
            assert_eq!(recycled.fabric.messages, fresh.fabric.messages);
        }
    }

    fn b_round(b: &mut TraceBuilder, r: u32) {
        b.compute(r, us(50));
        b.op(r, MpiOp::Allreduce { bytes: 64 });
        b.op(r, MpiOp::Alltoall { bytes: 256 });
        b.op(r, MpiOp::Barrier);
    }

    /// Every pair's arrival FIFO is empty after a replay, with every
    /// message sent, reserved and consumed, and no rank left parked.
    fn assert_drained(scratch: &ReplayScratch) {
        for (p, pair) in scratch.pairs.iter().enumerate() {
            assert!(pair.fifo.is_empty(), "pair {p}: {} left", pair.fifo.len());
            assert_eq!(pair.head, pair.sent(), "pair {p}");
            assert_eq!(pair.recv_next, pair.sent(), "pair {p} recvs");
            assert_eq!(pair.waiter, NO_WAITER, "pair {p} waiter left");
        }
    }

    #[test]
    fn arrival_storage_drains() {
        // Collectives and blocking exchanges; then non-blocking requests
        // completed out of posting order (a reversed `Waitall`, the newer
        // of two receives on one pair waited first) and a receive held
        // open across collectives; then messages sent long before their
        // receive. One scratch replays all three.
        let n = 5;
        let mut blocking = TraceBuilder::new("blocking", n);
        let mut reordered = TraceBuilder::new("reordered", n);
        let mut early = TraceBuilder::new("early", n);
        for r in 0..n {
            let (right, left) = ((r + 1) % n, (r + n - 1) % n);
            blocking.op(r, MpiOp::Allreduce { bytes: 8 });
            blocking.op(r, MpiOp::Allgather { bytes: 128 });
            blocking.op(r, MpiOp::Bcast { root: 3, bytes: 32 });
            blocking.op(
                r,
                MpiOp::Sendrecv {
                    to: right,
                    send_bytes: 512,
                    from: left,
                    recv_bytes: 512,
                },
            );
            for _ in 0..3 {
                let a = reordered.irecv(r, left, 64);
                let c = reordered.irecv(r, left, 4096);
                let s = reordered.isend(r, right, 64);
                reordered.op(
                    r,
                    MpiOp::Send {
                        to: right,
                        bytes: 4096,
                    },
                );
                reordered.op(r, MpiOp::Wait { req: c });
                reordered.op(r, MpiOp::Alltoall { bytes: 16 });
                reordered.waitall(r, &[s, a]);
                let d = reordered.irecv(r, right, 256);
                reordered.op(
                    r,
                    MpiOp::Send {
                        to: left,
                        bytes: 256,
                    },
                );
                reordered.op(r, MpiOp::Barrier);
                reordered.op(r, MpiOp::Reduce { root: 1, bytes: 8 });
                reordered.op(r, MpiOp::Wait { req: d });
            }
            for _ in 0..4 {
                early.op(
                    r,
                    MpiOp::Send {
                        to: right,
                        bytes: 128,
                    },
                );
            }
            early.compute(r, us(50 * u64::from(r)));
            for _ in 0..4 {
                early.op(
                    r,
                    MpiOp::Recv {
                        from: left,
                        bytes: 128,
                    },
                );
            }
        }
        let mut scratch = ReplayScratch::new();
        for b in [blocking, reordered, early] {
            let t = b.build();
            t.validate().expect("valid trace");
            let r = replay_with_scratch(
                &t,
                None,
                &SimParams::paper(),
                &ReplayOptions::default(),
                &mut scratch,
            )
            .expect("replay");
            assert_drained(&scratch);
            let sent: u64 = scratch.pairs.iter().map(|p| u64::from(p.sent())).sum();
            assert_eq!(sent, r.fabric.messages, "{}", t.name);
        }
    }

    /// The five generators at 64 ranks, each run for `halves` halves of
    /// its default iterations.
    fn generators(halves: u32) -> Vec<(&'static str, Trace)> {
        use ibp_workloads::{Alya, Gromacs, NasBt, NasMg, Workload, Wrf};
        let apps: [Box<dyn Workload>; 5] = [
            Box::new(Gromacs {
                iterations: halves * Gromacs::default().iterations / 2,
                ..Gromacs::default()
            }),
            Box::new(Alya {
                iterations: halves * Alya::default().iterations / 2,
                ..Alya::default()
            }),
            Box::new(Wrf {
                iterations: halves * Wrf::default().iterations / 2,
                ..Wrf::default()
            }),
            Box::new(NasBt {
                iterations: halves * NasBt::default().iterations / 2,
                ..NasBt::default()
            }),
            Box::new(NasMg {
                iterations: halves * NasMg::default().iterations / 2,
                ..NasMg::default()
            }),
        ];
        apps.iter()
            .map(|app| (app.name(), app.generate(64, 7)))
            .collect()
    }

    #[test]
    fn scratch_size_follows_ops_and_pairs_not_events() {
        // A baseline replay of each generator at 64 ranks leaves the
        // scratch under 2 MiB. Doubling the iterations (half the default
        // run, then the default) doubles the events and messages, yet
        // lowers to the same step stream, and the scratch grows by less
        // than 5%: only the per-pair FIFOs can grow, by how far ranks
        // drift apart over a longer run.
        const CAP: usize = 2 << 20;
        let opts = ReplayOptions::default();
        for ((app, once), (_, twice)) in generators(1).iter().zip(&generators(2)) {
            let mut sizes = [(0, 0); 2];
            for (size, t) in sizes.iter_mut().zip([once, twice]) {
                let mut scratch = ReplayScratch::new();
                replay_with_scratch(t, None, &SimParams::paper(), &opts, &mut scratch)
                    .expect("replay");
                assert_drained(&scratch);
                *size = (scratch.heap_bytes(), scratch.step_kind.len());
            }
            let [(once_bytes, once_steps), (twice_bytes, twice_steps)] = sizes;
            assert!(twice_bytes < CAP, "{app}: {twice_bytes} B");
            assert_eq!(once_steps, twice_steps, "{app}: steps");
            assert!(
                twice_bytes < once_bytes + once_bytes / 20,
                "{app}: {once_bytes} B -> {twice_bytes} B"
            );
        }
    }

    #[test]
    fn ring_windows_keep_pair_backlogs_small() {
        // 64 ranks of back-to-back allgathers, almost all sent inside
        // ring windows: one send per rank and round leaves at most two
        // messages on a ring pair, so no FIFO grows past its first
        // buffer.
        let n = 64;
        let mut b = TraceBuilder::new("rings", n);
        for r in 0..n {
            for i in 0..4 {
                b.compute(r, us(10 + u64::from((r + i) % 5)));
                b.op(r, MpiOp::Allgather { bytes: 4096 });
            }
        }
        let mut scratch = ReplayScratch::new();
        let r = replay_with_scratch(
            &b.build(),
            None,
            &SimParams::paper(),
            &ReplayOptions::default(),
            &mut scratch,
        )
        .expect("replay");
        assert!(
            scratch.window_messages() * 10 > r.fabric.messages * 9,
            "window sent {} of {}",
            scratch.window_messages(),
            r.fabric.messages
        );
        let most = scratch.pairs.iter().map(|p| p.fifo.capacity()).max();
        assert_eq!(most, Some(4), "largest pair FIFO");
    }

    #[test]
    fn collective_schedules_are_keyed_without_payload() {
        // 500 distinct sizes of each collective: the schedule structure
        // does not depend on bytes, so one prepare builds one allgather
        // schedule and one allreduce schedule (shared with the barrier).
        let n = 8;
        let sizes = |repeats: usize| {
            let mut b = TraceBuilder::new("sizes", n);
            for r in 0..n {
                for _ in 0..repeats {
                    for bytes in 1..=500 {
                        b.op(r, MpiOp::Allgather { bytes });
                        b.op(r, MpiOp::Allreduce { bytes });
                        b.op(r, MpiOp::Barrier);
                    }
                }
            }
            b.build()
        };
        let t = sizes(1);
        let mut scratch = ReplayScratch::new();
        scratch.prepare(&t);
        assert_eq!(scratch.scheds.len(), 2);
        assert_eq!(scratch.sched_index.len(), 2);
        // Steps are lowered from the op tables, not the events: the same
        // ops repeated 10× lower to the same stream.
        let steps = scratch.step_kind.len();
        scratch.prepare(&sizes(10));
        assert_eq!(scratch.step_kind.len(), steps);
        assert_eq!(scratch.scheds.len(), 2);
        let r = replay_with_scratch(
            &t,
            None,
            &SimParams::paper(),
            &ReplayOptions::default(),
            &mut scratch,
        )
        .expect("replay");
        // Ring allgather: n(n-1) messages; allreduce and barrier: a
        // reduce tree and a broadcast tree of n-1 messages each.
        let per_round = u64::from(n * (n - 1) + 2 * 2 * (n - 1));
        assert_eq!(r.fabric.messages, 500 * per_round);
    }

    #[test]
    fn clock_past_the_key_limit_is_a_typed_error() {
        // Two ranks leave one bit for the rank id in the scheduler key,
        // so clocks up to 2^63 - 1 ns fit and 2^63 ns does not.
        let run = |compute_ns: u64| {
            let mut b = TraceBuilder::new("far", 2);
            b.compute(0, SimDuration::from_ns(compute_ns));
            b.op(0, MpiOp::Send { to: 1, bytes: 64 });
            b.op(1, MpiOp::Recv { from: 0, bytes: 64 });
            replay(
                &b.build(),
                None,
                &SimParams::paper(),
                &ReplayOptions::default(),
            )
        };
        let limit = 1u64 << 63;
        let ok = run(limit - 1_000_000).expect("clock below the limit");
        assert!(ok.exec_time.as_ns() > limit - 1_000_000);
        let err = run(limit).expect_err("clock at the limit");
        assert_eq!(
            err,
            ReplayError::ClockOverflow {
                rank: 0,
                clock_ns: limit,
                max_ns: limit - 1,
            }
        );
        assert!(err.to_string().contains("clock"), "{err}");
    }

    #[test]
    fn annotated_replay_accumulates_low_power() {
        // A predictable 2-rank iterative pattern.
        let mut b = TraceBuilder::new("iter", 2);
        for _ in 0..40 {
            for r in 0..2u32 {
                b.compute(r, us(500));
                b.op(
                    r,
                    MpiOp::Sendrecv {
                        to: 1 - r,
                        send_bytes: 4096,
                        from: 1 - r,
                        recv_bytes: 4096,
                    },
                );
                b.compute(r, us(300));
                b.op(r, MpiOp::Allreduce { bytes: 8 });
            }
        }
        let t = b.build();
        let cfg = PowerConfig::paper(us(20), 0.10);
        let ann = annotate_trace(&t, &cfg);
        assert!(ann.total_directives() > 0);

        let p = SimParams::paper();
        let o = ReplayOptions::default();
        let baseline = replay(&t, None, &p, &o).expect("replay");
        let managed = replay(&t, Some(&ann), &p, &o).expect("replay");

        assert!(baseline
            .link_sleep
            .iter()
            .all(|l| l[SleepKind::Wrps as usize].is_zero()));
        assert!(managed
            .link_sleep
            .iter()
            .all(|l| !l[SleepKind::Wrps as usize].is_zero()));
        let saving = managed.power_saving_pct();
        assert!(saving > 10.0 && saving < 57.0, "saving {saving}");
        // Overheads make the managed run slightly slower, but only
        // slightly (the pattern is perfectly predictable).
        let slow = managed.slowdown_pct(&baseline);
        assert!((0.0..2.0).contains(&slow), "slowdown {slow}");
    }

    #[test]
    fn timelines_recorded_when_requested() {
        let t = ping_pong(3, 1024);
        let o = ReplayOptions {
            record_timelines: true,
            ..ReplayOptions::default()
        };
        let r = replay(&t, None, &SimParams::paper(), &o).expect("replay");
        let tls = r.timelines.expect("timelines requested");
        assert_eq!(tls.len(), 2);
    }

    #[test]
    fn unmatched_recv_reports_deadlock_error() {
        // Hand-build an invalid trace (skipping validate) where rank 0
        // waits for a message nobody sends.
        let mut b = TraceBuilder::new("bad", 2);
        b.op(0, MpiOp::Recv { from: 1, bytes: 64 });
        let t = b.build(); // validate() would fail; replay must detect too
        let err = replay(&t, None, &SimParams::paper(), &ReplayOptions::default())
            .expect_err("deadlock expected");
        match err {
            ReplayError::Deadlock { rank, .. } => assert_eq!(rank, 0),
            other => panic!("wrong error: {other}"),
        }
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn empty_trace_is_a_typed_error() {
        let t = TraceBuilder::new("none", 0).build();
        let err = replay(&t, None, &SimParams::paper(), &ReplayOptions::default())
            .expect_err("empty trace");
        assert_eq!(err, ReplayError::EmptyTrace);
    }

    #[test]
    fn more_ranks_than_nodes_is_a_typed_error() {
        let mut b = TraceBuilder::new("wide", 253);
        b.compute(0, us(10));
        let t = b.build();
        let err = replay(&t, None, &SimParams::paper(), &ReplayOptions::default())
            .expect_err("253 ranks on 252 nodes");
        assert_eq!(
            err,
            ReplayError::TooManyRanks {
                nprocs: 253,
                capacity: 252
            }
        );
        assert!(err.to_string().contains("253 ranks"), "{err}");
    }

    #[test]
    fn annotation_rank_mismatch_is_a_typed_error() {
        let two = ping_pong(1, 512);
        let cfg = PowerConfig::paper(us(20), 0.10);
        let ann = annotate_trace(&two, &cfg);
        let mut b = TraceBuilder::new("three", 3);
        b.compute(0, us(10));
        let three = b.build();
        let err = replay(
            &three,
            Some(&ann),
            &SimParams::paper(),
            &ReplayOptions::default(),
        )
        .expect_err("rank mismatch");
        assert_eq!(
            err,
            ReplayError::AnnotationRankMismatch {
                trace: 3,
                annotated: 2
            }
        );
    }

    #[test]
    fn annotation_length_mismatch_is_a_typed_error() {
        let t = ping_pong(2, 512);
        let cfg = PowerConfig::paper(us(20), 0.10);
        let mut ann = annotate_trace(&t, &cfg);
        ann.ranks[1].overhead.pop();
        let err = replay(
            &t,
            Some(&ann),
            &SimParams::paper(),
            &ReplayOptions::default(),
        )
        .expect_err("length mismatch");
        match err {
            ReplayError::AnnotationLengthMismatch { rank, .. } => assert_eq!(rank, 1),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn invalid_fault_config_is_a_typed_error() {
        let t = ping_pong(1, 512);
        let opts = ReplayOptions {
            faults: Some(FaultConfig {
                flap_prob: 2.0,
                ..FaultConfig::quiet(1)
            }),
            ..ReplayOptions::default()
        };
        let err = replay(&t, None, &SimParams::paper(), &opts).expect_err("bad config");
        assert!(matches!(err, ReplayError::InvalidFaultConfig(_)));
    }

    #[test]
    fn quiet_faults_match_fault_free_exactly() {
        let t = ping_pong(20, 4096);
        let p = SimParams::paper();
        let clean = replay(&t, None, &p, &ReplayOptions::default()).expect("replay");
        let quiet = ReplayOptions {
            faults: Some(FaultConfig::quiet(0xD1C0)),
            ..ReplayOptions::default()
        };
        let faulted = replay(&t, None, &p, &quiet).expect("replay");
        assert_eq!(clean.exec_time, faulted.exec_time);
        assert_eq!(faulted.faults, FaultStats::default());
    }

    #[test]
    fn faults_slow_execution_and_are_counted() {
        let t = ping_pong(50, 4096);
        let p = SimParams::paper();
        let clean = replay(&t, None, &p, &ReplayOptions::default()).expect("replay");
        let stormy = ReplayOptions {
            faults: Some(FaultConfig::with_rate(0xD1C0, 100.0)),
            ..ReplayOptions::default()
        };
        let faulted = replay(&t, None, &p, &stormy).expect("replay");
        assert!(faulted.faults.link_flaps > 0, "{:?}", faulted.faults);
        assert!(faulted.exec_time > clean.exec_time);
        // The aggregate charge bounds the observed slowdown.
        let gap = faulted.exec_time.saturating_sub(clean.exec_time);
        assert!(gap <= faulted.faults.total_charged());
    }

    #[test]
    fn misfires_extend_low_power_and_charge_react() {
        // Predictable pattern → directives; 100% misfire rate.
        let mut b = TraceBuilder::new("iter", 2);
        for _ in 0..40 {
            for r in 0..2u32 {
                b.compute(r, us(500));
                b.op(
                    r,
                    MpiOp::Sendrecv {
                        to: 1 - r,
                        send_bytes: 4096,
                        from: 1 - r,
                        recv_bytes: 4096,
                    },
                );
            }
        }
        let t = b.build();
        let cfg = PowerConfig::paper(us(20), 0.10);
        let ann = annotate_trace(&t, &cfg);
        assert!(ann.total_directives() > 0);

        let p = SimParams::paper();
        let managed = replay(&t, Some(&ann), &p, &ReplayOptions::default()).expect("replay");
        let misfiring = ReplayOptions {
            faults: Some(FaultConfig {
                wake_misfire_prob: 1.0,
                ..FaultConfig::quiet(9)
            }),
            ..ReplayOptions::default()
        };
        let faulted = replay(&t, Some(&ann), &p, &misfiring).expect("replay");
        assert!(faulted.faults.wake_misfires > 0);
        // Every misfire resolved against a demand stalls exactly T_react
        // (trailing-window misfires charge nothing; there are at most
        // nprocs of them).
        assert!(!faulted.faults.misfire_stall.is_zero());
        let cap = SimDuration::from_ns(p.t_react.as_ns() * faulted.faults.wake_misfires);
        assert!(faulted.faults.misfire_stall <= cap);
        // Lanes stay down until demand → at least as much low-power time.
        let wrps = SleepKind::Wrps as usize;
        let low_ok: SimDuration = managed.link_sleep.iter().map(|l| l[wrps]).sum();
        let low_bad: SimDuration = faulted.link_sleep.iter().map(|l| l[wrps]).sum();
        assert!(low_bad >= low_ok, "{low_bad} < {low_ok}");
        assert!(faulted.exec_time >= managed.exec_time);
    }
}
