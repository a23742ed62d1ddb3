//! Counting-allocator proof that replay allocates nothing per event or
//! per message: once a scratch has been warmed, a managed replay of R
//! rounds and one of 2R rounds make the same number of heap requests,
//! and so do its two halves, the timing run and the power score. What
//! remains is fixed per replay (per-rank state, the fabric, the
//! exactly sized timing record, the result vectors). The library forbids `unsafe`; this integration-test
//! binary is a separate crate, so a `#[global_allocator]` wrapper is
//! allowed here.

use ibp_core::{annotate_trace, PowerConfig, TraceAnnotations};
use ibp_network::{
    replay_timing_with_scratch, replay_with_scratch, ReplayOptions, ReplayScratch, SimParams,
};
use ibp_simcore::SimDuration;
use ibp_trace::{MpiOp, Trace, TraceBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through to the system allocator that counts every heap request
/// (alloc, zeroed alloc, and growth via realloc) made by a thread while
/// that thread is armed.
struct CountingAlloc;

thread_local! {
    /// Armed per thread, so the libtest harness's own threads never land
    /// in a measured window. Const initialised: reading it never
    /// allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` on this thread with allocation counting armed and return how
/// many heap requests it made. This binary holds one test, so nothing
/// else shares the counter.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.load(Ordering::SeqCst), out)
}

/// `rounds` rounds of an iterative solver on `n` ranks: a non-blocking
/// halo exchange completed in reverse posting order, a receive held open
/// across collectives, a blocking exchange, an alltoall and a ring
/// allgather (replayed in a ring window), with
/// steady compute gaps the runtime learns to sleep through. A trace of
/// R rounds is a prefix of one of 2R rounds.
fn solver(n: u32, rounds: usize) -> Trace {
    let us = SimDuration::from_us;
    let mut b = TraceBuilder::new("solver", n);
    for r in 0..n {
        let (right, left) = ((r + 1) % n, (r + n - 1) % n);
        for _ in 0..rounds {
            b.compute(r, us(600));
            let a = b.irecv(r, left, 8192);
            let s = b.isend(r, right, 8192);
            b.waitall(r, &[s, a]);
            b.compute(r, us(400));
            let h = b.irecv(r, right, 256);
            b.op(
                r,
                MpiOp::Send {
                    to: left,
                    bytes: 256,
                },
            );
            b.op(r, MpiOp::Allreduce { bytes: 8 });
            b.op(r, MpiOp::Bcast { root: 0, bytes: 64 });
            b.op(r, MpiOp::Wait { req: h });
            b.compute(r, us(300));
            b.op(
                r,
                MpiOp::Sendrecv {
                    to: right,
                    send_bytes: 4096,
                    from: left,
                    recv_bytes: 4096,
                },
            );
            b.compute(r, us(200));
            b.op(r, MpiOp::Alltoall { bytes: 512 });
            b.compute(r, us(5));
            b.op(r, MpiOp::Allgather { bytes: 2048 });
        }
    }
    b.build()
}

#[test]
fn managed_replay_allocations_do_not_grow_with_rounds() {
    const N: u32 = 8;
    const ROUNDS: usize = 60;
    let params = SimParams::paper();
    let opts = ReplayOptions::default();
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let runs: Vec<(Trace, TraceAnnotations)> = [ROUNDS, 2 * ROUNDS]
        .into_iter()
        .map(|rounds| {
            let trace = solver(N, rounds);
            trace.validate().expect("valid trace");
            let ann = annotate_trace(&trace, &cfg);
            (trace, ann)
        })
        .collect();
    let long = &runs[1];
    assert!(
        long.1.total_directives() > 0,
        "the runtime must issue directives for a managed run to mean anything"
    );

    let mut scratch = ReplayScratch::new();
    replay_with_scratch(&long.0, Some(&long.1), &params, &opts, &mut scratch).expect("warm-up");

    let counts: Vec<[u64; 3]> = runs
        .iter()
        .map(|(trace, ann)| {
            let (allocs, result) = count_allocs(|| {
                replay_with_scratch(trace, Some(ann), &params, &opts, &mut scratch)
            });
            let result = result.expect("replay");
            assert!(scratch.window_messages() > 0, "no ring window");
            assert!(
                result.link_sleeps.iter().sum::<u64>() > 0,
                "no sleep windows"
            );
            let (timing_allocs, timing) = count_allocs(|| {
                replay_timing_with_scratch(trace, Some(ann), &params, &opts, &mut scratch)
            });
            let timing = timing.expect("timing run");
            let (score_allocs, scored) = count_allocs(|| timing.score(Some(ann), &params));
            assert_eq!(scored, result);
            [allocs, timing_allocs, score_allocs]
        })
        .collect();
    for (i, what) in ["replay", "timing run", "score"].into_iter().enumerate() {
        assert_eq!(
            counts[0][i],
            counts[1][i],
            "{what} of {ROUNDS} rounds made {} heap requests, of {} rounds {}",
            counts[0][i],
            2 * ROUNDS,
            counts[1][i]
        );
    }
}
