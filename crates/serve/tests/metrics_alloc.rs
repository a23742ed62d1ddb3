//! Counting-allocator proof that the metrics layer keeps the serving
//! hot path allocation-free — the observability extension of the core
//! crate's `alloc_free` suite. Three claims:
//!
//! 1. bumping every [`MetricsRegistry`] counter and gauge (what the
//!    server does per event batch, per directive frame, per queue
//!    transition) never touches the heap — they are plain atomics;
//! 2. reading them back (`summary()`, the value a `Query` reply and a
//!    scrape start from) never touches the heap;
//! 3. probing a live, predicting session engine ([`Session::probe`],
//!    the per-link row `ibpower stat`/`top` render) never touches the
//!    heap — every `SessionProbe` field is a scalar;
//! 4. recording a stage-latency observation (what the server does per
//!    decoded frame, applied batch, encoded reply and socket write)
//!    never touches the heap — each histogram is a fixed atomic array.
//!
//! The serve library itself forbids `unsafe`; this integration-test
//! binary is a separate crate, so a `#[global_allocator]` wrapper is
//! allowed here.

use ibp_serve::{MetricsRegistry, Session, Stage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Pass-through to the system allocator that counts every heap request
/// (alloc, zeroed alloc, and growth via realloc) made by a thread while
/// that thread is armed.
struct CountingAlloc;

thread_local! {
    /// Armed per thread, so the libtest harness's own threads (progress
    /// output, result plumbing) never land in a measured window. Const
    /// initialised: reading it never allocates.
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

/// Tests in this binary run concurrently and share the counter, so
/// armed sections take this lock. A panic inside an armed section
/// poisons it; later tests take it anyway instead of failing with it.
static GATE: Mutex<()> = Mutex::new(());

/// Run `f` on this thread with allocation counting armed and return how
/// many heap requests it made (plus its result).
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.load(Ordering::SeqCst), out)
}

#[test]
fn metric_updates_are_allocation_free() {
    const ROUNDS: u64 = 10_000;
    let m = MetricsRegistry::default();
    let (allocs, ()) = count_allocs(|| {
        for i in 0..ROUNDS {
            m.sessions_opened.fetch_add(1, Ordering::Relaxed);
            m.sessions_closed.fetch_add(1, Ordering::Relaxed);
            m.events_applied.fetch_add(64, Ordering::Relaxed);
            m.directives_sent.fetch_add(3, Ordering::Relaxed);
            m.protocol_errors.fetch_add(1, Ordering::Relaxed);
            m.responses_shed.fetch_add(1, Ordering::Relaxed);
            m.worker_panics.fetch_add(1, Ordering::Relaxed);
            m.worker_respawns.fetch_add(1, Ordering::Relaxed);
            m.snapshots_persisted.fetch_add(1, Ordering::Relaxed);
            m.persist_failures.fetch_add(1, Ordering::Relaxed);
            m.sessions_rehydrated.fetch_add(1, Ordering::Relaxed);
            m.queries_answered.fetch_add(1, Ordering::Relaxed);
            m.scrapes_served.fetch_add(1, Ordering::Relaxed);
            m.sessions_live.store(i % 7, Ordering::Relaxed);
            m.ready_queue_depth.fetch_add(1, Ordering::Relaxed);
            m.ready_queue_depth.fetch_sub(1, Ordering::Relaxed);
            m.writer_queue_depth.store(i % 3, Ordering::Relaxed);
        }
    });
    assert_eq!(
        allocs, 0,
        "metric updates allocated {allocs} times over {ROUNDS} rounds"
    );
    assert_eq!(m.events_applied.load(Ordering::Relaxed), 64 * ROUNDS);
}

#[test]
fn stage_observations_are_allocation_free() {
    const ROUNDS: u64 = 10_000;
    let m = MetricsRegistry::default();
    let (allocs, ()) = count_allocs(|| {
        for i in 0..ROUNDS {
            for stage in Stage::ALL {
                // Sweep every bucket, the zero and overflow ones too.
                let ns = if i % 20 == 19 {
                    u64::MAX / 2
                } else {
                    (1u64 << (i % 20)) * 7
                };
                m.observe_stage(stage, std::time::Duration::from_nanos(ns));
            }
            m.observe_stage(Stage::MailboxWait, std::time::Duration::ZERO);
        }
    });
    assert_eq!(
        allocs, 0,
        "stage observations allocated {allocs} times over {ROUNDS} rounds"
    );
    assert_eq!(m.stages[Stage::Engine as usize].count(), ROUNDS);
    assert_eq!(m.stages[Stage::MailboxWait as usize].count(), 2 * ROUNDS);
}

#[test]
fn summary_reads_are_allocation_free() {
    let m = MetricsRegistry::default();
    m.events_applied.store(12_345, Ordering::Relaxed);
    let (allocs, total) = count_allocs(|| {
        let mut total = 0u64;
        for _ in 0..1_000 {
            let s = m.summary();
            total = total.wrapping_add(s.events_applied + s.sessions_opened);
        }
        total
    });
    assert_eq!(allocs, 0, "summary() allocated {allocs} times");
    assert_eq!(total, 12_345 * 1_000);
}

#[test]
fn probing_a_live_engine_is_allocation_free() {
    // Train a session into prediction mode with the ALYA-like stream
    // (three Sendrecv, two Allreduce per period), then probe it
    // repeatedly with the allocator armed — the exact sampling
    // `build_report` does under a `Query`, minus the registry lock.
    let period: [(u16, u64); 5] = {
        use ibp_trace::MpiCall::{Allreduce, Sendrecv};
        [
            (Sendrecv.id(), 300_000),
            (Sendrecv.id(), 2_000),
            (Sendrecv.id(), 3_000),
            (Allreduce.id(), 250_000),
            (Allreduce.id(), 250_000),
        ]
    };
    let mut sess = Session::open(0, ibp_core::PowerConfig::default());
    for _ in 0..60 {
        let _ = sess.apply(&period);
    }
    let baseline = sess.probe(7, 2);
    assert!(
        baseline.predicting,
        "training stream must reach prediction mode"
    );

    let (allocs, last) = count_allocs(|| {
        let mut last = None;
        for _ in 0..1_000 {
            last = Some(sess.probe(7, 2));
        }
        last
    });
    assert_eq!(allocs, 0, "probe() allocated {allocs} times");
    assert_eq!(last.expect("probed"), baseline, "probing is idempotent");
}
