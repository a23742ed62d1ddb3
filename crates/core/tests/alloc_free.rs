//! Counting-allocator proof of the ISSUE's zero-allocation claim: once a
//! rank runtime has declared a pattern and its output buffers are
//! reserved, the steady-state (predicting) intercept path never touches
//! the heap. The library itself forbids `unsafe`; this integration-test
//! binary is a separate crate, so a `#[global_allocator]` wrapper is
//! allowed here.

use ibp_core::{GramInterner, PowerConfig, RankRuntime};
use ibp_simcore::SimDuration;
use ibp_trace::MpiCall::{Allreduce, Sendrecv};
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
/// many heap requests it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.load(Ordering::SeqCst), out)
}

/// One period of the ALYA-like stream (Fig. 2): a three-call Sendrecv
/// gram followed by two single-Allreduce grams.
fn period(lead_us: u64) -> [(ibp_trace::MpiCall, SimDuration); 5] {
    [
        (Sendrecv, SimDuration::from_us(lead_us)),
        (Sendrecv, SimDuration::from_us(2)),
        (Sendrecv, SimDuration::from_us(3)),
        (Allreduce, SimDuration::from_us(250)),
        (Allreduce, SimDuration::from_us(250)),
    ]
}

#[test]
fn steady_state_intercept_path_is_allocation_free() {
    const TRAIN_ITERS: usize = 40;
    const MEASURED_ITERS: usize = 250; // 1250 intercepted calls

    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let mut rt = RankRuntime::new(0, cfg);
    rt.reserve_events((TRAIN_ITERS + MEASURED_ITERS) * 5);

    for i in 0..TRAIN_ITERS {
        for (call, gap) in period(if i == 0 { 0 } else { 300 }) {
            rt.intercept(call, gap);
        }
    }
    assert!(
        rt.predicting(),
        "training stream must reach prediction mode before measuring"
    );

    let steady = period(300);
    let (allocs, ()) = count_allocs(|| {
        for _ in 0..MEASURED_ITERS {
            for &(call, gap) in &steady {
                rt.intercept(call, gap);
            }
        }
    });
    assert!(
        rt.predicting(),
        "measured stream must stay in prediction mode"
    );
    assert_eq!(
        allocs,
        0,
        "steady-state intercept path allocated {allocs} times over {} calls",
        MEASURED_ITERS * 5
    );

    // The run did real work: every measured call was predicted.
    assert!(rt.stats().correct_calls >= (MEASURED_ITERS * 5) as u64);
}

#[test]
fn gram_interner_hit_path_is_allocation_free() {
    let mut interner = GramInterner::new();
    let shapes: Vec<Vec<u16>> = (0..32)
        .map(|i| (0..=(i % 5) as u16).map(|k| k + i as u16).collect())
        .collect();
    let first: Vec<u32> = shapes.iter().map(|s| interner.intern(s)).collect();

    let (allocs, hits) = count_allocs(|| {
        let mut ids = [0u32; 32];
        for _ in 0..100 {
            for (k, s) in shapes.iter().enumerate() {
                ids[k] = interner.intern(s);
            }
        }
        ids
    });
    assert_eq!(
        allocs, 0,
        "re-interning known shapes allocated {allocs} times"
    );
    assert_eq!(
        &hits[..],
        &first[..],
        "hit path must return the original ids"
    );
}
