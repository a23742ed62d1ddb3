//! Wall-clock measurements of the engine's hot paths.
//!
//! Each probe repeats its workload a caller-chosen number of times and
//! reports the **minimum** per-element time across repetitions — the
//! standard trick for wall-clock microbenchmarks, since scheduling noise
//! only ever adds time — plus the median and interquartile range, so
//! entries can be compared against their spread. `ibpower bench-report`
//! runs them and appends the results to the committed
//! `BENCH_hotpath.json` trajectory.

use ibp_core::{annotate_trace_jobs, PowerConfig, Ppa, RankRuntime, SleepKind};
use ibp_network::{replay_with_scratch, ReplayOptions, ReplayScratch, SimParams};
use ibp_simcore::SimDuration;
use ibp_trace::MpiCall::{Allreduce, Sendrecv};
use ibp_trace::Trace;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The synthetic ALYA-like call stream every probe trains on (Fig. 2
/// shape: three tight Sendrecvs, two Allreduces after long compute).
fn alya_stream(iters: usize) -> Vec<(ibp_trace::MpiCall, SimDuration)> {
    let mut v = Vec::with_capacity(iters * 5);
    for i in 0..iters {
        let lead = if i == 0 { 0 } else { 300 };
        v.push((Sendrecv, SimDuration::from_us(lead)));
        v.push((Sendrecv, SimDuration::from_us(2)));
        v.push((Sendrecv, SimDuration::from_us(3)));
        v.push((Allreduce, SimDuration::from_us(250)));
        v.push((Allreduce, SimDuration::from_us(250)));
    }
    v
}

/// `iters` rounds of compute, a 16 KB ring allgather and a ring
/// `Sendrecv` on `nprocs` ranks, with a few percent of per-rank jitter
/// in the compute so ranks enter each allgather at different times.
fn ring_trace(nprocs: u32, iters: usize) -> Trace {
    let mut b = ibp_trace::TraceBuilder::new("bench-ring", nprocs);
    for it in 0..iters {
        for r in 0..nprocs {
            let jitter = u64::from((r * 7 + it as u32 * 13) % 11);
            b.compute(r, SimDuration::from_us(200 + jitter));
            b.op(r, ibp_trace::MpiOp::Allgather { bytes: 16 << 10 });
            b.op(
                r,
                ibp_trace::MpiOp::Sendrecv {
                    to: (r + 1) % nprocs,
                    send_bytes: 2048,
                    from: (r + nprocs - 1) % nprocs,
                    recv_bytes: 2048,
                },
            );
        }
    }
    b.build()
}

/// A small multi-rank trace for the replay and annotation probes.
fn replay_trace(nprocs: u32, iters: usize) -> Trace {
    let mut b = ibp_trace::TraceBuilder::new("bench", nprocs);
    for it in 0..iters {
        for r in 0..nprocs {
            let lead = if it == 0 { 0 } else { 300 };
            b.compute(r, SimDuration::from_us(lead));
            b.op(
                r,
                ibp_trace::MpiOp::Sendrecv {
                    to: (r + 1) % nprocs,
                    send_bytes: 2048,
                    from: (r + nprocs - 1) % nprocs,
                    recv_bytes: 2048,
                },
            );
            b.compute(r, SimDuration::from_us(300));
            b.op(r, ibp_trace::MpiOp::Allreduce { bytes: 8 });
        }
    }
    b.build()
}

/// One measured hot path: nanoseconds per element over repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Probe {
    /// Probe name (stable across report entries).
    pub name: String,
    /// Best observed nanoseconds per element (what `--check` gates).
    pub ns_per_elem: f64,
    /// Median nanoseconds per element over the repetitions (0 in
    /// entries recorded before the median was kept).
    #[serde(default)]
    pub median_ns_per_elem: f64,
    /// Interquartile range of nanoseconds per element over the
    /// repetitions (0 in entries recorded before it was kept).
    #[serde(default)]
    pub iqr_ns_per_elem: f64,
    /// Elements processed per repetition (calls, grams or events).
    pub elems: u64,
    /// Repetitions measured.
    pub reps: u32,
}

/// One `bench-report` run: every probe at one point in time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReportEntry {
    /// Free-form label (`--label`, defaults to `run-<n>`).
    pub label: String,
    /// The probes, in fixed order.
    pub probes: Vec<Probe>,
}

impl ReportEntry {
    /// The named probe, if present.
    pub fn probe(&self, name: &str) -> Option<&Probe> {
        self.probes.iter().find(|p| p.name == name)
    }
}

/// The committed trajectory file: entries appended per run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trajectory {
    /// All recorded runs, oldest first.
    pub entries: Vec<ReportEntry>,
}

/// Name of the regression-gated probe.
pub const INTERCEPT_PROBE: &str = "intercept_ns_per_call";

/// Name of the serving-layer round-trip probe. Gated only when the
/// trajectory's baseline entry already records it (older entries
/// predate the serving layer).
pub const SERVE_PROBE: &str = "serve_roundtrip_ns_per_event";

/// Name of the paged-serving probe: many sessions multiplexed over few
/// driver connections with the LRU hot cap well below the session
/// count, so every repetition pays real evict/rehydrate traffic
/// through the snapshot store. Gated only when the baseline entry
/// records it (older entries predate session paging).
pub const SCALE_PROBE: &str = "serve_scale_ns_per_event";

/// Name of the annotated-replay probe (the sweep engine's hot path).
pub const REPLAY_PROBE: &str = "replay_ns_per_event";

/// Name of the large-trace replay probe: ≥32k events across 16 ranks,
/// so per-replay setup amortises out and the steady-state event loop
/// dominates. Gated only when the baseline entry records it (older
/// entries predate the probe).
pub const REPLAY_BIG_PROBE: &str = "replay_big_ns_per_event";

/// Name of the wide-fabric replay probe: the [`REPLAY_BIG_PROBE`] shape
/// at 128 ranks (≥32k events), where collectives fan out across leaf
/// switches and the scheduler heap holds every rank. Gated only when the
/// baseline entry records it (older entries predate the probe).
pub const REPLAY_WIDE_PROBE: &str = "replay_wide_ns_per_event";

/// Name of the ring-window replay probe: 128 ranks running 16 KB ring
/// allgathers between compute and a `Sendrecv`, so most messages are
/// sent inside ring windows. Gated only when the baseline entry records
/// it (older entries predate the probe).
pub const REPLAY_RING_PROBE: &str = "replay_ring_ns_per_event";

/// Name of the depth-ladder replay probe: annotated replay under the
/// full three-rung sleep ladder, so the tracker's batched
/// `apply_windows` path carries WRPS, rate-reduction, and deep-sleep
/// windows in one stream. Gated only when the baseline entry records
/// it (older entries predate the ladder).
pub const LADDER_PROBE: &str = "ladder_apply_windows_ns_per_event";

/// Name of the GT-sweep probe: [`ibp_analysis::sweep()`] over NAS-MG at
/// 16 ranks, ns per (event × grid point). Gated only when the baseline
/// entry records it (older entries predate the probe).
pub const GT_SWEEP_PROBE: &str = "gt_sweep_ns_per_event";

/// Probe `name`: time `reps` runs of `run`, which returns the elements
/// it processed.
fn measure<F: FnMut() -> u64>(name: impl Into<String>, reps: u32, mut run: F) -> Probe {
    let mut samples = Vec::with_capacity(reps as usize);
    let mut elems = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let n = run();
        let ns = t0.elapsed().as_nanos() as f64;
        elems = n;
        if n > 0 {
            samples.push(ns / n as f64);
        }
    }
    samples.sort_by(f64::total_cmp);
    // Nearest-rank quantile of the sorted samples.
    let quantile = |q: f64| {
        samples
            .get((samples.len().saturating_sub(1) as f64 * q).round() as usize)
            .copied()
            .unwrap_or(f64::INFINITY)
    };
    Probe {
        name: name.into(),
        ns_per_elem: quantile(0.0),
        median_ns_per_elem: quantile(0.5),
        iqr_ns_per_elem: quantile(0.75) - quantile(0.25),
        elems,
        reps,
    }
}

/// Interception cost over a full train-then-predict ALYA stream,
/// ns/call. This is the paper's per-call overhead path (gram formation +
/// PPA + controller) and the probe the CI regression gate watches.
pub fn probe_intercept(iters: usize, reps: u32) -> Probe {
    let stream = alya_stream(iters);
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    measure(INTERCEPT_PROBE, reps, || {
        let mut rt = RankRuntime::new(0, cfg.clone());
        for &(call, gap) in &stream {
            rt.intercept(call, gap);
        }
        let stats = rt.finish(SimDuration::ZERO);
        assert!(stats.correct_calls > 0, "bench stream never predicted");
        stream.len() as u64
    })
}

/// PPA scan cost on a periodic gram stream, ns/gram.
pub fn probe_ppa_scan(grams: usize, reps: u32) -> Probe {
    let stream: Vec<u32> = (0..grams).map(|i| u32::from(i % 3 != 0)).collect();
    measure("ppa_scan_ns_per_gram", reps, || {
        let mut ppa = Ppa::new(3, 64);
        let mut elements = 0;
        for n in 1..=stream.len() {
            ppa.advance(&stream[..n]);
            elements += ppa.last_elements();
        }
        assert!(elements > 0, "the PPA examined no gram");
        stream.len() as u64
    })
}

/// End-to-end annotated replay, ns/event, with the scratch arena
/// recycled across repetitions (the sweep engine's steady state).
pub fn probe_replay(nprocs: u32, iters: usize, reps: u32) -> Probe {
    replay_probe_named(&replay_trace(nprocs, iters), reps, REPLAY_PROBE)
}

/// [`probe_replay`] on a large multi-rank trace (16 ranks, ≥32k events
/// at the default `--iters`), reported as [`REPLAY_BIG_PROBE`]. The
/// small probe is dominated by per-replay setup (fabric construction,
/// scratch preparation); this one shows the steady-state cost of the
/// event loop itself.
pub fn probe_replay_big(nprocs: u32, iters: usize, reps: u32) -> Probe {
    replay_probe_named(&replay_trace(nprocs, iters), reps, REPLAY_BIG_PROBE)
}

/// [`probe_replay`] on a wide fabric (128 ranks, ≥32k events at the
/// default `--iters`), reported as [`REPLAY_WIDE_PROBE`]: the regime of
/// the paper's largest cells, where a replay costs several times more
/// per event than at 16 ranks.
pub fn probe_replay_wide(nprocs: u32, iters: usize, reps: u32) -> Probe {
    replay_probe_named(&replay_trace(nprocs, iters), reps, REPLAY_WIDE_PROBE)
}

/// [`probe_replay`] on 16 KB ring allgathers between compute and a
/// `Sendrecv` (128 ranks at the default `--iters`), reported as
/// [`REPLAY_RING_PROBE`]: the path the paper grid's allgathers take,
/// where most messages are sent inside ring windows.
pub fn probe_replay_ring(nprocs: u32, iters: usize, reps: u32) -> Probe {
    replay_probe_named(&ring_trace(nprocs, iters), reps, REPLAY_RING_PROBE)
}

fn replay_probe_named(trace: &Trace, reps: u32, name: &str) -> Probe {
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let ann = annotate_trace_jobs(trace, &cfg, 1);
    let params = SimParams::paper();
    let opts = ReplayOptions::default();
    let events: u64 = trace.ranks.iter().map(|r| r.events.len() as u64).sum();
    let mut scratch = ReplayScratch::new();
    measure(name, reps, || {
        let r = replay_with_scratch(trace, Some(&ann), &params, &opts, &mut scratch)
            .expect("bench replay");
        assert!(!r.exec_time.is_zero());
        events
    })
}

/// Annotated replay under the full depth ladder, ns/event, reported as
/// [`LADDER_PROBE`]. The trace's idle periods cycle through the three
/// rungs' profitability bands (300 µs → WRPS, 2 ms → rate reduction,
/// 20 ms → deep sleep), so every repetition drives the power tracker's
/// batched window accounting across all depths — the path the ladder
/// generalized — and the probe asserts the deeper rungs really engaged.
pub fn probe_ladder_apply_windows(nprocs: u32, iters: usize, reps: u32) -> Probe {
    let mut b = ibp_trace::TraceBuilder::new("bench-ladder", nprocs);
    for it in 0..iters {
        for r in 0..nprocs {
            let lead = if it == 0 { 0 } else { 20_000 };
            b.compute(r, SimDuration::from_us(lead));
            b.op(
                r,
                ibp_trace::MpiOp::Sendrecv {
                    to: (r + 1) % nprocs,
                    send_bytes: 2048,
                    from: (r + nprocs - 1) % nprocs,
                    recv_bytes: 2048,
                },
            );
            b.compute(r, SimDuration::from_us(300));
            b.op(r, ibp_trace::MpiOp::Allreduce { bytes: 8 });
            b.compute(r, SimDuration::from_us(2_000));
            b.op(r, ibp_trace::MpiOp::Allreduce { bytes: 8 });
        }
    }
    let trace = b.build();
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01).with_ladder();
    let ann = annotate_trace_jobs(&trace, &cfg, 1);
    let params = SimParams::paper();
    let opts = ReplayOptions::default();
    let events: u64 = trace.ranks.iter().map(|r| r.events.len() as u64).sum();
    let mut scratch = ReplayScratch::new();
    measure(LADDER_PROBE, reps, || {
        let r = replay_with_scratch(&trace, Some(&ann), &params, &opts, &mut scratch)
            .expect("bench ladder replay");
        assert!(
            r.mean_sleep_fraction(SleepKind::Rate) > 0.0
                && r.mean_sleep_fraction(SleepKind::Deep) > 0.0,
            "ladder probe never reached its deeper rungs"
        );
        events
    })
}

/// The Table III / Fig. 10 GT sweep at 1% displacement on NAS-MG at 16
/// ranks (the paper seed), reported as [`GT_SWEEP_PROBE`]. The element
/// is one event at one grid point, the work a sweep that annotated
/// every point would do, so the probe falls when the sweep skips
/// annotations. The trace is a fixed paper cell: `--iters` does not
/// scale it.
pub fn probe_gt_sweep(reps: u32) -> Probe {
    use ibp_analysis::{exhibits::SEED, make_trace, sweep, GT_GRID_US};
    let trace = make_trace(ibp_workloads::AppKind::NasMg, 16, SEED);
    let events: u64 = trace.ranks.iter().map(|r| r.events.len() as u64).sum();
    measure(GT_SWEEP_PROBE, reps, || {
        let points = sweep(&trace, 0.01);
        assert_eq!(points.len(), GT_GRID_US.len());
        events * GT_GRID_US.len() as u64
    })
}

/// Whole-trace annotation with rank parallelism, ns/event at `jobs`
/// worker threads. The small probe sits under the engine's serial
/// cutover ([`ibp_core::SERIAL_CUTOVER_EVENTS`]), so `jobs4` measures
/// the cutover's no-pool path; [`probe_annotate_big`] measures the real
/// parallel path above it.
pub fn probe_annotate(nprocs: u32, iters: usize, jobs: usize, reps: u32) -> Probe {
    annotate_probe_named(
        nprocs,
        iters,
        jobs,
        reps,
        format!("annotate_jobs{jobs}_ns_per_event"),
    )
}

/// [`probe_annotate`] on a trace sized above the serial cutover, so
/// multi-job runs exercise the thread pool for real. Reported as
/// `annotate_big_jobs{jobs}_ns_per_event`.
pub fn probe_annotate_big(nprocs: u32, iters: usize, jobs: usize, reps: u32) -> Probe {
    let trace = replay_trace(nprocs, iters);
    debug_assert!(
        jobs <= 1 || ibp_core::effective_jobs(&trace.ranks, jobs) == jobs.min(trace.ranks.len()),
        "big annotate probe fell below the serial cutover"
    );
    drop(trace);
    annotate_probe_named(
        nprocs,
        iters,
        jobs,
        reps,
        format!("annotate_big_jobs{jobs}_ns_per_event"),
    )
}

fn annotate_probe_named(nprocs: u32, iters: usize, jobs: usize, reps: u32, name: String) -> Probe {
    let trace = replay_trace(nprocs, iters);
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let events: u64 = trace.ranks.iter().map(|r| r.events.len() as u64).sum();
    measure(name, reps, || {
        let ann = annotate_trace_jobs(&trace, &cfg, jobs);
        assert_eq!(ann.ranks.len(), nprocs as usize);
        events
    })
}

/// Full protocol round trip through an in-process Unix-socket server,
/// ns/event aggregated over concurrent sessions: frame encode, socket
/// hop, panic-free decode, batch apply on the intercept hot path (on
/// the event loop itself, as every session here stays hot and idle
/// between its batches), and the directive stream back. One server is
/// bound per probe; every repetition reconnects its sessions (session
/// ids are reusable after `Close`), so connection setup is amortised
/// over the stream, exactly as `ibpower load` does it. Since the
/// observability layer landed, this path is also the metrics-
/// instrumented one — every batch bumps the registry's atomic counters
/// — so the probe measures (and the `--check` gate bounds) the
/// instrumented cost, not a bare-path fiction.
pub fn probe_serve_roundtrip(iters: usize, sessions: usize, reps: u32) -> Probe {
    use ibp_serve::{run_load, Endpoint, LoadConfig, ServeConfig, Server, SessionSpec};

    let stream = alya_stream(iters);
    let events: Vec<(u16, u64)> = stream
        .iter()
        .map(|&(call, gap)| (call.id(), gap.as_ns()))
        .collect();
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let specs: Vec<SessionSpec> = (0..sessions as u32)
        .map(|rank| SessionSpec {
            rank,
            config: cfg.clone(),
            events: events.clone(),
            final_compute_ns: 0,
            golden_directives: None,
            golden_stats: None,
        })
        .collect();
    let total_events = (events.len() * sessions) as u64;

    let path = std::env::temp_dir().join(format!("ibp-bench-serve-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(path);
    let server = Server::bind(&endpoint, ServeConfig::default()).expect("bench server bind");
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());

    let load = LoadConfig {
        batch: 64,
        split: None,
        check: false,
        ..Default::default()
    };
    let probe = measure(SERVE_PROBE, reps, || {
        let report = run_load(&bound, specs.clone(), &load).expect("bench load");
        assert_eq!(report.events_total, total_events);
        total_events
    });

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    handle.join().expect("bench server thread");
    probe
}

/// [`probe_serve_roundtrip`]'s scale-mode sibling: `sessions` sessions
/// multiplexed over a handful of driver connections against a
/// store-backed server whose LRU hot cap is an eighth of the session
/// count, ns/event. Every repetition therefore pages engines to and
/// from the snapshot store as the drivers round-robin the fleet — the
/// steady-state cost of serving far more sessions than fit in memory.
pub fn probe_serve_scale(iters: usize, sessions: usize, reps: u32) -> Probe {
    use ibp_serve::{
        run_load, Endpoint, LoadConfig, ServeConfig, Server, SessionSpec, SnapshotStore,
    };

    let stream = alya_stream(iters);
    let events: Vec<(u16, u64)> = stream
        .iter()
        .map(|&(call, gap)| (call.id(), gap.as_ns()))
        .collect();
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let specs: Vec<SessionSpec> = (0..sessions as u32)
        .map(|rank| SessionSpec {
            rank,
            config: cfg.clone(),
            events: events.clone(),
            final_compute_ns: 0,
            golden_directives: None,
            golden_stats: None,
        })
        .collect();
    let total_events = (events.len() * sessions) as u64;

    let dir = std::env::temp_dir().join(format!("ibp-bench-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = SnapshotStore::open(&dir.join("store")).expect("bench scale store");
    let endpoint = Endpoint::Unix(dir.join("scale.sock"));
    let server = Server::bind(
        &endpoint,
        ServeConfig {
            workers: 2,
            io_threads: 2,
            max_hot_sessions: Some((sessions / 8).max(1)),
            ..Default::default()
        },
    )
    .expect("bench scale bind")
    .with_store(std::sync::Arc::new(store));
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());

    let load = LoadConfig {
        batch: 64,
        drivers: 8.min(sessions.max(1)),
        ..Default::default()
    };
    let probe = measure(SCALE_PROBE, reps, || {
        let report = run_load(&bound, specs.clone(), &load).expect("bench scale load");
        assert_eq!(report.events_total, total_events);
        total_events
    });

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let summary = handle.join().expect("bench scale server thread");
    assert!(
        summary.evictions > 0,
        "scale probe never paged: {summary:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    probe
}

/// Run every probe at a size scaled by `iters` (the `--iters` flag;
/// the default 2000 is a 10k-call intercept stream).
pub fn run_all(iters: usize, reps: u32) -> Vec<Probe> {
    // Clamp the derived sizes so even the smallest accepted --iters
    // still produces non-empty workloads for every probe.
    let replay_iters = (iters / 40).max(1);
    // 16 ranks x 2 events/iter: 1024 iterations give the probe its
    // 32k-event floor even when --iters is small.
    let replay_big_iters = iters.max(2048) / 2;
    // 128 ranks x 2 events/iter: 128 iterations, the same 32k-event floor.
    let replay_wide_iters = iters.max(2048) / 16;
    // 128 ranks x 2 events/iter with 16 256 messages per allgather: 32
    // iterations, 520k messages.
    let replay_ring_iters = iters.max(2048) / 64;
    // 8 ranks x 2 events/iter: 2048 iterations is exactly the serial
    // cutover, so the big probes always take the parallel path.
    let big_iters = iters.max(ibp_core::SERIAL_CUTOVER_EVENTS / 16);
    vec![
        probe_intercept(iters, reps),
        probe_ppa_scan((3 * iters / 2).max(12), reps),
        probe_replay(8, replay_iters, reps),
        probe_replay_big(16, replay_big_iters, reps),
        probe_replay_wide(128, replay_wide_iters, reps),
        probe_replay_ring(128, replay_ring_iters, reps),
        // Enough periods that the predictor trains and the ladder's
        // deeper rungs engage even at the CLI's minimum --iters.
        probe_ladder_apply_windows(8, replay_iters.max(30), reps),
        probe_annotate(8, replay_iters, 1, reps),
        probe_annotate(8, replay_iters, 4, reps),
        probe_annotate_big(8, big_iters, 1, reps),
        probe_annotate_big(8, big_iters, 4, reps),
        probe_gt_sweep(reps),
        probe_serve_roundtrip((iters / 4).max(2), 4, reps),
        probe_serve_scale((iters / 8).max(2), 48, reps),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_produce_finite_positive_numbers() {
        // 10 is the CLI's minimum --iters; both sizes must work.
        for iters in [10, 200] {
            for p in run_all(iters, 1) {
                assert!(p.ns_per_elem.is_finite(), "{} @{iters}", p.name);
                assert!(p.ns_per_elem > 0.0, "{} @{iters}", p.name);
                assert!(p.elems > 0, "{} @{iters}", p.name);
            }
        }
    }

    #[test]
    fn entries_without_a_spread_still_load() {
        let old = r#"{"entries": [{"label": "old", "probes": [
            {"name": "intercept_ns_per_call", "ns_per_elem": 25.4, "elems": 10000, "reps": 5}
        ]}]}"#;
        let t: Trajectory = serde_json::from_str(old).unwrap();
        let p = t.entries[0].probe(INTERCEPT_PROBE).unwrap();
        assert_eq!(
            (p.ns_per_elem, p.median_ns_per_elem, p.iqr_ns_per_elem),
            (25.4, 0.0, 0.0)
        );
    }

    #[test]
    fn spread_is_taken_over_the_repetitions() {
        let mut times = [40u64, 10, 30, 20, 50].into_iter();
        let probe = measure("sleeps", 5, || {
            std::thread::sleep(std::time::Duration::from_millis(times.next().unwrap()));
            1_000
        });
        assert!(probe.ns_per_elem <= probe.median_ns_per_elem, "{probe:?}");
        assert!(probe.iqr_ns_per_elem > 0.0, "{probe:?}");
        assert_eq!((probe.elems, probe.reps), (1_000, 5));
    }

    #[test]
    fn trajectory_roundtrips_through_json() {
        let t = Trajectory {
            entries: vec![ReportEntry {
                label: "seed".into(),
                probes: vec![Probe {
                    name: INTERCEPT_PROBE.into(),
                    ns_per_elem: 42.5,
                    median_ns_per_elem: 44.0,
                    iqr_ns_per_elem: 1.5,
                    elems: 1000,
                    reps: 3,
                }],
            }],
        };
        let s = serde_json::to_string_pretty(&t).unwrap();
        let back: Trajectory = serde_json::from_str(&s).unwrap();
        assert_eq!(back.entries.len(), 1);
        assert_eq!(
            back.entries[0].probe(INTERCEPT_PROBE).unwrap().ns_per_elem,
            42.5
        );
    }
}
