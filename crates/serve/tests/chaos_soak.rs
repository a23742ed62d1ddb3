//! Chaos soak: the serving stack under a fault-injecting transport.
//!
//! These tests drive real sessions through seeded chaos wrappers —
//! partial writes, short reads, stalls, resets, bit flips — on the
//! client side, the server side, and both, and assert the *invariants*
//! the stack promises rather than exact fault counts (socket read
//! sizes vary run to run, so the fault sequence is only seed-stable
//! per connection):
//!
//! - zero worker panics and zero worker respawns,
//! - every session finishes and matches the offline golden annotation
//!   byte for byte, however many reconnect cycles it took,
//! - no session gives up: reconnect cycles stay within the retry
//!   budget (an exhausted budget is reported as `gave_up` in the load
//!   report, and the soak asserts that count is zero),
//! - observability counters sampled mid-chaos via `Query` frames are
//!   monotonic scrape to scrape and agree with the final
//!   `ServeSummary` once the fleet drains.

use ibp_core::{annotate_rank, PowerConfig};
use ibp_serve::{
    run_load, ChaosConfig, Client, Endpoint, LoadConfig, ProtocolError, RetryPolicy, ServeConfig,
    Server, SessionSpec, SnapshotStore,
};
use ibp_trace::MpiCall;
use ibp_workloads::{AppKind, Scaling};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ibp-chaos-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn specs_for(app: AppKind, nprocs: u32, sessions: usize) -> Vec<SessionSpec> {
    let cfg = PowerConfig::default();
    let trace = app.workload(Scaling::Strong).generate(nprocs, 42);
    (0..sessions)
        .map(|i| {
            let rank = &trace.ranks[i % nprocs as usize];
            let golden = annotate_rank(rank, &cfg);
            SessionSpec {
                rank: rank.rank,
                config: cfg.clone(),
                events: rank
                    .call_stream()
                    .map(|(call, gap)| (call.id(), gap.as_ns()))
                    .collect(),
                final_compute_ns: rank.final_compute.as_ns(),
                golden_directives: Some(golden.directives.clone()),
                golden_stats: Some(golden.stats),
            }
        })
        .collect()
}

/// A retry budget generous enough that a soak run never flakes on an
/// unlucky fault cluster, while still being a real bound.
fn soak_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 16,
        base_backoff_ms: 5,
        max_backoff_ms: 100,
        ..Default::default()
    }
}

struct SoakOutcome {
    report: ibp_serve::LoadReport,
    summary: ibp_serve::ServeSummary,
}

fn soak(tag: &str, serve_cfg: ServeConfig, load_cfg: &LoadConfig, with_store: bool) -> SoakOutcome {
    let dir = temp_dir(tag);
    let endpoint = Endpoint::Unix(dir.join("soak.sock"));
    let mut server = Server::bind(&endpoint, serve_cfg).expect("bind");
    if with_store {
        let (store, _) = SnapshotStore::open(&dir.join("store")).expect("store");
        server = server.with_store(Arc::new(store));
    }
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());
    let specs = specs_for(AppKind::Alya, 4, 6);
    let report = run_load(&bound, specs, load_cfg).expect("soak load");
    stop.store(true, Ordering::Relaxed);
    let summary = handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
    SoakOutcome { report, summary }
}

fn assert_invariants(out: &SoakOutcome) {
    assert!(
        out.report.parity_checked,
        "golden annotations were supplied"
    );
    assert!(
        out.report.parity_ok,
        "parity failed: {:?}",
        out.report.per_session
    );
    assert_eq!(
        out.report.gave_up, 0,
        "session(s) gave up: {:?}",
        out.report.per_session
    );
    assert_eq!(out.summary.worker_panics, 0, "{:?}", out.summary);
    assert_eq!(out.summary.worker_respawns, 0, "{:?}", out.summary);
    // Reconnect cycles are bounded: each cycle burns at least one
    // attempt from a budget that resets only on progress, so a runaway
    // reconnect loop would blow well past this.
    let cap = 16 * out.report.per_session.len() as u64 * 8;
    assert!(
        out.report.reconnects <= cap,
        "runaway reconnects: {:?}",
        out.report
    );
}

#[test]
fn client_side_chaos_preserves_parity() {
    let out = soak(
        "client",
        ServeConfig {
            workers: 3,
            persist_every: 64,
            ..Default::default()
        },
        &LoadConfig {
            batch: 23,
            check: true,
            chaos: Some(ChaosConfig::with_intensity(0xC0FFEE, 0.05)),
            retry: soak_retry(),
            ..Default::default()
        },
        true,
    );
    assert_invariants(&out);
}

#[test]
fn server_side_chaos_preserves_parity() {
    let out = soak(
        "server",
        ServeConfig {
            workers: 3,
            persist_every: 64,
            chaos: Some(ChaosConfig::with_intensity(0x5EED, 0.05)),
            ..Default::default()
        },
        &LoadConfig {
            batch: 23,
            check: true,
            retry: soak_retry(),
            ..Default::default()
        },
        true,
    );
    assert_invariants(&out);
}

#[test]
fn chaos_with_mid_stream_splits_preserves_parity() {
    // Snapshot/restore splits and transport faults at the same time:
    // the client snapshots at 40%, drops the connection, restores, and
    // meanwhile both directions inject faults.
    let out = soak(
        "split",
        ServeConfig {
            workers: 2,
            persist_every: 32,
            chaos: Some(ChaosConfig::with_intensity(0xAB, 0.03)),
            ..Default::default()
        },
        &LoadConfig {
            batch: 17,
            split: Some(0.4),
            check: true,
            chaos: Some(ChaosConfig::with_intensity(0xBA, 0.03)),
            retry: soak_retry(),
            ..Default::default()
        },
        true,
    );
    assert_invariants(&out);
}

#[test]
fn chaos_without_store_still_converges() {
    // No snapshot store: every reconnect falls back to a fresh Open
    // and a full resend. Parity must still hold — the engine is
    // deterministic — it just costs more retransmission.
    let out = soak(
        "nostore",
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
        &LoadConfig {
            batch: 31,
            check: true,
            chaos: Some(ChaosConfig::with_intensity(0xD15C, 0.04)),
            retry: soak_retry(),
            ..Default::default()
        },
        false,
    );
    assert_invariants(&out);
}

#[test]
fn multiplexed_chaos_with_splits_preserves_parity() {
    // The same faults and splits on multiplexed drivers: two
    // connections carry three sessions each, so a fault or a split
    // detaches a whole partition and every session re-attaches from
    // the store (or the carried snapshot) on the next connection.
    let out = soak(
        "multiplexed",
        ServeConfig {
            workers: 2,
            persist_every: 32,
            ..Default::default()
        },
        &LoadConfig {
            batch: 17,
            split: Some(0.4),
            check: true,
            chaos: Some(ChaosConfig::with_intensity(0xD21E, 0.03)),
            retry: soak_retry(),
            drivers: 2,
            ..Default::default()
        },
        true,
    );
    assert_invariants(&out);
    // Each split detaches its partition's other sessions, so lazy
    // store re-attaches must have happened.
    assert!(out.report.reconnects > 0, "{:?}", out.report);
    assert!(out.summary.sessions_rehydrated > 0, "{:?}", out.summary);
}

/// The counter fields of a `ServeSummary` as a flat vector, for
/// scrape-to-scrape monotonicity checks.
fn counter_vec(s: &ibp_serve::ServeSummary) -> [u64; 12] {
    [
        s.sessions_opened,
        s.sessions_closed,
        s.events_applied,
        s.directives_sent,
        s.protocol_errors,
        s.responses_shed,
        s.worker_panics,
        s.worker_respawns,
        s.snapshots_persisted,
        s.persist_failures,
        s.sessions_rehydrated,
        s.evictions,
    ]
}

#[test]
fn metrics_coherent_under_chaos() {
    // A scraper fires Query frames over its own (healthy) connection
    // while a chaos-wrapped fleet streams. Invariants: every counter is
    // monotonic scrape to scrape — a probe can never observe a counter
    // going backwards, whatever faults, reconnects, and restores are in
    // flight — and a post-drain probe agrees exactly with the
    // `ServeSummary` the server returns when it stops.
    let dir = temp_dir("coherent");
    let endpoint = Endpoint::Unix(dir.join("soak.sock"));
    let mut server = Server::bind(
        &endpoint,
        ServeConfig {
            workers: 3,
            persist_every: 64,
            ..Default::default()
        },
    )
    .expect("bind");
    let (store, _) = SnapshotStore::open(&dir.join("store")).expect("store");
    server = server.with_store(Arc::new(store));
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());

    let scrape_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let bound = bound.clone();
        let scrape_stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || {
            let mut scraper = Client::connect(&bound).expect("scraper connect");
            let mut prev: Option<[u64; 12]> = None;
            let mut scrapes = 0u32;
            while !scrape_stop.load(Ordering::Relaxed) {
                let report = scraper.query_server().expect("mid-chaos query");
                let now = counter_vec(&report.server.summary);
                if let Some(prev) = prev {
                    for (i, (&p, &n)) in prev.iter().zip(&now).enumerate() {
                        assert!(n >= p, "counter {i} went backwards: {p} -> {n}");
                    }
                }
                prev = Some(now);
                scrapes += 1;
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            scrapes
        })
    };

    let report = run_load(
        &bound,
        specs_for(AppKind::Alya, 4, 6),
        &LoadConfig {
            batch: 19,
            check: true,
            chaos: Some(ChaosConfig::with_intensity(0x0B5E, 0.05)),
            retry: soak_retry(),
            ..Default::default()
        },
    )
    .expect("soak load");
    assert!(
        report.parity_ok,
        "parity under scraping: {:?}",
        report.per_session
    );
    assert_eq!(report.gave_up, 0, "{:?}", report.per_session);

    scrape_stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes > 0, "the scraper never got a probe in");

    // The fleet has drained and the scraper is gone: one final Query
    // must agree exactly with the summary `run()` hands back.
    let mut last = Client::connect(&bound).expect("final connect");
    let final_probe = last.query_server().expect("final query");
    drop(last);
    stop.store(true, Ordering::Relaxed);
    let summary = handle.join().expect("server thread");
    let probed = &final_probe.server.summary;
    assert_eq!(
        probed.responses_shed, summary.responses_shed,
        "{probed:?} vs {summary:?}"
    );
    assert_eq!(
        probed.worker_respawns, summary.worker_respawns,
        "{probed:?} vs {summary:?}"
    );
    assert_eq!(
        probed.worker_panics, summary.worker_panics,
        "{probed:?} vs {summary:?}"
    );
    assert_eq!(
        probed.sessions_opened, summary.sessions_opened,
        "{probed:?} vs {summary:?}"
    );
    assert_eq!(
        probed.sessions_closed, summary.sessions_closed,
        "{probed:?} vs {summary:?}"
    );
    assert_eq!(
        probed.events_applied, summary.events_applied,
        "{probed:?} vs {summary:?}"
    );
    assert_eq!(
        probed.directives_sent, summary.directives_sent,
        "{probed:?} vs {summary:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_panic_is_isolated_to_its_session() {
    let dir = temp_dir("panic");
    let endpoint = Endpoint::Unix(dir.join("soak.sock"));
    let server = Server::bind(
        &endpoint,
        // A valid id (the decoder rejects unmapped ones) that no
        // workload trace emits.
        ServeConfig {
            workers: 2,
            panic_on_call: Some(MpiCall::Finalize.id()),
            ..Default::default()
        },
    )
    .expect("bind");
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());

    let cfg = PowerConfig::default();
    let mut victim = Client::connect(&bound).expect("connect");
    victim.open(0, 0, &cfg).expect("open");
    let (applied, _) = victim
        .send_events(0, &[(41, 0), (41, 2_000)])
        .expect("events");
    assert_eq!(applied, 2);
    // The poisoned batch blows up its worker; the panic must come back
    // as an in-band INTERNAL error, not a dead connection.
    let err = victim
        .send_events(0, &[(MpiCall::Finalize.id(), 0)])
        .unwrap_err();
    match err {
        ProtocolError::Remote { code, .. } => {
            assert_eq!(code, ibp_serve::protocol::error_code::INTERNAL);
        }
        other => panic!("expected in-band Remote error, got {other:?}"),
    }

    // A healthy session on the same server keeps working end to end.
    let mut healthy = Client::connect(&bound).expect("connect");
    healthy.open(1, 0, &cfg).expect("open");
    let (applied, _) = healthy
        .send_events(1, &[(41, 0), (41, 2_000), (41, 2_000)])
        .expect("events");
    assert_eq!(applied, 3);
    let (_total, _stats) = healthy.close(1, 0).expect("close");

    victim.abandon();
    drop(healthy);
    stop.store(true, Ordering::Relaxed);
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.worker_panics, 1, "{summary:?}");
    assert_eq!(summary.sessions_closed, 1, "{summary:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_stop_persists_unclosed_sessions() {
    // A client streams halfway and never closes; stopping the server
    // must persist the session so a restarted server (same store) can
    // rehydrate it and the client can resume where it left off.
    let dir = temp_dir("drain");
    let store_dir = dir.join("store");
    let endpoint = Endpoint::Unix(dir.join("soak.sock"));
    let cfg = PowerConfig::default();
    let spec = &specs_for(AppKind::Alya, 4, 1)[0];
    let half = spec.events.len() / 2;

    // First server: stream half the events, abandon, stop.
    let (store, _) = SnapshotStore::open(&store_dir).expect("store");
    let server = Server::bind(&endpoint, ServeConfig::default())
        .expect("bind")
        .with_store(Arc::new(store));
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&bound).expect("connect");
    client.open(9, spec.rank, &cfg).expect("open");
    let mut sent = Vec::new();
    for chunk in spec.events[..half].chunks(37) {
        let (_, d) = client.send_events(9, chunk).expect("events");
        sent.extend(d);
    }
    client.abandon(); // vanish without Close
    stop.store(true, Ordering::Relaxed);
    let summary = handle.join().expect("server thread");
    assert!(summary.snapshots_persisted > 0, "{summary:?}");

    // Second server, same store: an empty-body Restore must rehydrate
    // the session at (or before) the abandon point, replaying a
    // directive history that prefixes what the first run streamed.
    let (store, recovery) = SnapshotStore::open(&store_dir).expect("reopen store");
    assert_eq!(recovery.loaded, 1, "{recovery:?}");
    let server = Server::bind(&endpoint, ServeConfig::default())
        .expect("rebind")
        .with_store(Arc::new(store));
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&bound).expect("reconnect");
    let resume = client.restore_from_store(9).expect("rehydrate");
    let resume_at = resume.events_applied;
    assert!(
        resume_at as usize <= half,
        "cannot resume past what was sent"
    );
    assert!(resume_at > 0, "drain persisted nothing");
    // The server's directive count and digest must match a prefix of
    // what the first run streamed.
    let mut journal = sent;
    resume
        .align(&mut journal)
        .expect("count and digest match the live run's prefix");

    // Resume streaming to the end and check full-session parity.
    for chunk in spec.events[resume_at as usize..].chunks(53) {
        let (_, d) = client.send_events(9, chunk).expect("resume events");
        journal.extend(d);
    }
    let (_total, stats) = client.close(9, spec.final_compute_ns).expect("close");
    assert_eq!(
        Some(&journal),
        spec.golden_directives.as_ref(),
        "resumed parity"
    );
    assert_eq!(
        Some(&stats),
        spec.golden_stats.as_ref(),
        "resumed stats parity"
    );

    drop(client);
    stop.store(true, Ordering::Relaxed);
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.sessions_rehydrated, 1, "{summary:?}");
    assert_eq!(summary.sessions_closed, 1, "{summary:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
