//! End-to-end server tests over real sockets: streamed directives must
//! be byte-identical to the offline `annotate_rank` golden path, across
//! transports, batch sizes, and snapshot/restore reconnects.

use ibp_core::{annotate_rank, PowerConfig};
use ibp_serve::{
    run_load, Client, Endpoint, LoadConfig, ProtocolError, RetryPolicy, ServeConfig, Server,
    SessionSpec,
};
use ibp_workloads::{AppKind, Scaling};
use std::sync::atomic::Ordering;

fn temp_uds(tag: &str) -> Endpoint {
    let dir = std::env::temp_dir().join("ibp-serve-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let pid = std::process::id();
    Endpoint::Unix(dir.join(format!("{tag}-{pid}.sock")))
}

fn specs_for(app: AppKind, nprocs: u32, sessions: usize, check: bool) -> Vec<SessionSpec> {
    let cfg = PowerConfig::default();
    let trace = app.workload(Scaling::Strong).generate(nprocs, 42);
    (0..sessions)
        .map(|i| {
            let rank = &trace.ranks[i % nprocs as usize];
            let golden = check.then(|| annotate_rank(rank, &cfg));
            SessionSpec {
                rank: rank.rank,
                config: cfg.clone(),
                events: rank
                    .call_stream()
                    .map(|(call, gap)| (call.id(), gap.as_ns()))
                    .collect(),
                final_compute_ns: rank.final_compute.as_ns(),
                golden_directives: golden.as_ref().map(|g| g.directives.clone()),
                golden_stats: golden.map(|g| g.stats),
            }
        })
        .collect()
}

fn serve_and_load(
    endpoint: &Endpoint,
    serve_cfg: ServeConfig,
    specs: Vec<SessionSpec>,
    load_cfg: &LoadConfig,
) -> (ibp_serve::LoadReport, ibp_serve::ServeSummary) {
    let server = Server::bind(endpoint, serve_cfg).expect("bind");
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());
    let report = run_load(&bound, specs, load_cfg).expect("load");
    stop.store(true, Ordering::Relaxed);
    let summary = handle.join().expect("server thread");
    (report, summary)
}

#[test]
fn uds_roundtrip_matches_offline_annotation() {
    let endpoint = temp_uds("parity");
    let specs = specs_for(AppKind::Alya, 4, 4, true);
    let events_expected: u64 = specs.iter().map(|s| s.events.len() as u64).sum();
    let (report, summary) = serve_and_load(
        &endpoint,
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
        specs,
        &LoadConfig {
            batch: 33,
            ..Default::default()
        },
    );
    // parity check must actually run
    let (report2, _) = serve_and_load(
        &endpoint,
        ServeConfig::default(),
        specs_for(AppKind::Alya, 4, 4, true),
        &LoadConfig {
            batch: 33,
            check: true,
            ..Default::default()
        },
    );
    assert!(
        report2.parity_checked && report2.parity_ok,
        "parity failed: {report2:?}"
    );
    assert_eq!(report.events_total, events_expected);
    assert_eq!(summary.events_applied, events_expected);
    assert_eq!(summary.sessions_opened, 4);
    assert_eq!(summary.sessions_closed, 4);
    assert_eq!(summary.directives_sent, report.directives_total);
}

#[test]
fn tcp_roundtrip_with_snapshot_split_is_transparent() {
    let endpoint = Endpoint::Tcp("127.0.0.1:0".into());
    let specs = specs_for(AppKind::NasBt, 9, 6, true);
    let (report, summary) = serve_and_load(
        &endpoint,
        ServeConfig {
            workers: 3,
            ..Default::default()
        },
        specs,
        &LoadConfig {
            batch: 17,
            split: Some(0.5),
            check: true,
            ..Default::default()
        },
    );
    assert!(report.parity_ok, "split-parity failed: {report:?}");
    // A split session opens twice (fresh + restored) but closes once.
    assert_eq!(summary.sessions_opened, 12);
    assert_eq!(summary.sessions_closed, 6);
}

#[test]
fn every_paper_app_streams_with_parity() {
    for app in AppKind::ALL {
        let nprocs = app.workload(Scaling::Strong).paper_procs()[0];
        let endpoint = temp_uds(app.name());
        let specs = specs_for(app, nprocs, 2, true);
        let (report, _) = serve_and_load(
            &endpoint,
            ServeConfig {
                workers: 2,
                ..Default::default()
            },
            specs,
            &LoadConfig {
                batch: 64,
                check: true,
                ..Default::default()
            },
        );
        assert!(
            report.parity_ok,
            "{}: parity failed: {report:?}",
            app.name()
        );
    }
}

#[test]
fn mid_stream_queries_do_not_perturb_the_stream() {
    // The tentpole acceptance criterion for observability: a session
    // interleaving Query frames into its event stream receives the
    // byte-identical directive stream a query-free run produces. The
    // server answers Query inline on the connection reader — it never
    // enters the session mailbox — so probes are invisible to the FIFO.
    let endpoint = temp_uds("query-parity");
    let server = Server::bind(
        &endpoint,
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind");
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());

    let spec = &specs_for(AppKind::Alya, 4, 1, true)[0];
    let golden = spec.golden_directives.as_ref().expect("checked spec");

    let mut client = Client::connect(&bound).expect("connect");
    client.open(0, spec.rank, &spec.config).expect("open");
    let mut journal = Vec::new();
    let mut probes = 0u32;
    for (i, chunk) in spec.events.chunks(29).enumerate() {
        let (_, d) = client.send_events(0, chunk).expect("events");
        journal.extend(d);
        // Probe between every other batch: own session, then the fleet.
        if i % 2 == 0 {
            let report = client.query(0).expect("own-session query");
            assert_eq!(report.sessions.len(), 1, "{report:?}");
            assert_eq!(report.sessions[0].session, 0);
            probes += 1;
        } else {
            let report = client.query_server().expect("fleet query");
            assert_eq!(report.server.sessions_live, 1, "{report:?}");
            probes += 1;
        }
    }
    let (_total, stats) = client.close(0, spec.final_compute_ns).expect("close");
    assert!(probes > 4, "the interleave exercised real probes");
    assert_eq!(&journal, golden, "queries perturbed the directive stream");
    assert_eq!(
        Some(&stats),
        spec.golden_stats.as_ref(),
        "queries perturbed final stats"
    );

    stop.store(true, Ordering::Relaxed);
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.events_applied, spec.events.len() as u64);
}

#[test]
fn scale_mode_multiplexes_sessions_with_parity() {
    // Scale mode: many sessions over few driver connections, with the
    // LRU hot cap well below the session count, must still match the
    // offline annotation per session — and must really have paged.
    let endpoint = temp_uds("scale");
    let specs = specs_for(AppKind::Alya, 4, 24, true);
    let server = Server::bind(
        &endpoint,
        ServeConfig {
            workers: 2,
            io_threads: 2,
            max_hot_sessions: Some(6),
            ..Default::default()
        },
    )
    .expect("bind");
    let store_dir = std::env::temp_dir()
        .join("ibp-serve-e2e")
        .join(format!("scale-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let (store, _) = ibp_serve::SnapshotStore::open(&store_dir).expect("store");
    let server = server.with_store(std::sync::Arc::new(store));
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());

    let report = run_load(
        &bound,
        specs,
        &LoadConfig {
            batch: 48,
            check: true,
            drivers: 4,
            open_rate: 4_000,
            ..Default::default()
        },
    )
    .expect("scale load");
    assert!(
        report.parity_checked && report.parity_ok,
        "scale parity failed: {report:?}"
    );
    assert_eq!(report.per_session.len(), 24);

    stop.store(true, Ordering::Relaxed);
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.sessions_closed, 24, "{summary:?}");
    assert!(
        summary.evictions > 0,
        "hot cap 6 < 24 sessions must evict: {summary:?}"
    );
    assert!(
        summary.sessions_rehydrated > 0,
        "evicted sessions were touched: {summary:?}"
    );
    assert_eq!(summary.worker_panics, 0, "{summary:?}");
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn spent_retry_budget_gives_up_the_whole_partition() {
    // Nothing listens on this socket: every connect fails, so each
    // driver spends its budget and reports every session of its
    // partition as given up — a reported outcome, not a run error.
    let endpoint = temp_uds("nobody-home");
    let report = run_load(
        &endpoint,
        specs_for(AppKind::Alya, 4, 5, true),
        &LoadConfig {
            check: true,
            drivers: 2,
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_ms: 1,
                max_backoff_ms: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("a spent budget is reported");
    assert_eq!(report.gave_up, 5, "{report:?}");
    assert!(report.parity_checked && !report.parity_ok, "{report:?}");
    for o in &report.per_session {
        assert!(
            o.gave_up && o.events == 0 && o.parity_ok == Some(false),
            "{o:?}"
        );
    }
}

#[test]
fn session_limit_stops_the_server() {
    let endpoint = temp_uds("limit");
    let server = Server::bind(
        &endpoint,
        ServeConfig {
            session_limit: Some(2),
            ..Default::default()
        },
    )
    .expect("bind");
    let bound = server.endpoint().clone();
    let handle = std::thread::spawn(move || server.run());
    let specs = specs_for(AppKind::Alya, 4, 2, false);
    run_load(&bound, specs, &LoadConfig::default()).expect("load");
    // run() must return on its own — no stop flag raised here.
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.sessions_closed, 2);
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let endpoint = temp_uds("errors");
    let server = Server::bind(&endpoint, ServeConfig::default()).expect("bind");
    let bound = server.endpoint().clone();
    let stop = server.stop_flag();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&bound).expect("connect");
    // Events for a session that was never opened -> remote error.
    let err = client.send_events(7, &[(41, 0)]).unwrap_err();
    assert!(matches!(err, ProtocolError::Remote { .. }), "got {err:?}");

    // Duplicate open -> remote error, original session intact.
    let mut c2 = Client::connect(&bound).expect("connect");
    c2.open(1, 0, &PowerConfig::default()).expect("open");
    let err = c2.open(1, 0, &PowerConfig::default()).unwrap_err();
    assert!(matches!(err, ProtocolError::Remote { .. }), "got {err:?}");
    let (applied, _) = c2.send_events(1, &[(41, 0), (41, 2_000)]).expect("events");
    assert_eq!(applied, 2);

    // Restoring garbage -> remote error with the snapshot code.
    let err = c2.restore(2, b"junk").unwrap_err();
    match err {
        ProtocolError::Remote { code, .. } => {
            assert_eq!(code, ibp_serve::protocol::error_code::BAD_SNAPSHOT);
        }
        other => panic!("expected Remote, got {other:?}"),
    }

    stop.store(true, Ordering::Relaxed);
    let summary = handle.join().expect("server thread");
    assert!(summary.protocol_errors >= 3, "{summary:?}");
}
