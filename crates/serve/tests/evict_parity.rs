//! Property tests for session paging and for the server's two apply
//! paths. Under an LRU hot-set cap smaller than the session count, any
//! interleaving of event batches, evictions, transparent
//! rehydrations, and mid-stream reconnects must stream directives
//! byte-identical to the offline `annotate_rank` golden path — paging
//! is invisible to clients or it is broken. The same holds when the
//! event loop applies batches of idle hot sessions inline while
//! workers take cold sessions, queued work and checkpoints: per-session
//! order and parity may not depend on which path a frame took.

use ibp_core::{annotate_rank, PowerConfig};
use ibp_serve::protocol::{
    decode_server, error_code, read_frame, read_hello, write_frame, write_hello,
};
use ibp_serve::{
    Client, ClientFrame, Endpoint, MetricsRegistry, ProtocolError, Resume, ServeConfig,
    ServeSummary, Server, ServerFrame, SnapshotStore, Stage,
};
use ibp_trace::MpiCall;
use ibp_workloads::{AppKind, Scaling};
use proptest::prelude::*;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ibp-evict-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One session's script and its offline golden expectations.
struct Script {
    rank: u32,
    events: Vec<(u16, u64)>,
    final_compute_ns: u64,
    golden: Vec<ibp_core::LaneDirective>,
    golden_stats: ibp_core::RankStats,
}

fn scripts(sessions: usize) -> Vec<Script> {
    let cfg = PowerConfig::default();
    let trace = AppKind::Alya.workload(Scaling::Strong).generate(4, 42);
    (0..sessions)
        .map(|i| {
            let rank = &trace.ranks[i % 4];
            let golden = annotate_rank(rank, &cfg);
            Script {
                rank: rank.rank,
                events: rank
                    .call_stream()
                    .map(|(call, gap)| (call.id(), gap.as_ns()))
                    .collect(),
                final_compute_ns: rank.final_compute.as_ns(),
                golden: golden.directives,
                golden_stats: golden.stats,
            }
        })
        .collect()
}

/// Reconnect and rehydrate with bounded retries: the server processes
/// the old connection's hangup asynchronously, so the first attempts
/// may race it and see a still-live (DUPLICATE) session.
fn reconnect(bound: &Endpoint, session: u32) -> (Client, Resume) {
    for _ in 0..400 {
        let mut client = Client::connect(bound).expect("reconnect");
        match client.restore_from_store(session) {
            Ok(resume) => return (client, resume),
            Err(ProtocolError::Remote { .. }) => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(other) => panic!("rehydrate after reconnect: {other:?}"),
        }
    }
    panic!("session {session} never became restorable after reconnect");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random interleavings with `max_hot_sessions` below the session
    /// count: parity per session, and the run must really have paged
    /// (nonzero evictions and rehydrations) for the property to mean
    /// anything.
    #[test]
    fn paged_interleavings_match_offline_annotation(
        sessions in 3usize..=5,
        cap in 1usize..=2,
        chunk in 8usize..48,
        order_seed in any::<u64>(),
        reconnect_mask in any::<u8>(),
    ) {
        let dir = temp_dir();
        let endpoint = Endpoint::Unix(dir.join("evict.sock"));
        let (store, _) = SnapshotStore::open(&dir.join("store")).expect("store");
        let server = Server::bind(
            &endpoint,
            ServeConfig {
                workers: 2,
                io_threads: 2,
                persist_every: 64,
                max_hot_sessions: Some(cap),
                ..Default::default()
            },
        )
        .expect("bind")
        .with_store(Arc::new(store));
        let bound = server.endpoint().clone();
        let stop = server.stop_flag();
        let handle = std::thread::spawn(move || server.run());

        let scripts = scripts(sessions);
        let mut clients: Vec<Client> = (0..sessions)
            .map(|_| Client::connect(&bound).expect("connect"))
            .collect();
        for (i, (client, script)) in clients.iter_mut().zip(&scripts).enumerate() {
            client.open(i as u32, script.rank, &PowerConfig::default()).expect("open");
        }

        let mut cursors = vec![0usize; sessions];
        let mut journals: Vec<Vec<ibp_core::LaneDirective>> =
            vec![Vec::new(); sessions];
        let mut reconnected = vec![false; sessions];
        let mut rng = order_seed | 1;
        loop {
            let live: Vec<usize> = (0..sessions)
                .filter(|&i| cursors[i] < scripts[i].events.len())
                .collect();
            if live.is_empty() {
                break;
            }
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let i = live[(rng as usize) % live.len()];
            let script = &scripts[i];

            // Mid-stream reconnect for masked sessions: vanish without
            // Close, rehydrate from the store, and truncate the parity
            // journal to the server's directive count.
            if !reconnected[i]
                && reconnect_mask & (1 << i) != 0
                && cursors[i] >= script.events.len() / 2
            {
                reconnected[i] = true;
                let (client, resume) = {
                    let fresh = Client::connect(&bound).expect("pre-reconnect");
                    std::mem::replace(&mut clients[i], fresh).abandon();
                    reconnect(&bound, i as u32)
                };
                clients[i] = client;
                let resume_at = resume.events_applied;
                prop_assert!(
                    resume_at as usize <= cursors[i],
                    "resume past what was sent: {} > {}", resume_at, cursors[i]
                );
                prop_assert!(
                    resume.align(&mut journals[i]).is_ok(),
                    "the server's count and digest must match a prefix of the live stream"
                );
                cursors[i] = resume_at as usize;
            }

            let take = (1 + (rng >> 32) as usize % chunk)
                .min(script.events.len() - cursors[i]);
            let batch = &script.events[cursors[i]..cursors[i] + take];
            let (_, directives) =
                clients[i].send_events(i as u32, batch).expect("events");
            journals[i].extend(directives);
            cursors[i] += take;
        }

        for (i, (client, script)) in clients.iter_mut().zip(&scripts).enumerate() {
            let (_total, stats) = client.close(i as u32, script.final_compute_ns).expect("close");
            prop_assert_eq!(&journals[i], &script.golden, "session {} parity", i);
            prop_assert_eq!(&stats, &script.golden_stats, "session {} stats", i);
        }

        drop(clients);
        stop.store(true, Ordering::Relaxed);
        let summary = handle.join().expect("server thread");
        prop_assert!(summary.evictions > 0, "no evictions happened: {:?}", summary);
        prop_assert!(
            summary.sessions_rehydrated > 0,
            "no rehydrations happened: {:?}", summary
        );
        prop_assert_eq!(summary.worker_panics, 0, "workers panicked: {:?}", summary);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A running server plus what a test needs to drive and stop it.
struct Running {
    bound: Endpoint,
    stop: Arc<std::sync::atomic::AtomicBool>,
    metrics: Arc<MetricsRegistry>,
    handle: std::thread::JoinHandle<ServeSummary>,
}

impl Running {
    fn start(endpoint: &Endpoint, cfg: ServeConfig, store: Option<Arc<SnapshotStore>>) -> Running {
        let server = Server::bind(endpoint, cfg).expect("bind");
        let server = match store {
            Some(store) => server.with_store(store),
            None => server,
        };
        let bound = server.endpoint().clone();
        let stop = server.stop_flag();
        let metrics = server.metrics();
        let handle = std::thread::spawn(move || server.run());
        Running {
            bound,
            stop,
            metrics,
            handle,
        }
    }

    fn stop(self) -> ServeSummary {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("server thread")
    }
}

/// Work items that went through a mailbox (a queued wait) and batches
/// the event loop applied inline (a wait of exactly zero).
fn mailbox_split(metrics: &MetricsRegistry) -> (u64, u64) {
    let wait = &metrics.stages[Stage::MailboxWait as usize];
    let inline = wait.bucket_counts()[0];
    (wait.count() - inline, inline)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One connection multiplexes several sessions and interleaves
    /// Events, Flush, Snapshot, Query and Close in random order, under
    /// a hot cap of 1–3 and a checkpoint every 1–3 batches. Inline
    /// apply, worker backlog, rehydration and in-flight checkpoints all
    /// happen; every session's directives and final stats must still
    /// equal `annotate_rank`, and every mid-stream Flush and Snapshot
    /// must reflect exactly the events sent before it.
    #[test]
    fn inline_and_worker_paths_keep_order_and_parity(
        cap in 1usize..=3,
        over_cap in 2usize..=3,
        batch in 8usize..40,
        persist_batches in 1u64..=3,
        order_seed in any::<u64>(),
    ) {
        let sessions = cap + over_cap;
        let dir = temp_dir();
        let (store, _) = SnapshotStore::open(&dir.join("store")).expect("store");
        let server = Running::start(
            &Endpoint::Unix(dir.join("paths.sock")),
            ServeConfig {
                workers: 2,
                io_threads: 1,
                persist_every: persist_batches * batch as u64,
                max_hot_sessions: Some(cap),
                ..Default::default()
            },
            Some(Arc::new(store)),
        );
        let scripts = scripts(sessions);
        let mut client = Client::connect(&server.bound).expect("connect");
        for (i, script) in scripts.iter().enumerate() {
            client.open(i as u32, script.rank, &PowerConfig::default()).expect("open");
        }

        let mut cursors = vec![0usize; sessions];
        let mut journals: Vec<Vec<ibp_core::LaneDirective>> = vec![Vec::new(); sessions];
        let mut closed = vec![false; sessions];
        let mut rng = order_seed | 1;
        let mut prev = 0usize;
        loop {
            let live: Vec<usize> = (0..sessions).filter(|&i| !closed[i]).collect();
            if live.is_empty() {
                break;
            }
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            // Half the time stay on the previous session, so hot
            // sessions see runs of batches (the inline path) between
            // cold touches.
            let i = if rng & (1 << 20) != 0 && live.contains(&prev) {
                prev
            } else {
                live[(rng as usize) % live.len()]
            };
            prev = i;
            let id = i as u32;
            let script = &scripts[i];
            match (rng >> 40) % 16 {
                0 => {
                    let stats = client.flush_stats(id).expect("flush");
                    prop_assert_eq!(
                        stats.total_calls, cursors[i] as u64,
                        "flush order, session {}", i
                    );
                }
                1 => {
                    let snap = client.snapshot(id).expect("snapshot");
                    let restored = ibp_serve::Session::restore(&snap).expect("own snapshot");
                    prop_assert_eq!(
                        restored.events_applied(), cursors[i] as u64,
                        "snapshot order, session {}", i
                    );
                }
                2 => {
                    let report = client.query(id).expect("query");
                    prop_assert_eq!(report.sessions.len(), 1);
                    prop_assert_eq!(report.sessions[0].session, id);
                }
                _ if cursors[i] < script.events.len() => {
                    let end = (cursors[i] + batch).min(script.events.len());
                    let (applied, fresh) =
                        client.send_events(id, &script.events[cursors[i]..end]).expect("events");
                    prop_assert_eq!(applied, end as u64, "events order, session {}", i);
                    journals[i].extend(fresh);
                    cursors[i] = end;
                }
                _ => {
                    let (_total, stats) =
                        client.close(id, script.final_compute_ns).expect("close");
                    closed[i] = true;
                    prop_assert_eq!(&journals[i], &script.golden, "session {} parity", i);
                    prop_assert_eq!(&stats, &script.golden_stats, "session {} stats", i);
                }
            }
        }

        drop(client);
        let (queued, inline) = mailbox_split(&server.metrics);
        let summary = server.stop();
        prop_assert!(inline > 0, "no batch was applied inline: {:?}", summary);
        prop_assert!(queued > 0, "nothing went through a mailbox: {:?}", summary);
        prop_assert!(summary.evictions > 0, "no evictions happened: {:?}", summary);
        prop_assert!(summary.sessions_rehydrated > 0, "no rehydrations: {:?}", summary);
        // Persists beyond one per eviction and one per close are the
        // periodic checkpoints.
        prop_assert!(
            summary.snapshots_persisted > summary.evictions + sessions as u64,
            "no checkpoint ran: {:?}", summary
        );
        prop_assert_eq!(summary.persist_failures, 0, "{:?}", summary);
        prop_assert_eq!(summary.worker_panics, 0, "{:?}", summary);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A raw protocol connection, for pipelining frames without waiting
/// for each reply (the `Client` is strictly request/response).
struct Raw {
    stream: ibp_serve::Stream,
}

impl Raw {
    fn connect(endpoint: &Endpoint) -> Raw {
        let mut stream = endpoint.connect().expect("connect");
        write_hello(&mut stream).expect("hello");
        read_hello(&mut stream).expect("server hello");
        Raw { stream }
    }

    /// Write every frame in one `write`, so the server reads them in
    /// one wake.
    fn send_all(&mut self, frames: &[ClientFrame]) {
        let mut buf = Vec::new();
        for frame in frames {
            write_frame(&mut buf, &frame.encode()).expect("frame");
        }
        self.stream.write_all(&buf).expect("send");
    }

    fn recv(&mut self) -> ServerFrame {
        let payload = read_frame(&mut self.stream)
            .expect("read")
            .expect("frame, not EOF");
        decode_server(&payload).expect("decode")
    }
}

/// A frame that arrives while the checkpoint an inline batch made due
/// is still queued (or running on the worker, under the engine lock)
/// is applied after that checkpoint: batch A fills the persist
/// cadence, batch B is pipelined right behind it in the same write, and
/// the record the checkpoint wrote must hold exactly the events up to
/// A — never B's. The first round's A always runs inline (nothing was
/// ever queued for the session); a later A may find the worker still
/// releasing the session and queue too, and the record must then read
/// the same.
#[test]
fn frame_behind_a_checkpoint_is_applied_after_it() {
    const A: usize = 64;
    const B: usize = 8;
    let dir = temp_dir();
    let (store, _) = SnapshotStore::open(&dir.join("store")).expect("store");
    let store = Arc::new(store);
    let server = Running::start(
        &Endpoint::Unix(dir.join("ckpt.sock")),
        ServeConfig {
            workers: 1,
            io_threads: 1,
            persist_every: A as u64,
            ..Default::default()
        },
        Some(Arc::clone(&store)),
    );
    let script = &scripts(1)[0];
    let mut raw = Raw::connect(&server.bound);
    raw.send_all(&[ClientFrame::Open {
        session: 0,
        rank: script.rank,
        config: Box::default(),
    }]);
    assert!(matches!(
        raw.recv(),
        ServerFrame::OpenAck { session: 0, .. }
    ));

    let mut journal = Vec::new();
    let mut cursor = 0usize;
    let mut rounds = 0;
    while cursor + A + B <= script.events.len() {
        let a = script.events[cursor..cursor + A].to_vec();
        let b = script.events[cursor + A..cursor + A + B].to_vec();
        raw.send_all(&[
            ClientFrame::Events {
                session: 0,
                events: a,
            },
            ClientFrame::Events {
                session: 0,
                events: b,
            },
        ]);
        for expect in [cursor + A, cursor + A + B] {
            match raw.recv() {
                ServerFrame::Directives {
                    events_applied,
                    directives,
                    ..
                } => {
                    assert_eq!(events_applied, expect as u64, "replies in order");
                    journal.extend(directives);
                }
                other => panic!("expected Directives, got {other:?}"),
            }
        }
        cursor += A + B;
        rounds += 1;
        // B's reply comes after the checkpoint queued ahead of it, so
        // the record is already on disk: the state right after A.
        let record = store.load(0).expect("load").expect("checkpoint record");
        assert_eq!(
            record.events,
            (cursor - B) as u64,
            "round {rounds}: B overtook the checkpoint"
        );
    }
    assert!(
        rounds >= 8,
        "script too short for the test: {rounds} rounds"
    );

    raw.send_all(&[ClientFrame::Events {
        session: 0,
        events: script.events[cursor..].to_vec(),
    }]);
    if let ServerFrame::Directives { directives, .. } = raw.recv() {
        journal.extend(directives);
    }
    raw.send_all(&[ClientFrame::Close {
        session: 0,
        final_compute_ns: script.final_compute_ns,
    }]);
    loop {
        match raw.recv() {
            ServerFrame::Directives { directives, .. } => journal.extend(directives),
            ServerFrame::Closed { stats, .. } => {
                assert_eq!(*stats, script.golden_stats);
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(journal, script.golden, "parity across checkpoints");
    let (queued, inline) = mailbox_split(&server.metrics);
    let summary = server.stop();
    assert!(inline > 0, "the first A must run inline");
    assert!(
        queued >= rounds,
        "each round queues its checkpoint or its batches: {queued}"
    );
    assert!(summary.snapshots_persisted > rounds, "{summary:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch that panics on the event loop's inline path retires only
/// its own session (an in-band INTERNAL error, counted as a worker
/// panic); the other sessions on the same connection keep parity.
#[test]
fn inline_panic_retires_only_its_session() {
    // A valid id (the decoder rejects unmapped ones) that no workload
    // trace emits.
    let poison = MpiCall::Finalize.id();
    let dir = temp_dir();
    std::fs::create_dir_all(&dir).expect("socket dir");
    let server = Running::start(
        &Endpoint::Unix(dir.join("panic.sock")),
        ServeConfig {
            workers: 1,
            io_threads: 1,
            panic_on_call: Some(poison),
            ..Default::default()
        },
        None,
    );
    let scripts = scripts(3);
    let mut client = Client::connect(&server.bound).expect("connect");
    for (i, script) in scripts.iter().enumerate() {
        client
            .open(i as u32, script.rank, &PowerConfig::default())
            .expect("open");
    }
    let mut journals: Vec<Vec<ibp_core::LaneDirective>> = vec![Vec::new(); 3];
    let half = scripts[0].events.len() / 2;
    for (i, script) in scripts.iter().enumerate() {
        let (_, fresh) = client
            .send_events(i as u32, &script.events[..half])
            .expect("events");
        journals[i].extend(fresh);
    }
    match client.send_events(1, &[(poison, 0)]).unwrap_err() {
        ProtocolError::Remote { code, .. } => assert_eq!(code, error_code::INTERNAL),
        other => panic!("expected an in-band INTERNAL error, got {other:?}"),
    }
    let (queued, inline) = mailbox_split(&server.metrics);
    assert_eq!(
        queued, 0,
        "nothing was queued, so the poisoned batch ran inline"
    );
    assert_eq!(inline, 4);
    match client
        .send_events(1, &scripts[1].events[half..])
        .unwrap_err()
    {
        ProtocolError::Remote { code, .. } => assert_eq!(code, error_code::UNKNOWN_SESSION),
        other => panic!("a retired session must refuse work, got {other:?}"),
    }
    for i in [0usize, 2] {
        let script = &scripts[i];
        let (_, fresh) = client
            .send_events(i as u32, &script.events[half..])
            .expect("events");
        journals[i].extend(fresh);
        let (_, stats) = client
            .close(i as u32, script.final_compute_ns)
            .expect("close");
        assert_eq!(journals[i], script.golden, "session {i} parity");
        assert_eq!(stats, script.golden_stats, "session {i} stats");
    }
    client.abandon();
    let summary = server.stop();
    assert_eq!(summary.worker_panics, 1, "{summary:?}");
    assert_eq!(summary.sessions_closed, 2, "{summary:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every session of a paged fleet (hot cap below the session count)
/// opens, streams, is evicted and rehydrated, and closes; afterwards
/// every residency gauge reads zero: no hot or cold engine, no armed
/// sleep at any depth, no live session.
#[test]
fn closing_a_paged_fleet_zeroes_every_residency_gauge() {
    const SESSIONS: usize = 6;
    const BATCH: usize = 64;
    let dir = temp_dir();
    let (store, _) = SnapshotStore::open(&dir.join("store")).expect("store");
    let server = Running::start(
        &Endpoint::Unix(dir.join("gauges.sock")),
        ServeConfig {
            workers: 2,
            io_threads: 1,
            persist_every: 0,
            max_hot_sessions: Some(2),
            ..Default::default()
        },
        Some(Arc::new(store)),
    );
    let scripts = scripts(SESSIONS);
    let mut client = Client::connect(&server.bound).expect("connect");
    for (i, script) in scripts.iter().enumerate() {
        client
            .open(i as u32, script.rank, &PowerConfig::default())
            .expect("open");
    }
    // Round robin: each batch to a cold session rehydrates it and
    // evicts the least recently used one.
    let longest = scripts.iter().map(|s| s.events.len()).max().unwrap();
    for start in (0..longest).step_by(BATCH) {
        for (i, script) in scripts.iter().enumerate() {
            let end = (start + BATCH).min(script.events.len());
            if start < end {
                client
                    .send_events(i as u32, &script.events[start..end])
                    .expect("events");
            }
        }
    }
    let gauge = |g: &AtomicU64| g.load(Ordering::Relaxed);
    let m = &server.metrics;
    assert!(gauge(&m.evictions) > 0, "no evictions happened");
    assert!(
        gauge(&m.sessions_rehydrated) > 0,
        "no rehydrations happened"
    );
    assert_eq!(gauge(&m.sessions_live), SESSIONS as u64);
    for (i, script) in scripts.iter().enumerate() {
        let (_, stats) = client
            .close(i as u32, script.final_compute_ns)
            .expect("close");
        assert_eq!(stats, script.golden_stats, "session {i} stats");
    }
    assert_eq!(gauge(&m.hot_sessions), 0, "hot sessions");
    assert_eq!(gauge(&m.cold_sessions), 0, "cold sessions");
    for (depth, asleep) in m.sessions_asleep.iter().enumerate() {
        assert_eq!(gauge(asleep), 0, "sessions asleep at depth {depth}");
    }
    assert_eq!(gauge(&m.sessions_live), 0, "live sessions");
    drop(client);
    let summary = server.stop();
    assert_eq!(summary.worker_panics, 0, "{summary:?}");
    assert_eq!(summary.sessions_closed, SESSIONS as u64, "{summary:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
