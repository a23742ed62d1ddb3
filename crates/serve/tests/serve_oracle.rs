//! Reference oracle for the serving layer: any sequence of opens,
//! event batches of random sizes, evictions and rehydrations under a
//! hot cap of 1–2, splits (snapshot bytes, then `Restore` on a fresh
//! connection), crashes (an abandoned connection, then a restore from
//! the store) and closes must leave every session with exactly the
//! directive journal and `RankStats` that the offline `annotate_rank`
//! computes for its rank. Every step goes through [`Client`] against a
//! store-backed server over a Unix socket.

use ibp_core::{annotate_rank, LaneDirective, PowerConfig, RankStats};
use ibp_serve::protocol::error_code;
use ibp_serve::{Client, Endpoint, ProtocolError, ServeConfig, Server, SnapshotStore};
use ibp_workloads::{AppKind, Scaling};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SESSIONS: usize = 4;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ibp-serve-oracle-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One session's event stream and what `annotate_rank` makes of it.
struct Script {
    rank: u32,
    events: Vec<(u16, u64)>,
    final_compute_ns: u64,
    golden: Vec<LaneDirective>,
    golden_stats: RankStats,
}

/// Two apps, so sessions differ in pattern shape, not only in rank.
fn scripts() -> Vec<Script> {
    let cfg = PowerConfig::default();
    let traces = [
        AppKind::Alya.workload(Scaling::Strong).generate(4, 7),
        AppKind::Gromacs.workload(Scaling::Strong).generate(4, 7),
    ];
    (0..SESSIONS)
        .map(|i| {
            let rank = &traces[i % 2].ranks[i / 2];
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

#[derive(Debug, Clone)]
enum Step {
    /// Open the session if it is not open yet.
    Open,
    Events(usize),
    /// Touch every other open session, so the LRU pages this one out;
    /// its next frame rehydrates it.
    Evict,
    Split,
    Crash,
    Close,
}

/// Batches make up a little over half of all steps.
fn step() -> impl Strategy<Value = Step> {
    (0u8..16, 1usize..=160).prop_map(|(kind, n)| match kind {
        0 => Step::Open,
        1..=2 => Step::Evict,
        3 => Step::Split,
        4..=5 => Step::Crash,
        6 => Step::Close,
        _ => Step::Events(n),
    })
}

/// The client side of one session.
#[derive(Default)]
struct Live {
    client: Option<Client>,
    cursor: usize,
    journal: Vec<LaneDirective>,
    closed: bool,
}

/// Run `attach` on a new connection, retrying while the server still
/// holds the session on the abandoned one (`DUPLICATE_SESSION`: the
/// teardown of a dead connection is asynchronous).
fn attach<T>(
    bound: &Endpoint,
    mut attach: impl FnMut(&mut Client) -> Result<T, ProtocolError>,
) -> Result<(Client, T), ProtocolError> {
    let mut client = Client::connect(bound)?;
    for _ in 0..400 {
        match attach(&mut client) {
            Err(ProtocolError::Remote {
                code: error_code::DUPLICATE_SESSION,
                ..
            }) => std::thread::sleep(Duration::from_millis(5)),
            other => return other.map(|v| (client, v)),
        }
    }
    panic!("session never became attachable after its connection was abandoned");
}

/// Bring a crashed session back from the store, or, when the server
/// has no usable record, open it afresh and start over from event 0.
fn resume_from_store(
    bound: &Endpoint,
    id: u32,
    script: &Script,
    live: &mut Live,
) -> Result<(), TestCaseError> {
    let (client, resumed) = attach(bound, |c| match c.restore_from_store(id) {
        Err(ProtocolError::Remote {
            code: error_code::NO_SNAPSHOT,
            ..
        }) => c
            .open(id, script.rank, &PowerConfig::default())
            .map(|()| None),
        other => other.map(Some),
    })
    .map_err(|e| TestCaseError::fail(format!("session {id}: resume failed: {e}")))?;
    live.client = Some(client);
    match resumed {
        Some(resume) => {
            let resume_at = resume.events_applied;
            prop_assert!(
                resume_at as usize <= live.cursor,
                "session {}: resume at {} past the {} events sent",
                id,
                resume_at,
                live.cursor
            );
            prop_assert!(
                resume.align(&mut live.journal).is_ok(),
                "session {}: the server's count and digest must match a prefix of the journal",
                id
            );
            live.cursor = resume_at as usize;
        }
        None => {
            live.journal.clear();
            live.cursor = 0;
        }
    }
    Ok(())
}

fn send_events(id: u32, script: &Script, live: &mut Live, n: usize) -> Result<(), TestCaseError> {
    let end = live.cursor.saturating_add(n).min(script.events.len());
    if end == live.cursor {
        return Ok(());
    }
    let client = live.client.as_mut().expect("session is attached");
    let (applied, fresh) = client
        .send_events(id, &script.events[live.cursor..end])
        .map_err(|e| TestCaseError::fail(format!("session {id}: events: {e}")))?;
    prop_assert_eq!(applied, end as u64, "session {} applied count", id);
    live.journal.extend(fresh);
    live.cursor = end;
    Ok(())
}

/// Stream what is left, close, and compare with the offline oracle.
fn finish(id: u32, script: &Script, live: &mut Live) -> Result<(), TestCaseError> {
    send_events(id, script, live, usize::MAX)?;
    let client = live.client.as_mut().expect("session is attached");
    let (_total, stats) = client
        .close(id, script.final_compute_ns)
        .map_err(|e| TestCaseError::fail(format!("session {id}: close: {e}")))?;
    live.closed = true;
    prop_assert!(
        live.journal == script.golden,
        "session {}: journal of {} directives differs from annotate_rank's {}",
        id,
        live.journal.len(),
        script.golden.len()
    );
    prop_assert_eq!(&stats, &script.golden_stats, "session {} stats", id);
    Ok(())
}

fn run_steps(
    bound: &Endpoint,
    scripts: &[Script],
    steps: &[(usize, Step)],
) -> Result<(), TestCaseError> {
    let mut live: Vec<Live> = (0..SESSIONS).map(|_| Live::default()).collect();
    let open = |live: &mut Live, id: u32, script: &Script| -> Result<(), TestCaseError> {
        let mut client = Client::connect(bound)
            .map_err(|e| TestCaseError::fail(format!("session {id}: connect: {e}")))?;
        client
            .open(id, script.rank, &PowerConfig::default())
            .map_err(|e| TestCaseError::fail(format!("session {id}: open: {e}")))?;
        live.client = Some(client);
        Ok(())
    };
    for (s, step) in steps {
        let id = *s as u32;
        let script = &scripts[*s];
        if live[*s].closed {
            continue;
        }
        // A session's first step opens it; only a crash or a split
        // detaches it again, and both re-attach before they return.
        if live[*s].client.is_none() {
            open(&mut live[*s], id, script)?;
        }
        match step {
            Step::Open => {}
            Step::Events(n) => send_events(id, script, &mut live[*s], *n)?,
            Step::Evict => {
                for (other, l) in live.iter_mut().enumerate() {
                    if other == *s || l.closed {
                        continue;
                    }
                    if let Some(c) = l.client.as_mut() {
                        let stats = c
                            .flush_stats(other as u32)
                            .map_err(|e| TestCaseError::fail(format!("flush: {e}")))?;
                        prop_assert_eq!(stats.total_calls, l.cursor as u64, "flush order");
                    }
                }
            }
            Step::Split => {
                let l = &mut live[*s];
                let mut old = l.client.take().expect("attached");
                let snapshot = old
                    .snapshot(id)
                    .map_err(|e| TestCaseError::fail(format!("session {id}: snapshot: {e}")))?;
                old.abandon();
                let (client, applied) = attach(bound, |c| c.restore(id, &snapshot))
                    .map_err(|e| TestCaseError::fail(format!("session {id}: restore: {e}")))?;
                prop_assert_eq!(applied, l.cursor as u64, "session {} split position", id);
                l.client = Some(client);
            }
            Step::Crash => {
                let l = &mut live[*s];
                l.client.take().expect("attached").abandon();
                resume_from_store(bound, id, script, l)?;
            }
            Step::Close => finish(id, script, &mut live[*s])?,
        }
    }
    for (s, script) in scripts.iter().enumerate() {
        let id = s as u32;
        if live[s].closed {
            continue;
        }
        if live[s].client.is_none() {
            open(&mut live[s], id, script)?;
        }
        finish(id, script, &mut live[s])?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn served_sessions_match_offline_annotation(
        cap in 1usize..=2,
        persist_every in 16u64..=256,
        steps in proptest::collection::vec((0..SESSIONS, step()), 20..80),
    ) {
        let dir = temp_dir();
        let (store, _) = SnapshotStore::open(&dir.join("store")).expect("store");
        let server = Server::bind(
            &Endpoint::Unix(dir.join("oracle.sock")),
            ServeConfig {
                workers: 2,
                io_threads: 2,
                persist_every,
                max_hot_sessions: Some(cap),
                ..Default::default()
            },
        )
        .expect("bind")
        .with_store(Arc::new(store));
        let bound = server.endpoint().clone();
        let stop = server.stop_flag();
        let handle = std::thread::spawn(move || server.run());

        let scripts = scripts();
        let outcome = run_steps(&bound, &scripts, &steps);
        stop.store(true, Ordering::Relaxed);
        let summary = handle.join().expect("server thread");
        let _ = std::fs::remove_dir_all(&dir);
        outcome?;
        prop_assert_eq!(summary.worker_panics, 0, "{:?}", summary);
        prop_assert_eq!(summary.persist_failures, 0, "{:?}", summary);
    }
}
