//! A re-attach the server refuses with `DUPLICATE_SESSION` must cost one
//! retry of that session's restore on the same connection, not the
//! whole partition's re-attach on a new one.
//!
//! A scripted server stands in for `ibpower serve` so the refusal lands
//! exactly where the test wants it: it drops the first connection after
//! one batch (a transport fault that detaches every session), then on
//! the second connection refuses session 0's first restore — by which
//! time sessions 1 and 2 have already re-attached there.

use ibp_core::{DirectiveDigest, PowerConfig, RankStats};
use ibp_serve::protocol::{
    decode_client, error_code, read_frame, read_hello, write_frame, write_hello,
};
use ibp_serve::{
    run_load, ClientFrame, Endpoint, LoadConfig, RetryPolicy, ServerFrame, SessionSpec,
};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixListener;
use std::sync::{Arc, Mutex};

/// What the scripted server saw.
#[derive(Debug, Default)]
struct Seen {
    connections: u32,
    /// Store restores per session, refused ones included.
    restores: BTreeMap<u32, u32>,
    refused: u32,
}

/// Serve connections until one arrives without a handshake: acknowledge every
/// frame as `ibpower serve` would, except that the first connection
/// dies on its second `Events` batch and session 0's first store
/// restore is refused as a duplicate.
fn scripted_server(listener: UnixListener, seen: Arc<Mutex<Seen>>) {
    let mut applied: BTreeMap<u32, u64> = BTreeMap::new();
    for stream in listener.incoming() {
        let Ok(stream) = stream else { return };
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        if read_hello(&mut r).is_err() {
            return;
        }
        write_hello(&mut w).unwrap();
        let conn = {
            let mut s = seen.lock().unwrap();
            s.connections += 1;
            s.connections
        };
        let mut batches = 0;
        while let Ok(Some(payload)) = read_frame(&mut r) {
            let reply = |w: &mut BufWriter<_>, f: ServerFrame| write_frame(w, &f.encode());
            let sent = match decode_client(&payload).unwrap() {
                ClientFrame::Open { session, .. } => {
                    applied.insert(session, 0);
                    reply(
                        &mut w,
                        ServerFrame::OpenAck {
                            session,
                            events_applied: 0,
                        },
                    )
                }
                ClientFrame::Events { session, events } => {
                    batches += 1;
                    if conn == 1 && batches == 2 {
                        break;
                    }
                    let n = applied.entry(session).or_default();
                    *n += events.len() as u64;
                    let events_applied = *n;
                    reply(
                        &mut w,
                        ServerFrame::Directives {
                            session,
                            events_applied,
                            directives: Vec::new(),
                        },
                    )
                }
                ClientFrame::Restore { session, .. } => {
                    let mut s = seen.lock().unwrap();
                    let n = s.restores.entry(session).or_default();
                    *n += 1;
                    if session == 0 && *n == 1 {
                        s.refused += 1;
                        reply(
                            &mut w,
                            ServerFrame::Error {
                                session,
                                code: error_code::DUPLICATE_SESSION,
                                message: "session still live on a dead connection".into(),
                            },
                        )
                    } else {
                        // No directives were ever delivered.
                        let none = DirectiveDigest::EMPTY;
                        reply(
                            &mut w,
                            ServerFrame::Resumed {
                                session,
                                events_applied: applied[&session],
                                directives_total: none.count,
                                digest: none.digest,
                            },
                        )
                    }
                }
                ClientFrame::Close { session, .. } => reply(
                    &mut w,
                    ServerFrame::Closed {
                        session,
                        directives_total: 0,
                        stats: Box::new(RankStats::default()),
                    },
                ),
                other => panic!("unscripted frame {other:?}"),
            };
            if sent.is_err() {
                break;
            }
        }
    }
}

#[test]
fn refused_restore_retries_one_session_on_the_same_connection() {
    let dir = std::env::temp_dir().join("ibp-serve-refused");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("refused-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let seen = Arc::new(Mutex::new(Seen::default()));
    let server = {
        let seen = Arc::clone(&seen);
        std::thread::spawn(move || scripted_server(listener, seen))
    };

    // Three sessions of three 2-event batches on one driver.
    let specs: Vec<SessionSpec> = (0..3)
        .map(|rank| SessionSpec {
            rank,
            config: PowerConfig::default(),
            events: vec![(41, 1_000); 6],
            final_compute_ns: 0,
            golden_directives: None,
            golden_stats: None,
        })
        .collect();
    let cfg = LoadConfig {
        batch: 2,
        drivers: 1,
        retry: RetryPolicy {
            base_backoff_ms: 1,
            max_backoff_ms: 2,
            ..RetryPolicy::default()
        },
        ..LoadConfig::default()
    };
    let report = run_load(&Endpoint::Unix(path.clone()), specs, &cfg).expect("load");
    // A connection without a handshake stops the scripted server.
    drop(std::os::unix::net::UnixStream::connect(&path));
    server.join().expect("scripted server");
    std::fs::remove_file(&path).ok();

    let seen = seen.lock().unwrap();
    assert_eq!(seen.refused, 1, "{seen:?}");
    // One reconnect for the dropped connection; the refusal reused the
    // second connection, so sessions 1 and 2 restored once each.
    assert_eq!(seen.connections, 2, "{seen:?}");
    assert_eq!(
        seen.restores,
        BTreeMap::from([(0, 2), (1, 1), (2, 1)]),
        "{seen:?}"
    );
    assert_eq!(report.gave_up, 0, "{report:?}");
    assert_eq!(report.events_total, 18, "{report:?}");
    // Every session re-attached once after the dropped connection; the
    // refused attempt is not a re-attach.
    assert_eq!(report.reconnects, 3, "{report:?}");
    for o in &report.per_session {
        assert_eq!(o.reconnects, 1, "{o:?}");
    }
}
