//! Crash-recovery end to end, against the real `ibpower` binary:
//! a store-backed server is killed with SIGKILL mid-stream, restarted
//! on the same store, and every session resumes to byte-perfect parity
//! with the offline annotate path — for all five paper applications.

use ibp_core::{annotate_rank, PowerConfig};
use ibp_serve::{Client, Endpoint};
use ibp_workloads::{AppKind, Scaling};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ibp-crash-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn `ibpower serve` on `sock` with `store`, and wait until it
/// accepts connections.
fn spawn_server(sock: &PathBuf, store: &PathBuf, extra: &[&str]) -> Child {
    let child = Command::new(env!("CARGO_BIN_EXE_ibpower"))
        .arg("serve")
        .arg("--uds")
        .arg(sock)
        .arg("--store")
        .arg(store)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ibpower serve");
    let endpoint = Endpoint::Unix(sock.clone());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(&endpoint) {
            Ok(probe) => {
                probe.abandon();
                return child;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Err(e) => panic!("server never came up on {sock:?}: {e}"),
        }
    }
}

#[test]
fn sigkill_mid_stream_resumes_to_parity_for_every_app() {
    for app in AppKind::ALL {
        let nprocs = app.workload(Scaling::Strong).paper_procs()[0];
        let dir = temp_dir(app.name());
        let sock = dir.join("serve.sock");
        let store = dir.join("store");
        let cfg = PowerConfig::default();
        let trace = app.workload(Scaling::Strong).generate(nprocs, 42);

        // Two sessions per app keep the five-app sweep fast while still
        // exercising concurrent resume.
        let sessions = 2usize;
        let specs: Vec<_> = (0..sessions)
            .map(|i| {
                let rank = &trace.ranks[i % nprocs as usize];
                let events: Vec<(u16, u64)> = rank
                    .call_stream()
                    .map(|(call, gap)| (call.id(), gap.as_ns()))
                    .collect();
                let golden = annotate_rank(rank, &cfg);
                (rank.rank, events, rank.final_compute.as_ns(), golden)
            })
            .collect();

        // Phase 1: stream ~60% of each session, never close, SIGKILL.
        let mut server = spawn_server(&sock, &store, &["--persist-every", "24", "--workers", "2"]);
        let endpoint = Endpoint::Unix(sock.clone());
        let mut cut_at = Vec::new();
        let mut clients = Vec::new();
        for (sid, (rank, events, _, _)) in specs.iter().enumerate() {
            let mut c = Client::connect(&endpoint).expect("connect");
            c.open(sid as u32, *rank, &cfg).expect("open");
            let cut = (events.len() * 3 / 5).max(1);
            for chunk in events[..cut].chunks(48) {
                c.send_events(sid as u32, chunk).expect("stream");
            }
            cut_at.push(cut as u64);
            clients.push(c); // keep the connection open across the kill
        }
        // Give in-flight periodic persists a moment to land, then crash
        // the server without any cleanup.
        std::thread::sleep(Duration::from_millis(150));
        server.kill().expect("SIGKILL server");
        let _ = server.wait();
        for c in clients {
            c.abandon();
        }

        // Phase 2: restart on the same store; every session rehydrates
        // and resumes to full-stream parity.
        let mut server = spawn_server(&sock, &store, &["--persist-every", "24"]);
        for (sid, (_, events, final_ns, golden)) in specs.iter().enumerate() {
            let mut c = Client::connect(&endpoint).expect("reconnect");
            let (resume_at, history) =
                c.restore_from_store(sid as u32).expect("rehydrate from store");
            assert!(
                resume_at <= cut_at[sid],
                "{}: cannot resume past the crash point ({resume_at} > {})",
                app.name(),
                cut_at[sid]
            );
            assert!(
                resume_at > 0,
                "{}: periodic persistence never captured the session",
                app.name()
            );
            assert_eq!(
                history.as_slice(),
                &golden.directives[..history.len()],
                "{}: replayed history diverges from the offline path",
                app.name()
            );
            let mut journal = history;
            for chunk in events[resume_at as usize..].chunks(48) {
                let (_, d) = c.send_events(sid as u32, chunk).expect("resume");
                journal.extend(d);
            }
            let (tail, _, stats) = c.close(sid as u32, *final_ns).expect("close");
            journal.extend(tail);
            assert_eq!(
                &journal,
                &golden.directives,
                "{}: resumed session lost parity",
                app.name()
            );
            assert_eq!(&stats, &golden.stats, "{}: stats diverged", app.name());
        }
        server.kill().expect("stop server");
        let _ = server.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn cli_load_with_chaos_passes_parity_across_a_restart() {
    let dir = temp_dir("cli-chaos");
    let sock = dir.join("serve.sock");
    let store = dir.join("store");

    let run_load = || {
        let out = Command::new(env!("CARGO_BIN_EXE_ibpower"))
            .args(["load", "alya", "4", "--uds"])
            .arg(&sock)
            .args([
                "--sessions", "4", "--batch", "23", "--check", "--chaos", "0.04",
                "--retries", "16", "--deadline-ms", "20000",
            ])
            .output()
            .expect("run ibpower load");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "load failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("parity     : ok"), "no parity line:\n{stdout}");
        stdout
    };

    let mut server = spawn_server(&sock, &store, &["--persist-every", "64"]);
    run_load();
    // Crash hard, restart on the same store, and load again: recovery
    // must leave the server fully serviceable.
    server.kill().expect("SIGKILL server");
    let _ = server.wait();
    let mut server = spawn_server(&sock, &store, &["--persist-every", "64"]);
    run_load();
    server.kill().expect("stop server");
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
