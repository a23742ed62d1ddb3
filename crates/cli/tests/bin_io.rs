//! End-to-end IO-failure behaviour of the `ibpower` binary: a broken
//! results directory or a malformed `IBP_JOBS` must produce a **nonzero
//! exit** and an error that names the culprit — never a zero exit with
//! silently missing output — and a closed stdout must end the program
//! quietly, never with a panic.

use ibp_simcore::SimDuration;
use ibp_trace::{MpiOp, Trace, TraceBuilder};
use std::process::Command;

/// `ibpower exhibits table4` with extra `args` and environment `env`.
fn table4(args: &[&str], env: &[(&str, &std::path::Path)]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ibpower"))
        .args(["exhibits", "table4"])
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn ibpower")
}

/// Point the results directory at a regular file — through `--out` and
/// through `IBP_RESULTS_DIR` — so it cannot be created. (A read-only
/// directory is not usable here: these tests run as root in CI
/// containers, and root bypasses permission bits.)
#[test]
fn blocked_results_dir_fails_fast_with_the_path() {
    let blocked = std::env::temp_dir().join(format!("ibp-blocked-bin-{}", std::process::id()));
    std::fs::write(&blocked, b"squatter").expect("plant blocking file");
    let runs = [
        table4(&["--out", blocked.to_str().expect("utf-8 temp path")], &[]),
        table4(&[], &[("IBP_RESULTS_DIR", blocked.as_path())]),
    ];
    std::fs::remove_file(&blocked).ok();
    for out in runs {
        assert!(
            !out.status.success(),
            "blocked results dir must exit nonzero (got {:?})",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "stderr: {stderr}");
        assert!(
            stderr.contains(&blocked.display().to_string()),
            "stderr must name the failing path: {stderr}"
        );
        // Fail-fast: the directory is checked before any simulation
        // runs, so nothing should have been printed to stdout yet.
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("Table IV"),
            "must fail before computing the exhibit"
        );
    }
}

#[test]
fn malformed_jobs_flag_is_rejected() {
    let out = table4(&["--jobs", "zero"], &[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --jobs"), "stderr: {stderr}");
}

#[test]
fn malformed_jobs_env_is_rejected_before_any_work() {
    let dir = std::env::temp_dir().join(format!("ibp-jobs-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_ibpower"))
        .args(["exhibits", "params"])
        .env("IBP_JOBS", "zero")
        .env("IBP_RESULTS_DIR", &dir)
        .output()
        .expect("spawn ibpower");
    let written = dir.exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "IBP_JOBS=zero must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("IBP_JOBS") && stderr.contains("zero"),
        "stderr: {stderr}"
    );
    assert!(
        !written,
        "nothing may be written before the variable is rejected"
    );
}

/// A reader that closes the pipe early (`ibpower prv t.json | head -1`)
/// must end the program quietly, not with a panic (exit 101).
#[test]
fn closed_stdout_is_a_quiet_exit() {
    use std::io::BufRead;
    let trace = std::env::temp_dir().join(format!("ibp-prv-pipe-{}.json", std::process::id()));
    let generated = Command::new(env!("CARGO_BIN_EXE_ibpower"))
        .args(["generate", "alya", "8", "-o"])
        .arg(&trace)
        .output()
        .expect("spawn ibpower generate");
    assert!(generated.status.success(), "{generated:?}");
    // The .prv of this trace is a few hundred KiB, well past a pipe
    // buffer, so the writer must hit the closed pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ibpower"))
        .arg("prv")
        .arg(&trace)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn ibpower prv");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    // The reader is dropped here: the pipe is closed after one line.
    let out = child.wait_with_output().expect("wait for ibpower prv");
    std::fs::remove_file(&trace).ok();
    assert!(first.starts_with("#Paraver"), "first line: {first}");
    assert_ne!(out.status.code(), Some(101), "panicked: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        stderr.is_empty(),
        "a closed stdout is not an error: {stderr}"
    );
}

/// `bench-report --check` is a gate, not a recorder: a passing check
/// must leave the trajectory byte for byte as it found it, so running
/// the gate cannot ratchet the next gate's baseline.
#[test]
fn bench_report_check_leaves_the_trajectory_untouched() {
    // One entry whose every gated probe has a baseline no run can
    // regress against.
    let probes: Vec<String> = [
        "intercept_ns_per_call",
        "serve_roundtrip_ns_per_event",
        "serve_scale_ns_per_event",
        "replay_ns_per_event",
        "replay_big_ns_per_event",
        "replay_wide_ns_per_event",
        "ladder_apply_windows_ns_per_event",
        "gt_sweep_ns_per_event",
    ]
    .iter()
    .map(|name| format!(r#"{{"name": "{name}", "ns_per_elem": 1e12, "elems": 1, "reps": 1}}"#))
    .collect();
    let traj = format!(
        "{{\"entries\": [{{\"label\": \"generous\", \"probes\": [{}]}}]}}\n",
        probes.join(", ")
    );
    let path = std::env::temp_dir().join(format!("ibp-bench-check-{}.json", std::process::id()));
    std::fs::write(&path, &traj).expect("write trajectory");
    let out = Command::new(env!("CARGO_BIN_EXE_ibpower"))
        .args([
            "bench-report",
            "--check",
            "--iters",
            "10",
            "--reps",
            "1",
            "-o",
        ])
        .arg(&path)
        .output()
        .expect("spawn ibpower bench-report");
    let after = std::fs::read_to_string(&path).expect("read trajectory back");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(after, traj, "--check rewrote the trajectory");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("left unchanged"),
        "{out:?}"
    );
}

/// Run `ibpower` with `args` and require one typed `error:` line
/// containing `needle` and exit 1 — never a panic (exit 101).
fn assert_typed_error(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ibpower"))
        .args(args)
        .output()
        .expect("spawn ibpower");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
    assert!(lines[0].starts_with("error:"), "{args:?}: {stderr}");
    assert!(lines[0].contains(needle), "{args:?}: {stderr}");
}

/// A two-rank trace of compute bursts and `Allreduce`s; `burst(rank, i)`
/// is the compute before call `i` and `burst(rank, 3)` the final compute.
fn allreduce_trace(burst: impl Fn(u32, usize) -> u64) -> Trace {
    let mut b = TraceBuilder::new("hostile", 2);
    for r in 0..2 {
        for i in 0..3 {
            b.compute(r, SimDuration::from_ns(burst(r, i)));
            b.op(r, MpiOp::Allreduce { bytes: 8 });
        }
        b.compute(r, SimDuration::from_ns(burst(r, 3)));
    }
    b.build()
}

/// A trace wider than the 252-node fat tree, or one whose compute the
/// replay clock (or whose sent bytes the fabric's counters) cannot hold,
/// is refused with a typed error.
#[test]
fn oversized_traces_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("ibp-oversized-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_string()
    };

    assert_typed_error(&["experiment", "alya", "300"], "300 ranks");
    let mut b = TraceBuilder::new("wide", 253);
    for r in 0..253 {
        b.compute(r, SimDuration::from_us(10));
        b.op(r, MpiOp::Barrier);
    }
    let wide = path("wide.json");
    ibp_trace::io::save(&b.build(), &wide).expect("save wide trace");
    assert_typed_error(&["replay", &wide], "253 ranks");

    let long = i64::MAX as u64;
    let hostile = [
        (
            "burst.json",
            allreduce_trace(|r, i| if r == 1 && i == 0 { u64::MAX } else { 100_000 }),
        ),
        (
            "bursts.json",
            allreduce_trace(|r, i| if r == 1 && i < 3 { long } else { 100_000 }),
        ),
        (
            "final.json",
            allreduce_trace(|r, i| if r == 1 && i == 3 { u64::MAX } else { 100_000 }),
        ),
    ];
    for (name, trace) in hostile {
        let file = path(name);
        ibp_trace::io::save(&trace, &file).expect("save hostile trace");
        for cmd in ["inspect", "annotate", "replay"] {
            assert_typed_error(&[cmd, &file], "rank 1");
        }
    }

    // Two allgathers of u64::MAX bytes: the fabric's byte total cannot
    // hold them (a debug build's replay once panicked adding them up).
    let mut b = TraceBuilder::new("bytes", 2);
    for r in 0..2 {
        for _ in 0..2 {
            b.compute(r, SimDuration::from_us(10));
            b.op(r, MpiOp::Allgather { bytes: u64::MAX });
        }
    }
    let file = path("bytes.json");
    ibp_trace::io::save(&b.build(), &file).expect("save hostile trace");
    for cmd in ["inspect", "annotate", "replay"] {
        assert_typed_error(&[cmd, &file], "rank 0 event 0: bytes sent exceed");
        assert_typed_error(&[cmd, &file], "bytes.json");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Ranks that disagree on a collective — `Allreduce` against
/// `Allgather` at the same position, or `Bcast` from different roots —
/// are an erroneous MPI program: every command that loads the trace
/// refuses it with one `error:` line naming the file and the rank.
#[test]
fn mismatched_collectives_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("ibp-collectives-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases = [
        (
            "kinds.json",
            [MpiOp::Allreduce { bytes: 8 }, MpiOp::Allgather { bytes: 8 }],
            "rank 1 event 0: collective 0 is MPI_Allgather but rank 0's is MPI_Allreduce at event 0",
        ),
        (
            "roots.json",
            [
                MpiOp::Bcast { root: 0, bytes: 8 },
                MpiOp::Bcast { root: 1, bytes: 8 },
            ],
            "rank 1 event 0: collective 0 is MPI_Bcast (root 1)",
        ),
    ];
    for (name, ops, reason) in cases {
        let mut b = TraceBuilder::new("mismatch", 2);
        for (r, op) in ops.into_iter().enumerate() {
            b.compute(r as u32, SimDuration::from_us(10));
            b.op(r as u32, op);
        }
        let file = dir.join(name);
        let file = file.to_str().expect("utf-8 temp path");
        ibp_trace::io::save(&b.build(), file).expect("save hostile trace");
        for cmd in ["inspect", "annotate", "replay"] {
            assert_typed_error(&[cmd, file], reason);
            assert_typed_error(&[cmd, file], name);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A 2-rank, 2-call trace with 10^13 ns bursts spans 2·10^7 ms: binned
/// at 1 ms, `inspect` would hold tens of megabytes of empty bins. It
/// bins at the smallest multiple of 1 ms that keeps each rank within
/// 2^20 bins, and says so.
#[test]
fn inspect_widens_activity_bins_for_long_traces() {
    let dir = std::env::temp_dir().join(format!("ibp-long-bins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("long.json");
    let mut b = TraceBuilder::new("long", 2);
    for r in 0..2 {
        for _ in 0..2 {
            b.compute(r, SimDuration::from_ns(10_000_000_000_000));
            b.op(r, MpiOp::Allreduce { bytes: 8 });
        }
    }
    let file = file.to_str().expect("utf-8 temp path");
    ibp_trace::io::save(&b.build(), file).expect("save long trace");
    let out = Command::new(env!("CARGO_BIN_EXE_ibpower"))
        .args(["inspect", file])
        .output()
        .expect("spawn ibpower");
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    let activity = stdout
        .lines()
        .find(|l| l.starts_with("activity:"))
        .unwrap_or_else(|| panic!("no activity line: {stdout}"));
    assert_eq!(
        activity, "activity: peak 1 calls/20 ms, 100% of 20 ms windows quiet",
        "{stdout}"
    );
}
