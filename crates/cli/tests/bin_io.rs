//! End-to-end IO-failure behaviour of `ibpower exhibits`: a broken
//! results directory must produce a **nonzero exit** and an error that
//! names the failing path — never a zero exit with silently missing
//! output.

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
