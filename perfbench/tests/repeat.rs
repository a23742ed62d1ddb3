//! Exact-repeat test: two runs at one seed produce bit-identical
//! simulated end-to-end metrics and exact counts, and pass every
//! correctness check — at the reference seed and at a held-out one.
//! Runs each workload at [`Scale::Small`] so the suite stays quick.

use perfbench::{complete, grid, serve, Options, Outcome, Scale, DEFAULT_SEED};
use std::path::PathBuf;

/// Metrics that come from the simulation, not the host clock.
const SIMULATED: &[&str] = &[
    "power_saving_pct",
    "slowdown_pct",
    "paper_gap_pp",
    "hit_rate_pct",
];

/// Counts that bound `events_per_s` or come from the server summary.
const EXACT: &[&str] = &[
    "workloads.calls",
    "core.annotate_passes",
    "core.directives",
    "network.replays",
    "network.events_replayed",
    "analysis.gt_points",
    "serve.batches",
    "serve.snapshots_persisted",
    "serve.evictions",
    "serve.rehydrations",
    "serve.responses_shed",
    "serve.protocol_errors",
    "serve.worker_panics",
];

/// A seed no reference file covers.
const HELD_OUT_SEED: u64 = 7;

fn run(workload: fn(&Options) -> Result<Outcome, String>, tag: &str, seed: u64) -> Outcome {
    let opts = Options {
        seed,
        traced: true,
        scale: Scale::Small,
        results_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../results"),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}")),
    };
    std::fs::create_dir_all(&opts.work_dir).unwrap();
    let mut out = workload(&opts).unwrap_or_else(|e| panic!("{tag} seed {seed}: {e}"));
    complete(&mut out).unwrap();
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{tag} seed {seed}: {:?}", out.failures);
    out
}

/// `positive`: counts the workload must exercise (nonzero).
fn assert_repeats(workload: fn(&Options) -> Result<Outcome, String>, tag: &str, positive: &[&str]) {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let a = run(workload, tag, seed);
        let b = run(workload, tag, seed);
        for &name in SIMULATED.iter().chain(EXACT) {
            let (x, y) = (a.metric(name).unwrap(), b.metric(name).unwrap());
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{tag} seed {seed}: {name} {x} vs {y}"
            );
        }
        for &name in SIMULATED.iter().chain(positive) {
            assert!(a.metric(name).unwrap() > 0.0, "{tag}: {name} is 0");
        }
    }
}

#[test]
fn paper_grid_repeats_exactly() {
    assert_repeats(
        grid::paper_grid,
        "paper_grid",
        &["network.replays", "core.directives", "analysis.gt_points"],
    );
}

#[test]
fn serve_paged_repeats_exactly() {
    assert_repeats(
        serve::serve_paged,
        "serve_paged",
        &["serve.batches", "serve.evictions", "serve.rehydrations"],
    );
}
