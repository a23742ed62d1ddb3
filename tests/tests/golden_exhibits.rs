//! Golden-exhibit regression suite: Table I/III/IV, Figs. 7–9, the
//! generation frontier and the deep-sleep study at the canonical seed,
//! pinned as JSON snapshots in `tests/golden/`.
//!
//! Each test runs one entry of the exhibit registry by name — the same
//! code `ibpower exhibits` runs — and compares the JSON it writes. All
//! tests share one [`SweepEngine`] (worker count from `IBP_JOBS`), so
//! CI can run the whole suite under different job counts and assert
//! the snapshots still match — the engine's determinism guarantee made
//! into a regression test. Figures and Table III run on a grid capped
//! at 16 ranks to keep the suite tractable under the debug profile;
//! Table I (trace generation only) uses the full paper grid, and the
//! fixed-scale exhibits ignore the grid.
//!
//! Regenerate after an intentional model change with:
//! `IBP_UPDATE_GOLDEN=1 cargo test -p ibpower-integration-tests golden`

use ibp_analysis::exhibits::SEED;
use ibp_analysis::{Exhibit, ExhibitGrid, OutputDir, SweepEngine, SweepOptions};
use ibpower_integration_tests::golden::assert_matches_golden;
use serde::Value;
use std::sync::OnceLock;

fn engine() -> &'static SweepEngine {
    static ENGINE: OnceLock<SweepEngine> = OnceLock::new();
    ENGINE.get_or_init(|| SweepEngine::new(SweepOptions::from_env().expect("IBP_JOBS")))
}

/// Run the registered exhibit `name` on `grid`, check the JSON it
/// writes against `tests/golden/<name>.json`, and return it.
fn golden(name: &str, grid: ExhibitGrid) -> Value {
    let exhibit = Exhibit::find(name).expect("registered exhibit");
    let dir = std::env::temp_dir().join(format!("ibp-golden-{}-{name}", std::process::id()));
    let out = OutputDir::new(&dir).expect("create scratch results dir");
    (exhibit.run)(engine(), &grid, SEED, &out).expect("exhibit run");
    let file = format!("{name}.json");
    let json = std::fs::read_to_string(dir.join(&file)).expect("exhibit wrote its JSON");
    std::fs::remove_dir_all(&dir).ok();
    let rows: Value = serde_json::from_str(&json).expect("exhibit JSON parses");
    assert_matches_golden(&file, &rows);
    rows
}

fn rows(v: &Value) -> usize {
    v.as_seq().expect("a row list").len()
}

#[test]
fn golden_table1() {
    let t = golden("table1", ExhibitGrid::paper());
    assert_eq!(rows(&t), 25, "full paper grid is 5 apps x 5 scales");
}

#[test]
fn golden_table3() {
    golden("table3", ExhibitGrid::capped(16));
}

#[test]
fn golden_table4() {
    let t = golden("table4", ExhibitGrid::paper());
    assert_eq!(rows(&t), 5, "one row per application");
}

#[test]
fn golden_fig7() {
    golden("fig7", ExhibitGrid::capped(16));
}

#[test]
fn golden_fig8() {
    golden("fig8", ExhibitGrid::capped(16));
}

#[test]
fn golden_fig9() {
    golden("fig9", ExhibitGrid::capped(16));
}

#[test]
fn golden_generation_frontier() {
    let t = golden("generation_frontier", ExhibitGrid::paper());
    assert_eq!(
        rows(&t),
        ibp_analysis::FRONTIER_GENERATIONS.len() * 5 * 3,
        "4 generations x 5 apps x 3 policies"
    );
}

#[test]
fn golden_deepsleep() {
    let t = golden("deepsleep", ExhibitGrid::paper());
    assert_eq!(rows(&t), 5, "one row per application");
}
