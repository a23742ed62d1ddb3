//! Sweep-engine benchmarks: serial vs parallel execution of one
//! exhibit-shaped grid, plus the memoization win in isolation.
//!
//! On a ≥4-core machine the parallel case should finish the grid at
//! least 2× faster than the serial escape hatch (the per-cell work —
//! annotate + replay — dominates, and cells are independent). On a
//! single-core CI box the two collapse to the same wall-clock; the
//! benchmark still validates that the engine adds no measurable
//! overhead over the bare loop.

use criterion::{criterion_group, criterion_main, Criterion};
use ibp_analysis::exhibits::SEED;
use ibp_analysis::{run_with_baseline, CellKey, RunConfig, SweepEngine, SweepOptions};
use ibp_workloads::AppKind;

/// The benchmark grid: every app at two small scales — the same shape
/// as an exhibit sweep, scaled down for bench runtime.
fn grid() -> Vec<CellKey> {
    AppKind::ALL
        .iter()
        .flat_map(|&app| {
            let procs: [u32; 2] = if app == AppKind::NasBt { [9, 16] } else { [8, 16] };
            procs.into_iter().map(move |n| CellKey::new(app, n, SEED))
        })
        .collect()
}

fn run_grid(engine: &SweepEngine, cells: &[CellKey]) -> Vec<f64> {
    engine.run_cells(cells, |&k| k, |ctx, key, _| {
        let cfg = RunConfig::new(20.0, 0.01);
        run_with_baseline(&ctx.trace, key.app, &cfg, &ctx.baseline()).power_saving_pct
    })
}

fn bench_serial_vs_parallel(c: &mut Criterion) {
    let cells = grid();
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    // Cold engine per iteration: measures generation + baseline + cell
    // work end to end, which is what `ibpower exhibits` pays.
    g.bench_function("grid_serial_cold", |b| {
        b.iter(|| run_grid(&SweepEngine::new(SweepOptions::serial()), &cells))
    });
    g.bench_function("grid_parallel_cold", |b| {
        b.iter(|| run_grid(&SweepEngine::new(SweepOptions::default()), &cells))
    });
    g.finish();
}

fn bench_memoization(c: &mut Criterion) {
    let cells = grid();
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    // Warm engine reused across iterations: traces and baselines hit
    // the cache, isolating the memoization payoff (the second and later
    // sweeps of an `all`-style batch).
    let warm = SweepEngine::new(SweepOptions::serial());
    run_grid(&warm, &cells);
    g.bench_function("grid_serial_warm_cache", |b| b.iter(|| run_grid(&warm, &cells)));
    g.finish();
}

criterion_group!(benches, bench_serial_vs_parallel, bench_memoization);
criterion_main!(benches);
