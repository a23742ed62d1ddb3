//! One benchmark per registered exhibit: each iteration runs the
//! exhibit end to end on a fresh sweep engine (so no cache carries over
//! between iterations), on the paper grid capped at 16 ranks. The
//! full-size exhibits are produced by `ibpower exhibits <name>`.

use criterion::{criterion_group, criterion_main, Criterion};
use ibp_analysis::exhibits::SEED;
use ibp_analysis::{ExhibitGrid, OutputDir, SweepEngine, SweepOptions, EXHIBITS};

fn bench_exhibits(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("ibp-bench-exhibits-{}", std::process::id()));
    let out = OutputDir::new(&dir).expect("create scratch results dir");
    let grid = ExhibitGrid::capped(16);
    let mut g = c.benchmark_group("exhibits");
    g.sample_size(10);
    for exhibit in EXHIBITS {
        g.bench_function(exhibit.name, |b| {
            b.iter(|| {
                let engine = SweepEngine::new(SweepOptions::from_env());
                (exhibit.run)(&engine, &grid, SEED, &out).expect("exhibit run")
            })
        });
    }
    g.finish();
    std::fs::remove_dir_all(dir).ok();
}

criterion_group!(benches, bench_exhibits);
criterion_main!(benches);
