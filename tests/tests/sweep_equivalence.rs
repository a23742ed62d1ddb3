//! Serial-vs-parallel equivalence: for any grid, seed, and fault rate,
//! the sweep engine must serialize to **byte-identical** results under
//! any worker count. This is the engine's core guarantee — parallelism
//! is an implementation detail invisible in the output — proved here by
//! property testing rather than by a single fixed example.
//!
//! Fault plans are derived from the cell key ([`CellCtx::derived_seed`]),
//! never from pool scheduling, so the property must also hold with fault
//! injection enabled.

use ibp_analysis::sweep::{CellKey, SweepEngine, SweepOptions, TraceFn};
use ibp_analysis::{run_with_baseline, RunConfig};
use ibp_network::{replay, FaultConfig, ReplayOptions, SimParams};
use ibp_workloads::AppKind;
use proptest::prelude::*;
use serde::Serialize;
use std::sync::Arc;

/// Cheap trace source: a shrunk ALYA whose length varies with the cell
/// variant, so different cells get genuinely different traces.
fn tiny_trace_fn(base_iterations: u32) -> TraceFn {
    Arc::new(move |key: &CellKey| {
        let alya = ibp_workloads::Alya {
            iterations: base_iterations + 5 * key.variant,
            ..Default::default()
        };
        ibp_workloads::Workload::generate(&alya, key.nprocs, key.seed)
    })
}

/// Everything a cell computes, in one serializable record. The fault
/// fields exercise per-cell derived randomness.
#[derive(Serialize)]
struct CellOutcome {
    result: ibp_analysis::RunResult,
    fault_seed: u64,
    fault_events: u64,
    faulted_exec: String,
}

/// Run the whole grid under `opts` and serialize the ordered results.
fn run_grid(opts: SweepOptions, iterations: u32, seed: u64, fault_rate: f64) -> String {
    let engine = SweepEngine::with_trace_fn(opts, tiny_trace_fn(iterations));
    let cells: Vec<CellKey> = [2u32, 4]
        .into_iter()
        .flat_map(|n| {
            (0..2u32).map(move |v| CellKey {
                app: AppKind::Alya,
                nprocs: n,
                seed,
                variant: v,
            })
        })
        .collect();
    let outcomes = engine.run_cells(
        &cells,
        |&k| k,
        |ctx, key, _| {
            let cfg = RunConfig::new(20.0, 0.01);
            let result = run_with_baseline(&ctx.trace, key.app, &cfg, &ctx.baseline(), 1);
            let fault_seed = ctx.derived_seed(0xFA17);
            let (fault_events, faulted_exec) = if fault_rate > 0.0 {
                let opts = ReplayOptions {
                    faults: Some(FaultConfig::with_rate(fault_seed, fault_rate)),
                    ..ReplayOptions::default()
                };
                let faulted = replay(&ctx.trace, None, &SimParams::paper(), &opts)
                    .expect("faulted replay");
                (faulted.faults.total_events(), format!("{}", faulted.exec_time))
            } else {
                (0, String::new())
            };
            CellOutcome {
                result,
                fault_seed,
                fault_events,
                faulted_exec,
            }
        },
    );
    serde_json::to_string(&outcomes).expect("serialize outcomes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn parallel_output_is_byte_identical_to_serial(
        seed in any::<u64>(),
        iterations in 10u32..30,
        fault_rate in 0.0f64..8.0,
    ) {
        let serial = run_grid(SweepOptions::serial(), iterations, seed, fault_rate);
        let par2 = run_grid(SweepOptions::with_jobs(2), iterations, seed, fault_rate);
        let par4 = run_grid(SweepOptions::with_jobs(4), iterations, seed, fault_rate);
        prop_assert_eq!(&serial, &par2);
        prop_assert_eq!(&serial, &par4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The persistent work-stealing pool is invisible in annotation
    /// output: a trace big enough to clear the serial cutover (so
    /// multi-job runs really fan out across pool workers) annotates
    /// byte-identically at `--jobs` 1, 2, and 4. Work-stealing order is
    /// nondeterministic; the output must not be.
    #[test]
    fn pool_annotation_byte_identical_across_jobs(
        seed in any::<u64>(),
        wide in any::<bool>(),
    ) {
        use ibp_core::{annotate_trace_jobs, PowerConfig, SERIAL_CUTOVER_EVENTS};

        let nprocs: u32 = if wide { 8 } else { 4 };

        // Size the workload to land just past the parallel cutover.
        let probe = ibp_workloads::Alya { iterations: 32, ..Default::default() };
        let per_iter = ibp_workloads::Workload::generate(&probe, nprocs, seed)
            .ranks
            .iter()
            .map(|r| r.events.len())
            .sum::<usize>()
            / 32;
        let iterations = 32.max((SERIAL_CUTOVER_EVENTS / per_iter + 2) as u32);
        let alya = ibp_workloads::Alya { iterations, ..Default::default() };
        let trace = ibp_workloads::Workload::generate(&alya, nprocs, seed);
        let total: usize = trace.ranks.iter().map(|r| r.events.len()).sum();
        prop_assert!(
            total >= SERIAL_CUTOVER_EVENTS,
            "trace too small to exercise the pool: {total} events"
        );

        let cfg = PowerConfig::paper(ibp_simcore::SimDuration::from_us(20), 0.01);
        let jobs1 = annotate_trace_jobs(&trace, &cfg, 1);
        let jobs2 = annotate_trace_jobs(&trace, &cfg, 2);
        let jobs4 = annotate_trace_jobs(&trace, &cfg, 4);
        prop_assert_eq!(&jobs1, &jobs2);
        prop_assert_eq!(&jobs1, &jobs4);
    }
}

#[test]
fn faulted_cells_stay_identical_across_job_counts() {
    // Deterministic spot check with faults definitely on — the property
    // test above samples the rate, this pins a known-faulty grid.
    let serial = run_grid(SweepOptions::serial(), 25, 0xD1C0, 6.0);
    let par = run_grid(SweepOptions::with_jobs(3), 25, 0xD1C0, 6.0);
    assert_eq!(serial, par);
    assert!(
        serial.contains("\"fault_events\":"),
        "fault metrics must be recorded"
    );
}
