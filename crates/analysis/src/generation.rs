//! Generation frontier: the savings-vs-slowdown trade-off of every
//! sleep depth across InfiniBand generations.
//!
//! The paper evaluates one hardware point (4X QDR, WRPS only). The
//! [`ibp_network::genlink`] generations and the planner's rung sets
//! ([`ibp_core::SleepRungs`]) generalize both axes; this exhibit
//! drives the paper's five applications across generations × sleep
//! policies on the sweep engine and reports the per-port and
//! whole-switch frontier each generation offers:
//!
//! * `wrps` — the paper's width-reduction mechanism, unchanged;
//! * `deep` — the §VI two-tier policy (WRPS + 5 ms-threshold deep);
//! * `ladder` — the full three-rung depth ladder (WRPS, rate
//!   reduction, deep sleep), depths picked per predicted idle.
//!
//! Faster generations drain the same traffic in less wire time, so idle
//! windows widen and the deeper rungs profit more — the frontier shows
//! how much of that headroom each policy converts.

use crate::exhibits::SELECT_DISPLACEMENT;
use crate::report::{f1, f2, Table};
use crate::sweep::{CellKey, SweepEngine};
use ibp_core::{PowerConfig, SleepKind};
use ibp_network::{replay, IbGeneration, ReplayOptions};
use ibp_simcore::SimDuration;
use ibp_workloads::AppKind;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The generations the frontier sweeps (oldest first). NDR/XDR are
/// available through [`IbGeneration::ALL`] but excluded from the pinned
/// exhibit: past HDR the workloads' wire time is negligible and the
/// rows stop moving.
pub const FRONTIER_GENERATIONS: [IbGeneration; 4] = [
    IbGeneration::Qdr,
    IbGeneration::Fdr,
    IbGeneration::Edr,
    IbGeneration::Hdr,
];

/// The deep-sleep threshold of the two-tier (`deep`) policy.
pub const DEEP_THRESHOLD: SimDuration = SimDuration::from_ms(5);

/// One (generation, app, policy) point on the frontier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenerationFrontierRow {
    /// Generation name (`QDR`, `FDR`, ...).
    pub generation: String,
    /// Full 4X link rate, Gb/s.
    pub link_gbps: f64,
    /// Application name.
    pub app: String,
    /// Process count.
    pub nprocs: u32,
    /// Sleep policy (`wrps`, `deep`, `ladder`).
    pub policy: String,
    /// Per-port (paper-metric) power saving, %.
    pub saving_pct: f64,
    /// Execution-time increase vs this generation's baseline, %.
    pub slowdown_pct: f64,
    /// Whole-switch saving on the generation's representative switch, %.
    pub switch_saving_pct: f64,
    /// Mean share of the run spent in WRPS 1X, %.
    pub wrps_time_pct: f64,
    /// Mean share of the run spent rate-reduced, %.
    pub rate_time_pct: f64,
    /// Mean share of the run spent in deep sleep, %.
    pub deep_time_pct: f64,
}

/// The sleep policies the frontier compares, in row order.
fn policies(gt: SimDuration) -> Vec<(&'static str, PowerConfig)> {
    vec![
        ("wrps", PowerConfig::paper(gt, SELECT_DISPLACEMENT)),
        (
            "deep",
            PowerConfig::paper(gt, SELECT_DISPLACEMENT).with_deep_sleep(DEEP_THRESHOLD),
        ),
        (
            "ladder",
            PowerConfig::paper(gt, SELECT_DISPLACEMENT).with_ladder(),
        ),
    ]
}

/// Compute the generation frontier: every app (8/9 ranks) × every
/// [`FRONTIER_GENERATIONS`] entry × three sleep policies.
///
/// Each generation's switch model and the policies' configs are
/// validated up front, so an inconsistent one surfaces as one typed
/// error instead of a panic mid-sweep.
pub fn generation_frontier(
    engine: &SweepEngine,
    seed: u64,
) -> Result<Vec<GenerationFrontierRow>, String> {
    for gen in FRONTIER_GENERATIONS {
        gen.switch_power_model()
            .validate()
            .map_err(|e| format!("generation {gen}: switch power model: {e}"))?;
    }
    for (name, cfg) in policies(SimDuration::from_us(20)) {
        cfg.validate().map_err(|e| format!("{name} policy: {e}"))?;
    }

    // Generation-major cell order; all 4 × 5 cells share the engine's
    // five memoized traces (the trace depends on the app, not the link
    // generation).
    let cells: Vec<(IbGeneration, CellKey)> = FRONTIER_GENERATIONS
        .iter()
        .flat_map(|&gen| {
            AppKind::ALL.iter().map(move |&app| {
                let n = if app == AppKind::NasBt { 9 } else { 8 };
                (gen, CellKey::new(app, n, seed))
            })
        })
        .collect();

    let per_cell: Vec<Vec<GenerationFrontierRow>> = engine.run_cells(
        &cells,
        |&(_, k)| k,
        |ctx, &(gen, key), _| {
            let params = gen.sim_params();
            let trace = &*ctx.trace;
            // The engine's memoized baseline is the QDR (paper-params)
            // one; other generations replay their own fault-free
            // baseline so slowdown compares like with like.
            let baseline = if gen == IbGeneration::Qdr {
                ctx.baseline()
            } else {
                Arc::new(
                    replay(trace, None, &params, &ReplayOptions::default())
                        .expect("baseline replay of a generated trace"),
                )
            };
            let model = gen.switch_power_model();
            policies(SimDuration::from_us(20))
                .into_iter()
                .map(|(name, cfg)| {
                    let ann = ctx.annotate(&cfg);
                    let managed = replay(trace, Some(&ann), &params, &ReplayOptions::default())
                        .expect("managed replay of a generated trace");
                    let report = model.report(&managed, managed.exec_time);
                    GenerationFrontierRow {
                        generation: gen.name().to_string(),
                        link_gbps: gen.link_gbps(),
                        app: key.app.name().to_string(),
                        nprocs: key.nprocs,
                        policy: name.to_string(),
                        saving_pct: managed.power_saving_pct(),
                        slowdown_pct: managed.slowdown_pct(&baseline),
                        switch_saving_pct: report.switch_saving_pct,
                        wrps_time_pct: 100.0 * managed.mean_sleep_fraction(SleepKind::Wrps),
                        rate_time_pct: 100.0 * managed.mean_sleep_fraction(SleepKind::Rate),
                        deep_time_pct: 100.0 * managed.mean_sleep_fraction(SleepKind::Deep),
                    }
                })
                .collect()
        },
    );
    Ok(per_cell.into_iter().flatten().collect())
}

/// Render the frontier table.
pub fn render_generation_frontier(rows: &[GenerationFrontierRow]) -> String {
    let mut t = Table::new(&[
        "gen",
        "gb/s",
        "app",
        "policy",
        "saving %",
        "slowdown %",
        "switch %",
        "wrps t%",
        "rate t%",
        "deep t%",
    ]);
    for r in rows {
        t.row(vec![
            r.generation.clone(),
            f1(r.link_gbps),
            r.app.clone(),
            r.policy.clone(),
            f1(r.saving_pct),
            f2(r.slowdown_pct),
            f1(r.switch_saving_pct),
            f1(r.wrps_time_pct),
            f1(r.rate_time_pct),
            f1(r.deep_time_pct),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepOptions, TraceFn};
    use ibp_workloads::Workload;

    /// Shrunk traces so the frontier test stays debug-profile cheap.
    fn tiny_trace_fn() -> TraceFn {
        Arc::new(|key: &CellKey| match key.app {
            AppKind::Gromacs => ibp_workloads::Gromacs {
                iterations: 40,
                ..Default::default()
            }
            .generate(key.nprocs, key.seed),
            AppKind::Alya => ibp_workloads::Alya {
                iterations: 30,
                ..Default::default()
            }
            .generate(key.nprocs, key.seed),
            AppKind::Wrf => ibp_workloads::Wrf {
                iterations: 20,
                ..Default::default()
            }
            .generate(key.nprocs, key.seed),
            AppKind::NasBt => ibp_workloads::NasBt {
                iterations: 30,
                ..Default::default()
            }
            .generate(key.nprocs, key.seed),
            AppKind::NasMg => ibp_workloads::NasMg {
                iterations: 25,
                ..Default::default()
            }
            .generate(key.nprocs, key.seed),
        })
    }

    #[test]
    fn frontier_covers_the_full_grid_in_order() {
        let engine = SweepEngine::with_trace_fn(SweepOptions::default(), tiny_trace_fn());
        let rows = generation_frontier(&engine, 7).expect("valid standard hardware");
        assert_eq!(
            rows.len(),
            FRONTIER_GENERATIONS.len() * AppKind::ALL.len() * 3
        );
        // Generation-major, app-minor, policy order pinned.
        assert_eq!(rows[0].generation, "QDR");
        assert_eq!(rows[0].policy, "wrps");
        assert_eq!(rows[1].policy, "deep");
        assert_eq!(rows[2].policy, "ladder");
        assert_eq!(rows.last().unwrap().generation, "HDR");
        // One trace per app regardless of the 4 generations touching it.
        assert_eq!(engine.stats().traces_generated, 5);
        let text = render_generation_frontier(&rows);
        assert!(text.contains("HDR") && text.contains("ladder"));
    }

    #[test]
    fn qdr_wrps_rows_match_the_paper_mechanism() {
        // The frontier's QDR/wrps corner is the paper configuration:
        // identical to replaying the paper mechanism by hand.
        let engine = SweepEngine::with_trace_fn(SweepOptions::default(), tiny_trace_fn());
        let rows = generation_frontier(&engine, 3).unwrap();
        let key = CellKey::new(AppKind::Alya, 8, 3);
        let cfg = PowerConfig::paper(SimDuration::from_us(20), SELECT_DISPLACEMENT);
        let ann = ibp_core::annotate_trace(&engine.trace(&key), &cfg);
        let managed = replay(
            &engine.trace(&key),
            Some(&ann),
            &ibp_network::SimParams::paper(),
            &ReplayOptions::default(),
        )
        .unwrap();
        let row = rows
            .iter()
            .find(|r| r.generation == "QDR" && r.app == "alya" && r.policy == "wrps")
            .unwrap();
        assert_eq!(row.saving_pct, managed.power_saving_pct());
        assert_eq!(row.rate_time_pct, 0.0, "wrps policy never rate-reduces");
        assert_eq!(row.deep_time_pct, 0.0, "wrps policy never sleeps deep");
    }

    #[test]
    fn ladder_never_loses_to_wrps_on_savings() {
        let engine = SweepEngine::with_trace_fn(SweepOptions::default(), tiny_trace_fn());
        let rows = generation_frontier(&engine, 11).unwrap();
        for chunk in rows.chunks_exact(3) {
            let (wrps, ladder) = (&chunk[0], &chunk[2]);
            assert!(
                ladder.saving_pct >= wrps.saving_pct - 1e-9,
                "{} {}: ladder {} < wrps {}",
                wrps.generation,
                wrps.app,
                ladder.saving_pct,
                wrps.saving_pct
            );
        }
    }
}
