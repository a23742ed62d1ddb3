//! End-to-end experiment driver.
//!
//! One experiment = one application at one scale with one power-saving
//! configuration, following the paper's methodology exactly:
//!
//! 1. generate the application trace;
//! 2. replay it unmodified → original execution time;
//! 3. run the PPA + power-mode control over the trace (the PMPI pass),
//!    producing lane directives, overheads and penalties;
//! 4. replay the annotated trace → modified execution time and per-link
//!    low-power spans;
//! 5. report power saving vs the always-on baseline and the
//!    execution-time increase.

use ibp_core::{annotate_trace_jobs, PowerConfig, RankStats, TraceAnnotations};
use ibp_network::{replay, ReplayOptions, SimParams, SimResult};
use ibp_simcore::SimDuration;
use ibp_trace::{IdleDistribution, Trace};
use ibp_workloads::{AppKind, Scaling};
use serde::{Deserialize, Serialize};

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Grouping threshold, µs.
    pub gt_us: f64,
    /// Displacement factor (0.01 / 0.05 / 0.10 in the paper).
    pub displacement: f64,
    /// Workload generation seed.
    pub seed: u64,
}

impl RunConfig {
    /// A run configuration with the given GT and displacement.
    pub fn new(gt_us: f64, displacement: f64) -> Self {
        RunConfig {
            gt_us,
            displacement,
            seed: 0xD1C0,
        }
    }

    /// The [`PowerConfig`] this run uses.
    pub fn power_config(&self) -> PowerConfig {
        PowerConfig::paper(SimDuration::from_us_f64(self.gt_us), self.displacement)
    }
}

/// Everything measured for one (app, nprocs, config) run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Application name.
    pub app: String,
    /// Process count.
    pub nprocs: u32,
    /// Grouping threshold used, µs.
    pub gt_us: f64,
    /// Displacement factor used.
    pub displacement: f64,
    /// Table III metric: correctly predicted MPI calls (%), averaged over
    /// ranks.
    pub hit_rate_pct: f64,
    /// Figs. 7a/8a/9a metric: IB switch power saving (%), from the replay.
    pub power_saving_pct: f64,
    /// Figs. 7b/8b/9b metric: execution-time increase (%).
    pub slowdown_pct: f64,
    /// Quick estimate of the saving from the runtime alone (no replay
    /// denominator; the number GT selection maximises).
    pub est_saving_pct: f64,
    /// Baseline execution time.
    pub baseline_exec: SimDuration,
    /// Managed execution time.
    pub managed_exec: SimDuration,
    /// Aggregate runtime counters over all ranks.
    pub stats: RankStats,
    /// Idle-interval distribution of the generated trace (Table I).
    pub idle: IdleDistribution,
}

/// Generate the strong-scaling trace for `app` at `nprocs`
/// (deterministic per seed).
pub fn make_trace(app: AppKind, nprocs: u32, seed: u64) -> Trace {
    app.workload(Scaling::Strong).generate(nprocs, seed)
}

/// Annotate + double replay, computing every reported metric.
pub fn run_on_trace(trace: &Trace, app: AppKind, cfg: &RunConfig) -> RunResult {
    let params = SimParams::paper();
    let opts = ReplayOptions::default();
    let baseline = replay(trace, None, &params, &opts).expect("replay");
    run_with_baseline(trace, app, cfg, &baseline, 1)
}

/// Annotate + managed replay against an already-computed fault-free
/// baseline (the sweep engine memoizes the baseline per trace key, so
/// it is replayed exactly once per sweep instead of once per cell).
/// The annotation pass is spread over up to `rank_jobs` threads (sweep
/// cells hand in their leftover worker budget); results are identical
/// for any `rank_jobs`.
pub fn run_with_baseline(
    trace: &Trace,
    app: AppKind,
    cfg: &RunConfig,
    baseline: &SimResult,
    rank_jobs: usize,
) -> RunResult {
    run_managed(trace, app, cfg, baseline, rank_jobs, |ann| {
        replay(
            trace,
            Some(ann),
            &SimParams::paper(),
            &ReplayOptions::default(),
        )
        .expect("replay")
    })
}

/// [`run_with_baseline`] with the managed replay left to `managed`
/// (the sweep engine's [`crate::CellCtx::run`] reuses timing runs).
pub(crate) fn run_managed(
    trace: &Trace,
    app: AppKind,
    cfg: &RunConfig,
    baseline: &SimResult,
    rank_jobs: usize,
    managed: impl FnOnce(&TraceAnnotations) -> SimResult,
) -> RunResult {
    let ann = annotate_trace_jobs(trace, &cfg.power_config(), rank_jobs);
    let managed = managed(&ann);
    collect(trace, app, cfg, &ann, Some((baseline, &managed)))
}

/// Runtime-only pass (annotation, no replay): the runtime's own
/// counters at one configuration, as Table IV reads them.
/// `est_saving_pct` and `hit_rate_pct` are filled; replay metrics are 0.
/// `rank_jobs` as in [`run_with_baseline`].
pub fn run_runtime_only(
    trace: &Trace,
    app: AppKind,
    cfg: &RunConfig,
    rank_jobs: usize,
) -> RunResult {
    let ann = annotate_trace_jobs(trace, &cfg.power_config(), rank_jobs);
    collect(trace, app, cfg, &ann, None)
}

/// Score one annotated run; `replays` is the `(baseline, managed)`
/// replay pair, or `None` for a runtime-only pass.
fn collect(
    trace: &Trace,
    app: AppKind,
    cfg: &RunConfig,
    ann: &TraceAnnotations,
    replays: Option<(&SimResult, &SimResult)>,
) -> RunResult {
    RunResult {
        app: app.name().to_string(),
        nprocs: trace.nprocs,
        gt_us: cfg.gt_us,
        displacement: cfg.displacement,
        hit_rate_pct: ann.mean_hit_rate_pct(),
        power_saving_pct: replays.map_or(0.0, |(_, managed)| managed.power_saving_pct()),
        slowdown_pct: replays.map_or(0.0, |(baseline, managed)| managed.slowdown_pct(baseline)),
        est_saving_pct: ann.mean_est_power_saving_pct(cfg.power_config().low_power_fraction),
        baseline_exec: replays.map_or(SimDuration::ZERO, |(baseline, _)| baseline.exec_time),
        managed_exec: replays.map_or(SimDuration::ZERO, |(_, managed)| managed.exec_time),
        stats: ann.aggregate_stats(),
        idle: IdleDistribution::from_trace(trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alya_small_end_to_end() {
        // Shrunk ALYA run: the full pipeline holds together and produces
        // sane numbers.
        let alya = ibp_workloads::Alya {
            iterations: 40,
            ..Default::default()
        };
        let trace = ibp_workloads::Workload::generate(&alya, 8, 1);
        let cfg = RunConfig::new(20.0, 0.10);
        let r = run_on_trace(&trace, AppKind::Alya, &cfg);
        assert!(r.hit_rate_pct > 50.0, "hit {}", r.hit_rate_pct);
        assert!(r.power_saving_pct > 0.0 && r.power_saving_pct < 57.0);
        assert!(r.slowdown_pct > -0.5 && r.slowdown_pct < 5.0);
        assert!(r.baseline_exec > SimDuration::ZERO);
        assert!(r.managed_exec >= r.baseline_exec);
    }

    #[test]
    fn runtime_only_matches_full_run_hit_rate() {
        let alya = ibp_workloads::Alya {
            iterations: 30,
            ..Default::default()
        };
        let trace = ibp_workloads::Workload::generate(&alya, 4, 2);
        let cfg = RunConfig::new(20.0, 0.01);
        let fast = run_runtime_only(&trace, AppKind::Alya, &cfg, 1);
        let full = run_on_trace(&trace, AppKind::Alya, &cfg);
        assert_eq!(fast.hit_rate_pct, full.hit_rate_pct);
        assert_eq!(fast.est_saving_pct, full.est_saving_pct);
    }
}
