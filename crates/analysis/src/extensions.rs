//! Studies beyond the paper's published evaluation.
//!
//! * [`policy_ablation`] — the predictive mechanism between its bounds:
//!   a clairvoyant oracle (max savings at zero stalls) and reactive
//!   idle-timeout hardware policies (more savings, every wake-up on the
//!   critical path) — quantifying the related-work trade-off the paper
//!   argues qualitatively.
//! * [`deep_sleep_study`] — the paper's §VI future work: let long
//!   predicted idles power down switch buffers/crossbar too
//!   (millisecond reactivation, ~10% draw) and measure what the
//!   prediction accuracy buys.
//! * [`weak_scaling_study`] — the paper's §VI conjecture that the
//!   mechanism "would benefit more in weak scaling runs".
//! * [`robustness_study`] — failure injection: amplify compute jitter
//!   and watch mispredictions, savings, and slowdown degrade.

use crate::experiment::RunConfig;
use crate::report::{f1, f2, Table};
use crate::sweep::{CellKey, SweepEngine, VARIANT_JITTER, VARIANT_WEAK};
use ibp_core::{
    annotate_trace, history_annotate_rank, map_ranks, oracle_annotate_rank, reactive_annotate_rank,
    PowerConfig, RankAnnotation, TraceAnnotations,
};
use ibp_network::{replay, ReplayOptions, SimParams, SimResult};
use ibp_simcore::SimDuration;
use ibp_trace::{RankTrace, Trace};
use ibp_workloads::{AppKind, Scaling};
use serde::{Deserialize, Serialize};

/// One policy's outcome on one application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Application name.
    pub app: String,
    /// Policy label.
    pub policy: String,
    /// IB switch power saving, %.
    pub saving_pct: f64,
    /// Execution-time increase vs the unmanaged baseline, %.
    pub slowdown_pct: f64,
}

fn run_policy(
    trace: &Trace,
    baseline: &SimResult,
    ann: &TraceAnnotations,
    params: &SimParams,
) -> (f64, f64) {
    let managed = replay(trace, Some(ann), params, &ReplayOptions::default()).expect("replay");
    (managed.power_saving_pct(), managed.slowdown_pct(baseline))
}

/// Annotate every rank of `trace` with a per-rank policy driver, on up
/// to `jobs` threads (identical output for any `jobs`).
fn annotate_ranks(
    trace: &Trace,
    jobs: usize,
    policy: impl Fn(&RankTrace) -> RankAnnotation + Sync,
) -> TraceAnnotations {
    TraceAnnotations {
        ranks: map_ranks(&trace.ranks, jobs, policy),
    }
}

/// Nearest valid NAS BT (square) process count.
fn bt_square(nprocs: u32) -> u32 {
    match nprocs {
        8 => 9,
        32 => 36,
        128 => 100,
        other => other,
    }
}

/// Compare the predictive mechanism against the oracle and reactive
/// baselines on every application at `nprocs` ranks.
pub fn policy_ablation(engine: &SweepEngine, nprocs: u32, seed: u64) -> Vec<PolicyOutcome> {
    let cells: Vec<CellKey> = AppKind::ALL
        .iter()
        .map(|&app| {
            let n = if app == AppKind::NasBt {
                bt_square(nprocs)
            } else {
                nprocs
            };
            CellKey::new(app, n, seed)
        })
        .collect();
    let per_app: Vec<Vec<PolicyOutcome>> = engine.run_cells(
        &cells,
        |&k| k,
        |ctx, key, _| {
            let params = SimParams::paper();
            let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
            let trace = &*ctx.trace;
            let baseline = ctx.baseline();

            let jobs = ctx.rank_jobs;
            let policies: Vec<(String, TraceAnnotations)> = vec![
                ("ppa".into(), ctx.annotate(&cfg)),
                (
                    "oracle".into(),
                    annotate_ranks(trace, jobs, |r| oracle_annotate_rank(r, &cfg)),
                ),
                (
                    "reactive-0us".into(),
                    annotate_ranks(trace, jobs, |r| {
                        reactive_annotate_rank(r, &cfg, SimDuration::ZERO)
                    }),
                ),
                (
                    "reactive-50us".into(),
                    annotate_ranks(trace, jobs, |r| {
                        reactive_annotate_rank(r, &cfg, SimDuration::from_us(50))
                    }),
                ),
                (
                    "history-8".into(),
                    annotate_ranks(trace, jobs, |r| history_annotate_rank(r, &cfg, 8)),
                ),
            ];
            policies
                .into_iter()
                .map(|(name, ann)| {
                    let (saving, slowdown) = run_policy(trace, &baseline, &ann, &params);
                    PolicyOutcome {
                        app: key.app.name().to_string(),
                        policy: name,
                        saving_pct: saving,
                        slowdown_pct: slowdown,
                    }
                })
                .collect()
        },
    );
    per_app.into_iter().flatten().collect()
}

/// Render the policy ablation.
pub fn render_policy_ablation(rows: &[PolicyOutcome]) -> String {
    let mut t = Table::new(&["app", "policy", "saving %", "slowdown %"]);
    for r in rows {
        t.row(vec![
            r.app.clone(),
            r.policy.clone(),
            f1(r.saving_pct),
            f2(r.slowdown_pct),
        ]);
    }
    t.render()
}

/// WRPS-only vs two-tier (WRPS + deep) policy per application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeepSleepOutcome {
    /// Application name.
    pub app: String,
    /// WRPS-only saving, %.
    pub wrps_saving_pct: f64,
    /// WRPS-only slowdown, %.
    pub wrps_slowdown_pct: f64,
    /// Two-tier saving, %.
    pub deep_saving_pct: f64,
    /// Two-tier slowdown, %.
    pub deep_slowdown_pct: f64,
    /// Share of sleep windows that went deep, %.
    pub deep_window_pct: f64,
}

/// Run the §VI deep-sleep study at `nprocs` ranks with the given deep
/// threshold.
pub fn deep_sleep_study(
    engine: &SweepEngine,
    nprocs: u32,
    threshold: SimDuration,
    seed: u64,
) -> Vec<DeepSleepOutcome> {
    let cells: Vec<CellKey> = AppKind::ALL
        .iter()
        .map(|&app| {
            let n = if app == AppKind::NasBt { 9 } else { nprocs };
            CellKey::new(app, n, seed)
        })
        .collect();
    engine.run_cells(
        &cells,
        |&k| k,
        |ctx, key, _| {
            let app = key.app;
            let params = SimParams::paper();
            let base_cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
            let deep_cfg = base_cfg.clone().with_deep_sleep(threshold);
            let trace = &*ctx.trace;
            let baseline = ctx.baseline();
            let wrps_ann = ctx.annotate(&base_cfg);
            let deep_ann = ctx.annotate(&deep_cfg);
            let (ws, wd) = run_policy(trace, &baseline, &wrps_ann, &params);
            let (ds, dd) = run_policy(trace, &baseline, &deep_ann, &params);
            let total: usize = deep_ann.ranks.iter().map(|r| r.directives.len()).sum();
            let deep: usize = deep_ann
                .ranks
                .iter()
                .flat_map(|r| &r.directives)
                .filter(|d| d.kind == ibp_core::SleepKind::Deep)
                .count();
            DeepSleepOutcome {
                app: app.name().to_string(),
                wrps_saving_pct: ws,
                wrps_slowdown_pct: wd,
                deep_saving_pct: ds,
                deep_slowdown_pct: dd,
                deep_window_pct: if total == 0 {
                    0.0
                } else {
                    100.0 * deep as f64 / total as f64
                },
            }
        },
    )
}

/// Render the deep-sleep study.
pub fn render_deep_sleep(rows: &[DeepSleepOutcome]) -> String {
    let mut t = Table::new(&[
        "app",
        "WRPS sav%",
        "WRPS slow%",
        "deep sav%",
        "deep slow%",
        "deep windows %",
    ]);
    for r in rows {
        t.row(vec![
            r.app.clone(),
            f1(r.wrps_saving_pct),
            f2(r.wrps_slowdown_pct),
            f1(r.deep_saving_pct),
            f2(r.deep_slowdown_pct),
            f1(r.deep_window_pct),
        ]);
    }
    t.render()
}

/// Strong vs weak scaling of the savings for one application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingOutcome {
    /// Application name.
    pub app: String,
    /// Process counts.
    pub procs: Vec<u32>,
    /// Strong-scaling savings per count, %.
    pub strong_saving_pct: Vec<f64>,
    /// Weak-scaling savings per count, %.
    pub weak_saving_pct: Vec<f64>,
}

/// The §VI conjecture: weak-scaling savings stay flat where strong
/// scaling collapses. Strong and weak cells share nothing, so all
/// `2 × procs` cells run concurrently on the engine (weak traces are
/// cached under [`VARIANT_WEAK`] keys).
pub fn weak_scaling_study(engine: &SweepEngine, app: AppKind, seed: u64) -> ScalingOutcome {
    let procs: Vec<u32> = if app == AppKind::NasBt {
        vec![9, 16, 36, 64]
    } else {
        vec![8, 16, 32, 64]
    };
    // Cell order mirrors the original serial loops: per count, strong
    // then weak.
    let cells: Vec<CellKey> = procs
        .iter()
        .flat_map(|&n| {
            [Scaling::Strong, Scaling::Weak].map(|mode| CellKey {
                app,
                nprocs: n,
                seed,
                variant: match mode {
                    Scaling::Strong => crate::sweep::VARIANT_STRONG,
                    Scaling::Weak => VARIANT_WEAK,
                },
            })
        })
        .collect();
    let savings = engine.run_cells(
        &cells,
        |&k| k,
        |ctx, _, _| {
            let params = SimParams::paper();
            let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
            let ann = ctx.annotate(&cfg);
            let (saving, _) = run_policy(&ctx.trace, &ctx.baseline(), &ann, &params);
            saving
        },
    );
    let (strong, weak): (Vec<f64>, Vec<f64>) = savings
        .chunks_exact(2)
        .map(|pair| (pair[0], pair[1]))
        .unzip();
    ScalingOutcome {
        app: app.name().to_string(),
        procs,
        strong_saving_pct: strong,
        weak_saving_pct: weak,
    }
}

/// Render a weak-scaling study.
pub fn render_weak_scaling(rows: &[ScalingOutcome]) -> String {
    let mut t = Table::new(&["app", "mode", "@8/9", "@16", "@32/36", "@64"]);
    for r in rows {
        let mut strong = vec![r.app.clone(), "strong".into()];
        let mut weak = vec![r.app.clone(), "weak".into()];
        for i in 0..4 {
            strong.push(f1(r.strong_saving_pct[i]));
            weak.push(f1(r.weak_saving_pct[i]));
        }
        t.row(strong);
        t.row(weak);
    }
    t.render()
}

/// One jitter level's outcome in the robustness study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Jitter multiplier applied to the generator's sigma.
    pub jitter_multiplier: f64,
    /// Hit rate, %.
    pub hit_rate_pct: f64,
    /// Power saving, %.
    pub saving_pct: f64,
    /// Slowdown, %.
    pub slowdown_pct: f64,
    /// Timing mispredictions per 1000 calls.
    pub timing_miss_per_kcall: f64,
}

/// The jitter multipliers [`robustness_study`] sweeps.
pub const JITTER_MULTIPLIERS: [f64; 7] = [0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0];

/// Failure injection: scale ALYA's compute jitter and displacement-test
/// the mechanism. The jittered traces are [`VARIANT_JITTER`] cells of
/// the caller's engine, so its counters report this study's work.
pub fn robustness_study(engine: &SweepEngine, nprocs: u32, seed: u64) -> Vec<RobustnessPoint> {
    let cells: Vec<CellKey> = (0..JITTER_MULTIPLIERS.len() as u32)
        .map(|i| CellKey {
            app: AppKind::Alya,
            nprocs,
            seed,
            variant: VARIANT_JITTER + i,
        })
        .collect();
    engine.run_cells(
        &cells,
        |&k| k,
        |ctx, key, _| {
            let params = SimParams::paper();
            let cfg = RunConfig::new(20.0, 0.01).power_config();
            let ann = ctx.annotate(&cfg);
            let agg = ann.aggregate_stats();
            let managed =
                replay(&ctx.trace, Some(&ann), &params, &ReplayOptions::default()).expect("replay");
            RobustnessPoint {
                jitter_multiplier: JITTER_MULTIPLIERS[(key.variant - VARIANT_JITTER) as usize],
                hit_rate_pct: agg.hit_rate_pct(),
                saving_pct: managed.power_saving_pct(),
                slowdown_pct: managed.slowdown_pct(&ctx.baseline()),
                timing_miss_per_kcall: 1000.0 * agg.timing_mispredictions as f64
                    / agg.total_calls.max(1) as f64,
            }
        },
    )
}

/// One fault-rate level's outcome in the fault-tolerance study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultTolerancePoint {
    /// Fault-rate multiplier fed to [`ibp_network::FaultConfig::with_rate`].
    pub fault_rate: f64,
    /// Fault events injected into the managed (plain) run.
    pub fault_events: u64,
    /// Hit rate of the plain annotation, %.
    pub hit_rate_pct: f64,
    /// Power saving of the plain mechanism under faults, %.
    pub plain_saving_pct: f64,
    /// Slowdown of the plain mechanism vs the power-unaware baseline
    /// replayed under the *same* faults, %.
    pub plain_slowdown_pct: f64,
    /// Power saving with the resilience controller enabled, %.
    pub resilient_saving_pct: f64,
    /// Slowdown with the resilience controller enabled, %.
    pub resilient_slowdown_pct: f64,
    /// Misprediction storms the resilience controller detected.
    pub storms: u64,
}

/// Fault injection sweep: replay ALYA under rising link fault rates,
/// with and without the resilience controller, always comparing against
/// a power-unaware baseline subjected to the same faults.
pub fn fault_tolerance_study(
    engine: &SweepEngine,
    nprocs: u32,
    seed: u64,
) -> Vec<FaultTolerancePoint> {
    let key = CellKey::new(AppKind::Alya, nprocs, seed);
    // The two annotation passes are shared by every fault-rate cell;
    // compute them once, outside the pool, from the memoized trace.
    let trace = engine.trace(&key);
    let plain_cfg = RunConfig::new(20.0, 0.01).power_config();
    let resilient_cfg = plain_cfg
        .clone()
        .with_resilience(ibp_core::ResilienceConfig::standard());
    let plain_ann = annotate_trace(&trace, &plain_cfg);
    let resilient_ann = annotate_trace(&trace, &resilient_cfg);
    let rates: Vec<f64> = vec![0.0, 1.0, 5.0, 10.0, 25.0, 50.0];
    engine.run_cells(
        &rates,
        |_| key,
        |ctx, &rate, _| {
            let params = SimParams::paper();
            // The fault plan derives from the *cell key* (the study
            // seed), never from pool scheduling: identical plans under
            // any --jobs value.
            let opts = ReplayOptions {
                faults: (rate > 0.0)
                    .then(|| ibp_network::FaultConfig::with_rate(seed ^ 0xFA17, rate)),
                ..ReplayOptions::default()
            };
            // The rate-0 baseline is the memoized fault-free one; faulty
            // baselines are replayed per cell (the fault stream differs).
            let baseline = if opts.faults.is_none() {
                ctx.baseline()
            } else {
                std::sync::Arc::new(replay(&ctx.trace, None, &params, &opts).expect("replay"))
            };
            let plain = replay(&ctx.trace, Some(&plain_ann), &params, &opts).expect("replay");
            let resilient =
                replay(&ctx.trace, Some(&resilient_ann), &params, &opts).expect("replay");
            FaultTolerancePoint {
                fault_rate: rate,
                fault_events: plain.faults.total_events(),
                hit_rate_pct: plain_ann.aggregate_stats().hit_rate_pct(),
                plain_saving_pct: plain.power_saving_pct(),
                plain_slowdown_pct: plain.slowdown_pct(&baseline),
                resilient_saving_pct: resilient.power_saving_pct(),
                resilient_slowdown_pct: resilient.slowdown_pct(&baseline),
                storms: resilient_ann.aggregate_stats().storms,
            }
        },
    )
}

/// Render the fault-tolerance study.
pub fn render_fault_tolerance(rows: &[FaultTolerancePoint]) -> String {
    let mut t = Table::new(&[
        "fault x",
        "events",
        "hit %",
        "plain sav%",
        "plain slow%",
        "resil sav%",
        "resil slow%",
    ]);
    for r in rows {
        t.row(vec![
            f1(r.fault_rate),
            r.fault_events.to_string(),
            f1(r.hit_rate_pct),
            f1(r.plain_saving_pct),
            f2(r.plain_slowdown_pct),
            f1(r.resilient_saving_pct),
            f2(r.resilient_slowdown_pct),
        ]);
    }
    t.render()
}

/// Render the robustness study.
pub fn render_robustness(rows: &[RobustnessPoint]) -> String {
    let mut t = Table::new(&[
        "jitter x",
        "hit %",
        "saving %",
        "slowdown %",
        "late wakes /kcall",
    ]);
    for r in rows {
        t.row(vec![
            f1(r.jitter_multiplier),
            f1(r.hit_rate_pct),
            f1(r.saving_pct),
            f2(r.slowdown_pct),
            f1(r.timing_miss_per_kcall),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepOptions;
    use ibp_workloads::Workload;

    /// Relative link energy of a policy against the unmanaged run: the
    /// share of power it still draws times the share of time it runs,
    /// (1 − saving)·(1 + slowdown).
    fn relative_energy(saving_pct: f64, slowdown_pct: f64) -> f64 {
        (1.0 - saving_pct / 100.0) * (1.0 + slowdown_pct / 100.0)
    }

    #[test]
    fn oracle_bounds_ppa_from_above() {
        // Use a small ALYA for speed.
        let alya = ibp_workloads::Alya {
            iterations: 40,
            ..Default::default()
        };
        let trace = alya.generate(8, 1);
        let params = SimParams::paper();
        let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
        let baseline = replay(&trace, None, &params, &ReplayOptions::default()).expect("replay");
        let (ppa_s, ppa_d) = run_policy(&trace, &baseline, &annotate_trace(&trace, &cfg), &params);
        let oracle = annotate_ranks(&trace, 1, |r| oracle_annotate_rank(r, &cfg));
        let (ora_s, ora_d) = run_policy(&trace, &baseline, &oracle, &params);
        assert!(ora_s >= ppa_s, "oracle {ora_s} < ppa {ppa_s}");
        assert!(
            ora_d <= ppa_d + 0.05,
            "oracle slowdown {ora_d} vs ppa {ppa_d}"
        );

        // The bound that holds for every ablation policy is on energy:
        // a reactive policy may save more power than the oracle, but it
        // pays for it in run time.
        let oracle_energy = relative_energy(ora_s, ora_d);
        let us = SimDuration::from_us;
        let policies = [
            ("ppa", annotate_trace(&trace, &cfg)),
            (
                "reactive-0us",
                annotate_ranks(&trace, 1, |r| reactive_annotate_rank(r, &cfg, us(0))),
            ),
            (
                "reactive-50us",
                annotate_ranks(&trace, 1, |r| reactive_annotate_rank(r, &cfg, us(50))),
            ),
            (
                "history-8",
                annotate_ranks(&trace, 1, |r| history_annotate_rank(r, &cfg, 8)),
            ),
        ];
        for (name, ann) in &policies {
            let (s, d) = run_policy(&trace, &baseline, ann, &params);
            let energy = relative_energy(s, d);
            assert!(
                oracle_energy <= energy,
                "oracle energy {oracle_energy} above {name}'s {energy}"
            );
        }
    }

    /// The committed ablation rows obey the same energy bound in every
    /// application.
    #[test]
    fn committed_ablation_oracle_bounds_every_policy_on_energy() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/ablation.json");
        let json = std::fs::read_to_string(path).expect("results/ablation.json is committed");
        let rows: Vec<PolicyOutcome> = serde_json::from_str(&json).expect("ablation rows");
        let mut apps = 0;
        for app in AppKind::ALL {
            let app_rows: Vec<&PolicyOutcome> =
                rows.iter().filter(|r| r.app == app.name()).collect();
            let energy = |r: &PolicyOutcome| relative_energy(r.saving_pct, r.slowdown_pct);
            let oracle = app_rows
                .iter()
                .find(|r| r.policy == "oracle")
                .unwrap_or_else(|| panic!("{} has an oracle row", app.name()));
            for r in &app_rows {
                assert!(
                    energy(oracle) <= energy(r),
                    "{}: oracle energy {} above {}'s {}",
                    r.app,
                    energy(oracle),
                    r.policy,
                    energy(r)
                );
            }
            assert_eq!(app_rows.len(), 5, "{}: five policies", app.name());
            apps += 1;
        }
        assert_eq!(apps, 5);
    }

    #[test]
    fn reactive_trades_stalls_for_savings() {
        let alya = ibp_workloads::Alya {
            iterations: 40,
            ..Default::default()
        };
        let trace = alya.generate(8, 2);
        let params = SimParams::paper();
        let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
        let baseline = replay(&trace, None, &params, &ReplayOptions::default()).expect("replay");
        let (ppa_s, ppa_d) = run_policy(&trace, &baseline, &annotate_trace(&trace, &cfg), &params);
        let reactive = annotate_ranks(&trace, 1, |r| {
            reactive_annotate_rank(r, &cfg, SimDuration::ZERO)
        });
        let (rea_s, rea_d) = run_policy(&trace, &baseline, &reactive, &params);
        // Reactive exploits every gap (even unpredictable ones) → more
        // savings, but pays T_react on every wake-up → more slowdown.
        assert!(rea_s >= ppa_s, "reactive {rea_s} < ppa {ppa_s}");
        assert!(rea_d > ppa_d, "reactive slowdown {rea_d} <= ppa {ppa_d}");
    }

    #[test]
    fn deep_sleep_increases_savings_on_long_gap_apps() {
        // WRF at 8 ranks has ~18 ms physics gaps: deep sleep (threshold
        // 5 ms) should beat WRPS-only on savings.
        let wrf = ibp_workloads::Wrf {
            iterations: 30,
            ..Default::default()
        };
        let trace = ibp_workloads::Workload::generate(&wrf, 8, 3);
        let params = SimParams::paper();
        let base_cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
        let deep_cfg = base_cfg.clone().with_deep_sleep(SimDuration::from_ms(5));
        let baseline = replay(&trace, None, &params, &ReplayOptions::default()).expect("replay");
        let (ws, _) = run_policy(
            &trace,
            &baseline,
            &annotate_trace(&trace, &base_cfg),
            &params,
        );
        let (ds, _) = run_policy(
            &trace,
            &baseline,
            &annotate_trace(&trace, &deep_cfg),
            &params,
        );
        assert!(
            ds > ws + 5.0,
            "deep sleep should add savings on WRF: {ds} vs {ws}"
        );
    }

    #[test]
    fn weak_scaling_flattens_the_collapse() {
        let engine = SweepEngine::new(SweepOptions::default());
        let out = weak_scaling_study(&engine, AppKind::Alya, 4);
        // Strong scaling collapses from @8 to @64…
        let s_drop = out.strong_saving_pct[0] - out.strong_saving_pct[3];
        // …weak scaling must retain much more of the saving.
        let w_drop = out.weak_saving_pct[0] - out.weak_saving_pct[3];
        assert!(
            w_drop < s_drop * 0.6,
            "weak drop {w_drop} not much flatter than strong drop {s_drop}\n{out:?}"
        );
        assert!(out.weak_saving_pct[3] > out.strong_saving_pct[3]);
    }

    #[test]
    fn fault_tolerance_sweep_is_consistent() {
        let engine = SweepEngine::new(SweepOptions::default());
        let rows = fault_tolerance_study(&engine, 4, 6);
        assert_eq!(rows[0].fault_rate, 0.0);
        assert_eq!(rows[0].fault_events, 0, "rate 0 must be fault-free");
        let last = rows.last().unwrap();
        assert!(last.fault_events > 0, "heavy rate must inject faults");
        // Fault-free slowdowns of plain and resilient runs stay close:
        // the resilience controller is near-dormant on a clean trace.
        assert!(
            (rows[0].plain_saving_pct - rows[0].resilient_saving_pct).abs() < 1.0,
            "plain {} vs resilient {}",
            rows[0].plain_saving_pct,
            rows[0].resilient_saving_pct
        );
    }

    #[test]
    fn robustness_degrades_gracefully() {
        let engine = SweepEngine::new(SweepOptions::default());
        let rows = robustness_study(&engine, 8, 5);
        let stats = engine.stats();
        assert_eq!(stats.traces_generated as usize, JITTER_MULTIPLIERS.len());
        let first = &rows[0];
        let last = rows.last().unwrap();
        // Extreme jitter must cost late wake-ups and savings…
        assert!(last.timing_miss_per_kcall > first.timing_miss_per_kcall);
        assert!(last.saving_pct < first.saving_pct);
        // …but never catastrophic slowdown (stalls are T_react-capped).
        assert!(last.slowdown_pct < 5.0, "{}", last.slowdown_pct);
    }

    #[test]
    fn robustness_on_a_shared_engine_matches_a_standalone_run() {
        // A shared, parallel engine that already holds the same key's
        // paper-workload trace and baseline: the jitter variants must
        // neither collide with them nor depend on the pool.
        let (nprocs, seed) = (4, 3);
        let shared = SweepEngine::new(SweepOptions::with_jobs(2));
        shared.baseline(&CellKey::new(AppKind::Alya, nprocs, seed));
        let mark = shared.stats();
        let rows = robustness_study(&shared, nprocs, seed);
        let standalone = robustness_study(&SweepEngine::new(SweepOptions::serial()), nprocs, seed);
        assert_eq!(
            serde_json::to_string(&rows).unwrap(),
            serde_json::to_string(&standalone).unwrap()
        );
        let delta = shared.stats().since(&mark);
        assert_eq!(delta.cells as usize, JITTER_MULTIPLIERS.len());
        assert_eq!(delta.traces_generated as usize, JITTER_MULTIPLIERS.len());
        assert_eq!(delta.baselines_computed as usize, JITTER_MULTIPLIERS.len());
    }
}
