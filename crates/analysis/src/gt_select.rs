//! Grouping-threshold evaluation and selection (Table III, Fig. 10).
//!
//! The paper evaluates PPA prediction quality across a range of GT values
//! (Fig. 10 shows the GROMACS curves) and picks, per application and
//! scale, the GT that maximises correct prediction while not grouping
//! away the exploitable idle intervals (Table III). We sweep the same
//! range with the annotation pass alone (no network replay needed) and
//! select by the quick power-saving estimate, which penalises both failure
//! modes: mispredictions (low coverage) and over-grouping (idle windows
//! swallowed into grams). Hit rate breaks ties.

use crate::experiment::RunConfig;
use ibp_core::{annotate_rank, PowerConfig};
use ibp_simcore::SimDuration;
use ibp_trace::{RankTrace, Trace};
use serde::{Deserialize, Serialize};

/// The GT grid swept, in µs. Starts at the legal minimum `2·T_react`
/// and covers the paper's Fig. 10 range (up to 400 µs), including every
/// value Table III reports.
pub const GT_GRID_US: &[f64] = &[
    20.0, 22.0, 26.0, 30.0, 36.0, 46.0, 50.0, 56.0, 72.0, 100.0, 136.0, 150.0, 186.0, 222.0, 260.0,
    290.0, 300.0, 340.0, 382.0, 400.0,
];

/// One sweep point (one GT value on one trace).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GtPoint {
    /// Grouping threshold, µs.
    pub gt_us: f64,
    /// Correctly predicted MPI calls, %.
    pub hit_rate_pct: f64,
    /// Quick power-saving estimate, %.
    pub est_saving_pct: f64,
}

/// Sweep the GT grid over one trace: each point's mean hit rate and
/// saving estimate over ranks, as [`ibp_core::TraceAnnotations`]
/// reports them for an annotation at that GT.
pub fn sweep(trace: &Trace, displacement: f64) -> Vec<GtPoint> {
    sweep_grid(trace, displacement, GT_GRID_US)
}

/// [`sweep`] over an ascending grid of at most 64 points.
///
/// A rank's annotation depends on GT only through `gap < gt`, where
/// `gap` is an event's `compute_before`. So each rank is annotated at
/// the first point and wherever [`class_changes`] says some gap
/// separates a point from its predecessor; every other point copies its
/// predecessor's numbers, which an annotation there would reproduce bit
/// for bit. The means then sum over ranks in rank order, exactly as
/// `TraceAnnotations::mean_*` do.
pub(crate) fn sweep_grid(trace: &Trace, displacement: f64, grid_us: &[f64]) -> Vec<GtPoint> {
    let configs: Vec<PowerConfig> = grid_us
        .iter()
        .map(|&gt| RunConfig::new(gt, displacement).power_config())
        .collect();
    let bounds: Vec<SimDuration> = configs.iter().map(|pc| pc.grouping_threshold).collect();
    // Row r holds rank r's (hit rate, saving estimate) at every point.
    let rows: Vec<Vec<(f64, f64)>> = trace
        .ranks
        .iter()
        .map(|rank| {
            let changes = class_changes(rank, &bounds);
            let mut row: Vec<(f64, f64)> = Vec::with_capacity(configs.len());
            for (j, pc) in configs.iter().enumerate() {
                let point = if j == 0 || changes & (1 << j) != 0 {
                    let stats = annotate_rank(rank, pc).stats;
                    (
                        stats.hit_rate_pct(),
                        stats.est_power_saving_pct(pc.low_power_fraction),
                    )
                } else {
                    row[j - 1]
                };
                row.push(point);
            }
            row
        })
        .collect();
    let mean = |j: usize, pick: fn((f64, f64)) -> f64| {
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|row| pick(row[j])).sum::<f64>() / rows.len() as f64
    };
    grid_us
        .iter()
        .enumerate()
        .map(|(j, &gt)| GtPoint {
            gt_us: gt,
            hit_rate_pct: mean(j, |p| p.0),
            est_saving_pct: mean(j, |p| p.1),
        })
        .collect()
}

/// Where a rank's threshold class changes along an ascending threshold
/// list: bit `j` (`j ≥ 1`) is set when some gap `g` of the rank has
/// `bounds[j-1] <= g < bounds[j]`, i.e. when `g < gt` reads differently
/// at points `j-1` and `j`. A gap equal to `bounds[j]` is on the `>=`
/// side of both, so it sets no bit there.
fn class_changes(rank: &RankTrace, bounds: &[SimDuration]) -> u64 {
    assert!(bounds.len() <= 64, "a sweep grid holds at most 64 points");
    debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "unsorted grid");
    let mut changes = 0u64;
    for &gap in rank.events.compute() {
        let j = bounds.partition_point(|&b| b <= gap);
        if j > 0 && j < bounds.len() {
            changes |= 1 << j;
        }
    }
    changes
}

/// Select the best GT from a sweep: maximise the saving estimate, break
/// ties by hit rate, then by the smaller threshold.
pub fn select(points: &[GtPoint]) -> &GtPoint {
    points
        .iter()
        .max_by(|a, b| {
            a.est_saving_pct
                .partial_cmp(&b.est_saving_pct)
                .unwrap()
                .then(a.hit_rate_pct.partial_cmp(&b.hit_rate_pct).unwrap())
                .then(b.gt_us.partial_cmp(&a.gt_us).unwrap())
        })
        .expect("non-empty sweep")
}

/// Sweep + select in one step for one trace.
pub fn choose_gt(trace: &Trace, displacement: f64) -> GtPoint {
    let points = sweep(trace, displacement);
    select(&points).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_core::annotate_trace_jobs;
    use ibp_simcore::DetRng;
    use ibp_trace::{MpiOp, TraceBuilder, TraceEvent};
    use ibp_workloads::Workload;
    use proptest::prelude::*;

    fn small_alya(n: u32) -> Trace {
        let alya = ibp_workloads::Alya {
            iterations: 40,
            ..Default::default()
        };
        alya.generate(n, 5)
    }

    /// The sweep as it was before threshold classes: annotate the whole
    /// trace at every grid point. The reference `sweep_grid` must match.
    fn reference_sweep(trace: &Trace, displacement: f64, grid_us: &[f64]) -> Vec<GtPoint> {
        grid_us
            .iter()
            .map(|&gt| {
                let pc = RunConfig::new(gt, displacement).power_config();
                let ann = annotate_trace_jobs(trace, &pc, 1);
                GtPoint {
                    gt_us: gt,
                    hit_rate_pct: ann.mean_hit_rate_pct(),
                    est_saving_pct: ann.mean_est_power_saving_pct(pc.low_power_fraction),
                }
            })
            .collect()
    }

    fn bits(points: &[GtPoint]) -> Vec<[u64; 3]> {
        points
            .iter()
            .map(|p| {
                [
                    p.gt_us.to_bits(),
                    p.hit_rate_pct.to_bits(),
                    p.est_saving_pct.to_bits(),
                ]
            })
            .collect()
    }

    /// A random ascending grid of 2–8 points in [20, 400] µs, and a
    /// trace of 1–6 ranks whose gaps sit exactly on a grid threshold,
    /// 1 ns either side of one, or anywhere up to 500 µs. Each non-empty
    /// rank repeats a short motif, with some gaps redrawn, so the PPA
    /// learns, predicts and mispredicts.
    fn random_case(seed: u64) -> (Trace, Vec<f64>) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut grid: Vec<f64> = (0..2 + rng.index(7))
            .map(|_| rng.uniform_range(20.0, 400.0))
            .collect();
        grid.sort_by(f64::total_cmp);
        grid.dedup();
        let bounds: Vec<SimDuration> = grid.iter().map(|&g| SimDuration::from_us_f64(g)).collect();
        let gap = |rng: &mut DetRng| {
            let at = bounds[rng.index(bounds.len())].as_ns();
            SimDuration::from_ns(match rng.index(4) {
                0 => at,
                1 => at - 1,
                2 => at + 1,
                _ => rng.next_u64() % 500_001,
            })
        };
        let nprocs = 1 + rng.index(6) as u32;
        let mut b = TraceBuilder::new("gt-prop", nprocs);
        for r in 0..nprocs {
            if rng.chance(0.2) {
                continue;
            }
            let motif: Vec<(MpiOp, SimDuration)> = (0..1 + rng.index(6))
                .map(|_| {
                    let op = match rng.index(3) {
                        0 => MpiOp::Barrier,
                        1 => MpiOp::Allreduce { bytes: 8 },
                        _ => MpiOp::Alltoall { bytes: 64 },
                    };
                    (op, gap(&mut rng))
                })
                .collect();
            for _ in 0..8 + rng.index(40) {
                for (op, g) in &motif {
                    let g = if rng.chance(0.05) { gap(&mut rng) } else { *g };
                    b.compute(r, g);
                    b.op(r, op.clone());
                }
            }
        }
        (b.build(), grid)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn class_sweep_matches_per_point_reference(seed in any::<u64>()) {
            let (trace, grid) = random_case(seed);
            let disp = [0.0, 0.01, 0.1][(seed % 3) as usize];
            prop_assert_eq!(
                bits(&sweep_grid(&trace, disp, &grid)),
                bits(&reference_sweep(&trace, disp, &grid))
            );
        }
    }

    #[test]
    fn class_sweep_matches_reference_on_alya_and_an_empty_trace() {
        let t = small_alya(8);
        assert_eq!(
            bits(&sweep(&t, 0.01)),
            bits(&reference_sweep(&t, 0.01, GT_GRID_US))
        );
        let empty = Trace::new("empty", 0);
        let pts = sweep(&empty, 0.01);
        assert!(pts
            .iter()
            .all(|p| p.hit_rate_pct == 0.0 && p.est_saving_pct == 0.0));
        assert_eq!(bits(&pts), bits(&reference_sweep(&empty, 0.01, GT_GRID_US)));
    }

    fn rank_with_gaps(gaps_ns: &[u64]) -> RankTrace {
        let mut rank = RankTrace::new(0);
        rank.events = gaps_ns
            .iter()
            .map(|&g| TraceEvent {
                compute_before: SimDuration::from_ns(g),
                op: MpiOp::Barrier,
            })
            .collect();
        rank
    }

    #[test]
    fn class_changes_at_threshold_boundaries() {
        let bounds: Vec<SimDuration> = [20_000, 30_000, 40_000]
            .iter()
            .map(|&ns| SimDuration::from_ns(ns))
            .collect();
        let changes = |gaps: &[u64]| class_changes(&rank_with_gaps(gaps), &bounds);
        // Below the first or at/above the last threshold: one class.
        assert_eq!(changes(&[]), 0);
        assert_eq!(changes(&[0, 19_999, 40_000, 1_000_000]), 0);
        // A gap equal to a threshold is on its `>=` side.
        assert_eq!(changes(&[20_000]), 1 << 1);
        assert_eq!(changes(&[29_999]), 1 << 1);
        assert_eq!(changes(&[30_000]), 1 << 2);
        assert_eq!(changes(&[39_999]), 1 << 2);
        assert_eq!(changes(&[20_000, 30_000]), 0b110);
    }

    #[test]
    fn class_changes_reads_rounded_thresholds() {
        // 20.0004 µs rounds to 20 000 ns and 20.0006 µs to 20 001 ns,
        // exactly as the annotation's `PowerConfig` holds them.
        let bounds: Vec<SimDuration> = [20.0004, 20.0006]
            .iter()
            .map(|&gt| RunConfig::new(gt, 0.01).power_config().grouping_threshold)
            .collect();
        assert_eq!(bounds[1].as_ns(), 20_001);
        let changes = |gaps: &[u64]| class_changes(&rank_with_gaps(gaps), &bounds);
        assert_eq!(changes(&[20_000]), 1 << 1);
        assert_eq!(changes(&[20_001]), 0);
        // Points that round to the same threshold form one class.
        let same =
            [20.0001, 20.0002].map(|gt| RunConfig::new(gt, 0.01).power_config().grouping_threshold);
        assert_eq!(class_changes(&rank_with_gaps(&[20_000]), &same), 0);
    }

    #[test]
    fn sweep_covers_grid() {
        let t = small_alya(8);
        let pts = sweep(&t, 0.01);
        assert_eq!(pts.len(), GT_GRID_US.len());
        assert!(pts.iter().all(|p| p.hit_rate_pct >= 0.0));
    }

    #[test]
    fn grid_starts_at_legal_minimum() {
        assert_eq!(GT_GRID_US[0], 20.0);
        assert!(GT_GRID_US.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn selection_maximises_estimate() {
        let t = small_alya(8);
        let pts = sweep(&t, 0.01);
        let best = select(&pts);
        assert!(pts.iter().all(|p| p.est_saving_pct <= best.est_saving_pct));
        // ALYA at 8 ranks saves meaningfully at its best GT.
        assert!(best.est_saving_pct > 20.0, "{:?}", best);
    }

    #[test]
    fn over_grouping_hurts_alya() {
        // A 400 µs GT at 8 ranks swallows ALYA's solver gaps (600 µs
        // survives, but the structure coarsens): the estimate at GT=400
        // must not beat the selected one.
        let t = small_alya(8);
        let pts = sweep(&t, 0.01);
        let best = select(&pts);
        let last = pts.last().unwrap();
        assert!(last.est_saving_pct <= best.est_saving_pct);
    }
}
