//! Assembly of the paper's tables and figures from experiment runs.
//!
//! Each function produces both the data (serialisable) and a rendered
//! text block; the [`crate::registry`] entries write the JSON and hand the
//! text to `ibpower exhibits`.

use crate::experiment::{run_runtime_only, run_with_baseline, RunConfig, RunResult};
use crate::gt_select::{sweep, GtPoint};
use crate::paper_ref;
use crate::report::{f1, f2, Table};
use crate::sweep::{CellKey, SweepEngine};
use ibp_trace::IdleDistribution;
use ibp_workloads::AppKind;
use serde::{Deserialize, Serialize};

/// Default experiment seed (all exhibits share it; the workloads are
/// deterministic in it).
pub const SEED: u64 = 0xD1C0;

/// Displacement used for GT selection (the paper's best case, 1%).
pub const SELECT_DISPLACEMENT: f64 = 0.01;

/// Which slice of the paper's `app × nprocs` grid an exhibit covers.
///
/// The full paper grid (`ExhibitGrid::paper()`) is what `ibpower
/// exhibits` runs; the golden-exhibit regression suite runs a capped grid
/// (`ExhibitGrid::capped(16)`) so the snapshots stay cheap enough for
/// debug-profile CI while still pinning every metric the engine can
/// perturb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhibitGrid {
    /// Keep only process counts `<=` this bound (`None` = full grid).
    pub max_procs: Option<u32>,
}

impl ExhibitGrid {
    /// The paper's full grid (5 scales per application).
    pub fn paper() -> Self {
        ExhibitGrid { max_procs: None }
    }

    /// The grid restricted to process counts `<= cap`.
    pub fn capped(cap: u32) -> Self {
        ExhibitGrid {
            max_procs: Some(cap),
        }
    }

    /// The process counts this grid evaluates `app` at.
    pub fn procs(&self, app: AppKind) -> Vec<u32> {
        paper_ref::paper_procs(app)
            .iter()
            .copied()
            .filter(|&n| self.max_procs.is_none_or(|cap| n <= cap))
            .collect()
    }

    /// The flat `(app, nprocs)` cell list in the paper's presentation
    /// order (the deterministic result order of every exhibit).
    pub fn cells(&self, seed: u64) -> Vec<CellKey> {
        AppKind::ALL
            .iter()
            .flat_map(|&app| {
                self.procs(app)
                    .into_iter()
                    .map(move |n| CellKey::new(app, n, seed))
            })
            .collect()
    }
}

/// Table I: idle-interval distribution rows for every app × scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Application name.
    pub app: String,
    /// Process count.
    pub nprocs: u32,
    /// The three-bucket distribution.
    pub idle: IdleDistribution,
}

/// Compute Table I on `grid` (cells run on the engine's pool; rows come
/// back in grid order regardless of completion order).
pub fn table1(engine: &SweepEngine, grid: &ExhibitGrid, seed: u64) -> Vec<Table1Row> {
    let cells = grid.cells(seed);
    engine.run_cells(
        &cells,
        |&k| k,
        |ctx, key, _| Table1Row {
            app: key.app.name().to_string(),
            nprocs: key.nprocs,
            idle: IdleDistribution::from_trace(&ctx.trace),
        },
    )
}

/// Render Table I like the paper (counts, % of intervals, % of idle time
/// per bucket).
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut t = Table::new(&[
        "app", "N", "<20us n", "<20us %", "<20us t%", "20-200 n", "20-200 %", "20-200 t%",
        ">200 n", ">200 %", ">200 t%",
    ]);
    for r in rows {
        t.row(vec![
            r.app.clone(),
            r.nprocs.to_string(),
            r.idle.short.intervals.to_string(),
            f2(r.idle.short.interval_pct),
            f2(r.idle.short.time_pct),
            r.idle.medium.intervals.to_string(),
            f2(r.idle.medium.interval_pct),
            f2(r.idle.medium.time_pct),
            r.idle.long.intervals.to_string(),
            f2(r.idle.long.interval_pct),
            f2(r.idle.long.time_pct),
        ]);
    }
    t.render()
}

/// Table III: chosen GT and hit rate per app × scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Application name.
    pub app: String,
    /// Process count.
    pub nprocs: u32,
    /// Our selected grouping threshold, µs.
    pub gt_us: f64,
    /// Hit rate at the selected GT, %.
    pub hit_rate_pct: f64,
    /// The paper's chosen GT, µs.
    pub paper_gt_us: f64,
    /// The paper's hit rate, %.
    pub paper_hit_pct: f64,
}

/// Compute Table III (GT selection sweep per cell) on `grid`.
pub fn table3(engine: &SweepEngine, grid: &ExhibitGrid, seed: u64) -> Vec<Table3Row> {
    let cells = grid.cells(seed);
    engine.run_cells(
        &cells,
        |&k| k,
        |ctx, key, _| {
            let best = ctx.choose_gt(SELECT_DISPLACEMENT);
            // The paper columns are indexed by the cell's position in
            // the *full* paper grid, even on a capped grid.
            let full = paper_ref::paper_procs(key.app);
            let i = full
                .iter()
                .position(|&n| n == key.nprocs)
                .expect("grid cell comes from the paper's proc list");
            Table3Row {
                app: key.app.name().to_string(),
                nprocs: key.nprocs,
                gt_us: best.gt_us,
                hit_rate_pct: best.hit_rate_pct,
                paper_gt_us: paper_ref::table3_gt(key.app)[i],
                paper_hit_pct: paper_ref::table3_hit(key.app)[i],
            }
        },
    )
}

/// Render Table III with paper columns alongside.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut t = Table::new(&[
        "app", "N", "GT us", "hit %", "paper GT", "paper hit",
    ]);
    for r in rows {
        t.row(vec![
            r.app.clone(),
            r.nprocs.to_string(),
            f1(r.gt_us),
            f1(r.hit_rate_pct),
            f1(r.paper_gt_us),
            f1(r.paper_hit_pct),
        ]);
    }
    t.render()
}

/// Table IV: PPA overheads at 16 ranks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table4Row {
    /// Application name.
    pub app: String,
    /// Calls on which the PPA ran, %.
    pub ppa_invoked_pct: f64,
    /// Overhead per PPA-invoking call, µs.
    pub overhead_per_invoked_us: f64,
    /// Overhead amortised over all calls, µs.
    pub overhead_per_call_us: f64,
    /// Paper's three values.
    pub paper: (f64, f64, f64),
}

/// Compute Table IV (16 ranks, selected GT, displacement 1%).
pub fn table4(engine: &SweepEngine, seed: u64) -> Vec<Table4Row> {
    let cells: Vec<CellKey> = AppKind::ALL
        .iter()
        .map(|&app| CellKey::new(app, 16, seed))
        .collect();
    engine.run_cells(
        &cells,
        |&k| k,
        |ctx, key, _| {
            let best = ctx.choose_gt(SELECT_DISPLACEMENT);
            let cfg = RunConfig::new(best.gt_us, SELECT_DISPLACEMENT);
            let r = run_runtime_only(&ctx.trace, key.app, &cfg, ctx.rank_jobs);
            Table4Row {
                app: key.app.name().to_string(),
                ppa_invoked_pct: r.stats.ppa_invocation_pct(),
                overhead_per_invoked_us: r.stats.overhead_per_invoked_call_us(),
                overhead_per_call_us: r.stats.overhead_per_call_us(),
                paper: paper_ref::table4(key.app),
            }
        },
    )
}

/// Render Table IV.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut t = Table::new(&[
        "app", "PPA calls %", "(paper)", "us/invoked", "(paper)", "us/call", "(paper)",
    ]);
    let mut avg = (0.0, 0.0, 0.0);
    for r in rows {
        avg.0 += r.ppa_invoked_pct / rows.len() as f64;
        avg.1 += r.overhead_per_invoked_us / rows.len() as f64;
        avg.2 += r.overhead_per_call_us / rows.len() as f64;
        t.row(vec![
            r.app.clone(),
            f2(r.ppa_invoked_pct),
            f2(r.paper.0),
            f1(r.overhead_per_invoked_us),
            f1(r.paper.1),
            f2(r.overhead_per_call_us),
            f2(r.paper.2),
        ]);
    }
    t.row(vec![
        "average".into(),
        f2(avg.0),
        "2.10".into(),
        f1(avg.1),
        "16.5".into(),
        f2(avg.2),
        "1.30".into(),
    ]);
    t.render()
}

/// One figure (7, 8 or 9): savings and slowdown per app × scale at one
/// displacement factor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureData {
    /// Displacement factor.
    pub displacement: f64,
    /// Per-app rows (5 scales each).
    pub rows: Vec<FigureRow>,
}

/// One application's series in a figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureRow {
    /// Application name.
    pub app: String,
    /// Process counts.
    pub procs: Vec<u32>,
    /// GT used per scale (selected by sweep), µs.
    pub gt_us: Vec<f64>,
    /// Measured power savings, %.
    pub savings_pct: Vec<f64>,
    /// Measured execution-time increase, %.
    pub slowdown_pct: Vec<f64>,
    /// Paper's savings, %.
    pub paper_savings_pct: Vec<f64>,
    /// Paper's slowdown, %.
    pub paper_slowdown_pct: Vec<f64>,
}

/// Run one full figure on `grid`: GT selection + managed replay per
/// cell, with the baseline replay shared through the engine's cache.
pub fn figure(
    engine: &SweepEngine,
    grid: &ExhibitGrid,
    displacement: f64,
    seed: u64,
) -> FigureData {
    let cells = grid.cells(seed);
    let measured: Vec<(f64, RunResult)> = engine.run_cells(
        &cells,
        |&k| k,
        |ctx, key, _| {
            let best = ctx.choose_gt(SELECT_DISPLACEMENT);
            let cfg = RunConfig::new(best.gt_us, displacement);
            let r = run_with_baseline(&ctx.trace, key.app, &cfg, &ctx.baseline(), ctx.rank_jobs);
            (best.gt_us, r)
        },
    );

    // Group the flat, grid-ordered cell results back into per-app rows.
    let mut rows = Vec::new();
    let mut flat = cells.iter().zip(measured);
    for app in AppKind::ALL {
        let procs = grid.procs(app);
        let full = paper_ref::paper_procs(app);
        let indices: Vec<usize> = procs
            .iter()
            .map(|&n| full.iter().position(|&m| m == n).expect("paper proc"))
            .collect();
        let mut row = FigureRow {
            app: app.name().to_string(),
            procs: procs.clone(),
            gt_us: Vec::new(),
            savings_pct: Vec::new(),
            slowdown_pct: Vec::new(),
            paper_savings_pct: indices
                .iter()
                .map(|&i| paper_ref::savings(app, displacement)[i])
                .collect(),
            paper_slowdown_pct: if displacement <= 0.02 {
                indices
                    .iter()
                    .map(|&i| paper_ref::slowdown_disp1(app)[i])
                    .collect()
            } else {
                Vec::new()
            },
        };
        for _ in &procs {
            let (key, (gt, r)) = flat.next().expect("one result per grid cell");
            debug_assert_eq!(key.app, app);
            row.gt_us.push(gt);
            row.savings_pct.push(r.power_saving_pct);
            row.slowdown_pct.push(r.slowdown_pct);
        }
        rows.push(row);
    }
    FigureData {
        displacement,
        rows,
    }
}

/// Render a figure as two tables (savings, slowdown) with the AVERAGE
/// series the paper plots.
pub fn render_figure(fig: &FigureData) -> String {
    // Column labels for the paper's scale axis; a capped grid (the
    // golden suite) renders a prefix of them.
    const SCALE_LABELS: [&str; 5] = ["8/9", "16", "32/36", "64", "128/100"];
    let ncols = fig
        .rows
        .iter()
        .map(|r| r.procs.len())
        .max()
        .unwrap_or(0)
        .min(SCALE_LABELS.len());
    let mut header = vec!["app"];
    header.extend_from_slice(&SCALE_LABELS[..ncols]);

    let mut out = format!(
        "== Power savings in IB switches [%], displacement {:.0}% ==\n",
        fig.displacement * 100.0
    );
    let mut t = Table::new(&header);
    let napps = fig.rows.len() as f64;
    let mut avg = vec![0.0; ncols];
    let mut paper_avg = vec![0.0; ncols];
    for row in &fig.rows {
        let mut cells = vec![row.app.clone()];
        for i in 0..ncols {
            avg[i] += row.savings_pct[i] / napps;
            paper_avg[i] += row.paper_savings_pct[i] / napps;
            cells.push(format!(
                "{:.1} ({:.1})",
                row.savings_pct[i], row.paper_savings_pct[i]
            ));
        }
        t.row(cells);
    }
    let mut cells = vec!["AVERAGE".to_string()];
    for i in 0..ncols {
        cells.push(format!("{:.1} ({:.1})", avg[i], paper_avg[i]));
    }
    t.row(cells);
    out.push_str(&t.render());

    out.push_str(&format!(
        "\n== Execution time increase [%], displacement {:.0}% ==\n",
        fig.displacement * 100.0
    ));
    let mut t = Table::new(&header);
    let mut avg = vec![0.0; ncols];
    for row in &fig.rows {
        let mut cells = vec![row.app.clone()];
        for (i, a) in avg.iter_mut().enumerate() {
            *a += row.slowdown_pct[i] / napps;
            let cell = if row.paper_slowdown_pct.is_empty() {
                format!("{:.2}", row.slowdown_pct[i])
            } else {
                format!("{:.2} ({:.2})", row.slowdown_pct[i], row.paper_slowdown_pct[i])
            };
            cells.push(cell);
        }
        t.row(cells);
    }
    let mut cells = vec!["AVERAGE".to_string()];
    for a in &avg {
        cells.push(format!("{a:.2}"));
    }
    t.row(cells);
    out.push_str(&t.render());
    out
}

/// Fig. 10 data: GT sweep hit-rate curves for GROMACS at 64 and 128.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Data {
    /// (nprocs, sweep points) per curve.
    pub curves: Vec<(u32, Vec<GtPoint>)>,
}

/// Compute Fig. 10.
pub fn fig10(engine: &SweepEngine, seed: u64) -> Fig10Data {
    let cells: Vec<CellKey> = [64u32, 128]
        .iter()
        .map(|&n| CellKey::new(AppKind::Gromacs, n, seed))
        .collect();
    let curves = engine.run_cells(
        &cells,
        |&k| k,
        |ctx, key, _| {
            (
                key.nprocs,
                sweep(&ctx.trace, SELECT_DISPLACEMENT),
            )
        },
    );
    Fig10Data { curves }
}

/// Render Fig. 10 as a table plus ASCII curves.
pub fn render_fig10(data: &Fig10Data) -> String {
    let mut out = String::from(
        "== Fig. 10: correctly predicted MPI calls vs grouping threshold (GROMACS) ==\n",
    );
    let mut t = Table::new(&["GT us", "hit% @64", "hit% @128"]);
    let (c64, c128) = (&data.curves[0].1, &data.curves[1].1);
    for (a, b) in c64.iter().zip(c128) {
        t.row(vec![f1(a.gt_us), f1(a.hit_rate_pct), f1(b.hit_rate_pct)]);
    }
    out.push_str(&t.render());
    for (n, curve) in &data.curves {
        out.push_str(&format!("\n{n} processes:\n"));
        for p in curve {
            let bar = "#".repeat((p.hit_rate_pct / 2.0).round() as usize);
            out.push_str(&format!("{:>6.0} |{bar} {:.1}%\n", p.gt_us, p.hit_rate_pct));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_25_rows() {
        // Uses the real (full-length) generators; keep to one seed.
        let engine = SweepEngine::new(crate::sweep::SweepOptions::default());
        let rows = table1(&engine, &ExhibitGrid::paper(), SEED);
        assert_eq!(rows.len(), 25);
        // Every row: percentages of intervals sum to ~100 when non-empty.
        for r in &rows {
            let s =
                r.idle.short.interval_pct + r.idle.medium.interval_pct + r.idle.long.interval_pct;
            assert!((s - 100.0).abs() < 1e-6, "{} @{}: {s}", r.app, r.nprocs);
        }
        let text = render_table1(&rows);
        assert!(text.contains("alya"));
        assert_eq!(text.lines().count(), 27);
    }

    #[test]
    fn figure_renderer_shapes() {
        // Synthetic figure data: rendering must include the AVERAGE row
        // and paper comparisons.
        let fig = FigureData {
            displacement: 0.01,
            rows: vec![FigureRow {
                app: "alya".into(),
                procs: vec![8, 16, 32, 64, 128],
                gt_us: vec![20.0; 5],
                savings_pct: vec![15.0, 13.0, 9.0, 5.0, 2.0],
                slowdown_pct: vec![0.1; 5],
                paper_savings_pct: vec![14.5, 12.6, 8.9, 5.2, 2.3],
                paper_slowdown_pct: vec![0.01, 0.03, 0.06, 0.11, 0.13],
            }],
        };
        let text = render_figure(&fig);
        assert!(text.contains("AVERAGE"));
        assert!(text.contains("15.0 (14.5)"));
        assert!(text.contains("Execution time increase"));
    }
}
