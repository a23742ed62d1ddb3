//! Calibration probe: full pipeline on every app × scale at a default GT,
//! printing replay savings / slowdown / hit rate next to the paper's
//! numbers. Used while tuning workload-generator constants.
//!
//! ```text
//! cargo run --release -p ibpower-examples --bin calibrate [app]
//! ```
//!
//! `IBP_JOBS` sets the sweep's worker count (default: all cores).

use ibp_analysis::{paper_ref, run_with_baseline, CellKey, RunConfig, SweepEngine, SweepOptions};
use ibp_workloads::AppKind;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = match args.as_slice() {
        [] => None,
        [name] if AppKind::from_name(name).is_some() => AppKind::from_name(name),
        _ => {
            eprintln!("usage: calibrate [gromacs|alya|wrf|nas-bt|nas-mg]");
            return ExitCode::FAILURE;
        }
    };
    let disp = 0.01;
    let sweep = match SweepOptions::from_env() {
        Ok(sweep) => sweep,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let engine = SweepEngine::new(sweep);
    let cells: Vec<(AppKind, usize)> = AppKind::ALL
        .into_iter()
        .filter(|app| only.is_none_or(|o| *app == o))
        .flat_map(|app| (0..5).map(move |i| (app, i)))
        .collect();
    let rows = engine.run_cells(
        &cells,
        |&(app, i)| CellKey::new(app, paper_ref::paper_procs(app)[i], 0xD1C0),
        |ctx, &(app, i), _| {
            let cfg = RunConfig::new(paper_ref::table3_gt(app)[i], disp);
            run_with_baseline(&ctx.trace, app, &cfg, &ctx.baseline(), 1)
        },
    );
    println!("app        n    GTus  hit%  sav%  (paper)  slow%  (paper)  est%");
    for (&(app, i), r) in cells.iter().zip(&rows) {
        let procs = paper_ref::paper_procs(app);
        let gts = paper_ref::table3_gt(app);
        let ps = paper_ref::savings_disp1(app);
        let sl = paper_ref::slowdown_disp1(app);
        let ph = paper_ref::table3_hit(app);
        println!(
            "{:<9} {:>4} {:>6} {:>5.1} {:>5.1}  ({:>5.1})  {:>5.2}  ({:>5.2})  {:>5.1}   [paper hit {:.0}]",
            app.name(), procs[i], gts[i], r.hit_rate_pct, r.power_saving_pct, ps[i],
            r.slowdown_pct, sl[i], r.est_saving_pct, ph[i]
        );
    }
    ExitCode::SUCCESS
}
