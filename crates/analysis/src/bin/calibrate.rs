//! Calibration probe: full pipeline on every app × scale at a default GT,
//! printing replay savings / slowdown / hit rate next to the paper's
//! numbers. Used while tuning workload-generator constants.

use ibp_analysis::{bin_main, paper_ref, run_with_baseline, CellKey, RunConfig, SweepEngine};
use ibp_workloads::AppKind;

fn main() {
    bin_main(|opts, args| {
        let only: Option<&str> = args.first().map(|s| s.as_str());
        let disp = 0.01;
        let engine = SweepEngine::new(opts);
        let cells: Vec<(AppKind, usize)> = AppKind::ALL
            .into_iter()
            .filter(|app| only.is_none_or(|o| app.name() == o))
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
        Ok(())
    });
}
