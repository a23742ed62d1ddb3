//! Displacement-factor trade-off (the paper's Fig. 4 discussion, made
//! quantitative): sweep the safety margin from 0.5% to 30% on one
//! application and watch power savings fall while the reactivation-stall
//! risk shrinks.
//!
//! Run with:
//! `cargo run --release -p ibpower-examples --bin displacement_tradeoff [app] [nprocs]`

use ibp_analysis::{make_trace, run_on_trace, RunConfig};
use ibp_workloads::AppKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app = args
        .get(1)
        .and_then(|s| AppKind::from_name(s))
        .unwrap_or(AppKind::Alya);
    let nprocs: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);

    println!(
        "Displacement trade-off for {} at {nprocs} ranks",
        app.display()
    );
    println!("(larger displacement: lanes wake earlier → fewer stalls, less saving)\n");
    println!("disp%   saving%   slowdown%   timing-mispredicts   hit%");

    let trace = make_trace(app, nprocs, 0xD1C0);
    for disp in [0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.30] {
        let cfg = RunConfig::new(20.0, disp);
        let r = run_on_trace(&trace, app, &cfg);
        println!(
            "{:>5.1} {:>9.2} {:>11.3} {:>20} {:>6.1}",
            disp * 100.0,
            r.power_saving_pct,
            r.slowdown_pct,
            r.stats.timing_mispredictions,
            r.hit_rate_pct,
        );
    }
    println!(
        "\nThe paper evaluates 1%, 5% and 10% (Figs. 9, 8, 7): minimal \
         displacement gives maximum savings at ~1% slowdown."
    );
}
