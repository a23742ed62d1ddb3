//! Quickstart: the paper's Fig. 2 / Fig. 3 walk-through on the public API.
//!
//! Feeds the ALYA MPI stream (three `MPI_Sendrecv` calls close together,
//! then two `MPI_Allreduce` calls after long compute gaps, repeated) into
//! the PMPI-style runtime and narrates what the mechanism does: gram
//! formation, pattern-list growth, the declaration after three
//! consecutive pattern appearances, and the lane-off directives that
//! follow.
//!
//! Run with: `cargo run --release -p ibpower-examples --bin quickstart`

use ibp_core::{PowerConfig, RankRuntime, SleepKind};
use ibp_simcore::SimDuration;
use ibp_trace::MpiCall::{self, Allreduce, Sendrecv};

fn main() {
    // The paper's configuration: GT = 2·T_react = 20 µs, displacement 10%.
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.10);
    println!("T_react            : {}", cfg.t_react);
    println!("grouping threshold : {}", cfg.grouping_threshold);
    println!("displacement       : {:.0}%", cfg.displacement * 100.0);
    println!();

    let mut rt = RankRuntime::new(0, cfg);

    // Fig. 2: per iteration, 41-41-41 (tiny gaps) ... 10 ... 10 (long
    // gaps). Ids: 41 = MPI_Sendrecv, 10 = MPI_Allreduce.
    let iteration: [(MpiCall, u64); 5] = [
        (Sendrecv, 300),
        (Sendrecv, 2),
        (Sendrecv, 3),
        (Allreduce, 250),
        (Allreduce, 250),
    ];

    println!("# event  call           gap        predicting?");
    let mut event = 0;
    let mut first_prediction = None;
    for iter in 0..6 {
        for (i, &(call, gap_us)) in iteration.iter().enumerate() {
            let gap = if iter == 0 && i == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::from_us(gap_us)
            };
            rt.intercept(call, gap);
            event += 1;
            let predicting = rt.predicting();
            if predicting && first_prediction.is_none() {
                first_prediction = Some(event);
            }
            println!(
                "{event:>7}  {:<13} {:>9}  {}",
                call.to_string(),
                gap.to_string(),
                if predicting { "yes" } else { "no" }
            );
        }
    }

    let ann = rt.finish(SimDuration::ZERO);
    println!();
    match first_prediction {
        Some(e) => println!(
            "Prediction activated at MPI event {e} — the paper's Fig. 3 \
             flips to true at event 21."
        ),
        None => println!("Prediction never activated (unexpected!)"),
    }
    println!(
        "Pattern declared after 3 consecutive appearances of the gram \
         sequence 41-41-41, 10, 10."
    );
    println!();
    println!("Lane-off directives issued : {}", ann.stats.lane_off_count);
    for d in ann.directives.iter().take(5) {
        println!(
            "  after event {:>3}: sleep timer {} (predicted idle {})",
            d.after_event + 1,
            d.timer,
            d.predicted_idle
        );
    }
    if ann.directives.len() > 5 {
        println!("  ... and {} more", ann.directives.len() - 5);
    }
    println!();
    println!(
        "Hit rate                   : {:.1}% of MPI calls correctly predicted",
        ann.stats.hit_rate_pct()
    );
    println!(
        "Nominal low-power time     : {} of {} total idle",
        ann.stats.sleep_time[SleepKind::Wrps as usize],
        ann.stats.nominal_duration
    );
    println!(
        "Estimated IB switch saving : {:.1}% (WRPS low-power draw 43%)",
        ann.stats.est_power_saving_pct(0.43)
    );
}
