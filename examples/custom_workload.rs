//! Bring your own application: build a trace with `TraceBuilder`, run the
//! power-saving mechanism and the network replay on it.
//!
//! The synthetic application here is a 2-D Jacobi stencil: per iteration,
//! a halo exchange with the four grid neighbours, a long relaxation
//! compute, and a residual Allreduce every other iteration.
//!
//! Run with: `cargo run --release -p ibpower-examples --bin custom_workload`

use ibp_core::{annotate_trace, PowerConfig};
use ibp_network::{replay, ReplayOptions, SimParams};
use ibp_simcore::{DetRng, SimDuration};
use ibp_trace::{MpiOp, TraceBuilder};

fn main() {
    let side = 4u32; // 4×4 process grid
    let n = side * side;
    let iters = 120;
    let mut rng = DetRng::seed_from_u64(7);

    let mut b = TraceBuilder::new("jacobi2d", n);
    for r in 0..n {
        let (x, y) = (r % side, r / side);
        let nbrs = [
            y * side + (x + 1) % side,
            y * side + (x + side - 1) % side,
            ((y + 1) % side) * side + x,
            ((y + side - 1) % side) * side + x,
        ];
        for it in 0..iters {
            // Relaxation compute: ~800 µs with mild jitter.
            let jitter = rng.lognormal_jitter(0.01);
            b.compute(r, SimDuration::from_us_f64(800.0 * jitter));
            // Halo exchange gram: 4 Sendrecvs close together.
            for (i, &nb) in nbrs.iter().enumerate() {
                if i > 0 {
                    b.compute(r, SimDuration::from_us(2));
                }
                // Pair up directions: send east/recv west, etc.
                let from = nbrs[i ^ 1];
                b.op(
                    r,
                    MpiOp::Sendrecv {
                        to: nb,
                        send_bytes: 64 * 1024,
                        from,
                        recv_bytes: 64 * 1024,
                    },
                );
            }
            // Residual norm every other iteration.
            if it % 2 == 0 {
                b.compute(r, SimDuration::from_us(400));
                b.op(r, MpiOp::Allreduce { bytes: 8 });
            }
        }
    }
    let trace = b.build();
    trace.validate().expect("trace must be consistent");
    println!(
        "jacobi2d: {} ranks, {} MPI calls",
        trace.nprocs,
        trace.total_calls()
    );

    // Power-saving pass + replay, exactly like the paper's evaluation.
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let ann = annotate_trace(&trace, &cfg);
    let params = SimParams::paper();
    let opts = ReplayOptions::default();
    let baseline = replay(&trace, None, &params, &opts).expect("replay");
    let managed = replay(&trace, Some(&ann), &params, &opts).expect("replay");

    let agg = ann.aggregate_stats();
    println!("hit rate            : {:.1}%", agg.hit_rate_pct());
    println!("pattern mispredicts : {}", agg.pattern_mispredictions);
    println!("baseline exec       : {}", baseline.exec_time);
    println!("managed exec        : {}", managed.exec_time);
    println!(
        "slowdown            : {:.3}%",
        managed.slowdown_pct(&baseline)
    );
    println!("IB switch saving    : {:.1}%", managed.power_saving_pct());
}
