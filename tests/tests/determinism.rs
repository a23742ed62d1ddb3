//! Reproducibility: every stage of the pipeline must be bit-for-bit
//! deterministic given a seed, and sensitive to seed changes.

use ibp_analysis::{run_on_trace, RunConfig};
use ibp_core::{annotate_trace, PowerConfig};
use ibp_network::{replay, ReplayOptions, SimParams};
use ibp_simcore::SimDuration;
use ibp_workloads::{Alya, AppKind, Workload};

fn trace(seed: u64) -> ibp_trace::Trace {
    Alya {
        iterations: 30,
        ..Default::default()
    }
    .generate(8, seed)
}

#[test]
fn generation_is_deterministic() {
    assert_eq!(trace(42), trace(42));
    assert_ne!(trace(42), trace(43));
}

#[test]
fn annotation_is_deterministic() {
    let t = trace(1);
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let a = annotate_trace(&t, &cfg);
    let b = annotate_trace(&t, &cfg);
    assert_eq!(a, b);
}

#[test]
fn replay_is_deterministic() {
    let t = trace(2);
    let params = SimParams::paper();
    let opts = ReplayOptions::default();
    let a = replay(&t, None, &params, &opts).expect("replay");
    let b = replay(&t, None, &params, &opts).expect("replay");
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.rank_finish, b.rank_finish);
    assert_eq!(a.fabric.messages, b.fabric.messages);
    assert_eq!(a.fabric.contended, b.fabric.contended);
}

#[test]
fn full_experiment_is_deterministic() {
    let t = trace(3);
    let cfg = RunConfig::new(20.0, 0.05);
    let a = run_on_trace(&t, AppKind::Alya, &cfg);
    let b = run_on_trace(&t, AppKind::Alya, &cfg);
    assert_eq!(a.power_saving_pct, b.power_saving_pct);
    assert_eq!(a.slowdown_pct, b.slowdown_pct);
    assert_eq!(a.hit_rate_pct, b.hit_rate_pct);
    assert_eq!(a.baseline_exec, b.baseline_exec);
}

#[test]
fn routing_seed_changes_timing_but_not_traffic() {
    // Random routing (Table II) is seeded: a different seed may change
    // contention timing, never the transported traffic.
    let t = trace(4);
    let params = SimParams::paper();
    let a = replay(
        &t,
        None,
        &params,
        &ReplayOptions {
            seed: 1,
            record_timelines: false,
            ..ReplayOptions::default()
        },
    ).expect("replay");
    let b = replay(
        &t,
        None,
        &params,
        &ReplayOptions {
            seed: 2,
            record_timelines: false,
            ..ReplayOptions::default()
        },
    ).expect("replay");
    assert_eq!(a.fabric.messages, b.fabric.messages);
    assert_eq!(a.fabric.bytes, b.fabric.bytes);
}

/// The weak-scaling traces, pinned: all five applications at two rank
/// counts, generated through the sweep engine's default trace source
/// (the `VARIANT_WEAK` cells of the weak-scaling study). Each row holds
/// an FNV-1a digest of every rank's events (compute gap and MPI
/// operation) and final compute, so any change to a weak
/// generator — or to which generator a weak cell dispatches to — shows
/// up here, not only in the committed `results/`.
///
/// Regenerate only after an intentional model change:
/// `IBP_UPDATE_GOLDEN=1 cargo test -p ibpower-integration-tests --test determinism`
#[test]
fn weak_trace_digest_matches_golden() {
    use ibp_analysis::sweep::{default_trace_fn, CellKey, VARIANT_WEAK};
    use ibpower_integration_tests::golden::assert_matches_golden;
    use serde::Value;
    use std::fmt::Write;

    let trace_of = default_trace_fn();
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        for nprocs in [16u32, 64] {
            let key = CellKey {
                app,
                nprocs,
                seed: 0xD1C0,
                variant: VARIANT_WEAK,
            };
            let t = trace_of(&key);
            t.validate().unwrap();
            let mut text = String::new();
            for r in &t.ranks {
                let _ = write!(text, "{} {};", r.rank, r.final_compute.as_ns());
                for e in &r.events {
                    let _ = write!(text, "{} {:?};", e.compute_before.as_ns(), e.op);
                }
            }
            let digest = text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
            rows.push(Value::Map(vec![
                ("app".into(), Value::Str(app.name().into())),
                ("nprocs".into(), Value::U64(u64::from(nprocs))),
                ("calls".into(), Value::U64(t.total_calls() as u64)),
                ("digest".into(), Value::Str(format!("{digest:016x}"))),
            ]));
        }
    }
    assert_matches_golden("weak_trace_digest.json", &Value::Seq(rows));
}
