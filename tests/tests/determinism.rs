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
    )
    .expect("replay");
    let b = replay(
        &t,
        None,
        &params,
        &ReplayOptions {
            seed: 2,
            record_timelines: false,
            ..ReplayOptions::default()
        },
    )
    .expect("replay");
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

/// The strong-scaling traces, pinned like the weak ones above: every
/// paper-grid cell (the Figs. 7–9 / Table III grid) of at most 64 ranks,
/// generated through the sweep engine's default trace source at the
/// exhibit seed, one FNV-1a digest row per cell. Cells above 64 ranks
/// are left out so the debug-build test stays fast.
///
/// Regenerate only after an intentional model change:
/// `IBP_UPDATE_GOLDEN=1 cargo test -p ibpower-integration-tests --test determinism`
#[test]
fn strong_trace_digest_matches_golden() {
    use ibp_analysis::exhibits::{ExhibitGrid, SEED};
    use ibp_analysis::sweep::default_trace_fn;
    use ibpower_integration_tests::golden::assert_matches_golden;
    use serde::Value;

    let trace_of = default_trace_fn();
    let rows: Vec<Value> = ExhibitGrid::capped(64)
        .cells(SEED)
        .iter()
        .map(|key| {
            let t = trace_of(key);
            t.validate().unwrap();
            Value::Map(vec![
                ("app".into(), Value::Str(key.app.name().into())),
                ("nprocs".into(), Value::U64(u64::from(key.nprocs))),
                ("calls".into(), Value::U64(t.total_calls() as u64)),
                (
                    "digest".into(),
                    Value::Str(format!("{:016x}", trace_digest(&t))),
                ),
            ])
        })
        .collect();
    assert_matches_golden("strong_trace_digest.json", &Value::Seq(rows));
}

/// Every sleep policy's annotations, pinned: the PPA runtime (paper
/// WRPS, with the resilience controller, on the full depth ladder), the
/// oracle, the reactive idle-timeout at 0 and 50 µs and the history
/// window of 8, on all five applications at 16 ranks and the exhibit
/// seed. Each row holds an FNV-1a digest of the JSON of every rank's
/// `RankAnnotation` (directives, per-event overheads and penalties,
/// stats), so a change to any policy's decisions or accounting shows up
/// here, not only in the ablation's rounded savings.
///
/// Regenerate only after an intentional model change:
/// `IBP_UPDATE_GOLDEN=1 cargo test -p ibpower-integration-tests --test determinism`
#[test]
fn policy_digest_matches_golden() {
    use ibp_analysis::exhibits::SEED;
    use ibp_analysis::sweep::{default_trace_fn, CellKey};
    use ibp_core::{
        annotate_rank, history_annotate_rank, oracle_annotate_rank, reactive_annotate_rank,
        ResilienceConfig,
    };
    use ibp_trace::RankTrace;
    use ibpower_integration_tests::golden::assert_matches_golden;
    use serde::Value;

    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let resilient = cfg.clone().with_resilience(ResilienceConfig::standard());
    let ladder = cfg.clone().with_ladder();
    let policies = [
        "ppa",
        "ppa+resilience",
        "ppa-ladder",
        "oracle",
        "reactive-0us",
        "reactive-50us",
        "history-8",
    ];
    let annotate = |policy: &str, r: &RankTrace| match policy {
        "ppa" => annotate_rank(r, &cfg),
        "ppa+resilience" => annotate_rank(r, &resilient),
        "ppa-ladder" => annotate_rank(r, &ladder),
        "oracle" => oracle_annotate_rank(r, &cfg),
        "reactive-0us" => reactive_annotate_rank(r, &cfg, SimDuration::ZERO),
        "reactive-50us" => reactive_annotate_rank(r, &cfg, SimDuration::from_us(50)),
        "history-8" => history_annotate_rank(r, &cfg, 8),
        other => unreachable!("unknown policy {other}"),
    };
    let trace_of = default_trace_fn();
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        let t = trace_of(&CellKey::new(app, 16, SEED));
        for name in policies {
            let mut directives = 0;
            let digest = t.ranks.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, r| {
                let ann = annotate(name, r);
                directives += ann.directives.len() as u64;
                serde_json::to_string(&ann)
                    .expect("annotation serializes")
                    .bytes()
                    .fold(h, |h, b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
                    })
            });
            rows.push(Value::Map(vec![
                ("policy".into(), Value::Str(name.into())),
                ("app".into(), Value::Str(app.name().into())),
                ("directives".into(), Value::U64(directives)),
                ("digest".into(), Value::Str(format!("{digest:016x}"))),
            ]));
        }
    }
    assert_matches_golden("policy_digest.json", &Value::Seq(rows));
}

/// FNV-1a over every rank's `rank final_compute;` header and its
/// `compute_ns op;` records, the text `weak_trace_digest_matches_golden`
/// hashes.
fn trace_digest(t: &ibp_trace::Trace) -> u64 {
    use std::fmt::Write;
    let mut text = String::new();
    for r in &t.ranks {
        let _ = write!(text, "{} {};", r.rank, r.final_compute.as_ns());
        for e in r.events.iter() {
            let _ = write!(text, "{} {:?};", e.compute_before.as_ns(), e.op);
        }
    }
    text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A small hand-built trace over every `MpiOp` variant, with request
/// ids that are neither dense nor monotone and a `Waitall` whose set is
/// not in posting order — the inputs a trace file may carry that no
/// generator produces.
fn hand_built_trace() -> ibp_trace::Trace {
    use ibp_trace::{MpiOp, TraceBuilder};
    let us = SimDuration::from_us;
    let mut b = TraceBuilder::new("hand-built", 3);
    b.compute(0, us(15));
    b.op(
        0,
        MpiOp::Isend {
            to: 1,
            bytes: 4096,
            req: 7,
        },
    );
    b.op(
        0,
        MpiOp::Irecv {
            from: 2,
            bytes: 512,
            req: 3,
        },
    );
    b.compute(0, SimDuration::from_ns(250));
    b.op(
        0,
        MpiOp::Isend {
            to: 2,
            bytes: 64,
            req: 12,
        },
    );
    b.compute(0, us(40));
    b.op(0, MpiOp::Waitall { reqs: vec![12, 3] });
    b.op(0, MpiOp::Wait { req: 7 });
    b.op(0, MpiOp::Send { to: 1, bytes: 100 });
    b.compute(1, us(3));
    b.op(
        1,
        MpiOp::Irecv {
            from: 0,
            bytes: 4096,
            req: 900,
        },
    );
    b.op(
        1,
        MpiOp::Recv {
            from: 0,
            bytes: 100,
        },
    );
    b.compute(1, us(70));
    b.op(1, MpiOp::Wait { req: 900 });
    b.op(
        2,
        MpiOp::Irecv {
            from: 0,
            bytes: 64,
            req: 1,
        },
    );
    b.op(
        2,
        MpiOp::Isend {
            to: 0,
            bytes: 512,
            req: 0,
        },
    );
    b.compute(2, us(9));
    b.op(2, MpiOp::Waitall { reqs: vec![0, 1] });
    for r in 0..3 {
        b.compute(r, us(5 + u64::from(r)));
        b.op(
            r,
            MpiOp::Sendrecv {
                to: (r + 1) % 3,
                send_bytes: 256,
                from: (r + 2) % 3,
                recv_bytes: 256,
            },
        );
        b.op(r, MpiOp::Barrier);
        b.compute(r, us(11));
        b.op(r, MpiOp::Bcast { root: 2, bytes: 32 });
        b.op(r, MpiOp::Reduce { root: 1, bytes: 16 });
        b.op(r, MpiOp::Allreduce { bytes: 8 });
        b.compute(r, SimDuration::from_ns(1));
        b.op(r, MpiOp::Allgather { bytes: 24 });
        b.op(r, MpiOp::Alltoall { bytes: 48 });
        b.compute(r, us(2 * u64::from(r)));
    }
    b.build()
}

/// The trace file formats, pinned byte for byte: compact JSON (as
/// `io::save` writes it) and the Paraver dialect of the hand-built
/// trace, which must also read back as the same trace.
#[test]
fn trace_file_formats_match_golden_bytes() {
    use ibpower_integration_tests::golden::assert_matches_golden_text;
    let t = hand_built_trace();
    t.validate().unwrap();
    let json = ibp_trace::io::to_json(&t);
    let dir = std::env::temp_dir().join(format!("ibp-format-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hand-built.json");
    ibp_trace::io::save(&t, &path).unwrap();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        json,
        "save and to_json disagree"
    );
    assert_eq!(ibp_trace::io::load(&path).unwrap(), t);
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_golden_text("hand_built_trace.json", &json);
    assert_matches_golden_text("hand_built_trace.prv", &ibp_trace::paraver::to_prv(&t));
}
