//! End-to-end integration: workload generation → PPA annotation →
//! baseline and managed replays → paper metrics, across all five
//! applications (shrunk iteration counts for test speed).

use ibp_analysis::{run_on_trace, RunConfig};
use ibp_core::{annotate_trace, PowerConfig, SleepKind};
use ibp_network::{replay, ReplayOptions, SimParams};
use ibp_simcore::SimDuration;
use ibp_trace::Trace;
use ibp_workloads::{Alya, AppKind, Gromacs, NasBt, NasMg, Workload, Wrf};

/// Small-but-representative trace for each application.
fn small_trace(app: AppKind, nprocs: u32, seed: u64) -> Trace {
    match app {
        AppKind::Gromacs => Gromacs {
            iterations: 60,
            ..Default::default()
        }
        .generate(nprocs, seed),
        AppKind::Alya => Alya {
            iterations: 50,
            ..Default::default()
        }
        .generate(nprocs, seed),
        AppKind::Wrf => Wrf {
            iterations: 40,
            ..Default::default()
        }
        .generate(nprocs, seed),
        AppKind::NasBt => NasBt {
            iterations: 50,
            ..Default::default()
        }
        .generate(nprocs, seed),
        AppKind::NasMg => NasMg {
            iterations: 40,
            ..Default::default()
        }
        .generate(nprocs, seed),
    }
}

#[test]
fn every_app_saves_power_with_bounded_slowdown() {
    for app in AppKind::ALL {
        let n = if app == AppKind::NasBt { 9 } else { 8 };
        let trace = small_trace(app, n, 1);
        trace.validate().unwrap();
        let cfg = RunConfig::new(20.0, 0.01);
        let r = run_on_trace(&trace, app, &cfg);
        assert!(
            r.power_saving_pct > 3.0,
            "{}: saving {}",
            app.name(),
            r.power_saving_pct
        );
        assert!(
            r.power_saving_pct < 57.0,
            "{}: saving above the WRPS ceiling",
            app.name()
        );
        assert!(
            r.slowdown_pct < 3.0,
            "{}: slowdown {}",
            app.name(),
            r.slowdown_pct
        );
        assert!(
            r.hit_rate_pct > 30.0,
            "{}: hit {}",
            app.name(),
            r.hit_rate_pct
        );
    }
}

#[test]
fn savings_fall_with_strong_scaling() {
    // The paper's central scaling observation, on ALYA (cheap to run).
    let cfg = RunConfig::new(20.0, 0.01);
    let small = run_on_trace(&small_trace(AppKind::Alya, 8, 2), AppKind::Alya, &cfg);
    let large = run_on_trace(&small_trace(AppKind::Alya, 64, 2), AppKind::Alya, &cfg);
    assert!(
        small.power_saving_pct > large.power_saving_pct + 3.0,
        "8 ranks: {:.1}%, 64 ranks: {:.1}%",
        small.power_saving_pct,
        large.power_saving_pct
    );
}

#[test]
fn smaller_displacement_saves_more() {
    // Fig. 7 vs Fig. 9: displacement 1% beats 10% on savings.
    let trace = small_trace(AppKind::NasBt, 9, 3);
    let r1 = run_on_trace(&trace, AppKind::NasBt, &RunConfig::new(20.0, 0.01));
    let r10 = run_on_trace(&trace, AppKind::NasBt, &RunConfig::new(20.0, 0.10));
    assert!(
        r1.power_saving_pct > r10.power_saving_pct,
        "disp 1%: {:.2}, disp 10%: {:.2}",
        r1.power_saving_pct,
        r10.power_saving_pct
    );
}

#[test]
fn managed_run_never_loses_messages() {
    // The annotated replay must transport exactly the same traffic as
    // the baseline (annotations shift time, not communication).
    let trace = small_trace(AppKind::Wrf, 8, 4);
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.05);
    let ann = annotate_trace(&trace, &cfg);
    let params = SimParams::paper();
    let opts = ReplayOptions::default();
    let base = replay(&trace, None, &params, &opts).expect("replay");
    let managed = replay(&trace, Some(&ann), &params, &opts).expect("replay");
    assert_eq!(base.fabric.messages, managed.fabric.messages);
    assert_eq!(base.fabric.bytes, managed.fabric.bytes);
}

#[test]
fn per_rank_low_power_is_within_run_bounds() {
    let trace = small_trace(AppKind::NasBt, 16, 5);
    let cfg = PowerConfig::paper(SimDuration::from_us(20), 0.01);
    let ann = annotate_trace(&trace, &cfg);
    let result = replay(
        &trace,
        Some(&ann),
        &SimParams::paper(),
        &ReplayOptions::default(),
    )
    .expect("replay");
    for (r, sleep) in result.link_sleep.iter().enumerate() {
        assert!(
            sleep[SleepKind::Wrps as usize] <= result.exec_time,
            "rank {r}: low-power time exceeds the run"
        );
    }
    // Sleep counts match the runtime's directive counts.
    for (r, ann_rank) in ann.ranks.iter().enumerate() {
        assert_eq!(
            result.link_sleeps[r] as usize,
            ann_rank.directives.len(),
            "rank {r}: directive/sleep mismatch"
        );
    }
}

#[test]
fn gromacs_timelines_render_like_fig6() {
    use ibp_network::LinkPower;
    use ibp_simcore::SimTime;
    let trace = small_trace(AppKind::Gromacs, 8, 6);
    let cfg = PowerConfig::paper(SimDuration::from_us(36), 0.01);
    let ann = annotate_trace(&trace, &cfg);
    let opts = ReplayOptions {
        record_timelines: true,
        ..ReplayOptions::default()
    };
    let result = replay(&trace, Some(&ann), &SimParams::paper(), &opts).expect("replay");
    let tls = result.timelines.expect("recorded");
    let end = tls
        .iter()
        .map(|tl| tl.last_transition())
        .max()
        .unwrap()
        .max(SimTime::ZERO + result.exec_time);
    let rows: Vec<(String, &ibp_simcore::StateTimeline<LinkPower>)> = tls
        .iter()
        .enumerate()
        .map(|(r, tl)| (format!("rank {r}"), tl))
        .collect();
    let art = ibp_trace::viz::render_timelines(&rows, end, 80, |s| match s {
        LinkPower::Low => '.',
        LinkPower::Rate => '-',
        LinkPower::Deep => 'o',
        LinkPower::Full => '#',
        LinkPower::Transition => '+',
    });
    // Every rank should show some low-power cells.
    let low_rows = art.lines().filter(|l| l.contains('.')).count();
    assert!(low_rows >= 8, "low-power never rendered:\n{art}");
}
