//! Streaming determinism across session boundaries (DESIGN.md §12).
//!
//! Property: split any paper workload's event stream at an *arbitrary*
//! point, snapshot the session, restore into a fresh session, and
//! replay the remainder — the concatenated directives and final stats
//! must be byte-identical to the unbroken run, which in turn must match
//! the offline `annotate_rank` golden path. Any batch size, any split
//! point, all five paper applications.

use ibp_core::{annotate_rank, LaneDirective, PowerConfig, RankAnnotation, RankStats};
use ibp_serve::Session;
use ibp_workloads::{AppKind, Scaling};
use proptest::prelude::*;
use std::sync::OnceLock;

struct AppStream {
    name: &'static str,
    events: Vec<(u16, u64)>,
    final_compute_ns: u64,
    golden: RankAnnotation,
}

/// One rank's wire-level event stream plus its offline golden
/// annotation, per paper app. Generated once — trace synthesis
/// dominates the property's cost otherwise.
fn streams() -> &'static Vec<AppStream> {
    static STREAMS: OnceLock<Vec<AppStream>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        let cfg = PowerConfig::default();
        AppKind::ALL
            .iter()
            .map(|app| {
                let w = app.workload(Scaling::Strong);
                let nprocs = w.paper_procs()[0];
                let trace = w.generate(nprocs, 1302);
                let rank = &trace.ranks[0];
                AppStream {
                    name: app.name(),
                    events: rank
                        .call_stream()
                        .map(|(call, gap)| (call.id(), gap.as_ns()))
                        .collect(),
                    final_compute_ns: rank.final_compute.as_ns(),
                    golden: annotate_rank(rank, &cfg),
                }
            })
            .collect()
    })
}

/// Stream `events` through a session in `batch`-sized frames,
/// snapshotting + restoring at `split` (None = unbroken), and return
/// the full directive stream plus final stats.
fn run_split(
    events: &[(u16, u64)],
    final_compute_ns: u64,
    batch: usize,
    split: Option<usize>,
) -> (Vec<LaneDirective>, RankStats) {
    let mut sess = Session::open(0, PowerConfig::default());
    let mut directives = Vec::new();
    let (head, tail) = events.split_at(split.unwrap_or(events.len()));
    for chunk in head.chunks(batch) {
        directives.extend(sess.apply(chunk).1);
    }
    if split.is_some() {
        let snap = sess.snapshot_bytes();
        sess = Session::restore(&snap).expect("snapshot restores");
    }
    for chunk in tail.chunks(batch) {
        directives.extend(sess.apply(chunk).1);
    }
    let (last, _, stats) = sess.close(final_compute_ns);
    directives.extend(last);
    (directives, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Splitting the stream anywhere, at any batch size, is invisible:
    /// directives and stats equal the unbroken run *and* the offline
    /// golden annotation, for every paper app.
    #[test]
    fn split_snapshot_restore_is_byte_identical(
        app_idx in 0usize..AppKind::ALL.len(),
        split_frac in 0.0f64..=1.0,
        batch in 1usize..128,
    ) {
        let s = &streams()[app_idx];
        let split = ((s.events.len() as f64 * split_frac) as usize).min(s.events.len());

        let (unbroken, unbroken_stats) =
            run_split(&s.events, s.final_compute_ns, batch, None);
        let (spliced, spliced_stats) =
            run_split(&s.events, s.final_compute_ns, batch, Some(split));

        prop_assert_eq!(&unbroken, &s.golden.directives, "{}: unbroken != golden", s.name);
        prop_assert_eq!(&unbroken_stats, &s.golden.stats, "{}: unbroken stats != golden", s.name);
        prop_assert_eq!(&spliced, &unbroken, "{}: split at {} diverged", s.name, split);
        prop_assert_eq!(&spliced_stats, &unbroken_stats, "{}: split stats diverged", s.name);
    }

    /// Two consecutive splits (snapshot chains) are equally invisible.
    #[test]
    fn double_split_is_byte_identical(
        app_idx in 0usize..AppKind::ALL.len(),
        first in 0.0f64..=1.0,
        second in 0.0f64..=1.0,
        batch in 1usize..64,
    ) {
        let s = &streams()[app_idx];
        let cut_a = ((s.events.len() as f64 * first.min(second)) as usize).min(s.events.len());
        let cut_b = ((s.events.len() as f64 * first.max(second)) as usize).min(s.events.len());

        let mut sess = Session::open(0, PowerConfig::default());
        let mut directives = Vec::new();
        for (i, part) in [&s.events[..cut_a], &s.events[cut_a..cut_b], &s.events[cut_b..]]
            .into_iter()
            .enumerate()
        {
            if i > 0 {
                let snap = sess.snapshot_bytes();
                sess = Session::restore(&snap).expect("snapshot restores");
            }
            for chunk in part.chunks(batch) {
                directives.extend(sess.apply(chunk).1);
            }
        }
        let (last, _, stats) = sess.close(s.final_compute_ns);
        directives.extend(last);

        prop_assert_eq!(&directives, &s.golden.directives, "{}: chained splits diverged", s.name);
        prop_assert_eq!(&stats, &s.golden.stats, "{}: chained-split stats diverged", s.name);
    }
}
