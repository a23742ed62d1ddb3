//! Whole-trace annotation: run the runtime over every rank.
//!
//! This mirrors the paper's evaluation methodology: the PPA runs over the
//! recorded traces, the resulting lane-off events / overheads /
//! reactivation delays are inserted, and the modified traces are then
//! replayed through the network simulator (`ibp-network`).

use crate::config::PowerConfig;
use crate::runtime::{annotate_rank, RankAnnotation};
use crate::stats::RankStats;
use ibp_trace::{RankTrace, Trace};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A trace plus everything the power-saving runtime derived from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceAnnotations {
    /// Per-rank annotations, indexed by rank.
    pub ranks: Vec<RankAnnotation>,
}

impl TraceAnnotations {
    /// Aggregate statistics over all ranks (sums of counters; ratios are
    /// recomputed from the sums, which matches the paper's "averaged over
    /// all MPI processes").
    pub fn aggregate_stats(&self) -> RankStats {
        let mut agg = RankStats::default();
        for r in &self.ranks {
            agg.merge(&r.stats);
        }
        agg
    }

    /// Mean per-rank hit rate (Table III averages per process).
    pub fn mean_hit_rate_pct(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks
            .iter()
            .map(|r| r.stats.hit_rate_pct())
            .sum::<f64>()
            / self.ranks.len() as f64
    }

    /// Mean per-rank quick power-saving estimate (%), see
    /// [`RankStats::est_power_saving_pct`].
    pub fn mean_est_power_saving_pct(&self, low_power_draw: f64) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks
            .iter()
            .map(|r| r.stats.est_power_saving_pct(low_power_draw))
            .sum::<f64>()
            / self.ranks.len() as f64
    }

    /// Total number of lane-off directives across ranks.
    pub fn total_directives(&self) -> usize {
        self.ranks.iter().map(|r| r.directives.len()).sum()
    }
}

/// Below this many total trace events, `map_ranks` ignores `jobs` and
/// runs serially. Even on the persistent pool (no thread spawning since
/// the work-stealing rewrite) a parallel map still pays queueing and
/// wake-up latency per task, and annotation runs at roughly a
/// microsecond per event, so tiny traces finish faster inline. 32k
/// events puts the cutover where coordination is safely under ~1% of
/// the serial runtime.
pub const SERIAL_CUTOVER_EVENTS: usize = 32 * 1024;

/// The worker count `map_ranks` will actually use for `ranks` when asked
/// for `jobs`: clamped to the rank count, and forced to 1 below the
/// [`SERIAL_CUTOVER_EVENTS`] size cutover. Exposed so benches and tests
/// can assert the cutover without timing anything.
pub fn effective_jobs(ranks: &[RankTrace], jobs: usize) -> usize {
    let jobs = jobs.max(1).min(ranks.len().max(1));
    if jobs <= 1 {
        return 1;
    }
    let events: usize = ranks.iter().map(|r| r.events.len()).sum();
    if events < SERIAL_CUTOVER_EVENTS {
        1
    } else {
        jobs
    }
}

/// Map `f` over the ranks of a trace on up to `jobs` worker threads,
/// collecting results in rank order. Ranks are annotated independently
/// (the runtime holds no cross-rank state), so the output is
/// byte-identical to the serial map *by construction* — parallelism only
/// changes which thread computes each element, never the element.
///
/// `jobs <= 1` (or a single rank) runs inline with no pool at all, and
/// small inputs are forced serial — see [`effective_jobs`].
pub fn map_ranks<T, F>(ranks: &[RankTrace], jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&RankTrace) -> T + Sync,
{
    map_ordered(ranks, effective_jobs(ranks, jobs), |_, rank| f(rank))
}

/// Map `f(index, item)` over `items` on up to `jobs` concurrent tasks,
/// collecting results **by index**, never by completion order. The one
/// fan-out of the workspace: rank annotation ([`map_ranks`]) and the
/// sweep engine's cells both run through it.
///
/// `jobs <= 1` (or at most one item) runs inline on the calling thread.
/// Otherwise `jobs` self-scheduling tasks go to the process-wide
/// persistent pool, so concurrency is capped at `jobs` and at the pool's
/// width, and repeated calls reuse the same parked workers. A call made
/// from inside a task nests safely: the waiting thread runs queued tasks
/// until its own finish.
pub fn map_ordered<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    rayon::global_pool().scope(|s| {
        for _ in 0..jobs {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

/// Run the power-saving runtime over every rank of `trace`.
pub fn annotate_trace(trace: &Trace, cfg: &PowerConfig) -> TraceAnnotations {
    annotate_trace_jobs(trace, cfg, 1)
}

/// [`annotate_trace`] with rank-level parallelism on up to `jobs`
/// threads. Output is identical to the serial version for any `jobs`.
pub fn annotate_trace_jobs(trace: &Trace, cfg: &PowerConfig, jobs: usize) -> TraceAnnotations {
    TraceAnnotations {
        ranks: map_ranks(&trace.ranks, jobs, |r| annotate_rank(r, cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_simcore::SimDuration;
    use ibp_trace::{MpiOp, TraceBuilder};

    fn us(x: u64) -> SimDuration {
        SimDuration::from_us(x)
    }

    fn alya_like(nprocs: u32, iters: usize) -> Trace {
        let mut b = TraceBuilder::new("alya-like", nprocs);
        for it in 0..iters {
            for r in 0..nprocs {
                let lead = if it == 0 { us(0) } else { us(300) };
                b.compute(r, lead);
                for k in 0..3u64 {
                    if k > 0 {
                        b.compute(r, us(2));
                    }
                    b.op(
                        r,
                        MpiOp::Sendrecv {
                            to: (r + 1) % nprocs,
                            send_bytes: 2048,
                            from: (r + nprocs - 1) % nprocs,
                            recv_bytes: 2048,
                        },
                    );
                }
                b.compute(r, us(300));
                b.op(r, MpiOp::Allreduce { bytes: 8 });
                b.compute(r, us(300));
                b.op(r, MpiOp::Allreduce { bytes: 8 });
            }
        }
        b.build()
    }

    #[test]
    fn annotates_every_rank() {
        let trace = alya_like(4, 20);
        let cfg = PowerConfig::default();
        let ann = annotate_trace(&trace, &cfg);
        assert_eq!(ann.ranks.len(), 4);
        for (i, r) in ann.ranks.iter().enumerate() {
            assert_eq!(r.rank as usize, i);
            assert_eq!(r.overhead.len(), trace.ranks[i].call_count());
            assert!(r.stats.correct_calls > 0, "rank {i} never predicted");
        }
    }

    #[test]
    fn aggregate_sums_counters() {
        let trace = alya_like(3, 15);
        let ann = annotate_trace(&trace, &PowerConfig::default());
        let agg = ann.aggregate_stats();
        assert_eq!(
            agg.total_calls as usize,
            trace.total_calls(),
            "aggregate call count must equal the trace's"
        );
        let sum: u64 = ann.ranks.iter().map(|r| r.stats.correct_calls).sum();
        assert_eq!(agg.correct_calls, sum);
    }

    #[test]
    fn parallel_annotation_is_byte_identical_to_serial() {
        // Big enough to clear the serial cutover, so jobs > 1 really
        // does run the pool path being checked here.
        let trace = alya_like(6, 1_200);
        assert!(effective_jobs(&trace.ranks, 2) > 1, "trace below cutover");
        let cfg = PowerConfig::default();
        let serial = annotate_trace(&trace, &cfg);
        for jobs in [2, 3, 4, 16] {
            let par = annotate_trace_jobs(&trace, &cfg, jobs);
            assert_eq!(serial, par, "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn small_traces_cut_over_to_serial() {
        // Below the event cutover a parallel request degrades to one
        // worker (pool setup would dominate); above it, it sticks.
        let small = alya_like(6, 25);
        let total: usize = small.ranks.iter().map(|r| r.events.len()).sum();
        assert!(total < SERIAL_CUTOVER_EVENTS);
        assert_eq!(effective_jobs(&small.ranks, 4), 1);
        assert_eq!(effective_jobs(&small.ranks, 1), 1);

        let big = alya_like(6, 1_200);
        let total: usize = big.ranks.iter().map(|r| r.events.len()).sum();
        assert!(total >= SERIAL_CUTOVER_EVENTS);
        assert_eq!(effective_jobs(&big.ranks, 4), 4);
        // Still clamped to the rank count and to >= 1.
        assert_eq!(effective_jobs(&big.ranks, 64), 6);
        assert_eq!(effective_jobs(&[], 4), 1);

        // Cutover or not, the output never changes.
        let cfg = PowerConfig::default();
        assert_eq!(
            annotate_trace(&small, &cfg),
            annotate_trace_jobs(&small, &cfg, 4)
        );
    }

    #[test]
    fn symmetric_ranks_have_symmetric_outcomes() {
        // Every rank runs the same pattern, so hit rates must agree.
        let trace = alya_like(4, 30);
        let ann = annotate_trace(&trace, &PowerConfig::default());
        let rates: Vec<f64> = ann.ranks.iter().map(|r| r.stats.hit_rate_pct()).collect();
        for r in &rates[1..] {
            assert!((r - rates[0]).abs() < 1e-9, "rates diverged: {rates:?}");
        }
        assert!(ann.mean_hit_rate_pct() > 80.0);
        assert!(ann.mean_est_power_saving_pct(0.43) > 10.0);
        assert!(ann.total_directives() > 0);
    }
}
