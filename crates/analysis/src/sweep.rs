//! Parallel experiment engine with trace memoization.
//!
//! The paper's exhibits are a grid of `(app × nprocs × GT ×
//! displacement)` cells, and many cells share the expensive parts: the
//! workload trace (a pure function of `(app, nprocs, seed)`), the
//! baseline replay of that trace, and the GT-selection sweep. The
//! [`SweepEngine`] executes a declarative list of cells on a rayon pool
//! and memoizes those three artefacts behind keyed caches, so each
//! unique trace is generated and baseline-replayed exactly once per
//! sweep regardless of how many cells touch it. It also keeps each
//! key's last managed timing run ([`CellCtx::managed_replay`]), so a
//! figure at another displacement that moved only the wake timers is
//! scored, not replayed.
//!
//! ## Determinism guarantee
//!
//! Parallel output is bit-identical to serial output:
//!
//! * every cell is a pure function of its [`CellKey`] and payload — no
//!   cell reads mutable state another cell writes;
//! * results are collected **by cell index**, never by completion
//!   order;
//! * any per-cell randomness (e.g. fault plans) must come from
//!   [`CellCtx::derived_seed`], a hash of the cell key — never from a
//!   global counter or the pool's scheduling;
//! * the cached artefacts are themselves deterministic pure functions
//!   of the key, so a cache hit returns exactly what a recompute would
//!   (a timing hit too: it requires an equal [`TimingKey`], and debug
//!   builds replay again to check).
//!
//! `--jobs 1` (`--serial`, [`SweepOptions::serial`], or `IBP_JOBS=1`)
//! bypasses the pool entirely and runs the same closures in a plain
//! loop on the calling thread; the golden-exhibit suite and the
//! serial-vs-parallel property test pin the byte equality.

use crate::experiment::{make_trace, run_managed, RunConfig, RunResult};
use crate::gt_select::{choose_gt, GtPoint};
use ibp_core::TraceAnnotations;
use ibp_network::{
    replay, replay_timing, ReplayOptions, ReplayTiming, SimParams, SimResult, TimingKey,
};
use ibp_trace::Trace;
use ibp_workloads::{AppKind, Scaling};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Trace-generation variant encoded in a [`CellKey`]. The default trace
/// function understands strong and weak scaling; studies with bespoke
/// generators (e.g. jitter amplification) install their own function via
/// [`SweepEngine::with_trace_fn`] and assign variants as they see fit.
pub const VARIANT_STRONG: u32 = 0;
/// Weak-scaling variant (per-rank work fixed); see [`VARIANT_STRONG`].
pub const VARIANT_WEAK: u32 = 1;

/// Identity of the memoizable part of one grid cell: everything trace
/// generation (and hence the baseline replay) depends on. GT and
/// displacement deliberately do not appear — cells that differ only in
/// the power configuration share one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Application.
    pub app: AppKind,
    /// Process count.
    pub nprocs: u32,
    /// Workload generation seed.
    pub seed: u64,
    /// Trace-generation variant (see [`VARIANT_STRONG`]).
    pub variant: u32,
}

impl CellKey {
    /// A strong-scaling (default-workload) cell key.
    pub fn new(app: AppKind, nprocs: u32, seed: u64) -> Self {
        CellKey {
            app,
            nprocs,
            seed,
            variant: VARIANT_STRONG,
        }
    }

    /// Deterministic 64-bit digest of the key (SplitMix64 over its
    /// fields). Stable across runs, platforms and pool schedules.
    pub fn digest(&self) -> u64 {
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for field in [
            self.app
                .name()
                .bytes()
                .fold(0u64, |a, b| a.wrapping_mul(131).wrapping_add(b as u64)),
            self.nprocs as u64,
            self.seed,
            self.variant as u64,
        ] {
            h = splitmix64(h ^ field);
        }
        h
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a sweep executes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepOptions {
    /// Worker count; 0 means available parallelism, 1 the serial
    /// in-thread path.
    pub jobs: usize,
}

impl SweepOptions {
    /// Options honouring the `IBP_JOBS` environment variable: unset
    /// means auto width; a value that is not a worker count (`0` =
    /// auto) is an error naming the variable and the value.
    pub fn from_env() -> Result<Self, String> {
        let Some(value) = std::env::var_os("IBP_JOBS") else {
            return Ok(SweepOptions::default());
        };
        let jobs = value.to_str().and_then(|s| s.parse().ok());
        jobs.map(|jobs| SweepOptions { jobs })
            .ok_or_else(|| format!("bad IBP_JOBS value {value:?} (need a worker count; 0 = auto)"))
    }

    /// A fixed-width pool (`jobs = n`, `n = 0` meaning auto).
    pub fn with_jobs(n: usize) -> Self {
        SweepOptions { jobs: n }
    }

    /// The serial escape hatch: `jobs = 1`.
    pub fn serial() -> Self {
        SweepOptions { jobs: 1 }
    }

    /// The worker count a sweep will actually use.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

/// Wall-clock and cache-effectiveness counters for one sweep (or one
/// exhibit's slice of a shared engine), emitted alongside each results
/// JSON as `<name>.stats.json`. Everything except `wall_ms` and
/// `peak_rss_mb` is deterministic for a fixed grid; `jobs`, `wall_ms`
/// and `peak_rss_mb` describe the run, which is why stats files are
/// excluded from byte-equality diffs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SweepStats {
    /// Cells executed.
    pub cells: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Whether more than one worker ran (false = the serial path).
    pub parallel: bool,
    /// Traces generated (unique keys touched).
    pub traces_generated: u64,
    /// Trace-cache hits (cells that reused a memoized trace).
    pub trace_hits: u64,
    /// Baseline replays computed (unique keys replayed).
    pub baselines_computed: u64,
    /// Baseline-cache hits.
    pub baseline_hits: u64,
    /// GT-selection sweeps computed (unique (key, displacement) pairs).
    pub gt_selections: u64,
    /// GT-selection cache hits.
    pub gt_hits: u64,
    /// Managed replays that ran the timing loop.
    #[serde(default)]
    pub timings_computed: u64,
    /// Managed replays scored on their cell's kept timing run (equal
    /// [`TimingKey`]), without a timing loop.
    #[serde(default)]
    pub timing_hits: u64,
    /// Wall-clock milliseconds covered by these counters.
    pub wall_ms: u64,
    /// Heap bytes of the traces generated ([`Trace::heap_bytes`]).
    #[serde(default)]
    pub trace_bytes: u64,
    /// Peak resident set size of the process so far, MiB (`VmHWM`;
    /// 0 where `/proc` does not report it). A high-water mark, not a
    /// counter: [`SweepStats::since`] keeps the later value.
    #[serde(default)]
    pub peak_rss_mb: f64,
}

impl SweepStats {
    /// The counter delta since `earlier` (same engine, earlier
    /// snapshot); used by `all` to attribute shared-engine counters to
    /// individual exhibits.
    pub fn since(&self, earlier: &SweepStats) -> SweepStats {
        SweepStats {
            cells: self.cells - earlier.cells,
            jobs: self.jobs,
            parallel: self.parallel,
            traces_generated: self.traces_generated - earlier.traces_generated,
            trace_hits: self.trace_hits - earlier.trace_hits,
            baselines_computed: self.baselines_computed - earlier.baselines_computed,
            baseline_hits: self.baseline_hits - earlier.baseline_hits,
            gt_selections: self.gt_selections - earlier.gt_selections,
            gt_hits: self.gt_hits - earlier.gt_hits,
            timings_computed: self.timings_computed - earlier.timings_computed,
            timing_hits: self.timing_hits - earlier.timing_hits,
            wall_ms: self.wall_ms - earlier.wall_ms,
            trace_bytes: self.trace_bytes - earlier.trace_bytes,
            peak_rss_mb: self.peak_rss_mb,
        }
    }
}

/// Peak resident set size of this process, MiB (`VmHWM` of
/// `/proc/self/status`), or 0 where that is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A keyed once-cache: the first caller computes, concurrent callers for
/// the same key block on the same `OnceLock` (so the value is computed
/// exactly once even under contention), later callers hit.
struct KeyedCache<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
    computed: AtomicU64,
    hits: AtomicU64,
}

impl<K: std::hash::Hash + Eq + Clone, V> KeyedCache<K, V> {
    fn new() -> Self {
        KeyedCache {
            map: Mutex::new(HashMap::new()),
            computed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> Arc<V> {
        let slot = {
            let mut map = self.map.lock().unwrap();
            map.entry(key.clone()).or_default().clone()
        };
        let mut fresh = false;
        let value = slot
            .get_or_init(|| {
                fresh = true;
                self.computed.fetch_add(1, Ordering::Relaxed);
                Arc::new(compute())
            })
            .clone();
        if !fresh {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }
}

/// The signature of a pluggable trace source (see
/// [`SweepEngine::with_trace_fn`]).
pub type TraceFn = Arc<dyn Fn(&CellKey) -> Trace + Send + Sync>;

/// The default trace source: strong-scaling paper workloads for
/// [`VARIANT_STRONG`], weak-scaling ones for [`VARIANT_WEAK`].
pub fn default_trace_fn() -> TraceFn {
    Arc::new(|key: &CellKey| match key.variant {
        VARIANT_STRONG => make_trace(key.app, key.nprocs, key.seed),
        VARIANT_WEAK => key
            .app
            .workload(Scaling::Weak)
            .generate(key.nprocs, key.seed),
        other => panic!("no default workload for trace variant {other}"),
    })
}

/// The parallel sweep engine: a rayon pool plus keyed caches for
/// traces, baseline replays and GT selections, and one managed timing
/// run per key. One engine instance is shared across every exhibit of a
/// run (`all` reuses traces between Table I, Table III and the figures).
pub struct SweepEngine {
    opts: SweepOptions,
    pool: rayon::ThreadPool,
    trace_fn: TraceFn,
    traces: KeyedCache<CellKey, Trace>,
    baselines: KeyedCache<CellKey, SimResult>,
    gt_choices: KeyedCache<(CellKey, u64), GtPoint>,
    /// Per key, the timing run of its last managed replay: a miss
    /// replaces it, so memory stays at one record per key.
    timings: Mutex<HashMap<CellKey, Arc<ReplayTiming>>>,
    timings_computed: AtomicU64,
    timing_hits: AtomicU64,
    cells: AtomicU64,
    /// Heap bytes of every trace generated so far.
    trace_bytes: AtomicU64,
    started: Instant,
}

impl SweepEngine {
    /// An engine with the default (paper-workload) trace source.
    pub fn new(opts: SweepOptions) -> Self {
        Self::with_trace_fn(opts, default_trace_fn())
    }

    /// An engine generating traces through `trace_fn` (tests and
    /// bespoke studies: shrunk workloads, jitter amplification, …).
    pub fn with_trace_fn(opts: SweepOptions, trace_fn: TraceFn) -> Self {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(opts.effective_jobs())
            .build()
            .expect("thread pool");
        SweepEngine {
            opts,
            pool,
            trace_fn,
            traces: KeyedCache::new(),
            baselines: KeyedCache::new(),
            gt_choices: KeyedCache::new(),
            timings: Mutex::new(HashMap::new()),
            timings_computed: AtomicU64::new(0),
            timing_hits: AtomicU64::new(0),
            cells: AtomicU64::new(0),
            trace_bytes: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The options this engine runs with.
    pub fn options(&self) -> &SweepOptions {
        &self.opts
    }

    /// The memoized trace for `key` (generated on first use).
    pub fn trace(&self, key: &CellKey) -> Arc<Trace> {
        self.traces.get_or_compute(key, || {
            let trace = (self.trace_fn)(key);
            self.trace_bytes
                .fetch_add(trace.heap_bytes() as u64, Ordering::Relaxed);
            trace
        })
    }

    /// The memoized fault-free baseline replay for `key`.
    pub fn baseline(&self, key: &CellKey) -> Arc<SimResult> {
        let trace = self.trace(key);
        self.baselines.get_or_compute(key, || {
            replay(&trace, None, &SimParams::paper(), &ReplayOptions::default())
                .expect("baseline replay of a generated trace")
        })
    }

    /// The memoized GT selection for `key` at `displacement`.
    pub fn choose_gt(&self, key: &CellKey, displacement: f64) -> Arc<GtPoint> {
        let trace = self.trace(key);
        self.gt_choices
            .get_or_compute(&(*key, displacement.to_bits()), || {
                choose_gt(&trace, displacement)
            })
    }

    /// Execute one cell list: `work(ctx, item, index)` for every item,
    /// on the pool (or serially at one worker), with results
    /// collected **by index**. `key_of` maps an item to the cell key
    /// whose memoized trace the context carries.
    pub fn run_cells<I, T, K, F>(&self, items: &[I], key_of: K, work: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        K: Fn(&I) -> CellKey + Sync,
        F: Fn(&CellCtx<'_>, &I, usize) -> T + Sync,
    {
        self.cells.fetch_add(items.len() as u64, Ordering::Relaxed);
        let jobs = self.opts.effective_jobs();
        // Budget left over after one worker per cell goes to rank-level
        // parallelism inside each cell (CellCtx::annotate): a 4-cell
        // exhibit on 16 workers annotates each trace on 4 threads.
        // Byte-identical either way — rank annotation is an independent
        // per-rank map (see ibp_core::map_ranks).
        let rank_jobs = (jobs / items.len().max(1)).max(1);
        if jobs <= 1 || items.len() <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let ctx = self.ctx_jobs(key_of(item), rank_jobs);
                    work(&ctx, item, i)
                })
                .collect();
        }
        let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        self.pool.scope(|s| {
            for _ in 0..jobs.min(items.len()) {
                s.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let ctx = self.ctx_jobs(key_of(&items[i]), rank_jobs);
                    *slots[i].lock().unwrap() = Some(work(&ctx, &items[i], i));
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("cell executed"))
            .collect()
    }

    fn ctx_jobs(&self, key: CellKey, rank_jobs: usize) -> CellCtx<'_> {
        CellCtx {
            trace: self.trace(&key),
            key,
            rank_jobs,
            engine: self,
        }
    }

    /// Add another engine's counters to this one's, so that a study
    /// run on a private engine (see [`SweepEngine::with_trace_fn`])
    /// reports its work through the shared one. `jobs`, `parallel`,
    /// `wall_ms` and `peak_rss_mb` stay this engine's own: the private
    /// run's wall time already elapsed inside this engine's, and its
    /// memory peak inside this process's.
    pub fn absorb(&self, other: &SweepStats) {
        let add = |counter: &AtomicU64, n: u64| counter.fetch_add(n, Ordering::Relaxed);
        add(&self.cells, other.cells);
        add(&self.traces.computed, other.traces_generated);
        add(&self.traces.hits, other.trace_hits);
        add(&self.baselines.computed, other.baselines_computed);
        add(&self.baselines.hits, other.baseline_hits);
        add(&self.gt_choices.computed, other.gt_selections);
        add(&self.gt_choices.hits, other.gt_hits);
        add(&self.timings_computed, other.timings_computed);
        add(&self.timing_hits, other.timing_hits);
        add(&self.trace_bytes, other.trace_bytes);
    }

    /// Cumulative counters since engine construction. Use
    /// [`SweepStats::since`] to attribute a slice of a shared engine.
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            cells: self.cells.load(Ordering::Relaxed),
            jobs: self.opts.effective_jobs(),
            parallel: self.opts.effective_jobs() > 1,
            traces_generated: self.traces.computed.load(Ordering::Relaxed),
            trace_hits: self.traces.hits.load(Ordering::Relaxed),
            baselines_computed: self.baselines.computed.load(Ordering::Relaxed),
            baseline_hits: self.baselines.hits.load(Ordering::Relaxed),
            gt_selections: self.gt_choices.computed.load(Ordering::Relaxed),
            gt_hits: self.gt_choices.hits.load(Ordering::Relaxed),
            timings_computed: self.timings_computed.load(Ordering::Relaxed),
            timing_hits: self.timing_hits.load(Ordering::Relaxed),
            wall_ms: self.started.elapsed().as_millis() as u64,
            trace_bytes: self.trace_bytes.load(Ordering::Relaxed),
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

/// Per-cell execution context: the memoized trace plus accessors for
/// the other keyed artefacts.
pub struct CellCtx<'e> {
    /// The cell's key.
    pub key: CellKey,
    /// The (shared, read-only) trace for this key.
    pub trace: Arc<Trace>,
    /// Worker budget for *intra*-cell rank parallelism: the sweep's
    /// leftover threads once every cell has one (1 when the cell grid
    /// saturates the pool). Feed it to [`CellCtx::annotate`] or the
    /// `*_jobs` experiment/baseline entry points.
    pub rank_jobs: usize,
    engine: &'e SweepEngine,
}

impl CellCtx<'_> {
    /// The memoized fault-free baseline replay of this cell's trace.
    pub fn baseline(&self) -> Arc<SimResult> {
        self.engine.baseline(&self.key)
    }

    /// The fault-free managed replay of this cell's trace under `ann`.
    /// If the engine's kept timing run for this key has `ann`'s
    /// [`TimingKey`], the run is only scored (debug builds replay again
    /// and require an equal result); otherwise the timing loop runs and
    /// its record replaces the kept one.
    pub fn managed_replay(&self, ann: &TraceAnnotations) -> SimResult {
        let (params, opts) = (SimParams::paper(), ReplayOptions::default());
        let engine = self.engine;
        let slots = || {
            engine
                .timings
                .lock()
                .expect("a cell panicked holding the timings")
        };
        let kept = slots().get(&self.key).cloned();
        if let Some(timing) = kept.filter(|t| t.key() == TimingKey::of(Some(ann))) {
            engine.timing_hits.fetch_add(1, Ordering::Relaxed);
            let result = timing.score(Some(ann), &params);
            debug_assert_eq!(
                result,
                replay(&self.trace, Some(ann), &params, &opts).expect("managed replay"),
                "a timing hit must score what a replay computes"
            );
            return result;
        }
        let timing = replay_timing(&self.trace, Some(ann), &params, &opts)
            .expect("managed replay of a generated trace");
        engine.timings_computed.fetch_add(1, Ordering::Relaxed);
        let result = timing.score(Some(ann), &params);
        slots().insert(self.key, Arc::new(timing));
        result
    }

    /// Annotate this cell's trace at `cfg` and score its managed replay
    /// ([`CellCtx::managed_replay`]) against the memoized baseline: what
    /// [`crate::run_with_baseline`] computes, with the engine's timing
    /// reuse.
    pub fn run(&self, cfg: &RunConfig) -> RunResult {
        run_managed(
            &self.trace,
            self.key.app,
            cfg,
            &self.baseline(),
            self.rank_jobs,
            |ann| self.managed_replay(ann),
        )
    }

    /// Annotate this cell's trace, spreading ranks over the cell's
    /// [`rank_jobs`](CellCtx::rank_jobs) budget. Output is identical to
    /// `annotate_trace` for any budget.
    pub fn annotate(&self, cfg: &ibp_core::PowerConfig) -> ibp_core::TraceAnnotations {
        ibp_core::annotate_trace_jobs(&self.trace, cfg, self.rank_jobs)
    }

    /// The memoized GT selection for this cell at `displacement`.
    pub fn choose_gt(&self, displacement: f64) -> Arc<GtPoint> {
        self.engine.choose_gt(&self.key, displacement)
    }

    /// A seed derived from the cell key and `salt` — the only sanctioned
    /// source of per-cell randomness. Identical between serial and
    /// parallel execution by construction (no global state involved).
    pub fn derived_seed(&self, salt: u64) -> u64 {
        splitmix64(self.key.digest() ^ salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_runtime_only, RunConfig};

    /// A cheap trace source for engine tests.
    fn tiny_trace_fn() -> TraceFn {
        Arc::new(|key: &CellKey| {
            let alya = ibp_workloads::Alya {
                iterations: 20,
                ..Default::default()
            };
            ibp_workloads::Workload::generate(&alya, key.nprocs, key.seed)
        })
    }

    fn engine(jobs: usize) -> SweepEngine {
        SweepEngine::with_trace_fn(SweepOptions::with_jobs(jobs), tiny_trace_fn())
    }

    #[test]
    fn same_key_returns_same_arc() {
        let e = engine(2);
        let k = CellKey::new(AppKind::Alya, 4, 7);
        let a = e.trace(&k);
        let b = e.trace(&k);
        assert!(Arc::ptr_eq(&a, &b));
        let s = e.stats();
        assert_eq!(s.traces_generated, 1);
        assert_eq!(s.trace_hits, 1);
    }

    #[test]
    fn distinct_seeds_get_distinct_traces() {
        let e = engine(1);
        let a = e.trace(&CellKey::new(AppKind::Alya, 4, 1));
        let b = e.trace(&CellKey::new(AppKind::Alya, 4, 2));
        assert!(!Arc::ptr_eq(&a, &b));
        // Different seeds really do change the workload.
        assert_ne!(
            serde_json::to_string(&*a).unwrap(),
            serde_json::to_string(&*b).unwrap()
        );
        assert_eq!(e.stats().traces_generated, 2);
    }

    #[test]
    fn three_gts_one_app_is_one_generation() {
        // A sweep over 3 GT values × 1 app: exactly 1 trace generation,
        // 2 hits, visible through the SweepStats counters.
        let e = engine(2);
        let key = CellKey::new(AppKind::Alya, 4, 3);
        let cells: Vec<f64> = vec![20.0, 46.0, 100.0];
        let results = e.run_cells(
            &cells,
            |_| key,
            |ctx, &gt, _| {
                let cfg = RunConfig::new(gt, 0.01);
                run_runtime_only(&ctx.trace, ctx.key.app, &cfg, 1).hit_rate_pct
            },
        );
        assert_eq!(results.len(), 3);
        let s = e.stats();
        assert_eq!(s.cells, 3);
        assert_eq!(s.traces_generated, 1, "{s:?}");
        assert_eq!(s.trace_hits, 2, "{s:?}");
    }

    #[test]
    fn baseline_computed_once_per_key() {
        let e = engine(2);
        let key = CellKey::new(AppKind::Alya, 4, 3);
        let cells = [0u8; 4];
        e.run_cells(&cells, |_| key, |ctx, _, _| ctx.baseline().exec_time);
        let s = e.stats();
        assert_eq!(s.baselines_computed, 1);
        assert_eq!(s.baseline_hits, 3);
    }

    #[test]
    fn results_ordered_by_index_not_completion() {
        let e = engine(4);
        let items: Vec<u64> = (0..64).collect();
        let out = e.run_cells(
            &items,
            |&i| CellKey::new(AppKind::Alya, 4, i % 2),
            |_, &i, idx| {
                assert_eq!(i as usize, idx);
                i * 10
            },
        );
        assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn derived_seed_depends_only_on_key_and_salt() {
        let e1 = engine(1);
        let e4 = engine(4);
        let k = CellKey::new(AppKind::Wrf, 32, 0xD1C0);
        let a = e1.ctx_jobs(k, 1).derived_seed(42);
        let b = e4.ctx_jobs(k, 4).derived_seed(42);
        assert_eq!(a, b);
        assert_ne!(a, e1.ctx_jobs(k, 1).derived_seed(43));
        let k2 = CellKey::new(AppKind::Wrf, 64, 0xD1C0);
        assert_ne!(a, e1.ctx_jobs(k2, 1).derived_seed(42));
    }

    #[test]
    fn leftover_budget_goes_to_rank_jobs() {
        // 8 workers over 2 cells → 4 threads of rank parallelism each;
        // the serial escape hatch pins everything to 1.
        let e = engine(8);
        let key = CellKey::new(AppKind::Alya, 4, 1);
        let items = [0u8; 2];
        let budgets = e.run_cells(&items, |_| key, |ctx, _, _| ctx.rank_jobs);
        assert_eq!(budgets, vec![4, 4]);
        let serial = SweepEngine::with_trace_fn(SweepOptions::serial(), tiny_trace_fn());
        let budgets = serial.run_cells(&items, |_| key, |ctx, _, _| ctx.rank_jobs);
        assert_eq!(budgets, vec![1, 1]);
    }

    #[test]
    fn ctx_annotate_matches_serial_annotation() {
        let e = engine(8);
        let key = CellKey::new(AppKind::Alya, 6, 5);
        let cfg = ibp_core::PowerConfig::default();
        let out = e.run_cells(
            &[0u8],
            |_| key,
            |ctx, _, _| (ctx.rank_jobs, ctx.annotate(&cfg)),
        );
        let (rank_jobs, parallel) = &out[0];
        assert_eq!(*rank_jobs, 8, "single cell receives the whole budget");
        let serial = ibp_core::annotate_trace(&e.trace(&key), &cfg);
        assert_eq!(*parallel, serial);
    }

    #[test]
    fn stats_since_subtracts() {
        let e = engine(1);
        e.trace(&CellKey::new(AppKind::Alya, 4, 1));
        let snap = e.stats();
        e.trace(&CellKey::new(AppKind::Alya, 4, 2));
        e.trace(&CellKey::new(AppKind::Alya, 4, 2));
        let d = e.stats().since(&snap);
        assert_eq!(d.traces_generated, 1);
        assert_eq!(d.trace_hits, 1);
    }

    #[test]
    fn trace_bytes_count_each_generated_trace_once() {
        let keys = [
            CellKey::new(AppKind::Alya, 4, 1),
            CellKey::new(AppKind::Alya, 8, 2),
        ];
        let e = engine(1);
        let mut held = 0;
        for key in &keys {
            held += e.trace(key).heap_bytes() as u64;
            e.trace(key);
        }
        let s = e.stats();
        assert_eq!(s.trace_bytes, held);
        // Deterministic: the same traces cost the same bytes on any pool.
        let par = engine(2);
        par.run_cells(&keys, |&k| k, |_, _, _| ());
        assert_eq!(par.stats().trace_bytes, held);
        // The process peak is read live, where /proc reports it.
        if cfg!(target_os = "linux") {
            assert!(s.peak_rss_mb > 0.0, "{s:?}");
        }
    }
}
