//! `perfbench`: the repository benchmark.
//!
//! Fixed-work workloads, each dominated by a different layer:
//!
//! * [`grid::paper_grid`] — the Figs. 7–9 pipeline over the paper's 25
//!   `(app, nprocs)` cells; most host time is `ibp-network` replay;
//! * [`serve::serve_paged`] — in-process `ibp-serve` servers with LRU
//!   engine paging over a snapshot store, driven by one closed-loop
//!   client; no replay.
//!
//! Every run is single-threaded offline work (`--jobs 1`) or one
//! closed-loop client against one reactor and one worker, and always
//! does the same amount of work for a given seed: there is no
//! duration-bound loop. See `README.md` for the metric definitions and
//! the per-layer → end-to-end prediction table.

pub mod grid;
pub mod serve;
pub mod spans;

use std::path::PathBuf;
use std::time::Instant;

/// The exhibits seed; at this seed the committed `results/` files are
/// the reference outputs.
pub const DEFAULT_SEED: u64 = 0xD1C0;

/// Set-up runs this many times per run (see [`SetupClock`]).
pub const SETUP_REPS: usize = 7;

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Input size. [`Scale::Full`] is what the benchmark runs; the smaller
/// scale exists for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper grid; 612 served sessions.
    Full,
    /// Cells up to 16 ranks; each application's smallest cell served.
    Small,
}

/// Where a run reads references and writes scratch files.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory holding the committed exhibit outputs (`results/`).
    pub results_dir: PathBuf,
    /// Scratch directory for the snapshot store, socket and span dump.
    pub work_dir: PathBuf,
}

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced timed phase).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Recorded spans as JSON (traced run only).
    pub spans_json: Option<String>,
    /// Free-form lines for stderr (store location, layer self times).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation; `problem` is `Some` if it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(p);
        }
    }

    /// Look up a metric by name in either set.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Push a metric.
pub fn put(out: &mut Vec<Metric>, name: &'static str, value: f64, unit: &'static str) {
    out.push(Metric { name, value, unit });
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Set-up timings of one run. A workload's set-up is generating its
/// traces. It runs `reps` times: once for real before the timed phase,
/// and the other times between the timed phase's parts, each trace
/// dropped as soon as it is made so the repeats add no memory.
///
/// Host speed switches between a fast and a slow mode (about 1.5×
/// apart) within seconds, so spreading the repeats over the run samples
/// the same stretch of host speed as the throughput does. The reported
/// figure is a trimmed mean, not a median: the median of the repeats
/// lands on whichever mode held most of the run and flips between the
/// two from run to run, while the mean moves with the share of each.
pub struct SetupClock {
    reps: usize,
    secs: Vec<f64>,
}

impl SetupClock {
    /// A clock for `reps` set-ups per run (at least 1).
    pub fn new(reps: usize) -> Self {
        SetupClock {
            reps: reps.max(1),
            secs: Vec::with_capacity(reps),
        }
    }

    /// Run and time one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = setup();
        self.secs.push(t0.elapsed().as_secs_f64());
        out
    }

    /// After part `part` (from 0) of a timed phase of `parts` parts,
    /// repeat the set-up this part's share of the `reps - 1` repeats.
    pub fn between<T>(&mut self, part: usize, parts: usize, mut setup: impl FnMut() -> T) {
        let extra = self.reps - 1;
        let n = (part + 1) * extra / parts - part * extra / parts;
        for _ in 0..n {
            drop(self.time(&mut setup));
        }
    }

    /// Mean set-up time without the fastest and the slowest repeat
    /// (the plain mean below 3 repeats), seconds.
    pub fn trimmed_mean_s(&self) -> f64 {
        let mut v = self.secs.clone();
        v.sort_by(f64::total_cmp);
        let kept = if v.len() >= 3 {
            &v[1..v.len() - 1]
        } else {
            &v[..]
        };
        kept.iter().sum::<f64>() / kept.len().max(1) as f64
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `part / whole` as a percentage (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// `ns / n` (0 when `n` is 0).
pub fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// Tracing overhead: how much slower (in %) the traced pass ran than
/// the untraced pass of the same work, by events per second.
pub fn trace_overhead_pct(untraced_eps: f64, traced_eps: f64) -> f64 {
    pct(untraced_eps - traced_eps, untraced_eps)
}

/// Per-layer self times within the timed phase (`root`), as metrics
/// and a stderr note.
pub fn layer_self_times(tr: &spans::Tracer, root: usize, out: &mut Outcome) {
    let by = tr.self_ns_by_layer(root);
    for (layer, name) in [
        ("workloads", "workloads.self_s"),
        ("core", "core.self_s"),
        ("network", "network.self_s"),
        ("analysis", "analysis.self_s"),
        ("serve", "serve.self_s"),
    ] {
        put(
            &mut out.per_layer,
            name,
            by.get(layer).copied().unwrap_or(0) as f64 / 1e9,
            "s",
        );
    }
    let line: Vec<String> = by
        .iter()
        .map(|(l, ns)| format!("{l} {:.3} s", *ns as f64 / 1e9))
        .collect();
    out.notes
        .push(format!("self time by layer: {}", line.join(", ")));
}

/// Every per-layer metric name, in `BENCHMARK.json` order. A workload
/// that does not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ns_per_call", "ns"),
    ("workloads.calls", "count"),
    ("workloads.self_s", "s"),
    ("core.annotate_ns_per_call", "ns"),
    ("core.annotate_share_pct", "%"),
    ("core.annotate_passes", "count"),
    ("core.directives", "count"),
    ("core.self_s", "s"),
    ("analysis.gt_point_ns_per_call", "ns"),
    ("analysis.gt_overhead_pct", "%"),
    ("analysis.trace_hit_pct", "%"),
    ("analysis.baseline_hit_pct", "%"),
    ("analysis.gt_points", "count"),
    ("analysis.self_s", "s"),
    ("network.replay_ns_per_event", "ns"),
    ("network.replay_baseline_ns_per_event", "ns"),
    ("network.replay_managed_ns_per_event", "ns"),
    ("network.replay_small_ns_per_event", "ns"),
    ("network.replay_large_ns_per_event", "ns"),
    ("network.replay_share_pct", "%"),
    ("network.replays", "count"),
    ("network.events_replayed", "count"),
    ("network.self_s", "s"),
    ("serve.session_apply_ns_per_event", "ns"),
    ("serve.codec_ns_per_event", "ns"),
    ("serve.batch_p50_us", "us"),
    ("serve.batch_p99_us", "us"),
    ("serve.transport_us_per_batch", "us"),
    ("serve.persist_us", "us"),
    ("serve.persist_bytes", "bytes"),
    ("serve.rehydrate_us", "us"),
    ("serve.open_us_p50", "us"),
    ("serve.close_us_p50", "us"),
    ("serve.rehydrations_per_eviction", "ratio"),
    ("serve.persists_per_kevent", "count"),
    ("serve.batches", "count"),
    ("serve.snapshots_persisted", "count"),
    ("serve.evictions", "count"),
    ("serve.rehydrations", "count"),
    ("serve.responses_shed", "count"),
    ("serve.protocol_errors", "count"),
    ("serve.worker_panics", "count"),
    ("serve.self_s", "s"),
    ("bench.span_coverage_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Every end-to-end metric name, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("power_saving_pct", "%"),
    ("slowdown_pct", "%"),
    ("paper_gap_pp", "pp"),
    ("hit_rate_pct", "%"),
];

/// Order both metric sets as [`END_TO_END`] / [`PER_LAYER`] list them,
/// filling in 0 for each per-layer metric of a layer the workload does
/// not exercise. Every workload must report every end-to-end metric.
pub fn complete(out: &mut Outcome) -> Result<(), String> {
    for &(name, _) in END_TO_END {
        if !out.end_to_end.iter().any(|m| m.name == name) {
            return Err(format!("workload did not report end-to-end metric {name}"));
        }
    }
    let order = |set: &[(&'static str, &'static str)], got: &[Metric]| -> Vec<Metric> {
        set.iter()
            .map(|&(name, unit)| {
                let value = got.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
                Metric { name, value, unit }
            })
            .collect()
    };
    out.end_to_end = order(END_TO_END, &out.end_to_end);
    if !out.per_layer.is_empty() {
        out.per_layer = order(PER_LAYER, &out.per_layer);
    }
    Ok(())
}
