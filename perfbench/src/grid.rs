//! The `paper_grid` workload: the Figs. 7–9 pipeline as `ibpower
//! exhibits` runs it at `--jobs 1`.
//!
//! The untraced pass calls [`exhibits::figure`] once per displacement
//! (10%, 5%, 1%) on a serial [`SweepEngine`]: per cell the memoized
//! trace, baseline replay and 1%-displacement GT choice, then
//! annotation, a managed replay and scoring. Replay dominates host
//! time. The traced pass makes the same calls one layer at a time
//! (trace, baseline, GT choice, `annotate_trace_jobs`, `replay`) so
//! each gets its own span.

use crate::spans::Tracer;
use crate::{
    layer_self_times, pct, peak_rss_mb, per, put, trace_overhead_pct, Options, Outcome, Scale,
    SetupClock, DEFAULT_SEED,
};
use ibp_analysis::exhibits::{self, FigureData, Table3Row, SELECT_DISPLACEMENT};
use ibp_analysis::{
    gt_select, make_trace, paper_ref, CellKey, ExhibitGrid, RunConfig, SweepEngine, SweepOptions,
};
use ibp_core::annotate_trace_jobs;
use ibp_network::{replay, ReplayOptions, SimParams};
use ibp_trace::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Displacements in figure order (Figs. 7, 8, 9).
pub const DISPLACEMENTS: [f64; 3] = [0.10, 0.05, 0.01];

/// Annotation runs on one thread: the workload is single-threaded so
/// that host time is not at the mercy of a second vCPU's neighbours.
const JOBS: usize = 1;

/// The outcome of one `(cell, displacement)` figure point.
#[derive(Debug, Clone, PartialEq)]
struct Point {
    key: CellKey,
    disp: f64,
    gt_us: f64,
    /// Table III hit rate at the selected GT.
    hit_pct: f64,
    saving_pct: f64,
    slowdown_pct: f64,
    /// A failed figure run.
    error: Option<String>,
}

fn grid(opts: &Options) -> ExhibitGrid {
    match opts.scale {
        Scale::Full => ExhibitGrid::paper(),
        Scale::Small => ExhibitGrid::capped(16),
    }
}

/// A serial engine holding every cell's trace: the workload's set-up.
fn generate(keys: &[CellKey], tr: &Tracer) -> SweepEngine {
    let engine = SweepEngine::new(SweepOptions::serial());
    tr.span("bench.setup", || {
        for key in keys {
            tr.span("workloads.generate", || engine.trace(key));
        }
    });
    engine
}

/// Trace events of the workload's fixed work: per cell one baseline
/// replay and one 20-point GT sweep, and per displacement one
/// annotation and one managed replay.
fn fixed_events(calls: u64) -> u64 {
    calls * (1 + gt_select::GT_GRID_US.len() as u64 + 2 * DISPLACEMENTS.len() as u64)
}

/// Highest switch saving the power model allows, %: every link asleep
/// in its lowest-draw state for the whole run.
fn model_max_saving_pct() -> f64 {
    let p = SimParams::paper();
    let floor = p.low_power_fraction.min(p.rate_power_fraction);
    100.0 * (1.0 - floor.min(p.deep_power_fraction))
}

/// The committed exhibit outputs, the reference at [`DEFAULT_SEED`].
struct Refs {
    figs: Vec<FigureData>,
    table3: Vec<Table3Row>,
}

fn read_json<T: serde::Deserialize>(opts: &Options, file: &str) -> Result<T, String> {
    let path = opts.results_dir.join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_refs(opts: &Options) -> Result<Option<Refs>, String> {
    if opts.seed != DEFAULT_SEED {
        return Ok(None);
    }
    let figs = ["fig7.json", "fig8.json", "fig9.json"]
        .iter()
        .map(|f| read_json::<FigureData>(opts, f))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Some(Refs {
        figs,
        table3: read_json(opts, "table3.json")?,
    }))
}

/// `(gt, savings, slowdown)` a figure reports for a cell.
fn figure_point(fig: &FigureData, key: &CellKey) -> Option<(f64, f64, f64)> {
    let row = fig.rows.iter().find(|r| r.app == key.app.name())?;
    let i = row.procs.iter().position(|&n| n == key.nprocs)?;
    Some((row.gt_us[i], row.savings_pct[i], row.slowdown_pct[i]))
}

impl Refs {
    /// `(gt, savings, slowdown)` the committed figure reports for a point.
    fn figure(&self, key: &CellKey, disp: f64) -> Option<(f64, f64, f64)> {
        let fig = self.figs.iter().find(|f| f.displacement == disp)?;
        figure_point(fig, key)
    }

    /// Hit rate Table III reports for a cell.
    fn hit_rate(&self, key: &CellKey) -> Option<f64> {
        self.table3
            .iter()
            .find(|r| r.app == key.app.name() && r.nprocs == key.nprocs)
            .map(|r| r.hit_rate_pct)
    }
}

/// Reference-free checks every seed gets, plus the reference checks at
/// the default seed. Each point is one checked operation.
fn check_points(points: &[Point], refs: Option<&Refs>, out: &mut Outcome) {
    let max = model_max_saving_pct();
    for p in points {
        let at = format!("{}@{} disp {}", p.key.app.name(), p.key.nprocs, p.disp);
        let got = (p.gt_us, p.saving_pct, p.slowdown_pct);
        let want = refs.map(|r| (r.figure(&p.key, p.disp), r.hit_rate(&p.key)));
        let problem = if let Some(e) = &p.error {
            Some(e.clone())
        } else if !(0.0..=max).contains(&p.saving_pct) {
            Some(format!("saving {} outside [0, {max}]", p.saving_pct))
        } else if !(0.0..=100.0).contains(&p.hit_pct) || !p.slowdown_pct.is_finite() {
            Some(format!(
                "hit {} / slowdown {} out of range",
                p.hit_pct, p.slowdown_pct
            ))
        } else if let Some((fig, hit)) = want.filter(|w| w.0 != Some(got) || w.1 != Some(p.hit_pct))
        {
            Some(format!(
                "(gt, saving, slowdown, hit) {got:?}, {} != results {fig:?}, table3 {hit:?}",
                p.hit_pct
            ))
        } else {
            None
        };
        out.check(problem.map(|e| format!("{at}: {e}")));
    }
}

/// |simulated − paper| savings at a point, percentage points.
fn paper_gap(p: &Point) -> f64 {
    let idx = paper_ref::paper_procs(p.key.app)
        .iter()
        .position(|&n| n == p.key.nprocs)
        .expect("grid cells are paper cells");
    (p.saving_pct - paper_ref::savings(p.key.app, p.disp)[idx]).abs()
}

/// The untraced pass: set-up, then one [`exhibits::figure`] per
/// displacement; the figure runs are the timed phase.
struct FigurePass {
    setup_s: f64,
    timed_s: f64,
    events: u64,
    points: Vec<Point>,
}

impl FigurePass {
    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.timed_s
    }
}

fn figure_pass(opts: &Options) -> FigurePass {
    let grid = grid(opts);
    let keys = grid.cells(opts.seed);
    let no_spans = Tracer::new(false);
    let mut setup = SetupClock::new(crate::SETUP_REPS);
    let engine = setup.time(|| generate(&keys, &no_spans));
    let calls: u64 = keys
        .iter()
        .map(|k| engine.trace(k).total_calls() as u64)
        .sum();

    let mut timed_s = 0.0;
    let mut figs: Vec<Result<FigureData, String>> = Vec::new();
    for (i, disp) in DISPLACEMENTS.into_iter().enumerate() {
        let t0 = Instant::now();
        let fig = catch_unwind(AssertUnwindSafe(|| {
            exhibits::figure(&engine, &grid, disp, opts.seed)
        }));
        timed_s += t0.elapsed().as_secs_f64();
        figs.push(fig.map_err(|e| {
            let msg = e
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| e.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            format!("figure run panicked: {msg}")
        }));
        setup.between(i, DISPLACEMENTS.len(), || {
            for k in &keys {
                drop(make_trace(k.app, k.nprocs, k.seed));
            }
        });
    }

    let mut points = Vec::new();
    for (disp, fig) in DISPLACEMENTS.into_iter().zip(&figs) {
        for key in &keys {
            let mut point = Point {
                key: *key,
                disp,
                gt_us: 0.0,
                hit_pct: 0.0,
                saving_pct: 0.0,
                slowdown_pct: 0.0,
                error: None,
            };
            match fig.as_ref().map(|f| figure_point(f, key)) {
                Ok(Some((gt, saving, slowdown))) => {
                    point.gt_us = gt;
                    point.saving_pct = saving;
                    point.slowdown_pct = slowdown;
                    // Memoized by the figure run: a cache hit.
                    point.hit_pct = engine.choose_gt(key, SELECT_DISPLACEMENT).hit_rate_pct;
                }
                Ok(None) => point.error = Some("cell missing from the figure".into()),
                Err(e) => point.error = Some(e.clone()),
            }
            points.push(point);
        }
    }
    FigurePass {
        setup_s: setup.trimmed_mean_s(),
        timed_s,
        events: fixed_events(calls),
        points,
    }
}

/// The traced pass: the figure pipeline's calls made one layer at a
/// time, each in its own span.
struct LayerPass {
    timed_s: f64,
    events: u64,
    /// MPI calls per cell trace.
    cell_calls: Vec<(CellKey, u64)>,
    calls: u64,
    annotate_passes: u64,
    directives: u64,
    replays: u64,
    events_replayed: u64,
    gt_points: u64,
    trace_hit_pct: f64,
    baseline_hit_pct: f64,
    /// The timed phase's root span.
    root: usize,
}

impl LayerPass {
    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.timed_s
    }
}

fn layer_pass(opts: &Options, tr: &Tracer, out: &mut Outcome) -> LayerPass {
    let keys = grid(opts).cells(opts.seed);
    let engine = generate(&keys, tr);
    let cell_calls: Vec<(CellKey, u64)> = keys
        .iter()
        .map(|k| (*k, engine.trace(k).total_calls() as u64))
        .collect();
    let calls: u64 = cell_calls.iter().map(|(_, n)| n).sum();
    let before = engine.stats();
    let params = SimParams::paper();
    let ropts = ReplayOptions::default();

    let (mut directives, mut managed) = (0u64, 0u64);
    let t0 = Instant::now();
    let (_, root) = tr.span_id("bench.timed", || {
        for disp in DISPLACEMENTS {
            for key in &keys {
                let trace: Arc<Trace> = tr.span("analysis.trace", || engine.trace(key));
                let computed = engine.stats().baselines_computed;
                let (baseline, id) = tr.span_id("analysis.baseline", || engine.baseline(key));
                if engine.stats().baselines_computed > computed {
                    tr.rename(id, "network.replay_baseline");
                }
                let selected = engine.stats().gt_selections;
                let (gt, id) = tr.span_id("analysis.choose_gt", || {
                    engine.choose_gt(key, SELECT_DISPLACEMENT)
                });
                if engine.stats().gt_selections == selected {
                    tr.rename(id, "analysis.choose_gt_hit");
                }
                let pc = RunConfig::new(gt.gt_us, disp).power_config();
                let ann = tr.span("core.annotate", || annotate_trace_jobs(&trace, &pc, JOBS));
                let run = tr.span(replay_span(key), || {
                    replay(&trace, Some(&ann), &params, &ropts)
                });
                directives += ann.total_directives() as u64;
                managed += 1;
                let scored = run.map(|r| {
                    tr.span("analysis.score", || {
                        (r.power_saving_pct(), r.slowdown_pct(&baseline))
                    })
                });
                out.check(scored.err().map(|e| {
                    format!(
                        "{}@{} disp {disp}: managed replay: {e}",
                        key.app.name(),
                        key.nprocs
                    )
                }));
            }
        }
    });
    let timed_s = t0.elapsed().as_secs_f64();
    let st = engine.stats().since(&before);
    let gt_points = st.gt_selections * gt_select::GT_GRID_US.len() as u64;
    LayerPass {
        timed_s,
        events: fixed_events(calls),
        cell_calls,
        calls,
        annotate_passes: managed + gt_points,
        directives,
        replays: st.baselines_computed + managed,
        events_replayed: calls * (1 + DISPLACEMENTS.len() as u64),
        gt_points,
        trace_hit_pct: pct(
            st.trace_hits as f64,
            (st.trace_hits + st.traces_generated) as f64,
        ),
        baseline_hit_pct: pct(
            st.baseline_hits as f64,
            (st.baseline_hits + st.baselines_computed) as f64,
        ),
        root: root.expect("traced pass records spans"),
    }
}

/// Managed replays are split by fabric size so rank-count scaling shows.
fn replay_span(key: &CellKey) -> &'static str {
    match key.nprocs {
        0..=16 => "network.replay_managed_small",
        17..=63 => "network.replay_managed",
        _ => "network.replay_managed_large",
    }
}

/// `SweepEngine::choose_gt` runs `gt_select::sweep` as one library call.
/// To split its time, annotate the same 20 GT points of each trace
/// directly, outside the timed phase; what the sweeps spend beyond that
/// is their overhead (per-point `IdleDistribution` rebuilds, result
/// assembly).
fn gt_probe(opts: &Options, tr: &Tracer, out: &mut Outcome) {
    let keys = grid(opts).cells(opts.seed);
    let engine = SweepEngine::new(SweepOptions::serial());
    let traces: Vec<Arc<Trace>> = keys.iter().map(|k| engine.trace(k)).collect();
    tr.span("bench.probe", || {
        for trace in &traces {
            for &gt in gt_select::GT_GRID_US {
                let pc = RunConfig::new(gt, SELECT_DISPLACEMENT).power_config();
                tr.span("core.annotate_gt", || annotate_trace_jobs(trace, &pc, JOBS));
            }
        }
    });
    let sweep_ns = tr.total("analysis.choose_gt").0 as f64;
    let probe_ns = tr.total("core.annotate_gt").0 as f64;
    put(
        &mut out.per_layer,
        "analysis.gt_overhead_pct",
        pct(sweep_ns - probe_ns, sweep_ns),
        "%",
    );
}

/// Per-layer metrics of the traced pass; run after [`gt_probe`].
fn per_layer(pass: &LayerPass, tr: &Tracer, out: &mut Outcome) {
    let m = &mut out.per_layer;
    let (gen_ns, _) = tr.total("workloads.generate");
    put(
        m,
        "workloads.gen_ns_per_call",
        per(gen_ns, pass.calls),
        "ns",
    );
    put(m, "workloads.calls", pass.calls as f64, "count");
    put(
        m,
        "core.annotate_passes",
        pass.annotate_passes as f64,
        "count",
    );
    put(m, "core.directives", pass.directives as f64, "count");
    put(m, "analysis.gt_points", pass.gt_points as f64, "count");
    put(m, "analysis.trace_hit_pct", pass.trace_hit_pct, "%");
    put(m, "analysis.baseline_hit_pct", pass.baseline_hit_pct, "%");
    put(m, "network.replays", pass.replays as f64, "count");
    put(
        m,
        "network.events_replayed",
        pass.events_replayed as f64,
        "count",
    );
    // GT selection is annotation at 20 grid points; its calls count as
    // annotation-bound time.
    let (ann_ns, _) = tr.total("core.annotate");
    let (gt_ns, _) = tr.total("analysis.choose_gt");
    let timed_ns = pass.timed_s * 1e9;
    put(
        m,
        "core.annotate_share_pct",
        pct((ann_ns + gt_ns) as f64, timed_ns),
        "%",
    );
    put(
        m,
        "analysis.gt_point_ns_per_call",
        per(gt_ns, pass.gt_points),
        "ns",
    );
    // Direct annotations (one per displacement) plus the probe's 20.
    let annotated = pass.calls * (DISPLACEMENTS.len() + gt_select::GT_GRID_US.len()) as u64;
    let probe_ns = tr.total("core.annotate_gt").0;
    put(
        m,
        "core.annotate_ns_per_call",
        per(ann_ns + probe_ns, annotated),
        "ns",
    );

    // Replay cost per event, split by what was replayed.
    let calls_where = |pred: fn(u32) -> bool| -> u64 {
        pass.cell_calls
            .iter()
            .filter(|(k, _)| pred(k.nprocs))
            .map(|(_, n)| n)
            .sum()
    };
    let nd = DISPLACEMENTS.len() as u64;
    let (base_ns, _) = tr.total("network.replay_baseline");
    let small_ns = tr.total("network.replay_managed_small").0;
    let large_ns = tr.total("network.replay_managed_large").0;
    let man_ns = small_ns + tr.total("network.replay_managed").0 + large_ns;
    put(
        m,
        "network.replay_ns_per_event",
        per(base_ns + man_ns, pass.events_replayed),
        "ns",
    );
    put(
        m,
        "network.replay_baseline_ns_per_event",
        per(base_ns, pass.calls),
        "ns",
    );
    put(
        m,
        "network.replay_managed_ns_per_event",
        per(man_ns, pass.calls * nd),
        "ns",
    );
    put(
        m,
        "network.replay_small_ns_per_event",
        per(small_ns, calls_where(|n| n <= 16) * nd),
        "ns",
    );
    put(
        m,
        "network.replay_large_ns_per_event",
        per(large_ns, calls_where(|n| n >= 64) * nd),
        "ns",
    );
    put(
        m,
        "network.replay_share_pct",
        pct((base_ns + man_ns) as f64, timed_ns),
        "%",
    );
    put(
        m,
        "bench.span_coverage_pct",
        tr.coverage_pct(pass.root),
        "%",
    );
    layer_self_times(tr, pass.root, out);
}

/// Run the `paper_grid` workload.
pub fn paper_grid(opts: &Options) -> Result<Outcome, String> {
    let refs = load_refs(opts)?;
    let mut out = Outcome::default();
    let pass = figure_pass(opts);
    check_points(&pass.points, refs.as_ref(), &mut out);
    let n = pass.points.len() as f64;
    let mean = |f: fn(&Point) -> f64| pass.points.iter().map(f).sum::<f64>() / n;
    let m = &mut out.end_to_end;
    put(m, "setup_s", pass.setup_s, "s");
    put(m, "events_per_s", pass.events_per_s(), "1/s");
    put(m, "peak_rss_mb", peak_rss_mb(), "MiB");
    put(m, "power_saving_pct", mean(|p| p.saving_pct), "%");
    put(m, "slowdown_pct", mean(|p| p.slowdown_pct), "%");
    put(m, "paper_gap_pp", mean(paper_gap), "pp");
    put(m, "hit_rate_pct", mean(|p| p.hit_pct), "%");

    if opts.traced {
        let tr = Tracer::new(true);
        let traced = layer_pass(opts, &tr, &mut out);
        put(
            &mut out.per_layer,
            "bench.trace_overhead_pct",
            trace_overhead_pct(pass.events_per_s(), traced.events_per_s()),
            "%",
        );
        gt_probe(opts, &tr, &mut out);
        per_layer(&traced, &tr, &mut out);
        out.spans_json = Some(tr.to_json());
    }
    Ok(out)
}
