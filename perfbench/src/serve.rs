//! The `serve_paged` workload: one closed-loop client streaming
//! full-rank sessions into an in-process `ibp-serve` server whose hot
//! engine cap is well below its session count, so sessions page to and
//! from the snapshot store.
//!
//! The fleet is every rank of each application's largest paper cell,
//! one session per rank, interleaved across applications. It is split into
//! four equal blocks, each served by a fresh server (1 reactor,
//! 1 worker, its own store) to one `run_load` client with one driver
//! connection (its 32-session active window), batches of 64 events and
//! parity checking on. A closed loop is the right model: the PMPI shim
//! waits for each reply before its next call. Throughput and latency
//! are medians over the blocks, so one slow burst of the shared disk
//! under the store moves one block, not the result.
//!
//! The traced run adds an in-process pass over the same blocks at the
//! server's cadence — `Session::open`/`apply`/`close`, the `Events`
//! frame codec, and `SnapshotStore` persists, loads and rehydrations —
//! which is where the `serve.*` per-layer timings come from.

use crate::spans::Tracer;
use crate::{
    layer_self_times, median, peak_rss_mb, per, put, trace_overhead_pct, Options, Outcome, Scale,
    SetupClock,
};
use ibp_analysis::{make_trace, paper_ref};
use ibp_core::{annotate_rank, LaneDirective, PowerConfig, RankStats};
use ibp_serve::protocol::decode_client;
use ibp_serve::store::{record_file_name, RECORD_VERSION};
use ibp_serve::{
    run_load, ClientFrame, Endpoint, LoadConfig, LoadReport, ServeConfig, ServeSummary, Server,
    Session, SessionSpec, SnapshotStore, StoreRecord,
};
use ibp_simcore::SimDuration;
use ibp_trace::Trace;
use ibp_workloads::AppKind;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 64;
/// Checkpoint cadence. The server default is 256, but the store has to
/// live inside the benchmark's checkout, on a shared disk: at 256 store
/// writes took about half the host time and their latency swung from
/// run to run. Evictions, rehydrations and durable closes still page
/// every session through the store.
const PERSIST_EVERY: u64 = 8192;
/// The load driver's active window (`ibp_serve::client::ACTIVE_WINDOW`).
const ACTIVE_WINDOW: usize = 32;
/// Hot engines per server: the driver's active window plus 2. Below the
/// window every batch would evict and rehydrate (the LRU's pathological
/// case, not a paging load); at this cap the other sessions of a block
/// page through the store.
const HOT_CAP: usize = ACTIVE_WINDOW + 2;
/// Sessions per block; each block gets its own server and store. The
/// full fleet (612 sessions) makes 4 blocks.
const BLOCK_SESSIONS: usize = 153;
/// Each session streams its rank's calls this many times back to back
/// (the same application running this many times as long). Longer
/// sessions rather than more of them: every close is a durable,
/// fsynced store write, and on a shared disk those set the run's pace.
const REPEATS: usize = 4;
const GT_US: u64 = 20;
const DISPLACEMENT: f64 = 0.01;

fn power_config() -> PowerConfig {
    PowerConfig::paper(SimDuration::from_us(GT_US), DISPLACEMENT)
}

/// The cells whose ranks are served: each application's largest paper
/// scale (its smallest at [`Scale::Small`]).
fn fleet(scale: Scale) -> Vec<(AppKind, u32)> {
    AppKind::ALL
        .iter()
        .map(|&app| {
            let procs = paper_ref::paper_procs(app);
            (
                app,
                if scale == Scale::Full {
                    procs[procs.len() - 1]
                } else {
                    procs[0]
                },
            )
        })
        .collect()
}

/// The offline annotation stats of one served session.
struct Golden {
    app: AppKind,
    nprocs: u32,
    rank: u32,
    stats: RankStats,
}

/// The workload's set-up, and all that `setup_s` times: generate the
/// fleet's traces.
fn generate(opts: &Options, tr: &Tracer) -> Vec<(AppKind, Trace)> {
    fleet(opts.scale)
        .into_iter()
        .map(|(app, nprocs)| {
            let trace = tr.span("workloads.generate", || make_trace(app, nprocs, opts.seed));
            (app, trace)
        })
        .collect()
}

/// One session per rank, each streaming its rank [`REPEATS`] times,
/// interleaved across applications rank by rank so every block serves
/// the same mix. Each carries its offline annotation as the parity
/// golden.
fn sessions(traces: &[(AppKind, Trace)], tr: &Tracer) -> (Vec<SessionSpec>, Vec<Golden>) {
    let cfg = power_config();
    let longest = traces.iter().map(|(_, t)| t.ranks.len()).max().unwrap_or(0);
    let mut specs = Vec::new();
    let mut goldens = Vec::new();
    for r in 0..longest {
        for (app, trace) in traces.iter().filter(|(_, t)| r < t.ranks.len()) {
            let rank = &trace.ranks[r];
            let mut long = rank.clone();
            for _ in 1..REPEATS {
                long.events.extend_from_slice(&rank.events);
            }
            let ann = tr.span("core.annotate_golden", || annotate_rank(&long, &cfg));
            specs.push(SessionSpec {
                rank: rank.rank,
                config: cfg.clone(),
                events: long
                    .call_stream()
                    .map(|(call, gap)| (call.id(), gap.as_ns()))
                    .collect(),
                final_compute_ns: long.final_compute.as_ns(),
                golden_directives: Some(ann.directives),
                golden_stats: Some(ann.stats.clone()),
            });
            goldens.push(Golden {
                app: *app,
                nprocs: trace.nprocs,
                rank: rank.rank,
                stats: ann.stats,
            });
        }
    }
    (specs, goldens)
}

/// A fresh server for one block in `dir`: 1 reactor, 1 worker, its own
/// snapshot store, bound but not yet running.
fn bind(dir: &Path) -> Result<Server, String> {
    fresh_dir(dir)?;
    let (store, _) =
        SnapshotStore::open(&dir.join("store")).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = Server::bind(
        &Endpoint::Unix(dir.join("s.sock")),
        ServeConfig {
            workers: 1,
            io_threads: 1,
            persist_every: PERSIST_EVERY,
            max_hot_sessions: Some(HOT_CAP),
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind in {}: {e}", dir.display()))?;
    Ok(server.with_store(Arc::new(store)))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// What one block's timed `run_load` produced.
struct Served {
    /// The block's sessions, as indices into [`Pass::specs`].
    range: Range<usize>,
    secs: f64,
    report: LoadReport,
    summary: ServeSummary,
}

/// One served pass over every block.
struct Pass {
    setup_s: f64,
    specs: Vec<SessionSpec>,
    goldens: Vec<Golden>,
    blocks: Vec<Served>,
    dirs: Vec<PathBuf>,
}

impl Pass {
    fn events_per_s(&self) -> f64 {
        median(
            &self
                .blocks
                .iter()
                .map(|b| b.report.events_total as f64 / b.secs)
                .collect::<Vec<_>>(),
        )
    }

    fn block_median(&self, f: fn(&LoadReport) -> f64) -> f64 {
        median(&self.blocks.iter().map(|b| f(&b.report)).collect::<Vec<_>>())
    }

    fn total(&self, f: fn(&Served) -> u64) -> u64 {
        self.blocks.iter().map(f).sum()
    }

    fn remove_dirs(&self) {
        for d in &self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

fn served_pass(opts: &Options, tr: &Tracer, setup_reps: usize) -> Result<Pass, String> {
    let mut setup = SetupClock::new(setup_reps);
    let traces = setup.time(|| generate(opts, tr));
    let (specs, goldens) = sessions(&traces, tr);
    drop(traces);
    let nblocks = specs.len().div_ceil(BLOCK_SESSIONS);
    let load = LoadConfig {
        batch: BATCH,
        check: true,
        drivers: 1,
        ..Default::default()
    };
    let mut blocks = Vec::new();
    let mut dirs = Vec::new();
    for (b, start) in (0..specs.len()).step_by(BLOCK_SESSIONS).enumerate() {
        let range = start..(start + BLOCK_SESSIONS).min(specs.len());
        let dir = opts
            .work_dir
            .join(format!("serve-{}-{b}", std::process::id()));
        dirs.push(dir.clone());
        let server = bind(&dir)?;
        let endpoint = server.endpoint().clone();
        let stop = server.stop_flag();
        let handle = std::thread::spawn(move || server.run());
        let block = specs[range.clone()].to_vec();
        let t0 = Instant::now();
        let report = tr.span("serve.load", || run_load(&endpoint, block, &load));
        let secs = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let summary = handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        let report = report.map_err(|e| format!("load against {endpoint}: {e}"))?;
        blocks.push(Served {
            range,
            secs,
            report,
            summary,
        });
        setup.between(b, nblocks, || {
            for (app, nprocs) in fleet(opts.scale) {
                drop(make_trace(app, nprocs, opts.seed));
            }
        });
    }
    Ok(Pass {
        setup_s: setup.trimmed_mean_s(),
        specs,
        goldens,
        blocks,
        dirs,
    })
}

fn check(pass: &Pass, out: &mut Outcome) {
    for b in &pass.blocks {
        let specs = &pass.specs[b.range.clone()];
        for (spec, o) in specs.iter().zip(&b.report.per_session) {
            let problem = if o.gave_up {
                Some("gave up".to_string())
            } else if o.parity_ok != Some(true) {
                Some(format!("parity {:?}", o.parity_ok))
            } else if o.events != spec.events.len() as u64 {
                Some(format!(
                    "{} of {} events streamed",
                    o.events,
                    spec.events.len()
                ))
            } else {
                None
            };
            out.check(problem.map(|p| format!("session {}: {p}", o.session)));
        }
        let (s, r) = (&b.summary, &b.report);
        let clean = r.per_session.len() == specs.len()
            && r.parity_ok
            && r.gave_up == 0
            && s.protocol_errors == 0
            && s.worker_panics == 0
            && s.responses_shed == 0
            && s.persist_failures == 0
            && s.sessions_closed == specs.len() as u64;
        out.check((!clean).then(|| {
            format!(
                "server summary {s:?}, parity {}, gave up {}",
                r.parity_ok, r.gave_up
            )
        }));
    }
    let lpf = power_config().low_power_fraction;
    let max = 100.0 * (1.0 - lpf);
    for g in &pass.goldens {
        let est = g.stats.est_power_saving_pct(lpf);
        out.check((!(0.0..=max).contains(&est)).then(|| {
            format!(
                "{}@{} rank {} saving {est} outside [0, {max}]",
                g.app.name(),
                g.nprocs,
                g.rank
            )
        }));
    }
}

/// The fleet's simulated outcome: `(saving, slowdown bound, gap to the
/// paper, hit rate)`. Every rank is served equally often, so per-rank
/// means are per-session means; parity proves the served stats equal
/// the offline ones.
fn simulated(goldens: &[Golden]) -> (f64, f64, f64, f64) {
    let lpf = power_config().low_power_fraction;
    let mean = |gs: &[&Golden], f: &dyn Fn(&Golden) -> f64| {
        gs.iter().map(|g| f(g)).sum::<f64>() / gs.len() as f64
    };
    let all: Vec<&Golden> = goldens.iter().collect();
    let saving = |g: &Golden| g.stats.est_power_saving_pct(lpf);
    // Gap per served cell against the paper's figure point, averaged.
    let cells: Vec<(AppKind, u32)> =
        goldens
            .iter()
            .map(|g| (g.app, g.nprocs))
            .fold(Vec::new(), |mut v, c| {
                if !v.contains(&c) {
                    v.push(c);
                }
                v
            });
    let gap = cells
        .iter()
        .map(|&(app, nprocs)| {
            let gs: Vec<&Golden> = goldens.iter().filter(|g| g.app == app).collect();
            let idx = paper_ref::paper_procs(app)
                .iter()
                .position(|&p| p == nprocs)
                .expect("paper scale");
            (mean(&gs, &saving) - paper_ref::savings(app, DISPLACEMENT)[idx]).abs()
        })
        .sum::<f64>()
        / cells.len() as f64;
    (
        mean(&all, &saving),
        mean(&all, &|g| g.stats.added_time_pct()),
        gap,
        mean(&all, &|g| g.stats.hit_rate_pct()),
    )
}

/// Run the `serve_paged` workload.
pub fn serve_paged(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pass = served_pass(opts, &Tracer::new(false), crate::SETUP_REPS)?;
    pass.remove_dirs();
    check(&pass, &mut out);
    out.notes
        .push(format!("snapshot store: {}", describe_dir(&opts.work_dir)));
    let per_block: Vec<String> = pass
        .blocks
        .iter()
        .map(|b| format!("{:.0}", b.report.events_total as f64 / b.secs))
        .collect();
    out.notes
        .push(format!("events/s per block: {}", per_block.join(", ")));
    let (saving, slowdown, gap, hit) = simulated(&pass.goldens);
    let m = &mut out.end_to_end;
    put(m, "setup_s", pass.setup_s, "s");
    put(m, "events_per_s", pass.events_per_s(), "1/s");
    put(m, "peak_rss_mb", peak_rss_mb(), "MiB");
    put(m, "power_saving_pct", saving, "%");
    put(m, "slowdown_pct", slowdown, "%");
    put(m, "paper_gap_pp", gap, "pp");
    put(m, "hit_rate_pct", hit, "%");

    if opts.traced {
        let tr = Tracer::new(true);
        let (traced, root) = tr.span_id("bench.timed", || served_pass(opts, &tr, 1));
        let (traced, root) = (traced?, root.expect("traced run records spans"));
        traced.remove_dirs();
        put(
            &mut out.per_layer,
            "bench.trace_overhead_pct",
            trace_overhead_pct(pass.events_per_s(), traced.events_per_s()),
            "%",
        );
        let m = &mut out.per_layer;
        let (gen_ns, _) = tr.total("workloads.generate");
        // Generated calls; each session streams its rank REPEATS times.
        let calls: u64 = traced
            .goldens
            .iter()
            .map(|g| g.stats.total_calls / REPEATS as u64)
            .sum();
        let events = traced.total(|b| b.report.events_total);
        let evictions = traced.total(|b| b.summary.evictions);
        let rehydrations = traced.total(|b| b.summary.sessions_rehydrated);
        let persisted = traced.total(|b| b.summary.snapshots_persisted);
        put(m, "workloads.gen_ns_per_call", per(gen_ns, calls), "ns");
        put(m, "workloads.calls", calls as f64, "count");
        // With one driver in a closed loop, the median batch latency is
        // close to the reciprocal of events_per_s; the tail is set by
        // store writes and rehydrations on a shared disk and does not
        // repeat within a tenth. Both are layer metrics.
        put(
            m,
            "serve.batch_p50_us",
            pass.block_median(|r| r.latency_p50_us),
            "us",
        );
        put(
            m,
            "serve.batch_p99_us",
            pass.block_median(|r| r.latency_p99_us),
            "us",
        );
        put(
            m,
            "serve.batches",
            traced.total(|b| b.report.batches) as f64,
            "count",
        );
        put(m, "serve.snapshots_persisted", persisted as f64, "count");
        put(m, "serve.evictions", evictions as f64, "count");
        put(m, "serve.rehydrations", rehydrations as f64, "count");
        put(
            m,
            "serve.responses_shed",
            traced.total(|b| b.summary.responses_shed) as f64,
            "count",
        );
        put(
            m,
            "serve.protocol_errors",
            traced.total(|b| b.summary.protocol_errors) as f64,
            "count",
        );
        put(
            m,
            "serve.worker_panics",
            traced.total(|b| b.summary.worker_panics) as f64,
            "count",
        );
        put(
            m,
            "serve.rehydrations_per_eviction",
            rehydrations as f64 / evictions.max(1) as f64,
            "ratio",
        );
        put(
            m,
            "serve.persists_per_kevent",
            1000.0 * persisted as f64 / events.max(1) as f64,
            "count",
        );
        // The served blocks are blocking calls; the in-process pass
        // below is what splits them into layers.
        put(m, "bench.span_coverage_pct", tr.coverage_pct(root), "%");
        in_process(opts, &tr, &traced, &mut out)?;
        out.spans_json = Some(tr.to_json());
    }
    Ok(out)
}

/// The in-process pass's snapshot store, with persist accounting.
struct Pager<'a> {
    tr: &'a Tracer,
    store: SnapshotStore,
    dir: PathBuf,
    persists: u64,
    persist_bytes: u64,
}

impl Pager<'_> {
    fn io(&self, e: std::io::Error) -> String {
        format!("{}: {e}", self.dir.display())
    }

    /// Persist a session record as the server does: fast (no fsync) for
    /// checkpoints and evictions, durable at close.
    fn persist(&mut self, id: u32, s: &Session, closed: bool) -> Result<(), String> {
        let record = StoreRecord {
            record_version: RECORD_VERSION,
            session: id,
            rank: s.rank,
            events: s.events_applied(),
            closed,
            history_complete: s.history_complete(),
            directives: s.history(),
            snapshot: s.snapshot(),
        };
        let name = if closed {
            "serve.persist_durable"
        } else {
            "serve.persist"
        };
        let done = self.tr.span(name, || {
            if closed {
                self.store.persist(&record)
            } else {
                self.store.persist_fast(&record)
            }
        });
        done.map_err(|e| self.io(e))?;
        self.persists += 1;
        self.persist_bytes +=
            std::fs::metadata(self.dir.join(record_file_name(id))).map_or(0, |m| m.len());
        Ok(())
    }

    fn rehydrate(&self, id: u32) -> Result<Session, String> {
        let loaded = self.tr.span("serve.rehydrate", || {
            self.store
                .load(id)
                .map(|r| r.map(|r| Session::restore_from_record(&r)))
        });
        loaded
            .map_err(|e| self.io(e))?
            .ok_or_else(|| format!("session {id} missing from the store"))?
            .map_err(|e| format!("session {id}: {e}"))
    }
}

/// Hot engines under an LRU cap, as the server's pager keeps them.
struct HotSet {
    cap: usize,
    hot: HashMap<u32, Session>,
    /// Least recently touched first.
    lru: VecDeque<u32>,
}

impl HotSet {
    /// Mark `id` most recently used, then evict past the cap (never `id`).
    fn touch(&mut self, id: u32, pager: &mut Pager) -> Result<(), String> {
        self.lru.retain(|&x| x != id);
        self.lru.push_back(id);
        while self.hot.len() > self.cap {
            let victim = self.lru.pop_front().expect("more hot engines than the cap");
            let sess = self.hot.remove(&victim).expect("lru ids are hot");
            pager.persist(victim, &sess, false)?;
        }
        Ok(())
    }
}

/// Replay the served pass's work in process at the server's cadence,
/// block by block: all sessions open, the hot set is capped by LRU
/// eviction to the store, a 32-session window streams 64-event
/// `Events` frames, sessions checkpoint every [`PERSIST_EVERY`] events
/// and persist durably at close.
fn in_process(opts: &Options, tr: &Tracer, pass: &Pass, out: &mut Outcome) -> Result<(), String> {
    let (res, root) = tr.span_id("bench.in_process", || {
        in_process_blocks(opts, tr, pass, out)
    });
    let (persists, persist_bytes, open_us, close_us) = res?;
    let root = root.expect("traced run records spans");
    let events: u64 = pass.total(|b| b.report.events_total);
    let batches: u64 = pass.total(|b| b.report.batches);
    let (apply_ns, _) = tr.total("serve.session_apply");
    let (codec_ns, _) = tr.total("serve.codec");
    let (persist_ns, persist_n) = tr.total("serve.persist");
    let (rehydrate_ns, rehydrate_n) = tr.total("serve.rehydrate");
    let in_process_us_per_batch = (apply_ns + codec_ns) as f64 / 1e3 / batches.max(1) as f64;
    let m = &mut out.per_layer;
    put(
        m,
        "serve.session_apply_ns_per_event",
        per(apply_ns, events),
        "ns",
    );
    put(m, "serve.codec_ns_per_event", per(codec_ns, events), "ns");
    put(
        m,
        "serve.transport_us_per_batch",
        pass.block_median(|r| r.latency_p50_us) - in_process_us_per_batch,
        "us",
    );
    put(
        m,
        "serve.persist_us",
        per(persist_ns, persist_n) / 1e3,
        "us",
    );
    put(
        m,
        "serve.persist_bytes",
        per(persist_bytes, persists),
        "bytes",
    );
    put(
        m,
        "serve.rehydrate_us",
        per(rehydrate_ns, rehydrate_n) / 1e3,
        "us",
    );
    put(m, "serve.open_us_p50", median(&open_us), "us");
    put(m, "serve.close_us_p50", median(&close_us), "us");
    layer_self_times(tr, root, out);
    Ok(())
}

/// Stream every block in process; returns `(persists, persist bytes,
/// open µs samples, close µs samples)`.
fn in_process_blocks(
    opts: &Options,
    tr: &Tracer,
    pass: &Pass,
    out: &mut Outcome,
) -> Result<(u64, u64, Vec<f64>, Vec<f64>), String> {
    let (mut persists, mut persist_bytes) = (0, 0);
    let mut open_us = Vec::new();
    let mut close_us = Vec::new();
    for (b, block) in pass.blocks.iter().enumerate() {
        let dir = opts
            .work_dir
            .join(format!("inproc-{}-{b}", std::process::id()));
        fresh_dir(&dir)?;
        let (store, _) =
            SnapshotStore::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut pager = Pager {
            tr,
            store,
            dir: dir.clone(),
            persists: 0,
            persist_bytes: 0,
        };
        let mut set = HotSet {
            cap: HOT_CAP,
            hot: HashMap::new(),
            lru: VecDeque::new(),
        };
        let streamed = stream_block(
            tr,
            &mut pager,
            &mut set,
            &pass.specs[block.range.clone()],
            &mut open_us,
            &mut close_us,
            out,
        );
        let _ = std::fs::remove_dir_all(&dir);
        streamed?;
        persists += pager.persists;
        persist_bytes += pager.persist_bytes;
    }

    Ok((persists, persist_bytes, open_us, close_us))
}

/// Stream one block in process; see [`in_process`].
fn stream_block(
    tr: &Tracer,
    pager: &mut Pager,
    set: &mut HotSet,
    specs: &[SessionSpec],
    open_us: &mut Vec<f64>,
    close_us: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    // Directives streamed so far, per active session (parity journal).
    let mut journals: Vec<Vec<LaneDirective>> = vec![Vec::new(); specs.len()];
    for (i, spec) in specs.iter().enumerate() {
        let id = i as u32;
        let t0 = Instant::now();
        let sess = tr.span("serve.open", || {
            Session::open(spec.rank, spec.config.clone())
        });
        open_us.push(t0.elapsed().as_secs_f64() * 1e6);
        set.hot.insert(id, sess);
        set.touch(id, pager)?;
    }
    // The load driver's sliding window: round-robin one batch per
    // active session, closing each as it drains.
    let mut cursors = vec![0usize; specs.len()];
    let mut active: Vec<usize> = (0..specs.len().min(ACTIVE_WINDOW)).collect();
    let mut next_idle = active.len();
    while !active.is_empty() {
        let mut i = 0;
        while i < active.len() {
            let k = active[i];
            let id = k as u32;
            let spec = &specs[k];
            if let Entry::Vacant(slot) = set.hot.entry(id) {
                slot.insert(pager.rehydrate(id)?);
            }
            set.touch(id, pager)?;
            let total = spec.events.len();
            if cursors[k] < total {
                let end = (cursors[k] + BATCH).min(total);
                let frame = ClientFrame::Events {
                    session: id,
                    events: spec.events[cursors[k]..end].to_vec(),
                };
                let decoded = tr.span("serve.codec", || decode_client(&frame.encode()));
                let Ok(ClientFrame::Events { events, .. }) = decoded else {
                    return Err(format!("session {id}: Events frame did not round-trip"));
                };
                let sess = set.hot.get_mut(&id).expect("touched session is hot");
                let (_, fresh) = tr.span("serve.session_apply", || sess.apply(&events));
                journals[k].extend(fresh);
                cursors[k] = end;
                if sess.events_since_persist() >= PERSIST_EVERY {
                    pager.persist(id, sess, false)?;
                    sess.mark_persisted();
                }
            }
            if cursors[k] < total {
                i += 1;
                continue;
            }
            let sess = set.hot.remove(&id).expect("touched session is hot");
            set.lru.retain(|&x| x != id);
            let t0 = Instant::now();
            let tail = tr.span("serve.close", || -> Result<_, String> {
                pager.persist(id, &sess, true)?;
                Ok(sess.close(spec.final_compute_ns).0)
            })?;
            close_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let mut journal = std::mem::take(&mut journals[k]);
            journal.extend(tail);
            out.check(
                (spec.golden_directives.as_ref() != Some(&journal)).then(|| {
                    format!(
                        "in-process session {id}: directives differ from the offline annotation"
                    )
                }),
            );
            active.swap_remove(i);
            if next_idle < specs.len() {
                active.push(next_idle);
                next_idle += 1;
            }
        }
    }
    Ok(())
}

/// `<absolute path> (<filesystem type>)`, so a reader can tell whether
/// store writes hit a disk.
fn describe_dir(dir: &Path) -> String {
    let abs = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let fs = std::fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    (f.len() > 2 && abs.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
                })
                .max()
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into());
    format!("{} ({fs})", abs.display())
}
