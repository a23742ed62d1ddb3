//! The `ibpower` binary: see [`ibpower_cli::usage`].

mod signal;

use ibp_core::annotate_trace;
use ibp_network::{replay, LinkPower, ReplayOptions, SimParams};
use ibp_simcore::{SimDuration, SimTime};
use ibp_trace::{ActivityProfile, CallProfile, CommMatrix, IdleDistribution, Trace};
use ibp_workloads::{AppKind, Scaling};
use ibpower_cli::{parse, usage, Command};
use std::process::ExitCode;

// `print!`/`println!` are shadowed for the whole binary so every line of
// output goes through `write_stdout` and a closed pipe never panics.
macro_rules! print {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

macro_rules! println {
    () => { write_stdout(format_args!("\n")) };
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Write to stdout. A reader that went away (`ibpower prv t.json | head
/// -1`) ends the program quietly, with the status a shell reports for a
/// process killed by SIGPIPE (128 + 13); any other write error is a
/// typed `error:` and exit 1. Std's `print!` would panic on either.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// Generate `app`'s trace at `nprocs` ranks.
fn generate(app: AppKind, nprocs: u32, seed: u64, scaling: Scaling) -> Result<Trace, String> {
    let w = app.workload(scaling);
    if !w.valid_nprocs(nprocs) {
        return Err(format!("{} cannot run at {nprocs} ranks", app.name()));
    }
    Ok(w.generate(nprocs, seed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(cmd) => match run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn load_trace(path: &str) -> Result<Trace, String> {
    ibp_trace::io::load(path).map_err(|e| format!("loading {path}: {e}"))
}

/// Render a [`ibp_serve::ObsReport`] as the `ibstat`-style text block
/// `stat` prints once and `top` refreshes: a server-wide header, then
/// one row per probed link (session) with its live power state, lane
/// width, signalling rate, misprediction counters, resilience windows,
/// and fault-injection rate.
fn render_report(ep: &ibp_serve::Endpoint, report: &ibp_serve::ObsReport) -> String {
    use std::fmt::Write as _;
    let s = &report.server;
    let sum = &s.summary;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ibp-serve @ {ep}: {} live session(s), {} worker(s)",
        s.sessions_live, s.workers
    );
    let _ = writeln!(
        out,
        "counters : {} opened / {} closed, {} events, {} directives",
        sum.sessions_opened, sum.sessions_closed, sum.events_applied, sum.directives_sent
    );
    let _ = writeln!(
        out,
        "health   : {} shed, {} panics, {} respawns, {} protocol errors",
        sum.responses_shed, sum.worker_panics, sum.worker_respawns, sum.protocol_errors
    );
    let _ = writeln!(
        out,
        "queues   : ready {} (limit {}/session), writer {}",
        s.ready_queue_depth, s.queue_depth_limit, s.writer_queue_depth
    );
    if s.max_hot_sessions.is_some() || s.cold_sessions > 0 {
        let cap = s
            .max_hot_sessions
            .map(|n| n.to_string())
            .unwrap_or_else(|| "off".into());
        let _ = writeln!(
            out,
            "paging   : {} hot / {} cold (cap {cap}), {} evictions, {} rehydrations",
            s.hot_sessions, s.cold_sessions, sum.evictions, sum.sessions_rehydrated
        );
    }
    if let Some(st) = &s.store {
        let _ = writeln!(
            out,
            "store    : {} record(s), {} closed \
             ({} persisted, {} failures, {} rehydrated)",
            st.sessions,
            st.closed,
            sum.snapshots_persisted,
            sum.persist_failures,
            sum.sessions_rehydrated
        );
    }
    if let Some(f) = s.chaos_intensity {
        let _ = writeln!(
            out,
            "chaos    : {f:.3} faults/io-call injected on every connection"
        );
    }
    if report.sessions.is_empty() {
        let _ = writeln!(out, "\n(no live sessions)");
        return out;
    }
    let _ = writeln!(
        out,
        "\n{:<5} {:<5} {:<4} {:<6} {:<5} {:<5} {:>5} {:>9} {:>7} {:>9} {:>8} {:>4} {:>5} {:>7} {:>9} {:>6}",
        "SESS",
        "RANK",
        "GEN",
        "STATE",
        "DEPTH",
        "WIDTH",
        "GB/S",
        "EVENTS",
        "DIRS",
        "MISP(P/T)",
        "WIN(P/T)",
        "HOLD",
        "GUARD",
        "PHASE",
        "IDLE-US",
        "FAULTS"
    );
    for p in &report.sessions {
        // A busy row means the probe raced a worker holding the engine;
        // only identity and queue depth are live, so render the link
        // columns as unknown rather than the placeholder defaults. The
        // generation is hardware identity, not engine state — always
        // live.
        let (state, depth, width, speed) = if p.busy {
            ("busy".to_string(), "-", "-".to_string(), "-".to_string())
        } else {
            (
                p.power_state.label().to_string(),
                p.sleep_depth.map_or("-", ibp_core::SleepKind::label),
                format!("{}X", p.lane_width),
                format!("{:.0}", p.power_state.speed_gbps()),
            )
        };
        let phase = match (p.pattern_slot, p.pattern_slots) {
            (Some(slot), Some(slots)) => format!("{slot}/{slots}"),
            _ => "-".to_string(),
        };
        let idle = p
            .predicted_idle_ns
            .map(|ns| format!("{:.1}", ns as f64 / 1_000.0))
            .unwrap_or_else(|| "-".to_string());
        let faults = s
            .chaos_intensity
            .map(|f| format!("{f:.3}"))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<5} {:<5} {:<4} {:<6} {:<5} {:<5} {:>5} {:>9} {:>7} {:>9} {:>8} {:>4} {:>5} {:>7} {:>9} {:>6}",
            p.session,
            p.rank,
            p.generation.name(),
            state,
            depth,
            width,
            speed,
            p.events_applied,
            p.directives_sent,
            format!("{}/{}", p.pattern_mispredictions, p.timing_mispredictions),
            format!("{}/{}", p.recent_pattern_window, p.recent_timing_window),
            p.holdoff_remaining,
            format!("{:.2}", p.guard_band),
            phase,
            idle,
            faults
        );
    }
    out
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{}", usage());
            Ok(())
        }
        Command::Generate {
            app,
            nprocs,
            seed,
            scaling,
            output,
        } => {
            let trace = generate(app, nprocs, seed, scaling)?;
            println!(
                "{}: {} ranks, {} MPI calls{}",
                trace.name,
                trace.nprocs,
                trace.total_calls(),
                if scaling == Scaling::Weak {
                    " (weak scaling)"
                } else {
                    ""
                }
            );
            if let Some(path) = output {
                ibp_trace::io::save(&trace, &path).map_err(|e| format!("writing {path}: {e}"))?;
                println!("written to {path}");
            }
            Ok(())
        }
        Command::Inspect { trace } => {
            let t = load_trace(&trace)?;
            println!(
                "trace   : {} ({} ranks, {} calls)",
                t.name,
                t.nprocs,
                t.total_calls()
            );

            let idle = IdleDistribution::from_trace(&t);
            println!(
                "idle    : {} intervals, {:.1}% of idle time exploitable (> 20 us)",
                idle.total_intervals,
                idle.exploitable_time_pct()
            );
            println!(
                "          buckets: <20us {:.1}% | 20-200us {:.1}% | >200us {:.1}% (of intervals)",
                idle.short.interval_pct, idle.medium.interval_pct, idle.long.interval_pct
            );

            let prof = CallProfile::of(&t);
            println!("calls   :");
            for (id, s) in &prof.by_call {
                println!(
                    "          id {id:>3}: {:>8} calls, {:>12} B sent, {} idle before",
                    s.count, s.send_bytes, s.preceding_idle
                );
            }
            if let Some(guard) = prof.dominant_idle_guard() {
                println!("          dominant idle guard: {guard}");
            }

            let m = CommMatrix::of(&t);
            println!(
                "p2p     : {} bytes over {} pairs{}",
                m.total(),
                m.pairs(),
                if m.is_symmetric() { " (symmetric)" } else { "" }
            );

            // A trace too long for 1 ms bins is binned wider; the line
            // names the width used.
            let act = ActivityProfile::of(&t, SimDuration::from_ms(1));
            let ms = act.bin.as_ns() / 1_000_000;
            let per = if ms == 1 {
                String::new()
            } else {
                format!("{ms} ")
            };
            println!(
                "activity: peak {} calls/{per}ms, {:.0}% of {ms} ms windows quiet",
                act.peak(),
                100.0 * act.quiet_fraction()
            );
            Ok(())
        }
        Command::Annotate {
            trace,
            power: cfg,
            output,
        } => {
            let t = load_trace(&trace)?;
            let ann = annotate_trace(&t, &cfg);
            let agg = ann.aggregate_stats();
            println!("hit rate            : {:.1}%", agg.hit_rate_pct());
            println!("lane-off directives : {}", ann.total_directives());
            println!("pattern mispredicts : {}", agg.pattern_mispredictions);
            println!("late wake-ups       : {}", agg.timing_mispredictions);
            if cfg.resilience.enabled {
                println!(
                    "resilience          : {} storms, {} held-off calls, {} suppressed directives",
                    agg.storms, agg.holdoff_calls, agg.suppressed_directives
                );
            }
            println!(
                "PPA overhead        : {:.2}% of calls, {:.1} us per invoking call",
                agg.ppa_invocation_pct(),
                agg.overhead_per_invoked_call_us()
            );
            println!(
                "estimated saving    : {:.1}% (quick estimate, no replay)",
                ann.mean_est_power_saving_pct(cfg.low_power_fraction)
            );
            if let Some(path) = output {
                let json = serde_json::to_string(&ann.ranks).map_err(|e| e.to_string())?;
                std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
                println!("annotations written to {path}");
            }
            Ok(())
        }
        Command::Replay {
            trace,
            ann,
            faults,
            timeline,
        } => {
            let t = load_trace(&trace)?;
            let annotations = match &ann {
                Some(path) => {
                    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                    let ranks: Vec<ibp_core::RankAnnotation> =
                        serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))?;
                    Some(ibp_core::TraceAnnotations { ranks })
                }
                None => None,
            };
            let opts = ReplayOptions {
                record_timelines: timeline,
                faults,
                ..ReplayOptions::default()
            };
            let result = replay(&t, annotations.as_ref(), &SimParams::paper(), &opts)
                .map_err(|e| format!("replay: {e}"))?;
            println!("execution time : {}", result.exec_time);
            println!(
                "messages       : {} ({} bytes)",
                result.fabric.messages, result.fabric.bytes
            );
            println!("contended      : {}", result.fabric.contended);
            if annotations.is_some() {
                println!("power saving   : {:.1}%", result.power_saving_pct());
            }
            if result.faults.total_events() > 0 {
                println!(
                    "faults         : {} wake misfires ({} stall), {} flaps ({} outage), {} degraded sends ({} extra)",
                    result.faults.wake_misfires,
                    result.faults.misfire_stall,
                    result.faults.link_flaps,
                    result.faults.flap_delay,
                    result.faults.degraded_sends,
                    result.faults.degraded_extra,
                );
            }
            if timeline {
                let tls = result.timelines.as_ref().expect("requested");
                let end = tls
                    .iter()
                    .map(|x| x.last_transition())
                    .max()
                    .unwrap_or(SimTime::ZERO)
                    .max(SimTime::ZERO + result.exec_time);
                let rows: Vec<(String, &ibp_simcore::StateTimeline<LinkPower>)> = tls
                    .iter()
                    .enumerate()
                    .take(32)
                    .map(|(r, tl)| (format!("rank {r:>3}"), tl))
                    .collect();
                print!(
                    "{}",
                    ibp_trace::viz::render_timelines(&rows, end, 100, |s| match s {
                        LinkPower::Low => '.',
                        LinkPower::Rate => '-',
                        LinkPower::Deep => 'o',
                        LinkPower::Full => '#',
                        LinkPower::Transition => '+',
                    })
                );
            }
            Ok(())
        }
        Command::Experiment {
            app,
            nprocs,
            seed,
            power: cfg,
            faults,
        } => {
            let trace = generate(app, nprocs, seed, Scaling::Strong)?;
            let params = SimParams::paper();
            let opts = ReplayOptions {
                faults,
                ..ReplayOptions::default()
            };
            let ann = annotate_trace(&trace, &cfg);
            let baseline = replay(&trace, None, &params, &opts)
                .map_err(|e| format!("baseline replay: {e}"))?;
            let managed = replay(&trace, Some(&ann), &params, &opts)
                .map_err(|e| format!("managed replay: {e}"))?;
            println!(
                "{} @{nprocs}: GT {} us, displacement {:.0}%",
                app.name(),
                cfg.grouping_threshold.as_us_f64(),
                cfg.displacement * 100.0
            );
            println!("hit rate      : {:.1}%", ann.mean_hit_rate_pct());
            println!("baseline exec : {}", baseline.exec_time);
            println!("managed exec  : {}", managed.exec_time);
            println!("slowdown      : {:.3}%", managed.slowdown_pct(&baseline));
            println!("power saving  : {:.1}%", managed.power_saving_pct());
            if opts.faults.is_some() {
                println!(
                    "faults        : {} events, {} charged (managed run)",
                    managed.faults.total_events(),
                    managed.faults.total_charged()
                );
            }
            if cfg.resilience.enabled {
                let agg = ann.aggregate_stats();
                println!(
                    "resilience    : {} storms, {} held-off calls, {} suppressed directives",
                    agg.storms, agg.holdoff_calls, agg.suppressed_directives
                );
            }
            Ok(())
        }
        Command::Exhibits {
            name,
            sweep,
            seed,
            out,
        } => {
            use ibp_analysis::{
                Exhibit, ExhibitGrid, OutputDir, SweepEngine, SweepStats, EXHIBITS,
            };
            let out = match out {
                Some(dir) => OutputDir::new(dir),
                None => OutputDir::default_dir(),
            }
            .map_err(|e| e.to_string())?;
            let io = |e: std::io::Error| format!("writing under {}: {e}", out.root().display());
            let all = name == "all";
            let batch: Vec<&Exhibit> = if all {
                EXHIBITS.iter().collect()
            } else {
                vec![Exhibit::find(&name).expect("validated by parse")]
            };
            // One shared engine: each (app, nprocs, seed) trace is
            // generated and its baseline replayed once for the whole
            // batch. Each exhibit's stats sidecar records only the work
            // it added on top of the shared caches.
            let engine = SweepEngine::new(sweep);
            let grid = ExhibitGrid::paper();
            let mut mark = SweepStats::default();
            let mut summary = Vec::new();
            for (i, exhibit) in batch.iter().enumerate() {
                if all {
                    println!("[{}/{}] {}", i + 1, batch.len(), exhibit.name);
                }
                let text = (exhibit.run)(&engine, &grid, seed, &out).map_err(io)?;
                let now = engine.stats();
                out.write_stats(exhibit.name, &now.since(&mark))
                    .map_err(io)?;
                mark = now;
                if all {
                    summary.push(text);
                } else {
                    print!("{text}");
                }
            }
            let stats = engine.stats();
            if all {
                out.write_text("summary.txt", &summary.join("\n"))
                    .map_err(io)?;
                out.write_stats("all", &stats).map_err(io)?;
                println!(
                    "all exhibits written to {} (summary.txt holds every table)",
                    out.root().display()
                );
            }
            eprintln!(
                "sweep: {} cells, {} job(s), {} traces generated / {} hits, \
                 {} timing runs / {} hits, {:.1}s, traces {:.1} MiB, peak RSS {:.0} MiB",
                stats.cells,
                stats.jobs,
                stats.traces_generated,
                stats.trace_hits,
                stats.timings_computed,
                stats.timing_hits,
                stats.wall_ms as f64 / 1000.0,
                stats.trace_bytes as f64 / (1024.0 * 1024.0),
                stats.peak_rss_mb
            );
            Ok(())
        }
        Command::BenchReport {
            output,
            check,
            iters,
            reps,
            label,
        } => {
            use ibp_bench::hotpath::{
                ReportEntry, Trajectory, GT_SWEEP_PROBE, INTERCEPT_PROBE, LADDER_PROBE,
                REPLAY_BIG_PROBE, REPLAY_PROBE, REPLAY_RING_PROBE, REPLAY_WIDE_PROBE, SCALE_PROBE,
                SERVE_PROBE,
            };
            let mut traj: Trajectory = match std::fs::read_to_string(&output) {
                Ok(json) => serde_json::from_str(&json).map_err(|e| format!("{output}: {e}"))?,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Trajectory::default(),
                Err(e) => return Err(format!("{output}: {e}")),
            };
            let probes = ibp_bench::hotpath::run_all(iters, reps);
            let entry = ReportEntry {
                label: label.unwrap_or_else(|| format!("run-{}", traj.entries.len())),
                probes,
            };
            println!("bench-report: {} ({iters} iters, {reps} reps)", entry.label);
            for p in &entry.probes {
                println!(
                    "  {:<34} {:>10.1} ns/elem  (median {:.1}, IQR {:.1}; {} elems)",
                    p.name, p.ns_per_elem, p.median_ns_per_elem, p.iqr_ns_per_elem, p.elems
                );
            }
            if check {
                let prev = traj
                    .entries
                    .last()
                    .and_then(|e| e.probe(INTERCEPT_PROBE))
                    .ok_or_else(|| {
                        format!("--check: no prior {INTERCEPT_PROBE} entry in {output}")
                    })?;
                let now = entry
                    .probe(INTERCEPT_PROBE)
                    .expect("run_all always emits the intercept probe");
                let ratio = now.ns_per_elem / prev.ns_per_elem;
                println!(
                    "  check: {INTERCEPT_PROBE} {:.1} -> {:.1} ns ({:+.1}%)",
                    prev.ns_per_elem,
                    now.ns_per_elem,
                    (ratio - 1.0) * 100.0
                );
                if ratio > 1.25 {
                    return Err(format!(
                        "intercept path regressed {:.0}% (> 25% gate): {:.1} ns vs {:.1} ns baseline",
                        (ratio - 1.0) * 100.0,
                        now.ns_per_elem,
                        prev.ns_per_elem
                    ));
                }
                // These probes cross a real socket (serve) or measure
                // whole-engine wall time (replay), so they are noisier
                // than the in-process intercept probe: gate at 50%, and
                // only once the baseline entry records the probe at all
                // (older entries predate each probe's introduction).
                let gate_50 = |probe_name: &str| -> Result<(), String> {
                    let Some(prev) = traj.entries.last().and_then(|e| e.probe(probe_name)) else {
                        return Ok(());
                    };
                    let now = entry
                        .probe(probe_name)
                        .expect("run_all emits every gated probe");
                    let ratio = now.ns_per_elem / prev.ns_per_elem;
                    println!(
                        "  check: {probe_name} {:.1} -> {:.1} ns ({:+.1}%)",
                        prev.ns_per_elem,
                        now.ns_per_elem,
                        (ratio - 1.0) * 100.0
                    );
                    if ratio > 1.5 {
                        return Err(format!(
                            "{probe_name} regressed {:.0}% (> 50% gate): {:.1} ns vs {:.1} ns baseline",
                            (ratio - 1.0) * 100.0,
                            now.ns_per_elem,
                            prev.ns_per_elem
                        ));
                    }
                    Ok(())
                };
                gate_50(SERVE_PROBE)?;
                gate_50(SCALE_PROBE)?;
                gate_50(REPLAY_PROBE)?;
                gate_50(REPLAY_BIG_PROBE)?;
                gate_50(REPLAY_WIDE_PROBE)?;
                gate_50(REPLAY_RING_PROBE)?;
                gate_50(LADDER_PROBE)?;
                gate_50(GT_SWEEP_PROBE)?;
                // A gate run records nothing: the committed last entry
                // stays the baseline of the next check.
                println!("check passed; {output} left unchanged");
                return Ok(());
            }
            traj.entries.push(entry);
            let json = serde_json::to_string_pretty(&traj).map_err(|e| e.to_string())?;
            std::fs::write(&output, json + "\n").map_err(|e| format!("{output}: {e}"))?;
            println!("trajectory written to {output}");
            Ok(())
        }
        Command::Serve {
            endpoint: ep,
            config,
            store,
        } => {
            let mut server = ibp_serve::Server::bind(&ep, config.clone())
                .map_err(|e| format!("binding {ep}: {e}"))?;
            if let Some(dir) = store {
                let (store, recovery) = ibp_serve::SnapshotStore::open(std::path::Path::new(&dir))
                    .map_err(|e| format!("opening store {dir}: {e}"))?;
                eprintln!(
                    "store      : {dir} ({} sessions recovered{})",
                    recovery.loaded,
                    if recovery.skipped.is_empty() {
                        String::new()
                    } else {
                        format!(", {} unusable records skipped", recovery.skipped.len())
                    }
                );
                for (file, reason) in &recovery.skipped {
                    eprintln!("             skipped {file}: {reason}");
                }
                server = server.with_store(std::sync::Arc::new(store));
            }
            eprintln!(
                "serving on {} ({} workers, {} io threads{})",
                server.endpoint(),
                config.workers,
                config.io_threads,
                config
                    .max_hot_sessions
                    .map(|n| format!(", hot cap {n}"))
                    .unwrap_or_default()
            );
            if let Some(addr) = server.metrics_endpoint() {
                eprintln!("metrics    : http://{addr}/metrics (Prometheus text exposition)");
            }
            // SIGINT/SIGTERM raise the stop flag and poke the reactor's
            // shutdown eventfd: the event loops wake immediately,
            // in-flight work quiesces, and store-backed sessions are
            // persisted before exit.
            signal::drain_on_signals(server.stop_flag(), server.wake_fd());
            let summary = server.run();
            println!(
                "sessions   : {} opened, {} closed",
                summary.sessions_opened, summary.sessions_closed
            );
            println!("events     : {} applied", summary.events_applied);
            println!("directives : {} streamed", summary.directives_sent);
            if summary.sessions_rehydrated > 0 {
                println!(
                    "rehydrated : {} sessions from the store",
                    summary.sessions_rehydrated
                );
            }
            if summary.evictions > 0 {
                println!(
                    "evicted    : {} hot engines paged to the store",
                    summary.evictions
                );
            }
            if summary.snapshots_persisted > 0 || summary.persist_failures > 0 {
                println!(
                    "persisted  : {} records{}",
                    summary.snapshots_persisted,
                    if summary.persist_failures > 0 {
                        format!(" ({} failures)", summary.persist_failures)
                    } else {
                        String::new()
                    }
                );
            }
            if summary.responses_shed > 0 {
                println!(
                    "shed       : {} responses to overloaded connections",
                    summary.responses_shed
                );
            }
            if summary.worker_panics > 0 || summary.worker_respawns > 0 {
                println!(
                    "panics     : {} isolated, {} workers respawned",
                    summary.worker_panics, summary.worker_respawns
                );
            }
            if summary.protocol_errors > 0 {
                println!("errors     : {} protocol errors", summary.protocol_errors);
            }
            Ok(())
        }
        Command::Load {
            app,
            nprocs,
            seed,
            endpoint: ep,
            sessions,
            power: cfg,
            config,
            chaos,
            events_per_session,
            scale_curve,
            output,
        } => {
            let trace = generate(app, nprocs, seed, Scaling::Strong)?;
            let specs: Vec<ibp_serve::SessionSpec> = (0..sessions)
                .map(|i| {
                    let rank = &trace.ranks[i % nprocs as usize];
                    let golden = config.check.then(|| ibp_core::annotate_rank(rank, &cfg));
                    let mut events: Vec<(u16, u64)> = rank
                        .call_stream()
                        .map(|(call, gap)| (call.id(), gap.as_ns()))
                        .collect();
                    if events_per_session > 0 {
                        events.truncate(events_per_session);
                    }
                    ibp_serve::SessionSpec {
                        rank: rank.rank,
                        config: cfg.clone(),
                        events,
                        final_compute_ns: rank.final_compute.as_ns(),
                        golden_directives: golden.as_ref().map(|g| g.directives.clone()),
                        golden_stats: golden.map(|g| g.stats),
                    }
                })
                .collect();
            let report = ibp_serve::run_load(&ep, specs, &config)
                .map_err(|e| format!("load against {ep}: {e}"))?;
            let drivers = config.drivers;
            println!(
                "{} @{nprocs}: {} sessions, batch {}{}{}{}",
                app.name(),
                report.sessions,
                config.batch,
                config
                    .split
                    .map(|f| format!(", split {f}"))
                    .unwrap_or_default(),
                chaos.map(|f| format!(", chaos {f}")).unwrap_or_default(),
                if drivers > 0 {
                    format!(", {drivers} drivers")
                } else {
                    String::new()
                }
            );
            println!(
                "events     : {} in {:.2} s  ({:.0} events/s)",
                report.events_total, report.elapsed_s, report.events_per_sec
            );
            println!(
                "directives : {} over {} batches",
                report.directives_total, report.batches
            );
            println!(
                "latency    : p50 {:.1} us, p99 {:.1} us, max {:.1} us",
                report.latency_p50_us, report.latency_p99_us, report.latency_max_us
            );
            if report.reconnects > 0 {
                println!("reconnects : {} session re-attaches", report.reconnects);
            }
            if report.gave_up > 0 {
                println!(
                    "gave up    : {} session(s) abandoned after exhausting --retries",
                    report.gave_up
                );
            }
            if report.parity_checked {
                println!(
                    "parity     : {}",
                    if report.parity_ok {
                        "ok (matches offline annotate)"
                    } else {
                        "MISMATCH"
                    }
                );
            }
            if let Some(path) = scale_curve {
                // Append one {sessions, drivers, throughput, latency}
                // point to the `scaling` array of the benchmark JSON,
                // creating file and array as needed. Everything else in
                // the file (e.g. the 8-session baseline report) is
                // preserved.
                use serde::Value;
                let mut doc: Value = match std::fs::read_to_string(&path) {
                    Ok(json) => serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))?,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Value::Map(Vec::new()),
                    Err(e) => return Err(format!("{path}: {e}")),
                };
                let Value::Map(entries) = &mut doc else {
                    return Err(format!("{path}: top level is not a JSON object"));
                };
                let point = Value::Map(vec![
                    ("sessions".into(), Value::U64(report.sessions as u64)),
                    ("drivers".into(), Value::U64(drivers as u64)),
                    ("open_rate".into(), Value::U64(config.open_rate)),
                    (
                        "events_per_session".into(),
                        Value::U64(events_per_session as u64),
                    ),
                    ("events_total".into(), Value::U64(report.events_total)),
                    ("events_per_sec".into(), Value::F64(report.events_per_sec)),
                    ("latency_p50_us".into(), Value::F64(report.latency_p50_us)),
                    ("latency_p99_us".into(), Value::F64(report.latency_p99_us)),
                    ("latency_max_us".into(), Value::F64(report.latency_max_us)),
                ]);
                let scaling = match entries.iter_mut().position(|(k, _)| k == "scaling") {
                    Some(i) => &mut entries[i].1,
                    None => {
                        entries.push(("scaling".into(), Value::Seq(Vec::new())));
                        &mut entries.last_mut().expect("just pushed").1
                    }
                };
                let Value::Seq(points) = scaling else {
                    return Err(format!("{path}: `scaling` is not an array"));
                };
                points.push(point);
                let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
                std::fs::write(&path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
                println!("scaling    : point appended to {path}");
            }
            if let Some(path) = output {
                let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                std::fs::write(&path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
                println!("report written to {path}");
            }
            if report.parity_checked && !report.parity_ok {
                return Err(
                    "parity check failed: streamed directives differ from offline annotation"
                        .into(),
                );
            }
            Ok(())
        }
        Command::Stat {
            endpoint: ep,
            session,
        } => {
            let mut client =
                ibp_serve::Client::connect(&ep).map_err(|e| format!("connecting {ep}: {e}"))?;
            let report = match session {
                Some(id) => client.query(id),
                None => client.query_server(),
            }
            .map_err(|e| format!("query against {ep}: {e}"))?;
            print!("{}", render_report(&ep, &report));
            Ok(())
        }
        Command::Top {
            endpoint: ep,
            interval_ms,
            once,
        } => {
            let mut client =
                ibp_serve::Client::connect(&ep).map_err(|e| format!("connecting {ep}: {e}"))?;
            loop {
                let report = client
                    .query_server()
                    .map_err(|e| format!("query against {ep}: {e}"))?;
                if once {
                    print!("{}", render_report(&ep, &report));
                    return Ok(());
                }
                // Clear the screen and re-home before every frame, like
                // `top`; ctrl-C exits.
                print!("\x1b[2J\x1b[H{}", render_report(&ep, &report));
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            }
        }
        Command::Prv { trace, output } => {
            let t = load_trace(&trace)?;
            let prv = ibp_trace::paraver::to_prv(&t);
            match output {
                Some(path) => {
                    std::fs::write(&path, prv).map_err(|e| format!("writing {path}: {e}"))?;
                    println!("written to {path}");
                }
                None => print!("{prv}"),
            }
            Ok(())
        }
    }
}
