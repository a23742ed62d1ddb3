//! # ibpower-cli — command-line front end
//!
//! A small, dependency-free argument layer over the `ibpower` workspace:
//!
//! ```text
//! ibpower generate <app> <nprocs> [--seed N] [--weak] [-o trace.json]
//! ibpower inspect  <trace.json>
//! ibpower annotate <trace.json> [--gt US] [--disp F] [-o ann.json]
//! ibpower replay   <trace.json> [--ann ann.json] [--timeline]
//! ibpower experiment <app> <nprocs> [--gt US] [--disp F] [--seed N]
//! ibpower prv      <trace.json> [-o out.prv]
//! ibpower serve    (--uds PATH | --tcp ADDR) [--workers N] [--metrics-addr ADDR]
//! ibpower load     <app> <nprocs> (--uds PATH | --tcp ADDR) [--sessions N]
//! ibpower stat     (--uds PATH | --tcp ADDR) [--session N]
//! ibpower top      (--uds PATH | --tcp ADDR) [--interval-ms N] [--once]
//! ```
//!
//! The parsing layer is exposed as a library so it can be unit-tested
//! without spawning processes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ibp_simcore::SimDuration;
use ibp_workloads::AppKind;

/// Where the streaming service listens (or where the load generator
/// connects): exactly one of `--tcp ADDR` or `--uds PATH`.
#[derive(Debug, Clone, PartialEq)]
pub enum EndpointSpec {
    /// TCP address, e.g. `127.0.0.1:9400`.
    Tcp(String),
    /// Unix-domain socket path.
    Uds(String),
}

impl EndpointSpec {
    /// Convert into the serving crate's endpoint type.
    #[must_use]
    pub fn to_endpoint(&self) -> ibp_serve::Endpoint {
        match self {
            EndpointSpec::Tcp(addr) => ibp_serve::Endpoint::Tcp(addr.clone()),
            EndpointSpec::Uds(path) => ibp_serve::Endpoint::Unix(path.into()),
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a workload trace.
    Generate {
        /// Application name.
        app: String,
        /// Rank count.
        nprocs: u32,
        /// Generation seed.
        seed: u64,
        /// Weak scaling instead of strong.
        weak: bool,
        /// Output path (stdout summary only if absent).
        output: Option<String>,
    },
    /// Print trace statistics.
    Inspect {
        /// Trace path.
        trace: String,
    },
    /// Run the power-saving runtime over a trace.
    Annotate {
        /// Trace path.
        trace: String,
        /// Grouping threshold, µs.
        gt_us: f64,
        /// Displacement factor.
        displacement: f64,
        /// Enable the misprediction-backoff resilience controller.
        resilient: bool,
        /// Slowdown budget (%, implies `resilient`).
        budget: Option<f64>,
        /// Output path for the annotations JSON.
        output: Option<String>,
    },
    /// Replay a trace (optionally with annotations).
    Replay {
        /// Trace path.
        trace: String,
        /// Annotations path.
        ann: Option<String>,
        /// Link fault-injection rate multiplier (0 = fault-free).
        fault_rate: f64,
        /// Fault-injection RNG seed.
        fault_seed: u64,
        /// Render a link-power timeline.
        timeline: bool,
    },
    /// Full pipeline in one shot: generate + annotate + double replay.
    Experiment {
        /// Application name.
        app: String,
        /// Rank count.
        nprocs: u32,
        /// Grouping threshold, µs.
        gt_us: f64,
        /// Displacement factor.
        displacement: f64,
        /// Generation seed.
        seed: u64,
        /// Link fault-injection rate multiplier (0 = fault-free).
        fault_rate: f64,
        /// Fault-injection RNG seed.
        fault_seed: u64,
        /// Enable the misprediction-backoff resilience controller.
        resilient: bool,
        /// Slowdown budget (%, implies `resilient`).
        budget: Option<f64>,
    },
    /// Export a trace in the simplified Paraver dialect.
    Prv {
        /// Trace path.
        trace: String,
        /// Output path (stdout if absent).
        output: Option<String>,
    },
    /// Regenerate exhibits on the parallel sweep engine.
    Exhibits {
        /// A name from the `ibp_analysis::EXHIBITS` registry, or `all`.
        name: String,
        /// Worker threads (0 = available parallelism / `IBP_JOBS`).
        jobs: usize,
        /// Force the serial escape hatch.
        serial: bool,
        /// Generation seed.
        seed: u64,
        /// Results directory (default `results/`, or `IBP_RESULTS_DIR`).
        out: Option<String>,
    },
    /// Measure the engine's hot paths and append an entry to the
    /// benchmark trajectory file.
    BenchReport {
        /// Trajectory JSON path (appended to; created if absent).
        output: String,
        /// Exit non-zero if the intercept path regressed >25% against
        /// the last recorded entry.
        check: bool,
        /// Stream scale (iterations of the ALYA pattern; 2000 is a
        /// 10k-call intercept stream).
        iters: usize,
        /// Repetitions per probe (minimum is reported).
        reps: u32,
        /// Label stored with the entry (defaults to `run-<n>`).
        label: Option<String>,
    },
    /// Run the streaming prediction server.
    Serve {
        /// Listening endpoint.
        endpoint: EndpointSpec,
        /// Worker threads applying event batches.
        workers: usize,
        /// Event-loop (reactor) threads owning the sockets.
        io_threads: usize,
        /// LRU cap on in-memory session engines; excess sessions are
        /// evicted to the snapshot store and rehydrated on touch
        /// (requires `--store`).
        max_hot_sessions: Option<usize>,
        /// Pending work items per session before its reader blocks.
        queue: usize,
        /// Emit unsolicited stats every N events per session (0 = off).
        stats_every: u64,
        /// Exit after this many sessions close cleanly.
        session_limit: Option<u64>,
        /// Durable snapshot store directory (crash recovery).
        store: Option<String>,
        /// Persist each store-backed session every N applied events
        /// (0 = only on close/drain).
        persist_every: u64,
        /// Outbound frames queued per connection before shedding.
        write_queue: usize,
        /// Drop connections idle for this many ms (0 = never).
        idle_timeout_ms: u64,
        /// Socket write timeout, ms (0 = none).
        write_timeout_ms: u64,
        /// Prometheus text-exposition listener address
        /// (e.g. `127.0.0.1:9401`; absent = no exporter).
        metrics_addr: Option<String>,
    },
    /// Drive a workload's event streams against a running server.
    Load {
        /// Application name.
        app: String,
        /// Rank count.
        nprocs: u32,
        /// Server endpoint to connect to.
        endpoint: EndpointSpec,
        /// Concurrent sessions (connections) to drive.
        sessions: usize,
        /// Events per frame.
        batch: usize,
        /// Generation seed.
        seed: u64,
        /// Snapshot/reconnect/restore at this stream fraction.
        split: Option<f64>,
        /// Verify streamed directives against the offline golden path.
        check: bool,
        /// Grouping threshold, µs.
        gt_us: f64,
        /// Displacement factor.
        displacement: f64,
        /// Transport chaos intensity in (0, 1] (fault injection on
        /// every connection; `None` = healthy transport).
        chaos: Option<f64>,
        /// Chaos fault-stream seed.
        chaos_seed: u64,
        /// Consecutive failed connection attempts before a session
        /// gives up.
        retries: u32,
        /// Per-request response deadline, ms (0 = wait forever).
        deadline_ms: u64,
        /// Scale mode: multiplex all sessions over this many driver
        /// connections (0 = classic one-connection-per-session mode).
        drivers: usize,
        /// Scale mode: cap on session opens per second across all
        /// drivers (0 = unlimited).
        open_rate: u64,
        /// Truncate every session's stream to its first N events
        /// (0 = full stream) — the mostly-idle mix for high-session
        /// scaling runs.
        events_per_session: usize,
        /// Append a `{sessions, events_per_sec, latency_p99_us, ...}`
        /// point to the `scaling` section of this benchmark JSON.
        scale_curve: Option<String>,
        /// Output path for the throughput/latency report JSON.
        output: Option<String>,
    },
    /// One-shot `ibstat`-style live state table from a running server.
    Stat {
        /// Server endpoint to query.
        endpoint: EndpointSpec,
        /// Probe only this session id (absent = the whole fleet).
        session: Option<u32>,
    },
    /// Refreshing live view of a running server (`--once` for scripts).
    Top {
        /// Server endpoint to query.
        endpoint: EndpointSpec,
        /// Refresh interval, milliseconds.
        interval_ms: u64,
        /// Render a single frame and exit (no screen clearing).
        once: bool,
    },
    /// Print usage.
    Help,
}

/// Parse a command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().map(|s| s.as_str()).unwrap_or("help");
    let rest: Vec<&String> = it.collect();

    let flag_val = |name: &str| -> Option<&str> {
        rest.iter()
            .position(|a| a.as_str() == name)
            .and_then(|i| rest.get(i + 1))
            .map(|s| s.as_str())
    };
    let has_flag = |name: &str| rest.iter().any(|a| a.as_str() == name);
    let positional: Vec<&str> = {
        let mut out = Vec::new();
        let mut skip = false;
        for (i, a) in rest.iter().enumerate() {
            if skip {
                skip = false;
                continue;
            }
            if a.starts_with('-') {
                // Flags with values.
                if [
                    "--seed",
                    "--gt",
                    "--disp",
                    "-o",
                    "--ann",
                    "--fault-rate",
                    "--fault-seed",
                    "--budget",
                    "--jobs",
                    "--out",
                    "--iters",
                    "--reps",
                    "--label",
                    "--uds",
                    "--tcp",
                    "--workers",
                    "--queue",
                    "--stats-every",
                    "--session-limit",
                    "--sessions",
                    "--batch",
                    "--split",
                    "--store",
                    "--persist-every",
                    "--write-queue",
                    "--idle-timeout-ms",
                    "--write-timeout-ms",
                    "--chaos",
                    "--chaos-seed",
                    "--retries",
                    "--deadline-ms",
                    "--metrics-addr",
                    "--session",
                    "--interval-ms",
                    "--io-threads",
                    "--max-hot-sessions",
                    "--drivers",
                    "--open-rate",
                    "--events-per-session",
                    "--scale-curve",
                ]
                .contains(&a.as_str())
                {
                    skip = true;
                }
                let _ = i;
                continue;
            }
            out.push(a.as_str());
        }
        out
    };

    let parse_seed = || -> Result<u64, String> {
        match flag_val("--seed") {
            Some(s) => s.parse().map_err(|_| format!("bad --seed: {s}")),
            None => Ok(0xD1C0),
        }
    };
    let parse_gt = || -> Result<f64, String> {
        match flag_val("--gt") {
            Some(s) => s.parse().map_err(|_| format!("bad --gt: {s}")),
            None => Ok(20.0),
        }
    };
    let parse_disp = || -> Result<f64, String> {
        match flag_val("--disp") {
            Some(s) => s.parse().map_err(|_| format!("bad --disp: {s}")),
            None => Ok(0.01),
        }
    };
    let parse_fault_rate = || -> Result<f64, String> {
        match flag_val("--fault-rate") {
            Some(s) => s
                .parse::<f64>()
                .ok()
                .filter(|r| *r >= 0.0)
                .ok_or(format!("bad --fault-rate: {s}")),
            None => Ok(0.0),
        }
    };
    let parse_fault_seed = || -> Result<u64, String> {
        match flag_val("--fault-seed") {
            Some(s) => s.parse().map_err(|_| format!("bad --fault-seed: {s}")),
            None => Ok(0xFA17),
        }
    };
    let parse_budget = || -> Result<Option<f64>, String> {
        match flag_val("--budget") {
            Some(s) => s
                .parse::<f64>()
                .ok()
                .filter(|b| *b >= 0.0)
                .map(Some)
                .ok_or(format!("bad --budget: {s}")),
            None => Ok(None),
        }
    };
    let parse_endpoint = || -> Result<EndpointSpec, String> {
        match (flag_val("--uds"), flag_val("--tcp")) {
            (Some(p), None) => Ok(EndpointSpec::Uds(p.to_string())),
            (None, Some(a)) => Ok(EndpointSpec::Tcp(a.to_string())),
            (Some(_), Some(_)) => Err("give --uds or --tcp, not both".into()),
            (None, None) => Err("missing endpoint: --uds PATH or --tcp ADDR".into()),
        }
    };
    let parse_count = |name: &str, default: usize| -> Result<usize, String> {
        match flag_val(name) {
            Some(s) => s
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or(format!("bad {name}: {s}")),
            None => Ok(default),
        }
    };
    let app_and_n = || -> Result<(String, u32), String> {
        let app = positional
            .first()
            .ok_or("missing <app> (gromacs|alya|wrf|nas-bt|nas-mg)")?
            .to_string();
        if AppKind::from_name(&app).is_none() {
            return Err(format!("unknown app '{app}'"));
        }
        let n: u32 = positional
            .get(1)
            .ok_or("missing <nprocs>")?
            .parse()
            .map_err(|_| "bad <nprocs>".to_string())?;
        Ok((app, n))
    };

    match cmd {
        "generate" => {
            let (app, nprocs) = app_and_n()?;
            Ok(Command::Generate {
                app,
                nprocs,
                seed: parse_seed()?,
                weak: has_flag("--weak"),
                output: flag_val("-o").map(str::to_string),
            })
        }
        "inspect" => Ok(Command::Inspect {
            trace: positional
                .first()
                .ok_or("missing <trace.json>")?
                .to_string(),
        }),
        "annotate" => Ok(Command::Annotate {
            trace: positional
                .first()
                .ok_or("missing <trace.json>")?
                .to_string(),
            gt_us: parse_gt()?,
            displacement: parse_disp()?,
            resilient: has_flag("--resilient"),
            budget: parse_budget()?,
            output: flag_val("-o").map(str::to_string),
        }),
        "replay" => Ok(Command::Replay {
            trace: positional
                .first()
                .ok_or("missing <trace.json>")?
                .to_string(),
            ann: flag_val("--ann").map(str::to_string),
            fault_rate: parse_fault_rate()?,
            fault_seed: parse_fault_seed()?,
            timeline: has_flag("--timeline"),
        }),
        "experiment" => {
            let (app, nprocs) = app_and_n()?;
            Ok(Command::Experiment {
                app,
                nprocs,
                gt_us: parse_gt()?,
                displacement: parse_disp()?,
                seed: parse_seed()?,
                fault_rate: parse_fault_rate()?,
                fault_seed: parse_fault_seed()?,
                resilient: has_flag("--resilient"),
                budget: parse_budget()?,
            })
        }
        "exhibits" => {
            let names = || exhibit_names().join("|");
            let name = positional
                .first()
                .ok_or_else(|| format!("missing <exhibit> (all|{})", names()))?
                .to_string();
            if name != "all" && ibp_analysis::Exhibit::find(&name).is_none() {
                return Err(format!("unknown exhibit '{name}' (all|{})", names()));
            }
            let jobs = match flag_val("--jobs") {
                Some(s) => s
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad --jobs: {s}"))?,
                None => 0,
            };
            Ok(Command::Exhibits {
                name,
                jobs,
                serial: has_flag("--serial"),
                seed: parse_seed()?,
                out: flag_val("--out").map(str::to_string),
            })
        }
        "bench-report" => {
            let iters = match flag_val("--iters") {
                Some(s) => s
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 10)
                    .ok_or(format!("bad --iters (need >= 10): {s}"))?,
                None => 2000,
            };
            let reps = match flag_val("--reps") {
                Some(s) => s
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad --reps: {s}"))?,
                None => 5,
            };
            Ok(Command::BenchReport {
                output: flag_val("-o").unwrap_or("BENCH_hotpath.json").to_string(),
                check: has_flag("--check"),
                iters,
                reps,
                label: flag_val("--label").map(str::to_string),
            })
        }
        "prv" => Ok(Command::Prv {
            trace: positional
                .first()
                .ok_or("missing <trace.json>")?
                .to_string(),
            output: flag_val("-o").map(str::to_string),
        }),
        "serve" => {
            let stats_every = match flag_val("--stats-every") {
                Some(s) => s
                    .parse::<u64>()
                    .map_err(|_| format!("bad --stats-every: {s}"))?,
                None => 0,
            };
            let session_limit = match flag_val("--session-limit") {
                Some(s) => Some(
                    s.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or(format!("bad --session-limit: {s}"))?,
                ),
                None => None,
            };
            let parse_ms = |name: &str, default: u64| -> Result<u64, String> {
                match flag_val(name) {
                    Some(s) => s.parse::<u64>().map_err(|_| format!("bad {name}: {s}")),
                    None => Ok(default),
                }
            };
            let max_hot_sessions = match flag_val("--max-hot-sessions") {
                Some(s) => Some(
                    s.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or(format!("bad --max-hot-sessions: {s}"))?,
                ),
                None => None,
            };
            Ok(Command::Serve {
                endpoint: parse_endpoint()?,
                workers: parse_count("--workers", 4)?,
                io_threads: parse_count("--io-threads", 2)?,
                max_hot_sessions,
                queue: parse_count("--queue", 64)?,
                stats_every,
                session_limit,
                store: flag_val("--store").map(str::to_string),
                persist_every: parse_ms("--persist-every", 256)?,
                write_queue: parse_count("--write-queue", 256)?,
                idle_timeout_ms: parse_ms("--idle-timeout-ms", 0)?,
                write_timeout_ms: parse_ms("--write-timeout-ms", 30_000)?,
                metrics_addr: flag_val("--metrics-addr").map(str::to_string),
            })
        }
        "stat" => {
            let session = match flag_val("--session") {
                Some(s) => Some(s.parse::<u32>().map_err(|_| format!("bad --session: {s}"))?),
                None => None,
            };
            Ok(Command::Stat { endpoint: parse_endpoint()?, session })
        }
        "top" => {
            let interval_ms = match flag_val("--interval-ms") {
                Some(s) => s
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad --interval-ms: {s}"))?,
                None => 1_000,
            };
            Ok(Command::Top {
                endpoint: parse_endpoint()?,
                interval_ms,
                once: has_flag("--once"),
            })
        }
        "load" => {
            let (app, nprocs) = app_and_n()?;
            let split = match flag_val("--split") {
                Some(s) => Some(
                    s.parse::<f64>()
                        .ok()
                        .filter(|f| *f > 0.0 && *f < 1.0)
                        .ok_or(format!("bad --split (need 0 < F < 1): {s}"))?,
                ),
                None => None,
            };
            let chaos = match flag_val("--chaos") {
                Some(s) => Some(
                    s.parse::<f64>()
                        .ok()
                        .filter(|f| *f > 0.0 && *f <= 1.0)
                        .ok_or(format!("bad --chaos (need 0 < F <= 1): {s}"))?,
                ),
                None => None,
            };
            let chaos_seed = match flag_val("--chaos-seed") {
                Some(s) => s.parse::<u64>().map_err(|_| format!("bad --chaos-seed: {s}"))?,
                None => 0xC4A0_5EED,
            };
            let retries = match flag_val("--retries") {
                Some(s) => s
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad --retries (need >= 1): {s}"))?,
                None => 8,
            };
            let deadline_ms = match flag_val("--deadline-ms") {
                Some(s) => s.parse::<u64>().map_err(|_| format!("bad --deadline-ms: {s}"))?,
                None => 10_000,
            };
            // Scale-mode knobs: 0 is meaningful (mode off / unlimited),
            // so these accept any u64 rather than going through
            // parse_count.
            let drivers = match flag_val("--drivers") {
                Some(s) => s.parse::<usize>().map_err(|_| format!("bad --drivers: {s}"))?,
                None => 0,
            };
            let open_rate = match flag_val("--open-rate") {
                Some(s) => s.parse::<u64>().map_err(|_| format!("bad --open-rate: {s}"))?,
                None => 0,
            };
            let events_per_session = match flag_val("--events-per-session") {
                Some(s) => s
                    .parse::<usize>()
                    .map_err(|_| format!("bad --events-per-session: {s}"))?,
                None => 0,
            };
            Ok(Command::Load {
                app,
                nprocs,
                endpoint: parse_endpoint()?,
                sessions: parse_count("--sessions", 8)?,
                batch: parse_count("--batch", 64)?,
                seed: parse_seed()?,
                split,
                check: has_flag("--check"),
                gt_us: parse_gt()?,
                displacement: parse_disp()?,
                chaos,
                chaos_seed,
                retries,
                deadline_ms,
                drivers,
                open_rate,
                events_per_session,
                scale_curve: flag_val("--scale-curve").map(str::to_string),
                output: flag_val("-o").map(str::to_string),
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command '{other}' (try 'ibpower help')")),
    }
}

/// Every exhibit name the `exhibits` subcommand accepts besides `all`,
/// in registry order.
fn exhibit_names() -> Vec<&'static str> {
    ibp_analysis::EXHIBITS.iter().map(|e| e.name).collect()
}

/// The `help` text, with the registry's exhibit names filled in.
pub fn usage() -> String {
    USAGE.replace("{exhibits}", &format!("all, {}", exhibit_names().join(", ")))
}

/// The `help` text template; [`usage`] fills in `{exhibits}`.
const USAGE: &str = "\
ibpower — software-managed InfiniBand link power reduction (ICPP 2014 reproduction)

USAGE:
  ibpower generate <app> <nprocs> [--seed N] [--weak] [-o trace.json]
  ibpower inspect  <trace.json>
  ibpower annotate <trace.json> [--gt US] [--disp F] [--resilient] [--budget PCT]
                   [-o ann.json]
  ibpower replay   <trace.json> [--ann ann.json] [--fault-rate F] [--fault-seed N]
                   [--timeline]
  ibpower experiment <app> <nprocs> [--gt US] [--disp F] [--seed N]
                   [--fault-rate F] [--fault-seed N] [--resilient] [--budget PCT]
  ibpower prv      <trace.json> [-o out.prv]
  ibpower exhibits <name> [--jobs N] [--serial] [--seed N] [--out DIR]
  ibpower bench-report [-o PATH] [--check] [--iters N] [--reps N] [--label S]
  ibpower serve    (--uds PATH | --tcp ADDR) [--workers N] [--io-threads N]
                   [--queue N] [--stats-every N] [--session-limit N]
                   [--store DIR] [--persist-every N] [--max-hot-sessions N]
                   [--write-queue N] [--idle-timeout-ms N]
                   [--write-timeout-ms N] [--metrics-addr ADDR]
  ibpower load     <app> <nprocs> (--uds PATH | --tcp ADDR) [--sessions N]
                   [--batch N] [--seed N] [--split F] [--check] [--gt US]
                   [--disp F] [--chaos F] [--chaos-seed N] [--retries N]
                   [--deadline-ms N] [--drivers N] [--open-rate N]
                   [--events-per-session N] [--scale-curve PATH]
                   [-o report.json]
  ibpower stat     (--uds PATH | --tcp ADDR) [--session N]
  ibpower top      (--uds PATH | --tcp ADDR) [--interval-ms N] [--once]

APPS: gromacs, alya, wrf, nas-bt, nas-mg (nas-bt needs square nprocs)

EXHIBITS: {exhibits}
  — the paper's Tables I–IV (params = Table II) and Figs. 7–10, then the
  studies beyond it, run on the parallel sweep engine (traces and
  baselines memoized per key; results are byte-identical for any --jobs
  value). `all` runs every exhibit on one shared engine and also writes
  summary.txt with every rendered table. --jobs N sets the worker count
  (default: IBP_JOBS, else all cores); --serial forces the in-thread
  path; --out DIR overrides the results directory (default:
  IBP_RESULTS_DIR or results/). Each exhibit writes <name>.json (figures
  also SVGs) and a <name>.stats.json with its cache counters.
  generation_frontier sweeps the five apps across IB generations
  (QDR/FDR/EDR/HDR) × three sleep policies (wrps, deep, full depth
  ladder) and reports each point's savings, slowdown, and whole-switch
  saving.

FAULTS & RESILIENCE:
  --fault-rate F   inject link faults (wake misfires, flaps, 1X degrades)
                   scaled by F; 0 disables (default)
  --fault-seed N   deterministic fault stream seed (default 0xFA17)
  --resilient      enable misprediction-storm backoff + adaptive guard band
  --budget PCT     cap mechanism-added time at PCT% of nominal (implies
                   --resilient)

SERVE & LOAD: `serve` runs the online streaming prediction service — each
  connected session feeds intercepted MPI events over the CRC-checked
  length-prefixed frame protocol and gets lane directives streamed back;
  sessions may snapshot, reconnect, and restore without re-learning.
  `load` generates a workload trace and drives its ranks' event streams as
  concurrent sessions, reporting aggregate throughput and p50/p99/max
  directive latency; --check verifies the streamed directives are
  byte-identical to the offline annotate path and exits non-zero on
  mismatch; --split F exercises the snapshot/reconnect/restore path at
  fraction F of each stream; --sessions beyond <nprocs> wrap around the
  trace's ranks.

DURABILITY & CHAOS:
  --store DIR        persist session state (snapshot + directive history)
                     to DIR — atomic, CRC-checked records; on restart the
                     server rehydrates sessions and clients resume via an
                     empty-body Restore. SIGINT/SIGTERM drain gracefully,
                     flushing every live session first.
  --persist-every N  store-backed sessions also persist every N applied
                     events (default 256; 0 = only on close/drain)
  --write-queue N    outbound frames buffered per connection before the
                     oldest are shed with an in-band overload error
                     (default 256) — a client that stops reading can no
                     longer stall the worker pool
  --idle-timeout-ms / --write-timeout-ms
                     reap dead/stuck connections (defaults 0 = off, 30000)
  --chaos F          (load) wrap every connection in the seeded fault
                     injector at intensity F: partial writes, short reads,
                     stalls, resets, bit flips. The resilient client
                     reconnects with capped exponential backoff and
                     restores from the server's store (or replays from the
                     start), so --chaos --check must still end in parity.
  --chaos-seed N     deterministic fault streams (default 0xC4A05EED)
  --retries N        consecutive failed attempts before a session gives
                     up (default 8; gave-up sessions are reported in the
                     load summary, and force a --check failure)
  --deadline-ms N    per-request response deadline (default 10000)

SCALE: the serve IO layer is a readiness-driven epoll reactor — connection
  count costs a session table entry, not a thread. --io-threads N sets the
  event-loop pool (default 2). --max-hot-sessions N (with --store) caps
  in-memory session engines: least-recently-touched engines are evicted to
  the snapshot store and transparently rehydrated on their next event, so
  resident memory tracks the hot set, not the session count. On the load
  side, --drivers N multiplexes all --sessions over N connections
  (incompatible with --split/--chaos), --open-rate N paces session opens
  per second, --events-per-session N truncates each stream for a
  mostly-idle mix, and --scale-curve PATH appends a
  {sessions, events_per_sec, latency_p99_us} point to the `scaling`
  section of that benchmark JSON (e.g. BENCH_serve.json).

OBSERVABILITY: `serve --metrics-addr ADDR` exposes every server counter
  and gauge in Prometheus text format over plain HTTP (scrape any path).
  `stat` connects, sends one in-band Query frame, and prints an
  ibstat-style per-link table: power state, lane width, signalling rate,
  pattern/timing mispredictions, resilience windows, fault-injection
  rate. `top` refreshes that view every --interval-ms (default 1000);
  --once renders a single frame for scripts. Queries are answered on the
  connection reader, out of band of the session work queues, so probing
  a busy server never perturbs its streams.

BENCH-REPORT: time the hot paths (PMPI interception, PPA scan, replay at
  8/16/128 ranks, rank-parallel annotation, GT sweep, serve round trip)
  and append an entry to the trajectory JSON (default BENCH_hotpath.json).
  --check exits non-zero if intercept-path ns/call regressed more than 25%
  against the file's last entry, or a serve, replay or sweep probe more
  than 50% when the baseline entry records it (the CI smoke gate); --label
  names the entry; --iters/--reps set probe scale.

DEFAULTS: --seed 0xD1C0, --gt 20 (µs), --disp 0.01
";

/// The `PowerConfig` for CLI parameters.
pub fn power_config(gt_us: f64, displacement: f64) -> ibp_core::PowerConfig {
    ibp_core::PowerConfig::paper(SimDuration::from_us_f64(gt_us), displacement)
}

/// [`power_config`] plus the CLI's resilience knobs: `--budget PCT`
/// overrides the standard slowdown budget and implies `--resilient`.
pub fn power_config_resilient(
    gt_us: f64,
    displacement: f64,
    resilient: bool,
    budget: Option<f64>,
) -> ibp_core::PowerConfig {
    let cfg = power_config(gt_us, displacement);
    match (resilient, budget) {
        (_, Some(pct)) => cfg.with_resilience(ibp_core::ResilienceConfig::with_budget(pct)),
        (true, None) => cfg.with_resilience(ibp_core::ResilienceConfig::standard()),
        (false, None) => cfg,
    }
}

/// The CLI's `FaultConfig` for `--fault-rate` / `--fault-seed`: `None`
/// when the rate is zero (fault-free replay).
pub fn fault_config(fault_rate: f64, fault_seed: u64) -> Option<ibp_network::FaultConfig> {
    (fault_rate > 0.0).then(|| ibp_network::FaultConfig::with_rate(fault_seed, fault_rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_generate() {
        let c = parse(&argv("generate alya 8 --seed 7 -o t.json")).unwrap();
        assert_eq!(
            c,
            Command::Generate {
                app: "alya".into(),
                nprocs: 8,
                seed: 7,
                weak: false,
                output: Some("t.json".into()),
            }
        );
    }

    #[test]
    fn parses_weak_flag() {
        let c = parse(&argv("generate nas-bt 16 --weak")).unwrap();
        match c {
            Command::Generate { weak, seed, .. } => {
                assert!(weak);
                assert_eq!(seed, 0xD1C0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_app() {
        assert!(parse(&argv("generate lammps 8")).unwrap_err().contains("unknown app"));
    }

    #[test]
    fn parses_annotate_with_defaults() {
        let c = parse(&argv("annotate t.json")).unwrap();
        assert_eq!(
            c,
            Command::Annotate {
                trace: "t.json".into(),
                gt_us: 20.0,
                displacement: 0.01,
                resilient: false,
                budget: None,
                output: None,
            }
        );
    }

    #[test]
    fn parses_replay_with_ann() {
        let c = parse(&argv("replay t.json --ann a.json --timeline")).unwrap();
        assert_eq!(
            c,
            Command::Replay {
                trace: "t.json".into(),
                ann: Some("a.json".into()),
                fault_rate: 0.0,
                fault_seed: 0xFA17,
                timeline: true,
            }
        );
    }

    #[test]
    fn parses_experiment() {
        let c = parse(&argv("experiment wrf 32 --gt 36 --disp 0.05")).unwrap();
        assert_eq!(
            c,
            Command::Experiment {
                app: "wrf".into(),
                nprocs: 32,
                gt_us: 36.0,
                displacement: 0.05,
                seed: 0xD1C0,
                fault_rate: 0.0,
                fault_seed: 0xFA17,
                resilient: false,
                budget: None,
            }
        );
    }

    #[test]
    fn parses_fault_flags() {
        let c = parse(&argv("replay t.json --fault-rate 10 --fault-seed 42")).unwrap();
        match c {
            Command::Replay {
                fault_rate,
                fault_seed,
                ..
            } => {
                assert_eq!(fault_rate, 10.0);
                assert_eq!(fault_seed, 42);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("replay t.json --fault-rate -1"))
            .unwrap_err()
            .contains("bad --fault-rate"));
    }

    #[test]
    fn parses_resilience_flags() {
        let c = parse(&argv("annotate t.json --resilient --budget 1.5")).unwrap();
        match c {
            Command::Annotate {
                resilient, budget, ..
            } => {
                assert!(resilient);
                assert_eq!(budget, Some(1.5));
            }
            other => panic!("{other:?}"),
        }
        // Value flags must not leak into positionals: trace is still found.
        let c = parse(&argv("experiment alya 8 --fault-rate 5 --resilient")).unwrap();
        match c {
            Command::Experiment {
                app,
                nprocs,
                fault_rate,
                resilient,
                ..
            } => {
                assert_eq!(app, "alya");
                assert_eq!(nprocs, 8);
                assert_eq!(fault_rate, 5.0);
                assert!(resilient);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resilient_config_wiring() {
        assert!(!power_config_resilient(20.0, 0.01, false, None).resilience.enabled);
        assert!(power_config_resilient(20.0, 0.01, true, None).resilience.enabled);
        let c = power_config_resilient(20.0, 0.01, false, Some(3.0));
        assert!(c.resilience.enabled, "--budget implies --resilient");
        assert_eq!(c.resilience.slowdown_budget_pct, 3.0);
        assert!(fault_config(0.0, 7).is_none());
        let f = fault_config(2.0, 7).expect("rate > 0 builds a config");
        assert_eq!(f.seed, 7);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn parses_exhibits() {
        let c = parse(&argv("exhibits table3 --jobs 4 --seed 9 --out tmp/r")).unwrap();
        assert_eq!(
            c,
            Command::Exhibits {
                name: "table3".into(),
                jobs: 4,
                serial: false,
                seed: 9,
                out: Some("tmp/r".into()),
            }
        );
        match parse(&argv("exhibits generation_frontier --jobs 2")).unwrap() {
            Command::Exhibits { name, jobs, .. } => {
                assert_eq!(name, "generation_frontier");
                assert_eq!(jobs, 2);
            }
            other => panic!("{other:?}"),
        }
        let c = parse(&argv("exhibits all --serial")).unwrap();
        match c {
            Command::Exhibits {
                name, jobs, serial, ..
            } => {
                assert_eq!(name, "all");
                assert_eq!(jobs, 0);
                assert!(serial);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exhibits_rejects_bad_input() {
        assert!(parse(&argv("exhibits")).is_err());
        let err = parse(&argv("exhibits fig11")).unwrap_err();
        assert!(err.contains("unknown exhibit"), "{err}");
        for e in ibp_analysis::EXHIBITS {
            assert!(err.contains(e.name), "error must list '{}': {err}", e.name);
            assert!(parse(&argv(&format!("exhibits {}", e.name))).is_ok());
        }
        assert!(parse(&argv("exhibits all --jobs 0"))
            .unwrap_err()
            .contains("bad --jobs"));
    }

    #[test]
    fn parses_bench_report() {
        let c = parse(&argv("bench-report")).unwrap();
        assert_eq!(
            c,
            Command::BenchReport {
                output: "BENCH_hotpath.json".into(),
                check: false,
                iters: 2000,
                reps: 5,
                label: None,
            }
        );
        let c = parse(&argv("bench-report -o t.json --check --iters 500 --reps 3 --label pr"))
            .unwrap();
        assert_eq!(
            c,
            Command::BenchReport {
                output: "t.json".into(),
                check: true,
                iters: 500,
                reps: 3,
                label: Some("pr".into()),
            }
        );
        assert!(parse(&argv("bench-report --iters 2"))
            .unwrap_err()
            .contains("bad --iters"));
        assert!(parse(&argv("bench-report --reps 0"))
            .unwrap_err()
            .contains("bad --reps"));
    }

    #[test]
    fn parses_serve() {
        let c = parse(&argv("serve --uds /tmp/ibp.sock")).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                endpoint: EndpointSpec::Uds("/tmp/ibp.sock".into()),
                workers: 4,
                io_threads: 2,
                max_hot_sessions: None,
                queue: 64,
                stats_every: 0,
                session_limit: None,
                store: None,
                persist_every: 256,
                write_queue: 256,
                idle_timeout_ms: 0,
                write_timeout_ms: 30_000,
                metrics_addr: None,
            }
        );
        let c = parse(&argv(
            "serve --tcp 127.0.0.1:9400 --workers 2 --queue 16 --stats-every 500 --session-limit 8",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                endpoint: EndpointSpec::Tcp("127.0.0.1:9400".into()),
                workers: 2,
                io_threads: 2,
                max_hot_sessions: None,
                queue: 16,
                stats_every: 500,
                session_limit: Some(8),
                store: None,
                persist_every: 256,
                write_queue: 256,
                idle_timeout_ms: 0,
                write_timeout_ms: 30_000,
                metrics_addr: None,
            }
        );
    }

    #[test]
    fn parses_serve_scale_flags() {
        let c = parse(&argv(
            "serve --uds a.sock --io-threads 4 --max-hot-sessions 1000 --store /var/ibp",
        ))
        .unwrap();
        match c {
            Command::Serve { io_threads, max_hot_sessions, store, .. } => {
                assert_eq!(io_threads, 4);
                assert_eq!(max_hot_sessions, Some(1_000));
                assert_eq!(store.as_deref(), Some("/var/ibp"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --uds a.sock --io-threads 0"))
            .unwrap_err()
            .contains("bad --io-threads"));
        assert!(parse(&argv("serve --uds a.sock --max-hot-sessions 0"))
            .unwrap_err()
            .contains("bad --max-hot-sessions"));
    }

    #[test]
    fn parses_serve_metrics_addr() {
        let c = parse(&argv("serve --uds a.sock --metrics-addr 127.0.0.1:9401")).unwrap();
        match c {
            Command::Serve { metrics_addr, .. } => {
                assert_eq!(metrics_addr.as_deref(), Some("127.0.0.1:9401"));
            }
            other => panic!("{other:?}"),
        }
        // --metrics-addr takes a value: it must not leak into positionals.
        assert!(parse(&argv("serve --metrics-addr 127.0.0.1:9401 --uds a.sock")).is_ok());
    }

    #[test]
    fn parses_stat_and_top() {
        let c = parse(&argv("stat --tcp 127.0.0.1:9400")).unwrap();
        assert_eq!(
            c,
            Command::Stat {
                endpoint: EndpointSpec::Tcp("127.0.0.1:9400".into()),
                session: None,
            }
        );
        let c = parse(&argv("stat --uds a.sock --session 3")).unwrap();
        assert_eq!(
            c,
            Command::Stat {
                endpoint: EndpointSpec::Uds("a.sock".into()),
                session: Some(3),
            }
        );
        let c = parse(&argv("top --uds a.sock")).unwrap();
        assert_eq!(
            c,
            Command::Top {
                endpoint: EndpointSpec::Uds("a.sock".into()),
                interval_ms: 1_000,
                once: false,
            }
        );
        let c = parse(&argv("top --tcp [::1]:9400 --interval-ms 250 --once")).unwrap();
        assert_eq!(
            c,
            Command::Top {
                endpoint: EndpointSpec::Tcp("[::1]:9400".into()),
                interval_ms: 250,
                once: true,
            }
        );
        assert!(parse(&argv("stat")).unwrap_err().contains("missing endpoint"));
        assert!(parse(&argv("stat --uds a.sock --session x"))
            .unwrap_err()
            .contains("bad --session"));
        assert!(parse(&argv("top --uds a.sock --interval-ms 0"))
            .unwrap_err()
            .contains("bad --interval-ms"));
    }

    #[test]
    fn parses_serve_durability_flags() {
        let c = parse(&argv(
            "serve --uds /tmp/ibp.sock --store /var/ibp --persist-every 64 \
             --write-queue 32 --idle-timeout-ms 5000 --write-timeout-ms 1000",
        ))
        .unwrap();
        match c {
            Command::Serve {
                store,
                persist_every,
                write_queue,
                idle_timeout_ms,
                write_timeout_ms,
                ..
            } => {
                assert_eq!(store.as_deref(), Some("/var/ibp"));
                assert_eq!(persist_every, 64);
                assert_eq!(write_queue, 32);
                assert_eq!(idle_timeout_ms, 5_000);
                assert_eq!(write_timeout_ms, 1_000);
            }
            other => panic!("{other:?}"),
        }
        // --store takes a value: it must not swallow a later flag, and
        // its argument must not leak into the positional list.
        assert!(parse(&argv("serve --store d --uds a.sock")).is_ok());
        assert!(parse(&argv("serve --uds a.sock --write-queue 0"))
            .unwrap_err()
            .contains("bad --write-queue"));
        assert!(parse(&argv("serve --uds a.sock --persist-every x"))
            .unwrap_err()
            .contains("bad --persist-every"));
    }

    #[test]
    fn serve_rejects_bad_endpoints() {
        assert!(parse(&argv("serve"))
            .unwrap_err()
            .contains("missing endpoint"));
        assert!(parse(&argv("serve --uds a.sock --tcp 1.2.3.4:5"))
            .unwrap_err()
            .contains("not both"));
        assert!(parse(&argv("serve --uds a.sock --workers 0"))
            .unwrap_err()
            .contains("bad --workers"));
        assert!(parse(&argv("serve --uds a.sock --session-limit 0"))
            .unwrap_err()
            .contains("bad --session-limit"));
    }

    #[test]
    fn parses_load() {
        let c = parse(&argv("load alya 8 --uds /tmp/ibp.sock")).unwrap();
        assert_eq!(
            c,
            Command::Load {
                app: "alya".into(),
                nprocs: 8,
                endpoint: EndpointSpec::Uds("/tmp/ibp.sock".into()),
                sessions: 8,
                batch: 64,
                seed: 0xD1C0,
                split: None,
                check: false,
                gt_us: 20.0,
                displacement: 0.01,
                chaos: None,
                chaos_seed: 0xC4A0_5EED,
                retries: 8,
                deadline_ms: 10_000,
                drivers: 0,
                open_rate: 0,
                events_per_session: 0,
                scale_curve: None,
                output: None,
            }
        );
        let c = parse(&argv(
            "load wrf 32 --tcp [::1]:9400 --sessions 16 --batch 128 --seed 3 \
             --split 0.5 --check --gt 36 --disp 0.05 -o rep.json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Load {
                app: "wrf".into(),
                nprocs: 32,
                endpoint: EndpointSpec::Tcp("[::1]:9400".into()),
                sessions: 16,
                batch: 128,
                seed: 3,
                split: Some(0.5),
                check: true,
                gt_us: 36.0,
                displacement: 0.05,
                chaos: None,
                chaos_seed: 0xC4A0_5EED,
                retries: 8,
                deadline_ms: 10_000,
                drivers: 0,
                open_rate: 0,
                events_per_session: 0,
                scale_curve: None,
                output: Some("rep.json".into()),
            }
        );
    }

    #[test]
    fn parses_load_scale_flags() {
        let c = parse(&argv(
            "load alya 8 --uds a.sock --sessions 10000 --drivers 16 --open-rate 2000 \
             --events-per-session 96 --scale-curve BENCH_serve.json",
        ))
        .unwrap();
        match c {
            Command::Load { sessions, drivers, open_rate, events_per_session, scale_curve, .. } => {
                assert_eq!(sessions, 10_000);
                assert_eq!(drivers, 16);
                assert_eq!(open_rate, 2_000);
                assert_eq!(events_per_session, 96);
                assert_eq!(scale_curve.as_deref(), Some("BENCH_serve.json"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("load alya 8 --uds a.sock --drivers x"))
            .unwrap_err()
            .contains("bad --drivers"));
        assert!(parse(&argv("load alya 8 --uds a.sock --open-rate x"))
            .unwrap_err()
            .contains("bad --open-rate"));
    }

    #[test]
    fn parses_load_chaos_flags() {
        let c = parse(&argv(
            "load alya 8 --uds a.sock --chaos 0.3 --chaos-seed 7 --retries 3 --deadline-ms 500",
        ))
        .unwrap();
        match c {
            Command::Load { chaos, chaos_seed, retries, deadline_ms, .. } => {
                assert_eq!(chaos, Some(0.3));
                assert_eq!(chaos_seed, 7);
                assert_eq!(retries, 3);
                assert_eq!(deadline_ms, 500);
            }
            other => panic!("{other:?}"),
        }
        for bad in ["0", "1.5", "-0.1", "nan"] {
            assert!(
                parse(&argv(&format!("load alya 8 --uds a.sock --chaos {bad}")))
                    .unwrap_err()
                    .contains("bad --chaos"),
                "--chaos {bad} should be rejected"
            );
        }
        assert!(parse(&argv("load alya 8 --uds a.sock --retries 0"))
            .unwrap_err()
            .contains("bad --retries"));
    }

    #[test]
    fn load_rejects_bad_input() {
        // Endpoint flags must not swallow positionals: app/nprocs parse.
        assert!(parse(&argv("load --uds a.sock alya 8")).is_ok());
        assert!(parse(&argv("load alya 8")).unwrap_err().contains("missing endpoint"));
        assert!(parse(&argv("load lammps 8 --uds a.sock"))
            .unwrap_err()
            .contains("unknown app"));
        for bad in ["0", "1", "-0.5", "nan"] {
            assert!(
                parse(&argv(&format!("load alya 8 --uds a.sock --split {bad}")))
                    .unwrap_err()
                    .contains("bad --split"),
                "--split {bad} should be rejected"
            );
        }
        assert!(parse(&argv("load alya 8 --uds a.sock --sessions 0"))
            .unwrap_err()
            .contains("bad --sessions"));
    }

    #[test]
    fn endpoint_spec_converts() {
        let e = EndpointSpec::Uds("/tmp/x.sock".into()).to_endpoint();
        assert!(matches!(e, ibp_serve::Endpoint::Unix(_)));
        let e = EndpointSpec::Tcp("127.0.0.1:1".into()).to_endpoint();
        assert!(matches!(e, ibp_serve::Endpoint::Tcp(_)));
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse(&argv(h)).unwrap(), Command::Help);
        }
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn missing_positionals_error() {
        assert!(parse(&argv("generate")).is_err());
        assert!(parse(&argv("generate alya")).is_err());
        assert!(parse(&argv("inspect")).is_err());
    }
}
