//! # ibpower-cli — command-line front end
//!
//! A small, dependency-free argument layer over the `ibpower` workspace;
//! [`usage`] is the full command reference. Each subcommand declares
//! its positionals, valued flags and switches once; one reader checks an
//! argument list against that declaration and rejects anything
//! undeclared, and typed reads turn the values into the library's own
//! config types ([`PowerConfig`], [`ServeConfig`], [`LoadConfig`], …).
//!
//! The parsing layer is exposed as a library so it can be unit-tested
//! without spawning processes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ibp_analysis::{exhibits::SEED, Exhibit, SweepOptions, EXHIBITS};
use ibp_core::{PowerConfig, ResilienceConfig};
use ibp_network::FaultConfig;
use ibp_serve::{ChaosConfig, Endpoint, LoadConfig, RetryPolicy, ServeConfig};
use ibp_simcore::SimDuration;
use ibp_workloads::{AppKind, Scaling};
use std::fmt::Display;
use std::str::FromStr;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a workload trace.
    Generate {
        /// Application.
        app: AppKind,
        /// Rank count.
        nprocs: u32,
        /// Generation seed.
        seed: u64,
        /// Strong scaling, or weak with `--weak`.
        scaling: Scaling,
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
        /// Runtime configuration, resilience controller included.
        power: PowerConfig,
        /// Output path for the annotations JSON.
        output: Option<String>,
    },
    /// Replay a trace (optionally with annotations).
    Replay {
        /// Trace path.
        trace: String,
        /// Annotations path.
        ann: Option<String>,
        /// Link fault injection (`None` = fault-free).
        faults: Option<FaultConfig>,
        /// Render a link-power timeline.
        timeline: bool,
    },
    /// Full pipeline in one shot: generate + annotate + double replay.
    Experiment {
        /// Application.
        app: AppKind,
        /// Rank count.
        nprocs: u32,
        /// Generation seed.
        seed: u64,
        /// Runtime configuration, resilience controller included.
        power: PowerConfig,
        /// Link fault injection (`None` = fault-free).
        faults: Option<FaultConfig>,
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
        /// Worker count (`--jobs N`, else `IBP_JOBS`).
        sweep: SweepOptions,
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
        endpoint: Endpoint,
        /// Server tuning.
        config: ServeConfig,
        /// Durable snapshot store directory (crash recovery; required
        /// by `config.max_hot_sessions`).
        store: Option<String>,
    },
    /// Drive a workload's event streams against a running server.
    Load {
        /// Application.
        app: AppKind,
        /// Rank count.
        nprocs: u32,
        /// Generation seed.
        seed: u64,
        /// Server endpoint to connect to.
        endpoint: Endpoint,
        /// Concurrent sessions to drive.
        sessions: usize,
        /// Runtime configuration each session opens with.
        power: PowerConfig,
        /// Load-generator knobs.
        config: LoadConfig,
        /// The `--chaos` intensity as given, echoed in the summary
        /// (`config.chaos` holds the fault mix derived from it).
        chaos: Option<f64>,
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
        endpoint: Endpoint,
        /// Probe only this session id (absent = the whole fleet).
        session: Option<u32>,
    },
    /// Refreshing live view of a running server (`--once` for scripts).
    Top {
        /// Server endpoint to query.
        endpoint: Endpoint,
        /// Refresh interval, milliseconds.
        interval_ms: u64,
        /// Render a single frame and exit (no screen clearing).
        once: bool,
    },
    /// Print usage.
    Help,
}

/// Parse a command line (without the program name). Every error names
/// the subcommand, and the flag or argument at fault.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("help", args),
    };
    let cmd = if matches!(cmd, "--help" | "-h") {
        "help"
    } else {
        cmd
    };
    let spec = COMMANDS
        .iter()
        .find(|s| s.0 == cmd)
        .ok_or_else(|| format!("unknown command '{cmd}' (try 'ibpower help')"))?;
    Args::read(spec, rest)
        .and_then(|a| a.command())
        .map_err(|e| format!("{cmd}: {e}"))
}

/// One subcommand's declaration: its name, then its required
/// positionals, its valued flags and its switches, each list
/// space-separated.
struct Spec(&'static str, &'static str, &'static str, &'static str);

/// Every subcommand, each with its one flag list.
const COMMANDS: &[Spec] = &[
    Spec("generate", "<app> <nprocs>", "--seed -o", "--weak"),
    Spec("inspect", "<trace.json>", "", ""),
    Spec(
        "annotate",
        "<trace.json>",
        "--gt --disp --budget -o",
        "--resilient",
    ),
    Spec(
        "replay",
        "<trace.json>",
        "--ann --fault-rate --fault-seed",
        "--timeline",
    ),
    Spec(
        "experiment",
        "<app> <nprocs>",
        "--gt --disp --seed --fault-rate --fault-seed --budget",
        "--resilient",
    ),
    Spec("prv", "<trace.json>", "-o", ""),
    Spec("exhibits", "<exhibit>", "--jobs --seed --out", ""),
    Spec("bench-report", "", "-o --iters --reps --label", "--check"),
    Spec(
        "serve",
        "",
        "--uds --tcp --workers --io-threads --session-limit --store --persist-every \
         --max-hot-sessions --metrics-addr",
        "",
    ),
    Spec(
        "load",
        "<app> <nprocs>",
        "--uds --tcp --sessions --batch --seed --split --gt --disp --chaos --chaos-seed \
         --retries --deadline-ms --drivers --open-rate --events-per-session --scale-curve -o",
        "--check",
    ),
    Spec("stat", "", "--uds --tcp --session", ""),
    Spec("top", "", "--uds --tcp --interval-ms", "--once"),
    Spec("help", "", "", ""),
];

/// Whether the space-separated `list` names `flag`.
fn declares(list: &str, flag: &str) -> bool {
    list.split_whitespace().any(|f| f == flag)
}

/// An argument list checked against one subcommand's [`Spec`].
struct Args<'a> {
    spec: &'static Spec,
    positional: Vec<&'a str>,
    /// Each flag given, with its value (`None` for a switch).
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Split `args` into positionals and flags. A valued flag consumes
    /// the next token whatever it looks like; an undeclared flag, a
    /// missing value, a repeated flag or a surplus positional is an
    /// error.
    fn read(spec: &'static Spec, args: &'a [String]) -> Result<Self, String> {
        let mut a = Args {
            spec,
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut tokens = args.iter().map(String::as_str);
        while let Some(tok) = tokens.next() {
            let value = if declares(spec.2, tok) {
                Some(
                    tokens
                        .next()
                        .ok_or_else(|| format!("{tok} needs a value"))?,
                )
            } else if declares(spec.3, tok) {
                None
            } else if tok.starts_with('-') {
                return Err(format!("unknown flag '{tok}'"));
            } else if a.positional.len() < spec.1.split_whitespace().count() {
                a.positional.push(tok);
                continue;
            } else {
                return Err(format!("unexpected argument '{tok}'"));
            };
            if a.flags.iter().any(|(f, _)| *f == tok) {
                return Err(format!("{tok} given twice"));
            }
            a.flags.push((tok, value));
        }
        Ok(a)
    }

    /// The [`Command`] the arguments describe.
    fn command(&self) -> Result<Command, String> {
        Ok(match self.spec.0 {
            "generate" => Command::Generate {
                app: self.app()?,
                nprocs: self.nprocs()?,
                seed: self.seed("--seed")?.unwrap_or(SEED),
                scaling: if self.switch("--weak") {
                    Scaling::Weak
                } else {
                    Scaling::Strong
                },
                output: self.string("-o"),
            },
            "inspect" => Command::Inspect {
                trace: self.pos(0)?.into(),
            },
            "annotate" => Command::Annotate {
                trace: self.pos(0)?.into(),
                power: self.power()?,
                output: self.string("-o"),
            },
            "replay" => Command::Replay {
                trace: self.pos(0)?.into(),
                ann: self.string("--ann"),
                faults: self.faults()?,
                timeline: self.switch("--timeline"),
            },
            "experiment" => Command::Experiment {
                app: self.app()?,
                nprocs: self.nprocs()?,
                seed: self.seed("--seed")?.unwrap_or(SEED),
                power: self.power()?,
                faults: self.faults()?,
            },
            "prv" => Command::Prv {
                trace: self.pos(0)?.into(),
                output: self.string("-o"),
            },
            "exhibits" => {
                let names = || format!("(all|{})", exhibit_names().join("|"));
                let name = self.pos(0).map_err(|e| format!("{e} {}", names()))?;
                if name != "all" && Exhibit::find(name).is_none() {
                    return Err(format!("unknown exhibit '{name}' {}", names()));
                }
                Command::Exhibits {
                    name: name.into(),
                    sweep: match self.at_least("--jobs", 1)? {
                        Some(n) => SweepOptions::with_jobs(n),
                        None => SweepOptions::from_env()?,
                    },
                    seed: self.seed("--seed")?.unwrap_or(SEED),
                    out: self.string("--out"),
                }
            }
            "bench-report" => Command::BenchReport {
                output: self
                    .string("-o")
                    .unwrap_or_else(|| "BENCH_hotpath.json".into()),
                check: self.switch("--check"),
                iters: self.at_least("--iters", 10)?.unwrap_or(2000),
                reps: self.at_least("--reps", 1)?.unwrap_or(5),
                label: self.string("--label"),
            },
            "serve" => {
                let d = ServeConfig::default();
                let config = ServeConfig {
                    workers: self.at_least("--workers", 1)?.unwrap_or(d.workers),
                    io_threads: self.at_least("--io-threads", 1)?.unwrap_or(d.io_threads),
                    session_limit: self.at_least("--session-limit", 1)?,
                    persist_every: self.num("--persist-every")?.unwrap_or(d.persist_every),
                    max_hot_sessions: self.at_least("--max-hot-sessions", 1)?,
                    metrics_addr: self.string("--metrics-addr"),
                    ..d
                };
                let store = self.string("--store");
                if config.max_hot_sessions.is_some() && store.is_none() {
                    return Err(
                        "--max-hot-sessions needs --store (evicted engines live there)".into(),
                    );
                }
                Command::Serve {
                    endpoint: self.endpoint()?,
                    config,
                    store,
                }
            }
            "load" => {
                let d = LoadConfig::default();
                let chaos = self.get("--chaos", |f| *f > 0.0 && *f <= 1.0, " (need 0 < F <= 1)")?;
                let chaos_seed = self.seed("--chaos-seed")?.unwrap_or(0xC4A0_5EED);
                let config = LoadConfig {
                    batch: self.at_least("--batch", 1)?.unwrap_or(d.batch),
                    split: self.get("--split", |f| *f > 0.0 && *f < 1.0, " (need 0 < F < 1)")?,
                    check: self.switch("--check"),
                    chaos: chaos.map(|f| ChaosConfig::with_intensity(chaos_seed, f)),
                    retry: RetryPolicy {
                        max_attempts: self
                            .at_least("--retries", 1)?
                            .unwrap_or(d.retry.max_attempts),
                        deadline_ms: self.num("--deadline-ms")?.unwrap_or(d.retry.deadline_ms),
                        ..d.retry
                    },
                    // 0 means one driver per session / unlimited.
                    drivers: self.num("--drivers")?.unwrap_or(d.drivers),
                    open_rate: self.num("--open-rate")?.unwrap_or(d.open_rate),
                };
                // Parity goldens come from annotating the full rank, so
                // a truncated stream cannot be checked against them.
                let events_per_session = self.num("--events-per-session")?.unwrap_or(0);
                if events_per_session > 0 && config.check {
                    return Err(
                        "--events-per-session truncates streams; offline goldens cover \
                         full ranks only, so combining it with --check would compare \
                         against the wrong reference"
                            .into(),
                    );
                }
                Command::Load {
                    app: self.app()?,
                    nprocs: self.nprocs()?,
                    seed: self.seed("--seed")?.unwrap_or(SEED),
                    endpoint: self.endpoint()?,
                    sessions: self.at_least("--sessions", 1)?.unwrap_or(8),
                    power: self.power()?,
                    config,
                    chaos,
                    events_per_session,
                    scale_curve: self.string("--scale-curve"),
                    output: self.string("-o"),
                }
            }
            "stat" => Command::Stat {
                endpoint: self.endpoint()?,
                session: self.num("--session")?,
            },
            "top" => Command::Top {
                endpoint: self.endpoint()?,
                interval_ms: self.at_least("--interval-ms", 1)?.unwrap_or(1_000),
                once: self.switch("--once"),
            },
            "help" => Command::Help,
            other => unreachable!("subcommand {other} is declared but never built"),
        })
    }

    /// Positional `i`.
    fn pos(&self, i: usize) -> Result<&'a str, String> {
        let name = || self.spec.1.split_whitespace().nth(i).unwrap_or("argument");
        self.positional
            .get(i)
            .copied()
            .ok_or_else(|| format!("missing {}", name()))
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        debug_assert!(declares(self.spec.2, flag), "{flag} undeclared");
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| *v)
    }

    fn string(&self, flag: &str) -> Option<String> {
        self.value(flag).map(str::to_string)
    }

    fn switch(&self, flag: &str) -> bool {
        debug_assert!(declares(self.spec.3, flag), "{flag} undeclared");
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// `flag`'s value parsed as `T` and accepted by `ok` (`need` states
    /// the condition in the error); `None` when the flag is absent.
    fn get<T: FromStr>(
        &self,
        flag: &str,
        ok: impl Fn(&T) -> bool,
        need: &str,
    ) -> Result<Option<T>, String> {
        let bad = |s| format!("bad {flag}{need}: {s}");
        self.value(flag)
            .map(|s| s.parse().ok().filter(&ok).ok_or_else(|| bad(s)))
            .transpose()
    }

    fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag, |_| true, "")
    }

    fn at_least<T: FromStr + PartialOrd + Display>(
        &self,
        flag: &str,
        min: T,
    ) -> Result<Option<T>, String> {
        self.get(flag, |v| *v >= min, &format!(" (need >= {min})"))
    }

    /// A seed: decimal, or hex with a `0x` prefix (the form `help`
    /// prints the defaults in).
    fn seed(&self, flag: &str) -> Result<Option<u64>, String> {
        let Some(s) = self.value(flag) else {
            return Ok(None);
        };
        match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        }
        .map(Some)
        .map_err(|_| format!("bad {flag}: {s}"))
    }

    fn app(&self) -> Result<AppKind, String> {
        let names = || format!("({})", AppKind::ALL.map(AppKind::name).join("|"));
        let name = self.pos(0).map_err(|e| format!("{e} {}", names()))?;
        AppKind::from_name(name).ok_or_else(|| format!("unknown app '{name}' {}", names()))
    }

    fn nprocs(&self) -> Result<u32, String> {
        self.pos(1)?.parse().map_err(|_| "bad <nprocs>".to_string())
    }

    fn endpoint(&self) -> Result<Endpoint, String> {
        match (self.value("--uds"), self.value("--tcp")) {
            (Some(path), None) => Ok(Endpoint::Unix(path.into())),
            (None, Some(addr)) => Ok(Endpoint::Tcp(addr.into())),
            (Some(_), Some(_)) => Err("give --uds or --tcp, not both".into()),
            (None, None) => Err("missing endpoint: --uds PATH or --tcp ADDR".into()),
        }
    }

    /// The paper's runtime at `--gt`/`--disp`, plus the resilience
    /// controller where the subcommand declares `--resilient`:
    /// `--budget PCT` overrides the standard slowdown budget and
    /// implies `--resilient`.
    fn power(&self) -> Result<PowerConfig, String> {
        let gt = self.get("--gt", |us: &f64| us.is_finite() && *us >= 0.0, "")?;
        let mut cfg = PowerConfig {
            grouping_threshold: SimDuration::from_us_f64(gt.unwrap_or(20.0)),
            displacement: self.num("--disp")?.unwrap_or(0.01),
            ..PowerConfig::default()
        };
        if declares(self.spec.3, "--resilient") {
            let budget = self.get(
                "--budget",
                |b: &f64| b.is_finite() && *b >= 0.0,
                " (need >= 0)",
            )?;
            cfg.resilience = match (self.switch("--resilient"), budget) {
                (_, Some(pct)) => ResilienceConfig::with_budget(pct),
                (true, None) => ResilienceConfig::standard(),
                (false, None) => ResilienceConfig::default(),
            };
        }
        cfg.validate()
            .map_err(|e| format!("bad --gt/--disp: {e}"))?;
        Ok(cfg)
    }

    /// `--fault-rate`/`--fault-seed`: `None` at rate zero (fault-free
    /// replay).
    fn faults(&self) -> Result<Option<FaultConfig>, String> {
        let rate = self.get("--fault-rate", |r: &f64| *r >= 0.0, " (need >= 0)")?;
        let seed = self.seed("--fault-seed")?.unwrap_or(0xFA17);
        Ok(rate
            .filter(|r| *r > 0.0)
            .map(|r| FaultConfig::with_rate(seed, r)))
    }
}

/// Every exhibit name the `exhibits` subcommand accepts besides `all`,
/// in registry order.
fn exhibit_names() -> Vec<&'static str> {
    EXHIBITS.iter().map(|e| e.name).collect()
}

/// The `help` text, with the registry's exhibit names filled in.
pub fn usage() -> String {
    USAGE.replace(
        "{exhibits}",
        &format!("all, {}", exhibit_names().join(", ")),
    )
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
  ibpower exhibits <name> [--jobs N] [--seed N] [--out DIR]
  ibpower bench-report [-o PATH] [--check] [--iters N] [--reps N] [--label S]
  ibpower serve    (--uds PATH | --tcp ADDR) [--workers N] [--io-threads N]
                   [--session-limit N] [--store DIR] [--persist-every N]
                   [--max-hot-sessions N] [--metrics-addr ADDR]
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
  summary.txt with every rendered table. --jobs N runs at most N cells
  at once (default: IBP_JOBS, else all cores; 1 is the in-thread
  path); --out DIR overrides the results directory (default:
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
  --store DIR        persist each session's learned state (its snapshot,
                     with the count and digest of the directives it
                     delivered) to DIR as one atomic, CRC-checked record
                     file per session; on restart the server rehydrates
                     sessions from those files and clients resume via an
                     empty-body Restore. SIGINT/SIGTERM drain gracefully,
                     flushing every live session first.
  --persist-every N  store-backed sessions also persist every N applied
                     events (default 256; 0 = only on close/drain)
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
  (default 0 = one per session; --split and --chaos work at any driver
  count), --open-rate N paces session opens per second,
  --events-per-session N truncates each stream for a mostly-idle mix,
  and --scale-curve PATH appends a
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
  --check instead gates against the file's last entry and writes nothing:
  it exits non-zero if intercept-path ns/call regressed more than 25%, or
  a serve, replay or sweep probe more than 50% when the baseline entry
  records it (the CI smoke gate); --label names the entry; --iters/--reps
  set probe scale.

DEFAULTS: --seed 0xD1C0, --gt 20 (µs), --disp 0.01. Seeds (--seed,
  --fault-seed, --chaos-seed) take decimal or 0x-prefixed hex. Flags are
  strict: a flag the subcommand does not list above, a flag without its
  value, a repeated flag or an extra argument is an error.
";

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// The paper's runtime at `gt_us` and `disp`, as built by the
    /// library rather than the parser.
    fn paper(gt_us: u64, disp: f64) -> PowerConfig {
        PowerConfig::paper(SimDuration::from_us(gt_us), disp)
    }

    fn uds(path: &str) -> Endpoint {
        Endpoint::Unix(path.into())
    }

    /// `load` with every default but the app, rank count and endpoint.
    fn load(app: AppKind, nprocs: u32, endpoint: Endpoint) -> Command {
        Command::Load {
            app,
            nprocs,
            seed: 0xD1C0,
            endpoint,
            sessions: 8,
            power: paper(20, 0.01),
            config: LoadConfig::default(),
            chaos: None,
            events_per_session: 0,
            scale_curve: None,
            output: None,
        }
    }

    #[test]
    fn parses_generate() {
        let c = parse(&argv("generate alya 8 --seed 7 -o t.json")).unwrap();
        assert_eq!(
            c,
            Command::Generate {
                app: AppKind::Alya,
                nprocs: 8,
                seed: 7,
                scaling: Scaling::Strong,
                output: Some("t.json".into()),
            }
        );
    }

    #[test]
    fn parses_weak_flag() {
        let c = parse(&argv("generate nas-bt 16 --weak")).unwrap();
        match c {
            Command::Generate { scaling, seed, .. } => {
                assert_eq!(scaling, Scaling::Weak);
                assert_eq!(seed, 0xD1C0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_app() {
        assert!(parse(&argv("generate lammps 8"))
            .unwrap_err()
            .contains("unknown app"));
    }

    #[test]
    fn parses_annotate_with_defaults() {
        let c = parse(&argv("annotate t.json")).unwrap();
        assert_eq!(
            c,
            Command::Annotate {
                trace: "t.json".into(),
                power: paper(20, 0.01),
                output: None
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
                faults: None,
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
                app: AppKind::Wrf,
                nprocs: 32,
                seed: 0xD1C0,
                power: paper(36, 0.05),
                faults: None,
            }
        );
    }

    #[test]
    fn parses_fault_flags() {
        let c = parse(&argv("replay t.json --fault-rate 10 --fault-seed 42")).unwrap();
        match c {
            Command::Replay { faults, .. } => {
                assert_eq!(faults, Some(FaultConfig::with_rate(42, 10.0)));
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
            Command::Annotate { power, .. } => {
                assert_eq!(power.resilience, ResilienceConfig::with_budget(1.5));
            }
            other => panic!("{other:?}"),
        }
        // Value flags must not leak into positionals: app is still found.
        let c = parse(&argv("experiment alya 8 --fault-rate 5 --resilient")).unwrap();
        match c {
            Command::Experiment {
                app,
                nprocs,
                faults,
                power,
                ..
            } => {
                assert_eq!(app, AppKind::Alya);
                assert_eq!(nprocs, 8);
                assert_eq!(faults, Some(FaultConfig::with_rate(0xFA17, 5.0)));
                assert_eq!(power.resilience, ResilienceConfig::standard());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resilient_config_wiring() {
        let power = |line: &str| match parse(&argv(line)).unwrap() {
            Command::Annotate { power, .. } => power,
            other => panic!("{other:?}"),
        };
        assert!(!power("annotate t.json").resilience.enabled);
        assert!(power("annotate t.json --resilient").resilience.enabled);
        let c = power("annotate t.json --budget 3");
        assert!(c.resilience.enabled, "--budget implies --resilient");
        assert_eq!(c.resilience.slowdown_budget_pct, 3.0);
        let faults = |line: &str| match parse(&argv(line)).unwrap() {
            Command::Replay { faults, .. } => faults,
            other => panic!("{other:?}"),
        };
        assert!(faults("replay t.json --fault-rate 0 --fault-seed 7").is_none());
        let f = faults("replay t.json --fault-rate 2 --fault-seed 7")
            .expect("rate > 0 builds a config");
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
                sweep: SweepOptions::with_jobs(4),
                seed: 9,
                out: Some("tmp/r".into()),
            }
        );
        match parse(&argv("exhibits generation_frontier --jobs 2")).unwrap() {
            Command::Exhibits { name, sweep, .. } => {
                assert_eq!(name, "generation_frontier");
                assert_eq!(sweep.effective_jobs(), 2);
            }
            other => panic!("{other:?}"),
        }
        // --jobs 1 is the serial path; --serial is no longer a flag.
        match parse(&argv("exhibits all --jobs 1")).unwrap() {
            Command::Exhibits { name, sweep, .. } => {
                assert_eq!(name, "all");
                assert_eq!(sweep, SweepOptions::serial());
            }
            other => panic!("{other:?}"),
        }
        for line in ["exhibits all --serial", "exhibits all --jobs 8 --serial"] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(
                err.contains("exhibits") && err.contains("--serial"),
                "{err}"
            );
        }
        match parse(&argv("exhibits all")).unwrap() {
            Command::Exhibits { sweep, .. } => assert_eq!(sweep, SweepOptions::from_env().unwrap()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exhibits_rejects_bad_input() {
        assert!(parse(&argv("exhibits")).is_err());
        let err = parse(&argv("exhibits fig11")).unwrap_err();
        assert!(err.contains("unknown exhibit"), "{err}");
        for e in EXHIBITS {
            assert!(err.contains(e.name), "error must list '{}': {err}", e.name);
            assert!(parse(&argv(&format!("exhibits {}", e.name))).is_ok());
        }
        assert!(parse(&argv("exhibits all --jobs 0"))
            .unwrap_err()
            .contains("bad --jobs"));
        let err = parse(&argv("exhibits all --jobs")).unwrap_err();
        assert!(
            err.contains("exhibits") && err.contains("--jobs needs a value"),
            "{err}"
        );
        let err = parse(&argv("exhibits all --jobs 2 --jobs 2")).unwrap_err();
        assert!(err.contains("--jobs given twice"), "{err}");
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
        let c = parse(&argv(
            "bench-report -o t.json --check --iters 500 --reps 3 --label pr",
        ))
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
                endpoint: uds("/tmp/ibp.sock"),
                config: ServeConfig::default(),
                store: None,
            }
        );
        let c = parse(&argv(
            "serve --tcp 127.0.0.1:9400 --workers 2 --io-threads 3 --session-limit 8",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                endpoint: Endpoint::Tcp("127.0.0.1:9400".into()),
                config: ServeConfig {
                    workers: 2,
                    io_threads: 3,
                    session_limit: Some(8),
                    ..ServeConfig::default()
                },
                store: None,
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
            Command::Serve { config, store, .. } => {
                assert_eq!(config.io_threads, 4);
                assert_eq!(config.max_hot_sessions, Some(1_000));
                assert_eq!(store.as_deref(), Some("/var/ibp"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --uds a.sock --io-threads 0"))
            .unwrap_err()
            .contains("bad --io-threads"));
        assert!(
            parse(&argv("serve --uds a.sock --store d --max-hot-sessions 0"))
                .unwrap_err()
                .contains("bad --max-hot-sessions")
        );
        assert!(parse(&argv("serve --uds a.sock --max-hot-sessions 8"))
            .unwrap_err()
            .contains("--max-hot-sessions needs --store"));
    }

    #[test]
    fn parses_serve_metrics_addr() {
        let c = parse(&argv("serve --uds a.sock --metrics-addr 127.0.0.1:9401")).unwrap();
        match c {
            Command::Serve { config, .. } => {
                assert_eq!(config.metrics_addr.as_deref(), Some("127.0.0.1:9401"));
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
                endpoint: Endpoint::Tcp("127.0.0.1:9400".into()),
                session: None
            }
        );
        let c = parse(&argv("stat --uds a.sock --session 3")).unwrap();
        assert_eq!(
            c,
            Command::Stat {
                endpoint: uds("a.sock"),
                session: Some(3)
            }
        );
        let c = parse(&argv("top --uds a.sock")).unwrap();
        assert_eq!(
            c,
            Command::Top {
                endpoint: uds("a.sock"),
                interval_ms: 1_000,
                once: false
            }
        );
        let c = parse(&argv("top --tcp [::1]:9400 --interval-ms 250 --once")).unwrap();
        assert_eq!(
            c,
            Command::Top {
                endpoint: Endpoint::Tcp("[::1]:9400".into()),
                interval_ms: 250,
                once: true,
            }
        );
        assert!(parse(&argv("stat"))
            .unwrap_err()
            .contains("missing endpoint"));
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
            "serve --uds /tmp/ibp.sock --store /var/ibp --persist-every 64",
        ))
        .unwrap();
        match c {
            Command::Serve { config, store, .. } => {
                assert_eq!(store.as_deref(), Some("/var/ibp"));
                assert_eq!(config.persist_every, 64);
            }
            other => panic!("{other:?}"),
        }
        // --store takes a value: its argument must not leak into the
        // positional list.
        assert!(parse(&argv("serve --store d --uds a.sock")).is_ok());
        // Mailbox depth, write queue and write stall are fixed; stats
        // come only on Flush and idle connections are kept.
        for flag in [
            "--queue",
            "--stats-every",
            "--write-queue",
            "--idle-timeout-ms",
            "--write-timeout-ms",
        ] {
            let err = parse(&argv(&format!("serve --uds a.sock {flag} 5"))).unwrap_err();
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        }
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
        assert_eq!(c, load(AppKind::Alya, 8, uds("/tmp/ibp.sock")));
        let c = parse(&argv(
            "load wrf 32 --tcp [::1]:9400 --sessions 16 --batch 128 --seed 3 \
             --split 0.5 --check --gt 36 --disp 0.05 -o rep.json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Load {
                app: AppKind::Wrf,
                nprocs: 32,
                seed: 3,
                endpoint: Endpoint::Tcp("[::1]:9400".into()),
                sessions: 16,
                power: paper(36, 0.05),
                config: LoadConfig {
                    batch: 128,
                    split: Some(0.5),
                    check: true,
                    ..LoadConfig::default()
                },
                chaos: None,
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
            Command::Load {
                sessions,
                config,
                events_per_session,
                scale_curve,
                ..
            } => {
                assert_eq!(sessions, 10_000);
                assert_eq!(config.drivers, 16);
                assert_eq!(config.open_rate, 2_000);
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
        assert!(parse(&argv(
            "load alya 8 --uds a.sock --events-per-session 96 --check"
        ))
        .unwrap_err()
        .contains("--events-per-session truncates streams"));
    }

    #[test]
    fn parses_load_chaos_flags() {
        let c = parse(&argv(
            "load alya 8 --uds a.sock --chaos 0.3 --chaos-seed 7 --retries 3 --deadline-ms 500",
        ))
        .unwrap();
        match c {
            Command::Load { chaos, config, .. } => {
                assert_eq!(chaos, Some(0.3));
                assert_eq!(config.chaos, Some(ChaosConfig::with_intensity(7, 0.3)));
                assert_eq!(config.retry.max_attempts, 3);
                assert_eq!(config.retry.deadline_ms, 500);
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
        assert!(parse(&argv("load alya 8"))
            .unwrap_err()
            .contains("missing endpoint"));
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
    fn seeds_take_decimal_or_hex() {
        let seed = |line: &str| match parse(&argv(line)).unwrap() {
            Command::Generate { seed, .. } => seed,
            other => panic!("{other:?}"),
        };
        assert_eq!(seed("generate alya 8 --seed 0xD1C0"), 53_696);
        assert_eq!(seed("generate alya 8 --seed 53696"), 53_696);
        assert_eq!(seed("generate alya 8 --seed 0Xd1c0"), 53_696);
        let faults = |line: &str| match parse(&argv(line)).unwrap() {
            Command::Replay { faults, .. } => faults,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            faults("replay t.json --fault-rate 1 --fault-seed 0xFA17"),
            faults("replay t.json --fault-rate 1 --fault-seed 64023"),
        );
        let chaos = |line: &str| match parse(&argv(line)).unwrap() {
            Command::Load { config, .. } => config.chaos,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            chaos("load alya 8 --uds a.sock --chaos 0.1 --chaos-seed 0xC4A05EED"),
            Some(ChaosConfig::with_intensity(3_298_844_397, 0.1)),
        );
        assert_eq!(
            chaos("load alya 8 --uds a.sock --chaos 0.1 --chaos-seed 3298844397"),
            Some(ChaosConfig::with_intensity(0xC4A0_5EED, 0.1)),
        );
        for bad in ["0x", "0xZZ", "x12", "-1"] {
            let err = parse(&argv(&format!("generate alya 8 --seed {bad}"))).unwrap_err();
            assert!(err.contains("bad --seed"), "--seed {bad}: {err}");
        }
    }

    /// Every class of malformed command line is refused before any
    /// work, with an error naming the subcommand and the culprit.
    #[test]
    fn rejects_undeclared_and_malformed_arguments() {
        for (line, culprit) in [
            ("generate alya 8 --sed 5", "unknown flag '--sed'"),
            ("experiment alya 8 --gt=30", "unknown flag '--gt=30'"),
            ("generate alya 8 --seed", "--seed needs a value"),
            ("exhibits table1 --jobs", "--jobs needs a value"),
            ("generate alya 8 --seed 1 --seed 2", "--seed given twice"),
            ("generate alya 8 extra", "unexpected argument 'extra'"),
            ("inspect t.json --gt 5", "unknown flag '--gt'"),
            ("annotate t.json --gt 5", "bad --gt/--disp"),
            (
                "experiment alya 8 --disp 0.7 --resilient",
                "bad --gt/--disp",
            ),
            ("annotate t.json --budget inf", "bad --budget"),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            let cmd = line.split_whitespace().next().unwrap();
            assert!(err.starts_with(&format!("{cmd}: ")), "{line}: {err}");
            assert!(err.contains(culprit), "{line}: {err}");
        }
    }

    /// The `--flags` each subcommand's USAGE lines show are exactly the
    /// flags it declares: the help text and the parser cannot drift.
    #[test]
    fn usage_lists_exactly_the_declared_flags() {
        let synopsis = USAGE
            .split("USAGE:\n")
            .nth(1)
            .unwrap()
            .split("\n\n")
            .next()
            .unwrap();
        let mut listed: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut cmd = "";
        for line in synopsis.lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            if words[0] == "ibpower" {
                cmd = words[1];
                listed.entry(cmd).or_default();
            }
            for w in words {
                let w = w.trim_matches(|c| matches!(c, '[' | ']' | '(' | ')'));
                if w.starts_with('-') {
                    listed.get_mut(cmd).unwrap().insert(w);
                }
            }
        }
        for Spec(name, _, valued, switches) in COMMANDS.iter().filter(|s| s.0 != "help") {
            let declared = valued.split_whitespace().chain(switches.split_whitespace());
            assert_eq!(listed.remove(name), Some(declared.collect()), "{name}");
        }
        assert!(
            listed.is_empty(),
            "USAGE shows undeclared subcommands: {listed:?}"
        );
    }

    /// Every `ibpower` invocation in the CI workflow, the CLI's
    /// integration tests and the README parses to the configuration the
    /// pre-declaration parser built for it.
    #[test]
    fn documented_invocations_parse() {
        let serve = |sock: &str, config: ServeConfig, store: Option<&str>| Command::Serve {
            endpoint: uds(sock),
            config,
            store: store.map(str::to_string),
        };
        let exhibits = |name: &str, sweep: SweepOptions, out: Option<&str>| Command::Exhibits {
            name: name.into(),
            sweep,
            seed: 0xD1C0,
            out: out.map(str::to_string),
        };
        let bench = |label: &str| Command::BenchReport {
            output: "BENCH_hotpath.json".into(),
            check: true,
            iters: 2000,
            reps: 5,
            label: Some(label.into()),
        };
        // `load` with its config, session count and scale curve edited.
        type Edit = dyn Fn(&mut LoadConfig, &mut usize, &mut Option<String>);
        let with = |mut cmd: Command, edit: &Edit| {
            if let Command::Load {
                config,
                sessions,
                scale_curve,
                ..
            } = &mut cmd
            {
                edit(config, sessions, scale_curve);
            }
            cmd
        };
        let chaotic = |mut cmd: Command, intensity: f64| {
            if let Command::Load { config, chaos, .. } = &mut cmd {
                *chaos = Some(intensity);
                config.chaos = Some(ChaosConfig::with_intensity(0xC4A0_5EED, intensity));
            }
            cmd
        };
        let d = ServeConfig::default;
        let paged = |hot: usize| ServeConfig {
            io_threads: 4,
            max_hot_sessions: Some(hot),
            persist_every: 0,
            ..d()
        };
        let metrics = ServeConfig {
            metrics_addr: Some("127.0.0.1:9187".into()),
            ..d()
        };
        let cases: Vec<(&str, Command)> = vec![
            // .github/workflows/ci.yml
            ("bench-report --check --label ci-smoke", bench("ci-smoke")),
            (
                "bench-report --check --label ci-genladder",
                bench("ci-genladder"),
            ),
            (
                "serve --uds /tmp/ibp-ci.sock --session-limit 8",
                serve(
                    "/tmp/ibp-ci.sock",
                    ServeConfig {
                        session_limit: Some(8),
                        ..d()
                    },
                    None,
                ),
            ),
            (
                "load alya 8 --uds /tmp/ibp-ci.sock --sessions 8 --batch 64 --split 0.5 --check",
                with(
                    load(AppKind::Alya, 8, uds("/tmp/ibp-ci.sock")),
                    &|c, _, _| {
                        c.split = Some(0.5);
                        c.check = true;
                    },
                ),
            ),
            (
                "exhibits all --jobs 2",
                exhibits("all", SweepOptions::with_jobs(2), None),
            ),
            (
                "exhibits all --jobs 1",
                exhibits("all", SweepOptions::serial(), None),
            ),
            (
                "serve --uds /tmp/ibp-chaos.sock --store /tmp/ibp-chaos-store --persist-every 64",
                serve(
                    "/tmp/ibp-chaos.sock",
                    ServeConfig {
                        persist_every: 64,
                        ..d()
                    },
                    Some("/tmp/ibp-chaos-store"),
                ),
            ),
            (
                "load alya 8 --uds /tmp/ibp-chaos.sock --sessions 8 --batch 32 --chaos 0.05 \
                 --retries 16 --deadline-ms 20000 --check",
                with(
                    chaotic(load(AppKind::Alya, 8, uds("/tmp/ibp-chaos.sock")), 0.05),
                    &|c, _, _| {
                        c.batch = 32;
                        c.retry.max_attempts = 16;
                        c.retry.deadline_ms = 20_000;
                        c.check = true;
                    },
                ),
            ),
            (
                "serve --uds /tmp/ibp-scale.sock --store /tmp/ibp-scale-store --io-threads 4 \
                 --max-hot-sessions 200 --persist-every 0 --session-limit 2000",
                serve(
                    "/tmp/ibp-scale.sock",
                    ServeConfig {
                        session_limit: Some(2000),
                        ..paged(200)
                    },
                    Some("/tmp/ibp-scale-store"),
                ),
            ),
            (
                "load alya 4 --uds /tmp/ibp-scale.sock --sessions 2000 --batch 64 --drivers 4 \
                 --open-rate 4000 --check",
                with(
                    load(AppKind::Alya, 4, uds("/tmp/ibp-scale.sock")),
                    &|c, sessions, _| {
                        *sessions = 2000;
                        c.drivers = 4;
                        c.open_rate = 4000;
                        c.check = true;
                    },
                ),
            ),
            (
                "serve --uds /tmp/ibp-metrics.sock --metrics-addr 127.0.0.1:9187",
                serve("/tmp/ibp-metrics.sock", metrics.clone(), None),
            ),
            (
                "load wrf 16 --uds /tmp/ibp-metrics.sock --sessions 8 --batch 16 --check",
                with(
                    load(AppKind::Wrf, 16, uds("/tmp/ibp-metrics.sock")),
                    &|c, _, _| {
                        c.batch = 16;
                        c.check = true;
                    },
                ),
            ),
            (
                "stat --uds /tmp/ibp-metrics.sock",
                Command::Stat {
                    endpoint: uds("/tmp/ibp-metrics.sock"),
                    session: None,
                },
            ),
            (
                "top --uds /tmp/ibp-metrics.sock --once",
                Command::Top {
                    endpoint: uds("/tmp/ibp-metrics.sock"),
                    interval_ms: 1_000,
                    once: true,
                },
            ),
            (
                "exhibits generation_frontier --jobs 2 --out results-genfrontier",
                exhibits(
                    "generation_frontier",
                    SweepOptions::with_jobs(2),
                    Some("results-genfrontier"),
                ),
            ),
            // crates/cli/tests/
            (
                "exhibits table4 --out blocked",
                exhibits("table4", SweepOptions::from_env().unwrap(), Some("blocked")),
            ),
            (
                "exhibits table4",
                exhibits("table4", SweepOptions::from_env().unwrap(), None),
            ),
            (
                "serve --uds s.sock --store store --persist-every 24 --workers 2",
                serve(
                    "s.sock",
                    ServeConfig {
                        persist_every: 24,
                        workers: 2,
                        ..d()
                    },
                    Some("store"),
                ),
            ),
            (
                "serve --uds s.sock --store store --persist-every 24",
                serve(
                    "s.sock",
                    ServeConfig {
                        persist_every: 24,
                        ..d()
                    },
                    Some("store"),
                ),
            ),
            (
                "serve --uds s.sock --store store --persist-every 64",
                serve(
                    "s.sock",
                    ServeConfig {
                        persist_every: 64,
                        ..d()
                    },
                    Some("store"),
                ),
            ),
            (
                "load alya 4 --uds s.sock --sessions 4 --batch 23 --check --chaos 0.04 \
                 --retries 16 --deadline-ms 20000",
                with(
                    chaotic(load(AppKind::Alya, 4, uds("s.sock")), 0.04),
                    &|c, sessions, _| {
                        *sessions = 4;
                        c.batch = 23;
                        c.check = true;
                        c.retry.max_attempts = 16;
                        c.retry.deadline_ms = 20_000;
                    },
                ),
            ),
            // README.md
            (
                "bench-report",
                Command::BenchReport {
                    output: "BENCH_hotpath.json".into(),
                    check: false,
                    iters: 2000,
                    reps: 5,
                    label: None,
                },
            ),
            ("help", Command::Help),
            (
                "generate alya 8 -o alya8.json",
                Command::Generate {
                    app: AppKind::Alya,
                    nprocs: 8,
                    seed: 0xD1C0,
                    scaling: Scaling::Strong,
                    output: Some("alya8.json".into()),
                },
            ),
            (
                "inspect alya8.json",
                Command::Inspect {
                    trace: "alya8.json".into(),
                },
            ),
            (
                "annotate alya8.json --gt 20 --disp 0.01 -o ann.json",
                Command::Annotate {
                    trace: "alya8.json".into(),
                    power: paper(20, 0.01),
                    output: Some("ann.json".into()),
                },
            ),
            (
                "replay alya8.json --ann ann.json --timeline",
                Command::Replay {
                    trace: "alya8.json".into(),
                    ann: Some("ann.json".into()),
                    faults: None,
                    timeline: true,
                },
            ),
            (
                "experiment nas-bt 16 --gt 20 --disp 0.01",
                Command::Experiment {
                    app: AppKind::NasBt,
                    nprocs: 16,
                    seed: 0xD1C0,
                    power: paper(20, 0.01),
                    faults: None,
                },
            ),
            (
                "prv alya8.json -o alya8.prv",
                Command::Prv {
                    trace: "alya8.json".into(),
                    output: Some("alya8.prv".into()),
                },
            ),
            (
                "replay alya8.json --ann ann.json --fault-rate 10 --fault-seed 42",
                Command::Replay {
                    trace: "alya8.json".into(),
                    ann: Some("ann.json".into()),
                    faults: Some(FaultConfig::with_rate(42, 10.0)),
                    timeline: false,
                },
            ),
            (
                "annotate alya8.json --resilient -o ann.json",
                Command::Annotate {
                    trace: "alya8.json".into(),
                    power: paper(20, 0.01).with_resilience(ResilienceConfig::standard()),
                    output: Some("ann.json".into()),
                },
            ),
            (
                "experiment alya 16 --fault-rate 10 --resilient --budget 2.0",
                Command::Experiment {
                    app: AppKind::Alya,
                    nprocs: 16,
                    seed: 0xD1C0,
                    power: paper(20, 0.01).with_resilience(ResilienceConfig::with_budget(2.0)),
                    faults: Some(FaultConfig::with_rate(0xFA17, 10.0)),
                },
            ),
            (
                "serve --uds /tmp/ibp.sock --session-limit 8",
                serve(
                    "/tmp/ibp.sock",
                    ServeConfig {
                        session_limit: Some(8),
                        ..d()
                    },
                    None,
                ),
            ),
            (
                "load alya 8 --uds /tmp/ibp.sock --sessions 8 --split 0.5 --check",
                with(load(AppKind::Alya, 8, uds("/tmp/ibp.sock")), &|c, _, _| {
                    c.split = Some(0.5);
                    c.check = true;
                }),
            ),
            (
                "serve --uds /tmp/ibp.sock --store /tmp/ibp-store",
                serve("/tmp/ibp.sock", d(), Some("/tmp/ibp-store")),
            ),
            (
                "load alya 8 --uds /tmp/ibp.sock --chaos 0.05 --retries 16 --check",
                with(
                    chaotic(load(AppKind::Alya, 8, uds("/tmp/ibp.sock")), 0.05),
                    &|c, _, _| {
                        c.retry.max_attempts = 16;
                        c.check = true;
                    },
                ),
            ),
            (
                "serve --uds /tmp/ibp.sock --metrics-addr 127.0.0.1:9187",
                serve("/tmp/ibp.sock", metrics, None),
            ),
            (
                "stat --uds /tmp/ibp.sock",
                Command::Stat {
                    endpoint: uds("/tmp/ibp.sock"),
                    session: None,
                },
            ),
            (
                "top --uds /tmp/ibp.sock --once",
                Command::Top {
                    endpoint: uds("/tmp/ibp.sock"),
                    interval_ms: 1_000,
                    once: true,
                },
            ),
            (
                "exhibits generation_frontier --jobs 2 --out results",
                exhibits(
                    "generation_frontier",
                    SweepOptions::with_jobs(2),
                    Some("results"),
                ),
            ),
            (
                "serve --uds /tmp/ibp.sock --io-threads 4 --store /tmp/ibp-store \
                 --max-hot-sessions 1000 --persist-every 0",
                serve("/tmp/ibp.sock", paged(1000), Some("/tmp/ibp-store")),
            ),
            (
                "load alya 4 --uds /tmp/ibp.sock --sessions 10000 --batch 64 --drivers 2 \
                 --check --scale-curve BENCH_serve.json",
                with(
                    load(AppKind::Alya, 4, uds("/tmp/ibp.sock")),
                    &|c, sessions, curve| {
                        *sessions = 10_000;
                        c.drivers = 2;
                        c.check = true;
                        *curve = Some("BENCH_serve.json".into());
                    },
                ),
            ),
        ];
        for name in EXHIBITS.iter().map(|e| e.name).chain(["all"]) {
            let line = format!("exhibits {name}");
            assert_eq!(
                parse(&argv(&line)).unwrap(),
                exhibits(name, SweepOptions::from_env().unwrap(), None),
                "{line}"
            );
        }
        for (line, want) in cases {
            assert_eq!(parse(&argv(line)).unwrap(), want, "{line}");
        }
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
