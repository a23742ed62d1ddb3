//! Protocol client and the multi-session load generator.
//!
//! [`Client`] is a blocking, single-threaded protocol speaker: one
//! request, then read until the matching response (tolerating
//! unsolicited periodic [`ServerFrame::Stats`] in between). Dropping a
//! client sends a best-effort `Close` for every session it still has
//! open and shuts the socket down; [`Client::abandon`] skips that, for
//! callers that *want* the server to see an abrupt disconnect (crash
//! simulation, reconnect-and-restore cycles).
//!
//! [`run_load`] drives many sessions concurrently — one connection and
//! one thread per session, like a real PMPI shim fleet — measuring
//! aggregate throughput and per-batch directive latency, optionally
//! exercising the snapshot/restore reconnect path and checking
//! end-to-end parity against offline golden annotations. With
//! [`LoadConfig::drivers`] set, the fleet is instead multiplexed over
//! a handful of driver connections (scale mode) with a paced open
//! ramp, which is how the 10k+-session scaling runs are driven.
//!
//! ## Resilience
//!
//! Every session thread runs a reconnect loop governed by a
//! [`RetryPolicy`]: capped exponential backoff with seeded jitter
//! between connection attempts, a per-request read deadline so a stalled
//! server cannot hang the client forever, and a hard attempt budget
//! after which the session abandons its stream and reports
//! `gave_up` in its [`SessionOutcome`] (aggregated as
//! [`LoadReport::gave_up`]) instead of sinking the whole fleet. After a
//! reconnect the client first tries a store rehydration (empty-body
//! `Restore`): the server answers with the resume position and replays
//! the session's full directive history, so the client rebuilds its
//! parity journal from event 0 and resumes streaming where the server
//! left off. If the server has no usable record
//! ([`error_code::NO_SNAPSHOT`]) the client falls back to a fresh
//! `Open` and replays its own event stream from the start — the engine
//! is deterministic, so either path converges on the same directives.

use crate::chaos::ChaosConfig;
use crate::metrics::ObsReport;
use crate::protocol::{
    decode_server, error_code, read_frame, write_frame, ClientFrame, ProtocolError, ServerFrame,
    WireEvent, CONNECTION_SESSION,
};
use crate::server::{Endpoint, Stream};
use ibp_core::{LaneDirective, PowerConfig, RankStats};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::Serialize;
use std::io::{BufReader, BufWriter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A blocking protocol client over one connection.
pub struct Client {
    reader: BufReader<Stream>,
    writer: BufWriter<Stream>,
    open_sessions: Vec<u32>,
    close_on_drop: bool,
}

/// Connection-time options for [`Client::connect_with`].
#[derive(Debug, Clone, Default)]
pub struct ConnectOptions {
    /// Wrap the connection in the fault-injecting chaos harness.
    pub chaos: Option<ChaosConfig>,
    /// Per-request read deadline, milliseconds (0 = block forever). A
    /// response that takes longer fails the request with a timeout
    /// `Io` error, which the resilient driver treats as a reconnect.
    pub read_timeout_ms: u64,
}

impl Client {
    /// Connect and perform the handshake.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ProtocolError> {
        Client::connect_with(endpoint, &ConnectOptions::default())
    }

    /// Connect with explicit options (chaos wrapper, read deadline).
    pub fn connect_with(
        endpoint: &Endpoint,
        opts: &ConnectOptions,
    ) -> Result<Client, ProtocolError> {
        let mut stream = endpoint.connect()?;
        if let Some(chaos) = &opts.chaos {
            stream = chaos.wrap(stream);
        }
        if opts.read_timeout_ms > 0 {
            stream.set_read_timeout(Some(Duration::from_millis(opts.read_timeout_ms)))?;
        }
        let read_half = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::with_capacity(64 * 1024, stream),
            open_sessions: Vec::new(),
            close_on_drop: true,
        };
        crate::protocol::write_hello(&mut client.writer)?;
        crate::protocol::read_hello(&mut client.reader)?;
        Ok(client)
    }

    /// Drop the connection *without* closing open sessions — the server
    /// sees an abrupt disconnect, exactly like a client crash. Use this
    /// before a reconnect-and-restore cycle; a plain drop would send
    /// `Close` and finish the sessions instead.
    pub fn abandon(mut self) {
        self.close_on_drop = false;
        let _ = self.writer.get_ref().shutdown();
    }

    fn send(&mut self, frame: &ClientFrame) -> Result<(), ProtocolError> {
        write_frame(&mut self.writer, &frame.encode())
    }

    /// Read the next server frame (any kind).
    pub fn recv(&mut self) -> Result<ServerFrame, ProtocolError> {
        match read_frame(&mut self.reader)? {
            Some(payload) => decode_server(&payload),
            None => Err(ProtocolError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    /// Read frames until `want` accepts one; unsolicited `Stats` frames
    /// are skipped, `Error` frames become [`ProtocolError::Remote`].
    fn expect<T>(
        &mut self,
        what: &str,
        mut want: impl FnMut(ServerFrame) -> Option<T>,
    ) -> Result<T, ProtocolError> {
        loop {
            match self.recv()? {
                ServerFrame::Error { code, message, .. } => {
                    return Err(ProtocolError::Remote { code, message })
                }
                ServerFrame::Stats { .. } => continue,
                ServerFrame::QueryReply { .. } => continue,
                other => match want(other) {
                    Some(v) => return Ok(v),
                    None => {
                        return Err(ProtocolError::Unexpected(format!(
                            "waiting for {what}"
                        )))
                    }
                },
            }
        }
    }

    /// Open a fresh session; waits for the acknowledgement.
    pub fn open(
        &mut self,
        session: u32,
        rank: u32,
        config: &PowerConfig,
    ) -> Result<(), ProtocolError> {
        self.send(&ClientFrame::Open {
            session,
            rank,
            config: Box::new(config.clone()),
        })?;
        self.expect("OpenAck", |f| match f {
            ServerFrame::OpenAck { .. } => Some(()),
            _ => None,
        })?;
        self.open_sessions.push(session);
        Ok(())
    }

    /// Open a session from snapshot bytes; waits for the
    /// acknowledgement and returns the server's resume position.
    pub fn restore(&mut self, session: u32, snapshot: &[u8]) -> Result<u64, ProtocolError> {
        self.send(&ClientFrame::Restore { session, snapshot: snapshot.to_vec() })?;
        let applied = self.expect("OpenAck", |f| match f {
            ServerFrame::OpenAck { events_applied, .. } => Some(events_applied),
            _ => None,
        })?;
        self.open_sessions.push(session);
        Ok(applied)
    }

    /// Rehydrate a session from the server's durable snapshot store
    /// (empty-body `Restore`). Returns the resume position and the
    /// session's full directive history replayed from the stored
    /// record, so the caller can rebuild its parity journal from
    /// event 0. Fails with [`ProtocolError::Remote`] carrying
    /// [`error_code::NO_SNAPSHOT`] when the server has no usable record
    /// — fall back to a fresh [`Client::open`].
    pub fn restore_from_store(
        &mut self,
        session: u32,
    ) -> Result<(u64, Vec<LaneDirective>), ProtocolError> {
        self.send(&ClientFrame::Restore { session, snapshot: Vec::new() })?;
        let applied = self.expect("OpenAck", |f| match f {
            ServerFrame::OpenAck { events_applied, .. } => Some(events_applied),
            _ => None,
        })?;
        let history = self.expect("Directives", |f| match f {
            ServerFrame::Directives { directives, .. } => Some(directives),
            _ => None,
        })?;
        self.open_sessions.push(session);
        Ok((applied, history))
    }

    /// Stream one event batch; returns the server's total applied-event
    /// count and the directives the batch produced.
    pub fn send_events(
        &mut self,
        session: u32,
        events: &[WireEvent],
    ) -> Result<(u64, Vec<LaneDirective>), ProtocolError> {
        self.send(&ClientFrame::Events { session, events: events.to_vec() })?;
        self.expect("Directives", |f| match f {
            ServerFrame::Directives { events_applied, directives, .. } => {
                Some((events_applied, directives))
            }
            _ => None,
        })
    }

    /// Request an immediate statistics summary.
    pub fn flush_stats(&mut self, session: u32) -> Result<RankStats, ProtocolError> {
        self.send(&ClientFrame::Flush { session })?;
        // Flush answers with Stats, which `expect` normally skips —
        // match it directly here.
        loop {
            match self.recv()? {
                ServerFrame::Error { code, message, .. } => {
                    return Err(ProtocolError::Remote { code, message })
                }
                ServerFrame::Stats { stats, .. } => return Ok(*stats),
                _ => continue,
            }
        }
    }

    /// Capture the session's learned state for a later [`Client::restore`].
    pub fn snapshot(&mut self, session: u32) -> Result<Vec<u8>, ProtocolError> {
        self.send(&ClientFrame::Snapshot { session })?;
        self.expect("SnapshotData", |f| match f {
            ServerFrame::SnapshotData { snapshot, .. } => Some(snapshot),
            _ => None,
        })
    }

    /// Probe one session's live state without perturbing its stream.
    ///
    /// The server answers `Query` inline on the reader thread — it
    /// never enters the session mailbox — so an interleaved query is
    /// invisible to the event/directive stream. The report carries
    /// server-wide counters plus (at most) one [`ObsReport::sessions`]
    /// entry for `session`.
    pub fn query(&mut self, session: u32) -> Result<ObsReport, ProtocolError> {
        self.send(&ClientFrame::Query { session })?;
        self.expect_report()
    }

    /// Probe the whole fleet: server-wide counters plus one probe per
    /// live session, in session-id order. Uses the reserved
    /// [`CONNECTION_SESSION`] id, which `Query` (alone among client
    /// frames) accepts.
    pub fn query_server(&mut self) -> Result<ObsReport, ProtocolError> {
        self.send(&ClientFrame::Query { session: CONNECTION_SESSION })?;
        self.expect_report()
    }

    fn expect_report(&mut self) -> Result<ObsReport, ProtocolError> {
        loop {
            match self.recv()? {
                ServerFrame::Error { code, message, .. } => {
                    return Err(ProtocolError::Remote { code, message })
                }
                ServerFrame::Stats { .. } => continue,
                ServerFrame::QueryReply { report, .. } => return Ok(*report),
                other => {
                    return Err(ProtocolError::Unexpected(format!(
                        "waiting for QueryReply, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Finish the stream. Returns any directives issued by the final
    /// compute interval, the lifetime directive count, and final stats.
    pub fn close(
        &mut self,
        session: u32,
        final_compute_ns: u64,
    ) -> Result<(Vec<LaneDirective>, u64, RankStats), ProtocolError> {
        self.send(&ClientFrame::Close { session, final_compute_ns })?;
        let mut last = Vec::new();
        loop {
            match self.recv()? {
                ServerFrame::Error { code, message, .. } => {
                    return Err(ProtocolError::Remote { code, message })
                }
                ServerFrame::Stats { .. } => continue,
                ServerFrame::QueryReply { .. } => continue,
                ServerFrame::Directives { directives, .. } => last.extend(directives),
                ServerFrame::Closed { directives_total, stats, .. } => {
                    self.open_sessions.retain(|&s| s != session);
                    return Ok((last, directives_total, *stats));
                }
                other => {
                    return Err(ProtocolError::Unexpected(format!(
                        "waiting for Closed, got {other:?}"
                    )))
                }
            }
        }
    }
}

impl Drop for Client {
    /// Best-effort cleanup: `Close` (with zero trailing compute) every
    /// session still open on this connection, then shut the socket
    /// down. Replies are not awaited and write errors are swallowed —
    /// the point is to let a *healthy* server reap sessions instead of
    /// carrying them until the connection times out. [`Client::abandon`]
    /// opts out.
    fn drop(&mut self) {
        if self.close_on_drop {
            for session in std::mem::take(&mut self.open_sessions) {
                let frame = ClientFrame::Close { session, final_compute_ns: 0 };
                if write_frame(&mut self.writer, &frame.encode()).is_err() {
                    break;
                }
            }
        }
        let _ = self.writer.get_ref().shutdown();
    }
}

/// Reconnect/backoff/deadline policy for the resilient session driver.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Consecutive failed attempts (connection or request) before the
    /// driver abandons the session (reported as `gave_up` in its
    /// [`SessionOutcome`]). `1` means no retries at all.
    pub max_attempts: u32,
    /// First backoff delay, milliseconds; doubles per consecutive
    /// failure.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_backoff_ms: u64,
    /// Seed for the jitter PRNG (deterministic per session: the driver
    /// mixes the session id in).
    pub jitter_seed: u64,
    /// Per-request read deadline, milliseconds (0 = none).
    pub deadline_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 20,
            max_backoff_ms: 1_000,
            jitter_seed: 0x1BF0_77E5,
            deadline_ms: 10_000,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `failure` (1-based), with jitter
    /// drawn from `rng`: `min(base · 2^(failure-1), max)` plus up to
    /// one extra `base` of jitter.
    fn backoff(&self, failure: u32, rng: &mut StdRng) -> Duration {
        let exp = failure.saturating_sub(1).min(16);
        let raw = self
            .base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ms);
        let jitter = if self.base_backoff_ms > 0 {
            rng.next_u64() % self.base_backoff_ms
        } else {
            0
        };
        Duration::from_millis(raw + jitter)
    }
}

/// Whether an error is worth a reconnect-and-restore cycle (transport
/// trouble, shed responses, a server-side session loss) or terminal
/// (a protocol-level rejection a retry would only repeat).
fn reconnectable(e: &ProtocolError) -> bool {
    match e {
        ProtocolError::Io(_)
        | ProtocolError::ChecksumMismatch { .. }
        | ProtocolError::BadMagic(_)
        | ProtocolError::Unexpected(_)
        | ProtocolError::UnknownKind(_)
        | ProtocolError::Malformed { .. } => true,
        // DUPLICATE_SESSION is transient after an abandon: the server
        // refuses to resurrect an id until the dead connection's
        // teardown persist finishes, so backing off and retrying is
        // exactly right.
        ProtocolError::Remote { code, .. } => matches!(
            *code,
            error_code::OVERLOAD
                | error_code::UNKNOWN_SESSION
                | error_code::INTERNAL
                | error_code::MALFORMED
                | error_code::DUPLICATE_SESSION
        ),
        _ => false,
    }
}

/// One session's worth of work for the load generator.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The simulated rank this session annotates.
    pub rank: u32,
    /// Runtime configuration for the session.
    pub config: PowerConfig,
    /// The full event stream (call id, gap ns), oldest first.
    pub events: Vec<WireEvent>,
    /// Trailing compute after the last call.
    pub final_compute_ns: u64,
    /// Expected directives from an offline `annotate_rank` run, for
    /// `--check` parity.
    pub golden_directives: Option<Vec<LaneDirective>>,
    /// Expected final stats from the offline run.
    pub golden_stats: Option<RankStats>,
}

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Events per `Events` frame.
    pub batch: usize,
    /// If set, snapshot at this fraction of the stream, drop the
    /// connection, reconnect, restore, and continue — exercising the
    /// reconnect path. Clamped to `(0, 1)`.
    pub split: Option<f64>,
    /// Verify streamed directives (and final stats) against the spec's
    /// golden annotation.
    pub check: bool,
    /// Wrap every connection in the fault-injecting chaos harness
    /// (each connection gets a decorrelated fault stream derived from
    /// this config's seed).
    pub chaos: Option<ChaosConfig>,
    /// Reconnect/backoff/deadline policy.
    pub retry: RetryPolicy,
    /// Scale mode: multiplex all sessions over this many driver
    /// connections (round-robin partition by session id) instead of
    /// one connection + one thread per session. `0` keeps the classic
    /// per-session mode. A thread per session stops working around a
    /// few thousand sessions; drivers make 10k+ sessions drivable from
    /// one process. Incompatible with `split` and `chaos`.
    pub drivers: usize,
    /// Scale mode: cap on session `Open`s per second across all
    /// drivers (`0` = unlimited). Bounds the open ramp so a fleet
    /// arriving at once does not hit a cold server as a single burst.
    pub open_rate: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            batch: 64,
            split: None,
            check: false,
            chaos: None,
            retry: RetryPolicy::default(),
            drivers: 0,
            open_rate: 0,
        }
    }
}

/// Per-session result of a load run.
#[derive(Debug, Clone, Serialize)]
pub struct SessionOutcome {
    /// Session id (index into the spec list).
    pub session: u32,
    /// The rank the session drove.
    pub rank: u32,
    /// Events streamed.
    pub events: u64,
    /// Directives received.
    pub directives: u64,
    /// Reconnect cycles this session survived.
    pub reconnects: u64,
    /// The session exhausted its [`RetryPolicy`] attempt budget and
    /// abandoned the stream early; `events`/`directives` count what
    /// landed before it quit.
    pub gave_up: bool,
    /// Parity verdict (`None` when no golden annotation was supplied or
    /// checking was off).
    pub parity_ok: Option<bool>,
}

/// Aggregate result of a load run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Concurrent sessions driven.
    pub sessions: usize,
    /// Events streamed across all sessions.
    pub events_total: u64,
    /// Directives received across all sessions.
    pub directives_total: u64,
    /// `Events` frames sent.
    pub batches: u64,
    /// Reconnect cycles across all sessions (0 on a healthy transport).
    pub reconnects: u64,
    /// Sessions that exhausted their retry budget and gave up without
    /// closing (0 on a healthy run; a nonzero value also forces
    /// `parity_ok` to `false` when checking is on).
    pub gave_up: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed_s: f64,
    /// Aggregate throughput.
    pub events_per_sec: f64,
    /// Median send→directives latency, microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile send→directives latency, microseconds.
    pub latency_p99_us: f64,
    /// Worst send→directives latency, microseconds.
    pub latency_max_us: f64,
    /// Whether parity checking ran.
    pub parity_checked: bool,
    /// All checked sessions matched their golden annotations.
    pub parity_ok: bool,
    /// Per-session outcomes, in session order.
    pub per_session: Vec<SessionOutcome>,
}

/// Drive every spec as its own connection+thread against `endpoint`.
///
/// Returns after all sessions finish; a terminal protocol error fails
/// the run, but a session that exhausts its retry budget is *reported*
/// (per-session `gave_up`, aggregate [`LoadReport::gave_up`]) rather
/// than failing the whole fleet — under heavy chaos some sessions
/// legitimately lose the race, and the caller decides whether that is
/// acceptable.
pub fn run_load(
    endpoint: &Endpoint,
    specs: Vec<SessionSpec>,
    cfg: &LoadConfig,
) -> Result<LoadReport, ProtocolError> {
    if cfg.drivers > 0 {
        return run_load_scale(endpoint, specs, cfg);
    }
    let sessions = specs.len();
    let start = Instant::now();
    let handles: Vec<_> = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let endpoint = endpoint.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                drive_session(&endpoint, i as u32, spec, &cfg).map(|(out, lats)| ([out], lats))
            })
        })
        .collect();
    join_load(handles, "session", sessions, start, cfg.check)
}

/// A load thread: its sessions' outcomes and batch latencies (ns).
type LoadThread<O> = std::thread::JoinHandle<Result<(O, Vec<u64>), ProtocolError>>;

/// Join every load thread (one per session, or one per scale-mode
/// driver), then fold their outcomes into a [`LoadReport`]. The first
/// error in join order fails the run, after every thread has finished;
/// a panicked thread counts as an error naming its `role`.
fn join_load<O: IntoIterator<Item = SessionOutcome>>(
    handles: Vec<LoadThread<O>>,
    role: &str,
    sessions: usize,
    start: Instant,
    parity_checked: bool,
) -> Result<LoadReport, ProtocolError> {
    let mut outcomes = Vec::with_capacity(sessions);
    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(Ok((outs, lats))) => {
                outcomes.extend(outs);
                latencies_ns.extend(lats);
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or_else(|| {
                    Some(ProtocolError::Unexpected(format!("{role} thread panicked")))
                })
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(aggregate(outcomes, latencies_ns, sessions, start.elapsed().as_secs_f64(), parity_checked))
}

/// Fold per-session outcomes and batch latencies into a [`LoadReport`]
/// (shared by the classic and scale drivers).
fn aggregate(
    mut outcomes: Vec<SessionOutcome>,
    mut latencies_ns: Vec<u64>,
    sessions: usize,
    elapsed_s: f64,
    parity_checked: bool,
) -> LoadReport {
    outcomes.sort_by_key(|o| o.session);
    latencies_ns.sort_unstable();
    let pct = |q: f64| -> f64 {
        if latencies_ns.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_ns.len() - 1) as f64 * q).round() as usize;
        latencies_ns[idx] as f64 / 1_000.0
    };
    let events_total: u64 = outcomes.iter().map(|o| o.events).sum();
    let directives_total: u64 = outcomes.iter().map(|o| o.directives).sum();
    let reconnects: u64 = outcomes.iter().map(|o| o.reconnects).sum();
    let gave_up: u64 = outcomes.iter().filter(|o| o.gave_up).count() as u64;
    let parity_ok = !parity_checked || outcomes.iter().all(|o| o.parity_ok != Some(false));
    LoadReport {
        sessions,
        events_total,
        directives_total,
        batches: latencies_ns.len() as u64,
        reconnects,
        gave_up,
        elapsed_s,
        events_per_sec: if elapsed_s > 0.0 { events_total as f64 / elapsed_s } else { 0.0 },
        latency_p50_us: pct(0.50),
        latency_p99_us: pct(0.99),
        latency_max_us: pct(1.0),
        parity_checked,
        parity_ok,
        per_session: outcomes,
    }
}

/// Scale mode: partition the fleet round-robin over `cfg.drivers`
/// connections, each multiplexing its share of sessions (synchronous
/// request/response, traffic localized to a bounded active window per
/// driver — see [`drive_partition`]). The `Open` ramp is paced
/// globally by [`LoadConfig::open_rate`].
fn run_load_scale(
    endpoint: &Endpoint,
    specs: Vec<SessionSpec>,
    cfg: &LoadConfig,
) -> Result<LoadReport, ProtocolError> {
    if cfg.split.is_some() || cfg.chaos.is_some() {
        return Err(ProtocolError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "scale mode (drivers > 0) is incompatible with --split and chaos injection",
        )));
    }
    let sessions = specs.len();
    let drivers = cfg.drivers.min(sessions.max(1));
    let start = Instant::now();
    let open_tickets = Arc::new(AtomicU64::new(0));
    let mut parts: Vec<Vec<(u32, SessionSpec)>> = (0..drivers).map(|_| Vec::new()).collect();
    for (i, spec) in specs.into_iter().enumerate() {
        parts[i % drivers].push((i as u32, spec));
    }
    let handles: Vec<_> = parts
        .into_iter()
        .map(|part| {
            let endpoint = endpoint.clone();
            let cfg = cfg.clone();
            let tickets = Arc::clone(&open_tickets);
            std::thread::spawn(move || drive_partition(&endpoint, part, &cfg, &tickets, start))
        })
        .collect();
    join_load(handles, "driver", sessions, start, cfg.check)
}

/// Sleep until this open's ticket comes due under the global
/// opens-per-second cap.
fn pace_open(tickets: &AtomicU64, rate: u64, start: Instant) {
    if rate == 0 {
        return;
    }
    let ticket = tickets.fetch_add(1, Ordering::Relaxed);
    let due = Duration::from_nanos(ticket.saturating_mul(1_000_000_000) / rate);
    let elapsed = start.elapsed();
    if due > elapsed {
        std::thread::sleep(due - elapsed);
    }
}

/// Sessions a scale-mode driver actively streams at once. Every
/// session in the partition is *open* for the whole run — the point of
/// scale mode is a fleet of concurrent sessions — but traffic cycles
/// through a bounded window of them: a session gets batches until its
/// stream drains and it closes, then the window refills from the idle
/// backlog. That is the mostly-idle traffic mix real fleets show
/// (COUNTDOWN's observation that most MPI time is wait time), and it
/// is the access pattern a `--max-hot-sessions` LRU is designed for —
/// the hot set is the active windows, not the whole fleet. Round-robin
/// over *all* sessions would instead be the LRU's pathological case
/// (every touch a miss at any cap below the session count).
const ACTIVE_WINDOW: usize = 32;

/// One scale-mode driver: open every session in the partition (paced),
/// then stream a sliding [`ACTIVE_WINDOW`] of sessions to completion,
/// closing each as it drains. Parity journals are kept only under
/// `check` — at 10k+ sessions the journals, not the sockets, would
/// otherwise dominate client memory — and each is dropped at its
/// session's close.
#[allow(clippy::type_complexity)]
fn drive_partition(
    endpoint: &Endpoint,
    part: Vec<(u32, SessionSpec)>,
    cfg: &LoadConfig,
    tickets: &AtomicU64,
    start: Instant,
) -> Result<(Vec<SessionOutcome>, Vec<u64>), ProtocolError> {
    let batch = cfg.batch.max(1);
    let opts = ConnectOptions { chaos: None, read_timeout_ms: cfg.retry.deadline_ms };
    let mut client = Client::connect_with(endpoint, &opts)?;
    for (id, spec) in &part {
        pace_open(tickets, cfg.open_rate, start);
        client.open(*id, spec.rank, &spec.config)?;
    }

    let mut cursors = vec![0usize; part.len()];
    let mut directive_counts = vec![0u64; part.len()];
    let mut journals: Vec<Vec<LaneDirective>> = vec![Vec::new(); part.len()];
    let mut latencies_ns = Vec::new();
    let mut outcomes = Vec::with_capacity(part.len());

    let mut active: Vec<usize> = (0..part.len().min(ACTIVE_WINDOW)).collect();
    let mut next_idle = active.len();
    while !active.is_empty() {
        let mut i = 0;
        while i < active.len() {
            let k = active[i];
            let (id, spec) = &part[k];
            let total = spec.events.len();
            if cursors[k] < total {
                let end = (cursors[k] + batch).min(total);
                let t0 = Instant::now();
                let (applied, fresh) = client.send_events(*id, &spec.events[cursors[k]..end])?;
                latencies_ns.push(t0.elapsed().as_nanos() as u64);
                directive_counts[k] += fresh.len() as u64;
                if cfg.check {
                    journals[k].extend(fresh);
                }
                cursors[k] = (applied as usize).min(total).max(end);
            }
            if cursors[k] >= total {
                let (tail, _total_directives, stats) =
                    client.close(*id, spec.final_compute_ns)?;
                directive_counts[k] += tail.len() as u64;
                let parity_ok = if cfg.check {
                    let mut journal = std::mem::take(&mut journals[k]);
                    journal.extend(tail);
                    spec.golden_directives.as_ref().map(|golden| {
                        let mut ok = &journal == golden;
                        if let Some(gs) = &spec.golden_stats {
                            ok &= gs == &stats;
                        }
                        ok
                    })
                } else {
                    None
                };
                outcomes.push(SessionOutcome {
                    session: *id,
                    rank: spec.rank,
                    events: cursors[k] as u64,
                    directives: directive_counts[k],
                    reconnects: 0,
                    gave_up: false,
                    parity_ok,
                });
                // Retire this window slot and pull the next idle
                // session in; `swap_remove` moved an unvisited entry
                // to `i`, so don't advance.
                active.swap_remove(i);
                if next_idle < part.len() {
                    active.push(next_idle);
                    next_idle += 1;
                }
            } else {
                i += 1;
            }
        }
    }
    Ok((outcomes, latencies_ns))
}

type SessionRun = (SessionOutcome, Vec<u64>);

/// The resilient per-session driver: a reconnect loop around
/// stream → (optional split exercise) → close, with a parity journal
/// that is rebuilt from the server's replayed history after every
/// restore.
fn drive_session(
    endpoint: &Endpoint,
    session: u32,
    spec: SessionSpec,
    cfg: &LoadConfig,
) -> Result<SessionRun, ProtocolError> {
    let batch = cfg.batch.max(1);
    let total = spec.events.len();
    let split_at = cfg.split.map(|f| {
        let f = f.clamp(0.0, 1.0);
        ((total as f64 * f) as usize).min(total)
    });
    let mut rng =
        StdRng::seed_from_u64(cfg.retry.jitter_seed ^ ((session as u64) << 32) ^ 0xC8A5);
    let opts_for = |conn_seq: u64| ConnectOptions {
        chaos: cfg.chaos.as_ref().map(|c| {
            c.reseeded(
                c.seed
                    ^ ((session as u64) << 40)
                    ^ conn_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        }),
        read_timeout_ms: cfg.retry.deadline_ms,
    };

    let mut latencies_ns = Vec::with_capacity(total / batch + 2);
    // The parity journal: every directive the session has produced,
    // from event 0, in order.
    let mut journal: Vec<LaneDirective> = Vec::new();
    let mut next_event: usize = 0;
    let mut did_split = split_at.is_none();
    let mut conn_seq: u64 = 0;
    let mut reconnects: u64 = 0;
    let mut failures: u32 = 0;
    let mut gave_up = false;
    let mut client: Option<Client> = None;
    let mut closed: Option<(u64, RankStats)> = None;

    // One reconnect cycle per iteration; a healthy run finishes in one.
    'run: while closed.is_none() {
        // (Re-)establish a connection and a live server-side session.
        let mut c = match client.take() {
            Some(c) => c,
            None => {
                let attempt = (|| -> Result<Client, ProtocolError> {
                    let mut c = Client::connect_with(endpoint, &opts_for(conn_seq))?;
                    if conn_seq == 0 {
                        c.open(session, spec.rank, &spec.config)?;
                        journal.clear();
                        next_event = 0;
                    } else {
                        match c.restore_from_store(session) {
                            Ok((applied, history)) => {
                                journal = history;
                                next_event = (applied as usize).min(total);
                            }
                            Err(ProtocolError::Remote { code, .. })
                                if code == error_code::NO_SNAPSHOT =>
                            {
                                // No durable record server-side: replay
                                // the whole stream into a fresh session
                                // — the engine is deterministic, so the
                                // journal converges on the same
                                // directives.
                                c.open(session, spec.rank, &spec.config)?;
                                journal.clear();
                                next_event = 0;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(c)
                })();
                conn_seq += 1;
                match attempt {
                    Ok(c) => {
                        failures = 0;
                        c
                    }
                    Err(e) => {
                        if !reconnectable(&e) {
                            return Err(e);
                        }
                        failures += 1;
                        if failures >= cfg.retry.max_attempts.max(1) {
                            gave_up = true;
                            break 'run;
                        }
                        reconnects += 1;
                        std::thread::sleep(cfg.retry.backoff(failures, &mut rng));
                        continue;
                    }
                }
            }
        };

        // Stream toward the current target (the split point first, if
        // the split exercise is still pending, else the full stream),
        // then close. Any transport trouble falls back to the
        // reconnect path above.
        let target = if did_split { total } else { split_at.unwrap_or(total) };
        let step = (|| -> Result<Option<Vec<u8>>, ProtocolError> {
            while next_event < target {
                let end = (next_event + batch).min(target);
                let t0 = Instant::now();
                let (applied, fresh) =
                    c.send_events(session, &spec.events[next_event..end])?;
                latencies_ns.push(t0.elapsed().as_nanos() as u64);
                journal.extend(fresh);
                next_event = (applied as usize).min(total).max(end);
            }
            if !did_split {
                // Snapshot for the split exercise; the caller drops the
                // connection and restores from these bytes.
                return Ok(Some(c.snapshot(session)?));
            }
            let (last, total_directives, stats) = c.close(session, spec.final_compute_ns)?;
            journal.extend(last);
            closed = Some((total_directives, stats));
            Ok(None)
        })();
        match step {
            Ok(None) => {
                client = Some(c); // done (or past the split) — keep it
            }
            Ok(Some(snap)) => {
                // The split exercise: drop the connection *without*
                // closing (a simulated crash), reconnect, restore from
                // the client-carried snapshot, finish the stream.
                did_split = true;
                c.abandon();
                let fresh = (|| -> Result<Client, ProtocolError> {
                    let mut fresh = Client::connect_with(endpoint, &opts_for(conn_seq))?;
                    let applied = fresh.restore(session, &snap)?;
                    next_event = (applied as usize).min(total);
                    Ok(fresh)
                })();
                conn_seq += 1;
                match fresh {
                    Ok(fresh) => {
                        failures = 0;
                        client = Some(fresh);
                    }
                    Err(e) => {
                        if !reconnectable(&e) {
                            return Err(e);
                        }
                        failures += 1;
                        if failures >= cfg.retry.max_attempts.max(1) {
                            gave_up = true;
                            break 'run;
                        }
                        reconnects += 1;
                        std::thread::sleep(cfg.retry.backoff(failures, &mut rng));
                        // `client` stays empty: the next iteration
                        // re-establishes via the store/fresh-open path.
                    }
                }
            }
            Err(e) => {
                if !reconnectable(&e) {
                    return Err(e);
                }
                c.abandon();
                failures += 1;
                if failures >= cfg.retry.max_attempts.max(1) {
                    gave_up = true;
                    break 'run;
                }
                reconnects += 1;
                std::thread::sleep(cfg.retry.backoff(failures, &mut rng));
            }
        }
    }

    let parity_ok = if gave_up {
        // An abandoned stream cannot match its golden annotation.
        if cfg.check { Some(false) } else { None }
    } else if cfg.check {
        let (_, stats) = closed.as_ref().expect("loop exits only once closed");
        match (&spec.golden_directives, &spec.golden_stats) {
            (Some(golden), golden_stats) => {
                let mut ok = &journal == golden;
                if let Some(gs) = golden_stats {
                    ok &= gs == stats;
                }
                Some(ok)
            }
            (None, _) => None,
        }
    } else {
        None
    };

    Ok((
        SessionOutcome {
            session,
            rank: spec.rank,
            events: next_event as u64,
            directives: journal.len() as u64,
            reconnects,
            gave_up,
            parity_ok,
        },
        latencies_ns,
    ))
}
