//! Protocol client and the multi-session load generator.
//!
//! [`Client`] is a blocking, single-threaded protocol speaker: one
//! request, then read until the matching response. Dropping a
//! client sends a best-effort `Close` for every session it still has
//! open and shuts the socket down; [`Client::abandon`] skips that, for
//! callers that *want* the server to see an abrupt disconnect (crash
//! simulation, reconnect-and-restore cycles).
//!
//! [`run_load`] drives many sessions concurrently over
//! [`LoadConfig::drivers`] driver connections (by default one per
//! session, like a real PMPI shim fleet), measuring aggregate throughput
//! and per-batch directive latency, optionally exercising the
//! snapshot/restore reconnect path and checking end-to-end parity
//! against offline golden annotations. Every driver runs the same code:
//! a paced open ramp, then a sliding window of active sessions, which is
//! also how the 10k+-session scaling runs are driven.
//!
//! ## Resilience
//!
//! Every driver runs a reconnect loop governed by a [`RetryPolicy`]:
//! capped exponential backoff with seeded jitter between connection
//! attempts, a per-request read deadline so a stalled server cannot
//! hang the client forever, and a hard attempt budget after which the
//! driver abandons its sessions' streams and reports them `gave_up` in
//! their [`SessionOutcome`]s (aggregated as [`LoadReport::gave_up`])
//! instead of sinking the whole fleet. After a reconnect each session
//! re-attaches just before its next frame, first by a store
//! rehydration (empty-body `Restore`): the server answers with the
//! resume position and the count and digest of the directives it
//! delivered before it ([`Resume`]), the client truncates its parity
//! journal to that count, checks the digest, and resumes streaming
//! where the server left off. If the server has no usable record
//! ([`error_code::NO_SNAPSHOT`]), or the journal does not match
//! ([`ProtocolError::ResumeMismatch`]), the client falls back to a
//! fresh `Open` and replays its own event stream from the start — the
//! engine is deterministic, so either path converges on the same
//! directives.

use crate::chaos::ChaosConfig;
use crate::metrics::ObsReport;
use crate::protocol::{
    decode_server, error_code, read_frame, write_frame, ClientFrame, ProtocolError, ServerFrame,
    WireEvent, CONNECTION_SESSION,
};
use crate::server::{Endpoint, Stream};
use ibp_core::{DirectiveDigest, LaneDirective, PowerConfig, RankStats};
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

    /// Read frames until `want` accepts one; `QueryReply` frames are
    /// skipped, `Error` frames become [`ProtocolError::Remote`].
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
                ServerFrame::QueryReply { .. } => continue,
                other => match want(other) {
                    Some(v) => return Ok(v),
                    None => return Err(ProtocolError::Unexpected(format!("waiting for {what}"))),
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
        self.send(&ClientFrame::Restore {
            session,
            snapshot: snapshot.to_vec(),
        })?;
        let applied = self.expect("OpenAck", |f| match f {
            ServerFrame::OpenAck { events_applied, .. } => Some(events_applied),
            _ => None,
        })?;
        self.open_sessions.push(session);
        Ok(applied)
    }

    /// Rehydrate a session from the server's durable snapshot store
    /// (empty-body `Restore`). Returns the resume position with the
    /// count and digest of the directives delivered before it; the
    /// caller aligns its parity journal with [`Resume::align`]. Fails
    /// with [`ProtocolError::Remote`] carrying
    /// [`error_code::NO_SNAPSHOT`] when the server has no usable record
    /// — fall back to a fresh [`Client::open`].
    pub fn restore_from_store(&mut self, session: u32) -> Result<Resume, ProtocolError> {
        self.send(&ClientFrame::Restore {
            session,
            snapshot: Vec::new(),
        })?;
        let resume = self.expect("Resumed", |f| match f {
            ServerFrame::Resumed {
                events_applied,
                directives_total,
                digest,
                ..
            } => Some(Resume {
                events_applied,
                delivered: DirectiveDigest {
                    count: directives_total,
                    digest,
                },
            }),
            _ => None,
        })?;
        self.open_sessions.push(session);
        Ok(resume)
    }

    /// Stream one event batch; returns the server's total applied-event
    /// count and the directives the batch produced.
    pub fn send_events(
        &mut self,
        session: u32,
        events: &[WireEvent],
    ) -> Result<(u64, Vec<LaneDirective>), ProtocolError> {
        self.send(&ClientFrame::Events {
            session,
            events: events.to_vec(),
        })?;
        self.expect("Directives", |f| match f {
            ServerFrame::Directives {
                events_applied,
                directives,
                ..
            } => Some((events_applied, directives)),
            _ => None,
        })
    }

    /// Request an immediate statistics summary.
    pub fn flush_stats(&mut self, session: u32) -> Result<RankStats, ProtocolError> {
        self.send(&ClientFrame::Flush { session })?;
        self.expect("Stats", |f| match f {
            ServerFrame::Stats { stats, .. } => Some(*stats),
            _ => None,
        })
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
        self.send(&ClientFrame::Query {
            session: CONNECTION_SESSION,
        })?;
        self.expect_report()
    }

    fn expect_report(&mut self) -> Result<ObsReport, ProtocolError> {
        match self.recv()? {
            ServerFrame::Error { code, message, .. } => {
                Err(ProtocolError::Remote { code, message })
            }
            ServerFrame::QueryReply { report, .. } => Ok(*report),
            other => Err(ProtocolError::Unexpected(format!(
                "waiting for QueryReply, got {other:?}"
            ))),
        }
    }

    /// Finish the stream. Returns the lifetime directive count and the
    /// final stats; finishing issues no directives, and every batch's
    /// directives came back with its own reply.
    pub fn close(
        &mut self,
        session: u32,
        final_compute_ns: u64,
    ) -> Result<(u64, RankStats), ProtocolError> {
        self.send(&ClientFrame::Close {
            session,
            final_compute_ns,
        })?;
        let closed = self.expect("Closed", |f| match f {
            ServerFrame::Closed {
                directives_total,
                stats,
                ..
            } => Some((directives_total, *stats)),
            _ => None,
        })?;
        self.open_sessions.retain(|&s| s != session);
        Ok(closed)
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
                let frame = ClientFrame::Close {
                    session,
                    final_compute_ns: 0,
                };
                if write_frame(&mut self.writer, &frame.encode()).is_err() {
                    break;
                }
            }
        }
        let _ = self.writer.get_ref().shutdown();
    }
}

/// Reconnect/backoff/deadline policy for the load driver.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Consecutive failed attempts (connection or request) before the
    /// driver abandons its unfinished sessions (each reported as
    /// `gave_up` in its [`SessionOutcome`]). `1` means no retries at all.
    pub max_attempts: u32,
    /// First backoff delay, milliseconds; doubles per consecutive
    /// failure.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_backoff_ms: u64,
    /// Seed for the jitter PRNG (deterministic per driver: the driver
    /// mixes its first session id in).
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Driver connections the sessions are multiplexed over
    /// (round-robin partition by session id); `0` = one driver per
    /// session. Each driver opens its partition up front and streams a
    /// sliding window of it, with the same reconnect, split and chaos
    /// handling at any driver count. A thread per session stops working
    /// around a few thousand sessions; a few drivers make 10k+ sessions
    /// drivable from one process.
    pub drivers: usize,
    /// Cap on session `Open`s per second across all drivers (`0` =
    /// unlimited). Bounds the open ramp so a fleet arriving at once does
    /// not hit a cold server as a single burst.
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
    /// Times this session re-attached after its driver's connection
    /// was dropped (a transport fault, or another session's split on
    /// the same connection).
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

/// Drive every spec against `endpoint`: the fleet is split round-robin
/// by session id over [`LoadConfig::drivers`] driver threads (`0` = one
/// per session), which all run the same code over their partitions.
///
/// Returns after all sessions finish; a terminal protocol error fails
/// the run, but a driver that exhausts its retry budget is *reported*
/// (per-session `gave_up`, aggregate [`LoadReport::gave_up`]) rather
/// than failing the whole fleet — under heavy chaos some sessions
/// legitimately lose the race, and the caller decides whether that is
/// acceptable.
pub fn run_load(
    endpoint: &Endpoint,
    specs: Vec<SessionSpec>,
    cfg: &LoadConfig,
) -> Result<LoadReport, ProtocolError> {
    let sessions = specs.len();
    let drivers = match cfg.drivers {
        0 => sessions,
        n => n.min(sessions),
    }
    .max(1);
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
            std::thread::spawn(move || drive(&endpoint, part, &cfg, &tickets, start))
        })
        .collect();
    // The first error in join order fails the run, after every driver
    // has finished; a panicked driver counts as an error.
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
                first_err = first_err
                    .or_else(|| Some(ProtocolError::Unexpected("driver thread panicked".into())))
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(aggregate(
        outcomes,
        latencies_ns,
        sessions,
        start.elapsed().as_secs_f64(),
        cfg.check,
    ))
}

/// Fold per-session outcomes and batch latencies into a [`LoadReport`].
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
        events_per_sec: if elapsed_s > 0.0 {
            events_total as f64 / elapsed_s
        } else {
            0.0
        },
        latency_p50_us: pct(0.50),
        latency_p99_us: pct(0.99),
        latency_max_us: pct(1.0),
        parity_checked,
        parity_ok,
        per_session: outcomes,
    }
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

/// Where a store rehydration resumes a session
/// ([`Client::restore_from_store`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resume {
    /// Events the session has applied: stream on from here.
    pub events_applied: u64,
    /// Count and digest of the directives delivered before that point.
    pub delivered: DirectiveDigest,
}

impl Resume {
    /// Truncate `journal` — the directives the client received for the
    /// session, from event 0 — to the server's count, after checking
    /// that its prefix of that length has the server's digest. Leaves
    /// the journal untouched and fails with
    /// [`ProtocolError::ResumeMismatch`] when the client holds fewer
    /// directives than the server delivered, or different ones.
    pub fn align(&self, journal: &mut Vec<LaneDirective>) -> Result<(), ProtocolError> {
        let prefix = usize::try_from(self.delivered.count)
            .ok()
            .and_then(|n| journal.get(..n));
        if prefix.map(DirectiveDigest::of) != Some(self.delivered) {
            return Err(ProtocolError::ResumeMismatch {
                held: journal.len() as u64,
                delivered: self.delivered.count,
            });
        }
        journal.truncate(self.delivered.count as usize);
        Ok(())
    }
}

/// Sessions a driver actively streams at once. Every session in the
/// partition is *open* for the whole run — a fleet of concurrent
/// sessions — but traffic cycles through a bounded window of them: a
/// session gets batches until its stream drains and it closes, then the
/// window refills from the idle backlog. That is the mostly-idle
/// traffic mix real fleets show (COUNTDOWN's observation that most MPI
/// time is wait time), and it is the access pattern a
/// `--max-hot-sessions` LRU is designed for — the hot set is the active
/// windows, not the whole fleet. Round-robin over *all* sessions would
/// instead be the LRU's pathological case (every touch a miss at any
/// cap below the session count).
const ACTIVE_WINDOW: usize = 32;

/// One session's client-side state inside a [`drive`] partition.
struct SessionState {
    id: u32,
    spec: SessionSpec,
    /// Next event to send.
    cursor: usize,
    /// Where the split exercise still has to happen (`None` once done,
    /// or with no split configured).
    split_at: Option<usize>,
    /// Every directive the session has produced, from event 0, in
    /// order — kept only under `check`: at 10k+ sessions the journals,
    /// not the sockets, would otherwise dominate client memory.
    journal: Vec<LaneDirective>,
    directives: u64,
    reconnects: u64,
    /// The split's snapshot, kept until the restore from it succeeds.
    snapshot: Option<Vec<u8>>,
    /// Live on the driver's current connection.
    attached: bool,
}

impl SessionState {
    /// Count a response's directives, journaling them under `check`.
    fn record(&mut self, fresh: Vec<LaneDirective>, check: bool) {
        self.directives += fresh.len() as u64;
        if check {
            self.journal.extend(fresh);
        }
    }

    /// Make a detached session live on `c` again: from the split's
    /// client-carried snapshot if there is one, else by store
    /// rehydration (the journal is truncated to the server's directive
    /// count and checked against its digest) — or, when the server has
    /// no usable record ([`error_code::NO_SNAPSHOT`]) or the journal
    /// does not match, by a fresh `Open` and a replay from event 0. The
    /// engine is deterministic, so every path converges on the same
    /// directives.
    fn reattach(&mut self, c: &mut Client, check: bool) -> Result<(), ProtocolError> {
        let total = self.spec.events.len();
        if let Some(snapshot) = &self.snapshot {
            self.cursor = (c.restore(self.id, snapshot)? as usize).min(total);
            self.snapshot = None;
        } else {
            let resumed = match c.restore_from_store(self.id) {
                Err(ProtocolError::Remote { code, .. }) if code == error_code::NO_SNAPSHOT => None,
                resumed => Some(resumed?),
            };
            // Without `check` there is no journal to compare; the
            // server's count stands.
            let aligned = match resumed {
                Some(r) if !check || r.align(&mut self.journal).is_ok() => Some(r),
                Some(_) => {
                    // The journal lacks directives the server delivered:
                    // retire the resumed session and start over.
                    c.close(self.id, 0)?;
                    None
                }
                None => None,
            };
            match aligned {
                Some(r) => {
                    self.cursor = (r.events_applied as usize).min(total);
                    self.directives = r.delivered.count;
                }
                None => {
                    c.open(self.id, self.spec.rank, &self.spec.config)?;
                    self.cursor = 0;
                    self.directives = 0;
                    self.journal.clear();
                }
            }
            self.reconnects += 1;
        }
        self.attached = true;
        Ok(())
    }

    fn outcome(&self, gave_up: bool, parity_ok: Option<bool>) -> SessionOutcome {
        SessionOutcome {
            session: self.id,
            rank: self.spec.rank,
            events: self.cursor as u64,
            directives: self.directives,
            reconnects: self.reconnects,
            gave_up,
            parity_ok,
        }
    }
}

/// The load driver: one connection carrying one partition of sessions.
///
/// Healthy path: open every session up front (paced by the global open
/// ramp), then stream a sliding [`ACTIVE_WINDOW`] of sessions to
/// completion, closing each as it drains. A one-session partition is
/// the classic stream of one PMPI shim.
///
/// On a reconnectable error the connection is abandoned (never dropped:
/// a drop would `Close` every open session), the driver backs off under
/// the [`RetryPolicy`] and reconnects, and every unfinished session is
/// marked detached. A detached session re-attaches lazily, just before
/// its next frame, so a fault costs at most the active window's
/// restores, not the whole partition's. A re-attach the server refuses
/// with [`error_code::DUPLICATE_SESSION`] (it has not yet retired the
/// session from the dead connection) leaves the connection healthy:
/// after the backoff only that session retries, on the same
/// connection, and the partition's other sessions stay attached. A
/// session reaching its split
/// point is snapshotted, the connection abandoned, and the session
/// restored from the snapshot bytes on the next connection. The retry
/// budget counts consecutive failed steps; when it runs out, every
/// unfinished session of the partition reports `gave_up`.
///
/// The chaos reseed and the backoff jitter are keyed by the partition's
/// first session id.
fn drive(
    endpoint: &Endpoint,
    part: Vec<(u32, SessionSpec)>,
    cfg: &LoadConfig,
    tickets: &AtomicU64,
    start: Instant,
) -> Result<(Vec<SessionOutcome>, Vec<u64>), ProtocolError> {
    let Some(&(first, _)) = part.first() else {
        return Ok((Vec::new(), Vec::new()));
    };
    let batch = cfg.batch.max(1);
    let mut rng = StdRng::seed_from_u64(cfg.retry.jitter_seed ^ ((first as u64) << 32) ^ 0xC8A5);
    let opts_for = |conn_seq: u64| ConnectOptions {
        chaos: cfg.chaos.as_ref().map(|c| {
            c.reseeded(
                c.seed ^ ((first as u64) << 40) ^ conn_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        }),
        read_timeout_ms: cfg.retry.deadline_ms,
    };
    let mut sess: Vec<SessionState> = part
        .into_iter()
        .map(|(id, spec)| {
            let total = spec.events.len();
            let split_at = cfg
                .split
                .map(|f| ((total as f64 * f.clamp(0.0, 1.0)) as usize).min(total));
            SessionState {
                id,
                spec,
                cursor: 0,
                split_at,
                journal: Vec::new(),
                directives: 0,
                reconnects: 0,
                snapshot: None,
                attached: false,
            }
        })
        .collect();
    let n = sess.len();
    let mut latencies_ns = Vec::new();
    let mut outcomes = Vec::with_capacity(n);

    let mut client: Option<Client> = None;
    let mut conn_seq: u64 = 0;
    let mut failures: u32 = 0;
    // Sessions opened so far by the up-front ramp.
    let mut ramp = 0;
    let mut active: Vec<usize> = (0..n.min(ACTIVE_WINDOW)).collect();
    let mut next_idle = active.len();
    let mut slot = 0;

    while !active.is_empty() {
        // One step: an `Open` of the ramp, or one visit to a window
        // slot. `Ok(true)` asks for the split's connection drop.
        let step = (|| -> Result<bool, ProtocolError> {
            let c = match &mut client {
                Some(c) => c,
                None => {
                    let opts = opts_for(conn_seq);
                    conn_seq += 1;
                    client.insert(Client::connect_with(endpoint, &opts)?)
                }
            };
            if ramp < n {
                pace_open(tickets, cfg.open_rate, start);
                let s = &mut sess[ramp];
                c.open(s.id, s.spec.rank, &s.spec.config)?;
                s.attached = true;
                ramp += 1;
                return Ok(false);
            }
            if slot >= active.len() {
                slot = 0;
            }
            let k = active[slot];
            let s = &mut sess[k];
            if !s.attached {
                s.reattach(c, cfg.check)?;
            }
            let total = s.spec.events.len();
            let target = s.split_at.unwrap_or(total);
            if s.cursor < target {
                let end = (s.cursor + batch).min(target);
                let t0 = Instant::now();
                let (applied, fresh) = c.send_events(s.id, &s.spec.events[s.cursor..end])?;
                latencies_ns.push(t0.elapsed().as_nanos() as u64);
                s.record(fresh, cfg.check);
                s.cursor = (applied as usize).min(total).max(end);
            }
            if s.split_at.is_some_and(|at| s.cursor >= at) {
                // The split exercise: the caller drops the connection
                // without closing (a simulated crash) and the session
                // restores from these bytes on the next one.
                s.snapshot = Some(c.snapshot(s.id)?);
                s.split_at = None;
                return Ok(true);
            }
            if s.cursor >= total {
                let (_total_directives, stats) = c.close(s.id, s.spec.final_compute_ns)?;
                let journal = std::mem::take(&mut s.journal);
                let golden = s.spec.golden_directives.as_ref().filter(|_| cfg.check);
                let parity_ok = golden.map(|g| {
                    &journal == g && s.spec.golden_stats.as_ref().is_none_or(|gs| *gs == stats)
                });
                outcomes.push(s.outcome(false, parity_ok));
                // Retire this window slot and pull the next idle
                // session in; `swap_remove` moved an unvisited entry
                // to `slot`, so don't advance.
                active.swap_remove(slot);
                if next_idle < n {
                    active.push(next_idle);
                    next_idle += 1;
                }
            } else {
                slot += 1;
            }
            Ok(false)
        })();
        // Only a request that attaches a session (the ramp's `Open`, a
        // re-attach's restore) is refused as a duplicate: the server has
        // not yet torn down the session's previous connection.
        let refused = matches!(
            &step,
            Err(ProtocolError::Remote {
                code: error_code::DUPLICATE_SESSION,
                ..
            })
        );
        match step {
            Ok(false) => {
                failures = 0;
                continue;
            }
            Ok(true) => failures = 0,
            Err(e) if reconnectable(&e) => failures += 1,
            Err(e) => return Err(e),
        }
        let give_up = failures >= cfg.retry.max_attempts.max(1);
        // A split or a transport fault: drop the connection without
        // closing; every unfinished session re-attaches lazily on the
        // next one. A refused open keeps the connection: only the
        // refused session retries, after the backoff below.
        if !refused || give_up {
            if let Some(c) = client.take() {
                c.abandon();
            }
            for s in &mut sess {
                s.attached = false;
            }
        }
        if failures > 0 {
            if give_up {
                // An abandoned stream cannot match its golden annotation.
                let parity_ok = cfg.check.then_some(false);
                let unfinished = active.iter().copied().chain(next_idle..n);
                outcomes.extend(unfinished.map(|k| sess[k].outcome(true, parity_ok)));
                break;
            }
            std::thread::sleep(cfg.retry.backoff(failures, &mut rng));
        }
    }
    Ok((outcomes, latencies_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_core::SleepKind;
    use ibp_simcore::SimDuration;

    fn journal(n: usize) -> Vec<LaneDirective> {
        (0..n)
            .map(|i| LaneDirective {
                after_event: 3 * i,
                delay: SimDuration::ZERO,
                timer: SimDuration::from_us(100 + i as u64),
                predicted_idle: SimDuration::from_us(200),
                kind: SleepKind::Wrps,
            })
            .collect()
    }

    fn resume_after(delivered: &[LaneDirective]) -> Resume {
        Resume {
            events_applied: 77,
            delivered: DirectiveDigest::of(delivered),
        }
    }

    #[test]
    fn align_truncates_a_matching_journal() {
        let full = journal(9);
        let mut held = full.clone();
        resume_after(&full[..5])
            .align(&mut held)
            .expect("prefix matches");
        assert_eq!(held, full[..5]);
        resume_after(&full[..5])
            .align(&mut held)
            .expect("exact length");
        assert_eq!(held, full[..5]);
        resume_after(&[]).align(&mut held).expect("empty prefix");
        assert!(held.is_empty());
    }

    #[test]
    fn align_refuses_a_short_or_different_journal() {
        let full = journal(9);
        let mut held = full[..4].to_vec();
        let short = resume_after(&full[..6]).align(&mut held);
        assert!(matches!(
            short,
            Err(ProtocolError::ResumeMismatch {
                held: 4,
                delivered: 6
            })
        ));
        assert_eq!(held, full[..4], "a failed align leaves the journal alone");

        let mut other = full.clone();
        other[2].timer = SimDuration::from_us(1);
        let err = resume_after(&full[..6])
            .align(&mut other)
            .expect_err("digest differs");
        assert!(err.to_string().contains("cannot resume"), "{err}");
        assert_eq!(other.len(), 9);
    }
}
