//! The streaming prediction server.
//!
//! ## Threading model
//!
//! ```text
//!  event-loop threads (io_threads; loop 0 also owns the listener)
//!    epoll ──▶ per-connection state machine (frame reassembly)
//!    │             │  Open/Restore/Query answered inline
//!    │             │  Events/Flush for a hot, idle session (empty
//!    │             │  mailbox, no worker scheduled, engine lock free):
//!    │             │  applied inline, run to completion ─────────────┐
//!    │             │  everything else (cold session, Snapshot, Close, │
//!    │             ▼  work behind queued work, busy engine)           │
//!    │   per-session mailbox (VecDeque, cap = QUEUE_DEPTH)            │
//!    │             │  first push marks the session ready;             │
//!    │             │  an inline batch's due checkpoint queues here    │
//!    │             ▼                                                  │
//!    │        ready queue ◀── worker pool (supervised, respawned)     │
//!    │             │  store IO (rehydrate, checkpoint, durable        │
//!    │             │  close) and backlog, one session at a time       │
//!    │             ▼                                                  │
//!    │   per-connection outbound queue (bounded, shed-oldest) ◀───────┘
//!    │             │  a worker's push kicks the owning loop's
//!    │             │  eventfd; an inline reply needs no kick
//!    └──◀──────────┘  loop writes on writability
//! ```
//!
//! Connections are nonblocking and owned by a small fixed pool of
//! event-loop threads (round-robin at accept). Each loop runs a
//! level-triggered [`epoll`] poller over its connections, one `eventfd`
//! waker (for worker→loop notifications), and the shared shutdown
//! eventfd; loop 0 additionally owns the listening socket, so accept
//! readiness — not a sleep poll — drives new connections.
//!
//! **Run to completion.** A batch for a hot session whose mailbox is
//! empty, with no worker scheduled on it and its engine lock free
//! (`try_lock`), is applied on the event loop in the wake that read
//! it: decode, apply, encode and write with no thread hand-off. That
//! is the common case for a PMPI shim waiting on every reply, and it
//! removes the mailbox → worker → outbound-queue → eventfd round trip
//! from each batch. Workers are left with what may block — store IO
//! (rehydrating a cold session, periodic checkpoints, the durable
//! persist before a `Close` ack) — and with backlog. A checkpoint that
//! falls due after an inline batch is queued on the session's mailbox
//! as a work item and never runs on the loop. Both paths apply through
//! one helper, `apply_events`.
//!
//! **Backpressure (inbound).** A session's mailbox holds at most
//! `QUEUE_DEPTH` (64) pending work items. When it is full the connection
//! *parks*: the loop stashes the unroutable work item, stops reading
//! that socket (drops `EPOLLIN` interest), and registers a waiter on
//! the mailbox. The worker's next `pop` re-arms the connection through
//! the loop's waker — the parked item is retried, reading resumes, and
//! kernel flow control meanwhile pushes back on the client. A slow
//! *sender* therefore throttles its own connection only. (Sessions
//! multiplexed on one connection share that connection's read path, so
//! they share its fate — clients wanting full isolation open one
//! connection per session.)
//!
//! **Overload shedding (outbound).** Responses are never written from
//! worker threads. Each connection owns a bounded outbound queue;
//! workers enqueue, kick the owning event loop, and move on, so a
//! client that stops *reading* its socket can no longer stall the
//! worker pool. When a connection's queue overflows its `WRITE_QUEUE`
//! (256) frames, the oldest queued responses are shed and a single
//! in-band [`ServerFrame::Error`] with [`error_code::OVERLOAD`] tells
//! the client its response stream has a gap — the resilient client
//! reconnects and restores. Memory per connection stays bounded no
//! matter how slow the reader: queued frames move to the write buffer
//! only once it has fully drained. A peer that accepts no bytes for
//! `WRITE_TIMEOUT` (30 s) while replies are pending is dropped.
//!
//! **Fairness.** An event loop applies at most `DRAIN_QUANTUM`
//! batches inline per connection per wake; past that budget the
//! connection's further batches that wake go to the mailboxes, so one
//! flooding connection costs the loop a bounded slice before the other
//! connections are served (and its overflow is spread over the
//! workers). A worker likewise drains at most `DRAIN_QUANTUM` items
//! from one mailbox per scheduling turn, then re-enqueues the session,
//! so a continuously-fed session cannot pin a worker while other ready
//! sessions wait. Event loops read at most a fixed budget per
//! connection per wake before moving on (level triggering re-notifies).
//!
//! **Ordering.** Only the event loop that owns a session's connection
//! ever pushes to its mailbox. A frame is applied inline only when the
//! mailbox is empty and unscheduled, so no earlier frame of that
//! session is still pending or in a worker's hands; once anything is
//! queued, every later frame of the session queues behind it until a
//! worker has drained the mailbox — including frames that arrive
//! while a worker holds the engine lock for a checkpoint. The
//! `scheduled` flag inside the mailbox mutex guarantees at most one
//! outstanding ready-queue entry per session, so exactly one worker
//! drains a session at a time and work is applied in arrival order.
//! The flag is cleared under the same lock that observes the queue
//! empty, so a concurrent push either sees `scheduled == true` (the
//! worker has not yet drained its item) or re-schedules the session —
//! a wakeup can never be lost. The park/unpark handshake has the same
//! shape: the waiter is installed under the mailbox lock that observed
//! it full, and a non-empty mailbox is by construction scheduled, so a
//! future `pop` (which fires the waiter) is guaranteed.
//!
//! **Session table sharding.** The live-session registry is split
//! across [`SESSION_TABLE_SHARDS`] independently locked shards (hash =
//! `id % shards`), so Open/lookup/Close from different event loops
//! never serialize on one table lock; per-shard occupancy is exported
//! as a labelled gauge.
//!
//! **Session paging (LRU eviction).** With `max_hot_sessions` set (and
//! a store attached), only that many *hot* engines live in memory. When
//! a hot-add overflows the cap, the least-recently-touched idle session
//! is persisted to the [`SnapshotStore`] and its engine dropped
//! (`Cold`); the cell, mailbox, and outbound plumbing stay. Work
//! arriving for a cold session transparently rehydrates it from its
//! record first (`sessions_rehydrated`), which may in turn evict
//! another — millions of mostly-idle sessions fit in bounded memory.
//! Eviction persists *while holding the engine lock*, so a concurrent
//! rehydrate can never read a stale record.
//!
//! **Panic isolation.** Each work item is applied under
//! `catch_unwind`, on a worker and inline on the event loop alike: a
//! panic poisons nothing (locks are acquired poison-tolerantly),
//! retires only the offending session, counts in `worker_panics`, and
//! answers the client with an [`error_code::INTERNAL`] error; the
//! loop and its other connections carry on. The `run` thread
//! supervises the worker pool and respawns any thread that dies.
//!
//! **Durability.** With a [`SnapshotStore`] attached, sessions persist
//! their full learned state (with the count and digest of the
//! directives delivered so far) every
//! `persist_every` applied events, on every eviction, before every
//! `Close` acknowledgement, when their connection drops, and in a
//! final sweep when the server drains. A restarted server rehydrates
//! them from their record files for clients that `Restore` with an
//! empty snapshot body. See the `store` module docs for the
//! crash-safety contract.
//!
//! **Shutdown.** [`Server::stop_flag`] plus [`Server::wake_fd`] (an
//! eventfd every loop watches) give signal handlers a bounded-latency
//! drain path: one atomic store and one `write(2)`, both
//! async-signal-safe, and every loop wakes immediately instead of
//! finishing a poll quantum. Loops also tick every `TICK_MS` (25 ms) so a
//! bare `stop` store (no wake) still drains promptly.

use crate::chaos::ChaosConfig;
use crate::metrics::{
    spawn_exporter, MetricsRegistry, ObsReport, ServerProbe, SessionProbe, Stage, StoreProbe,
};
use crate::protocol::{
    decode_client, error_code, read_frame_header, verify_frame_crc, ClientFrame, ProtocolError,
    ServerFrame, WireEvent, CONNECTION_SESSION, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
use crate::session::Session;
use crate::store::{SnapshotStore, StoreRecord, RECORD_VERSION};
use epoll::{Events, Interest, Poller, Waker};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// Lock a mutex tolerating poisoning: every critical section in this
/// module leaves the protected data structurally valid even if the
/// holder panicked (single push/pop/insert operations), so the poison
/// flag carries no information worth crashing a second thread over.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Where the server listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address, e.g. `127.0.0.1:7411`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl Endpoint {
    /// Connect a client stream to this endpoint.
    pub fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
        }
    }
}

/// A connected byte stream over either transport, optionally wrapped
/// in the fault-injecting chaos harness.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection (Nagle disabled: frames are latency-sensitive).
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
    /// A fault-injecting wrapper around either transport (see
    /// [`crate::chaos`]).
    Chaos(crate::chaos::ChaosStream),
}

impl Stream {
    /// Clone the handle so one side can read while the other writes.
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Chaos(s) => s.try_clone().map(Stream::Chaos),
        }
    }

    /// Bound every blocking read so the owner can poll a stop flag.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Chaos(s) => s.get_ref().set_read_timeout(dur),
        }
    }

    /// Switch the underlying socket between blocking and nonblocking
    /// mode (the reactor runs every accepted connection nonblocking).
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
            Stream::Chaos(s) => s.get_ref().set_nonblocking(nonblocking),
        }
    }

    /// The raw fd, for epoll registration. Chaos wrappers register the
    /// inner transport fd — fault injection happens on read/write, not
    /// on readiness.
    pub fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Chaos(s) => s.get_ref().raw_fd(),
        }
    }

    /// Shut down both directions so the peer sees EOF immediately.
    pub fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Chaos(s) => s.get_ref().shutdown(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
            Stream::Chaos(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
            Stream::Chaos(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
            Stream::Chaos(s) => s.flush(),
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads applying event batches (the bounded pool).
    pub workers: usize,
    /// Event-loop (reactor) threads owning the nonblocking
    /// connections. Loop 0 also owns the listener. Two saturate the
    /// protocol path for most deployments; raise for very high
    /// connection counts.
    pub io_threads: usize,
    /// Stop the server after this many sessions have closed cleanly.
    /// `None` runs until [`Server::stop_flag`] is raised.
    pub session_limit: Option<u64>,
    /// Persist each store-backed session every this many applied
    /// events (0 = only on `Close` and at drain). Ignored without a
    /// store.
    pub persist_every: u64,
    /// Cap on *hot* (in-memory) session engines; the least-recently
    /// touched idle engines beyond it are evicted to the snapshot
    /// store and rehydrated transparently on their next work item.
    /// Requires a store ([`Server::with_store`]); ignored without one.
    /// `None` keeps every open session hot.
    pub max_hot_sessions: Option<usize>,
    /// Serve Prometheus text exposition over plaintext HTTP/1.0 on
    /// this address (e.g. `127.0.0.1:9464`; port 0 picks a free port).
    /// `None` disables the exporter; the [`MetricsRegistry`] is live
    /// either way (it is also what `Query` frames report).
    pub metrics_addr: Option<String>,
    /// Fault-inject accepted connections (tests and soak runs only;
    /// `None` = no wrapper, zero overhead).
    pub chaos: Option<ChaosConfig>,
    /// Chaos-test hook: a worker panics when it applies an event with
    /// this call id, exercising panic isolation end to end. Never set
    /// in production.
    #[doc(hidden)]
    pub panic_on_call: Option<u16>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            io_threads: 2,
            session_limit: None,
            persist_every: 256,
            max_hot_sessions: None,
            metrics_addr: None,
            chaos: None,
            panic_on_call: None,
        }
    }
}

/// Lifetime counters reported when the server stops (and, live, in
/// every [`ObsReport`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Sessions opened (fresh or restored).
    pub sessions_opened: u64,
    /// Sessions that finished with a `Close` frame.
    pub sessions_closed: u64,
    /// Events applied across all sessions.
    pub events_applied: u64,
    /// Lane directives streamed back.
    pub directives_sent: u64,
    /// Protocol-level errors (malformed frames, unknown sessions, …).
    pub protocol_errors: u64,
    /// Responses shed from overloaded connection write queues.
    pub responses_shed: u64,
    /// Worker panics caught and isolated to their session.
    pub worker_panics: u64,
    /// Worker threads respawned by the supervisor.
    pub worker_respawns: u64,
    /// Session records persisted to the snapshot store.
    pub snapshots_persisted: u64,
    /// Persist attempts that failed (disk errors).
    pub persist_failures: u64,
    /// Sessions rehydrated from the store (empty-body `Restore`, or
    /// transparently when work arrived for an evicted session).
    pub sessions_rehydrated: u64,
    /// Hot session engines evicted to the store by the LRU pager.
    pub evictions: u64,
}

/// Shards in the live-session registry. Session id modulo this picks
/// the shard, so lookups from different event loops rarely contend.
pub const SESSION_TABLE_SHARDS: usize = 8;

/// Reactor poll quantum: the upper bound on how stale the write-stall
/// check and a waker-less stop request can get.
const TICK_MS: i32 = 25;

/// Everything shared by the event loops and workers.
struct Shared {
    cfg: ServeConfig,
    metrics: Arc<MetricsRegistry>,
    /// Raised to stop the server (public flag, shared with
    /// [`Server::stop_flag`]).
    stop: Arc<AtomicBool>,
    /// Raised once the event loops have drained; workers exit instead
    /// of waiting for more work.
    drain: AtomicBool,
    store: Option<Arc<SnapshotStore>>,
    /// Every live session, for `Query` fleet probes and the drain
    /// sweep, sharded by `id % SESSION_TABLE_SHARDS`. Weak: a dropped
    /// connection's cells must not leak here.
    shards: Vec<Mutex<HashMap<u32, Weak<SessionCell>>>>,
    /// LRU recency order over hot sessions (only used when
    /// `max_hot_sessions` is set).
    lru: Mutex<LruState>,
    /// The shutdown eventfd every loop watches; `notify` gives signal
    /// handlers and `session_limit` a bounded-latency drain.
    shutdown: Arc<Waker>,
    /// Monotonic accepted-connection counter (chaos reseeding).
    conn_seq: AtomicU64,
}

/// The frames the event loop may apply inline on a hot engine (see
/// [`apply_events`]).
enum Batch {
    Events(Vec<WireEvent>),
    Flush,
}

enum Work {
    Batch(Batch),
    Snapshot,
    Close(u64),
    /// A periodic persist that fell due after a batch the event loop
    /// applied inline. It is store IO, so a worker runs it.
    Checkpoint,
}

/// Work items a worker applies from one mailbox before handing the
/// session back to the ready queue, and batches an event loop applies
/// inline for one connection per wake (see the module docs on
/// fairness).
const DRAIN_QUANTUM: usize = 32;

/// Pending work items per session mailbox before its connection parks
/// (stops reading) for backpressure.
const QUEUE_DEPTH: usize = 64;

/// Outbound frames queued per connection before the oldest are shed
/// with an in-band overload error.
const WRITE_QUEUE: usize = 256;

/// A connection whose peer has accepted no bytes for this long while
/// responses are pending is dropped (a stuck reader).
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

// ------------------------------------------------------- outbound queue

struct OutboundState {
    /// Framed replies (length prefix + CRC + payload), ready to write.
    frames: VecDeque<Vec<u8>>,
    /// Set when the socket died: producers drop their frames instead
    /// of queueing.
    dead: bool,
    /// An overload error frame is already queued; coalesces repeat
    /// shed bursts into one in-band notification.
    overload_pending: bool,
    /// A loop service request for this connection is already pending;
    /// coalesces a burst of pushes into one eventfd kick.
    flush_queued: bool,
}

/// One connection's bounded outbound queue. Workers push framed
/// replies without ever blocking on the socket and kick the owning
/// event loop, which writes them on writability.
struct ConnTx {
    q: Mutex<OutboundState>,
    metrics: Arc<MetricsRegistry>,
    /// The event loop that owns the connection's socket.
    home: Arc<LoopHandle>,
    /// The connection's token in that loop.
    token: u64,
}

impl ConnTx {
    fn new(metrics: Arc<MetricsRegistry>, home: Arc<LoopHandle>, token: u64) -> Arc<ConnTx> {
        Arc::new(ConnTx {
            q: Mutex::new(OutboundState {
                frames: VecDeque::new(),
                dead: false,
                overload_pending: false,
                flush_queued: false,
            }),
            metrics,
            home,
            token,
        })
    }

    /// Queue one framed reply, shedding the oldest entries (plus one
    /// in-band overload error) when the queue is full. Never blocks on
    /// the socket. `wake` kicks the owning loop (callers already on
    /// that loop skip it — the loop flushes after servicing the
    /// connection anyway). Returns frames shed.
    fn push(&self, payload: Vec<u8>, wake: bool) -> u64 {
        let mut q = lock_ok(&self.q);
        if q.dead {
            return 0;
        }
        let mut shed = 0u64;
        let mut queued = 1u64;
        if q.frames.len() >= WRITE_QUEUE {
            while q.frames.len() >= WRITE_QUEUE - 1 {
                q.frames.pop_front();
                shed += 1;
            }
            self.metrics
                .responses_shed
                .fetch_add(shed, Ordering::Relaxed);
            if !q.overload_pending {
                q.overload_pending = true;
                let err = ServerFrame::Error {
                    session: CONNECTION_SESSION,
                    code: error_code::OVERLOAD,
                    message: "outbound queue overflowed; older responses were shed — \
                              reconnect and restore"
                        .into(),
                };
                q.frames.push_back(encode_frame(&err));
                queued += 1;
            }
        }
        q.frames.push_back(payload);
        let kick = wake && !q.flush_queued;
        if kick {
            q.flush_queued = true;
        }
        drop(q);
        // Net change to the fleet-wide writer-queue occupancy gauge.
        if queued >= shed {
            self.metrics
                .writer_queue_depth
                .fetch_add(queued - shed, Ordering::Relaxed);
        } else {
            self.metrics
                .writer_queue_depth
                .fetch_sub(shed - queued, Ordering::Relaxed);
        }
        if kick {
            self.home.request_service(self.token);
        }
        shed
    }

    /// Drain every queued frame for the owning loop to write. Clears
    /// the kick-coalescing flag under the same lock, so pushes after
    /// this drain re-notify.
    fn take_batch(&self, into: &mut Vec<Vec<u8>>) {
        let mut q = lock_ok(&self.q);
        if q.frames.is_empty() {
            q.flush_queued = false;
            return;
        }
        into.extend(q.frames.drain(..));
        q.overload_pending = false;
        q.flush_queued = false;
        self.metrics
            .writer_queue_depth
            .fetch_sub(into.len() as u64, Ordering::Relaxed);
    }

    fn is_empty(&self) -> bool {
        lock_ok(&self.q).frames.is_empty()
    }

    /// The socket died: drop queued frames and refuse new ones.
    fn mark_dead(&self) {
        let mut q = lock_ok(&self.q);
        q.dead = true;
        self.metrics
            .writer_queue_depth
            .fetch_sub(q.frames.len() as u64, Ordering::Relaxed);
        q.frames.clear();
    }
}

// ------------------------------------------------------------- sessions

/// Where a worker's `pop` should send its "mailbox has space again"
/// signal: the loop (and connection token) parked on this mailbox.
struct Waiter {
    home: Arc<LoopHandle>,
    token: u64,
}

struct MailboxState {
    /// Pending work, each item stamped with when it was queued (the
    /// mailbox-wait stage is measured from there to the pop).
    deque: VecDeque<(Instant, Work)>,
    scheduled: bool,
    /// A parked connection waiting for space (at most one: a session's
    /// frames all arrive on one connection).
    waiter: Option<Waiter>,
}

/// A session engine's residency state. `Cold` keeps the cell (mailbox,
/// registry entry, connection plumbing) while the engine itself lives
/// only in the snapshot store; `Retired` is terminal (closed or
/// panicked).
enum SessionSlot {
    Hot(Box<Session>),
    Cold,
    Retired,
}

/// One live session plus its mailbox and its connection's outbound
/// queue.
struct SessionCell {
    id: u32,
    /// The rank the session annotates, copied out of the session so a
    /// `Query` probe can still label a cell whose engine is checked out
    /// by a worker (or paged out, or already retired).
    rank: u32,
    state: Mutex<SessionSlot>,
    mailbox: Mutex<MailboxState>,
    tx: Arc<ConnTx>,
    /// For residency-gauge accounting on drop and LRU upkeep.
    metrics: Arc<MetricsRegistry>,
}

/// Outcome of a non-blocking mailbox push.
enum PushOutcome {
    /// Queued; `true` means the session must be (re-)scheduled.
    Queued(bool),
    /// Mailbox full: the work item comes back, the waiter was
    /// installed, and the connection must park (stop reading) until
    /// the next `pop` fires it.
    Full(Work),
}

impl SessionCell {
    /// Push work without blocking. When the mailbox is full, install
    /// `waiter` (under the same lock that observed fullness — a
    /// concurrent `pop` therefore cannot miss it) and hand the work
    /// back for the connection to stash.
    fn try_push(&self, work: Work, waiter: impl FnOnce() -> Waiter) -> PushOutcome {
        let mut mb = lock_ok(&self.mailbox);
        if mb.deque.len() >= QUEUE_DEPTH {
            mb.waiter = Some(waiter());
            return PushOutcome::Full(work);
        }
        mb.deque.push_back((Instant::now(), work));
        let needs_schedule = !mb.scheduled;
        mb.scheduled = true;
        PushOutcome::Queued(needs_schedule)
    }

    /// Pop the next work item; clears `scheduled` (under the same lock)
    /// when the mailbox is empty, and fires any parked connection's
    /// waiter now that there is space.
    fn pop(&self) -> Option<Work> {
        let (item, waiter) = {
            let mut mb = lock_ok(&self.mailbox);
            match mb.deque.pop_front() {
                Some(item) => (Some(item), mb.waiter.take()),
                None => {
                    mb.scheduled = false;
                    (None, mb.waiter.take())
                }
            }
        };
        if let Some(w) = waiter {
            w.home.request_service(w.token);
        }
        let (queued, work) = item?;
        self.metrics
            .observe_stage(Stage::MailboxWait, queued.elapsed());
        Some(work)
    }

    /// Called when a drain quantum expires while the worker still holds
    /// the `scheduled` token (i.e. `pop` never returned `None`): keep
    /// the token and report `true` if items remain (the caller must
    /// re-enqueue the cell), otherwise release the token so the next
    /// push re-schedules the session.
    fn needs_requeue(&self) -> bool {
        let mut mb = lock_ok(&self.mailbox);
        if mb.deque.is_empty() {
            mb.scheduled = false;
            false
        } else {
            true
        }
    }
}

impl Drop for SessionCell {
    fn drop(&mut self) {
        // Keep the residency gauges honest when a connection drops its
        // cells without a clean Close.
        let slot = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        match slot {
            SessionSlot::Hot(_) => {
                self.metrics.hot_sessions.fetch_sub(1, Ordering::Relaxed);
            }
            SessionSlot::Cold => {
                self.metrics.cold_sessions.fetch_sub(1, Ordering::Relaxed);
            }
            SessionSlot::Retired => {}
        }
    }
}

// ------------------------------------------------------------ LRU pager

/// Recency order over hot sessions: `order` maps a monotonically
/// increasing touch sequence to the session, `pos` finds a session's
/// current sequence for O(log n) re-touch. Both hold exactly one entry
/// per tracked session. Stale entries (evicted, retired, or dropped
/// cells) are skipped at pop time.
#[derive(Default)]
struct LruState {
    seq: u64,
    order: BTreeMap<u64, (u32, Weak<SessionCell>)>,
    pos: HashMap<u32, u64>,
}

impl LruState {
    fn touch(&mut self, id: u32, cell: Weak<SessionCell>) {
        if let Some(old) = self.pos.remove(&id) {
            self.order.remove(&old);
        }
        self.seq += 1;
        self.order.insert(self.seq, (id, cell));
        self.pos.insert(id, self.seq);
    }

    fn remove(&mut self, id: u32) {
        if let Some(seq) = self.pos.remove(&id) {
            self.order.remove(&seq);
        }
    }

    /// The least recently touched session, untracked.
    fn pop_oldest(&mut self) -> Option<(u32, Weak<SessionCell>)> {
        let (_, (id, cell)) = self.order.pop_first()?;
        self.pos.remove(&id);
        Some((id, cell))
    }
}

/// True when the pager is active (a cap *and* a store: eviction without
/// a store would lose engines, so the cap is ignored then).
fn paging_enabled(shared: &Shared) -> bool {
    shared.cfg.max_hot_sessions.is_some() && shared.store.is_some()
}

/// Record a hot session as most-recently used.
fn lru_touch(shared: &Shared, cell: &Arc<SessionCell>) {
    if paging_enabled(shared) {
        lock_ok(&shared.lru).touch(cell.id, Arc::downgrade(cell));
    }
}

/// Evict least-recently-used hot engines until the hot set fits the
/// cap. Lock order: the LRU lock is only ever held alone; a victim's
/// engine lock is taken with `try_lock` (busy engines are re-touched
/// and retried later) and the store's lock is only taken *under* the
/// engine lock — the same order `ensure_hot` uses, so a rehydrate can
/// never interleave with a half-finished eviction of the same session.
fn maybe_evict(shared: &Shared) {
    let Some(cap) = shared.cfg.max_hot_sessions else {
        return;
    };
    let Some(store) = shared.store.as_ref() else {
        return;
    };
    let metrics = &shared.metrics;
    // Bounded sweep: every iteration either evicts, discards a stale
    // entry, or re-touches a busy victim; the budget stops a pathological
    // all-busy spin (the next hot-add retries).
    let mut budget = 4096usize;
    while metrics.hot_sessions.load(Ordering::Relaxed) as usize > cap && budget > 0 {
        budget -= 1;
        let Some((_, weak)) = lock_ok(&shared.lru).pop_oldest() else {
            break;
        };
        let Some(cell) = weak.upgrade() else { continue };
        let mut guard = match cell.state.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                // A worker holds the engine: it is plainly not idle.
                // Back of the queue, try the next-oldest instead.
                lru_touch(shared, &cell);
                continue;
            }
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        };
        if !matches!(&*guard, SessionSlot::Hot(_)) {
            continue; // already evicted or retired under us
        }
        let SessionSlot::Hot(sess) = std::mem::replace(&mut *guard, SessionSlot::Cold) else {
            unreachable!("checked Hot above");
        };
        let record = record_of(cell.id, &sess, false);
        // Persist *inside* the engine lock: a concurrent work item for
        // this session blocks on the lock until the record is written,
        // so its rehydrate reads exactly this state. The fast variant
        // skips the fsyncs — rename-atomicity is what rehydration
        // correctness needs; paging throughput must not be bounded by
        // sync latency (close and drain still persist durably).
        match store.persist_fast(&record) {
            Ok(()) => {
                metrics.snapshots_persisted.fetch_add(1, Ordering::Relaxed);
                metrics.evictions.fetch_add(1, Ordering::Relaxed);
                metrics.hot_sessions.fetch_sub(1, Ordering::Relaxed);
                metrics.cold_sessions.fetch_add(1, Ordering::Relaxed);
                // Cold engines leave the per-depth sleep gauge; the
                // record's snapshot re-registers the depth on
                // rehydration.
                metrics.sleep_depth_changed(sess.pending_depth(), None);
            }
            Err(_) => {
                // Disk trouble: keep the engine hot (dropping it would
                // lose state) and stop evicting for now.
                metrics.persist_failures.fetch_add(1, Ordering::Relaxed);
                *guard = SessionSlot::Hot(sess);
                drop(guard);
                lru_touch(shared, &cell);
                break;
            }
        }
    }
}

/// Make a cell's engine resident, rehydrating from the store when it
/// was evicted. Called with the engine lock held; returns `true` when
/// a rehydration happened (the caller then runs `maybe_evict` after
/// releasing the lock). On failure the cell retires and the client
/// gets an INTERNAL error.
fn ensure_hot(
    guard: &mut MutexGuard<'_, SessionSlot>,
    cell: &SessionCell,
    shared: &Shared,
) -> Result<bool, String> {
    if matches!(&**guard, SessionSlot::Hot(_)) {
        return Ok(false);
    }
    let Some(store) = shared.store.as_ref() else {
        return Err(format!(
            "session {} was evicted but the store is gone",
            cell.id
        ));
    };
    let record = match store.load(cell.id) {
        Ok(Some(r)) => r,
        Ok(None) => {
            return Err(format!("evicted session {} has no stored record", cell.id));
        }
        Err(e) => return Err(format!("snapshot store read failed: {e}")),
    };
    match Session::restore_from_record(&record) {
        Ok(sess) => {
            shared
                .metrics
                .sleep_depth_changed(None, sess.pending_depth());
            **guard = SessionSlot::Hot(Box::new(sess));
            shared.metrics.cold_sessions.fetch_sub(1, Ordering::Relaxed);
            shared.metrics.hot_sessions.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .sessions_rehydrated
                .fetch_add(1, Ordering::Relaxed);
            Ok(true)
        }
        Err(e) => Err(format!(
            "evicted session {} failed to rehydrate: {e}",
            cell.id
        )),
    }
}

/// Terminal transition: take the engine (if any), fix the residency
/// gauges, and forget the LRU entry. Used by worker panics and
/// rehydration failures; `Close` calls [`retire_locked`] directly.
fn retire_cell(cell: &SessionCell, shared: &Shared) -> Option<Box<Session>> {
    retire_locked(lock_ok(&cell.state), cell.id, shared)
}

/// [`retire_cell`] under an engine lock the caller already holds. The
/// lock is released before the LRU entry goes: the LRU lock is only
/// ever held alone (see [`maybe_evict`]).
fn retire_locked(
    mut guard: MutexGuard<'_, SessionSlot>,
    id: u32,
    shared: &Shared,
) -> Option<Box<Session>> {
    let prev = std::mem::replace(&mut *guard, SessionSlot::Retired);
    drop(guard);
    let out = match prev {
        SessionSlot::Hot(sess) => {
            shared.metrics.hot_sessions.fetch_sub(1, Ordering::Relaxed);
            shared
                .metrics
                .sleep_depth_changed(sess.pending_depth(), None);
            Some(sess)
        }
        SessionSlot::Cold => {
            shared.metrics.cold_sessions.fetch_sub(1, Ordering::Relaxed);
            None
        }
        SessionSlot::Retired => None,
    };
    if paging_enabled(shared) {
        lock_ok(&shared.lru).remove(id);
    }
    out
}

// ------------------------------------------------------------- listener

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Accept one connection, nonblocking, ready for epoll.
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                Ok(Stream::Unix(s))
            }
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

// ----------------------------------------------------------- loop handle

/// The cross-thread face of one event loop: workers (and the accept
/// path) talk to a loop only through its handle.
struct LoopHandle {
    /// Wakes the loop's poller.
    waker: Waker,
    /// Connection tokens needing service (outbound flush or unpark).
    pending: Mutex<Vec<u64>>,
    /// Freshly accepted connections for this loop to adopt.
    inbox: Mutex<Vec<(u64, Stream)>>,
}

impl LoopHandle {
    fn new() -> std::io::Result<LoopHandle> {
        Ok(LoopHandle {
            waker: Waker::new()?,
            pending: Mutex::new(Vec::new()),
            inbox: Mutex::new(Vec::new()),
        })
    }

    /// Ask the loop to service `token` (flush its outbound queue or
    /// retry its parked work item).
    fn request_service(&self, token: u64) {
        lock_ok(&self.pending).push(token);
        self.waker.notify();
    }

    /// Hand a freshly accepted connection (with its chaos sequence
    /// number) to the loop.
    fn dispatch(&self, seq: u64, stream: Stream) {
        lock_ok(&self.inbox).push((seq, stream));
        self.waker.notify();
    }

    fn take_pending(&self) -> Vec<u64> {
        std::mem::take(&mut lock_ok(&self.pending))
    }

    fn take_inbox(&self) -> Vec<(u64, Stream)> {
        std::mem::take(&mut lock_ok(&self.inbox))
    }
}

// --------------------------------------------------------------- server

/// The streaming prediction server. [`Server::bind`], then
/// (optionally) [`Server::with_store`], then [`Server::run`].
pub struct Server {
    listener: Listener,
    cfg: ServeConfig,
    stop: Arc<AtomicBool>,
    bound: Endpoint,
    store: Option<Arc<SnapshotStore>>,
    metrics: Arc<MetricsRegistry>,
    metrics_bound: Option<SocketAddr>,
    exporter: Option<std::thread::JoinHandle<()>>,
    loops: Vec<Arc<LoopHandle>>,
    shutdown: Arc<Waker>,
}

impl Server {
    /// Bind the listening socket (a stale Unix socket file is replaced).
    pub fn bind(endpoint: &Endpoint, cfg: ServeConfig) -> Result<Server, ProtocolError> {
        let (listener, bound) = match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let bound = Endpoint::Tcp(l.local_addr()?.to_string());
                (Listener::Tcp(l), bound)
            }
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                (
                    Listener::Unix(l, path.clone()),
                    Endpoint::Unix(path.clone()),
                )
            }
        };
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(MetricsRegistry::default());
        // Bind the exporter here, not in `run`, so a bad --metrics-addr
        // fails loudly at startup instead of being swallowed mid-serve.
        let (metrics_bound, exporter) = match &cfg.metrics_addr {
            Some(addr) => {
                let (bound_addr, handle) =
                    spawn_exporter(addr, Arc::clone(&metrics), Arc::clone(&stop))?;
                (Some(bound_addr), Some(handle))
            }
            None => (None, None),
        };
        // Reactor plumbing is allocated here too, for the same reason:
        // fd exhaustion surfaces as a bind error, not a mid-serve panic.
        let loops = (0..cfg.io_threads.max(1))
            .map(|_| LoopHandle::new().map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        let shutdown = Arc::new(Waker::new()?);
        Ok(Server {
            listener,
            cfg,
            stop,
            bound,
            store: None,
            metrics,
            metrics_bound,
            exporter,
            loops,
            shutdown,
        })
    }

    /// Attach a durable snapshot store: sessions persist periodically
    /// and on `Close`, drain flushes every live session, clients can
    /// rehydrate with an empty-body `Restore`, and `max_hot_sessions`
    /// eviction becomes available.
    #[must_use]
    pub fn with_store(mut self, store: Arc<SnapshotStore>) -> Server {
        self.store = Some(store);
        self
    }

    /// The actual bound endpoint (resolves a `:0` TCP port request).
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.bound
    }

    /// Where the Prometheus exporter listens, when `metrics_addr` was
    /// configured (resolves a `:0` port request).
    #[must_use]
    pub fn metrics_endpoint(&self) -> Option<SocketAddr> {
        self.metrics_bound
    }

    /// The live metrics registry (scrape-equivalent view for tests and
    /// embedding processes).
    #[must_use]
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// A flag that stops [`Server::run`] when set from another thread.
    /// Raising it triggers a graceful drain: accepting stops, in-flight
    /// work quiesces, and (with a store) every live session is
    /// persisted before `run` returns. Pair with [`Server::wake_fd`]
    /// for bounded-latency drains; a bare store is still noticed within
    /// one `TICK_MS` (25 ms) poll quantum.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The shutdown eventfd: after storing the stop flag, write 8
    /// bytes here (see `epoll::notify_raw` — async-signal-safe) and
    /// every event loop wakes immediately instead of finishing its
    /// poll quantum. Valid for the life of the server.
    #[must_use]
    pub fn wake_fd(&self) -> RawFd {
        self.shutdown.raw_fd()
    }

    /// Accept and serve connections until the stop flag is raised or
    /// `session_limit` sessions have closed. Blocks; returns lifetime
    /// counters.
    pub fn run(self) -> ServeSummary {
        let shared = Arc::new(Shared {
            cfg: self.cfg.clone(),
            metrics: Arc::clone(&self.metrics),
            stop: Arc::clone(&self.stop),
            drain: AtomicBool::new(false),
            store: self.store.clone(),
            shards: (0..SESSION_TABLE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            lru: Mutex::new(LruState::default()),
            shutdown: Arc::clone(&self.shutdown),
            conn_seq: AtomicU64::new(0),
        });
        let (ready_tx, ready_rx) = mpsc::channel::<Arc<SessionCell>>();
        let ready_rx = Arc::new(Mutex::new(ready_rx));

        let spawn_worker = |shared: &Arc<Shared>| {
            let rx = Arc::clone(&ready_rx);
            let tx = ready_tx.clone();
            let shared = Arc::clone(shared);
            std::thread::spawn(move || worker_loop(&rx, &tx, &shared))
        };
        let mut workers: Vec<_> = (0..self.cfg.workers.max(1))
            .map(|_| spawn_worker(&shared))
            .collect();

        // Event loops: loop 0 owns the listener.
        let listener = Arc::new(self.listener);
        let (life_tx, life_rx) = mpsc::channel::<()>();
        let loop_threads: Vec<_> = self
            .loops
            .iter()
            .enumerate()
            .map(|(idx, handle)| {
                let shared = Arc::clone(&shared);
                let handle = Arc::clone(handle);
                let peers = self.loops.clone();
                let ready = ready_tx.clone();
                let life = life_tx.clone();
                let listener = (idx == 0).then(|| Arc::clone(&listener));
                std::thread::spawn(move || {
                    let mut reactor = Reactor::new(shared, handle, peers, ready, listener);
                    reactor.run();
                    drop(reactor);
                    let _ = life.send(());
                })
            })
            .collect();
        drop(life_tx);

        // Supervise: respawn dead workers, watch the stop flag and the
        // session limit. Loop exits (lifecycle channel) wake this
        // thread instantly; otherwise it ticks at 100ms.
        loop {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            if let Some(limit) = self.cfg.session_limit {
                if shared.metrics.sessions_closed.load(Ordering::Relaxed) >= limit {
                    break;
                }
            }
            // A worker only ever exits early if something escaped its
            // panic isolation — replace it so capacity cannot silently
            // ratchet down to zero.
            for w in workers.iter_mut() {
                if w.is_finished() {
                    shared
                        .metrics
                        .worker_respawns
                        .fetch_add(1, Ordering::Relaxed);
                    let fresh = spawn_worker(&shared);
                    let dead = std::mem::replace(w, fresh);
                    let _ = dead.join();
                }
            }
            match life_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(()) | Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }

        // Graceful drain: stop the loops (each persists and closes its
        // connections on the way out), then the workers, then flush
        // every store-backed session still registered.
        self.stop.store(true, Ordering::Relaxed);
        shared.shutdown.notify();
        for t in loop_threads {
            let _ = t.join();
        }
        shared.drain.store(true, Ordering::Relaxed);
        drop(ready_tx);
        for w in workers {
            let _ = w.join();
        }
        if shared.store.is_some() {
            for shard in &shared.shards {
                let cells: Vec<Arc<SessionCell>> =
                    lock_ok(shard).values().filter_map(Weak::upgrade).collect();
                for cell in cells {
                    persist_cell(&cell, &shared, false);
                }
            }
        }
        if let Listener::Unix(_, path) = &*listener {
            let _ = std::fs::remove_file(path);
        }
        // The public stop flag is set (just above), which is what the
        // exporter thread polls — join it so `run` returning means
        // every server-owned thread is gone.
        if let Some(exporter) = self.exporter {
            let _ = exporter.join();
        }
        shared.metrics.summary()
    }
}
// -------------------------------------------------------------- reactor

/// Reserved poller tokens; connections start above them.
const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_SHUTDOWN: u64 = 2;
const TOKEN_FIRST_CONN: u64 = 3;

/// Per-read scratch size and the per-connection read budget per wake
/// (level triggering re-notifies anything left unread).
const READ_CHUNK: usize = 64 * 1024;
const READS_PER_WAKE: usize = 8;

/// Frame-reassembly phase of one connection.
enum ConnPhase {
    /// Waiting for the 6-byte client hello.
    Hello,
    /// Streaming length-prefixed frames.
    Frames,
}

/// One nonblocking connection owned by an event loop.
struct Conn {
    stream: Stream,
    fd: RawFd,
    tx: Arc<ConnTx>,
    /// Unparsed inbound bytes (compacted after each parse pass).
    rd: Vec<u8>,
    phase: ConnPhase,
    /// Encoded outbound bytes not yet accepted by the kernel.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Scratch for draining the outbound queue without re-allocating.
    batch: Vec<Vec<u8>>,
    sessions: HashMap<u32, Arc<SessionCell>>,
    /// A work item that did not fit its session's mailbox; the
    /// connection is parked (not reading) until it goes through.
    paused: Option<(u32, Work)>,
    /// Batches this connection may still apply inline in the current
    /// wake; refilled to [`DRAIN_QUANTUM`] whenever the loop reads it.
    inline_budget: usize,
    write_blocked_since: Option<Instant>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Stop reading and tear down once the outbound side drains.
    closing: bool,
}

/// One event-loop thread: a poller over its connections, its handle's
/// waker, the shared shutdown eventfd, and (loop 0) the listener.
struct Reactor {
    shared: Arc<Shared>,
    handle: Arc<LoopHandle>,
    /// Every loop's handle, for round-robin accept dispatch (loop 0).
    peers: Vec<Arc<LoopHandle>>,
    ready: mpsc::Sender<Arc<SessionCell>>,
    listener: Option<Arc<Listener>>,
    poller: Option<Poller>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    scratch: Vec<u8>,
}

impl Reactor {
    fn new(
        shared: Arc<Shared>,
        handle: Arc<LoopHandle>,
        peers: Vec<Arc<LoopHandle>>,
        ready: mpsc::Sender<Arc<SessionCell>>,
        listener: Option<Arc<Listener>>,
    ) -> Reactor {
        Reactor {
            shared,
            handle,
            peers,
            ready,
            listener,
            poller: Poller::new().ok(),
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            scratch: vec![0u8; READ_CHUNK],
        }
    }

    fn run(&mut self) {
        let Some(poller) = self.poller.take() else {
            // Epoll itself failed (fd exhaustion after bind): nothing
            // to serve with. The supervisor notices via the lifecycle
            // channel; counted so the condition is observable.
            self.shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return;
        };
        if poller
            .add(self.handle.waker.raw_fd(), TOKEN_WAKER, Interest::READ)
            .is_err()
            || poller
                .add(
                    self.shared.shutdown.raw_fd(),
                    TOKEN_SHUTDOWN,
                    Interest::READ,
                )
                .is_err()
        {
            self.shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some(l) = &self.listener {
            let _ = poller.add(l.raw_fd(), TOKEN_LISTENER, Interest::READ);
        }
        let mut events = Events::with_capacity(512);
        let mut touched: Vec<u64> = Vec::new();
        loop {
            let _ = poller.wait(&mut events, TICK_MS);
            if self.shared.stop.load(Ordering::Relaxed) {
                break;
            }
            touched.clear();
            let mut accept_ready = false;
            for ev in events.iter() {
                match ev.token {
                    TOKEN_WAKER => self.handle.waker.drain(),
                    TOKEN_SHUTDOWN => {} // stop flag checked at loop top
                    TOKEN_LISTENER => accept_ready = true,
                    token => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            if ev.is_error() && conn.rd.is_empty() {
                                conn.closing = true;
                            }
                            if ev.writable() {
                                conn.write_blocked_since = None;
                            }
                            if ev.readable() {
                                self.read_conn(&poller, token);
                            }
                            touched.push(token);
                        }
                    }
                }
            }
            if accept_ready {
                self.accept_burst(&poller);
            }
            for (seq, stream) in self.handle.take_inbox() {
                self.adopt(&poller, seq, stream);
            }
            for token in self.handle.take_pending() {
                if self.conns.contains_key(&token) {
                    self.retry_paused(&poller, token);
                    touched.push(token);
                }
            }
            for &token in &touched {
                self.service(&poller, token);
            }
            self.reap_stuck_readers(&poller);
        }
        // Drain: persist and close every connection this loop owns.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(&poller, token);
        }
    }

    /// Accept until the listener would block, dispatching connections
    /// round-robin across the loops (only loop 0 runs this).
    fn accept_burst(&mut self, poller: &Poller) {
        let Some(listener) = self.listener.clone() else {
            return;
        };
        loop {
            match listener.accept() {
                Ok(stream) => {
                    let seq = self.shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                    let target = (seq % self.peers.len() as u64) as usize;
                    if Arc::ptr_eq(&self.peers[target], &self.handle) {
                        self.adopt(poller, seq, stream);
                    } else {
                        self.peers[target].dispatch(seq, stream);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Accept errors (EMFILE and friends) must not hot
                    // loop on level-triggered listener readability.
                    self.shared
                        .metrics
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                    break;
                }
            }
        }
    }

    /// Take ownership of an accepted connection: wrap it in chaos (the
    /// per-connection reseed keeps fault schedules deterministic per
    /// accept sequence), register it, and start the handshake.
    fn adopt(&mut self, poller: &Poller, seq: u64, stream: Stream) {
        let stream = match &self.shared.cfg.chaos {
            Some(chaos) => chaos
                .reseeded(chaos.seed ^ (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .wrap(stream),
            None => stream,
        };
        let fd = stream.raw_fd();
        let token = self.next_token;
        self.next_token += 1;
        if poller.add(fd, token, Interest::READ).is_err() {
            self.shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            let _ = stream.shutdown();
            return;
        }
        let tx = ConnTx::new(
            Arc::clone(&self.shared.metrics),
            Arc::clone(&self.handle),
            token,
        );
        self.conns.insert(
            token,
            Conn {
                stream,
                fd,
                tx,
                rd: Vec::new(),
                phase: ConnPhase::Hello,
                outbuf: Vec::new(),
                outpos: 0,
                batch: Vec::new(),
                sessions: HashMap::new(),
                paused: None,
                inline_budget: DRAIN_QUANTUM,
                write_blocked_since: None,
                interest: Interest::READ,
                closing: false,
            },
        );
    }

    /// Pull bytes off the socket (bounded per wake) and run the parser
    /// over whatever accumulated.
    fn read_conn(&mut self, poller: &Poller, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.closing || conn.paused.is_some() {
            return;
        }
        conn.inline_budget = DRAIN_QUANTUM;
        for _ in 0..READS_PER_WAKE {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // EOF. Every client in this protocol shuts down
                    // both directions, so a read-side EOF means the
                    // conversation is over: tear down (after flushing
                    // anything already queued outbound).
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    conn.rd.extend_from_slice(&self.scratch[..n]);
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.closing = true;
                    break;
                }
            }
        }
        self.parse_conn(poller, token);
    }

    /// Run the frame parser over a connection's buffered bytes,
    /// routing complete frames until the buffer runs dry, the session
    /// mailbox parks us, or a protocol error ends the connection.
    fn parse_conn(&mut self, _poller: &Poller, token: u64) {
        let shared = Arc::clone(&self.shared);
        let metrics = &shared.metrics;
        let mut pos = 0usize;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.paused.is_some() {
                break;
            }
            match conn.phase {
                ConnPhase::Hello => {
                    if conn.rd.len() - pos < 6 {
                        break;
                    }
                    let hello = &conn.rd[pos..pos + 6];
                    if hello[..4] != crate::protocol::MAGIC
                        || u16::from_le_bytes([hello[4], hello[5]])
                            != crate::protocol::PROTOCOL_VERSION
                    {
                        metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        conn.closing = true;
                        break;
                    }
                    pos += 6;
                    conn.phase = ConnPhase::Frames;
                    // Our hello goes straight into the write buffer —
                    // it is not a length-prefixed frame.
                    conn.outbuf.extend_from_slice(&crate::protocol::MAGIC);
                    conn.outbuf
                        .extend_from_slice(&crate::protocol::PROTOCOL_VERSION.to_le_bytes());
                }
                ConnPhase::Frames => {
                    if conn.rd.len() - pos < FRAME_HEADER_LEN {
                        break;
                    }
                    let mut header = [0u8; FRAME_HEADER_LEN];
                    header.copy_from_slice(&conn.rd[pos..pos + FRAME_HEADER_LEN]);
                    let (len, crc) = match read_frame_header(header) {
                        Ok(v) => v,
                        Err(e) => {
                            send_error(
                                &conn.tx,
                                metrics,
                                CONNECTION_SESSION,
                                error_code::MALFORMED,
                                e.to_string(),
                            );
                            conn.closing = true;
                            break;
                        }
                    };
                    if conn.rd.len() - pos - FRAME_HEADER_LEN < len {
                        break;
                    }
                    let payload = &conn.rd[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len];
                    let decode_start = Instant::now();
                    // The transport corrupting bytes (or an undecodable
                    // frame) means framing itself can no longer be
                    // trusted: tell the client if the wire still works,
                    // then drop the connection.
                    if let Err(e) = verify_frame_crc(crc, payload) {
                        send_error(
                            &conn.tx,
                            metrics,
                            CONNECTION_SESSION,
                            error_code::MALFORMED,
                            e.to_string(),
                        );
                        conn.closing = true;
                        break;
                    }
                    let frame = match decode_client(payload) {
                        Ok(f) => f,
                        Err(e) => {
                            send_error(
                                &conn.tx,
                                metrics,
                                CONNECTION_SESSION,
                                error_code::MALFORMED,
                                e.to_string(),
                            );
                            conn.closing = true;
                            break;
                        }
                    };
                    metrics.observe_stage(Stage::Decode, decode_start.elapsed());
                    pos += FRAME_HEADER_LEN + len;
                    route(frame, token, self);
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.rd.drain(..pos.min(conn.rd.len()));
        }
    }

    /// Retry a parked connection's stashed work item, then resume
    /// parsing whatever is already buffered (level-triggered epoll will
    /// not re-report bytes we have already read).
    fn retry_paused(&mut self, poller: &Poller, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let Some((session, work)) = conn.paused.take() else {
            return;
        };
        let Some(cell) = conn.sessions.get(&session).cloned() else {
            return;
        };
        conn.inline_budget = DRAIN_QUANTUM;
        if self.enqueue(token, cell, session, work) {
            self.parse_conn(poller, token);
        }
    }

    /// Push work onto a session's mailbox, putting the session on the
    /// ready queue if no worker has it yet. A full mailbox parks the
    /// connection with the item stashed (returns `false`). A queued
    /// `Close` retires the id on this connection (no further frames
    /// may address it; a later Open may reuse it for a new session).
    fn enqueue(&mut self, token: u64, cell: Arc<SessionCell>, session: u32, work: Work) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let is_close = matches!(work, Work::Close(_));
        let handle = Arc::clone(&self.handle);
        match cell.try_push(work, || Waiter {
            home: handle,
            token,
        }) {
            PushOutcome::Queued(needs_schedule) => {
                if is_close {
                    conn.sessions.remove(&session);
                }
                if needs_schedule {
                    self.shared
                        .metrics
                        .ready_queue_depth
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = self.ready.send(cell);
                }
                true
            }
            PushOutcome::Full(work) => {
                conn.paused = Some((session, work));
                false
            }
        }
    }

    /// Flush the outbound side, settle poller interest, and tear down
    /// if the connection is finished.
    fn service(&mut self, poller: &Poller, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Move queued frames into the write buffer only once the
        // previous buffer fully drained: queue-resident frames stay
        // sheddable, so a dead-slow reader costs bounded memory.
        let mut dead = false;
        loop {
            if conn.outpos < conn.outbuf.len() {
                let write_start = Instant::now();
                match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        self.shared
                            .metrics
                            .observe_stage(Stage::Write, write_start.elapsed());
                        conn.outpos += n;
                        conn.write_blocked_since = None;
                        continue;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if conn.write_blocked_since.is_none() {
                            conn.write_blocked_since = Some(Instant::now());
                        }
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Mid-frame write failure: no in-band recovery
                        // is possible; drop the connection so the
                        // client sees EOF instead of a corrupt frame.
                        dead = true;
                        break;
                    }
                }
            } else {
                conn.outbuf.clear();
                conn.outpos = 0;
                let mut batch = std::mem::take(&mut conn.batch);
                conn.tx.take_batch(&mut batch);
                if batch.is_empty() {
                    conn.batch = batch;
                    break;
                }
                for framed in batch.drain(..) {
                    conn.outbuf.extend_from_slice(&framed);
                }
                conn.batch = batch;
            }
        }
        if dead {
            conn.tx.mark_dead();
            self.close_conn(poller, token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let out_pending = conn.outpos < conn.outbuf.len() || !conn.tx.is_empty();
        if conn.closing && !out_pending {
            self.close_conn(poller, token);
            return;
        }
        let want_read = !conn.closing && conn.paused.is_none();
        let want = match (want_read, out_pending) {
            (true, true) => Interest::READ.and(Interest::WRITE),
            (true, false) => Interest::READ,
            (false, true) => Interest::WRITE,
            // Parked with nothing to write: stay registered with write
            // interest only — a socket writable-and-idle reports
            // nothing new, and errors/hangups always surface.
            (false, false) => Interest::WRITE,
        };
        if want != conn.interest && poller.modify(conn.fd, token, want).is_ok() {
            conn.interest = want;
        }
    }

    /// Drop every connection whose peer has accepted no bytes for
    /// [`WRITE_TIMEOUT`] while responses are pending (checked once per
    /// poll quantum; `TICK_MS` bounds the slack).
    fn reap_stuck_readers(&mut self, poller: &Poller) {
        let now = Instant::now();
        let stuck: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                conn.write_blocked_since
                    .is_some_and(|since| now.duration_since(since) >= WRITE_TIMEOUT)
            })
            .map(|(&token, _)| token)
            .collect();
        for token in stuck {
            if let Some(conn) = self.conns.get(&token) {
                conn.tx.mark_dead();
            }
            self.close_conn(poller, token);
        }
    }

    /// Tear a connection down: persist every session the client never
    /// closed (a restart or reconnect then rehydrates from the state
    /// at disconnect instead of the last periodic persist — work still
    /// queued in mailboxes is deliberately not waited for; the record
    /// is consistent at some applied-event count and the resume
    /// protocol resends the tail), kill the outbound queue, close the
    /// socket, and prune the registry shards.
    fn close_conn(&mut self, poller: &Poller, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        if self.shared.store.is_some() {
            for cell in conn.sessions.values() {
                persist_cell(cell, &self.shared, false);
            }
        }
        conn.tx.mark_dead();
        let _ = poller.delete(conn.fd);
        let _ = conn.stream.shutdown();
        drop(conn);
        prune_registry(&self.shared);
    }
}

/// Encode one reply as a length-prefixed, CRC-stamped frame, converting
/// the too-large case into an in-band error (the response outgrew the
/// frame cap — a snapshot embedding a long stream's grams can; nothing
/// hit the wire yet, so tell the client instead of leaving it blocked
/// on a reply that will never come).
fn encode_frame(frame: &ServerFrame) -> Vec<u8> {
    let payload = frame.encode();
    if payload.len() > MAX_FRAME_LEN as usize {
        return encode_frame(&ServerFrame::Error {
            session: frame.session(),
            code: error_code::FRAME_TOO_LARGE,
            message: format!(
                "response frame of {len} bytes exceeds the {max}-byte cap",
                len = payload.len(),
                max = MAX_FRAME_LEN
            ),
        });
    }
    let mut framed = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crate::protocol::crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    framed
}

/// Queue a response on the connection's outbound queue (never blocks
/// on the socket), timing its encoding as the encode stage. `wake`
/// routes through the owning loop's eventfd; callers already on that
/// loop pass `false` and flush in `service`.
fn push_frame(tx: &ConnTx, frame: &ServerFrame, wake: bool) {
    let start = Instant::now();
    let framed = encode_frame(frame);
    tx.metrics.observe_stage(Stage::Encode, start.elapsed());
    tx.push(framed, wake);
}

fn send_frame(tx: &ConnTx, frame: &ServerFrame) {
    push_frame(tx, frame, true);
}

fn send_frame_local(tx: &ConnTx, frame: &ServerFrame) {
    push_frame(tx, frame, false);
}

fn send_error(tx: &ConnTx, metrics: &MetricsRegistry, session: u32, code: u16, message: String) {
    metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
    // Errors are rare and sent from both loops and workers: always
    // wake (a redundant self-wake costs one eventfd write).
    send_frame(
        tx,
        &ServerFrame::Error {
            session,
            code,
            message,
        },
    );
}
// -------------------------------------------------------------- routing

/// Handle one decoded client frame on the owning event loop.
/// Open/Restore/Query answer inline, and so do Events/Flush for an
/// idle hot session; everything else goes through the session mailbox
/// (and may park the connection).
fn route(frame: ClientFrame, token: u64, r: &mut Reactor) {
    let shared = Arc::clone(&r.shared);
    let metrics = &shared.metrics;
    match frame {
        ClientFrame::Open {
            session,
            rank,
            config,
        } => {
            let Some(conn) = r.conns.get_mut(&token) else {
                return;
            };
            if !refuse_duplicate(&shared, conn, session) {
                open_hot(&shared, conn, session, Session::open(rank, *config), false);
            }
        }
        ClientFrame::Restore { session, snapshot } => {
            let Some(conn) = r.conns.get_mut(&token) else {
                return;
            };
            if refuse_duplicate(&shared, conn, session) {
                return;
            }
            if snapshot.is_empty() {
                restore_from_store(session, token, r);
                return;
            }
            match Session::restore(&snapshot) {
                Ok(restored) => open_hot(&shared, conn, session, restored, false),
                Err(e) => send_error(
                    &conn.tx,
                    metrics,
                    session,
                    error_code::BAD_SNAPSHOT,
                    e.to_string(),
                ),
            }
        }
        ClientFrame::Events { session, events } => {
            try_enqueue(r, token, session, Work::Batch(Batch::Events(events)));
        }
        ClientFrame::Flush { session } => {
            try_enqueue(r, token, session, Work::Batch(Batch::Flush));
        }
        ClientFrame::Snapshot { session } => {
            try_enqueue(r, token, session, Work::Snapshot);
        }
        ClientFrame::Close {
            session,
            final_compute_ns,
        } => {
            try_enqueue(r, token, session, Work::Close(final_compute_ns));
        }
        ClientFrame::Query { session } => {
            // Answered inline on the event loop, like Open/Restore:
            // the report samples engines via try_lock and never enters
            // any mailbox, so a mid-stream query cannot reorder or
            // delay session work.
            let report = build_report(&shared, session);
            metrics.queries_answered.fetch_add(1, Ordering::Relaxed);
            let Some(conn) = r.conns.get_mut(&token) else {
                return;
            };
            send_frame_local(
                &conn.tx,
                &ServerFrame::QueryReply {
                    session,
                    report: Box::new(report),
                },
            );
        }
    }
}

/// Route session work: apply a batch inline when [`apply_inline`]
/// can and the connection has budget left this wake, else (and for a
/// checkpoint the inline batch made due) go through the mailbox.
fn try_enqueue(r: &mut Reactor, token: u64, session: u32, work: Work) {
    let shared = Arc::clone(&r.shared);
    let Some(conn) = r.conns.get_mut(&token) else {
        return;
    };
    let Some(cell) = conn.sessions.get(&session).cloned() else {
        send_error(
            &conn.tx,
            &shared.metrics,
            session,
            error_code::UNKNOWN_SESSION,
            format!("session {session} is not open"),
        );
        return;
    };
    let work = match work {
        Work::Batch(batch) if conn.inline_budget > 0 => match apply_inline(&cell, batch, &shared) {
            Ok(checkpoint) => {
                conn.inline_budget -= 1;
                if !checkpoint {
                    return;
                }
                Work::Checkpoint
            }
            Err(batch) => Work::Batch(batch),
        },
        work => work,
    };
    r.enqueue(token, cell, session, work);
}

/// Run to completion: apply a batch on the event loop, with no worker
/// hand-off, when the session is hot, its mailbox is empty, no worker
/// is scheduled on it, and its engine lock is free. Only the owning
/// loop ever pushes to a session's mailbox, so once it is seen empty
/// and unscheduled no worker can touch the session until this loop
/// queues something — per-session order holds. The replies go on the
/// outbound queue without a wake (the loop flushes the connection at
/// the end of this wake). Returns whether a periodic checkpoint fell
/// due (the caller queues it for a worker); hands the batch back when
/// it must take the mailbox path instead.
fn apply_inline(cell: &Arc<SessionCell>, batch: Batch, shared: &Shared) -> Result<bool, Batch> {
    {
        let mb = lock_ok(&cell.mailbox);
        if mb.scheduled || !mb.deque.is_empty() {
            return Err(batch);
        }
    }
    let mut guard = match cell.state.try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::WouldBlock) => return Err(batch),
        Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
    };
    let SessionSlot::Hot(sess) = &mut *guard else {
        return Err(batch);
    };
    shared
        .metrics
        .observe_stage(Stage::MailboxWait, Duration::ZERO);
    let applied = catch_unwind(AssertUnwindSafe(|| {
        apply_events(cell.id, sess, &batch, shared)
    }));
    drop(guard);
    let Ok(applied) = applied else {
        retire_panicked(cell, shared);
        return Ok(false);
    };
    send_frame_local(&cell.tx, &applied.reply);
    lru_touch(shared, cell);
    Ok(applied.checkpoint)
}

/// Which registry shard a session id lives in.
fn shard_of(id: u32) -> usize {
    id as usize % SESSION_TABLE_SHARDS
}

/// Store one shard's occupancy and re-derive the fleet gauge (a sum of
/// the per-shard atomics — no shard locks needed).
fn refresh_shard_gauge(shared: &Shared, idx: usize, len: usize) {
    shared.metrics.session_shards[idx].store(len as u64, Ordering::Relaxed);
    let total: u64 = shared
        .metrics
        .session_shards
        .iter()
        .map(|g| g.load(Ordering::Relaxed))
        .sum();
    shared.metrics.sessions_live.store(total, Ordering::Relaxed);
}

/// Assemble the [`ObsReport`] answering a `Query` for `target`
/// ([`CONNECTION_SESSION`] = fleet view). Engine state is sampled with
/// `try_lock`: a cell whose engine is checked out by a worker yields a
/// `busy` probe instead of blocking the loop behind the worker, and an
/// evicted (cold) cell likewise probes busy — its engine lives in the
/// store, not in memory.
fn build_report(shared: &Shared, target: u32) -> ObsReport {
    let metrics = &shared.metrics;
    let mut cells: Vec<Arc<SessionCell>> = Vec::new();
    for (idx, shard) in shared.shards.iter().enumerate() {
        let len = {
            let mut reg = lock_ok(shard);
            reg.retain(|_, w| w.strong_count() > 0);
            cells.extend(reg.values().filter_map(Weak::upgrade));
            reg.len()
        };
        refresh_shard_gauge(shared, idx, len);
    }
    cells.sort_by_key(|c| c.id);
    let mut probes = Vec::new();
    for cell in &cells {
        if target != CONNECTION_SESSION && cell.id != target {
            continue;
        }
        let mailbox_depth = lock_ok(&cell.mailbox).deque.len() as u32;
        let probe = match cell.state.try_lock() {
            Ok(guard) => match &*guard {
                SessionSlot::Hot(sess) => sess.probe(cell.id, mailbox_depth),
                _ => SessionProbe::busy(cell.id, cell.rank, mailbox_depth),
            },
            Err(std::sync::TryLockError::WouldBlock) => {
                SessionProbe::busy(cell.id, cell.rank, mailbox_depth)
            }
            Err(std::sync::TryLockError::Poisoned(p)) => match &*p.into_inner() {
                SessionSlot::Hot(sess) => sess.probe(cell.id, mailbox_depth),
                _ => SessionProbe::busy(cell.id, cell.rank, mailbox_depth),
            },
        };
        probes.push(probe);
    }
    let store = shared.store.as_ref().map(|s| {
        let (sessions, closed) = s.session_counts();
        StoreProbe {
            sessions: sessions as u32,
            closed: closed as u32,
        }
    });
    ObsReport {
        server: ServerProbe {
            summary: metrics.summary(),
            sessions_live: cells.len() as u32,
            workers: shared.cfg.workers.max(1) as u32,
            queue_depth_limit: QUEUE_DEPTH as u32,
            ready_queue_depth: metrics.ready_queue_depth.load(Ordering::Relaxed) as u32,
            writer_queue_depth: metrics.writer_queue_depth.load(Ordering::Relaxed) as u32,
            hot_sessions: metrics.hot_sessions.load(Ordering::Relaxed) as u32,
            cold_sessions: metrics.cold_sessions.load(Ordering::Relaxed) as u32,
            max_hot_sessions: shared.cfg.max_hot_sessions.map(|c| c as u32),
            store,
            chaos_intensity: shared.cfg.chaos.as_ref().map(ChaosConfig::fault_rate),
        },
        sessions: probes,
    }
}

/// Drop registry entries whose cells are gone and refresh the
/// occupancy gauges.
fn prune_registry(shared: &Shared) {
    for (idx, shard) in shared.shards.iter().enumerate() {
        let len = {
            let mut reg = lock_ok(shard);
            reg.retain(|_, w| w.strong_count() > 0);
            reg.len()
        };
        refresh_shard_gauge(shared, idx, len);
    }
}

/// Handle an empty-body `Restore`: rehydrate the session from the
/// snapshot store, answering `Resumed` (the resume position with the
/// count and digest of the directives delivered before it).
fn restore_from_store(session: u32, token: u64, r: &mut Reactor) {
    let shared = Arc::clone(&r.shared);
    let metrics = &shared.metrics;
    let Some(conn) = r.conns.get_mut(&token) else {
        return;
    };
    let Some(store) = shared.store.as_ref() else {
        send_error(
            &conn.tx,
            metrics,
            session,
            error_code::NO_SNAPSHOT,
            "server runs without a snapshot store".into(),
        );
        return;
    };
    let record = match store.load(session) {
        Ok(Some(r)) => r,
        Ok(None) => {
            send_error(
                &conn.tx,
                metrics,
                session,
                error_code::NO_SNAPSHOT,
                format!("no stored snapshot for session {session}"),
            );
            return;
        }
        Err(e) => {
            send_error(
                &conn.tx,
                metrics,
                session,
                error_code::INTERNAL,
                format!("snapshot store read failed: {e}"),
            );
            return;
        }
    };
    match Session::restore_from_record(&record) {
        Ok(restored) => {
            metrics.sessions_rehydrated.fetch_add(1, Ordering::Relaxed);
            open_hot(&shared, conn, session, restored, true);
        }
        Err(e) => send_error(
            &conn.tx,
            metrics,
            session,
            error_code::BAD_SNAPSHOT,
            format!("stored snapshot for session {session} failed to restore: {e}"),
        ),
    }
}

/// Refuse an `Open` or `Restore` of a session id that is already open
/// on this connection or still live on another (see
/// [`live_elsewhere`]): send `DUPLICATE_SESSION` and return true.
fn refuse_duplicate(shared: &Shared, conn: &Conn, session: u32) -> bool {
    let message = if conn.sessions.contains_key(&session) {
        format!("session {session} is already open")
    } else if live_elsewhere(shared, session) {
        format!("session {session} is still live on another connection")
    } else {
        return false;
    };
    send_error(
        &conn.tx,
        &shared.metrics,
        session,
        error_code::DUPLICATE_SESSION,
        message,
    );
    true
}

/// Make `session` a hot session of `conn` under `id`: register its
/// cell, count the open, answer `OpenAck` at the session's resume
/// position (`Resumed`, with the delivered count and digest, for a
/// store rehydration), and let the pager make room.
fn open_hot(shared: &Arc<Shared>, conn: &mut Conn, id: u32, session: Session, rehydrated: bool) {
    let events_applied = session.events_applied();
    let delivered = session.delivered();
    let ack = if rehydrated {
        ServerFrame::Resumed {
            session: id,
            events_applied,
            directives_total: delivered.count,
            digest: delivered.digest,
        }
    } else {
        ServerFrame::OpenAck {
            session: id,
            events_applied,
        }
    };
    let cell = new_cell(id, session, shared, &conn.tx);
    register(shared, id, &cell);
    conn.sessions.insert(id, Arc::clone(&cell));
    shared
        .metrics
        .sessions_opened
        .fetch_add(1, Ordering::Relaxed);
    send_frame_local(&conn.tx, &ack);
    lru_touch(shared, &cell);
    maybe_evict(shared);
}

fn new_cell(id: u32, session: Session, shared: &Arc<Shared>, tx: &Arc<ConnTx>) -> Arc<SessionCell> {
    shared.metrics.hot_sessions.fetch_add(1, Ordering::Relaxed);
    // A fresh open contributes nothing; a restore whose snapshot
    // carries an armed sleep re-registers its depth.
    shared
        .metrics
        .sleep_depth_changed(None, session.pending_depth());
    Arc::new(SessionCell {
        id,
        rank: session.rank,
        state: Mutex::new(SessionSlot::Hot(Box::new(session))),
        mailbox: Mutex::new(MailboxState {
            deque: VecDeque::new(),
            scheduled: false,
            waiter: None,
        }),
        tx: Arc::clone(tx),
        metrics: Arc::clone(&shared.metrics),
    })
}

/// Whether a non-retired cell for this id is still reachable anywhere
/// on the server: another connection's live (or paged-out) session, or
/// a dropped connection whose teardown persist has not finished yet.
/// `Open` and `Restore` refuse while this holds — a second cell for
/// the same id would race the first one's persists for the store
/// record (two lineages interleaving through evict/rehydrate), and a
/// store restore could resurrect state the live cell is about to
/// overwrite. Both teardown paths persist *before* releasing the cell
/// (`close_conn` before dropping the connection's `Arc`s, `Close`
/// before marking the slot `Retired`), so once this returns false the
/// store record is final and restoring from it is safe.
fn live_elsewhere(shared: &Shared, session: u32) -> bool {
    let reg = lock_ok(&shared.shards[shard_of(session)]);
    let Some(cell) = reg.get(&session).and_then(|w| w.upgrade()) else {
        return false;
    };
    let slot = lock_ok(&cell.state);
    !matches!(&*slot, SessionSlot::Retired)
}

/// Track a live session for `Query` fleet probes and (with a store)
/// the drain sweep.
fn register(shared: &Shared, session: u32, cell: &Arc<SessionCell>) {
    let idx = shard_of(session);
    let len = {
        let mut reg = lock_ok(&shared.shards[idx]);
        reg.retain(|_, w| w.strong_count() > 0);
        reg.insert(session, Arc::downgrade(cell));
        reg.len()
    };
    refresh_shard_gauge(shared, idx, len);
}

// --------------------------------------------------------------- workers

fn worker_loop(
    ready: &Mutex<mpsc::Receiver<Arc<SessionCell>>>,
    requeue: &mpsc::Sender<Arc<SessionCell>>,
    shared: &Arc<Shared>,
) {
    loop {
        // Workers hold a `requeue` sender, so the channel never
        // disconnects while they live — poll the drain flag instead of
        // relying on `recv` erroring out at shutdown.
        let cell = {
            let rx = lock_ok(ready);
            rx.recv_timeout(Duration::from_millis(100))
        };
        let cell = match cell {
            Ok(cell) => {
                shared
                    .metrics
                    .ready_queue_depth
                    .fetch_sub(1, Ordering::Relaxed);
                cell
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.drain.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let mut emptied = false;
        for _ in 0..DRAIN_QUANTUM {
            match cell.pop() {
                Some(work) => {
                    // Panic isolation: a panicking work item loses its
                    // own session, never the worker or the server.
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        handle_work(&cell, work, shared);
                    }));
                    if caught.is_err() {
                        retire_panicked(&cell, shared);
                    }
                }
                None => {
                    emptied = true; // `pop` released the scheduled token
                    break;
                }
            }
        }
        if !emptied && cell.needs_requeue() {
            shared
                .metrics
                .ready_queue_depth
                .fetch_add(1, Ordering::Relaxed);
            let _ = requeue.send(Arc::clone(&cell));
        }
    }
}

/// The store record of a live engine's current state.
fn record_of(id: u32, sess: &Session, closed: bool) -> StoreRecord {
    StoreRecord {
        record_version: RECORD_VERSION,
        session: id,
        rank: sess.rank,
        events: sess.events_applied(),
        closed,
        history_complete: true,
        // Every batch reply delivers what the batch issued.
        directives: Vec::new(),
        snapshot: sess.snapshot(),
    }
}

/// Build and persist a [`StoreRecord`] for a live cell. `closing`
/// marks the record closed (persisted just before the `Closed` ack so
/// a crash in between is recoverable by re-closing). The disk write
/// happens *under* the engine lock — the same order the eviction pager
/// uses — so no stale record can ever overwrite a newer one. A cold
/// cell is already durable (eviction persisted it); nothing to do.
fn persist_cell(cell: &SessionCell, shared: &Shared, closing: bool) {
    let mut guard = lock_ok(&cell.state);
    if let SessionSlot::Hot(sess) = &mut *guard {
        persist_locked(cell.id, sess, shared, closing);
    }
}

/// [`persist_cell`] for a caller already holding the engine lock.
fn persist_locked(id: u32, sess: &mut Session, shared: &Shared, closing: bool) {
    let Some(store) = shared.store.as_ref() else {
        return;
    };
    let record = record_of(id, sess, closing);
    sess.mark_persisted();
    // Close records are the durable milestone (fsynced); periodic
    // checkpoints take the fast path — losing one to a crash resumes
    // the session from an older checkpoint, which the resume protocol
    // already handles, and a worker pool that fsyncs every
    // `--persist-every` events cannot sustain fleet-scale throughput.
    let persisted = if closing {
        store.persist(&record)
    } else {
        store.persist_fast(&record)
    };
    match persisted {
        Ok(()) => {
            shared
                .metrics
                .snapshots_persisted
                .fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            shared
                .metrics
                .persist_failures
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A work item panicked (on a worker or inline on the event loop):
/// retire only its session and tell the client.
fn retire_panicked(cell: &SessionCell, shared: &Shared) {
    shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
    retire_cell(cell, shared);
    send_error(
        &cell.tx,
        &shared.metrics,
        cell.id,
        error_code::INTERNAL,
        format!("panicked applying session {}; session dropped", cell.id),
    );
}

/// What applying one [`Batch`] produced: the reply, and whether the
/// periodic checkpoint fell due.
struct Applied {
    reply: ServerFrame,
    checkpoint: bool,
}

/// Apply one batch to a hot engine: the one copy of apply, its
/// metrics and the persist decision, shared by the event loop's inline
/// path and the workers. Runs under the engine lock; the caller sends
/// the reply after releasing it and decides where the checkpoint runs.
fn apply_events(id: u32, sess: &mut Session, batch: &Batch, shared: &Shared) -> Applied {
    let metrics = &shared.metrics;
    let start = Instant::now();
    let Batch::Events(events) = batch else {
        let stats = sess.stats();
        metrics.observe_stage(Stage::Engine, start.elapsed());
        return Applied {
            reply: ServerFrame::Stats {
                session: id,
                stats: Box::new(stats),
            },
            checkpoint: false,
        };
    };
    if let Some(bad) = shared.cfg.panic_on_call {
        let hit = events.iter().any(|&(call, _)| call == bad);
        assert!(!hit, "chaos hook: panic_on_call {bad} hit");
    }
    let depth_before = sess.pending_depth();
    let (events_applied, directives) = sess.apply(events);
    metrics.sleep_depth_changed(depth_before, sess.pending_depth());
    let checkpoint = shared.store.is_some()
        && shared.cfg.persist_every > 0
        && sess.events_since_persist() >= shared.cfg.persist_every;
    metrics.observe_stage(Stage::Engine, start.elapsed());
    // Counted after the engine stage, so a scrape that sees these
    // events also sees their engine observation.
    metrics
        .events_applied
        .fetch_add(events.len() as u64, Ordering::Relaxed);
    metrics
        .directives_sent
        .fetch_add(directives.len() as u64, Ordering::Relaxed);
    Applied {
        reply: ServerFrame::Directives {
            session: id,
            events_applied,
            directives,
        },
        checkpoint,
    }
}

fn handle_work(cell: &Arc<SessionCell>, work: Work, shared: &Shared) {
    if matches!(work, Work::Checkpoint) {
        // Handed over by an inline batch. A cold engine was persisted
        // when it was evicted and a retired one is gone: nothing newer
        // to write for either.
        persist_cell(cell, shared, false);
        return;
    }
    let metrics = &shared.metrics;
    let tx = &cell.tx;
    let mut guard = lock_ok(&cell.state);
    if matches!(&*guard, SessionSlot::Retired) {
        drop(guard);
        send_error(
            tx,
            metrics,
            cell.id,
            error_code::UNKNOWN_SESSION,
            format!("session {} already closed", cell.id),
        );
        return;
    }
    // Paged out? Rehydrate before touching the work item (this is the
    // transparent half of `max_hot_sessions`).
    let rehydrated = match ensure_hot(&mut guard, cell, shared) {
        Ok(r) => r,
        Err(message) => {
            drop(guard);
            retire_cell(cell, shared);
            send_error(tx, metrics, cell.id, error_code::INTERNAL, message);
            return;
        }
    };
    let SessionSlot::Hot(sess) = &mut *guard else {
        unreachable!("ensure_hot leaves the slot hot");
    };
    match work {
        Work::Batch(batch) => {
            let applied = apply_events(cell.id, sess, &batch, shared);
            drop(guard);
            send_frame(tx, &applied.reply);
            if applied.checkpoint {
                persist_cell(cell, shared, false);
            }
        }
        Work::Snapshot => {
            let snapshot = sess.snapshot_bytes();
            drop(guard);
            send_frame(
                tx,
                &ServerFrame::SnapshotData {
                    session: cell.id,
                    snapshot,
                },
            );
        }
        Work::Close(final_compute_ns) => {
            // Persist the pre-close state first, still under the
            // engine lock (so the eviction pager can never interleave):
            // a crash between this point and the `Closed` ack leaves a
            // record the client can restore and re-close — the
            // deterministic finish answers the identical total and
            // stats.
            persist_locked(cell.id, sess, shared, true);
            let sess =
                retire_locked(guard, cell.id, shared).expect("slot is hot: established above");
            let idx = shard_of(cell.id);
            let len = {
                let mut reg = lock_ok(&shared.shards[idx]);
                reg.remove(&cell.id);
                reg.len()
            };
            refresh_shard_gauge(shared, idx, len);
            // Finishing issues no directive: the batches delivered them all.
            let (_, directives_total, stats) = sess.close(final_compute_ns);
            metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
            send_frame(
                tx,
                &ServerFrame::Closed {
                    session: cell.id,
                    directives_total,
                    stats: Box::new(stats),
                },
            );
            return;
        }
        Work::Checkpoint => unreachable!("checkpoints return before the engine lock"),
    }
    // Recency upkeep for the pager: the session was just touched, and
    // if rehydrating it pushed the hot set over the cap, evict the
    // least-recently-used engine (never this one — it was touched
    // last).
    if paging_enabled(shared) {
        lru_touch(shared, cell);
        if rehydrated {
            maybe_evict(shared);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_pops_least_recently_touched_and_stays_in_step() {
        let mut lru = LruState::default();
        for id in [1, 2, 3, 4] {
            lru.touch(id, Weak::new());
        }
        lru.touch(2, Weak::new());
        lru.touch(1, Weak::new());
        lru.remove(4);
        // Recency, oldest first: 3, 2, 1.
        let mut popped = Vec::new();
        while let Some((id, _)) = lru.pop_oldest() {
            popped.push(id);
            assert_eq!(lru.pos.len(), lru.order.len());
        }
        assert_eq!(popped, [3, 2, 1]);
        assert!(lru.pos.is_empty());
    }
}
