//! Live observability: the metrics registry, the Prometheus text
//! exposition, and the typed introspection probes carried by the
//! `Query`/`QueryReply` frame family.
//!
//! Three consumers share one source of truth:
//!
//! * the server's hot path bumps [`MetricsRegistry`] counters, gauges
//!   and per-stage latency histograms — plain relaxed atomics, no locks
//!   and no allocation on the intercept path (asserted by the
//!   counting-allocator test in `tests/metrics_alloc.rs`);
//! * the `--metrics-addr` HTTP/1.0 listener ([`spawn_exporter`])
//!   renders the registry as Prometheus text exposition on every
//!   scrape — the exact byte format is a compatibility contract,
//!   golden-tested in the workspace integration suite;
//! * a [`crate::protocol::ClientFrame::Query`] frame returns the same
//!   counters as a typed [`ObsReport`] plus per-session engine state
//!   (power mode, lane width, pattern phase, misprediction windows),
//!   which `ibpower stat`/`ibpower top` render as an ibstat-style
//!   fleet table.
//!
//! ## Metric naming contract
//!
//! Every metric is prefixed `ibp_`; monotonic counters end in
//! `_total`; gauges carry no suffix. Names, HELP strings, and emission
//! order are pinned by the golden fixture `tests/golden/metrics.prom`
//! — changing any of them is a deliberate, reviewed act (regenerate
//! with `IBP_UPDATE_GOLDEN=1`).

use crate::server::{ServeSummary, SESSION_TABLE_SHARDS};
use ibp_core::SleepKind;
use ibp_network::{IbGeneration, LinkPower};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The serve pipeline stages timed by [`MetricsRegistry::stages`], in
/// the order one batch passes through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// CRC check and decode of one inbound client frame.
    Decode = 0,
    /// Time a work item sat in its session mailbox before a worker
    /// popped it. A batch the event loop applies inline never queues
    /// and records zero.
    MailboxWait = 1,
    /// `Session::apply` of an `Events` batch (or the stats read of a
    /// `Flush`) under the engine lock, with its metric upkeep.
    Engine = 2,
    /// Encoding and framing (CRC, length prefix) of one reply frame.
    Encode = 3,
    /// One `write(2)` of queued reply bytes to the socket.
    Write = 4,
}

impl Stage {
    /// Every stage, in exposition order.
    pub const ALL: [Stage; 5] = [
        Stage::Decode,
        Stage::MailboxWait,
        Stage::Engine,
        Stage::Encode,
        Stage::Write,
    ];

    /// The `stage` label value in the Prometheus exposition.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::MailboxWait => "mailbox",
            Stage::Engine => "engine",
            Stage::Encode => "encode",
            Stage::Write => "write",
        }
    }
}

/// Buckets of a [`Histogram`]: `le` = 0 µs (exactly zero — an inline
/// batch's mailbox wait), then 1, 2, 4, … 65 536 µs, then `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 19;

/// A fixed-bucket latency histogram with log2-microsecond bounds (see
/// [`HISTOGRAM_BUCKETS`]). Recording is two relaxed atomic adds: no
/// lock, no allocation.
#[derive(Debug, Default)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) observation counts.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_ns: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, elapsed: Duration) {
        self.observe_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record one observation given in nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of every observation, nanoseconds.
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Observations per bucket (not cumulative), in bound order.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// The bucket an observation of `ns` nanoseconds falls in: the first
/// whose bound (0, then 2^(i-1) µs) is at least the value.
fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    let us = ns.div_ceil(1000);
    let log2_ceil = (u64::BITS - (us - 1).leading_zeros()) as usize;
    (1 + log2_ceil).min(HISTOGRAM_BUCKETS - 1)
}

/// The `le` label of bucket `i`.
fn bucket_bound(i: usize) -> String {
    match i {
        0 => "0".into(),
        i if i == HISTOGRAM_BUCKETS - 1 => "+Inf".into(),
        i => (1u64 << (i - 1)).to_string(),
    }
}

/// Lock-free counters and gauges for the serving stack.
///
/// Counters are monotonic over the server's lifetime; gauges track a
/// current occupancy and move both ways. Every update is a relaxed
/// atomic op — safe to call from the event hot path.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Sessions opened (fresh or restored) — counter.
    pub sessions_opened: AtomicU64,
    /// Sessions that finished with a `Close` frame — counter.
    pub sessions_closed: AtomicU64,
    /// Events applied across all sessions — counter.
    pub events_applied: AtomicU64,
    /// Lane directives streamed back — counter.
    pub directives_sent: AtomicU64,
    /// Protocol-level errors — counter.
    pub protocol_errors: AtomicU64,
    /// Responses shed from overloaded connection write queues — counter.
    pub responses_shed: AtomicU64,
    /// Worker panics caught and isolated — counter.
    pub worker_panics: AtomicU64,
    /// Worker threads respawned by the supervisor — counter.
    pub worker_respawns: AtomicU64,
    /// Session records persisted to the snapshot store — counter.
    pub snapshots_persisted: AtomicU64,
    /// Persist attempts that failed — counter.
    pub persist_failures: AtomicU64,
    /// Sessions rehydrated from the store (empty-body `Restore`, or
    /// transparently when work arrived for an evicted session) —
    /// counter.
    pub sessions_rehydrated: AtomicU64,
    /// Hot session engines evicted to the store by the LRU pager —
    /// counter.
    pub evictions: AtomicU64,
    /// `Query` frames answered — counter.
    pub queries_answered: AtomicU64,
    /// Prometheus scrapes served — counter.
    pub scrapes_served: AtomicU64,
    /// Live sessions tracked by the server registry — gauge.
    pub sessions_live: AtomicU64,
    /// Sessions waiting in the worker ready queue — gauge.
    pub ready_queue_depth: AtomicU64,
    /// Encoded response frames queued across all connection writers —
    /// gauge.
    pub writer_queue_depth: AtomicU64,
    /// Sessions whose engine is resident in memory — gauge.
    pub hot_sessions: AtomicU64,
    /// Sessions evicted to the snapshot store, rehydrated on touch —
    /// gauge.
    pub cold_sessions: AtomicU64,
    /// Hot sessions whose engine holds an armed sleep directive, per
    /// depth in [`SleepKind::ALL`] order — labeled gauge
    /// (`ibp_sessions_asleep{depth="wrps|rate|deep"}`). Evicted (cold)
    /// engines are not counted; their pending depth re-registers on
    /// rehydration.
    pub sessions_asleep: [AtomicU64; SleepKind::ALL.len()],
    /// Registry occupancy per session-table shard — labeled gauge
    /// (`ibp_session_shard_sessions{shard="N"}`).
    pub session_shards: [AtomicU64; SESSION_TABLE_SHARDS],
    /// Latency per serve pipeline stage, indexed by [`Stage`] —
    /// labeled histogram (`ibp_stage_duration_us{stage="..."}`).
    pub stages: [Histogram; Stage::ALL.len()],
}

/// One metric's identity for the exposition: Prometheus type keyword,
/// name, and HELP text. The table below is the metrics contract.
struct MetricDesc {
    kind: &'static str,
    name: &'static str,
    help: &'static str,
}

const COUNTERS: [MetricDesc; 14] = [
    MetricDesc { kind: "counter", name: "ibp_sessions_opened_total", help: "Sessions opened (fresh or restored)." },
    MetricDesc { kind: "counter", name: "ibp_sessions_closed_total", help: "Sessions that finished with a Close frame." },
    MetricDesc { kind: "counter", name: "ibp_events_applied_total", help: "Intercepted MPI events applied across all sessions." },
    MetricDesc { kind: "counter", name: "ibp_directives_sent_total", help: "Lane power directives streamed back to clients." },
    MetricDesc { kind: "counter", name: "ibp_protocol_errors_total", help: "Protocol-level errors (malformed frames, unknown sessions, ...)." },
    MetricDesc { kind: "counter", name: "ibp_responses_shed_total", help: "Responses shed from overloaded connection write queues." },
    MetricDesc { kind: "counter", name: "ibp_worker_panics_total", help: "Worker panics caught and isolated to their session." },
    MetricDesc { kind: "counter", name: "ibp_worker_respawns_total", help: "Worker threads respawned by the supervisor." },
    MetricDesc { kind: "counter", name: "ibp_snapshots_persisted_total", help: "Session records persisted to the snapshot store." },
    MetricDesc { kind: "counter", name: "ibp_persist_failures_total", help: "Persist attempts that failed (disk errors)." },
    MetricDesc { kind: "counter", name: "ibp_sessions_rehydrated_total", help: "Sessions rehydrated from the store (empty-body Restore, or transparently on touch after eviction)." },
    MetricDesc { kind: "counter", name: "ibp_evictions_total", help: "Hot session engines evicted to the store by the LRU pager." },
    MetricDesc { kind: "counter", name: "ibp_queries_answered_total", help: "Query introspection frames answered." },
    MetricDesc { kind: "counter", name: "ibp_scrapes_served_total", help: "Prometheus scrapes served by the metrics endpoint." },
];

const GAUGES: [MetricDesc; 5] = [
    MetricDesc {
        kind: "gauge",
        name: "ibp_sessions_live",
        help: "Live sessions currently tracked by the server.",
    },
    MetricDesc {
        kind: "gauge",
        name: "ibp_ready_queue_depth",
        help: "Sessions waiting in the worker ready queue.",
    },
    MetricDesc {
        kind: "gauge",
        name: "ibp_writer_queue_depth",
        help: "Encoded response frames queued across all connection writers.",
    },
    MetricDesc {
        kind: "gauge",
        name: "ibp_hot_sessions",
        help: "Sessions whose engine is resident in memory.",
    },
    MetricDesc {
        kind: "gauge",
        name: "ibp_cold_sessions",
        help: "Sessions evicted to the snapshot store, rehydrated on touch.",
    },
];

/// The per-depth sleep gauge, rendered with a `depth` label (one
/// sample per [`SleepKind`]).
const DEPTH_GAUGE: MetricDesc = MetricDesc {
    kind: "gauge",
    name: "ibp_sessions_asleep",
    help: "Hot sessions whose engine holds an armed sleep directive, by depth.",
};

/// The per-shard occupancy gauge, rendered with a `shard` label.
const SHARD_GAUGE: MetricDesc = MetricDesc {
    kind: "gauge",
    name: "ibp_session_shard_sessions",
    help: "Registry occupancy per session-table shard.",
};

/// The per-stage latency histogram, rendered with a `stage` label.
const STAGE_HISTOGRAM: MetricDesc = MetricDesc {
    kind: "histogram",
    name: "ibp_stage_duration_us",
    help: "Serve pipeline stage latency in microseconds (decode, mailbox wait, engine apply, encode, socket write).",
};

impl MetricsRegistry {
    /// Snapshot the lifetime counters as a [`ServeSummary`] (the value
    /// [`crate::Server::run`] returns and `Query` reports server-wide).
    #[must_use]
    pub fn summary(&self) -> ServeSummary {
        ServeSummary {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            events_applied: self.events_applied.load(Ordering::Relaxed),
            directives_sent: self.directives_sent.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            responses_shed: self.responses_shed.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            snapshots_persisted: self.snapshots_persisted.load(Ordering::Relaxed),
            persist_failures: self.persist_failures.load(Ordering::Relaxed),
            sessions_rehydrated: self.sessions_rehydrated.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Values of the counters in [`COUNTERS`] order.
    fn counter_values(&self) -> [u64; 14] {
        [
            self.sessions_opened.load(Ordering::Relaxed),
            self.sessions_closed.load(Ordering::Relaxed),
            self.events_applied.load(Ordering::Relaxed),
            self.directives_sent.load(Ordering::Relaxed),
            self.protocol_errors.load(Ordering::Relaxed),
            self.responses_shed.load(Ordering::Relaxed),
            self.worker_panics.load(Ordering::Relaxed),
            self.worker_respawns.load(Ordering::Relaxed),
            self.snapshots_persisted.load(Ordering::Relaxed),
            self.persist_failures.load(Ordering::Relaxed),
            self.sessions_rehydrated.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            self.queries_answered.load(Ordering::Relaxed),
            self.scrapes_served.load(Ordering::Relaxed),
        ]
    }

    /// Values of the gauges in [`GAUGES`] order.
    fn gauge_values(&self) -> [u64; 5] {
        [
            self.sessions_live.load(Ordering::Relaxed),
            self.ready_queue_depth.load(Ordering::Relaxed),
            self.writer_queue_depth.load(Ordering::Relaxed),
            self.hot_sessions.load(Ordering::Relaxed),
            self.cold_sessions.load(Ordering::Relaxed),
        ]
    }

    /// Move one session's armed-sleep depth between gauge buckets: its
    /// depth was `from` before an engine transition and is `to` after.
    /// `None` means no armed sleep (full power, or not resident).
    /// Relaxed atomics only — safe on the event hot path.
    pub fn sleep_depth_changed(&self, from: Option<SleepKind>, to: Option<SleepKind>) {
        if from == to {
            return;
        }
        if let Some(k) = from {
            self.sessions_asleep[k as usize].fetch_sub(1, Ordering::Relaxed);
        }
        if let Some(k) = to {
            self.sessions_asleep[k as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one observation of `stage`. Relaxed atomics only — safe
    /// on the event hot path.
    pub fn observe_stage(&self, stage: Stage, elapsed: Duration) {
        self.stages[stage as usize].observe(elapsed);
    }

    /// Render the registry as Prometheus text exposition (format
    /// version 0.0.4). The output — names, HELP strings, ordering,
    /// whitespace — is byte-pinned by the committed golden fixture.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        for (desc, value) in COUNTERS
            .iter()
            .zip(self.counter_values())
            .chain(GAUGES.iter().zip(self.gauge_values()))
        {
            let _ = writeln!(out, "# HELP {} {}", desc.name, desc.help);
            let _ = writeln!(out, "# TYPE {} {}", desc.name, desc.kind);
            let _ = writeln!(out, "{} {}", desc.name, value);
        }
        let _ = writeln!(out, "# HELP {} {}", DEPTH_GAUGE.name, DEPTH_GAUGE.help);
        let _ = writeln!(out, "# TYPE {} {}", DEPTH_GAUGE.name, DEPTH_GAUGE.kind);
        for (kind, occupancy) in SleepKind::ALL.iter().zip(self.sessions_asleep.iter()) {
            let _ = writeln!(
                out,
                "{}{{depth=\"{}\"}} {}",
                DEPTH_GAUGE.name,
                kind.label(),
                occupancy.load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(out, "# HELP {} {}", SHARD_GAUGE.name, SHARD_GAUGE.help);
        let _ = writeln!(out, "# TYPE {} {}", SHARD_GAUGE.name, SHARD_GAUGE.kind);
        for (shard, occupancy) in self.session_shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}{{shard=\"{}\"}} {}",
                SHARD_GAUGE.name,
                shard,
                occupancy.load(Ordering::Relaxed)
            );
        }
        let name = STAGE_HISTOGRAM.name;
        let _ = writeln!(out, "# HELP {name} {}", STAGE_HISTOGRAM.help);
        let _ = writeln!(out, "# TYPE {name} {}", STAGE_HISTOGRAM.kind);
        for (stage, hist) in Stage::ALL.iter().zip(self.stages.iter()) {
            let label = stage.label();
            let mut cumulative = 0u64;
            for (i, n) in hist.bucket_counts().into_iter().enumerate() {
                cumulative += n;
                let le = bucket_bound(i);
                let _ = writeln!(
                    out,
                    "{name}_bucket{{stage=\"{label}\",le=\"{le}\"}} {cumulative}"
                );
            }
            let sum = hist.sum_ns();
            let (whole, frac) = (sum / 1000, sum % 1000);
            let _ = writeln!(out, "{name}_sum{{stage=\"{label}\"}} {whole}.{frac:03}");
            // The count is the +Inf bucket, so one scrape never shows
            // the two disagreeing.
            let _ = writeln!(out, "{name}_count{{stage=\"{label}\"}} {cumulative}");
        }
        out
    }
}

// -------------------------------------------------------------- probes

/// Live introspection record for one open session, sampled by a
/// `Query` frame without entering the session's mailbox (the FIFO of
/// pending work is never perturbed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionProbe {
    /// Session id.
    pub session: u32,
    /// The rank the session annotates.
    pub rank: u32,
    /// Whether the engine state could be sampled. `true` means a
    /// worker held the engine at probe time (or the session already
    /// retired) and every engine-derived field below is a default.
    pub busy: bool,
    /// Events the engine has applied.
    pub events_applied: u64,
    /// Directives streamed so far.
    pub directives_sent: u64,
    /// Whether power-mode control (prediction) is active.
    pub predicting: bool,
    /// Link power state implied by the engine's outstanding sleep
    /// directive.
    pub power_state: LinkPower,
    /// IB generation of the modelled link (`QDR`, `FDR`, ...). Older
    /// peers omit the field; it defaults to the paper's QDR hardware.
    /// A plain `Copy` enum, so probing stays allocation-free.
    #[serde(default)]
    pub generation: IbGeneration,
    /// Depth of the engine's armed sleep directive, `None` at full
    /// power. Defaults to `None` when an older peer omits the field.
    #[serde(default)]
    pub sleep_depth: Option<SleepKind>,
    /// Active lanes at that state (4X / 1X / 0).
    pub lane_width: u8,
    /// Pattern phase while predicting: slot being matched.
    pub pattern_slot: Option<u32>,
    /// Pattern phase: calls already matched within the slot.
    pub pattern_progress: Option<u32>,
    /// Pattern length in slots.
    pub pattern_slots: Option<u32>,
    /// The PPA's prediction horizon: mean idle predicted for the
    /// upcoming slot, nanoseconds.
    pub predicted_idle_ns: Option<u64>,
    /// Programmed HCA wake-up timer of the armed sleep, nanoseconds.
    pub sleep_timer_ns: Option<u64>,
    /// Lifetime pattern mispredictions.
    pub pattern_mispredictions: u64,
    /// Lifetime timing mispredictions (late wake-ups).
    pub timing_mispredictions: u64,
    /// Pattern mispredictions currently inside the resilience storm
    /// window.
    pub recent_pattern_window: u32,
    /// Timing mispredictions currently inside the resilience storm
    /// window.
    pub recent_timing_window: u32,
    /// Calls left in the current prediction hold-off.
    pub holdoff_remaining: u32,
    /// Resilience guard band (extra sleep displacement).
    pub guard_band: f64,
    /// Misprediction storms declared so far.
    pub storms: u64,
    /// Work items queued in the session's mailbox.
    pub mailbox_depth: u32,
}

impl SessionProbe {
    /// The probe for a session whose engine could not be sampled
    /// (checked out by a worker, or already retired).
    #[must_use]
    pub fn busy(session: u32, rank: u32, mailbox_depth: u32) -> SessionProbe {
        SessionProbe {
            session,
            rank,
            busy: true,
            events_applied: 0,
            directives_sent: 0,
            predicting: false,
            power_state: LinkPower::Full,
            generation: IbGeneration::default(),
            sleep_depth: None,
            lane_width: LinkPower::Full.lane_width(),
            pattern_slot: None,
            pattern_progress: None,
            pattern_slots: None,
            predicted_idle_ns: None,
            sleep_timer_ns: None,
            pattern_mispredictions: 0,
            timing_mispredictions: 0,
            recent_pattern_window: 0,
            recent_timing_window: 0,
            holdoff_remaining: 0,
            guard_band: 0.0,
            storms: 0,
            mailbox_depth,
        }
    }
}

/// Snapshot-store stats surfaced server-wide.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreProbe {
    /// Sessions indexed by the store.
    pub sessions: u32,
    /// Of those, records marked closed.
    pub closed: u32,
}

/// Server-wide introspection record.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerProbe {
    /// Lifetime counters (same values [`crate::Server::run`] returns).
    pub summary: ServeSummary,
    /// Live sessions tracked by the registry.
    pub sessions_live: u32,
    /// Configured worker threads.
    pub workers: u32,
    /// Configured per-session mailbox capacity.
    pub queue_depth_limit: u32,
    /// Sessions waiting in the worker ready queue right now.
    pub ready_queue_depth: u32,
    /// Encoded response frames queued across all connection writers.
    pub writer_queue_depth: u32,
    /// Sessions whose engine is resident in memory right now.
    pub hot_sessions: u32,
    /// Sessions evicted to the snapshot store, rehydrated on touch.
    pub cold_sessions: u32,
    /// The LRU pager's hot-set cap, when session paging is enabled.
    pub max_hot_sessions: Option<u32>,
    /// Snapshot-store stats, when a store is attached.
    pub store: Option<StoreProbe>,
    /// Transport fault-injection intensity, when the server wraps
    /// accepted connections in the chaos harness (tests/soaks only).
    pub chaos_intensity: Option<f64>,
}

/// The payload of a [`crate::protocol::ServerFrame::QueryReply`]:
/// server-wide state plus a probe per live session (all sessions for a
/// fleet query addressed to `CONNECTION_SESSION`, or just the one the
/// query named — empty if it is not live).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// Server-wide state.
    pub server: ServerProbe,
    /// Per-session probes, ordered by session id.
    pub sessions: Vec<SessionProbe>,
}

// ------------------------------------------------------------ exporter

/// How long one scrape connection may dawdle before being dropped.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Cap on one scrape request's header bytes.
const SCRAPE_REQUEST_CAP: usize = 8 * 1024;

/// Serve the registry as Prometheus text exposition over a plaintext
/// HTTP/1.0 listener on `addr` (e.g. `127.0.0.1:9464`; port 0 picks a
/// free port — the bound address is returned). Every request path gets
/// the same exposition; the thread exits when `stop` is raised.
pub fn spawn_exporter(
    addr: &str,
    metrics: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => serve_scrape(stream, &metrics),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    });
    Ok((bound, handle))
}

/// Answer one scrape: read the request head (discarded — every path
/// serves the exposition), write an HTTP/1.0 response, close.
fn serve_scrape(mut stream: std::net::TcpStream, metrics: &MetricsRegistry) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT));
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return, // peer hung up before finishing the request
            Ok(_) => {
                head.push(byte[0]);
                if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                    break;
                }
                if head.len() >= SCRAPE_REQUEST_CAP {
                    return;
                }
            }
            Err(_) => return,
        }
    }
    // Render first: a scrape reports the scrapes *before* it, so the
    // golden fixture and first-scrape output stay deterministic.
    let body = metrics.render_prometheus();
    metrics.scrapes_served.fetch_add(1, Ordering::Relaxed);
    let mut response = String::with_capacity(body.len() + 128);
    let _ = write!(
        response,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    response.push_str(&body);
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_lists_every_metric_exactly_once() {
        let m = MetricsRegistry::default();
        m.events_applied.store(42, Ordering::Relaxed);
        m.writer_queue_depth.store(7, Ordering::Relaxed);
        let text = m.render_prometheus();
        for desc in COUNTERS.iter().chain(GAUGES.iter()) {
            let value_lines: Vec<&str> = text
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(desc.name) && !l.starts_with('#'))
                .collect();
            assert_eq!(value_lines.len(), 1, "{} emitted once", desc.name);
        }
        assert!(text.contains("ibp_events_applied_total 42"));
        assert!(text.contains("ibp_writer_queue_depth 7"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn exposition_renders_one_sample_per_shard() {
        let m = MetricsRegistry::default();
        m.session_shards[3].store(11, Ordering::Relaxed);
        let text = m.render_prometheus();
        for shard in 0..SESSION_TABLE_SHARDS {
            let expected = if shard == 3 { 11 } else { 0 };
            let line = format!("ibp_session_shard_sessions{{shard=\"{shard}\"}} {expected}");
            assert!(text.contains(&line), "missing {line} in:\n{text}");
        }
        let help_lines = text
            .lines()
            .filter(|l| l.starts_with("# HELP ibp_session_shard_sessions"))
            .count();
        assert_eq!(help_lines, 1, "shard gauge HELP emitted once");
    }

    #[test]
    fn exposition_renders_one_sample_per_sleep_depth() {
        let m = MetricsRegistry::default();
        m.sleep_depth_changed(None, Some(SleepKind::Rate));
        m.sleep_depth_changed(None, Some(SleepKind::Rate));
        m.sleep_depth_changed(Some(SleepKind::Rate), Some(SleepKind::Deep));
        m.sleep_depth_changed(Some(SleepKind::Wrps), Some(SleepKind::Wrps)); // no-op
        let text = m.render_prometheus();
        assert!(
            text.contains("ibp_sessions_asleep{depth=\"wrps\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("ibp_sessions_asleep{depth=\"rate\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ibp_sessions_asleep{depth=\"deep\"} 1"),
            "{text}"
        );
        let help_lines = text
            .lines()
            .filter(|l| l.starts_with("# HELP ibp_sessions_asleep"))
            .count();
        assert_eq!(help_lines, 1, "depth gauge HELP emitted once");
    }

    #[test]
    fn histogram_buckets_are_log2_microseconds() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(1_000), 1);
        assert_eq!(bucket_of(1_001), 2);
        assert_eq!(bucket_of(2_000), 2);
        assert_eq!(bucket_of(2_001), 3);
        assert_eq!(bucket_of(4_000), 3);
        assert_eq!(bucket_of(65_536_000), HISTOGRAM_BUCKETS - 2);
        assert_eq!(bucket_of(65_536_001), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(0), "0");
        assert_eq!(bucket_bound(1), "1");
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 2), "65536");
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), "+Inf");
    }

    #[test]
    fn stage_histograms_render_cumulative_buckets() {
        let m = MetricsRegistry::default();
        m.observe_stage(Stage::Engine, Duration::from_nanos(1_500));
        m.observe_stage(Stage::Engine, Duration::from_nanos(3_000));
        m.observe_stage(Stage::MailboxWait, Duration::ZERO);
        let text = m.render_prometheus();
        let engine =
            |le: &str| format!("ibp_stage_duration_us_bucket{{stage=\"engine\",le=\"{le}\"}}");
        assert!(text.contains(&format!("{} 0\n", engine("1"))), "{text}");
        assert!(text.contains(&format!("{} 1\n", engine("2"))), "{text}");
        assert!(text.contains(&format!("{} 2\n", engine("4"))), "{text}");
        assert!(text.contains(&format!("{} 2\n", engine("+Inf"))), "{text}");
        assert!(
            text.contains("ibp_stage_duration_us_sum{stage=\"engine\"} 4.500\n"),
            "{text}"
        );
        assert!(
            text.contains("ibp_stage_duration_us_count{stage=\"engine\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("ibp_stage_duration_us_bucket{stage=\"mailbox\",le=\"0\"} 1\n"));
        for stage in Stage::ALL {
            let count = format!("ibp_stage_duration_us_count{{stage=\"{}\"}}", stage.label());
            assert_eq!(text.matches(&count).count(), 1, "{count}");
        }
        let help_lines = text
            .lines()
            .filter(|l| l.starts_with("# HELP ibp_stage_duration_us"))
            .count();
        assert_eq!(help_lines, 1, "histogram HELP emitted once");
    }

    #[test]
    fn counter_names_follow_the_contract() {
        for desc in &COUNTERS {
            assert!(desc.name.starts_with("ibp_"), "{}", desc.name);
            assert!(desc.name.ends_with("_total"), "{}", desc.name);
        }
        for desc in &GAUGES {
            assert!(desc.name.starts_with("ibp_"), "{}", desc.name);
            assert!(!desc.name.ends_with("_total"), "{}", desc.name);
        }
    }

    #[test]
    fn summary_matches_counter_stores() {
        let m = MetricsRegistry::default();
        m.sessions_opened.store(3, Ordering::Relaxed);
        m.responses_shed.store(9, Ordering::Relaxed);
        let s = m.summary();
        assert_eq!(s.sessions_opened, 3);
        assert_eq!(s.responses_shed, 9);
        assert_eq!(s.worker_panics, 0);
    }

    #[test]
    fn exporter_serves_a_well_formed_scrape() {
        let metrics = Arc::new(MetricsRegistry::default());
        metrics.events_applied.store(1234, Ordering::Relaxed);
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, handle) = spawn_exporter("127.0.0.1:0", Arc::clone(&metrics), Arc::clone(&stop))
            .expect("bind exporter");
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(response.contains("ibp_events_applied_total 1234"));
        assert_eq!(metrics.scrapes_served.load(Ordering::Relaxed), 1);
        // A second scrape sees the bumped scrape counter.
        let mut conn = std::net::TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("ibp_scrapes_served_total 1"),
            "{response}"
        );
        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn obs_report_roundtrips_through_json() {
        let report = ObsReport {
            server: ServerProbe {
                summary: ServeSummary {
                    sessions_opened: 2,
                    ..Default::default()
                },
                sessions_live: 2,
                workers: 4,
                queue_depth_limit: 64,
                ready_queue_depth: 1,
                writer_queue_depth: 3,
                hot_sessions: 2,
                cold_sessions: 1,
                max_hot_sessions: Some(2),
                store: Some(StoreProbe {
                    sessions: 2,
                    closed: 1,
                }),
                chaos_intensity: Some(0.05),
            },
            sessions: vec![SessionProbe {
                session: 0,
                rank: 3,
                busy: false,
                events_applied: 900,
                directives_sent: 400,
                predicting: true,
                power_state: LinkPower::Low,
                generation: IbGeneration::Qdr,
                sleep_depth: Some(SleepKind::Wrps),
                lane_width: 1,
                pattern_slot: Some(2),
                pattern_progress: Some(1),
                pattern_slots: Some(4),
                predicted_idle_ns: Some(250_000),
                sleep_timer_ns: Some(200_000),
                pattern_mispredictions: 5,
                timing_mispredictions: 2,
                recent_pattern_window: 1,
                recent_timing_window: 0,
                holdoff_remaining: 0,
                guard_band: 0.01,
                storms: 0,
                mailbox_depth: 0,
            }],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: ObsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn busy_probe_reads_as_full_power_defaults() {
        let p = SessionProbe::busy(7, 2, 5);
        assert!(p.busy);
        assert_eq!(p.power_state, LinkPower::Full);
        assert_eq!(p.lane_width, 4);
        assert_eq!(p.mailbox_depth, 5);
    }
}
