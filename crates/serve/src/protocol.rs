//! The length-prefixed binary frame protocol spoken between the load
//! generator (or any PMPI shim) and the `ibp-serve` server.
//!
//! ## Wire format
//!
//! A connection opens with a versioned handshake: each side sends the
//! 4-byte magic `IBPS` followed by its protocol version (`u16` LE); the
//! server answers only after validating the client's header, and a
//! major-version mismatch aborts the connection.
//!
//! After the handshake the stream is a sequence of frames (protocol
//! v2 added the payload checksum):
//!
//! ```text
//! +-------------+-------------+---------+--------------+----------------+
//! | len: u32 LE | crc: u32 LE | kind:u8 | session: u32 | body (len-5 B) |
//! +-------------+-------------+---------+--------------+----------------+
//! ```
//!
//! `len` counts the payload (kind + session + body) and is capped at
//! [`MAX_FRAME_LEN`]; `crc` is the IEEE CRC-32 of the payload bytes.
//! Multi-byte integers are little-endian throughout. Event batches —
//! the hot path — are fixed-width binary records; configs, statistics
//! and snapshots (cold path, schema-rich) travel as JSON bytes inside
//! their binary frames.
//!
//! The checksum exists for *fail-stop* behaviour, not security: a
//! corrupted event gap would otherwise decode as a perfectly valid
//! frame and silently poison the session's learned state. With the CRC
//! the connection fails loudly ([`ProtocolError::ChecksumMismatch`]),
//! the peer drops it, and the resilient client reconnects and restores
//! from a known-good snapshot instead.
//!
//! Decoding is *total*: any byte sequence either parses or returns a
//! [`ProtocolError`] — never a panic (fuzz-tested in
//! `tests/protocol_fuzz.rs`).

use crate::metrics::ObsReport;
use ibp_core::{LaneDirective, PowerConfig, RankStats, SleepKind};
use ibp_simcore::SimDuration;
use ibp_trace::MpiCall;
use std::io::{Read, Write};

/// Protocol version carried in the handshake. v2 added the per-frame
/// payload CRC and the resume position in `OpenAck`; v3 answers a store
/// rehydration with [`ServerFrame::Resumed`] (count and digest of the
/// delivered directives) instead of replaying them. Peers of another
/// version are rejected at the handshake, never mid-stream.
pub const PROTOCOL_VERSION: u16 = 3;

/// The 4-byte connection magic.
pub const MAGIC: [u8; 4] = *b"IBPS";

/// Upper bound on one frame's payload (kind + session + body).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Fixed-width size of one encoded event record (`call: u16`,
/// `gap_ns: u64`).
pub const EVENT_WIRE_BYTES: usize = 10;

/// Sentinel session id carried by [`ServerFrame::Error`] frames that
/// concern the connection itself (undecodable frame, bad length prefix)
/// rather than any open session — session 0 is a legitimate
/// client-choosable id, so it cannot double as "no session". `Open` and
/// `Restore` frames claiming this id are rejected as malformed.
pub const CONNECTION_SESSION: u32 = u32::MAX;

/// Error codes carried by [`ServerFrame::Error`].
pub mod error_code {
    /// The frame referenced a session id that is not open.
    pub const UNKNOWN_SESSION: u16 = 1;
    /// An `Open`/`Restore` reused an already-open session id.
    pub const DUPLICATE_SESSION: u16 = 2;
    /// A `Restore` payload failed snapshot validation.
    pub const BAD_SNAPSHOT: u16 = 3;
    /// The frame body could not be decoded.
    pub const MALFORMED: u16 = 4;
    /// Any other server-side failure.
    pub const INTERNAL: u16 = 5;
    /// A response (e.g. a snapshot) outgrew [`super::MAX_FRAME_LEN`]
    /// and could not be sent.
    pub const FRAME_TOO_LARGE: u16 = 6;
    /// The connection's outbound queue overflowed and older responses
    /// were shed; the session stream is no longer gap-free and the
    /// client should reconnect and restore.
    pub const OVERLOAD: u16 = 7;
    /// A store-backed `Restore` (empty snapshot body) found no usable
    /// record for the session (none stored, or the stored one failed
    /// validation); the client should fall back to a fresh `Open` and
    /// replay from the start.
    pub const NO_SNAPSHOT: u16 = 8;
}

// ------------------------------------------------------------------ crc32

/// IEEE CRC-32 slice-by-8 tables (polynomial 0xEDB88320), built at
/// compile time. `CRC32_TABLES[0]` is the classic bytewise table;
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight table reads fold eight input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes` (the checksum carried in every v2 frame
/// header and in the snapshot store's on-disk records), eight bytes
/// per step (slice-by-8) with a bytewise tail.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Everything that can go wrong speaking the protocol.
///
/// `#[non_exhaustive]`: downstream matches must keep a wildcard arm so
/// new variants (future frame kinds, richer decode errors) don't break
/// them.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProtocolError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The peer's handshake did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks an incompatible protocol version.
    VersionMismatch {
        /// Version the peer announced.
        peer: u16,
        /// Version this side speaks.
        ours: u16,
    },
    /// A frame announced a payload longer than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Announced payload length.
        len: u32,
        /// The cap.
        max: u32,
    },
    /// A frame carried a kind byte this version does not know.
    UnknownKind(u8),
    /// A frame body failed to decode.
    Malformed {
        /// Kind byte of the offending frame.
        kind: u8,
        /// What went wrong.
        detail: String,
    },
    /// A frame referenced a session that is not open.
    UnknownSession(u32),
    /// An `Open`/`Restore` reused an already-open session id.
    DuplicateSession(u32),
    /// A snapshot payload failed validation on restore.
    BadSnapshot(String),
    /// The server reported an error for a session.
    Remote {
        /// One of the [`error_code`] constants.
        code: u16,
        /// Human-readable description from the server.
        message: String,
    },
    /// The peer sent a validly encoded frame where a different one was
    /// required (e.g. a client waiting for `Directives` got `Closed`).
    Unexpected(String),
    /// A frame's payload did not match its header CRC — the transport
    /// corrupted bytes in flight. The connection cannot be trusted past
    /// this point; drop it and reconnect.
    ChecksumMismatch {
        /// CRC announced in the frame header.
        announced: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// A store rehydration's directive count and digest
    /// ([`ServerFrame::Resumed`]) do not match the directives the
    /// client holds: it holds fewer, or different ones. The client
    /// cannot resume at the server's position and must start the
    /// session over from event 0.
    ResumeMismatch {
        /// Directives the client holds.
        held: u64,
        /// Directives the server has delivered.
        delivered: u64,
    },
    /// The resilient client exhausted its reconnect budget.
    GaveUp {
        /// Connection attempts made before giving up.
        attempts: u32,
        /// The error that ended the final attempt.
        last: Box<ProtocolError>,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "io error: {e}"),
            ProtocolError::BadMagic(m) => write!(f, "bad connection magic {m:02x?}"),
            ProtocolError::VersionMismatch { peer, ours } => {
                write!(f, "peer speaks protocol v{peer}, this side v{ours}")
            }
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtocolError::Malformed { kind, detail } => {
                write!(f, "malformed frame of kind {kind:#04x}: {detail}")
            }
            ProtocolError::UnknownSession(s) => write!(f, "session {s} is not open"),
            ProtocolError::DuplicateSession(s) => write!(f, "session {s} is already open"),
            ProtocolError::BadSnapshot(msg) => write!(f, "snapshot rejected: {msg}"),
            ProtocolError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ProtocolError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
            ProtocolError::ChecksumMismatch { announced, computed } => write!(
                f,
                "frame checksum mismatch: header says {announced:#010x}, payload hashes to {computed:#010x}"
            ),
            ProtocolError::ResumeMismatch { held, delivered } => write!(
                f,
                "cannot resume: the client holds {held} directives, which do not match \
                 the count and digest of the {delivered} the server delivered"
            ),
            ProtocolError::GaveUp { attempts, last } => {
                write!(f, "gave up after {attempts} connection attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::GaveUp { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// One intercepted MPI event on the wire: Paraver call id + idle gap
/// (nanoseconds) since the previous call on the rank. [`decode_client`]
/// rejects an `Events` frame carrying an id [`MpiCall::from_id`] does
/// not map.
pub type WireEvent = (u16, u64);

/// Frames a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Open a fresh session for one simulated rank.
    Open {
        /// Client-chosen session id, unique per connection.
        session: u32,
        /// The rank this session annotates.
        rank: u32,
        /// Runtime configuration (JSON on the wire).
        config: Box<PowerConfig>,
    },
    /// A batch of intercepted events, applied in order.
    Events {
        /// Target session.
        session: u32,
        /// The events, oldest first.
        events: Vec<WireEvent>,
    },
    /// Request an immediate [`ServerFrame::Stats`] for the session.
    Flush {
        /// Target session.
        session: u32,
    },
    /// Request a [`ServerFrame::SnapshotData`] with the session's full
    /// learned state.
    Snapshot {
        /// Target session.
        session: u32,
    },
    /// Open a session *from* a previously captured snapshot: the engine
    /// resumes prediction without re-learning.
    ///
    /// An **empty** snapshot body asks the server to rehydrate the
    /// session from its durable store (`ibpower serve --store`) by
    /// session id; the server answers [`ServerFrame::Resumed`] (the
    /// resume position plus the count and digest of the directives
    /// delivered before it), or an `Error` with
    /// [`error_code::NO_SNAPSHOT`] when no usable record exists.
    Restore {
        /// Client-chosen session id, unique per connection.
        session: u32,
        /// A [`ibp_core::RuntimeSnapshot`] in its JSON wire form, or
        /// empty to restore from the server's snapshot store.
        snapshot: Vec<u8>,
    },
    /// Finish the session's stream and retire it.
    Close {
        /// Target session.
        session: u32,
        /// Trailing compute time after the last call (nanoseconds).
        final_compute_ns: u64,
    },
    /// Live introspection request, answered inline by the connection
    /// reader with a [`ServerFrame::QueryReply`] — it never enters the
    /// session's work mailbox, so a mid-stream query cannot perturb the
    /// session FIFO or its output.
    ///
    /// Addressing [`CONNECTION_SESSION`] asks for the *fleet* view
    /// (every live session); any other id narrows the reply to that
    /// session's probe (empty if it is not live). Unlike `Open`/
    /// `Restore`, the reserved id is therefore legal here.
    Query {
        /// Session to probe, or [`CONNECTION_SESSION`] for all.
        session: u32,
    },
}

/// Frames the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// `Open`/`Restore` accepted.
    OpenAck {
        /// The session that is now open.
        session: u32,
        /// Events the session has already applied — 0 for a fresh
        /// `Open`, the resume position for a `Restore`. A reconnecting
        /// client continues streaming from this offset.
        events_applied: u64,
    },
    /// A store rehydration (empty-body `Restore`) accepted: the session
    /// is open at the stored resume position. The client keeps the
    /// first `directives_total` directives it holds for the session,
    /// checks them against `digest`, and streams on from
    /// `events_applied`.
    Resumed {
        /// The session that is now open.
        session: u32,
        /// Events the session has applied: the resume position.
        events_applied: u64,
        /// Directives delivered before the resume position.
        directives_total: u64,
        /// Their [`ibp_core::DirectiveDigest`].
        digest: u64,
    },
    /// Response to one `Events` batch: every lane directive the batch
    /// produced (possibly none). Doubles as the batch acknowledgement.
    Directives {
        /// Source session.
        session: u32,
        /// Total events the session has applied so far.
        events_applied: u64,
        /// Newly issued directives, in event order.
        directives: Vec<LaneDirective>,
    },
    /// Statistics summary, the answer to a `Flush`.
    Stats {
        /// Source session.
        session: u32,
        /// Cumulative statistics (JSON on the wire).
        stats: Box<RankStats>,
    },
    /// The session's learned state, restorable via `Restore`.
    SnapshotData {
        /// Source session.
        session: u32,
        /// A [`ibp_core::RuntimeSnapshot`] in its JSON wire form.
        snapshot: Vec<u8>,
    },
    /// `Close` accepted; the session is retired.
    Closed {
        /// The retired session.
        session: u32,
        /// Directives issued over the session's lifetime.
        directives_total: u64,
        /// Final statistics (JSON on the wire).
        stats: Box<RankStats>,
    },
    /// Answer to a [`ClientFrame::Query`]: server-wide counters plus
    /// per-session live probes (JSON on the wire — introspection is
    /// cold path and schema-rich, like `Stats`).
    QueryReply {
        /// Echo of the query's session id ([`CONNECTION_SESSION`] for
        /// a fleet query).
        session: u32,
        /// The observability report.
        report: Box<ObsReport>,
    },
    /// A request for `session` failed; the session (if it existed) was
    /// dropped.
    Error {
        /// The offending session id, or [`CONNECTION_SESSION`] for
        /// errors that concern the connection rather than a session.
        session: u32,
        /// One of the [`error_code`] constants.
        code: u16,
        /// Human-readable description.
        message: String,
    },
}

const K_OPEN: u8 = 0x01;
const K_EVENTS: u8 = 0x02;
const K_FLUSH: u8 = 0x03;
const K_SNAPSHOT: u8 = 0x04;
const K_RESTORE: u8 = 0x05;
const K_CLOSE: u8 = 0x06;
const K_QUERY: u8 = 0x07;
const K_OPEN_ACK: u8 = 0x81;
const K_DIRECTIVES: u8 = 0x82;
const K_STATS: u8 = 0x83;
const K_SNAPSHOT_DATA: u8 = 0x84;
const K_CLOSED: u8 = 0x85;
const K_QUERY_REPLY: u8 = 0x86;
const K_RESUMED: u8 = 0x87;
const K_ERROR: u8 = 0xEF;

// ---------------------------------------------------------------- encode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn sleep_kind_byte(kind: SleepKind) -> u8 {
    match kind {
        SleepKind::Wrps => 0,
        SleepKind::Deep => 1,
        SleepKind::Rate => 2,
    }
}

fn sleep_kind_of(byte: u8) -> Option<SleepKind> {
    match byte {
        0 => Some(SleepKind::Wrps),
        1 => Some(SleepKind::Deep),
        2 => Some(SleepKind::Rate),
        _ => None,
    }
}

impl ClientFrame {
    /// Session id the frame addresses.
    #[must_use]
    pub fn session(&self) -> u32 {
        match *self {
            ClientFrame::Open { session, .. }
            | ClientFrame::Events { session, .. }
            | ClientFrame::Flush { session }
            | ClientFrame::Snapshot { session }
            | ClientFrame::Restore { session, .. }
            | ClientFrame::Close { session, .. }
            | ClientFrame::Query { session } => session,
        }
    }

    /// Encode to a frame payload (kind + session + body, no length
    /// prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            ClientFrame::Open {
                session,
                rank,
                config,
            } => {
                out.push(K_OPEN);
                put_u32(&mut out, *session);
                put_u32(&mut out, *rank);
                out.extend_from_slice(
                    serde_json::to_string(config.as_ref())
                        .expect("config serializes")
                        .as_bytes(),
                );
            }
            ClientFrame::Events { session, events } => {
                out.reserve(9 + events.len() * EVENT_WIRE_BYTES);
                out.push(K_EVENTS);
                put_u32(&mut out, *session);
                put_u32(&mut out, events.len() as u32);
                for &(call, gap_ns) in events {
                    put_u16(&mut out, call);
                    put_u64(&mut out, gap_ns);
                }
            }
            ClientFrame::Flush { session } => {
                out.push(K_FLUSH);
                put_u32(&mut out, *session);
            }
            ClientFrame::Snapshot { session } => {
                out.push(K_SNAPSHOT);
                put_u32(&mut out, *session);
            }
            ClientFrame::Restore { session, snapshot } => {
                out.push(K_RESTORE);
                put_u32(&mut out, *session);
                out.extend_from_slice(snapshot);
            }
            ClientFrame::Close {
                session,
                final_compute_ns,
            } => {
                out.push(K_CLOSE);
                put_u32(&mut out, *session);
                put_u64(&mut out, *final_compute_ns);
            }
            ClientFrame::Query { session } => {
                out.push(K_QUERY);
                put_u32(&mut out, *session);
            }
        }
        out
    }
}

impl ServerFrame {
    /// Session id the frame concerns.
    #[must_use]
    pub fn session(&self) -> u32 {
        match *self {
            ServerFrame::OpenAck { session, .. }
            | ServerFrame::Resumed { session, .. }
            | ServerFrame::Directives { session, .. }
            | ServerFrame::Stats { session, .. }
            | ServerFrame::SnapshotData { session, .. }
            | ServerFrame::Closed { session, .. }
            | ServerFrame::QueryReply { session, .. }
            | ServerFrame::Error { session, .. } => session,
        }
    }

    /// Encode to a frame payload (kind + session + body, no length
    /// prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            ServerFrame::OpenAck {
                session,
                events_applied,
            } => {
                out.push(K_OPEN_ACK);
                put_u32(&mut out, *session);
                put_u64(&mut out, *events_applied);
            }
            ServerFrame::Resumed {
                session,
                events_applied,
                directives_total,
                digest,
            } => {
                out.push(K_RESUMED);
                put_u32(&mut out, *session);
                put_u64(&mut out, *events_applied);
                put_u64(&mut out, *directives_total);
                put_u64(&mut out, *digest);
            }
            ServerFrame::Directives {
                session,
                events_applied,
                directives,
            } => {
                out.reserve(17 + directives.len() * 33);
                out.push(K_DIRECTIVES);
                put_u32(&mut out, *session);
                put_u64(&mut out, *events_applied);
                put_u32(&mut out, directives.len() as u32);
                for d in directives {
                    put_u64(&mut out, d.after_event as u64);
                    put_u64(&mut out, d.delay.as_ns());
                    put_u64(&mut out, d.timer.as_ns());
                    put_u64(&mut out, d.predicted_idle.as_ns());
                    out.push(sleep_kind_byte(d.kind));
                }
            }
            ServerFrame::Stats { session, stats } => {
                out.push(K_STATS);
                put_u32(&mut out, *session);
                out.extend_from_slice(
                    serde_json::to_string(stats.as_ref())
                        .expect("stats serialize")
                        .as_bytes(),
                );
            }
            ServerFrame::SnapshotData { session, snapshot } => {
                out.push(K_SNAPSHOT_DATA);
                put_u32(&mut out, *session);
                out.extend_from_slice(snapshot);
            }
            ServerFrame::Closed {
                session,
                directives_total,
                stats,
            } => {
                out.push(K_CLOSED);
                put_u32(&mut out, *session);
                put_u64(&mut out, *directives_total);
                out.extend_from_slice(
                    serde_json::to_string(stats.as_ref())
                        .expect("stats serialize")
                        .as_bytes(),
                );
            }
            ServerFrame::QueryReply { session, report } => {
                out.push(K_QUERY_REPLY);
                put_u32(&mut out, *session);
                out.extend_from_slice(
                    serde_json::to_string(report.as_ref())
                        .expect("report serializes")
                        .as_bytes(),
                );
            }
            ServerFrame::Error {
                session,
                code,
                message,
            } => {
                out.push(K_ERROR);
                put_u32(&mut out, *session);
                put_u16(&mut out, *code);
                out.extend_from_slice(message.as_bytes());
            }
        }
        out
    }
}

// ---------------------------------------------------------------- decode

/// Bounds-checked little-endian reader over a frame payload.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
    kind: u8,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ProtocolError::Malformed {
                kind: self.kind,
                detail: format!(
                    "body truncated: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ),
            }),
        }
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed {
                kind: self.kind,
                detail: format!("{} trailing bytes after body", self.buf.len() - self.pos),
            })
        }
    }

    fn json<T: serde::Deserialize>(&mut self, what: &str) -> Result<T, ProtocolError> {
        let kind = self.kind;
        let bytes = self.rest();
        let text = std::str::from_utf8(bytes).map_err(|e| ProtocolError::Malformed {
            kind,
            detail: format!("{what} not utf-8: {e}"),
        })?;
        serde_json::from_str(text).map_err(|e| ProtocolError::Malformed {
            kind,
            detail: format!("{what} not valid JSON: {e}"),
        })
    }
}

fn reader(payload: &[u8]) -> Result<(Rd<'_>, u32), ProtocolError> {
    if payload.is_empty() {
        return Err(ProtocolError::Malformed {
            kind: 0,
            detail: "empty payload".into(),
        });
    }
    let mut rd = Rd {
        buf: payload,
        pos: 1,
        kind: payload[0],
    };
    let session = rd.u32().map_err(|_| ProtocolError::Malformed {
        kind: payload[0],
        detail: "payload too short for session id".into(),
    })?;
    Ok((rd, session))
}

/// Decode a client→server frame payload. Total: every input returns
/// `Ok` or a [`ProtocolError`], never panics.
pub fn decode_client(payload: &[u8]) -> Result<ClientFrame, ProtocolError> {
    let (mut rd, session) = reader(payload)?;
    if session == CONNECTION_SESSION && matches!(rd.kind, K_OPEN | K_RESTORE) {
        return Err(ProtocolError::Malformed {
            kind: rd.kind,
            detail: format!(
                "session id {CONNECTION_SESSION:#x} is reserved for connection-level errors"
            ),
        });
    }
    let frame = match rd.kind {
        K_OPEN => {
            let rank = rd.u32()?;
            let config: PowerConfig = rd.json("power config")?;
            validate_config(&config).map_err(|detail| ProtocolError::Malformed {
                kind: K_OPEN,
                detail,
            })?;
            ClientFrame::Open {
                session,
                rank,
                config: Box::new(config),
            }
        }
        K_EVENTS => {
            let count = rd.u32()? as usize;
            let body = rd.take(count.saturating_mul(EVENT_WIRE_BYTES))?;
            let events = body
                .chunks_exact(EVENT_WIRE_BYTES)
                .map(|c| {
                    let call_id = u16::from_le_bytes(c[0..2].try_into().unwrap());
                    if MpiCall::from_id(call_id).is_none() {
                        return Err(ProtocolError::Malformed {
                            kind: K_EVENTS,
                            detail: format!("unknown MPI call id {call_id:#06x}"),
                        });
                    }
                    Ok((call_id, u64::from_le_bytes(c[2..10].try_into().unwrap())))
                })
                .collect::<Result<_, _>>()?;
            ClientFrame::Events { session, events }
        }
        K_FLUSH => ClientFrame::Flush { session },
        K_SNAPSHOT => ClientFrame::Snapshot { session },
        K_RESTORE => {
            let snapshot = rd.rest().to_vec();
            ClientFrame::Restore { session, snapshot }
        }
        K_CLOSE => {
            let final_compute_ns = rd.u64()?;
            ClientFrame::Close {
                session,
                final_compute_ns,
            }
        }
        K_QUERY => ClientFrame::Query { session },
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    rd.finish()?;
    Ok(frame)
}

/// Decode a server→client frame payload. Total, like [`decode_client`].
pub fn decode_server(payload: &[u8]) -> Result<ServerFrame, ProtocolError> {
    let (mut rd, session) = reader(payload)?;
    let frame = match rd.kind {
        K_OPEN_ACK => ServerFrame::OpenAck {
            session,
            events_applied: rd.u64()?,
        },
        K_RESUMED => ServerFrame::Resumed {
            session,
            events_applied: rd.u64()?,
            directives_total: rd.u64()?,
            digest: rd.u64()?,
        },
        K_DIRECTIVES => {
            let events_applied = rd.u64()?;
            let count = rd.u32()? as usize;
            let body = rd.take(count.saturating_mul(33))?;
            let mut directives = Vec::with_capacity(count);
            for c in body.chunks_exact(33) {
                let after_event = u64::from_le_bytes(c[0..8].try_into().unwrap());
                let kind_byte = c[32];
                let kind = sleep_kind_of(kind_byte).ok_or(ProtocolError::Malformed {
                    kind: K_DIRECTIVES,
                    detail: format!("unknown sleep kind {kind_byte}"),
                })?;
                directives.push(LaneDirective {
                    after_event: after_event as usize,
                    delay: SimDuration::from_ns(u64::from_le_bytes(c[8..16].try_into().unwrap())),
                    timer: SimDuration::from_ns(u64::from_le_bytes(c[16..24].try_into().unwrap())),
                    predicted_idle: SimDuration::from_ns(u64::from_le_bytes(
                        c[24..32].try_into().unwrap(),
                    )),
                    kind,
                });
            }
            ServerFrame::Directives {
                session,
                events_applied,
                directives,
            }
        }
        K_STATS => {
            let stats: RankStats = rd.json("rank stats")?;
            ServerFrame::Stats {
                session,
                stats: Box::new(stats),
            }
        }
        K_SNAPSHOT_DATA => {
            let snapshot = rd.rest().to_vec();
            ServerFrame::SnapshotData { session, snapshot }
        }
        K_CLOSED => {
            let directives_total = rd.u64()?;
            let stats: RankStats = rd.json("rank stats")?;
            ServerFrame::Closed {
                session,
                directives_total,
                stats: Box::new(stats),
            }
        }
        K_QUERY_REPLY => {
            let report: ObsReport = rd.json("observability report")?;
            ServerFrame::QueryReply {
                session,
                report: Box::new(report),
            }
        }
        K_ERROR => {
            let code = rd.u16()?;
            let message = String::from_utf8_lossy(rd.rest()).into_owned();
            ServerFrame::Error {
                session,
                code,
                message,
            }
        }
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    rd.finish()?;
    Ok(frame)
}

/// Reject configs whose invariants [`PowerConfig::paper`] would assert
/// on — a hostile `Open` must not be able to panic the server. The same
/// checks run again in `RankRuntime::from_snapshot`, so a `Restore`
/// cannot smuggle in a config an `Open` would have rejected.
fn validate_config(cfg: &PowerConfig) -> Result<(), String> {
    cfg.validate()
}

// ---------------------------------------------------------------- framing

/// Bytes in the v2 frame header: length prefix + payload CRC.
pub const FRAME_HEADER_LEN: usize = 8;

/// Write one length-prefixed, CRC-tagged frame payload to `w`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ProtocolError> {
    let len = u32::try_from(payload.len()).map_err(|_| ProtocolError::FrameTooLarge {
        len: u32::MAX,
        max: MAX_FRAME_LEN,
    })?;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Validate a frame header (length prefix + CRC) and return the payload
/// size plus the CRC the payload must hash to.
pub fn read_frame_header(header: [u8; FRAME_HEADER_LEN]) -> Result<(usize, u32), ProtocolError> {
    let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice"));
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4-byte slice"));
    Ok((len as usize, crc))
}

/// Check a received payload against the CRC announced in its header.
pub fn verify_frame_crc(announced: u32, payload: &[u8]) -> Result<(), ProtocolError> {
    let computed = crc32(payload);
    if computed == announced {
        Ok(())
    } else {
        Err(ProtocolError::ChecksumMismatch {
            announced,
            computed,
        })
    }
}

/// Read one frame payload from `r`, verifying its CRC. Returns
/// `Ok(None)` on a clean EOF at a frame boundary.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    match r.read(&mut header) {
        Ok(0) => return Ok(None),
        Ok(mut got) => {
            while got < FRAME_HEADER_LEN {
                let n = r.read(&mut header[got..])?;
                if n == 0 {
                    return Err(ProtocolError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof inside frame header",
                    )));
                }
                got += n;
            }
        }
        Err(e) => return Err(ProtocolError::Io(e)),
    }
    let (len, crc) = read_frame_header(header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    verify_frame_crc(crc, &payload)?;
    Ok(Some(payload))
}

/// Send the handshake header (magic + version).
pub fn write_hello<W: Write>(w: &mut W) -> Result<(), ProtocolError> {
    w.write_all(&MAGIC)?;
    w.write_all(&PROTOCOL_VERSION.to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Read and validate the peer's handshake header.
pub fn read_hello<R: Read>(r: &mut R) -> Result<(), ProtocolError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    let mut ver = [0u8; 2];
    r.read_exact(&mut ver)?;
    let peer = u16::from_le_bytes(ver);
    if peer != PROTOCOL_VERSION {
        return Err(ProtocolError::VersionMismatch {
            peer,
            ours: PROTOCOL_VERSION,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    fn roundtrip_client(f: ClientFrame) {
        let payload = f.encode();
        let back = decode_client(&payload).expect("decode");
        assert_eq!(back, f);
    }

    fn roundtrip_server(f: ServerFrame) {
        let payload = f.encode();
        let back = decode_server(&payload).expect("decode");
        assert_eq!(back, f);
    }

    #[test]
    fn client_frames_roundtrip() {
        roundtrip_client(ClientFrame::Open {
            session: 7,
            rank: 3,
            config: Box::new(PowerConfig::default()),
        });
        roundtrip_client(ClientFrame::Events {
            session: 1,
            events: vec![(41, 0), (41, 2_000), (10, 300_000)],
        });
        roundtrip_client(ClientFrame::Events {
            session: 2,
            events: vec![],
        });
        roundtrip_client(ClientFrame::Flush { session: 9 });
        roundtrip_client(ClientFrame::Snapshot { session: 0 });
        roundtrip_client(ClientFrame::Restore {
            session: 4,
            snapshot: b"{\"version\":1}".to_vec(),
        });
        roundtrip_client(ClientFrame::Close {
            session: 5,
            final_compute_ns: 12345,
        });
        roundtrip_client(ClientFrame::Query { session: 6 });
    }

    #[test]
    fn fleet_query_may_use_the_reserved_session_id() {
        // Query is the one client frame for which CONNECTION_SESSION is
        // meaningful: it addresses the whole server, not a session.
        roundtrip_client(ClientFrame::Query {
            session: CONNECTION_SESSION,
        });
    }

    #[test]
    fn query_reply_roundtrips() {
        roundtrip_server(ServerFrame::QueryReply {
            session: CONNECTION_SESSION,
            report: Box::new(crate::metrics::ObsReport::default()),
        });
        let mut report = crate::metrics::ObsReport::default();
        report.server.sessions_live = 3;
        report.server.workers = 2;
        report
            .sessions
            .push(crate::metrics::SessionProbe::busy(1, 0, 4));
        roundtrip_server(ServerFrame::QueryReply {
            session: 1,
            report: Box::new(report),
        });
    }

    #[test]
    fn truncated_query_reply_is_malformed_not_a_panic() {
        let full = ServerFrame::QueryReply {
            session: 2,
            report: Box::new(crate::metrics::ObsReport::default()),
        }
        .encode();
        // Anything shorter than kind+session is malformed; a truncated
        // JSON body must fail the decode, never panic.
        for cut in 0..full.len() {
            assert!(decode_server(&full[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn server_frames_roundtrip() {
        roundtrip_server(ServerFrame::OpenAck {
            session: 7,
            events_applied: 0,
        });
        roundtrip_server(ServerFrame::OpenAck {
            session: 3,
            events_applied: 12_345,
        });
        roundtrip_server(ServerFrame::Resumed {
            session: 4,
            events_applied: 12_345,
            directives_total: 678,
            digest: 0xDEAD_BEEF_0123_4567,
        });
        roundtrip_server(ServerFrame::Directives {
            session: 1,
            events_applied: 555,
            directives: vec![LaneDirective {
                after_event: 42,
                delay: SimDuration::ZERO,
                timer: SimDuration::from_us(250),
                predicted_idle: SimDuration::from_us(300),
                kind: SleepKind::Wrps,
            }],
        });
        roundtrip_server(ServerFrame::Directives {
            session: 1,
            events_applied: 0,
            directives: vec![],
        });
        roundtrip_server(ServerFrame::Stats {
            session: 3,
            stats: Box::new(RankStats::default()),
        });
        roundtrip_server(ServerFrame::SnapshotData {
            session: 2,
            snapshot: vec![1, 2, 3],
        });
        roundtrip_server(ServerFrame::Closed {
            session: 6,
            directives_total: 99,
            stats: Box::new(RankStats::default()),
        });
        roundtrip_server(ServerFrame::Error {
            session: 8,
            code: error_code::UNKNOWN_SESSION,
            message: "session 8 is not open".into(),
        });
    }

    #[test]
    fn deep_sleep_directive_roundtrips() {
        roundtrip_server(ServerFrame::Directives {
            session: 0,
            events_applied: 1,
            directives: vec![LaneDirective {
                after_event: 0,
                delay: SimDuration::from_us(1),
                timer: SimDuration::from_ms(8),
                predicted_idle: SimDuration::from_ms(10),
                kind: SleepKind::Deep,
            }],
        });
    }

    #[test]
    fn truncated_bodies_are_malformed_not_panics() {
        // A valid Events frame, cut short at every possible length.
        let full = ClientFrame::Events {
            session: 1,
            events: vec![(41, 100), (10, 200)],
        }
        .encode();
        for cut in 0..full.len() {
            let r = decode_client(&full[..cut]);
            assert!(r.is_err(), "cut at {cut} decoded");
        }
        // An OpenAck cut anywhere short of its resume position, the
        // body-less form included, is malformed like any other frame.
        let ack = ServerFrame::OpenAck {
            session: 9,
            events_applied: 7,
        }
        .encode();
        for cut in 0..ack.len() {
            assert!(
                matches!(
                    decode_server(&ack[..cut]),
                    Err(ProtocolError::Malformed { .. })
                ),
                "OpenAck cut at {cut} decoded"
            );
        }
        // Events frame announcing more events than the body carries.
        let mut lying = ClientFrame::Events {
            session: 1,
            events: vec![(41, 1)],
        }
        .encode();
        lying[5..9].copy_from_slice(&100u32.to_le_bytes());
        assert!(decode_client(&lying).is_err());
    }

    #[test]
    fn unknown_call_ids_are_malformed() {
        // 0 and 0xBEEF are unassigned; 33 sits between Finalize (32) and
        // Sendrecv (41). One bad id anywhere rejects the whole batch.
        for bad in [0u16, 33, 0xBEEF, u16::MAX] {
            let frame = ClientFrame::Events {
                session: 1,
                events: vec![(41, 100), (bad, 200), (10, 300)],
            };
            match decode_client(&frame.encode()) {
                Err(ProtocolError::Malformed { kind, detail }) => {
                    assert_eq!(kind, K_EVENTS);
                    assert!(detail.contains("call id"), "{detail}");
                }
                other => panic!("id {bad:#x} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        let payload = [0x7Fu8, 0, 0, 0, 0];
        assert!(matches!(
            decode_client(&payload),
            Err(ProtocolError::UnknownKind(0x7F))
        ));
        assert!(matches!(
            decode_server(&payload),
            Err(ProtocolError::UnknownKind(0x7F))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = ClientFrame::Flush { session: 1 }.encode();
        payload.push(0);
        assert!(decode_client(&payload).is_err());
    }

    #[test]
    fn hostile_open_config_rejected() {
        let open = |config: &serde::Value| {
            let mut payload = vec![K_OPEN];
            payload.extend_from_slice(&1u32.to_le_bytes());
            payload.extend_from_slice(&0u32.to_le_bytes());
            payload.extend_from_slice(serde_json::to_string(config).unwrap().as_bytes());
            decode_client(&payload)
        };
        let with = |key: &str, value: serde::Value| {
            let mut v = PowerConfig::default().to_value();
            let serde::Value::Map(entries) = &mut v else {
                panic!("config serializes as an object");
            };
            entries.retain(|(k, _)| k != key);
            entries.push((key.into(), value));
            v
        };
        // displacement >= 1 would trip an assert in the runtime; the
        // decoder must reject it instead.
        let bad = with("displacement", serde::Value::F64(1.5));
        assert!(matches!(open(&bad), Err(ProtocolError::Malformed { .. })));
        // A rung set without WRPS, or with bits past the known depths.
        for bits in [0b110, 0b1001, 0xff] {
            let bad = with("rungs", serde::Value::U64(bits));
            assert!(
                matches!(open(&bad), Err(ProtocolError::Malformed { .. })),
                "rung set {bits:#b} accepted"
            );
        }
        // A config from before the rung set: the old `policy` enum and
        // no `rungs`. It must not decode as a WRPS-only config.
        let mut old = with("policy", serde::Value::Str("Ladder".into()));
        if let serde::Value::Map(entries) = &mut old {
            entries.retain(|(k, _)| k != "rungs");
        }
        assert!(matches!(open(&old), Err(ProtocolError::Malformed { .. })));
    }

    #[test]
    fn reserved_session_id_rejected_on_open_and_restore() {
        // u32::MAX marks connection-level Error frames, so no session
        // may claim it — otherwise a client could mistake a connection
        // error for one of its own sessions.
        let open = ClientFrame::Open {
            session: CONNECTION_SESSION,
            rank: 0,
            config: Box::new(PowerConfig::default()),
        };
        assert!(matches!(
            decode_client(&open.encode()),
            Err(ProtocolError::Malformed { .. })
        ));
        let restore = ClientFrame::Restore {
            session: CONNECTION_SESSION,
            snapshot: b"{}".to_vec(),
        };
        assert!(matches!(
            decode_client(&restore.encode()),
            Err(ProtocolError::Malformed { .. })
        ));
    }

    #[test]
    fn hostile_nan_config_rejected() {
        // JSON cannot carry NaN, so exercise the validator directly.
        let cfg = PowerConfig {
            resilience: ibp_core::ResilienceConfig {
                guard_step: f64::NAN,
                ..ibp_core::ResilienceConfig::standard()
            },
            ..PowerConfig::default()
        };
        assert!(validate_config(&cfg).is_err());
    }

    #[test]
    fn framing_roundtrips_over_a_buffer() {
        let mut buf = Vec::new();
        let p1 = ClientFrame::Flush { session: 1 }.encode();
        let p2 = ClientFrame::Close {
            session: 2,
            final_compute_ns: 7,
        }
        .encode();
        write_frame(&mut buf, &p1).unwrap();
        write_frame(&mut buf, &p2).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), p1);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), p2);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // crc field
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn corrupted_payload_fails_the_crc() {
        let mut buf = Vec::new();
        let payload = ClientFrame::Events {
            session: 1,
            events: vec![(41, 100), (10, 200)],
        }
        .encode();
        write_frame(&mut buf, &payload).unwrap();
        // Flip one bit in every payload byte position in turn: the CRC
        // must catch each one (a plain length prefix would not).
        for i in FRAME_HEADER_LEN..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            let mut r = &bad[..];
            assert!(
                matches!(
                    read_frame(&mut r),
                    Err(ProtocolError::ChecksumMismatch { .. })
                ),
                "corruption at byte {i} slipped past the crc"
            );
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise table loop the slice-by-8 [`crc32`] must agree
    /// with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Slice-by-8 equals the bytewise loop on every length from 0
        /// to 4 KiB and every start offset (so every alignment and
        /// every tail length).
        #[test]
        fn crc32_slice_by_8_matches_bytewise(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..=4096,
            start in 0usize..8,
        ) {
            let mut x = seed | 1;
            let buf: Vec<u8> = (0..start + len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let bytes = &buf[start..];
            proptest::prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    #[test]
    fn empty_restore_is_the_store_rehydration_sentinel() {
        let f = ClientFrame::Restore {
            session: 4,
            snapshot: vec![],
        };
        assert_eq!(decode_client(&f.encode()).unwrap(), f);
    }

    #[test]
    fn handshake_validates_magic_and_version() {
        let mut buf = Vec::new();
        write_hello(&mut buf).unwrap();
        assert_eq!(buf.len(), 6);
        let mut r = &buf[..];
        read_hello(&mut r).unwrap();

        let bad = b"HTTP/1";
        assert!(matches!(
            read_hello(&mut &bad[..]),
            Err(ProtocolError::BadMagic(_))
        ));

        let mut wrong_ver = Vec::new();
        wrong_ver.extend_from_slice(&MAGIC);
        wrong_ver.extend_from_slice(&999u16.to_le_bytes());
        assert!(matches!(
            read_hello(&mut &wrong_ver[..]),
            Err(ProtocolError::VersionMismatch { peer: 999, .. })
        ));
    }

    #[test]
    fn error_display_includes_context() {
        let e = ProtocolError::UnknownSession(12);
        assert!(e.to_string().contains("12"));
        let e = ProtocolError::FrameTooLarge { len: 999, max: 10 };
        assert!(e.to_string().contains("999"));
        let e = ProtocolError::Remote {
            code: 3,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("bad"));
    }
}
