//! `ibp-serve`: an online streaming prediction service.
//!
//! The paper's mechanism runs *inside* the MPI library — every rank's
//! PMPI shim feeds intercepted calls to a local predictor. This crate
//! provides the deployment shape one step removed: a long-running
//! service that accepts streams of intercept events over TCP or
//! Unix-domain sockets, demultiplexes them into per-session
//! [`ibp_core::RankRuntime`] engines (one session per simulated
//! rank/client), and streams back [`ibp_core::LaneDirective`] decisions
//! plus [`ibp_core::RankStats`] summaries on `Flush` and `Close`.
//!
//! Layout:
//! * [`protocol`] — the versioned CRC-checked length-prefixed frame
//!   format and its panic-free decoder;
//! * [`session`] — one engine instance with incremental apply and
//!   snapshot/restore;
//! * [`server`] — the epoll reactor: a fixed pool of event-loop
//!   threads owning all connections nonblocking (frame reassembly,
//!   eventfd wakers, shutdown eventfd), a bounded worker pool with
//!   panic isolation, per-session mailboxes (backpressure), bounded
//!   outbound queues (overload shedding), sharded session tables, and
//!   LRU engine paging (`max_hot_sessions`) over the snapshot store;
//! * [`store`] — the durable snapshot store: crash-safe persistence of
//!   session state so a restarted server can rehydrate mid-stream
//!   sessions;
//! * [`chaos`] — a seeded fault-injecting stream wrapper (partial
//!   writes, stalls, resets, bit flips) for transport robustness
//!   testing;
//! * [`client`] — blocking protocol client with reconnect/retry and
//!   request deadlines, plus the multi-session load generator with
//!   throughput/latency reporting and offline-parity checking;
//! * [`metrics`] — the live observability layer: lock-free
//!   [`MetricsRegistry`] counters/gauges, Prometheus text exposition
//!   over a plaintext HTTP/1.0 `--metrics-addr` listener, and the
//!   typed [`ObsReport`] probes that answer `Query` frames (what
//!   `ibpower stat`/`top` render).
//!
//! The server's streamed output is *byte-identical* to the offline
//! [`ibp_core::annotate_rank`] golden path for any batch size, any
//! snapshot/restore split point, and any crash/reconnect schedule —
//! verified by in-crate tests, the workspace proptest suite, and the
//! chaos soak test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod session;
pub mod store;

pub use chaos::{ChaosConfig, ChaosCounters, ChaosStream};
pub use client::{
    run_load, Client, LoadConfig, LoadReport, Resume, RetryPolicy, SessionOutcome, SessionSpec,
};
pub use metrics::{
    spawn_exporter, Histogram, MetricsRegistry, ObsReport, ServerProbe, SessionProbe, Stage,
    StoreProbe,
};
pub use protocol::{ClientFrame, ProtocolError, ServerFrame, WireEvent, PROTOCOL_VERSION};
pub use server::{Endpoint, ServeConfig, ServeSummary, Server, Stream};
pub use session::Session;
pub use store::{RecoveryReport, SnapshotStore, StoreRecord};
