//! # ibp-network — InfiniBand fat-tree replay simulator
//!
//! The Venus–Dimemas substitute of the `ibpower` workspace: an
//! event-driven co-simulation that replays MPI traces (compute verbatim,
//! communication re-simulated) over a 2-level Extended Generalized Fat
//! Tree, XGFT(2;18,14;1,18), with 40 Gb/s links, random up/down routing
//! and per-channel contention (Table II of the paper). Collectives are
//! decomposed into point-to-point phases; non-blocking requests and
//! waits are honoured.
//!
//! The topology is the 2-level [`FatTree`] only: its shape comes from
//! the [`SimParams`] fields `nodes_per_leaf`, `leaf_count` and
//! `top_count`, and every message is routed through it by the
//! [`Fabric`]. There is no general n-level XGFT model.
//!
//! When supplied with [`ibp_core::TraceAnnotations`] the replay also
//! applies the power-saving mechanism's effects: per-call overheads,
//! reactivation penalties, and the lane-off windows that drive per-link
//! WRPS power accounting. Its [`SimResult`] yields the two headline
//! metrics of the paper's Figs. 7–9: IB switch power savings and
//! execution-time increase.

#![warn(missing_docs)]
#![warn(clippy::perf)]
#![forbid(unsafe_code)]

pub mod collectives;
pub mod config;
pub mod fabric;
pub mod faults;
pub mod genlink;
pub mod power;
pub mod replay;
pub mod results;
pub mod switch_power;
pub mod topology;

pub use collectives::{for_each_micro, MicroOp};
pub use config::{SimParams, DEEP_POWER_FRACTION, RATE_POWER_FRACTION};
pub use fabric::{Fabric, FabricStats};
pub use faults::{FaultConfig, FaultPlan, FaultStats, SendFault};
pub use genlink::IbGeneration;
pub use power::{LinkPower, LinkPowerTracker};
pub use replay::{replay, replay_with_scratch, ReplayError, ReplayOptions, ReplayScratch};
pub use results::SimResult;
pub use switch_power::{SwitchPowerModel, SwitchPowerReport};
pub use topology::{ChannelId, FatTree};
