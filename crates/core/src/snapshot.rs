//! Serializable snapshots of the streaming runtime.
//!
//! A [`RuntimeSnapshot`] captures **everything** a
//! [`RankRuntime`](crate::runtime::RankRuntime) has learned — interned gram shapes,
//! the closed grams' ids and preceding idle gaps, the pattern list with
//! occurrence windows and slot-gap means, the PPA scan position, the
//! prediction mode, the resilience controller and the cumulative
//! statistics. The runtime keeps no per-event output (each
//! [`RankRuntime::intercept`](crate::runtime::RankRuntime::intercept)
//! hands its outcome to the caller), so of the directives the snapshot
//! holds only the count and digest of those issued, which lets a
//! resuming client check what it holds. Restoring a snapshot therefore
//! yields a runtime that continues the stream exactly where the original
//! left off: every subsequent declaration and lane directive is
//! byte-identical to an unbroken run (property-tested over all five
//! paper workloads in the integration suite).
//!
//! This is what `ibp-serve` uses to let a disconnected client resume
//! prediction without re-learning its pattern dictionary.
//!
//! A snapshot holds no state the restore can derive: the occurrence
//! window bound and the declaration threshold come from the embedded
//! config, the detected patterns' lengths from their keys, the
//! predicted pattern's per-slot call sequences from its key through the
//! gram interner, and the event count from the statistics.
//!
//! Snapshots are plain-old-data with `serde` derives; hash maps are
//! stored as sorted key/value vectors and occurrence windows oldest
//! first, so the serialized form is deterministic for a given runtime
//! state.

use crate::config::SleepKind;
use crate::gram::GramId;
use crate::pattern::{PatternId, RunningMean};
use crate::stats::RankStats;
use crate::PowerConfig;
use ibp_simcore::SimDuration;
use ibp_trace::Rank;
use serde::{Deserialize, Serialize};

/// Version stamp embedded in every snapshot. Bump on layout changes so
/// a server can reject snapshots from an incompatible build.
///
/// Version history:
/// * 1 — initial layout (two-depth `SleepKind`, no ladder fields).
/// * 2 — sleep-depth ladder: `SleepKind::Rate`, a rate-reduced time
///   counter in `RankStats`, and the `rate_*` ladder parameters in
///   [`PowerConfig`].
/// * 3 — one depth model: `PowerConfig::rungs` replaces `policy`, and
///   `RankStats::sleep_time` replaces the per-depth time fields.
/// * 4 — bounded records: `directives_total` and `directives_digest`,
///   the count and digest of the directives a streaming consumer has
///   taken out of the runtime.
/// * 5 — two gram columns: `gram_idle` (each closed gram's preceding
///   idle gap) beside `gram_ids` replaces the `grams` array, the gram
///   builder drops its event positions, and `directives_total` and
///   `directives_digest` cover every directive issued (the runtime
///   hands each one out as it issues it), the digest folding each
///   directive's fields as 64-bit words instead of bytes.
/// * 6 — learned state only: a pattern entry's occurrences are a plain
///   position list (no per-window capacity, no all-time total) and it
///   carries no MPI-call count; the pattern list's window, the PPA's
///   `min_consecutive`, `detected_lens`, `work` and `last_elements`,
///   the predicting mode's `shapes` and the runtime's `event_idx` are
///   gone — each is rebuilt on restore from the config, the pattern
///   keys, the gram interner or `stats.total_calls`.
pub const SNAPSHOT_VERSION: u32 = 6;

/// A snapshot failed validation on restore.
///
/// Snapshots may arrive over the wire, so restoring revalidates every
/// internal invariant instead of trusting the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The snapshot was produced by an incompatible layout version.
    VersionMismatch {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// An id referenced by the snapshot does not exist in its own tables.
    DanglingId {
        /// What kind of id dangled (`"gram"`, `"pattern"`, …).
        what: &'static str,
        /// The out-of-range id.
        id: u64,
        /// Size of the table it was supposed to index.
        len: usize,
    },
    /// A structural invariant does not hold (duplicate interner keys,
    /// occurrence window larger than the configured bound, …).
    Inconsistent(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot version {found} incompatible with expected {expected}"
                )
            }
            SnapshotError::DanglingId { what, id, len } => {
                write!(
                    f,
                    "snapshot references {what} id {id} outside table of {len}"
                )
            }
            SnapshotError::Inconsistent(msg) => write!(f, "inconsistent snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Interned gram shapes, in id order (index = [`GramId`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GramInternerSnapshot {
    /// Call-id sequence of each shape.
    pub shapes: Vec<Vec<u16>>,
}

/// Mutable fields of the online gram builder (the open, not-yet-closed
/// gram). The grouping threshold itself comes from the config.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GramBuilderSnapshot {
    /// Calls accumulated in the open gram.
    pub current_calls: Vec<u16>,
    /// Idle gap that preceded the open gram.
    pub current_preceding_idle: SimDuration,
}

/// One live pattern entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternEntrySnapshot {
    /// Retained occurrence positions, oldest first (at most the
    /// config's `occurrence_window` of them).
    pub occurrences: Vec<usize>,
    /// Whether the pattern was ever declared predictable.
    pub detected: bool,
    /// Per-slot idle-gap running means.
    pub slot_gaps: Vec<RunningMean>,
}

/// The pattern list: interned keys in id order plus id-indexed entries
/// (`None` = tombstoned key, exactly as the live structure keeps them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternListSnapshot {
    /// Interned keys, in id order (index = [`PatternId`]).
    pub keys: Vec<Vec<GramId>>,
    /// Entries; `entries[id]` is `None` when the key is tombstoned.
    pub entries: Vec<Option<PatternEntrySnapshot>>,
}

/// The PPA scanner phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseSnapshot {
    /// Sliding over bi-grams looking for a repeat.
    Seek,
    /// Locked on a candidate, counting consecutive repeats.
    Track {
        /// Consecutive repeats observed so far.
        consecutive: u32,
    },
}

/// Full PPA scanner state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PpaSnapshot {
    /// The pattern list.
    pub pattern_list: PatternListSnapshot,
    /// Current scan position in the gram array.
    pub pos: usize,
    /// Candidate pattern size being tracked.
    pub pattern_size: usize,
    /// Scanner phase.
    pub phase: PhaseSnapshot,
    /// Pattern-length cap (frozen to the declared length once declared).
    pub max_pattern_size: usize,
    /// Whether `max_pattern_size` has been frozen by a declaration.
    pub frozen: bool,
    /// Declaration order of every detected pattern, sorted by pattern id.
    pub detected: Vec<(PatternId, u32)>,
    /// Next declaration-order stamp.
    pub next_detected_order: u32,
    /// First gram position considered fresh for the re-arm check.
    pub min_fresh: usize,
}

/// The runtime's prediction mode.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModeSnapshot {
    /// Gram formation + PPA are running.
    Learning,
    /// Power-mode control is tracking a declared pattern.
    Predicting {
        /// Interned id of the declared pattern (its key's gram shapes
        /// are the slots' expected call sequences).
        pattern: PatternId,
        /// Slot currently being matched.
        slot: usize,
        /// Calls already matched within the current slot's gram.
        progress: usize,
    },
}

/// An armed lane-off timer awaiting its wake-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingSleepSnapshot {
    /// Programmed low-power window.
    pub timer: SimDuration,
    /// Sleep depth.
    pub kind: SleepKind,
}

/// The adaptive resilience controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceSnapshot {
    /// Call indices of recent pattern mispredictions, oldest first.
    pub recent_pattern: Vec<u64>,
    /// Call indices of recent timing mispredictions, oldest first.
    pub recent_timing: Vec<u64>,
    /// Calls left in the current prediction hold-off.
    pub holdoff_remaining: u32,
    /// Length of the next hold-off.
    pub next_holdoff: u32,
    /// Current guard band (extra displacement).
    pub guard: f64,
}

/// Complete learned state of one [`crate::runtime::RankRuntime`]. See
/// the module docs for the contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeSnapshot {
    /// Layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The runtime's configuration.
    pub cfg: PowerConfig,
    /// The rank this runtime annotates.
    pub rank: Rank,
    /// Interned gram shapes.
    pub interner: GramInternerSnapshot,
    /// The open (not yet closed) gram.
    pub builder: GramBuilderSnapshot,
    /// Shape ids of the closed grams, in stream order (the PPA's input
    /// array).
    pub gram_ids: Vec<GramId>,
    /// The idle gap before each closed gram (parallel to `gram_ids`):
    /// what seeds a declared pattern's per-slot means.
    pub gram_idle: Vec<SimDuration>,
    /// The PPA scanner.
    pub ppa: PpaSnapshot,
    /// Prediction mode.
    pub mode: ModeSnapshot,
    /// Armed lane-off timer, if any.
    pub pending: Option<PendingSleepSnapshot>,
    /// Resilience controller state.
    pub resilience: ResilienceSnapshot,
    /// Cumulative statistics (carried so post-restore stats match an
    /// unbroken run). Its `total_calls` is the number of events
    /// intercepted so far: `after_event` indices of post-restore
    /// directives continue from there.
    pub stats: RankStats,
    /// Directives issued so far
    /// ([`RankRuntime::issued`](crate::runtime::RankRuntime::issued)),
    /// across restores.
    pub directives_total: u64,
    /// Running digest of those directives
    /// ([`DirectiveDigest`](crate::runtime::DirectiveDigest)).
    pub directives_digest: u64,
}

impl RuntimeSnapshot {
    /// Serialize to the canonical JSON wire form used by `ibp-serve`.
    #[must_use]
    pub fn to_json_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("snapshot serialization cannot fail")
            .into_bytes()
    }

    /// Parse the canonical JSON wire form.
    pub fn from_json_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| SnapshotError::Inconsistent(format!("snapshot not utf-8: {e}")))?;
        let value: serde::Value = serde_json::from_str(text)
            .map_err(|e| SnapshotError::Inconsistent(format!("snapshot not valid JSON: {e}")))?;
        Self::check_json_version(&value)?;
        Self::from_value(&value)
            .map_err(|e| SnapshotError::Inconsistent(format!("snapshot layout invalid: {e}")))
    }

    /// Check the layout version of a snapshot still in parsed JSON
    /// form, before its layout is decoded, so a snapshot from another
    /// layout reports `VersionMismatch`, not the first field that
    /// layout lacks. A tree with no readable `version` passes; decoding
    /// it then names the missing field. The durable snapshot store runs
    /// this on a record's embedded snapshot during crash recovery.
    pub fn check_json_version(value: &serde::Value) -> Result<(), SnapshotError> {
        let version = value
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "version"))
            .and_then(|(_, v)| u32::from_value(v).ok());
        version.map_or(Ok(()), check_version)
    }

    /// Check the layout version alone, without the full invariant
    /// revalidation `RankRuntime::from_snapshot` performs.
    pub fn validate_version(&self) -> Result<(), SnapshotError> {
        check_version(self.version)
    }
}

fn check_version(found: u32) -> Result<(), SnapshotError> {
    if found == SNAPSHOT_VERSION {
        Ok(())
    } else {
        Err(SnapshotError::VersionMismatch {
            found,
            expected: SNAPSHOT_VERSION,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_error_displays() {
        let e = SnapshotError::VersionMismatch {
            found: 9,
            expected: 1,
        };
        assert!(e.to_string().contains("version 9"));
        let e = SnapshotError::DanglingId {
            what: "pattern",
            id: 7,
            len: 3,
        };
        assert!(e.to_string().contains("pattern id 7"));
        let e = SnapshotError::Inconsistent("x".into());
        assert!(e.to_string().contains("inconsistent"));
    }

    #[test]
    fn json_bytes_reject_garbage() {
        assert!(RuntimeSnapshot::from_json_bytes(b"\xff\xfe").is_err());
        assert!(RuntimeSnapshot::from_json_bytes(b"{not json").is_err());
        assert!(RuntimeSnapshot::from_json_bytes(b"[1,2,3]").is_err());
    }
}
