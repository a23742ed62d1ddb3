//! The PMPI-layer runtime: interception loop + power-mode control.
//!
//! [`RankRuntime`] is the per-process state machine of the paper's Fig. 1.
//! It consumes the stream of MPI events exactly as a PMPI hook would —
//! one `(call, idle-since-previous-call)` pair at a time — and transitions
//! between two components:
//!
//! * **Pattern prediction** (Learning mode): gram formation
//!   (Algorithm 1) feeds the PPA (Algorithm 2). On a declaration the
//!   runtime switches to…
//! * **Power-mode control** (Predicting mode, Algorithm 3): the
//!   PPA is disabled (its overhead vanishes); arriving calls are checked
//!   against the declared pattern; when an expected gram completes, a
//!   lane-off directive with a programmed wake-up timer is issued for the
//!   predicted idle gap. Inter-communication times keep being folded into
//!   the per-slot running means so timers track drift.
//!
//! Two misprediction kinds are handled as in the paper: a *pattern*
//! misprediction (the call stream diverges) falls back to Learning and
//! relaunches the PPA; a *timing* misprediction (idle shorter than
//! predicted) charges a reactivation stall of at most `T_react` to the
//! affected call.
//!
//! Each intercepted call returns its [`EventOutcome`] — overhead, stall
//! and at most one lane-off directive — and the runtime keeps none of
//! them: [`annotate_rank`] collects them into a [`RankAnnotation`], a
//! streaming session sends them on.

use crate::config::{PowerConfig, ResilienceConfig, SleepKind};
use crate::gram::{GramBuilder, GramId, GramInterner};
use crate::pattern::PatternId;
use crate::ppa::{seed_slot_gaps, Ppa};
use crate::snapshot::{
    ModeSnapshot, PendingSleepSnapshot, ResilienceSnapshot, RuntimeSnapshot, SnapshotError,
    SNAPSHOT_VERSION,
};
use crate::stats::RankStats;
use ibp_simcore::SimDuration;
use ibp_trace::{MpiCall, Rank, RankTrace};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A lane power directive: after event `after_event` completes, shut the
/// three inactive lanes down and program the HCA timer to wake them after
/// `timer` (lanes ready `timer + T_react` after the event completes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneDirective {
    /// Index of the MPI event (within the rank's stream) whose completion
    /// triggers the lane shutdown.
    pub after_event: usize,
    /// Delay between the event's completion and the shutdown. Zero for
    /// the paper's predictive mechanism (deactivation overlaps compute);
    /// non-zero for reactive idle-timeout baselines.
    #[serde(default)]
    pub delay: SimDuration,
    /// Programmed timer: low-power window measured from the shutdown.
    pub timer: SimDuration,
    /// The full predicted idle interval the timer was derived from.
    pub predicted_idle: SimDuration,
    /// Depth of the sleep (WRPS lane reduction or deep switch sleep).
    #[serde(default = "default_kind")]
    pub kind: SleepKind,
}

fn default_kind() -> SleepKind {
    SleepKind::Wrps
}

/// The count and running 64-bit digest (FNV-1a steps over each
/// directive's five fields as 64-bit words, in stream order) of a
/// prefix of a directive stream. Each step is a bijection of the digest,
/// so two streams of one length that differ in a single field always
/// digest differently; folding words rather than bytes keeps the digest
/// cheap enough for every directive the offline annotation issues. A
/// [`RankRuntime`] keeps one over the directives it has issued
/// ([`RankRuntime::issued`]) and carries it in its snapshot, so a
/// client that resumes a session can check the directives it holds
/// against the server's without the server keeping them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectiveDigest {
    /// Directives folded in.
    pub count: u64,
    /// FNV-1a 64 steps over their fields.
    pub digest: u64,
}

impl DirectiveDigest {
    /// The digest of no directives.
    pub const EMPTY: DirectiveDigest = DirectiveDigest {
        count: 0,
        digest: 0xCBF2_9CE4_8422_2325,
    };

    /// Fold one more directive in.
    pub fn push(&mut self, d: &LaneDirective) {
        let words = [
            d.after_event as u64,
            d.delay.as_ns(),
            d.timer.as_ns(),
            d.predicted_idle.as_ns(),
            d.kind as u64,
        ];
        for w in words {
            self.digest = (self.digest ^ w).wrapping_mul(0x0100_0000_01B3);
        }
        self.count += 1;
    }

    /// The digest of `directives`, from empty.
    #[must_use]
    pub fn of(directives: &[LaneDirective]) -> Self {
        let mut d = Self::EMPTY;
        for x in directives {
            d.push(x);
        }
        d
    }
}

/// Everything the runtime derived for one rank: directives for the
/// network simulator, per-event overheads/penalties to replay, and the
/// summary counters. [`annotate_rank`] builds one from the per-event
/// [`EventOutcome`]s; the baseline policies build theirs directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankAnnotation {
    /// The rank these annotations apply to.
    pub rank: Rank,
    /// Lane-off directives in event order.
    pub directives: Vec<LaneDirective>,
    /// Per-event mechanism overhead (interception + PPA), added to the
    /// compute burst preceding the event.
    pub overhead: Vec<SimDuration>,
    /// Per-event reactivation stall (late lane wake-up), added before the
    /// event's communication can start.
    pub penalty: Vec<SimDuration>,
    /// Summary counters.
    pub stats: RankStats,
}

/// What one intercepted call produced (Fig. 1's per-call decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventOutcome {
    /// Mechanism overhead (interception + PPA), added to the compute
    /// burst preceding the event.
    pub overhead: SimDuration,
    /// Reactivation stall (late lane wake-up), added before the event's
    /// communication can start.
    pub penalty: SimDuration,
    /// The lane-off directive issued after this event, if any.
    pub directive: Option<LaneDirective>,
}

#[derive(Debug)]
enum Mode {
    Learning,
    Predicting {
        /// Interned id of the declared pattern — slot-gap refreshes while
        /// predicting are direct indexed loads, no hashing at all.
        pattern: PatternId,
        /// Expected call-id sequence of each pattern slot.
        shapes: Vec<Box<[u16]>>,
        /// Slot whose gram is currently being matched.
        slot: usize,
        /// Calls already matched within the current slot's gram.
        progress: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct PendingSleep {
    timer: SimDuration,
    kind: SleepKind,
}

/// Mutable state of the adaptive resilience controller (see
/// [`ResilienceConfig`]). All transitions are no-ops when the controller
/// is disabled, preserving the paper's exact behaviour.
/// A run of late wake-ups only counts as a storm at this multiple of
/// [`ResilienceConfig::storm_threshold`]: sparse timing misses are the
/// guard band's job; the hold-off is for wake-up latencies that stay on
/// the critical path call after call.
const TIMING_STORM_FACTOR: u32 = 3;

#[derive(Debug, Default)]
struct ResilienceState {
    /// Call indices (1-based `total_calls` values) of recent pattern
    /// mispredictions, pruned to the sliding storm window.
    recent_pattern: VecDeque<u64>,
    /// Call indices of recent timing mispredictions (late wake-ups).
    recent_timing: VecDeque<u64>,
    /// Calls left in the current prediction hold-off (0 = armed).
    holdoff_remaining: u32,
    /// Length of the next hold-off (doubles per storm, capped).
    next_holdoff: u32,
    /// Guard band: extra displacement added to every planned sleep.
    guard: f64,
}

/// Push `call_idx` into a sliding misprediction window, prune entries
/// older than `window` calls, and report the resulting count.
fn push_window(win: &mut VecDeque<u64>, window: u32, call_idx: u64) -> u32 {
    win.push_back(call_idx);
    while let Some(&oldest) = win.front() {
        if call_idx.saturating_sub(oldest) >= u64::from(window) {
            win.pop_front();
        } else {
            break;
        }
    }
    win.len() as u32
}

impl ResilienceState {
    /// Record a pattern misprediction at `call_idx`; returns `true` when
    /// this tips the window over the storm threshold (the caller then
    /// finds `holdoff_remaining` armed).
    fn note_pattern_misprediction(&mut self, cfg: &ResilienceConfig, call_idx: u64) -> bool {
        if !cfg.enabled {
            return false;
        }
        if push_window(&mut self.recent_pattern, cfg.storm_window, call_idx) >= cfg.storm_threshold
        {
            self.recent_pattern.clear();
            self.arm_holdoff(cfg);
            true
        } else {
            false
        }
    }

    /// A sleep window woke late: widen the guard band, and feed the
    /// timing-storm window — a dense run of late wake-ups (the guard
    /// band failing to catch up) also warrants backing off. Returns
    /// `true` when a storm tips over.
    fn note_timing_misprediction(&mut self, cfg: &ResilienceConfig, call_idx: u64) -> bool {
        if !cfg.enabled {
            return false;
        }
        self.guard = (self.guard + cfg.guard_step).min(cfg.max_guard);
        if push_window(&mut self.recent_timing, cfg.storm_window, call_idx)
            >= cfg.storm_threshold * TIMING_STORM_FACTOR
        {
            self.recent_timing.clear();
            self.arm_holdoff(cfg);
            true
        } else {
            false
        }
    }

    /// Start (or restart) a hold-off, doubling the next one up to the cap.
    fn arm_holdoff(&mut self, cfg: &ResilienceConfig) {
        let hold = if self.next_holdoff == 0 {
            cfg.base_holdoff
        } else {
            self.next_holdoff
        };
        self.holdoff_remaining = hold;
        self.next_holdoff = hold.saturating_mul(2).min(cfg.max_holdoff);
    }

    /// A sleep window resolved cleanly: decay the guard band.
    fn note_clean_wake(&mut self, cfg: &ResilienceConfig) {
        if cfg.enabled {
            self.guard *= cfg.guard_decay;
            if self.guard < 1e-6 {
                self.guard = 0.0;
            }
        }
    }
}

/// Settle a lane-off directive against the idle gap that actually
/// followed its event: the lanes go down `delay` after the event, the
/// timer runs for `timer` from there, and the wake takes `react`.
/// Returns `(stall, span)`: the reactivation stall charged to the call
/// that ends the gap (lanes still waking when it arrives, at most
/// `react`), and the low-power span achieved (from the end of the off
/// transition until the timer fired or the call forced a wake-up).
/// Every policy's stall and sleep accounting goes through here.
pub(crate) fn settle(
    delay: SimDuration,
    timer: SimDuration,
    react: SimDuration,
    gap: SimDuration,
) -> (SimDuration, SimDuration) {
    let ready = delay + timer + react;
    let stall = ready.saturating_sub(gap).min(react);
    let span = timer.min(gap.saturating_sub(delay)).saturating_sub(react);
    (stall, span)
}

/// Mean idle gap observed before `slot` of `pattern` (zero when the
/// pattern or slot has no running mean yet).
fn slot_mean(ppa: &Ppa, pattern: PatternId, slot: usize) -> SimDuration {
    ppa.pattern_list()
        .entry(pattern)
        .and_then(|e| e.slot_gaps.get(slot))
        .map(|m| m.mean())
        .unwrap_or(SimDuration::ZERO)
}

/// The expected call-id sequence of each slot of a pattern: its grams'
/// interned shapes.
fn slot_shapes(interner: &GramInterner, pattern: &[GramId]) -> Vec<Box<[u16]>> {
    pattern
        .iter()
        .map(|&gid| interner.shape(gid).into())
        .collect()
}

/// Per-rank interception runtime (see module docs).
#[derive(Debug)]
pub struct RankRuntime {
    cfg: PowerConfig,
    rank: Rank,
    interner: GramInterner,
    builder: GramBuilder,
    /// Shape ids of the closed grams, in stream order (the PPA's input).
    gram_ids: Vec<GramId>,
    /// The idle gap before each closed gram, parallel to `gram_ids`.
    gram_idle: Vec<SimDuration>,
    ppa: Ppa,
    mode: Mode,
    pending: Option<PendingSleep>,
    resilience: ResilienceState,
    stats: RankStats,
    /// Count and digest of every directive issued so far.
    issued: DirectiveDigest,
}

impl RankRuntime {
    /// Create a runtime for `rank` with the given configuration.
    pub fn new(rank: Rank, cfg: PowerConfig) -> Self {
        let ppa = Ppa::with_window(
            cfg.min_consecutive,
            cfg.max_pattern_size,
            cfg.occurrence_window,
        );
        let builder = GramBuilder::new(&cfg);
        RankRuntime {
            cfg,
            rank,
            interner: GramInterner::new(),
            builder,
            gram_ids: Vec::new(),
            gram_idle: Vec::new(),
            ppa,
            mode: Mode::Learning,
            pending: None,
            resilience: ResilienceState::default(),
            stats: RankStats::default(),
            issued: DirectiveDigest::EMPTY,
        }
    }

    /// Whether prediction (power-mode control) is currently active.
    pub fn predicting(&self) -> bool {
        matches!(self.mode, Mode::Predicting { .. })
    }

    /// Current guard band (extra displacement) of the resilience
    /// controller; zero when disabled or fully decayed.
    pub fn guard_band(&self) -> f64 {
        self.resilience.guard
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> &RankStats {
        &self.stats
    }

    /// Count and digest of every directive issued so far, across
    /// snapshot/restore cycles.
    #[must_use]
    pub fn issued(&self) -> DirectiveDigest {
        self.issued
    }

    /// Number of events intercepted so far.
    pub fn events_seen(&self) -> usize {
        self.stats.total_calls as usize
    }

    /// Phase of the declared pattern while predicting:
    /// `(slot, progress, slots)` — the slot whose gram is currently
    /// being matched, the calls already matched within it, and the
    /// pattern length in slots. `None` while learning.
    #[must_use]
    pub fn pattern_phase(&self) -> Option<(usize, usize, usize)> {
        match &self.mode {
            Mode::Learning => None,
            Mode::Predicting {
                shapes,
                slot,
                progress,
                ..
            } => Some((*slot, *progress, shapes.len())),
        }
    }

    /// The armed sleep window, if a lane-off directive is outstanding:
    /// its depth and the programmed HCA wake-up timer.
    #[must_use]
    pub fn pending_sleep(&self) -> Option<(SleepKind, SimDuration)> {
        self.pending.map(|p| (p.kind, p.timer))
    }

    /// The PPA's current prediction horizon: the mean idle gap predicted
    /// for the upcoming pattern slot (what the next issued timer is
    /// derived from). `None` while learning.
    #[must_use]
    pub fn predicted_horizon(&self) -> Option<SimDuration> {
        match &self.mode {
            Mode::Learning => None,
            Mode::Predicting {
                pattern,
                shapes,
                slot,
                progress,
            } => {
                let next = if *progress == 0 {
                    *slot
                } else {
                    (*slot + 1) % shapes.len()
                };
                Some(slot_mean(&self.ppa, *pattern, next))
            }
        }
    }

    /// Occupancy of the resilience controller's sliding misprediction
    /// windows: `(pattern, timing)` mispredictions currently inside the
    /// storm window. Both zero when the controller is disabled.
    #[must_use]
    pub fn resilience_windows(&self) -> (usize, usize) {
        (
            self.resilience.recent_pattern.len(),
            self.resilience.recent_timing.len(),
        )
    }

    /// Calls left in the current prediction hold-off (0 = no hold-off).
    #[must_use]
    pub fn holdoff_remaining(&self) -> u32 {
        self.resilience.holdoff_remaining
    }

    /// Intercept one MPI call: `gap` is the idle time since the previous
    /// call on this rank (the `compute_before` of the trace record).
    /// Returns what the call produced; the runtime keeps none of it.
    /// Inlined: called out of line, returning the outcome cost
    /// `annotate_rank` about 2 ns per call.
    #[inline]
    pub fn intercept(&mut self, call: MpiCall, gap: SimDuration) -> EventOutcome {
        let mut event_overhead = self.cfg.intercept_overhead;
        let mut event_penalty = SimDuration::ZERO;
        let mut directive = None;
        self.stats.total_calls += 1;
        self.stats.intercept_overhead += self.cfg.intercept_overhead;
        self.stats.nominal_duration += gap;

        match &mut self.mode {
            Mode::Learning if self.resilience.holdoff_remaining > 0 => {
                // Storm hold-off: prediction and the PPA stay suspended;
                // only the interception cost is charged. When the
                // hold-off expires, learning restarts from a clean slate.
                self.resilience.holdoff_remaining -= 1;
                self.stats.holdoff_calls += 1;
                if self.resilience.holdoff_remaining == 0 {
                    self.builder = GramBuilder::new(&self.cfg);
                    self.ppa.relaunch(self.gram_ids.len());
                }
            }
            Mode::Learning => {
                if let Some(closed) = self.builder.push(call, gap, &mut self.interner) {
                    self.gram_ids.push(closed.id);
                    self.gram_idle.push(closed.preceding_idle);
                    let decl = self.ppa.advance(&self.gram_ids);
                    if self.ppa.last_elements() > 0 {
                        self.stats.ppa_invoked_calls += 1;
                        let cost = self.cfg.ppa_base_overhead
                            + self.cfg.ppa_per_element_overhead * self.ppa.last_elements();
                        self.stats.ppa_overhead += cost;
                        event_overhead += cost;
                    }
                    if let Some(decl) = decl {
                        self.stats.declarations += 1;
                        if decl.rearmed {
                            self.stats.rearms += 1;
                        }
                        directive = self.enter_prediction(decl.pattern, call);
                    }
                }
            }
            Mode::Predicting {
                pattern,
                shapes,
                slot,
                progress,
            } => {
                let gt = self.cfg.grouping_threshold;
                let mut mispredicted = false;
                let mut timing_storm = false;

                if *progress == 0 {
                    // This event terminates the predicted idle gap.
                    if let Some(p) = self.pending.take() {
                        let react = self.cfg.react_of(p.kind);
                        let (stall, span) = settle(SimDuration::ZERO, p.timer, react, gap);
                        if !stall.is_zero() {
                            self.stats.timing_mispredictions += 1;
                            self.stats.total_penalty += stall;
                            event_penalty += stall;
                            if self.resilience.note_timing_misprediction(
                                &self.cfg.resilience,
                                self.stats.total_calls,
                            ) {
                                self.stats.storms += 1;
                                timing_storm = true;
                            }
                        } else {
                            self.resilience.note_clean_wake(&self.cfg.resilience);
                        }
                        self.stats.sleep_time[p.kind as usize] += span;
                    }
                    if gap < gt {
                        // The previous gram was not over: the pattern has
                        // more calls than predicted → pattern break.
                        mispredicted = true;
                    } else {
                        // Fold the observed gap into the slot mean so the
                        // next occurrence's timer tracks drift.
                        if let Some(entry) = self.ppa.pattern_list_mut().entry_mut(*pattern) {
                            if let Some(m) = entry.slot_gaps.get_mut(*slot) {
                                m.push(gap);
                            }
                        }
                    }
                } else if gap >= gt {
                    // A long gap arrived mid-gram: the gram ended early.
                    mispredicted = true;
                }

                if !mispredicted {
                    let shape = &shapes[*slot];
                    if call.id() != shape[*progress] {
                        mispredicted = true;
                    } else {
                        *progress += 1;
                        self.stats.predicted_calls += 1;
                        self.stats.correct_calls += 1;
                        if *progress == shape.len() {
                            // Expected gram complete: program the lane-off
                            // for the gap before the next slot.
                            let next = (*slot + 1) % shapes.len();
                            let predicted_idle = slot_mean(&self.ppa, *pattern, next);
                            *slot = next;
                            *progress = 0;
                            directive = self.arm_sleep(predicted_idle);
                        }
                    }
                }

                if mispredicted {
                    self.pattern_misprediction();
                    self.fall_back_to_learning(call, gap);
                } else if timing_storm {
                    // A storm of late wake-ups: abandon the (correctly
                    // matched) pattern and let the hold-off run. The call
                    // itself was predicted fine, so no pattern
                    // misprediction is charged.
                    self.fall_back_to_learning(call, gap);
                }
            }
        }

        EventOutcome {
            overhead: event_overhead,
            penalty: event_penalty,
            directive,
        }
    }

    /// Capture the complete learned state (see [`RuntimeSnapshot`]). A
    /// restored runtime issues directives with the correct absolute
    /// `after_event` indices and keeps the count and digest of those
    /// issued before the snapshot.
    #[must_use]
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            version: SNAPSHOT_VERSION,
            cfg: self.cfg.clone(),
            rank: self.rank,
            interner: self.interner.snapshot(),
            builder: self.builder.snapshot(),
            gram_ids: self.gram_ids.clone(),
            gram_idle: self.gram_idle.clone(),
            ppa: self.ppa.snapshot(),
            mode: match &self.mode {
                Mode::Learning => ModeSnapshot::Learning,
                Mode::Predicting {
                    pattern,
                    slot,
                    progress,
                    ..
                } => ModeSnapshot::Predicting {
                    pattern: *pattern,
                    slot: *slot,
                    progress: *progress,
                },
            },
            pending: self.pending.map(|p| PendingSleepSnapshot {
                timer: p.timer,
                kind: p.kind,
            }),
            resilience: ResilienceSnapshot {
                recent_pattern: self.resilience.recent_pattern.iter().copied().collect(),
                recent_timing: self.resilience.recent_timing.iter().copied().collect(),
                holdoff_remaining: self.resilience.holdoff_remaining,
                next_holdoff: self.resilience.next_holdoff,
                guard: self.resilience.guard,
            },
            stats: self.stats.clone(),
            directives_total: self.issued.count,
            directives_digest: self.issued.digest,
        }
    }

    /// Rebuild a runtime from a snapshot, revalidating every internal
    /// invariant (snapshots may arrive over the wire). The restored
    /// runtime produces declarations and directives byte-identical to
    /// the original continuing uninterrupted.
    pub fn from_snapshot(snap: &RuntimeSnapshot) -> Result<Self, SnapshotError> {
        snap.validate_version()?;
        // The same invariant checks `protocol::validate_config` runs on
        // an `Open` — a hostile Restore must not smuggle in a config
        // that `Open` would have rejected (e.g. a negative displacement
        // later asserts in `SimDuration::mul_f64` and kills the worker).
        snap.cfg.validate().map_err(SnapshotError::Inconsistent)?;
        let guard = snap.resilience.guard;
        if !guard.is_finite() || guard < 0.0 {
            return Err(SnapshotError::Inconsistent(format!(
                "resilience guard {guard} must be finite and >= 0"
            )));
        }
        if snap.gram_ids.len() != snap.gram_idle.len() {
            return Err(SnapshotError::Inconsistent(format!(
                "{} gram ids for {} idle gaps",
                snap.gram_ids.len(),
                snap.gram_idle.len()
            )));
        }
        let interner = GramInterner::from_snapshot(&snap.interner)?;
        let keys = snap.ppa.pattern_list.keys.iter().flatten();
        if let Some(&gid) = snap
            .gram_ids
            .iter()
            .chain(keys)
            .find(|&&gid| gid as usize >= interner.len())
        {
            return Err(SnapshotError::DanglingId {
                what: "gram",
                id: u64::from(gid),
                len: interner.len(),
            });
        }
        let ppa = Ppa::from_snapshot(
            &snap.ppa,
            snap.cfg.min_consecutive,
            snap.cfg.occurrence_window,
        )?;
        let mode = match snap.mode {
            ModeSnapshot::Learning => Mode::Learning,
            ModeSnapshot::Predicting {
                pattern,
                slot,
                progress,
            } => {
                let nkeys = snap.ppa.pattern_list.keys.len();
                if pattern as usize >= nkeys {
                    return Err(SnapshotError::DanglingId {
                        what: "pattern",
                        id: u64::from(pattern),
                        len: nkeys,
                    });
                }
                let shapes = slot_shapes(&interner, ppa.pattern_list().key(pattern));
                let ok = slot < shapes.len()
                    && shapes.iter().all(|s| !s.is_empty())
                    && (progress == 0 || progress < shapes[slot].len());
                if !ok {
                    return Err(SnapshotError::Inconsistent(format!(
                        "predicting mode out of range: slot {slot}, progress {progress}, {} shapes",
                        shapes.len()
                    )));
                }
                Mode::Predicting {
                    pattern,
                    shapes,
                    slot,
                    progress,
                }
            }
        };
        Ok(RankRuntime {
            builder: GramBuilder::from_snapshot(&snap.cfg, &snap.builder),
            cfg: snap.cfg.clone(),
            rank: snap.rank,
            interner,
            gram_ids: snap.gram_ids.clone(),
            gram_idle: snap.gram_idle.clone(),
            ppa,
            mode,
            pending: snap.pending.map(|p| PendingSleep {
                timer: p.timer,
                kind: p.kind,
            }),
            resilience: ResilienceState {
                recent_pattern: snap.resilience.recent_pattern.iter().copied().collect(),
                recent_timing: snap.resilience.recent_timing.iter().copied().collect(),
                holdoff_remaining: snap.resilience.holdoff_remaining,
                next_holdoff: snap.resilience.next_holdoff,
                guard: snap.resilience.guard,
            },
            stats: snap.stats.clone(),
            issued: DirectiveDigest {
                count: snap.directives_total,
                digest: snap.directives_digest,
            },
        })
    }

    /// Finish the stream (`final_compute` is the trailing compute after
    /// the last call) and return the rank's final statistics.
    pub fn finish(mut self, final_compute: SimDuration) -> RankStats {
        self.stats.nominal_duration += final_compute;
        self.stats
    }

    /// Switch to prediction mode for `pattern`; `first_call` is the call
    /// that triggered the declaration — it is the first call of the first
    /// predicted occurrence (it opened the gram at `predict_from`).
    /// Returns the directive issued when slot 0 is a single call.
    fn enter_prediction(
        &mut self,
        pattern: Box<[GramId]>,
        first_call: MpiCall,
    ) -> Option<LaneDirective> {
        let shapes = slot_shapes(&self.interner, &pattern);
        let pattern_id = self
            .ppa
            .pattern_list()
            .id_of(&pattern)
            .expect("declared pattern is interned");

        // Seed the per-slot idle means from the occurrences that proved
        // the pattern, unless a previous prediction phase already did.
        {
            let gram_idle = &self.gram_idle;
            let entry = self
                .ppa
                .pattern_list_mut()
                .entry_mut(pattern_id)
                .expect("declared pattern is in the list");
            if entry.slot_gaps.is_empty() {
                entry.slot_gaps = seed_slot_gaps(entry.occurrences.iter(), pattern.len(), |i| {
                    gram_idle.get(i).copied()
                });
            }
        }

        // The declaring call opened the first predicted occurrence; it is
        // predicted to be slot 0's first call. If the stream diverges on
        // this very call (e.g. an aperiodic gram follows a re-arm), that
        // is an immediate pattern misprediction: stay in learning — the
        // builder already holds the diverging call as its open gram.
        if shapes[0][0] != first_call.id() {
            self.pattern_misprediction();
            return None;
        }
        self.stats.predicted_calls += 1;
        self.stats.correct_calls += 1;

        // Drop the open gram from the builder: prediction tracks it now.
        self.builder = GramBuilder::new(&self.cfg);

        let single_call_slot0 = shapes[0].len() == 1;
        if single_call_slot0 {
            // Slot 0's gram is already complete; issue its directive and
            // move to slot 1 (or wrap).
            let next = 1 % shapes.len();
            let directive = self.arm_sleep(slot_mean(&self.ppa, pattern_id, next));
            self.mode = Mode::Predicting {
                pattern: pattern_id,
                shapes,
                slot: next,
                progress: 0,
            };
            directive
        } else {
            self.mode = Mode::Predicting {
                pattern: pattern_id,
                shapes,
                slot: 0,
                progress: 1,
            };
            None
        }
    }

    /// Plan the sleep for `predicted_idle` after the current event, arm
    /// it as the pending sleep and return its directive — unless the
    /// resilience controller's slowdown budget is spent (the mechanism's
    /// added time is over its share of the nominal duration), which
    /// suppresses it.
    fn arm_sleep(&mut self, predicted_idle: SimDuration) -> Option<LaneDirective> {
        let r = &self.cfg.resilience;
        if r.enabled && r.slowdown_budget_pct > 0.0 {
            let nominal = self.stats.nominal_duration.as_secs_f64();
            let added = self.stats.mechanism_added_time().as_secs_f64();
            if nominal > 0.0 && added > nominal * r.slowdown_budget_pct / 100.0 {
                self.stats.suppressed_directives += 1;
                return None;
            }
        }
        let disp = self.cfg.displacement + self.resilience.guard;
        let (kind, timer) = self.cfg.plan_sleep_with(disp, predicted_idle)?;
        // `total_calls` already counts the current event.
        let directive = LaneDirective {
            after_event: self.stats.total_calls as usize - 1,
            delay: SimDuration::ZERO,
            timer,
            predicted_idle,
            kind,
        };
        self.issued.push(&directive);
        self.stats.lane_off_count += 1;
        self.pending = Some(PendingSleep { timer, kind });
        Some(directive)
    }

    /// Charge a pattern misprediction, and a storm if it tips the
    /// resilience controller's window over.
    fn pattern_misprediction(&mut self) {
        self.stats.pattern_mispredictions += 1;
        if self
            .resilience
            .note_pattern_misprediction(&self.cfg.resilience, self.stats.total_calls)
        {
            self.stats.storms += 1;
        }
    }

    /// Pattern misprediction: relaunch the PPA and restart gram formation
    /// with the diverging call as the first event of a fresh gram.
    fn fall_back_to_learning(&mut self, call: MpiCall, gap: SimDuration) {
        self.pending = None;
        self.mode = Mode::Learning;
        self.builder = GramBuilder::new(&self.cfg);
        self.ppa.relaunch(self.gram_ids.len());
        // Feed the diverging call as the opening event of a new gram (it
        // cannot close a gram, so no PPA work happens here).
        let none = self.builder.push(call, gap, &mut self.interner);
        debug_assert!(none.is_none());
    }
}

/// Run the full mechanism over one rank's recorded stream, collecting
/// each call's [`EventOutcome`] into the rank's annotation.
pub fn annotate_rank(trace: &RankTrace, cfg: &PowerConfig) -> RankAnnotation {
    let n = trace.call_count();
    let mut rt = RankRuntime::new(trace.rank, cfg.clone());
    let mut directives = Vec::new();
    let mut overhead = Vec::with_capacity(n);
    let mut penalty = Vec::with_capacity(n);
    for (call, gap) in trace.call_stream() {
        let out = rt.intercept(call, gap);
        overhead.push(out.overhead);
        penalty.push(out.penalty);
        if let Some(d) = out.directive {
            directives.push(d);
        }
    }
    RankAnnotation {
        rank: trace.rank,
        directives,
        overhead,
        penalty,
        stats: rt.finish(trace.final_compute),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{ModeSnapshot, RuntimeSnapshot, SnapshotError};
    use ibp_trace::MpiCall::{Allreduce, Sendrecv};

    fn cfg() -> PowerConfig {
        PowerConfig::paper(SimDuration::from_us(20), 0.10)
    }

    fn us(x: u64) -> SimDuration {
        SimDuration::from_us(x)
    }

    /// Feed `iters` Alya iterations (Fig. 2): 41,41,41 close together,
    /// then 10, 10 with long gaps. Returns each call's outcome.
    fn feed_alya(rt: &mut RankRuntime, iters: usize, long_gap: u64) -> Vec<EventOutcome> {
        alya_events(iters, long_gap)
            .into_iter()
            .map(|(call, gap)| rt.intercept(call, gap))
            .collect()
    }

    /// The directives among `outcomes`, in event order.
    fn directives(outcomes: &[EventOutcome]) -> Vec<LaneDirective> {
        outcomes.iter().filter_map(|o| o.directive).collect()
    }

    #[test]
    fn prediction_activates_at_event_21() {
        // Fig. 3: prediction flips to true on the 21st MPI event.
        let mut rt = RankRuntime::new(0, cfg());
        let mut activation_event = None;
        let calls: Vec<(MpiCall, SimDuration)> = {
            let mut v = Vec::new();
            for it in 0..6 {
                let lead = if it == 0 { us(0) } else { us(300) };
                v.push((Sendrecv, lead));
                v.push((Sendrecv, us(2)));
                v.push((Sendrecv, us(3)));
                v.push((Allreduce, us(300)));
                v.push((Allreduce, us(300)));
            }
            v
        };
        for (i, (call, gap)) in calls.into_iter().enumerate() {
            rt.intercept(call, gap);
            if rt.predicting() && activation_event.is_none() {
                activation_event = Some(i + 1); // 1-based like the paper
            }
        }
        assert_eq!(activation_event, Some(21));
    }

    #[test]
    fn directives_issued_while_predicting() {
        let mut rt = RankRuntime::new(0, cfg());
        let out = feed_alya(&mut rt, 12, 300);
        let stats = rt.finish(SimDuration::ZERO);
        assert!(stats.lane_off_count > 0, "no directives issued");
        assert_eq!(directives(&out).len() as u64, stats.lane_off_count);
        // All timers obey Algorithm 3: timer = idle − idle·disp − T_react.
        for d in &directives(&out) {
            let expect = d
                .predicted_idle
                .saturating_sub(d.predicted_idle.mul_f64(0.10) + us(10));
            assert_eq!(d.timer, expect);
            assert!(d.timer > us(10), "unprofitable directive issued");
        }
        // Steady state with constant gaps: no penalties.
        assert_eq!(stats.timing_mispredictions, 0);
        assert_eq!(stats.pattern_mispredictions, 0);
        assert!(out.iter().all(|o| o.penalty.is_zero()));
    }

    #[test]
    fn hit_rate_grows_with_iterations() {
        let run = |iters: usize| {
            let mut rt = RankRuntime::new(0, cfg());
            feed_alya(&mut rt, iters, 300);
            rt.finish(SimDuration::ZERO).hit_rate_pct()
        };
        let short = run(6);
        let long = run(60);
        assert!(
            long > short,
            "hit rate should amortise learning: {short} vs {long}"
        );
        assert!(long > 85.0, "steady-state Alya hit rate ~93%: got {long}");
    }

    #[test]
    fn shorter_gap_than_predicted_charges_bounded_stall() {
        let mut rt = RankRuntime::new(0, cfg());
        // Learn with 300 µs gaps…
        feed_alya(&mut rt, 8, 300);
        assert!(rt.predicting());
        // …then one iteration arrives much earlier than predicted.
        let early = rt.intercept(Sendrecv, us(40)); // expected ~300 µs gap
        let stats = rt.finish(SimDuration::ZERO);
        assert!(stats.timing_mispredictions >= 1);
        assert!(early.penalty > SimDuration::ZERO);
        assert!(early.penalty <= us(10), "stall capped at T_react");
        assert_eq!(early.penalty, stats.total_penalty);
    }

    #[test]
    fn diverging_call_stream_falls_back_and_rearms() {
        let mut rt = RankRuntime::new(0, cfg());
        feed_alya(&mut rt, 8, 300);
        assert!(rt.predicting());
        // Inject a foreign call: pattern break.
        rt.intercept(ibp_trace::MpiCall::Barrier, us(300));
        assert!(!rt.predicting(), "must fall back to learning");
        // Resume the pattern; a detected pattern re-arms on first sighting.
        feed_alya(&mut rt, 3, 300);
        assert!(rt.predicting(), "detected pattern should re-arm quickly");
        let stats = rt.finish(SimDuration::ZERO);
        assert_eq!(stats.pattern_mispredictions, 1);
        assert!(stats.rearms >= 1);
    }

    #[test]
    fn ppa_overhead_only_during_learning() {
        let mut rt = RankRuntime::new(0, cfg());
        let out = feed_alya(&mut rt, 30, 300);
        let stats = rt.finish(SimDuration::ZERO);
        // PPA ran on a small share of calls (learning prefix only).
        assert!(stats.ppa_invocation_pct() < 25.0);
        assert!(stats.ppa_invoked_calls > 0);
        // Every event carries at least the interception overhead.
        assert!(out.iter().all(|o| o.overhead >= us(1)));
    }

    #[test]
    fn wrps_sleep_time_accumulates() {
        let mut rt = RankRuntime::new(0, cfg());
        feed_alya(&mut rt, 40, 500);
        let stats = rt.finish(SimDuration::ZERO);
        assert!(stats.sleep_time[SleepKind::Wrps as usize] > SimDuration::ZERO);
        let frac = stats.low_power_fraction();
        assert!(frac > 0.3 && frac < 1.0, "fraction {frac}");
        let est = stats.est_power_saving_pct(0.43);
        assert!(est > 15.0 && est < 57.0, "estimate {est}");
    }

    #[test]
    fn annotate_rank_matches_manual_loop() {
        use ibp_trace::{MpiOp, TraceBuilder};
        let mut b = TraceBuilder::new("alya-like", 1);
        for it in 0..10 {
            let lead = if it == 0 { us(0) } else { us(300) };
            b.compute(0, lead);
            b.op(
                0,
                MpiOp::Sendrecv {
                    to: 0,
                    send_bytes: 1,
                    from: 0,
                    recv_bytes: 1,
                },
            );
            b.compute(0, us(2));
            b.op(
                0,
                MpiOp::Sendrecv {
                    to: 0,
                    send_bytes: 1,
                    from: 0,
                    recv_bytes: 1,
                },
            );
            b.compute(0, us(3));
            b.op(
                0,
                MpiOp::Sendrecv {
                    to: 0,
                    send_bytes: 1,
                    from: 0,
                    recv_bytes: 1,
                },
            );
            b.compute(0, us(300));
            b.op(0, MpiOp::Allreduce { bytes: 8 });
            b.compute(0, us(300));
            b.op(0, MpiOp::Allreduce { bytes: 8 });
        }
        let trace = b.build();
        let ann = annotate_rank(&trace.ranks[0], &cfg());
        assert_eq!(ann.overhead.len(), trace.ranks[0].call_count());
        assert_eq!(ann.penalty.len(), trace.ranks[0].call_count());
        assert!(ann.stats.correct_calls > 0);

        let mut rt = RankRuntime::new(0, cfg());
        let out: Vec<EventOutcome> = trace.ranks[0]
            .call_stream()
            .map(|(call, gap)| rt.intercept(call, gap))
            .collect();
        let overhead: Vec<SimDuration> = out.iter().map(|o| o.overhead).collect();
        let penalty: Vec<SimDuration> = out.iter().map(|o| o.penalty).collect();
        assert_eq!(ann.overhead, overhead);
        assert_eq!(ann.penalty, penalty);
        assert_eq!(ann.directives, directives(&out));
        assert_eq!(ann.stats, rt.finish(trace.ranks[0].final_compute));
    }

    fn resilient_cfg() -> PowerConfig {
        cfg().with_resilience(crate::config::ResilienceConfig::standard())
    }

    /// Alternate two incompatible periodic patterns so every declaration
    /// is broken shortly after it arms: a misprediction storm. Returns
    /// each call's outcome.
    fn feed_storm(rt: &mut RankRuntime, rounds: usize) -> Vec<EventOutcome> {
        use ibp_trace::MpiCall::{Barrier, Bcast};
        let mut out = Vec::new();
        for round in 0..rounds {
            out.extend(feed_alya(rt, 4, 300));
            // Foreign tail that breaks whatever was declared.
            for _ in 0..2 {
                out.push(rt.intercept(Barrier, us(300)));
                out.push(rt.intercept(Bcast, us(round as u64 % 7 + 25)));
            }
        }
        out
    }

    #[test]
    fn disabled_resilience_is_bit_identical_to_paper() {
        let run = |c: PowerConfig| {
            let mut rt = RankRuntime::new(0, c);
            let mut out = feed_storm(&mut rt, 10);
            out.extend(feed_alya(&mut rt, 20, 300));
            (out, rt.finish(SimDuration::ZERO))
        };
        let paper = run(cfg());
        let with_disabled = run(cfg().with_resilience(Default::default()));
        assert_eq!(paper, with_disabled);
    }

    #[test]
    fn storm_triggers_exponential_holdoff() {
        let mut rt = RankRuntime::new(0, resilient_cfg());
        feed_storm(&mut rt, 30);
        let holding = rt.holdoff_remaining() > 0;
        let stats = rt.finish(SimDuration::ZERO);
        assert!(stats.storms >= 1, "storm not detected: {stats:?}");
        assert!(stats.holdoff_calls > 0 || holding);
        // The unguarded runtime keeps mispredicting; the hold-off must
        // cut the misprediction count.
        let mut raw = RankRuntime::new(0, cfg());
        feed_storm(&mut raw, 30);
        let raw_stats = raw.finish(SimDuration::ZERO);
        assert!(
            stats.pattern_mispredictions < raw_stats.pattern_mispredictions,
            "backoff should reduce mispredictions: {} vs {}",
            stats.pattern_mispredictions,
            raw_stats.pattern_mispredictions
        );
    }

    #[test]
    fn prediction_rearms_after_holdoff_expires() {
        let mut rt = RankRuntime::new(0, resilient_cfg());
        feed_storm(&mut rt, 30);
        // A long stable run: the hold-off (≤ max 6400 calls) drains and
        // the clean pattern re-arms.
        feed_alya(&mut rt, 2000, 300);
        assert!(rt.predicting(), "prediction must come back after backoff");
        assert!(rt.finish(SimDuration::ZERO).lane_off_count > 0);
    }

    #[test]
    fn guard_band_widens_on_late_wakes_and_decays() {
        let mut rt = RankRuntime::new(0, resilient_cfg());
        feed_alya(&mut rt, 8, 300);
        assert!(rt.predicting());
        assert_eq!(rt.guard_band(), 0.0);
        // Early arrival → late wake-up → guard widens.
        rt.intercept(Sendrecv, us(40));
        // That was also a timing mispredict; pattern may have fallen
        // back. Re-learn, then check the guard decays on clean wakes.
        let after_miss = rt.guard_band();
        assert!(after_miss > 0.0, "guard should widen after a late wake");
        feed_alya(&mut rt, 40, 300);
        assert!(
            rt.guard_band() < after_miss,
            "guard should decay on clean wakes: {} -> {}",
            after_miss,
            rt.guard_band()
        );
    }

    #[test]
    fn guarded_timers_are_more_conservative() {
        // Same pattern; a widened guard must shorten issued timers.
        let c = resilient_cfg();
        let run = |c: PowerConfig| {
            let mut rt = RankRuntime::new(0, c);
            feed_alya(&mut rt, 8, 300);
            rt.intercept(Sendrecv, us(40)); // widen the guard
            directives(&feed_alya(&mut rt, 8, 300))
        };
        let guarded = run(c);
        let plain = run(cfg());

        // Compare the last directive of each (issued post-widening with
        // the same predicted idle).
        let g = guarded.last().expect("guarded directives");
        let p = plain.last().expect("plain directives");
        assert!(
            g.timer < p.timer,
            "guarded timer {} not shorter than plain {}",
            g.timer,
            p.timer
        );
    }

    #[test]
    fn budget_guard_suppresses_directives() {
        // A tiny budget: the ~1 µs/call interception overhead over 300 µs
        // gaps is ~0.33%, so a 0.01% budget is immediately exhausted.
        let c = cfg().with_resilience(crate::config::ResilienceConfig::with_budget(0.0001));
        let mut rt = RankRuntime::new(0, c);
        let out = feed_alya(&mut rt, 40, 300);
        let stats = rt.finish(SimDuration::ZERO);
        assert_eq!(stats.lane_off_count, 0, "budget must block sleeps");
        assert!(directives(&out).is_empty());
        assert!(stats.suppressed_directives > 0);
        // Added time stays bounded: no stalls were ever risked.
        assert_eq!(stats.total_penalty, SimDuration::ZERO);
    }

    /// The Alya stream as a flat event list, for splitting tests.
    fn alya_events(iters: usize, long_gap: u64) -> Vec<(MpiCall, SimDuration)> {
        let mut v = Vec::new();
        for it in 0..iters {
            let lead = if it == 0 { us(0) } else { us(long_gap) };
            v.push((Sendrecv, lead));
            v.push((Sendrecv, us(2)));
            v.push((Sendrecv, us(3)));
            v.push((Allreduce, us(long_gap)));
            v.push((Allreduce, us(long_gap)));
        }
        v
    }

    /// Stream `events` with a snapshot/restore break after `split`
    /// events; outputs (pre-break ++ post-break) must equal an unbroken
    /// run exactly.
    fn assert_split_parity(c: PowerConfig, events: &[(MpiCall, SimDuration)], split: usize) {
        let feed = |rt: &mut RankRuntime, events: &[(MpiCall, SimDuration)]| {
            let out: Vec<EventOutcome> = events
                .iter()
                .map(|&(call, gap)| rt.intercept(call, gap))
                .collect();
            out
        };
        let mut whole = RankRuntime::new(0, c.clone());
        let whole_out = feed(&mut whole, events);
        let whole_issued = whole.issued();
        let whole_stats = whole.finish(us(5));

        let mut first = RankRuntime::new(0, c);
        let mut out = feed(&mut first, &events[..split]);
        let snap = first.snapshot();
        // Round-trip through the JSON wire form, as ibp-serve does.
        let snap = RuntimeSnapshot::from_json_bytes(&snap.to_json_bytes()).expect("wire form");
        let mut second = RankRuntime::from_snapshot(&snap).expect("restore");
        out.extend(feed(&mut second, &events[split..]));
        assert_eq!(second.issued(), whole_issued, "split at {split}");
        assert_eq!(second.finish(us(5)), whole_stats, "split at {split}");
        assert_eq!(out, whole_out, "split at {split}");
    }

    #[test]
    fn snapshot_restore_is_transparent_at_every_phase() {
        let events = alya_events(12, 300);
        // Splits inside learning, right at declaration, mid-prediction,
        // and inside a gram.
        for split in [1, 7, 20, 21, 33, 47, events.len() - 1] {
            assert_split_parity(cfg(), &events, split);
        }
    }

    #[test]
    fn snapshot_restore_preserves_resilience_state() {
        let mut events = alya_events(8, 300);
        events.push((Sendrecv, us(40))); // timing mispredict → guard band
        events.extend(alya_events(8, 300).into_iter().skip(1));
        for split in [38, 41, 44] {
            assert_split_parity(resilient_cfg(), &events, split);
        }
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let mut rt = RankRuntime::new(0, cfg());
        feed_alya(&mut rt, 8, 300);
        let good = rt.snapshot();

        let mut bad = good.clone();
        bad.version = 99;
        assert!(matches!(
            RankRuntime::from_snapshot(&bad),
            Err(SnapshotError::VersionMismatch { found: 99, .. })
        ));

        let mut bad = good.clone();
        bad.gram_ids.push(0);
        assert!(matches!(
            RankRuntime::from_snapshot(&bad),
            Err(SnapshotError::Inconsistent(_))
        ));

        let mut bad = good.clone();
        bad.gram_ids.push(10_000);
        bad.gram_idle.push(us(300));
        assert!(matches!(
            RankRuntime::from_snapshot(&bad),
            Err(SnapshotError::DanglingId {
                what: "gram",
                id: 10_000,
                ..
            })
        ));

        let mut bad = good.clone();
        bad.ppa.detected.push((9_999, 7));
        assert!(matches!(
            RankRuntime::from_snapshot(&bad),
            Err(SnapshotError::DanglingId {
                what: "pattern",
                ..
            })
        ));

        let mut bad = good.clone();
        if let ModeSnapshot::Predicting { slot, .. } = &mut bad.mode {
            *slot = 1_000;
            assert!(RankRuntime::from_snapshot(&bad).is_err());
        } else {
            panic!("runtime should be predicting after 8 iterations");
        }

        // The predicted pattern's shapes are rebuilt from its key: a
        // dangling pattern id and progress past the slot's rebuilt shape
        // are refused.
        let mut bad = good.clone();
        if let ModeSnapshot::Predicting { pattern, .. } = &mut bad.mode {
            *pattern = 9_999;
        }
        assert!(matches!(
            RankRuntime::from_snapshot(&bad),
            Err(SnapshotError::DanglingId {
                what: "pattern",
                id: 9_999,
                ..
            })
        ));
        let mut bad = good.clone();
        if let ModeSnapshot::Predicting { progress, .. } = &mut bad.mode {
            *progress = 1_000; // past the current slot's shape
        }
        assert!(matches!(
            RankRuntime::from_snapshot(&bad),
            Err(SnapshotError::Inconsistent(_))
        ));
        // An empty interned shape is refused in either mode: once a
        // pattern holding it re-arms, its first slot has no call to
        // predict.
        for mode in [good.mode.clone(), ModeSnapshot::Learning] {
            let mut bad = good.clone();
            bad.interner.shapes[0].clear();
            bad.mode = mode;
            assert!(matches!(
                RankRuntime::from_snapshot(&bad),
                Err(SnapshotError::Inconsistent(m)) if m.contains("empty shape at id 0")
            ));
        }

        // A pattern key shorter than a bi-gram (an empty one would
        // re-arm as a pattern with no slots).
        let mut bad = good.clone();
        bad.ppa.pattern_list.keys[0].clear();
        assert!(matches!(
            RankRuntime::from_snapshot(&bad),
            Err(SnapshotError::Inconsistent(m)) if m.contains("shorter than a bi-gram")
        ));

        // An entry retaining more positions than the config's window.
        let mut bad = good.clone();
        bad.cfg.occurrence_window = 1;
        assert!(matches!(
            RankRuntime::from_snapshot(&bad),
            Err(SnapshotError::Inconsistent(m)) if m.contains("window of 1")
        ));

        // A v2 snapshot (the `policy` enum and per-depth time fields)
        // fails on its version, through the one JSON decoder.
        let mut v2 = good.to_value();
        let serde::Value::Map(entries) = &mut v2 else {
            panic!("snapshot serializes as an object");
        };
        for (key, value) in entries.iter_mut() {
            match (key.as_str(), value) {
                ("version", value) => *value = serde::Value::U64(2),
                ("cfg", serde::Value::Map(cfg)) => {
                    cfg.retain(|(k, _)| k != "rungs");
                    cfg.push(("policy".into(), serde::Value::Str("WidthReduction".into())));
                }
                ("stats", serde::Value::Map(stats)) => {
                    stats.retain(|(k, _)| k != "sleep_time");
                    for old in ["low_power_time", "deep_time", "rate_time"] {
                        stats.push((old.into(), serde::Value::U64(0)));
                    }
                }
                _ => {}
            }
        }
        let bytes = serde_json::to_string(&v2).unwrap().into_bytes();
        assert_eq!(
            RuntimeSnapshot::from_json_bytes(&bytes),
            Err(SnapshotError::VersionMismatch {
                found: 2,
                expected: SNAPSHOT_VERSION
            })
        );

        // A v3 snapshot (no delivered-directive count or digest) fails
        // on its version too.
        let mut v3 = good.to_value();
        let serde::Value::Map(entries) = &mut v3 else {
            panic!("snapshot serializes as an object");
        };
        entries.retain(|(k, _)| k != "directives_total" && k != "directives_digest");
        for (key, value) in entries.iter_mut() {
            if key == "version" {
                *value = serde::Value::U64(3);
            }
        }
        let bytes = serde_json::to_string(&v3).unwrap().into_bytes();
        assert_eq!(
            RuntimeSnapshot::from_json_bytes(&bytes),
            Err(SnapshotError::VersionMismatch {
                found: 3,
                expected: SNAPSHOT_VERSION
            })
        );

        // A v4 snapshot (a `grams` array instead of the `gram_idle`
        // column) fails on its version too.
        let bytes = v4_snapshot_json(&good);
        assert_eq!(
            RuntimeSnapshot::from_json_bytes(&bytes),
            Err(SnapshotError::VersionMismatch {
                found: 4,
                expected: SNAPSHOT_VERSION
            })
        );

        // A v5 snapshot (occurrence windows with `capacity` and `total`,
        // stored `detected_lens`, `shapes` and `event_idx`) fails on its
        // version, decoded or not.
        let bytes = v5_snapshot_json(&good);
        assert_eq!(
            RuntimeSnapshot::from_json_bytes(&bytes),
            Err(SnapshotError::VersionMismatch {
                found: 5,
                expected: SNAPSHOT_VERSION
            })
        );
        let mut v5 = good.clone();
        v5.version = 5;
        assert_eq!(
            RankRuntime::from_snapshot(&v5).err(),
            Some(SnapshotError::VersionMismatch {
                found: 5,
                expected: 6
            })
        );

        // The untouched snapshot still restores.
        assert!(RankRuntime::from_snapshot(&good).is_ok());
    }

    /// `snap` in the v5 layout: the derived fields stored beside the
    /// learned ones.
    fn v5_snapshot_json(snap: &RuntimeSnapshot) -> Vec<u8> {
        use serde::Value;
        let mut v5 = snap.to_value();
        let Value::Map(entries) = &mut v5 else {
            panic!("snapshot serializes as an object");
        };
        for (key, value) in entries.iter_mut() {
            match (key.as_str(), value) {
                ("version", value) => *value = Value::U64(5),
                ("ppa", Value::Map(ppa)) => {
                    ppa.push(("min_consecutive".into(), Value::U64(3)));
                    ppa.push(("detected_lens".into(), Value::Seq(vec![Value::U64(3)])));
                    ppa.push(("last_elements".into(), Value::U64(0)));
                }
                _ => {}
            }
        }
        entries.push(("event_idx".into(), Value::U64(snap.stats.total_calls)));
        serde_json::to_string(&v5).unwrap().into_bytes()
    }

    /// `snap` in the v4 layout: a `grams` array of
    /// `{id, first_event, len, preceding_idle}` and no `gram_idle`.
    fn v4_snapshot_json(snap: &RuntimeSnapshot) -> Vec<u8> {
        let mut v4 = snap.to_value();
        let serde::Value::Map(entries) = &mut v4 else {
            panic!("snapshot serializes as an object");
        };
        entries.retain(|(k, _)| k != "gram_idle");
        for (key, value) in entries.iter_mut() {
            if key == "version" {
                *value = serde::Value::U64(4);
            }
        }
        let grams = snap
            .gram_ids
            .iter()
            .zip(&snap.gram_idle)
            .map(|(&id, idle)| {
                serde::Value::Map(vec![
                    ("id".into(), serde::Value::U64(id.into())),
                    ("first_event".into(), serde::Value::U64(0)),
                    ("len".into(), serde::Value::U64(1)),
                    ("preceding_idle".into(), idle.to_value()),
                ])
            })
            .collect();
        entries.push(("grams".into(), serde::Value::Seq(grams)));
        serde_json::to_string(&v4).unwrap().into_bytes()
    }

    #[test]
    fn restore_rejects_hostile_configs_and_guards() {
        // A snapshot's embedded config gets the same scrutiny an Open
        // does: out-of-range values must fail restore instead of
        // asserting later inside `SimDuration::mul_f64` when the
        // restored runtime plans a directive.
        let mut rt = RankRuntime::new(0, cfg());
        feed_alya(&mut rt, 8, 300);
        let good = rt.snapshot();

        for bad_disp in [-0.5, 1.0, 1.5, f64::NAN] {
            let mut bad = good.clone();
            bad.cfg.displacement = bad_disp;
            assert!(
                matches!(
                    RankRuntime::from_snapshot(&bad),
                    Err(SnapshotError::Inconsistent(_))
                ),
                "displacement {bad_disp} restored"
            );
        }

        let mut bad = good.clone();
        bad.cfg.grouping_threshold = SimDuration::from_ns(1);
        assert!(RankRuntime::from_snapshot(&bad).is_err());

        let mut bad = good.clone();
        bad.cfg.resilience = crate::ResilienceConfig {
            guard_step: f64::NAN,
            ..crate::ResilienceConfig::standard()
        };
        assert!(RankRuntime::from_snapshot(&bad).is_err());

        for bits in [0b110, 0b1001] {
            let mut bad = good.clone();
            bad.cfg.rungs = crate::SleepRungs::from_value(&serde::Value::U64(bits)).unwrap();
            assert!(
                matches!(
                    RankRuntime::from_snapshot(&bad),
                    Err(SnapshotError::Inconsistent(_))
                ),
                "rung set {bits:#b} restored"
            );
        }

        for bad_guard in [-0.1, f64::NAN, f64::INFINITY] {
            let mut bad = good.clone();
            bad.resilience.guard = bad_guard;
            assert!(
                matches!(
                    RankRuntime::from_snapshot(&bad),
                    Err(SnapshotError::Inconsistent(_))
                ),
                "guard {bad_guard} restored"
            );
        }
    }

    #[test]
    fn directive_after_event_points_at_gram_last_call() {
        let mut rt = RankRuntime::new(0, cfg());
        let out = feed_alya(&mut rt, 10, 300);
        // Every directive is anchored to the event that issued it.
        for (i, o) in out.iter().enumerate() {
            if let Some(d) = o.directive {
                assert_eq!(d.after_event, i);
            }
        }
        assert!(!directives(&out).is_empty());
    }
}
