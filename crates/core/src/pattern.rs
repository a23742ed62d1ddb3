//! The pattern list — the hash table of observed gram patterns.
//!
//! The paper stores pattern objects in a `uthash` table keyed by the
//! pattern string; we intern each gram-id sequence once (the way gram
//! shapes already are) and address entries by a dense [`PatternId`].
//! The hot path — `update` / `get` / the `checkO` occurrence scan —
//! therefore never allocates and never SipHashes: lookups borrow the
//! gram-array slice directly and hash it with the vendored FxHash.
//!
//! Each entry remembers where the pattern was observed (a bounded
//! recency window, so the scan stays O(window) on arbitrarily long
//! traces), whether it was ever *declared* predictable (the `detected`
//! flag that enables the fast re-arm after a misprediction), and the
//! running mean of the idle gap preceding each slot of the pattern
//! (what the power controller uses to program the lane-off timer).

use fxhash::FxHashMap;
use ibp_simcore::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::gram::GramId;
use crate::snapshot::{PatternEntrySnapshot, PatternListSnapshot, SnapshotError};

/// A pattern key: the sequence of gram shape-ids.
pub type PatternKey = Box<[GramId]>;

/// Dense identifier of an interned pattern key (stable across removal
/// and re-insertion of the entry).
pub type PatternId = u32;

/// Default bound on the per-pattern occurrence window. The paper keeps
/// every occurrence (its traces are short); 64 retains far more history
/// than `checkO` ever needs — a growth step only looks for *one*
/// previous non-overlapping occurrence of the prefix, and prefixes of a
/// live pattern recur every period — while keeping the scan O(1) in the
/// trace length.
pub const DEFAULT_OCCURRENCE_WINDOW: usize = 64;

/// Running mean over `u64` nanosecond durations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningMean {
    n: u64,
    mean_ns: f64,
}

impl RunningMean {
    /// Create an empty mean.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an observation.
    #[inline]
    pub fn push(&mut self, d: SimDuration) {
        self.n += 1;
        self.mean_ns += (d.as_ns() as f64 - self.mean_ns) / self.n as f64;
    }

    /// Current mean (zero when empty).
    #[inline]
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_ns(self.mean_ns.round() as u64)
    }

    /// Number of observations.
    #[inline]
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }
}

/// Bounded recency window over gram positions: the newest recorded
/// positions, oldest first, at most the owning [`PatternList`]'s window
/// of them, so `checkO` walks at most that many entries.
#[derive(Debug, Clone, Default)]
pub struct OccurrenceWindow {
    positions: VecDeque<usize>,
}

impl OccurrenceWindow {
    /// Record `pos`, evicting the oldest retained position once `window`
    /// (≥ 1) are held. A position equal to the most recent one is
    /// ignored (rescans after a relaunch may revisit positions).
    #[inline]
    pub fn record(&mut self, pos: usize, window: usize) {
        if self.last() == Some(pos) {
            return;
        }
        if self.positions.len() >= window {
            self.positions.pop_front();
        }
        self.positions.push_back(pos);
    }

    /// Most recently recorded position.
    #[inline]
    #[must_use]
    pub fn last(&self) -> Option<usize> {
        self.positions.back().copied()
    }

    /// Retained positions, oldest first. Allocation-free.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.positions.iter().copied()
    }

    /// Retained positions as a vector, oldest first (test/debug helper).
    #[must_use]
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

/// One pattern object: what the PPA and the controller read of the
/// paper's `pattern` struct (positions and inter-gram times; the
/// sequence is the interned key). The paper's frequency and MPI-call
/// count drive no decision and are not kept.
#[derive(Debug, Clone)]
pub struct PatternEntry {
    /// Recent gram positions at which the scanner observed this pattern.
    pub occurrences: OccurrenceWindow,
    /// Set when the pattern was declared predictable; enables immediate
    /// re-arm on the first later re-appearance.
    pub detected: bool,
    /// Running mean of the idle gap preceding each pattern slot
    /// (`slot_gaps[j]` = gap before the j-th gram of the pattern).
    /// Populated at declaration and refined while predicting.
    pub slot_gaps: Vec<RunningMean>,
}

impl PatternEntry {
    fn new(first_pos: usize, window: usize) -> Self {
        let mut occurrences = OccurrenceWindow::default();
        occurrences.record(first_pos, window);
        PatternEntry {
            occurrences,
            detected: false,
            slot_gaps: Vec::new(),
        }
    }
}

/// Interner mapping gram-id sequences to dense [`PatternId`]s. Each key
/// is stored once (an `Arc<[GramId]>` shared between the map and the
/// id-indexed table); lookups borrow the caller's slice, so the hit
/// path neither allocates nor copies.
#[derive(Debug, Default)]
pub struct PatternInterner {
    ids: FxHashMap<Arc<[GramId]>, PatternId>,
    keys: Vec<Arc<[GramId]>>,
}

impl PatternInterner {
    /// Intern `key`, returning its stable id.
    pub fn intern(&mut self, key: &[GramId]) -> PatternId {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = self.keys.len() as PatternId;
        let shared: Arc<[GramId]> = key.into();
        self.keys.push(Arc::clone(&shared));
        self.ids.insert(shared, id);
        id
    }

    /// Id of an already-interned key (allocation-free).
    #[inline]
    #[must_use]
    pub fn get(&self, key: &[GramId]) -> Option<PatternId> {
        self.ids.get(key).copied()
    }

    /// The key behind an id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    #[inline]
    #[must_use]
    pub fn key(&self, id: PatternId) -> &[GramId] {
        &self.keys[id as usize]
    }

    /// Number of distinct keys interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Outcome of [`PatternList::update`], so the scanner learns everything
/// it needs from the single hash lookup the call performs.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct PatternUpdate {
    /// Dense id of the pattern (stable across remove/re-insert).
    pub id: PatternId,
    /// `true` if this was the pattern's first occurrence (or the first
    /// after a removal).
    pub is_new: bool,
    /// The entry's `detected` flag (always `false` when `is_new`).
    pub detected: bool,
}

/// The pattern list: interned keys + id-indexed entries.
///
/// Removal (Algorithm 2 line 38) tombstones the entry but keeps the key
/// interned; a later `update` of the same key revives the slot with a
/// fresh entry under the *same* id, matching the paper's
/// delete-then-reinsert `uthash` behaviour.
#[derive(Debug)]
pub struct PatternList {
    interner: PatternInterner,
    entries: Vec<Option<PatternEntry>>,
    /// Occurrence positions each entry retains (≥ 1).
    window: usize,
}

impl Default for PatternList {
    fn default() -> Self {
        Self::new()
    }
}

impl PatternList {
    /// Create an empty list with the default occurrence window.
    #[must_use]
    pub fn new() -> Self {
        Self::with_window(DEFAULT_OCCURRENCE_WINDOW)
    }

    /// Create an empty list whose entries retain at most `window`
    /// occurrence positions each.
    #[must_use]
    pub fn with_window(window: usize) -> Self {
        PatternList {
            interner: PatternInterner::default(),
            entries: Vec::new(),
            window: window.max(1),
        }
    }

    /// Record an occurrence of `key` at gram position `pos` (the paper's
    /// `updatePL`), hashing the key exactly once. Returns the entry's id
    /// and state so hot-path callers need no follow-up lookup.
    pub fn update(&mut self, key: &[GramId], pos: usize) -> PatternUpdate {
        match self.interner.get(key) {
            Some(id) => self.record(id, pos),
            None => {
                let id = self.interner.intern(key);
                debug_assert_eq!(id as usize, self.entries.len());
                self.entries.push(Some(PatternEntry::new(pos, self.window)));
                PatternUpdate {
                    id,
                    is_new: true,
                    detected: false,
                }
            }
        }
    }

    /// Record an occurrence by id (no hashing at all). Revives a
    /// tombstoned entry with a fresh one, exactly as `update` would.
    pub fn record(&mut self, id: PatternId, pos: usize) -> PatternUpdate {
        let slot = &mut self.entries[id as usize];
        match slot {
            Some(entry) => {
                entry.occurrences.record(pos, self.window);
                PatternUpdate {
                    id,
                    is_new: false,
                    detected: entry.detected,
                }
            }
            None => {
                *slot = Some(PatternEntry::new(pos, self.window));
                PatternUpdate {
                    id,
                    is_new: true,
                    detected: false,
                }
            }
        }
    }

    /// Id of `key` if it was ever inserted (live or tombstoned).
    /// Allocation-free; the scanner's suffix probes use this.
    #[inline]
    #[must_use]
    pub fn id_of(&self, key: &[GramId]) -> Option<PatternId> {
        self.interner.get(key)
    }

    /// The key behind an id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this list.
    #[inline]
    #[must_use]
    pub fn key(&self, id: PatternId) -> &[GramId] {
        self.interner.key(id)
    }

    /// Look up a live entry by id.
    #[inline]
    #[must_use]
    pub fn entry(&self, id: PatternId) -> Option<&PatternEntry> {
        self.entries.get(id as usize)?.as_ref()
    }

    /// Look up a live entry by id, mutably.
    #[inline]
    #[must_use]
    pub fn entry_mut(&mut self, id: PatternId) -> Option<&mut PatternEntry> {
        self.entries.get_mut(id as usize)?.as_mut()
    }

    /// Look up a pattern (allocation-free).
    #[inline]
    #[must_use]
    pub fn get(&self, key: &[GramId]) -> Option<&PatternEntry> {
        self.entry(self.id_of(key)?)
    }

    /// Look up a pattern mutably (allocation-free).
    #[inline]
    #[must_use]
    pub fn get_mut(&mut self, key: &[GramId]) -> Option<&mut PatternEntry> {
        let id = self.id_of(key)?;
        self.entry_mut(id)
    }

    /// Remove a pattern (Algorithm 2 line 38: a grown n-gram whose
    /// construction check failed is discarded). The key stays interned;
    /// only the entry dies.
    pub fn remove(&mut self, key: &[GramId]) -> Option<PatternEntry> {
        let id = self.id_of(key)?;
        self.entries[id as usize].take()
    }

    /// Snapshot the whole list: keys in id order, entries id-indexed.
    pub(crate) fn snapshot(&self) -> PatternListSnapshot {
        PatternListSnapshot {
            keys: self.interner.keys.iter().map(|k| k.to_vec()).collect(),
            entries: self
                .entries
                .iter()
                .map(|slot| {
                    slot.as_ref().map(|e| PatternEntrySnapshot {
                        occurrences: e.occurrences.to_vec(),
                        detected: e.detected,
                        slot_gaps: e.slot_gaps.clone(),
                    })
                })
                .collect(),
        }
    }

    /// Rebuild a list whose entries retain at most `window` positions
    /// (the config's `occurrence_window`) from a snapshot, revalidating
    /// interner/entry alignment. Keys interned in order reproduce the
    /// original ids.
    pub(crate) fn from_snapshot(
        snap: &PatternListSnapshot,
        window: usize,
    ) -> Result<Self, SnapshotError> {
        if snap.entries.len() != snap.keys.len() {
            return Err(SnapshotError::Inconsistent(format!(
                "pattern list snapshot has {} entries for {} keys",
                snap.entries.len(),
                snap.keys.len()
            )));
        }
        if let Some(key) = snap.keys.iter().find(|k| k.len() < 2) {
            return Err(SnapshotError::Inconsistent(format!(
                "pattern key {key:?} is shorter than a bi-gram"
            )));
        }
        let mut list = PatternList::with_window(window);
        for key in &snap.keys {
            let _ = list.interner.intern(key);
        }
        if list.interner.len() != snap.keys.len() {
            return Err(SnapshotError::Inconsistent(format!(
                "pattern list snapshot holds duplicate keys: {} distinct of {}",
                list.interner.len(),
                snap.keys.len()
            )));
        }
        for slot in &snap.entries {
            list.entries.push(match slot {
                None => None,
                Some(e) => {
                    if e.occurrences.len() > list.window {
                        return Err(SnapshotError::Inconsistent(format!(
                            "occurrence window holds {} positions over the window of {}",
                            e.occurrences.len(),
                            list.window
                        )));
                    }
                    Some(PatternEntry {
                        occurrences: OccurrenceWindow {
                            positions: e.occurrences.iter().copied().collect(),
                        },
                        detected: e.detected,
                        slot_gaps: e.slot_gaps.clone(),
                    })
                }
            });
        }
        Ok(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_basic() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), SimDuration::ZERO);
        m.push(SimDuration::from_us(100));
        m.push(SimDuration::from_us(200));
        assert_eq!(m.mean(), SimDuration::from_us(150));
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn update_reports_novelty() {
        let mut pl = PatternList::new();
        assert!(pl.update(&[1, 2], 0).is_new, "first occurrence is new");
        assert!(!pl.update(&[1, 2], 3).is_new, "second occurrence is not");
        assert_eq!(pl.get(&[1, 2]).unwrap().occurrences.to_vec(), vec![0, 3]);
    }

    #[test]
    fn duplicate_position_ignored() {
        let mut pl = PatternList::new();
        let _ = pl.update(&[1, 2], 5);
        let _ = pl.update(&[1, 2], 5);
        assert_eq!(pl.get(&[1, 2]).unwrap().occurrences.to_vec(), vec![5]);
    }

    #[test]
    fn remove_discards_entry() {
        let mut pl = PatternList::new();
        let _ = pl.update(&[1, 2, 3], 0);
        assert!(pl.remove(&[1, 2, 3]).is_some());
        assert!(pl.get(&[1, 2, 3]).is_none());
        assert!(pl.remove(&[1, 2, 3]).is_none(), "double remove is a no-op");
    }

    #[test]
    fn removed_key_keeps_id_and_revives_fresh() {
        let mut pl = PatternList::new();
        let first = pl.update(&[7, 8], 2);
        pl.get_mut(&[7, 8]).unwrap().detected = true;
        pl.remove(&[7, 8]);
        // The id survives the tombstone (the suffix index relies on it)…
        assert_eq!(pl.id_of(&[7, 8]), Some(first.id));
        assert!(pl.entry(first.id).is_none());
        // …and re-inserting revives a fresh entry under the same id.
        let again = pl.update(&[7, 8], 9);
        assert_eq!(again.id, first.id);
        assert!(again.is_new);
        assert!(!again.detected, "revived entry starts undetected");
        assert_eq!(pl.get(&[7, 8]).unwrap().occurrences.to_vec(), vec![9]);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let mut pl = PatternList::new();
        let _ = pl.update(&[1, 2], 0);
        let _ = pl.update(&[2, 1], 1);
        assert_eq!(pl.get(&[1, 2]).unwrap().occurrences.to_vec(), vec![0]);
        assert_eq!(pl.get(&[2, 1]).unwrap().occurrences.to_vec(), vec![1]);
    }

    #[test]
    fn update_detected_reflects_entry_state() {
        let mut pl = PatternList::new();
        assert!(!pl.update(&[4, 5], 0).detected);
        pl.get_mut(&[4, 5]).unwrap().detected = true;
        let up = pl.update(&[4, 5], 6);
        assert!(up.detected && !up.is_new);
    }

    #[test]
    fn occurrence_window_bounds_retention() {
        let mut w = OccurrenceWindow::default();
        for pos in 0..10 {
            w.record(pos * 3, 4);
        }
        // Newest four positions retained, oldest first.
        assert_eq!(w.to_vec(), vec![18, 21, 24, 27]);
        assert_eq!(w.last(), Some(27));
        // Consecutive duplicate ignored on a full window.
        w.record(27, 4);
        assert_eq!(w.to_vec(), vec![18, 21, 24, 27]);
    }

    #[test]
    fn pattern_list_honours_window_bound() {
        let mut pl = PatternList::with_window(2);
        for pos in [0, 5, 10, 15] {
            let _ = pl.update(&[1, 2], pos);
        }
        let e = pl.get(&[1, 2]).unwrap();
        assert_eq!(e.occurrences.to_vec(), vec![10, 15]);
    }

    #[test]
    fn interner_shares_one_allocation_per_key() {
        let mut pi = PatternInterner::default();
        let id = pi.intern(&[1, 2, 3]);
        assert_eq!(pi.intern(&[1, 2, 3]), id, "re-intern is a lookup");
        assert_eq!(pi.len(), 1);
        // Map key and table slot share the same Arc allocation: exactly
        // two strong references, not two copies of the data.
        assert_eq!(Arc::strong_count(&pi.keys[id as usize]), 2);
    }
}
