//! The Pattern Prediction Algorithm (PPA) — Algorithm 2 of the paper.
//!
//! The PPA scans the (growing) array of grams produced by gram formation
//! and looks for *continuously repeating* patterns. Its observable policy,
//! validated against the paper's Fig. 3 walk-through:
//!
//! 1. Bi-grams (pairs of grams) are read left to right and inserted into
//!    the pattern list.
//! 2. When a bi-gram re-appears, the scanner locks onto that position and
//!    tries to *grow* the pattern one gram at a time. A growth step is
//!    accepted only if the grown pattern can also be constructed at a
//!    previous occurrence of its prefix (`checkO`); otherwise the grown
//!    candidate is discarded and scanning resumes with bi-grams.
//! 3. After a candidate stops growing, consecutive repetitions are
//!    counted. Once the pattern has appeared at `min_consecutive`
//!    consecutive positions (3 in the paper), it is **declared**: the
//!    `detected` flag is set, `maxPatternSize` is frozen to the declared
//!    length (pinning the application's natural iteration), and
//!    prediction begins at the next position.
//! 4. A pattern that was declared once re-arms on its *first*
//!    re-appearance after a misprediction — no need for three consecutive
//!    sightings again.
//!
//! ## Hot-path shape
//!
//! `advance` runs inside the PMPI interception path, so it is written to
//! do O(1) work per newly closed gram without heap allocation: pattern
//! keys are probed as borrowed gram-array slices against the FxHash
//! interner (no `Box` per lookup), the re-arm check probes one
//! array-suffix per *distinct detected pattern length* instead of
//! linearly scanning every detected key, and `checkO` walks a bounded
//! occurrence window rather than the full occurrence history.
//!
//! For the Fig. 2 Alya stream (grams `A B B A B B …`, `A = 41-41-41`,
//! `B = 10`) this declares `A,B,B` with occurrences {3, 6, 9} and starts
//! predicting from gram position 12, exactly as printed in Fig. 3.

use crate::gram::GramId;
use crate::pattern::{PatternId, PatternList, RunningMean, DEFAULT_OCCURRENCE_WINDOW};
use crate::snapshot::{PhaseSnapshot, PpaSnapshot, SnapshotError};
use fxhash::FxHashMap;

/// The outcome of a PPA declaration: prediction may start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Declaration {
    /// The declared pattern (gram shape-id sequence).
    pub pattern: Box<[GramId]>,
    /// Gram position from which occurrences are predicted (the position
    /// immediately after the last observed occurrence).
    pub predict_from: usize,
    /// True when this declaration re-armed a previously detected pattern
    /// (single sighting) rather than completing a fresh 3-repeat proof.
    pub rearmed: bool,
}

/// Scanner phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Sliding over bi-grams looking for a repeat.
    Seek,
    /// Locked on a candidate at `pos`; growing it and counting
    /// consecutive repeats.
    Track {
        /// Number of consecutive repeats observed so far.
        consecutive: u32,
    },
}

/// The PPA state machine for one MPI process.
#[derive(Debug)]
pub struct Ppa {
    pl: PatternList,
    pos: usize,
    pattern_size: usize,
    phase: Phase,
    min_consecutive: u32,
    max_pattern_size: usize,
    /// Set once a pattern has been declared; freezes `max_pattern_size`.
    frozen: bool,
    /// Declaration order of every pattern ever declared, keyed by its
    /// interned id. After a misprediction these re-arm on a *single*
    /// re-appearance; ties between matching suffixes go to the most
    /// recently first-declared pattern (the old list's `rposition`).
    detected_order: FxHashMap<PatternId, u32>,
    /// Distinct lengths among detected patterns — the re-arm check probes
    /// one gram-array suffix per length (length-bucketed suffix index)
    /// instead of scanning every detected key. Their order does not
    /// matter: among matches the highest declaration order wins.
    detected_lens: Vec<usize>,
    next_detected_order: u32,
    /// First gram position that counts as "fresh" for the re-arm check:
    /// a re-appearance must consist entirely of grams observed after the
    /// last declaration or relaunch.
    min_fresh: usize,
    /// Gram elements examined (comparisons, hash-key constructions) by
    /// the most recent `advance` call: the runtime charges its overhead
    /// from this (Table IV's cost model).
    last_elements: u64,
}

impl Ppa {
    /// Create a scanner with the given declaration policy and the default
    /// occurrence-window bound.
    #[must_use]
    pub fn new(min_consecutive: u32, max_pattern_size: usize) -> Self {
        Self::with_window(min_consecutive, max_pattern_size, DEFAULT_OCCURRENCE_WINDOW)
    }

    /// Create a scanner whose pattern entries retain at most `window`
    /// occurrence positions (bounds `checkO` to O(window)).
    #[must_use]
    pub fn with_window(min_consecutive: u32, max_pattern_size: usize, window: usize) -> Self {
        assert!(min_consecutive >= 2, "need at least 2 consecutive repeats");
        assert!(max_pattern_size >= 2, "patterns are at least bi-grams");
        Ppa {
            pl: PatternList::with_window(window),
            pos: 0,
            pattern_size: 2,
            phase: Phase::Seek,
            min_consecutive,
            max_pattern_size,
            frozen: false,
            detected_order: FxHashMap::default(),
            detected_lens: Vec::new(),
            next_detected_order: 0,
            min_fresh: 0,
            last_elements: 0,
        }
    }

    /// The pattern list (exposed for statistics and for the runtime to
    /// seed/refresh slot-gap means).
    #[must_use]
    pub fn pattern_list(&self) -> &PatternList {
        &self.pl
    }

    /// Mutable access to the pattern list (the runtime updates slot-gap
    /// means while predicting).
    pub fn pattern_list_mut(&mut self) -> &mut PatternList {
        &mut self.pl
    }

    /// Gram elements examined by the most recent `advance` call (zero
    /// when it made no progress).
    #[must_use]
    pub fn last_elements(&self) -> u64 {
        self.last_elements
    }

    /// Snapshot the scanner state. The detected-order map is flattened
    /// to a vector sorted by pattern id so the serialized form is
    /// deterministic.
    pub(crate) fn snapshot(&self) -> PpaSnapshot {
        let mut detected: Vec<(PatternId, u32)> =
            self.detected_order.iter().map(|(&k, &v)| (k, v)).collect();
        detected.sort_unstable();
        PpaSnapshot {
            pattern_list: self.pl.snapshot(),
            pos: self.pos,
            pattern_size: self.pattern_size,
            phase: match self.phase {
                Phase::Seek => PhaseSnapshot::Seek,
                Phase::Track { consecutive } => PhaseSnapshot::Track { consecutive },
            },
            max_pattern_size: self.max_pattern_size,
            frozen: self.frozen,
            detected,
            next_detected_order: self.next_detected_order,
            min_fresh: self.min_fresh,
        }
    }

    /// Rebuild a scanner with the config's declaration threshold and
    /// occurrence window from a snapshot, revalidating the declaration
    /// policy and every pattern id the detected index references. The
    /// detected lengths are rebuilt from the detected keys.
    pub(crate) fn from_snapshot(
        snap: &PpaSnapshot,
        min_consecutive: u32,
        window: usize,
    ) -> Result<Self, SnapshotError> {
        if min_consecutive < 2 || snap.max_pattern_size < 2 || snap.pattern_size < 2 {
            return Err(SnapshotError::Inconsistent(format!(
                "PPA policy out of range: min_consecutive {min_consecutive}, max_pattern_size {}, pattern_size {}",
                snap.max_pattern_size, snap.pattern_size
            )));
        }
        let pl = PatternList::from_snapshot(&snap.pattern_list, window)?;
        let nkeys = snap.pattern_list.keys.len();
        let mut detected_order = FxHashMap::default();
        let mut detected_lens = Vec::new();
        for &(id, ord) in &snap.detected {
            if id as usize >= nkeys {
                return Err(SnapshotError::DanglingId {
                    what: "pattern",
                    id: u64::from(id),
                    len: nkeys,
                });
            }
            if detected_order.insert(id, ord).is_some() {
                return Err(SnapshotError::Inconsistent(format!(
                    "pattern id {id} listed twice in detected index"
                )));
            }
            detected_lens.push(pl.key(id).len());
        }
        detected_lens.sort_unstable();
        detected_lens.dedup();
        Ok(Ppa {
            pl,
            pos: snap.pos,
            pattern_size: snap.pattern_size,
            phase: match snap.phase {
                PhaseSnapshot::Seek => Phase::Seek,
                PhaseSnapshot::Track { consecutive } => Phase::Track { consecutive },
            },
            min_consecutive,
            max_pattern_size: snap.max_pattern_size,
            frozen: snap.frozen,
            detected_order,
            detected_lens,
            next_detected_order: snap.next_detected_order,
            min_fresh: snap.min_fresh,
            last_elements: 0,
        })
    }

    /// Restart scanning from gram position `from` after a misprediction.
    /// The pattern list (with its `detected` flags) is retained, so a
    /// re-appearing pattern re-arms on first sighting.
    pub fn relaunch(&mut self, from: usize) {
        self.pos = self.pos.max(from);
        self.min_fresh = self.min_fresh.max(from);
        self.pattern_size = 2;
        self.phase = Phase::Seek;
    }

    /// Advance the scan over the gram array (shape ids). Call after each
    /// newly closed gram. Returns a [`Declaration`] when a pattern becomes
    /// predictable.
    pub fn advance(&mut self, grams: &[GramId]) -> Option<Declaration> {
        self.last_elements = 0;
        // Fast re-arm: a previously declared pattern re-appears once. The
        // paper: "if the pattern is mispredicted and in near future the
        // same pattern appears again we don't wait for three consecutive
        // appearances but declare on the first new appearance". Checked
        // against the newly-closed suffix of the gram array so rotated
        // re-alignments cannot hide the pattern from the scanner.
        self.check_rearm(grams).or_else(|| self.scan(grams))
    }

    fn check_rearm(&mut self, grams: &[GramId]) -> Option<Declaration> {
        if self.detected_order.is_empty() {
            return None;
        }
        // The suffix must be entirely fresh material (observed after the
        // last declaration or relaunch). One interner probe per distinct
        // detected length; among matches the latest-declared wins,
        // preserving the old linear list's newest-last `rposition`.
        let n = grams.len();
        let min_fresh = self.min_fresh;
        let mut best: Option<(u32, PatternId, usize)> = None;
        for &len in &self.detected_lens {
            if n >= len && n - len >= min_fresh {
                if let Some(id) = self.pl.id_of(&grams[n - len..]) {
                    if let Some(&ord) = self.detected_order.get(&id) {
                        if best.is_none_or(|(b, _, _)| ord > b) {
                            best = Some((ord, id, len));
                        }
                    }
                }
            }
        }
        let (_, id, len) = best?;
        self.last_elements += len as u64;
        let pattern: Box<[GramId]> = self.pl.key(id).into();
        let predict_from = n;
        let _ = self.pl.record(id, predict_from - len);
        self.after_declaration(predict_from);
        Some(Declaration {
            pattern,
            predict_from,
            rearmed: true,
        })
    }

    fn scan(&mut self, grams: &[GramId]) -> Option<Declaration> {
        loop {
            match self.phase {
                Phase::Seek => {
                    // Need the bi-gram at `pos`.
                    if self.pos + 2 > grams.len() {
                        return None;
                    }
                    self.last_elements += 2;
                    let key = &grams[self.pos..self.pos + 2];
                    let up = self.pl.update(key, self.pos);
                    if up.detected {
                        // Fast re-arm: a previously declared (bi-gram)
                        // pattern re-appeared once.
                        let pattern: Box<[GramId]> = key.into();
                        let predict_from = self.pos + 2;
                        self.after_declaration(predict_from);
                        return Some(Declaration {
                            pattern,
                            predict_from,
                            rearmed: true,
                        });
                    }
                    if !up.is_new {
                        // Bi-gram match detected: lock on and try to grow.
                        self.pattern_size = 2;
                        self.phase = Phase::Track { consecutive: 0 };
                    } else {
                        self.pos += 1;
                    }
                }
                Phase::Track { consecutive } => {
                    let size = self.pattern_size;
                    // Need the window at pos and the candidate repeat
                    // window right after it.
                    if self.pos + 2 * size > grams.len() {
                        return None;
                    }
                    self.last_elements += 2 * size as u64;
                    let (cur, rest) = grams[self.pos..].split_at(size);
                    if &rest[..size] == cur {
                        // Consecutive repeat found.
                        let repeats = consecutive + 1;
                        let repeat_pos = self.pos + size;
                        let up = self.pl.update(cur, repeat_pos);
                        self.pos = repeat_pos;
                        let detected = up.detected;
                        if repeats + 1 >= self.min_consecutive || detected {
                            // Declared: `min_consecutive` consecutive
                            // occurrences observed (start + repeats), or a
                            // previously detected pattern re-armed.
                            let pattern: Box<[GramId]> = cur.into();
                            let predict_from = self.pos + size;
                            self.pl.entry_mut(up.id).expect("pattern present").detected = true;
                            self.register_detected(up.id, size);
                            if !self.frozen {
                                self.max_pattern_size = size;
                                self.frozen = true;
                            }
                            self.after_declaration(predict_from);
                            return Some(Declaration {
                                pattern,
                                predict_from,
                                rearmed: detected,
                            });
                        }
                        self.phase = Phase::Track {
                            consecutive: repeats,
                        };
                    } else if consecutive > 0 {
                        // The run of repeats ended before reaching the
                        // threshold; resume seeking after the run.
                        self.pattern_size = 2;
                        self.pos += 1;
                        self.phase = Phase::Seek;
                    } else {
                        // No immediate repeat: try to grow the pattern.
                        if size < self.max_pattern_size && self.try_grow(grams) {
                            // Grown (checkO succeeded). If the grown
                            // pattern was previously declared, re-arm now.
                            let grown = &grams[self.pos..self.pos + self.pattern_size];
                            if self.pl.get(grown).is_some_and(|e| e.detected) {
                                let pattern: Box<[GramId]> = grown.into();
                                let predict_from = self.pos + self.pattern_size;
                                self.after_declaration(predict_from);
                                return Some(Declaration {
                                    pattern,
                                    predict_from,
                                    rearmed: true,
                                });
                            }
                            self.phase = Phase::Track { consecutive: 0 };
                        } else {
                            // Growth impossible or rejected: discard and
                            // resume bi-gram seeking one position on.
                            self.pattern_size = 2;
                            self.pos += 1;
                            self.phase = Phase::Seek;
                        }
                    }
                }
            }
        }
    }

    /// Enter `id` into the detected suffix index (first declaration only:
    /// re-declarations keep their original order, as the old newest-last
    /// key list did).
    fn register_detected(&mut self, id: PatternId, len: usize) {
        if let std::collections::hash_map::Entry::Vacant(v) = self.detected_order.entry(id) {
            v.insert(self.next_detected_order);
            self.next_detected_order += 1;
            if !self.detected_lens.contains(&len) {
                self.detected_lens.push(len);
            }
        }
    }

    /// Attempt to grow the candidate at `pos` from `pattern_size` to
    /// `pattern_size + 1` grams. Implements the paper's `appendGram` +
    /// `checkO`: the grown pattern is kept only if it can also be
    /// constructed at a previous occurrence of its prefix. Returns whether
    /// growth succeeded (and bumps `pattern_size` if so).
    fn try_grow(&mut self, grams: &[GramId]) -> bool {
        let size = self.pattern_size;
        if self.pos + size + 1 > grams.len() {
            return false;
        }
        let prefix = &grams[self.pos..self.pos + size];
        let grown = &grams[self.pos..self.pos + size + 1];
        self.last_elements += (size + 1) as u64;

        // checkO: find a previous, non-overlapping occurrence of the
        // prefix that extends to the same grown pattern. The occurrence
        // window bounds this scan to O(window).
        let constructible = self.pl.get(prefix).is_some_and(|entry| {
            entry.occurrences.iter().any(|q| {
                q + size <= self.pos && q + size < grams.len() && grams[q..q + size + 1] == *grown
            })
        });

        if constructible {
            // Frequency transfer: the grown pattern absorbs the occurrence;
            // (the paper increments the (n+1)-gram and decrements the
            // n-gram — we record the grown occurrence at `pos`).
            let _ = self.pl.update(grown, self.pos);
            self.pattern_size = size + 1;
            true
        } else {
            // Algorithm 2 line 38: discard the failed candidate. This
            // tombstones a live entry when an earlier growth at another
            // position inserted the same grown key and checkO accepted
            // it there; the key stays interned, and a later sighting
            // revives it as a fresh, undetected entry.
            self.pl.remove(grown);
            false
        }
    }

    /// Reset scan state after a declaration so that a later `relaunch`
    /// resumes cleanly past the declared region.
    fn after_declaration(&mut self, predict_from: usize) {
        self.pos = predict_from;
        self.min_fresh = predict_from;
        self.pattern_size = 2;
        self.phase = Phase::Seek;
    }
}

/// Compute per-slot idle-gap running means for a declared pattern from its
/// observed occurrences (used to seed the power controller's timers).
///
/// `slot_gap(j)` is the idle preceding the pattern's j-th gram; for each
/// occurrence position `p` in `occurrences`, the gap of gram `p + j` is
/// accumulated. Out-of-range grams (occurrence at the array edge) are
/// skipped.
pub fn seed_slot_gaps(
    occurrences: impl IntoIterator<Item = usize>,
    pattern_len: usize,
    gap_of: impl Fn(usize) -> Option<ibp_simcore::SimDuration>,
) -> Vec<RunningMean> {
    let mut slots = vec![RunningMean::new(); pattern_len];
    for p in occurrences {
        for (j, slot) in slots.iter_mut().enumerate() {
            if let Some(gap) = gap_of(p + j) {
                slot.push(gap);
            }
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shape ids: A = 0 (the `41-41-41` gram), B = 1 (the `10` gram).
    const A: GramId = 0;
    const B: GramId = 1;

    /// The Fig. 2/Fig. 3 gram stream: A B B repeated.
    fn alya_grams(n: usize) -> Vec<GramId> {
        (0..n).map(|i| if i % 3 == 0 { A } else { B }).collect()
    }

    /// Feed grams one at a time, as the online pipeline does, returning
    /// the first declaration and the gram count at which it fired.
    fn feed_until_declaration(grams: &[GramId], ppa: &mut Ppa) -> Option<(Declaration, usize)> {
        for n in 1..=grams.len() {
            if let Some(d) = ppa.advance(&grams[..n]) {
                return Some((d, n));
            }
        }
        None
    }

    #[test]
    fn fig3_walkthrough_declares_abb_from_position_12() {
        let grams = alya_grams(18);
        let mut ppa = Ppa::new(3, 64);
        let (decl, at) = feed_until_declaration(&grams, &mut ppa).expect("must declare");
        // Fig. 3: pattern "41-41-41,10,10" = (A,B,B); predicted from
        // gram position 12; declared once gram 11 is available.
        assert_eq!(&*decl.pattern, &[A, B, B]);
        assert_eq!(decl.predict_from, 12);
        assert!(!decl.rearmed);
        assert_eq!(at, 12, "declaration needs grams 0..=11");
        // Fig. 3 insertion table: occurrences {3, 6, 9}, frequency 3.
        let entry = ppa.pattern_list().get(&[A, B, B]).unwrap();
        assert_eq!(entry.occurrences.to_vec(), vec![3, 6, 9]);
        assert!(entry.detected);
    }

    #[test]
    fn fig3_bigram_bookkeeping() {
        let grams = alya_grams(18);
        let mut ppa = Ppa::new(3, 64);
        let _ = feed_until_declaration(&grams, &mut ppa);
        // The seed bi-grams of Fig. 3's insertion table are present.
        let ab = ppa.pattern_list().get(&[A, B]).unwrap();
        assert!(ab.occurrences.to_vec().starts_with(&[0, 3]));
        assert!(ppa.pattern_list().get(&[B, B]).is_some());
        assert!(ppa.pattern_list().get(&[B, A]).is_some());
    }

    #[test]
    fn rearm_after_relaunch_is_immediate() {
        let grams = alya_grams(30);
        let mut ppa = Ppa::new(3, 64);
        let (first, _) = feed_until_declaration(&grams, &mut ppa).unwrap();
        assert_eq!(first.predict_from, 12);

        // Simulate a misprediction at gram 15; scanning relaunches there.
        ppa.relaunch(15);
        // Feed grams one at a time, as the online pipeline does; the
        // detected (A,B,B) must re-arm on its first complete re-sighting,
        // not after three repeats.
        let mut fired = None;
        for n in 16..=grams.len() {
            if let Some(d) = ppa.advance(&grams[..n]) {
                fired = Some(d);
                break;
            }
        }
        let d = fired.expect("re-arm expected");
        assert_eq!(&*d.pattern, &[A, B, B]);
        assert!(d.rearmed);
        // Re-arm must happen at the first complete fresh occurrence
        // (grams 15..18 → predict_from 18), far earlier than three full
        // repeats (15 + 3*3 = 24) would allow.
        assert_eq!(d.predict_from, 18);
    }

    #[test]
    fn no_declaration_without_three_consecutive_repeats() {
        // A B B A B B — only two occurrences of (A,B,B).
        let grams = alya_grams(6);
        let mut ppa = Ppa::new(3, 64);
        assert!(feed_until_declaration(&grams, &mut ppa).is_none());
    }

    #[test]
    fn aperiodic_stream_never_declares() {
        // Distinct gram ids: nothing ever repeats.
        let grams: Vec<GramId> = (0..50).collect();
        let mut ppa = Ppa::new(3, 64);
        assert!(feed_until_declaration(&grams, &mut ppa).is_none());
        // But the pattern list has been filling with unique bi-grams.
        assert!((0..48).all(|g| ppa.pattern_list().get(&[g, g + 1]).is_some()));
    }

    #[test]
    fn period_one_stream_declares_bigram() {
        // B B B B B … : the bi-gram (B,B) repeats consecutively.
        let grams = vec![B; 10];
        let mut ppa = Ppa::new(3, 64);
        let (d, _) = feed_until_declaration(&grams, &mut ppa).expect("declare");
        assert_eq!(&*d.pattern, &[B, B]);
    }

    #[test]
    fn long_period_pattern_declares() {
        // Period-4 pattern: A B A B B? no — use distinct: 0 1 2 3 repeated.
        let base = [0u32, 1, 2, 3];
        let grams: Vec<GramId> = (0..40).map(|i| base[i % 4]).collect();
        let mut ppa = Ppa::new(3, 64);
        let (d, _) = feed_until_declaration(&grams, &mut ppa).expect("declare");
        assert_eq!(d.pattern.len(), 4, "pattern {:?}", d.pattern);
        // The declared pattern is a rotation of the base period.
        let doubled: Vec<GramId> = base.iter().chain(base.iter()).copied().collect();
        assert!(
            doubled.windows(4).any(|w| w == &*d.pattern),
            "declared pattern {:?} is not a rotation of {:?}",
            d.pattern,
            base
        );
    }

    #[test]
    fn max_pattern_size_freezes_after_declaration() {
        let grams = alya_grams(18);
        let mut ppa = Ppa::new(3, 64);
        let _ = feed_until_declaration(&grams, &mut ppa).unwrap();
        assert!(ppa.frozen);
        assert_eq!(ppa.max_pattern_size, 3);
    }

    #[test]
    fn last_elements_counts_each_advance() {
        let grams = alya_grams(18);
        let mut ppa = Ppa::new(3, 64);
        // One gram holds no bi-gram yet: no work.
        assert!(ppa.advance(&grams[..1]).is_none());
        assert_eq!(ppa.last_elements(), 0);
        // The first bi-gram is one insertion of two elements.
        assert!(ppa.advance(&grams[..2]).is_none());
        assert_eq!(ppa.last_elements(), 2);
        let later: u64 = (3..=12)
            .map(|n| {
                let _ = ppa.advance(&grams[..n]);
                ppa.last_elements()
            })
            .sum();
        assert!(later > 0);
    }

    #[test]
    fn seed_slot_gaps_averages_occurrences() {
        use ibp_simcore::SimDuration;
        // Gaps: gram i has gap 100 + i µs.
        let gap_of = |i: usize| (i < 12).then(|| SimDuration::from_us(100 + i as u64));
        let slots = seed_slot_gaps([3, 6, 9], 3, gap_of);
        // Slot 0: gaps of grams 3, 6, 9 → mean 106 µs.
        assert_eq!(slots[0].mean(), SimDuration::from_us(106));
        // Slot 2: grams 5, 8, 11 → mean 108 µs.
        assert_eq!(slots[2].mean(), SimDuration::from_us(108));
        // Slot 0 holds three observations: a fourth of 146 µs moves the
        // mean to (3·106 + 146) / 4 = 116 µs.
        let mut slot0 = slots[0].clone();
        slot0.push(SimDuration::from_us(146));
        assert_eq!(slot0.mean(), SimDuration::from_us(116));
    }

    #[test]
    fn noise_between_repeats_still_declares_eventually() {
        // Pattern with occasional noise grams; consecutive runs of 3+
        // exist after the noise.
        let mut grams = Vec::new();
        for block in 0..4 {
            if block == 1 {
                grams.push(99); // noise gram breaks the run
            }
            for _ in 0..4 {
                grams.extend_from_slice(&[A, B, B]);
            }
        }
        let mut ppa = Ppa::new(3, 64);
        let (d, _) = feed_until_declaration(&grams, &mut ppa).expect("declare");
        assert_eq!(d.pattern.len(), 3);
    }

    #[test]
    fn tiny_occurrence_window_still_follows_fig3() {
        // Even a 2-deep window retains enough history for checkO on the
        // Alya stream: declarations and occurrences match the unbounded
        // walk-through.
        let grams = alya_grams(18);
        let mut ppa = Ppa::with_window(3, 64, 2);
        let (decl, at) = feed_until_declaration(&grams, &mut ppa).expect("must declare");
        assert_eq!(&*decl.pattern, &[A, B, B]);
        assert_eq!((decl.predict_from, at), (12, 12));
    }

    #[test]
    fn windowed_and_unbounded_declarations_agree_on_long_streams() {
        // Feed a long periodic stream with noise injections through a
        // bounded and an effectively-unbounded scanner; every declaration
        // must agree (the window only forgets ancient occurrences that
        // checkO never needs for a live pattern).
        let mut grams = Vec::new();
        for block in 0..40 {
            if block % 7 == 3 {
                grams.push(100 + block as GramId); // unique noise gram
            }
            for _ in 0..3 {
                grams.extend_from_slice(&[A, B, B]);
            }
        }
        let mut bounded = Ppa::with_window(3, 64, DEFAULT_OCCURRENCE_WINDOW);
        let mut unbounded = Ppa::with_window(3, 64, usize::MAX);
        for n in 1..=grams.len() {
            let b = bounded.advance(&grams[..n]);
            let u = unbounded.advance(&grams[..n]);
            assert_eq!(b, u, "divergence at gram {n}");
            // The same work, so the same overhead charge, at every step.
            assert_eq!(
                bounded.last_elements(),
                unbounded.last_elements(),
                "work diverges at gram {n}"
            );
            // Mirror the runtime: a declaration relaunches scanning only
            // via after_declaration, which both sides share.
        }
    }

    #[test]
    fn failed_check_o_tombstones_a_grown_pattern_and_a_later_sighting_revives_it() {
        // X Y Z recurs, but once as X Y W. With a 2-deep window the
        // prefix (X, Y) retains only its last two positions.
        const X: GramId = 0;
        const Y: GramId = 1;
        const Z: GramId = 2;
        const W: GramId = 3;
        let grams = [
            X, Y, Z, 10, X, Y, Z, 11, X, Y, W, 12, X, Y, Z, 13, X, Y, Z, 14,
        ];
        let mut ppa = Ppa::with_window(3, 64, 2);
        let mut fed = 0;
        let mut feed = |ppa: &mut Ppa, upto: usize| {
            for n in fed + 1..=upto {
                assert!(ppa.advance(&grams[..n]).is_none(), "no declaration");
            }
            fed = upto;
        };
        // At 4, (X, Y) grows to (X, Y, Z): checkO finds it at 0.
        feed(&mut ppa, 12);
        let xyz = ppa.pattern_list().id_of(&[X, Y, Z]).expect("grown");
        let entry = ppa.pattern_list().entry(xyz).expect("live");
        assert_eq!(entry.occurrences.to_vec(), vec![4]);
        // At 12 the prefix's window holds {8, 12}, and 8 extends to
        // (X, Y, W): checkO fails and the live (X, Y, Z) is tombstoned.
        feed(&mut ppa, 16);
        assert_eq!(ppa.pattern_list().id_of(&[X, Y, Z]), Some(xyz));
        assert!(ppa.pattern_list().entry(xyz).is_none(), "tombstoned");
        // At 16 the window holds {12, 16}; 12 extends to (X, Y, Z), so
        // the growth succeeds and revives a fresh, undetected entry.
        feed(&mut ppa, grams.len());
        let entry = ppa.pattern_list().entry(xyz).expect("revived");
        assert_eq!(entry.occurrences.to_vec(), vec![16]);
        assert!(!entry.detected);
        assert!(entry.slot_gaps.is_empty());
    }
}
