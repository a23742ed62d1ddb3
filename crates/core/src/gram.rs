//! Gram formation — Algorithm 1 of the paper.
//!
//! A *gram* is a maximal group of consecutive MPI calls whose pairwise
//! inter-communication gaps are all below the grouping threshold GT. Gaps
//! of at least GT separate grams; those gaps are exactly the candidate
//! lane-off intervals (by construction they satisfy
//! `T_idle ≥ GT ≥ 2·T_react`).
//!
//! For the Alya stream of Fig. 2 (`41 41 41 ___ 10 ___ 10 ___ …` where
//! `___` marks a long gap) the grams are `[41,41,41]`, `[10]`, `[10]`, …
//!
//! Grams are *interned*: each distinct call-id sequence receives a small
//! integer [`GramId`], so patterns (sequences of grams) compare and hash
//! as slices of integers rather than nested vectors.

use crate::config::PowerConfig;
use crate::snapshot::{GramBuilderSnapshot, GramInternerSnapshot, SnapshotError};
use fxhash::FxHashMap;
use ibp_simcore::SimDuration;
use ibp_trace::MpiCall;
use std::sync::Arc;

/// Identifier of a distinct gram *shape* (call-id sequence).
pub type GramId = u32;

/// A completed gram occurrence in the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gram {
    /// Interned shape id (equal ids ⇔ equal call sequences); its calls
    /// are [`GramInterner::shape`].
    pub id: GramId,
    /// The idle gap that *preceded* this gram (≥ GT for every gram except
    /// the very first of the stream).
    pub preceding_idle: SimDuration,
}

/// Interner mapping call-id sequences to dense [`GramId`]s.
///
/// Each shape is stored once: the id map and the id-indexed table share
/// one `Arc<[u16]>` allocation, and lookups borrow the caller's slice
/// (FxHash, no per-probe key construction), so the re-intern hit path —
/// the steady state of gram formation — is allocation-free.
#[derive(Debug, Default)]
pub struct GramInterner {
    ids: FxHashMap<Arc<[u16]>, GramId>,
    shapes: Vec<Arc<[u16]>>,
}

impl GramInterner {
    /// Create an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a call sequence, returning its stable id.
    pub fn intern(&mut self, calls: &[u16]) -> GramId {
        if let Some(&id) = self.ids.get(calls) {
            return id;
        }
        let id = self.shapes.len() as GramId;
        let shared: Arc<[u16]> = calls.into();
        self.shapes.push(Arc::clone(&shared));
        self.ids.insert(shared, id);
        id
    }

    /// The call sequence behind an id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    #[inline]
    #[must_use]
    pub fn shape(&self, id: GramId) -> &[u16] {
        &self.shapes[id as usize]
    }

    /// Number of distinct shapes interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// True when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Snapshot the interned shapes (id order).
    pub(crate) fn snapshot(&self) -> GramInternerSnapshot {
        GramInternerSnapshot {
            shapes: self.shapes.iter().map(|s| s.to_vec()).collect(),
        }
    }

    /// Rebuild an interner from a snapshot. Shapes must be distinct —
    /// interning them in order reproduces the original id assignment —
    /// and non-empty: a gram holds at least one call, and prediction
    /// reads each slot's first call.
    pub(crate) fn from_snapshot(snap: &GramInternerSnapshot) -> Result<Self, SnapshotError> {
        if let Some(id) = snap.shapes.iter().position(Vec::is_empty) {
            return Err(SnapshotError::Inconsistent(format!(
                "gram interner snapshot holds an empty shape at id {id}"
            )));
        }
        let mut interner = GramInterner::new();
        for shape in &snap.shapes {
            let _ = interner.intern(shape);
        }
        if interner.len() != snap.shapes.len() {
            return Err(SnapshotError::Inconsistent(format!(
                "gram interner snapshot holds duplicate shapes: {} distinct of {}",
                interner.len(),
                snap.shapes.len()
            )));
        }
        Ok(interner)
    }

    /// Render a gram id the way the paper prints them: calls joined with
    /// dashes, e.g. `"41-41-41"`.
    pub fn display(&self, id: GramId) -> String {
        self.shape(id)
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("-")
    }
}

/// Online gram formation (Algorithm 1): feed MPI events one at a time;
/// grams are emitted as they *close* (when the first event of the next
/// gram arrives).
#[derive(Debug)]
pub struct GramBuilder {
    gt: SimDuration,
    current_calls: Vec<u16>,
    current_preceding_idle: SimDuration,
}

impl GramBuilder {
    /// Create a builder using the grouping threshold from `cfg`.
    pub fn new(cfg: &PowerConfig) -> Self {
        GramBuilder {
            gt: cfg.grouping_threshold,
            current_calls: Vec::new(),
            current_preceding_idle: SimDuration::ZERO,
        }
    }

    /// Feed one MPI event (its call type and the idle time since the
    /// previous call on this rank). If the event *opens a new gram*, the
    /// now-complete previous gram is returned.
    pub fn push(
        &mut self,
        call: MpiCall,
        previous_idle: SimDuration,
        interner: &mut GramInterner,
    ) -> Option<Gram> {
        if self.current_calls.is_empty() {
            // Very first event of the stream opens gram 0.
            self.current_calls.push(call.id());
            self.current_preceding_idle = previous_idle;
            return None;
        }

        if previous_idle < self.gt {
            // Algorithm 1 line 1–2: close together → same gram.
            self.current_calls.push(call.id());
            None
        } else {
            // Algorithm 1 line 3–7: gap ≥ GT → close current gram, open new.
            let closed = self.finish_current(interner);
            self.current_calls.push(call.id());
            self.current_preceding_idle = previous_idle;
            Some(closed)
        }
    }

    /// Snapshot the builder's mutable fields (the open gram).
    pub(crate) fn snapshot(&self) -> GramBuilderSnapshot {
        GramBuilderSnapshot {
            current_calls: self.current_calls.clone(),
            current_preceding_idle: self.current_preceding_idle,
        }
    }

    /// Rebuild a builder from a snapshot; the grouping threshold comes
    /// from `cfg` exactly as in [`GramBuilder::new`].
    pub(crate) fn from_snapshot(cfg: &PowerConfig, snap: &GramBuilderSnapshot) -> Self {
        GramBuilder {
            gt: cfg.grouping_threshold,
            current_calls: snap.current_calls.clone(),
            current_preceding_idle: snap.current_preceding_idle,
        }
    }

    fn finish_current(&mut self, interner: &mut GramInterner) -> Gram {
        let id = interner.intern(&self.current_calls);
        let gram = Gram {
            id,
            preceding_idle: self.current_preceding_idle,
        };
        self.current_calls.clear();
        gram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_trace::MpiCall::{Allreduce, Sendrecv};

    fn cfg() -> PowerConfig {
        PowerConfig::paper(SimDuration::from_us(20), 0.10)
    }

    fn us(x: u64) -> SimDuration {
        SimDuration::from_us(x)
    }

    /// The Fig. 2 stream: three Sendrecvs close together, then two
    /// Allreduces each preceded by a long gap, repeated.
    fn feed_fig2(iterations: usize) -> (Vec<Gram>, GramInterner) {
        let cfg = cfg();
        let mut b = GramBuilder::new(&cfg);
        let mut interner = GramInterner::new();
        let mut grams = Vec::new();
        for it in 0..iterations {
            let lead = if it == 0 { us(0) } else { us(300) };
            for (i, gap) in [(0, lead), (1, us(2)), (2, us(3))] {
                let _ = i;
                if let Some(g) = b.push(Sendrecv, gap, &mut interner) {
                    grams.push(g);
                }
            }
            for _ in 0..2 {
                if let Some(g) = b.push(Allreduce, us(250), &mut interner) {
                    grams.push(g);
                }
            }
        }
        (grams, interner)
    }

    #[test]
    fn fig2_grouping() {
        let (grams, interner) = feed_fig2(2);
        // Two iterations → grams: [41-41-41], [10], [10] × 2, the last
        // still open (no later call has closed it).
        assert_eq!(grams.len(), 5);
        assert_eq!(interner.display(grams[0].id), "41-41-41");
        assert_eq!(interner.display(grams[1].id), "10");
        assert_eq!(interner.display(grams[2].id), "10");
        // Same shapes intern to same ids across iterations.
        assert_eq!(grams[0].id, grams[3].id);
        assert_eq!(grams[1].id, grams[2].id);
        assert_eq!(grams[1].id, grams[4].id);
        // Only 2 distinct shapes exist.
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn preceding_idle_recorded() {
        let (grams, _) = feed_fig2(2);
        assert_eq!(grams[0].preceding_idle, us(0));
        assert_eq!(grams[1].preceding_idle, us(250));
        assert_eq!(grams[3].preceding_idle, us(300));
    }

    #[test]
    fn gap_exactly_gt_splits() {
        let cfg = cfg();
        let mut b = GramBuilder::new(&cfg);
        let mut i = GramInterner::new();
        assert!(b.push(Sendrecv, us(0), &mut i).is_none());
        // A gap of exactly GT must start a new gram (Alg. 1 uses `<` GT to
        // group, so `== GT` separates).
        let closed = b.push(Sendrecv, us(20), &mut i);
        assert_eq!(i.shape(closed.expect("gram closed").id).len(), 1);
    }

    #[test]
    fn interner_roundtrip() {
        let mut i = GramInterner::new();
        let a = i.intern(&[41, 41, 41]);
        let b = i.intern(&[10]);
        let a2 = i.intern(&[41, 41, 41]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.shape(a), &[41, 41, 41]);
        assert_eq!(i.display(b), "10");
    }

    #[test]
    fn interner_stores_each_shape_once() {
        // Regression test for the double-store bug: `shapes` and `ids`
        // must share one allocation per distinct shape, and re-interning
        // must not grow memory at all.
        let mut i = GramInterner::new();
        let id = i.intern(&[41, 41, 41]);
        assert_eq!(
            Arc::strong_count(&i.shapes[id as usize]),
            2,
            "exactly the map key and the table slot hold the shape"
        );
        for _ in 0..1000 {
            assert_eq!(i.intern(&[41, 41, 41]), id);
        }
        assert_eq!(i.len(), 1);
        assert_eq!(Arc::strong_count(&i.shapes[id as usize]), 2);
        // Total retained bytes are one allocation per *distinct* shape.
        let distinct: usize = i.shapes.iter().map(|s| s.len()).sum();
        assert_eq!(distinct, 3);
    }
}
