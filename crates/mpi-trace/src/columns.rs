//! Columnar storage of one rank's trace records.
//!
//! A rank's trace is a long sequence of *(compute burst, MPI op)*
//! records, and SPMD codes repeat a handful of ops over and over (the
//! paper's Fig. 2 ALYA pattern is `Sendrecv×3, Allreduce×2`, iteration
//! after iteration). [`EventColumns`] stores the bursts as one
//! `SimDuration` column and the ops as one `u32` column of indices into
//! a table of distinct ops: 12 bytes per record instead of a 40-byte
//! [`TraceEvent`], plus a table that stays small however long the rank
//! runs.
//!
//! Request ids are what would defeat the table: every `Isend`/`Irecv`
//! carries a fresh id, and every `Wait`/`Waitall` names the ids it
//! completes, so raw ops rarely repeat. The table therefore stores them
//! *relative* to the rank's running post counter (`posts`, the number of
//! `Isend`/`Irecv` records before this one): a post stores
//! `req - posts`, a wait stores `posts - req`, both wrapping. A rank
//! that numbers its requests in posting order stores every post as 0
//! and every wait as "k posts ago", and the repeating pattern interns
//! to a few entries. Wrapping arithmetic makes the mapping a bijection
//! for any ids, so a file with arbitrary ids round-trips exactly; only
//! the table grows.

use crate::event::{MpiCall, MpiOp};
use crate::trace::TraceEvent;
use ibp_simcore::SimDuration;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;

/// One rank's *(compute burst, MPI op)* records, stored by column.
///
/// Behaves like the `Vec<TraceEvent>` it replaces wherever records are
/// read in order: [`len`](Self::len), [`push`](Self::push),
/// [`iter`](Self::iter) (owned records with absolute request ids),
/// [`extend_from_slice`](Self::extend_from_slice), `Clone`, `==` and the
/// serialized form (a JSON array of records) all match. Hot readers use
/// the allocation-free accessors instead: [`compute`](Self::compute),
/// [`calls`](Self::calls), and [`op_ids`](Self::op_ids) with
/// [`table`](Self::table).
#[derive(Clone, Default)]
pub struct EventColumns {
    /// Compute burst before each record's call.
    compute: Vec<SimDuration>,
    /// Each record's op, as an index into `table`.
    ops: Vec<u32>,
    /// Distinct ops, request ids relative to the post counter.
    table: Vec<MpiOp>,
    /// `table` entry → its index, for interning.
    index: HashMap<MpiOp, u32, BuildHasherDefault<OpHasher>>,
    /// Per `table` entry, the entry that followed it last ([`NO_OP`]
    /// before any did): SPMD loops repeat their op sequence, so the
    /// previous record's successor is usually the next op, and one
    /// comparison finds it without hashing.
    successor: Vec<u32>,
    /// Posts (`Isend`/`Irecv`) among the records, wrapping.
    posts: u32,
    /// Reused buffer for [`push_waitall`](Self::push_waitall)'s relative
    /// id list.
    waitall_ids: Vec<u32>,
}

impl EventColumns {
    /// An empty record sequence.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether there are no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Append one record.
    pub fn push(&mut self, event: TraceEvent) {
        let TraceEvent {
            compute_before,
            mut op,
        } = event;
        relativize(&mut op, self.posts);
        self.push_relative(compute_before, &op);
    }

    /// Append a `Waitall` record completing `reqs` (absolute ids). The
    /// relative id list is built in a reused buffer and copied only if
    /// the table does not hold it yet, so a repeating exchange pattern
    /// appends its `Waitall`s without allocating.
    pub fn push_waitall(&mut self, compute_before: SimDuration, reqs: &[u32]) {
        let mut ids = std::mem::take(&mut self.waitall_ids);
        ids.clear();
        ids.extend(reqs.iter().map(|&r| self.posts.wrapping_sub(r)));
        let op = MpiOp::Waitall { reqs: ids };
        self.push_relative(compute_before, &op);
        if let MpiOp::Waitall { reqs } = op {
            self.waitall_ids = reqs;
        }
    }

    /// Append a record whose op is already relative to the post counter.
    fn push_relative(&mut self, compute_before: SimDuration, op: &MpiOp) {
        let idx = match self.ops.last() {
            Some(&prev) => {
                let guess = self.successor[prev as usize];
                if guess != NO_OP && self.table[guess as usize] == *op {
                    guess
                } else {
                    let idx = self.intern(op);
                    self.successor[prev as usize] = idx;
                    idx
                }
            }
            None => self.intern(op),
        };
        self.compute.push(compute_before);
        self.ops.push(idx);
        if is_post(op) {
            self.posts = self.posts.wrapping_add(1);
        }
    }

    /// The records in order, each materialised with its absolute
    /// request ids (a `Waitall` allocates its id list).
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            cols: self,
            next: 0,
            posts: 0,
        }
    }

    /// Every record's compute burst, in order.
    #[inline]
    pub fn compute(&self) -> &[SimDuration] {
        &self.compute
    }

    /// Every record's call type, in order — the stream the PPA hashes,
    /// read from the table without decoding request ids.
    pub fn calls(&self) -> impl ExactSizeIterator<Item = MpiCall> + '_ {
        self.ops.iter().map(|&i| self.table[i as usize].call())
    }

    /// Every record's op, as an index into [`table`](Self::table).
    #[inline]
    pub fn op_ids(&self) -> &[u32] {
        &self.ops
    }

    /// The distinct ops the records index. Their request ids are
    /// *relative* to the rank's post counter (see the module docs): with
    /// `posts` the number of `Isend`/`Irecv` records before a record, a
    /// post's absolute id is `req + posts` and a wait's is `posts - req`,
    /// both wrapping. [`iter`](Self::iter) yields the decoded records.
    #[inline]
    pub fn table(&self) -> &[MpiOp] {
        &self.table
    }

    /// Append every record of `other`, as concatenating the two record
    /// vectors would: the appended records keep their absolute request
    /// ids.
    pub fn extend_from_slice(&mut self, other: &Self) {
        // `other`'s ids are relative to its own post counter; ours runs
        // `self.posts` ahead of it, so every entry shifts by that much.
        let shift = self.posts;
        let remap: Vec<u32> = other
            .table
            .iter()
            .map(|op| {
                let mut op = op.clone();
                rebase(&mut op, shift);
                self.intern(&op)
            })
            .collect();
        self.compute.extend_from_slice(&other.compute);
        self.ops
            .extend(other.ops.iter().map(|&i| remap[i as usize]));
        self.posts = self.posts.wrapping_add(other.posts);
    }

    /// Release spare capacity (a finished trace grows no further).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.compute.shrink_to_fit();
        self.ops.shrink_to_fit();
        self.table.shrink_to_fit();
        self.index.shrink_to_fit();
        self.successor.shrink_to_fit();
        self.waitall_ids = Vec::new();
    }

    /// Heap bytes held: both columns and the op table with its index, by
    /// capacity (the index's buckets estimated the way the standard
    /// hash map sizes them).
    pub fn heap_bytes(&self) -> usize {
        let waitall_ids: usize = self
            .table
            .iter()
            .map(|op| match op {
                MpiOp::Waitall { reqs } => reqs.capacity() * size_of::<u32>(),
                _ => 0,
            })
            .sum();
        let cap = self.index.capacity();
        let buckets = match cap {
            0 => 0,
            1..=7 => cap + 1,
            _ => cap / 7 * 8,
        };
        self.compute.capacity() * size_of::<SimDuration>()
            + self.ops.capacity() * size_of::<u32>()
            + self.table.capacity() * size_of::<MpiOp>()
            + self.successor.capacity() * size_of::<u32>()
            + buckets * (size_of::<(MpiOp, u32)>() + 1)
            // Table and index each hold a copy of every `Waitall` list.
            + 2 * waitall_ids
            + self.waitall_ids.capacity() * size_of::<u32>()
    }

    /// The table index of relative op `op`, copying it into the table
    /// and index if it is new.
    fn intern(&mut self, op: &MpiOp) -> u32 {
        if let Some(&idx) = self.index.get(op) {
            return idx;
        }
        let idx = u32::try_from(self.table.len()).expect("more than 2^32 distinct ops in one rank");
        self.table.push(op.clone());
        self.index.insert(op.clone(), idx);
        self.successor.push(NO_OP);
        idx
    }
}

/// "No successor seen yet" in [`EventColumns`]'s successor hints.
const NO_OP: u32 = u32::MAX;

fn is_post(op: &MpiOp) -> bool {
    matches!(op, MpiOp::Isend { .. } | MpiOp::Irecv { .. })
}

/// Absolute → relative request ids, `posts` posts into the rank.
fn relativize(op: &mut MpiOp, posts: u32) {
    match op {
        MpiOp::Isend { req, .. } | MpiOp::Irecv { req, .. } => *req = req.wrapping_sub(posts),
        MpiOp::Wait { req } => *req = posts.wrapping_sub(*req),
        MpiOp::Waitall { reqs } => reqs.iter_mut().for_each(|r| *r = posts.wrapping_sub(*r)),
        _ => {}
    }
}

/// Relative → absolute request ids, `posts` posts into the rank.
fn absolutize(op: &mut MpiOp, posts: u32) {
    match op {
        MpiOp::Isend { req, .. } | MpiOp::Irecv { req, .. } => *req = req.wrapping_add(posts),
        // `posts - (posts - req)`: the wait encoding is its own inverse.
        MpiOp::Wait { .. } | MpiOp::Waitall { .. } => relativize(op, posts),
        _ => {}
    }
}

/// Re-express a relative op for a post counter `by` posts further on.
fn rebase(op: &mut MpiOp, by: u32) {
    match op {
        MpiOp::Isend { req, .. } | MpiOp::Irecv { req, .. } => *req = req.wrapping_sub(by),
        MpiOp::Wait { req } => *req = req.wrapping_add(by),
        MpiOp::Waitall { reqs } => reqs.iter_mut().for_each(|r| *r = r.wrapping_add(by)),
        _ => {}
    }
}

/// Iterator over owned records; see [`EventColumns::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    cols: &'a EventColumns,
    next: usize,
    posts: u32,
}

impl Iterator for Iter<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        let &idx = self.cols.ops.get(self.next)?;
        let mut op = self.cols.table[idx as usize].clone();
        absolutize(&mut op, self.posts);
        if is_post(&op) {
            self.posts = self.posts.wrapping_add(1);
        }
        let compute_before = self.cols.compute[self.next];
        self.next += 1;
        Some(TraceEvent { compute_before, op })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cols.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a EventColumns {
    type Item = TraceEvent;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Collects records without spare capacity.
impl FromIterator<TraceEvent> for EventColumns {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let mut cols = EventColumns::new();
        for event in iter {
            cols.push(event);
        }
        cols.shrink_to_fit();
        cols
    }
}

/// Record-by-record equality. Two sequences whose records agree so far
/// have equal post counters, so equal relative ops are equal absolute
/// ops; tables built in different orders still compare equal.
impl PartialEq for EventColumns {
    fn eq(&self, other: &Self) -> bool {
        self.compute == other.compute
            && self.ops.len() == other.ops.len()
            && self
                .ops
                .iter()
                .zip(&other.ops)
                .all(|(&a, &b)| self.table[a as usize] == other.table[b as usize])
    }
}

impl Eq for EventColumns {}

/// Prints the records, as the record vector would.
impl fmt::Debug for EventColumns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Serialized as the array of records, the format of the record vector.
impl Serialize for EventColumns {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|e| e.to_value()).collect())
    }
}

impl Deserialize for EventColumns {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let seq = v
            .as_seq()
            .ok_or_else(|| DeError::custom(format!("expected array, got {}", v.kind())))?;
        seq.iter().map(TraceEvent::from_value).collect()
    }
}

/// A multiply-rotate hasher for interning ops: an op is a few small
/// integers, and a trace's own ops need no defence against collision
/// flooding. (The workspace's `fxhash` is the same idea; a local copy
/// keeps this crate's dependency list, and every lock file that builds
/// it, unchanged.)
#[derive(Default)]
struct OpHasher(u64);

impl OpHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }
}

impl Hasher for OpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(compute_ns: u64, op: MpiOp) -> TraceEvent {
        TraceEvent {
            compute_before: SimDuration::from_ns(compute_ns),
            op,
        }
    }

    /// A halo exchange numbered in posting order, `iters` times.
    fn halo(iters: u32) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for i in 0..iters {
            let base = 2 * i;
            out.push(ev(
                100,
                MpiOp::Irecv {
                    from: 1,
                    bytes: 64,
                    req: base,
                },
            ));
            out.push(ev(
                0,
                MpiOp::Isend {
                    to: 1,
                    bytes: 64,
                    req: base + 1,
                },
            ));
            out.push(ev(
                5,
                MpiOp::Waitall {
                    reqs: vec![base, base + 1],
                },
            ));
            out.push(ev(900, MpiOp::Allreduce { bytes: 8 }));
        }
        out
    }

    #[test]
    fn posting_order_ids_intern_to_one_entry_per_op_shape() {
        let model = halo(500);
        let cols: EventColumns = model.iter().cloned().collect();
        assert_eq!(cols.len(), 2000);
        assert_eq!(cols.table.len(), 4);
        assert_eq!(cols.iter().collect::<Vec<_>>(), model);
    }

    #[test]
    fn shrunk_columns_cost_twelve_bytes_a_record_plus_the_table() {
        let cols: EventColumns = halo(10_000).into_iter().collect();
        let per_record = cols.heap_bytes() as f64 / cols.len() as f64;
        assert!((12.0..12.1).contains(&per_record), "{per_record} B/record");
    }
}
