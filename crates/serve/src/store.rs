//! Durable snapshot store: crash-safe persistence of session state.
//!
//! `ibpower serve --store DIR` periodically persists every session's
//! [`RuntimeSnapshot`] to this store.
//! After a crash — `kill -9`, panic, power loss — a restarted server
//! reopens the directory, recovers every readable record, and
//! reconnecting clients resume via an empty-body `Restore` without
//! re-learning their pattern dictionaries. It is also the cold tier
//! of session paging: with `--max-hot-sessions`, the server's LRU pager
//! evicts idle engines here and rehydrates them on their next batch.
//!
//! ## On-disk format
//!
//! One record file per session, `sess-<id>.snap`, and nothing else:
//! the record files are the whole store. Open lists them, removes a
//! crashed writer's temporary files, and ignores and leaves untouched
//! every other entry in the directory.
//!
//! ```text
//! +------+-------------+-------------+------------------------+
//! | IBPR | len: u32 LE | crc: u32 LE | record JSON (len bytes)|
//! +------+-------------+-------------+------------------------+
//! ```
//!
//! `crc` is the IEEE CRC-32 of the JSON payload (same function as the
//! wire protocol's frame checksum). The JSON is a [`StoreRecord`]: the
//! snapshot (which carries the count and digest of the directives the
//! session delivered, not the directives), an always-empty undelivered
//! tail, and resume metadata, so a record does not grow with the
//! session's directive stream.
//!
//! ## Crash safety
//!
//! Every record write goes to a temporary file in the same directory,
//! is fsynced, and is then atomically renamed over the target; the
//! directory is fsynced after the rename. A reader therefore sees
//! either the old record or the new one, never a torn write. Recovery
//! is corruption-tolerant by construction: a record that fails any
//! check (magic, length, CRC, JSON, version, a non-empty directive
//! tail) is skipped and reported in the [`RecoveryReport`], never
//! panicked on — property-tested against arbitrary truncation and bit
//! flips in `tests/store_corruption.rs`.

use crate::protocol::crc32;
use ibp_core::{LaneDirective, RuntimeSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic prefix of every record file.
pub const STORE_MAGIC: [u8; 4] = *b"IBPR";

/// Version stamp inside every [`StoreRecord`]. Bump on layout changes
/// so recovery can skip records from an incompatible build.
pub const RECORD_VERSION: u32 = 1;

/// Upper bound on one record's JSON payload — large enough for any
/// realistic snapshot, small enough that a corrupted length
/// field cannot provoke a giant allocation.
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

const RECORD_HEADER_LEN: usize = 12; // magic + len + crc

/// One persisted session: everything needed to resume its stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreRecord {
    /// Record layout version ([`RECORD_VERSION`]).
    pub record_version: u32,
    /// The session id this record belongs to. With `--store`, session
    /// ids are the durable identity — clients must keep them globally
    /// unique across connections (the load generator uses `0..N`).
    pub session: u32,
    /// The rank the session annotates.
    pub rank: u32,
    /// Events applied at the moment of the snapshot (the resume
    /// position handed back in `OpenAck`).
    pub events: u64,
    /// Whether the session has finished with a `Close`.
    pub closed: bool,
    /// Whether the record accounts for the session's directives from
    /// event 0. Always true since snapshot version 4: the snapshot's
    /// `directives_total` and `directives_digest` cover them whatever
    /// the session was restored from, including a client's snapshot.
    pub history_complete: bool,
    /// Directives the session had issued but not yet delivered when the
    /// record was written: always empty, since every batch reply
    /// delivers what the batch issued. A record whose tail is not empty
    /// is refused: skipped on recovery and on load, and a `BadSnapshot`
    /// from [`crate::Session::restore_from_record`]. The field stays so
    /// the record's eight-field layout (and the benchmark harness that
    /// builds one) is unchanged.
    pub directives: Vec<LaneDirective>,
    /// The engine's full learned state.
    pub snapshot: RuntimeSnapshot,
}

/// What [`SnapshotStore::open`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sessions recovered from valid records.
    pub loaded: usize,
    /// Files that failed validation: `(file name, reason)`. These are
    /// left on disk untouched for post-mortems; a later persist of the
    /// same session overwrites them.
    pub skipped: Vec<(String, String)>,
}

/// Distinguishes concurrent writers' temporary files (multiple worker
/// threads may persist different sessions at once).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of crash-safe session records. Cheap to share behind an
/// `Arc`; all methods take `&self`.
///
/// The index maps each stored session to its record's `closed` flag,
/// and its mutex serialises persists. A persist is exactly one record
/// write.
pub struct SnapshotStore {
    dir: PathBuf,
    index: Mutex<HashMap<u32, bool>>,
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("dir", &self.dir)
            .field("sessions", &self.index.lock().map(|i| i.len()).unwrap_or(0))
            .finish()
    }
}

impl SnapshotStore {
    /// Open (creating if needed) the store at `dir`, recovering every
    /// valid record. Corrupt records are skipped and reported, never
    /// fatal; leftover temporary files from a crashed writer are
    /// removed.
    pub fn open(dir: &Path) -> io::Result<(SnapshotStore, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let mut report = RecoveryReport::default();
        let mut index = HashMap::new();

        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.contains(".tmp-") {
                // A writer died between create and rename; the target
                // file (if any) is still the previous consistent state.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            let Some(session) = record_file_session(&name) else {
                continue;
            };
            match read_record_file(&entry.path()) {
                Ok(record) if record.session != session => {
                    report.skipped.push((
                        name,
                        format!(
                            "file claims session {session} but record is for {}",
                            record.session
                        ),
                    ));
                }
                Ok(record) => {
                    index.insert(session, record.closed);
                    report.loaded += 1;
                }
                Err(reason) => report.skipped.push((name, reason)),
            }
        }

        let store = SnapshotStore {
            dir: dir.to_path_buf(),
            index: Mutex::new(index),
        };
        Ok((store, report))
    }

    /// How many sessions the store holds, and how many of them closed.
    #[must_use]
    pub fn session_counts(&self) -> (usize, usize) {
        let index = self.lock_index();
        (
            index.len(),
            index.values().filter(|&&closed| closed).count(),
        )
    }

    /// Atomically persist `record`, replacing any previous record for
    /// the session.
    pub fn persist(&self, record: &StoreRecord) -> io::Result<()> {
        self.persist_impl(record, true)
    }

    /// [`persist`](Self::persist) minus the fsyncs — still written to a
    /// temp file and atomically renamed, so a *reader* never sees a
    /// half record, but the data may sit in the page cache when the
    /// call returns. The LRU pager uses this on the eviction hot path:
    /// an eviction persist that a crash swallows leaves the same
    /// recovery state as crashing just before the eviction (the CRC
    /// rejects any torn record on open), and paging throughput must
    /// not be bounded by the disk's sync latency. Close and drain
    /// persists keep the fully durable path.
    pub fn persist_fast(&self, record: &StoreRecord) -> io::Result<()> {
        self.persist_impl(record, false)
    }

    fn persist_impl(&self, record: &StoreRecord, sync: bool) -> io::Result<()> {
        let payload = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            .into_bytes();
        if payload.len() > MAX_RECORD_LEN as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "record of {} bytes exceeds the {MAX_RECORD_LEN}-byte cap",
                    payload.len()
                ),
            ));
        }
        let mut bytes = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        bytes.extend_from_slice(&STORE_MAGIC);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        // Hold the index lock across the write so concurrent persists
        // of the same session cannot interleave their renames and index
        // updates.
        let mut index = self.lock_index();
        self.write_atomic(&record_file_name(record.session), &bytes, sync)?;
        index.insert(record.session, record.closed);
        Ok(())
    }

    /// Load and revalidate one session's record. `Ok(None)` when the
    /// session is not in the store; a record that fails validation on
    /// read (e.g. disk corruption after recovery) drops out of the
    /// index and also yields `Ok(None)` — callers treat both as "no
    /// usable snapshot".
    pub fn load(&self, session: u32) -> io::Result<Option<StoreRecord>> {
        if !self.lock_index().contains_key(&session) {
            return Ok(None);
        }
        match read_record_file(&self.dir.join(record_file_name(session))) {
            Ok(record) if record.session == session => Ok(Some(record)),
            Ok(_) | Err(_) => {
                self.lock_index().remove(&session);
                Ok(None)
            }
        }
    }

    fn lock_index(&self) -> std::sync::MutexGuard<'_, HashMap<u32, bool>> {
        // A panic while holding the lock leaves the map itself intact
        // (all mutations are single insert/remove calls), so poisoning
        // carries no information here.
        self.index.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// tmp + fsync + rename + dir fsync: the target name only ever
    /// points at a complete, flushed file. `sync: false` is the pager's
    /// fast path — rename-atomic but page-cache-durable only.
    fn write_atomic(&self, name: &str, bytes: &[u8], sync: bool) -> io::Result<()> {
        let tmp = self.dir.join(format!(
            "{name}.tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        if sync {
            f.sync_all()?;
        }
        drop(f);
        match fs::rename(&tmp, self.dir.join(name)) {
            Ok(()) => {}
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                return Err(e);
            }
        }
        // Persist the rename itself. Failure here is not fatal to
        // correctness (the data file is already durable; at worst the
        // directory entry reverts to the previous consistent record
        // after a crash), and some filesystems reject directory fsync.
        if sync {
            if let Ok(d) = fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

/// File name for a session's record.
#[must_use]
pub fn record_file_name(session: u32) -> String {
    format!("sess-{session}.snap")
}

fn record_file_session(name: &str) -> Option<u32> {
    name.strip_prefix("sess-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Read and fully validate one record file. Every failure is a
/// `String` reason — no panic for any byte content.
fn read_record_file(path: &Path) -> Result<StoreRecord, String> {
    let bytes = fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    if bytes.len() < RECORD_HEADER_LEN {
        return Err(format!("truncated header: {} bytes", bytes.len()));
    }
    if bytes[..4] != STORE_MAGIC {
        return Err(format!("bad magic {:02x?}", &bytes[..4]));
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if len > MAX_RECORD_LEN {
        return Err(format!(
            "payload length {len} exceeds the {MAX_RECORD_LEN}-byte cap"
        ));
    }
    let announced = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    let payload = &bytes[RECORD_HEADER_LEN..];
    if payload.len() != len as usize {
        return Err(format!(
            "payload length mismatch: header says {len}, file carries {}",
            payload.len()
        ));
    }
    let computed = crc32(payload);
    if computed != announced {
        return Err(format!(
            "crc mismatch: header says {announced:#010x}, payload hashes to {computed:#010x}"
        ));
    }
    let text = std::str::from_utf8(payload).map_err(|e| format!("record not valid UTF-8: {e}"))?;
    let value: serde::Value =
        serde_json::from_str(text).map_err(|e| format!("record not valid JSON: {e}"))?;
    // Gate on both layout versions before decoding the layout (as
    // `RuntimeSnapshot::from_json_bytes` does), so a record from another
    // build is skipped with a version reason, not with the first field
    // its layout lacks.
    let record_version = json_field(&value, "record_version").and_then(|v| u32::from_value(v).ok());
    if let Some(found) = record_version.filter(|&v| v != RECORD_VERSION) {
        return Err(format!(
            "record version {found} incompatible with expected {RECORD_VERSION}"
        ));
    }
    if let Some(snapshot) = json_field(&value, "snapshot") {
        RuntimeSnapshot::check_json_version(snapshot)
            .map_err(|e| format!("embedded snapshot rejected: {e}"))?;
    }
    let record =
        StoreRecord::from_value(&value).map_err(|e| format!("record layout invalid: {e}"))?;
    if record.events != record.snapshot.stats.total_calls {
        return Err(format!(
            "resume position {} disagrees with snapshot event count {}",
            record.events, record.snapshot.stats.total_calls
        ));
    }
    if record.rank != record.snapshot.rank {
        return Err(format!(
            "record rank {} disagrees with snapshot rank {}",
            record.rank, record.snapshot.rank
        ));
    }
    if !record.directives.is_empty() {
        return Err(format!(
            "record carries {} undelivered directives; records hold none",
            record.directives.len()
        ));
    }
    Ok(record)
}

/// A top-level entry of a JSON object, if `value` is one and has it.
fn json_field<'a>(value: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_core::{PowerConfig, RankRuntime};
    use ibp_simcore::SimDuration;
    use ibp_trace::MpiCall;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ibp-store-test-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_record(session: u32, events: usize) -> StoreRecord {
        let mut rt = RankRuntime::new(session, PowerConfig::default());
        for i in 0..events {
            let call = if i % 5 < 3 {
                MpiCall::Sendrecv
            } else {
                MpiCall::Allreduce
            };
            rt.intercept(call, SimDuration::from_us(if i % 5 == 0 { 300 } else { 2 }));
        }
        StoreRecord {
            record_version: RECORD_VERSION,
            session,
            rank: session,
            events: events as u64,
            closed: false,
            history_complete: true,
            directives: Vec::new(),
            snapshot: rt.snapshot(),
        }
    }

    /// Every entry of `dir`, sorted by name.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn persist_load_roundtrip_and_recovery() {
        let dir = temp_dir("roundtrip");
        let (store, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 0);

        let rec = sample_record(3, 120);
        store.persist(&rec).unwrap();
        assert_eq!(store.session_counts(), (1, 0));
        assert_eq!(store.load(3).unwrap().unwrap(), rec);
        assert!(store.load(4).unwrap().is_none());

        // Reopen: full recovery from disk.
        drop(store);
        let (store, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 1);
        assert!(report.skipped.is_empty());
        assert_eq!(store.load(3).unwrap().unwrap(), rec);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repersist_overwrites_and_updates_manifest() {
        let dir = temp_dir("overwrite");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        store.persist(&sample_record(1, 40)).unwrap();
        let newer = StoreRecord {
            closed: true,
            ..sample_record(1, 80)
        };
        store.persist(&newer).unwrap();
        assert_eq!(store.session_counts(), (1, 1));
        assert_eq!(store.load(1).unwrap().unwrap().events, 80);

        let (store, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(store.session_counts(), (1, 1));
        assert_eq!(store.load(1).unwrap().unwrap(), newer);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_skipped_and_reported() {
        let dir = temp_dir("corrupt");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        store.persist(&sample_record(1, 40)).unwrap();
        store.persist(&sample_record(2, 40)).unwrap();
        drop(store);

        // Flip a byte in the middle of session 1's payload.
        let path = dir.join(record_file_name(1));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, bytes).unwrap();

        let (store, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].0, record_file_name(1));
        assert!(store.load(1).unwrap().is_none());
        assert!(store.load(2).unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_entries_never_fail_open_and_stay_untouched() {
        // An old build's `MANIFEST.json`, as a file of any bytes or as a
        // directory, is just another foreign entry: open recovers every
        // record around it, reports nothing about it, and leaves it be.
        for as_dir in [false, true] {
            let dir = temp_dir("foreign");
            let (store, _) = SnapshotStore::open(&dir).unwrap();
            store.persist(&sample_record(7, 40)).unwrap();
            store.persist(&sample_record(8, 24)).unwrap();
            drop(store);
            let foreign = dir.join("MANIFEST.json");
            if as_dir {
                fs::create_dir(&foreign).unwrap();
            } else {
                fs::write(&foreign, b"{definitely not json").unwrap();
            }

            let (store, report) = SnapshotStore::open(&dir).unwrap();
            assert_eq!(report.loaded, 2, "as_dir = {as_dir}");
            assert!(report.skipped.is_empty(), "{report:?}");
            assert!(store.load(7).unwrap().is_some());
            assert!(store.load(8).unwrap().is_some());
            store.persist(&sample_record(9, 40)).unwrap();
            drop(store);
            assert_eq!(foreign.is_dir(), as_dir);
            if !as_dir {
                assert_eq!(fs::read(&foreign).unwrap(), b"{definitely not json");
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn every_persist_of_a_long_run_succeeds() {
        // Each persist is one record write and reports only that write's
        // outcome, however many persists run and whatever else sits in
        // the directory: here a directory no file can be renamed over.
        let dir = temp_dir("long-run");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        fs::create_dir_all(dir.join("MANIFEST.json/held")).unwrap();
        for session in 0..70 {
            let rec = sample_record(session, 8);
            if session % 2 == 0 {
                store.persist_fast(&rec).unwrap();
            } else {
                store.persist(&rec).unwrap();
            }
        }
        drop(store);
        let (_, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 70);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_directory_holds_only_record_files() {
        let dir = temp_dir("only-records");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        assert!(listing(&dir).is_empty(), "open writes nothing");
        store.persist(&sample_record(2, 40)).unwrap();
        store.persist_fast(&sample_record(5, 40)).unwrap();
        drop(store);
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        drop(store);
        assert_eq!(listing(&dir), [record_file_name(2), record_file_name(5)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_tmp_files_are_cleaned() {
        let dir = temp_dir("tmp");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        store.persist(&sample_record(1, 40)).unwrap();
        drop(store);
        let stray = dir.join("sess-1.snap.tmp-999-0");
        fs::write(&stray, b"half a record").unwrap();

        let (_, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 1);
        assert!(!stray.exists(), "crashed writer's tmp file must be removed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_file_name_is_skipped() {
        let dir = temp_dir("mismatch");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        store.persist(&sample_record(1, 40)).unwrap();
        drop(store);
        // Copy session 1's record to a name claiming session 9.
        fs::copy(dir.join(record_file_name(1)), dir.join(record_file_name(9))).unwrap();

        let (store, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.skipped.len(), 1);
        assert!(store.load(9).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
