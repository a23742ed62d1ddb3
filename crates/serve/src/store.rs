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
//! One record file per session, `sess-<id>.snap`:
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
//! session delivered, not the directives), any undelivered directives,
//! and resume metadata, so a record does not grow with the session's
//! directive stream. A `MANIFEST.json` alongside the records summarises the
//! store for humans and fast listing; it is advisory — recovery trusts
//! only the records themselves and rewrites the manifest to match.
//!
//! ## Crash safety
//!
//! Every write (record or manifest) goes to a temporary file in the
//! same directory, is fsynced, and is then atomically renamed over the
//! target; the directory is fsynced after the rename. A reader
//! therefore sees either the old record or the new one, never a torn
//! write. Recovery is corruption-tolerant by construction: a record
//! that fails any check (magic, length, CRC, JSON, version) is skipped
//! and reported in the [`RecoveryReport`], never panicked on —
//! property-tested against arbitrary truncation and bit flips in
//! `tests/store_corruption.rs`.

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

/// Manifest file name inside the store directory.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

const RECORD_HEADER_LEN: usize = 12; // magic + len + crc

/// Persists between manifest rewrites. The manifest is advisory (open
/// rebuilds it from the records), so batching its rewrite is safe: a
/// crash at worst leaves it up to this many persists stale, which the
/// next open reports as `manifest_ok: false` and heals. At 100k
/// sessions a per-persist rewrite would serialise every eviction
/// behind an O(sessions) JSON dump + fsync.
const MANIFEST_BATCH: u64 = 64;

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
    /// record was written, in event order — normally none, since every
    /// batch reply delivers what the batch issued. A rehydrated session
    /// sends them with its next reply.
    pub directives: Vec<LaneDirective>,
    /// The engine's full learned state.
    pub snapshot: RuntimeSnapshot,
}

/// In-memory index entry for one recovered or persisted session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreEntry {
    /// The rank the session annotates.
    pub rank: u32,
    /// Events applied at the last persist.
    pub events: u64,
    /// Whether the session closed cleanly.
    pub closed: bool,
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
    /// Whether the manifest parsed and agreed with the records. A false
    /// here is informational — the manifest is advisory and has been
    /// rewritten from the records either way.
    pub manifest_ok: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestEntry {
    session: u32,
    rank: u32,
    events: u64,
    closed: bool,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    sessions: Vec<ManifestEntry>,
}

/// Distinguishes concurrent writers' temporary files (multiple worker
/// threads may persist different sessions at once).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of crash-safe session records. Cheap to share behind an
/// `Arc`; all methods take `&self`.
///
/// The index mutex serialises persists. The manifest rewrite is
/// batched — every `MANIFEST_BATCH` (64) persists, on
/// [`SnapshotStore::flush_manifest`], and on drop — so steady-state
/// eviction traffic pays one record write per persist, not an
/// O(sessions) manifest dump too.
pub struct SnapshotStore {
    dir: PathBuf,
    index: Mutex<HashMap<u32, StoreEntry>>,
    /// Persists since the last manifest rewrite. Only mutated under
    /// the index lock; atomic so `flush_manifest` works on `&self`.
    dirty_persists: AtomicU64,
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
        let mut report = RecoveryReport {
            manifest_ok: true,
            ..RecoveryReport::default()
        };
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
                    index.insert(session, entry_of(&record));
                    report.loaded += 1;
                }
                Err(reason) => report.skipped.push((name, reason)),
            }
        }

        // The manifest is advisory: parse it for the report, then
        // rewrite it from the records (healing any corruption).
        match fs::read(dir.join(MANIFEST_NAME)) {
            Ok(bytes) => match std::str::from_utf8(&bytes)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str::<Manifest>(s).map_err(|e| e.to_string()))
            {
                Ok(m) => {
                    let agrees = m.sessions.len() == index.len()
                        && m.sessions.iter().all(|e| {
                            index.get(&e.session).is_some_and(|ix| {
                                ix.rank == e.rank && ix.events == e.events && ix.closed == e.closed
                            })
                        });
                    report.manifest_ok = agrees;
                }
                Err(e) => {
                    report.manifest_ok = false;
                    report
                        .skipped
                        .push((MANIFEST_NAME.into(), format!("manifest unreadable: {e}")));
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                report.manifest_ok = index.is_empty();
            }
            Err(e) => return Err(e),
        }

        let store = SnapshotStore {
            dir: dir.to_path_buf(),
            index: Mutex::new(index),
            dirty_persists: AtomicU64::new(0),
        };
        store.write_manifest(&store.lock_index())?;
        Ok((store, report))
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of sessions currently indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock_index().len()
    }

    /// Whether the store holds no sessions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Metadata for one session, if stored.
    #[must_use]
    pub fn entry(&self, session: u32) -> Option<StoreEntry> {
        self.lock_index().get(&session).cloned()
    }

    /// All stored sessions, ascending by id.
    #[must_use]
    pub fn sessions(&self) -> Vec<(u32, StoreEntry)> {
        let mut v: Vec<_> = self
            .lock_index()
            .iter()
            .map(|(&s, e)| (s, e.clone()))
            .collect();
        v.sort_by_key(|&(s, _)| s);
        v
    }

    /// Atomically persist `record`, replacing any previous record for
    /// the session, and update the manifest.
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
        // of the same session cannot interleave their rename+manifest
        // steps.
        let mut index = self.lock_index();
        self.write_atomic_with(&record_file_name(record.session), &bytes, sync)?;
        index.insert(record.session, entry_of(record));
        if self.dirty_persists.fetch_add(1, Ordering::Relaxed) + 1 >= MANIFEST_BATCH {
            self.dirty_persists.store(0, Ordering::Relaxed);
            self.write_manifest(&index)?;
        }
        Ok(())
    }

    /// Rewrite the manifest now if any persists landed since the last
    /// rewrite. Called on server drain (and from `Drop`) so a clean
    /// shutdown always leaves the manifest in agreement with the
    /// records; a no-op when nothing is pending.
    pub fn flush_manifest(&self) -> io::Result<()> {
        let index = self.lock_index();
        if self.dirty_persists.swap(0, Ordering::Relaxed) == 0 {
            return Ok(());
        }
        self.write_manifest(&index)
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

    fn lock_index(&self) -> std::sync::MutexGuard<'_, HashMap<u32, StoreEntry>> {
        // A panic while holding the lock leaves the map itself intact
        // (all mutations are single insert/remove calls), so poisoning
        // carries no information here.
        self.index.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn write_manifest(&self, index: &HashMap<u32, StoreEntry>) -> io::Result<()> {
        let mut sessions: Vec<ManifestEntry> = index
            .iter()
            .map(|(&session, e)| ManifestEntry {
                session,
                rank: e.rank,
                events: e.events,
                closed: e.closed,
            })
            .collect();
        sessions.sort_by_key(|e| e.session);
        let manifest = Manifest {
            version: RECORD_VERSION,
            sessions,
        };
        let bytes = serde_json::to_string(&manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            .into_bytes();
        self.write_atomic(MANIFEST_NAME, &bytes)
    }

    /// tmp + fsync + rename + dir fsync: the target name only ever
    /// points at a complete, flushed file.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.write_atomic_with(name, bytes, true)
    }

    /// [`write_atomic`](Self::write_atomic) with the fsyncs made
    /// optional (`sync: false` is the pager's fast path — rename-atomic
    /// but page-cache-durable only).
    fn write_atomic_with(&self, name: &str, bytes: &[u8], sync: bool) -> io::Result<()> {
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

impl Drop for SnapshotStore {
    fn drop(&mut self) {
        // Best-effort: the manifest is advisory, and open() heals a
        // stale one, so a failed flush here loses nothing.
        let _ = self.flush_manifest();
    }
}

fn entry_of(record: &StoreRecord) -> StoreEntry {
    StoreEntry {
        rank: record.rank,
        events: record.events,
        closed: record.closed,
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
    if record.events != record.snapshot.event_idx as u64 {
        return Err(format!(
            "resume position {} disagrees with snapshot event index {}",
            record.events, record.snapshot.event_idx
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
            directives: rt.directives().to_vec(),
            snapshot: rt.snapshot(),
        }
    }

    #[test]
    fn persist_load_roundtrip_and_recovery() {
        let dir = temp_dir("roundtrip");
        let (store, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 0);
        assert!(report.manifest_ok);

        let rec = sample_record(3, 120);
        store.persist(&rec).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.load(3).unwrap().unwrap(), rec);
        assert!(store.load(4).unwrap().is_none());

        // Reopen: full recovery from disk.
        drop(store);
        let (store, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 1);
        assert!(report.skipped.is_empty());
        assert!(report.manifest_ok, "manifest should match the records");
        assert_eq!(store.load(3).unwrap().unwrap(), rec);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repersist_overwrites_and_updates_manifest() {
        let dir = temp_dir("overwrite");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        store.persist(&sample_record(1, 40)).unwrap();
        let newer = sample_record(1, 80);
        store.persist(&newer).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.entry(1).unwrap().events, 80);

        let (store, report) = SnapshotStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(store.load(1).unwrap().unwrap().events, 80);
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
    fn garbage_manifest_is_healed() {
        let dir = temp_dir("manifest");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        store.persist(&sample_record(7, 40)).unwrap();
        drop(store);
        fs::write(dir.join(MANIFEST_NAME), b"{definitely not json").unwrap();

        let (store, report) = SnapshotStore::open(&dir).unwrap();
        assert!(!report.manifest_ok);
        assert_eq!(report.loaded, 1);
        assert!(store.load(7).unwrap().is_some());

        // The reopen rewrote the manifest; a third open sees it clean.
        drop(store);
        let (_, report) = SnapshotStore::open(&dir).unwrap();
        assert!(report.manifest_ok);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_rewrite_is_deferred_until_flush() {
        let dir = temp_dir("batch");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        store.persist(&sample_record(5, 40)).unwrap();
        // Below the batch threshold: the on-disk manifest still shows
        // the empty store open() wrote.
        let manifest: Manifest =
            serde_json::from_str(&fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap()).unwrap();
        assert!(
            manifest.sessions.is_empty(),
            "manifest rewrite must be deferred"
        );

        store.flush_manifest().unwrap();
        let manifest: Manifest =
            serde_json::from_str(&fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap()).unwrap();
        assert_eq!(manifest.sessions.len(), 1);
        assert_eq!(manifest.sessions[0].session, 5);

        // Dropping the store flushes too: a second persist then drop
        // leaves the manifest in agreement on reopen.
        store.persist(&sample_record(6, 24)).unwrap();
        drop(store);
        let (_, report) = SnapshotStore::open(&dir).unwrap();
        assert!(report.manifest_ok, "{report:?}");
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
        assert!(store.entry(9).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
