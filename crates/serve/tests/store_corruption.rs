//! Property tests for snapshot-store recovery: no byte content on disk
//! may ever panic `SnapshotStore::open` or `load` — corruption is
//! always detected, skipped, and reported. Plus the durability
//! keystone: a snapshot survives save → restore → save byte-for-byte,
//! so a rehydrated session persists records identical to the original's.

use ibp_core::{LaneDirective, PowerConfig, RankRuntime};
use ibp_serve::store::{record_file_name, MANIFEST_NAME};
use ibp_serve::{SnapshotStore, StoreRecord};
use ibp_simcore::SimDuration;
use ibp_trace::MpiCall;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ibp-store-prop-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A runtime that has really learned something, so records carry a
/// non-trivial snapshot, and the directives it issued.
fn trained_runtime(rank: u32, events: usize) -> (RankRuntime, Vec<LaneDirective>) {
    let mut rt = RankRuntime::new(rank, PowerConfig::default());
    let mut directives = Vec::new();
    for i in 0..events {
        let call = if i % 5 < 3 {
            MpiCall::Sendrecv
        } else {
            MpiCall::Allreduce
        };
        let gap = SimDuration::from_us(if i % 5 == 0 { 300 } else { 2 });
        directives.extend(rt.intercept(call, gap).directive);
    }
    (rt, directives)
}

fn sample_record(session: u32, events: usize) -> StoreRecord {
    let (rt, _) = trained_runtime(session, events);
    StoreRecord {
        record_version: ibp_serve::store::RECORD_VERSION,
        session,
        rank: session,
        events: events as u64,
        closed: false,
        history_complete: true,
        directives: Vec::new(),
        snapshot: rt.snapshot(),
    }
}

/// Assert that the store skips session `session`'s record with a reason
/// containing `why`, and that `restore` (the in-process rehydration or a
/// client's `Restore`) refuses it with a typed `BadSnapshot` whose
/// message contains `why` too.
fn assert_refused(
    dir: &std::path::Path,
    session: u32,
    why: &str,
    restore: Result<ibp_serve::Session, ibp_serve::ProtocolError>,
) {
    let (store, report) = SnapshotStore::open(dir).expect("open skips the record");
    assert_eq!(report.loaded, 0, "{report:?}");
    let (name, reason) = &report.skipped[0];
    assert_eq!(name, &record_file_name(session));
    assert!(reason.contains(why), "{reason}");
    assert!(store.load(session).unwrap().is_none());
    match restore {
        Err(ibp_serve::ProtocolError::BadSnapshot(msg)) => assert!(msg.contains(why), "{msg}"),
        Err(other) => panic!("expected BadSnapshot, got {other}"),
        Ok(_) => panic!("the record must not restore"),
    }
}

/// The `snapshot` entry of a serialized record.
fn snapshot_field(record: &mut serde::Value) -> &mut Vec<(String, serde::Value)> {
    let serde::Value::Map(fields) = record else {
        panic!("record serializes as an object");
    };
    match fields.iter_mut().find(|(k, _)| k == "snapshot") {
        Some((_, serde::Value::Map(snap))) => snap,
        _ => panic!("record has a snapshot object"),
    }
}

fn set_version(snap: &mut [(String, serde::Value)], version: u64) {
    for (k, v) in snap.iter_mut() {
        if k == "version" {
            *v = serde::Value::U64(version);
        }
    }
}

fn snapshot_bytes(record: &mut serde::Value) -> Vec<u8> {
    let snap = serde::Value::Map(snapshot_field(record).clone());
    serde_json::to_string(&snap).unwrap().into_bytes()
}

/// Reopen the store over mutated bytes and require calm behaviour:
/// `open` succeeds, the file is either loaded or reported skipped, and
/// `load` never panics. Returns whether the record survived.
fn recover_after(dir: &std::path::Path, session: u32, mutated: &[u8]) -> bool {
    std::fs::write(dir.join(record_file_name(session)), mutated).unwrap();
    let (store, report) = SnapshotStore::open(dir).expect("open never fails on corruption");
    let loaded = store.load(session).expect("load never fails on corruption");
    match &loaded {
        Some(r) => {
            assert_eq!(
                r.session, session,
                "a surviving record must be internally consistent"
            );
            assert_eq!(report.loaded, 1, "{report:?}");
        }
        None => {
            assert!(
                report
                    .skipped
                    .iter()
                    .any(|(name, _)| name == &record_file_name(session))
                    || report.loaded == 0,
                "dropped record must be accounted for: {report:?}"
            );
        }
    }
    loaded.is_some()
}

/// Write `payload` as a record file with a valid header (magic,
/// length, CRC), so only the JSON inside can be wrong.
fn write_record_payload(dir: &std::path::Path, session: u32, payload: &[u8]) {
    let mut bytes = ibp_serve::store::STORE_MAGIC.to_vec();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&ibp_serve::protocol::crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    std::fs::write(dir.join(record_file_name(session)), bytes).unwrap();
}

/// A record whose embedded snapshot has the version-2 layout (before
/// sleep depths became a rung set: `cfg.policy`, no `cfg.rungs`) is
/// skipped with a reason naming the snapshot version, not the first
/// field the old layout lacks.
#[test]
fn older_snapshot_layout_is_skipped_with_a_version_reason() {
    let dir = temp_dir("v2");
    std::fs::create_dir_all(&dir).unwrap();
    let json = serde_json::to_string(&sample_record(3, 40)).unwrap();
    let current = format!("\"version\":{}", ibp_core::SNAPSHOT_VERSION);
    assert_eq!(json.matches(&current).count(), 1, "{json}");
    assert_eq!(json.matches("\"rungs\":1").count(), 1, "{json}");
    let v2 = json
        .replace(&current, "\"version\":2")
        .replace("\"rungs\":1", "\"policy\":\"WidthReduction\"");
    write_record_payload(&dir, 3, v2.as_bytes());

    let (store, report) = SnapshotStore::open(&dir).expect("open skips the old record");
    assert_eq!(report.loaded, 0, "{report:?}");
    assert_eq!(report.skipped.len(), 1, "{report:?}");
    let (name, reason) = &report.skipped[0];
    assert_eq!(name, &record_file_name(3));
    assert!(
        reason.contains("version 2"),
        "reason must name the version: {reason}"
    );
    assert!(
        !reason.contains("missing field"),
        "version gate must run first: {reason}"
    );
    assert!(store.load(3).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record written before bounded records — its snapshot at version
/// 3, without the delivered-directive count and digest, its directive
/// list the whole history — is skipped with the snapshot version as
/// the reason, and the same snapshot sent in a `Restore` is a typed
/// `BadSnapshot`, never a panic.
#[test]
fn v3_snapshot_record_is_skipped_with_a_version_reason() {
    let dir = temp_dir("v3");
    std::fs::create_dir_all(&dir).unwrap();
    let (_, directives) = trained_runtime(6, 120);
    let mut record = serde::Serialize::to_value(&sample_record(6, 120));
    let serde::Value::Map(fields) = &mut record else {
        panic!("record serializes as an object");
    };
    for (key, value) in fields.iter_mut() {
        if key == "directives" {
            *value = serde::Serialize::to_value(&directives);
        }
    }
    let snap = snapshot_field(&mut record);
    snap.retain(|(k, _)| k != "directives_total" && k != "directives_digest");
    set_version(snap, 3);
    let v3 = serde_json::to_string(&record).unwrap();
    write_record_payload(&dir, 6, v3.as_bytes());

    let restore = ibp_serve::Session::restore(&snapshot_bytes(&mut record));
    assert_refused(&dir, 6, "snapshot version 3", restore);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record written before the two gram columns — its snapshot at
/// version 4, with a `grams` array of `{id, first_event, len,
/// preceding_idle}` instead of `gram_idle`, and a gram builder that
/// counts events — is skipped with the snapshot version as the reason,
/// and the same snapshot sent in a `Restore` is a typed `BadSnapshot`.
#[test]
fn v4_snapshot_record_is_skipped_with_a_version_reason() {
    let dir = temp_dir("v4");
    std::fs::create_dir_all(&dir).unwrap();
    let mut record = serde::Serialize::to_value(&sample_record(8, 120));
    let snap = snapshot_field(&mut record);
    let column =
        |snap: &[(String, serde::Value)], key: &str| match snap.iter().find(|(k, _)| k == key) {
            Some((_, serde::Value::Seq(v))) => v.clone(),
            _ => panic!("snapshot has a {key} array"),
        };
    let ids = column(snap, "gram_ids");
    let idle = column(snap, "gram_idle");
    assert!(!ids.is_empty(), "the trained runtime closed grams");
    let grams = ids
        .into_iter()
        .zip(idle)
        .enumerate()
        .map(|(i, (id, preceding_idle))| {
            serde::Value::Map(vec![
                ("id".into(), id),
                ("first_event".into(), serde::Value::U64(i as u64)),
                ("len".into(), serde::Value::U64(1)),
                ("preceding_idle".into(), preceding_idle),
            ])
        })
        .collect();
    snap.retain(|(k, _)| k != "gram_idle");
    snap.push(("grams".into(), serde::Value::Seq(grams)));
    for (k, v) in snap.iter_mut() {
        if let ("builder", serde::Value::Map(builder)) = (k.as_str(), v) {
            builder.push(("current_first_event".into(), serde::Value::U64(0)));
            builder.push(("next_event".into(), serde::Value::U64(120)));
        }
    }
    set_version(snap, 4);
    let v4 = serde_json::to_string(&record).unwrap();
    write_record_payload(&dir, 8, v4.as_bytes());

    let restore = ibp_serve::Session::restore(&snapshot_bytes(&mut record));
    assert_refused(&dir, 8, "snapshot version 4", restore);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A current-layout record whose undelivered directive tail is not
/// empty — no build writes one, so it is hostile input — is skipped on
/// recovery with a reason, and rehydrating it in process is a typed
/// `BadSnapshot`, never a panic.
#[test]
fn record_with_a_directive_tail_is_refused() {
    let dir = temp_dir("tail");
    std::fs::create_dir_all(&dir).unwrap();
    let (_, directives) = trained_runtime(9, 120);
    assert!(
        !directives.is_empty(),
        "the trained runtime issued directives"
    );
    let record = StoreRecord {
        directives,
        ..sample_record(9, 120)
    };
    let json = serde_json::to_string(&record).unwrap();
    write_record_payload(&dir, 9, json.as_bytes());

    let restore = ibp_serve::Session::restore_from_record(&record);
    assert_refused(&dir, 9, "undelivered directives", restore);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record from another record layout is skipped with the record
/// version, whatever fields that layout has.
#[test]
fn other_record_version_is_skipped_with_a_version_reason() {
    let dir = temp_dir("recv");
    std::fs::create_dir_all(&dir).unwrap();
    let json = serde_json::to_string(&sample_record(4, 24)).unwrap();
    let current = format!("\"record_version\":{}", ibp_serve::store::RECORD_VERSION);
    assert_eq!(json.matches(&current).count(), 1, "{json}");
    let other = json
        .replace(&current, "\"record_version\":9")
        .replace("\"history_complete\":", "\"history_digest\":");
    write_record_payload(&dir, 4, other.as_bytes());

    let (_, report) = SnapshotStore::open(&dir).expect("open skips the record");
    assert_eq!(report.loaded, 0, "{report:?}");
    let (_, reason) = &report.skipped[0];
    assert!(reason.contains("record version 9"), "{reason}");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// Truncating a valid record at any byte never panics recovery, and
    /// only the untouched full-length file can survive.
    #[test]
    fn truncation_never_panics_recovery(
        events in 8usize..96,
        cut in 0.0f64..1.0,
    ) {
        let dir = temp_dir("trunc");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        store.persist(&sample_record(1, events)).unwrap();
        drop(store);
        let bytes = std::fs::read(dir.join(record_file_name(1))).unwrap();
        let keep = ((bytes.len() as f64) * cut) as usize;
        let survived = recover_after(&dir, 1, &bytes[..keep]);
        prop_assert!(!survived || keep == bytes.len(), "truncated record must not load");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping arbitrary bits anywhere in a record never panics
    /// recovery; a flip in the payload or header is always caught.
    #[test]
    fn bit_flips_never_panic_recovery(
        events in 8usize..96,
        flips in proptest::collection::vec((0u32..u32::MAX, 0u8..8), 1..6),
    ) {
        let dir = temp_dir("flip");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        store.persist(&sample_record(2, events)).unwrap();
        drop(store);
        let mut bytes = std::fs::read(dir.join(record_file_name(2))).unwrap();
        let mut changed = false;
        for &(pos, bit) in &flips {
            let i = pos as usize % bytes.len();
            bytes[i] ^= 1 << bit;
            changed = true;
        }
        let survived = recover_after(&dir, 2, &bytes);
        // An odd number of flips at one position may cancel out across
        // entries, so only the must-not-panic half is unconditional;
        // still, a genuinely changed file surviving means the flips
        // cancelled — verify by re-reading.
        if survived && changed {
            let now = std::fs::read(dir.join(record_file_name(2))).unwrap();
            prop_assert_eq!(&now, &bytes);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pure byte soup under a record file name never panics recovery
    /// and never yields a record.
    #[test]
    fn byte_soup_never_panics_recovery(
        soup in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let dir = temp_dir("soup");
        std::fs::create_dir_all(&dir).unwrap();
        let survived = recover_after(&dir, 5, &soup);
        prop_assert!(!survived, "random bytes must never validate as a record");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arbitrary manifest corruption never panics recovery, never loses
    /// valid records, and is healed by the reopen.
    #[test]
    fn manifest_corruption_is_healed(
        soup in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let dir = temp_dir("manifest");
        let (store, _) = SnapshotStore::open(&dir).unwrap();
        store.persist(&sample_record(1, 24)).unwrap();
        store.persist(&sample_record(2, 48)).unwrap();
        drop(store);
        std::fs::write(dir.join(MANIFEST_NAME), &soup).unwrap();

        let (store, report) = SnapshotStore::open(&dir).expect("open survives manifest soup");
        prop_assert_eq!(report.loaded, 2);
        prop_assert!(store.load(1).unwrap().is_some());
        prop_assert!(store.load(2).unwrap().is_some());
        drop(store);

        // The reopen rewrote the manifest from the records.
        let (_, report) = SnapshotStore::open(&dir).expect("healed reopen");
        prop_assert!(report.manifest_ok, "{:?}", report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Save → restore → save is byte-stable: a restored runtime's
    /// snapshot serialises to exactly the bytes of the original's, for
    /// any training stream. This is what lets a rehydrated session
    /// persist records indistinguishable from the pre-crash server's.
    #[test]
    fn snapshot_save_restore_save_is_byte_stable(
        pattern in proptest::collection::vec((0u8..2, 0u8..3), 4..160),
    ) {
        let mut rt = RankRuntime::new(0, PowerConfig::default());
        for &(call, gap) in &pattern {
            let call = if call == 0 { MpiCall::Sendrecv } else { MpiCall::Allreduce };
            let gap = SimDuration::from_us(match gap { 0 => 2, 1 => 250, _ => 300 });
            rt.intercept(call, gap);
        }
        let snap = rt.snapshot();
        let first = serde_json::to_string(&snap).expect("snapshot serialises");
        let restored = RankRuntime::from_snapshot(&snap).expect("own snapshot restores");
        let second = serde_json::to_string(&restored.snapshot()).expect("re-snapshot serialises");
        prop_assert_eq!(&first, &second, "snapshot drifted across restore");
    }
}
