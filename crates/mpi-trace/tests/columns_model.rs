//! `EventColumns` against its reference model, the plain
//! `Vec<TraceEvent>` it replaced: random record sequences over every
//! `MpiOp` variant, with request ids drawn from the whole `u32` range as
//! well as from a few small values (so ids repeat, collide and run
//! backwards), must behave identically under every operation the two
//! share.

use ibp_simcore::SimDuration;
use ibp_trace::{EventColumns, MpiOp, TraceEvent};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::Serialize;

/// Raw material of one record: variant, request id mode, a rank, a
/// payload, a request id, a `Waitall` id list, a compute burst.
type RawEvent = (u8, u8, u32, u64, u32, Vec<u32>, u64);

fn raw_events() -> impl Strategy<Value = Vec<RawEvent>> {
    vec(
        (
            0u8..13,
            0u8..3,
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            vec(any::<u32>(), 0..6),
            0u64..1_000_000,
        ),
        0..120,
    )
}

/// Ids from the whole range (mode 0), from `0..8` (mode 1), or counted
/// down from the top (mode 2), so posts and waits both wrap.
fn id(mode: u8, raw: u32) -> u32 {
    match mode {
        0 => raw,
        1 => raw % 8,
        _ => u32::MAX - raw % 8,
    }
}

fn event(raw: &RawEvent) -> TraceEvent {
    let &(variant, mode, peer, bytes, req, ref reqs, compute_ns) = raw;
    let req = id(mode, req);
    let op = match variant {
        0 => MpiOp::Send { to: peer, bytes },
        1 => MpiOp::Recv { from: peer, bytes },
        2 => MpiOp::Isend {
            to: peer,
            bytes,
            req,
        },
        3 => MpiOp::Irecv {
            from: peer,
            bytes,
            req,
        },
        4 => MpiOp::Wait { req },
        5 => MpiOp::Waitall {
            reqs: reqs.iter().map(|&r| id(mode, r)).collect(),
        },
        6 => MpiOp::Sendrecv {
            to: peer,
            send_bytes: bytes,
            from: peer.rotate_left(7),
            recv_bytes: bytes / 3,
        },
        7 => MpiOp::Barrier,
        8 => MpiOp::Bcast { root: peer, bytes },
        9 => MpiOp::Reduce { root: peer, bytes },
        10 => MpiOp::Allreduce { bytes },
        11 => MpiOp::Allgather { bytes },
        _ => MpiOp::Alltoall { bytes },
    };
    TraceEvent {
        compute_before: SimDuration::from_ns(compute_ns),
        op,
    }
}

/// Build both representations by pushing the same records (`Waitall`s
/// through `push_waitall`; the `from_iter` and deserialize checks below
/// push them whole).
fn both(raw: &[RawEvent]) -> (Vec<TraceEvent>, EventColumns) {
    let model: Vec<TraceEvent> = raw.iter().map(event).collect();
    let mut cols = EventColumns::new();
    for e in &model {
        match &e.op {
            MpiOp::Waitall { reqs } => cols.push_waitall(e.compute_before, reqs),
            _ => cols.push(e.clone()),
        }
    }
    (model, cols)
}

/// Decode `cols`' records from `op_ids` and the relative `table`, as
/// its documentation says.
fn decode_table(cols: &EventColumns) -> Vec<MpiOp> {
    let mut posts = 0u32;
    cols.op_ids()
        .iter()
        .map(|&i| {
            let mut op = cols.table()[i as usize].clone();
            match &mut op {
                MpiOp::Isend { req, .. } | MpiOp::Irecv { req, .. } => {
                    *req = req.wrapping_add(posts);
                    posts = posts.wrapping_add(1);
                }
                MpiOp::Wait { req } => *req = posts.wrapping_sub(*req),
                MpiOp::Waitall { reqs } => {
                    reqs.iter_mut().for_each(|r| *r = posts.wrapping_sub(*r))
                }
                _ => {}
            }
            op
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `push` then `len`, `iter`, the decoded table, the accessors, `clone`,
    /// `==`, `Debug` and the serialized value all match the model.
    #[test]
    fn columns_match_the_record_vector(raw in raw_events()) {
        let (model, cols) = both(&raw);
        prop_assert_eq!(cols.len(), model.len());
        prop_assert_eq!(cols.is_empty(), model.is_empty());
        prop_assert_eq!(cols.iter().collect::<Vec<_>>(), model.clone());
        prop_assert_eq!(cols.iter().len(), model.len());
        prop_assert_eq!(
            decode_table(&cols),
            model.iter().map(|e| e.op.clone()).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            cols.calls().collect::<Vec<_>>(),
            model.iter().map(|e| e.op.call()).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            cols.compute().to_vec(),
            model.iter().map(|e| e.compute_before).collect::<Vec<_>>()
        );
        let copy = cols.clone();
        prop_assert!(copy == cols);
        prop_assert_eq!(copy.iter().collect::<Vec<_>>(), model.clone());
        prop_assert_eq!(format!("{cols:?}"), format!("{model:?}"));
        prop_assert_eq!(cols.to_value(), model.to_value());
        prop_assert_eq!(
            serde_json::to_string(&cols).unwrap(),
            serde_json::to_string(&model).unwrap()
        );
        let back: EventColumns = serde_json::from_str(&serde_json::to_string(&model).unwrap()).unwrap();
        prop_assert!(back == cols);
        prop_assert!(model.iter().cloned().collect::<EventColumns>() == cols);
    }

    /// `extend_from_slice` matches `Vec` concatenation, including a
    /// sequence appended to itself (the same ids posted twice).
    #[test]
    fn extend_matches_concatenation(a in raw_events(), b in raw_events()) {
        let (mut model, mut cols) = both(&a);
        let (model_b, cols_b) = both(&b);
        cols.extend_from_slice(&cols_b);
        model.extend_from_slice(&model_b);
        prop_assert_eq!(cols.iter().collect::<Vec<_>>(), model.clone());
        let copy = cols.clone();
        cols.extend_from_slice(&copy);
        model.extend_from_slice(&model.clone());
        prop_assert_eq!(cols.iter().collect::<Vec<_>>(), model.clone());
        prop_assert!(cols == model.iter().cloned().collect::<EventColumns>());
        prop_assert_eq!(cols.to_value(), model.to_value());
    }

    /// `==` is the model's `==`: sequences that differ anywhere compare
    /// unequal, however their tables were built.
    #[test]
    fn equality_matches_the_model(a in raw_events(), b in raw_events(), cut in 0usize..120) {
        let (model_a, cols_a) = both(&a);
        let (model_b, cols_b) = both(&b);
        prop_assert_eq!(cols_a == cols_b, model_a == model_b);
        // Same length, every burst zero: only the ops can differ.
        let n = a.len().min(b.len());
        let ops_only = |raw: &[RawEvent]| -> Vec<RawEvent> {
            raw[..n].iter().map(|r| (r.0, r.1, r.2, r.3, r.4, r.5.clone(), 0)).collect()
        };
        let (model_a0, cols_a0) = both(&ops_only(&a));
        let (model_b0, cols_b0) = both(&ops_only(&b));
        prop_assert_eq!(cols_a0 == cols_b0, model_a0 == model_b0);
        prop_assert!(cols_a0 == both(&ops_only(&a)).1);
        // A prefix of `a` built by pushing, against the same prefix
        // joined from two halves (whose table interns the second half's
        // entries after the whole first half's).
        let cut = cut.min(a.len());
        let (_, prefix) = both(&a[..cut]);
        let (_, mut joined) = both(&a[..cut / 2]);
        joined.extend_from_slice(&both(&a[cut / 2..cut]).1);
        prop_assert!(joined == prefix);
        prop_assert_eq!(prefix == cols_a, cut == a.len());
    }
}
