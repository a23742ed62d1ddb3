//! Fuzz-style decode tests: the frame decoders are *total* — arbitrary
//! byte soup must always return `Ok` or a typed error, never panic —
//! and structured frames survive an encode/decode round trip bit-for-bit.

use ibp_serve::protocol::{decode_client, decode_server, read_frame, ClientFrame};
use ibp_serve::{ObsReport, ServerFrame, SessionProbe};
use ibp_core::{LaneDirective, RankStats, SleepKind};
use ibp_simcore::SimDuration;
use ibp_trace::MpiCall;
use proptest::prelude::*;

/// `len` wire events, each with a mapped call id and a gap below
/// `max_gap`.
fn valid_events(
    len: std::ops::Range<usize>,
    max_gap: u64,
) -> impl Strategy<Value = Vec<(u16, u64)>> {
    proptest::collection::vec((0..MpiCall::ALL.len(), 0u64..max_gap), len).prop_map(|raw| {
        raw.into_iter()
            .map(|(i, gap)| (MpiCall::ALL[i].id(), gap))
            .collect()
    })
}

proptest! {
    /// Arbitrary payload bytes never panic either decoder.
    #[test]
    fn decoders_are_total_on_byte_soup(
        payload in proptest::collection::vec(0u8..=255, 0..512)
    ) {
        let _ = decode_client(&payload);
        let _ = decode_server(&payload);
    }

    /// Byte soup with a *valid leading kind byte* still never panics —
    /// this drives the per-kind body parsers rather than dying at the
    /// unknown-kind check.
    #[test]
    fn decoders_are_total_with_valid_kinds(
        kind_idx in 0usize..14,
        body in proptest::collection::vec(0u8..=255, 0..256)
    ) {
        let kinds = [
            0x01u8, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0xEF,
        ];
        let mut payload = vec![kinds[kind_idx]];
        payload.extend_from_slice(&body);
        let _ = decode_client(&payload);
        let _ = decode_server(&payload);
    }

    /// Events frames round-trip for any batch of mapped call ids.
    #[test]
    fn events_roundtrip(
        session in 0u32..u32::MAX,
        events in valid_events(0..200, u64::MAX)
    ) {
        let frame = ClientFrame::Events { session, events };
        let back = decode_client(&frame.encode()).expect("valid frame decodes");
        prop_assert_eq!(back, frame);
    }

    /// Directives frames round-trip for any directive content.
    #[test]
    fn directives_roundtrip(
        session in 0u32..u32::MAX,
        applied in 0u64..u64::MAX,
        raw in proptest::collection::vec(
            (0u64..1_000_000, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2, 0u8..2),
            0..64
        )
    ) {
        let directives: Vec<LaneDirective> = raw
            .iter()
            .map(|&(after, delay, timer, idle, kind)| LaneDirective {
                after_event: after as usize,
                delay: SimDuration::from_ns(delay),
                timer: SimDuration::from_ns(timer),
                predicted_idle: SimDuration::from_ns(idle),
                kind: if kind == 0 { SleepKind::Wrps } else { SleepKind::Deep },
            })
            .collect();
        let frame = ServerFrame::Directives { session, events_applied: applied, directives };
        let back = decode_server(&frame.encode()).expect("valid frame decodes");
        prop_assert_eq!(back, frame);
    }

    /// Truncating any valid client frame at any point yields an error,
    /// not a panic and not a bogus success.
    #[test]
    fn truncation_never_decodes(
        cut_fraction in 0.0f64..1.0,
        events in valid_events(1..50, 1_000_000)
    ) {
        let frame = ClientFrame::Events { session: 1, events };
        let payload = frame.encode();
        let cut = ((payload.len() - 1) as f64 * cut_fraction) as usize;
        prop_assert!(decode_client(&payload[..cut]).is_err());
    }

    /// `Query` round-trips for every session id — including the
    /// reserved fleet-query id `u32::MAX`, which `Query` alone among
    /// client frames is allowed to carry.
    #[test]
    fn query_roundtrip(session in 0u32..=u32::MAX) {
        let frame = ClientFrame::Query { session };
        let back = decode_client(&frame.encode()).expect("valid frame decodes");
        prop_assert_eq!(back, frame);
    }

    /// `QueryReply` round-trips with arbitrary counter values and any
    /// number of (busy) session probes, and truncating the encoding at
    /// any point errors instead of panicking or half-decoding.
    #[test]
    fn query_reply_roundtrip_and_truncation(
        session in 0u32..=u32::MAX,
        live in 0u32..10_000,
        probes in 0u32..8,
        cut_fraction in 0.0f64..1.0
    ) {
        let mut report = ObsReport::default();
        report.server.sessions_live = live;
        report.sessions = (0..probes).map(|i| SessionProbe::busy(i, i * 2, i)).collect();
        let frame = ServerFrame::QueryReply { session, report: Box::new(report) };
        let payload = frame.encode();
        let back = decode_server(&payload).expect("valid frame decodes");
        prop_assert_eq!(back, frame);
        let cut = ((payload.len() - 1) as f64 * cut_fraction) as usize;
        prop_assert!(decode_server(&payload[..cut]).is_err());
    }

    /// `read_frame` on arbitrary bytes never panics and never returns a
    /// payload longer than the cap.
    #[test]
    fn read_frame_is_total(
        bytes in proptest::collection::vec(0u8..=255, 0..64)
    ) {
        let mut r = &bytes[..];
        if let Ok(Some(payload)) = read_frame(&mut r) {
            prop_assert!(payload.len() <= ibp_serve::protocol::MAX_FRAME_LEN as usize);
        }
    }
}

#[test]
fn stats_and_closed_roundtrip_default_stats() {
    let stats = RankStats::default();
    let f = ServerFrame::Stats { session: 3, stats: Box::new(stats.clone()) };
    assert_eq!(decode_server(&f.encode()).unwrap(), f);
    let f = ServerFrame::Closed { session: 3, directives_total: 0, stats: Box::new(stats) };
    assert_eq!(decode_server(&f.encode()).unwrap(), f);
}
