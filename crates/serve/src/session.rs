//! One streaming prediction session: a [`RankRuntime`] fed incrementally
//! by event batches, with snapshot/restore for reconnecting clients.

use crate::metrics::SessionProbe;
use crate::protocol::{ProtocolError, WireEvent};
use crate::store::StoreRecord;
use ibp_core::{
    DirectiveDigest, LaneDirective, PowerConfig, RankRuntime, RankStats, RuntimeSnapshot, SleepKind,
};
use ibp_network::{IbGeneration, LinkPower};
use ibp_simcore::SimDuration;
use ibp_trace::MpiCall;

/// A live prediction engine for one simulated rank.
///
/// Wraps [`RankRuntime`] with the bookkeeping the server needs: each
/// batch response carries the directives the batch's intercepts
/// returned (the runtime keeps only their count and digest, for
/// resuming clients) and translation from wire events to the typed
/// intercept API. Unknown Paraver call ids degrade to `Send` —
/// the predictor keys on call identity, and an id outside the trace
/// vocabulary still forms stable grams, so a shim linked against a newer
/// MPI can stream without a protocol upgrade.
pub struct Session {
    /// The rank this session annotates (for labeling; the runtime also
    /// knows it).
    pub rank: u32,
    runtime: RankRuntime,
    events_since_persist: u64,
}

impl Session {
    /// Open a fresh session learning from scratch.
    #[must_use]
    pub fn open(rank: u32, cfg: PowerConfig) -> Self {
        Session::with_runtime(rank, RankRuntime::new(rank, cfg))
    }

    fn with_runtime(rank: u32, runtime: RankRuntime) -> Self {
        Session {
            rank,
            runtime,
            events_since_persist: 0,
        }
    }

    /// Open a session from a snapshot: the engine resumes prediction
    /// with all learned state intact, including the count and digest
    /// of the directives delivered before the snapshot, and reports
    /// only directives issued after the restore point.
    pub fn restore(snapshot: &[u8]) -> Result<Self, ProtocolError> {
        let snap = RuntimeSnapshot::from_json_bytes(snapshot)
            .map_err(|e| ProtocolError::BadSnapshot(e.to_string()))?;
        let runtime = RankRuntime::from_snapshot(&snap)
            .map_err(|e| ProtocolError::BadSnapshot(e.to_string()))?;
        Ok(Session::with_runtime(snap.rank, runtime))
    }

    /// Rehydrate a session from a durable [`StoreRecord`]: the engine
    /// resumes at the record's event position. A session delivers every
    /// directive with the batch that issued it, so a record carrying an
    /// undelivered tail was not written by this build and is refused.
    pub fn restore_from_record(record: &StoreRecord) -> Result<Self, ProtocolError> {
        if !record.directives.is_empty() {
            return Err(ProtocolError::BadSnapshot(format!(
                "record carries {} undelivered directives; records hold none",
                record.directives.len()
            )));
        }
        let runtime = RankRuntime::from_snapshot(&record.snapshot)
            .map_err(|e| ProtocolError::BadSnapshot(e.to_string()))?;
        Ok(Session::with_runtime(record.snapshot.rank, runtime))
    }

    /// Apply one batch of wire events through the allocation-free
    /// intercept hot path and return the directives it produced.
    ///
    /// Total: a call id [`MpiCall::from_id`] does not map is applied as
    /// `MPI_Send` rather than panicking. Wire traffic never carries one
    /// ([`crate::protocol::decode_client`] rejects the frame), so only an
    /// in-process caller can pass it.
    pub fn apply(&mut self, events: &[WireEvent]) -> (u64, Vec<LaneDirective>) {
        let mut directives = Vec::new();
        for &(call_id, gap_ns) in events {
            let call = MpiCall::from_id(call_id).unwrap_or(MpiCall::Send);
            let out = self.runtime.intercept(call, SimDuration::from_ns(gap_ns));
            directives.extend(out.directive);
        }
        self.events_since_persist += events.len() as u64;
        (self.runtime.events_seen() as u64, directives)
    }

    /// Cumulative statistics so far.
    #[must_use]
    pub fn stats(&self) -> RankStats {
        self.runtime.stats().clone()
    }

    /// Serialise the engine's full learned state (JSON wire form).
    #[must_use]
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.runtime.snapshot().to_json_bytes()
    }

    /// Count and digest of every directive delivered over the
    /// session's lifetime, from event 0 and across restores: what a
    /// store rehydration answers instead of replaying the directives.
    /// Every directive is delivered with the batch that issued it, so
    /// these are the runtime's issued count and digest.
    #[must_use]
    pub fn delivered(&self) -> DirectiveDigest {
        self.runtime.issued()
    }

    /// Events applied so far.
    #[must_use]
    pub fn events_applied(&self) -> u64 {
        self.runtime.events_seen() as u64
    }

    /// Events applied since the last durable persist; the caller resets
    /// it when it persists.
    #[must_use]
    pub fn events_since_persist(&self) -> u64 {
        self.events_since_persist
    }

    /// Mark a durable persist as done.
    pub fn mark_persisted(&mut self) {
        self.events_since_persist = 0;
    }

    /// The directives issued but not yet delivered — the tail a
    /// [`StoreRecord`] carries: always empty, since [`Session::apply`]
    /// delivers everything it issues (the delivered ones live on as
    /// [`Session::delivered`]'s count and digest). Kept, with
    /// [`Session::history_complete`], for the benchmark harness that
    /// builds records from a session.
    #[must_use]
    pub fn history(&self) -> Vec<LaneDirective> {
        Vec::new()
    }

    /// Always true: every session carries the count and digest of its
    /// directives from event 0, whether it was opened, restored from a
    /// client's snapshot or rehydrated (see
    /// [`StoreRecord::history_complete`]). Kept for the benchmark
    /// harness, like [`Session::history`].
    #[must_use]
    pub fn history_complete(&self) -> bool {
        true
    }

    /// The engine's full learned state in typed form (the store's
    /// record body; [`Session::snapshot_bytes`] is the wire form).
    #[must_use]
    pub fn snapshot(&self) -> RuntimeSnapshot {
        self.runtime.snapshot()
    }

    /// Depth of the engine's armed (pending) sleep directive, `None`
    /// when the link is at full power. The worker loop diffs this
    /// across `apply` to keep the per-depth fleet gauge current.
    #[must_use]
    pub fn pending_depth(&self) -> Option<SleepKind> {
        self.runtime.pending_sleep().map(|(k, _)| k)
    }

    /// Sample the engine's live state into a [`SessionProbe`] — the
    /// per-link row `ibpower stat`/`top` render. Read-only: probing
    /// never advances the engine or touches its learned state.
    #[must_use]
    pub fn probe(&self, session_id: u32, mailbox_depth: u32) -> SessionProbe {
        let stats = self.runtime.stats();
        let sleep_depth = self.pending_depth();
        let power_state = LinkPower::from_pending_sleep(sleep_depth);
        let phase = self.runtime.pattern_phase();
        let (recent_pattern, recent_timing) = self.runtime.resilience_windows();
        SessionProbe {
            session: session_id,
            rank: self.rank,
            busy: false,
            events_applied: self.runtime.events_seen() as u64,
            directives_sent: self.runtime.issued().count,
            predicting: self.runtime.predicting(),
            power_state,
            // The serve stack models the paper's link; derive its
            // generation from the full-width rate so a future
            // generation-parametric server reports the right name.
            generation: IbGeneration::from_rate_gbps(LinkPower::Full.speed_gbps()),
            sleep_depth,
            lane_width: power_state.lane_width(),
            pattern_slot: phase.map(|(slot, _, _)| slot as u32),
            pattern_progress: phase.map(|(_, progress, _)| progress as u32),
            pattern_slots: phase.map(|(_, _, slots)| slots as u32),
            predicted_idle_ns: self.runtime.predicted_horizon().map(|d| d.as_ns()),
            sleep_timer_ns: self.runtime.pending_sleep().map(|(_, t)| t.as_ns()),
            pattern_mispredictions: stats.pattern_mispredictions,
            timing_mispredictions: stats.timing_mispredictions,
            recent_pattern_window: recent_pattern as u32,
            recent_timing_window: recent_timing as u32,
            holdoff_remaining: self.runtime.holdoff_remaining(),
            guard_band: self.runtime.guard_band(),
            storms: stats.storms,
            mailbox_depth,
        }
    }

    /// Finish the stream (trailing compute time) and return the final
    /// accounting: the directives left to send (always none: finishing
    /// issues no directive; the shape is kept for the benchmark
    /// harness), the lifetime total, and final stats.
    #[must_use]
    pub fn close(self, final_compute_ns: u64) -> (Vec<LaneDirective>, u64, RankStats) {
        let total = self.runtime.issued().count;
        let stats = self.runtime.finish(SimDuration::from_ns(final_compute_ns));
        (Vec::new(), total, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_core::annotate_rank;
    use ibp_workloads::{Alya, Workload};

    fn sample_stream() -> (Vec<WireEvent>, u64, ibp_trace::Trace) {
        let trace = Alya {
            iterations: 40,
            ..Default::default()
        }
        .generate(4, 1);
        let events: Vec<WireEvent> = trace.ranks[0]
            .call_stream()
            .map(|(call, gap)| (call.id(), gap.as_ns()))
            .collect();
        let final_compute = trace.ranks[0].final_compute.as_ns();
        (events, final_compute, trace)
    }

    #[test]
    fn streamed_batches_match_offline_annotation() {
        let (events, final_compute, trace) = sample_stream();
        let cfg = PowerConfig::default();
        let golden = annotate_rank(&trace.ranks[0], &cfg);

        let mut sess = Session::open(0, cfg);
        let mut streamed = Vec::new();
        for batch in events.chunks(7) {
            let (_, fresh) = sess.apply(batch);
            streamed.extend(fresh);
        }
        let (last, total, stats) = sess.close(final_compute);
        streamed.extend(last);

        assert_eq!(streamed, golden.directives);
        assert_eq!(total as usize, golden.directives.len());
        assert_eq!(stats, golden.stats);
    }

    #[test]
    fn snapshot_restore_mid_stream_is_transparent() {
        let (events, final_compute, trace) = sample_stream();
        let cfg = PowerConfig::default();
        let golden = annotate_rank(&trace.ranks[0], &cfg);

        let split = events.len() / 2;
        let mut first = Session::open(0, cfg);
        let mut streamed = Vec::new();
        streamed.extend(first.apply(&events[..split]).1);
        let snap = first.snapshot_bytes();
        drop(first); // connection lost

        let mut second = Session::restore(&snap).expect("restore");
        assert_eq!(second.rank, 0);
        streamed.extend(second.apply(&events[split..]).1);
        let (last, _, stats) = second.close(final_compute);
        streamed.extend(last);

        assert_eq!(streamed, golden.directives);
        assert_eq!(stats, golden.stats);
    }

    /// A store record carries only the undelivered tail, so its
    /// directive list stays empty however many events the session
    /// applies; the snapshot's count and digest stand for what was
    /// delivered, across a client-snapshot restore too.
    #[test]
    fn record_directives_do_not_grow_with_the_stream() {
        let (events, final_compute, trace) = sample_stream();
        let golden = annotate_rank(&trace.ranks[0], &PowerConfig::default());
        let mut sess = Session::open(0, PowerConfig::default());
        let mut streamed = Vec::new();
        for (i, batch) in events.chunks(16).enumerate() {
            streamed.extend(sess.apply(batch).1);
            assert!(sess.history().is_empty(), "batch {i} left a tail");
            assert!(sess.history_complete());
            let snap = sess.snapshot();
            assert_eq!(snap.directives_total, streamed.len() as u64);
            assert_eq!(sess.delivered(), DirectiveDigest::of(&streamed));
            if i == 4 {
                // A split: the restored engine still knows the count.
                sess = Session::restore(&sess.snapshot_bytes()).expect("restore");
                assert_eq!(sess.delivered(), DirectiveDigest::of(&streamed));
            }
        }
        assert!(streamed.len() > 10, "the stream must issue directives");
        let (last, total, _) = sess.close(final_compute);
        streamed.extend(last);
        assert_eq!(streamed, golden.directives);
        assert_eq!(total, golden.directives.len() as u64);
    }

    /// A record carrying undelivered directives is refused with a typed
    /// error (no build writes one), and the same record with an empty
    /// tail rehydrates at its event position.
    #[test]
    fn record_with_a_directive_tail_is_refused() {
        let (events, _, trace) = sample_stream();
        let golden = annotate_rank(&trace.ranks[0], &PowerConfig::default());
        let split = events.len() / 2;
        let mut sess = Session::open(0, PowerConfig::default());
        let streamed = sess.apply(&events[..split]).1;
        let mut record = StoreRecord {
            record_version: crate::store::RECORD_VERSION,
            session: 3,
            rank: 0,
            events: split as u64,
            closed: false,
            history_complete: true,
            directives: golden.directives[..1].to_vec(),
            snapshot: sess.snapshot(),
        };
        assert!(matches!(
            Session::restore_from_record(&record),
            Err(ProtocolError::BadSnapshot(m)) if m.contains("1 undelivered")
        ));
        record.directives.clear();
        let sess = Session::restore_from_record(&record).expect("rehydrate");
        assert_eq!(sess.events_applied(), split as u64);
        assert_eq!(sess.delivered(), DirectiveDigest::of(&streamed));
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(matches!(
            Session::restore(b"definitely not a snapshot"),
            Err(ProtocolError::BadSnapshot(_))
        ));
    }

    #[test]
    fn probe_reports_live_engine_state() {
        let (events, _, _) = sample_stream();
        let mut sess = Session::open(0, PowerConfig::default());
        let probe = sess.probe(7, 0);
        assert_eq!(probe.session, 7);
        assert_eq!(probe.rank, 0);
        assert!(!probe.busy);
        assert_eq!(probe.events_applied, 0);
        assert!(!probe.predicting);
        assert_eq!(probe.power_state, ibp_network::LinkPower::Full);

        // A repetitive Alya stream must reach prediction at some point
        // mid-stream, making the pattern-phase readout live (the
        // stream may *end* back in learning after a phase change).
        let mut directives = 0u64;
        let mut saw_predicting = false;
        let mut saw_phase = false;
        for batch in events.chunks(64) {
            directives += sess.apply(batch).1.len() as u64;
            let mid = sess.probe(7, 0);
            saw_predicting |= mid.predicting;
            saw_phase |= mid.pattern_slots.is_some();
        }
        assert!(saw_predicting);
        assert!(saw_phase);
        let probe = sess.probe(7, 3);
        assert_eq!(probe.events_applied, events.len() as u64);
        assert_eq!(probe.directives_sent, directives);
        assert_eq!(probe.mailbox_depth, 3);
        assert_eq!(probe.lane_width, probe.power_state.lane_width());
        assert_eq!(
            probe.generation,
            IbGeneration::Qdr,
            "serve models the paper link"
        );
        assert_eq!(
            probe.power_state,
            LinkPower::from_pending_sleep(probe.sleep_depth),
            "probe depth and power state describe the same armed sleep"
        );
        // Probing twice is idempotent: no engine state advances.
        assert_eq!(sess.probe(7, 3), probe);
    }

    #[test]
    fn unknown_call_ids_do_not_panic() {
        let mut sess = Session::open(0, PowerConfig::default());
        let (applied, _) = sess.apply(&[(u16::MAX, 100), (0, 5_000_000), (41, 0)]);
        assert_eq!(applied, 3);
        let (_, total, _) = sess.close(1_000);
        assert_eq!(total, 0);
    }
}
