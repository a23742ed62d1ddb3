//! The metrics contract: the Prometheus text exposition is a *public
//! interface* — scrape configs, dashboards, and alert rules key on the
//! exact metric names, types, and line order — so it is pinned with an
//! exact-byte golden snapshot (`tests/golden/metrics.prom`). Every
//! counter gets a distinct value so a swapped or misattributed metric
//! cannot cancel out. Regenerate after an intentional contract change
//! with `IBP_UPDATE_GOLDEN=1`.
//!
//! The summary-schema half pins the JSON field names of `ServeSummary`
//! and `LoadReport` (what `BENCH_serve.json` and `load -o` reports
//! embed), including the `reconnects`/`gave_up` resilience fields.

use ibp_serve::{MetricsRegistry, ServeSummary};
use ibpower_integration_tests::golden::assert_matches_golden_text;
use std::sync::atomic::Ordering;

/// A registry where every counter and gauge holds a distinct value, so
/// the golden catches any cross-wiring between stores and names.
fn distinct_registry() -> MetricsRegistry {
    let m = MetricsRegistry::default();
    for (i, c) in [
        &m.sessions_opened,
        &m.sessions_closed,
        &m.events_applied,
        &m.directives_sent,
        &m.protocol_errors,
        &m.responses_shed,
        &m.worker_panics,
        &m.worker_respawns,
        &m.snapshots_persisted,
        &m.persist_failures,
        &m.sessions_rehydrated,
        &m.evictions,
        &m.queries_answered,
        &m.scrapes_served,
    ]
    .into_iter()
    .enumerate()
    {
        c.store(101 + i as u64, Ordering::Relaxed);
    }
    for (i, g) in [
        &m.sessions_live,
        &m.ready_queue_depth,
        &m.writer_queue_depth,
        &m.hot_sessions,
        &m.cold_sessions,
    ]
    .into_iter()
    .enumerate()
    {
        g.store(201 + i as u64, Ordering::Relaxed);
    }
    for (i, g) in m.sessions_asleep.iter().enumerate() {
        g.store(401 + i as u64, Ordering::Relaxed);
    }
    for (i, g) in m.session_shards.iter().enumerate() {
        g.store(301 + i as u64, Ordering::Relaxed);
    }
    // Stage `i` gets `i + 1` observations spread over distinct buckets
    // (0 ns, then 1.5, 3, 6, ... µs), so each stage's buckets, sum and
    // count differ from every other stage's.
    for (i, h) in m.stages.iter().enumerate() {
        for k in 0..=i as u64 {
            h.observe_ns(if k == 0 { 0 } else { 1_500 << (k - 1) } + 7 * i as u64);
        }
    }
    m
}

#[test]
fn prometheus_exposition_matches_golden_bytes() {
    assert_matches_golden_text("metrics.prom", &distinct_registry().render_prometheus());
}

#[test]
fn exposition_is_deterministic() {
    let m = distinct_registry();
    assert_eq!(m.render_prometheus(), m.render_prometheus());
}

#[test]
fn summary_json_schema_is_stable() {
    let json = serde_json::to_string(&distinct_registry().summary()).expect("serializes");
    for field in [
        "sessions_opened",
        "sessions_closed",
        "events_applied",
        "directives_sent",
        "protocol_errors",
        "responses_shed",
        "worker_panics",
        "worker_respawns",
        "snapshots_persisted",
        "persist_failures",
        "sessions_rehydrated",
        "evictions",
    ] {
        assert!(json.contains(&format!("\"{field}\"")), "missing {field} in {json}");
    }
    // And the summary round-trips, so Stats-frame consumers can parse it.
    let back: ServeSummary = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
}

#[test]
fn load_report_schema_carries_resilience_fields() {
    // Build a LoadReport through a real (tiny) load run so the schema
    // test cannot drift from the production constructor.
    let server = ibp_serve::Server::bind(
        &ibp_serve::Endpoint::Tcp("127.0.0.1:0".into()),
        ibp_serve::ServeConfig { session_limit: Some(1), ..Default::default() },
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let handle = std::thread::spawn(move || server.run());

    let w = ibp_workloads::AppKind::Alya.workload(ibp_workloads::Scaling::Strong);
    let trace = w.generate(w.paper_procs()[0], 7);
    let rank = &trace.ranks[0];
    let cfg = ibp_core::PowerConfig::paper(ibp_simcore::SimDuration::from_us(20), 0.01);
    let spec = ibp_serve::SessionSpec {
        rank: rank.rank,
        config: cfg,
        events: rank.call_stream().map(|(c, gap)| (c.id(), gap.as_ns())).collect(),
        final_compute_ns: rank.final_compute.as_ns(),
        golden_directives: None,
        golden_stats: None,
    };
    let report = ibp_serve::run_load(&endpoint, vec![spec], &ibp_serve::LoadConfig::default())
        .expect("load");
    handle.join().expect("server thread");

    assert_eq!(report.gave_up, 0, "healthy transport never gives up");
    assert_eq!(report.reconnects, 0);
    let json = serde_json::to_string(&report).expect("serializes");
    for field in ["reconnects", "gave_up", "events_total", "per_session", "parity_ok"] {
        assert!(json.contains(&format!("\"{field}\"")), "missing {field} in {json}");
    }
    // Per-session outcomes carry the per-link resilience verdicts too.
    assert!(json.contains("\"gave_up\":false"), "per-session gave_up flag: {json}");
}
