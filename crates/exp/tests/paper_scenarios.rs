//! Paper-scenario regression suite: end-to-end checks tying the DES engine's
//! observability surface (activity traces, metrics registry, decision
//! provenance) to the paper's evaluation scenarios.
//!
//! - Scenarios 1 and 4 (monitor-only): per-node activity traces are a true
//!   partition of each node's lifetime and reconcile exactly with the
//!   coordinator-facing overhead accounting.
//! - Scenario 5 (shaped uplink + loaded CPUs): every coordinator decision is
//!   reconstructible from the emitted JSONL stream alone — the acceptance
//!   bar for decision provenance.
//! - Scenario 6 (crashing clusters): crashed clusters land on the blacklist
//!   and are never re-added, visible both in the decision log and in the
//!   join events of the metrics stream.

use sagrid_adapt::provenance::reconstruct_decision;
use sagrid_adapt::Decision;
use sagrid_core::ids::ClusterId;
use sagrid_core::metrics::{parse_json, JsonValue, Metrics};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_exp::scenarios::{Scenario, ScenarioId, DISTURBANCE_AT_SECS, SHAPED_UPLINK_BPS};
use sagrid_simgrid::trace::SpanKind;
use sagrid_simgrid::{AdaptMode, GridSim, RunResult};

fn run_with_metrics(id: ScenarioId, iterations: usize) -> RunResult {
    let mut s = Scenario::new(id);
    s.iterations = iterations;
    GridSim::try_run_with_metrics(s.config(AdaptMode::Adapt), Metrics::enabled())
        .expect("paper scenarios are valid configurations")
}

/// Decision-event lines of a run's JSONL stream, parsed.
fn decision_lines(r: &RunResult) -> Vec<JsonValue> {
    r.metrics
        .as_ref()
        .expect("run was started with metrics enabled")
        .to_jsonl()
        .lines()
        .map(|l| parse_json(l).expect("every emitted line is valid JSON"))
        .filter(|v| {
            v.get("type").and_then(JsonValue::as_str) == Some("event")
                && v.get("kind").and_then(JsonValue::as_str) == Some("decision")
        })
        .collect()
}

#[test]
fn monitor_only_traces_partition_each_node_lifetime_and_match_the_stats() {
    // Scenarios 1 (ideal) and 4 (shaped uplink) keep membership static in
    // monitor-only mode, so every node lives [0, end-of-run] and its trace
    // must tile that interval exactly: ordered, non-overlapping, gap-free.
    for id in [ScenarioId::S1Overhead, ScenarioId::S4OverloadedLink] {
        let mut s = Scenario::new(id);
        s.iterations = 16;
        let mut cfg = s.config(AdaptMode::MonitorOnly);
        cfg.record_trace = true;
        let r = GridSim::run(cfg);
        assert!(!r.timed_out, "{id:?} must finish its workload");
        assert_eq!(r.activity_traces.len(), 36, "one trace per node ({id:?})");

        let mut totals = [SimDuration::ZERO; 5];
        let kinds = [
            SpanKind::Busy,
            SpanKind::Idle,
            SpanKind::IntraComm,
            SpanKind::InterComm,
            SpanKind::Benchmark,
        ];
        let mut common_end: Option<SimTime> = None;
        for (node, tr) in &r.activity_traces {
            assert!(tr.is_well_formed(), "{id:?} node {node}: malformed trace");
            let spans = tr.spans();
            assert!(!spans.is_empty(), "{id:?} node {node}: empty trace");
            assert_eq!(
                spans[0].start,
                SimTime::ZERO,
                "{id:?} node {node}: trace must start at join time 0"
            );
            for w in spans.windows(2) {
                assert_eq!(
                    w[0].end, w[1].start,
                    "{id:?} node {node}: gap in trace — spans must partition the lifetime"
                );
            }
            let end = spans.last().unwrap().end;
            match common_end {
                None => common_end = Some(end),
                Some(e) => assert_eq!(
                    e, end,
                    "{id:?} node {node}: all static nodes flush at the same final time"
                ),
            }
            for (t, &k) in totals.iter_mut().zip(&kinds) {
                *t += tr.total(k);
            }
        }
        // The shared end point covers the whole measured runtime.
        let end = common_end.expect("at least one trace");
        assert!(
            end.0 >= r.total_runtime.0,
            "{id:?}: traces end at {end:?}, before total runtime {:?}",
            r.total_runtime
        );

        // The per-kind span totals are the same accounting the coordinator
        // sees: they must reconcile with the aggregate overhead breakdown.
        // Spans and stats are fed from the same flush points, so the match
        // is exact, not just within rounding.
        let [busy, idle, intra, inter, bench] = totals;
        assert_eq!(busy, r.aggregate.busy, "{id:?}: busy mismatch");
        assert_eq!(idle, r.aggregate.idle, "{id:?}: idle mismatch");
        assert_eq!(intra, r.aggregate.intra_comm, "{id:?}: intra-comm mismatch");
        assert_eq!(inter, r.aggregate.inter_comm, "{id:?}: inter-comm mismatch");
        assert_eq!(bench, r.aggregate.benchmark, "{id:?}: benchmark mismatch");
        // And the partition property lifts to the aggregate: total accounted
        // time is exactly 36 nodes × the common end point.
        assert_eq!(
            r.aggregate.total(),
            SimDuration(end.0 * 36),
            "{id:?}: aggregate must equal nodes × lifetime"
        );
    }
}

#[test]
fn s5_every_decision_is_reconstructible_from_the_jsonl_stream_alone() {
    // The provenance acceptance bar: parse the emitted JSONL with no access
    // to the in-memory run, rebuild each decision log entry, and compare it
    // with `==` (wa_eff, badness inputs, blacklist delta, learned
    // requirements) against the coordinator's own log.
    let r = run_with_metrics(ScenarioId::S5CpusAndLink, 40);
    assert!(!r.timed_out);
    assert!(
        !r.decisions.is_empty(),
        "scenario 5 must tick the coordinator at least once"
    );

    let lines = decision_lines(&r);
    assert_eq!(
        lines.len(),
        r.decisions.len(),
        "one decision event per coordinator decision"
    );
    let recs: Vec<_> = lines
        .iter()
        .map(|l| reconstruct_decision(l).expect("decision event reconstructs"))
        .collect();
    assert_eq!(
        recs, r.decisions,
        "JSONL reconstruction diverges from the decision log"
    );

    // The reconstruction alone is enough to tell the scenario's story: the
    // shaped cluster 2 was removed wholesale, and the blacklist snapshot of
    // every later decision still carries it.
    let removal = recs
        .iter()
        .position(|rec| {
            matches!(
                rec.decision,
                Decision::RemoveCluster {
                    cluster: ClusterId(2),
                    ..
                }
            )
        })
        .expect("the shaped cluster must be removed");
    for rec in &recs[removal..] {
        assert!(
            rec.blacklisted_clusters.contains(&ClusterId(2)),
            "cluster 2 must stay blacklisted from the removal on"
        );
    }
}

#[test]
fn s5_removal_teaches_the_bandwidth_bound_and_recovers_efficiency() {
    let r = run_with_metrics(ScenarioId::S5CpusAndLink, 40);
    assert!(!r.timed_out, "the adaptive run must converge");

    // The removal decision carries a learned minimum-bandwidth requirement
    // in the vicinity of the shaped uplink — measured from transfer times,
    // so below the raw 100 KB/s shaping but far above a healthy link.
    let removal = r
        .decisions
        .iter()
        .find(|d| matches!(d.decision, Decision::RemoveCluster { cluster, .. } if cluster == ClusterId(2)))
        .expect("scenario 5 removes the shaped cluster");
    let bw = removal
        .learned
        .min_uplink_bps
        .expect("the removal must teach a bandwidth bound");
    assert!(
        (10_000.0..SHAPED_UPLINK_BPS * 10.0).contains(&bw),
        "learned bound {bw} should be near the shaped {SHAPED_UPLINK_BPS} B/s rate"
    );

    // Dropping the starved cluster improves the weighted-average efficiency
    // the coordinator observes at later ticks.
    let last = r.decisions.last().unwrap();
    assert!(
        last.wa_efficiency > removal.wa_efficiency,
        "efficiency must recover after the removal ({} -> {})",
        removal.wa_efficiency,
        last.wa_efficiency
    );
}

#[test]
fn s6_crashed_clusters_are_blacklisted_and_never_rejoined() {
    let r = run_with_metrics(ScenarioId::S6Crash, 32);
    assert!(!r.timed_out);
    // 24 of 36 nodes crash; adaptation must have replaced some of them from
    // the surviving cluster.
    assert!(r.final_node_count() > 12, "crashed capacity never replaced");

    // Once the crash is on the books, every subsequent decision snapshot
    // carries both crashed clusters on the blacklist, and no Add prefers or
    // targets them.
    let crashed = [ClusterId(1), ClusterId(2)];
    let first_aware = r
        .decisions
        .iter()
        .position(|d| crashed.iter().all(|c| d.blacklisted_clusters.contains(c)))
        .expect("some decision must see the crashed clusters blacklisted");
    for d in &r.decisions[first_aware..] {
        for c in &crashed {
            assert!(
                d.blacklisted_clusters.contains(c),
                "cluster {c} dropped off the blacklist at t={:?}",
                d.at
            );
        }
        if let Decision::Add { prefer, .. } = &d.decision {
            for c in &crashed {
                assert!(!prefer.contains(c), "Add must not prefer a crashed cluster");
            }
        }
    }

    // Cross-check against the metrics stream: the crash-cluster injections
    // fire at the disturbance time, and every join after it comes from the
    // surviving cluster 0.
    let jsonl = r.metrics.as_ref().unwrap().to_jsonl();
    let crash_at = SimTime::from_secs(DISTURBANCE_AT_SECS);
    let mut crash_injections = 0;
    let mut late_joins = 0;
    for line in jsonl.lines() {
        let v = parse_json(line).expect("valid JSON");
        if v.get("type").and_then(JsonValue::as_str) != Some("event") {
            continue;
        }
        let at = SimTime(v.get("at_us").and_then(JsonValue::as_u64).expect("at_us"));
        match v.get("kind").and_then(JsonValue::as_str) {
            Some("injection")
                if v.get("injection").and_then(JsonValue::as_str) == Some("crash_cluster") =>
            {
                crash_injections += 1;
                assert_eq!(at, crash_at, "clusters crash at the disturbance time");
                let c = v.get("cluster").and_then(JsonValue::as_u64).unwrap();
                assert!(crashed.contains(&ClusterId(c as u16)));
            }
            Some("join") if at > crash_at => {
                late_joins += 1;
                let c = v.get("cluster").and_then(JsonValue::as_u64).unwrap();
                assert_eq!(
                    ClusterId(c as u16),
                    ClusterId(0),
                    "a node re-joined from a blacklisted cluster"
                );
            }
            _ => {}
        }
    }
    assert_eq!(crash_injections, 2, "both cluster crashes must be logged");
    assert!(late_joins > 0, "replacements must appear as join events");

    // The crash counter agrees with the two sites' node counts.
    let report = r.metrics.as_ref().unwrap();
    assert_eq!(report.counter("des.node_crashes"), 24);
}
