//! Decision-provenance serialisation: every coordinator decision becomes
//! a structured [`MetricEvent`] carrying the full evidence that produced
//! it — the weighted-average efficiency, the per-node badness terms, the
//! blacklist state after the decision and the learned requirements.
//!
//! The inverse direction, [`reconstruct_decision`], parses one emitted
//! JSONL line back into the coordinator's own [`DecisionLogEntry`]; a
//! regression test asserts that a whole scenario-5 decision log comes
//! back `==` from the JSONL stream alone.

use sagrid_adapt::coordinator::LearnedRequirements;
use sagrid_adapt::{Decision, DecisionLogEntry, NodeBadnessRecord};
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::json::{u64_array, write_f64, JsonValue};
use sagrid_core::metrics::{MetricEvent, Value};
use sagrid_core::time::SimTime;
use std::fmt::Write as _;

/// Builds the `"decision"` metric event for one decision-log entry.
pub fn decision_event(entry: &DecisionLogEntry) -> MetricEvent {
    let mut ev = MetricEvent::new(entry.at.0, "decision")
        .with("decision", Value::Str(entry.decision.kind().to_string()))
        .with("wa_eff", Value::F64(entry.wa_efficiency))
        .with("reports", Value::U64(entry.nodes as u64));
    match &entry.decision {
        Decision::None => {}
        Decision::Add {
            count,
            requirements,
            prefer,
        } => {
            ev = ev.with("count", Value::U64(*count as u64)).with(
                "prefer",
                Value::Raw(u64_array(prefer.iter().map(|c| u64::from(c.0)))),
            );
            ev = with_requirements(ev, requirements, &entry.learned);
        }
        Decision::RemoveNodes { nodes } => {
            ev = ev.with(
                "remove",
                Value::Raw(u64_array(nodes.iter().map(|n| u64::from(n.0)))),
            );
        }
        Decision::RemoveCluster { cluster, nodes } => {
            ev = ev.with("cluster", Value::U64(u64::from(cluster.0))).with(
                "remove",
                Value::Raw(u64_array(nodes.iter().map(|n| u64::from(n.0)))),
            );
        }
        Decision::OpportunisticSwap {
            remove,
            add,
            requirements,
        } => {
            ev = ev.with("count", Value::U64(*add as u64)).with(
                "remove",
                Value::Raw(u64_array(remove.iter().map(|n| u64::from(n.0)))),
            );
            ev = with_requirements(ev, requirements, &entry.learned);
        }
    }
    ev = ev
        .with("badness", Value::Raw(badness_array(&entry.badness)))
        .with(
            "blacklist_nodes",
            Value::Raw(u64_array(
                entry.blacklisted_nodes.iter().map(|n| u64::from(n.0)),
            )),
        )
        .with(
            "blacklist_clusters",
            Value::Raw(u64_array(
                entry.blacklisted_clusters.iter().map(|c| u64::from(c.0)),
            )),
        );
    if let Some(bw) = entry.learned.min_uplink_bps {
        ev = ev.with("min_uplink_bps", Value::F64(bw));
    }
    if let Some(s) = entry.learned.min_speed {
        ev = ev.with("min_speed", Value::F64(s));
    }
    // Suspicion snapshot: which members had unresolved liveness when this
    // evaluation ran (always emitted, even when empty — an auditor must
    // be able to tell "no suspects" from "field predates suspicion").
    ev = ev.with(
        "suspects",
        Value::Raw(u64_array(entry.suspect_ids.iter().map(|n| u64::from(n.0)))),
    );
    if let Some(reason) = &entry.hold_fire {
        ev = ev.with("hold_fire", Value::Str(reason.clone()));
    }
    ev
}

/// Adds a decision's own requirements as a `requirements` object, but
/// only where they differ from the learned ones (a swap's speed floor):
/// every `Add` the coordinator makes carries `learned` itself, and its
/// line stays as short as before.
fn with_requirements(
    ev: MetricEvent,
    own: &LearnedRequirements,
    learned: &LearnedRequirements,
) -> MetricEvent {
    if own == learned {
        return ev;
    }
    let mut obj = String::from("{");
    for (key, bound) in [
        ("min_uplink_bps", own.min_uplink_bps),
        ("min_speed", own.min_speed),
    ] {
        if let Some(bound) = bound {
            if obj.len() > 1 {
                obj.push(',');
            }
            let _ = write!(obj, "\"{key}\":");
            write_f64(&mut obj, bound);
        }
    }
    obj.push('}');
    ev.with("requirements", Value::Raw(obj))
}

fn badness_array(records: &[NodeBadnessRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"node\":{},\"cluster\":{},\"speed\":",
            r.node.0, r.cluster.0
        );
        write_f64(&mut out, r.speed);
        out.push_str(",\"ic\":");
        write_f64(&mut out, r.ic_overhead);
        let _ = write!(out, ",\"worst\":{},\"badness\":", r.in_worst_cluster);
        write_f64(&mut out, r.badness);
        out.push('}');
    }
    out.push(']');
    out
}

/// Parses one JSONL `"decision"` event back into the coordinator's own
/// log entry, so a round trip is checked with `==`. An unknown decision
/// kind, or a field its variant needs, missing, is an error.
pub fn reconstruct_decision(line: &JsonValue) -> Result<DecisionLogEntry, String> {
    if line.get("kind").and_then(JsonValue::as_str) != Some("decision") {
        return Err("not a decision event".to_string());
    }
    let learned = requirements(line);
    // A decision's own requirements are on the line only where they
    // differ from the learned ones.
    let own = || line.get("requirements").map_or(learned, requirements);
    let count = || field(line, "count", JsonValue::as_u64).map(|c| c as usize);
    let removed = || ids(Some(field(line, "remove", Some)?), |n| NodeId(n as u32));
    let decision = match field(line, "decision", JsonValue::as_str)? {
        "none" => Decision::None,
        "add" => Decision::Add {
            count: count()?,
            requirements: own(),
            prefer: ids(Some(field(line, "prefer", Some)?), |c| ClusterId(c as u16))?,
        },
        "remove-nodes" => Decision::RemoveNodes { nodes: removed()? },
        "remove-cluster" => Decision::RemoveCluster {
            cluster: ClusterId(field(line, "cluster", JsonValue::as_u64)? as u16),
            nodes: removed()?,
        },
        "opportunistic-swap" => Decision::OpportunisticSwap {
            remove: removed()?,
            add: count()?,
            requirements: own(),
        },
        other => return Err(format!("unknown decision kind {other:?}")),
    };
    Ok(DecisionLogEntry {
        at: SimTime(field(line, "at_us", JsonValue::as_u64)?),
        wa_efficiency: field(line, "wa_eff", JsonValue::as_f64)?,
        nodes: field(line, "reports", JsonValue::as_u64)? as usize,
        decision,
        badness: field(line, "badness", JsonValue::as_arr)?
            .iter()
            .map(badness_record)
            .collect::<Result<_, _>>()?,
        blacklisted_nodes: ids(line.get("blacklist_nodes"), |n| NodeId(n as u32))?,
        blacklisted_clusters: ids(line.get("blacklist_clusters"), |c| ClusterId(c as u16))?,
        learned,
        // Lenient: streams recorded before suspicion tracking simply have
        // no suspects field and reconstruct with an empty snapshot.
        suspect_ids: ids(line.get("suspects"), |n| NodeId(n as u32))?,
        hold_fire: line
            .get("hold_fire")
            .and_then(JsonValue::as_str)
            .map(str::to_string),
    })
}

/// The requirement keys of `v` (a decision line or its `requirements`
/// object); an absent key is no bound.
fn requirements(v: &JsonValue) -> LearnedRequirements {
    LearnedRequirements {
        min_uplink_bps: v.get("min_uplink_bps").and_then(JsonValue::as_f64),
        min_speed: v.get("min_speed").and_then(JsonValue::as_f64),
    }
}

/// `v[key]` read through `read`, or an error naming the key.
fn field<'a, T>(
    v: &'a JsonValue,
    key: &str,
    read: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<T, String> {
    v.get(key)
        .and_then(read)
        .ok_or_else(|| format!("missing or bad {key}"))
}

/// An array of ids; an absent key reads as empty.
fn ids<T>(v: Option<&JsonValue>, id: impl Fn(u64) -> T) -> Result<Vec<T>, String> {
    let Some(v) = v else {
        return Ok(Vec::new());
    };
    v.as_arr()
        .ok_or("expected an array of ids")?
        .iter()
        .map(|x| x.as_u64().map(&id).ok_or_else(|| "bad id".to_string()))
        .collect()
}

fn badness_record(row: &JsonValue) -> Result<NodeBadnessRecord, String> {
    let bad = |key: &str| format!("bad badness.{key}");
    let id = |key: &str| {
        row.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| bad(key))
    };
    let num = |key: &str| {
        row.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| bad(key))
    };
    Ok(NodeBadnessRecord {
        node: NodeId(id("node")? as u32),
        cluster: ClusterId(id("cluster")? as u16),
        speed: num("speed")?,
        ic_overhead: num("ic")?,
        in_worst_cluster: row
            .get("worst")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| bad("worst"))?,
        badness: num("badness")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_core::json::parse_json;

    fn entry(decision: Decision) -> DecisionLogEntry {
        DecisionLogEntry {
            at: SimTime::from_secs(180),
            wa_efficiency: 0.7321098,
            nodes: 3,
            decision,
            badness: vec![
                NodeBadnessRecord {
                    node: NodeId(7),
                    cluster: ClusterId(1),
                    speed: 0.875,
                    ic_overhead: 0.4123,
                    in_worst_cluster: true,
                    badness: 52.37290017,
                },
                NodeBadnessRecord {
                    node: NodeId(2),
                    cluster: ClusterId(0),
                    speed: 1.0,
                    ic_overhead: 0.01,
                    in_worst_cluster: false,
                    badness: 2.0,
                },
            ],
            blacklisted_nodes: vec![NodeId(7)],
            blacklisted_clusters: vec![ClusterId(1)],
            learned: LearnedRequirements {
                min_uplink_bps: Some(100_000.5),
                min_speed: None,
            },
            suspect_ids: vec![NodeId(11), NodeId(13)],
            hold_fire: None,
        }
    }

    fn line(e: &DecisionLogEntry) -> JsonValue {
        parse_json(&decision_event(e).to_json()).expect("event serialises to valid JSON")
    }

    fn round_trip(e: &DecisionLogEntry) -> DecisionLogEntry {
        reconstruct_decision(&line(e)).expect("decision reconstructs")
    }

    #[test]
    fn every_decision_variant_round_trips_losslessly() {
        let learned = entry(Decision::None).learned;
        let variants = vec![
            Decision::None,
            // Requirements that differ from `learned` (a hand-built
            // fixture) ride on the line ...
            Decision::Add {
                count: 4,
                requirements: LearnedRequirements::default(),
                prefer: vec![ClusterId(0), ClusterId(2)],
            },
            // ... and the coordinator's own `Add`, which carries
            // `learned`, reads them back from there.
            Decision::Add {
                count: 1,
                requirements: learned,
                prefer: vec![],
            },
            Decision::RemoveNodes {
                nodes: vec![NodeId(7), NodeId(3)],
            },
            Decision::RemoveCluster {
                cluster: ClusterId(1),
                nodes: vec![NodeId(7)],
            },
            Decision::OpportunisticSwap {
                remove: vec![NodeId(2)],
                add: 1,
                requirements: LearnedRequirements {
                    min_speed: Some(1.2),
                    ..learned
                },
            },
        ];
        for d in variants {
            let e = entry(d);
            assert_eq!(round_trip(&e), e);
            let own = match &e.decision {
                Decision::Add { requirements, .. }
                | Decision::OpportunisticSwap { requirements, .. } => Some(*requirements),
                _ => None,
            };
            assert_eq!(
                line(&e).get("requirements").is_some(),
                own.is_some_and(|r| r != learned),
                "requirements are written only where they differ from learned"
            );
        }
    }

    #[test]
    fn hold_fire_round_trips_and_old_streams_stay_parseable() {
        // A withheld decision carries its suspicion snapshot and reason.
        let mut e = entry(Decision::None);
        e.hold_fire = Some("withheld remove-nodes: 2 member(s) suspect".to_string());
        assert_eq!(round_trip(&e), e);
        // A pre-suspicion stream (no suspects / hold_fire fields) still
        // reconstructs, with an empty snapshot.
        let old = "{\"type\":\"event\",\"at_us\":1,\"kind\":\"decision\",\
                   \"decision\":\"none\",\"wa_eff\":0.4,\"reports\":2,\
                   \"badness\":[],\"blacklist_nodes\":[],\"blacklist_clusters\":[]}";
        let parsed = parse_json(old).unwrap();
        let rec = reconstruct_decision(&parsed).expect("lenient parse");
        assert!(rec.suspect_ids.is_empty());
        assert!(rec.hold_fire.is_none());
    }

    /// The decision's fields come from the line: an edited line
    /// reconstructs to a different entry, and one that lacks what its
    /// kind needs, or names no known kind, does not reconstruct.
    #[test]
    fn mismatches_are_detected() {
        let e = entry(Decision::RemoveCluster {
            cluster: ClusterId(1),
            nodes: vec![NodeId(7)],
        });
        let json = decision_event(&e).to_json();
        let edited = json.replace("\"remove\":[7]", "\"remove\":[8]");
        assert_ne!(edited, json);
        let rec = reconstruct_decision(&parse_json(&edited).unwrap()).unwrap();
        assert_ne!(rec, e, "an edited removal must not match");
        for (from, to) in [
            ("\"cluster\":1,", ""),
            ("\"remove\":[7],", ""),
            ("\"remove-cluster\"", "\"remove-site\""),
        ] {
            let broken = json.replacen(from, to, 1);
            assert_ne!(broken, json);
            let err = reconstruct_decision(&parse_json(&broken).unwrap());
            assert!(err.is_err(), "{broken} must not reconstruct");
        }
    }

    #[test]
    fn non_decision_events_are_rejected() {
        let parsed = parse_json("{\"type\":\"event\",\"at_us\":1,\"kind\":\"join\"}").unwrap();
        assert!(reconstruct_decision(&parsed).is_err());
    }
}
