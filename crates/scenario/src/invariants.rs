//! Adaptation invariants, checked from a run's JSONL stream alone.
//!
//! The checker never looks at in-memory engine state: it re-reads the
//! same `MetricsReport::to_jsonl` text a human (or CI) would, so a pass
//! here certifies that the *emitted* record of a run is self-consistent.
//! Four invariants, from the paper's claims:
//!
//! 1. **Efficiency recovery** — after the last disturbance the weighted
//!    average efficiency seen by the coordinator climbs back above a
//!    threshold (the adaptation loop actually repairs the damage).
//! 2. **Blacklist permanence** — blacklists only grow, and no blacklisted
//!    node (or node of a blacklisted cluster) ever joins again.
//! 3. **Provenance completeness** — every `decision` line reconstructs
//!    into a decision log entry (a known kind with every field it needs),
//!    and every pool change is justified: a join traces to an
//!    add decision / grow injection exactly one join-delay earlier (or is
//!    part of the initial t = 0 wave), a leave follows some removal
//!    decision or shrink injection, a crash coincides with a crash
//!    injection.
//! 4. **Work conservation** — the counters agree with the event stream
//!    (joins/leaves/crashes/injections/decisions), the alive-node gauge
//!    balances the membership flow, and a completed run finished every
//!    iteration it was asked to run.
//! 5. **No suspect shrink** — the hold-fire rule of the suspicion-aware
//!    failure detector: no removal decision ever targets a member whose
//!    liveness was unresolved (Suspect) at decision time, and a decision
//!    that recorded a hold-fire reason decided nothing.

use sagrid_adapt::provenance::reconstruct_decision;
use sagrid_core::json::{parse_json, JsonValue};
use std::collections::BTreeSet;
use std::rc::Rc;

/// Tunables of the invariant checker.
#[derive(Clone, Debug)]
pub struct InvariantConfig {
    /// Efficiency the run must climb back to after its last disturbance.
    /// Kept below the coordinator's default `e_min = 0.30`: the invariant
    /// is "adaptation repaired the damage", not "the run was ideal".
    pub recovery_eff: f64,
    /// Recovery is only demanded if the run kept going at least this long
    /// past the last disturbance (microseconds); shorter tails can't have
    /// seen a post-disturbance coordinator evaluation yet.
    pub settle_us: u64,
    /// The engine's grant→join delay (microseconds): a join at `t` is
    /// justified by an add/grow at exactly `t - join_delay_us`.
    pub join_delay_us: u64,
    /// Check join/leave/crash membership provenance (DES streams carry
    /// the full membership record; process-mode decision-only streams
    /// don't, so the launcher disables this part).
    pub check_membership: bool,
    /// Check counter/gauge conservation (requires the instrument records
    /// that only the DES teardown emits).
    pub check_conservation: bool,
    /// Iterations the workload was asked to run, if known: conservation
    /// then also requires the iteration histogram to account for all of
    /// them.
    pub expected_iterations: Option<u64>,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        Self {
            recovery_eff: 0.25,
            // Two default monitoring periods (2 × 180 s).
            settle_us: 360_000_000,
            join_delay_us: 5_000_000,
            check_membership: true,
            check_conservation: true,
            expected_iterations: None,
        }
    }
}

/// One failed invariant.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

fn u64_field(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key).and_then(|x| x.as_u64())
}

/// The distinct integer ids of array field `key`, ascending; empty when
/// the field is absent or not an array.
fn u64_set(v: &JsonValue, key: &str) -> Vec<u64> {
    let mut ids: Vec<u64> = v
        .get(key)
        .and_then(|x| x.as_arr())
        .map(|arr| arr.iter().filter_map(|e| e.as_u64()).collect())
        .unwrap_or_default();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn contains(set: &[u64], id: u64) -> bool {
    set.binary_search(&id).is_ok()
}

fn is_superset(set: &[u64], of: &[u64]) -> bool {
    of.iter().all(|&id| contains(set, id))
}

/// `ids`, reusing `prev`'s allocation when they are equal.
fn shared(ids: Vec<u64>, prev: Option<&Rc<[u64]>>) -> Rc<[u64]> {
    match prev {
        Some(p) if **p == *ids => Rc::clone(p),
        _ => ids.into(),
    }
}

/// What the checks read of one `decision` line.
struct DecisionRecord {
    at: u64,
    /// The `decision` field; empty when absent.
    kind: String,
    wa_eff: Option<f64>,
    remove: Vec<u64>,
    suspects: Vec<u64>,
    /// Shared with the previous decision's when equal: the blacklists
    /// are cumulative and most decisions repeat them.
    blacklist_nodes: Rc<[u64]>,
    blacklist_clusters: Rc<[u64]>,
    hold_fire: bool,
}

/// A `member` line's state; lines without a node or a state are not
/// kept, since no check reads them.
#[derive(Clone, Copy, PartialEq)]
enum MemberState {
    Joined,
    Suspect,
    /// Any other state (alive, died, left): it closes a suspect interval.
    Other,
}

/// An `injection` line's `injection` sub-kind, as far as a check tells
/// them apart.
#[derive(Clone, Copy, PartialEq)]
enum InjectionKind {
    Grow,
    Shrink,
    /// `crash_cluster` or `crash_nodes`.
    Crash,
    CrashHub,
    Other,
}

impl InjectionKind {
    fn of(v: &JsonValue) -> Self {
        match v.get("injection").and_then(|k| k.as_str()) {
            Some("grow") => Self::Grow,
            Some("shrink") => Self::Shrink,
            Some("crash_cluster" | "crash_nodes") => Self::Crash,
            Some("crash_hub") => Self::CrashHub,
            _ => Self::Other,
        }
    }
}

/// What the checker keeps of one JSONL stream: one typed record per
/// event line the checks read, holding only the fields they read. Each
/// line's parse tree is dropped as soon as its record is built.
#[derive(Default)]
struct Stream {
    /// Latest `at_us` of any event line.
    t_end: u64,
    decisions: Vec<DecisionRecord>,
    /// `(at_us, node, state)`.
    members: Vec<(u64, u64, MemberState)>,
    /// `(at_us, (node, cluster))`.
    joins: Vec<(u64, Option<(u64, u64)>)>,
    /// `(at_us, node)`.
    leaves: Vec<(u64, Option<u64>)>,
    /// `(at_us, distinct victims)`.
    crashes: Vec<(u64, u64)>,
    injections: Vec<(u64, InjectionKind)>,
    /// `(at_us, epoch, inherited blacklisted nodes)` per `hub_failover`.
    failovers: Vec<(u64, Option<u64>, Vec<u64>)>,
    /// `(at_us, error)` per `decision` line that failed reconstruction.
    unreconstructed: Vec<(u64, String)>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    /// `(name, sample count)` per histogram.
    histograms: Vec<(String, u64)>,
}

impl Stream {
    fn parse(jsonl: &str) -> Result<Stream, String> {
        let mut s = Stream::default();
        for (lineno, line) in jsonl.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let ty = v.get("type").and_then(|t| t.as_str()).unwrap_or("");
            match ty {
                "event" => {
                    let at = u64_field(&v, "at_us")
                        .ok_or_else(|| format!("line {}: event without at_us", lineno + 1))?;
                    s.push_event(at, &v);
                }
                "counter" | "gauge" | "histogram" => {
                    let name = v
                        .get("name")
                        .and_then(|n| n.as_str())
                        .unwrap_or("")
                        .to_string();
                    match ty {
                        "counter" => s.counters.push((name, u64_field(&v, "value").unwrap_or(0))),
                        "gauge" => s.gauges.push((
                            name,
                            v.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0) as i64,
                        )),
                        _ => s
                            .histograms
                            .push((name, u64_field(&v, "count").unwrap_or(0))),
                    }
                }
                other => {
                    return Err(format!(
                        "line {}: unknown record type {other:?}",
                        lineno + 1
                    ))
                }
            }
        }
        Ok(s)
    }

    /// Keeps the record of one event line.
    fn push_event(&mut self, at: u64, v: &JsonValue) {
        self.t_end = self.t_end.max(at);
        match v.get("kind").and_then(|k| k.as_str()).unwrap_or("") {
            "decision" => {
                if let Err(e) = reconstruct_decision(v) {
                    self.unreconstructed.push((at, e));
                }
                let prev = self.decisions.last();
                let blacklist_nodes = shared(
                    u64_set(v, "blacklist_nodes"),
                    prev.map(|d| &d.blacklist_nodes),
                );
                let blacklist_clusters = shared(
                    u64_set(v, "blacklist_clusters"),
                    prev.map(|d| &d.blacklist_clusters),
                );
                self.decisions.push(DecisionRecord {
                    at,
                    kind: v
                        .get("decision")
                        .and_then(|d| d.as_str())
                        .unwrap_or("")
                        .to_string(),
                    wa_eff: v.get("wa_eff").and_then(|e| e.as_f64()),
                    remove: u64_set(v, "remove"),
                    suspects: u64_set(v, "suspects"),
                    blacklist_nodes,
                    blacklist_clusters,
                    hold_fire: v.get("hold_fire").is_some(),
                });
            }
            "member" => {
                let state = match v.get("state").and_then(|s| s.as_str()) {
                    Some("joined") => MemberState::Joined,
                    Some("suspect") => MemberState::Suspect,
                    Some(_) => MemberState::Other,
                    None => return,
                };
                if let Some(node) = u64_field(v, "node") {
                    self.members.push((at, node, state));
                }
            }
            "join" => {
                let node = u64_field(v, "node").zip(u64_field(v, "cluster"));
                self.joins.push((at, node));
            }
            "leave" => self.leaves.push((at, u64_field(v, "node"))),
            "crash" => self.crashes.push((at, u64_set(v, "victims").len() as u64)),
            "injection" => self.injections.push((at, InjectionKind::of(v))),
            "hub_failover" => {
                self.failovers
                    .push((at, u64_field(v, "epoch"), u64_set(v, "blacklisted_nodes")))
            }
            _ => {}
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Times of the injections of one sub-kind.
    fn injected(&self, kind: InjectionKind) -> impl Iterator<Item = u64> + '_ {
        self.injections
            .iter()
            .filter(move |&&(_, k)| k == kind)
            .map(|&(at, _)| at)
    }
}

/// Checks every adaptation invariant against one JSONL stream. Returns
/// the (possibly empty) list of violations; a malformed stream is itself
/// reported as a violation rather than an `Err`, so callers treat "can't
/// even parse the record" and "record contradicts itself" uniformly.
pub fn check_jsonl(jsonl: &str, cfg: &InvariantConfig) -> Vec<Violation> {
    let stream = match Stream::parse(jsonl) {
        Ok(s) => s,
        Err(e) => {
            return vec![Violation {
                invariant: "well-formed-stream",
                detail: e,
            }]
        }
    };
    let mut out = Vec::new();
    check_efficiency_recovery(&stream, cfg, &mut out);
    check_blacklist_permanence(&stream, cfg, &mut out);
    check_provenance(&stream, cfg, &mut out);
    check_hub_failover(&stream, &mut out);
    check_no_suspect_shrink(&stream, &mut out);
    if cfg.check_conservation {
        check_conservation(&stream, cfg, &mut out);
    }
    out
}

/// **Hub failover** — a control-plane takeover is accounted and safe:
/// exactly one `hub_failover` event per injected `crash_hub`, and no node
/// the promoted hub inherited as blacklisted ever joins under the new
/// epoch. Streams without hub crashes or takeovers pass trivially, so the
/// check always runs (DES streams simply have nothing to judge).
fn check_hub_failover(stream: &Stream, out: &mut Vec<Violation>) {
    let hub_crashes = stream.injected(InjectionKind::CrashHub).count();
    if stream.failovers.len() != hub_crashes {
        out.push(Violation {
            invariant: "hub-failover",
            detail: format!(
                "{} hub_failover takeover(s) recorded for {} crash_hub injection(s) \
                 — expected exactly one takeover per injected hub crash",
                stream.failovers.len(),
                hub_crashes
            ),
        });
    }
    // Blacklist permanence across the epoch boundary: the takeover event
    // names the blacklisted ids the new primary inherited; none of them
    // may appear in a later membership join on the same stream (the
    // promoted hub's own time axis, so ordering is well-defined).
    for (at, epoch, inherited) in &stream.failovers {
        for &(jat, node, state) in &stream.members {
            if state == MemberState::Joined && jat >= *at && contains(inherited, node) {
                out.push(Violation {
                    invariant: "hub-failover",
                    detail: format!(
                        "node {node} was blacklisted at the epoch-{} takeover yet joined \
                         the promoted hub at t={:.1}s",
                        epoch.unwrap_or(0),
                        jat as f64 / 1e6
                    ),
                });
            }
        }
    }
}

/// Decision kinds that take members out of the pool.
fn is_removal(kind: &str) -> bool {
    matches!(
        kind,
        "remove-nodes" | "remove-cluster" | "opportunistic-swap"
    )
}

/// **No suspect shrink** — judged from the stream alone, three ways.
///
/// 1. Every removal decision's `remove` list is disjoint from the
///    decision's own `suspects` snapshot (the coordinator must never
///    shrink away a member it itself recorded as unresolved).
/// 2. A decision carrying a `hold_fire` reason decided nothing — the
///    reason exists precisely because a shrink was withheld.
/// 3. On streams that carry `member` records sharing the decision time
///    axis, a removal decision falling inside a member's open suspect
///    interval (suspect at `t1`, not yet resumed/died/left by decision
///    time) never targets that member.
///
/// Streams that predate suspicion (no `suspects` field, no `member`
/// suspect records) pass trivially.
fn check_no_suspect_shrink(stream: &Stream, out: &mut Vec<Violation>) {
    for d in &stream.decisions {
        let kind = d.kind.as_str();
        if is_removal(kind) {
            let hit: Vec<u64> = d
                .remove
                .iter()
                .copied()
                .filter(|&n| contains(&d.suspects, n))
                .collect();
            if !hit.is_empty() {
                out.push(Violation {
                    invariant: "no-suspect-shrink",
                    detail: format!(
                        "{kind} decision at t={:.1}s removes node(s) {hit:?} that its own \
                         suspicion snapshot records as unresolved",
                        d.at as f64 / 1e6
                    ),
                });
            }
        }
        if d.hold_fire && kind != "none" {
            out.push(Violation {
                invariant: "no-suspect-shrink",
                detail: format!(
                    "decision at t={:.1}s records a hold-fire reason yet decided {kind:?} \
                     — a withheld decision must decide nothing",
                    d.at as f64 / 1e6
                ),
            });
        }
    }
    // Suspect intervals from membership records: `suspect` opens, any
    // later state for the same node (alive / died / left) closes.
    let mut open: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut intervals: Vec<(u64, u64, u64)> = Vec::new();
    for &(at, node, state) in &stream.members {
        if state == MemberState::Suspect {
            open.entry(node).or_insert(at);
        } else if let Some(start) = open.remove(&node) {
            intervals.push((node, start, at));
        }
    }
    intervals.extend(
        open.into_iter()
            .map(|(node, start)| (node, start, u64::MAX)),
    );
    if intervals.is_empty() {
        return;
    }
    for d in stream.decisions.iter().filter(|d| is_removal(&d.kind)) {
        for &(node, start, end) in &intervals {
            if contains(&d.remove, node) && d.at >= start && d.at < end {
                out.push(Violation {
                    invariant: "no-suspect-shrink",
                    detail: format!(
                        "{} decision at t={:.1}s removes node {node} inside its suspect \
                         window [{:.1}s, {})",
                        d.kind,
                        d.at as f64 / 1e6,
                        start as f64 / 1e6,
                        if end == u64::MAX {
                            "unresolved".to_string()
                        } else {
                            format!("{:.1}s", end as f64 / 1e6)
                        },
                    ),
                });
            }
        }
    }
}

fn check_efficiency_recovery(stream: &Stream, cfg: &InvariantConfig, out: &mut Vec<Violation>) {
    let Some(t_last) = stream.injections.iter().map(|&(at, _)| at).max() else {
        return; // undisturbed run: nothing to recover from
    };
    let t_end = stream.t_end;
    if t_end < t_last.saturating_add(cfg.settle_us) {
        return; // run ended before a recovery could be observed
    }
    let best = stream
        .decisions
        .iter()
        .filter(|d| d.at > t_last)
        .filter_map(|d| d.wa_eff)
        .fold(f64::NEG_INFINITY, f64::max);
    if best < cfg.recovery_eff {
        out.push(Violation {
            invariant: "efficiency-recovery",
            detail: format!(
                "after the last disturbance at {:.1}s the best coordinator-seen \
                 efficiency was {best:.3} (< {:.3}) though the run continued to {:.1}s",
                t_last as f64 / 1e6,
                cfg.recovery_eff,
                t_end as f64 / 1e6,
            ),
        });
    }
}

fn check_blacklist_permanence(stream: &Stream, cfg: &InvariantConfig, out: &mut Vec<Violation>) {
    // Blacklists only grow across the decision sequence.
    let (mut nodes, mut clusters): (&[u64], &[u64]) = (&[], &[]);
    for d in &stream.decisions {
        let (n, c) = (&d.blacklist_nodes, &d.blacklist_clusters);
        if !is_superset(n, nodes) || !is_superset(c, clusters) {
            out.push(Violation {
                invariant: "blacklist-permanence",
                detail: format!(
                    "blacklist shrank at decision t={:.1}s (nodes {} -> {}, clusters {} -> {})",
                    d.at as f64 / 1e6,
                    nodes.len(),
                    n.len(),
                    clusters.len(),
                    c.len()
                ),
            });
            return;
        }
        nodes = n;
        clusters = c;
    }
    if !cfg.check_membership {
        return;
    }
    // No blacklisted node — and no node of a blacklisted cluster — ever
    // joins after the blacklisting decision.
    for &(at, join) in &stream.joins {
        let Some((node, cluster)) = join else {
            continue;
        };
        let Some(d) = stream.decisions.iter().rev().find(|d| d.at < at) else {
            continue;
        };
        if contains(&d.blacklist_nodes, node) || contains(&d.blacklist_clusters, cluster) {
            out.push(Violation {
                invariant: "blacklist-permanence",
                detail: format!(
                    "node {node} (cluster {cluster}) joined at t={:.1}s while blacklisted",
                    at as f64 / 1e6
                ),
            });
        }
    }
}

fn check_provenance(stream: &Stream, cfg: &InvariantConfig, out: &mut Vec<Violation>) {
    // Every decision line reconstructs losslessly (checked while parsing).
    for (at, e) in &stream.unreconstructed {
        out.push(Violation {
            invariant: "decision-provenance",
            detail: format!(
                "decision at t={:.1}s failed reconstruction: {e}",
                *at as f64 / 1e6
            ),
        });
    }
    if !cfg.check_membership {
        return;
    }
    // Times at which an add-like source fired: a join at source+delay is
    // justified.
    let add_times: BTreeSet<u64> = stream
        .decisions
        .iter()
        .filter(|d| matches!(d.kind.as_str(), "add" | "opportunistic-swap"))
        .map(|d| d.at)
        .chain(stream.injected(InjectionKind::Grow))
        .collect();
    for &(at, _) in &stream.joins {
        if at == 0 {
            continue; // initial t = 0 activation wave
        }
        let source = at.checked_sub(cfg.join_delay_us);
        if source.is_none_or(|s| !add_times.contains(&s)) {
            out.push(Violation {
                invariant: "decision-provenance",
                detail: format!(
                    "join at t={:.1}s has no add decision or grow injection at t={:.1}s",
                    at as f64 / 1e6,
                    at.saturating_sub(cfg.join_delay_us) as f64 / 1e6
                ),
            });
        }
    }
    // A leave must follow SOME removal source (nodes drain at their own
    // pace after the signal, so the match is "a source fired earlier",
    // not an exact time).
    let removal_times: Vec<u64> = stream
        .decisions
        .iter()
        .filter(|d| is_removal(&d.kind))
        .map(|d| d.at)
        .chain(stream.injected(InjectionKind::Shrink))
        .collect();
    for &(at, node) in &stream.leaves {
        if !removal_times.iter().any(|&t| t <= at) {
            out.push(Violation {
                invariant: "decision-provenance",
                detail: format!(
                    "node {} left at t={:.1}s with no prior removal decision or shrink injection",
                    node.unwrap_or(u64::MAX),
                    at as f64 / 1e6
                ),
            });
        }
    }
    // A crash burst coincides with a crash injection.
    let crash_injection_times: BTreeSet<u64> = stream.injected(InjectionKind::Crash).collect();
    for &(at, _) in &stream.crashes {
        if !crash_injection_times.contains(&at) {
            out.push(Violation {
                invariant: "decision-provenance",
                detail: format!(
                    "crash at t={:.1}s matches no crash injection",
                    at as f64 / 1e6
                ),
            });
        }
    }
}

fn check_conservation(stream: &Stream, cfg: &InvariantConfig, out: &mut Vec<Violation>) {
    let mut expect = |counter: &str, got: u64| {
        let want = stream.counter(counter);
        if want != got {
            out.push(Violation {
                invariant: "work-conservation",
                detail: format!("counter {counter}={want} but the event stream records {got}"),
            });
        }
    };
    let joins = stream.joins.len() as u64;
    let leaves = stream.leaves.len() as u64;
    let crashes: u64 = stream.crashes.iter().map(|&(_, victims)| victims).sum();
    expect("des.node_joins", joins);
    expect("des.node_leaves", leaves);
    expect("des.node_crashes", crashes);
    expect("des.injections", stream.injections.len() as u64);
    expect("des.decisions", stream.decisions.len() as u64);
    // Membership flow balance: what joined and never left or crashed is
    // exactly what's still alive.
    let alive = stream
        .gauges
        .iter()
        .find(|(n, _)| n == "des.nodes_alive")
        .map_or(0, |&(_, v)| v);
    if joins as i64 - leaves as i64 - crashes as i64 != alive {
        out.push(Violation {
            invariant: "work-conservation",
            detail: format!(
                "membership flow does not balance: {joins} joins - {leaves} leaves - \
                 {crashes} crashes != {alive} alive"
            ),
        });
    }
    if let Some(want) = cfg.expected_iterations {
        let done = stream
            .histograms
            .iter()
            .find(|(n, _)| n == "des.iteration_secs")
            .map_or(0, |&(_, c)| c);
        if done != want {
            out.push(Violation {
                invariant: "work-conservation",
                detail: format!("run completed {done} of {want} iterations"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_core::metrics::Metrics;
    use sagrid_simgrid::{AdaptMode, GridSim};

    use crate::spec::{EventKind, GridSpec, ScenarioSpec, TimedEvent};

    fn base_spec(events: Vec<TimedEvent>) -> ScenarioSpec {
        ScenarioSpec {
            name: "inv".into(),
            description: String::new(),
            grid: GridSpec::Uniform {
                clusters: 3,
                nodes_per_cluster: 12,
            },
            layout: vec![(0, 12), (1, 12), (2, 12)],
            iterations: 6,
            seed: 11,
            target_nodes: 36,
            target_iter_secs: 4.0,
            monitoring_period_secs: Some(30),
            events,
        }
    }

    fn run_jsonl(spec: &ScenarioSpec) -> (String, InvariantConfig) {
        let cfg = spec.sim_config(AdaptMode::Adapt).unwrap();
        let expected_iterations = spec.iterations as u64;
        let metrics = Metrics::enabled();
        let result = GridSim::try_run_with_metrics(cfg, metrics).unwrap();
        assert!(!result.timed_out);
        let jsonl = result.metrics.expect("metrics enabled").to_jsonl();
        let inv = InvariantConfig {
            settle_us: 60_000_000,
            expected_iterations: Some(expected_iterations),
            ..InvariantConfig::default()
        };
        (jsonl, inv)
    }

    #[test]
    fn clean_crash_run_passes_every_invariant() {
        let spec = base_spec(vec![TimedEvent {
            at_us: 20_000_000,
            event: EventKind::CrashCluster { cluster: 2 },
        }]);
        let (jsonl, inv) = run_jsonl(&spec);
        let violations = check_jsonl(&jsonl, &inv);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn grow_and_shrink_membership_changes_are_accounted() {
        let spec = base_spec(vec![
            TimedEvent {
                at_us: 15_000_000,
                event: EventKind::Grow {
                    count: 4,
                    prefer: Some(0),
                },
            },
            TimedEvent {
                at_us: 25_000_000,
                event: EventKind::Shrink {
                    cluster: 1,
                    count: 3,
                },
            },
        ]);
        let (jsonl, inv) = run_jsonl(&spec);
        let violations = check_jsonl(&jsonl, &inv);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
        // The stream really contains what the invariants certify.
        assert!(jsonl.contains("\"injection\":\"grow\""));
        assert!(jsonl.contains("\"injection\":\"shrink\""));
    }

    #[test]
    fn doctored_streams_are_caught() {
        let spec = base_spec(vec![TimedEvent {
            at_us: 20_000_000,
            event: EventKind::CrashNodes {
                cluster: 1,
                count: 4,
            },
        }]);
        let (jsonl, inv) = run_jsonl(&spec);

        // Remove the crash injection record: the crash event loses its
        // justification AND the injection counter stops matching.
        let no_injection: String = jsonl
            .lines()
            .filter(|l| !l.contains("\"injection\":\"crash_nodes\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let v = check_jsonl(&no_injection, &inv);
        assert!(
            v.iter().any(|v| v.invariant == "decision-provenance"),
            "missing injection must break crash provenance: {v:?}"
        );
        assert!(v.iter().any(|v| v.invariant == "work-conservation"));

        // Drop a join event: flow balance and the join counter both break.
        let mut dropped = false;
        let no_join: String = jsonl
            .lines()
            .filter(|l| {
                if !dropped && l.contains("\"kind\":\"join\"") {
                    dropped = true;
                    return false;
                }
                true
            })
            .map(|l| format!("{l}\n"))
            .collect();
        let v = check_jsonl(&no_join, &inv);
        assert!(
            v.iter().any(|v| v.invariant == "work-conservation"),
            "missing join must break conservation: {v:?}"
        );

        // A garbage line fails the stream itself.
        let v = check_jsonl("not json\n", &inv);
        assert_eq!(v[0].invariant, "well-formed-stream");
    }

    /// The checker reconstructs each decision while parsing and keeps
    /// none of its badness rows; a corrupt row must still surface as a
    /// provenance violation naming that decision's time.
    #[test]
    fn corrupt_badness_row_is_caught_at_its_decision_time() {
        let inv = InvariantConfig {
            check_membership: false,
            check_conservation: false,
            ..InvariantConfig::default()
        };
        let decision = |at_us: u64, row: &str| {
            format!(
                r#"{{"type":"event","at_us":{at_us},"kind":"decision","decision":"none","wa_eff":0.4,"reports":1,"badness":[{row}],"blacklist_nodes":[],"blacklist_clusters":[]}}"#
            )
        };
        let good_row = r#"{"node":3,"cluster":0,"speed":1,"ic":0.1,"worst":false,"badness":0.5}"#;
        let no_ic_row = r#"{"node":3,"cluster":0,"speed":1,"worst":false,"badness":0.5}"#;
        let clean = format!(
            "{}\n{}\n",
            decision(1_000_000, good_row),
            decision(2_500_000, good_row)
        );
        assert!(check_jsonl(&clean, &inv).is_empty());

        let corrupt = format!(
            "{}\n{}\n{}\n",
            decision(1_000_000, good_row),
            decision(2_500_000, no_ic_row),
            decision(4_000_000, good_row)
        );
        let v = check_jsonl(&corrupt, &inv);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "decision-provenance");
        assert!(
            v[0].detail.contains("t=2.5s") && v[0].detail.contains("badness.ic"),
            "{}",
            v[0].detail
        );
    }

    #[test]
    fn suspect_shrink_is_caught_from_the_stream_alone() {
        let inv = InvariantConfig {
            check_membership: false,
            check_conservation: false,
            ..InvariantConfig::default()
        };
        // Reconstructible decision lines (the provenance invariant runs on
        // every stream, so the fixtures carry the full evidence fields).
        let base =
            r#""wa_eff":0.5,"reports":4,"badness":[],"blacklist_nodes":[],"blacklist_clusters":[]"#;
        // A removal whose own snapshot lists a removed node as suspect.
        let bad_snapshot = format!(
            r#"{{"type":"event","at_us":1000,"kind":"decision","decision":"remove-nodes",{base},"remove":[4,7],"suspects":[7]}}"#
        );
        let v = check_jsonl(&format!("{bad_snapshot}\n"), &inv);
        assert!(
            v.iter()
                .any(|v| v.invariant == "no-suspect-shrink" && v.detail.contains("[7]")),
            "snapshot overlap must be caught: {v:?}"
        );

        // A hold-fire reason on anything but a kind-none decision.
        let bad_holdfire = format!(
            r#"{{"type":"event","at_us":1000,"kind":"decision","decision":"remove-nodes",{base},"remove":[4],"suspects":[],"hold_fire":"withheld"}}"#
        );
        let v = check_jsonl(&format!("{bad_holdfire}\n"), &inv);
        assert!(
            v.iter().any(|v| v.invariant == "no-suspect-shrink"),
            "hold_fire on a removal must be caught: {v:?}"
        );

        // A removal landing inside a member's open suspect interval.
        let suspect = r#"{"type":"event","at_us":500,"kind":"member","node":9,"state":"suspect"}"#;
        let in_window = format!(
            r#"{{"type":"event","at_us":800,"kind":"decision","decision":"remove-nodes",{base},"remove":[9],"suspects":[]}}"#
        );
        let v = check_jsonl(&format!("{suspect}\n{in_window}\n"), &inv);
        assert!(
            v.iter()
                .any(|v| v.invariant == "no-suspect-shrink" && v.detail.contains("node 9")),
            "interval overlap must be caught: {v:?}"
        );

        // The same removal after the suspicion resolved is clean, and a
        // held (kind-none) decision with suspects outstanding is clean.
        let resumed = r#"{"type":"event","at_us":700,"kind":"member","node":9,"state":"alive"}"#;
        let held = format!(
            r#"{{"type":"event","at_us":600,"kind":"decision","decision":"none",{base},"suspects":[9],"hold_fire":"withheld remove-nodes: 1 member(s) suspect"}}"#
        );
        let good = format!("{suspect}\n{held}\n{resumed}\n{in_window}\n");
        assert!(check_jsonl(&good, &inv).is_empty());
    }

    #[test]
    fn hub_failover_takeovers_match_injections_and_blacklists_persist() {
        let inv = InvariantConfig {
            check_membership: false,
            check_conservation: false,
            ..InvariantConfig::default()
        };
        let crash =
            r#"{"type":"event","at_us":1000000,"kind":"injection","injection":"crash_hub"}"#;
        let takeover = r#"{"type":"event","at_us":100,"kind":"hub_failover","epoch":2,"leader":1,"blacklisted_nodes":[3]}"#;
        let clean_join =
            r#"{"type":"event","at_us":200,"kind":"member","node":5,"state":"joined"}"#;
        let bad_join = r#"{"type":"event","at_us":300,"kind":"member","node":3,"state":"joined"}"#;

        // One crash, one takeover, blacklisted node stays out: passes.
        let good = format!("{crash}\n{takeover}\n{clean_join}\n");
        assert!(check_jsonl(&good, &inv).is_empty());

        // A takeover with no crash_hub injection (or vice versa) is caught.
        let unmatched = format!("{takeover}\n{clean_join}\n");
        assert!(check_jsonl(&unmatched, &inv)
            .iter()
            .any(|v| v.invariant == "hub-failover"));
        let lost = format!("{crash}\n");
        assert!(check_jsonl(&lost, &inv)
            .iter()
            .any(|v| v.invariant == "hub-failover"));

        // An inherited-blacklist node joining the promoted hub is caught.
        let rejoined = format!("{crash}\n{takeover}\n{bad_join}\n");
        assert!(check_jsonl(&rejoined, &inv)
            .iter()
            .any(|v| v.invariant == "hub-failover" && v.detail.contains("node 3")));
    }
}
