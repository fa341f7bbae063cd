//! The adaptation coordinator (paper §3.3, Figure 2).
//!
//! An extra process added to the computation. It periodically collects
//! [`MonitoringReport`]s from the application processors, computes the
//! weighted average efficiency, and walks the flowchart of Figure 2:
//!
//! ```text
//!   collect statistics
//!   compute wa_efficiency E
//!   if a cluster's ic_overhead is exceptionally high → remove that cluster
//!   if E > E_MAX → request (more) nodes; prefer faster ones if available
//!   if E < E_MIN → rank nodes by badness, remove the worst
//!   otherwise    → no action (unless opportunistic migration is enabled)
//! ```
//!
//! The coordinator *learns* application requirements along the way: removed
//! resources are blacklisted, and each removed badly-connected cluster
//! tightens the lower bound on the bandwidth the application needs, which is
//! passed to the scheduler on subsequent requests.

use crate::badness::{cluster_views, node_badness, worst_cluster};
use crate::efficiency::wa_efficiency_of_reports;
use crate::policy::AdaptPolicy;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::stats::MonitoringReport;
use sagrid_core::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Requirements the coordinator has learned and passes to the scheduler.
/// (Mirrors `sagrid_sched::Requirements`; kept separate so this crate stays
/// engine- and scheduler-agnostic.)
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LearnedRequirements {
    /// Lower bound on site uplink bandwidth (bytes/s).
    pub min_uplink_bps: Option<f64>,
    /// Lower bound on node speed (used by opportunistic migration).
    pub min_speed: Option<f64>,
}

/// What the coordinator wants the engine/scheduler to do after one
/// evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum Decision {
    /// Efficiency within thresholds (or no data yet): leave the set alone.
    None,
    /// Efficiency above `E_MAX`: request `count` extra nodes.
    Add {
        /// How many nodes to request.
        count: usize,
        /// Learned requirements to pass to the scheduler.
        requirements: LearnedRequirements,
        /// Clusters the application already occupies (locality preference).
        prefer: Vec<ClusterId>,
    },
    /// Efficiency below `E_MIN`: remove these (worst-first) nodes.
    RemoveNodes {
        /// Nodes to signal out of the computation, worst first.
        nodes: Vec<NodeId>,
    },
    /// A cluster's inter-cluster overhead is exceptionally high: drop the
    /// whole site.
    RemoveCluster {
        /// The badly-connected cluster.
        cluster: ClusterId,
        /// Its (reporting) member nodes.
        nodes: Vec<NodeId>,
    },
    /// Opportunistic migration (future-work extension, off by default):
    /// faster nodes exist — add replacements, then retire the slow nodes.
    OpportunisticSwap {
        /// Slow nodes to retire once replacements have joined.
        remove: Vec<NodeId>,
        /// Number of replacement nodes to request.
        add: usize,
        /// Requirements ensuring replacements are actually faster.
        requirements: LearnedRequirements,
    },
}

impl Decision {
    /// Short human-readable tag for logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Decision::None => "none",
            Decision::Add { .. } => "add",
            Decision::RemoveNodes { .. } => "remove-nodes",
            Decision::RemoveCluster { .. } => "remove-cluster",
            Decision::OpportunisticSwap { .. } => "opportunistic-swap",
        }
    }
}

/// The badness inputs of one node at evaluation time — the provenance of
/// a removal decision. Captures exactly the terms the badness formula
/// consumed, so a decision can be audited (or re-derived) from the log
/// alone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeBadnessRecord {
    /// The node.
    pub node: NodeId,
    /// Its cluster.
    pub cluster: ClusterId,
    /// Measured relative speed (the α term's input).
    pub speed: f64,
    /// Inter-cluster overhead fraction (the β term's input).
    pub ic_overhead: f64,
    /// Whether the node sat in the worst cluster (the γ term's input).
    pub in_worst_cluster: bool,
    /// The resulting badness value.
    pub badness: f64,
}

/// One line of the decision log (drives the experiment
/// reports' event annotations, e.g. "badly connected cluster removed").
///
/// Beyond the decision itself, each entry is a full provenance record:
/// the per-node badness terms that ranked the candidates, the blacklist
/// contents *after* the decision was applied (the delta against the
/// previous entry shows what this decision added), and the learned
/// requirements in force. A decision is reconstructible from this entry
/// alone — and from the JSONL stream the engine emits for it.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionLogEntry {
    /// When the evaluation happened.
    pub at: SimTime,
    /// Weighted average efficiency at that moment.
    pub wa_efficiency: f64,
    /// Number of nodes that contributed reports.
    pub nodes: usize,
    /// The decision taken.
    pub decision: Decision,
    /// Badness inputs per reporting node, ranked worst-first (the order
    /// removal candidates were considered in). Empty when no reports.
    pub badness: Vec<NodeBadnessRecord>,
    /// Blacklisted nodes after this decision (sorted).
    pub blacklisted_nodes: Vec<NodeId>,
    /// Blacklisted clusters after this decision (sorted).
    pub blacklisted_clusters: Vec<ClusterId>,
    /// Learned requirements after this decision.
    pub learned: LearnedRequirements,
    /// Members that were Suspect (silent but not yet declared dead) when
    /// this evaluation ran (sorted). Their reports were excluded from the
    /// efficiency denominator and the badness ranking.
    pub suspect_ids: Vec<NodeId>,
    /// When a removal decision was withheld because suspicion was
    /// outstanding, the human-readable reason; `None` otherwise. A
    /// `Some` here always pairs with `Decision::None`.
    pub hold_fire: Option<String>,
}

/// The adaptation coordinator state machine.
///
/// ```
/// use sagrid_adapt::{AdaptPolicy, Coordinator, Decision};
/// use sagrid_core::ids::{ClusterId, NodeId};
/// use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
/// use sagrid_core::time::{SimDuration, SimTime};
///
/// let mut coordinator = Coordinator::new(AdaptPolicy::default());
/// // Four fully-busy nodes report in: efficiency is ~1.0, far above
/// // E_MAX = 0.5, so the coordinator asks the scheduler for more nodes.
/// for i in 0..4 {
///     coordinator.record_report(MonitoringReport {
///         node: NodeId(i),
///         cluster: ClusterId(0),
///         period_end: SimTime::from_secs(180),
///         breakdown: OverheadBreakdown {
///             busy: SimDuration::from_secs(180),
///             ..Default::default()
///         },
///         speed: 1.0,
///     });
/// }
/// match coordinator.evaluate(SimTime::from_secs(180), None) {
///     Decision::Add { count, .. } => assert!(count >= 1),
///     other => panic!("expected growth, got {other:?}"),
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Coordinator {
    policy: AdaptPolicy,
    /// Latest report per live node. The paper: when the coordinator misses a
    /// node's data at a period boundary it simply uses the previous report.
    latest: BTreeMap<NodeId, MonitoringReport>,
    blacklisted_nodes: BTreeSet<NodeId>,
    blacklisted_clusters: BTreeSet<ClusterId>,
    /// Engine-supplied observations of per-cluster uplink bandwidth
    /// (measured from data transfer times, §3.3).
    uplink_observations: BTreeMap<ClusterId, f64>,
    learned: LearnedRequirements,
    /// The latest evaluation's entry. The history lives with the readers
    /// that need it (the engine's `RunResult`, the JSONL stream), so a
    /// long-lived coordinator's memory does not grow with run length.
    last: Option<DecisionLogEntry>,
    /// Members whose liveness is currently unresolved: the failure
    /// detector has seen suspicious silence but has not yet promoted them
    /// to dead. Their stale reports must not poison the efficiency
    /// denominator, and no shrink may fire while this set is non-empty
    /// (the hold-fire rule) — removal would otherwise target survivors
    /// on the basis of a disturbance that is still being resolved.
    suspects: BTreeSet<NodeId>,
}

impl Coordinator {
    /// Creates a coordinator with the given policy. Panics on an invalid
    /// policy — a misconfigured coordinator silently produces wrong
    /// adaptation, which is worse than failing fast.
    pub fn new(policy: AdaptPolicy) -> Self {
        policy.validate().expect("invalid adaptation policy");
        Self {
            policy,
            latest: BTreeMap::new(),
            blacklisted_nodes: BTreeSet::new(),
            blacklisted_clusters: BTreeSet::new(),
            uplink_observations: BTreeMap::new(),
            learned: LearnedRequirements::default(),
            last: None,
            suspects: BTreeSet::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &AdaptPolicy {
        &self.policy
    }

    /// Replaces the badness coefficients (feedback control, paper §7).
    pub fn set_coefficients(&mut self, coefficients: crate::badness::BadnessCoefficients) {
        self.policy.coefficients = coefficients;
    }

    /// Stores a node's end-of-period report (overwrites the previous one).
    /// A fresh report from a Suspect member is proof of life: the
    /// suspicion is cleared in place.
    pub fn record_report(&mut self, report: MonitoringReport) {
        self.suspects.remove(&report.node);
        self.latest.insert(report.node, report);
    }

    /// Forgets a node that left or died.
    pub fn node_gone(&mut self, node: NodeId) {
        self.latest.remove(&node);
        self.suspects.remove(&node);
    }

    /// Marks a member as Suspect: the failure detector has observed
    /// suspicious silence but has not yet declared it dead. The member's
    /// stale report stops counting toward the efficiency denominator and
    /// no shrink decision fires until the suspicion resolves (a fresh
    /// report / [`Self::clear_suspect`] confirms life, or
    /// [`Self::record_crashed`] / [`Self::node_gone`] confirms death).
    pub fn mark_suspect(&mut self, node: NodeId) {
        // Deliberately unconditional: a member can fall silent before its
        // first report ever arrives, and its unresolved liveness must
        // still hold fire.
        self.suspects.insert(node);
    }

    /// Marks a batch of members Suspect (mass-crash detection windows).
    pub fn mark_suspects(&mut self, nodes: &[NodeId]) {
        for &node in nodes {
            self.mark_suspect(node);
        }
    }

    /// Clears a suspicion after the member proved to be alive (resumed
    /// heartbeats). Returns whether the node was actually suspect. The
    /// member is NOT blacklisted — suspicion is not a verdict.
    pub fn clear_suspect(&mut self, node: NodeId) -> bool {
        self.suspects.remove(&node)
    }

    /// Members currently under suspicion.
    pub fn suspects(&self) -> &BTreeSet<NodeId> {
        &self.suspects
    }

    /// Records a bandwidth observation for a cluster's uplink (bytes/s),
    /// estimated from data-transfer times during the computation.
    pub fn observe_uplink(&mut self, cluster: ClusterId, bps: f64) {
        self.uplink_observations.insert(cluster, bps);
    }

    /// Nodes currently known (reported at least once and not gone).
    pub fn known_nodes(&self) -> usize {
        self.latest.len()
    }

    /// Iterates over the latest report per live node.
    pub fn latest_reports(&self) -> impl Iterator<Item = &MonitoringReport> {
        self.latest.values()
    }

    /// The learned application requirements so far.
    pub fn learned_requirements(&self) -> LearnedRequirements {
        self.learned
    }

    /// Blacklisted nodes (never to be re-added).
    pub fn blacklisted_nodes(&self) -> &BTreeSet<NodeId> {
        &self.blacklisted_nodes
    }

    /// Blacklisted clusters.
    pub fn blacklisted_clusters(&self) -> &BTreeSet<ClusterId> {
        &self.blacklisted_clusters
    }

    /// The entry of the latest [`Self::evaluate`]; every evaluation
    /// replaces it.
    pub fn last_decision(&self) -> Option<&DecisionLogEntry> {
        self.last.as_ref()
    }

    /// Weighted average efficiency over the currently known reports,
    /// excluding Suspect members — efficiency is only defined over
    /// members confirmed alive.
    pub fn current_wa_efficiency(&self) -> f64 {
        wa_efficiency_of_reports(
            self.latest
                .values()
                .filter(|r| !self.suspects.contains(&r.node)),
        )
    }

    /// One walk of the Figure-2 flowchart.
    ///
    /// `fastest_available_speed` is the scheduler's advertisement of the
    /// best relative speed among currently *free* nodes; it is only
    /// consulted when the opportunistic-migration extension is enabled
    /// (the paper's grid schedulers could not provide such notifications —
    /// ours can, which is exactly the §7 future-work experiment).
    pub fn evaluate(&mut self, now: SimTime, fastest_available_speed: Option<f64>) -> Decision {
        // Suspicion-aware monitoring: only members confirmed alive feed
        // the efficiency denominator and the badness ranking. A Suspect
        // member's stale report would otherwise drag wa_efficiency down
        // and make the flowchart shrink away survivors during the
        // crash-detection window.
        let reports: Vec<MonitoringReport> = self
            .latest
            .values()
            .filter(|r| !self.suspects.contains(&r.node))
            .copied()
            .collect();
        if reports.is_empty() {
            let hold_fire = (!self.suspects.is_empty()).then(|| {
                format!(
                    "no alive-confirmed reports: all {} known members are suspect",
                    self.suspects.len()
                )
            });
            return self.log_and_return(now, 0.0, 0, Vec::new(), Decision::None, hold_fire);
        }
        let wa_eff = wa_efficiency_of_reports(&reports);
        let n = reports.len();

        // Step 1: exceptional inter-cluster overhead ⇒ the uplink bandwidth
        // to that cluster is insufficient; remove the whole cluster rather
        // than computing node badness (paper §3.3). Only meaningful when
        // the application spans more than one cluster.
        let views = cluster_views(&reports);
        // Provenance: the badness terms of every reporting node at this
        // instant, ranked worst-first — the exact inputs a removal decision
        // considers, captured whether or not one is taken.
        let worst = worst_cluster(&self.policy.coefficients, &views);
        let provenance = badness_provenance(&self.policy.coefficients, &reports, worst);
        if views.len() >= 2 {
            let second_worst_ic = {
                let mut ics: Vec<f64> = views.iter().map(|v| v.ic_overhead).collect();
                ics.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
                ics.get(1).copied().unwrap_or(0.0)
            };
            if let Some(bad) = views
                .iter()
                .filter(|v| {
                    v.ic_overhead > self.policy.exceptional_ic_overhead
                        && v.ic_overhead >= second_worst_ic * self.policy.exceptional_ic_dominance
                })
                .max_by(|a, b| {
                    a.ic_overhead
                        .partial_cmp(&b.ic_overhead)
                        .expect("overheads are finite")
                        .then(b.cluster.cmp(&a.cluster))
                })
            {
                let cluster = bad.cluster;
                let nodes = bad.nodes.clone();
                // Hold-fire: removal decisions wait out unresolved
                // silence. Checked before any side effect so a withheld
                // decision leaves no blacklist or report-set trace.
                if let Some(reason) = self.hold_fire_reason("remove-cluster") {
                    return self.log_and_return(
                        now,
                        wa_eff,
                        n,
                        provenance,
                        Decision::None,
                        Some(reason),
                    );
                }
                if self.policy.blacklist_removed {
                    self.blacklisted_clusters.insert(cluster);
                }
                // Learn the bandwidth requirement: the application needs
                // strictly more than this cluster's uplink provided.
                if let Some(&bw) = self.uplink_observations.get(&cluster) {
                    let bound = self.learned.min_uplink_bps.unwrap_or(0.0).max(bw);
                    self.learned.min_uplink_bps = Some(bound);
                }
                for node in &nodes {
                    self.latest.remove(node);
                }
                return self.log_and_return(
                    now,
                    wa_eff,
                    n,
                    provenance,
                    Decision::RemoveCluster { cluster, nodes },
                    None,
                );
            }
        }

        // Step 2: efficiency above E_MAX ⇒ the application can use more
        // processors; ask the scheduler, preferring sites we already occupy.
        if wa_eff > self.policy.e_max {
            let count = self.policy.grow_size(wa_eff, n);
            let mut prefer: Vec<ClusterId> = reports.iter().map(|r| r.cluster).collect();
            prefer.sort_unstable();
            prefer.dedup();
            let decision = Decision::Add {
                count,
                requirements: self.learned,
                prefer,
            };
            // Growth is safe during a suspicion window — adding capacity
            // never amputates a survivor — so Add is NOT held.
            return self.log_and_return(now, wa_eff, n, provenance, decision, None);
        }

        // Step 3: efficiency below E_MIN ⇒ performance problem (or simply
        // too many processors); rank nodes by badness and remove the worst.
        // The removal set is the proportional count, extended to cover every
        // clear badness *outlier* (more than `badness_outlier_factor` × the
        // median): when one cluster's processors are overloaded, all of them
        // go in one decision, as in the paper's scenario 3.
        if wa_eff < self.policy.e_min {
            if let Some(reason) = self.hold_fire_reason("remove-nodes") {
                return self.log_and_return(
                    now,
                    wa_eff,
                    n,
                    provenance,
                    Decision::None,
                    Some(reason),
                );
            }
            let count = self.policy.shrink_size(wa_eff, n);
            if count == 0 {
                return self.log_and_return(now, wa_eff, n, provenance, Decision::None, None);
            }
            let median = provenance[provenance.len() / 2].badness;
            let outliers = provenance
                .iter()
                .take_while(|p| p.badness > median * self.policy.badness_outlier_factor)
                .count();
            let removable = n.saturating_sub(self.policy.min_nodes);
            let count = count.max(outliers).min(removable);
            let nodes: Vec<NodeId> = provenance.iter().take(count).map(|p| p.node).collect();
            if self.policy.blacklist_removed {
                self.blacklisted_nodes.extend(nodes.iter().copied());
            }
            for node in &nodes {
                self.latest.remove(node);
            }
            return self.log_and_return(
                now,
                wa_eff,
                n,
                provenance,
                Decision::RemoveNodes { nodes },
                None,
            );
        }

        // Step 4 (extension, §7): efficiency is acceptable, but distinctly
        // faster nodes are available — opportunistic migration.
        if self.policy.opportunistic_migration {
            if let Some(avail) = fastest_available_speed {
                let margin = self.policy.opportunistic_speed_margin;
                let mut slow: Vec<(NodeId, f64)> = reports
                    .iter()
                    .filter(|r| r.speed * margin < avail)
                    .map(|r| (r.node, r.speed))
                    .collect();
                if !slow.is_empty() {
                    if let Some(reason) = self.hold_fire_reason("opportunistic-swap") {
                        return self.log_and_return(
                            now,
                            wa_eff,
                            n,
                            provenance,
                            Decision::None,
                            Some(reason),
                        );
                    }
                    // Slowest first; cap at the growth budget.
                    slow.sort_by(|a, b| {
                        a.1.partial_cmp(&b.1)
                            .expect("speeds are finite")
                            .then(a.0.cmp(&b.0))
                    });
                    slow.truncate(self.policy.max_growth_per_period);
                    let remove: Vec<NodeId> = slow.iter().map(|&(id, _)| id).collect();
                    let add = remove.len();
                    let mut requirements = self.learned;
                    // Replacements must beat the best node we are retiring.
                    let fastest_removed = slow.iter().map(|&(_, s)| s).fold(0.0_f64, f64::max);
                    requirements.min_speed = Some(fastest_removed * margin);
                    for node in &remove {
                        self.latest.remove(node);
                    }
                    let decision = Decision::OpportunisticSwap {
                        remove,
                        add,
                        requirements,
                    };
                    return self.log_and_return(now, wa_eff, n, provenance, decision, None);
                }
            }
        }

        self.log_and_return(now, wa_eff, n, provenance, Decision::None, None)
    }

    /// The hold-fire rule (suspicion-aware shrink): while any member's
    /// liveness is unresolved, removal decisions are withheld. Returns
    /// the reason string to record in the decision's provenance, or
    /// `None` when firing is allowed.
    fn hold_fire_reason(&self, withheld_kind: &str) -> Option<String> {
        if self.suspects.is_empty() {
            return None;
        }
        Some(format!(
            "withheld {withheld_kind}: {} member(s) suspect, liveness unresolved",
            self.suspects.len()
        ))
    }

    /// Notes that `nodes` crashed (fail-stop failure, paper §5 scenario 6).
    ///
    /// Crashed resources are treated like removed ones: their reports are
    /// dropped and — under the default blacklisting policy — they are
    /// blacklisted so the scheduler never hands them back. When an entire
    /// cluster went down at once, `cluster` blacklists the whole site:
    /// re-adding survivors of a failed site would just invite the next
    /// fault-detection round-trip.
    pub fn record_crashed(&mut self, nodes: &[NodeId], cluster: Option<ClusterId>) {
        for node in nodes {
            self.latest.remove(node);
            self.suspects.remove(node);
            if self.policy.blacklist_removed {
                self.blacklisted_nodes.insert(*node);
            }
        }
        if let Some(c) = cluster {
            if self.policy.blacklist_removed {
                self.blacklisted_clusters.insert(c);
            }
        }
    }

    fn log_and_return(
        &mut self,
        at: SimTime,
        wa_efficiency: f64,
        nodes: usize,
        badness: Vec<NodeBadnessRecord>,
        decision: Decision,
        hold_fire: Option<String>,
    ) -> Decision {
        self.last = Some(DecisionLogEntry {
            at,
            wa_efficiency,
            nodes,
            decision: decision.clone(),
            badness,
            blacklisted_nodes: self.blacklisted_nodes.iter().copied().collect(),
            blacklisted_clusters: self.blacklisted_clusters.iter().copied().collect(),
            learned: self.learned,
            suspect_ids: self.suspects.iter().copied().collect(),
            hold_fire,
        });
        decision
    }
}

/// Computes the full badness provenance for one evaluation: every node's
/// formula inputs and result, ranked worst-first with the same tie-break
/// as [`crate::badness::rank_nodes_by_badness`] (higher node id first).
fn badness_provenance(
    coeff: &crate::badness::BadnessCoefficients,
    reports: &[MonitoringReport],
    worst: Option<ClusterId>,
) -> Vec<NodeBadnessRecord> {
    let mut records: Vec<NodeBadnessRecord> = reports
        .iter()
        .map(|r| {
            let ic = r.ic_overhead_fraction();
            let in_worst = Some(r.cluster) == worst;
            NodeBadnessRecord {
                node: r.node,
                cluster: r.cluster,
                speed: r.speed,
                ic_overhead: ic,
                in_worst_cluster: in_worst,
                badness: node_badness(coeff, r.speed, ic, in_worst),
            }
        })
        .collect();
    records.sort_by(|a, b| {
        b.badness
            .partial_cmp(&a.badness)
            .expect("badness is finite")
            .then(b.node.cmp(&a.node))
    });
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_core::stats::OverheadBreakdown;
    use sagrid_core::time::SimDuration;

    /// Builds a report with the given busy fraction split so that
    /// `ic_frac` of the period is inter-cluster overhead and the rest of the
    /// overhead is idle time.
    fn report(id: u32, cluster: u16, speed: f64, busy_frac: f64, ic_frac: f64) -> MonitoringReport {
        let total = 1_000_000u64;
        let busy = (busy_frac * total as f64) as u64;
        let inter = (ic_frac * total as f64) as u64;
        assert!(busy + inter <= total);
        MonitoringReport {
            node: NodeId(id),
            cluster: ClusterId(cluster),
            period_end: SimTime::from_secs(180),
            breakdown: OverheadBreakdown {
                busy: SimDuration(busy),
                inter_comm: SimDuration(inter),
                idle: SimDuration(total - busy - inter),
                ..Default::default()
            },
            speed,
        }
    }

    fn coordinator() -> Coordinator {
        Coordinator::new(AdaptPolicy::default())
    }

    #[test]
    fn no_reports_means_no_action() {
        let mut c = coordinator();
        assert_eq!(c.evaluate(SimTime::ZERO, None), Decision::None);
        assert_eq!(c.last_decision().map(|e| e.nodes), Some(0));
    }

    #[test]
    fn efficiency_in_band_means_no_action() {
        let mut c = coordinator();
        // busy 0.4, overhead 0.6 → wa_eff = 0.4, inside (0.3, 0.5).
        for i in 0..4 {
            c.record_report(report(i, 0, 1.0, 0.4, 0.0));
        }
        assert_eq!(c.evaluate(SimTime::ZERO, None), Decision::None);
    }

    #[test]
    fn high_efficiency_adds_nodes_preferring_current_clusters() {
        let mut c = coordinator();
        for i in 0..8 {
            c.record_report(report(i, (i % 2) as u16, 1.0, 0.9, 0.0));
        }
        match c.evaluate(SimTime::ZERO, None) {
            Decision::Add {
                count,
                prefer,
                requirements,
            } => {
                // wa_eff = 0.9 → grow by the policy's sizing rule.
                assert_eq!(count, AdaptPolicy::default().grow_size(0.9, 8));
                assert_eq!(prefer, vec![ClusterId(0), ClusterId(1)]);
                assert_eq!(requirements, LearnedRequirements::default());
            }
            d => panic!("expected Add, got {d:?}"),
        }
    }

    #[test]
    fn low_efficiency_removes_worst_nodes_and_blacklists() {
        let mut c = coordinator();
        // 3 good nodes, 1 very slow node: wa_eff = (3*0.25 + 0.1*0.25)/4 …
        // craft busy fractions so wa_eff < 0.3.
        c.record_report(report(0, 0, 1.0, 0.3, 0.0));
        c.record_report(report(1, 0, 1.0, 0.3, 0.0));
        c.record_report(report(2, 1, 1.0, 0.3, 0.0));
        c.record_report(report(3, 1, 0.1, 0.3, 0.0)); // slow node
        let wa = c.current_wa_efficiency();
        assert!(wa < 0.3, "test setup: wa_eff {wa} must be below e_min");
        match c.evaluate(SimTime::ZERO, None) {
            Decision::RemoveNodes { nodes } => {
                assert!(!nodes.is_empty());
                // The slow node must be the first removed.
                assert_eq!(nodes[0], NodeId(3));
                assert!(c.blacklisted_nodes().contains(&NodeId(3)));
                // Removed nodes drop out of the report set.
                assert!(c.known_nodes() < 4);
            }
            d => panic!("expected RemoveNodes, got {d:?}"),
        }
    }

    #[test]
    fn exceptional_ic_overhead_removes_whole_cluster() {
        let mut c = coordinator();
        // Cluster 1 sits behind a shaped uplink: 40% inter-cluster overhead.
        c.record_report(report(0, 0, 1.0, 0.6, 0.02));
        c.record_report(report(1, 0, 1.0, 0.6, 0.02));
        c.record_report(report(2, 1, 1.0, 0.2, 0.4));
        c.record_report(report(3, 1, 1.0, 0.2, 0.45));
        c.observe_uplink(ClusterId(1), 100_000.0);
        match c.evaluate(SimTime::ZERO, None) {
            Decision::RemoveCluster { cluster, nodes } => {
                assert_eq!(cluster, ClusterId(1));
                assert_eq!(nodes, vec![NodeId(2), NodeId(3)]);
                assert!(c.blacklisted_clusters().contains(&ClusterId(1)));
                // Bandwidth requirement learned from the observation.
                assert_eq!(c.learned_requirements().min_uplink_bps, Some(100_000.0));
                assert_eq!(c.known_nodes(), 2);
            }
            d => panic!("expected RemoveCluster, got {d:?}"),
        }
    }

    #[test]
    fn cluster_removal_takes_priority_over_thresholds() {
        let mut c = coordinator();
        // Very high efficiency overall, but one cluster is badly connected:
        // Figure 2 checks the exceptional cluster first.
        c.record_report(report(0, 0, 1.0, 0.95, 0.0));
        c.record_report(report(1, 1, 1.0, 0.6, 0.4));
        let d = c.evaluate(SimTime::ZERO, None);
        assert!(matches!(d, Decision::RemoveCluster { .. }), "got {d:?}");
    }

    #[test]
    fn single_cluster_never_removed_wholesale() {
        let mut c = coordinator();
        // One cluster with (bogus) high inter-cluster overhead reading:
        // no second cluster exists, so wholesale removal is impossible.
        c.record_report(report(0, 0, 1.0, 0.4, 0.4));
        let d = c.evaluate(SimTime::ZERO, None);
        assert!(!matches!(d, Decision::RemoveCluster { .. }), "got {d:?}");
    }

    #[test]
    fn learned_bandwidth_bound_tightens_monotonically() {
        let mut c = coordinator();
        c.record_report(report(0, 0, 1.0, 0.6, 0.02));
        c.record_report(report(1, 1, 1.0, 0.2, 0.4));
        c.observe_uplink(ClusterId(1), 50_000.0);
        let _ = c.evaluate(SimTime::ZERO, None);
        assert_eq!(c.learned_requirements().min_uplink_bps, Some(50_000.0));
        // A second bad cluster with an even slower uplink must not loosen
        // the bound.
        c.record_report(report(2, 2, 1.0, 0.2, 0.5));
        c.observe_uplink(ClusterId(2), 20_000.0);
        let _ = c.evaluate(SimTime::from_secs(180), None);
        assert_eq!(c.learned_requirements().min_uplink_bps, Some(50_000.0));
    }

    #[test]
    fn add_passes_learned_requirements_to_scheduler() {
        let mut c = coordinator();
        c.record_report(report(0, 0, 1.0, 0.6, 0.02));
        c.record_report(report(1, 1, 1.0, 0.2, 0.4));
        c.observe_uplink(ClusterId(1), 100_000.0);
        let _ = c.evaluate(SimTime::ZERO, None); // removes cluster 1
                                                 // Survivor now runs at high efficiency → Add with the learned bound.
        match c.evaluate(SimTime::from_secs(180), None) {
            Decision::Add { requirements, .. } => {
                assert_eq!(requirements.min_uplink_bps, Some(100_000.0));
            }
            d => panic!("expected Add, got {d:?}"),
        }
    }

    #[test]
    fn opportunistic_migration_disabled_by_default() {
        let mut c = coordinator();
        for i in 0..4 {
            c.record_report(report(i, 0, 0.5, 0.8, 0.0));
        }
        // wa_eff = 0.4, in band; fast nodes available — but the paper's
        // default cannot migrate opportunistically.
        assert_eq!(c.evaluate(SimTime::ZERO, Some(1.0)), Decision::None);
    }

    #[test]
    fn opportunistic_migration_swaps_slow_nodes_when_enabled() {
        let policy = AdaptPolicy {
            opportunistic_migration: true,
            ..Default::default()
        };
        let mut c = Coordinator::new(policy);
        c.record_report(report(0, 0, 1.0, 0.42, 0.0));
        c.record_report(report(1, 0, 0.5, 0.8, 0.0)); // slow
        c.record_report(report(2, 0, 0.45, 0.8, 0.0)); // slower
        let wa = c.current_wa_efficiency();
        assert!(wa > 0.3 && wa < 0.5, "in band: {wa}");
        match c.evaluate(SimTime::ZERO, Some(1.0)) {
            Decision::OpportunisticSwap {
                remove,
                add,
                requirements,
            } => {
                assert_eq!(remove, vec![NodeId(2), NodeId(1)], "slowest first");
                assert_eq!(add, 2);
                let min = requirements.min_speed.unwrap();
                assert!(min > 0.5, "replacements must beat the retired nodes");
            }
            d => panic!("expected OpportunisticSwap, got {d:?}"),
        }
    }

    #[test]
    fn opportunistic_margin_prevents_thrashing() {
        let policy = AdaptPolicy {
            opportunistic_migration: true,
            opportunistic_speed_margin: 1.5,
            ..Default::default()
        };
        let mut c = Coordinator::new(policy);
        // Node at 0.8 speed; available 1.0 < 0.8*1.5 → no swap.
        c.record_report(report(0, 0, 0.8, 0.5, 0.0));
        c.record_report(report(1, 0, 1.0, 0.42, 0.0));
        assert_eq!(c.evaluate(SimTime::ZERO, Some(1.0)), Decision::None);
    }

    #[test]
    fn decision_log_records_every_evaluation() {
        let mut c = coordinator();
        for i in 0..4 {
            c.record_report(report(i, 0, 1.0, 0.9, 0.0));
        }
        assert!(c.last_decision().is_none());
        let _ = c.evaluate(SimTime::from_secs(180), None);
        let first = c.last_decision().unwrap().clone();
        assert_eq!(first.at, SimTime::from_secs(180));
        assert_eq!(first.decision.kind(), "add");
        assert_eq!(first.nodes, 4);
        assert!(first.wa_efficiency > 0.5);
        // The next evaluation replaces the entry: only the latest is kept.
        let _ = c.evaluate(SimTime::from_secs(360), None);
        assert_eq!(c.last_decision().unwrap().at, SimTime::from_secs(360));
    }

    #[test]
    fn log_entries_carry_full_provenance() {
        let mut c = coordinator();
        c.record_report(report(0, 0, 1.0, 0.6, 0.02));
        c.record_report(report(1, 1, 1.0, 0.2, 0.4));
        c.observe_uplink(ClusterId(1), 100_000.0);
        let _ = c.evaluate(SimTime::ZERO, None); // removes cluster 1
        let entry = c.last_decision().unwrap();
        // The badness terms of both reporting nodes, worst first.
        assert_eq!(entry.badness.len(), 2);
        assert_eq!(entry.badness[0].node, NodeId(1));
        assert!(entry.badness[0].in_worst_cluster);
        assert!(entry.badness[0].badness > entry.badness[1].badness);
        assert!((entry.badness[0].ic_overhead - 0.4).abs() < 1e-6);
        // Post-decision blacklist and learned state are snapshotted.
        assert_eq!(entry.blacklisted_clusters, vec![ClusterId(1)]);
        assert!(entry.blacklisted_nodes.is_empty());
        assert_eq!(entry.learned.min_uplink_bps, Some(100_000.0));
        // A removal decision's victims are exactly the top of the ranking.
        match &entry.decision {
            Decision::RemoveCluster { nodes, .. } => {
                assert_eq!(nodes, &vec![NodeId(1)]);
            }
            d => panic!("expected RemoveCluster, got {d:?}"),
        }
    }

    #[test]
    fn crashed_nodes_and_clusters_are_blacklisted() {
        let mut c = coordinator();
        for i in 0..4 {
            c.record_report(report(i, (i % 2) as u16, 1.0, 0.4, 0.0));
        }
        c.record_crashed(&[NodeId(1), NodeId(3)], Some(ClusterId(1)));
        assert_eq!(c.known_nodes(), 2);
        assert!(c.blacklisted_nodes().contains(&NodeId(1)));
        assert!(c.blacklisted_nodes().contains(&NodeId(3)));
        assert!(c.blacklisted_clusters().contains(&ClusterId(1)));
        // Node-only crashes don't blacklist a cluster.
        c.record_crashed(&[NodeId(0)], None);
        assert!(!c.blacklisted_clusters().contains(&ClusterId(0)));
    }

    #[test]
    fn crash_blacklisting_respects_policy_switch() {
        let mut c = Coordinator::new(AdaptPolicy {
            blacklist_removed: false,
            ..Default::default()
        });
        c.record_report(report(0, 0, 1.0, 0.4, 0.0));
        c.record_crashed(&[NodeId(0)], Some(ClusterId(0)));
        assert!(c.blacklisted_nodes().is_empty());
        assert!(c.blacklisted_clusters().is_empty());
        assert_eq!(c.known_nodes(), 0, "reports still dropped");
    }

    /// The PR-9 bug, distilled: a mass crash leaves stale reports from the
    /// dead and collapsed efficiency on the survivors. Without suspicion
    /// the flowchart shrinks — and badness ranks the (slower) survivors
    /// worst, so the decision amputates exactly the nodes still alive.
    #[test]
    fn silence_blind_policy_shrinks_survivors_in_the_detection_window() {
        let mut c = coordinator();
        // Nodes 2,3 (fast) crashed mid-thrash; their last reports linger.
        // Survivors 0,1 (slower) report collapsed efficiency.
        c.record_report(report(0, 0, 0.5, 0.05, 0.0));
        c.record_report(report(1, 0, 0.5, 0.05, 0.0));
        c.record_report(report(2, 0, 1.0, 0.1, 0.0));
        c.record_report(report(3, 0, 1.0, 0.1, 0.0));
        match c.evaluate(SimTime::ZERO, None) {
            Decision::RemoveNodes { nodes } => {
                // The victims are the survivors, not the dead.
                assert!(
                    nodes.contains(&NodeId(0)) || nodes.contains(&NodeId(1)),
                    "expected a survivor among the victims, got {nodes:?}"
                );
            }
            d => panic!("the silence-blind policy should shrink, got {d:?}"),
        }
    }

    /// Same window, suspicion-aware: the dead-but-undetected members are
    /// Suspect, their reports leave the denominator, and the hold-fire
    /// rule withholds the shrink until liveness resolves.
    #[test]
    fn hold_fire_withholds_shrink_while_suspects_outstanding() {
        let mut c = coordinator();
        c.record_report(report(0, 0, 0.5, 0.05, 0.0));
        c.record_report(report(1, 0, 0.5, 0.05, 0.0));
        c.record_report(report(2, 0, 1.0, 0.1, 0.0));
        c.record_report(report(3, 0, 1.0, 0.1, 0.0));
        c.mark_suspects(&[NodeId(2), NodeId(3)]);
        assert_eq!(c.evaluate(SimTime::ZERO, None), Decision::None);
        let entry = c.last_decision().unwrap();
        assert_eq!(entry.suspect_ids, vec![NodeId(2), NodeId(3)]);
        assert!(entry.hold_fire.is_some(), "provenance records the hold");
        assert_eq!(entry.nodes, 2, "denominator counts alive-confirmed only");
        assert!(
            c.blacklisted_nodes().is_empty(),
            "a hold has no side effects"
        );
        // The detector resolves the silence into deaths: suspicion clears,
        // the next evaluation is free to act on the survivors alone.
        c.record_crashed(&[NodeId(2), NodeId(3)], None);
        assert!(c.suspects().is_empty());
        let d = c.evaluate(SimTime::from_secs(180), None);
        assert!(
            c.last_decision().unwrap().hold_fire.is_none(),
            "no hold once resolved, got {d:?}"
        );
    }

    /// When every known member is suspect there is nothing confirmed
    /// alive to evaluate: no action, and the hold is recorded.
    #[test]
    fn all_members_suspect_holds_with_empty_denominator() {
        let mut c = coordinator();
        c.record_report(report(0, 0, 1.0, 0.1, 0.0));
        c.mark_suspect(NodeId(0));
        assert_eq!(c.evaluate(SimTime::ZERO, None), Decision::None);
        let entry = c.last_decision().unwrap();
        assert_eq!(entry.nodes, 0);
        assert!(entry.hold_fire.is_some());
    }

    /// A Suspect member that resumes reporting is alive: suspicion clears
    /// in place and it is never blacklisted for having been silent.
    #[test]
    fn resumed_report_clears_suspicion_without_blacklist() {
        let mut c = coordinator();
        for i in 0..4 {
            c.record_report(report(i, 0, 1.0, 0.4, 0.0));
        }
        c.mark_suspect(NodeId(2));
        assert!(c.suspects().contains(&NodeId(2)));
        c.record_report(report(2, 0, 1.0, 0.4, 0.0));
        assert!(c.suspects().is_empty(), "a fresh report is proof of life");
        assert!(c.blacklisted_nodes().is_empty());
        assert_eq!(c.known_nodes(), 4);
    }

    /// Flapping (repeated Suspect → Alive) never triggers a shrink and
    /// never blacklists the flapper: every window either holds fire or
    /// sees a healthy, fully-confirmed report set.
    #[test]
    fn flapping_suspicion_never_triggers_shrink() {
        let mut c = coordinator();
        let mut t = SimTime::ZERO;
        let mut entries = Vec::new();
        for round in 0..5 {
            for i in 0..4 {
                c.record_report(report(i, 0, 1.0, 0.4, 0.0));
            }
            c.mark_suspect(NodeId(3));
            let d = c.evaluate(t, None);
            entries.extend(c.last_decision().cloned());
            assert_eq!(d, Decision::None, "round {round}: suspect window");
            // The flapper resumes before the next period.
            c.record_report(report(3, 0, 1.0, 0.4, 0.0));
            t += sagrid_core::time::SimDuration::from_secs(180);
            let d = c.evaluate(t, None);
            entries.extend(c.last_decision().cloned());
            assert_eq!(d, Decision::None, "round {round}: healthy in-band set");
            t += sagrid_core::time::SimDuration::from_secs(180);
        }
        assert!(c.blacklisted_nodes().is_empty());
        assert_eq!(entries.len(), 10);
        assert!(entries
            .iter()
            .all(|e| !matches!(e.decision, Decision::RemoveNodes { .. })));
    }

    #[test]
    fn node_gone_drops_reports() {
        let mut c = coordinator();
        c.record_report(report(0, 0, 1.0, 0.4, 0.0));
        c.record_report(report(1, 0, 1.0, 0.4, 0.0));
        c.node_gone(NodeId(0));
        assert_eq!(c.known_nodes(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid adaptation policy")]
    fn invalid_policy_is_rejected_at_construction() {
        let _ = Coordinator::new(AdaptPolicy {
            e_min: 0.9,
            e_max: 0.5,
            ..Default::default()
        });
    }
}
