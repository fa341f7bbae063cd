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
//! It also scales each report's speed against the fastest benchmark
//! ([`Coordinator::record_benchmark`], §3.2), and forgets a departed node's
//! benchmark with its report, so the node stops anchoring the survivors.
//!
//! The loop is decide → act → record. [`Coordinator::evaluate`] walks the
//! reports once, in node order, and decides; only the removal branch ranks
//! the nodes worst-first, because only it reads the ranking. The entry's
//! worst-first badness ranking is provenance: it is built when the entry is
//! first read through [`Coordinator::last_decision`], so a driver that acts
//! on the decision before it reads the entry does not wait for the sort.
//!
//! The coordinator *learns* application requirements along the way: removed
//! resources are blacklisted, and each removed badly-connected cluster
//! tightens the lower bound on the bandwidth the application needs, which is
//! passed to the scheduler on subsequent requests.

use crate::badness::{node_badness, worst_cluster, worst_first, ClusterSum, ClusterSums};
use crate::efficiency::wa_efficiency_of_reports;
use crate::monitor::SpeedTracker;
use crate::policy::AdaptPolicy;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::stats::MonitoringReport;
use sagrid_core::time::{SimDuration, SimTime};
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
    /// removal candidates are considered in). Empty when no reports.
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
    /// Latest report per live node, sorted by node id. The paper: when the
    /// coordinator misses a node's data at a period boundary it simply uses
    /// the previous report.
    latest: Vec<MonitoringReport>,
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
    /// Whether `last`'s badness records are ranked worst-first yet.
    /// `evaluate` leaves them in node order unless its removal branch
    /// ranked them; [`Self::last_decision`] ranks them on first read.
    last_ranked: bool,
    /// Members whose liveness is currently unresolved: the failure
    /// detector has seen suspicious silence but has not yet promoted them
    /// to dead. Their stale reports must not poison the efficiency
    /// denominator, and no shrink may fire while this set is non-empty
    /// (the hold-fire rule) — removal would otherwise target survivors
    /// on the basis of a disturbance that is still being resolved.
    suspects: BTreeSet<NodeId>,
    /// Per-cluster sums of the latest evaluation, kept for the next one's
    /// reuse.
    clusters: ClusterSums,
    /// Latest raw benchmark time per node, scaled into reports' speeds.
    speeds: SpeedTracker,
}

impl Coordinator {
    /// Creates a coordinator with the given policy. Panics on an invalid
    /// policy — a misconfigured coordinator silently produces wrong
    /// adaptation, which is worse than failing fast.
    pub fn new(policy: AdaptPolicy) -> Self {
        policy.validate().expect("invalid adaptation policy");
        Self {
            policy,
            latest: Vec::new(),
            blacklisted_nodes: BTreeSet::new(),
            blacklisted_clusters: BTreeSet::new(),
            uplink_observations: BTreeMap::new(),
            learned: LearnedRequirements::default(),
            last: None,
            last_ranked: true,
            suspects: BTreeSet::new(),
            clusters: ClusterSums::default(),
            speeds: SpeedTracker::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &AdaptPolicy {
        &self.policy
    }

    /// Stores a node's latest raw benchmark time (paper §3.2; panics if
    /// zero), kept until a new one arrives or the node is forgotten.
    pub fn record_benchmark(&mut self, node: NodeId, duration: SimDuration) {
        self.speeds.record(node, duration);
    }

    /// Stores a node's end-of-period report (overwrites the previous one).
    /// Its speed becomes the node's benchmark relative to the fastest
    /// known node's; a node that never benchmarked keeps the report's own.
    /// A fresh report from a Suspect member is proof of life: the
    /// suspicion is cleared in place.
    pub fn record_report(&mut self, mut report: MonitoringReport) {
        if let Some(speed) = self.speeds.relative_speed(report.node) {
            report.speed = speed;
        }
        self.suspects.remove(&report.node);
        match self.latest.binary_search_by_key(&report.node, |r| r.node) {
            Ok(i) => self.latest[i] = report,
            Err(i) => self.latest.insert(i, report),
        }
    }

    /// Forgets a node that left or died.
    pub fn node_gone(&mut self, node: NodeId) {
        self.forget(&[node]);
    }

    /// Drops departed nodes' reports, benchmarks and suspicions. More than
    /// one node goes in one pass over the reports. One node is found by
    /// binary search, so a departure the coordinator already forgot (the
    /// DES reports every removed node's leave) costs no pass.
    fn forget(&mut self, nodes: &[NodeId]) {
        match nodes {
            [] => {}
            [node] => {
                if let Ok(i) = self.latest.binary_search_by_key(node, |r| r.node) {
                    self.latest.remove(i);
                }
            }
            _ => {
                let mut gone = nodes.to_vec();
                gone.sort_unstable();
                self.latest.retain(|r| gone.binary_search(&r.node).is_err());
            }
        }
        for &node in nodes {
            self.speeds.remove(node);
            self.suspects.remove(&node);
        }
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

    /// Iterates over the latest report per live node, in node order.
    pub fn latest_reports(&self) -> impl Iterator<Item = &MonitoringReport> {
        self.latest.iter()
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
    /// replaces it. Its badness records are ranked worst-first here, on
    /// the first read, unless the decision already ranked them.
    pub fn last_decision(&mut self) -> Option<&DecisionLogEntry> {
        let entry = self.last.as_mut()?;
        if !self.last_ranked {
            rank_worst_first(&mut entry.badness);
            self.last_ranked = true;
        }
        Some(entry)
    }

    /// Weighted average efficiency over the currently known reports,
    /// excluding Suspect members — efficiency is only defined over
    /// members confirmed alive.
    pub fn current_wa_efficiency(&self) -> f64 {
        wa_efficiency_of_reports(
            self.latest
                .iter()
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
        //
        // One walk over the alive reports, in node order, feeds the
        // efficiency sum, the per-cluster sums and the badness inputs.
        // The badness records reuse the previous entry's buffer and stay in
        // node order: only the removal branch and the entry's reader rank
        // them.
        let mut provenance = self.last.take().map(|e| e.badness).unwrap_or_default();
        provenance.clear();
        self.last_ranked = false;
        self.clusters.clear();
        let (suspects, clusters) = (&self.suspects, &mut self.clusters);
        let wa_eff = wa_efficiency_of_reports(
            self.latest
                .iter()
                .filter(|r| !suspects.contains(&r.node))
                .inspect(|r| {
                    let ic = r.ic_overhead_fraction();
                    clusters.add(r.cluster, r.speed, ic);
                    provenance.push(NodeBadnessRecord {
                        node: r.node,
                        cluster: r.cluster,
                        speed: r.speed,
                        ic_overhead: ic,
                        in_worst_cluster: false,
                        badness: 0.0,
                    });
                }),
        );
        let n = provenance.len();
        if n == 0 {
            let hold_fire = (!self.suspects.is_empty()).then(|| {
                format!(
                    "no alive-confirmed reports: all {} known members are suspect",
                    self.suspects.len()
                )
            });
            return self.log_and_return(now, 0.0, 0, provenance, Decision::None, hold_fire);
        }
        let clusters = self.clusters.finish();
        // Provenance: the badness terms of every reporting node at this
        // instant — the exact inputs a removal decision considers, captured
        // whether or not one is taken.
        let coeff = &self.policy.coefficients;
        let worst = worst_cluster(coeff, clusters);
        for b in &mut provenance {
            b.in_worst_cluster = Some(b.cluster) == worst;
            b.badness = node_badness(coeff, b.speed, b.ic_overhead, b.in_worst_cluster);
        }

        // Step 1: exceptional inter-cluster overhead ⇒ the uplink bandwidth
        // to that cluster is insufficient; remove the whole cluster rather
        // than computing node badness (paper §3.3). Only meaningful when
        // the application spans more than one cluster.
        if let Some(cluster) = exceptional_cluster(&self.policy, clusters) {
            // Hold-fire: removal decisions wait out unresolved silence.
            // Checked before any side effect so a withheld decision leaves
            // no blacklist or report-set trace.
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
            // Its reporting members, in node order.
            let nodes: Vec<NodeId> = provenance
                .iter()
                .filter(|b| b.cluster == cluster)
                .map(|b| b.node)
                .collect();
            if self.policy.blacklist_removed {
                self.blacklisted_clusters.insert(cluster);
            }
            // Learn the bandwidth requirement: the application needs
            // strictly more than this cluster's uplink provided.
            if let Some(&bw) = self.uplink_observations.get(&cluster) {
                let bound = self.learned.min_uplink_bps.unwrap_or(0.0).max(bw);
                self.learned.min_uplink_bps = Some(bound);
            }
            self.forget(&nodes);
            return self.log_and_return(
                now,
                wa_eff,
                n,
                provenance,
                Decision::RemoveCluster { cluster, nodes },
                None,
            );
        }

        // Step 2: efficiency above E_MAX ⇒ the application can use more
        // processors; ask the scheduler, preferring sites we already occupy.
        if wa_eff > self.policy.e_max {
            let count = self.policy.grow_size(wa_eff, n);
            let prefer: Vec<ClusterId> = clusters.iter().map(|c| c.cluster).collect();
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
            // The median, the outliers and the victims are read off the
            // worst-first ranking; the entry keeps it.
            rank_worst_first(&mut provenance);
            self.last_ranked = true;
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
            self.forget(&nodes);
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
                let mut slow: Vec<(NodeId, f64)> = provenance
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
                    self.forget(&remove);
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
        self.forget(nodes);
        if self.policy.blacklist_removed {
            self.blacklisted_nodes.extend(nodes);
            self.blacklisted_clusters.extend(cluster);
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

/// Ranks badness records worst-first (see [`worst_first`]): the order the
/// removal branch picks victims in and the order every entry is read in.
fn rank_worst_first(records: &mut [NodeBadnessRecord]) {
    records.sort_unstable_by(|a, b| worst_first(&(a.node, a.badness), &(b.node, b.badness)));
}

/// The cluster whose ic overhead is exceptional: above
/// `exceptional_ic_overhead` and at least `exceptional_ic_dominance` times
/// the second-highest cluster's (the highest such, ties toward the lower
/// id). `None` with fewer than two clusters.
fn exceptional_cluster(policy: &AdaptPolicy, clusters: &[ClusterSum]) -> Option<ClusterId> {
    if clusters.len() < 2 {
        return None;
    }
    // The second-highest ic overhead (duplicates count).
    let (_, second_worst_ic) = clusters
        .iter()
        .fold((0.0_f64, 0.0_f64), |(first, second), c| {
            if c.ic_overhead > first {
                (c.ic_overhead, first)
            } else {
                (first, second.max(c.ic_overhead))
            }
        });
    clusters
        .iter()
        .filter(|c| {
            c.ic_overhead > policy.exceptional_ic_overhead
                && c.ic_overhead >= second_worst_ic * policy.exceptional_ic_dominance
        })
        .max_by(|a, b| {
            a.ic_overhead
                .partial_cmp(&b.ic_overhead)
                .expect("overheads are finite")
                .then(b.cluster.cmp(&a.cluster))
        })
        .map(|c| c.cluster)
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
                let learned = c.last_decision().expect("evaluated").learned;
                assert_eq!(learned.min_uplink_bps, Some(100_000.0));
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
        let learned = c.last_decision().expect("evaluated").learned;
        assert_eq!(learned.min_uplink_bps, Some(50_000.0));
        // A second bad cluster with an even slower uplink must not loosen
        // the bound.
        c.record_report(report(2, 2, 1.0, 0.2, 0.5));
        c.observe_uplink(ClusterId(2), 20_000.0);
        let _ = c.evaluate(SimTime::from_secs(180), None);
        let learned = c.last_decision().expect("evaluated").learned;
        assert_eq!(learned.min_uplink_bps, Some(50_000.0));
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

    /// The speed a report carries in when its node never benchmarked.
    const UNBENCHMARKED: f64 = 0.7;

    /// Records a fresh report for `id` and returns the speed the
    /// coordinator gave it.
    fn speed_of_fresh_report(c: &mut Coordinator, id: u32, cluster: u16) -> f64 {
        c.record_report(report(id, cluster, UNBENCHMARKED, 0.4, 0.0));
        let fresh = c.latest_reports().find(|r| r.node == NodeId(id));
        fresh.unwrap().speed
    }

    /// Benchmarks `(node, cluster, seconds)` and records a report for each.
    fn benchmarked(c: &mut Coordinator, nodes: &[(u32, u16, u64)], busy: f64, ic: f64) {
        for &(id, cluster, secs) in nodes {
            c.record_benchmark(NodeId(id), SimDuration::from_secs(secs));
            c.record_report(report(id, cluster, UNBENCHMARKED, busy, ic));
        }
    }

    /// After a departure the survivor is scaled against the nodes that
    /// remain, and the departed node's benchmark is gone with its report.
    fn assert_forgotten(c: &mut Coordinator, survivor: (u32, u16), departed: (u32, u16)) {
        assert_eq!(speed_of_fresh_report(c, survivor.0, survivor.1), 1.0);
        assert_eq!(
            speed_of_fresh_report(c, departed.0, departed.1),
            UNBENCHMARKED
        );
    }

    #[test]
    fn reports_take_their_speed_from_the_benchmarks() {
        let mut c = coordinator();
        benchmarked(&mut c, &[(0, 0, 1), (1, 0, 4)], 0.4, 0.0);
        let speeds: Vec<f64> = c.latest_reports().map(|r| r.speed).collect();
        assert_eq!(speeds, vec![1.0, 0.25]);
        // A node that never benchmarked keeps the speed its report carries.
        assert_eq!(speed_of_fresh_report(&mut c, 2, 0), UNBENCHMARKED);
    }

    #[test]
    fn node_gone_forgets_the_benchmark() {
        let mut c = coordinator();
        benchmarked(&mut c, &[(0, 0, 1), (1, 0, 2)], 0.4, 0.0);
        c.node_gone(NodeId(0));
        assert_forgotten(&mut c, (1, 0), (0, 0));
    }

    #[test]
    fn crashed_nodes_stop_anchoring_speeds() {
        let mut c = coordinator();
        benchmarked(&mut c, &[(0, 0, 1), (1, 0, 2)], 0.4, 0.0);
        c.record_crashed(&[NodeId(0)], None);
        assert_forgotten(&mut c, (1, 0), (0, 0));
    }

    #[test]
    fn removed_nodes_stop_anchoring_speeds() {
        let mut c = Coordinator::new(AdaptPolicy {
            min_nodes: 2,
            ..Default::default()
        });
        // The fastest node is the worst by its inter-cluster overhead.
        c.record_benchmark(NodeId(0), SimDuration::from_secs(1));
        c.record_report(report(0, 0, UNBENCHMARKED, 0.1, 0.2));
        benchmarked(&mut c, &[(1, 0, 2), (2, 0, 2)], 0.3, 0.0);
        let d = c.evaluate(SimTime::ZERO, None);
        assert_eq!(
            d,
            Decision::RemoveNodes {
                nodes: vec![NodeId(0)]
            }
        );
        assert_forgotten(&mut c, (1, 0), (0, 0));
    }

    #[test]
    fn removed_clusters_stop_anchoring_speeds() {
        let mut c = coordinator();
        benchmarked(&mut c, &[(0, 0, 2), (1, 0, 2)], 0.6, 0.02);
        // The badly-connected cluster holds the fastest nodes.
        benchmarked(&mut c, &[(2, 1, 1), (3, 1, 1)], 0.2, 0.4);
        let d = c.evaluate(SimTime::ZERO, None);
        assert!(
            matches!(d, Decision::RemoveCluster { cluster, .. } if cluster == ClusterId(1)),
            "got {d:?}"
        );
        assert_forgotten(&mut c, (0, 0), (2, 1));
    }

    #[test]
    fn swapped_out_nodes_are_forgotten() {
        let mut c = Coordinator::new(AdaptPolicy {
            opportunistic_migration: true,
            ..Default::default()
        });
        c.record_benchmark(NodeId(0), SimDuration::from_secs(1));
        c.record_report(report(0, 0, UNBENCHMARKED, 0.42, 0.0));
        c.record_benchmark(NodeId(1), SimDuration::from_secs(4));
        c.record_report(report(1, 0, UNBENCHMARKED, 0.8, 0.0));
        let d = c.evaluate(SimTime::ZERO, Some(1.0));
        assert!(
            matches!(&d, Decision::OpportunisticSwap { remove, .. } if remove == &[NodeId(1)]),
            "got {d:?}"
        );
        assert_forgotten(&mut c, (0, 0), (1, 0));
    }

    /// Forgetting 1,000 of 4,096 members in one call (the benchmark's wide
    /// runs remove up to 978 in one decision) keeps the report table in
    /// node order, drops the members' benchmarks and suspicions with their
    /// reports, and leaves the efficiency sum bit-identical to one over a
    /// node-keyed map.
    #[test]
    fn a_large_removal_keeps_the_table_in_node_order() {
        use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seeded(0x4096);
        let mut c = coordinator();
        let mut ids: Vec<u32> = (0..4_096).collect();
        rng.shuffle(&mut ids);
        let gone: Vec<NodeId> = ids[..1_000].iter().map(|&id| NodeId(id)).collect();
        // The fastest benchmark belongs to a member that goes.
        let mut bench: BTreeMap<NodeId, u64> = BTreeMap::new();
        for &id in &ids {
            bench.insert(NodeId(id), 10_000 + rng.gen_range(10_000));
        }
        bench.insert(gone[0], 1_000);
        let mut arrivals = ids.clone();
        rng.shuffle(&mut arrivals);
        for &id in &arrivals {
            c.record_benchmark(NodeId(id), SimDuration(bench[&NodeId(id)]));
            let (busy, ic) = (0.1 + 0.8 * rng.gen_f64(), 0.1 * rng.gen_f64());
            c.record_report(report(id, (id % 32) as u16, UNBENCHMARKED, busy, ic));
        }
        let mut model: BTreeMap<NodeId, MonitoringReport> =
            c.latest_reports().map(|r| (r.node, *r)).collect();
        assert_eq!(model.len(), 4_096);
        // Half of the suspects go, half stay.
        let suspects: Vec<NodeId> = ids[500..1_500].iter().map(|&id| NodeId(id)).collect();
        c.mark_suspects(&suspects);

        c.record_crashed(&gone, None);
        for node in &gone {
            model.remove(node);
        }
        let nodes: Vec<NodeId> = c.latest_reports().map(|r| r.node).collect();
        assert!(nodes.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert_eq!(nodes, model.keys().copied().collect::<Vec<_>>());
        let survivors: BTreeSet<NodeId> = suspects.iter().copied().skip(500).collect();
        assert_eq!(
            c.suspects(),
            &survivors,
            "the departed are no longer suspect"
        );
        let expected =
            wa_efficiency_of_reports(model.values().filter(|r| !survivors.contains(&r.node)));
        assert_eq!(c.current_wa_efficiency().to_bits(), expected.to_bits());

        // The departed no longer anchor the speeds: the fastest survivor
        // scales to 1.0, and a departed member's benchmark is gone.
        let fastest = model.keys().min_by_key(|n| (bench[n], **n)).unwrap();
        assert_eq!(speed_of_fresh_report(&mut c, fastest.0, 0), 1.0);
        assert_eq!(speed_of_fresh_report(&mut c, gone[0].0, 0), UNBENCHMARKED);
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
