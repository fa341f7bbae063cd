//! Hierarchical coordinators (paper §7).
//!
//! "The centralized implementation of the adaptation coordinator might
//! become a bottleneck for applications running on very large numbers of
//! nodes (hundreds or thousands). This problem can be solved by
//! implementing a hierarchy of coordinators: one sub-coordinator per
//! cluster, which collects and processes statistics from its cluster, and
//! one main coordinator which collects the information from the
//! sub-coordinators."
//!
//! [`SubCoordinator`] absorbs its cluster's per-node report stream and
//! emits **one digest message per monitoring period** containing compact
//! per-node summaries (id, speed, overhead fraction, inter-cluster
//! fraction). The [`HierarchicalCoordinator`] reconstructs equivalent
//! reports from the digests and runs the ordinary [`Coordinator`] on them
//! (benchmarks go straight to it, so replayed reports take its speeds),
//! so its decisions are *identical* to the flat design (tested) while the
//! main coordinator receives `O(clusters)` messages per period instead of
//! `O(nodes)`.

use crate::coordinator::{Coordinator, Decision, DecisionLogEntry};
use crate::policy::AdaptPolicy;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Compact per-node summary inside a digest (a few dozen bytes per node,
/// versus a full statistics message per node hitting the main coordinator).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSummary {
    /// The node.
    pub node: NodeId,
    /// The report's relative speed in `(0, 1]`; the main coordinator
    /// replaces it with its own benchmark-derived speed when it has one.
    pub speed: f64,
    /// Total overhead fraction for the period.
    pub overhead: f64,
    /// Inter-cluster overhead fraction for the period.
    pub ic_overhead: f64,
}

/// One sub-coordinator's per-period message to the main coordinator.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterDigest {
    /// The reporting cluster.
    pub cluster: ClusterId,
    /// End of the covered monitoring period.
    pub period_end: SimTime,
    /// Per-node summaries.
    pub nodes: Vec<NodeSummary>,
}

/// Collects and condenses one cluster's statistics stream.
#[derive(Clone, Debug)]
pub struct SubCoordinator {
    cluster: ClusterId,
    pending: BTreeMap<NodeId, MonitoringReport>,
    reports_received: u64,
}

impl SubCoordinator {
    /// Creates a sub-coordinator for `cluster`.
    pub fn new(cluster: ClusterId) -> Self {
        Self {
            cluster,
            pending: BTreeMap::new(),
            reports_received: 0,
        }
    }

    /// Absorbs one member's report. Reports from foreign clusters are a
    /// wiring bug.
    pub fn record_report(&mut self, report: MonitoringReport) {
        assert_eq!(
            report.cluster, self.cluster,
            "report routed to the wrong sub-coordinator"
        );
        self.reports_received += 1;
        self.pending.insert(report.node, report);
    }

    /// A member left or died.
    pub fn node_gone(&mut self, node: NodeId) {
        self.pending.remove(&node);
    }

    /// Emits the period digest (empty clusters emit `None`). Keeps the
    /// latest reports so a node whose next report is missed is still
    /// represented — the same previous-period fallback the flat
    /// coordinator uses.
    pub fn digest(&self, period_end: SimTime) -> Option<ClusterDigest> {
        if self.pending.is_empty() {
            return None;
        }
        Some(ClusterDigest {
            cluster: self.cluster,
            period_end,
            nodes: self
                .pending
                .values()
                .map(|r| NodeSummary {
                    node: r.node,
                    speed: r.speed,
                    overhead: r.overhead_fraction(),
                    ic_overhead: r.ic_overhead_fraction(),
                })
                .collect(),
        })
    }

    /// Total member reports absorbed (the messages the main coordinator
    /// did *not* have to receive).
    pub fn reports_received(&self) -> u64 {
        self.reports_received
    }
}

/// The two-level coordinator: sub-coordinators per cluster feeding a main
/// [`Coordinator`].
#[derive(Clone, Debug)]
pub struct HierarchicalCoordinator {
    subs: BTreeMap<ClusterId, SubCoordinator>,
    main: Coordinator,
    digests_received: u64,
}

impl HierarchicalCoordinator {
    /// Creates the hierarchy with the given adaptation policy.
    pub fn new(policy: AdaptPolicy) -> Self {
        Self {
            subs: BTreeMap::new(),
            main: Coordinator::new(policy),
            digests_received: 0,
        }
    }

    /// Routes a node's report to its cluster's sub-coordinator (created on
    /// demand — clusters join as the application expands).
    pub fn record_report(&mut self, report: MonitoringReport) {
        // A fresh report is proof of life no matter which level it enters
        // at: clear any suspicion on the main coordinator immediately (the
        // digest replay at evaluation time deliberately does not).
        self.main.clear_suspect(report.node);
        self.subs
            .entry(report.cluster)
            .or_insert_with(|| SubCoordinator::new(report.cluster))
            .record_report(report);
    }

    /// Forwards a benchmark to the main coordinator, whose speeds the
    /// replayed digests take (see [`Coordinator::record_benchmark`]).
    pub fn record_benchmark(&mut self, node: NodeId, duration: SimDuration) {
        self.main.record_benchmark(node, duration);
    }

    /// Marks a member Suspect (see [`Coordinator::mark_suspect`]).
    pub fn mark_suspect(&mut self, node: NodeId) {
        self.main.mark_suspect(node);
    }

    /// Marks a batch of members Suspect.
    pub fn mark_suspects(&mut self, nodes: &[NodeId]) {
        self.main.mark_suspects(nodes);
    }

    /// Clears a suspicion after proof of life (see
    /// [`Coordinator::clear_suspect`]).
    pub fn clear_suspect(&mut self, node: NodeId) -> bool {
        self.main.clear_suspect(node)
    }

    /// Members currently under suspicion.
    pub fn suspects(&self) -> &std::collections::BTreeSet<NodeId> {
        self.main.suspects()
    }

    /// A node left or died.
    pub fn node_gone(&mut self, node: NodeId) {
        for sub in self.subs.values_mut() {
            sub.node_gone(node);
        }
        self.main.node_gone(node);
    }

    /// Forwards a bandwidth observation to the main coordinator.
    pub fn observe_uplink(&mut self, cluster: ClusterId, bps: f64) {
        self.main.observe_uplink(cluster, bps);
    }

    /// Forwards a crash notification (see [`Coordinator::record_crashed`])
    /// and keeps the sub-coordinators consistent: a fully-crashed cluster
    /// stops digesting.
    pub fn record_crashed(&mut self, nodes: &[NodeId], cluster: Option<ClusterId>) {
        for &n in nodes {
            for sub in self.subs.values_mut() {
                sub.node_gone(n);
            }
        }
        if let Some(c) = cluster {
            self.subs.remove(&c);
        }
        self.main.record_crashed(nodes, cluster);
    }

    /// One monitoring period: collect digests, reconstruct reports, run the
    /// flat flowchart. Decisions are identical to a flat coordinator fed
    /// the raw reports.
    pub fn evaluate(&mut self, now: SimTime, fastest_available_speed: Option<f64>) -> Decision {
        let digests: Vec<ClusterDigest> =
            self.subs.values().filter_map(|s| s.digest(now)).collect();
        self.digests_received += digests.len() as u64;
        for d in digests {
            for s in d.nodes {
                // A digest replays the last report each sub kept. For a
                // Suspect member that is a stale echo of a pre-silence
                // period, not proof of life — replaying it through
                // `record_report` would wrongly clear the suspicion.
                if self.main.suspects().contains(&s.node) {
                    continue;
                }
                self.main.record_report(reconstruct(d.cluster, now, s));
            }
        }
        let decision = self.main.evaluate(now, fastest_available_speed);
        // Keep the sub-coordinators consistent with removals.
        match &decision {
            Decision::RemoveNodes { nodes } | Decision::OpportunisticSwap { remove: nodes, .. } => {
                for &n in nodes {
                    for sub in self.subs.values_mut() {
                        sub.node_gone(n);
                    }
                }
            }
            Decision::RemoveCluster { cluster, .. } => {
                self.subs.remove(cluster);
            }
            _ => {}
        }
        decision
    }

    /// The inner (main) coordinator.
    pub fn main(&self) -> &Coordinator {
        &self.main
    }

    /// The main coordinator's latest entry, ranked on first read (see
    /// [`Coordinator::last_decision`]).
    pub fn last_decision(&mut self) -> Option<&DecisionLogEntry> {
        self.main.last_decision()
    }

    /// Messages the main coordinator received (digests) versus the
    /// per-node messages it would have received in the flat design.
    pub fn message_counts(&self) -> (u64, u64) {
        let flat: u64 = self.subs.values().map(|s| s.reports_received()).sum();
        (self.digests_received, flat)
    }
}

/// Rebuilds a [`MonitoringReport`] with the digest's exact fractions:
/// weighted average efficiency and badness depend only on `speed`,
/// `overhead` and `ic_overhead`, so decisions over reconstructed reports
/// equal decisions over the originals.
fn reconstruct(cluster: ClusterId, period_end: SimTime, s: NodeSummary) -> MonitoringReport {
    const SCALE: u64 = 1_000_000_000;
    let overhead = s.overhead.clamp(0.0, 1.0);
    let ic = s.ic_overhead.clamp(0.0, overhead);
    let busy = ((1.0 - overhead) * SCALE as f64) as u64;
    let inter = (ic * SCALE as f64) as u64;
    let idle = SCALE - busy - inter;
    MonitoringReport {
        node: s.node,
        cluster,
        period_end,
        breakdown: OverheadBreakdown {
            busy: SimDuration(busy),
            idle: SimDuration(idle),
            inter_comm: SimDuration(inter),
            ..Default::default()
        },
        speed: s.speed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: u32, cluster: u16, speed: f64, busy: f64, ic: f64) -> MonitoringReport {
        let total = 1_000_000u64;
        let busy_us = (busy * total as f64) as u64;
        let inter = (ic * total as f64) as u64;
        MonitoringReport {
            node: NodeId(id),
            cluster: ClusterId(cluster),
            period_end: SimTime::from_secs(180),
            breakdown: OverheadBreakdown {
                busy: SimDuration(busy_us),
                inter_comm: SimDuration(inter),
                idle: SimDuration(total - busy_us - inter),
                ..Default::default()
            },
            speed,
        }
    }

    /// Feeds the same benchmarks and reports to a flat and a hierarchical
    /// coordinator and checks the decisions coincide across the interesting
    /// flowchart branches. Each report's speed arrives as a benchmark time,
    /// as the engines send it, and the report itself carries 1.0.
    fn assert_equivalent(reports: Vec<MonitoringReport>) {
        let mut flat = Coordinator::new(AdaptPolicy::default());
        let mut hier = HierarchicalCoordinator::new(AdaptPolicy::default());
        for r in &reports {
            let bench = SimDuration((1_000_000.0 / r.speed) as u64);
            let unscaled = MonitoringReport { speed: 1.0, ..*r };
            flat.record_benchmark(r.node, bench);
            flat.record_report(unscaled);
            hier.record_benchmark(r.node, bench);
            hier.record_report(unscaled);
        }
        let t = SimTime::from_secs(180);
        assert_eq!(flat.evaluate(t, None), hier.evaluate(t, None));
        // The replayed digests took their speeds from the main coordinator.
        let speeds = |e: &crate::coordinator::DecisionLogEntry| -> Vec<(NodeId, f64)> {
            e.badness.iter().map(|b| (b.node, b.speed)).collect()
        };
        let mut got = speeds(flat.last_decision().unwrap());
        assert_eq!(got, speeds(hier.last_decision().unwrap()));
        got.sort_by_key(|&(n, _)| n);
        let sent: Vec<(NodeId, f64)> = reports.iter().map(|r| (r.node, r.speed)).collect();
        assert_eq!(got, sent);
    }

    #[test]
    fn equivalent_on_add_branch() {
        assert_equivalent(
            (0..8)
                .map(|i| report(i, (i % 2) as u16, 1.0, 0.9, 0.0))
                .collect(),
        );
    }

    #[test]
    fn equivalent_on_remove_branch() {
        let mut rs: Vec<_> = (0..6).map(|i| report(i, 0, 1.0, 0.3, 0.0)).collect();
        rs.push(report(6, 1, 0.05, 0.3, 0.0));
        rs.push(report(7, 1, 0.05, 0.3, 0.0));
        assert_equivalent(rs);
    }

    #[test]
    fn equivalent_on_cluster_removal_branch() {
        let mut rs: Vec<_> = (0..4).map(|i| report(i, 0, 1.0, 0.6, 0.01)).collect();
        rs.extend((4..8).map(|i| report(i, 1, 1.0, 0.2, 0.4)));
        assert_equivalent(rs);
    }

    #[test]
    fn equivalent_on_no_action_branch() {
        assert_equivalent(
            (0..6)
                .map(|i| report(i, (i % 3) as u16, 1.0, 0.4, 0.01))
                .collect(),
        );
    }

    /// The hold-fire branch is identical across the two designs: with a
    /// member Suspect, neither shrinks, and both record the hold in the
    /// decision log.
    #[test]
    fn equivalent_on_hold_fire_branch() {
        let mut flat = Coordinator::new(AdaptPolicy::default());
        let mut hier = HierarchicalCoordinator::new(AdaptPolicy::default());
        let rs: Vec<_> = (0..4).map(|i| report(i, 0, 1.0, 0.1, 0.0)).collect();
        for r in &rs {
            flat.record_report(*r);
            hier.record_report(*r);
        }
        flat.mark_suspect(NodeId(3));
        hier.mark_suspect(NodeId(3));
        let t = SimTime::from_secs(180);
        assert_eq!(flat.evaluate(t, None), hier.evaluate(t, None));
        assert_eq!(flat.evaluate(t, None), Decision::None);
        let fe = flat.last_decision().unwrap();
        let he = hier.last_decision().unwrap();
        assert!(fe.hold_fire.is_some() && he.hold_fire.is_some());
        assert_eq!(fe.suspect_ids, he.suspect_ids);
        // A fresh report entering at the hierarchy's edge clears the
        // suspicion just as a direct report to the flat design does.
        flat.record_report(rs[3]);
        hier.record_report(rs[3]);
        assert!(flat.suspects().is_empty() && hier.suspects().is_empty());
    }

    #[test]
    fn message_counts_show_the_aggregation_win() {
        let mut hier = HierarchicalCoordinator::new(AdaptPolicy::default());
        // 3 clusters × 40 nodes, 4 periods.
        for period in 1..=4u64 {
            for i in 0..120u32 {
                let mut r = report(i, (i % 3) as u16, 1.0, 0.4, 0.0);
                r.period_end = SimTime::from_secs(180 * period);
                hier.record_report(r);
            }
            let _ = hier.evaluate(SimTime::from_secs(180 * period), None);
        }
        let (digests, flat_msgs) = hier.message_counts();
        assert_eq!(
            flat_msgs, 480,
            "the flat design would see one msg/node/period"
        );
        assert_eq!(digests, 12, "the hierarchy sees one digest/cluster/period");
    }

    #[test]
    fn removed_cluster_stops_digesting() {
        let mut hier = HierarchicalCoordinator::new(AdaptPolicy::default());
        for i in 0..4 {
            hier.record_report(report(i, 0, 1.0, 0.6, 0.01));
        }
        for i in 4..8 {
            hier.record_report(report(i, 1, 1.0, 0.2, 0.4));
        }
        let d = hier.evaluate(SimTime::from_secs(180), None);
        assert!(matches!(d, Decision::RemoveCluster { cluster, .. } if cluster == ClusterId(1)));
        // Next period: only cluster 0 digests.
        let before = hier.message_counts().0;
        let _ = hier.evaluate(SimTime::from_secs(360), None);
        assert_eq!(hier.message_counts().0 - before, 1);
    }

    #[test]
    #[should_panic(expected = "wrong sub-coordinator")]
    fn misrouted_report_panics() {
        let mut sub = SubCoordinator::new(ClusterId(0));
        sub.record_report(report(0, 1, 1.0, 0.5, 0.0));
    }
}
