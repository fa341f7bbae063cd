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
//! The [`HierarchicalCoordinator`] models the hierarchy's ingress only:
//! it holds each member's latest raw report in one node-sorted table and
//! replays the table into an ordinary [`Coordinator`] at every
//! evaluation. Its decisions are therefore those of the flat design fed
//! the same reports (tested); what differs is when a report reaches the
//! main coordinator. Between evaluations the main coordinator's
//! efficiency is still the previous period's, so the DES efficiency
//! timeline lags one period behind the flat one.

use crate::coordinator::{Coordinator, Decision, DecisionLogEntry};
use crate::policy::AdaptPolicy;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::stats::MonitoringReport;
use sagrid_core::time::{SimDuration, SimTime};

/// A main [`Coordinator`] that receives the members' reports only at
/// evaluation time.
#[derive(Clone, Debug)]
pub struct HierarchicalCoordinator {
    main: Coordinator,
    /// Latest raw report per member, sorted by node id. A Suspect member's
    /// report stays held until the suspicion resolves.
    held: Vec<MonitoringReport>,
}

impl HierarchicalCoordinator {
    /// Creates the hierarchy with the given adaptation policy.
    pub fn new(policy: AdaptPolicy) -> Self {
        Self {
            main: Coordinator::new(policy),
            held: Vec::new(),
        }
    }

    /// Holds a node's report until the next evaluation (overwriting the
    /// previous one). A fresh report is proof of life: the suspicion on
    /// the main coordinator is cleared at once.
    pub fn record_report(&mut self, report: MonitoringReport) {
        self.main.clear_suspect(report.node);
        match self.held.binary_search_by_key(&report.node, |r| r.node) {
            Ok(i) => self.held[i] = report,
            Err(i) => self.held.insert(i, report),
        }
    }

    /// Forwards a benchmark to the main coordinator, whose speeds the
    /// replayed reports take (see [`Coordinator::record_benchmark`]).
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

    /// Clears a suspicion after proof of life; the member's held report
    /// is replayed at the next evaluation (see
    /// [`Coordinator::clear_suspect`]).
    pub fn clear_suspect(&mut self, node: NodeId) -> bool {
        self.main.clear_suspect(node)
    }

    /// A node left or died.
    pub fn node_gone(&mut self, node: NodeId) {
        self.drop_held(&[node], None);
        self.main.node_gone(node);
    }

    /// Forwards a bandwidth observation to the main coordinator.
    pub fn observe_uplink(&mut self, cluster: ClusterId, bps: f64) {
        self.main.observe_uplink(cluster, bps);
    }

    /// Forwards a crash notification (see [`Coordinator::record_crashed`]);
    /// the crashed nodes' held reports go, and the whole cluster's when
    /// one is named.
    pub fn record_crashed(&mut self, nodes: &[NodeId], cluster: Option<ClusterId>) {
        self.drop_held(nodes, cluster);
        self.main.record_crashed(nodes, cluster);
    }

    /// One monitoring period: replay every held report of a member that is
    /// not Suspect into the main coordinator (a Suspect member's report is
    /// a stale echo of a pre-silence period, not proof of life), then run
    /// the flat flowchart. Removed members' held reports go.
    pub fn evaluate(&mut self, now: SimTime, fastest_available_speed: Option<f64>) -> Decision {
        for r in &self.held {
            if !self.main.suspects().contains(&r.node) {
                self.main.record_report(*r);
            }
        }
        let decision = self.main.evaluate(now, fastest_available_speed);
        match &decision {
            Decision::RemoveNodes { nodes } | Decision::OpportunisticSwap { remove: nodes, .. } => {
                self.drop_held(nodes, None);
            }
            Decision::RemoveCluster { cluster, .. } => self.drop_held(&[], Some(*cluster)),
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

    /// Drops the held reports of `nodes` and of every member of `cluster`:
    /// one node by binary search, anything more in one pass.
    fn drop_held(&mut self, nodes: &[NodeId], cluster: Option<ClusterId>) {
        if let ([node], None) = (nodes, cluster) {
            if let Ok(i) = self.held.binary_search_by_key(node, |r| r.node) {
                self.held.remove(i);
            }
            return;
        }
        let mut gone = nodes.to_vec();
        gone.sort_unstable();
        self.held
            .retain(|r| Some(r.cluster) != cluster && gone.binary_search(&r.node).is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_core::stats::OverheadBreakdown;

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
        assert_eq!(flat.last_decision(), hier.last_decision());
        // The replayed reports took their speeds from the main coordinator.
        let mut got: Vec<(NodeId, f64)> = flat
            .last_decision()
            .unwrap()
            .badness
            .iter()
            .map(|b| (b.node, b.speed))
            .collect();
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
        assert!(flat.suspects().is_empty() && hier.main().suspects().is_empty());
    }

    /// Reports reach the main coordinator only at evaluation: until then
    /// its efficiency is the previous period's (the one-period lag of the
    /// DES efficiency timeline).
    #[test]
    fn reports_reach_the_main_coordinator_at_evaluation() {
        let mut hier = HierarchicalCoordinator::new(AdaptPolicy::default());
        for i in 0..4 {
            hier.record_report(report(i, 0, 1.0, 0.6, 0.0));
        }
        assert_eq!(hier.main().known_nodes(), 0);
        let _ = hier.evaluate(SimTime::from_secs(180), None);
        let first = hier.main().current_wa_efficiency();
        assert_eq!(hier.main().known_nodes(), 4);
        for i in 0..4 {
            hier.record_report(report(i, 0, 1.0, 0.5, 0.0));
        }
        assert_eq!(
            hier.main().current_wa_efficiency().to_bits(),
            first.to_bits()
        );
        let _ = hier.evaluate(SimTime::from_secs(360), None);
        assert_ne!(
            hier.main().current_wa_efficiency().to_bits(),
            first.to_bits()
        );
    }

    /// A report held while its member was Suspect is not replayed, and is
    /// replayed once the suspicion is cleared.
    #[test]
    fn a_suspects_held_report_is_replayed_after_clear_suspect() {
        let mut hier = HierarchicalCoordinator::new(AdaptPolicy::default());
        for i in 0..4 {
            hier.record_report(report(i, 0, 1.0, 0.6, 0.0));
        }
        hier.mark_suspect(NodeId(3));
        let _ = hier.evaluate(SimTime::from_secs(180), None);
        assert!(hier.main().latest_reports().all(|r| r.node != NodeId(3)));
        assert!(hier.clear_suspect(NodeId(3)));
        let _ = hier.evaluate(SimTime::from_secs(360), None);
        assert!(hier.main().latest_reports().any(|r| r.node == NodeId(3)));
    }

    /// A removed cluster's held reports are not replayed: the next
    /// evaluation sees only the surviving cluster.
    #[test]
    fn a_removed_clusters_held_reports_are_not_replayed() {
        let mut hier = HierarchicalCoordinator::new(AdaptPolicy::default());
        for i in 0..4 {
            hier.record_report(report(i, 0, 1.0, 0.6, 0.01));
        }
        for i in 4..8 {
            hier.record_report(report(i, 1, 1.0, 0.2, 0.4));
        }
        let d = hier.evaluate(SimTime::from_secs(180), None);
        assert!(matches!(d, Decision::RemoveCluster { cluster, .. } if cluster == ClusterId(1)));
        let _ = hier.evaluate(SimTime::from_secs(360), None);
        let entry = hier.last_decision().unwrap();
        assert_eq!(entry.nodes, 4);
        assert!(entry.badness.iter().all(|b| b.cluster == ClusterId(0)));
    }
}
