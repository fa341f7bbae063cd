//! Node and cluster badness heuristics (paper §3.3).
//!
//! When weighted average efficiency drops below `E_MIN` the coordinator
//! removes the *worst* processors:
//!
//! ```text
//! proc_badnessᵢ    = α·(1/speedᵢ) + β·ic_overheadᵢ + γ·inWorstCluster(i)
//! cluster_badness₍c₎ = α·(1/speed₍c₎) + β·ic_overhead₍c₎
//! ```
//!
//! High inter-cluster overhead indicates insufficient bandwidth to the
//! node's cluster; removing processors from a single (the worst) cluster is
//! preferred because it reduces wide-area communication. The coefficients
//! weight the terms; the paper sets them empirically "based on the
//! observation that ic_overhead indicates bandwidth problems and processors
//! with (very low) speed do not contribute to the computation" — i.e. β
//! dominates, then γ, then α (exact numerals are fixed in
//! [`BadnessCoefficients::default`] and documented in DESIGN.md).

use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::stats::MonitoringReport;
use std::cmp::Ordering;

/// The α/β/γ weights of the badness formulas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BadnessCoefficients {
    /// Weight of the inverse-speed term.
    pub alpha: f64,
    /// Weight of the inter-cluster-overhead term (dominant).
    pub beta: f64,
    /// Weight of the worst-cluster membership bonus (node badness only).
    pub gamma: f64,
}

impl Default for BadnessCoefficients {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            beta: 100.0,
            gamma: 10.0,
        }
    }
}

/// Badness of one processor.
///
/// `speed` is clamped away from zero so a wedged node (speed → 0) gets a
/// huge but finite badness rather than an `inf` that would poison sorting.
pub fn node_badness(
    coeff: &BadnessCoefficients,
    speed: f64,
    ic_overhead: f64,
    in_worst_cluster: bool,
) -> f64 {
    let s = speed.max(1e-6);
    coeff.alpha / s + coeff.beta * ic_overhead + coeff.gamma * f64::from(in_worst_cluster)
}

/// Badness of one cluster (same formula sans the γ term).
pub fn cluster_badness(coeff: &BadnessCoefficients, speed: f64, ic_overhead: f64) -> f64 {
    let s = speed.max(1e-6);
    coeff.alpha / s + coeff.beta * ic_overhead
}

/// One cluster's share of a period's reports: the member count, and the
/// cluster speed (normalized to the fastest cluster — paper: "the speed of
/// a cluster is the sum of processor speeds normalized to the speed of the
/// fastest cluster") and mean inter-cluster overhead of its members.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ClusterSum {
    pub cluster: ClusterId,
    pub members: usize,
    pub speed: f64,
    pub ic_overhead: f64,
}

/// Per-cluster sums over one period's reports, reused from period to
/// period: [`Self::clear`], then [`Self::add`] per report (sums each
/// member's speed and ic overhead in the order the reports come), then
/// [`Self::finish`] (sorts the clusters by id and turns the sums into
/// [`ClusterSum`]s).
#[derive(Clone, Debug, Default)]
pub(crate) struct ClusterSums {
    sums: Vec<ClusterSum>,
    /// Index in `sums` of each cluster id added since the last
    /// [`Self::clear`]; `u32::MAX` for every other id.
    slot: Vec<u32>,
}

impl ClusterSums {
    /// Adds one report's terms to its cluster's sums.
    pub fn add(&mut self, cluster: ClusterId, speed: f64, ic: f64) {
        let id = cluster.index();
        if id >= self.slot.len() {
            self.slot.resize(id + 1, u32::MAX);
        }
        if self.slot[id] == u32::MAX {
            self.slot[id] = self.sums.len() as u32;
            self.sums.push(ClusterSum {
                cluster,
                members: 0,
                speed: 0.0,
                ic_overhead: 0.0,
            });
        }
        let c = &mut self.sums[self.slot[id] as usize];
        c.members += 1;
        c.speed += speed;
        c.ic_overhead += ic;
    }

    /// The clusters added since [`Self::clear`], sorted by id, with speed
    /// normalized to the fastest cluster and ic overhead averaged.
    pub fn finish(&mut self) -> &[ClusterSum] {
        self.sums.sort_unstable_by_key(|c| c.cluster);
        let max_speed = self
            .sums
            .iter()
            .map(|c| c.speed)
            .fold(0.0_f64, f64::max)
            .max(1e-12);
        for c in &mut self.sums {
            c.speed /= max_speed;
            c.ic_overhead /= c.members.max(1) as f64;
        }
        &self.sums
    }

    /// Starts a new period.
    pub fn clear(&mut self) {
        for c in self.sums.drain(..) {
            self.slot[c.cluster.index()] = u32::MAX;
        }
    }
}

/// Identifies the worst cluster among the normalized clusters (highest
/// badness; ties break toward the lower cluster id for determinism).
/// Returns `None` when fewer than two clusters are involved — with a
/// single cluster there is no "worst cluster" to prefer draining, and no
/// wide-area communication at all.
pub(crate) fn worst_cluster(
    coeff: &BadnessCoefficients,
    clusters: &[ClusterSum],
) -> Option<ClusterId> {
    if clusters.len() < 2 {
        return None;
    }
    clusters
        .iter()
        .max_by(|a, b| {
            let ba = cluster_badness(coeff, a.speed, a.ic_overhead);
            let bb = cluster_badness(coeff, b.speed, b.ic_overhead);
            ba.partial_cmp(&bb)
                .expect("badness is finite")
                // On ties prefer the *lower* id; max_by keeps the last
                // maximal element, so order ids descending.
                .then(b.cluster.cmp(&a.cluster))
        })
        .map(|c| c.cluster)
}

/// The removal order of `(node, badness)` pairs: descending badness, ties
/// toward the higher node id so that, all else equal, the most recently
/// added node is removed first (it has the least warmed-up state). Node
/// ids make the order total, so an unstable sort gives the same result as
/// a stable one.
pub fn worst_first(a: &(NodeId, f64), b: &(NodeId, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .expect("badness is finite")
        .then(b.0.cmp(&a.0))
}

/// Ranks nodes by descending badness (worst first, see [`worst_first`]).
pub fn rank_nodes_by_badness(
    coeff: &BadnessCoefficients,
    reports: &[MonitoringReport],
    worst: Option<ClusterId>,
) -> Vec<(NodeId, f64)> {
    let mut ranked: Vec<(NodeId, f64)> = reports
        .iter()
        .map(|r| {
            let b = node_badness(
                coeff,
                r.speed,
                r.ic_overhead_fraction(),
                Some(r.cluster) == worst,
            );
            (r.node, b)
        })
        .collect();
    ranked.sort_unstable_by(worst_first);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_core::stats::OverheadBreakdown;
    use sagrid_core::time::{SimDuration, SimTime};

    fn report(id: u32, cluster: u16, speed: f64, ic_frac: f64) -> MonitoringReport {
        // Build a breakdown whose ic_overhead_fraction is exactly ic_frac.
        let total = 1_000_000u64;
        let inter = (ic_frac * total as f64) as u64;
        MonitoringReport {
            node: NodeId(id),
            cluster: ClusterId(cluster),
            period_end: SimTime::from_secs(180),
            breakdown: OverheadBreakdown {
                busy: SimDuration(total - inter),
                inter_comm: SimDuration(inter),
                ..Default::default()
            },
            speed,
        }
    }

    #[test]
    fn slow_nodes_are_worse() {
        let c = BadnessCoefficients::default();
        assert!(node_badness(&c, 0.25, 0.0, false) > node_badness(&c, 1.0, 0.0, false));
    }

    #[test]
    fn ic_overhead_dominates_speed() {
        let c = BadnessCoefficients::default();
        // A fast node behind a bad link beats a 4x-slow well-connected node.
        let bad_link = node_badness(&c, 1.0, 0.3, false);
        let slow = node_badness(&c, 0.25, 0.0, false);
        assert!(bad_link > slow);
    }

    #[test]
    fn worst_cluster_bonus_orders_equal_nodes() {
        let c = BadnessCoefficients::default();
        let in_worst = node_badness(&c, 1.0, 0.0, true);
        let elsewhere = node_badness(&c, 1.0, 0.0, false);
        assert!(in_worst > elsewhere);
        assert!((in_worst - elsewhere - c.gamma).abs() < 1e-12);
    }

    #[test]
    fn zero_speed_is_finite() {
        let c = BadnessCoefficients::default();
        let b = node_badness(&c, 0.0, 0.0, false);
        assert!(b.is_finite());
        assert!(b > node_badness(&c, 0.001, 0.0, false));
    }

    fn clusters(reports: &[MonitoringReport]) -> Vec<ClusterSum> {
        let mut sums = ClusterSums::default();
        for r in reports {
            sums.add(r.cluster, r.speed, r.ic_overhead_fraction());
        }
        sums.finish().to_vec()
    }

    #[test]
    fn clusters_normalize_to_fastest_cluster() {
        let reports = vec![
            report(2, 1, 0.5, 0.3),
            report(0, 0, 1.0, 0.0),
            report(1, 0, 1.0, 0.1),
        ];
        let views = clusters(&reports);
        assert_eq!(views.len(), 2);
        let c0 = &views[0];
        let c1 = &views[1];
        assert_eq!(c0.cluster, ClusterId(0), "sorted by cluster id");
        assert_eq!((c0.members, c1.members), (2, 1));
        assert!((c0.speed - 1.0).abs() < 1e-9, "fastest cluster speed = 1");
        assert!((c1.speed - 0.25).abs() < 1e-9, "0.5 / 2.0");
        assert!((c0.ic_overhead - 0.05).abs() < 1e-9);
        assert!((c1.ic_overhead - 0.3).abs() < 1e-9);
    }

    #[test]
    fn a_reused_table_starts_each_period_empty() {
        let first = vec![report(0, 5, 1.0, 0.2), report(1, 2, 0.5, 0.0)];
        let second = vec![report(2, 2, 0.25, 0.1), report(3, 0, 1.0, 0.0)];
        let mut sums = ClusterSums::default();
        for period in [&first, &second, &first] {
            sums.clear();
            for r in period.iter() {
                sums.add(r.cluster, r.speed, r.ic_overhead_fraction());
            }
            assert_eq!(sums.finish(), clusters(period).as_slice());
        }
    }

    #[test]
    fn worst_cluster_is_the_badly_connected_one() {
        let c = BadnessCoefficients::default();
        let reports = vec![
            report(0, 0, 1.0, 0.02),
            report(1, 1, 1.0, 0.35), // behind a shaped uplink
            report(2, 2, 1.0, 0.03),
        ];
        let views = clusters(&reports);
        assert_eq!(worst_cluster(&c, &views), Some(ClusterId(1)));
    }

    #[test]
    fn single_cluster_has_no_worst() {
        let c = BadnessCoefficients::default();
        let views = clusters(&[report(0, 0, 1.0, 0.0)]);
        assert_eq!(worst_cluster(&c, &views), None);
    }

    #[test]
    fn ranking_puts_bad_link_nodes_first_then_slow_nodes() {
        let c = BadnessCoefficients::default();
        let reports = vec![
            report(0, 0, 1.0, 0.0),  // good
            report(1, 1, 1.0, 0.4),  // bad link
            report(2, 2, 0.3, 0.0),  // slow
            report(3, 1, 1.0, 0.45), // worse link
        ];
        let views = clusters(&reports);
        let worst = worst_cluster(&c, &views);
        assert_eq!(worst, Some(ClusterId(1)));
        let ranked = rank_nodes_by_badness(&c, &reports, worst);
        let ids: Vec<u32> = ranked.iter().map(|(n, _)| n.0).collect();
        assert_eq!(ids, vec![3, 1, 2, 0]);
    }

    #[test]
    fn rank_ties_break_toward_newer_nodes() {
        let c = BadnessCoefficients::default();
        let reports = vec![report(0, 0, 1.0, 0.0), report(5, 0, 1.0, 0.0)];
        let ranked = rank_nodes_by_badness(&c, &reports, None);
        assert_eq!(ranked[0].0, NodeId(5));
    }
}
