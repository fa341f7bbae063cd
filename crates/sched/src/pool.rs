//! Grid resource pool with locality-aware allocation.

use sagrid_core::config::GridConfig;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::metrics::{Counter, Metrics};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A node handed out by the scheduler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeGrant {
    /// The granted node.
    pub node: NodeId,
    /// Its site.
    pub cluster: ClusterId,
    /// The node's intrinsic relative speed (before any background load).
    pub base_speed: f64,
}

/// Requirements the coordinator has *learned* about the application
/// (paper §3.3: "during application execution we can learn some application
/// requirements and pass them to the scheduler").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Requirements {
    /// Minimal uplink bandwidth (bytes/s) a site must have. Tightened each
    /// time a badly-connected cluster is removed.
    pub min_uplink_bps: Option<f64>,
    /// Minimal node speed (for opportunistic-migration experiments).
    pub min_speed: Option<f64>,
}

/// Allocation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Zorilla's default: pack requested nodes into as few sites as
    /// possible, preferring sites where the application already runs
    /// (minimizes wide-area communication).
    LocalityAware,
    /// Paper future-work extension: the scheduler measures per-site speed
    /// with an application benchmark and hands out the fastest nodes first.
    FastestFirst,
}

#[derive(Clone, Debug)]
struct ClusterPool {
    id: ClusterId,
    /// Free nodes (id-ordered for determinism).
    free: BTreeSet<NodeId>,
    /// Intrinsic node speed for this (homogeneous) site.
    base_speed: f64,
    /// Scheduler's current estimate of the site's uplink bandwidth.
    uplink_bps: f64,
    /// Crashed/unavailable nodes (never handed out again).
    lost: BTreeSet<NodeId>,
}

/// The grid-wide pool of allocatable processors.
///
/// Node ids are assigned cluster-major at construction: cluster 0 owns ids
/// `0..n0`, cluster 1 owns `n0..n0+n1`, and so on. This mapping is stable
/// for the lifetime of the pool, which keeps engine-side dense arrays cheap.
#[derive(Clone, Debug)]
pub struct ResourcePool {
    clusters: Vec<ClusterPool>,
    /// Cluster of every node ever created (dense, indexed by node id).
    node_cluster: Vec<ClusterId>,
    /// Pre-resolved metric handles; `None` when metrics are disabled so the
    /// hot path pays a single branch.
    sm: Option<SchedMetrics>,
}

/// Pre-resolved counter handles for the scheduler, so the allocation path
/// never does a name lookup.
#[derive(Clone, Debug)]
struct SchedMetrics {
    grants: Arc<Counter>,
    requests: Arc<Counter>,
    releases: Arc<Counter>,
    nodes_lost: Arc<Counter>,
}

impl ResourcePool {
    /// Builds a pool with every node of `cfg` free.
    pub fn new(cfg: &GridConfig) -> Self {
        let mut clusters = Vec::with_capacity(cfg.clusters.len());
        let mut node_cluster = Vec::with_capacity(cfg.total_nodes());
        let mut next = 0u32;
        for (ci, spec) in cfg.clusters.iter().enumerate() {
            let id = ClusterId(ci as u16);
            let mut free = BTreeSet::new();
            for _ in 0..spec.nodes {
                free.insert(NodeId(next));
                node_cluster.push(id);
                next += 1;
            }
            clusters.push(ClusterPool {
                id,
                free,
                base_speed: spec.node_speed,
                uplink_bps: spec.uplink.bandwidth_bps,
                lost: BTreeSet::new(),
            });
        }
        Self {
            clusters,
            node_cluster,
            sm: None,
        }
    }

    /// Connects the pool to a metrics registry. When `metrics` is enabled
    /// the pool counts grants (`sched.grants`), allocation requests
    /// (`sched.requests`), releases (`sched.releases`) and permanently lost
    /// nodes (`sched.nodes_lost`); when disabled this is a no-op.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.sm = metrics.is_enabled().then(|| SchedMetrics {
            grants: metrics.counter("sched.grants").expect("metrics enabled"),
            requests: metrics.counter("sched.requests").expect("metrics enabled"),
            releases: metrics.counter("sched.releases").expect("metrics enabled"),
            nodes_lost: metrics
                .counter("sched.nodes_lost")
                .expect("metrics enabled"),
        });
    }

    /// The cluster a node belongs to.
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        self.node_cluster[node.index()]
    }

    /// Total free nodes across all sites.
    pub fn free_count(&self) -> usize {
        self.clusters.iter().map(|c| c.free.len()).sum()
    }

    /// Free nodes at one site.
    pub fn free_in_cluster(&self, cluster: ClusterId) -> usize {
        self.clusters[cluster.index()].free.len()
    }

    /// Updates the scheduler's estimate of a site's uplink bandwidth (fed by
    /// grid monitoring, or by the coordinator's own transfer measurements).
    pub fn set_uplink_estimate(&mut self, cluster: ClusterId, bps: f64) {
        self.clusters[cluster.index()].uplink_bps = bps;
    }

    /// Current uplink estimate for a site.
    pub fn uplink_estimate(&self, cluster: ClusterId) -> f64 {
        self.clusters[cluster.index()].uplink_bps
    }

    /// Takes specific counts from specific clusters — used to place the
    /// application's *initial* resource set ("we start an application on any
    /// set of resources"). Panics if a cluster lacks free nodes.
    pub fn allocate_initial(&mut self, layout: &[(ClusterId, usize)]) -> Vec<NodeGrant> {
        let mut grants = Vec::new();
        for &(cid, n) in layout {
            let c = &mut self.clusters[cid.index()];
            assert!(
                c.free.len() >= n,
                "cluster {cid} has {} free nodes, {n} requested",
                c.free.len()
            );
            for _ in 0..n {
                let node = *c.free.iter().next().expect("checked above");
                c.free.remove(&node);
                grants.push(NodeGrant {
                    node,
                    cluster: cid,
                    base_speed: c.base_speed,
                });
            }
        }
        if let Some(sm) = &self.sm {
            sm.grants.add(grants.len() as u64);
        }
        grants
    }

    /// Requests up to `n` nodes. Returns fewer (possibly zero) grants when
    /// the eligible pool is smaller than `n` — exactly how a real grid
    /// scheduler behaves when resources are scarce.
    ///
    /// * `policy` — see [`AllocPolicy`];
    /// * `req` — learned requirements; sites violating them are skipped;
    /// * `excluded_nodes` / `excluded_clusters` — the coordinator's
    ///   blacklist;
    /// * `prefer` — sites where the application already has nodes
    ///   (locality).
    pub fn request(
        &mut self,
        n: usize,
        policy: AllocPolicy,
        req: &Requirements,
        excluded_nodes: &BTreeSet<NodeId>,
        excluded_clusters: &BTreeSet<ClusterId>,
        prefer: &[ClusterId],
    ) -> Vec<NodeGrant> {
        let mut grants = Vec::new();
        if let Some(sm) = &self.sm {
            sm.requests.inc();
        }
        if n == 0 {
            return grants;
        }
        // Rank eligible clusters.
        let mut order: Vec<usize> = (0..self.clusters.len())
            .filter(|&i| {
                let c = &self.clusters[i];
                if excluded_clusters.contains(&c.id) || c.free.is_empty() {
                    return false;
                }
                if let Some(min_bw) = req.min_uplink_bps {
                    if c.uplink_bps < min_bw {
                        return false;
                    }
                }
                if let Some(min_speed) = req.min_speed {
                    if c.base_speed < min_speed {
                        return false;
                    }
                }
                true
            })
            .collect();
        match policy {
            AllocPolicy::LocalityAware => {
                // Preferred sites first, then the fullest sites (fewest
                // distinct sites overall), id as the final deterministic
                // tie-break.
                let mut preferred = vec![false; self.clusters.len()];
                for c in prefer {
                    if let Some(p) = preferred.get_mut(c.index()) {
                        *p = true;
                    }
                }
                order.sort_unstable_by_key(|&i| {
                    let c = &self.clusters[i];
                    (!preferred[i], usize::MAX - c.free.len(), c.id)
                });
            }
            AllocPolicy::FastestFirst => {
                order.sort_by(|&a, &b| {
                    let (ca, cb) = (&self.clusters[a], &self.clusters[b]);
                    cb.base_speed
                        .partial_cmp(&ca.base_speed)
                        .expect("speeds are finite")
                        .then(ca.id.cmp(&cb.id))
                });
            }
        }
        for i in order {
            if grants.len() == n {
                break;
            }
            let c = &mut self.clusters[i];
            let take: Vec<NodeId> = c
                .free
                .iter()
                .filter(|id| !excluded_nodes.contains(id))
                .take(n - grants.len())
                .copied()
                .collect();
            for node in take {
                c.free.remove(&node);
                grants.push(NodeGrant {
                    node,
                    cluster: c.id,
                    base_speed: c.base_speed,
                });
            }
        }
        if let Some(sm) = &self.sm {
            sm.grants.add(grants.len() as u64);
        }
        grants
    }

    /// Grants the lowest free node of `cluster` that is not in
    /// `excluded_nodes`, or `None` when there is none. Counts as one
    /// request, like [`Self::request`] confined to that cluster.
    pub fn request_in_cluster(
        &mut self,
        cluster: ClusterId,
        excluded_nodes: &BTreeSet<NodeId>,
    ) -> Option<NodeGrant> {
        let c = &mut self.clusters[cluster.index()];
        let node = c
            .free
            .iter()
            .find(|id| !excluded_nodes.contains(id))
            .copied();
        if let Some(node) = node {
            c.free.remove(&node);
        }
        if let Some(sm) = &self.sm {
            sm.requests.inc();
            sm.grants.add(u64::from(node.is_some()));
        }
        node.map(|node| NodeGrant {
            node,
            cluster,
            base_speed: c.base_speed,
        })
    }

    /// Returns a node to the free pool (the application released it).
    pub fn release(&mut self, node: NodeId) {
        let cid = self.cluster_of(node);
        let c = &mut self.clusters[cid.index()];
        if !c.lost.contains(&node) {
            let newly = c.free.insert(node);
            assert!(newly, "node {node} released twice");
        }
        if let Some(sm) = &self.sm {
            sm.releases.inc();
        }
    }

    /// Removes a specific node from the free set without a grant — a hub
    /// that took over from a replicated control-plane snapshot seeds its
    /// pool this way, so ids already held by live workers are never granted
    /// a second time. Returns whether the node was actually free.
    pub fn reserve(&mut self, node: NodeId) -> bool {
        let cid = self.cluster_of(node);
        self.clusters[cid.index()].free.remove(&node)
    }

    /// Marks a node permanently unavailable (crashed hardware).
    pub fn mark_lost(&mut self, node: NodeId) {
        let cid = self.cluster_of(node);
        let c = &mut self.clusters[cid.index()];
        c.free.remove(&node);
        c.lost.insert(node);
        if let Some(sm) = &self.sm {
            sm.nodes_lost.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ResourcePool {
        // 3 clusters × 8 nodes.
        ResourcePool::new(&GridConfig::uniform(3, 8))
    }

    fn no_excl() -> (BTreeSet<NodeId>, BTreeSet<ClusterId>) {
        (BTreeSet::new(), BTreeSet::new())
    }

    #[test]
    fn ids_are_cluster_major() {
        let p = pool();
        assert_eq!(p.cluster_of(NodeId(0)), ClusterId(0));
        assert_eq!(p.cluster_of(NodeId(7)), ClusterId(0));
        assert_eq!(p.cluster_of(NodeId(8)), ClusterId(1));
        assert_eq!(p.cluster_of(NodeId(23)), ClusterId(2));
        assert_eq!(p.free_count(), 24);
    }

    #[test]
    fn initial_allocation_takes_from_named_clusters() {
        let mut p = pool();
        let g = p.allocate_initial(&[(ClusterId(0), 4), (ClusterId(2), 2)]);
        assert_eq!(g.len(), 6);
        assert_eq!(p.free_in_cluster(ClusterId(0)), 4);
        assert_eq!(p.free_in_cluster(ClusterId(1)), 8);
        assert_eq!(p.free_in_cluster(ClusterId(2)), 6);
    }

    #[test]
    fn locality_prefers_existing_sites_then_packs() {
        let mut p = pool();
        let (en, ec) = no_excl();
        // App already runs in cluster 1.
        let g = p.request(
            10,
            AllocPolicy::LocalityAware,
            &Requirements::default(),
            &en,
            &ec,
            &[ClusterId(1)],
        );
        assert_eq!(g.len(), 10);
        // All 8 of cluster 1 first, then 2 from one other site.
        let from_c1 = g.iter().filter(|x| x.cluster == ClusterId(1)).count();
        assert_eq!(from_c1, 8);
        let other_sites: BTreeSet<ClusterId> = g
            .iter()
            .map(|x| x.cluster)
            .filter(|&c| c != ClusterId(1))
            .collect();
        assert_eq!(other_sites.len(), 1, "should not spread over extra sites");
    }

    #[test]
    fn request_returns_partial_when_scarce() {
        let mut p = pool();
        let (en, ec) = no_excl();
        let g = p.request(
            100,
            AllocPolicy::LocalityAware,
            &Requirements::default(),
            &en,
            &ec,
            &[],
        );
        assert_eq!(g.len(), 24);
        assert_eq!(p.free_count(), 0);
        let g2 = p.request(
            1,
            AllocPolicy::LocalityAware,
            &Requirements::default(),
            &en,
            &ec,
            &[],
        );
        assert!(g2.is_empty());
    }

    #[test]
    fn blacklisted_cluster_never_granted() {
        let mut p = pool();
        let en = BTreeSet::new();
        let ec: BTreeSet<ClusterId> = [ClusterId(0)].into();
        let g = p.request(
            24,
            AllocPolicy::LocalityAware,
            &Requirements::default(),
            &en,
            &ec,
            &[],
        );
        assert_eq!(g.len(), 16);
        assert!(g.iter().all(|x| x.cluster != ClusterId(0)));
    }

    #[test]
    fn blacklisted_nodes_skipped_within_cluster() {
        let mut p = pool();
        let en: BTreeSet<NodeId> = [NodeId(0), NodeId(1)].into();
        let ec = BTreeSet::new();
        let g = p.request(
            8,
            AllocPolicy::LocalityAware,
            &Requirements::default(),
            &en,
            &ec,
            &[ClusterId(0)],
        );
        assert!(g.iter().all(|x| x.node != NodeId(0) && x.node != NodeId(1)));
        assert_eq!(g.len(), 8);
    }

    /// The direct in-cluster grant hands out what a locality request with
    /// every other cluster excluded does, and counts the same.
    #[test]
    fn in_cluster_grant_matches_a_request_confined_to_the_cluster() {
        use sagrid_core::rng::{Rng64, SplitMix64};
        let cfg = GridConfig::uniform(4, 6);
        let (mut direct, mut via_request) = (ResourcePool::new(&cfg), ResourcePool::new(&cfg));
        let (m_direct, m_request) = (Metrics::enabled(), Metrics::enabled());
        direct.set_metrics(&m_direct);
        via_request.set_metrics(&m_request);
        let mut rng = SplitMix64::new(7);
        let mut blacklist = BTreeSet::new();
        for _ in 0..400 {
            let cluster = ClusterId(rng.gen_index(4) as u16);
            match rng.gen_index(4) {
                0 => {
                    blacklist.insert(NodeId(rng.gen_index(24) as u32));
                }
                1 => {
                    let node = NodeId(rng.gen_index(24) as u32);
                    if !direct.reserve(node) {
                        direct.release(node);
                        via_request.release(node);
                    } else {
                        assert!(via_request.reserve(node));
                    }
                }
                _ => {
                    let others: BTreeSet<ClusterId> =
                        (0..4).map(ClusterId).filter(|&c| c != cluster).collect();
                    let expected = via_request
                        .request(
                            1,
                            AllocPolicy::LocalityAware,
                            &Requirements::default(),
                            &blacklist,
                            &others,
                            &[cluster],
                        )
                        .pop();
                    assert_eq!(direct.request_in_cluster(cluster, &blacklist), expected);
                }
            }
        }
        for name in ["sched.requests", "sched.grants", "sched.releases"] {
            assert_eq!(
                m_direct.report().counter(name),
                m_request.report().counter(name),
                "{name}"
            );
        }
        assert!(m_direct.report().counter("sched.grants") > 0);
    }

    #[test]
    fn min_bandwidth_requirement_filters_sites() {
        let mut p = pool();
        p.set_uplink_estimate(ClusterId(1), 100_000.0); // shaped site
        let (en, ec) = no_excl();
        let req = Requirements {
            min_uplink_bps: Some(1_000_000.0),
            min_speed: None,
        };
        let g = p.request(24, AllocPolicy::LocalityAware, &req, &en, &ec, &[]);
        assert_eq!(g.len(), 16);
        assert!(g.iter().all(|x| x.cluster != ClusterId(1)));
    }

    #[test]
    fn fastest_first_prefers_fast_sites() {
        let mut cfg = GridConfig::uniform(3, 4);
        cfg.clusters[0].node_speed = 0.5;
        cfg.clusters[1].node_speed = 1.0;
        cfg.clusters[2].node_speed = 0.8;
        let mut p = ResourcePool::new(&cfg);
        let (en, ec) = no_excl();
        let g = p.request(
            6,
            AllocPolicy::FastestFirst,
            &Requirements::default(),
            &en,
            &ec,
            &[],
        );
        assert_eq!(g.len(), 6);
        // 4 from the 1.0 site, 2 from the 0.8 site.
        assert_eq!(g.iter().filter(|x| x.cluster == ClusterId(1)).count(), 4);
        assert_eq!(g.iter().filter(|x| x.cluster == ClusterId(2)).count(), 2);
    }

    #[test]
    fn release_and_reacquire() {
        let mut p = pool();
        let g = p.allocate_initial(&[(ClusterId(0), 8)]);
        assert_eq!(p.free_in_cluster(ClusterId(0)), 0);
        for x in &g {
            p.release(x.node);
        }
        assert_eq!(p.free_in_cluster(ClusterId(0)), 8);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_panics() {
        let mut p = pool();
        let g = p.allocate_initial(&[(ClusterId(0), 1)]);
        p.release(g[0].node);
        p.release(g[0].node);
    }

    #[test]
    fn lost_nodes_never_return() {
        let mut p = pool();
        let g = p.allocate_initial(&[(ClusterId(0), 2)]);
        p.mark_lost(g[0].node);
        p.release(g[0].node); // crash then release: stays lost
        p.release(g[1].node);
        assert_eq!(p.free_in_cluster(ClusterId(0)), 7);
        let (en, ec) = no_excl();
        let all = p.request(
            24,
            AllocPolicy::LocalityAware,
            &Requirements::default(),
            &en,
            &ec,
            &[],
        );
        assert!(all.iter().all(|x| x.node != g[0].node));
    }
}
