//! Differential test of `Coordinator::evaluate` against a reference copy of
//! the straightforward algorithm: copy the alive reports, group them per
//! cluster in a map, rank with a stable sort. Seeded sequences of report,
//! departure, suspicion, crash and evaluation calls drive both; every
//! `DecisionLogEntry` must be equal, with its floats compared bit for bit.

use sagrid_adapt::coordinator::{Decision, DecisionLogEntry, LearnedRequirements};
use sagrid_adapt::{
    cluster_badness, node_badness, wa_efficiency_of_reports, AdaptPolicy, BadnessCoefficients,
    Coordinator, HierarchicalCoordinator, NodeBadnessRecord,
};
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// The reference coordinator: the same state as `Coordinator`, and the
/// Figure-2 walk written the plain way.
struct Reference {
    policy: AdaptPolicy,
    latest: BTreeMap<NodeId, MonitoringReport>,
    blacklisted_nodes: BTreeSet<NodeId>,
    blacklisted_clusters: BTreeSet<ClusterId>,
    uplink_observations: BTreeMap<ClusterId, f64>,
    learned: LearnedRequirements,
    suspects: BTreeSet<NodeId>,
}

struct View {
    cluster: ClusterId,
    nodes: Vec<NodeId>,
    speed: f64,
    ic_overhead: f64,
}

fn views(reports: &[MonitoringReport]) -> Vec<View> {
    let mut by_cluster: BTreeMap<ClusterId, (Vec<NodeId>, f64, f64)> = BTreeMap::new();
    for r in reports {
        let e = by_cluster
            .entry(r.cluster)
            .or_insert_with(|| (Vec::new(), 0.0, 0.0));
        e.0.push(r.node);
        e.1 += r.speed;
        e.2 += r.ic_overhead_fraction();
    }
    let max_speed = by_cluster
        .values()
        .map(|(_, s, _)| *s)
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    by_cluster
        .into_iter()
        .map(|(cluster, (nodes, speed_sum, ic_sum))| {
            let n = nodes.len().max(1) as f64;
            View {
                cluster,
                nodes,
                speed: speed_sum / max_speed,
                ic_overhead: ic_sum / n,
            }
        })
        .collect()
}

fn worst_view(coeff: &BadnessCoefficients, views: &[View]) -> Option<ClusterId> {
    if views.len() < 2 {
        return None;
    }
    views
        .iter()
        .max_by(|a, b| {
            let ba = cluster_badness(coeff, a.speed, a.ic_overhead);
            let bb = cluster_badness(coeff, b.speed, b.ic_overhead);
            ba.partial_cmp(&bb).unwrap().then(b.cluster.cmp(&a.cluster))
        })
        .map(|v| v.cluster)
}

fn provenance(
    coeff: &BadnessCoefficients,
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
            .unwrap()
            .then(b.node.cmp(&a.node))
    });
    records
}

impl Reference {
    fn new(policy: AdaptPolicy) -> Self {
        Self {
            policy,
            latest: BTreeMap::new(),
            blacklisted_nodes: BTreeSet::new(),
            blacklisted_clusters: BTreeSet::new(),
            uplink_observations: BTreeMap::new(),
            learned: LearnedRequirements::default(),
            suspects: BTreeSet::new(),
        }
    }

    fn record_report(&mut self, r: MonitoringReport) {
        self.suspects.remove(&r.node);
        self.latest.insert(r.node, r);
    }

    fn node_gone(&mut self, node: NodeId) {
        self.latest.remove(&node);
        self.suspects.remove(&node);
    }

    fn record_crashed(&mut self, nodes: &[NodeId], cluster: Option<ClusterId>) {
        for node in nodes {
            self.latest.remove(node);
            self.suspects.remove(node);
            if self.policy.blacklist_removed {
                self.blacklisted_nodes.insert(*node);
            }
        }
        if let (Some(c), true) = (cluster, self.policy.blacklist_removed) {
            self.blacklisted_clusters.insert(c);
        }
    }

    fn hold(&self, kind: &str) -> Option<String> {
        (!self.suspects.is_empty()).then(|| {
            format!(
                "withheld {kind}: {} member(s) suspect, liveness unresolved",
                self.suspects.len()
            )
        })
    }

    fn entry(
        &self,
        at: SimTime,
        wa_efficiency: f64,
        nodes: usize,
        badness: Vec<NodeBadnessRecord>,
        decision: Decision,
        hold_fire: Option<String>,
    ) -> DecisionLogEntry {
        DecisionLogEntry {
            at,
            wa_efficiency,
            nodes,
            decision,
            badness,
            blacklisted_nodes: self.blacklisted_nodes.iter().copied().collect(),
            blacklisted_clusters: self.blacklisted_clusters.iter().copied().collect(),
            learned: self.learned,
            suspect_ids: self.suspects.iter().copied().collect(),
            hold_fire,
        }
    }

    fn evaluate(&mut self, now: SimTime, fastest: Option<f64>) -> DecisionLogEntry {
        let reports: Vec<MonitoringReport> = self
            .latest
            .values()
            .filter(|r| !self.suspects.contains(&r.node))
            .copied()
            .collect();
        if reports.is_empty() {
            let hold = (!self.suspects.is_empty()).then(|| {
                format!(
                    "no alive-confirmed reports: all {} known members are suspect",
                    self.suspects.len()
                )
            });
            return self.entry(now, 0.0, 0, Vec::new(), Decision::None, hold);
        }
        let wa = wa_efficiency_of_reports(&reports);
        let n = reports.len();
        let coeff = self.policy.coefficients;
        let views = views(&reports);
        let worst = worst_view(&coeff, &views);
        let prov = provenance(&coeff, &reports, worst);
        if views.len() >= 2 {
            let mut ics: Vec<f64> = views.iter().map(|v| v.ic_overhead).collect();
            ics.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let second = ics[1];
            let bad = views
                .iter()
                .filter(|v| {
                    v.ic_overhead > self.policy.exceptional_ic_overhead
                        && v.ic_overhead >= second * self.policy.exceptional_ic_dominance
                })
                .max_by(|a, b| {
                    a.ic_overhead
                        .partial_cmp(&b.ic_overhead)
                        .unwrap()
                        .then(b.cluster.cmp(&a.cluster))
                });
            if let Some(bad) = bad {
                let (cluster, nodes) = (bad.cluster, bad.nodes.clone());
                if let Some(reason) = self.hold("remove-cluster") {
                    return self.entry(now, wa, n, prov, Decision::None, Some(reason));
                }
                if self.policy.blacklist_removed {
                    self.blacklisted_clusters.insert(cluster);
                }
                if let Some(&bw) = self.uplink_observations.get(&cluster) {
                    let bound = self.learned.min_uplink_bps.unwrap_or(0.0).max(bw);
                    self.learned.min_uplink_bps = Some(bound);
                }
                for node in &nodes {
                    self.latest.remove(node);
                }
                let d = Decision::RemoveCluster { cluster, nodes };
                return self.entry(now, wa, n, prov, d, None);
            }
        }
        if wa > self.policy.e_max {
            let mut prefer: Vec<ClusterId> = reports.iter().map(|r| r.cluster).collect();
            prefer.sort_unstable();
            prefer.dedup();
            let d = Decision::Add {
                count: self.policy.grow_size(wa, n),
                requirements: self.learned,
                prefer,
            };
            return self.entry(now, wa, n, prov, d, None);
        }
        if wa < self.policy.e_min {
            if let Some(reason) = self.hold("remove-nodes") {
                return self.entry(now, wa, n, prov, Decision::None, Some(reason));
            }
            let count = self.policy.shrink_size(wa, n);
            if count == 0 {
                return self.entry(now, wa, n, prov, Decision::None, None);
            }
            let median = prov[prov.len() / 2].badness;
            let outliers = prov
                .iter()
                .take_while(|p| p.badness > median * self.policy.badness_outlier_factor)
                .count();
            let count = count
                .max(outliers)
                .min(n.saturating_sub(self.policy.min_nodes));
            let nodes: Vec<NodeId> = prov.iter().take(count).map(|p| p.node).collect();
            if self.policy.blacklist_removed {
                self.blacklisted_nodes.extend(nodes.iter().copied());
            }
            for node in &nodes {
                self.latest.remove(node);
            }
            return self.entry(now, wa, n, prov, Decision::RemoveNodes { nodes }, None);
        }
        if let (true, Some(avail)) = (self.policy.opportunistic_migration, fastest) {
            let margin = self.policy.opportunistic_speed_margin;
            let mut slow: Vec<(NodeId, f64)> = reports
                .iter()
                .filter(|r| r.speed * margin < avail)
                .map(|r| (r.node, r.speed))
                .collect();
            if !slow.is_empty() {
                if let Some(reason) = self.hold("opportunistic-swap") {
                    return self.entry(now, wa, n, prov, Decision::None, Some(reason));
                }
                slow.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
                slow.truncate(self.policy.max_growth_per_period);
                let remove: Vec<NodeId> = slow.iter().map(|&(id, _)| id).collect();
                let mut requirements = self.learned;
                let fastest_removed = slow.iter().map(|&(_, s)| s).fold(0.0_f64, f64::max);
                requirements.min_speed = Some(fastest_removed * margin);
                for node in &remove {
                    self.latest.remove(node);
                }
                let d = Decision::OpportunisticSwap {
                    add: remove.len(),
                    remove,
                    requirements,
                };
                return self.entry(now, wa, n, prov, d, None);
            }
        }
        self.entry(now, wa, n, prov, Decision::None, None)
    }
}

fn requirement_bits(r: &LearnedRequirements) -> [Option<u64>; 2] {
    [
        r.min_uplink_bps.map(f64::to_bits),
        r.min_speed.map(f64::to_bits),
    ]
}

/// Every float of an entry, as bits, in a fixed order.
fn float_bits(e: &DecisionLogEntry) -> Vec<Option<u64>> {
    let mut bits = vec![Some(e.wa_efficiency.to_bits())];
    bits.extend(requirement_bits(&e.learned));
    match &e.decision {
        Decision::Add { requirements, .. } | Decision::OpportunisticSwap { requirements, .. } => {
            bits.extend(requirement_bits(requirements))
        }
        _ => {}
    }
    for b in &e.badness {
        bits.extend([b.speed, b.ic_overhead, b.badness].map(|f| Some(f.to_bits())));
    }
    bits
}

/// How the reports of one case are drawn.
#[derive(Clone, Copy, Debug)]
enum Palette {
    /// Continuous random speed, busy and ic fractions.
    Random,
    /// A handful of exact values, so many nodes tie on badness.
    Ties,
    /// Every member of a cluster has the same exact ic fraction: cluster 0
    /// sits exactly at `exceptional_ic_dominance` (2.0) times cluster 1.
    DominanceEdge,
}

struct Case {
    nodes: u32,
    clusters: u16,
    palette: Palette,
    /// Centre of the busy fraction: low shrinks, high grows.
    busy: f64,
    policy: AdaptPolicy,
}

fn breakdown(busy: f64, ic: f64) -> OverheadBreakdown {
    let total = 1_000_000u64;
    let busy = (busy * total as f64) as u64;
    let inter = ((ic * total as f64) as u64).min(total - busy);
    OverheadBreakdown {
        busy: SimDuration(busy),
        inter_comm: SimDuration(inter),
        idle: SimDuration(total - busy - inter),
        ..Default::default()
    }
}

fn draw_report(
    rng: &mut Xoshiro256StarStar,
    case: &Case,
    node: u32,
    now: SimTime,
) -> MonitoringReport {
    // A node stays in one cluster for the whole case.
    let cluster = ClusterId((node.wrapping_mul(2_654_435_761) % u32::from(case.clusters)) as u16);
    let (speed, busy, ic) = match case.palette {
        Palette::Random => (
            0.01 + 0.99 * rng.gen_f64(),
            (case.busy + 0.3 * (rng.gen_f64() - 0.5)).clamp(0.0, 0.9),
            0.2 * rng.gen_f64() * rng.gen_f64(),
        ),
        Palette::Ties => (
            [0.25, 0.5, 1.0][rng.gen_index(3)],
            case.busy,
            [0.0, 0.0625, 0.125][rng.gen_index(3)],
        ),
        Palette::DominanceEdge => {
            let ic = match cluster.0 {
                0 => 0.25,
                1 => 0.125,
                _ => 0.0625,
            };
            (1.0, case.busy.min(0.7), ic)
        }
    };
    MonitoringReport {
        node: NodeId(node),
        cluster,
        period_end: now,
        breakdown: breakdown(busy, ic),
        speed,
    }
}

fn run_case(seed: u64, case: &Case) -> (usize, BTreeSet<&'static str>) {
    let mut rng = Xoshiro256StarStar::seeded(seed);
    let mut real = Coordinator::new(case.policy);
    let mut reference = Reference::new(case.policy);
    let mut now = SimTime::ZERO;
    let mut kinds = BTreeSet::new();
    let mut evaluations = 0;
    // Node ids beyond `nodes` stand for late joiners.
    let id_space = case.nodes + case.nodes / 4 + 1;
    for node in 0..case.nodes {
        let r = draw_report(&mut rng, case, node, now);
        real.record_report(r);
        reference.record_report(r);
    }
    for step in 0..60 {
        match rng.gen_index(10) {
            0..=2 => {
                for _ in 0..1 + rng.gen_index(case.nodes as usize) {
                    let node = rng.gen_range(id_space.into()) as u32;
                    let r = draw_report(&mut rng, case, node, now);
                    real.record_report(r);
                    reference.record_report(r);
                }
            }
            3 => {
                let node = NodeId(rng.gen_range(id_space.into()) as u32);
                real.node_gone(node);
                reference.node_gone(node);
            }
            4 => {
                // Sometimes every known member falls silent at once.
                let all = rng.gen_bool(0.25);
                let known: Vec<NodeId> = reference.latest.keys().copied().collect();
                for node in known {
                    if all || rng.gen_bool(0.05) {
                        real.mark_suspect(node);
                        reference.suspects.insert(node);
                    }
                }
                let stray = NodeId(rng.gen_range(id_space.into()) as u32);
                real.mark_suspect(stray);
                reference.suspects.insert(stray);
            }
            5 => {
                let suspects: Vec<NodeId> = reference.suspects.iter().copied().collect();
                for node in suspects {
                    if rng.gen_bool(0.5) {
                        assert_eq!(real.clear_suspect(node), reference.suspects.remove(&node));
                    }
                }
            }
            6 => {
                let crashed: Vec<NodeId> = (0..1 + rng.gen_index(3))
                    .map(|_| NodeId(rng.gen_range(id_space.into()) as u32))
                    .collect();
                let cluster = rng
                    .gen_bool(0.3)
                    .then(|| ClusterId(rng.gen_index(case.clusters.into()) as u16));
                real.record_crashed(&crashed, cluster);
                reference.record_crashed(&crashed, cluster);
            }
            7 => {
                let cluster = ClusterId(rng.gen_index(case.clusters.into()) as u16);
                let bps = 1e4 + 1e6 * rng.gen_f64();
                real.observe_uplink(cluster, bps);
                reference.uplink_observations.insert(cluster, bps);
            }
            _ => {
                now += SimDuration::from_secs(180);
                let fastest = rng.gen_bool(0.6).then(|| 0.5 + rng.gen_f64());
                let decision = real.evaluate(now, fastest);
                let expected = reference.evaluate(now, fastest);
                let got = real
                    .last_decision()
                    .expect("evaluate logs an entry")
                    .clone();
                assert_eq!(decision, got.decision, "seed {seed} step {step}");
                assert_eq!(got, expected, "seed {seed} step {step}");
                assert_eq!(
                    float_bits(&got),
                    float_bits(&expected),
                    "seed {seed} step {step}"
                );
                assert_eq!(real.known_nodes(), reference.latest.len());
                assert_eq!(real.suspects(), &reference.suspects);
                kinds.insert(decision.kind());
                if got.hold_fire.is_some() {
                    kinds.insert("hold-fire");
                }
                evaluations += 1;
            }
        }
    }
    (evaluations, kinds)
}

fn policy(rng: &mut Xoshiro256StarStar, palette: Palette, nodes: u32) -> AdaptPolicy {
    let mut p = AdaptPolicy {
        opportunistic_migration: rng.gen_bool(0.5),
        ..Default::default()
    };
    if rng.gen_bool(0.3) {
        // The clamp: shrinking stops at most members.
        p.min_nodes = (nodes as usize).saturating_sub(rng.gen_index(3)).max(1);
    }
    if let Palette::DominanceEdge = palette {
        p.exceptional_ic_dominance = 2.0;
    }
    p
}

#[test]
fn evaluate_matches_the_reference_algorithm() {
    let mut kinds = BTreeSet::new();
    let mut evaluations = 0;
    let mut seed = 0xE7A1_0000u64;
    for nodes in [1u32, 2, 36, 256, 1_024] {
        for clusters in [1u16, 2, 3, 8, 32, 64] {
            for palette in [Palette::Random, Palette::Ties, Palette::DominanceEdge] {
                for busy in [0.15, 0.4, 0.8] {
                    seed += 1;
                    let mut rng = Xoshiro256StarStar::seeded(seed);
                    let case = Case {
                        nodes,
                        clusters,
                        palette,
                        busy,
                        policy: policy(&mut rng, palette, nodes),
                    };
                    let (n, k) = run_case(seed, &case);
                    evaluations += n;
                    kinds.extend(k);
                }
            }
        }
    }
    // The sequences reach every branch of the flowchart.
    for kind in [
        "none",
        "add",
        "remove-nodes",
        "remove-cluster",
        "opportunistic-swap",
        "hold-fire",
    ] {
        assert!(kinds.contains(kind), "no {kind} decision among {kinds:?}");
    }
    assert!(evaluations > 1_000, "{evaluations} evaluations");
}

/// Badness ties broken by node id, an exceptional cluster exactly at the
/// dominance edge, and the same cluster just below it.
#[test]
fn edge_cases_match_the_reference_algorithm() {
    let policy = AdaptPolicy {
        exceptional_ic_dominance: 2.0,
        ..Default::default()
    };
    for below in [false, true] {
        let mut real = Coordinator::new(policy);
        let mut reference = Reference::new(policy);
        for node in 0..12u32 {
            let cluster = (node % 3) as u16;
            let ic = match (cluster, below) {
                (0, false) => 0.25,
                (0, true) => 0.249_999,
                (1, _) => 0.125,
                _ => 0.0,
            };
            let r = MonitoringReport {
                node: NodeId(node),
                cluster: ClusterId(cluster),
                period_end: SimTime::ZERO,
                breakdown: breakdown(0.2, ic),
                speed: 1.0,
            };
            real.record_report(r);
            reference.record_report(r);
        }
        let decision = real.evaluate(SimTime::ZERO, None);
        assert_eq!(
            real.last_decision(),
            Some(&reference.evaluate(SimTime::ZERO, None))
        );
        assert_eq!(
            matches!(
                decision,
                Decision::RemoveCluster {
                    cluster: ClusterId(0),
                    ..
                }
            ),
            !below
        );
        let ranked = &real.last_decision().unwrap().badness;
        // Four nodes share each badness value; within a tie the higher id
        // ranks first.
        assert!(ranked.windows(2).all(|w| w[0].badness > w[1].badness
            || (w[0].badness == w[1].badness && w[0].node > w[1].node)));
    }
}

/// A report whose busy and ic fractions are multiples of 1/64. A
/// hierarchy replays the raw report itself, so its main coordinator's
/// entries are held to the reference like the flat coordinator's.
fn dyadic_report(
    rng: &mut Xoshiro256StarStar,
    node: u32,
    clusters: u16,
    phase: Phase,
    now: SimTime,
) -> MonitoringReport {
    let cluster = ClusterId((node % u32::from(clusters)) as u16);
    let busy = match phase {
        Phase::Shrink => 6 + rng.gen_index(12),
        Phase::Band => 22 + rng.gen_index(12),
        Phase::Grow | Phase::BadLink => 44 + rng.gen_index(20),
    } as u64;
    let ic = match phase {
        Phase::BadLink if cluster.0 == 0 => 16,
        _ => rng.gen_index(3) as u64,
    }
    .min(64 - busy);
    let speed = if rng.gen_bool(0.1) {
        0.05 + 0.25 * rng.gen_f64()
    } else {
        0.6 + 0.4 * rng.gen_f64()
    };
    let unit = 1_000_000 / 64;
    MonitoringReport {
        node: NodeId(node),
        cluster,
        period_end: now,
        breakdown: OverheadBreakdown {
            busy: SimDuration(busy * unit),
            inter_comm: SimDuration(ic * unit),
            idle: SimDuration((64 - busy - ic) * unit),
            ..Default::default()
        },
        speed,
    }
}

/// Which branch of the flowchart the next reports lean toward.
#[derive(Clone, Copy, Debug)]
enum Phase {
    Shrink,
    Band,
    Grow,
    /// Cluster 0's members spend a quarter of the period on the wide area.
    BadLink,
}

/// `got` is the reference entry, floats bit for bit.
fn assert_entry(got: Option<&DecisionLogEntry>, expected: &DecisionLogEntry, what: &str) {
    let got = got.unwrap_or_else(|| panic!("{what}: no entry"));
    assert_eq!(got, expected, "{what}");
    assert_eq!(float_bits(got), float_bits(expected), "{what}");
}

/// The worst-first ranking is built when an entry is first read, not when
/// it is decided. No reader can tell: an entry never read before the next
/// evaluation, an entry read twice and a hierarchy's main entry all equal
/// the eagerly ranked reference, and so does every returned decision.
#[test]
fn ranking_on_read_is_unobservable() {
    let policies = [
        AdaptPolicy::default(),
        AdaptPolicy {
            blacklist_removed: false,
            ..Default::default()
        },
        AdaptPolicy {
            opportunistic_migration: true,
            ..Default::default()
        },
        AdaptPolicy {
            blacklist_removed: false,
            opportunistic_migration: true,
            ..Default::default()
        },
    ];
    let mut kinds = BTreeSet::new();
    let mut seed = 0x1A2E_0000u64;
    for policy in policies {
        for nodes in [2u32, 9, 36, 256] {
            for clusters in [1u16, 3, 8] {
                seed += 1;
                let mut rng = Xoshiro256StarStar::seeded(seed);
                // `unread` leaves every other entry unread until the next
                // evaluation replaces it; `twice` reads every entry twice.
                let mut unread = Coordinator::new(policy);
                let mut twice = Coordinator::new(policy);
                let mut hier = HierarchicalCoordinator::new(policy);
                let mut reference = Reference::new(policy);
                let id_space = nodes + nodes / 4 + 1;
                let mut phase = Phase::Band;
                let mut now = SimTime::ZERO;
                for step in 0..80 {
                    let what = |who: &str| format!("{who}: seed {seed} step {step}");
                    match rng.gen_index(8) {
                        0..=2 => {
                            for _ in 0..1 + rng.gen_index(nodes as usize) {
                                let node = rng.gen_range(id_space.into()) as u32;
                                let r = dyadic_report(&mut rng, node, clusters, phase, now);
                                unread.record_report(r);
                                twice.record_report(r);
                                hier.record_report(r);
                                reference.record_report(r);
                            }
                        }
                        3 => {
                            let node = NodeId(rng.gen_range(id_space.into()) as u32);
                            unread.node_gone(node);
                            twice.node_gone(node);
                            hier.node_gone(node);
                            reference.node_gone(node);
                        }
                        4 => {
                            // A suspect set: each known member falls silent
                            // with a small chance.
                            let known: Vec<NodeId> = reference.latest.keys().copied().collect();
                            for node in known {
                                if rng.gen_bool(0.04) {
                                    unread.mark_suspect(node);
                                    twice.mark_suspect(node);
                                    hier.mark_suspect(node);
                                    reference.suspects.insert(node);
                                }
                            }
                        }
                        5 => {
                            let suspects: Vec<NodeId> =
                                reference.suspects.iter().copied().collect();
                            for node in suspects {
                                unread.clear_suspect(node);
                                twice.clear_suspect(node);
                                hier.clear_suspect(node);
                                reference.suspects.remove(&node);
                            }
                        }
                        6 => {
                            let cluster = ClusterId(rng.gen_index(clusters.into()) as u16);
                            let bps = 1e4 + 1e6 * rng.gen_f64();
                            unread.observe_uplink(cluster, bps);
                            twice.observe_uplink(cluster, bps);
                            hier.observe_uplink(cluster, bps);
                            reference.uplink_observations.insert(cluster, bps);
                        }
                        _ => {
                            now += SimDuration::from_secs(180);
                            let fastest = rng.gen_bool(0.7).then(|| 0.8 + rng.gen_f64());
                            let expected = reference.evaluate(now, fastest);
                            for (who, decision) in [
                                ("unread", unread.evaluate(now, fastest)),
                                ("twice", twice.evaluate(now, fastest)),
                                ("hier", hier.evaluate(now, fastest)),
                            ] {
                                assert_eq!(decision, expected.decision, "{}", what(who));
                            }
                            if step % 2 == 1 {
                                assert_entry(unread.last_decision(), &expected, &what("unread"));
                            }
                            assert_entry(twice.last_decision(), &expected, &what("twice"));
                            assert_entry(twice.last_decision(), &expected, &what("twice, again"));
                            assert_entry(hier.last_decision(), &expected, &what("hier"));
                            kinds.insert(expected.decision.kind());
                            if expected.hold_fire.is_some() {
                                kinds.insert("hold-fire");
                            }
                            phase = [Phase::Shrink, Phase::Band, Phase::Grow, Phase::BadLink]
                                [rng.gen_index(4)];
                        }
                    }
                }
            }
        }
    }
    for kind in [
        "none",
        "hold-fire",
        "add",
        "remove-nodes",
        "remove-cluster",
        "opportunistic-swap",
    ] {
        assert!(kinds.contains(kind), "no {kind} decision among {kinds:?}");
    }
}
