//! Randomized whole-engine invariants: arbitrary small grids, layouts and
//! perturbation scripts must always terminate, conserve tasks, and produce
//! sane metrics. Driven by the in-repo fixed-seed RNG so every case is
//! reproducible offline.

use sagrid_adapt::AdaptPolicy;
use sagrid_core::config::GridConfig;
use sagrid_core::ids::ClusterId;
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_core::workload::barnes_hut_profile;
use sagrid_simgrid::{AdaptMode, GridSim, SimConfig, StealPolicy, TimingConfig};
use sagrid_simnet::{Injection, InjectionSchedule, ScheduledInjection};

const CASES: u64 = 48;

#[derive(Debug, Clone)]
struct Scenario {
    clusters: usize,
    nodes_per_cluster: usize,
    initial_per_cluster: usize,
    iterations: usize,
    mode: u8,
    steal: u8,
    hierarchical: bool,
    injections: Vec<(u64, u8, f64)>,
    seed: u64,
}

fn random_scenario(rng: &mut impl Rng64) -> Scenario {
    let clusters = 2 + rng.gen_index(2);
    let nodes_per_cluster = 2 + rng.gen_index(4);
    let initial_per_cluster = (1 + rng.gen_index(4)).min(nodes_per_cluster);
    let injections = (0..rng.gen_index(3))
        .map(|_| {
            (
                rng.gen_range(60),
                rng.gen_range(4) as u8,
                1.0 + 9.0 * rng.gen_f64(),
            )
        })
        .collect();
    Scenario {
        clusters,
        nodes_per_cluster,
        initial_per_cluster,
        iterations: 2 + rng.gen_index(4),
        mode: rng.gen_range(3) as u8,
        steal: rng.gen_range(2) as u8,
        hierarchical: rng.gen_bool(0.5),
        injections,
        seed: rng.next_u64(),
    }
}

fn build(s: &Scenario) -> SimConfig {
    let grid = GridConfig::uniform(s.clusters, s.nodes_per_cluster);
    let initial: Vec<(ClusterId, usize)> = (0..s.clusters)
        .map(|c| (ClusterId(c as u16), s.initial_per_cluster))
        .collect();
    let injections = InjectionSchedule::new(
        s.injections
            .iter()
            .map(|&(t, kind, factor)| {
                let cluster = ClusterId((t % s.clusters as u64) as u16);
                let injection = match kind {
                    0 => Injection::CpuLoad {
                        cluster,
                        count: None,
                        factor,
                    },
                    1 => Injection::UplinkBandwidth {
                        cluster,
                        bandwidth_bps: 50_000.0 * factor,
                    },
                    2 => Injection::CrashNodes { cluster, count: 1 },
                    _ => Injection::CpuLoad {
                        cluster,
                        count: Some(1),
                        factor: 1.0,
                    },
                };
                ScheduledInjection {
                    at: SimTime::from_secs(t),
                    injection,
                }
            })
            .collect(),
    );
    let n_initial: usize = initial.iter().map(|&(_, n)| n).sum();
    SimConfig {
        grid,
        policy: AdaptPolicy {
            monitoring_period: SimDuration::from_secs(20),
            // Never let random crashes plus shrink decisions empty the run.
            min_nodes: 1,
            ..AdaptPolicy::default()
        },
        initial_layout: initial,
        workload: barnes_hut_profile(s.iterations, n_initial.max(2), 3.0, s.seed),
        injections,
        mode: match s.mode {
            0 => AdaptMode::NoAdapt,
            1 => AdaptMode::MonitorOnly,
            _ => AdaptMode::Adapt,
        },
        steal_policy: if s.steal == 0 {
            StealPolicy::ClusterAware
        } else {
            StealPolicy::RandomGlobal
        },
        timing: TimingConfig {
            benchmark_work: SimDuration::from_millis(500),
            max_virtual_time: SimDuration::from_secs(3600),
            ..TimingConfig::default()
        },
        record_trace: false,
        hierarchical_coordinator: s.hierarchical,
        queue_backend: Default::default(),
        seed: s.seed,
    }
}

/// Every randomized configuration terminates with all iterations accounted
/// for (no lost or duplicated tasks), bounded metrics, and a consistent
/// node-count timeline.
#[test]
fn random_scenarios_terminate_and_conserve() {
    let mut generated = 0u64;
    let mut rng = Xoshiro256StarStar::seeded(0x519A_0001);
    while generated < CASES {
        let s = random_scenario(&mut rng);
        // Crashing the last node of the computation would legitimately
        // stall (nobody left to adopt work and no adaptation to add more
        // in NoAdapt/MonitorOnly). Keep at least one safe cluster: skip
        // crash injections when only one node per cluster was placed.
        if s.initial_per_cluster < 2 && s.injections.iter().any(|&(_, k, _)| k == 2) {
            continue;
        }
        generated += 1;
        let cfg = build(&s);
        let r = GridSim::run(cfg);
        assert!(!r.timed_out, "timed out: {s:?}");
        assert_eq!(r.iteration_durations.len(), s.iterations, "{s:?}");
        for d in &r.iteration_durations {
            assert!(d.0 > 0, "zero-length iteration: {s:?}");
        }
        for &(_, e) in &r.efficiency_timeline {
            assert!((0.0..=1.0).contains(&e), "wa_eff {e} out of range: {s:?}");
        }
        // Node-count timeline is consistent: starts at 0-going-up, never
        // negative jumps below zero, ends at final count.
        let mut last = 0usize;
        for &(_, n) in &r.node_count_timeline {
            assert!(n <= s.clusters * s.nodes_per_cluster, "{s:?}");
            last = n;
        }
        assert_eq!(last, r.final_node_count(), "{s:?}");
        // Aggregate accounting is non-degenerate: somebody did the work.
        assert!(r.aggregate.busy.0 > 0, "{s:?}");
        // The peer cache serves every steal attempt.
        assert_eq!(r.peer_cache_hits, r.steal_attempts, "{s:?}");
    }
}

/// Determinism holds across the entire randomized configuration space.
#[test]
fn random_scenarios_are_deterministic() {
    let mut rng = Xoshiro256StarStar::seeded(0x519A_0002);
    for _ in 0..CASES {
        let s = random_scenario(&mut rng);
        let a = GridSim::run(build(&s));
        let b = GridSim::run(build(&s));
        assert_eq!(a.iteration_durations, b.iteration_durations, "{s:?}");
        assert_eq!(a.events_processed, b.events_processed, "{s:?}");
        assert_eq!(a.node_count_timeline, b.node_count_timeline, "{s:?}");
    }
}
