//! Cross-crate integration tests on the discrete-event grid emulation:
//! full paper scenarios exercising core + simnet + registry + sched +
//! adapt + simgrid + exp together.

use sagrid::adapt::AdaptPolicy;
use sagrid::core::config::GridConfig;
use sagrid::core::ids::ClusterId;
use sagrid::core::time::{SimDuration, SimTime};
use sagrid::core::workload::barnes_hut_profile;
use sagrid::exp::runner::run_scenario;
use sagrid::exp::scenarios::{Scenario, ScenarioId, SubScenario};
use sagrid::simgrid::{AdaptMode, GridSim, SimConfig, StealPolicy, TimingConfig};
use sagrid::simnet::{Injection, InjectionSchedule, ScheduledInjection};

fn quick(id: ScenarioId) -> Scenario {
    let mut s = Scenario::new(id);
    s.iterations = 16;
    s
}

#[test]
fn expanding_scenario_beats_static_undersized_run() {
    let out = run_scenario(&quick(ScenarioId::S2Expand(SubScenario::A)), false);
    assert!(!out.no_adapt.timed_out && !out.adapt.timed_out);
    assert!(
        out.improvement() > 0.15,
        "expected a clear win from expansion, got {:.1}%",
        out.improvement() * 100.0
    );
    assert!(out.adapt.final_node_count() > 8);
    // Growth happened through Add decisions, not magic.
    assert!(out
        .adapt
        .decisions
        .iter()
        .any(|d| d.decision.kind() == "add"));
}

#[test]
fn overloaded_link_scenario_removes_the_shaped_cluster() {
    let out = run_scenario(&quick(ScenarioId::S4OverloadedLink), false);
    let removed_cluster = out.adapt.decisions.iter().find_map(|d| match &d.decision {
        sagrid::adapt::Decision::RemoveCluster { cluster, .. } => Some(*cluster),
        _ => None,
    });
    assert_eq!(
        removed_cluster,
        Some(ClusterId(2)),
        "the shaped cluster (c2) must be removed wholesale; log: {:?}",
        out.adapt.decisions
    );
}

#[test]
fn crash_scenario_replaces_lost_nodes() {
    let mut s = Scenario::new(ScenarioId::S6Crash);
    s.iterations = 32;
    let out = run_scenario(&s, false);
    assert!(!out.adapt.timed_out);
    // 36 nodes, 24 crash at t=200s; the adaptive run must end with clearly
    // more than the 12 survivors.
    assert!(
        out.adapt.final_node_count() > 12,
        "final nodes {} — adaptation never replaced the crashed clusters",
        out.adapt.final_node_count()
    );
    assert!(out.no_adapt.final_node_count() == 12);
    assert!(out.adapt.total_runtime <= out.no_adapt.total_runtime);
}

#[test]
fn monitor_only_pays_benchmark_overhead_but_keeps_node_count() {
    let out = run_scenario(&quick(ScenarioId::S1Overhead), true);
    let mon = out.monitor_only.expect("monitor-only run requested");
    assert!(mon.aggregate.benchmark.0 > 0);
    assert_eq!(mon.final_node_count(), 36);
    // runtime3 >= runtime1 (benchmarking is pure overhead).
    assert!(mon.total_runtime >= out.no_adapt.total_runtime);
}

#[test]
fn blacklisted_cluster_never_returns() {
    // Run the link-overload scenario long enough for several grow rounds
    // after the bad cluster is dropped; no node of cluster 2 may re-join.
    let mut s = Scenario::new(ScenarioId::S4OverloadedLink);
    s.iterations = 40;
    let cfg = s.config(AdaptMode::Adapt);
    let grid = cfg.grid.clone();
    let result = GridSim::run(cfg);
    assert!(!result.timed_out);
    let _ = &grid;
    let removal_time = result
        .decisions
        .iter()
        .find(|d| d.decision.kind() == "remove-cluster")
        .map(|d| d.at)
        .expect("cluster removal must happen");
    // After removal, added nodes must all come from other clusters. The
    // node-count timeline can't tell us which nodes joined, but the
    // decision log's Add entries plus the invariant that the engine's pool
    // filters blacklisted clusters are covered by unit tests; here we
    // assert the end state: final count grew back above the 24 survivors.
    assert!(result.node_count_at(removal_time + SimDuration::from_secs(1)) <= 24);
    assert!(result.final_node_count() > 24);
}

#[test]
fn all_scenarios_terminate_in_all_modes() {
    for id in ScenarioId::all() {
        let mut s = Scenario::quick(id);
        s.iterations = 6;
        for mode in [AdaptMode::NoAdapt, AdaptMode::MonitorOnly, AdaptMode::Adapt] {
            let r = GridSim::run(s.config(mode));
            assert!(
                !r.timed_out,
                "scenario {} timed out in {mode:?}",
                id.label()
            );
            assert_eq!(r.iteration_durations.len(), 6, "scenario {}", id.label());
        }
    }
}

#[test]
fn des_runs_are_reproducible_across_the_whole_stack() {
    let s = quick(ScenarioId::S3OverloadedCpus);
    let a = GridSim::run(s.config(AdaptMode::Adapt));
    let b = GridSim::run(s.config(AdaptMode::Adapt));
    assert_eq!(a.iteration_durations, b.iteration_durations);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.decisions.len(), b.decisions.len());
    assert_eq!(a.node_count_timeline, b.node_count_timeline);
}

#[test]
fn time_accounting_is_conserved_for_static_runs() {
    // In NoAdapt mode with no crashes, every node lives the whole run, so
    // the aggregate accounted time must be ≈ nodes × runtime.
    let cfg = SimConfig {
        grid: GridConfig::uniform(2, 6),
        policy: AdaptPolicy {
            monitoring_period: SimDuration::from_secs(60),
            ..AdaptPolicy::default()
        },
        initial_layout: vec![(ClusterId(0), 6), (ClusterId(1), 6)],
        workload: barnes_hut_profile(8, 12, 5.0, 3),
        injections: InjectionSchedule::empty(),
        mode: AdaptMode::NoAdapt,
        steal_policy: StealPolicy::ClusterAware,
        timing: TimingConfig::default(),
        record_trace: false,
        hierarchical_coordinator: false,
        queue_backend: Default::default(),
        seed: 123,
    };
    let r = GridSim::run(cfg);
    assert!(!r.timed_out);
    let accounted = r.aggregate.total().as_secs_f64() / 12.0;
    let runtime = r.total_runtime.as_secs_f64();
    let rel = (accounted - runtime).abs() / runtime;
    assert!(
        rel < 0.05,
        "per-node accounted {accounted:.1}s vs runtime {runtime:.1}s"
    );
}

#[test]
fn random_global_stealing_is_not_faster_than_crs_on_a_wan() {
    let s = quick(ScenarioId::S2Expand(SubScenario::C));
    let (crs, rnd) = sagrid::exp::ablation::crs_vs_random(&s);
    assert!(crs.total_runtime <= rnd.total_runtime);
}

#[test]
fn injections_change_behaviour_only_after_their_time() {
    // Identical runs except a late injection: iteration durations must
    // match exactly until the disturbance.
    let base = SimConfig {
        grid: GridConfig::uniform(2, 4),
        policy: AdaptPolicy::default(),
        initial_layout: vec![(ClusterId(0), 4), (ClusterId(1), 4)],
        workload: barnes_hut_profile(12, 8, 4.0, 17),
        injections: InjectionSchedule::empty(),
        mode: AdaptMode::NoAdapt,
        steal_policy: StealPolicy::ClusterAware,
        timing: TimingConfig::default(),
        record_trace: false,
        hierarchical_coordinator: false,
        queue_backend: Default::default(),
        seed: 5,
    };
    let mut perturbed = base.clone();
    perturbed.injections = InjectionSchedule::new(vec![ScheduledInjection {
        at: SimTime::from_secs(25),
        injection: Injection::CpuLoad {
            cluster: ClusterId(1),
            count: None,
            factor: 8.0,
        },
    }]);
    let clean = GridSim::run(base);
    let loaded = GridSim::run(perturbed);
    // Find the iteration spanning t=25s in the clean run.
    let mut t = 0.0;
    let mut boundary = 0;
    for (i, d) in clean.iteration_durations.iter().enumerate() {
        t += d.as_secs_f64();
        if t > 25.0 {
            boundary = i;
            break;
        }
    }
    assert!(boundary > 0, "disturbance must fall inside the run");
    assert_eq!(
        clean.iteration_durations[..boundary],
        loaded.iteration_durations[..boundary],
        "pre-disturbance iterations must be identical"
    );
    let clean_total = clean.total_runtime.as_secs_f64();
    let loaded_total = loaded.total_runtime.as_secs_f64();
    assert!(
        loaded_total > clean_total,
        "the load must slow the run down"
    );
}

#[test]
fn hierarchical_coordinator_matches_flat_decisions() {
    // Paper §7: the hierarchy is a scalability fix, not a behaviour change.
    // Same scenario, flat vs hierarchical coordinator: identical decision
    // entries, floats bit for bit, and (since decisions drive everything)
    // identical runs. The paper's 48 iterations, because a shorter run
    // ends before the first 180 s period and decides nothing.
    for id in [
        ScenarioId::S3OverloadedCpus,
        ScenarioId::S4OverloadedLink,
        ScenarioId::S6Crash,
    ] {
        let s = Scenario::new(id);
        let flat = GridSim::run(s.config(AdaptMode::Adapt));
        let mut cfg = s.config(AdaptMode::Adapt);
        cfg.hierarchical_coordinator = true;
        let hier = GridSim::run(cfg);
        assert!(!flat.decisions.is_empty(), "scenario {}", id.label());
        assert_eq!(flat.decisions, hier.decisions, "scenario {}", id.label());
        assert_eq!(
            flat.iteration_durations,
            hier.iteration_durations,
            "scenario {}",
            id.label()
        );
    }
}

#[test]
fn learned_bandwidth_bound_comes_from_measured_transfers() {
    // After the shaped cluster is removed, the coordinator must have
    // learned a min-bandwidth requirement in the vicinity of the shaped
    // rate — from transfer-time measurements, not from reading the network
    // model (the engine only feeds the estimator).
    let mut s = Scenario::new(ScenarioId::S4OverloadedLink);
    s.iterations = 40; // long enough for Add decisions after the removal
    let out = run_scenario(&s, false);
    let add_with_requirement = out.adapt.decisions.iter().find_map(|d| match &d.decision {
        sagrid::adapt::Decision::Add { requirements, .. } => requirements.min_uplink_bps,
        _ => None,
    });
    let bw = add_with_requirement.expect("an Add after the cluster removal carries the bound");
    assert!(
        (10_000.0..1_000_000.0).contains(&bw),
        "learned bound {bw} should be near the shaped 100 KB/s rate"
    );
}
