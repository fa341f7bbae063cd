//! Heap-vs-wheel trace equivalence: the timer-wheel event queue must be
//! *observationally identical* to the binary-heap oracle, not just "close".
//!
//! Both backends promise the same `(time, sequence-number)` total order, so
//! a full scenario run — tens of thousands of events through steal
//! protocols, benchmarks, injections, crash recovery and adaptation — must
//! produce a byte-identical [`RunResult`], per-node activity traces
//! included. Any ordering divergence anywhere in the cascade/overflow
//! machinery shows up here as a diff in the first derailed field.

use sagrid_exp::scenarios::{Scenario, ScenarioId};
use sagrid_scenario::ScenarioSpec;
use sagrid_simgrid::{AdaptMode, GridSim, QueueBackend, RunResult, SimConfig};

fn run(mut cfg: SimConfig, backend: QueueBackend) -> RunResult {
    // Record traces so the comparison covers every activity transition of
    // every node, not just the aggregate statistics.
    cfg.record_trace = true;
    cfg.queue_backend = Some(backend);
    GridSim::try_run(cfg).expect("a valid configuration")
}

/// Runs `cfg` on both backends and returns the (identical) result.
fn assert_identical(what: &str, cfg: SimConfig) -> RunResult {
    let wheel = run(cfg.clone(), QueueBackend::Wheel);
    let heap = run(cfg, QueueBackend::Heap);
    // Every RunResult field is a deterministic function of the event order
    // (virtual times, counters, traces — no wall-clock anywhere), so the
    // Debug rendering is a faithful byte-level fingerprint of the run.
    let (w, h) = (format!("{wheel:#?}"), format!("{heap:#?}"));
    if w != h {
        let diverged = w
            .lines()
            .zip(h.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("wheel: {a}\n heap: {b}"))
            .unwrap_or_else(|| "outputs differ in length".into());
        panic!("{what}: backends diverged\n{diverged}");
    }
    assert!(wheel.events_processed > 10_000, "{what}: run too trivial");
    wheel
}

fn assert_scenario_identical(id: ScenarioId, seed: u64) {
    let mut s = Scenario::new(id);
    s.seed = seed;
    assert_identical(&format!("{id:?} seed {seed}"), s.config(AdaptMode::Adapt));
}

/// Scenario 1 (overhead measurement, no perturbations) replays identically
/// on both queue backends across several seeds.
#[test]
fn scenario1_wheel_matches_heap() {
    for seed in [0xDE5_0001, 0xDE5_0002, 0xDE5_0003] {
        assert_scenario_identical(ScenarioId::S1Overhead, seed);
    }
}

/// Scenario 4 (overloaded WAN link: shared-uplink queueing, wide-area steal
/// traffic under congestion) replays identically on both queue backends.
#[test]
fn scenario4_wheel_matches_heap() {
    for seed in [0xDE5_0004, 0xDE5_0005, 0xDE5_0006] {
        assert_scenario_identical(ScenarioId::S4OverloadedLink, seed);
    }
}

/// Width: 1,024 nodes (8 × 128 of a 32 × 128 grid) under the hierarchical
/// coordinator, with a cluster crash and a CPU ramp. Thousands of pending
/// events keep every wheel level, the cascades between them and the slab's
/// free list busy at once — which the 36-node scenarios cannot.
#[test]
fn wide_grid_wheel_matches_heap() {
    let spec = ScenarioSpec::parse(
        r#"{
          "name": "queue_equivalence_wide",
          "grid": {"clusters": 32, "nodes_per_cluster": 128},
          "layout": [[0, 128], [1, 128], [2, 128], [3, 128], [4, 128], [5, 128], [6, 128], [7, 128]],
          "iterations": 2,
          "seed": 1024001,
          "target_nodes": 1024,
          "target_iter_secs": 20,
          "monitoring_period_secs": 20,
          "events": [
            {"at_secs": 15, "kind": "crash_cluster", "cluster": 3},
            {"at_secs": 20, "kind": "load_ramp", "cluster": 1, "to_factor": 6, "steps": 3, "duration_secs": 15}
          ]
        }"#,
    )
    .expect("the spec above is well-formed");
    let mut cfg = spec.sim_config(AdaptMode::Adapt).expect("and valid");
    cfg.hierarchical_coordinator = true;
    let run = assert_identical("wide grid", cfg);
    assert!(!run.timed_out);
    assert!(!run.decisions.is_empty(), "the coordinator never ticked");
}
