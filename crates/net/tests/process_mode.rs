//! End-to-end process-mode tests: `grid-local` spawns a real hub, a real
//! coordinator daemon and real worker processes over loopback TCP, drives
//! them from checked-in scenario files (or one of its scripted scenarios)
//! and judges the run; these tests assert the launcher's exit code and the
//! artifacts it leaves.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard};

/// One grid at a time: each run is a dozen busy processes whose verdicts
/// rest on relative benchmark timings, so two grids sharing the cores of a
/// small CI box would perturb exactly what the other one measures.
fn one_grid_at_a_time() -> MutexGuard<'static, ()> {
    static GRID: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the next grid may still run.
    GRID.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_out(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("grid_local_{name}_{}", std::process::id()))
}

/// Runs `grid-local --scenario-file scenarios/<file> --out <out>`.
fn run_scenario_file(file: &str, out: &Path) -> Output {
    let scenario = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args(["--scenario-file", &scenario, "--out"])
        .arg(out)
        .output()
        .expect("launch grid-local")
}

/// `CHECK ok:` lines of a run, for asserting that a post-condition was
/// actually evaluated (they are conditional on what the scenario did).
fn assert_checked(output: &Output, checks: &[&str]) {
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        output.status.code(),
        Some(0),
        "grid-local failed:\n{stdout}"
    );
    for check in checks {
        assert!(
            stdout.contains(&format!("CHECK ok: {check}")),
            "missing `CHECK ok: {check}` in:\n{stdout}"
        );
    }
}

/// The paper's crashed-node case from its scenario file: one worker is
/// SIGKILLed; the hub must report it dead by heartbeat timeout, refuse a
/// rejoin under its id, and the coordinator must end with it blacklisted.
#[test]
fn grid_local_crash_scenario_passes() {
    let _grid = one_grid_at_a_time();
    let out = temp_out("node_crash");
    let output = run_scenario_file("node_crash.json", &out);
    assert_checked(
        &output,
        &[
            "hub detected the SIGKILLed worker via heartbeat timeout",
            "rejoin attempt under the blacklisted node id was refused",
            "crashed node is blacklisted in the final decision entry",
        ],
    );
    // The hub and coordinator both wrote their JSONL metric streams.
    assert!(out.join("run_hub.jsonl").exists());
    assert!(out.join("run_coordinatord.jsonl").exists());
    std::fs::remove_dir_all(&out).ok();
}

/// The paper's overloaded-processor case from its scenario file: one of
/// three workers is slowed tenfold at t = 0; the badness ranking must
/// single it out and the coordinator remove it.
#[test]
fn grid_local_slow_node_scenario_passes() {
    let _grid = one_grid_at_a_time();
    let out = temp_out("slow_node");
    let output = run_scenario_file("slow_node.json", &out);
    assert_checked(
        &output,
        &[
            "badness ranking removed the slow worker (remove-nodes decision)",
            "slow worker ranked worst in the removal's badness provenance",
        ],
    );
    std::fs::remove_dir_all(&out).ok();
}

/// The paper's expanding case from its scenario file (s2a: one site at 8
/// of the 36 nodes the workload is sized for): the saturated grid must
/// make the coordinator decide `add`, the hub grant nodes from its pool,
/// and the workers the launcher starts for those grants join.
#[test]
fn grid_local_expanding_scenario_grows() {
    let _grid = one_grid_at_a_time();
    let out = temp_out("s2a");
    let output = run_scenario_file("s2a.json", &out);
    assert_checked(
        &output,
        &["a node granted after the coordinator's add decision joined the grid"],
    );
    std::fs::remove_dir_all(&out).ok();
}

/// The scenario names and the flag this launcher used to have are usage
/// errors now: exit 2 with the usage line, before anything is spawned.
#[test]
fn grid_local_removed_names_are_usage_errors() {
    for args in [
        &["--scenario", "crash"][..],
        &["--scenario", "full"],
        &["--scenario", "hub-crash", "--kill-index", "1"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_grid-local"))
            .args(args)
            .output()
            .expect("launch grid-local");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: grid-local"),
            "{args:?}: no usage line in {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&output.stdout).contains("spawned"),
            "{args:?} spawned children before rejecting the arguments"
        );
    }
}

/// The checked-in paper scenario 3 (overloaded CPUs) drives real worker
/// processes from its declarative file, and the run's composed JSONL
/// stream satisfies the adaptation invariants: exit code 0.
#[test]
fn grid_local_scenario_file_s3_passes() {
    let _grid = one_grid_at_a_time();
    let out = temp_out("s3");
    let output = run_scenario_file("s3.json", &out);
    assert_eq!(
        output.status.code(),
        Some(0),
        "scenario-file run should pass every invariant check"
    );
    // The launcher wrote the composed injection+decision stream it judged.
    assert!(out.join("scenario_stream.jsonl").exists());
    std::fs::remove_dir_all(&out).ok();
}

/// True once `pid` no longer names a live (non-zombie) process. A zombie
/// counts as dead: it has been killed and merely awaits init's reap.
fn process_gone(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Err(_) => true,
        Ok(stat) => match stat.rfind(')') {
            None => true,
            Some(idx) => matches!(
                stat[idx + 1..].trim_start().chars().next(),
                Some('Z') | None
            ),
        },
    }
}

/// Exit codes separate the three failure classes: 4 = infrastructure
/// timeout (the grid never came up), 2 = infrastructure/usage error,
/// 1 = a check failed on an otherwise healthy run. CI keys off this to
/// tell "the adaptation broke" from "the host was too slow".
#[test]
fn grid_local_scenario_file_exit_codes_distinguish_failure_classes() {
    let _grid = one_grid_at_a_time();
    let out = temp_out("exit_test");
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/s3.json");

    // A 1 ms join timeout can never see the hub come up: timeout, exit 4.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args([
            "--scenario-file",
            scenario,
            "--join-timeout-ms",
            "1",
            "--out",
            out.to_str().expect("utf8 temp path"),
        ])
        .output()
        .expect("launch grid-local");
    assert_eq!(
        output.status.code(),
        Some(4),
        "infrastructure timeout must exit 4"
    );

    // The failure exit must not leak children: the launcher prints each
    // spawned pid, and its Drop-based reaper runs before `process::exit`,
    // so every such pid must be gone once grid-local itself has exited.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let spawned: Vec<u32> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("grid-local: spawned "))
        .filter_map(|rest| rest.split("pid=").nth(1))
        .filter_map(|p| p.trim().parse().ok())
        .collect();
    assert!(
        !spawned.is_empty() && stdout.contains("spawned hub pid="),
        "exit-4 run should have spawned (and reported) a hub before timing out: {stdout}"
    );
    for pid in spawned {
        // SIGKILL is asynchronous; allow the victim a moment to die.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !process_gone(pid) && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        assert!(
            process_gone(pid),
            "child pid {pid} survived the exit-4 path (leaked process)"
        );
    }

    // An unreadable scenario file is an infrastructure error, exit 2.
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args([
            "--scenario-file",
            "/nonexistent/scenario.json",
            "--out",
            out.to_str().expect("utf8 temp path"),
        ])
        .status()
        .expect("launch grid-local");
    assert_eq!(status.code(), Some(2), "infrastructure error must exit 2");

    // A healthy run that misses a check (an impossible decision quota on a
    // tiny undisturbed grid) is a verdict, exit 1.
    let tiny = out.join("tiny.json");
    std::fs::create_dir_all(&out).expect("create temp out dir");
    std::fs::write(
        &tiny,
        r#"{"name": "tiny", "grid": {"clusters": 2, "nodes_per_cluster": 6},
            "layout": [[0, 2], [1, 2]], "iterations": 4, "seed": 1,
            "target_nodes": 4, "target_iter_secs": 1, "events": []}"#,
    )
    .expect("write tiny scenario");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args([
            "--scenario-file",
            tiny.to_str().expect("utf8 temp path"),
            "--workers-per-cluster",
            "1",
            "--min-decisions",
            "100000",
            "--out",
            out.to_str().expect("utf8 temp path"),
        ])
        .status()
        .expect("launch grid-local");
    assert_eq!(status.code(), Some(1), "failed check must exit 1");
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn grid_local_steal_scenario_passes() {
    let _grid = one_grid_at_a_time();
    let out = temp_out("steal");
    // The scenario itself asserts the interesting facts (root result
    // correct, remote steals observed, measured inter-cluster time > 0)
    // and exits non-zero if any check fails; the duration is a deadline,
    // not a sleep — the run ends as soon as the root result is in.
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_grid-local"))
        .args([
            "--workers",
            "3",
            "--scenario",
            "steal",
            "--duration-ms",
            "30000",
            "--out",
            out.to_str().expect("utf8 temp path"),
        ])
        .status()
        .expect("launch grid-local");
    assert!(status.success(), "grid-local exited with {status}");
    assert!(out.join("steal_root_metrics.jsonl").exists());
    std::fs::remove_dir_all(&out).ok();
}
