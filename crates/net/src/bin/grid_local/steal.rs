//! The `steal` scenario: a deliberately slow root worker in cluster 0
//! expands `fib(STEAL_FIB_N)` into a frontier of subjobs and exports them
//! through its steal server; full-speed thief workers in both clusters
//! drain the pool over the wire by CRS and send the values back. Scripted
//! because the scenario format has no export-frontier primitive.

use crate::harness::{HubGeometry, LineHook, LocalGrid, WorkerArgs, WorkerSpec};
use crate::{Checks, Failure};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fibonacci argument for the distributed root job.
const STEAL_FIB_N: u64 = 34;
/// Frontier depth: 2^7 = 128 independent subjobs to spread around.
const STEAL_DEPTH: u32 = 7;

/// What the workers' stdout says about the distributed computation.
#[derive(Default)]
struct StealMarks {
    root_result: Option<u64>,
    root_done: bool,
    /// `(tag, remote_ok, served, inter_us)` per worker exit summary.
    summaries: Vec<(String, u64, u64, u64)>,
}

/// Parses a worker's exit summary `STEALS ok=N failed=M served=K
/// inter_us=T` into `(ok, served, inter_us)`.
fn parse_steals(line: &str) -> Option<(u64, u64, u64)> {
    let rest = line.strip_prefix("STEALS ")?;
    let (mut ok, mut served, mut inter) = (None, None, None);
    for part in rest.split_whitespace() {
        let (k, v) = part.split_once('=')?;
        match k {
            "ok" => ok = v.parse().ok(),
            "served" => served = v.parse().ok(),
            "inter_us" => inter = v.parse().ok(),
            _ => {}
        }
    }
    Some((ok?, served?, inter?))
}

fn hook(tag: &str, marks: &Arc<Mutex<StealMarks>>) -> Option<LineHook> {
    let (tag, marks) = (tag.to_string(), Arc::clone(marks));
    Some(Box::new(move |line: &str| {
        let mut m = marks.lock().expect("steal marks");
        if let Some(rest) = line.strip_prefix("ROOT_RESULT=") {
            m.root_result = rest.trim().parse().ok();
        } else if line.starts_with("ROOT_DONE") {
            m.root_done = true;
        } else if let Some((ok, served, inter)) = parse_steals(line) {
            m.summaries.push((tag.clone(), ok, served, inter));
        }
    }))
}

pub fn run(
    workers: usize,
    deadline: Duration,
    out: &str,
    bin_dir: PathBuf,
) -> Result<Checks, Failure> {
    if workers < 3 {
        return Err(Failure::Usage("need at least 3 workers".to_string()));
    }
    let wa = WorkerArgs {
        duty: 0.3,
        period_ms: 300,
        heartbeat_ms: 200,
    };
    let mut grid = LocalGrid::new(bin_dir, out, wa, Duration::from_secs(10));
    // Two clusters: CRS needs a remote tier.
    let hub = grid.spawn_hub(
        &HubGeometry {
            clusters: 2,
            nodes_per_cluster: workers + 4,
            heartbeat_timeout_ms: 1500,
            detect_interval_ms: 200,
        },
        None,
    )?;
    grid.connect_control(&hub.addr, true)?;

    let marks = Arc::new(Mutex::new(StealMarks::default()));
    let steal_args = |metrics_file: &str, more: &[&str]| -> Vec<String> {
        ["--steal", "on", "--out", metrics_file]
            .iter()
            .chain(more)
            .map(|s| s.to_string())
            .collect()
    };

    // --- Root: slow, cluster 0, owns the distributed computation ---------
    let root_metrics = format!("{out}/steal_root_metrics.jsonl");
    let root_node = grid.spawn_worker(WorkerSpec {
        cluster: 0,
        tag: "root".to_string(),
        extra: steal_args(
            &root_metrics,
            &[
                "--speed",
                "0.1",
                "--workload",
                "fib",
                "--root-arg",
                &STEAL_FIB_N.to_string(),
                "--root-depth",
                &STEAL_DEPTH.to_string(),
            ],
        ),
        hook: hook("root", &marks),
        ..WorkerSpec::default()
    })?;

    // --- Thieves: full speed, spread over both clusters -------------------
    for i in 0..workers - 1 {
        let cluster = (i % 2) as u16; // at least one same- and one cross-cluster thief
        let tag = format!("t{i}c{cluster}");
        grid.spawn_worker(WorkerSpec {
            cluster,
            extra: steal_args(&format!("{out}/steal_thief{i}_metrics.jsonl"), &[]),
            hook: hook(&tag, &marks),
            tag,
            ..WorkerSpec::default()
        })?;
    }
    println!("grid-local: root n{root_node} + {} thieves up", workers - 1);

    // --- Wait for the distributed computation, then shut down -------------
    let give_up = Instant::now() + deadline;
    while !marks.lock().expect("steal marks").root_done && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(50));
    }
    // Let final stats reports drain before tearing the grid down.
    std::thread::sleep(Duration::from_millis(500));
    let mut checks = Checks::default();
    grid.shutdown_and_reap(&mut checks);

    let m = marks.lock().expect("steal marks");
    checks.assert(
        m.root_done,
        "root finished the distributed computation before the deadline",
    );
    let expected = sagrid_apps::fib_seq(STEAL_FIB_N);
    checks.assert(
        m.root_result == Some(expected),
        &format!(
            "distributed fib({STEAL_FIB_N}) = {:?} matches sequential {expected}",
            m.root_result
        ),
    );
    let (mut root_served, mut thief_ok, mut thief_inter) = (0u64, 0u64, 0u64);
    for (tag, ok, served, inter) in &m.summaries {
        if tag == "root" {
            root_served += served;
        } else {
            thief_ok += ok;
            thief_inter += inter;
        }
    }
    checks.assert(
        root_served > 0,
        &format!("root exported jobs to thieves over the wire (served={root_served})"),
    );
    checks.assert(
        thief_ok > 0,
        &format!("thieves executed jobs stolen from the root process (remote_ok={thief_ok})"),
    );
    checks.assert(
        thief_inter > 0,
        &format!("thief inter_comm was reconstructed from measured wire time ({thief_inter}us)"),
    );
    checks.assert(
        std::fs::metadata(&root_metrics).is_ok_and(|m| m.len() > 0),
        "root dumped a non-empty metrics JSONL",
    );
    Ok(checks)
}
