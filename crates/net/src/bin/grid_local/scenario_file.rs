//! The `--scenario-file` driver: one declarative scenario file, the same
//! one the DES twin runs, applied to real processes (see the crate docs).

use crate::harness::{injection_record, HubGeometry, LocalGrid, WorkerArgs, WorkerSpec};
use crate::{Checks, Failure};
use sagrid_adapt::Decision;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_net::wire::Message;
use sagrid_scenario::ScenarioSpec;
use sagrid_simnet::Injection;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Inputs of a `--scenario-file` run.
pub struct ScenarioArgs {
    pub path: String,
    /// Real worker processes per layout cluster (the DES node counts
    /// scale down onto this).
    pub wpc: usize,
    /// Virtual seconds → wall seconds factor (0.01 ⇒ a scenario minute
    /// takes 600 ms of wall time).
    pub time_scale: f64,
    pub join_timeout: Duration,
    /// Minimum coordinator decision events the run must emit.
    pub min_decisions: usize,
    pub out: String,
    pub bin_dir: PathBuf,
}

/// One spawned scenario worker and whether it is still a valid
/// perturbation/crash/shrink target.
struct LiveWorker {
    cluster: u16,
    node: u32,
    /// Crashed or asked to leave — no longer targetable.
    gone: bool,
    /// SIGKILLed by this launcher (the post-conditions audit these).
    killed: bool,
}

/// Wall-clock tail after the last injection, sized so the coordinator
/// (600 ms period) demonstrably recovers inside the invariant checker's
/// 2 s settle window with room to spare.
const SCENARIO_SETTLE: Duration = Duration::from_millis(6000);

/// SIGKILLs the first `n` live workers of `cluster`.
fn crash(
    grid: &mut LocalGrid,
    live: &mut [LiveWorker],
    cluster: u16,
    n: usize,
) -> Result<(), Failure> {
    for w in live
        .iter_mut()
        .filter(|w| !w.gone && w.cluster == cluster)
        .take(n)
    {
        grid.kill(w.node)?;
        w.gone = true;
        w.killed = true;
    }
    Ok(())
}

/// Drives a declarative scenario file against real processes: the same
/// events the DES executes are mapped onto `Perturb` fan-outs, SIGKILLs,
/// capacity grants and leave signals, and the run is judged by the same
/// crates/scenario adaptation invariants, from JSONL alone.
pub fn run(sa: ScenarioArgs) -> Result<Checks, Failure> {
    let text = std::fs::read_to_string(&sa.path).map_err(|e| format!("read {}: {e}", sa.path))?;
    let spec = ScenarioSpec::parse(&text)?;
    let grid_cfg = spec.grid.build();
    let mut injections = spec.compile(&grid_cfg)?;
    // Stable sort: same-time primitives keep file order (the property
    // scenario 5 — link first, CPUs second — depends on).
    injections.sort_by_key(|s| s.at.0);
    println!(
        "grid-local: scenario \"{}\" — {} events -> {} primitive injections, \
         time scale {}",
        spec.name,
        spec.events.len(),
        injections.len(),
        sa.time_scale,
    );

    // DES node counts scale down to `wpc` processes per cluster: an event
    // hitting n of a cluster's N simulated nodes hits ceil(n·wpc/N) of its
    // wpc real workers.
    let layout_nodes = |cluster: u16| -> usize {
        spec.layout
            .iter()
            .find(|&&(c, _)| c == cluster)
            .map_or(sa.wpc.max(1), |&(_, n)| n.max(1))
    };
    let scale_count = |cluster: u16, n: usize| -> usize {
        (n * sa.wpc)
            .div_ceil(layout_nodes(cluster))
            .clamp(1, sa.wpc)
    };

    let wa = WorkerArgs {
        duty: 0.4,
        period_ms: 500,
        heartbeat_ms: 100,
    };
    let mut grid = LocalGrid::new(sa.bin_dir, &sa.out, wa, sa.join_timeout);
    let hub = grid.spawn_hub(
        &HubGeometry {
            clusters: grid_cfg.clusters.len(),
            nodes_per_cluster: sa.wpc * 2 + 4,
            heartbeat_timeout_ms: 700,
            detect_interval_ms: 100,
        },
        None,
    )?;
    grid.spawn_coordinator(2500)?;
    grid.connect_control(&hub.addr, true)?;

    // --- Workers: wpc per layout cluster ---------------------------------
    let mut live: Vec<LiveWorker> = Vec::new();
    for &(cluster, _) in &spec.layout {
        for i in 0..sa.wpc {
            let node = grid.spawn_worker(WorkerSpec {
                cluster,
                tag: format!("c{cluster}w{i}"),
                ..WorkerSpec::default()
            })?;
            live.push(LiveWorker {
                cluster,
                node,
                gone: false,
                killed: false,
            });
        }
    }
    println!(
        "grid-local: {} workers up across {} clusters",
        live.len(),
        spec.layout.len()
    );

    // --- Timed injection loop --------------------------------------------
    // Each primitive fires at its virtual time scaled to wall clock; the
    // record written for the invariant checker carries the *actual* apply
    // time on the coordinator's axis.
    let t0 = Instant::now();
    let mut records: Vec<String> = Vec::new();
    // When the first slowing `cpu_load` that named a `count` was applied.
    let mut counted_load_at: Option<u64> = None;
    for s in &injections {
        let due = t0 + Duration::from_micros((s.at.0 as f64 * sa.time_scale) as u64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let at_us = grid.now_us();
        let (kind, cluster) = match s.injection {
            Injection::CpuLoad {
                cluster,
                count,
                factor,
            } => {
                if count.is_some() && factor > 1.0 {
                    counted_load_at.get_or_insert(at_us);
                }
                grid.send(Message::Perturb {
                    cluster,
                    count: count.map_or(0, |n| scale_count(cluster.0, n) as u32),
                    speed: Some((1.0 / factor).clamp(0.05, 1.0)),
                    inter_frac: None,
                });
                ("cpu_load", Some(cluster))
            }
            Injection::UplinkBandwidth {
                cluster,
                bandwidth_bps,
            } => {
                // Map the shaped uplink onto a synthetic inter-cluster wait
                // fraction: full bandwidth ⇒ 0, a starved link ⇒ capped at
                // 0.45 of the period — far beyond the coordinator's 0.08
                // exceptional-overhead threshold.
                let base = grid_cfg.clusters[cluster.index()].uplink.bandwidth_bps;
                grid.send(Message::Perturb {
                    cluster,
                    count: 0,
                    speed: None,
                    inter_frac: Some((1.0 - bandwidth_bps / base).clamp(0.0, 0.45)),
                });
                ("uplink_bandwidth", Some(cluster))
            }
            Injection::CrashCluster { cluster } => {
                crash(&mut grid, &mut live, cluster.0, usize::MAX)?;
                ("crash_cluster", Some(cluster))
            }
            Injection::CrashNodes { cluster, count } => {
                crash(
                    &mut grid,
                    &mut live,
                    cluster.0,
                    scale_count(cluster.0, count),
                )?;
                ("crash_nodes", Some(cluster))
            }
            Injection::Grow { count, prefer } => {
                // An external capacity grant (not a coordinator decision):
                // the hub allocates from the pool and replies SpawnWorker,
                // which the harness turns into real processes. The grant
                // is sized against the first layout entry (the preferred
                // cluster may be an empty spare site).
                let base = spec
                    .layout
                    .first()
                    .map_or(sa.wpc.max(1), |&(_, n)| n.max(1));
                grid.send(Message::Grow {
                    count: ((count * sa.wpc).div_ceil(base)).max(1) as u32,
                    prefer: prefer.into_iter().collect(),
                    min_uplink_bps: None,
                    min_speed: None,
                });
                ("grow", None)
            }
            Injection::Shrink { cluster, count } => {
                for w in live
                    .iter_mut()
                    .filter(|w| !w.gone && w.cluster == cluster.0)
                    .take(scale_count(cluster.0, count))
                {
                    w.gone = true;
                    grid.send(Message::SignalLeave {
                        node: NodeId(w.node),
                    });
                }
                ("shrink", Some(cluster))
            }
        };
        records.push(injection_record(at_us, kind, cluster));
        println!(
            "grid-local: injected {kind} at +{:.2}s (virtual {:.1}s)",
            t0.elapsed().as_secs_f64(),
            s.at.0 as f64 / 1e6,
        );
    }
    std::thread::sleep(SCENARIO_SETTLE);

    // --- Post-conditions 1 and 2: crashes, as the hub saw them ------------
    let mut checks = Checks::default();
    let killed: Vec<(u32, u16)> = live
        .iter()
        .filter(|w| w.killed)
        .map(|w| (w.node, w.cluster))
        .collect();
    for &(n, _) in &killed {
        let died = grid.wait_died(n, Duration::from_secs(6));
        let what = format!("hub detected the SIGKILLed worker via heartbeat timeout (n{n})");
        checks.assert(died, &what);
    }
    if let Some(&(n, _)) = killed.first() {
        let refused = grid.expect_rejoin_refused(n, &hub.addr)?;
        let what = format!("rejoin attempt under the blacklisted node id was refused (n{n})");
        checks.assert(refused, &what);
    }

    // --- Shut down, reap, judge the composed stream ------------------------
    grid.shutdown_and_reap(&mut checks);
    grid.judge(
        &records,
        &[],
        "scenario_stream.jsonl",
        "adaptation invariants hold on the composed process-mode stream",
        &mut checks,
    )?;
    let decisions = grid.decisions()?;
    checks.assert(
        decisions.len() >= sa.min_decisions,
        &format!(
            "coordinator emitted reconstructible decision events (got {}, need at least {})",
            decisions.len(),
            sa.min_decisions
        ),
    );

    // --- Post-conditions 3 and 4: crashes and slowdowns, as the coordinator
    // saw them ---------------------------------------------------------------
    for &(n, cluster) in &killed {
        let covered = decisions.last().is_some_and(|d| {
            d.blacklisted_nodes.contains(&NodeId(n))
                || d.blacklisted_clusters.contains(&ClusterId(cluster))
        });
        let what = format!("crashed node is blacklisted in the final decision entry (n{n})");
        checks.assert(covered, &what);
    }
    let removal = counted_load_at.and_then(|at| {
        decisions.iter().find_map(|d| match &d.decision {
            Decision::RemoveNodes { nodes } if d.at.0 >= at => Some((d, nodes)),
            _ => None,
        })
    });
    if let Some((d, removed)) = removal {
        let slowed = grid.marks(|m| m.slowed.clone());
        checks.assert(
            slowed.iter().all(|n| removed.contains(&NodeId(*n))),
            &format!(
                "badness ranking removed the slow worker (remove-nodes decision) ({slowed:?})"
            ),
        );
        let worst: BTreeSet<u32> = d
            .badness
            .iter()
            .take(slowed.len())
            .map(|b| b.node.0)
            .collect();
        checks.assert(
            !slowed.is_empty() && worst == slowed,
            "slow worker ranked worst in the removal's badness provenance",
        );
    }

    Ok(checks)
}
