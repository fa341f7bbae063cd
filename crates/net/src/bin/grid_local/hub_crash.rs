//! The `hub-crash` scenario: the control plane itself fails. A standby hub
//! tails the primary's replication log from the start of the run; once the
//! grid is busy (and one worker has already crashed and been blacklisted
//! on the primary's watch) the launcher SIGKILLs the *primary*. The
//! standby must win the deterministic election, promote in place on its
//! pre-advertised port under a bumped epoch, and serve the replicated
//! state: surviving workers fail over through their `--hub` lists, the
//! blacklisted victim's rejoin is still refused (permanence across the
//! epoch boundary), the peer directory and learned bandwidth arrive
//! without re-measurement, and the coordinator redials and stamps
//! post-failover decisions with the new epoch. The composed stream
//! (launcher injections + the standby's JSONL + the coordinator's) is then
//! certified by the crates/scenario checker, `hub-failover` invariant
//! included: exactly one takeover per injected hub crash. Scripted because
//! the scenario format has no control-plane-fault primitive either twin
//! executes.

use crate::harness::{injection_record, HubGeometry, LocalGrid, WorkerArgs, WorkerSpec};
use crate::{Checks, Failure};
use sagrid_core::ids::ClusterId;
use sagrid_core::json::parse_json;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The worker that crashes on the primary's watch.
const VICTIM: u32 = 1;

pub fn run(
    workers: usize,
    duration: Duration,
    out: &str,
    bin_dir: PathBuf,
) -> Result<Checks, Failure> {
    if workers < 3 {
        return Err(Failure::Usage("need at least 3 workers".to_string()));
    }
    let wa = WorkerArgs {
        duty: 0.4,
        period_ms: 300,
        heartbeat_ms: 100,
    };
    let mut grid = LocalGrid::new(bin_dir, out, wa, Duration::from_secs(10));
    let geometry = HubGeometry {
        clusters: 1,
        nodes_per_cluster: workers * 2 + 4,
        heartbeat_timeout_ms: 700,
        detect_interval_ms: 100,
    };
    let primary = grid.spawn_hub(&geometry, None)?;
    let standby = grid.spawn_hub(&geometry, Some(&primary.addr))?;
    // The warmup outlasts the whole disruption window (worker crash ~3.5s,
    // hub crash ~5s, takeover ~6s): the adaptation loop judges only the
    // NEW primary's steady state, so a transient efficiency dip during the
    // failover cannot shrink a surviving worker out from under the
    // "all survivors failed over" check.
    grid.spawn_coordinator(8000)?;

    // --- Workers: failover lists, steal plane on ---------------------------
    let mut nodes = BTreeSet::new();
    for i in 0..workers {
        nodes.insert(grid.spawn_worker(WorkerSpec {
            tag: format!("w{i}"),
            extra: vec!["--steal".to_string(), "on".to_string()],
            ..WorkerSpec::default()
        })?);
    }
    let start = Instant::now();
    println!("grid-local: {workers} workers up on the primary");
    // Let stats reports flow: the first benchmarks replicate as Bandwidth
    // deltas and the steal announcements fill the peer directory, so the
    // standby has real learned state to inherit.
    std::thread::sleep(Duration::from_millis(2000));

    let mut checks = Checks::default();
    let mut records: Vec<String> = Vec::new();

    // --- Phase 1: a worker crashes on the primary's watch ------------------
    grid.kill(VICTIM)?;
    records.push(injection_record(
        grid.now_us(),
        "crash_nodes",
        Some(ClusterId(0)),
    ));
    checks.assert(
        grid.wait_died(VICTIM, Duration::from_secs(6)),
        "primary detected the SIGKILLed worker via heartbeat timeout",
    );
    // Let the blacklist delta reach the standby's log before the primary
    // is allowed to die.
    std::thread::sleep(Duration::from_millis(500));

    // --- Phase 2: the primary itself dies ----------------------------------
    grid.kill_hub(&primary)?;
    records.push(injection_record(grid.now_us(), "crash_hub", None));
    let epoch_won = grid.wait_for(Duration::from_secs(10), |m| m.takeover_epoch);
    checks.assert(
        epoch_won == Some(2),
        &format!("standby won the election and promoted under epoch 2 (got {epoch_won:?})"),
    );

    // --- Phase 3: survivors fail over, the blacklist holds -----------------
    nodes.remove(&VICTIM);
    if epoch_won.is_some() {
        let rejoined = grid.wait_for(Duration::from_secs(10), |m| {
            nodes
                .iter()
                .all(|n| m.joined.contains(&(standby.index, *n)))
                .then_some(())
        });
        checks.assert(
            rejoined.is_some(),
            &format!(
                "all {} surviving workers failed over to the standby",
                nodes.len()
            ),
        );
        // The victim's id must stay refused under the NEW epoch: blacklist
        // permanence is exactly what replication exists to guarantee.
        checks.assert(
            grid.expect_rejoin_refused(VICTIM, &standby.addr)?,
            "blacklisted victim's rejoin was refused by the NEW primary (epoch 2)",
        );
    }

    // --- Let the adaptation loop settle under the new primary, shut down ---
    std::thread::sleep(duration.saturating_sub(start.elapsed()));
    // The launcher's shutdown goes to the new primary; the old one is gone.
    // Grants are not spawned: the grid is about to be torn down.
    if let Err(e) = grid.connect_control(&standby.addr, false) {
        let why = e.message();
        checks.assert(
            false,
            &format!("could dial the new primary for shutdown: {why}"),
        );
    }
    grid.shutdown_and_reap(&mut checks);
    checks.assert(
        grid.marks(|m| m.coord_hub_epoch) >= 2,
        "coordinator observed the bumped hub epoch after failover",
    );

    // --- Judge the takeover from JSONL alone --------------------------------
    // The standby's stream holds the hub_failover event and replica
    // counters; the launcher knows nothing the files don't say.
    let standby_out = format!("{out}/run_hub_standby{}.jsonl", standby.index);
    let standby_text =
        std::fs::read_to_string(&standby_out).map_err(|e| format!("read {standby_out}: {e}"))?;
    let mut takeovers_counter = 0u64;
    let mut failover_event = None;
    for (i, line) in standby_text.lines().enumerate() {
        let value =
            parse_json(line).map_err(|e| format!("{standby_out}:{}: bad JSON: {e}", i + 1))?;
        match value.get("type").and_then(|t| t.as_str()) {
            Some("counter")
                if value.get("name").and_then(|n| n.as_str()) == Some("net.replica.takeovers") =>
            {
                takeovers_counter = value.get("value").and_then(|v| v.as_u64()).unwrap_or(0);
            }
            Some("event") if value.get("kind").and_then(|k| k.as_str()) == Some("hub_failover") => {
                failover_event = Some(value);
            }
            _ => {}
        }
    }
    checks.assert(
        takeovers_counter == 1,
        &format!(
            "standby counted exactly one takeover (net.replica.takeovers={takeovers_counter})"
        ),
    );
    let field = |key: &str| {
        failover_event
            .as_ref()
            .and_then(|v| v.get(key))
            .and_then(|v| v.as_u64())
    };
    checks.assert(
        field("epoch") == Some(2),
        "hub_failover event records the bumped epoch",
    );
    checks.assert(
        field("bandwidth_nodes").is_some_and(|n| n >= 1),
        "learned bandwidth survived the failover without re-measurement",
    );
    checks.assert(
        field("peers").is_some_and(|n| n >= 1),
        "the steal-plane peer directory survived the failover",
    );
    checks.assert(
        failover_event
            .as_ref()
            .and_then(|v| v.get("blacklisted_nodes"))
            .and_then(|v| v.as_arr())
            .is_some_and(|ids| ids.iter().any(|id| id.as_u64() == Some(u64::from(VICTIM)))),
        "the victim's blacklist entry crossed the epoch boundary",
    );
    grid.judge(
        &records,
        &[&standby_text],
        "hubcrash_stream.jsonl",
        "adaptation + hub-failover invariants hold on the composed stream",
        &mut checks,
    )?;
    Ok(checks)
}
