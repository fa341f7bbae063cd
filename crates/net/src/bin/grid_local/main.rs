//! Local process-mode launcher: spawns a hub, a coordinator daemon and
//! worker processes on loopback and judges what they do over real sockets.
//!
//! **`--scenario-file <path>`** is how every data-expressible scenario
//! runs (`scenario_file.rs`). The file is the crates/scenario format — the
//! same file the DES twin runs: the launcher builds the grid's clusters on
//! the hub, spawns `--workers-per-cluster` real workers per layout entry,
//! compiles the timed events to primitive injections and applies each at
//! its (time-scaled) wall-clock due time — CPU loads and uplink brownouts
//! as `Perturb` messages fanned out by the hub, crashes as SIGKILL, grows
//! as capacity grants, shrinks as leave signals. Afterwards it composes its
//! own injection records with the coordinator daemon's decision stream and
//! runs the crates/scenario invariant checker over the merged JSONL, so a
//! process-mode run is certified by the *same* invariants as a DES run.
//! On top of the JSONL invariants the driver asserts four launcher-level
//! post-conditions, computed only from what the launcher did and saw:
//!
//! 1. every worker it SIGKILLed is reported `EVENT died` by the hub
//!    (heartbeat silence — a closed socket alone is not a death);
//! 2. a rejoin under a killed node id is refused (worker exit code 3);
//! 3. the final decision's blacklist covers every killed node (the node or
//!    its cluster);
//! 4. when a `cpu_load` that named a `count` is followed by a
//!    `remove-nodes` decision, the workers that printed `PERTURBED speed=`
//!    head that decision's badness ranking and are among the removed.
//!
//! `scenarios/node_crash.json` and `scenarios/slow_node.json` are the
//! paper's crashed-node and overloaded-processor cases in this form.
//!
//! **`--scenario <name>`** runs one of three scripted scenarios whose
//! disturbance the scenario format cannot express (each module's docs tell
//! the full story): `steal` — work exported by a slow root migrates to
//! thief processes over the wire-level steal plane; `hub-crash` — the
//! primary hub is SIGKILLed and a standby takes over under a bumped epoch;
//! `churn-soak` — one hub thread serves thousands of synthetic workers
//! through churn, silent crashes and a launcher-driven grow.
//!
//! All four are scripts on [`harness::LocalGrid`], the only code that
//! spawns children, reads their stdout markers, holds the launcher's
//! control connection (grow decisions relayed as `SpawnWorker` become
//! worker processes in the granted cluster) and reaps: every run asserts
//! that all children exit after `Shutdown`, and failure paths kill
//! whatever is left.
//!
//! Exit codes: 0 all checks passed, 1 an invariant or launcher check
//! failed, 2 infrastructure/usage error, 4 infrastructure *timeout* (a
//! child never reached the state the checks judge; 3 is the worker's
//! join-refused exit).

mod churn_soak;
mod harness;
mod hub_crash;
mod scenario_file;
mod steal;

use sagrid_net::Args;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: grid-local --scenario-file <path> [--workers-per-cluster N] \
    [--time-scale F] [--join-timeout-ms MS] [--min-decisions N] [--out DIR]\n       \
    grid-local --scenario <steal|hub-crash|churn-soak> [--workers N] [--duration-ms MS] \
    [--out DIR]";

/// Why a run could not even produce a verdict. `Usage` and `Infra` are
/// broken preconditions (bad flags; spawn failure, I/O) and share exit
/// code 2; `Timeout` means a child never reached the state the checks
/// judge (hub port, worker join, coordinator up) — CI treats that
/// differently, so it exits 4.
pub enum Failure {
    Usage(String),
    Infra(String),
    Timeout(String),
}

impl Failure {
    pub fn message(&self) -> &str {
        match self {
            Failure::Usage(m) | Failure::Infra(m) | Failure::Timeout(m) => m,
        }
    }
}

/// A bare string error is infrastructure trouble unless said otherwise.
impl From<String> for Failure {
    fn from(s: String) -> Self {
        Failure::Infra(s)
    }
}

/// The launcher's verdict sheet: every assertion prints one `CHECK` line.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn assert(&mut self, ok: bool, what: &str) {
        if ok {
            println!("CHECK ok: {what}");
        } else {
            println!("CHECK FAILED: {what}");
            self.failures.push(what.to_string());
        }
    }
}

fn run() -> Result<Checks, Failure> {
    let args = Args::parse(
        std::env::args().skip(1),
        &[
            "workers",
            "scenario",
            "scenario-file",
            "workers-per-cluster",
            "time-scale",
            "join-timeout-ms",
            "min-decisions",
            "duration-ms",
            "out",
        ],
    )
    .map_err(Failure::Usage)?;
    let out: String = args.get_or("out", "target/grid_local_out".to_string())?;
    std::fs::create_dir_all(&out).map_err(|e| format!("create {out}: {e}"))?;
    let bin_dir: PathBuf = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .parent()
        .ok_or_else(|| "current_exe has no parent".to_string())?
        .to_path_buf();
    let duration = |default_ms: u64| -> Result<Duration, Failure> {
        Ok(Duration::from_millis(
            args.get_or("duration-ms", default_ms)?,
        ))
    };

    if let Some(path) = args.get("scenario-file") {
        return scenario_file::run(scenario_file::ScenarioArgs {
            path: path.to_string(),
            wpc: args.get_or("workers-per-cluster", 3)?,
            time_scale: args.get_or("time-scale", 0.01)?,
            join_timeout: Duration::from_millis(args.get_or("join-timeout-ms", 10_000u64)?),
            min_decisions: args.get_or("min-decisions", 1)?,
            out,
            bin_dir,
        });
    }
    // `--duration-ms` is a deadline for steal and churn-soak (they finish
    // as fast as they can) and the run length for hub-crash.
    match args.get("scenario") {
        Some("steal") => steal::run(args.get_or("workers", 4)?, duration(30_000)?, &out, bin_dir),
        Some("hub-crash") => {
            hub_crash::run(args.get_or("workers", 4)?, duration(15_000)?, &out, bin_dir)
        }
        Some("churn-soak") => churn_soak::run(
            args.get_or("workers", 5000)?,
            duration(180_000)?,
            &out,
            bin_dir,
        ),
        Some(other) => Err(Failure::Usage(format!("unknown scenario {other:?}"))),
        None => Err(Failure::Usage(
            "one of --scenario-file or --scenario is required".to_string(),
        )),
    }
}

fn main() {
    // `run` drops its grid — and with it every child still alive — before
    // returning, so no exit path below leaks a process.
    match run() {
        Ok(checks) if checks.failures.is_empty() => println!("grid-local: PASS"),
        Ok(checks) => {
            println!("grid-local: FAIL ({} checks)", checks.failures.len());
            std::process::exit(1);
        }
        Err(Failure::Usage(e)) => {
            eprintln!("grid-local: {e}\n{USAGE}");
            std::process::exit(2);
        }
        Err(Failure::Infra(e)) => {
            eprintln!("grid-local: {e}");
            std::process::exit(2);
        }
        Err(Failure::Timeout(e)) => {
            eprintln!("grid-local: timeout: {e}");
            std::process::exit(4);
        }
    }
}
