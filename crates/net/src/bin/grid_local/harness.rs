//! The launcher harness: the one place that spawns `sagrid-hub`,
//! `sagrid-coordinatord` and `sagrid-worker`, reads their stdout markers,
//! talks to the hub as the launcher, reaps the children and judges the
//! composed JSONL. Every scenario — the `--scenario-file` driver and the
//! three scripted ones — is a script on top of [`LocalGrid`].

use crate::{Checks, Failure};
use sagrid_adapt::DecisionLogEntry;
use sagrid_core::ids::ClusterId;
use sagrid_core::json::parse_json;
use sagrid_core::metrics::{MetricEvent, Value};
use sagrid_net::conn::{Connection, NetEvent};
use sagrid_net::wire::Message;
use sagrid_scenario::{check_jsonl, InvariantConfig};
use sagrid_simgrid::provenance::reconstruct_decision;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pacing shared by every worker of a grid.
#[derive(Clone, Copy, Default)]
pub struct WorkerArgs {
    pub duty: f64,
    pub period_ms: u64,
    pub heartbeat_ms: u64,
}

/// A hub's pool geometry and failure-detector timing.
pub struct HubGeometry {
    pub clusters: usize,
    pub nodes_per_cluster: usize,
    pub heartbeat_timeout_ms: u64,
    pub detect_interval_ms: u64,
}

/// A spawned hub: `index` 0 is the primary, `k > 0` standby replica `k`.
pub struct HubRef {
    pub index: usize,
    pub addr: String,
    pub pid: u32,
}

/// What varies between worker processes.
#[derive(Default)]
pub struct WorkerSpec {
    pub cluster: u16,
    /// Stdout tag; also the child's name in orphan reports.
    pub tag: String,
    /// Claim this node id instead of asking for a fresh one.
    pub claim: Option<u32>,
    pub extra: Vec<String>,
    /// Sees every stdout line, for markers only one scenario cares about.
    pub hook: Option<LineHook>,
}

pub type LineHook = Box<dyn FnMut(&str) + Send>;

/// Which child printed a line (the same marker means different things
/// from different binaries: both workers and the coordinator print
/// `HUB_EPOCH epoch=`).
enum Source {
    Hub(usize),
    Coordinator,
    Worker(String),
}

/// Everything the launcher learned from its children's stdout (and from
/// the hub's `SpawnWorker` grants) — one state for all scenarios.
#[derive(Default)]
pub struct Marks {
    hub_port: BTreeMap<usize, u16>,
    /// Nodes some hub declared dead (`EVENT died n…`: heartbeat silence —
    /// the hub prints it from the detector sweep only, never on EOF).
    pub died: BTreeSet<u32>,
    /// `(hub index, node)` per `EVENT joined n…`.
    pub joined: BTreeSet<(usize, u32)>,
    pub takeover_epoch: Option<u64>,
    standby_attached: bool,
    coord_up: bool,
    provenance_ok: bool,
    /// Highest hub epoch the coordinator daemon reported.
    pub coord_hub_epoch: u64,
    worker_node: BTreeMap<String, u32>,
    /// Nodes whose latest `PERTURBED speed=` line left them below full
    /// speed.
    pub slowed: BTreeSet<u32>,
    /// `(node, cluster)` per `SpawnWorker` grant, in arrival order.
    pub grants: Vec<(u32, u16)>,
}

/// One launcher-written `injection` record for the composed stream.
pub fn injection_record(at_us: u64, kind: &str, cluster: Option<ClusterId>) -> String {
    let mut ev =
        MetricEvent::new(at_us, "injection").with("injection", Value::Str(kind.to_string()));
    if let Some(c) = cluster {
        ev = ev.with("cluster", Value::U64(u64::from(c.0)));
    }
    ev.to_json()
}

/// The unsigned number right after `prefix`, if `line` starts with it.
fn num_after(line: &str, prefix: &str) -> Option<u64> {
    let rest = line.strip_prefix(prefix)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl Marks {
    fn absorb(&mut self, from: &Source, line: &str) {
        match from {
            Source::Hub(i) => {
                if let Some(p) = num_after(line, "HUB_PORT=") {
                    self.hub_port.insert(*i, p as u16);
                } else if let Some(n) = num_after(line, "EVENT died n") {
                    self.died.insert(n as u32);
                } else if let Some(n) = num_after(line, "EVENT joined n") {
                    self.joined.insert((*i, n as u32));
                } else if let Some(e) = num_after(line, "EVENT takeover epoch=") {
                    self.takeover_epoch = Some(e);
                } else if line.starts_with("EVENT standby attached") {
                    self.standby_attached = true;
                }
            }
            Source::Coordinator => {
                if line.starts_with("COORDINATOR_UP") {
                    self.coord_up = true;
                } else if line.starts_with("PROVENANCE_OK") {
                    self.provenance_ok = true;
                } else if let Some(e) = num_after(line, "HUB_EPOCH epoch=") {
                    self.coord_hub_epoch = self.coord_hub_epoch.max(e);
                }
            }
            Source::Worker(tag) => {
                if let Some(n) = num_after(line, "JOINED node=") {
                    self.worker_node.insert(tag.clone(), n as u32);
                } else if let Some(rest) = line.strip_prefix("PERTURBED speed=") {
                    // `speed=-` is an uplink perturbation: no CPU change.
                    let speed = rest.split_whitespace().next();
                    let speed = speed.and_then(|v| v.parse::<f64>().ok());
                    if let (Some(s), Some(&n)) = (speed, self.worker_node.get(tag)) {
                        if s < 1.0 {
                            self.slowed.insert(n);
                        } else {
                            self.slowed.remove(&n);
                        }
                    }
                }
            }
        }
    }
}

struct Tracked {
    name: String,
    /// The node id of a worker `spawn_worker` saw join (`kill` targets it).
    node: Option<u32>,
    child: Child,
    /// The thread tailing the child's stdout; joined by the reaper so the
    /// marker state is complete (exit summaries, `PROVENANCE_OK`) once a
    /// child is reaped.
    pump: JoinHandle<()>,
}

/// The children still to be reaped. `closed` stops the grow handler from
/// spawning behind a finished reap.
#[derive(Default)]
struct Roster {
    closed: bool,
    children: Vec<Tracked>,
}

/// The part of the grid the grow-handler thread shares with the script.
struct Inner {
    bin_dir: PathBuf,
    out: String,
    wa: WorkerArgs,
    marks: Mutex<Marks>,
    changed: Condvar,
    roster: Mutex<Roster>,
}

impl Inner {
    fn update(&self, f: impl FnOnce(&mut Marks)) {
        f(&mut self.marks.lock().expect("a stdout pump panicked"));
        self.changed.notify_all();
    }

    /// Spawns `cmd`, tracks the child for the reaper and pumps its stdout
    /// (tagged) into the marker state. Returns the pid.
    fn launch(
        self: &Arc<Self>,
        name: &str,
        from: Source,
        mut cmd: Command,
        mut hook: Option<LineHook>,
    ) -> Result<u32, Failure> {
        let mut roster = self.roster.lock().expect("roster");
        if roster.closed {
            return Err(Failure::Infra(format!("{name}: grid already torn down")));
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| Failure::Infra(format!("spawn {name}: {e}")))?;
        let pid = child.id();
        // Tests read these lines to verify post-exit that every pid is gone.
        println!("grid-local: spawned {name} pid={pid}");
        let stdout = child.stdout.take().expect("piped stdout");
        let inner = Arc::clone(self);
        let tag = name.to_string();
        let pump = std::thread::Builder::new()
            .name(format!("pump-{tag}"))
            .spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    println!("[{tag}] {line}");
                    inner.update(|m| m.absorb(&from, &line));
                    if let Some(h) = hook.as_mut() {
                        h(&line);
                    }
                }
            })
            .expect("spawn pump thread");
        roster.children.push(Tracked {
            name: name.to_string(),
            node: None,
            child,
            pump,
        });
        Ok(pid)
    }

    /// Starts a worker dialing `hubs`, without waiting for it to join.
    fn launch_worker(self: &Arc<Self>, hubs: &str, spec: WorkerSpec) -> Result<u32, Failure> {
        let mut cmd = Command::new(self.bin_dir.join("sagrid-worker"));
        cmd.args(["--hub", hubs, "--cluster", &spec.cluster.to_string()])
            .args(["--duty", &self.wa.duty.to_string()])
            .args(["--period-ms", &self.wa.period_ms.to_string()])
            .args(["--heartbeat-ms", &self.wa.heartbeat_ms.to_string()]);
        if let Some(n) = spec.claim {
            cmd.args(["--claim-node", &n.to_string()]);
        }
        cmd.args(&spec.extra);
        let from = Source::Worker(spec.tag.clone());
        self.launch(&spec.tag, from, cmd, spec.hook)
    }

    /// Waits for every tracked child to exit; past `deadline` the
    /// stragglers are SIGKILLed and named in the second return value.
    fn reap(&self, deadline: Instant) -> (BTreeMap<String, ExitStatus>, Vec<String>) {
        let mut roster = self.roster.lock().expect("roster");
        roster.closed = true;
        let mut exited = BTreeMap::new();
        let mut orphans = Vec::new();
        for mut t in roster.children.drain(..) {
            loop {
                match t.child.try_wait() {
                    Ok(Some(status)) => {
                        exited.insert(t.name, status);
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    // Overdue, or unwaitable: make sure it is gone.
                    Ok(None) | Err(_) => {
                        let _ = t.child.kill();
                        let _ = t.child.wait();
                        orphans.push(format!("{} pid={}", t.name, t.child.id()));
                        break;
                    }
                }
            }
            // The child is gone, so its stdout hits EOF and the pump ends.
            let _ = t.pump.join();
        }
        (exited, orphans)
    }
}

/// A grid of real processes on loopback, owned by one launcher script.
pub struct LocalGrid {
    inner: Arc<Inner>,
    /// How long any child may take to reach a state the script waits for.
    patience: Duration,
    hubs: usize,
    /// Comma-separated hub list workers and the coordinator dial: every
    /// hub in spawn order, so the primary is first and all traffic lands
    /// there until it dies.
    dial: String,
    control: Option<Connection>,
    /// Set once the coordinator daemon is up: its decision events count
    /// from its own dial instant, moments before `COORDINATOR_UP` — the
    /// skew is far below the invariant checker's settle window, so
    /// launcher-written injection records rebase onto this.
    coord_epoch: Option<Instant>,
}

impl LocalGrid {
    pub fn new(bin_dir: PathBuf, out: &str, wa: WorkerArgs, patience: Duration) -> Self {
        Self {
            inner: Arc::new(Inner {
                bin_dir,
                out: out.to_string(),
                wa,
                marks: Mutex::new(Marks::default()),
                changed: Condvar::new(),
                roster: Mutex::new(Roster::default()),
            }),
            patience,
            hubs: 0,
            dial: String::new(),
            control: None,
            coord_epoch: None,
        }
    }

    /// A look at the marker state without waiting.
    pub fn marks<T>(&self, read: impl FnOnce(&Marks) -> T) -> T {
        read(&self.inner.marks.lock().expect("a stdout pump panicked"))
    }

    /// Blocks until `probe` yields a value, or `timeout` passes (`None`).
    pub fn wait_for<T>(&self, timeout: Duration, probe: impl Fn(&Marks) -> Option<T>) -> Option<T> {
        let guard = self.inner.marks.lock().expect("a stdout pump panicked");
        let (guard, _) = self
            .inner
            .changed
            .wait_timeout_while(guard, timeout, |m| probe(m).is_none())
            .expect("a stdout pump panicked");
        probe(&guard)
    }

    /// Waits for a child to come up. One that never reaches the awaited
    /// state within the grid's patience is an infrastructure timeout
    /// (exit 4): the grid never got to the state the checks judge.
    fn await_up<T>(&self, what: &str, probe: impl Fn(&Marks) -> Option<T>) -> Result<T, Failure> {
        self.wait_for(self.patience, probe)
            .ok_or_else(|| Failure::Timeout(what.to_string()))
    }

    /// Spawns a hub — the primary, or with `replicate_from` a standby
    /// tailing that primary — and waits for its port (and, for a standby,
    /// for the snapshot to be aboard before the grid starts filling the
    /// log).
    pub fn spawn_hub(
        &mut self,
        g: &HubGeometry,
        replicate_from: Option<&str>,
    ) -> Result<HubRef, Failure> {
        let index = self.hubs;
        self.hubs += 1;
        let name = match index {
            0 => "hub".to_string(),
            k => format!("hub{k}"),
        };
        let mut cmd = Command::new(self.inner.bin_dir.join("sagrid-hub"));
        cmd.args(["--port", "0", "--clusters", &g.clusters.to_string()])
            .args(["--nodes-per-cluster", &g.nodes_per_cluster.to_string()])
            .args([
                "--heartbeat-timeout-ms",
                &g.heartbeat_timeout_ms.to_string(),
            ])
            .args(["--detect-interval-ms", &g.detect_interval_ms.to_string()])
            .args(["--out", &self.inner.out]);
        if let Some(primary) = replicate_from {
            cmd.args(["--standby", &index.to_string()])
                .args(["--replicate-from", primary]);
        }
        let pid = self.inner.launch(&name, Source::Hub(index), cmd, None)?;
        let port = self.await_up(&format!("{name} never printed HUB_PORT="), |m| {
            m.hub_port.get(&index).copied()
        })?;
        if replicate_from.is_some() {
            self.await_up("standby never attached to the primary", |m| {
                m.standby_attached.then_some(())
            })?;
        }
        let addr = format!("127.0.0.1:{port}");
        if !self.dial.is_empty() {
            self.dial.push(',');
        }
        self.dial.push_str(&addr);
        println!("grid-local: {name} on {addr} ({} clusters)", g.clusters);
        Ok(HubRef { index, addr, pid })
    }

    /// Spawns the coordinator daemon (600 ms period) against the dial list
    /// and waits for `COORDINATOR_UP`. Its decisions land in
    /// `run_coordinatord.jsonl`.
    pub fn spawn_coordinator(&mut self, warmup_ms: u64) -> Result<(), Failure> {
        let mut cmd = Command::new(self.inner.bin_dir.join("sagrid-coordinatord"));
        cmd.args(["--hub", &self.dial, "--period-ms", "600"])
            .args(["--warmup-ms", &warmup_ms.to_string()])
            .args(["--out", &self.coordinator_out()]);
        self.inner.launch("coord", Source::Coordinator, cmd, None)?;
        self.await_up("coordinator daemon never came up", |m| {
            m.coord_up.then_some(())
        })?;
        self.coord_epoch = Some(Instant::now());
        Ok(())
    }

    fn coordinator_out(&self) -> String {
        format!("{}/run_coordinatord.jsonl", self.inner.out)
    }

    fn coordinator_stream(&self) -> Result<(String, String), Failure> {
        let path = self.coordinator_out();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        Ok((path, text))
    }

    /// Connects to `hub` as the launcher. Every `SpawnWorker` grant the
    /// hub relays (a coordinator grow decision, or the answer to a `Grow`
    /// this launcher sent) is recorded in [`Marks::grants`]; with
    /// `spawn_granted` it also becomes a worker process claiming the
    /// granted node id in the granted cluster.
    pub fn connect_control(&mut self, hub: &str, spawn_granted: bool) -> Result<(), Failure> {
        let (events_tx, events_rx) = channel::<NetEvent>();
        let stream = TcpStream::connect(hub)
            .map_err(|e| Failure::Infra(format!("connect to hub {hub}: {e}")))?;
        let control = Connection::spawn(1, stream, events_tx)
            .map_err(|e| Failure::Infra(format!("control conn: {e}")))?;
        control.send(Message::LauncherHello);
        let (inner, hubs) = (Arc::clone(&self.inner), self.dial.clone());
        std::thread::Builder::new()
            .name("grow-handler".to_string())
            .spawn(move || {
                while let Ok(evt) = events_rx.recv() {
                    let NetEvent::Message(_, Message::SpawnWorker { node, cluster }) = evt else {
                        continue;
                    };
                    inner.update(|m| m.grants.push((node.0, cluster.0)));
                    if !spawn_granted {
                        continue;
                    }
                    println!("grid-local: grow -> spawning worker for {node} in {cluster}");
                    let spec = WorkerSpec {
                        cluster: cluster.0,
                        tag: format!("w{}+", node.0),
                        claim: Some(node.0),
                        ..WorkerSpec::default()
                    };
                    if let Err(e) = inner.launch_worker(&hubs, spec) {
                        eprintln!("grid-local: grow for {node} not applied: {}", e.message());
                    }
                }
            })
            .expect("spawn grow handler");
        self.control = Some(control);
        Ok(())
    }

    /// Sends a launcher frame to the hub.
    pub fn send(&self, msg: Message) {
        self.control
            .as_ref()
            .expect("connect_control comes first")
            .send(msg);
    }

    /// Spawns a worker against the dial list and waits for it to join;
    /// returns the node id the hub granted.
    pub fn spawn_worker(&mut self, spec: WorkerSpec) -> Result<u32, Failure> {
        let tag = spec.tag.clone();
        let pid = self.inner.launch_worker(&self.dial, spec)?;
        let node = self.await_up(&format!("worker {tag} never joined"), |m| {
            m.worker_node.get(&tag).copied()
        })?;
        self.with_child(pid, |t| t.node = Some(node));
        Ok(node)
    }

    fn with_child<T>(&self, pid: u32, f: impl FnOnce(&mut Tracked) -> T) -> T {
        let mut roster = self.inner.roster.lock().expect("roster");
        let t = roster.children.iter_mut().find(|t| t.child.id() == pid);
        f(t.expect("a child this grid launched and has not reaped"))
    }

    fn kill_where(&mut self, what: &str, pick: impl Fn(&Tracked) -> bool) -> Result<(), Failure> {
        let mut roster = self.inner.roster.lock().expect("roster");
        let t = roster.children.iter_mut().find(|t| pick(t));
        let t = t.ok_or_else(|| Failure::Infra(format!("no child is {what}")))?;
        let killed = t.child.kill().and_then(|()| t.child.wait());
        killed.map_err(|e| Failure::Infra(format!("kill {what}: {e}")))?;
        println!("grid-local: SIGKILLed {what}");
        Ok(())
    }

    /// SIGKILLs the worker holding `node` (fail-stop crash injection).
    pub fn kill(&mut self, node: u32) -> Result<(), Failure> {
        self.kill_where(&format!("worker n{node}"), |t| t.node == Some(node))
    }

    /// SIGKILLs a hub process (control-plane crash injection).
    pub fn kill_hub(&mut self, hub: &HubRef) -> Result<(), Failure> {
        self.kill_where(&format!("hub {}", hub.addr), |t| t.child.id() == hub.pid)
    }

    /// Whether a hub declares `node` dead within `timeout`.
    pub fn wait_died(&self, node: u32, timeout: Duration) -> bool {
        self.wait_for(timeout, |m| m.died.contains(&node).then_some(()))
            .is_some()
    }

    /// Starts a worker claiming `node` at `hub` and reports whether the
    /// join was refused (worker exit code 3): a blacklisted id must never
    /// rejoin.
    pub fn expect_rejoin_refused(&mut self, node: u32, hub: &str) -> Result<bool, Failure> {
        let spec = WorkerSpec {
            tag: format!("w{node}-rejoin"),
            claim: Some(node),
            ..WorkerSpec::default()
        };
        let pid = self.inner.launch_worker(hub, spec)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.with_child(pid, |t| t.child.try_wait()) {
                Ok(Some(status)) => return Ok(status.code() == Some(3)),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                // Still running (it got in, or hangs): the reaper takes it.
                Ok(None) | Err(_) => return Ok(false),
            }
        }
    }

    /// Now, on the coordinator's time axis (the stamp launcher-written
    /// injection records carry, so injections and decisions share one
    /// timeline in the composed stream).
    pub fn now_us(&self) -> u64 {
        let epoch = self.coord_epoch.expect("spawn_coordinator comes first");
        epoch.elapsed().as_micros() as u64
    }

    /// Sends `Shutdown` through the control connection, waits (10 s) for
    /// every child to exit, and asserts nothing had to be killed and — when
    /// a coordinator ran — that it self-verified its provenance stream.
    /// Returns the exit status of every child that left on its own.
    pub fn shutdown_and_reap(&mut self, checks: &mut Checks) -> BTreeMap<String, ExitStatus> {
        if let Some(control) = &self.control {
            control.send(Message::Shutdown);
        }
        let (exited, orphans) = self.inner.reap(Instant::now() + Duration::from_secs(10));
        checks.assert(
            orphans.is_empty(),
            &format!("all children exited after shutdown (orphans: {orphans:?})"),
        );
        if self.coord_epoch.is_some() {
            checks.assert(
                self.marks(|m| m.provenance_ok),
                "coordinator self-verified its provenance stream (PROVENANCE_OK)",
            );
        }
        exited
    }

    /// Every decision the coordinator emitted, reconstructed offline
    /// through `simgrid::provenance` into the coordinator's own log
    /// entries, like an in-process run's.
    pub fn decisions(&self) -> Result<Vec<DecisionLogEntry>, Failure> {
        let (path, text) = self.coordinator_stream()?;
        let mut decisions = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let value = parse_json(line).map_err(|e| format!("{path}:{}: bad JSON: {e}", i + 1))?;
            if value.get("kind").and_then(|k| k.as_str()) == Some("decision") {
                decisions.push(
                    reconstruct_decision(&value).map_err(|e| format!("{path}:{}: {e}", i + 1))?,
                );
            }
        }
        Ok(decisions)
    }

    /// Composes the launcher's injection `records`, any `extra_streams`
    /// (e.g. a standby hub's JSONL) and the coordinator's decision stream
    /// into `<out>/<stream_file>` — the artifact shape the DES twin emits —
    /// and asserts the crates/scenario invariants hold on it.
    pub fn judge(
        &self,
        records: &[String],
        extra_streams: &[&str],
        stream_file: &str,
        what: &str,
        checks: &mut Checks,
    ) -> Result<(), Failure> {
        let mut composed = records.join("\n");
        composed.push('\n');
        for s in extra_streams {
            composed.push_str(s);
        }
        composed.push_str(&self.coordinator_stream()?.1);
        let path = format!("{}/{stream_file}", self.inner.out);
        std::fs::write(&path, &composed).map_err(|e| format!("write {path}: {e}"))?;
        let cfg = InvariantConfig {
            recovery_eff: 0.25,
            // Wall-clock settle: scripts dwell longer than this after
            // their last injection.
            settle_us: 2_000_000,
            join_delay_us: 0,
            // Decision-only streams carry no membership or teardown-counter
            // records; those invariants are the DES twin's to certify.
            check_membership: false,
            check_conservation: false,
            expected_iterations: None,
        };
        let violations = check_jsonl(&composed, &cfg);
        checks.assert(violations.is_empty(), what);
        for v in &violations {
            println!("grid-local: violation {v}");
        }
        Ok(())
    }
}

/// Failure paths (`Err` returns, infra timeouts) unwind straight past
/// `shutdown_and_reap`, and `std::process::exit` runs no destructors — so
/// dropping the grid, which happens before `main` picks an exit code,
/// kills whatever is still running. After an orderly reap this is a no-op.
impl Drop for LocalGrid {
    fn drop(&mut self) {
        for leaked in self.inner.reap(Instant::now()).1 {
            println!("grid-local: reaper killed leaked {leaked}");
        }
    }
}
