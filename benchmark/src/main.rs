//! `sagrid-benchmark`: one command runs a named workload from a seed,
//! checks the outputs, and prints every metric by name and unit.
//!
//! A workload is one grid episode pushed through three stages — the DES
//! twin, the real control plane, the steal plane — interleaved in
//! fixed-work rounds, so every end-to-end metric is defined on every
//! workload and a noisy spell of the machine hits a few windows of every
//! stage instead of one stage whole. See `README.md` beside this crate.

mod ctl;
mod des;
mod layers;
mod procfs;
mod report;
mod stats;
mod steal;
mod trace;
mod workload;

use crate::ctl::{CtlStage, CtlWindow};
use crate::des::{DesStage, DesWindow};
use crate::stats::{median, quantile, run_value, sorted, window_spread, Better};
use crate::steal::{StealStage, StealWindow};
use crate::trace::Tracer;
use crate::workload::Workload;
use sagrid_core::metrics::{Metrics, MetricsReport};
use sagrid_net::wire::Message;
use sagrid_scenario::{check_jsonl, InvariantConfig};
use sagrid_simgrid::GridSim;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::os::fd::{AsRawFd, FromRawFd};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Rounds per second of `--seconds`: the per-round work in the workload
/// files is sized so that one round takes a third to half a second on
/// the 2-vCPU machine the benchmark was tuned on. Work, not time, is
/// fixed: the same `--seconds` always runs the same operations.
const ROUNDS_PER_SECOND: u64 = 3;
/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// A named metric with its value and unit.
type Metric = (String, f64, String);

extern "C" {
    fn dup(fd: i32) -> i32;
    fn dup2(old: i32, new: i32) -> i32;
}

/// Points fd 1 at `/dev/null` and returns the real stdout. `Hub::run`
/// `println!`s an `EVENT` line per join, leave and announce: with fd 1
/// on a sink, churn speed never depends on who drains a pipe, and the
/// result line — written to the returned file after the hub thread has
/// been joined — is the last line of output.
fn sink_stdout() -> std::io::Result<File> {
    // SAFETY: `dup` takes no pointers; fd 1 is open for the whole process.
    let saved = unsafe { dup(1) };
    if saved < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let null = std::fs::OpenOptions::new().write(true).open("/dev/null")?;
    // SAFETY: both descriptors are open; `dup2` takes no pointers.
    if unsafe { dup2(null.as_raw_fd(), 1) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: `saved` is a fresh descriptor this function owns.
    Ok(unsafe { File::from_raw_fd(saved) })
}

/// The directory holding `workloads/` and `out/`.
fn bench_dir() -> PathBuf {
    std::env::var_os("SAGRID_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// The three stages, set up and warmed.
struct Stages {
    workload: Workload,
    des: DesStage,
    ctl: CtlStage,
    steal: StealStage,
}

impl Stages {
    /// Everything `setup_s` covers: parse and compile the workload file,
    /// build the Barnes-Hut profile, bind the hub, connect and join every
    /// member, attach the standbys, start the steal server, and run one
    /// short warm-up round through all three stages.
    fn setup(
        dir: &Path,
        name: &str,
        seed: u64,
        metrics: Metrics,
        tr: &mut Tracer,
    ) -> Result<Stages, String> {
        let workload = Workload::load(dir, name)?;
        let des = DesStage::setup(&workload, tr)?;
        let steal =
            StealStage::setup(&workload.steal, seed).map_err(|e| format!("steal set-up: {e}"))?;
        let mut ctl = CtlStage::setup(&workload.ctl, seed, &steal.addr, metrics, tr)
            .map_err(|e| format!("control-plane set-up: {e}"))?;
        // One quiet and one busy cycle, so both decision paths are warm.
        ctl.window(Some(2), tr)
            .map_err(|e| format!("control-plane warm-up: {e}"))?;
        let mut stages = Stages {
            workload,
            des,
            ctl,
            steal,
        };
        stages.refresh_directory()?;
        let warm = stages.steal.window(Some(32), tr);
        if warm.failed > 0 {
            return Err("steal warm-up failed".into());
        }
        Ok(stages)
    }

    /// Hands the thief the newest directory the hub broadcast (or a local
    /// one when the workload's members do not announce).
    fn refresh_directory(&mut self) -> Result<(), String> {
        let p = &self.workload.ctl;
        let peers = if p.announce && !self.ctl.latest_directory.is_empty() {
            match Message::decode(&self.ctl.latest_directory) {
                Ok(Message::PeerDirectory { peers }) => peers,
                _ => return Err("undecodable PeerDirectory broadcast".into()),
            }
        } else {
            self.steal.local_directory(p.members, p.member_clusters)
        };
        self.steal.update_directory(peers);
        Ok(())
    }
}

/// Everything the rounds measured.
#[derive(Default)]
struct Rounds {
    des: Vec<DesWindow>,
    ctl: Vec<CtlWindow>,
    steal: Vec<StealWindow>,
    /// Wall nanoseconds of each round, and whether it was traced.
    round_ns: Vec<(u64, bool)>,
}

fn rates(pairs: impl Iterator<Item = (u64, u64)>) -> Vec<f64> {
    pairs
        .filter(|&(_, ns)| ns > 0)
        .map(|(n, ns)| n as f64 / (ns as f64 / 1e9))
        .collect()
}

fn flat<'a>(it: impl Iterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    it.flatten().copied().collect()
}

fn p(values: &[f64], q: f64) -> f64 {
    quantile(&sorted(values), q)
}

/// Upper bound of the histogram bucket holding quantile `q`.
fn histogram_quantile(report: &MetricsReport, name: &str, q: f64) -> f64 {
    let Some((_, h)) = report.histograms.iter().find(|(n, _)| n == name) else {
        return 0.0;
    };
    let want = (h.count as f64 * q).ceil() as u64;
    let mut seen = 0;
    for (i, c) in h.counts.iter().enumerate() {
        seen += c;
        if seen >= want {
            return h.bounds.get(i).copied().unwrap_or(u64::MAX) as f64;
        }
    }
    0.0
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: Vec<String>) -> Result<RunArgs, String> {
    let args = sagrid_net::Args::parse(argv, &["workload", "seed", "seconds", "trace"])?;
    Ok(RunArgs {
        workload: args.require("workload")?,
        seed: args.get_or("seed", 1)?,
        seconds: args.get_or("seconds", 20u64)?.clamp(1, 120),
        trace: args.get_or("trace", 0u8)? != 0,
    })
}

struct Outcome {
    /// The result line the driver reads.
    line: String,
    /// The richer record `report` reads (holds `line` too).
    detail: String,
    trace_jsonl: Option<String>,
}

fn run(args: &RunArgs, started: Instant, pinned: bool) -> Result<Outcome, String> {
    let dir = bench_dir();
    let mut tr = Tracer::new();
    let hub_metrics = || {
        if args.trace {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        }
    };

    // Set up several times; the last one is the one measured on.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut stages: Option<Stages> = None;
    // Only a fresh process shows what one DES run adds to the peak.
    let mut des_hwm_growth = 0;
    for i in 0..SETUPS {
        if let Some(prev) = stages.take() {
            prev.ctl
                .shutdown()
                .map_err(|e| format!("hub shutdown: {e}"))?;
        }
        let last = i + 1 == SETUPS;
        tr.set_recording(args.trace && last, 0);
        let t = if i == 0 { started } else { Instant::now() };
        stages = Some(Stages::setup(
            &dir,
            &args.workload,
            args.seed,
            hub_metrics(),
            &mut tr,
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
        if i == 0 {
            des_hwm_growth = stages
                .as_ref()
                .map_or(0, |s| s.des.outcome.hwm_growth_bytes);
        }
    }
    let mut st = stages.expect("SETUPS > 0");
    let join_ms_per_member = st.ctl.join_ms_per_member;

    // Rounds: fixed work, the first discarded.
    let n_rounds = (args.seconds * ROUNDS_PER_SECOND).max(3) as u32;
    let mut rounds = Rounds::default();
    for r in 0..n_rounds {
        let traced = args.trace && r % 2 == 1;
        tr.set_recording(traced, r + 1);
        let t = Instant::now();
        let span = tr.enter("round");
        let s = tr.enter("stage.des");
        let d = st.des.window(&mut tr);
        tr.exit(s);
        let s = tr.enter("stage.ctl");
        let c = st
            .ctl
            .window(None, &mut tr)
            .map_err(|e| format!("control plane, round {r}: {e}"))?;
        tr.exit(s);
        let s = tr.enter("stage.steal");
        if st.workload.steal.update_directory {
            st.refresh_directory()?;
        }
        let w = st.steal.window(None, &mut tr);
        tr.exit(s);
        tr.exit(span);
        if r > 0 {
            rounds.des.push(d);
            rounds.ctl.push(c);
            rounds.steal.push(w);
            rounds
                .round_ns
                .push((t.elapsed().as_nanos() as u64, traced));
        }
    }
    tr.set_recording(args.trace, n_rounds + 1);

    // Correctness, untimed: the invariant checker on a metrics-enabled
    // DES run, the pool's checksum, the coordinator socket's count, the
    // join acks, the decision sequence, the standby's replicated state.
    let mut failed: u64 = 0;
    let mut why: Vec<String> = Vec::new();
    let mut fail = |n: u64, what: String| {
        if n > 0 {
            failed += n;
            why.push(what);
        }
    };
    let s = tr.enter("scenario.check_jsonl");
    let metered = GridSim::try_run_with_metrics(st.des.adapt.clone(), Metrics::enabled())?;
    let jsonl = metered
        .metrics
        .as_ref()
        .map(|m| m.to_jsonl())
        .unwrap_or_default();
    let t = Instant::now();
    let violations = check_jsonl(
        &jsonl,
        &InvariantConfig {
            expected_iterations: Some(st.des.spec.iterations as u64),
            ..InvariantConfig::default()
        },
    );
    let check_jsonl_ms = t.elapsed().as_secs_f64() * 1e3;
    tr.exit(s);
    fail(
        violations.len() as u64,
        format!(
            "check_jsonl: {:?}",
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        ),
    );
    let sim = st.des.outcome.clone();
    fail(
        u64::from(sim.recovery_s.is_none()),
        "the adapting run never recovered".into(),
    );
    if let Some(want) = st.workload.expect_events {
        fail(
            u64::from(want != sim.pair_events),
            format!("simgrid.events {} != expected {want}", sim.pair_events),
        );
    }
    fail(
        rounds.des.iter().map(|w| w.failed).sum(),
        "a DES run failed or changed its event count".into(),
    );
    fail(
        rounds.ctl.iter().map(|w| w.failed).sum(),
        "a coordinator decision left its script".into(),
    );
    fail(
        rounds.steal.iter().map(|w| w.failed).sum(),
        "a steal came back empty, short or unsent".into(),
    );
    fail(
        u64::from(!st.steal.verify()),
        "ExportPool not done or checksum wrong".into(),
    );
    let totals = st.ctl.totals.clone();
    fail(
        totals.reports_sent.abs_diff(totals.reports_forwarded),
        "reports sent != reports counted at the coordinator socket".into(),
    );
    fail(
        totals.joins - totals.joins_accepted,
        "a join was not acked accepted".into(),
    );
    match st.workload.expect_decisions {
        Some(want) => fail(
            u64::from(want != totals.decision_hash()),
            format!(
                "decision hash {:#018x} != expected {want:#018x}",
                totals.decision_hash()
            ),
        ),
        None => fail(1, "no decision hash recorded in the .expect file".into()),
    }
    if let Some((alive, peers)) = st.ctl.replica_view() {
        // The directory reaches the log when the hub flushes it, so the
        // last cycle's announces may still be on their way.
        let n = st.ctl.member_count();
        let (most, least) = if st.workload.ctl.announce {
            (n, n.saturating_sub(st.workload.ctl.churn))
        } else {
            (0, 0)
        };
        fail(
            u64::from(alive != n || peers > most || peers < least),
            format!("standby holds {alive} alive members and {peers} peers for {n} members"),
        );
    }
    if std::env::var_os("SAGRID_BENCH_WRITE_EXPECT").is_some() {
        let text = format!(
            "decisions {:#018x}\nevents {}\n",
            totals.decision_hash(),
            sim.pair_events
        );
        std::fs::write(st.workload.path.with_extension("expect"), text)
            .map_err(|e| format!("write .expect: {e}"))?;
    }

    let wire_bytes_per_steal = st.steal.wire_bytes_per_steal();
    // One accept thread plus one per victim connection the thief dialled
    // (earlier set-ups' connection threads ended with their clients).
    let steal_server_threads = 1 + procfs::threads_named("steal-srv");
    let Stages {
        workload, des, ctl, ..
    } = st;
    let hub_report = ctl.shutdown().map_err(|e| format!("hub shutdown: {e}"))?;

    // Run values: one estimator for every timed metric.
    let des_rates = rates(rounds.des.iter().map(|w| (w.events, w.wall_ns)));
    let ctl_rates = rates(rounds.ctl.iter().map(|w| (w.ops, w.wall_ns)));
    let react_p50: Vec<f64> = rounds.ctl.iter().map(|w| median(&w.react_us)).collect();
    let steal_p50: Vec<f64> = rounds.steal.iter().map(|w| median(&w.rtt_us)).collect();
    let attempted: u64 = rounds.des.iter().map(|w| w.runs).sum::<u64>()
        + rounds.ctl.iter().map(|w| w.ops).sum::<u64>()
        + rounds.steal.iter().map(|w| w.steals).sum::<u64>();

    let mut metrics: Vec<Metric> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        metrics.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
            unit.to_string(),
        ));
    };
    let mut self_time = String::new();
    let mut trace_jsonl = None;
    if !args.trace {
        push("setup_s", median(&setup_s), "s");
        push("sim_recovery_s", sim.recovery_s.unwrap_or(0.0), "sim_s");
        push("sim_runtime_ratio", sim.runtime_ratio, "ratio");
        push(
            "des_events_per_s",
            run_value(&des_rates, Better::Higher),
            "1/s",
        );
        push(
            "ctl_ops_per_s",
            run_value(&ctl_rates, Better::Higher),
            "1/s",
        );
        push(
            "ctl_react_p50_us",
            run_value(&react_p50, Better::Lower),
            "us",
        );
        push(
            "steal_rtt_p50_us",
            run_value(&steal_p50, Better::Lower),
            "us",
        );
        push("peak_rss_mb", procfs::vm_hwm_mb(), "MiB");
    } else {
        let micro = layers::measure(&workload, &des.spec, &des.adapt, &jsonl, &mut tr);
        for (name, value, unit) in micro {
            push(name, value, unit);
        }
        push("scenario.check_jsonl_ms", check_jsonl_ms, "ms");

        push("simgrid.events", sim.pair_events as f64, "count");
        push("simgrid.steal_attempts", sim.steal_attempts as f64, "count");
        push(
            "simgrid.ns_per_event",
            1e9 / run_value(&des_rates, Better::Higher),
            "ns",
        );
        push(
            "simgrid.peer_cache_hit_ratio",
            sim.peer_cache_hits as f64 / sim.steal_attempts.max(1) as f64,
            "ratio",
        );
        push(
            "simgrid.bytes_per_node",
            des_hwm_growth as f64 / des.adapt.grid.total_nodes() as f64,
            "B",
        );
        push("adapt.decisions", sim.decisions as f64, "count");
        push(
            "adapt.holdfire_decisions",
            sim.holdfire_decisions as f64,
            "count",
        );

        let sum = |f: fn(&CtlWindow) -> u64| rounds.ctl.iter().map(f).sum::<u64>() as f64;
        let ops = sum(|w| w.ops);
        let wall = sum(|w| w.wall_ns);
        let changes = sum(|w| w.changes).max(1.0);
        push(
            "net.hub.cpu_us_per_op",
            sum(|w| w.hub_cpu_ns) / 1e3 / ops,
            "us",
        );
        push("net.hub.cpu_share", sum(|w| w.hub_cpu_ns) / wall, "ratio");
        push(
            "net.hub.wakeups_per_op",
            sum(|w| w.hub_switches) / ops,
            "ratio",
        );
        push(
            "net.hub.bytes_out_per_change",
            sum(|w| w.change_bytes) / changes,
            "B",
        );
        push(
            "net.hub.dir_frames_per_change",
            sum(|w| w.dir_frames) / changes,
            "ratio",
        );
        push("net.hub.join_ms_per_member", join_ms_per_member, "ms");
        push(
            "net.hub.fwd_lag_p50_us",
            p(&flat(rounds.ctl.iter().map(|w| &w.fwd_lag_us)), 0.5),
            "us",
        );
        push(
            "net.hub.relay_lag_p50_us",
            p(&flat(rounds.ctl.iter().map(|w| &w.relay_lag_us)), 0.5),
            "us",
        );
        push(
            "net.replog.deltas_per_change",
            sum(|w| w.deltas) / changes,
            "ratio",
        );
        push(
            "net.replica.ack_lag_p50_us",
            p(&flat(rounds.ctl.iter().map(|w| &w.ack_lag_us)), 0.5),
            "us",
        );
        push(
            "net.reactor.loop_lat_p99_us",
            histogram_quantile(&hub_report, "net.reactor.loop_latency_us", 0.99),
            "us",
        );
        push(
            "net.reactor.stalls",
            hub_report.counter("net.reactor.stalls") as f64,
            "count",
        );
        push(
            "net.reactor.backpressure_drops",
            hub_report.counter("net.reactor.backpressure_drops") as f64,
            "count",
        );
        push(
            "ctl.react_p95_us",
            p(&flat(rounds.ctl.iter().map(|w| &w.react_us)), 0.95),
            "us",
        );

        let rtts = flat(rounds.steal.iter().map(|w| &w.rtt_us));
        let steals: u64 = rounds.steal.iter().map(|w| w.steals).sum();
        let steal_wall: u64 = rounds.steal.iter().map(|w| w.wall_ns).sum();
        push("net.steal.rtt_p95_us", p(&rtts, 0.95), "us");
        push(
            "net.steal.mib_per_s",
            (steals * workload.steal.payload_bytes as u64) as f64
                / (1 << 20) as f64
                / (steal_wall as f64 / 1e9),
            "MiB/s",
        );
        push(
            "net.steal.wire_bytes_per_steal",
            wire_bytes_per_steal as f64,
            "B",
        );
        push(
            "net.steal.pool_ns_per_job",
            rounds.steal.iter().map(|w| w.stock_ns).sum::<u64>() as f64 / steals.max(1) as f64,
            "ns",
        );
        push(
            "net.steal.server_threads",
            steal_server_threads as f64,
            "count",
        );

        push("gen.cpu_share", sum(|w| w.gen_cpu_ns) / wall, "ratio");
        push("gen.threads", 1.0, "count");
        push("gen.pinned", f64::from(u8::from(pinned)), "count");
        push("bench.rounds", f64::from(n_rounds), "count");
        push("bench.ops_attempted", attempted as f64, "count");
        push("bench.ops_failed", failed as f64, "count");
        push(
            "bench.window_spread.des_events_per_s",
            window_spread(&des_rates),
            "ratio",
        );
        push(
            "bench.window_spread.ctl_ops_per_s",
            window_spread(&ctl_rates),
            "ratio",
        );
        push(
            "bench.window_spread.ctl_react_p50_us",
            window_spread(&react_p50),
            "ratio",
        );
        push(
            "bench.window_spread.steal_rtt_p50_us",
            window_spread(&steal_p50),
            "ratio",
        );
        // Odd rounds were traced, even ones were not: same work, same run.
        let of = |traced: bool| -> Vec<f64> {
            rounds
                .round_ns
                .iter()
                .filter(|r| r.1 == traced)
                .map(|r| r.0 as f64)
                .collect()
        };
        push(
            "bench.trace_overhead_pct",
            (median(&of(true)) / median(&of(false)) - 1.0) * 100.0,
            "%",
        );
        push("bench.spans", tr.span_count() as f64, "count");

        let _ = write!(self_time, "[");
        let self_times = tr.self_times();
        let total: u64 = self_times.iter().map(|s| s.self_ns).sum();
        for (i, s) in self_times.iter().enumerate() {
            let _ = write!(
                self_time,
                "{}{{\"name\":\"{}\",\"calls\":{},\"total_ms\":{},\"self_ms\":{},\"self_share\":{}}}",
                if i > 0 { "," } else { "" },
                s.name,
                s.calls,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                s.self_ns as f64 / total.max(1) as f64,
            );
        }
        let _ = write!(self_time, "]");
        trace_jsonl = Some(tr.to_jsonl());
    }

    let mut detail = String::new();
    let _ = write!(
        detail,
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"rounds\":{},\"why_failed\":[",
        args.workload, args.seed, args.seconds, args.trace, n_rounds
    );
    for (i, wfy) in why.iter().enumerate() {
        let _ = write!(detail, "{}", if i > 0 { "," } else { "" });
        sagrid_core::json::write_json_string(&mut detail, wfy);
    }
    let line = result_line(failed == 0, attempted, failed, &metrics);
    let _ = write!(detail, "],\"result\":{line}");
    if !self_time.is_empty() {
        let _ = write!(detail, ",\"self_time\":{self_time}");
    }
    // The per-window values every run value was estimated from.
    for (name, values) in [
        ("des_events_per_s", &des_rates),
        ("ctl_ops_per_s", &ctl_rates),
        ("ctl_react_p50_us", &react_p50),
        ("steal_rtt_p50_us", &steal_p50),
    ] {
        let list: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
        let _ = write!(detail, ",\"windows.{name}\":[{}]", list.join(","));
    }
    let _ = write!(detail, "}}");
    for wfy in &why {
        eprintln!("sagrid-benchmark: incorrect: {wfy}");
    }
    Ok(Outcome {
        line,
        detail,
        trace_jsonl,
    })
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" }
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("report") => return report::where_the_time_goes(&bench_dir()),
        Some("aa-report") => return report::aa(&bench_dir(), argv.get(1).map(String::as_str)),
        _ => {}
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sagrid-benchmark: {e}");
            eprintln!(
                "usage: sagrid-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            eprintln!("       sagrid-benchmark report | aa-report <dir>");
            return ExitCode::from(2);
        }
    };
    // One CPU for the generator and every thread of the program. The
    // stages are lock-step ping-pong between two threads: left alone the
    // scheduler keeps them on one CPU most of the time, and when it does
    // not (any second runnable process will do it) every frame pays a
    // cross-CPU wake-up and the control plane reads half as fast. Pinned,
    // there is one regime. The last allowed CPU keeps clear of CPU 0's
    // interrupts; threads spawned later inherit the mask.
    let pinned = procfs::allowed_cpus()
        .last()
        .is_some_and(|&cpu| procfs::pin_current_thread(cpu));
    let mut stdout = match sink_stdout() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sagrid-benchmark: cannot redirect stdout: {e}");
            return ExitCode::from(1);
        }
    };
    let outcome = match run(&args, started, pinned) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sagrid-benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    // Keep the record `report` reads; failing to is not a failed run.
    let out_dir = bench_dir().join("out");
    let kind = if args.trace { "layers" } else { "e2e" };
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let _ = std::fs::write(
            out_dir.join(format!("{}.{kind}.json", args.workload)),
            &outcome.detail,
        );
        if let Some(jsonl) = &outcome.trace_jsonl {
            let _ = std::fs::write(
                out_dir.join(format!("{}.trace.jsonl", args.workload)),
                jsonl,
            );
        }
    }
    if writeln!(stdout, "{}", outcome.line)
        .and_then(|_| stdout.flush())
        .is_err()
    {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
