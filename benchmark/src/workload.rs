//! A workload file: one `sagrid-scenario` file (the grid episode) plus a
//! `"bench"` object sizing the three stages. `ScenarioSpec::parse` skips
//! fields it does not know, so one file feeds both parsers.

use sagrid_core::json::{parse_json, JsonValue};
use sagrid_core::time::SimDuration;
use sagrid_core::workload::TreeShape;
use std::path::{Path, PathBuf};

/// The four workloads, in the order every table lists them.
pub const WORKLOADS: [&str; 4] = ["paper36", "wide_steady", "wide_churn", "bulk_wan"];

/// DES stage sizing.
#[derive(Clone, Debug)]
pub struct DesParams {
    /// Use `hierarchical_coordinator` (the queue backend follows grid
    /// size by the program's own rule).
    pub hierarchical: bool,
    /// Adapt + NoAdapt run pairs per window.
    pub pairs_per_window: usize,
    /// Replaces the Barnes-Hut profile's tree shape when the grid is too
    /// wide for a few hundred tasks per iteration.
    pub tree: Option<TreeShape>,
    /// Overrides `TimingConfig::idle_retry_backoff`.
    pub idle_retry_backoff: Option<SimDuration>,
    /// Multiplies every task payload (bytes instead of messages).
    pub payload_scale: u64,
}

/// Control-plane stage sizing.
#[derive(Clone, Debug)]
pub struct CtlParams {
    pub hub_clusters: usize,
    pub hub_nodes_per_cluster: usize,
    /// Member connections, spread round-robin over `member_clusters`.
    pub members: usize,
    pub member_clusters: usize,
    /// Members announce a steal address (turns directory traffic on).
    pub announce: bool,
    /// Standby hubs tailing the replication log.
    pub standbys: usize,
    /// Heartbeats per member per cycle (one `StatsReport` follows them).
    pub heartbeats: usize,
    /// Leave + fresh connect/join(/announce) operations per churn cycle.
    pub churn: usize,
    /// Every `churn_every`-th cycle is a churn cycle.
    pub churn_every: usize,
    /// Drain member and standby sockets after this many churn operations.
    pub drain_every: usize,
    /// Cycles per window.
    pub cycles_per_window: usize,
    /// Every report carries a new `bench_micros` (one `Bandwidth` delta
    /// per report).
    pub changing_bench: bool,
    /// `AdaptPolicy::max_growth_per_period` of the generator's
    /// coordinator: how many workers one busy cycle spawns.
    pub growth_cap: usize,
}

/// Steal stage sizing.
#[derive(Clone, Debug)]
pub struct StealParams {
    pub payload_bytes: usize,
    pub steals_per_window: usize,
    /// Feed the thief a fresh hub directory every round.
    pub update_directory: bool,
}

/// One parsed workload file.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: String,
    pub path: PathBuf,
    /// The whole file (fed to `ScenarioSpec::parse` by the DES stage).
    pub text: String,
    pub des: DesParams,
    pub ctl: CtlParams,
    pub steal: StealParams,
    /// Decision-sequence hash a correct run reproduces.
    pub expect_decisions: Option<u64>,
    /// Events one Adapt + NoAdapt pair processes.
    pub expect_events: Option<u64>,
}

fn need<'a>(obj: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a JsonValue, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing field \"{key}\""))
}

fn usize_of(obj: &JsonValue, key: &str, ctx: &str) -> Result<usize, String> {
    need(obj, key, ctx)?
        .as_u64()
        .map(|v| v as usize)
        .ok_or_else(|| format!("{ctx}.{key}: expected an unsigned integer"))
}

fn bool_of(obj: &JsonValue, key: &str, ctx: &str) -> Result<bool, String> {
    need(obj, key, ctx)?
        .as_bool()
        .ok_or_else(|| format!("{ctx}.{key}: expected a boolean"))
}

fn f64_of(obj: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    need(obj, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}.{key}: expected a number"))
}

fn parse_tree(t: &JsonValue) -> Result<TreeShape, String> {
    let ctx = "bench.des.tree";
    Ok(TreeShape {
        depth: usize_of(t, "depth", ctx)? as u32,
        min_branch: usize_of(t, "min_branch", ctx)? as u32,
        max_branch: usize_of(t, "max_branch", ctx)? as u32,
        mean_leaf_work: SimDuration::from_secs_f64(f64_of(t, "mean_leaf_secs", ctx)?),
        work_spread: f64_of(t, "work_spread", ctx)?,
        divide_work: SimDuration::from_millis(1),
        payload_bytes: usize_of(t, "payload_bytes", ctx)? as u64,
    })
}

/// `0x`-prefixed 64-bit hash from a `.expect` line, e.g. `decisions 0x1f`.
fn parse_expect(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let rest = l.trim().strip_prefix(key)?.trim();
        match rest.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => rest.parse().ok(),
        }
    })
}

impl Workload {
    /// Loads `<dir>/workloads/<name>.json` and its `.expect` sibling.
    pub fn load(dir: &Path, name: &str) -> Result<Workload, String> {
        if !WORKLOADS.contains(&name) {
            return Err(format!(
                "unknown workload {name:?} (one of {})",
                WORKLOADS.join(", ")
            ));
        }
        let path = dir.join("workloads").join(format!("{name}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let expect = std::fs::read_to_string(path.with_extension("expect")).unwrap_or_default();
        let mut w = Workload::parse(name, &text)?;
        w.path = path;
        w.expect_decisions = parse_expect(&expect, "decisions");
        w.expect_events = parse_expect(&expect, "events");
        Ok(w)
    }

    /// Parses the `"bench"` object of a workload file.
    pub fn parse(name: &str, text: &str) -> Result<Workload, String> {
        let root = parse_json(text)?;
        let bench = need(&root, "bench", "workload")?;
        let des = need(bench, "des", "bench")?;
        let ctl = need(bench, "ctl", "bench")?;
        let steal = need(bench, "steal", "bench")?;
        let des = DesParams {
            hierarchical: bool_of(des, "hierarchical", "bench.des")?,
            pairs_per_window: usize_of(des, "pairs_per_window", "bench.des")?.max(1),
            tree: des.get("tree").map(parse_tree).transpose()?,
            idle_retry_backoff: des
                .get("idle_retry_backoff_ms")
                .and_then(|v| v.as_u64())
                .map(SimDuration::from_millis),
            payload_scale: des
                .get("payload_scale")
                .and_then(|v| v.as_u64())
                .unwrap_or(1),
        };
        let ctl = CtlParams {
            hub_clusters: usize_of(ctl, "hub_clusters", "bench.ctl")?,
            hub_nodes_per_cluster: usize_of(ctl, "hub_nodes_per_cluster", "bench.ctl")?,
            members: usize_of(ctl, "members", "bench.ctl")?,
            member_clusters: usize_of(ctl, "member_clusters", "bench.ctl")?,
            announce: bool_of(ctl, "announce", "bench.ctl")?,
            standbys: usize_of(ctl, "standbys", "bench.ctl")?,
            heartbeats: usize_of(ctl, "heartbeats", "bench.ctl")?,
            churn: usize_of(ctl, "churn", "bench.ctl")?,
            churn_every: usize_of(ctl, "churn_every", "bench.ctl")?.max(1),
            drain_every: usize_of(ctl, "drain_every", "bench.ctl")?.max(1),
            cycles_per_window: usize_of(ctl, "cycles_per_window", "bench.ctl")?.max(1),
            changing_bench: bool_of(ctl, "changing_bench", "bench.ctl")?,
            growth_cap: usize_of(ctl, "growth_cap", "bench.ctl")?.max(1),
        };
        if ctl.members < 2 || ctl.member_clusters == 0 || ctl.member_clusters > ctl.hub_clusters {
            return Err("bench.ctl: need ≥ 2 members on 1..=hub_clusters clusters".into());
        }
        let per_cluster = ctl.members.div_ceil(ctl.member_clusters);
        // A busy cycle grows by `growth_cap` nodes that join and leave
        // again at once, so the pool needs that much spare capacity.
        if per_cluster + ctl.growth_cap > ctl.hub_nodes_per_cluster {
            return Err("bench.ctl: hub pool too small for members + one growth wave".into());
        }
        let steal = StealParams {
            payload_bytes: usize_of(steal, "payload_bytes", "bench.steal")?.max(8),
            steals_per_window: usize_of(steal, "steals_per_window", "bench.steal")?.max(1),
            update_directory: bool_of(steal, "update_directory", "bench.steal")?,
        };
        Ok(Workload {
            name: name.to_string(),
            path: PathBuf::new(),
            text: text.to_string(),
            des,
            ctl,
            steal,
            expect_decisions: None,
            expect_events: None,
        })
    }
}
