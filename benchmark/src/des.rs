//! DES stage: the workload's grid episode on `simgrid`, adapting and not
//! adapting, timed per `GridSim::try_run`.

use crate::trace::Tracer;
use crate::workload::Workload;
use sagrid_core::rng::Xoshiro256StarStar;
use sagrid_core::workload::{IterativeWorkload, TaskNode, TaskTree};
use sagrid_scenario::{InvariantConfig, ScenarioSpec};
use sagrid_simgrid::{AdaptMode, GridSim, RunResult, SimConfig};
use std::hint::black_box;
use std::time::Instant;

/// What the simulated episode came to; exact for a fixed workload file.
#[derive(Clone, Debug, Default)]
pub struct SimOutcome {
    /// Sim seconds from the last disturbance to lasting recovery.
    pub recovery_s: Option<f64>,
    /// `total_runtime` adapting ÷ not adapting.
    pub runtime_ratio: f64,
    /// Events of one Adapt + NoAdapt pair.
    pub pair_events: u64,
    pub steal_attempts: u64,
    pub peer_cache_hits: u64,
    pub decisions: u64,
    pub holdfire_decisions: u64,
    /// Growth of the process's peak resident set across this set-up's
    /// first adapting run (meaningful in a fresh process only).
    pub hwm_growth_bytes: u64,
}

/// One window's measurement.
#[derive(Clone, Copy, Debug, Default)]
pub struct DesWindow {
    pub runs: u64,
    pub failed: u64,
    pub events: u64,
    pub wall_ns: u64,
}

pub struct DesStage {
    pub spec: ScenarioSpec,
    pub adapt: SimConfig,
    no_adapt: SimConfig,
    pairs_per_window: usize,
    pub outcome: SimOutcome,
}

/// Applies the workload file's tree shape and payload scale to the
/// Barnes-Hut profile `sim_config` built.
fn customise(w: &Workload, spec: &ScenarioSpec, wl: &mut IterativeWorkload) {
    if let Some(shape) = w.des.tree {
        let mut rng = Xoshiro256StarStar::seeded(spec.seed);
        wl.name = format!("{}(it={})", w.name, spec.iterations);
        wl.iterations = (0..spec.iterations)
            .map(|_| {
                let mut tree = shape.generate(&mut rng);
                tree.scale_payloads_by_subtree(shape.payload_bytes);
                tree
            })
            .collect();
    }
    if w.des.payload_scale > 1 {
        for tree in &mut wl.iterations {
            let nodes: Vec<TaskNode> = (0..tree.len())
                .map(|i| {
                    let mut n = *tree.node(i);
                    n.payload_bytes *= w.des.payload_scale;
                    n
                })
                .collect();
            *tree = TaskTree::from_nodes(nodes);
        }
    }
}

/// Sim seconds from the last injected disturbance to the first
/// efficiency sample ≥ `e_min` after which none falls below the
/// invariant checker's `recovery_eff`.
fn recovery_secs(spec: &ScenarioSpec, cfg: &SimConfig, run: &RunResult) -> Option<f64> {
    let last = spec.last_disturbance_us(&cfg.grid).ok()??;
    let floor = InvariantConfig::default().recovery_eff;
    let after: Vec<(u64, f64)> = run
        .efficiency_timeline
        .iter()
        .filter(|(t, _)| t.0 > last)
        .map(|&(t, e)| (t.0, e))
        .collect();
    let last_low = after.iter().rposition(|&(_, e)| e < floor);
    let from = last_low.map_or(0, |i| i + 1);
    after[from..]
        .iter()
        .find(|&&(_, e)| e >= cfg.policy.e_min)
        .map(|&(t, _)| (t - last) as f64 / 1e6)
}

impl DesStage {
    /// Parses and compiles the workload file for both modes and runs one
    /// pair to pin the simulated outcome.
    pub fn setup(w: &Workload, tr: &mut Tracer) -> Result<DesStage, String> {
        let s = tr.enter("scenario.parse");
        let spec = ScenarioSpec::parse(&w.text);
        tr.exit(s);
        let spec = spec?;
        let mut cfgs = Vec::with_capacity(2);
        for mode in [AdaptMode::Adapt, AdaptMode::NoAdapt] {
            let s = tr.enter("scenario.sim_config");
            let cfg = spec.sim_config(mode);
            tr.exit(s);
            let mut cfg = cfg?;
            cfg.hierarchical_coordinator = w.des.hierarchical;
            if let Some(b) = w.des.idle_retry_backoff {
                cfg.timing.idle_retry_backoff = b;
            }
            customise(w, &spec, &mut cfg.workload);
            cfg.validate()?;
            cfgs.push(cfg);
        }
        let no_adapt = cfgs.pop().expect("two modes");
        let adapt = cfgs.pop().expect("two modes");
        let mut stage = DesStage {
            spec,
            adapt,
            no_adapt,
            pairs_per_window: w.des.pairs_per_window,
            outcome: SimOutcome::default(),
        };
        let hwm_before = crate::procfs::vm_hwm_mb();
        let (a, _) = stage.run_one(AdaptMode::Adapt, tr)?;
        let hwm_growth = (crate::procfs::vm_hwm_mb() - hwm_before).max(0.0);
        let (n, _) = stage.run_one(AdaptMode::NoAdapt, tr)?;
        if a.timed_out || n.timed_out {
            return Err("workload hit the virtual-time cap".into());
        }
        stage.outcome = SimOutcome {
            recovery_s: recovery_secs(&stage.spec, &stage.adapt, &a),
            runtime_ratio: a.total_runtime.as_secs_f64() / n.total_runtime.as_secs_f64(),
            pair_events: a.events_processed + n.events_processed,
            steal_attempts: a.steal_attempts + n.steal_attempts,
            peer_cache_hits: a.peer_cache_hits + n.peer_cache_hits,
            decisions: a.decisions.len() as u64,
            holdfire_decisions: a.decisions.iter().filter(|d| d.hold_fire.is_some()).count() as u64,
            hwm_growth_bytes: (hwm_growth * 1024.0 * 1024.0) as u64,
        };
        Ok(stage)
    }

    fn run_one(&self, mode: AdaptMode, tr: &mut Tracer) -> Result<(RunResult, u64), String> {
        let cfg = match mode {
            AdaptMode::NoAdapt => self.no_adapt.clone(),
            _ => self.adapt.clone(),
        };
        let s = tr.enter("simgrid.try_run");
        let t = Instant::now();
        let r = black_box(GridSim::try_run(black_box(cfg)));
        let ns = t.elapsed().as_nanos() as u64;
        tr.exit(s);
        Ok((r?, ns))
    }

    /// One window: `pairs_per_window` Adapt + NoAdapt runs. A pair whose
    /// event count differs from the pinned one is a failed operation.
    pub fn window(&self, tr: &mut Tracer) -> DesWindow {
        let mut win = DesWindow::default();
        for _ in 0..self.pairs_per_window {
            let mut pair_events = 0;
            for mode in [AdaptMode::Adapt, AdaptMode::NoAdapt] {
                win.runs += 1;
                match self.run_one(mode, tr) {
                    Ok((r, ns)) => {
                        pair_events += r.events_processed;
                        win.events += r.events_processed;
                        win.wall_ns += ns;
                    }
                    Err(_) => win.failed += 1,
                }
            }
            if pair_events != self.outcome.pair_events {
                win.failed += 1;
            }
        }
        win
    }
}
