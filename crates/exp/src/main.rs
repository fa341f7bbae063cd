//! `experiments` — regenerates every table and figure of the paper's
//! evaluation.
//!
//! ```text
//! experiments [--all] [--figure N] [--table s1] [--ablations]
//!             [--quick] [--serial] [--out DIR] [--emit-metrics DIR]
//!             [--scenario FILE] [--fuzz N] [--fuzz-seed SEED]
//! ```
//!
//! With no arguments, runs everything at paper scale and prints the
//! paper-style reports to stdout. `--out DIR` additionally writes CSV series
//! for external plotting. `--quick` shortens runs (for smoke testing).
//! `--emit-metrics DIR` enables the metrics registry for every batched run
//! and writes one `run_NNNN.jsonl` stream (counters, gauges, histograms and
//! the structured event log, decisions included) plus one
//! `run_NNNN_gantt.csv` activity trace per run; stdout stays byte-identical
//! to a plain invocation.
//!
//! Independent simulation runs are fanned out over a worker pool sized by
//! the `SAGRID_THREADS` environment variable (default: all cores); every
//! byte of output is identical whatever the pool size. `--serial` forces a
//! single worker.
//!
//! `--scenario FILE` runs one declarative scenario file (see
//! `sagrid_scenario::spec`) through the DES with metrics enabled and
//! gates on the adaptation invariants; the process exits non-zero on any
//! violation. `--fuzz N` runs `N` seeded random scenarios (seeds
//! `SEED..SEED+N`, `--fuzz-seed` defaults to 0) the same way, printing a
//! one-line re-run command for every failing seed.
//!
//! A bad argument prints the usage line to stderr and exits 2; `--help`
//! prints it to stdout.

use sagrid_adapt::AdaptPolicy;
use sagrid_exp::report;
use sagrid_exp::runner::{run_scenarios, ScenarioOutcome};
use sagrid_exp::scenarios::{Scenario, ScenarioId, SubScenario};
use sagrid_exp::{ablation, parallel, runner};
use sagrid_simgrid::AdaptMode;
use std::path::PathBuf;

struct Args {
    figures: Vec<u32>,
    table_s1: bool,
    ablations: bool,
    quick: bool,
    serial: bool,
    out: Option<PathBuf>,
    emit_metrics: Option<PathBuf>,
    scenario: Option<PathBuf>,
    fuzz: Option<u64>,
    fuzz_seed: u64,
}

const USAGE: &str = "usage: experiments [--all] [--figure N] [--table s1] [--ablations]
                   [--quick] [--serial] [--out DIR] [--emit-metrics DIR]
                   [--scenario FILE] [--fuzz N] [--fuzz-seed SEED]";

/// Parses the command line; `Ok(None)` asks for the usage text.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        figures: Vec::new(),
        table_s1: false,
        ablations: false,
        quick: false,
        serial: false,
        out: None,
        emit_metrics: None,
        scenario: None,
        fuzz: None,
        fuzz_seed: 0,
    };
    let mut all = true;
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{a} takes {what}"));
        match a.as_str() {
            "--help" | "-h" => return Ok(None),
            "--all" => all = true,
            "--figure" => {
                all = false;
                let what = "a figure number (1, 3..7)";
                let n = value(what)?
                    .parse()
                    .ok()
                    .filter(|n| matches!(n, 1 | 3..=7))
                    .ok_or_else(|| format!("--figure takes {what}"))?;
                args.figures.push(n);
            }
            "--table" => {
                all = false;
                let t = value("a table name (s1)")?;
                if t != "s1" {
                    return Err(format!("unknown table {t:?}; only s1 exists"));
                }
                args.table_s1 = true;
            }
            "--ablations" => {
                all = false;
                args.ablations = true;
            }
            "--quick" => args.quick = true,
            "--serial" => args.serial = true,
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--emit-metrics" => args.emit_metrics = Some(PathBuf::from(value("a directory")?)),
            "--scenario" => {
                all = false;
                args.scenario = Some(PathBuf::from(value("a scenario file")?));
            }
            "--fuzz" => {
                all = false;
                let n = value("a seed count")?;
                args.fuzz = Some(
                    n.parse()
                        .map_err(|_| format!("--fuzz takes a seed count, not {n:?}"))?,
                );
            }
            "--fuzz-seed" => {
                let n = value("an integer seed")?;
                args.fuzz_seed = n
                    .parse()
                    .map_err(|_| format!("--fuzz-seed takes an integer seed, not {n:?}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if all {
        args.figures = vec![1, 3, 4, 5, 6, 7];
        args.table_s1 = true;
        args.ablations = true;
    }
    Ok(Some(args))
}

fn scenario(id: ScenarioId, quick: bool) -> Scenario {
    if quick {
        Scenario::quick(id)
    } else {
        Scenario::new(id)
    }
}

/// Runs one declarative scenario file through the DES with metrics on and
/// gates on the adaptation invariants. Returns `true` when the gate
/// failed. With an `--emit-metrics` directory, the run's JSONL stream is
/// written there as `scenario_<name>.jsonl`.
fn run_scenario_file(path: &std::path::Path, emit_dir: Option<&std::path::Path>) -> bool {
    use sagrid_core::metrics::Metrics;
    use sagrid_scenario::{check_jsonl, InvariantConfig, ScenarioSpec};

    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read scenario file {}: {e}", path.display()));
    let spec = ScenarioSpec::parse(&text)
        .unwrap_or_else(|e| panic!("invalid scenario file {}: {e}", path.display()));
    let cfg = spec
        .sim_config(sagrid_simgrid::AdaptMode::Adapt)
        .unwrap_or_else(|e| panic!("scenario {} does not compile: {e}", spec.name));
    println!("== SCENARIO {} ==\n", spec.name);
    if !spec.description.is_empty() {
        println!("  {}", spec.description);
    }
    let monitoring_secs = spec.monitoring_period_secs.unwrap_or(180);
    let result = sagrid_simgrid::GridSim::try_run_with_metrics(cfg, Metrics::enabled())
        .expect("validated scenario config must run");
    let jsonl = result.metrics.as_ref().expect("metrics enabled").to_jsonl();
    if let Some(dir) = emit_dir {
        let out = dir.join(format!("scenario_{}.jsonl", spec.name));
        std::fs::write(&out, &jsonl).expect("write scenario metrics stream");
    }
    println!(
        "  runtime {:.1}s  iterations {}/{}  events processed {}  decisions {}{}",
        result.total_runtime.as_secs_f64(),
        result.iteration_durations.len(),
        spec.iterations,
        result.events_processed,
        result.decisions.len(),
        if result.timed_out { "  TIMED OUT" } else { "" },
    );
    let inv = InvariantConfig {
        settle_us: monitoring_secs * 2_000_000,
        expected_iterations: (!result.timed_out).then_some(spec.iterations as u64),
        ..InvariantConfig::default()
    };
    let violations = check_jsonl(&jsonl, &inv);
    if violations.is_empty() && !result.timed_out {
        println!("  invariants: PASS\n");
        false
    } else {
        for v in &violations {
            println!("  invariant VIOLATED: {v}");
        }
        if result.timed_out {
            println!("  invariant VIOLATED: run hit the virtual-time cap");
        }
        println!();
        true
    }
}

/// Runs `n` seeded fuzz scenarios (seeds `base..base+n`) and reports per
/// seed. Returns `true` when any seed failed.
fn run_fuzz(n: u64, base: u64) -> bool {
    use sagrid_scenario::fuzz;

    println!("== FUZZ: {n} seeded scenarios from seed {base} ==\n");
    let mut failures = 0u64;
    for seed in base..base.saturating_add(n) {
        let out = fuzz::run_seed(seed);
        if out.violations.is_empty() {
            println!(
                "  seed {seed}: PASS  ({} events, {} jsonl lines)",
                out.spec.events.len(),
                out.jsonl.lines().count()
            );
        } else {
            failures += 1;
            println!("  seed {seed}: FAIL");
            for v in &out.violations {
                println!("      {v}");
            }
            println!("      rerun: {}", fuzz::rerun_command(seed));
        }
    }
    println!("\n  {n} seeds, {failures} failures.\n");
    failures > 0
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("experiments: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.serial {
        parallel::set_thread_override(Some(1));
    }
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }
    if let Some(dir) = &args.emit_metrics {
        std::fs::create_dir_all(dir).expect("create --emit-metrics directory");
        parallel::set_emit_dir(Some(dir.clone()));
    }

    let mut gate_failed = false;
    if let Some(path) = &args.scenario {
        gate_failed |= run_scenario_file(path, args.emit_metrics.as_deref());
    }
    if let Some(n) = args.fuzz {
        gate_failed |= run_fuzz(n, args.fuzz_seed);
    }
    if gate_failed {
        std::process::exit(1);
    }

    if args.figures.contains(&1) {
        println!("== FIG-1: total runtimes across all scenarios ==\n");
        let batch: Vec<(Scenario, bool)> = ScenarioId::all()
            .into_iter()
            .map(|id| {
                let with_monitor = matches!(id, ScenarioId::S1Overhead);
                (scenario(id, args.quick), with_monitor)
            })
            .collect();
        let fig1_outcomes: Vec<ScenarioOutcome> = run_scenarios(&batch);
        print!("{}", report::figure1(&fig1_outcomes));
        println!();
        if let Some(dir) = &args.out {
            report::write_figure1_csv(&dir.join("fig1_runtimes.csv"), &fig1_outcomes)
                .expect("write fig1 csv");
        }
    }

    let figure_map: [(u32, ScenarioId, &str); 5] = [
        (
            3,
            ScenarioId::S2Expand(SubScenario::A),
            "FIG-3: iteration durations, expanding (start on 8 nodes)",
        ),
        (
            4,
            ScenarioId::S3OverloadedCpus,
            "FIG-4: iteration durations, overloaded CPUs",
        ),
        (
            5,
            ScenarioId::S4OverloadedLink,
            "FIG-5: iteration durations, overloaded network link",
        ),
        (
            6,
            ScenarioId::S5CpusAndLink,
            "FIG-6: iteration durations, overloaded CPUs + network link",
        ),
        (
            7,
            ScenarioId::S6Crash,
            "FIG-7: iteration durations, crashing nodes",
        ),
    ];
    // One batch for every requested iteration figure (figure 3 brings its
    // 2b/2c sub-scenarios along); results come back in push order.
    let requested: Vec<(u32, &str)> = figure_map
        .iter()
        .filter(|(fignum, _, _)| args.figures.contains(fignum))
        .map(|&(fignum, _, title)| (fignum, title))
        .collect();
    let mut fig_batch: Vec<(Scenario, bool)> = Vec::new();
    for &(fignum, id, _) in &figure_map {
        if !args.figures.contains(&fignum) {
            continue;
        }
        fig_batch.push((scenario(id, args.quick), false));
        if fignum == 3 {
            for sub in [SubScenario::B, SubScenario::C] {
                fig_batch.push((scenario(ScenarioId::S2Expand(sub), args.quick), false));
            }
        }
    }
    let mut fig_outcomes = run_scenarios(&fig_batch).into_iter();
    for (fignum, title) in requested {
        let out = fig_outcomes.next().expect("one outcome per figure");
        println!("== {title} ==\n");
        print!("{}", report::iteration_figure(title, &out));
        println!();
        if fignum == 3 {
            // Figure 3 also covers sub-scenarios 2b and 2c.
            for name in ["16", "24"] {
                let o = fig_outcomes.next().expect("one outcome per sub-scenario");
                println!(
                    "   start on {name} nodes: no-adapt {}, adapt {} ({:+.1}%)",
                    report::fmt_time(sagrid_core::time::SimTime(o.no_adapt.total_runtime.0)),
                    report::fmt_time(sagrid_core::time::SimTime(o.adapt.total_runtime.0)),
                    -o.improvement() * 100.0
                );
                if let Some(dir) = &args.out {
                    report::write_iteration_csv(&dir.join(format!("fig3_start{name}.csv")), &o)
                        .expect("write csv");
                }
            }
            println!();
        }
        if let Some(dir) = &args.out {
            report::write_iteration_csv(&dir.join(format!("fig{fignum}.csv")), &out)
                .expect("write csv");
        }
    }

    if args.table_s1 {
        println!("== TAB-S1: adaptivity overhead vs monitoring period ==\n");
        let periods: &[u64] = if args.quick {
            &[60, 180]
        } else {
            &[180, 300, 600, 900]
        };
        let s = scenario(ScenarioId::S1Overhead, args.quick);
        // Baseline plus the whole monitoring-period sweep, one batch.
        let mut configs = vec![s.config(AdaptMode::NoAdapt)];
        configs.extend(periods.iter().map(|&p| {
            let mut cfg = s.config(AdaptMode::Adapt);
            cfg.policy = AdaptPolicy {
                monitoring_period: sagrid_core::time::SimDuration::from_secs(p),
                ..cfg.policy
            };
            cfg
        }));
        let mut results = parallel::run_batch(configs).into_iter();
        let t1 = results
            .next()
            .expect("baseline result")
            .total_runtime
            .as_secs_f64();
        let rows: Vec<(u64, f64, f64)> = periods
            .iter()
            .zip(results)
            .map(|(&p, r)| {
                let overhead = r.total_runtime.as_secs_f64() / t1 - 1.0;
                (p, overhead, r.benchmark_fraction())
            })
            .collect();
        print!("{}", report::table_s1(&rows));
        println!();
    }

    if args.ablations {
        println!("== ABL-1: badness-coefficient sensitivity (scenario 3) ==\n");
        let rows =
            ablation::badness_coefficients(&scenario(ScenarioId::S3OverloadedCpus, args.quick));
        for r in &rows {
            println!(
                "  {:<36} adapt runtime {:>8.1}s  improvement {:+.1}%",
                r.name,
                r.adapt_runtime_secs,
                r.improvement * 100.0
            );
        }
        println!();

        println!("== ABL-2: cluster-aware vs plain random stealing ==\n");
        let (crs, rnd) =
            ablation::crs_vs_random(&scenario(ScenarioId::S2Expand(SubScenario::C), args.quick));
        println!("  CRS:           {}", report::summarize_run(&crs));
        println!("  random-global: {}", report::summarize_run(&rnd));
        println!();

        if !args.quick {
            println!("== ABL-3: opportunistic migration (scenario 5) ==\n");
            let (off, on) = ablation::opportunistic_migration();
            println!("  extension off: {}", report::summarize_run(&off));
            println!("  extension on:  {}", report::summarize_run(&on));
            println!();
        }

        println!("== ABL-4: load-aware benchmarking (scenario 1, monitor-only) ==\n");
        let (off, on) =
            ablation::load_aware_benchmarking(&scenario(ScenarioId::S1Overhead, args.quick));
        println!(
            "  periodic benchmarks:   benchmark share {:>5.2}%  ({})",
            off.benchmark_fraction() * 100.0,
            report::summarize_run(&off)
        );
        println!(
            "  load-aware benchmarks: benchmark share {:>5.2}%  ({})",
            on.benchmark_fraction() * 100.0,
            report::summarize_run(&on)
        );
        println!();
    }

    // A convenience check the CI-style invocation can grep for.
    let _ = runner::run_scenario; // (module is exercised above)
    println!("experiments complete.");
}
