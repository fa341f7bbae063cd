//! The checked-in files under `scenarios/` are the data form of the
//! paper's hand-coded perturbation schedules. Two contracts hold:
//!
//! * every file is in the canonical form `ScenarioSpec::to_json`
//!   produces (parse → re-serialise is the identity on the bytes), and
//! * the paper files, through `Scenario::config`, drive the DES to the
//!   JSONL traces pinned (by digest) when the hand-coded schedules they
//!   replaced were deleted.

use sagrid_core::metrics::Metrics;
use sagrid_exp::scenarios::{Scenario, ScenarioId};
use sagrid_scenario::ScenarioSpec;
use sagrid_simgrid::{AdaptMode, GridSim};
use std::path::PathBuf;

const ALL_FILES: &[&str] = &[
    "s1.json",
    "s2a.json",
    "s2b.json",
    "s2c.json",
    "s3.json",
    "s4.json",
    "s5.json",
    "s6.json",
    "diurnal.json",
    "flash_crowd.json",
    "correlated_failure.json",
    "brownout.json",
    "mass_crash.json",
    "node_crash.json",
    "slow_node.json",
];

fn read(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn every_checked_in_file_is_canonical() {
    for file in ALL_FILES {
        let text = read(file);
        let spec = ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            spec.to_json(),
            text,
            "{file} is not in canonical `to_json` form"
        );
        spec.sim_config(AdaptMode::Adapt)
            .unwrap_or_else(|e| panic!("{file}: invalid config: {e}"));
    }
}

/// FNV-1a (64-bit) of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(label, byte length, FNV-1a)` of the metrics JSONL of each paper
/// scenario's quick Adapt run, recorded at the last commit that still
/// carried the hand-coded S1–S6 schedules — where a test proved the files
/// and the hand-coded configurations byte-identical. `Scenario::config`
/// now builds from the files alone, so these pins are what keeps that
/// behaviour guarded: a changed digest means a changed simulation.
const QUICK_RUN_DIGESTS: &[(&str, usize, u64)] = &[
    ("1", 3741, 0xf90f9abe76de303f),
    ("2a", 3469, 0xa2e1cd1042d6ae90),
    ("2b", 2467, 0xf2e69841e655cd5b),
    ("2c", 2984, 0xa98de38feb22b63f),
    ("3", 3742, 0xcce8344693138918),
    ("4", 3846, 0x05a86dca024706eb),
    ("5", 9313, 0xf57c8cc703b07e53),
    ("6", 3742, 0xf2ae5681330ea739),
];

#[test]
fn paper_scenarios_reproduce_the_pinned_quick_run_digests() {
    let ids = ScenarioId::all();
    assert_eq!(ids.len(), QUICK_RUN_DIGESTS.len());
    for (id, &(label, len, hash)) in ids.into_iter().zip(QUICK_RUN_DIGESTS) {
        assert_eq!(id.label(), label);
        let cfg = Scenario::quick(id).config(AdaptMode::Adapt);
        let result = GridSim::try_run_with_metrics(cfg, Metrics::enabled()).expect("run fails");
        let trace = result.metrics.expect("metrics enabled").to_jsonl();
        assert_eq!(
            (trace.len(), fnv1a(trace.as_bytes())),
            (len, hash),
            "scenario {label} no longer reproduces its pinned run"
        );
    }
}
