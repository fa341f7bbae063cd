//! Adaptation policy: thresholds and sizing (paper §3.3).
//!
//! Eager, Zahorjan & Lazowska proved that at the *optimal* number of
//! processors (the knee of the efficiency/execution-time trade-off) the
//! efficiency is at least 0.5 — "therefore adding processors when efficiency
//! is ≤ 0.5 will only decrease the system utilization without significant
//! performance gains". The coordinator therefore grows above `E_MAX = 0.5`
//! and shrinks below `E_MIN = 0.3` (low efficiency indicates performance
//! problems such as low bandwidth or overloaded processors; removing the bad
//! processors is beneficial, and even when the cause is simply "too many
//! processors", removing some does not harm the application).
//!
//! The paper specifies only monotonicity for the grow/shrink sizes ("the
//! higher the efficiency, the more processors are requested"; "the lower the
//! efficiency, the more nodes are removed"); the concrete proportional rules
//! used here are documented in DESIGN.md.

use crate::badness::BadnessCoefficients;
use sagrid_core::time::SimDuration;

/// All tunables of the adaptation strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptPolicy {
    /// Shrink threshold: remove nodes when `wa_efficiency < e_min`.
    pub e_min: f64,
    /// Grow threshold: add nodes when `wa_efficiency > e_max`.
    pub e_max: f64,
    /// Badness formula coefficients.
    pub coefficients: BadnessCoefficients,
    /// A cluster whose average inter-cluster overhead exceeds this fraction
    /// is removed wholesale (its uplink bandwidth is insufficient).
    pub exceptional_ic_overhead: f64,
    /// Robustness condition on the exceptional-cluster rule: the worst
    /// cluster's ic-overhead must also be at least this factor above the
    /// second-worst cluster's. When wide-area overhead is high *everywhere*
    /// the problem is over-parallelism, not one bad uplink, and the
    /// proportional shrink path handles it instead.
    pub exceptional_ic_dominance: f64,
    /// Length of a monitoring period.
    pub monitoring_period: SimDuration,
    /// Benchmarking is throttled so its overhead stays below this fraction
    /// of each node's time (paper §3.2: the programmer specifies "the
    /// maximal overhead it is allowed to cause").
    pub benchmark_overhead_budget: f64,
    /// Future-work optimization (§3.2/§7): "combine benchmarking with
    /// monitoring the load of the processor, which would allow us to avoid
    /// running the benchmark if no change in processor load is detected".
    /// Off by default, exactly as in the paper; the ablation bench turns it
    /// on and measures the overhead reduction.
    pub load_aware_benchmarking: bool,
    /// Multiplier on the proportional grow size — how eagerly the
    /// coordinator chases high efficiency ("the higher the efficiency, the
    /// more processors are requested").
    pub growth_factor: f64,
    /// Cap on how many nodes one grow decision may request.
    pub max_growth_per_period: usize,
    /// When shrinking, *all* nodes whose badness exceeds this multiple of
    /// the median badness are removed (beyond the proportional count): the
    /// paper's scenario 3 removes every overloaded node after one period,
    /// so "remove the worst" extends to every clear outlier.
    pub badness_outlier_factor: f64,
    /// Never shrink the computation below this many nodes.
    pub min_nodes: usize,
    /// Remove removed resources from future consideration (paper §3.3:
    /// "currently we use blacklisting").
    pub blacklist_removed: bool,
    /// Future-work extension (§7): when efficiency sits between the
    /// thresholds but strictly faster nodes are available, migrate onto
    /// them. Off by default, exactly as in the paper ("we are currently not
    /// able to perform opportunistic migration"); the ablation bench turns
    /// it on.
    pub opportunistic_migration: bool,
    /// Opportunistic migration only triggers when the available nodes are at
    /// least this factor faster than the slowest node in use.
    pub opportunistic_speed_margin: f64,
}

impl Default for AdaptPolicy {
    fn default() -> Self {
        Self {
            e_min: 0.30,
            e_max: 0.50,
            coefficients: BadnessCoefficients::default(),
            exceptional_ic_overhead: 0.08,
            exceptional_ic_dominance: 1.5,
            monitoring_period: SimDuration::from_secs(180),
            benchmark_overhead_budget: 0.05,
            load_aware_benchmarking: false,
            growth_factor: 2.0,
            max_growth_per_period: 16,
            badness_outlier_factor: 3.0,
            min_nodes: 1,
            blacklist_removed: true,
            opportunistic_migration: false,
            opportunistic_speed_margin: 1.5,
        }
    }
}

impl AdaptPolicy {
    /// Validates internal consistency (thresholds ordered, fractions in
    /// range). Call after hand-constructing a policy.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.e_min) || !(0.0..=1.0).contains(&self.e_max) {
            return Err("thresholds must lie in [0,1]".into());
        }
        if self.e_min >= self.e_max {
            return Err(format!(
                "e_min ({}) must be below e_max ({})",
                self.e_min, self.e_max
            ));
        }
        if !(0.0..=1.0).contains(&self.exceptional_ic_overhead) {
            return Err("exceptional_ic_overhead must lie in [0,1]".into());
        }
        if self.exceptional_ic_dominance < 1.0 {
            return Err("exceptional_ic_dominance must be at least 1".into());
        }
        if !(0.0..1.0).contains(&self.benchmark_overhead_budget) {
            return Err("benchmark_overhead_budget must lie in [0,1)".into());
        }
        if self.monitoring_period == SimDuration::ZERO {
            return Err("monitoring period must be positive".into());
        }
        if self.min_nodes == 0 {
            return Err("min_nodes must be at least 1".into());
        }
        if self.badness_outlier_factor <= 1.0 {
            return Err("badness_outlier_factor must exceed 1".into());
        }
        if self.growth_factor <= 0.0 {
            return Err("growth_factor must be positive".into());
        }
        if self.max_growth_per_period == 0 {
            return Err("max_growth_per_period must be at least 1".into());
        }
        Ok(())
    }

    /// How many nodes to request when `wa_eff > e_max`, given the current
    /// node count. Monotonically increasing in `wa_eff`, at least 1, at most
    /// `max_growth_per_period`.
    pub fn grow_size(&self, wa_eff: f64, current_nodes: usize) -> usize {
        debug_assert!(wa_eff > self.e_max);
        let ratio = (wa_eff / self.e_max - 1.0) * self.growth_factor;
        let raw = (current_nodes as f64 * ratio).ceil() as usize;
        raw.clamp(1, self.max_growth_per_period)
    }

    /// How many nodes to remove when `wa_eff < e_min`. Monotonically
    /// increasing as the efficiency drops, at least 1, and never taking the
    /// computation below `min_nodes`.
    pub fn shrink_size(&self, wa_eff: f64, current_nodes: usize) -> usize {
        debug_assert!(wa_eff < self.e_min);
        let ratio = 1.0 - (wa_eff / self.e_min).clamp(0.0, 1.0);
        let raw = (current_nodes as f64 * ratio).ceil() as usize;
        let removable = current_nodes.saturating_sub(self.min_nodes);
        if removable == 0 {
            return 0;
        }
        raw.clamp(1, removable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid_and_matches_paper_thresholds() {
        let p = AdaptPolicy::default();
        p.validate().expect("default policy valid");
        assert_eq!(p.e_max, 0.5);
        assert_eq!(p.e_min, 0.3);
        assert!(!p.opportunistic_migration, "paper: not supported yet");
    }

    #[test]
    fn validation_catches_inverted_thresholds() {
        let p = AdaptPolicy {
            e_min: 0.6,
            e_max: 0.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_period_and_min_nodes() {
        let p = AdaptPolicy {
            monitoring_period: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = AdaptPolicy {
            min_nodes: 0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    /// A zero growth cap would make `grow_size` panic in `clamp(1, 0)`
    /// at the first `add`; it is rejected up front instead.
    #[test]
    fn validation_catches_zero_growth_cap() {
        let p = AdaptPolicy {
            max_growth_per_period: 0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn grow_is_monotone_in_efficiency() {
        let p = AdaptPolicy::default();
        let a = p.grow_size(0.55, 20);
        let b = p.grow_size(0.75, 20);
        let c = p.grow_size(0.95, 20);
        assert!(a <= b && b <= c);
        assert!(a >= 1);
    }

    #[test]
    fn grow_near_threshold_asks_for_one() {
        let p = AdaptPolicy::default();
        assert_eq!(p.grow_size(0.5001, 10), 1);
    }

    #[test]
    fn grow_is_capped() {
        let p = AdaptPolicy::default();
        assert_eq!(p.grow_size(1.0, 100), p.max_growth_per_period);
    }

    #[test]
    fn shrink_is_monotone_as_efficiency_drops() {
        let p = AdaptPolicy::default();
        let a = p.shrink_size(0.25, 20);
        let b = p.shrink_size(0.15, 20);
        let c = p.shrink_size(0.05, 20);
        assert!(a <= b && b <= c);
        assert!(a >= 1);
    }

    #[test]
    fn shrink_never_goes_below_min_nodes() {
        let p = AdaptPolicy {
            min_nodes: 4,
            ..Default::default()
        };
        assert_eq!(p.shrink_size(0.01, 5), 1);
        assert_eq!(p.shrink_size(0.01, 4), 0);
    }

    #[test]
    fn shrink_of_large_set_is_proportional() {
        let p = AdaptPolicy::default();
        // wa_eff = 0.15 → remove half.
        assert_eq!(p.shrink_size(0.15, 40), 20);
    }
}
