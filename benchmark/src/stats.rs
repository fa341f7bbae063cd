//! Order statistics over window samples, and the one run-value estimator.

/// Returns `v` sorted ascending (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Which way a timed metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A rate: interference only ever lowers a window.
    Higher,
    /// A time: interference only ever lengthens a window.
    Lower,
}

/// The run value of a timed metric from its per-window values: the best
/// quartile across windows (p75 of rates, p25 of times). Interference on
/// a shared machine is one-sided — a neighbour can only slow a window
/// down — so the undisturbed windows sit at the good end of the
/// distribution. Chosen from two A/A batches (README.md): on a drifting
/// machine the median of windows moved 10–21 % run to run and the best
/// decile least; on a quiet one the best decile chased lucky windows
/// (interquartile spread 6 %) and the median moved least. The best
/// quartile stayed at or under 6 % in both, about 4 % when quiet.
pub fn run_value(windows: &[f64], better: Better) -> f64 {
    let s = sorted(windows);
    match better {
        Better::Higher => quantile(&s, 0.75),
        Better::Lower => quantile(&s, 0.25),
    }
}

/// p75 / p25 of the windows: how far apart the quartiles of one run are.
pub fn window_spread(windows: &[f64]) -> f64 {
    let s = sorted(windows);
    let lo = quantile(&s, 0.25);
    if lo > 0.0 {
        quantile(&s, 0.75) / lo
    } else {
        0.0
    }
}
