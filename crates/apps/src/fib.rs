//! Fibonacci — the canonical Satin spawn/sync example.
//!
//! Useless as mathematics, perfect as a runtime stress test: the spawn tree
//! is huge, tasks are tiny, and any bookkeeping overhead or lost-task bug
//! shows up immediately as a wrong sum.

use sagrid_runtime::WorkerCtx;

/// Sequential reference.
pub fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

/// Parallel divide-and-conquer version with a sequential cutoff below
/// `threshold` (Satin programs use the same idiom to bound spawn overhead).
pub fn fib_par(ctx: &WorkerCtx<'_>, n: u64, threshold: u64) -> u64 {
    if n < 2 {
        return n;
    }
    if n <= threshold {
        return fib_seq(n);
    }
    let t = threshold;
    let a = ctx.spawn(move |ctx| fib_par(ctx, n - 1, t));
    let b = fib_par(ctx, n - 2, threshold);
    a.join(ctx) + b
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_runtime::Runtime;

    #[test]
    fn sequential_base_cases() {
        assert_eq!(fib_seq(0), 0);
        assert_eq!(fib_seq(1), 1);
        assert_eq!(fib_seq(10), 55);
        assert_eq!(fib_seq(20), 6765);
    }

    #[test]
    fn parallel_matches_sequential() {
        let rt = Runtime::new(4);
        for n in [0u64, 1, 5, 18, 24] {
            let expected = fib_seq(n);
            assert_eq!(rt.run(move |ctx| fib_par(ctx, n, 10)), expected, "fib({n})");
        }
        rt.shutdown();
    }

    #[test]
    fn threshold_zero_still_correct() {
        let rt = Runtime::new(2);
        assert_eq!(rt.run(|ctx| fib_par(ctx, 14, 0)), fib_seq(14));
        rt.shutdown();
    }
}
