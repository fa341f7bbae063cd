//! N-queens — irregular combinatorial search.
//!
//! Satin's flagship irregular application class: subtree sizes differ by
//! orders of magnitude depending on how early the partial placement runs
//! into conflicts, exactly the "task sizes vary by many orders of
//! magnitude" property the paper's benchmarking section calls out.

use sagrid_runtime::WorkerCtx;

/// Counts solutions to the N-queens problem, sequentially.
pub fn nqueens_seq(n: u32) -> u64 {
    if n == 0 {
        return 1; // the empty placement
    }
    nqueens_seq_from(n, 0, 0, 0)
}

/// Counts solutions reachable from a partial placement, sequentially.
///
/// `cols`, `d1`, `d2` are the column / rising-diagonal / falling-diagonal
/// occupancy bitmasks of the rows placed so far, with the diagonal masks
/// already shifted to the next row — the state the cross-process steal
/// plane ships in a `sagrid_apps::remote` job.
pub fn nqueens_seq_from(n: u32, cols: u32, d1: u32, d2: u32) -> u64 {
    if cols == (1 << n) - 1 {
        return 1;
    }
    let mut free = !(cols | d1 | d2) & ((1 << n) - 1);
    let mut count = 0;
    while free != 0 {
        let bit = free & free.wrapping_neg();
        free ^= bit;
        count += nqueens_seq_from(n, cols | bit, (d1 | bit) << 1, (d2 | bit) >> 1);
    }
    count
}

/// Parallel N-queens: spawn a job per feasible queen position until
/// `spawn_depth` rows are placed, then continue sequentially.
pub fn nqueens_par(ctx: &WorkerCtx<'_>, n: u32, spawn_depth: u32) -> u64 {
    if n == 0 {
        return 1;
    }
    nqueens_par_from(ctx, n, 0, 0, 0, spawn_depth)
}

/// Parallel N-queens from a partial placement (bitmask conventions as in
/// [`nqueens_seq_from`]): `spawn_depth` further rows spawn jobs, the rest
/// runs sequentially.
pub fn nqueens_par_from(
    ctx: &WorkerCtx<'_>,
    n: u32,
    cols: u32,
    d1: u32,
    d2: u32,
    spawn_depth: u32,
) -> u64 {
    if cols == (1 << n) - 1 {
        return 1;
    }
    if spawn_depth == 0 {
        return nqueens_seq_from(n, cols, d1, d2);
    }
    let mut free = !(cols | d1 | d2) & ((1 << n) - 1);
    let mut handles = Vec::new();
    while free != 0 {
        let bit = free & free.wrapping_neg();
        free ^= bit;
        let (nc, nd1, nd2) = (cols | bit, (d1 | bit) << 1, (d2 | bit) >> 1);
        handles.push(ctx.spawn(move |ctx| nqueens_par_from(ctx, n, nc, nd1, nd2, spawn_depth - 1)));
    }
    handles.into_iter().map(|h| h.join(ctx)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_runtime::Runtime;

    /// Known solution counts for N = 0..=10.
    const KNOWN: [u64; 11] = [1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724];

    #[test]
    fn sequential_matches_known_counts() {
        for (n, &expected) in KNOWN.iter().enumerate() {
            assert_eq!(nqueens_seq(n as u32), expected, "n={n}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let rt = Runtime::new(4);
        for n in [6u32, 8, 9] {
            let expected = nqueens_seq(n);
            assert_eq!(rt.run(move |ctx| nqueens_par(ctx, n, 2)), expected, "n={n}");
        }
        rt.shutdown();
    }

    #[test]
    fn spawn_depth_zero_degenerates_to_sequential() {
        let rt = Runtime::new(2);
        assert_eq!(rt.run(|ctx| nqueens_par(ctx, 8, 0)), 92);
        rt.shutdown();
    }

    #[test]
    fn deep_spawning_still_correct() {
        let rt = Runtime::new(4);
        assert_eq!(rt.run(|ctx| nqueens_par(ctx, 8, 8)), 92);
        rt.shutdown();
    }
}
