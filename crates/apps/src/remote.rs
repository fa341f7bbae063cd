//! Serializable divide-and-conquer jobs for cross-process work stealing.
//!
//! An in-process task is a closure and cannot cross a process boundary. A
//! [`RemoteJob`] is the wire-friendly alternative: a small, self-contained
//! description of a subcomputation (application + arguments) that any
//! worker process can reconstruct and execute from scratch. Jobs are pure
//! — executing one twice yields the same value — which is what lets the
//! steal plane re-export or re-execute a job whose thief died without
//! corrupting the result (first result wins, duplicates are harmless).
//!
//! [`frontier`] turns one root job into many independent subjobs by
//! expanding the recursion a fixed number of levels; the subjob values sum
//! to exactly the root's value, so the process that exported them can
//! reassemble the final answer with plain addition.

use crate::fib::{fib_par, fib_seq};
use crate::nqueens::{nqueens_par_from, nqueens_seq_from};
use sagrid_runtime::WorkerCtx;

/// A [`RemoteJob`] decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemoteDecodeError {
    /// The payload ended before the job description did.
    Truncated,
    /// Bytes remained after the job was fully decoded.
    Trailing(usize),
    /// Unknown application tag.
    BadTag(u8),
}

impl std::fmt::Display for RemoteDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteDecodeError::Truncated => write!(f, "truncated remote job"),
            RemoteDecodeError::Trailing(n) => write!(f, "{n} trailing bytes after remote job"),
            RemoteDecodeError::BadTag(t) => write!(f, "unknown remote job tag {t:#04x}"),
        }
    }
}

impl std::error::Error for RemoteDecodeError {}

const TAG_FIB: u8 = 0x01;
const TAG_NQUEENS: u8 = 0x02;

/// One process-independent unit of divide-and-conquer work. Every variant
/// computes a `u64` (a sum or a count), so results travel in a single
/// fixed-width wire field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteJob {
    /// `fib(n)` with a sequential cutoff at `threshold`.
    Fib {
        /// The argument.
        n: u64,
        /// Sequential cutoff for the in-process parallel execution.
        threshold: u64,
    },
    /// Count N-queens solutions reachable from a partial placement.
    NQueens {
        /// Board size.
        n: u32,
        /// Column occupancy of the placed rows.
        cols: u32,
        /// Rising-diagonal occupancy, pre-shifted to the next row.
        d1: u32,
        /// Falling-diagonal occupancy, pre-shifted to the next row.
        d2: u32,
        /// Rows of further in-process spawning before going sequential.
        spawn_depth: u32,
    },
}

impl RemoteJob {
    /// Encodes the job as an opaque steal-plane payload (tag byte plus
    /// fixed-width little-endian fields, same conventions as the control
    /// plane).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        match self {
            RemoteJob::Fib { n, threshold } => {
                out.push(TAG_FIB);
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(&threshold.to_le_bytes());
            }
            RemoteJob::NQueens {
                n,
                cols,
                d1,
                d2,
                spawn_depth,
            } => {
                out.push(TAG_NQUEENS);
                for v in [n, cols, d1, d2, spawn_depth] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decodes a payload produced by [`RemoteJob::encode`]. The whole
    /// payload must be consumed.
    pub fn decode(buf: &[u8]) -> Result<RemoteJob, RemoteDecodeError> {
        let (&tag, rest) = buf.split_first().ok_or(RemoteDecodeError::Truncated)?;
        let want = match tag {
            TAG_FIB => 16,
            TAG_NQUEENS => 20,
            t => return Err(RemoteDecodeError::BadTag(t)),
        };
        if rest.len() < want {
            return Err(RemoteDecodeError::Truncated);
        }
        if rest.len() > want {
            return Err(RemoteDecodeError::Trailing(rest.len() - want));
        }
        let u64_at = |i: usize| u64::from_le_bytes(rest[i..i + 8].try_into().expect("8 bytes"));
        let u32_at = |i: usize| u32::from_le_bytes(rest[i..i + 4].try_into().expect("4 bytes"));
        Ok(match tag {
            TAG_FIB => RemoteJob::Fib {
                n: u64_at(0),
                threshold: u64_at(8),
            },
            _ => RemoteJob::NQueens {
                n: u32_at(0),
                cols: u32_at(4),
                d1: u32_at(8),
                d2: u32_at(12),
                spawn_depth: u32_at(16),
            },
        })
    }

    /// Executes the job on the local runtime, parallelizing in-process.
    pub fn execute(&self, ctx: &WorkerCtx<'_>) -> u64 {
        match *self {
            RemoteJob::Fib { n, threshold } => fib_par(ctx, n, threshold),
            RemoteJob::NQueens {
                n,
                cols,
                d1,
                d2,
                spawn_depth,
            } => nqueens_par_from(ctx, n, cols, d1, d2, spawn_depth),
        }
    }

    /// Sequential reference execution (ground truth in tests; also the
    /// cheapest path for leaf-sized jobs).
    pub fn execute_seq(&self) -> u64 {
        match *self {
            RemoteJob::Fib { n, .. } => fib_seq(n),
            RemoteJob::NQueens {
                n, cols, d1, d2, ..
            } => nqueens_seq_from(n, cols, d1, d2),
        }
    }

    /// One level of recursion: `Some(children)` whose values sum to this
    /// job's value, or `None` when the job is a leaf that must be kept.
    /// (An empty `Some` is a dead branch contributing 0 — droppable.)
    fn children(&self) -> Option<Vec<RemoteJob>> {
        match *self {
            RemoteJob::Fib { n, threshold } => {
                if n < 2 {
                    return None;
                }
                Some(vec![
                    RemoteJob::Fib {
                        n: n - 1,
                        threshold,
                    },
                    RemoteJob::Fib {
                        n: n - 2,
                        threshold,
                    },
                ])
            }
            RemoteJob::NQueens {
                n,
                cols,
                d1,
                d2,
                spawn_depth,
            } => {
                let full = if n == 0 { 0 } else { (1u32 << n) - 1 };
                if cols == full {
                    return None; // a complete placement: value 1
                }
                let mut free = !(cols | d1 | d2) & full;
                let mut kids = Vec::new();
                while free != 0 {
                    let bit = free & free.wrapping_neg();
                    free ^= bit;
                    kids.push(RemoteJob::NQueens {
                        n,
                        cols: cols | bit,
                        d1: (d1 | bit) << 1,
                        d2: (d2 | bit) >> 1,
                        spawn_depth,
                    });
                }
                Some(kids)
            }
        }
    }
}

/// Expands `root` `depth` levels into independent subjobs. The subjob
/// values sum to exactly `root`'s value, so a victim can export frontier
/// entries to thieves one by one and reassemble the root's answer by
/// adding up the results, in any order, with duplicates tolerated only if
/// each job's value is counted once.
pub fn frontier(root: RemoteJob, depth: u32) -> Vec<RemoteJob> {
    let mut current = vec![root];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(current.len() * 2);
        let mut expanded = false;
        for job in current.drain(..) {
            match job.children() {
                None => next.push(job), // leaf: keep its value
                Some(kids) => {
                    expanded = true;
                    next.extend(kids); // empty = dead branch, value 0
                }
            }
        }
        current = next;
        if !expanded {
            break; // all leaves: further levels change nothing
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nqueens::nqueens_seq;
    use sagrid_runtime::Runtime;

    #[test]
    fn jobs_round_trip_through_the_encoding() {
        let jobs = [
            RemoteJob::Fib {
                n: 36,
                threshold: 12,
            },
            RemoteJob::Fib {
                n: 0,
                threshold: u64::MAX,
            },
            RemoteJob::NQueens {
                n: 12,
                cols: 0b1010,
                d1: 0b100,
                d2: 0b1,
                spawn_depth: 3,
            },
        ];
        for job in jobs {
            let bytes = job.encode();
            assert_eq!(RemoteJob::decode(&bytes), Ok(job));
            // Every strict prefix fails.
            for cut in 0..bytes.len() {
                assert!(RemoteJob::decode(&bytes[..cut]).is_err(), "{job:?}@{cut}");
            }
            // Trailing garbage fails.
            let mut long = bytes.clone();
            long.push(0);
            assert_eq!(
                RemoteJob::decode(&long),
                Err(RemoteDecodeError::Trailing(1))
            );
        }
        assert_eq!(
            RemoteJob::decode(&[0x7f]),
            Err(RemoteDecodeError::BadTag(0x7f))
        );
        assert_eq!(RemoteJob::decode(&[]), Err(RemoteDecodeError::Truncated));
    }

    #[test]
    fn fib_frontier_values_sum_to_the_root() {
        let root = RemoteJob::Fib {
            n: 20,
            threshold: 8,
        };
        for depth in [0u32, 1, 3, 7] {
            let jobs = frontier(root, depth);
            let sum: u64 = jobs.iter().map(|j| j.execute_seq()).sum();
            assert_eq!(sum, fib_seq(20), "depth {depth} ({} jobs)", jobs.len());
        }
        // Depth 7 really fans out.
        assert!(frontier(root, 7).len() > 20);
    }

    #[test]
    fn nqueens_frontier_values_sum_to_the_root() {
        let root = RemoteJob::NQueens {
            n: 8,
            cols: 0,
            d1: 0,
            d2: 0,
            spawn_depth: 2,
        };
        for depth in [0u32, 1, 2, 4] {
            let jobs = frontier(root, depth);
            let sum: u64 = jobs.iter().map(|j| j.execute_seq()).sum();
            assert_eq!(sum, nqueens_seq(8), "depth {depth}");
        }
    }

    #[test]
    fn frontier_of_a_leaf_is_the_leaf() {
        let leaf = RemoteJob::Fib { n: 1, threshold: 0 };
        assert_eq!(frontier(leaf, 10), vec![leaf]);
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let rt = Runtime::new(2);
        for job in [
            RemoteJob::Fib {
                n: 18,
                threshold: 8,
            },
            RemoteJob::NQueens {
                n: 7,
                cols: 0,
                d1: 0,
                d2: 0,
                spawn_depth: 2,
            },
        ] {
            assert_eq!(rt.run(move |ctx| job.execute(ctx)), job.execute_seq());
        }
        rt.shutdown();
    }
}
