//! Quickstart: write a divide-and-conquer program and run it on a
//! work-stealing thread pool.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The pool serves one node. Malleability and fault tolerance live a level
//! up, where whole worker processes join, leave and crash; to watch a
//! SIGKILLed worker get detected, blacklisted and refused on rejoin, build
//! the workspace and run
//! `target/release/grid-local --scenario-file scenarios/node_crash.json`.

use sagrid::apps::{fib_par, fib_seq, nqueens_par, nqueens_seq};
use sagrid::runtime::Runtime;
use std::time::Instant;

fn main() {
    // A pool of 4 worker threads.
    let rt = Runtime::new(4);

    // --- Fibonacci: the classic spawn/sync example -----------------------
    let n = 32;
    let t = Instant::now();
    let par = rt.run(move |ctx| fib_par(ctx, n, 16));
    let par_time = t.elapsed();
    let t = Instant::now();
    let seq = fib_seq(n);
    let seq_time = t.elapsed();
    assert_eq!(par, seq);
    println!("fib({n}) = {par}");
    println!("  sequential: {seq_time:?}");
    println!("  4 workers:  {par_time:?}");

    // --- N-queens: irregular search --------------------------------------
    let q = 12;
    let t = Instant::now();
    let solutions = rt.run(move |ctx| nqueens_par(ctx, q, 3));
    println!("\n{q}-queens has {solutions} solutions ({:?})", t.elapsed());
    assert_eq!(solutions, nqueens_seq(q));

    rt.shutdown();
}
