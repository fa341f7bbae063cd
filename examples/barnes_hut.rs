//! Barnes-Hut N-body on a work-stealing thread pool — the paper's
//! evaluation workload running for real on the threaded runtime.
//!
//! ```sh
//! cargo run --release --example barnes_hut -- [n_bodies] [iterations]
//! ```

use sagrid::apps::{BarnesHut, Body};
use sagrid::runtime::Runtime;
use std::sync::Arc;
use std::time::Instant;

/// Largest relative energy drift the run may show before it fails. Measured
/// drifts at θ = 0.5 and dt = 1e-3: 8e-7 (500 bodies, 3 iterations),
/// 2e-6 (4,000 bodies, 10), 3e-5 (500, 100) and 5e-5 (50, 20); the bound
/// leaves an order of magnitude over the worst of them.
const MAX_ENERGY_DRIFT: f64 = 1e-3;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4_000);
    let iterations: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);

    println!("Barnes-Hut: {n} Plummer-model bodies, {iterations} iterations");
    println!("pool: 4 worker threads\n");

    let rt = Runtime::new(4);
    let mut sim = BarnesHut::plummer(n, 42);
    let e0 = sim.total_energy();
    let p0 = sim.total_momentum();

    for it in 0..iterations {
        let t = Instant::now();
        // A job is an `Fn`, so each iteration's job captures an immutable
        // snapshot of the bodies and returns the advanced state.
        let snapshot: Arc<Vec<Body>> = Arc::new(sim.bodies().to_vec());
        let new_bodies = rt.run(move |ctx| {
            let step_sim = BarnesHut::new(snapshot.as_ref().clone(), 0.5, 1e-3);
            let (advanced, _acc) = BarnesHut::step_par(step_sim, ctx, 64);
            advanced.bodies().to_vec()
        });
        sim = BarnesHut::new(new_bodies, 0.5, 1e-3);
        println!("iteration {it:>3}: {:?}", t.elapsed());
    }

    let e1 = sim.total_energy();
    let p1 = sim.total_momentum();
    let drift = (e1 - e0) / e0.abs();
    println!("\nenergy   drift: {drift:+.3e} (relative)");
    println!(
        "momentum drift: [{:+.2e} {:+.2e} {:+.2e}]",
        p1[0] - p0[0],
        p1[1] - p0[1],
        p1[2] - p0[2]
    );
    rt.shutdown();
    assert!(
        drift.abs() < MAX_ENERGY_DRIFT,
        "relative energy drift {drift:+.3e} exceeds {MAX_ENERGY_DRIFT:e}"
    );
}
