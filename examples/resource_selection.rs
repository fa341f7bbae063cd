//! Live model-free resource selection on real threads: start a saturated
//! two-worker pool, let the coordinator grow it; then slow half the pool
//! down and let the coordinator retire the overloaded workers.
//!
//! This is the paper's whole idea in one terminal session: no performance
//! model, only measured efficiency and measured speeds.
//!
//! ```sh
//! cargo run --release --example resource_selection
//! ```

use sagrid::adapt::AdaptPolicy;
use sagrid::apps::fib_par;
use sagrid::core::time::SimDuration;
use sagrid::runtime::{AdaptiveRuntime, Runtime, RuntimeConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let policy = AdaptPolicy {
        monitoring_period: SimDuration::from_millis(200),
        ..AdaptPolicy::default()
    };
    let rt = Runtime::new(RuntimeConfig::single_cluster(2));
    let mut adaptive = AdaptiveRuntime::new(rt, policy, vec![8]);

    println!("phase 1: 2 workers, saturating divide-and-conquer load");
    let stop = Arc::new(AtomicBool::new(false));
    let stop_bg = stop.clone();

    // The coordinator keeps only its latest decision; the example keeps
    // the history it prints at the end.
    let mut log = Vec::new();
    let rt_handle = adaptive.runtime_handle();
    std::thread::scope(|s| {
        // Background load: keep the pool saturated while we tick.
        let bg = s.spawn(move || {
            while !stop_bg.load(Ordering::Relaxed) {
                let _ = rt_handle.run(move |ctx| fib_par(ctx, 26, 14));
            }
        });

        for round in 0..4 {
            std::thread::sleep(Duration::from_millis(250));
            let d = adaptive.tick();
            log.extend(adaptive.last_decision().cloned());
            println!(
                "  tick {round}: wa_efficiency={:.3}, decision={}, workers={}",
                adaptive.coordinator().current_wa_efficiency(),
                d.kind(),
                adaptive.runtime().alive_workers().len()
            );
        }

        println!("\nphase 2: slowing half the pool to 20% speed (background load)");
        let workers = adaptive.runtime().alive_workers();
        for &w in workers.iter().take(workers.len() / 2) {
            adaptive.runtime().set_worker_speed(w, 0.2);
        }
        for round in 0..4 {
            std::thread::sleep(Duration::from_millis(250));
            let d = adaptive.tick();
            log.extend(adaptive.last_decision().cloned());
            println!(
                "  tick {round}: wa_efficiency={:.3}, decision={}, workers={}",
                adaptive.coordinator().current_wa_efficiency(),
                d.kind(),
                adaptive.runtime().alive_workers().len()
            );
        }

        stop.store(true, Ordering::Relaxed);
        let _ = bg.join();
    });

    println!("\ncoordinator decision log:");
    for e in &log {
        println!(
            "  t={:>6.2}s wa_eff={:.3} nodes={} {}",
            e.at.as_secs_f64(),
            e.wa_efficiency,
            e.nodes,
            e.decision.kind()
        );
    }
    adaptive.into_runtime().shutdown();
}
