//! Component micro-benchmarks: the building blocks whose throughput the
//! figure regeneration rests on.

use sagrid_adapt::badness::rank_nodes_by_badness;
use sagrid_adapt::{wa_efficiency_of_reports, BadnessCoefficients};
use sagrid_apps::BarnesHut;
use sagrid_bench::{measure, quick_mode};
use sagrid_core::config::GridConfig;
use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_core::stats::{MonitoringReport, OverheadBreakdown};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_core::workload::TreeShape;
use sagrid_runtime::Runtime;
use sagrid_simnet::{EventQueue, Network};
use std::hint::black_box;

fn reports(n: usize) -> Vec<MonitoringReport> {
    let mut rng = Xoshiro256StarStar::seeded(7);
    (0..n)
        .map(|i| {
            let busy = rng.gen_range(1_000_000);
            let idle = rng.gen_range(500_000);
            let inter = rng.gen_range(200_000);
            MonitoringReport {
                node: NodeId(i as u32),
                cluster: ClusterId((i % 5) as u16),
                period_end: SimTime::from_secs(180),
                breakdown: OverheadBreakdown {
                    busy: SimDuration(busy),
                    idle: SimDuration(idle),
                    inter_comm: SimDuration(inter),
                    ..Default::default()
                },
                speed: 0.2 + 0.8 * rng.gen_f64(),
            }
        })
        .collect()
}

fn main() {
    let samples = if quick_mode() { 5 } else { 20 };

    // Discrete-event kernel throughput.
    measure("micro/event_queue_100k_push_pop", 2, samples, || {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut rng = Xoshiro256StarStar::seeded(1);
        for i in 0..100_000u32 {
            let at = q.now() + SimDuration::from_micros(rng.gen_range(1_000));
            q.push(at, i);
            if i % 2 == 0 {
                black_box(q.pop());
            }
        }
        while q.pop().is_some() {}
        black_box(q.processed());
    });

    // The coordinator's per-period metric computations at DAS-2 scale.
    let rs = reports(200);
    measure("micro/wa_efficiency_200_reports", 10, 10 * samples, || {
        black_box(wa_efficiency_of_reports(rs.iter()));
    });
    let coeff = BadnessCoefficients::default();
    measure(
        "micro/badness_ranking_200_reports",
        10,
        10 * samples,
        || {
            black_box(rank_nodes_by_badness(&coeff, &rs, Some(ClusterId(2))));
        },
    );

    // Workload generation (per-iteration task tree).
    let shape = TreeShape {
        depth: 4,
        min_branch: 3,
        max_branch: 5,
        ..TreeShape::small()
    };
    let mut rng = Xoshiro256StarStar::seeded(3);
    measure("micro/task_tree_generation", 2, samples, || {
        let mut t = shape.generate(&mut rng);
        t.scale_payloads_by_subtree(8192);
        black_box(t.total_work());
    });

    // Network model: WAN deliveries with uplink queueing.
    measure("micro/network_10k_wan_deliveries", 2, samples, || {
        let mut net = Network::new(&GridConfig::das2());
        let mut t = SimTime::ZERO;
        for i in 0..10_000u64 {
            let d = net.deliver(
                t,
                ClusterId((i % 5) as u16),
                ClusterId(((i + 1) % 5) as u16),
                4096,
            );
            t += SimDuration::from_micros(50);
            black_box(d);
        }
    });

    // Barnes-Hut: one sequential step (tree build + force + integrate) on a
    // fresh system each sample, so integration drift never accumulates.
    measure("micro/barnes_hut_step_2000_bodies", 1, samples, || {
        let mut sim = BarnesHut::plummer(2_000, 11);
        black_box(sim.step_seq());
    });

    // The threaded runtime's spawn/steal machinery under a fine-grained
    // spawn tree.
    let rt = Runtime::new(4);
    measure("micro/threaded_fib_24_on_4_workers", 1, samples, || {
        black_box(rt.run(|ctx| sagrid_apps::fib_par(ctx, 24, 12)));
    });
    rt.shutdown();
}
