//! Randomized property tests for the discrete-event substrate, driven by
//! the in-repo fixed-seed RNG so every case is reproducible offline.

use sagrid_core::config::GridConfig;
use sagrid_core::ids::ClusterId;
use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_simnet::{
    EventQueue, Injection, InjectionSchedule, Network, QueueBackend, ScheduledInjection, SharedLink,
};

const CASES: u64 = 150;

fn rng_for(test: u64, case: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seeded(0x51E7_0000 + test * 1_000 + case)
}

/// A shared link is FIFO: transmissions enqueued in order clear in order,
/// and total carriage equals the sum of bytes.
#[test]
fn shared_link_is_fifo() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let n = 1 + rng.gen_index(49);
        let sizes: Vec<u64> = (0..n).map(|_| 1 + rng.gen_range(999_999)).collect();
        let mut link = SharedLink::new(SimDuration::from_millis(1), 1_000_000.0);
        let mut last_clear = SimTime::ZERO;
        let mut total = 0u64;
        for (i, &bytes) in sizes.iter().enumerate() {
            let now = SimTime::from_millis(i as u64); // senders arrive over time
            let clear = link.transmit(now, bytes);
            assert!(clear >= last_clear, "case {case}: FIFO violated");
            assert!(clear >= now, "case {case}");
            last_clear = clear;
            total += bytes;
        }
        assert_eq!(link.bytes_carried(), total, "case {case}");
    }
}

/// Delivery time is monotone in message size on a fresh path, and queueing
/// only ever delays (never reorders) same-direction traffic.
#[test]
fn deliveries_queue_in_order() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let n = 1 + rng.gen_index(39);
        let mut net = Network::new(&GridConfig::uniform(2, 2));
        net.set_uplink_bandwidth(ClusterId(0), 200_000.0);
        let mut last_arrival = SimTime::ZERO;
        for _ in 0..n {
            let bytes = 1 + rng.gen_range(499_999);
            let d = net.deliver(SimTime::ZERO, ClusterId(0), ClusterId(1), bytes);
            assert!(
                d.arrives_at >= last_arrival,
                "case {case}: same-direction reorder"
            );
            last_arrival = d.arrives_at;
        }
    }
}

/// The uplink backlog drains: after waiting out the backlog, a fresh
/// message meets an idle link.
#[test]
fn backlog_eventually_drains() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let bytes = 1 + rng.gen_range(999_999);
        let mut net = Network::new(&GridConfig::uniform(2, 2));
        let d1 = net.deliver(SimTime::ZERO, ClusterId(0), ClusterId(1), bytes);
        let later = d1.arrives_at + SimDuration::from_secs(1);
        let d2 = net.deliver(later, ClusterId(0), ClusterId(1), bytes);
        let first_latency = d1.arrives_at.saturating_since(SimTime::ZERO);
        let second_latency = d2.arrives_at.saturating_since(later);
        // Allow a microsecond of rounding.
        assert!(
            second_latency <= first_latency + SimDuration::from_micros(1),
            "case {case}"
        );
    }
}

/// The event queue never loses events: everything pushed is popped exactly
/// once, in time order.
#[test]
fn event_queue_conserves_events() {
    for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
        for case in 0..CASES {
            let mut rng = rng_for(4, case);
            let n = 1 + rng.gen_index(199);
            let times: Vec<u64> = (0..n).map(|_| rng.gen_range(1_000_000)).collect();
            let mut q: EventQueue<usize> = EventQueue::with_backend(backend);
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime(t), i);
            }
            let mut seen = vec![false; times.len()];
            let mut last = SimTime::ZERO;
            while let Some((t, i)) = q.pop() {
                assert!(t >= last, "{backend:?} case {case}");
                assert!(!seen[i], "{backend:?} case {case}: event popped twice");
                assert_eq!(t, SimTime(times[i]), "{backend:?} case {case}");
                seen[i] = true;
                last = t;
            }
            assert!(seen.iter().all(|&s| s), "{backend:?} case {case}");
        }
    }
}

/// Under a randomized interleaving of pushes (including pushes relative to
/// the advancing clock, far-future spills past the wheel horizon, and
/// already-due times) and pops, the wheel and the heap emit the exact same
/// `(time, payload)` sequence.
#[test]
fn wheel_and_heap_pop_identically() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let mut wheel: EventQueue<usize> = EventQueue::with_backend(QueueBackend::Wheel);
        let mut heap: EventQueue<usize> = EventQueue::with_backend(QueueBackend::Heap);
        let mut next_id = 0usize;
        for _ in 0..500 {
            if rng.gen_index(3) > 0 || wheel.is_empty() {
                // Mostly near-future pushes, occasionally beyond the
                // 2^36 µs wheel horizon to exercise the overflow heap.
                let ahead = if rng.gen_index(20) == 0 {
                    (1 << 36) + rng.gen_range(1 << 20)
                } else {
                    rng.gen_range(5_000_000)
                };
                let at = wheel.now() + SimDuration(ahead);
                wheel.push(at, next_id);
                heap.push(at, next_id);
                next_id += 1;
            } else {
                assert_eq!(wheel.pop(), heap.pop(), "case {case}");
            }
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w, h, "case {case}: drain diverged");
            if w.is_none() {
                break;
            }
        }
    }
}

/// The same identity under the delay mix the grid engine was measured to
/// push (≈ 70 % one LAN hop ahead, 64–4,096 µs; 20 % a WAN hop or retry
/// back-off, 4–262 ms; 10 % task and monitoring timers, 16 s–17 min; and
/// same-time ties), on a hold model deep enough that every wheel level and
/// the cascades between them stay busy.
#[test]
fn wheel_and_heap_pop_identically_under_the_engine_delay_mix() {
    for case in 0..20 {
        let mut rng = rng_for(7, case);
        let mut wheel: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Wheel);
        let mut heap: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Heap);
        let delay = |rng: &mut Xoshiro256StarStar| match rng.gen_index(20) {
            0 => 0,
            1..=13 => 64 + rng.gen_range(4_096 - 64),
            14..=17 => 4_000 + rng.gen_range(262_000 - 4_000),
            _ => 16_000_000 + rng.gen_range(1_020_000_000 - 16_000_000),
        };
        for id in 0..1_000 {
            let at = SimTime(delay(&mut rng));
            wheel.push(at, id);
            heap.push(at, id);
        }
        for step in 0..20_000u64 {
            let popped = wheel.pop();
            assert_eq!(popped, heap.pop(), "case {case} step {step}");
            assert_eq!(wheel.peek_time(), heap.peek_time(), "case {case}");
            let (now, id) = popped.expect("hold model never drains");
            // Mostly one consequence per event, sometimes none or two (a
            // steal request that fans out), so the depth wanders.
            for _ in 0..[1, 1, 1, 1, 0, 2][rng.gen_index(6)] {
                let at = now + SimDuration(delay(&mut rng));
                wheel.push(at, id);
                heap.push(at, id);
            }
            assert_eq!(wheel.len(), heap.len(), "case {case} step {step}");
        }
        while let Some(popped) = wheel.pop() {
            assert_eq!(Some(popped), heap.pop(), "case {case}: drain diverged");
        }
        assert_eq!(heap.pop(), None, "case {case}");
        assert_eq!(wheel.processed(), heap.processed(), "case {case}");
    }
}

/// An injection schedule fires every entry exactly once, in order, under
/// arbitrary polling patterns.
#[test]
fn schedule_fires_everything_once() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let n_times = 1 + rng.gen_index(49);
        let times: Vec<u64> = (0..n_times).map(|_| rng.gen_range(10_000)).collect();
        let n_polls = 1 + rng.gen_index(79);
        let mut polls: Vec<u64> = (0..n_polls).map(|_| rng.gen_range(12_000)).collect();
        let entries: Vec<ScheduledInjection> = times
            .iter()
            .map(|&t| ScheduledInjection {
                at: SimTime(t),
                injection: Injection::CpuLoad {
                    cluster: ClusterId(0),
                    count: None,
                    factor: 2.0,
                },
            })
            .collect();
        let mut s = InjectionSchedule::new(entries);
        polls.sort_unstable();
        let mut fired = 0usize;
        let mut last_fired_at = SimTime::ZERO;
        for &p in &polls {
            for e in s.pop_due(SimTime(p)) {
                assert!(e.at >= last_fired_at, "case {case}");
                assert!(e.at <= SimTime(p), "case {case}");
                last_fired_at = e.at;
                fired += 1;
            }
        }
        fired += s.pop_due(SimTime::MAX).len();
        assert_eq!(fired, times.len(), "case {case}");
        assert_eq!(s.remaining(), 0, "case {case}");
    }
}
