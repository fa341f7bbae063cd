//! Barnes-Hut N-body simulation — the paper's evaluation workload.
//!
//! Simulates "the evolution of a large set of bodies under influence of
//! gravitational forces … in iterations of discrete time steps" (paper §5).
//! Each iteration rebuilds an octree over the bodies, computes accelerations
//! with the θ-criterion approximation, and advances the system with a
//! leapfrog integrator. The force phase is parallelized divide-and-conquer
//! over the body set, which is exactly how Satin's Barnes-Hut splits work.
//!
//! The octree is a flat arena (no per-node boxing) and the body set for a
//! test galaxy comes from the Plummer model, the standard initial condition
//! for N-body benchmarks.

#![allow(clippy::needless_range_loop)] // 3-vector loops index several arrays in lockstep

use sagrid_core::rng::{Rng64, Xoshiro256StarStar};
use sagrid_runtime::WorkerCtx;
use std::sync::Arc;

/// Gravitational constant in simulation units.
const G: f64 = 1.0;
/// Softening length: avoids force singularities for close encounters.
const SOFTENING: f64 = 1e-3;

/// A point mass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass (> 0).
    pub mass: f64,
}

/// One octree node in the flat arena.
#[derive(Clone, Copy, Debug)]
struct OctNode {
    /// Geometric centre of the cube.
    center: [f64; 3],
    /// Half the cube's edge length.
    half: f64,
    /// Total mass below this node.
    mass: f64,
    /// Centre of mass below this node.
    com: [f64; 3],
    /// Index of the first child slot; children occupy 8 contiguous slots.
    /// `u32::MAX` marks a leaf.
    children: u32,
    /// For leaves: the single body index, or `u32::MAX` when empty.
    body: u32,
}

const NONE: u32 = u32::MAX;

/// The Barnes-Hut simulation state.
pub struct BarnesHut {
    bodies: Vec<Body>,
    theta: f64,
    dt: f64,
    nodes: Vec<OctNode>,
}

impl BarnesHut {
    /// Creates a simulation over `bodies` with opening angle `theta`
    /// (typically 0.3–1.0; smaller = more accurate) and time step `dt`.
    pub fn new(bodies: Vec<Body>, theta: f64, dt: f64) -> Self {
        assert!(!bodies.is_empty(), "need at least one body");
        assert!(theta > 0.0 && dt > 0.0);
        assert!(
            bodies.iter().all(|b| b.mass > 0.0),
            "masses must be positive"
        );
        Self {
            bodies,
            theta,
            dt,
            nodes: Vec::new(),
        }
    }

    /// A Plummer-model galaxy of `n` bodies (total mass 1, virial-ish
    /// velocities), deterministic in `seed`.
    pub fn plummer(n: usize, seed: u64) -> Self {
        assert!(n >= 1);
        let mut rng = Xoshiro256StarStar::seeded(seed);
        let mut bodies = Vec::with_capacity(n);
        let mass = 1.0 / n as f64;
        for _ in 0..n {
            // Radius from the Plummer cumulative mass profile.
            let x = rng.gen_f64().clamp(1e-9, 0.999);
            let r = (x.powf(-2.0 / 3.0) - 1.0).powf(-0.5);
            let (u, v) = (rng.gen_f64(), rng.gen_f64());
            let costheta = 2.0 * u - 1.0;
            let sintheta = (1.0 - costheta * costheta).sqrt();
            let phi = 2.0 * std::f64::consts::PI * v;
            let pos = [
                r * sintheta * phi.cos(),
                r * sintheta * phi.sin(),
                r * costheta,
            ];
            // Velocity: circular-speed-scaled isotropic direction (a
            // simplified Aarseth rejection step).
            let vesc = std::f64::consts::SQRT_2 * (1.0 + r * r).powf(-0.25);
            let speed = vesc * 0.5 * rng.gen_f64();
            let (u2, v2) = (rng.gen_f64(), rng.gen_f64());
            let ct = 2.0 * u2 - 1.0;
            let st = (1.0 - ct * ct).sqrt();
            let ph = 2.0 * std::f64::consts::PI * v2;
            let vel = [speed * st * ph.cos(), speed * st * ph.sin(), speed * ct];
            bodies.push(Body { pos, vel, mass });
        }
        Self::new(bodies, 0.5, 1e-3)
    }

    /// The bodies (for inspection and tests).
    pub fn bodies(&self) -> &[Body] {
        &self.bodies
    }

    /// Number of bodies.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Whether the system is empty (never true: `new` requires ≥ 1 body).
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    // ------------------------------------------------------------------
    // Octree construction (the iteration's sequential phase)
    // ------------------------------------------------------------------

    fn build_tree(&mut self) {
        self.nodes.clear();
        // Bounding cube.
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for b in &self.bodies {
            for d in 0..3 {
                lo[d] = lo[d].min(b.pos[d]);
                hi[d] = hi[d].max(b.pos[d]);
            }
        }
        let center = [
            0.5 * (lo[0] + hi[0]),
            0.5 * (lo[1] + hi[1]),
            0.5 * (lo[2] + hi[2]),
        ];
        let half = (0..3)
            .map(|d| hi[d] - lo[d])
            .fold(0.0_f64, f64::max)
            .max(1e-12)
            * 0.5
            + 1e-12;
        self.nodes.push(OctNode {
            center,
            half,
            mass: 0.0,
            com: [0.0; 3],
            children: NONE,
            body: NONE,
        });
        for i in 0..self.bodies.len() {
            self.insert(0, i as u32, 0);
        }
        self.summarize(0);
    }

    fn octant(center: &[f64; 3], p: &[f64; 3]) -> usize {
        let mut o = 0;
        for d in 0..3 {
            if p[d] >= center[d] {
                o |= 1 << d;
            }
        }
        o
    }

    fn child_center(center: &[f64; 3], half: f64, o: usize) -> [f64; 3] {
        let q = half * 0.5;
        [
            center[0] + if o & 1 != 0 { q } else { -q },
            center[1] + if o & 2 != 0 { q } else { -q },
            center[2] + if o & 4 != 0 { q } else { -q },
        ]
    }

    fn insert(&mut self, node: usize, body: u32, depth: u32) {
        // Depth cap: coincident bodies would otherwise split forever; at
        // the cap we aggregate them into the same leaf's mass summary.
        const MAX_DEPTH: u32 = 64;
        let (children, existing) = {
            let n = &self.nodes[node];
            (n.children, n.body)
        };
        if children == NONE {
            if existing == NONE {
                self.nodes[node].body = body;
                return;
            }
            if depth >= MAX_DEPTH {
                // Aggregate: account the body directly into this node's
                // summary at summarize-time by re-linking it nowhere. We
                // fold its mass into `com/mass` immediately instead.
                let b = self.bodies[body as usize];
                let n = &mut self.nodes[node];
                n.mass += b.mass; // summarize() adds the rest
                for d in 0..3 {
                    n.com[d] += b.mass * b.pos[d];
                }
                return;
            }
            // Split: push 8 children, reinsert the existing body.
            let first = self.nodes.len() as u32;
            let (center, half) = (self.nodes[node].center, self.nodes[node].half);
            for o in 0..8 {
                self.nodes.push(OctNode {
                    center: Self::child_center(&center, half, o),
                    half: half * 0.5,
                    mass: 0.0,
                    com: [0.0; 3],
                    children: NONE,
                    body: NONE,
                });
            }
            self.nodes[node].children = first;
            self.nodes[node].body = NONE;
            let pos = self.bodies[existing as usize].pos;
            let o = Self::octant(&self.nodes[node].center, &pos);
            self.insert(first as usize + o, existing, depth + 1);
            let pos = self.bodies[body as usize].pos;
            let o = Self::octant(&self.nodes[node].center, &pos);
            self.insert(first as usize + o, body, depth + 1);
        } else {
            let pos = self.bodies[body as usize].pos;
            let o = Self::octant(&self.nodes[node].center, &pos);
            self.insert(children as usize + o, body, depth + 1);
        }
    }

    /// Bottom-up mass / centre-of-mass summary.
    fn summarize(&mut self, node: usize) {
        let children = self.nodes[node].children;
        if children == NONE {
            let body = self.nodes[node].body;
            if body != NONE {
                let b = self.bodies[body as usize];
                let n = &mut self.nodes[node];
                n.mass += b.mass;
                for d in 0..3 {
                    n.com[d] += b.mass * b.pos[d];
                }
            }
            let n = &mut self.nodes[node];
            if n.mass > 0.0 {
                for d in 0..3 {
                    n.com[d] /= n.mass;
                }
            }
            return;
        }
        let mut mass = self.nodes[node].mass; // depth-capped aggregates
        let mut com = self.nodes[node].com;
        for o in 0..8 {
            let c = children as usize + o;
            self.summarize(c);
            let cn = self.nodes[c];
            mass += cn.mass;
            for d in 0..3 {
                com[d] += cn.mass * cn.com[d];
            }
        }
        let n = &mut self.nodes[node];
        n.mass = mass;
        if mass > 0.0 {
            for d in 0..3 {
                n.com[d] = com[d] / mass;
            }
        }
    }

    // ------------------------------------------------------------------
    // Force evaluation
    // ------------------------------------------------------------------

    fn accel_on(&self, body: usize) -> [f64; 3] {
        let p = self.bodies[body].pos;
        let mut acc = [0.0; 3];
        let mut stack = vec![0usize];
        while let Some(ni) = stack.pop() {
            let n = &self.nodes[ni];
            if n.mass <= 0.0 {
                continue;
            }
            let dx = [n.com[0] - p[0], n.com[1] - p[1], n.com[2] - p[2]];
            let dist2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
            let leaf = n.children == NONE;
            // θ criterion: treat the cell as a point mass when its angular
            // size (edge / distance) is below θ.
            let use_cell =
                leaf || (2.0 * n.half) * (2.0 * n.half) < self.theta * self.theta * dist2;
            if use_cell {
                if leaf && n.body as usize == body && dist2 < 1e-24 {
                    continue; // self-interaction
                }
                let r2 = dist2 + SOFTENING * SOFTENING;
                let inv_r = r2.sqrt().recip();
                let f = G * n.mass * inv_r * inv_r * inv_r;
                for d in 0..3 {
                    acc[d] += f * dx[d];
                }
            } else {
                for o in 0..8 {
                    stack.push(n.children as usize + o);
                }
            }
        }
        acc
    }

    fn accels_range(&self, lo: usize, hi: usize, out: &mut [[f64; 3]]) {
        for (slot, i) in (lo..hi).enumerate() {
            out[slot] = self.accel_on(i);
        }
    }

    /// One sequential simulation step. Returns the accelerations used (for
    /// cross-checking the parallel version).
    pub fn step_seq(&mut self) -> Vec<[f64; 3]> {
        self.build_tree();
        let mut acc = vec![[0.0; 3]; self.bodies.len()];
        self.accels_range(0, self.bodies.len(), &mut acc);
        self.kick_drift(&acc);
        acc
    }

    /// One parallel simulation step on the divide-and-conquer runtime:
    /// sequential octree build (the per-iteration serial phase the paper's
    /// workload model accounts for), then a parallel force phase splitting
    /// the body range down to `chunk` bodies per task.
    ///
    /// `sim` is consumed and returned because the force phase shares the
    /// state read-only across workers.
    pub fn step_par(
        sim: BarnesHut,
        ctx: &WorkerCtx<'_>,
        chunk: usize,
    ) -> (BarnesHut, Vec<[f64; 3]>) {
        assert!(chunk >= 1);
        let mut sim = sim;
        sim.build_tree();
        let shared = Arc::new(sim);
        let n = shared.len();

        fn split(
            ctx: &WorkerCtx<'_>,
            sim: &Arc<BarnesHut>,
            lo: usize,
            hi: usize,
            chunk: usize,
        ) -> Vec<[f64; 3]> {
            if hi - lo <= chunk {
                let mut out = vec![[0.0; 3]; hi - lo];
                sim.accels_range(lo, hi, &mut out);
                return out;
            }
            let mid = lo + (hi - lo) / 2;
            let left_sim = Arc::clone(sim);
            let left = ctx.spawn(move |ctx| split(ctx, &left_sim, lo, mid, chunk));
            let mut right = split(ctx, sim, mid, hi, chunk);
            let mut all = left.join(ctx);
            all.append(&mut right);
            all
        }

        let acc = split(ctx, &shared, 0, n, chunk);
        let mut sim = Arc::try_unwrap(shared).unwrap_or_else(|arc| BarnesHut {
            bodies: arc.bodies.clone(),
            theta: arc.theta,
            dt: arc.dt,
            nodes: arc.nodes.clone(),
        });
        sim.kick_drift(&acc);
        (sim, acc)
    }

    fn kick_drift(&mut self, acc: &[[f64; 3]]) {
        let dt = self.dt;
        for (b, a) in self.bodies.iter_mut().zip(acc) {
            for d in 0..3 {
                b.vel[d] += a[d] * dt;
                b.pos[d] += b.vel[d] * dt;
            }
        }
    }

    // ------------------------------------------------------------------
    // Diagnostics
    // ------------------------------------------------------------------

    /// Total momentum (conserved exactly by symmetric pairwise forces, and
    /// very nearly by Barnes-Hut).
    pub fn total_momentum(&self) -> [f64; 3] {
        let mut p = [0.0; 3];
        for b in &self.bodies {
            for d in 0..3 {
                p[d] += b.mass * b.vel[d];
            }
        }
        p
    }

    /// Total energy (kinetic + exact pairwise potential), O(n²) — for
    /// conservation tests on small systems.
    pub fn total_energy(&self) -> f64 {
        let mut e = 0.0;
        for b in &self.bodies {
            let v2 = b.vel.iter().map(|v| v * v).sum::<f64>();
            e += 0.5 * b.mass * v2;
        }
        for i in 0..self.bodies.len() {
            for j in (i + 1)..self.bodies.len() {
                let (a, b) = (&self.bodies[i], &self.bodies[j]);
                let mut r2 = SOFTENING * SOFTENING;
                for d in 0..3 {
                    let dx = a.pos[d] - b.pos[d];
                    r2 += dx * dx;
                }
                e -= G * a.mass * b.mass / r2.sqrt();
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagrid_runtime::Runtime;

    fn two_body() -> BarnesHut {
        // Equal masses on a circular orbit around their barycentre.
        // Separation 2, masses 0.5 each ⇒ v = sqrt(G·M_total/4·…)…
        // Circular speed for each: v² = G·m_other·r / (2r)² with r=1:
        // v = sqrt(0.5/4·2)… keep it simple: v chosen so the orbit is
        // bound and symmetric.
        let v = (G * 0.5 / 4.0_f64).sqrt();
        BarnesHut::new(
            vec![
                Body {
                    pos: [1.0, 0.0, 0.0],
                    vel: [0.0, v, 0.0],
                    mass: 0.5,
                },
                Body {
                    pos: [-1.0, 0.0, 0.0],
                    vel: [0.0, -v, 0.0],
                    mass: 0.5,
                },
            ],
            0.1,
            1e-3,
        )
    }

    #[test]
    fn tree_mass_equals_total_mass() {
        let mut sim = BarnesHut::plummer(200, 1);
        sim.build_tree();
        let total: f64 = sim.bodies.iter().map(|b| b.mass).sum();
        assert!((sim.nodes[0].mass - total).abs() < 1e-9);
    }

    #[test]
    fn two_body_attraction_points_inward() {
        let mut sim = two_body();
        sim.build_tree();
        let a0 = sim.accel_on(0);
        let a1 = sim.accel_on(1);
        assert!(a0[0] < 0.0, "body at +x accelerates toward -x: {a0:?}");
        assert!(a1[0] > 0.0, "body at -x accelerates toward +x: {a1:?}");
        // Newton's third law (equal masses).
        assert!((a0[0] + a1[0]).abs() < 1e-9);
    }

    #[test]
    fn momentum_is_conserved_over_steps() {
        let mut sim = BarnesHut::plummer(100, 2);
        let p0 = sim.total_momentum();
        for _ in 0..20 {
            let _ = sim.step_seq();
        }
        let p1 = sim.total_momentum();
        for d in 0..3 {
            assert!(
                (p1[d] - p0[d]).abs() < 5e-3,
                "momentum drift in dim {d}: {p0:?} -> {p1:?}"
            );
        }
    }

    #[test]
    fn energy_is_approximately_conserved() {
        let mut sim = two_body();
        let e0 = sim.total_energy();
        for _ in 0..200 {
            let _ = sim.step_seq();
        }
        let e1 = sim.total_energy();
        assert!(
            ((e1 - e0) / e0).abs() < 0.05,
            "energy drift too large: {e0} -> {e1}"
        );
    }

    #[test]
    fn theta_zero_limit_matches_direct_sum() {
        // With a tiny θ the tree walk opens every cell: compare against a
        // direct O(n²) sum.
        let mut sim = BarnesHut::plummer(50, 3);
        sim.theta = 1e-6;
        sim.build_tree();
        for i in 0..sim.len() {
            let tree_acc = sim.accel_on(i);
            let mut direct = [0.0; 3];
            for j in 0..sim.len() {
                if i == j {
                    continue;
                }
                let (a, b) = (sim.bodies[i], sim.bodies[j]);
                let mut r2 = SOFTENING * SOFTENING;
                let mut dx = [0.0; 3];
                for d in 0..3 {
                    dx[d] = b.pos[d] - a.pos[d];
                    r2 += dx[d] * dx[d];
                }
                let f = G * b.mass / (r2 * r2.sqrt());
                for d in 0..3 {
                    direct[d] += f * dx[d];
                }
            }
            for d in 0..3 {
                assert!(
                    (tree_acc[d] - direct[d]).abs() < 1e-6,
                    "body {i} dim {d}: tree {tree_acc:?} vs direct {direct:?}"
                );
            }
        }
    }

    #[test]
    fn moderate_theta_approximates_direct_sum() {
        let mut sim = BarnesHut::plummer(200, 4);
        sim.theta = 0.5;
        sim.build_tree();
        // Average relative error should be small.
        let mut rel_err_sum = 0.0;
        for i in 0..sim.len() {
            let tree_acc = sim.accel_on(i);
            let mut direct = [0.0; 3];
            for j in 0..sim.len() {
                if i == j {
                    continue;
                }
                let (a, b) = (sim.bodies[i], sim.bodies[j]);
                let mut r2 = SOFTENING * SOFTENING;
                let mut dx = [0.0; 3];
                for d in 0..3 {
                    dx[d] = b.pos[d] - a.pos[d];
                    r2 += dx[d] * dx[d];
                }
                let f = G * b.mass / (r2 * r2.sqrt());
                for d in 0..3 {
                    direct[d] += f * dx[d];
                }
            }
            let mag =
                (direct[0] * direct[0] + direct[1] * direct[1] + direct[2] * direct[2]).sqrt();
            let err = ((tree_acc[0] - direct[0]).powi(2)
                + (tree_acc[1] - direct[1]).powi(2)
                + (tree_acc[2] - direct[2]).powi(2))
            .sqrt();
            rel_err_sum += err / mag.max(1e-12);
        }
        let mean_rel = rel_err_sum / sim.len() as f64;
        assert!(mean_rel < 0.02, "mean relative force error {mean_rel}");
    }

    #[test]
    fn parallel_step_matches_sequential_bitwise() {
        let mut seq = BarnesHut::plummer(300, 5);
        let acc_seq = seq.step_seq();
        let rt = Runtime::new(4);
        let (par, acc_par) = rt.run(move |ctx| {
            // `run` requires Fn; rebuilding the sim inside the job lets it
            // own its bodies.
            let sim = BarnesHut::plummer(300, 5);
            BarnesHut::step_par(sim, ctx, 16)
        });
        let _ = par;
        assert_eq!(acc_seq.len(), acc_par.len());
        for (i, (a, b)) in acc_seq.iter().zip(&acc_par).enumerate() {
            assert_eq!(a, b, "acceleration of body {i} differs");
        }
        let _ = seq;
        rt.shutdown();
    }

    #[test]
    fn coincident_bodies_do_not_overflow_the_tree() {
        let b = Body {
            pos: [0.5, 0.5, 0.5],
            vel: [0.0; 3],
            mass: 1.0,
        };
        let mut sim = BarnesHut::new(vec![b; 5], 0.5, 1e-3);
        sim.build_tree(); // must terminate despite 5 identical positions
        assert!((sim.nodes[0].mass - 5.0).abs() < 1e-9);
        let _ = sim.step_seq();
    }

    #[test]
    fn plummer_is_deterministic_in_seed() {
        let a = BarnesHut::plummer(64, 7);
        let b = BarnesHut::plummer(64, 7);
        let c = BarnesHut::plummer(64, 8);
        assert_eq!(a.bodies(), b.bodies());
        assert_ne!(a.bodies(), c.bodies());
    }

    #[test]
    #[should_panic(expected = "at least one body")]
    fn empty_system_rejected() {
        let _ = BarnesHut::new(vec![], 0.5, 1e-3);
    }
}
