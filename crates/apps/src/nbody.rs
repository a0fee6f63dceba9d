//! N-body simulation — the paper's iterative application with intensive
//! communication (Table II).
//!
//! Each iteration computes all-pairs gravitational forces (`O(n²)` compute)
//! and then redistributes the updated positions to every node (`O(n)`
//! all-to-all communication — Sec. IV). The paper simulates 2 million
//! bodies for two iterations (Sec. V-B4).
//!
//! A device job integrates a contiguous chunk of bodies against *all*
//! bodies. Kernel versions:
//! * `perfect` — straightforward all-pairs loop (other bodies read through
//!   warp-broadcast global loads);
//! * `gpu` — the classic tiling: bodies staged through local memory
//!   cooperatively, 256 at a time;
//! * `mic` — coarse per-core chunks with gather-friendly strides.

use crate::common::{
    binary_divide, combine_segments, split_range, within_grain, AppMode, CpuLeafModel, KernelSet,
    Segment,
};
use cashmere::{CashmereApp, KernelCall, KernelRegistry};
use cashmere_des::SimTime;
use cashmere_mcl::value::{ArgValue, ArrayArg};
use cashmere_mcl::ElemTy;
use cashmere_satin::{ClusterApp, DcStep};
use std::sync::{Arc, RwLock};

/// Softening factor keeping close encounters finite.
pub const EPS2: f64 = 1e-4;
/// Flops charged per body-body interaction (the conventional count).
pub const FLOPS_PER_PAIR: f64 = 20.0;

/// Unoptimized all-pairs kernel.
pub const KERNEL_PERFECT: &str = "\
perfect void nbody_step(int m, int n, int offset, float dt,
    float[m,4] outp, float[m,4] outv, float[n,4] pos, float[m,4] vel) {
  foreach (int i in m threads) {
    float px = pos[offset + i, 0];
    float py = pos[offset + i, 1];
    float pz = pos[offset + i, 2];
    float ax = 0.0;
    float ay = 0.0;
    float az = 0.0;
    for (int j = 0; j < n; j++) {
      float dx = pos[j,0] - px;
      float dy = pos[j,1] - py;
      float dz = pos[j,2] - pz;
      float r2 = dx * dx + dy * dy + dz * dz + 0.0001;
      float inv = rsqrt(r2);
      float s = pos[j,3] * inv * inv * inv;
      ax += dx * s;
      ay += dy * s;
      az += dz * s;
    }
    float vx = vel[i,0] + ax * dt;
    float vy = vel[i,1] + ay * dt;
    float vz = vel[i,2] + az * dt;
    outv[i,0] = vx;
    outv[i,1] = vy;
    outv[i,2] = vz;
    outv[i,3] = 0.0;
    outp[i,0] = px + vx * dt;
    outp[i,1] = py + vy * dt;
    outp[i,2] = pz + vz * dt;
    outp[i,3] = pos[offset + i, 3];
  }
}";

/// Optimized `gpu` version: bodies staged through local memory in tiles.
pub const KERNEL_GPU: &str = "\
gpu void nbody_step(int m, int n, int offset, float dt,
    float[m,4] outp, float[m,4] outv, float[n,4] pos, float[m,4] vel) {
  foreach (int b in (m + 255) / 256 blocks) {
    local float tile[256,4];
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      float px = 0.0;
      float py = 0.0;
      float pz = 0.0;
      if (i < m) {
        px = pos[offset + i, 0];
        py = pos[offset + i, 1];
        pz = pos[offset + i, 2];
      }
      float ax = 0.0;
      float ay = 0.0;
      float az = 0.0;
      int ntiles = (n + 255) / 256;
      for (int tl = 0; tl < ntiles; tl++) {
        int src = tl * 256 + t;
        if (src < n) {
          tile[t,0] = pos[src,0];
          tile[t,1] = pos[src,1];
          tile[t,2] = pos[src,2];
          tile[t,3] = pos[src,3];
        } else {
          tile[t,0] = 0.0;
          tile[t,1] = 0.0;
          tile[t,2] = 0.0;
          tile[t,3] = 0.0;
        }
        barrier();
        int limit = min(256, n - tl * 256);
        for (int j = 0; j < limit; j++) {
          float dx = tile[j,0] - px;
          float dy = tile[j,1] - py;
          float dz = tile[j,2] - pz;
          float r2 = dx * dx + dy * dy + dz * dz + 0.0001;
          float inv = rsqrt(r2);
          float s = tile[j,3] * inv * inv * inv;
          ax += dx * s;
          ay += dy * s;
          az += dz * s;
        }
        barrier();
      }
      if (i < m) {
        float vx = vel[i,0] + ax * dt;
        float vy = vel[i,1] + ay * dt;
        float vz = vel[i,2] + az * dt;
        outv[i,0] = vx;
        outv[i,1] = vy;
        outv[i,2] = vz;
        outv[i,3] = 0.0;
        outp[i,0] = px + vx * dt;
        outp[i,1] = py + vy * dt;
        outp[i,2] = pz + vz * dt;
        outp[i,3] = pos[offset + i, 3];
      }
    }
  }
}";

/// Optimized `mic` version: coarse per-core chunks with body tiles staged
/// through local memory.
pub const KERNEL_MIC: &str = "\
mic void nbody_step(int m, int n, int offset, float dt,
    float[m,4] outp, float[m,4] outv, float[n,4] pos, float[m,4] vel) {
  foreach (int chunk in (m + 63) / 64 cores) {
    local float tile[64,4];
    foreach (int t in 64 threads) {
      int i = chunk * 64 + t;
      float px = 0.0;
      float py = 0.0;
      float pz = 0.0;
      if (i < m) {
        px = pos[offset + i, 0];
        py = pos[offset + i, 1];
        pz = pos[offset + i, 2];
      }
      float ax = 0.0;
      float ay = 0.0;
      float az = 0.0;
      int ntiles = (n + 63) / 64;
      for (int tl = 0; tl < ntiles; tl++) {
        int src = tl * 64 + t;
        if (src < n) {
          tile[t,0] = pos[src,0];
          tile[t,1] = pos[src,1];
          tile[t,2] = pos[src,2];
          tile[t,3] = pos[src,3];
        } else {
          tile[t,0] = 0.0;
          tile[t,1] = 0.0;
          tile[t,2] = 0.0;
          tile[t,3] = 0.0;
        }
        barrier();
        int limit = min(64, n - tl * 64);
        for (int j = 0; j < limit; j++) {
          float dx = tile[j,0] - px;
          float dy = tile[j,1] - py;
          float dz = tile[j,2] - pz;
          float r2 = dx * dx + dy * dy + dz * dz + 0.0001;
          float inv = rsqrt(r2);
          float s = tile[j,3] * inv * inv * inv;
          ax += dx * s;
          ay += dy * s;
          az += dz * s;
        }
        barrier();
      }
      if (i < m) {
        float vx = vel[i,0] + ax * dt;
        float vy = vel[i,1] + ay * dt;
        float vz = vel[i,2] + az * dt;
        outv[i,0] = vx;
        outv[i,1] = vy;
        outv[i,2] = vz;
        outv[i,3] = 0.0;
        outp[i,0] = px + vx * dt;
        outp[i,1] = py + vy * dt;
        outp[i,2] = pz + vz * dt;
        outp[i,3] = pos[offset + i, 3];
      }
    }
  }
}";

/// Problem description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NbodyProblem {
    pub n: u64,
    pub iterations: u32,
    pub dt: f64,
}

impl NbodyProblem {
    /// The paper's problem: 2 M bodies, 2 iterations (Sec. V-B4).
    pub fn paper() -> NbodyProblem {
        NbodyProblem {
            n: 2_000_000,
            iterations: 2,
            dt: 0.01,
        }
    }

    pub fn flops_per_iteration(&self) -> f64 {
        FLOPS_PER_PAIR * self.n as f64 * self.n as f64
    }

    pub fn total_flops(&self) -> f64 {
        self.flops_per_iteration() * f64::from(self.iterations)
    }

    pub fn job_flops(&self, bodies: u64) -> f64 {
        FLOPS_PER_PAIR * bodies as f64 * self.n as f64
    }
}

/// Mutable simulation state shared with the driver: `pos` is `n×4`
/// (x, y, z, mass), `vel` is `n×4`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NbodyState {
    pub pos: Vec<f64>,
    pub vel: Vec<f64>,
}

impl NbodyState {
    /// Deterministic plummer-ish cloud. All values are f32-exact so the
    /// f64 interpreter and the f32-rounding local-memory path agree bit for
    /// bit (near-coincident bodies amplify representation differences
    /// through `r^-3`).
    pub fn generate(n: u64, seed: u64) -> NbodyState {
        let rnd = |i: u64, salt: u64| -> f64 {
            let mut x = (i ^ salt ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 30;
            f64::from(((x % 2000) as f64 / 1000.0 - 1.0) as f32)
        };
        let mut pos = Vec::with_capacity((n * 4) as usize);
        let mut vel = Vec::with_capacity((n * 4) as usize);
        let f32x = |v: f64| f64::from(v as f32);
        for i in 0..n {
            pos.extend_from_slice(&[
                f32x(rnd(i, 1) * 10.0),
                f32x(rnd(i, 2) * 10.0),
                f32x(rnd(i, 3) * 10.0),
                f32x(0.5 + rnd(i, 4).abs()),
            ]);
            vel.extend_from_slice(&[rnd(i, 5), rnd(i, 6), rnd(i, 7), 0.0]);
        }
        NbodyState { pos, vel }
    }

    /// Reference CPU step for bodies `[lo, hi)` (matching the kernels'
    /// arithmetic, including f32 rounding of the stored results).
    pub fn reference_step(&self, lo: u64, hi: u64, dt: f64) -> (Vec<f64>, Vec<f64>) {
        let n = self.pos.len() / 4;
        let mut outp = Vec::with_capacity((hi - lo) as usize * 4);
        let mut outv = Vec::with_capacity((hi - lo) as usize * 4);
        for i in lo..hi {
            let i = i as usize;
            let (px, py, pz) = (self.pos[i * 4], self.pos[i * 4 + 1], self.pos[i * 4 + 2]);
            let (mut ax, mut ay, mut az) = (0.0f64, 0.0, 0.0);
            for j in 0..n {
                let dx = self.pos[j * 4] - px;
                let dy = self.pos[j * 4 + 1] - py;
                let dz = self.pos[j * 4 + 2] - pz;
                let r2 = dx * dx + dy * dy + dz * dz + EPS2;
                let inv = 1.0 / r2.sqrt();
                let s = self.pos[j * 4 + 3] * inv * inv * inv;
                ax += dx * s;
                ay += dy * s;
                az += dz * s;
            }
            let vx = self.vel[i * 4] + ax * dt;
            let vy = self.vel[i * 4 + 1] + ay * dt;
            let vz = self.vel[i * 4 + 2] + az * dt;
            let f32r = |x: f64| f64::from(x as f32);
            outv.extend_from_slice(&[f32r(vx), f32r(vy), f32r(vz), 0.0]);
            outp.extend_from_slice(&[
                f32r(px + vx * dt),
                f32r(py + vy * dt),
                f32r(pz + vz * dt),
                f32r(self.pos[i * 4 + 3]),
            ]);
        }
        (outp, outv)
    }
}

/// Output: updated segments of the body arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct NbSeg {
    pub b0: u64,
    pub count: u64,
    pub pos: Option<Vec<f64>>,
    pub vel: Option<Vec<f64>>,
}

impl Segment for NbSeg {
    fn position(&self) -> (u64, u64) {
        (self.b0, 0)
    }

    fn absorb(&mut self, next: &NbSeg) -> bool {
        let phantom = |s: &NbSeg| s.pos.is_none() && s.vel.is_none();
        let merge = phantom(self) && phantom(next) && self.b0 + self.count == next.b0;
        if merge {
            self.count += next.count;
        }
        merge
    }
}

/// The N-body application.
pub struct NbodyApp {
    pub problem: NbodyProblem,
    pub mode: AppMode,
    pub node_grain_bodies: u64,
    pub device_jobs: u64,
    pub cpu_model: CpuLeafModel,
    pub state: Arc<RwLock<NbodyState>>,
}

impl NbodyApp {
    pub fn phantom(problem: NbodyProblem, node_grain_bodies: u64, device_jobs: u64) -> NbodyApp {
        NbodyApp {
            problem,
            mode: AppMode::Phantom,
            node_grain_bodies,
            device_jobs,
            cpu_model: CpuLeafModel::REGULAR,
            state: Arc::new(RwLock::new(NbodyState::default())),
        }
    }

    pub fn real(
        problem: NbodyProblem,
        node_grain_bodies: u64,
        device_jobs: u64,
        seed: u64,
    ) -> NbodyApp {
        NbodyApp {
            state: Arc::new(RwLock::new(NbodyState::generate(problem.n, seed))),
            problem,
            mode: AppMode::Real,
            node_grain_bodies,
            device_jobs,
            cpu_model: CpuLeafModel::REGULAR,
        }
    }

    pub fn registry(set: KernelSet) -> KernelRegistry {
        crate::common::build_registry(&[KERNEL_PERFECT], &[KERNEL_GPU, KERNEL_MIC], set)
    }

    /// Calibrated "other bodies" count for phantom runs.
    fn n_cal(&self) -> u64 {
        self.problem.n.min(2048)
    }
}

impl ClusterApp for NbodyApp {
    type Input = (u64, u64);
    type Output = Vec<NbSeg>;

    fn step(&self, &(lo, hi): &(u64, u64)) -> DcStep<(u64, u64)> {
        match binary_divide(lo, hi, self.node_grain_bodies) {
            Some(ch) => DcStep::Divide(ch),
            None => DcStep::Leaf,
        }
    }

    fn leaf_cpu(&self, &(lo, hi): &(u64, u64)) -> (SimTime, Vec<NbSeg>) {
        let t = self.cpu_model.time(self.problem.job_flops(hi - lo));
        let (pos, vel) = match self.mode {
            AppMode::Real => {
                let st = self.state.read().expect("state lock");
                let (p, v) = st.reference_step(lo, hi, self.problem.dt);
                (Some(p), Some(v))
            }
            AppMode::Phantom => (None, None),
        };
        (
            t,
            vec![NbSeg {
                b0: lo,
                count: hi - lo,
                pos,
                vel,
            }],
        )
    }

    fn is_leaf(&self, &(lo, hi): &(u64, u64)) -> bool {
        within_grain(lo, hi, self.node_grain_bodies)
    }

    fn combine(&self, _i: &(u64, u64), children: Vec<Vec<NbSeg>>) -> Vec<NbSeg> {
        combine_segments(children)
    }

    fn input_bytes(&self, &(lo, hi): &(u64, u64)) -> u64 {
        // A stolen job ships its bodies' velocities; positions are
        // broadcast each iteration.
        (hi - lo) * 16 + 64
    }

    fn output_bytes(&self, segs: &Vec<NbSeg>) -> u64 {
        segs.iter().map(|s| s.count * 32).sum()
    }
}

impl CashmereApp for NbodyApp {
    fn device_jobs(&self, &(lo, hi): &(u64, u64)) -> Vec<(u64, u64)> {
        split_range(lo, hi, self.device_jobs)
    }

    fn kernel_call(&self, &(lo, hi): &(u64, u64)) -> KernelCall {
        let pr = &self.problem;
        let m = hi - lo;
        let (args, extra_scale) = match self.mode {
            AppMode::Real => {
                let st = self.state.read().expect("state lock");
                let vel = st.vel[(lo * 4) as usize..(hi * 4) as usize].to_vec();
                (
                    vec![
                        ArgValue::Int(m as i64),
                        ArgValue::Int(pr.n as i64),
                        ArgValue::Int(lo as i64),
                        ArgValue::Float(pr.dt),
                        ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[m, 4])),
                        ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[m, 4])),
                        ArgValue::Array(ArrayArg::float(&[pr.n, 4], st.pos.clone())),
                        ArgValue::Array(ArrayArg::float(&[m, 4], vel)),
                    ],
                    1.0,
                )
            }
            AppMode::Phantom => {
                let n_cal = self.n_cal();
                (
                    vec![
                        ArgValue::Int(m as i64),
                        ArgValue::Int(n_cal as i64),
                        // offset 0 keeps `offset + i` in the calibrated range
                        ArgValue::Int(0),
                        ArgValue::Float(pr.dt),
                        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[m, 4])),
                        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[m, 4])),
                        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n_cal, 4])),
                        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[m, 4])),
                    ],
                    pr.n as f64 / self.n_cal() as f64,
                )
            }
        };
        let mut call = KernelCall::from_args("nbody_step", args, &[4, 5]);
        // Positions are re-uploaded every iteration (they change); true
        // transfer sizes use the real n.
        call.h2d_bytes = pr.n * 16 + m * 16;
        call.d2h_bytes = m * 32;
        call.extra_scale = extra_scale;
        call
    }

    fn job_output(&self, &(lo, hi): &(u64, u64), args: Vec<ArgValue>) -> Vec<NbSeg> {
        let (pos, vel) = match self.mode {
            AppMode::Real => (
                Some(args[4].clone().array().as_f64().to_vec()),
                Some(args[5].clone().array().as_f64().to_vec()),
            ),
            AppMode::Phantom => (None, None),
        };
        vec![NbSeg {
            b0: lo,
            count: hi - lo,
            pos,
            vel,
        }]
    }
}

/// Run the full iterative simulation: compute, apply, broadcast positions.
pub fn run_iterations<L>(
    cluster: &mut cashmere_satin::ClusterSim<NbodyApp, L>,
    problem: &NbodyProblem,
    apply: impl Fn(&[NbSeg]),
) -> SimTime
where
    L: cashmere_satin::LeafRuntime<NbodyApp>,
{
    let start = cluster.now();
    for _ in 0..problem.iterations {
        let segs = cluster.run_root((0, problem.n));
        apply(&segs);
        // All-to-all position redistribution, modelled as a master-relayed
        // broadcast of the full body set.
        cluster.broadcast(problem.n * 16);
    }
    cluster.now() - start
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere::{build_cluster, ClusterSpec, RuntimeConfig};
    use cashmere_satin::{ClusterSim, Counter, CpuLeafRuntime, SimConfig};

    fn assemble(segs: &[NbSeg]) -> (Vec<f64>, Vec<f64>) {
        let mut pos = Vec::new();
        let mut vel = Vec::new();
        for s in segs {
            assert_eq!(pos.len() as u64, s.b0 * 4);
            pos.extend_from_slice(s.pos.as_ref().unwrap());
            vel.extend_from_slice(s.vel.as_ref().unwrap());
        }
        (pos, vel)
    }

    fn close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn kernels_compile() {
        assert_eq!(
            NbodyApp::registry(KernelSet::Optimized)
                .versions_of("nbody_step")
                .len(),
            3
        );
    }

    #[test]
    fn one_step_matches_reference_unoptimized() {
        let pr = NbodyProblem {
            n: 400,
            iterations: 1,
            dt: 0.01,
        };
        let app = NbodyApp::real(pr, 128, 2, 3);
        let (rp, rv) = app.state.read().unwrap().reference_step(0, pr.n, pr.dt);
        let mut cluster = build_cluster(
            app,
            NbodyApp::registry(KernelSet::Unoptimized),
            &ClusterSpec::homogeneous(2, "gtx480"),
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let segs = cluster.run_root((0, pr.n));
        let (gp, gv) = assemble(&segs);
        close(&gp, &rp);
        close(&gv, &rv);
    }

    #[test]
    fn one_step_matches_reference_tiled_gpu() {
        // n not a multiple of the 256 tile to stress the guards.
        let pr = NbodyProblem {
            n: 300,
            iterations: 1,
            dt: 0.02,
        };
        let app = NbodyApp::real(pr, 300, 1, 5);
        let (rp, rv) = app.state.read().unwrap().reference_step(0, pr.n, pr.dt);
        let mut cluster = build_cluster(
            app,
            NbodyApp::registry(KernelSet::Optimized),
            &ClusterSpec::homogeneous(1, "titan"),
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let segs = cluster.run_root((0, pr.n));
        let (gp, gv) = assemble(&segs);
        close(&gp, &rp);
        close(&gv, &rv);
    }

    #[test]
    fn mic_kernel_matches_reference() {
        let pr = NbodyProblem {
            n: 260,
            iterations: 1,
            dt: 0.01,
        };
        let app = NbodyApp::real(pr, 260, 1, 7);
        let (rp, _) = app.state.read().unwrap().reference_step(0, pr.n, pr.dt);
        let mut cluster = build_cluster(
            app,
            NbodyApp::registry(KernelSet::Optimized),
            &ClusterSpec::homogeneous(1, "xeon_phi"),
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let segs = cluster.run_root((0, pr.n));
        let (gp, _) = assemble(&segs);
        close(&gp, &rp);
    }

    #[test]
    fn two_iterations_advance_state_consistently() {
        let pr = NbodyProblem {
            n: 200,
            iterations: 2,
            dt: 0.01,
        };
        // Reference: two sequential steps.
        let mut ref_state = NbodyState::generate(pr.n, 9);
        for _ in 0..2 {
            let (p, v) = ref_state.reference_step(0, pr.n, pr.dt);
            ref_state = NbodyState { pos: p, vel: v };
        }
        // Cluster run with apply-between-iterations.
        let app = NbodyApp::real(pr, 64, 2, 9);
        let state = Arc::clone(&app.state);
        let apply_state = Arc::clone(&app.state);
        let pr_copy = pr;
        let mut cluster = build_cluster(
            app,
            NbodyApp::registry(KernelSet::Optimized),
            &ClusterSpec::homogeneous(2, "gtx480"),
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let elapsed = run_iterations(&mut cluster, &pr_copy, move |segs| {
            let mut st = apply_state.write().unwrap();
            for s in segs {
                let at = (s.b0 * 4) as usize;
                let p = s.pos.as_ref().unwrap();
                let v = s.vel.as_ref().unwrap();
                st.pos[at..at + p.len()].copy_from_slice(p);
                st.vel[at..at + v.len()].copy_from_slice(v);
            }
        });
        assert!(elapsed > SimTime::ZERO);
        let got = state.read().unwrap().clone();
        close(&got.pos, &ref_state.pos);
        assert!(
            cluster.report()[Counter::BytesBroadcast] > 0,
            "positions broadcast"
        );
    }

    #[test]
    fn satin_variant_matches_reference() {
        let pr = NbodyProblem {
            n: 150,
            iterations: 1,
            dt: 0.01,
        };
        let app = NbodyApp::real(pr, 50, 1, 2);
        let (rp, _) = app.state.read().unwrap().reference_step(0, pr.n, pr.dt);
        let mut cluster = ClusterSim::new(
            app,
            CpuLeafRuntime,
            SimConfig {
                nodes: 2,
                ..SimConfig::default()
            },
        );
        let segs = cluster.run_root((0, pr.n));
        let (gp, _) = assemble(&segs);
        // The Satin reference path is the same reference_step, so exact.
        close(&gp, &rp);
    }

    #[test]
    fn optimized_beats_unoptimized_at_scale() {
        let time_with = |set: KernelSet| {
            let pr = NbodyProblem {
                n: 500_000,
                iterations: 1,
                dt: 0.01,
            };
            let app = NbodyApp::phantom(pr, 62_500, 8);
            let mut cluster = build_cluster(
                app,
                NbodyApp::registry(set),
                &ClusterSpec::homogeneous(2, "gtx480"),
                SimConfig {
                    max_concurrent_leaves: 2,
                    ..SimConfig::default()
                },
                RuntimeConfig::default(),
            )
            .unwrap();
            let _ = cluster.run_root((0, pr.n));
            cluster.report().makespan
        };
        let unopt = time_with(KernelSet::Unoptimized);
        let opt = time_with(KernelSet::Optimized);
        let factor = unopt.as_secs_f64() / opt.as_secs_f64();
        // N-body is compute-dense, so the tiling gain is real but modest
        // (the paper's Fig. 6 also shows the smallest opt gap here after
        // the raytracer).
        assert!(factor > 1.15, "unopt {unopt} vs opt {opt} ({factor:.2}x)");
    }

    #[test]
    fn phantom_scales_quadratically_in_n() {
        let time_for = |n: u64| {
            let pr = NbodyProblem {
                n,
                iterations: 1,
                dt: 0.01,
            };
            let app = NbodyApp::phantom(pr, n / 8, 8);
            let mut cluster = build_cluster(
                app,
                NbodyApp::registry(KernelSet::Optimized),
                &ClusterSpec::homogeneous(1, "k20"),
                SimConfig {
                    max_concurrent_leaves: 2,
                    ..SimConfig::default()
                },
                RuntimeConfig::default(),
            )
            .unwrap();
            let _ = cluster.run_root((0, pr.n));
            cluster.report().makespan.as_secs_f64()
        };
        let t1 = time_for(250_000);
        let t2 = time_for(500_000);
        let ratio = t2 / t1;
        assert!((3.0..5.5).contains(&ratio), "expected ~4x, got {ratio:.2}");
    }
}
