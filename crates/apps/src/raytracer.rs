//! Path-tracing raytracer — the paper's highly parallel, compute-intensive
//! *irregular* application (Table II), based on smallpt / SmallptGPU.
//!
//! Every pixel traces `ns` random samples through the Cornell-box scene;
//! rays bounce diffusely with russian-roulette termination. The
//! data-dependent control flow (hit vs. miss, per-lane bounce depth,
//! roulette) makes warps diverge constantly — which is exactly why the
//! paper's Fig. 6 shows almost no gain from optimizing this kernel: "to
//! obtain better performance from the raytracer would mean a different
//! algorithm, something MCL cannot suggest".
//!
//! The kernel is real MCPL: xorshift32 RNG built from the language's
//! integer ops, quadratic sphere intersection, cosine-hemisphere sampling
//! with an orthonormal basis — all per lane. The `gpu` "optimized" version
//! stages the scene in local memory; as in the paper, it barely helps.

use crate::common::{
    binary_divide, combine_segments, split_range, within_grain, AppMode, CpuLeafModel, KernelSet,
    Segment,
};
use cashmere::{CashmereApp, KernelCall, KernelRegistry};
use cashmere_des::SimTime;
use cashmere_mcl::value::{ArgValue, ArrayArg};
use cashmere_mcl::ElemTy;
use cashmere_satin::{ClusterApp, DcStep};

/// Maximum path depth.
pub const MAX_DEPTH: i64 = 10;
/// Russian-roulette survival probability after [`RR_DEPTH`] bounces.
pub const RR_KEEP: f64 = 0.75;
pub const RR_DEPTH: i64 = 4;
/// Estimated flops per sample per sphere test (for GFLOPS reporting).
pub const FLOPS_PER_SPHERE_TEST: f64 = 25.0;
/// Average path length assumed by the flop estimate.
pub const AVG_BOUNCES: f64 = 4.0;

/// Shared body of the path-tracing loop (the kernel is identical at both
/// levels except for where the scene lives).
macro_rules! tracer_body {
    ($scene:literal) => {
        concat!(
            "
  foreach (int i in npix threads) {
    int pid = p0 + i;
    int x = pid % width;
    int y = pid / width;
    int state = (seed ^ (pid * 2654435761)) & 2147483647;
    if (state == 0) { state = 88172645; }
    float rx = 0.0;
    float ry = 0.0;
    float rz = 0.0;
    for (int s = 0; s < ns; s++) {
      // xorshift32, masked to 32 bits
      state = (state ^ (state << 13)) & 4294967295;
      state = state ^ (state >> 17);
      state = (state ^ (state << 5)) & 4294967295;
      float jx = (float) (state & 8388607) / 8388608.0;
      state = (state ^ (state << 13)) & 4294967295;
      state = state ^ (state >> 17);
      state = (state ^ (state << 5)) & 4294967295;
      float jy = (float) (state & 8388607) / 8388608.0;
      // camera ray (smallpt-style)
      float u = ((float) x + jx) / (float) width - 0.5;
      float v = ((float) y + jy) / (float) height - 0.5;
      float dx = u * 0.5135 * (float) width / (float) height;
      float dy = 0.0 - v * 0.5135 - 0.042612;
      float dz = -1.0;
      float dl = rsqrt(dx * dx + dy * dy + dz * dz);
      dx = dx * dl;
      dy = dy * dl;
      dz = dz * dl;
      // As in smallpt: start the ray 140 units forward, inside the box.
      float ox = 50.0 + dx * 140.0;
      float oy = 52.0 + dy * 140.0;
      float oz = 295.6 + dz * 140.0;
      float tx = 1.0;
      float ty = 1.0;
      float tz = 1.0;
      int alive = 1;
      for (int depth = 0; depth < maxd && alive == 1; depth++) {
        // nearest sphere
        float best = 1e20;
        int hit = -1;
        for (int sp = 0; sp < nsph; sp++) {
          float opx = ",
            $scene,
            "[sp,1] - ox;
          float opy = ",
            $scene,
            "[sp,2] - oy;
          float opz = ",
            $scene,
            "[sp,3] - oz;
          float b = opx * dx + opy * dy + opz * dz;
          float det = b * b - (opx * opx + opy * opy + opz * opz)
              + ",
            $scene,
            "[sp,0] * ",
            $scene,
            "[sp,0];
          if (det >= 0.0) {
            float sd = sqrt(det);
            float t1 = b - sd;
            float t2 = b + sd;
            float t = 1e20;
            if (t1 > 0.0001) { t = t1; }
            else if (t2 > 0.0001) { t = t2; }
            if (t < best) { best = t; hit = sp; }
          }
        }
        if (hit < 0) {
          alive = 0;
        } else {
          // hit point + oriented normal
          float hx = ox + dx * best;
          float hy = oy + dy * best;
          float hz = oz + dz * best;
          float nx = hx - ",
            $scene,
            "[hit,1];
          float ny = hy - ",
            $scene,
            "[hit,2];
          float nz = hz - ",
            $scene,
            "[hit,3];
          float nl = rsqrt(nx * nx + ny * ny + nz * nz);
          nx = nx * nl;
          ny = ny * nl;
          nz = nz * nl;
          if (nx * dx + ny * dy + nz * dz > 0.0) {
            nx = 0.0 - nx;
            ny = 0.0 - ny;
            nz = 0.0 - nz;
          }
          // accumulate emission
          rx += tx * ",
            $scene,
            "[hit,4];
          ry += ty * ",
            $scene,
            "[hit,5];
          rz += tz * ",
            $scene,
            "[hit,6];
          tx *= ",
            $scene,
            "[hit,7];
          ty *= ",
            $scene,
            "[hit,8];
          tz *= ",
            $scene,
            "[hit,9];
          // russian roulette
          if (depth >= rrd) {
            state = (state ^ (state << 13)) & 4294967295;
            state = state ^ (state >> 17);
            state = (state ^ (state << 5)) & 4294967295;
            float rr = (float) (state & 8388607) / 8388608.0;
            if (rr > 0.75) {
              alive = 0;
            } else {
              tx /= 0.75;
              ty /= 0.75;
              tz /= 0.75;
            }
          }
          if (alive == 1) {
            // cosine-weighted hemisphere sample
            state = (state ^ (state << 13)) & 4294967295;
            state = state ^ (state >> 17);
            state = (state ^ (state << 5)) & 4294967295;
            float r1 = (float) (state & 8388607) / 8388608.0 * 6.2831853;
            state = (state ^ (state << 13)) & 4294967295;
            state = state ^ (state >> 17);
            state = (state ^ (state << 5)) & 4294967295;
            float r2 = (float) (state & 8388607) / 8388608.0;
            float r2s = sqrt(r2);
            // basis (w = n)
            float ax = 0.0;
            float ay = 1.0;
            if (fabs(nx) < 0.1) { ax = 1.0; ay = 0.0; }
            float ux = ay * nz;
            float uy = 0.0 - ax * nz;
            float uz = ax * ny - ay * nx;
            float ul = rsqrt(ux * ux + uy * uy + uz * uz);
            ux = ux * ul;
            uy = uy * ul;
            uz = uz * ul;
            float vx = ny * uz - nz * uy;
            float vy = nz * ux - nx * uz;
            float vz = nx * uy - ny * ux;
            float c1 = cos(r1) * r2s;
            float s1 = sin(r1) * r2s;
            float w1 = sqrt(1.0 - r2);
            dx = ux * c1 + vx * s1 + nx * w1;
            dy = uy * c1 + vy * s1 + ny * w1;
            dz = uz * c1 + vz * s1 + nz * w1;
            float dl2 = rsqrt(dx * dx + dy * dy + dz * dz);
            dx = dx * dl2;
            dy = dy * dl2;
            dz = dz * dl2;
            ox = hx + dx * 0.001;
            oy = hy + dy * 0.001;
            oz = hz + dz * 0.001;
          }
        }
      }
    }
    img[i,0] = rx / (float) ns;
    img[i,1] = ry / (float) ns;
    img[i,2] = rz / (float) ns;
  }
"
        )
    };
}

/// Unoptimized kernel: scene read from global memory.
pub const KERNEL_PERFECT: &str = concat!(
    "perfect void raytrace(int npix, int p0, int width, int height, int ns,
    int nsph, int seed, int maxd, int rrd,
    float[npix,3] img, float[nsph,10] spheres) {",
    tracer_body!("spheres"),
    "}"
);

/// "Optimized" `gpu` kernel: scene staged in local memory. As in the
/// paper, this barely helps — divergence dominates.
pub const KERNEL_GPU: &str = concat!(
    "gpu void raytrace(int npix, int p0, int width, int height, int ns,
    int nsph, int seed, int maxd, int rrd,
    float[npix,3] img, float[nsph,10] spheres) {
  foreach (int blk in (npix + 255) / 256 blocks) {
    local float lsph[16,10];
    foreach (int lt in 256 threads) {
      if (lt < nsph) {
        for (int q = 0; q < 10; q++) { lsph[lt,q] = spheres[lt,q]; }
      }
      barrier();
      int npix_inner = min(256, npix - blk * 256);
      int base = blk * 256;",
    // The inner foreach below re-expresses the pixel loop over this block.
    "
      if (lt < npix_inner) {
        int i = base + lt;
        int pid = p0 + i;
        int x = pid % width;
        int y = pid / width;
        int state = (seed ^ (pid * 2654435761)) & 2147483647;
        if (state == 0) { state = 88172645; }
        float rx = 0.0;
        float ry = 0.0;
        float rz = 0.0;
        for (int s = 0; s < ns; s++) {
          state = (state ^ (state << 13)) & 4294967295;
          state = state ^ (state >> 17);
          state = (state ^ (state << 5)) & 4294967295;
          float jx = (float) (state & 8388607) / 8388608.0;
          state = (state ^ (state << 13)) & 4294967295;
          state = state ^ (state >> 17);
          state = (state ^ (state << 5)) & 4294967295;
          float jy = (float) (state & 8388607) / 8388608.0;
          float u = ((float) x + jx) / (float) width - 0.5;
          float v = ((float) y + jy) / (float) height - 0.5;
          float dx = u * 0.5135 * (float) width / (float) height;
          float dy = 0.0 - v * 0.5135 - 0.042612;
          float dz = -1.0;
          float dl = rsqrt(dx * dx + dy * dy + dz * dz);
          dx = dx * dl;
          dy = dy * dl;
          dz = dz * dl;
          float ox = 50.0 + dx * 140.0;
          float oy = 52.0 + dy * 140.0;
          float oz = 295.6 + dz * 140.0;
          float tx = 1.0;
          float ty = 1.0;
          float tz = 1.0;
          int alive = 1;
          for (int depth = 0; depth < maxd && alive == 1; depth++) {
            float best = 1e20;
            int hit = -1;
            for (int sp = 0; sp < nsph; sp++) {
              float opx = lsph[sp,1] - ox;
              float opy = lsph[sp,2] - oy;
              float opz = lsph[sp,3] - oz;
              float b = opx * dx + opy * dy + opz * dz;
              float det = b * b - (opx * opx + opy * opy + opz * opz)
                  + lsph[sp,0] * lsph[sp,0];
              if (det >= 0.0) {
                float sd = sqrt(det);
                float t1 = b - sd;
                float t2 = b + sd;
                float t = 1e20;
                if (t1 > 0.0001) { t = t1; }
                else if (t2 > 0.0001) { t = t2; }
                if (t < best) { best = t; hit = sp; }
              }
            }
            if (hit < 0) {
              alive = 0;
            } else {
              float hx = ox + dx * best;
              float hy = oy + dy * best;
              float hz = oz + dz * best;
              float nx = hx - lsph[hit,1];
              float ny = hy - lsph[hit,2];
              float nz = hz - lsph[hit,3];
              float nl = rsqrt(nx * nx + ny * ny + nz * nz);
              nx = nx * nl;
              ny = ny * nl;
              nz = nz * nl;
              if (nx * dx + ny * dy + nz * dz > 0.0) {
                nx = 0.0 - nx;
                ny = 0.0 - ny;
                nz = 0.0 - nz;
              }
              rx += tx * lsph[hit,4];
              ry += ty * lsph[hit,5];
              rz += tz * lsph[hit,6];
              tx *= lsph[hit,7];
              ty *= lsph[hit,8];
              tz *= lsph[hit,9];
              if (depth >= rrd) {
                state = (state ^ (state << 13)) & 4294967295;
                state = state ^ (state >> 17);
                state = (state ^ (state << 5)) & 4294967295;
                float rr = (float) (state & 8388607) / 8388608.0;
                if (rr > 0.75) {
                  alive = 0;
                } else {
                  tx /= 0.75;
                  ty /= 0.75;
                  tz /= 0.75;
                }
              }
              if (alive == 1) {
                state = (state ^ (state << 13)) & 4294967295;
                state = state ^ (state >> 17);
                state = (state ^ (state << 5)) & 4294967295;
                float r1 = (float) (state & 8388607) / 8388608.0 * 6.2831853;
                state = (state ^ (state << 13)) & 4294967295;
                state = state ^ (state >> 17);
                state = (state ^ (state << 5)) & 4294967295;
                float r2 = (float) (state & 8388607) / 8388608.0;
                float r2s = sqrt(r2);
                float ax = 0.0;
                float ay = 1.0;
                if (fabs(nx) < 0.1) { ax = 1.0; ay = 0.0; }
                float ux = ay * nz;
                float uy = 0.0 - ax * nz;
                float uz = ax * ny - ay * nx;
                float ul = rsqrt(ux * ux + uy * uy + uz * uz);
                ux = ux * ul;
                uy = uy * ul;
                uz = uz * ul;
                float vx = ny * uz - nz * uy;
                float vy = nz * ux - nx * uz;
                float vz = nx * uy - ny * ux;
                float c1 = cos(r1) * r2s;
                float s1 = sin(r1) * r2s;
                float w1 = sqrt(1.0 - r2);
                dx = ux * c1 + vx * s1 + nx * w1;
                dy = uy * c1 + vy * s1 + ny * w1;
                dz = uz * c1 + vz * s1 + nz * w1;
                float dl2 = rsqrt(dx * dx + dy * dy + dz * dz);
                dx = dx * dl2;
                dy = dy * dl2;
                dz = dz * dl2;
                ox = hx + dx * 0.001;
                oy = hy + dy * 0.001;
                oz = hz + dz * 0.001;
              }
            }
          }
        }
        img[i,0] = rx / (float) ns;
        img[i,1] = ry / (float) ns;
        img[i,2] = rz / (float) ns;
      }
    }
  }
}"
);

/// The Cornell-box scene (smallpt's, all-diffuse): 9 spheres ×
/// `(radius, center xyz, emission rgb, color rgb)`.
pub fn cornell_scene() -> Vec<f64> {
    let f = |v: f64| f64::from(v as f32);
    #[rustfmt::skip]
    let spheres: [[f64; 10]; 9] = [
        [1e5, 1e5 + 1.0, 40.8, 81.6,    0.0, 0.0, 0.0,   0.75, 0.25, 0.25],
        [1e5, -1e5 + 99.0, 40.8, 81.6,  0.0, 0.0, 0.0,   0.25, 0.25, 0.75],
        [1e5, 50.0, 40.8, 1e5,          0.0, 0.0, 0.0,   0.75, 0.75, 0.75],
        [1e5, 50.0, 40.8, -1e5 + 170.0, 0.0, 0.0, 0.0,   0.0, 0.0, 0.0],
        [1e5, 50.0, 1e5, 81.6,          0.0, 0.0, 0.0,   0.75, 0.75, 0.75],
        [1e5, 50.0, -1e5 + 81.6, 81.6,  0.0, 0.0, 0.0,   0.75, 0.75, 0.75],
        [16.5, 27.0, 16.5, 47.0,        0.0, 0.0, 0.0,   0.999, 0.999, 0.999],
        [16.5, 73.0, 16.5, 78.0,        0.0, 0.0, 0.0,   0.999, 0.999, 0.999],
        [600.0, 50.0, 681.33, 81.6,     12.0, 12.0, 12.0, 0.0, 0.0, 0.0],
    ];
    spheres.iter().flatten().map(|&v| f(v)).collect()
}

/// Problem description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaytracerProblem {
    pub width: u64,
    pub height: u64,
    /// Random samples per pixel.
    pub samples: u64,
    pub seed: i64,
}

impl RaytracerProblem {
    /// The paper's measurement: the Cornell scene at 16384×8192 with 500
    /// samples (Sec. V-B1).
    pub fn paper() -> RaytracerProblem {
        RaytracerProblem {
            width: 16384,
            height: 8192,
            samples: 500,
            seed: 1,
        }
    }

    pub fn pixels(&self) -> u64 {
        self.width * self.height
    }

    /// Estimated flop count (consistent estimate for GFLOPS reporting).
    pub fn flops(&self) -> f64 {
        self.pixels() as f64 * self.samples as f64 * AVG_BOUNCES * 9.0 * FLOPS_PER_SPHERE_TEST
    }

    pub fn job_flops(&self, pixels: u64) -> f64 {
        pixels as f64 * self.samples as f64 * AVG_BOUNCES * 9.0 * FLOPS_PER_SPHERE_TEST
    }
}

/// Output: rendered pixel segments.
#[derive(Debug, Clone, PartialEq)]
pub struct RtSeg {
    pub p0: u64,
    pub count: u64,
    /// RGB data (Real mode only).
    pub rgb: Option<Vec<f64>>,
}

impl Segment for RtSeg {
    fn position(&self) -> (u64, u64) {
        (self.p0, 0)
    }

    fn absorb(&mut self, next: &RtSeg) -> bool {
        let merge = self.rgb.is_none() && next.rgb.is_none() && self.p0 + self.count == next.p0;
        if merge {
            self.count += next.count;
        }
        merge
    }
}

/// The raytracer application.
pub struct RaytracerApp {
    pub problem: RaytracerProblem,
    pub mode: AppMode,
    pub node_grain_pixels: u64,
    pub device_jobs: u64,
    pub cpu_model: CpuLeafModel,
    /// The scene as the kernels' `[9, 10]` argument, built once: every
    /// device job's argument shares its data.
    scene_arg: ArrayArg,
}

impl RaytracerApp {
    pub fn new(
        problem: RaytracerProblem,
        mode: AppMode,
        node_grain_pixels: u64,
        device_jobs: u64,
    ) -> RaytracerApp {
        RaytracerApp {
            problem,
            mode,
            node_grain_pixels,
            device_jobs,
            cpu_model: CpuLeafModel::IRREGULAR,
            scene_arg: ArrayArg::float(&[9, 10], cornell_scene()),
        }
    }

    pub fn registry(set: KernelSet) -> KernelRegistry {
        crate::common::build_registry(&[KERNEL_PERFECT], &[KERNEL_GPU], set)
    }

    fn ns_cal(&self) -> u64 {
        self.problem.samples.min(4)
    }

    /// Native CPU path tracer with the same algorithm (used by `leafCPU`
    /// and the Satin runs). Not bit-identical to the kernels (different
    /// float paths), but statistically equivalent.
    pub fn cpu_trace(&self, p0: u64, count: u64) -> Vec<f64> {
        let pr = &self.problem;
        let scene = self.scene_arg.as_f64();
        let mut out = vec![0.0f64; count as usize * 3];
        for i in 0..count {
            let pid = p0 + i;
            let x = (pid % pr.width) as f64;
            let y = (pid / pr.width) as f64;
            let mut state: i64 = (pr.seed ^ (pid as i64).wrapping_mul(2654435761)) & 2147483647;
            if state == 0 {
                state = 88172645;
            }
            let mut rnd = move || -> f64 {
                state = (state ^ (state << 13)) & 4294967295;
                state ^= ((state as u64) >> 17) as i64;
                state = (state ^ (state << 5)) & 4294967295;
                (state & 8388607) as f64 / 8388608.0
            };
            let (mut rx, mut ry, mut rz) = (0.0, 0.0, 0.0);
            for _ in 0..pr.samples {
                let u = (x + rnd()) / pr.width as f64 - 0.5;
                let v = (y + rnd()) / pr.height as f64 - 0.5;
                let mut d = [
                    u * 0.5135 * pr.width as f64 / pr.height as f64,
                    -v * 0.5135 - 0.042612,
                    -1.0,
                ];
                let dl = 1.0 / (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                d.iter_mut().for_each(|c| *c *= dl);
                // As in smallpt: start 140 units forward, inside the box.
                let (mut ox, mut oy, mut oz) = (
                    50.0 + d[0] * 140.0,
                    52.0 + d[1] * 140.0,
                    295.6 + d[2] * 140.0,
                );
                let (mut tx, mut ty, mut tz) = (1.0, 1.0, 1.0);
                for depth in 0..MAX_DEPTH {
                    // nearest sphere
                    let mut best = 1e20;
                    let mut hit = usize::MAX;
                    for sp in 0..9 {
                        let s = &scene[sp * 10..sp * 10 + 10];
                        let op = [s[1] - ox, s[2] - oy, s[3] - oz];
                        let b = op[0] * d[0] + op[1] * d[1] + op[2] * d[2];
                        let det =
                            b * b - (op[0] * op[0] + op[1] * op[1] + op[2] * op[2]) + s[0] * s[0];
                        if det >= 0.0 {
                            let sd = det.sqrt();
                            let t = if b - sd > 1e-4 {
                                b - sd
                            } else if b + sd > 1e-4 {
                                b + sd
                            } else {
                                1e20
                            };
                            if t < best {
                                best = t;
                                hit = sp;
                            }
                        }
                    }
                    if hit == usize::MAX {
                        break;
                    }
                    let s = &scene[hit * 10..hit * 10 + 10];
                    let h = [ox + d[0] * best, oy + d[1] * best, oz + d[2] * best];
                    let mut n = [h[0] - s[1], h[1] - s[2], h[2] - s[3]];
                    let nl = 1.0 / (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
                    n.iter_mut().for_each(|c| *c *= nl);
                    if n[0] * d[0] + n[1] * d[1] + n[2] * d[2] > 0.0 {
                        n.iter_mut().for_each(|c| *c = -*c);
                    }
                    rx += tx * s[4];
                    ry += ty * s[5];
                    rz += tz * s[6];
                    tx *= s[7];
                    ty *= s[8];
                    tz *= s[9];
                    if depth >= RR_DEPTH {
                        if rnd() > RR_KEEP {
                            break;
                        }
                        tx /= RR_KEEP;
                        ty /= RR_KEEP;
                        tz /= RR_KEEP;
                    }
                    // cosine hemisphere
                    let r1 = rnd() * std::f64::consts::TAU;
                    let r2 = rnd();
                    let r2s = r2.sqrt();
                    let a = if n[0].abs() < 0.1 {
                        [1.0, 0.0]
                    } else {
                        [0.0, 1.0]
                    };
                    let mut uvec = [a[1] * n[2], -a[0] * n[2], a[0] * n[1] - a[1] * n[0]];
                    let ul =
                        1.0 / (uvec[0] * uvec[0] + uvec[1] * uvec[1] + uvec[2] * uvec[2]).sqrt();
                    uvec.iter_mut().for_each(|c| *c *= ul);
                    let vvec = [
                        n[1] * uvec[2] - n[2] * uvec[1],
                        n[2] * uvec[0] - n[0] * uvec[2],
                        n[0] * uvec[1] - n[1] * uvec[0],
                    ];
                    let (c1, s1, w1) = (r1.cos() * r2s, r1.sin() * r2s, (1.0 - r2).sqrt());
                    for k in 0..3 {
                        d[k] = uvec[k] * c1 + vvec[k] * s1 + n[k] * w1;
                    }
                    let dl2 = 1.0 / (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                    d.iter_mut().for_each(|c| *c *= dl2);
                    ox = h[0] + d[0] * 1e-3;
                    oy = h[1] + d[1] * 1e-3;
                    oz = h[2] + d[2] * 1e-3;
                }
            }
            out[i as usize * 3] = rx / pr.samples as f64;
            out[i as usize * 3 + 1] = ry / pr.samples as f64;
            out[i as usize * 3 + 2] = rz / pr.samples as f64;
        }
        out
    }
}

impl ClusterApp for RaytracerApp {
    type Input = (u64, u64);
    type Output = Vec<RtSeg>;

    fn step(&self, &(lo, hi): &(u64, u64)) -> DcStep<(u64, u64)> {
        match binary_divide(lo, hi, self.node_grain_pixels) {
            Some(ch) => DcStep::Divide(ch),
            None => DcStep::Leaf,
        }
    }

    fn leaf_cpu(&self, &(lo, hi): &(u64, u64)) -> (SimTime, Vec<RtSeg>) {
        let t = self.cpu_model.time(self.problem.job_flops(hi - lo));
        let rgb = match self.mode {
            AppMode::Real => Some(self.cpu_trace(lo, hi - lo)),
            AppMode::Phantom => None,
        };
        (
            t,
            vec![RtSeg {
                p0: lo,
                count: hi - lo,
                rgb,
            }],
        )
    }

    fn is_leaf(&self, &(lo, hi): &(u64, u64)) -> bool {
        within_grain(lo, hi, self.node_grain_pixels)
    }

    fn combine(&self, _i: &(u64, u64), children: Vec<Vec<RtSeg>>) -> Vec<RtSeg> {
        combine_segments(children)
    }

    fn input_bytes(&self, _i: &(u64, u64)) -> u64 {
        // A job input is just the pixel range + scene (tiny): the
        // raytracer's communication is light (Table II).
        512
    }

    fn output_bytes(&self, segs: &Vec<RtSeg>) -> u64 {
        segs.iter().map(|s| s.count * 12).sum()
    }
}

impl CashmereApp for RaytracerApp {
    fn device_jobs(&self, &(lo, hi): &(u64, u64)) -> Vec<(u64, u64)> {
        split_range(lo, hi, self.device_jobs)
    }

    fn kernel_call(&self, &(lo, hi): &(u64, u64)) -> KernelCall {
        let pr = &self.problem;
        let npix = hi - lo;
        let (ns, extra_scale) = match self.mode {
            AppMode::Real => (pr.samples, 1.0),
            AppMode::Phantom => (self.ns_cal(), pr.samples as f64 / self.ns_cal() as f64),
        };
        // In phantom mode the pixel offset only perturbs the per-pixel RNG;
        // pinning it keeps every equally-sized job one stats-cache shape
        // instead of re-interpreting the kernel per job.
        let p0 = match self.mode {
            AppMode::Real => lo,
            AppMode::Phantom => 0,
        };
        let img = match self.mode {
            AppMode::Real => ArrayArg::zeros(ElemTy::Float, &[npix, 3]),
            AppMode::Phantom => ArrayArg::phantom(ElemTy::Float, &[npix, 3]),
        };
        let args = vec![
            ArgValue::Int(npix as i64),
            ArgValue::Int(p0 as i64),
            ArgValue::Int(pr.width as i64),
            ArgValue::Int(pr.height as i64),
            ArgValue::Int(ns as i64),
            ArgValue::Int(9),
            ArgValue::Int(pr.seed),
            ArgValue::Int(MAX_DEPTH),
            ArgValue::Int(RR_DEPTH),
            ArgValue::Array(img),
            ArgValue::Array(self.scene_arg.clone()),
        ];
        let mut call = KernelCall::from_args("raytrace", args, &[9]);
        call.h2d_bytes = 9 * 10 * 4 + 64;
        call.d2h_bytes = npix * 12;
        call.extra_scale = extra_scale;
        call
    }

    fn job_output(&self, &(lo, hi): &(u64, u64), args: Vec<ArgValue>) -> Vec<RtSeg> {
        let rgb = match self.mode {
            AppMode::Real => Some(args[9].clone().array().as_f64().to_vec()),
            AppMode::Phantom => None,
        };
        vec![RtSeg {
            p0: lo,
            count: hi - lo,
            rgb,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere::{build_cluster, ClusterSpec, RuntimeConfig};
    use cashmere_satin::SimConfig;

    fn small() -> RaytracerProblem {
        RaytracerProblem {
            width: 32,
            height: 24,
            samples: 8,
            seed: 7,
        }
    }

    fn render(set: KernelSet, device: &str) -> Vec<f64> {
        let pr = small();
        let app = RaytracerApp::new(pr, AppMode::Real, 256, 2);
        let mut cluster = build_cluster(
            app,
            RaytracerApp::registry(set),
            &ClusterSpec::homogeneous(1, device),
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let segs = cluster.run_root((0, pr.pixels()));
        let mut out = Vec::new();
        for s in &segs {
            assert_eq!(out.len() as u64, s.p0 * 3);
            out.extend_from_slice(s.rgb.as_ref().unwrap());
        }
        out
    }

    #[test]
    fn kernels_compile() {
        assert_eq!(
            RaytracerApp::registry(KernelSet::Optimized)
                .versions_of("raytrace")
                .len(),
            2
        );
    }

    #[test]
    fn renders_a_plausible_cornell_box() {
        let img = render(KernelSet::Unoptimized, "gtx480");
        let pr = small();
        assert_eq!(img.len() as u64, pr.pixels() * 3);
        assert!(
            img.iter().all(|&v| (0.0..=20.0).contains(&v)),
            "radiance bounded"
        );
        let mean: f64 = img.iter().sum::<f64>() / img.len() as f64;
        assert!(mean > 0.05, "scene is lit (mean {mean})");
        // The left wall is red-ish, the right wall blue-ish: compare red
        // and blue channel sums over the left/right image halves.
        let w = pr.width as usize;
        let (mut left_r, mut left_b, mut right_r, mut right_b) = (0.0, 0.0, 0.0, 0.0);
        for y in 0..pr.height as usize {
            for x in 0..w {
                let p = (y * w + x) * 3;
                if x < w / 4 {
                    left_r += img[p];
                    left_b += img[p + 2];
                } else if x >= w - w / 4 {
                    right_r += img[p];
                    right_b += img[p + 2];
                }
            }
        }
        assert!(
            left_r / left_b > right_r / right_b,
            "left half redder than right: {left_r}/{left_b} vs {right_r}/{right_b}"
        );
    }

    #[test]
    fn deterministic_rendering() {
        let a = render(KernelSet::Unoptimized, "gtx480");
        let b = render(KernelSet::Unoptimized, "gtx480");
        assert_eq!(a, b);
    }

    #[test]
    fn optimized_version_statistically_matches() {
        // Same RNG stream, but local-memory f32 rounding can flip individual
        // path decisions — compare image means, not pixels.
        let a = render(KernelSet::Unoptimized, "gtx480");
        let b = render(KernelSet::Optimized, "gtx480");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (ma, mb) = (mean(&a), mean(&b));
        assert!((ma - mb).abs() / ma < 0.05, "means differ: {ma} vs {mb}");
    }

    #[test]
    fn cpu_reference_statistically_matches_kernel() {
        let pr = small();
        let app = RaytracerApp::new(pr, AppMode::Real, 4096, 1);
        let cpu = app.cpu_trace(0, pr.pixels());
        let dev = render(KernelSet::Unoptimized, "gtx480");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mc, md) = (mean(&cpu), mean(&dev));
        assert!((mc - md).abs() / mc < 0.1, "{mc} vs {md}");
    }

    #[test]
    fn kernel_diverges_heavily() {
        // The whole point of the raytracer: measure the divergence the
        // analyzer sees at paper scale.
        let reg = RaytracerApp::registry(KernelSet::Unoptimized);
        let d = cashmere_devsim::SimDevice::by_name(reg.hierarchy(), "gtx480").unwrap();
        let kernel = reg.prepare("raytrace", &d).unwrap();
        let app = RaytracerApp::new(small(), AppMode::Phantom, 256, 1);
        let call = app.kernel_call(&(0, 768));
        let stats = kernel.run_sampled(&call.args).unwrap();
        assert!(
            stats.divergence_rate() > 0.10,
            "divergence {}",
            stats.divergence_rate()
        );
        assert!(stats.lane_efficiency() < 0.9);
    }

    #[test]
    fn optimization_gains_little_at_scale() {
        // Paper Fig. 6: raytracer optimized ≈ unoptimized.
        let time_with = |set: KernelSet| {
            let pr = RaytracerProblem {
                width: 1024,
                height: 512,
                samples: 64,
                seed: 3,
            };
            let app = RaytracerApp::new(pr, AppMode::Phantom, 65_536, 8);
            let mut cluster = build_cluster(
                app,
                RaytracerApp::registry(set),
                &ClusterSpec::homogeneous(2, "gtx480"),
                SimConfig {
                    max_concurrent_leaves: 2,
                    ..SimConfig::default()
                },
                RuntimeConfig::default(),
            )
            .unwrap();
            let _ = cluster.run_root((0, pr.pixels()));
            cluster.report().makespan.as_secs_f64()
        };
        let unopt = time_with(KernelSet::Unoptimized);
        let opt = time_with(KernelSet::Optimized);
        let factor = unopt / opt;
        assert!(
            (0.7..1.6).contains(&factor),
            "optimizing the raytracer should barely help: {factor:.2}x"
        );
    }
}
