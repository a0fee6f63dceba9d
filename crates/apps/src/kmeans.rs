//! K-means clustering — the paper's iterative application with minimal
//! (constant) communication between iterations (Table II).
//!
//! Each iteration assigns every point to its nearest centroid on the
//! devices, the hosts reduce partial sums per cluster, and the master
//! updates and broadcasts the new centroids (communication `O(k)`,
//! computation `O(n·k·d)` — Sec. IV). The paper clusters 268 million
//! 4-feature points into 4096 clusters over 3 iterations (Sec. V-B3).
//!
//! Kernel versions:
//! * `perfect` — straightforward nearest-centroid loop;
//! * `gpu` — centroids staged through local memory in tiles, distance loop
//!   unrolled for `d = 4`;
//! * `mic` — coarse per-core point chunks (few, fat work-groups).

use crate::common::{binary_divide, split_range, within_grain, AppMode, CpuLeafModel, KernelSet};
use cashmere::{CashmereApp, KernelCall, KernelRegistry};
use cashmere_des::SimTime;
use cashmere_mcl::value::{ArgValue, ArrayArg};
use cashmere_mcl::ElemTy;
use cashmere_satin::{ClusterApp, DcStep};
use std::sync::{Arc, RwLock};

/// Unoptimized assignment kernel.
pub const KERNEL_PERFECT: &str = "\
perfect void kmeans_assign(int npts, int k, int d,
    int[npts] assign, float[npts,d] points, float[k,d] centroids) {
  foreach (int i in npts threads) {
    float best = 1e30;
    int bestc = 0;
    for (int c = 0; c < k; c++) {
      float dist = 0.0;
      for (int f = 0; f < d; f++) {
        float diff = points[i,f] - centroids[c,f];
        dist += diff * diff;
      }
      if (dist < best) { best = dist; bestc = c; }
    }
    assign[i] = bestc;
  }
}";

/// Optimized `gpu` version: centroid tiles in local memory, `d = 4`
/// unrolled (the evaluation's feature count).
pub const KERNEL_GPU: &str = "\
gpu void kmeans_assign(int npts, int k, int d,
    int[npts] assign, float[npts,d] points, float[k,d] centroids) {
  foreach (int b in (npts + 255) / 256 blocks) {
    local float cent[64,4];
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      float p0 = 0.0;
      float p1 = 0.0;
      float p2 = 0.0;
      float p3 = 0.0;
      if (i < npts) {
        p0 = points[i,0];
        p1 = points[i,1];
        p2 = points[i,2];
        p3 = points[i,3];
      }
      float best = 1e30;
      int bestc = 0;
      int tiles = (k + 63) / 64;
      for (int tile = 0; tile < tiles; tile++) {
        int base = tile * 64;
        if (t < 64 && base + t < k) {
          cent[t,0] = centroids[base + t, 0];
          cent[t,1] = centroids[base + t, 1];
          cent[t,2] = centroids[base + t, 2];
          cent[t,3] = centroids[base + t, 3];
        }
        barrier();
        int limit = min(64, k - base);
        for (int c = 0; c < limit; c++) {
          float d0 = p0 - cent[c,0];
          float d1 = p1 - cent[c,1];
          float d2 = p2 - cent[c,2];
          float d3 = p3 - cent[c,3];
          float dist = d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3;
          if (dist < best) { best = dist; bestc = base + c; }
        }
        barrier();
      }
      if (i < npts) { assign[i] = bestc; }
    }
  }
}";

/// Optimized `mic` version: coarse per-core point chunks with centroid
/// tiles staged through local memory, `d = 4` unrolled.
pub const KERNEL_MIC: &str = "\
mic void kmeans_assign(int npts, int k, int d,
    int[npts] assign, float[npts,d] points, float[k,d] centroids) {
  foreach (int chunk in (npts + 4095) / 4096 cores) {
    local float cent[64,4];
    foreach (int t in 64 threads) {
      int blocks = 4096 / 64;
      for (int bb = 0; bb < blocks; bb++) {
        int i = chunk * 4096 + bb * 64 + t;
        float p0 = 0.0;
        float p1 = 0.0;
        float p2 = 0.0;
        float p3 = 0.0;
        if (i < npts) {
          p0 = points[i,0];
          p1 = points[i,1];
          p2 = points[i,2];
          p3 = points[i,3];
        }
        float best = 1e30;
        int bestc = 0;
        int tiles = (k + 63) / 64;
        for (int tile = 0; tile < tiles; tile++) {
          int base = tile * 64;
          if (base + t < k) {
            cent[t,0] = centroids[base + t, 0];
            cent[t,1] = centroids[base + t, 1];
            cent[t,2] = centroids[base + t, 2];
            cent[t,3] = centroids[base + t, 3];
          }
          barrier();
          int limit = min(64, k - base);
          for (int c = 0; c < limit; c++) {
            float d0 = p0 - cent[c,0];
            float d1 = p1 - cent[c,1];
            float d2 = p2 - cent[c,2];
            float d3 = p3 - cent[c,3];
            float dist = d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3;
            if (dist < best) { best = dist; bestc = base + c; }
          }
          barrier();
        }
        if (i < npts) { assign[i] = bestc; }
      }
    }
  }
}";

/// Problem description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmeansProblem {
    /// Number of points.
    pub n: u64,
    /// Clusters.
    pub k: u64,
    /// Features per point.
    pub d: u64,
    /// Iterations to run.
    pub iterations: u32,
}

impl KmeansProblem {
    /// The paper's problem: 268 M points, 4 features, 4096 clusters,
    /// 3 iterations (Sec. V-B3).
    pub fn paper() -> KmeansProblem {
        KmeansProblem {
            n: 268_000_000,
            k: 4096,
            d: 4,
            iterations: 3,
        }
    }

    /// Algorithmic flops per iteration: distance evaluation is
    /// `3·d` flops (sub, mul, add) per point per centroid.
    pub fn flops_per_iteration(&self) -> f64 {
        3.0 * self.n as f64 * self.k as f64 * self.d as f64
    }

    pub fn total_flops(&self) -> f64 {
        self.flops_per_iteration() * f64::from(self.iterations)
    }

    pub fn job_flops(&self, pts: u64) -> f64 {
        3.0 * pts as f64 * self.k as f64 * self.d as f64
    }
}

/// Partial clustering statistics produced per job and summed by `combine`.
#[derive(Debug, Clone, PartialEq)]
pub struct KmOut {
    /// `k × d` feature sums (empty in phantom mode).
    pub sums: Vec<f64>,
    /// Points per cluster (empty in phantom mode).
    pub counts: Vec<u64>,
}

impl KmOut {
    fn add(mut self, other: KmOut) -> KmOut {
        if self.sums.is_empty() {
            return other;
        }
        if other.sums.is_empty() {
            return self;
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self
    }
}

/// Shared mutable centroids (updated by the driver between iterations).
pub type Centroids = Arc<RwLock<Vec<f64>>>;

/// The master's centroid update: every non-empty cluster moves to the mean
/// of its assigned points. Returns the maximum displacement.
pub fn apply_centroid_update(pr: &KmeansProblem, out: &KmOut, cent: &mut [f64]) -> f64 {
    let d = pr.d as usize;
    let mut movement = 0.0f64;
    for c in 0..pr.k as usize {
        if out.counts[c] == 0 {
            continue;
        }
        for f in 0..d {
            let new = out.sums[c * d + f] / out.counts[c] as f64;
            movement = movement.max((new - cent[c * d + f]).abs());
            cent[c * d + f] = new;
        }
    }
    movement
}

/// The K-means application.
pub struct KmeansApp {
    pub problem: KmeansProblem,
    pub mode: AppMode,
    pub node_grain_pts: u64,
    pub device_jobs: u64,
    pub cpu_model: CpuLeafModel,
    /// Point data, AoS `n × d` (Real mode only).
    points: Option<Arc<Vec<f64>>>,
    /// Current centroids, `k × d`.
    pub centroids: Centroids,
}

impl KmeansApp {
    pub fn phantom(problem: KmeansProblem, node_grain_pts: u64, device_jobs: u64) -> KmeansApp {
        KmeansApp {
            problem,
            mode: AppMode::Phantom,
            node_grain_pts,
            device_jobs,
            cpu_model: CpuLeafModel::MODERATE,
            points: None,
            centroids: Arc::new(RwLock::new(Vec::new())),
        }
    }

    pub fn real(
        problem: KmeansProblem,
        node_grain_pts: u64,
        device_jobs: u64,
        seed: u64,
    ) -> KmeansApp {
        let points = generate_points(&problem, seed);
        let centroids = initial_centroids(&problem, &points);
        KmeansApp {
            problem,
            mode: AppMode::Real,
            node_grain_pts,
            device_jobs,
            cpu_model: CpuLeafModel::MODERATE,
            points: Some(Arc::new(points)),
            centroids: Arc::new(RwLock::new(centroids)),
        }
    }

    pub fn registry(set: KernelSet) -> KernelRegistry {
        crate::common::build_registry(&[KERNEL_PERFECT], &[KERNEL_GPU, KERNEL_MIC], set)
    }

    pub fn points(&self) -> Option<&Arc<Vec<f64>>> {
        self.points.as_ref()
    }

    /// Calibrated cluster count for phantom runs.
    fn k_cal(&self) -> u64 {
        self.problem.k.min(128)
    }

    /// Nearest-centroid assignment + partial sums on the CPU for points
    /// `[lo, hi)` — the reference and the `leafCPU` body.
    pub fn cpu_assign(&self, lo: u64, hi: u64) -> KmOut {
        let (Some(points), pr) = (&self.points, &self.problem) else {
            return KmOut {
                sums: Vec::new(),
                counts: Vec::new(),
            };
        };
        let cent = self.centroids.read().expect("centroids lock");
        let d = pr.d as usize;
        let k = pr.k as usize;
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0u64; k];
        for i in lo..hi {
            let p = &points[i as usize * d..(i as usize + 1) * d];
            let mut best = f64::INFINITY;
            let mut bestc = 0usize;
            for c in 0..k {
                let mut dist = 0.0;
                for (f, pf) in p.iter().enumerate() {
                    let diff = ((pf - cent[c * d + f]) as f32) as f64;
                    dist += diff * diff;
                }
                let dist = (dist as f32) as f64;
                if dist < best {
                    best = dist;
                    bestc = c;
                }
            }
            counts[bestc] += 1;
            for (f, pf) in p.iter().enumerate() {
                sums[bestc * d + f] += pf;
            }
        }
        KmOut { sums, counts }
    }

    /// Partial sums from device-computed assignments.
    fn sums_from_assignments(&self, lo: u64, hi: u64, assign: &[i64]) -> KmOut {
        let (Some(points), pr) = (&self.points, &self.problem) else {
            return KmOut {
                sums: Vec::new(),
                counts: Vec::new(),
            };
        };
        let d = pr.d as usize;
        let k = pr.k as usize;
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0u64; k];
        for (j, i) in (lo..hi).enumerate() {
            let c = assign[j] as usize;
            counts[c] += 1;
            for f in 0..d {
                sums[c * d + f] += points[i as usize * d + f];
            }
        }
        KmOut { sums, counts }
    }

    /// Update centroids from an iteration's global sums (Real mode);
    /// returns the movement (max centroid displacement).
    pub fn update_centroids(&self, out: &KmOut) -> f64 {
        if out.sums.is_empty() {
            return 0.0;
        }
        let mut cent = self.centroids.write().expect("centroids lock");
        apply_centroid_update(&self.problem, out, &mut cent)
    }
}

fn generate_points(pr: &KmeansProblem, seed: u64) -> Vec<f64> {
    // Clustered synthetic data: points scattered around k/8 loose centers.
    let centers = (pr.k / 8).max(2);
    (0..pr.n * pr.d)
        .map(|i| {
            let pt = i / pr.d;
            let mut x = (pt ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 29;
            let center = (x % centers) as f64 * 10.0;
            let mut y = (i ^ seed ^ 0xC0FFEE).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            y ^= y >> 31;
            center + (y % 1000) as f64 / 500.0
        })
        .collect()
}

fn initial_centroids(pr: &KmeansProblem, points: &[f64]) -> Vec<f64> {
    // First k points, the classic Forgy-style seeding.
    points[..(pr.k * pr.d) as usize].to_vec()
}

impl ClusterApp for KmeansApp {
    type Input = (u64, u64);
    type Output = KmOut;

    fn step(&self, &(lo, hi): &(u64, u64)) -> DcStep<(u64, u64)> {
        match binary_divide(lo, hi, self.node_grain_pts) {
            Some(ch) => DcStep::Divide(ch),
            None => DcStep::Leaf,
        }
    }

    fn is_leaf(&self, &(lo, hi): &(u64, u64)) -> bool {
        within_grain(lo, hi, self.node_grain_pts)
    }

    fn leaf_cpu(&self, &(lo, hi): &(u64, u64)) -> (SimTime, KmOut) {
        let t = self.cpu_model.time(self.problem.job_flops(hi - lo));
        (t, self.cpu_assign(lo, hi))
    }

    fn combine(&self, _i: &(u64, u64), children: Vec<KmOut>) -> KmOut {
        children.into_iter().reduce(KmOut::add).unwrap_or(KmOut {
            sums: Vec::new(),
            counts: Vec::new(),
        })
    }

    fn input_bytes(&self, _i: &(u64, u64)) -> u64 {
        // The point data is pre-distributed (DAS-4 nodes read it from the
        // parallel filesystem; Satin's shared objects keep it resident), so
        // a stolen job ships only its range descriptor — the paper's
        // per-iteration communication for k-means is O(k), not O(n).
        256
    }

    fn output_bytes(&self, _o: &KmOut) -> u64 {
        // k×d sums + k counts.
        self.problem.k * (self.problem.d + 1) * 4
    }

    fn combine_cost(&self, _i: &(u64, u64)) -> SimTime {
        // Element-wise reduction of k×(d+1) values at ~1 G/s.
        SimTime::from_secs_f64(self.problem.k as f64 * (self.problem.d + 1) as f64 / 1e9)
    }
}

impl CashmereApp for KmeansApp {
    fn device_jobs(&self, &(lo, hi): &(u64, u64)) -> Vec<(u64, u64)> {
        split_range(lo, hi, self.device_jobs)
    }

    fn kernel_call(&self, &(lo, hi): &(u64, u64)) -> KernelCall {
        let pr = &self.problem;
        let pts = hi - lo;
        let (args, extra_scale) = match (&self.mode, &self.points) {
            (AppMode::Real, Some(points)) => {
                let slice = points[(lo * pr.d) as usize..(hi * pr.d) as usize].to_vec();
                let cent = self.centroids.read().expect("centroids lock").clone();
                (
                    vec![
                        ArgValue::Int(pts as i64),
                        ArgValue::Int(pr.k as i64),
                        ArgValue::Int(pr.d as i64),
                        ArgValue::Array(ArrayArg::zeros(ElemTy::Int, &[pts])),
                        ArgValue::Array(ArrayArg::float(&[pts, pr.d], slice)),
                        ArgValue::Array(ArrayArg::float(&[pr.k, pr.d], cent)),
                    ],
                    1.0,
                )
            }
            _ => {
                let k_cal = self.k_cal();
                (
                    vec![
                        ArgValue::Int(pts as i64),
                        ArgValue::Int(k_cal as i64),
                        ArgValue::Int(pr.d as i64),
                        ArgValue::Array(ArrayArg::phantom(ElemTy::Int, &[pts])),
                        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[pts, pr.d])),
                        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[k_cal, pr.d])),
                    ],
                    pr.k as f64 / self.k_cal() as f64,
                )
            }
        };
        let mut call = KernelCall::from_args("kmeans_assign", args, &[3]);
        // Points are resident across iterations; per-job traffic is the
        // fresh centroids in and the assignments out.
        call.h2d_bytes = pr.k * pr.d * 4;
        call.resident_bytes = pts * pr.d * 4;
        call.d2h_bytes = pts * 4;
        call.extra_scale = extra_scale;
        call
    }

    fn job_output(&self, &(lo, hi): &(u64, u64), args: Vec<ArgValue>) -> KmOut {
        match self.mode {
            AppMode::Real => {
                let assign = args[3].clone().array();
                self.sums_from_assignments(lo, hi, assign.as_i64())
            }
            AppMode::Phantom => KmOut {
                sums: Vec::new(),
                counts: Vec::new(),
            },
        }
    }
}

/// Run the full iterative algorithm on a built cluster; returns the final
/// global statistics and the virtual time spent (excluding construction).
pub fn run_iterations<L>(
    cluster: &mut cashmere_satin::ClusterSim<KmeansApp, L>,
    problem: &KmeansProblem,
    centroids: &Centroids,
    update: bool,
) -> (KmOut, SimTime)
where
    L: cashmere_satin::LeafRuntime<KmeansApp>,
{
    let start = cluster.now();
    let mut last = KmOut {
        sums: Vec::new(),
        counts: Vec::new(),
    };
    for _ in 0..problem.iterations {
        let out = cluster.run_root((0, problem.n));
        if update && !out.sums.is_empty() {
            // Update centroids exactly as the master would.
            let mut cent = centroids.write().expect("centroids lock");
            apply_centroid_update(problem, &out, &mut cent);
        }
        // Broadcast the new centroids to every node.
        cluster.broadcast(problem.k * problem.d * 4);
        last = out;
    }
    (last, cluster.now() - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere::{build_cluster, ClusterSpec, RuntimeConfig};
    use cashmere_satin::{ClusterSim, Counter, CpuLeafRuntime, SimConfig};

    fn small_problem() -> KmeansProblem {
        KmeansProblem {
            n: 3000,
            k: 16,
            d: 4,
            iterations: 2,
        }
    }

    #[test]
    fn kernels_compile() {
        assert_eq!(
            KmeansApp::registry(KernelSet::Optimized)
                .versions_of("kmeans_assign")
                .len(),
            3
        );
    }

    #[test]
    fn device_assignments_match_cpu_reference() {
        let pr = small_problem();
        let app = KmeansApp::real(pr, 1024, 4, 11);
        let reference = app.cpu_assign(0, pr.n);
        let centroids = Arc::clone(&app.centroids);
        let mut cluster = build_cluster(
            app,
            KmeansApp::registry(KernelSet::Optimized),
            &ClusterSpec::homogeneous(2, "gtx480"),
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let out = cluster.run_root((0, pr.n));
        assert_eq!(out.counts, reference.counts);
        for (a, b) in out.sums.iter().zip(&reference.sums) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        drop(centroids);
    }

    #[test]
    fn unoptimized_kernel_agrees_too() {
        let pr = KmeansProblem {
            n: 900,
            k: 7,
            d: 4,
            iterations: 1,
        };
        let app = KmeansApp::real(pr, 512, 2, 3);
        let reference = app.cpu_assign(0, pr.n);
        let mut cluster = build_cluster(
            app,
            KmeansApp::registry(KernelSet::Unoptimized),
            &ClusterSpec::homogeneous(1, "k20"),
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let out = cluster.run_root((0, pr.n));
        assert_eq!(out.counts, reference.counts);
    }

    #[test]
    fn iterations_converge_on_clustered_data() {
        let pr = small_problem();
        let app = KmeansApp::real(pr, 1024, 4, 42);
        let centroids = Arc::clone(&app.centroids);
        let before = centroids.read().unwrap().clone();
        let mut cluster = build_cluster(
            app,
            KmeansApp::registry(KernelSet::Optimized),
            &ClusterSpec::homogeneous(2, "gtx480"),
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let (out, elapsed) = run_iterations(&mut cluster, &pr, &centroids, true);
        assert!(elapsed > SimTime::ZERO);
        assert_eq!(out.counts.iter().sum::<u64>(), pr.n);
        let after = centroids.read().unwrap().clone();
        assert_ne!(before, after, "centroids moved");
        assert!(cluster.report()[Counter::BytesBroadcast] > 0);
    }

    #[test]
    fn phantom_paper_scale_runs_quickly_and_deterministically() {
        let run = || {
            let pr = KmeansProblem {
                iterations: 1,
                ..KmeansProblem::paper()
            };
            let app = KmeansApp::phantom(pr, 4_200_000, 8);
            let centroids = Arc::new(RwLock::new(Vec::new()));
            let mut cluster = build_cluster(
                app,
                KmeansApp::registry(KernelSet::Optimized),
                &ClusterSpec::homogeneous(16, "gtx480"),
                SimConfig {
                    max_concurrent_leaves: 2,
                    ..SimConfig::default()
                },
                RuntimeConfig::default(),
            )
            .unwrap();
            let (_, elapsed) = run_iterations(&mut cluster, &pr, &centroids, false);
            (elapsed, cluster.report()[Counter::KernelsRun])
        };
        let (t1, k1) = run();
        let (t2, k2) = run();
        assert_eq!((t1, k1), (t2, k2));
        assert!(k1 >= 64 * 8, "{k1}");
    }

    #[test]
    fn satin_variant_matches_reference() {
        let pr = KmeansProblem {
            n: 1200,
            k: 8,
            d: 4,
            iterations: 1,
        };
        let app = KmeansApp::real(pr, 256, 1, 5);
        let reference = app.cpu_assign(0, pr.n);
        let mut cluster = ClusterSim::new(
            app,
            CpuLeafRuntime,
            SimConfig {
                nodes: 3,
                ..SimConfig::default()
            },
        );
        let out = cluster.run_root((0, pr.n));
        assert_eq!(out.counts, reference.counts);
    }

    #[test]
    fn optimized_beats_unoptimized_at_scale() {
        let time_with = |set: KernelSet| {
            let pr = KmeansProblem {
                n: 8_000_000,
                k: 4096,
                d: 4,
                iterations: 1,
            };
            let app = KmeansApp::phantom(pr, 1_000_000, 8);
            let mut cluster = build_cluster(
                app,
                KmeansApp::registry(set),
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
        assert!(factor > 1.3, "unopt {unopt} vs opt {opt} ({factor:.2}x)");
    }
}
