//! Matrix multiplication — the paper's regular, compute- *and*
//! communication-intensive application (Table II).
//!
//! `C[n,m] += A[n,p] × B[p,m]`, single precision, 32768³ at paper scale.
//! The divide-and-conquer splits `C`'s rows into node-level jobs; each
//! node-level leaf expands into `device_jobs` *column panels* (the paper's
//! "sets of 8 jobs"). A device job therefore ships its `A` row stripe plus
//! one `B` column panel — the only decomposition that fits a 32768² `B`
//! (4 GiB) through 1–6 GiB cards. `B` itself is broadcast once at startup
//! (excluded from the measured iterations, as in the paper's setup);
//! stolen node jobs carry their `A` rows and return their `C` rows, the
//! `Θ(n²)` traffic that makes matmul the hardest application to scale
//! (Sec. V-B2).
//!
//! Kernel versions:
//! * `perfect` — the unoptimized kernel, verbatim the paper's Fig. 3;
//! * `gpu` — 16×16 local-memory tiling with barriers;
//! * `mic` — 16 `C` rows per core with `B` staged through local memory.

use crate::common::{
    binary_divide, combine_segments, split_range, within_grain, AppMode, CpuLeafModel, KernelSet,
    Segment,
};
use cashmere::{CashmereApp, KernelCall, KernelRegistry};
use cashmere_des::SimTime;
use cashmere_mcl::value::{ArgValue, ArrayArg};
use cashmere_mcl::ElemTy;
use cashmere_satin::{ClusterApp, DcStep};
use std::sync::Arc;

/// The paper's Fig. 3 kernel, verbatim (modulo whitespace).
pub const KERNEL_PERFECT: &str = "\
perfect void matmul(int n, int m, int p,
    float[n,m] c,
    float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) {
        sum += a[i,k] * b[k,j];
      }
      c[i,j] += sum;
    }
  }
}";

/// Optimized `gpu` version: 16×64 blocks, tiles staged through local
/// memory, each thread register-blocks 4 output columns (the classic SGEMM
/// shape — amortizes loads and indexing over 8 flops per inner step).
pub const KERNEL_GPU: &str = "\
gpu void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int bi in (n + 15) / 16 blocks) {
    foreach (int bj in (m + 63) / 64 blocks) {
      local float ta[16,16];
      local float tb[16,64];
      foreach (int t in 256 threads) {
        int ti = t / 16;
        int tj = t % 16;
        int tj4 = tj * 4;
        int row = bi * 16 + ti;
        float acc0 = 0.0;
        float acc1 = 0.0;
        float acc2 = 0.0;
        float acc3 = 0.0;
        int ntiles = (p + 15) / 16;
        for (int tile = 0; tile < ntiles; tile++) {
          int ka = tile * 16 + tj;
          if (row < n && ka < p) { ta[ti,tj] = a[row,ka]; } else { ta[ti,tj] = 0.0; }
          for (int q = 0; q < 4; q++) {
            int idx = q * 256 + t;
            int kr = idx / 64;
            int kc = idx % 64;
            int gk = tile * 16 + kr;
            int gc = bj * 64 + kc;
            if (gk < p && gc < m) { tb[kr,kc] = b[gk,gc]; } else { tb[kr,kc] = 0.0; }
          }
          barrier();
          for (int k = 0; k < 16; k++) {
            float av = ta[ti,k];
            acc0 += av * tb[k, tj4];
            acc1 += av * tb[k, tj4 + 1];
            acc2 += av * tb[k, tj4 + 2];
            acc3 += av * tb[k, tj4 + 3];
          }
          barrier();
        }
        int col = bj * 64 + tj4;
        if (row < n && col < m) { c[row,col] += acc0; }
        if (row < n && col + 1 < m) { c[row,col + 1] += acc1; }
        if (row < n && col + 2 < m) { c[row,col + 2] += acc2; }
        if (row < n && col + 3 < m) { c[row,col + 3] += acc3; }
      }
    }
  }
}";

/// Optimized `mic` version: 16 rows of `C` per core, `B` staged through
/// local memory in 64×64 tiles (16-fold reuse), 64 logical lanes over
/// contiguous columns.
pub const KERNEL_MIC: &str = "\
mic void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int rb in (n + 15) / 16 cores) {
    local float tb[64,64];
    foreach (int t in 64 threads) {
      float acc[16];
      int jblocks = (m + 63) / 64;
      for (int jj = 0; jj < jblocks; jj++) {
        int j = jj * 64 + t;
        for (int r = 0; r < 16; r++) { acc[r] = 0.0; }
        int ktiles = (p + 63) / 64;
        for (int kt = 0; kt < ktiles; kt++) {
          for (int kk = 0; kk < 64; kk++) {
            int k = kt * 64 + kk;
            if (k < p && j < m) { tb[kk,t] = b[k,j]; } else { tb[kk,t] = 0.0; }
          }
          barrier();
          for (int kk = 0; kk < 64; kk++) {
            int k = kt * 64 + kk;
            if (k < p) {
              for (int r = 0; r < 16; r++) {
                int row = rb * 16 + r;
                if (row < n) {
                  acc[r] += a[row,k] * tb[kk,t];
                }
              }
            }
          }
          barrier();
        }
        if (j < m) {
          for (int r = 0; r < 16; r++) {
            int row = rb * 16 + r;
            if (row < n) { c[row,j] += acc[r]; }
          }
        }
      }
    }
  }
}";

/// Problem dimensions: `C[n,m] = A[n,p] × B[p,m]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulProblem {
    pub n: u64,
    pub m: u64,
    pub p: u64,
}

impl MatmulProblem {
    /// The paper's evaluation problem: two 32768×32768 matrices (Sec. V-B2).
    pub fn paper() -> MatmulProblem {
        MatmulProblem {
            n: 32768,
            m: 32768,
            p: 32768,
        }
    }

    pub fn square(n: u64) -> MatmulProblem {
        MatmulProblem { n, m: n, p: n }
    }

    /// Algorithmic flop count (`2·n·m·p`).
    pub fn flops(&self) -> f64 {
        2.0 * self.n as f64 * self.m as f64 * self.p as f64
    }

    /// Flops of a block of `rows × cols` elements of `C`.
    pub fn block_flops(&self, rows: u64, cols: u64) -> f64 {
        2.0 * rows as f64 * cols as f64 * self.p as f64
    }
}

/// A rectangular block of `C`: rows `[r0, r1)` × columns `[c0, c1)`.
/// Node-level jobs span all columns; device jobs are column panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatJob {
    pub r0: u64,
    pub r1: u64,
    pub c0: u64,
    pub c1: u64,
}

impl MatJob {
    pub fn rows(&self) -> u64 {
        self.r1 - self.r0
    }

    pub fn cols(&self) -> u64 {
        self.c1 - self.c0
    }
}

/// Real input matrices (row-major `f64` holding `f32` values).
#[derive(Debug)]
pub struct MatData {
    pub a: Vec<f64>,
    pub b: Vec<f64>,
}

impl MatData {
    /// Deterministic pseudo-random matrices (f32-exact values).
    pub fn generate(pr: &MatmulProblem, seed: u64) -> MatData {
        let gen = |len: u64, salt: u64| -> Vec<f64> {
            (0..len)
                .map(|i| {
                    let mut x = (i ^ salt ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    x ^= x >> 31;
                    f64::from((((x % 1000) as f64 / 500.0) - 1.0) as f32)
                })
                .collect()
        };
        MatData {
            a: gen(pr.n * pr.p, 0xA),
            b: gen(pr.p * pr.m, 0xB),
        }
    }

    /// Column panel `[c0, c1)` of `B`, row-major `p × (c1-c0)`.
    pub fn b_panel(&self, pr: &MatmulProblem, c0: u64, c1: u64) -> Vec<f64> {
        let m = pr.m as usize;
        let cols = (c1 - c0) as usize;
        let mut out = Vec::with_capacity(pr.p as usize * cols);
        for k in 0..pr.p as usize {
            out.extend_from_slice(&self.b[k * m + c0 as usize..k * m + c1 as usize]);
        }
        out
    }

    /// Reference CPU multiplication of a block (with f32 rounding like the
    /// device path), row-major `rows × cols`.
    pub fn reference_block(&self, pr: &MatmulProblem, job: &MatJob) -> Vec<f64> {
        let (m, p) = (pr.m as usize, pr.p as usize);
        let cols = job.cols() as usize;
        let mut out = vec![0.0f64; job.rows() as usize * cols];
        for (r, i) in (job.r0..job.r1).enumerate() {
            for (cc, j) in (job.c0 as usize..job.c1 as usize).enumerate() {
                let mut sum = 0.0f64;
                for k in 0..p {
                    sum += self.a[i as usize * p + k] * self.b[k * m + j];
                }
                out[r * cols + cc] = f64::from(sum as f32);
            }
        }
        out
    }

    /// Full reference rows (all columns).
    pub fn reference_rows(&self, pr: &MatmulProblem, lo: u64, hi: u64) -> Vec<f64> {
        self.reference_block(
            pr,
            &MatJob {
                r0: lo,
                r1: hi,
                c0: 0,
                c1: pr.m,
            },
        )
    }
}

/// Output: computed blocks of `C` (`data` present only in Real mode,
/// row-major `rows × cols`).
#[derive(Debug, Clone, PartialEq)]
pub struct Seg {
    pub row0: u64,
    pub rows: u64,
    pub col0: u64,
    pub cols: u64,
    pub data: Option<Vec<f64>>,
}

impl Segment for Seg {
    fn position(&self) -> (u64, u64) {
        (self.row0, self.col0)
    }

    /// Phantom blocks merge side by side within one row band, and stacked
    /// when they span the same columns.
    fn absorb(&mut self, next: &Seg) -> bool {
        if self.data.is_some() || next.data.is_some() {
            return false;
        }
        if self.row0 == next.row0 && self.rows == next.rows && self.col0 + self.cols == next.col0 {
            self.cols += next.cols;
            true
        } else if self.col0 == next.col0
            && self.cols == next.cols
            && self.row0 + self.rows == next.row0
        {
            self.rows += next.rows;
            true
        } else {
            false
        }
    }
}

/// Assemble blocks into the full row-major `n × m` matrix (Real mode).
pub fn assemble(segs: &[Seg], n: u64, m: u64) -> Vec<f64> {
    let mut out = vec![0.0f64; (n * m) as usize];
    for s in segs {
        let data = s.data.as_ref().expect("real-mode segments carry data");
        for r in 0..s.rows as usize {
            let src = &data[r * s.cols as usize..(r + 1) * s.cols as usize];
            let at = (s.row0 as usize + r) * m as usize + s.col0 as usize;
            out[at..at + s.cols as usize].copy_from_slice(src);
        }
    }
    out
}

/// The matmul application.
pub struct MatmulApp {
    pub problem: MatmulProblem,
    pub mode: AppMode,
    /// Node-level jobs stop dividing at this many rows.
    pub node_grain_rows: u64,
    /// Device jobs (column panels) per node-level leaf (the paper uses 8).
    pub device_jobs: u64,
    pub cpu_model: CpuLeafModel,
    data: Option<Arc<MatData>>,
}

impl MatmulApp {
    pub fn phantom(problem: MatmulProblem, node_grain_rows: u64, device_jobs: u64) -> MatmulApp {
        MatmulApp {
            problem,
            mode: AppMode::Phantom,
            node_grain_rows,
            device_jobs,
            cpu_model: CpuLeafModel::REGULAR,
            data: None,
        }
    }

    pub fn real(
        problem: MatmulProblem,
        node_grain_rows: u64,
        device_jobs: u64,
        seed: u64,
    ) -> MatmulApp {
        MatmulApp {
            data: Some(Arc::new(MatData::generate(&problem, seed))),
            problem,
            mode: AppMode::Real,
            node_grain_rows,
            device_jobs,
            cpu_model: CpuLeafModel::REGULAR,
        }
    }

    /// The input matrices (Real mode only).
    pub fn data_ref(&self) -> Option<&Arc<MatData>> {
        self.data.as_ref()
    }

    /// Kernel registry for this application.
    pub fn registry(set: KernelSet) -> KernelRegistry {
        crate::common::build_registry(&[KERNEL_PERFECT], &[KERNEL_GPU, KERNEL_MIC], set)
    }

    /// Calibrated inner dimension for phantom runs.
    fn p_cal(&self) -> u64 {
        self.problem.p.min(256)
    }

    /// A full-width job over rows `[lo, hi)`.
    pub fn row_job(&self, lo: u64, hi: u64) -> MatJob {
        MatJob {
            r0: lo,
            r1: hi,
            c0: 0,
            c1: self.problem.m,
        }
    }
}

impl ClusterApp for MatmulApp {
    type Input = MatJob;
    type Output = Vec<Seg>;

    fn step(&self, job: &MatJob) -> DcStep<MatJob> {
        match binary_divide(job.r0, job.r1, self.node_grain_rows) {
            Some(ch) => DcStep::Divide(
                ch.into_iter()
                    .map(|(lo, hi)| MatJob {
                        r0: lo,
                        r1: hi,
                        ..*job
                    })
                    .collect(),
            ),
            None => DcStep::Leaf,
        }
    }

    fn leaf_cpu(&self, job: &MatJob) -> (SimTime, Vec<Seg>) {
        let t = self
            .cpu_model
            .time(self.problem.block_flops(job.rows(), job.cols()));
        let data = match (&self.mode, &self.data) {
            (AppMode::Real, Some(d)) => Some(d.reference_block(&self.problem, job)),
            _ => None,
        };
        (
            t,
            vec![Seg {
                row0: job.r0,
                rows: job.rows(),
                col0: job.c0,
                cols: job.cols(),
                data,
            }],
        )
    }

    fn is_leaf(&self, job: &MatJob) -> bool {
        within_grain(job.r0, job.r1, self.node_grain_rows)
    }

    fn combine(&self, _i: &MatJob, children: Vec<Vec<Seg>>) -> Vec<Seg> {
        combine_segments(children)
    }

    fn input_bytes(&self, job: &MatJob) -> u64 {
        // A stolen job ships its A row stripe; B was broadcast at startup.
        job.rows() * self.problem.p * 4 + 64
    }

    fn output_bytes(&self, segs: &Vec<Seg>) -> u64 {
        segs.iter().map(|s| s.rows * s.cols * 4).sum()
    }

    fn combine_cost(&self, job: &MatJob) -> SimTime {
        // Assembling result rows at ~2 GB/s.
        SimTime::from_secs_f64(job.rows() as f64 * job.cols() as f64 * 4.0 / 2e9)
    }
}

impl CashmereApp for MatmulApp {
    fn device_jobs(&self, job: &MatJob) -> Vec<MatJob> {
        split_range(job.c0, job.c1, self.device_jobs)
            .into_iter()
            .map(|(c0, c1)| MatJob { c0, c1, ..*job })
            .collect()
    }

    fn kernel_call(&self, job: &MatJob) -> KernelCall {
        let pr = &self.problem;
        let (rows, cols) = (job.rows(), job.cols());
        let p = pr.p;
        let (args, extra_scale) = match (&self.mode, &self.data) {
            (AppMode::Real, Some(d)) => {
                let a_rows: Vec<f64> = d.a[(job.r0 * p) as usize..(job.r1 * p) as usize].to_vec();
                let b_panel = d.b_panel(pr, job.c0, job.c1);
                (
                    vec![
                        ArgValue::Int(rows as i64),
                        ArgValue::Int(cols as i64),
                        ArgValue::Int(p as i64),
                        ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[rows, cols])),
                        ArgValue::Array(ArrayArg::float(&[rows, p], a_rows)),
                        ArgValue::Array(ArrayArg::float(&[p, cols], b_panel)),
                    ],
                    1.0,
                )
            }
            _ => {
                let p_cal = self.p_cal();
                (
                    vec![
                        ArgValue::Int(rows as i64),
                        ArgValue::Int(cols as i64),
                        ArgValue::Int(p_cal as i64),
                        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[rows, cols])),
                        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[rows, p_cal])),
                        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[p_cal, cols])),
                    ],
                    p as f64 / self.p_cal() as f64,
                )
            }
        };
        let mut call = KernelCall::from_args("matmul", args, &[3]);
        // Transfer sizes reflect the *real* problem: the C block in/out, the
        // A row stripe and the B column panel in.
        call.h2d_bytes = (rows * cols + rows * p + p * cols) * 4;
        call.d2h_bytes = rows * cols * 4;
        call.extra_scale = extra_scale;
        call
    }

    fn job_output(&self, job: &MatJob, args: Vec<ArgValue>) -> Vec<Seg> {
        let data = match self.mode {
            AppMode::Real => Some(args[3].clone().array().as_f64().to_vec()),
            AppMode::Phantom => None,
        };
        vec![Seg {
            row0: job.r0,
            rows: job.rows(),
            col0: job.c0,
            cols: job.cols(),
            data,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere::{build_cluster, ClusterSpec, RuntimeConfig};
    use cashmere_satin::{ClusterSim, Counter, CpuLeafRuntime, SimConfig};

    fn check_against(reference: &[f64], got: &[f64]) {
        assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(reference) {
            assert!((g - r).abs() < 1e-3, "{g} vs {r}");
        }
    }

    #[test]
    fn kernels_compile_in_both_sets() {
        let un = MatmulApp::registry(KernelSet::Unoptimized);
        assert_eq!(un.versions_of("matmul").len(), 1);
        let opt = MatmulApp::registry(KernelSet::Optimized);
        assert_eq!(opt.versions_of("matmul").len(), 3);
    }

    #[test]
    fn real_run_matches_reference_unoptimized() {
        let pr = MatmulProblem {
            n: 48,
            m: 20,
            p: 36,
        };
        let app = MatmulApp::real(pr, 16, 4, 7);
        let root = app.row_job(0, pr.n);
        let reference = app.data_ref().unwrap().reference_rows(&pr, 0, pr.n);
        let mut cluster = build_cluster(
            app,
            MatmulApp::registry(KernelSet::Unoptimized),
            &ClusterSpec::homogeneous(2, "gtx480"),
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let segs = cluster.run_root(root);
        check_against(&reference, &assemble(&segs, pr.n, pr.m));
    }

    #[test]
    fn real_run_matches_reference_optimized_tiled() {
        // Sizes deliberately not multiples of 16 to stress the tile guards.
        let pr = MatmulProblem {
            n: 37,
            m: 29,
            p: 23,
        };
        let app = MatmulApp::real(pr, 37, 3, 3);
        let root = app.row_job(0, pr.n);
        let reference = app.data_ref().unwrap().reference_rows(&pr, 0, pr.n);
        let mut cluster = build_cluster(
            app,
            MatmulApp::registry(KernelSet::Optimized),
            &ClusterSpec::homogeneous(1, "gtx480"),
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let segs = cluster.run_root(root);
        check_against(&reference, &assemble(&segs, pr.n, pr.m));
    }

    #[test]
    fn real_run_on_heterogeneous_devices_still_correct() {
        let pr = MatmulProblem {
            n: 64,
            m: 24,
            p: 24,
        };
        let app = MatmulApp::real(pr, 16, 2, 9);
        let root = app.row_job(0, pr.n);
        let reference = app.data_ref().unwrap().reference_rows(&pr, 0, pr.n);
        let spec = ClusterSpec {
            node_devices: vec![
                vec!["gtx480".to_string()],
                vec!["k20".to_string(), "xeon_phi".to_string()],
                vec!["hd7970".to_string()],
            ],
        };
        let mut cluster = build_cluster(
            app,
            MatmulApp::registry(KernelSet::Optimized),
            &spec,
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let segs = cluster.run_root(root);
        check_against(&reference, &assemble(&segs, pr.n, pr.m));
    }

    #[test]
    fn satin_variant_matches_reference() {
        let pr = MatmulProblem {
            n: 32,
            m: 16,
            p: 16,
        };
        let app = MatmulApp::real(pr, 8, 1, 5);
        let root = app.row_job(0, pr.n);
        let reference = app.data_ref().unwrap().reference_rows(&pr, 0, pr.n);
        let mut cluster = ClusterSim::new(
            app,
            CpuLeafRuntime,
            SimConfig {
                nodes: 2,
                ..SimConfig::default()
            },
        );
        let segs = cluster.run_root(root);
        check_against(&reference, &assemble(&segs, pr.n, pr.m));
    }

    #[test]
    fn optimized_kernels_are_faster_at_paper_scale() {
        let time_with = |set: KernelSet| {
            let pr = MatmulProblem::square(8192);
            let app = MatmulApp::phantom(pr, 1024, 8);
            let root = app.row_job(0, pr.n);
            let mut cluster = build_cluster(
                app,
                MatmulApp::registry(set),
                &ClusterSpec::homogeneous(2, "gtx480"),
                SimConfig {
                    max_concurrent_leaves: 2,
                    ..SimConfig::default()
                },
                RuntimeConfig::default(),
            )
            .unwrap();
            let _ = cluster.run_root(root);
            assert_eq!(cluster.report()[Counter::CpuFallbacks], 0, "fits in memory");
            cluster.report().makespan
        };
        let unopt = time_with(KernelSet::Unoptimized);
        let opt = time_with(KernelSet::Optimized);
        let factor = unopt.as_secs_f64() / opt.as_secs_f64();
        assert!(
            factor > 1.5,
            "tiling should be faster: unopt {unopt} opt {opt} ({factor:.2}x)"
        );
    }

    #[test]
    fn paper_scale_b_panels_fit_on_a_gtx480() {
        // The full B (4 GiB) cannot fit a 1 GiB card, but the column-panel
        // decomposition must run without CPU fallbacks.
        let pr = MatmulProblem::paper();
        let app = MatmulApp::phantom(pr, 512, 8);
        let root = app.row_job(0, pr.n);
        let mut cluster = build_cluster(
            app,
            MatmulApp::registry(KernelSet::Optimized),
            &ClusterSpec::homogeneous(4, "gtx480"),
            SimConfig {
                max_concurrent_leaves: 2,
                ..SimConfig::default()
            },
            RuntimeConfig::default(),
        )
        .unwrap();
        let _ = cluster.run_root(root);
        let r = cluster.report();
        assert_eq!(r[Counter::CpuFallbacks], 0, "no job should fall back");
        assert_eq!(r[Counter::KernelsRun], 512);
    }

    #[test]
    fn phantom_calibration_scales_with_p() {
        let time_for_p = |p: u64| {
            let pr = MatmulProblem {
                n: 2048,
                m: 2048,
                p,
            };
            let app = MatmulApp::phantom(pr, 1024, 4);
            let root = app.row_job(0, pr.n);
            let mut cluster = build_cluster(
                app,
                MatmulApp::registry(KernelSet::Optimized),
                &ClusterSpec::homogeneous(1, "gtx480"),
                SimConfig::default(),
                RuntimeConfig::default(),
            )
            .unwrap();
            let _ = cluster.run_root(root);
            cluster.report().makespan.as_secs_f64()
        };
        let t1 = time_for_p(8192);
        let t2 = time_for_p(32768);
        let ratio = t2 / t1;
        assert!((2.0..6.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn flops_formula() {
        let pr = MatmulProblem::paper();
        assert_eq!(pr.flops(), 2.0 * 32768f64.powi(3));
        assert_eq!(pr.block_flops(32768, 32768), pr.flops());
    }
}
