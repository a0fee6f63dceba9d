//! Shared plumbing for the four evaluation applications.
//!
//! Every application supports two data modes:
//!
//! * [`AppMode::Real`] — buffers are materialized, kernels execute fully,
//!   results are checked against CPU references (tests, examples, small
//!   problems);
//! * [`AppMode::Phantom`] — buffers are shape-only, kernels are sampled,
//!   and inner dimensions are *calibrated* (shrunk, with statistics scaled
//!   back up) so the paper-scale problems — 32768² matrices, 268 M points,
//!   2 M bodies, 16384×8192 pixels at 500 spp — are measured in
//!   milliseconds of host time.
//!
//! Every application provides kernels in two flavours matching the paper's
//! methodology (Sec. IV): *unoptimized* (one version at level `perfect`)
//! and *optimized* (additional versions at lower levels: tiled `gpu`
//! kernels, coarse-grained `mic` kernels, …).

use cashmere::KernelRegistry;
use cashmere_des::SimTime;
use cashmere_hwdesc::standard_hierarchy;
use serde::{Deserialize, Serialize};

/// Data mode for an application run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppMode {
    /// Real data, full kernel execution, verifiable results.
    Real,
    /// Shape-only data, sampled kernels, paper-scale problems.
    Phantom,
}

/// Which kernel set to register (paper Sec. IV: the three measurement
/// series are Satin, Cashmere with non-optimized kernels, Cashmere with
/// optimized kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelSet {
    /// Only the `perfect`-level kernel ("minimal effort").
    Unoptimized,
    /// All versions, including the tuned lower-level ones.
    Optimized,
}

/// Build a registry over the standard hierarchy from kernel sources:
/// `base` is the `perfect` version, `optimized` the lower-level versions
/// added for [`KernelSet::Optimized`].
pub fn build_registry(base: &[&str], optimized: &[&str], set: KernelSet) -> KernelRegistry {
    let mut r = KernelRegistry::new(standard_hierarchy());
    for src in base {
        r.register(src)
            .unwrap_or_else(|e| panic!("base kernel failed to compile: {e}"));
    }
    if set == KernelSet::Optimized {
        for src in optimized {
            r.register(src)
                .unwrap_or_else(|e| panic!("optimized kernel failed to compile: {e}"));
        }
    }
    r
}

/// Sustained single-core CPU throughput assumed for Satin leaves and the
/// `leafCPU` fallback, in GFLOPS. The DAS-4 node CPU (Xeon E5620, 2.4 GHz,
/// SSE) peaks at 19.2 SP GFLOPS per core; real kernels sustain a fraction
/// that depends on regularity.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CpuLeafModel {
    pub gflops_per_core: f64,
}

impl CpuLeafModel {
    /// Regular, vectorizable kernels (matmul, n-body): ~25 % of peak.
    pub const REGULAR: CpuLeafModel = CpuLeafModel {
        gflops_per_core: 4.8,
    };
    /// Moderately regular kernels (k-means): ~15 % of peak.
    pub const MODERATE: CpuLeafModel = CpuLeafModel {
        gflops_per_core: 2.9,
    };
    /// Irregular, branchy kernels (raytracing): a few % of peak.
    pub const IRREGULAR: CpuLeafModel = CpuLeafModel {
        gflops_per_core: 0.6,
    };

    /// Single-core time for `flops` floating-point operations.
    pub fn time(&self, flops: f64) -> SimTime {
        SimTime::from_secs_f64(flops / (self.gflops_per_core * 1e9))
    }
}

/// Split `[0, total)` into `parts` near-equal contiguous chunks.
pub fn split_range(lo: u64, hi: u64, parts: u64) -> Vec<(u64, u64)> {
    assert!(hi >= lo && parts > 0);
    let total = hi - lo;
    let parts = parts.min(total.max(1));
    let base = total / parts;
    let rem = total % parts;
    let mut out = Vec::with_capacity(parts as usize);
    let mut cur = lo;
    for i in 0..parts {
        let len = base + u64::from(i < rem);
        out.push((cur, cur + len));
        cur += len;
    }
    debug_assert_eq!(cur, hi);
    out
}

/// The Fig. 1 leaf test: a `(lo, hi)` range of at most `grain` elements
/// is a leaf. [`binary_divide`] and every application's `is_leaf` use it.
pub fn within_grain(lo: u64, hi: u64, grain: u64) -> bool {
    hi - lo <= grain.max(1)
}

/// Binary divide of a `(lo, hi)` range down to `grain`, as in Fig. 1.
pub fn binary_divide(lo: u64, hi: u64, grain: u64) -> Option<Vec<(u64, u64)>> {
    if within_grain(lo, hi, grain) {
        None
    } else {
        let mid = lo + (hi - lo) / 2;
        Some(vec![(lo, mid), (mid, hi)])
    }
}

/// A piece of an application's output covering a contiguous part of the
/// result (matmul blocks, n-body and raytracer ranges).
pub trait Segment {
    /// Where the segment sits in output order.
    fn position(&self) -> (u64, u64);

    /// Grow `self` to also cover `next` and return `true`, when both carry
    /// no data (phantom mode) and `next` continues `self`. A segment with
    /// data is never merged.
    fn absorb(&mut self, next: &Self) -> bool;
}

/// The `combine` of segmented outputs: the children's segments in output
/// order, with adjacent data-less segments merged. A phantom output thus
/// stays a few segments at every tree level instead of one per device job,
/// and its `output_bytes`, a sum over segments, is unchanged.
pub fn combine_segments<S: Segment>(children: Vec<Vec<S>>) -> Vec<S> {
    let mut children = children.into_iter();
    let mut out = children.next().unwrap_or_default();
    for child in children {
        out.extend(child);
    }
    out.sort_by_key(S::position);
    out.dedup_by(|next, prev| prev.absorb(next));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_range_covers_exactly() {
        let parts = split_range(0, 103, 8);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts.last().unwrap().1, 103);
        let total: u64 = parts.iter().map(|(a, b)| b - a).sum();
        assert_eq!(total, 103);
        // chunk sizes differ by at most 1
        let sizes: Vec<u64> = parts.iter().map(|(a, b)| b - a).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn split_range_more_parts_than_elements() {
        let parts = split_range(5, 8, 10);
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn binary_divide_respects_grain() {
        assert!(binary_divide(0, 10, 10).is_none());
        let ch = binary_divide(0, 10, 4).unwrap();
        assert_eq!(ch, vec![(0, 5), (5, 10)]);
    }

    #[test]
    fn cpu_model_times() {
        let t = CpuLeafModel::REGULAR.time(4.8e9);
        assert_eq!(t, SimTime::from_secs(1));
        assert!(CpuLeafModel::IRREGULAR.time(1e9) > CpuLeafModel::REGULAR.time(1e9));
    }

    #[test]
    fn registry_sets_differ() {
        const BASE: &str = "perfect void k(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = 0.0; }
}";
        const OPT: &str = "gpu void k(int n, float[n] a) {
  foreach (int b in (n + 255) / 256 blocks) {
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      if (i < n) { a[i] = 0.0; }
    }
  }
}";
        let un = build_registry(&[BASE], &[OPT], KernelSet::Unoptimized);
        let opt = build_registry(&[BASE], &[OPT], KernelSet::Optimized);
        assert_eq!(un.versions_of("k").len(), 1);
        assert_eq!(opt.versions_of("k").len(), 2);
    }
}
