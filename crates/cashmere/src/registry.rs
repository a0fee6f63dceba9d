//! The kernel registry: multiple MCPL versions per kernel, most-specific
//! selection per device, and a statistics cache.
//!
//! Applying stepwise refinement leaves the programmer with several files
//! holding versions of the same kernel at different levels (paper
//! Sec. III-A: `perfect`, `gpu`, `amd`, `hd7970`, …). The registry compiles
//! them all, and for each physical device "automatically chooses the most
//! specific kernel version".
//!
//! Because leaf jobs in a divide-and-conquer application typically have the
//! same size (the paper's own observation in Sec. III-B), the registry also
//! caches interpreter statistics keyed by kernel version, launch geometry
//! and argument shape, so the cost of sampled interpretation is paid once
//! per shape instead of once per job.

use cashmere_des::obs::prof;
use cashmere_hwdesc::{Hierarchy, LevelId};
use cashmere_mcl::launch::{LaunchKey, LaunchMemo};
use cashmere_mcl::stats::KernelStats;
use cashmere_mcl::value::ArgValue;
use cashmere_mcl::{compile, CheckError, CheckedKernel, Sampling};
use std::collections::HashMap;

/// One kernel's versions, ordered by registration.
#[derive(Debug, Default)]
struct KernelVersions {
    versions: Vec<CheckedKernel>,
}

/// Cache key: kernel identity + geometry + argument shape (the memoization
/// key defined by the MCL launch layer).
pub type StatsKey = LaunchKey;

/// Shape signature of an argument list (scalars + array dims).
pub fn arg_shape(args: &[ArgValue]) -> Vec<i64> {
    LaunchKey::arg_shape(args)
}

/// Registry of compiled kernels plus the hardware hierarchy they target.
pub struct KernelRegistry {
    hierarchy: Hierarchy,
    kernels: HashMap<String, KernelVersions>,
    memo: LaunchMemo,
    pub default_sampling: Sampling,
}

impl KernelRegistry {
    pub fn new(hierarchy: Hierarchy) -> KernelRegistry {
        KernelRegistry {
            hierarchy,
            kernels: HashMap::new(),
            memo: LaunchMemo::new(),
            default_sampling: Sampling::default(),
        }
    }

    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Compile and register one kernel version. The kernel's name comes
    /// from the source; its level from the leading keyword. Registering two
    /// versions of the same kernel at the same level is an error.
    pub fn register(&mut self, src: &str) -> Result<(String, LevelId), CheckError> {
        let _prof = prof::scope("mcl::compile");
        let ck = compile(src, &self.hierarchy)?;
        let name = ck.kernel.name.clone();
        let level = ck.level;
        let entry = self.kernels.entry(name.clone()).or_default();
        if entry.versions.iter().any(|v| v.level == level) {
            return Err(CheckError {
                line: 1,
                message: format!(
                    "kernel `{name}` already has a version at level `{}`",
                    self.hierarchy.name(level)
                ),
            });
        }
        entry.versions.push(ck);
        Ok((name, level))
    }

    /// Kernel names registered.
    pub fn kernel_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.kernels.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Levels a kernel has versions for.
    pub fn versions_of(&self, kernel: &str) -> Vec<LevelId> {
        self.kernels
            .get(kernel)
            .map(|k| k.versions.iter().map(|v| v.level).collect())
            .unwrap_or_default()
    }

    /// Most-specific version of `kernel` applicable to `device`
    /// (paper Sec. III-A). `None` when no version applies — the caller
    /// falls back to the CPU leaf.
    pub fn select(&self, kernel: &str, device: LevelId) -> Option<&CheckedKernel> {
        let versions = self.kernels.get(kernel)?;
        let levels: Vec<LevelId> = versions.versions.iter().map(|v| v.level).collect();
        let best = self.hierarchy.most_specific(&levels, device)?;
        versions.versions.iter().find(|v| v.level == best)
    }

    /// Paper Sec. III-B: nodes whose devices have no applicable hardware
    /// description (or no kernel version) get a suggestion to add one.
    pub fn coverage_suggestions(&self, kernel: &str, devices: &[LevelId]) -> Vec<String> {
        let mut out = Vec::new();
        for &d in devices {
            if self.select(kernel, d).is_none() {
                out.push(format!(
                    "device `{}` has no applicable version of kernel `{kernel}`: \
                     add a hardware description or a higher-level kernel version",
                    self.hierarchy.name(d)
                ));
            }
        }
        out
    }

    /// Look up memoized statistics.
    pub fn cached_stats(&self, key: &StatsKey) -> Option<&KernelStats> {
        let _prof = prof::scope("mcl::memo");
        self.memo.lookup(key)
    }

    /// Insert statistics into the memo table.
    pub fn cache_stats(&mut self, key: StatsKey, stats: KernelStats) {
        self.memo.insert(key, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_hwdesc::{standard_hierarchy, DeviceKind};
    use cashmere_mcl::launch::LaunchConfig;
    use cashmere_mcl::value::ArrayArg;
    use cashmere_mcl::ElemTy;

    const PERFECT: &str = "perfect void axpy(int n, float[n] y, float[n] x) {
  foreach (int i in n threads) { y[i] += 2.0 * x[i]; }
}";
    const GPU: &str = "gpu void axpy(int n, float[n] y, float[n] x) {
  foreach (int b in (n + 255) / 256 blocks) {
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      if (i < n) { y[i] += 2.0 * x[i]; }
    }
  }
}";

    fn registry() -> KernelRegistry {
        let mut r = KernelRegistry::new(standard_hierarchy());
        r.register(PERFECT).unwrap();
        r.register(GPU).unwrap();
        r
    }

    #[test]
    fn registration_and_selection() {
        let r = registry();
        let h = r.hierarchy();
        assert_eq!(r.kernel_names(), vec!["axpy"]);
        assert_eq!(r.versions_of("axpy").len(), 2);
        // GPUs get the gpu version, the Phi falls back to perfect.
        let gtx = r.select("axpy", DeviceKind::Gtx480.level(h)).unwrap();
        assert_eq!(h.name(gtx.level), "gpu");
        let phi = r.select("axpy", DeviceKind::XeonPhi.level(h)).unwrap();
        assert_eq!(h.name(phi.level), "perfect");
        assert!(r
            .select("nonexistent", DeviceKind::Gtx480.level(h))
            .is_none());
    }

    #[test]
    fn duplicate_level_rejected() {
        let mut r = registry();
        let err = r.register(PERFECT).unwrap_err();
        assert!(err.message.contains("already has a version"));
    }

    #[test]
    fn coverage_suggestions_for_uncovered_device() {
        let mut r = KernelRegistry::new(standard_hierarchy());
        // Only an hd7970-specific version: NVIDIA devices are uncovered.
        r.register(
            "hd7970 void only_amd(int n, float[n] a) {
  foreach (int b in (n + 255) / 256 blocks) {
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      if (i < n) { a[i] = 0.0; }
    }
  }
}",
        )
        .unwrap();
        let h = standard_hierarchy();
        let devices = vec![DeviceKind::Gtx480.level(&h), DeviceKind::Hd7970.level(&h)];
        let sugg = r.coverage_suggestions("only_amd", &devices);
        assert_eq!(sugg.len(), 1);
        assert!(sugg[0].contains("gtx480"));
    }

    #[test]
    fn launch_config_respects_version_choice() {
        let r = registry();
        let h = r.hierarchy();
        let cfg = |device: DeviceKind| {
            let level = device.level(h);
            LaunchConfig::for_device(r.select("axpy", level).unwrap(), h, level)
        };
        // gpu version pins 256 threads.
        assert_eq!(cfg(DeviceKind::Gtx480).group_size, 256);
        // perfect version on phi: class default.
        assert_eq!(cfg(DeviceKind::XeonPhi).warp_width, 16);
    }

    #[test]
    fn arg_shape_distinguishes_sizes_not_contents() {
        let a1 = vec![
            ArgValue::Int(8),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[8])),
        ];
        let a2 = vec![
            ArgValue::Int(8),
            ArgValue::Array(ArrayArg::float(&[8], vec![1.0; 8])),
        ];
        let a3 = vec![
            ArgValue::Int(16),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[16])),
        ];
        assert_eq!(arg_shape(&a1), arg_shape(&a2), "contents don't matter");
        assert_ne!(arg_shape(&a1), arg_shape(&a3), "sizes do");
    }

    #[test]
    fn stats_cache_roundtrip() {
        let mut r = registry();
        let key = StatsKey {
            kernel: "axpy".into(),
            level: r.hierarchy().id("gpu").unwrap(),
            group_size: 256,
            warp_width: 32,
            shape: vec![1024],
        };
        assert!(r.cached_stats(&key).is_none());
        let stats = KernelStats {
            flops: 3.0,
            ..KernelStats::default()
        };
        r.cache_stats(key.clone(), stats);
        assert_eq!(r.cached_stats(&key).map(|s| s.flops), Some(3.0));
    }
}
