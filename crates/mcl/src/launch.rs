//! Launch-geometry selection (paper Sec. III-A).
//!
//! "MCL determines the work-group and work-item configuration based on the
//! kernel parameters and its hardware-descriptions." Different devices have
//! different granularity needs: GPUs want groups of a few hundred threads;
//! the Xeon Phi wants a handful of fat lanes per core.
//!
//! The rule implemented here: if the kernel pins its innermost-unit
//! `foreach` to a literal count (the tiled, optimized kernels do — e.g.
//! `foreach (int t in 256 threads)`), that count is the work-group size.
//! Otherwise a class-dependent default is chosen, clamped to the level's
//! declared maximum.

use crate::ast::{walk_stmts, Expr, StmtKind};
use crate::check::CheckedKernel;
use crate::cost::DeviceClass;
use crate::exec::{ExecOptions, Sampling};
use crate::stats::KernelStats;
use crate::value::ArgValue;
use cashmere_hwdesc::{Hierarchy, LevelId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Geometry for one kernel launch on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Lanes per work-group (vectorized chunk in the interpreter).
    pub group_size: usize,
    /// Warp/wavefront width for issue accounting.
    pub warp_width: usize,
    /// Class of the executing device.
    pub class: DeviceClass,
}

impl LaunchConfig {
    /// Build the geometry for `kernel` on `device`.
    pub fn for_device(ck: &CheckedKernel, h: &Hierarchy, device: LevelId) -> LaunchConfig {
        let class = DeviceClass::of(h, device);
        let warp_width = class.warp_width();

        // Innermost parallelism unit of the *kernel's* level.
        let kernel_units = h.effective_params(ck.level).par_units;
        let innermost = kernel_units
            .last()
            .map(|u| u.name.clone())
            .unwrap_or_else(|| "threads".to_string());
        let unit_max = kernel_units.last().and_then(|u| u.max);

        // A literal innermost foreach count pins the group size.
        let mut literal: Option<u64> = None;
        walk_stmts(&ck.kernel.body, &mut |s| {
            if let StmtKind::Foreach {
                unit, count, body, ..
            } = &s.kind
            {
                if *unit == innermost {
                    let mut has_inner = false;
                    walk_stmts(body, &mut |t| {
                        if matches!(t.kind, StmtKind::Foreach { .. }) {
                            has_inner = true;
                        }
                    });
                    if !has_inner {
                        if let Expr::IntLit(v) = count {
                            if *v > 0 && literal.is_none() {
                                literal = Some(*v as u64);
                            }
                        }
                    }
                }
            }
        });

        let default = match class {
            DeviceClass::NvidiaGpu | DeviceClass::AmdGpu => 256,
            DeviceClass::Mic => 64,
            DeviceClass::Cpu => 8,
        };
        let mut group_size = literal.map_or(default, |v| v as usize);
        if let Some(max) = unit_max {
            group_size = group_size.min(max as usize);
        }
        group_size = group_size.clamp(1, 1024);

        LaunchConfig {
            group_size,
            warp_width,
            class,
        }
    }

    /// Interpreter options for a *full* (functional) execution.
    pub fn exec_full(&self) -> ExecOptions {
        ExecOptions {
            simd_width: self.warp_width,
            group_size: self.group_size,
            sample: None,
        }
    }

    /// Interpreter options for a *sampled* (measurement) execution.
    pub fn exec_sampled(&self, sampling: Sampling) -> ExecOptions {
        ExecOptions {
            simd_width: self.warp_width,
            group_size: self.group_size,
            sample: Some(sampling),
        }
    }
}

/// Memoization key for a sampled measurement launch: kernel identity,
/// launch geometry, and the argument *shape signature* (scalar values and
/// array dims — never array contents, which sampled statistics do not
/// depend on for the supported kernel corpus).
///
/// `Ord` (not `Hash`) so the memo table iterates deterministically — the
/// cache must never introduce run-order dependence into `--jobs` replays.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LaunchKey {
    pub kernel: String,
    pub level: LevelId,
    pub group_size: usize,
    pub warp_width: usize,
    /// Scalar args and array dims, flattened (see [`LaunchKey::arg_shape`]).
    pub shape: Vec<i64>,
}

impl LaunchKey {
    /// Shape signature of an argument list: scalar values (floats by bit
    /// pattern) and array ranks + dims.
    pub fn arg_shape(args: &[ArgValue]) -> Vec<i64> {
        let mut shape = Vec::new();
        for a in args {
            match a {
                ArgValue::Int(v) => shape.push(*v),
                ArgValue::Float(v) => shape.push(v.to_bits() as i64),
                ArgValue::Array(arr) => {
                    shape.push(-(arr.rank() as i64));
                    shape.extend(arr.dims.iter().map(|d| *d as i64));
                }
            }
        }
        shape
    }
}

/// Memo table for sampled-launch statistics.
///
/// Repeated identical measurement launches are the common case in sweeps
/// and the fig6 corpus; the memo turns every repeat into a `BTreeMap`
/// lookup. The stored statistics are *unscaled* — calibration scaling is
/// applied per call by the runtime, which also counts hits and misses.
#[derive(Debug, Default)]
pub struct LaunchMemo {
    map: BTreeMap<LaunchKey, KernelStats>,
}

impl LaunchMemo {
    pub fn new() -> LaunchMemo {
        LaunchMemo::default()
    }

    /// Look up a memoized result.
    pub fn lookup(&self, key: &LaunchKey) -> Option<&KernelStats> {
        self.map.get(key)
    }

    pub fn insert(&mut self, key: LaunchKey, stats: KernelStats) {
        self.map.insert(key, stats);
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Deterministic (key-ordered) iteration over memoized entries.
    pub fn iter(&self) -> impl Iterator<Item = (&LaunchKey, &KernelStats)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use cashmere_hwdesc::{standard_hierarchy, DeviceKind};

    const PERFECT: &str = "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = 0.0; }
}";

    const TILED: &str = "gpu void t(int n, float[n] a) {
  foreach (int b in n / 128 blocks) {
    foreach (int t in 128 threads) { a[b * 128 + t] = 0.0; }
  }
}";

    #[test]
    fn default_geometry_per_class() {
        let h = standard_hierarchy();
        let ck = compile(PERFECT, &h).unwrap();
        let gtx = LaunchConfig::for_device(&ck, &h, DeviceKind::Gtx480.level(&h));
        assert_eq!(gtx.group_size, 256);
        assert_eq!(gtx.warp_width, 32);
        let amd = LaunchConfig::for_device(&ck, &h, DeviceKind::Hd7970.level(&h));
        assert_eq!(amd.warp_width, 64);
        let phi = LaunchConfig::for_device(&ck, &h, DeviceKind::XeonPhi.level(&h));
        assert_eq!(phi.group_size, 64);
        assert_eq!(phi.warp_width, 16);
        assert_eq!(phi.class, DeviceClass::Mic);
    }

    #[test]
    fn literal_innermost_foreach_pins_group_size() {
        let h = standard_hierarchy();
        let ck = compile(TILED, &h).unwrap();
        let gtx = LaunchConfig::for_device(&ck, &h, DeviceKind::Gtx480.level(&h));
        assert_eq!(gtx.group_size, 128);
    }

    #[test]
    fn group_size_clamped_to_unit_max() {
        // mic `threads` has max 4; a perfect kernel on mic defaults to 64
        // but a mic-level kernel with threads unit clamps to 4.
        let h = standard_hierarchy();
        let src = "mic void t(int n, float[n] a) {
  foreach (int c in n / 4 cores) {
    foreach (int t in 4 threads) { a[c * 4 + t] = 0.0; }
  }
}";
        let ck = compile(src, &h).unwrap();
        let cfg = LaunchConfig::for_device(&ck, &h, DeviceKind::XeonPhi.level(&h));
        assert_eq!(cfg.group_size, 4);
    }

    #[test]
    fn launch_memo_looks_up_by_key_and_iterates_in_key_order() {
        use crate::ast::ElemTy;
        use crate::value::ArrayArg;
        let mut memo = LaunchMemo::new();
        let key = |kernel: &str, n: i64| LaunchKey {
            kernel: kernel.to_string(),
            level: LevelId(0),
            group_size: 256,
            warp_width: 32,
            shape: vec![n],
        };
        assert!(memo.lookup(&key("b", 8)).is_none());
        let stats = |flops| KernelStats {
            flops,
            ..KernelStats::default()
        };
        memo.insert(key("b", 8), stats(1.0));
        memo.insert(key("a", 8), stats(2.0));
        assert_eq!(memo.lookup(&key("b", 8)).map(|s| s.flops), Some(1.0));
        assert_eq!(memo.lookup(&key("a", 8)).map(|s| s.flops), Some(2.0));
        assert!(
            memo.lookup(&key("b", 9)).is_none(),
            "shape is part of the key"
        );
        assert_eq!(memo.len(), 2);
        let order: Vec<&str> = memo.iter().map(|(k, _)| k.kernel.as_str()).collect();
        assert_eq!(order, vec!["a", "b"], "deterministic key-ordered iteration");

        // Shape signature: contents don't matter, sizes and scalars do.
        let s1 = LaunchKey::arg_shape(&[
            ArgValue::Int(8),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[8])),
        ]);
        let s2 = LaunchKey::arg_shape(&[
            ArgValue::Int(8),
            ArgValue::Array(ArrayArg::float(&[8], vec![1.0; 8])),
        ]);
        let s3 = LaunchKey::arg_shape(&[
            ArgValue::Int(16),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[16])),
        ]);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn exec_options_carry_geometry() {
        let h = standard_hierarchy();
        let ck = compile(TILED, &h).unwrap();
        let cfg = LaunchConfig::for_device(&ck, &h, DeviceKind::Gtx480.level(&h));
        let full = cfg.exec_full();
        assert_eq!(full.group_size, 128);
        assert_eq!(full.simd_width, 32);
        assert!(full.sample.is_none());
        let sampled = cfg.exec_sampled(Sampling::default());
        assert!(sampled.sample.is_some());
    }
}
