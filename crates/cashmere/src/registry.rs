//! The kernel registry: multiple MCPL versions per kernel, most-specific
//! selection per device, and sampled statistics per launch.
//!
//! Applying stepwise refinement leaves the programmer with several files
//! holding versions of the same kernel at different levels (paper
//! Sec. III-A: `perfect`, `gpu`, `amd`, `hd7970`, …). The registry compiles
//! them all, and for each physical device "automatically chooses the most
//! specific kernel version".
//!
//! Because leaf jobs in a divide-and-conquer application typically have the
//! same size (the paper's own observation in Sec. III-B), sampled
//! statistics come from the process-wide launch table of
//! [`cashmere_mcl::launch`], so the cost of sampled interpretation is paid
//! once per distinct launch instead of once per job or per run. The
//! registry remembers only which launch shapes its run has seen, for the
//! run's memo hit and miss counts.

use cashmere_des::obs::prof;
use cashmere_devsim::{ExecMode, PreparedLaunch, SimDevice};
use cashmere_hwdesc::{Hierarchy, LevelId};
pub use cashmere_mcl::launch::arg_shape;
use cashmere_mcl::launch::{table_entry, KernelSource, LaunchKey, LaunchShape, Measured};
use cashmere_mcl::value::ArgValue;
use cashmere_mcl::{compile, CheckError, CheckedKernel};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One registered kernel version and the source it was compiled from.
struct Version {
    ck: CheckedKernel,
    source: KernelSource,
}

/// Most-specific version of a kernel for `device`.
fn most_specific<'a>(
    h: &Hierarchy,
    versions: &'a [Arc<Version>],
    device: LevelId,
) -> Option<&'a Arc<Version>> {
    let levels: Vec<LevelId> = versions.iter().map(|v| v.ck.level).collect();
    let best = h.most_specific(&levels, device)?;
    versions.iter().find(|v| v.ck.level == best)
}

/// A kernel's most specific version prepared for sampled launches on one
/// device (paper Sec. III-A): resolved once, then every launch of the
/// kernel on that device only adds its arguments.
pub(crate) struct PreparedKernel {
    version: Arc<Version>,
    /// Geometry, executor options and parallelism units of the launch.
    pub(crate) launch: PreparedLaunch,
}

impl PreparedKernel {
    /// The checked kernel of the prepared version.
    pub(crate) fn checked(&self) -> &CheckedKernel {
        &self.version.ck
    }
}

/// Registry of compiled kernels plus the hardware hierarchy they target.
pub struct KernelRegistry {
    hierarchy: Hierarchy,
    kernels: HashMap<String, Vec<Arc<Version>>>,
    /// Sampled launch shapes measured so far: a run's first sight of a
    /// shape is its memo miss.
    seen: HashSet<LaunchShape>,
}

impl KernelRegistry {
    pub fn new(hierarchy: Hierarchy) -> KernelRegistry {
        KernelRegistry {
            hierarchy,
            kernels: HashMap::new(),
            seen: HashSet::new(),
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
        let versions = self.kernels.entry(name.clone()).or_default();
        if versions.iter().any(|v| v.ck.level == level) {
            return Err(CheckError {
                line: 1,
                message: format!(
                    "kernel `{name}` already has a version at level `{}`",
                    self.hierarchy.name(level)
                ),
            });
        }
        versions.push(Arc::new(Version {
            ck,
            source: KernelSource::new(src),
        }));
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
            .map(|k| k.iter().map(|v| v.ck.level).collect())
            .unwrap_or_default()
    }

    /// Most-specific version of `kernel` applicable to `device`
    /// (paper Sec. III-A). `None` when no version applies — the caller
    /// falls back to the CPU leaf.
    pub fn select(&self, kernel: &str, device: LevelId) -> Option<&CheckedKernel> {
        most_specific(&self.hierarchy, self.kernels.get(kernel)?, device).map(|v| &v.ck)
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

    /// Prepare `kernel`'s most specific version for sampled launches on
    /// `device`; `None` when no version applies.
    pub(crate) fn prepare(&self, kernel: &str, device: &SimDevice) -> Option<PreparedKernel> {
        let version = most_specific(&self.hierarchy, self.kernels.get(kernel)?, device.level)?;
        Some(PreparedKernel {
            launch: device.prepare_launch(&self.hierarchy, &version.ck, ExecMode::sampled()),
            version: Arc::clone(version),
        })
    }

    /// Unscaled statistics of a sampled launch of `kernel` on `args`, and
    /// whether this is the registry's first sight of the launch's shape
    /// (the run's memo miss). The statistics come from the process-wide
    /// launch table; the VM runs only when the process has never seen this
    /// exact launch.
    pub(crate) fn sampled_stats(
        &mut self,
        kernel: &PreparedKernel,
        args: &[ArgValue],
    ) -> (Measured, bool) {
        let PreparedKernel { version, launch } = kernel;
        let (entry, first_sight) = {
            let _prof = prof::scope("mcl::memo");
            let key = LaunchKey::sampled(&version.source, &launch.par_units, &launch.opts, args);
            let first_sight = !self.seen.contains(key.shape());
            if first_sight {
                self.seen.insert(key.shape().clone());
            }
            (table_entry(key), first_sight)
        };
        let measured = entry.get_or_init(|| {
            let _prof = prof::scope("mcl::execute");
            cashmere_mcl::execute(&version.ck, args.to_vec(), &launch.par_units, &launch.opts)
                .map(|run| run.stats)
        });
        (measured.clone(), first_sight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_des::SimTime;
    use cashmere_hwdesc::{standard_hierarchy, DeviceKind};
    use cashmere_mcl::launch::arg_shape_matches;
    use cashmere_mcl::launch::LaunchConfig;
    use cashmere_mcl::value::ArrayArg;
    use cashmere_mcl::ElemTy;
    use proptest::prelude::*;

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

    // The paper's Fig. 4 leaf glue, `getKernel` → `createLaunch` →
    // `MCL.launch`, is `select` plus a device run; every failure (unknown
    // kernel, bad arguments, unknown device) is a value the caller turns
    // into the `leafCPU` fallback.

    fn device(h: &Hierarchy, name: &str) -> SimDevice {
        SimDevice::by_name(h, name).unwrap()
    }

    fn axpy_args(n: usize, y: ArrayArg, x: &ArrayArg) -> Vec<ArgValue> {
        vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(y),
            ArgValue::Array(x.clone()),
        ]
    }

    #[test]
    fn fig4_flow_computes() {
        let r = registry();
        let h = r.hierarchy();
        let gtx = device(h, "gtx480");
        let ck = r.select("axpy", gtx.level).unwrap();
        assert_eq!(h.name(ck.level), "gpu", "most specific version");
        let y = ArrayArg::float(&[100], vec![0.0; 100]);
        let x = ArrayArg::float(&[100], (0..100).map(f64::from).collect());
        let bytes = 2 * 100 * 4;
        let run = gtx
            .run_kernel(h, ck, axpy_args(100, y, &x), ExecMode::Full)
            .unwrap();
        assert_eq!(run.args[1].clone().array().as_f64()[21], 42.0);
        assert!(run.time > SimTime::ZERO);
        assert!(gtx.transfer_time(bytes) > SimTime::ZERO);
    }

    #[test]
    fn phi_gets_the_perfect_version() {
        let r = registry();
        let h = r.hierarchy();
        let ck = r.select("axpy", device(h, "xeon_phi").level).unwrap();
        assert_eq!(h.name(ck.level), "perfect");
    }

    #[test]
    fn missing_kernel_is_the_catchable_exception() {
        let r = registry();
        let h = r.hierarchy();
        // No version to select: the caller runs leafCPU instead.
        assert!(r.select("nonexistent", device(h, "gtx480").level).is_none());
    }

    #[test]
    fn runtime_failure_is_catchable_too() {
        let r = registry();
        let h = r.hierarchy();
        let gtx = device(h, "gtx480");
        let ck = r.select("axpy", gtx.level).unwrap();
        // Wrong argument count → runtime error, not panic.
        let bad = gtx.run_kernel(h, ck, vec![ArgValue::Int(100)], ExecMode::Full);
        assert!(bad.is_err());
    }

    #[test]
    fn unknown_device_rejected() {
        let r = registry();
        assert!(SimDevice::by_name(r.hierarchy(), "rtx9090").is_err());
    }

    #[test]
    fn multiple_launches_reuse_the_kernel() {
        // "multiple kernel-launches: it is possible to launch the kernel
        // multiple times in succession."
        let r = registry();
        let h = r.hierarchy();
        let k20 = device(h, "k20");
        let ck = r.select("axpy", k20.level).unwrap();
        let x = ArrayArg::float(&[8], vec![1.0; 8]);
        let mut y = ArrayArg::float(&[8], vec![1.0; 8]);
        for _ in 0..3 {
            let run = k20
                .run_kernel(h, ck, axpy_args(8, y, &x), ExecMode::Full)
                .unwrap();
            y = run.args[1].clone().array();
        }
        assert_eq!(y.as_f64()[0], 7.0, "1 + 3 launches of y += 2x");
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

    /// One argument drawn from a small alphabet, so that two lists often
    /// share a shape: `(kind, value, rank, dims)`.
    fn arg((kind, value, rank, dims): (usize, usize, usize, Vec<u64>)) -> ArgValue {
        const INTS: [i64; 4] = [0, 1, -1, i64::MIN];
        const FLOAT_BITS: [u64; 5] = [
            0,                     // 0.0
            0x8000_0000_0000_0000, // -0.0
            0x7ff8_0000_0000_0000, // NaN
            0x7ff8_0000_0000_0001, // NaN, other payload
            0x3ff0_0000_0000_0000, // 1.0
        ];
        let dims = &dims[..rank];
        let len = dims.iter().product::<u64>() as usize;
        match kind {
            0 => ArgValue::Int(INTS[value % INTS.len()]),
            1 => ArgValue::Float(f64::from_bits(FLOAT_BITS[value % FLOAT_BITS.len()])),
            2 => ArgValue::Array(ArrayArg::float(dims, vec![value as f64; len])),
            3 => ArgValue::Array(ArrayArg::int(dims, vec![value as i64; len])),
            4 => ArgValue::Array(ArrayArg::phantom(ElemTy::Float, dims)),
            _ => ArgValue::Array(ArrayArg::phantom(ElemTy::Int, dims)),
        }
    }

    fn one_arg() -> impl Strategy<Value = ArgValue> {
        (
            0..6usize,
            0..5usize,
            0..4usize,
            collection::vec(1..4u64, 3..4),
        )
            .prop_map(arg)
    }

    fn args() -> impl Strategy<Value = Vec<ArgValue>> {
        collection::vec(one_arg(), 0..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn in_place_shape_match_agrees_with_arg_shape(
            a in args(),
            at in 0..6usize,
            other in one_arg(),
            c in args(),
            cut in 0..8usize,
        ) {
            let shape = arg_shape(&a);
            prop_assert!(arg_shape_matches(&a, &shape));
            // `a` with one argument redrawn (often the same shape, other
            // contents), and an unrelated list.
            let mut b = a.clone();
            if let Some(slot) = b.get_mut(at) {
                *slot = other;
            }
            for x in [&b, &c] {
                prop_assert_eq!(arg_shape_matches(x, &shape), arg_shape(x) == shape);
            }
            // Truncated and extended signatures never match.
            let short = &shape[..shape.len().saturating_sub(1 + cut % 2)];
            prop_assert_eq!(arg_shape_matches(&a, short), short.len() == shape.len());
            let mut long = shape.clone();
            long.push(cut as u64);
            prop_assert!(!arg_shape_matches(&a, &long));
        }
    }

    #[test]
    fn stats_cache_roundtrip() {
        let mut r = registry();
        let gtx = SimDevice::by_name(r.hierarchy(), "gtx480").unwrap();
        let args = phantom_args(1 << 20);
        let axpy = r.prepare("axpy", &gtx).unwrap();
        let (first, miss) = r.sampled_stats(&axpy, &args);
        let (again, hit) = r.sampled_stats(&axpy, &args);
        assert!(miss && !hit, "first sight misses, the repeat hits");
        assert_eq!(bits(&first), bits(&again));
        assert!(r.prepare("nonexistent", &gtx).is_none());
    }

    /// `n` and phantom `y`, `x` of length `n`: an `axpy` launch.
    fn phantom_args(n: u64) -> Vec<ArgValue> {
        vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
        ]
    }

    /// Prepare `kernel` for `device` and run one sampled launch.
    fn sampled(
        r: &mut KernelRegistry,
        kernel: &str,
        device: &SimDevice,
        args: &[ArgValue],
    ) -> (Measured, bool) {
        let prepared = r.prepare(kernel, device).unwrap();
        r.sampled_stats(&prepared, args)
    }

    /// Statistics rendered so that equal strings mean equal bits.
    fn bits(measured: &Measured) -> String {
        format!("{:?}", measured.as_ref().expect("launch runs"))
    }

    /// Stats of the same launch run directly on the device, bypassing the
    /// launch table.
    fn direct(r: &KernelRegistry, kernel: &str, device: &SimDevice, args: &[ArgValue]) -> String {
        let ck = r.select(kernel, device.level).unwrap();
        let run = device
            .run_kernel(r.hierarchy(), ck, args.to_vec(), ExecMode::sampled())
            .unwrap();
        format!("{:?}", run.stats)
    }

    #[test]
    fn table_stats_equal_a_direct_device_run() {
        let mut r = registry();
        for device in ["gtx480", "k20", "hd7970", "xeon_phi", "titan"] {
            let device = SimDevice::by_name(r.hierarchy(), device).unwrap();
            for n in [1000, 4096] {
                let args = phantom_args(n);
                let (measured, _) = sampled(&mut r, "axpy", &device, &args);
                assert_eq!(
                    bits(&measured),
                    direct(&r, "axpy", &device, &args),
                    "{} n={n}",
                    device.level_name
                );
            }
        }
    }

    #[test]
    fn different_sources_under_one_name_and_level_get_separate_entries() {
        let scale = |body: &str| {
            let mut r = KernelRegistry::new(standard_hierarchy());
            r.register(&format!(
                "perfect void table_probe(int n, float[n] y) {{
  foreach (int i in n threads) {{ {body} }}
}}"
            ))
            .unwrap();
            r
        };
        let mut twice = scale("y[i] = y[i] * 2.0;");
        let mut affine = scale("y[i] = y[i] * 2.0 + 1.0;");
        let gtx = SimDevice::by_name(twice.hierarchy(), "gtx480").unwrap();
        let args = vec![
            ArgValue::Int(4096),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[4096])),
        ];
        let (a, a_miss) = sampled(&mut twice, "table_probe", &gtx, &args);
        let (b, b_miss) = sampled(&mut affine, "table_probe", &gtx, &args);
        assert!(a_miss && b_miss, "each run counts its own first sight");
        assert_ne!(bits(&a), bits(&b), "same name and level, other source");
        assert_eq!(bits(&a), direct(&twice, "table_probe", &gtx, &args));
        assert_eq!(bits(&b), direct(&affine, "table_probe", &gtx, &args));
    }

    #[test]
    fn real_buffer_contents_get_their_own_entry() {
        // The branch makes the statistics depend on the data.
        let mut r = KernelRegistry::new(standard_hierarchy());
        r.register(
            "perfect void table_branch(int n, float[n] y) {
  foreach (int i in n threads) {
    if (y[i] > 0.5) { y[i] = y[i] * y[i] * 3.0 + 1.0; }
  }
}",
        )
        .unwrap();
        let gtx = SimDevice::by_name(r.hierarchy(), "gtx480").unwrap();
        let args = |fill: f64| {
            vec![
                ArgValue::Int(512),
                ArgValue::Array(ArrayArg::float(&[512], vec![fill; 512])),
            ]
        };
        let (zeros, miss) = sampled(&mut r, "table_branch", &gtx, &args(0.0));
        let (ones, hit) = sampled(&mut r, "table_branch", &gtx, &args(1.0));
        assert!(miss && !hit, "one shape: the run counts one miss");
        assert_ne!(bits(&zeros), bits(&ones), "contents are part of the key");
        assert_eq!(bits(&zeros), direct(&r, "table_branch", &gtx, &args(0.0)));
        assert_eq!(bits(&ones), direct(&r, "table_branch", &gtx, &args(1.0)));
    }

    #[test]
    fn two_threads_missing_one_key_run_the_vm_once() {
        use cashmere_mcl::stats::KernelStats;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        use std::time::{Duration, Instant};

        let source = KernelSource::new("perfect void table_race(int n) { }");
        let opts = cashmere_mcl::ExecOptions {
            sample: Some(cashmere_mcl::Sampling::default()),
            ..cashmere_mcl::ExecOptions::default()
        };
        let key = LaunchKey::sampled(&source, &["threads".into()], &opts, &[ArgValue::Int(7)]);
        let runs = AtomicUsize::new(0);
        let barrier = Barrier::new(2);
        let results: Vec<String> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let entry = table_entry(key.clone());
                        let measured = entry.get_or_init(|| {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Stay in the fill until a second fill starts
                            // (the defect this test catches) or the other
                            // thread has long had time to arrive.
                            let start = Instant::now();
                            while runs.load(Ordering::SeqCst) < 2
                                && start.elapsed() < Duration::from_millis(500)
                            {
                                std::thread::yield_now();
                            }
                            Ok(KernelStats {
                                flops: 7.0,
                                ..KernelStats::default()
                            })
                        });
                        bits(measured)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one VM run per key");
        assert_eq!(results[0], results[1]);

        // Through two registries (two runs) on two threads: both count a
        // miss, both get the same statistics.
        let results: Vec<(String, bool)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut r = registry();
                        let k20 = SimDevice::by_name(r.hierarchy(), "k20").unwrap();
                        barrier.wait();
                        let (m, miss) = sampled(&mut r, "axpy", &k20, &phantom_args(3000));
                        (bits(&m), miss)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(results[0], results[1]);
        assert!(results[0].1, "a run's first sight is a miss");
    }
}
