//! The kernel registry: multiple MCPL versions per kernel, most-specific
//! selection per device, and sampled statistics per launch.
//!
//! Applying stepwise refinement leaves the programmer with several files
//! holding versions of the same kernel at different levels (paper
//! Sec. III-A: `perfect`, `gpu`, `amd`, `hd7970`, …). The registry compiles
//! them all, and for each physical device "automatically chooses the most
//! specific kernel version".
//!
//! Like a Cashmere node, which compiles its kernels once on initialization
//! (paper Sec. III-B), the process compiles each version once: every
//! registry that registers the same source against an equal hierarchy
//! shares one compiled version.
//!
//! Because leaf jobs in a divide-and-conquer application typically have the
//! same size (the paper's own observation in Sec. III-B), sampled
//! statistics come from the process-wide launch table of
//! [`cashmere_mcl::launch`], so the cost of sampled interpretation is paid
//! once per distinct launch instead of once per job or per run.
//! [`KernelRegistry::sampled_seconds`] turns such a launch into modelled
//! seconds for cluster runs and Fig. 6 measurements alike. The registry
//! remembers only which launches its run has seen, for the run's memo hit
//! and miss counts.
//!
//! A launch is run by the [`PreparedKernel`] that
//! [`KernelRegistry::prepare`] returns for a device: a sampled run (the
//! launch table's fill and the table-free Fig. 6 oracle), a full run
//! (functional mode), and the one conversion of statistics into modelled
//! seconds that all of them use.

use cashmere_des::obs::prof;
use cashmere_devsim::SimDevice;
use cashmere_hwdesc::params::ResolvedParams;
use cashmere_hwdesc::{Hierarchy, LevelId};
use cashmere_mcl::cost::estimate_time;
use cashmere_mcl::launch::{table_entry, KernelSource, LaunchConfig, LaunchKey, Measured};
use cashmere_mcl::stats::KernelStats;
use cashmere_mcl::value::ArgValue;
use cashmere_mcl::{compile, CheckError, CheckedKernel, ExecError, ExecResult};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, LazyLock, Mutex, OnceLock, PoisonError};

/// One registered kernel version and the source it was compiled from.
struct Version {
    ck: CheckedKernel,
    source: KernelSource,
}

/// A source compiled against one hierarchy: its version, or the located
/// error its parse or check raised.
type Compiled = Result<Arc<Version>, CheckError>;

/// The hierarchies one source was compiled against, each with its
/// outcome.
type Compilations = Vec<(Hierarchy, Arc<OnceLock<Compiled>>)>;

/// The process-wide compiled versions. Compiling is a pure function of the
/// source text and the hierarchy's content (the checker resolves level
/// names to ids and reads each level's parallelism units), so a source is
/// looked up by its text and then by hierarchy equality.
static VERSIONS: LazyLock<Mutex<HashMap<KernelSource, Compilations>>> =
    LazyLock::new(Default::default);

/// The entry of `source` compiled against `hierarchy`, created empty on
/// the process's first sight of the pair and then never replaced or
/// evicted. As in the launch table, the lock covers only this lookup:
/// callers fill the entry after it is released, so threads that miss one
/// pair together compile it once.
fn compilation(source: &KernelSource, hierarchy: &Hierarchy) -> Arc<OnceLock<Compiled>> {
    // A panic cannot leave the map half-updated: the lock guards one
    // lookup and at most one push, so a poisoned map is still whole.
    let mut versions = VERSIONS.lock().unwrap_or_else(PoisonError::into_inner);
    let compilations = versions.entry(source.clone()).or_default();
    match compilations.iter().find(|(h, _)| h == hierarchy) {
        Some((_, entry)) => Arc::clone(entry),
        None => {
            let entry = Arc::new(OnceLock::new());
            compilations.push((hierarchy.clone(), Arc::clone(&entry)));
            entry
        }
    }
}

/// `src` compiled against `hierarchy`: parsed and checked only on the
/// process's first sight of the pair. An error is kept like a version, so
/// a failing source fails alike every time.
fn compiled(src: &str, hierarchy: &Hierarchy) -> Compiled {
    let source = KernelSource::new(src);
    compilation(&source, hierarchy)
        .get_or_init(|| {
            let _prof = prof::scope("mcl::compile");
            compile(src, hierarchy).map(|ck| Arc::new(Version { ck, source }))
        })
        .clone()
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

/// A kernel's most specific version prepared for one device (paper
/// Sec. III-A: `Cashmere.getKernel()` → `createLaunch()`): resolved once,
/// then every launch of the kernel on that device only adds its
/// arguments. This is the one thing that runs a kernel launch; the
/// `mcl::execute` profiler frame opens only here.
pub struct PreparedKernel {
    version: Arc<Version>,
    config: LaunchConfig,
}

impl PreparedKernel {
    /// The checked kernel of the prepared version.
    pub fn checked(&self) -> &CheckedKernel {
        &self.version.ck
    }

    /// The version's launch geometry on the device.
    pub fn config(&self) -> &LaunchConfig {
        &self.config
    }

    /// A sampled VM run of the launch on `args`, outside the process-wide
    /// launch table: its unscaled statistics.
    pub fn run_sampled(&self, args: &[ArgValue]) -> Measured {
        let _prof = prof::scope("mcl::execute");
        cashmere_mcl::execute(self.checked(), args.to_vec(), &self.config.exec_sampled())
            .map(|run| run.stats)
    }

    /// A full (functional) VM run of the launch: every lane interpreted,
    /// so the arguments come back computed.
    pub fn run_full(&self, args: Vec<ArgValue>) -> Result<ExecResult, ExecError> {
        let _prof = prof::scope("mcl::execute");
        cashmere_mcl::execute(self.checked(), args, &self.config.exec_full())
    }

    /// Modelled seconds of a launch whose statistics are `stats`, with the
    /// calibration factor `extra_scale` applied to them, on the device
    /// with parameters `params` (the one this kernel was prepared for):
    /// the physical cost, before any virtual speed scale.
    pub fn seconds(
        &self,
        mut stats: KernelStats,
        extra_scale: f64,
        params: &ResolvedParams,
    ) -> f64 {
        if extra_scale != 1.0 {
            stats.scale(extra_scale);
        }
        estimate_time(&stats, params, self.config.class).total_s
    }
}

/// How the registry answered one sampled launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchSight {
    /// The registry's first sight of the launch: its run's memo miss.
    pub first_in_run: bool,
    /// The process-wide launch table did not hold the launch yet, so this
    /// call ran the VM.
    pub interpreted: bool,
}

/// Registry of compiled kernels plus the hardware hierarchy they target.
pub struct KernelRegistry {
    hierarchy: Hierarchy,
    kernels: HashMap<String, Vec<Arc<Version>>>,
    /// Sampled launches measured so far: a run's first sight of a launch
    /// is its memo miss.
    seen: HashSet<LaunchKey>,
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
    /// versions of the same kernel at the same level is an error. The
    /// version is compiled once per process and shared by every registry
    /// on an equal hierarchy.
    pub fn register(&mut self, src: &str) -> Result<(String, LevelId), CheckError> {
        let version = compiled(src, &self.hierarchy)?;
        let name = version.ck.kernel.name.clone();
        let level = version.ck.level;
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
        versions.push(version);
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

    /// Prepare `kernel`'s most specific version for launches on `device`;
    /// `None` when no version applies.
    pub fn prepare(&self, kernel: &str, device: &SimDevice) -> Option<PreparedKernel> {
        let version = most_specific(&self.hierarchy, self.kernels.get(kernel)?, device.level)?;
        Some(PreparedKernel {
            config: LaunchConfig::for_device(&version.ck, &self.hierarchy, device.level),
            version: Arc::clone(version),
        })
    }

    /// Modelled seconds of a sampled launch of `kernel` on `args` on the
    /// device with parameters `params` (the one `kernel` was prepared
    /// for), with the call's calibration factor `extra_scale` applied:
    /// [`PreparedKernel::seconds`] of the launch's statistics. Those come
    /// from the process-wide launch table, so the VM runs only when the
    /// process has never seen this exact launch.
    pub fn sampled_seconds(
        &mut self,
        kernel: &PreparedKernel,
        args: &[ArgValue],
        extra_scale: f64,
        params: &ResolvedParams,
    ) -> (Result<f64, ExecError>, LaunchSight) {
        let (measured, sight) = self.sampled_stats(kernel, args);
        // The table holds *unscaled* statistics: calls of one launch may
        // calibrate differently.
        let seconds = measured.map(|stats| kernel.seconds(stats, extra_scale, params));
        (seconds, sight)
    }

    /// Unscaled statistics of a sampled launch of `kernel` on `args`, and
    /// how the launch was answered. The statistics come from the
    /// process-wide launch table. The `mcl::memo` frame covers the whole
    /// lookup, so a thread that waits for another thread's interpretation
    /// of the same launch is charged to it, and an interpretation of its
    /// own nests under it as `mcl::execute`.
    fn sampled_stats(
        &mut self,
        kernel: &PreparedKernel,
        args: &[ArgValue],
    ) -> (Measured, LaunchSight) {
        let PreparedKernel { version, config } = kernel;
        let _prof = prof::scope("mcl::memo");
        let key = LaunchKey::sampled(&version.source, &version.ck, config, args);
        let first_in_run = self.seen.insert(key.clone());
        let entry = table_entry(key);
        let mut interpreted = false;
        let measured = entry.get_or_init(|| {
            interpreted = true;
            kernel.run_sampled(args)
        });
        let sight = LaunchSight {
            first_in_run,
            interpreted,
        };
        (measured.clone(), sight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_hwdesc::{standard_hierarchy, DeviceKind};
    use cashmere_mcl::launch::{arg_signature, arg_signature_matches};
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
    // `MCL.launch`, is `prepare` plus a run of the prepared kernel; every
    // failure (unknown kernel, bad arguments, unknown device) is a value
    // the caller turns into the `leafCPU` fallback.

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
        let axpy = r.prepare("axpy", &gtx).unwrap();
        assert_eq!(h.name(axpy.checked().level), "gpu", "most specific version");
        let y = ArrayArg::float(&[100], vec![0.0; 100]);
        let x = ArrayArg::float(&[100], (0..100).map(f64::from).collect());
        let bytes = 2 * 100 * 4;
        let run = axpy.run_full(axpy_args(100, y, &x)).unwrap();
        assert_eq!(run.args[1].clone().array().as_f64()[21], 42.0);
        assert!(axpy.seconds(run.stats, 1.0, &gtx.params) > 0.0);
        assert!(gtx.transfer_time(bytes) > cashmere_des::SimTime::ZERO);
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
        let axpy = r.prepare("axpy", &device(h, "gtx480")).unwrap();
        // Wrong argument count → runtime error, not panic.
        assert!(axpy.run_full(vec![ArgValue::Int(100)]).is_err());
        assert!(axpy.run_sampled(&[ArgValue::Int(100)]).is_err());
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
        let axpy = r.prepare("axpy", &device(h, "k20")).unwrap();
        let x = ArrayArg::float(&[8], vec![1.0; 8]);
        let mut y = ArrayArg::float(&[8], vec![1.0; 8]);
        for _ in 0..3 {
            let run = axpy.run_full(axpy_args(8, y, &x)).unwrap();
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

    /// The version `r` holds of `kernel` at the level named `level`.
    fn version(r: &KernelRegistry, kernel: &str, level: &str) -> Arc<Version> {
        let level = r.hierarchy().id(level).unwrap();
        let v = r.kernels[kernel].iter().find(|v| v.ck.level == level);
        Arc::clone(v.unwrap())
    }

    #[test]
    fn registries_on_one_hierarchy_share_compiled_versions() {
        let (a, b) = (registry(), registry());
        for level in ["perfect", "gpu"] {
            assert!(Arc::ptr_eq(
                &version(&a, "axpy", level),
                &version(&b, "axpy", level)
            ));
        }
        let h = a.hierarchy();
        for device in DeviceKind::ALL {
            let level = device.level(h);
            assert_eq!(
                a.select("axpy", level).map(|ck| ck.level),
                b.select("axpy", level).map(|ck| ck.level),
                "{device}"
            );
        }
    }

    /// A `mic` kernel over the standard `mic` units, `cores` then
    /// `threads`.
    fn mic_kernel(name: &str) -> String {
        format!(
            "mic void {name}(int n, float[n] a) {{
  foreach (int c in n / 4 cores) {{
    foreach (int t in 4 threads) {{ a[c * 4 + t] = 0.0; }}
  }}
}}"
        )
    }

    /// The standard hierarchy with a `mic` that exposes `threads` only:
    /// the same level names and parents, other parallelism units.
    fn mic_without_cores() -> Hierarchy {
        let hdl = cashmere_hwdesc::library::STANDARD_HDL.replace("unit cores max 61;", "");
        let h = cashmere_hwdesc::hdl::parse(&hdl).unwrap();
        assert_ne!(h, standard_hierarchy());
        assert!(h.names().eq(standard_hierarchy().names()));
        h
    }

    /// A one-level hierarchy: no `mic` at all.
    fn perfect_only() -> Hierarchy {
        cashmere_hwdesc::hdl::parse("hardware perfect { parallelism { unit threads; } }").unwrap()
    }

    #[test]
    fn a_version_is_never_shared_across_unequal_hierarchies() {
        let register = |h: Hierarchy, src: &str| KernelRegistry::new(h).register(src);
        let others_answer_alone = |src: &str| {
            let err = register(perfect_only(), src).unwrap_err();
            assert_eq!(err.line, 1);
            assert_eq!(err.message, "unknown hardware description `mic`");
            let err = register(mic_without_cores(), src).unwrap_err();
            assert!(err.message.contains("parallelism unit `cores`"), "{err}");
        };
        let standard_answers = |src: &str| {
            let (_, level) = register(standard_hierarchy(), src).unwrap();
            assert_eq!(standard_hierarchy().name(level), "mic");
        };
        let src = mic_kernel("hierarchy_probe_standard_first");
        standard_answers(&src);
        others_answer_alone(&src);
        let src = mic_kernel("hierarchy_probe_standard_last");
        others_answer_alone(&src);
        standard_answers(&src);
    }

    #[test]
    fn a_failing_source_fails_alike_every_time() {
        let src = "perfect void failing_probe(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = undeclared;
  }
}";
        let errors: Vec<CheckError> = (0..3)
            .map(|_| {
                KernelRegistry::new(standard_hierarchy())
                    .register(src)
                    .unwrap_err()
            })
            .collect();
        assert_eq!(errors[0].line, 3, "{}", errors[0]);
        assert!(errors.iter().all(|e| *e == errors[0]));
    }

    #[test]
    fn duplicate_level_rejected_when_the_version_is_cached() {
        let other = PERFECT.replace("2.0", "3.0");
        KernelRegistry::new(standard_hierarchy())
            .register(&other)
            .unwrap();
        let mut r = registry();
        let err = r.register(&other).unwrap_err();
        assert!(err.message.contains("already has a version"), "{err}");
        assert_eq!(r.versions_of("axpy").len(), 2);
    }

    #[test]
    fn two_threads_missing_one_source_compile_it_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        use std::time::{Duration, Instant};

        let src = "perfect void compile_race(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = 1.0; }
}";
        let h = standard_hierarchy();
        let compiles = AtomicUsize::new(0);
        let barrier = Barrier::new(2);
        let versions: Vec<Arc<Version>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let source = KernelSource::new(src);
                        barrier.wait();
                        let entry = compilation(&source, &h);
                        let compiled = entry.get_or_init(|| {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            // Stay in the fill until a second fill starts
                            // (the defect this test catches) or the other
                            // thread has long had time to arrive.
                            let start = Instant::now();
                            while compiles.load(Ordering::SeqCst) < 2
                                && start.elapsed() < Duration::from_millis(500)
                            {
                                std::thread::yield_now();
                            }
                            compile(src, &h).map(|ck| Arc::new(Version { ck, source }))
                        });
                        Arc::clone(compiled.as_ref().unwrap())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(compiles.load(Ordering::SeqCst), 1, "one compile per pair");
        assert!(Arc::ptr_eq(&versions[0], &versions[1]));

        // Registries on two threads receive that version.
        let registered: Vec<Arc<Version>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut r = KernelRegistry::new(standard_hierarchy());
                        barrier.wait();
                        r.register(src).unwrap();
                        version(&r, "compile_race", "perfect")
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(registered.iter().all(|v| Arc::ptr_eq(v, &versions[0])));
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
        let cfg = |kind: DeviceKind| {
            let device = device(r.hierarchy(), kind.level_name());
            *r.prepare("axpy", &device).unwrap().config()
        };
        // gpu version pins 256 threads.
        assert_eq!(cfg(DeviceKind::Gtx480).group_size, 256);
        // perfect version on phi: class default.
        assert_eq!(cfg(DeviceKind::XeonPhi).warp_width, 16);
    }

    /// A launch's signature opens with its shape (kind tags, scalars, array
    /// heads and dims); a real buffer's contents only follow its dims, and
    /// a phantom buffer has none, so phantom launches differ by size alone.
    #[test]
    fn arg_shape_distinguishes_sizes_not_contents() {
        let real = |n: u64, fill: f64| {
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Array(ArrayArg::float(&[n], vec![fill; n as usize])),
            ]
        };
        let zeros = arg_signature(&real(8, 0.0));
        let ones = arg_signature(&real(8, 1.0));
        let longer = arg_signature(&real(16, 0.0));
        // The scalar's tag and value, the array's head and its one dim.
        assert_eq!(zeros[..4], ones[..4], "contents don't touch the shape");
        assert_ne!(zeros[4..], ones[4..], "they follow it");
        assert_ne!(zeros[..4], longer[..4], "sizes do");

        let mut r = registry();
        let gtx = device(r.hierarchy(), "gtx480");
        let (_, first) = sampled(&mut r, "axpy", &gtx, &phantom_args(1 << 20));
        let (_, again) = sampled(&mut r, "axpy", &gtx, &phantom_args(1 << 20));
        let (_, resized) = sampled(&mut r, "axpy", &gtx, &phantom_args(1 << 21));
        assert!(first && !again && resized, "one miss per size");
    }

    /// One argument drawn from a small alphabet, so that two lists often
    /// share a signature: `(kind, value, rank, dims)`.
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
        let float = f64::from_bits(FLOAT_BITS[value % FLOAT_BITS.len()]);
        let int = INTS[value % INTS.len()];
        match kind {
            0 => ArgValue::Int(int),
            1 => ArgValue::Float(float),
            2 => ArgValue::Array(ArrayArg::float(dims, vec![float; len])),
            3 => ArgValue::Array(ArrayArg::int(dims, vec![int; len])),
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

        /// A device slot's in-place match of a signature agrees with the
        /// registry's key of the same prepared launch.
        #[test]
        fn in_place_shape_match_agrees_with_arg_shape(
            a in args(),
            at in 0..6usize,
            other in one_arg(),
            c in args(),
            cut in 0..8usize,
        ) {
            let r = registry();
            let gtx = device(r.hierarchy(), "gtx480");
            let PreparedKernel { version, config } = r.prepare("axpy", &gtx).unwrap();
            let key = |x: &[ArgValue]| LaunchKey::sampled(&version.source, &version.ck, &config, x);
            let sig = arg_signature(&a);
            prop_assert!(arg_signature_matches(&a, &sig));
            // `a` with one argument redrawn (often the same shape, other
            // contents), and an unrelated list.
            let mut b = a.clone();
            if let Some(slot) = b.get_mut(at) {
                *slot = other;
            }
            for x in [&b, &c] {
                prop_assert_eq!(arg_signature_matches(x, &sig), key(x) == key(&a));
            }
            // Truncated and extended signatures never match.
            let short = &sig[..sig.len().saturating_sub(1 + cut % 2)];
            prop_assert_eq!(arg_signature_matches(&a, short), short.len() == sig.len());
            let mut long = sig.clone();
            long.push(cut as u64);
            prop_assert!(!arg_signature_matches(&a, &long));
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
        assert!(
            miss.first_in_run && !hit.first_in_run,
            "first sight misses, the repeat hits"
        );
        assert!(!hit.interpreted, "the repeat is served by the table");
        assert_eq!(bits(&first), bits(&again));
        assert!(r.prepare("nonexistent", &gtx).is_none());
    }

    #[test]
    fn an_interpretation_nests_under_its_memo_lookup() {
        let mut r = registry();
        let gtx = SimDevice::by_name(r.hierarchy(), "gtx480").unwrap();
        let axpy = r.prepare("axpy", &gtx).unwrap();
        // A length no other test launches, so this thread interprets it.
        let args = phantom_args(5 << 10);
        let _ = prof::take_local();
        prof::set_enabled(true);
        let (_, miss) = r.sampled_stats(&axpy, &args);
        let (_, hit) = r.sampled_stats(&axpy, &args);
        prof::set_enabled(false);
        let tree = prof::take_local();
        assert!(miss.interpreted && !hit.interpreted);
        // One `mcl::memo` context for both lookups, the VM run inside the
        // first: a wait on another thread's run would be charged there too.
        let [memo] = &tree.roots[..] else {
            panic!("{tree:?}")
        };
        let [execute] = &memo.children[..] else {
            panic!("{tree:?}")
        };
        assert_eq!((memo.name.as_str(), memo.count), ("mcl::memo", 2));
        assert_eq!((execute.name.as_str(), execute.count), ("mcl::execute", 1));
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
        let (measured, sight) = r.sampled_stats(&prepared, args);
        (measured, sight.first_in_run)
    }

    /// Statistics rendered so that equal strings mean equal bits.
    fn bits(measured: &Measured) -> String {
        format!("{:?}", measured.as_ref().expect("launch runs"))
    }

    /// Stats of the same launch run by its prepared kernel, bypassing the
    /// launch table.
    fn direct(r: &KernelRegistry, kernel: &str, device: &SimDevice, args: &[ArgValue]) -> String {
        bits(&r.prepare(kernel, device).unwrap().run_sampled(args))
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
    fn sampled_seconds_equal_a_direct_device_run() {
        let mut r = registry();
        for device in ["gtx480", "hd7970", "xeon_phi"] {
            let device = SimDevice::by_name(r.hierarchy(), device).unwrap();
            let axpy = r.prepare("axpy", &device).unwrap();
            for extra_scale in [1.0, 2.5, 0.75] {
                let args = phantom_args(2048);
                let (seconds, _) = r.sampled_seconds(&axpy, &args, extra_scale, &device.params);
                let stats = axpy.run_sampled(&args).unwrap();
                let direct = axpy.seconds(stats, extra_scale, &device.params);
                assert_eq!(
                    seconds.unwrap().to_bits(),
                    direct.to_bits(),
                    "{} x{extra_scale}",
                    device.level_name
                );
            }
        }
    }

    /// `src` registered alone and prepared for the device named `device`.
    fn prepared(src: &str, device: &str) -> (PreparedKernel, SimDevice) {
        let mut r = KernelRegistry::new(standard_hierarchy());
        let (name, _) = r.register(src).unwrap();
        let device = SimDevice::by_name(r.hierarchy(), device).unwrap();
        (r.prepare(&name, &device).unwrap(), device)
    }

    const SCALE2: &str = "perfect void scale2(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = a[i] * 2.0; }
}";

    /// `n` and a phantom `a` of length `n`.
    fn phantom_array(n: u64) -> Vec<ArgValue> {
        vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
        ]
    }

    #[test]
    fn a_full_run_computes_and_times() {
        let (scale2, gtx) = prepared(SCALE2, "gtx480");
        let n = 1024u64;
        let a = ArrayArg::float(&[n], (0..n).map(|i| i as f64).collect());
        let run = scale2
            .run_full(vec![ArgValue::Int(n as i64), ArgValue::Array(a)])
            .unwrap();
        assert_eq!(run.args[1].clone().array().as_f64()[3], 6.0);
        let seconds = scale2.seconds(run.stats, 1.0, &gtx.params);
        assert!(seconds >= 6e-6, "launch overhead floor: {seconds}");
    }

    #[test]
    fn a_sampled_run_stays_within_one_percent_of_a_full_run() {
        let (scale2, gtx) = prepared(SCALE2, "gtx480");
        let args = phantom_array(1 << 20);
        let full = scale2.run_full(args.clone()).unwrap().stats;
        let sampled = scale2.run_sampled(&args).unwrap();
        // The sample interpreted far fewer lanes.
        assert!(sampled.raw_lanes * 100.0 < full.raw_lanes);
        let full = scale2.seconds(full, 1.0, &gtx.params);
        let sampled = scale2.seconds(sampled, 1.0, &gtx.params);
        let rel = (sampled - full).abs() / full;
        assert!(rel < 0.01, "sampled {sampled} vs full {full}");
    }

    #[test]
    fn an_extra_scale_of_ten_multiplies_kernel_time_by_ten() {
        let (touch, gtx) = prepared(
            "perfect void touch(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = a[i] + 1.0; }
}",
            "gtx480",
        );
        // Large enough that the launch overhead is a small share.
        let stats = touch.run_sampled(&phantom_array(1 << 22)).unwrap();
        let launch_s = touch.config().class.launch_overhead_us() * 1e-6;
        let base = touch.seconds(stats.clone(), 1.0, &gtx.params);
        let scaled = touch.seconds(stats.clone(), 10.0, &gtx.params);
        let ratio = (scaled - launch_s) / (base - launch_s);
        assert!((ratio - 10.0).abs() < 0.2, "ratio {ratio}");
        // The factor scales the statistics, then the cost model runs.
        let mut by_hand = stats;
        by_hand.scale(10.0);
        let model = estimate_time(&by_hand, &gtx.params, touch.config().class);
        assert_eq!(scaled.to_bits(), model.total_s.to_bits());
    }

    #[test]
    fn faster_devices_run_the_same_kernel_faster() {
        let work = "perfect void work(int n, float[n] a) {
  foreach (int i in n threads) {
    float x = a[i];
    for (int k = 0; k < 256; k++) { x += x * 0.5; }
    a[i] = x;
  }
}";
        let time_on = |device: &str| {
            let (work, device) = prepared(work, device);
            let stats = work.run_sampled(&phantom_array(1 << 22)).unwrap();
            work.seconds(stats, 1.0, &device.params)
        };
        let gtx480 = time_on("gtx480");
        let k20 = time_on("k20");
        let titan = time_on("titan");
        assert!(k20 < gtx480, "k20 {k20} vs gtx480 {gtx480}");
        assert!(titan <= k20, "titan {titan} vs k20 {k20}");
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
        let (zeros, zeros_miss) = sampled(&mut r, "table_branch", &gtx, &args(0.0));
        let (ones, ones_miss) = sampled(&mut r, "table_branch", &gtx, &args(1.0));
        let (_, repeat_miss) = sampled(&mut r, "table_branch", &gtx, &args(0.0));
        assert!(
            zeros_miss && ones_miss && !repeat_miss,
            "two launches of one shape: the run counts two misses, the repeat hits"
        );
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

        let src = "perfect void table_race(int n) { }";
        let h = standard_hierarchy();
        let mut r = KernelRegistry::new(h.clone());
        r.register(src).unwrap();
        let kernel = r.prepare("table_race", &device(&h, "gtx480")).unwrap();
        let key = LaunchKey::sampled(
            &KernelSource::new(src),
            kernel.checked(),
            kernel.config(),
            &[ArgValue::Int(7)],
        );
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
