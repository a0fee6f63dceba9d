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
//!
//! The module also keeps the process-wide table of sampled launches: a
//! sampled run's statistics depend only on what [`LaunchKey`] holds, so
//! the VM runs once per distinct launch per process ([`table_entry`]).

use crate::ast::{walk_stmts, Expr, StmtKind};
use crate::check::CheckedKernel;
use crate::cost::DeviceClass;
use crate::exec::{ExecError, ExecOptions};
use crate::stats::KernelStats;
use crate::value::{ArgValue, ArrayArg, Buffer};
use cashmere_hwdesc::{Hierarchy, LevelId};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, LazyLock, Mutex, OnceLock, PoisonError};

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
        let innermost = ck.innermost_unit();

        // A literal innermost foreach count pins the group size.
        let mut literal: Option<u64> = None;
        walk_stmts(&ck.kernel.body, &mut |s| {
            if let StmtKind::Foreach {
                unit, count, body, ..
            } = &s.kind
            {
                if *unit == innermost.name {
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
        if let Some(max) = innermost.max {
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
            sampled: false,
        }
    }

    /// Interpreter options for a *sampled* (measurement) execution.
    pub fn exec_sampled(&self) -> ExecOptions {
        ExecOptions {
            sampled: true,
            ..self.exec_full()
        }
    }
}

/// Signature of an argument list: every bit of it a sampled VM run reads.
/// Per argument, a kind tag and the scalar's bits (floats by bit pattern),
/// or an array's head word (buffer kind and rank) and dims, followed by a
/// real array's contents (floats by bit pattern, ints as their
/// two's-complement word). The dims fix each array's length, so the
/// encoding is self-delimiting: two lists share a signature exactly when
/// the VM would read the same inputs from them.
pub fn arg_signature(args: &[ArgValue]) -> Vec<u64> {
    let mut sig = Vec::with_capacity(2 * args.len());
    signature_words(args, |w| {
        sig.push(w);
        true
    });
    sig
}

/// `arg_signature(args) == sig`, decided in place without building the
/// signature.
pub fn arg_signature_matches(args: &[ArgValue], sig: &[u64]) -> bool {
    let mut rest = sig.iter();
    signature_words(args, |w| rest.next() == Some(&w)) && rest.next().is_none()
}

/// Feed the signature of `args` to `word` while it returns true; whether
/// it took every word.
fn signature_words(args: &[ArgValue], mut word: impl FnMut(u64) -> bool) -> bool {
    args.iter().all(|a| match a {
        ArgValue::Int(v) => word(0) && word(*v as u64),
        ArgValue::Float(v) => word(1) && word(v.to_bits()),
        ArgValue::Array(arr) => {
            word(array_head(arr))
                && arr.dims.iter().all(|&d| word(d))
                && match &arr.data {
                    Buffer::F(v) => v.iter().all(|x| word(x.to_bits())),
                    Buffer::I(v) => v.iter().all(|&x| word(x as u64)),
                    Buffer::PhantomF(_) | Buffer::PhantomI(_) => true,
                }
        }
    })
}

/// An array's first signature word: buffer kind and rank.
fn array_head(arr: &ArrayArg) -> u64 {
    let buffer = match arr.data {
        Buffer::F(_) => 2,
        Buffer::I(_) => 3,
        Buffer::PhantomF(_) => 4,
        Buffer::PhantomI(_) => 5,
    };
    buffer | ((arr.rank() as u64) << 8)
}

/// A kernel's MCPL source, hashed once: launch keys hash the stored
/// hash and compare the text.
#[derive(Debug, Clone)]
pub struct KernelSource {
    text: Arc<str>,
    hash: u64,
}

impl KernelSource {
    pub fn new(text: &str) -> KernelSource {
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        KernelSource {
            text: text.into(),
            hash: h.finish(),
        }
    }
}

impl PartialEq for KernelSource {
    fn eq(&self, other: &KernelSource) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for KernelSource {}

impl Hash for KernelSource {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Key of the process-wide launch table: everything a sampled VM run
/// reads. That is the kernel's MCPL source, the names of its level's
/// parallelism units, the launch geometry's group size and warp width and
/// the [`arg_signature`] of the arguments, so two keys are equal exactly
/// when the VM would read the same inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LaunchKey {
    source: KernelSource,
    par_units: Box<[String]>,
    group_size: usize,
    simd_width: usize,
    args: Box<[u64]>,
}

impl LaunchKey {
    /// Key of a sampled launch of `ck`, compiled from `source`, with
    /// geometry `config` on `args`.
    pub fn sampled(
        source: &KernelSource,
        ck: &CheckedKernel,
        config: &LaunchConfig,
        args: &[ArgValue],
    ) -> LaunchKey {
        LaunchKey {
            source: source.clone(),
            par_units: ck.par_units.iter().map(|u| u.name.clone()).collect(),
            group_size: config.group_size,
            simd_width: config.warp_width,
            args: arg_signature(args).into(),
        }
    }
}

/// What one sampled VM run yields: its unscaled statistics, or the error
/// it raised.
pub type Measured = Result<KernelStats, ExecError>;

/// The process-wide launch table. Leaf jobs of one size measure alike
/// (paper Sec. III-B), so every run, sweep point and worker thread of the
/// process shares one VM run per distinct launch.
static TABLE: LazyLock<Mutex<HashMap<LaunchKey, Arc<OnceLock<Measured>>>>> =
    LazyLock::new(Default::default);

/// The table's entry for `key`, created empty on first sight and then
/// never replaced or evicted. The lock covers only this lookup: callers
/// fill the entry with `get_or_init` after it is released, so a slow VM
/// run blocks only the callers waiting for the same key, and threads that
/// miss one key together still run the VM once.
pub fn table_entry(key: LaunchKey) -> Arc<OnceLock<Measured>> {
    // A panic cannot leave the map half-updated: the lock guards one
    // `entry` call, so a poisoned table is still whole.
    let mut table = TABLE.lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(table.entry(key).or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ElemTy;
    use crate::compile;
    use cashmere_hwdesc::{standard_hierarchy, DeviceKind};
    use proptest::prelude::*;

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
        // mic `threads` has max 64: a mic-level kernel that pins 128
        // threads gets a group of 64.
        let h = standard_hierarchy();
        let src = "mic void t(int n, float[n] a) {
  foreach (int c in n / 128 cores) {
    foreach (int t in 128 threads) { a[c * 128 + t] = 0.0; }
  }
}";
        let ck = compile(src, &h).unwrap();
        assert_eq!(ck.innermost_unit().max, Some(64));
        let cfg = LaunchConfig::for_device(&ck, &h, DeviceKind::XeonPhi.level(&h));
        assert_eq!(cfg.group_size, 64);
    }

    #[test]
    fn launch_key_covers_everything_the_vm_reads() {
        let h = standard_hierarchy();
        let source = KernelSource::new(PERFECT);
        let ck = compile(PERFECT, &h).unwrap();
        let config = LaunchConfig::for_device(&ck, &h, DeviceKind::Gtx480.level(&h));
        let args = |n: i64, a: ArrayArg| vec![ArgValue::Int(n), ArgValue::Array(a)];
        let phantom = args(8, ArrayArg::phantom(ElemTy::Float, &[8]));
        let key = LaunchKey::sampled(&source, &ck, &config, &phantom);
        assert_eq!(key, LaunchKey::sampled(&source, &ck, &config, &phantom));

        // Each input the VM reads separates keys.
        let other_source = KernelSource::new(TILED);
        assert_eq!(source, KernelSource::new(PERFECT), "equal by text");
        // The same source checked against a level with other units.
        let mut cores = ck.clone();
        cores.par_units[0].name = "cores".to_string();
        let mut wider = config;
        wider.group_size = 128;
        let mut narrower = config;
        narrower.warp_width = 16;
        let zeros = args(8, ArrayArg::zeros(ElemTy::Float, &[8]));
        let ones = args(8, ArrayArg::float(&[8], vec![1.0; 8]));
        let variants = [
            LaunchKey::sampled(&other_source, &ck, &config, &phantom),
            LaunchKey::sampled(&source, &cores, &config, &phantom),
            LaunchKey::sampled(&source, &ck, &wider, &phantom),
            LaunchKey::sampled(&source, &ck, &narrower, &phantom),
            LaunchKey::sampled(
                &source,
                &ck,
                &config,
                &args(16, ArrayArg::phantom(ElemTy::Float, &[8])),
            ),
            LaunchKey::sampled(
                &source,
                &ck,
                &config,
                &args(8, ArrayArg::phantom(ElemTy::Int, &[8])),
            ),
            LaunchKey::sampled(
                &source,
                &ck,
                &config,
                &args(8, ArrayArg::phantom(ElemTy::Float, &[2, 4])),
            ),
            LaunchKey::sampled(&source, &ck, &config, &zeros),
            LaunchKey::sampled(&source, &ck, &config, &ones),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(&key, v, "variant {i}");
        }
        // Contents separate keys, and a real buffer never keys like a
        // phantom one of its size.
        assert_ne!(variants[7], variants[8]);
        assert_ne!(variants[7], key, "real vs phantom");

        // One entry per key, never replaced.
        let entry = table_entry(variants[8].clone());
        assert!(entry.get().is_none());
        entry.get_or_init(|| {
            Ok(KernelStats {
                flops: 1.0,
                ..KernelStats::default()
            })
        });
        let again = table_entry(variants[8].clone());
        assert!(Arc::ptr_eq(&entry, &again));
        assert!(!Arc::ptr_eq(&entry, &table_entry(variants[7].clone())));
    }

    /// What the VM reads of an argument, bit for bit: its kind, a scalar's
    /// bits, an array's dims and a real array's contents.
    fn read(a: &ArgValue) -> (u8, u64, Vec<u64>, Vec<u64>) {
        let arr = match a {
            ArgValue::Int(v) => return (0, *v as u64, vec![], vec![]),
            ArgValue::Float(v) => return (1, v.to_bits(), vec![], vec![]),
            ArgValue::Array(arr) => arr,
        };
        let (kind, contents) = match &arr.data {
            Buffer::F(v) => (2, v.iter().map(|x| x.to_bits()).collect()),
            Buffer::I(v) => (3, v.iter().map(|&x| x as u64).collect()),
            Buffer::PhantomF(_) => (4, vec![]),
            Buffer::PhantomI(_) => (5, vec![]),
        };
        (kind, 0, arr.dims.to_vec(), contents)
    }

    /// One argument: `(kind, values, rank, dims)`; a real array's element
    /// `i` is drawn by `values[i]`. Scalars and elements come from small
    /// alphabets, so that lists often share a signature: `0` and `0.0`,
    /// and `i64::MIN` and `-0.0`, share their bits, and the two NaNs
    /// differ only in payload.
    fn arg((kind, values, rank, dims): (usize, Vec<usize>, usize, Vec<u64>)) -> ArgValue {
        let nan = f64::NAN;
        let floats = [0.0, -0.0, nan, f64::from_bits(nan.to_bits() | 1), 1.0];
        let ints = [0, 1, -1, i64::MIN];
        let dims = &dims[..rank];
        let values = &values[..dims.iter().product::<u64>() as usize];
        let real_f = values.iter().map(|&v| floats[v % 5]).collect();
        let real_i = values.iter().map(|&v| ints[v % 4]).collect();
        match kind {
            0 => ArgValue::Int(ints[values[0] % 4]),
            1 => ArgValue::Float(floats[values[0] % 5]),
            2 => ArgValue::Array(ArrayArg::float(dims, real_f)),
            3 => ArgValue::Array(ArrayArg::int(dims, real_i)),
            4 => ArgValue::Array(ArrayArg::phantom(ElemTy::Float, dims)),
            _ => ArgValue::Array(ArrayArg::phantom(ElemTy::Int, dims)),
        }
    }

    /// Input to [`arg`], with values enough for 2 x 2 x 2 elements.
    fn raw_arg() -> impl Strategy<Value = (usize, Vec<usize>, usize, Vec<u64>)> {
        let values = collection::vec(0..5usize, 8..9);
        (0..6usize, values, 0..4usize, collection::vec(1..3u64, 3..4))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn the_signature_is_every_bit_the_vm_reads(
            raw in collection::vec(raw_arg(), 0..5),
            at in 0..6usize,
            other in raw_arg(),
            unrelated in collection::vec(raw_arg(), 0..5),
            cut in 1..4usize,
            extra in 0..3u64,
        ) {
            let args = |raw: &[_]| raw.iter().cloned().map(arg).collect::<Vec<_>>();
            // `raw` with one argument's scalar or contents redrawn (same
            // kind and size), or with one argument redrawn.
            let mut near = [raw.clone(), raw.clone()];
            if at < raw.len() {
                near[0][at].1 = other.1.clone();
                near[1][at] = other;
            }
            let a = args(&raw);
            let sig = arg_signature(&a);
            prop_assert!(arg_signature_matches(&a, &sig));
            for x in [&near[0], &near[1], &unrelated].map(|raw| args(raw)) {
                prop_assert_eq!(arg_signature_matches(&x, &sig), arg_signature(&x) == sig);
                prop_assert_eq!(arg_signature(&x) == sig, x.iter().map(read).eq(a.iter().map(read)));
            }
            // Truncated and extended signatures never match.
            let short = &sig[..sig.len().saturating_sub(cut)];
            prop_assert_eq!(arg_signature_matches(&a, short), short.len() == sig.len());
            prop_assert!(!arg_signature_matches(&a, &[&sig[..], &[extra]].concat()));
        }
    }

    #[test]
    fn contents_cover_real_arrays_only_and_match_in_place() {
        let args = vec![
            ArgValue::Int(3),
            ArgValue::Array(ArrayArg::float(&[2], vec![0.5, -0.0])),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[4])),
            ArgValue::Array(ArrayArg::int(&[1], vec![-1])),
        ];
        // An array's head word: buffer kind, rank 1.
        let head = |kind: u64| kind | 1 << 8;
        let sig = arg_signature(&args);
        assert_eq!(
            sig,
            [
                0,
                3,
                head(2),
                2,
                0.5f64.to_bits(),
                (-0.0f64).to_bits(),
                head(4),
                4,
                head(3),
                1,
                u64::MAX,
            ]
        );
        assert!(arg_signature_matches(&args, &sig));
        // One changed word, a missing word or an extra word is a mismatch.
        let mut changed = sig.clone();
        changed[5] = 0.0f64.to_bits();
        assert!(!arg_signature_matches(&args, &changed));
        assert!(!arg_signature_matches(&args, &sig[..sig.len() - 1]));
        assert!(!arg_signature_matches(&args, &[&sig[..], &[0]].concat()));
        // A phantom array is its head and dims alone.
        assert!(arg_signature_matches(&args[2..3], &[head(4), 4]));
    }

    #[test]
    fn exec_options_carry_geometry() {
        let h = standard_hierarchy();
        let ck = compile(TILED, &h).unwrap();
        let cfg = LaunchConfig::for_device(&ck, &h, DeviceKind::Gtx480.level(&h));
        let full = cfg.exec_full();
        assert_eq!(full.group_size, 128);
        assert_eq!(full.simd_width, 32);
        assert!(!full.sampled);
        let sampled = cfg.exec_sampled();
        assert!(sampled.sampled);
        assert_eq!((sampled.group_size, sampled.simd_width), (128, 32));
    }
}
