//! The fig6 kernel corpus runs identically on the kernel VM and on the
//! reference tree walker: for every launch (4 apps × 7 devices × 2 kernel
//! sets, prepared exactly as `SimDevice::run_kernel` prepares it) both
//! engines yield the same statistics, bit for bit, and the same argument
//! buffers.
//!
//! The tree walker makes this slow in a debug build, so the test is
//! ignored by default. Run it with
//!
//! ```text
//! cargo test --release -p cashmere-bench --test kernel_engines -- --ignored
//! ```

use cashmere_apps::KernelSet;
use cashmere_bench::{AppId, Fig6Launch};
use cashmere_hwdesc::DeviceKind;
use cashmere_mcl::compile::compile_program;
use cashmere_mcl::{interp, vm, ExecError, ExecResult};

/// What the two engines are compared on: statistics and argument buffers
/// as `Debug` text, which spells out every `f64` (`-0.0` and NaN included).
fn observed(what: &str, r: Result<ExecResult, ExecError>) -> (String, String) {
    let r = r.unwrap_or_else(|e| panic!("{what}: {e}"));
    (format!("{:?}", r.stats), format!("{:?}", r.args))
}

#[test]
#[ignore = "interprets the whole fig6 corpus on the tree walker, minutes in a debug build; run with --release -- --ignored"]
fn fig6_corpus_is_identical_on_vm_and_tree_walker() {
    let mut launches = 0;
    for app in AppId::ALL {
        for device in DeviceKind::ALL {
            for set in [KernelSet::Unoptimized, KernelSet::Optimized] {
                let what = format!("{} {set:?} on {}", app.name(), device.level_name());
                let l = Fig6Launch::new(app, set, device)
                    .unwrap_or_else(|| panic!("{what}: device does not instantiate"));
                let ck = l
                    .registry
                    .select(l.call.kernel, l.device.level)
                    .unwrap_or_else(|| panic!("{what}: no kernel version"));
                let p = l.device.prepare_launch(&l.hierarchy, ck, l.mode());
                let tree = interp::execute(ck, l.call.args.clone(), &p.par_units, &p.opts);
                let vm = vm::execute(ck, l.call.args.clone(), &p.par_units, &p.opts);
                let (tree_stats, tree_args) = observed(&what, tree);
                let (vm_stats, vm_args) = observed(&what, vm);
                assert!(
                    tree_stats == vm_stats,
                    "{what}: stats differ\ntree: {tree_stats}\nvm:   {vm_stats}"
                );
                assert!(tree_args == vm_args, "{what}: argument buffers differ");
                launches += 1;
            }
        }
    }
    assert_eq!(launches, 4 * 7 * 2);
}

/// The matmul-optimized launch on the Xeon Phi is the corpus's largest.
/// Its VM dispatch count is pinned so that a change to the compiler's
/// fusions shows up as a count, not only as host time (12,457,280
/// dispatches before the fusions, 5,962,282 before `ScratchRmw` took in
/// the multiply of `acc[r] += a * b`).
#[test]
#[ignore = "interprets the corpus's largest launch, tens of seconds in a debug build; run with --release -- --ignored"]
fn matmul_mic_dispatch_count_is_pinned() {
    let l = Fig6Launch::new(AppId::Matmul, KernelSet::Optimized, DeviceKind::XeonPhi)
        .expect("the Xeon Phi instantiates");
    let ck = l
        .registry
        .select(l.call.kernel, l.device.level)
        .expect("matmul has a mic version");
    let p = l.device.prepare_launch(&l.hierarchy, ck, l.mode());
    let prog = compile_program(ck, &p.par_units);
    let (_, counts) =
        vm::execute_counted(&prog, l.call.args.clone(), &p.opts).expect("the launch runs");
    assert_eq!(counts.iter().sum::<u64>(), 5_437_994);
}
