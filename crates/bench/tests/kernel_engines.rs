//! The fig6 kernel corpus runs identically on the kernel VM and on the
//! reference tree walker: for every launch (4 apps × 7 devices × 2 kernel
//! sets, prepared exactly as the registry prepares it for a device) both
//! engines yield the same statistics, bit for bit, and the same argument
//! buffers. The VM is run twice, made to split every eligible sampled
//! loop across two threads and made to stay on one, whatever the host's
//! core count; both runs also dispatch the same instructions.
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
use cashmere_mcl::vm::{self, Split, SplitLog};
use cashmere_mcl::{interp, ExecError, ExecResult};

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
                    .unwrap_or_else(|| panic!("{what}: no device or no kernel version"));
                let ck = l.kernel.checked();
                let opts = l.kernel.config().exec_sampled();
                let tree = interp::execute(ck, l.call.args.clone(), &opts);
                let (tree_stats, tree_args) = observed(&what, tree);
                let prog = compile_program(ck);
                let mut dispatches = Vec::new();
                for split in [Split::Always, Split::Never] {
                    let run = vm::execute_with(&prog, l.call.args.clone(), &opts, split, true);
                    let (r, counts, log) = run.unwrap_or_else(|e| panic!("{what}: {e}"));
                    let (vm_stats, vm_args) = observed(&what, Ok(r));
                    assert!(
                        tree_stats == vm_stats,
                        "{what} ({split:?}): stats differ\ntree: {tree_stats}\nvm:   {vm_stats}"
                    );
                    assert!(
                        tree_args == vm_args,
                        "{what} ({split:?}): argument buffers differ"
                    );
                    if split == Split::Never {
                        assert_eq!(log, SplitLog::default(), "{what}: split while told not to");
                    } else {
                        eprintln!("{what}: {log:?}");
                    }
                    dispatches.push(counts);
                }
                assert!(
                    dispatches[0] == dispatches[1],
                    "{what}: dispatch counts differ"
                );
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
/// the multiply of `acc[r] += a * b`). Splitting the sampled outer loop
/// across two threads dispatches the same instructions.
#[test]
#[ignore = "interprets the corpus's largest launch, tens of seconds in a debug build; run with --release -- --ignored"]
fn matmul_mic_dispatch_count_is_pinned() {
    let l = Fig6Launch::new(AppId::Matmul, KernelSet::Optimized, DeviceKind::XeonPhi)
        .expect("the Xeon Phi instantiates and matmul has a mic version");
    let ck = l.kernel.checked();
    let opts = l.kernel.config().exec_sampled();
    let prog = compile_program(ck);
    for split in [Split::Always, Split::Never] {
        let (_, counts, log) = vm::execute_with(&prog, l.call.args.clone(), &opts, split, true)
            .expect("the launch runs");
        assert_eq!(counts.iter().sum::<u64>(), 5_437_994, "{split:?}");
        let merged = u32::from(split == Split::Always);
        assert_eq!(log.merged, merged, "{split:?}: {log:?}");
    }
}
