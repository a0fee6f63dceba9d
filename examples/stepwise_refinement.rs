//! Stepwise refinement for performance — the MCL methodology (paper
//! Sec. II-B) on the Fig. 3 matmul kernel.
//!
//! ```text
//! cargo run --release --example stepwise_refinement
//! ```
//!
//! 1. Compile the kernel at level `perfect`: the compiler has little
//!    hardware knowledge, so there is almost no feedback.
//! 2. Translate it (unoptimized) to level `gpu` and measure: now the
//!    analyzer knows about memory transactions and local memory, and
//!    reports the hazards.
//! 3. Apply what the feedback asks for (the tiled kernel): the feedback
//!    disappears and the modelled kernel time drops.
//! 4. Show the generated OpenCL and per-device launch geometry.

#![forbid(unsafe_code)]

use cashmere_apps::matmul::{KERNEL_GPU, KERNEL_PERFECT};
use cashmere_devsim::SimDevice;
use cashmere_hwdesc::{standard_hierarchy, DeviceKind};
use cashmere_mcl::analyze::analyze;
use cashmere_mcl::codegen::generate_opencl;
use cashmere_mcl::cost::estimate_time;
use cashmere_mcl::launch::LaunchConfig;
use cashmere_mcl::translate::translate_to;
use cashmere_mcl::value::{ArgValue, ArrayArg};
use cashmere_mcl::{compile, CheckedKernel, ElemTy};

fn measure(
    h: &cashmere_hwdesc::Hierarchy,
    ck: &CheckedKernel,
    dev: &SimDevice,
) -> (f64, Vec<String>) {
    let (n, m, p) = (64i64, 8192i64, 256i64);
    let args = vec![
        ArgValue::Int(n),
        ArgValue::Int(m),
        ArgValue::Int(p),
        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n as u64, m as u64])),
        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n as u64, p as u64])),
        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[p as u64, m as u64])),
    ];
    let cfg = LaunchConfig::for_device(ck, h, dev.level);
    let run = cashmere_mcl::execute(ck, args, &cfg.exec_sampled()).expect("kernel runs");
    let cost = estimate_time(&run.stats, &dev.params, cfg.class);
    let feedback = analyze(ck, h, &run.stats, cfg.class)
        .into_iter()
        .map(|f| f.to_string())
        .collect();
    let gflops = 2.0 * (n * m * p) as f64 / cost.total_s / 1e9;
    (gflops, feedback)
}

fn main() {
    let h = standard_hierarchy();
    let gtx480 = SimDevice::by_name(&h, "gtx480").expect("device exists");

    println!("== step 1: the Fig. 3 kernel at level `perfect` ==\n");
    let perfect = compile(KERNEL_PERFECT, &h).expect("perfect kernel compiles");
    let (g0, fb0) = measure(&h, &perfect, &gtx480);
    println!("modelled on a GTX480: {g0:.0} GFLOPS");
    if fb0.is_empty() {
        println!("feedback: none — `perfect` has idealized memory, nothing to report\n");
    } else {
        for f in &fb0 {
            println!("feedback: {f}");
        }
        println!();
    }

    println!("== step 2: translate (without optimizing) to level `gpu` ==\n");
    let translated = translate_to(&perfect, &h, "gpu").expect("translation succeeds");
    let (g1, fb1) = measure(&h, &translated, &gtx480);
    println!("modelled on a GTX480: {g1:.0} GFLOPS");
    println!("now the compiler knows the memory system and reports:");
    for f in &fb1 {
        println!("  - {f}");
    }
    println!();

    println!("== step 3: apply the feedback (tiled gpu kernel) ==\n");
    let tiled = compile(KERNEL_GPU, &h).expect("tiled kernel compiles");
    let (g2, fb2) = measure(&h, &tiled, &gtx480);
    println!(
        "modelled on a GTX480: {g2:.0} GFLOPS ({:.1}x the perfect version)",
        g2 / g0
    );
    if fb2.is_empty() {
        println!("feedback: none — refinement at this level is done\n");
    } else {
        for f in &fb2 {
            println!("remaining: {f}");
        }
        println!();
    }

    println!("== step 4: per-device launch geometry and OpenCL ==\n");
    for d in [DeviceKind::Gtx480, DeviceKind::Hd7970, DeviceKind::XeonPhi] {
        let cfg = LaunchConfig::for_device(&tiled, &h, d.level(&h));
        println!(
            "{:<16} group_size={:<4} warp={:<3} class={:?}",
            d.display_name(),
            cfg.group_size,
            cfg.warp_width,
            cfg.class
        );
    }
    println!("\ngenerated OpenCL for the tiled kernel:\n");
    println!("{}", generate_opencl(&tiled));
}
