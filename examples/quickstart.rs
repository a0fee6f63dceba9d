//! Quickstart: multiply two matrices on a simulated two-node GPU cluster.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This shows the whole Cashmere pipeline end to end:
//!
//! 1. write an MCPL kernel (here: the paper's Fig. 3 matmul, plus a tiled
//!    `gpu`-level version) and register it;
//! 2. describe the computation as divide-and-conquer (the `MatmulApp`
//!    splits the result matrix's rows, leaves expand into 8 device jobs);
//! 3. build a simulated cluster and run — kernels really execute through
//!    the MCL interpreter, so the numbers below are the actual product.

#![forbid(unsafe_code)]

use cashmere::{build_cluster, ClusterSpec, RuntimeConfig};
use cashmere_apps::matmul::{assemble, MatmulApp, MatmulProblem};
use cashmere_apps::KernelSet;
use cashmere_satin::{Counter, SimConfig};

fn main() {
    // A small real problem (the paper-scale 32768² run is in the bench
    // harness; it uses shape-only buffers).
    let problem = MatmulProblem {
        n: 128,
        m: 64,
        p: 96,
    };
    let app = MatmulApp::real(problem, 32, 8, 42);

    // CPU reference for verification.
    let data = MatmulApp::real(problem, 32, 8, 42);
    let reference = data
        .data_ref()
        .expect("real mode has data")
        .reference_rows(&problem, 0, problem.n);

    let root = app.row_job(0, problem.n);
    let mut cluster = build_cluster(
        app,
        MatmulApp::registry(KernelSet::Optimized),
        &ClusterSpec::homogeneous(2, "gtx480"),
        // Two management slots per node: surplus node jobs stay stealable,
        // so the second node actually participates.
        SimConfig {
            max_concurrent_leaves: 2,
            ..SimConfig::default()
        },
        RuntimeConfig {
            functional: true,
            ..RuntimeConfig::default()
        },
    )
    .expect("cluster builds");

    let segments = cluster.run_root(root);

    // Assemble and verify.
    let result = assemble(&segments, problem.n, problem.m);
    let max_err = result
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    let report = cluster.report();
    println!(
        "matmul {}x{}x{} on 2 simulated GTX480 nodes",
        problem.n, problem.m, problem.p
    );
    println!("  result matches CPU reference, max abs error = {max_err:.2e}");
    println!("  virtual makespan     : {}", report.makespan);
    println!("  jobs created         : {}", report[Counter::JobsCreated]);
    println!("  device kernels run   : {}", report[Counter::KernelsRun]);
    println!(
        "  work steals          : {} ok / {} attempts",
        report[Counter::StealsOk],
        report[Counter::StealAttempts]
    );
    println!("  network bytes        : {}", report.bytes_total());
    assert!(max_err < 1e-3);
    println!("ok");
}
