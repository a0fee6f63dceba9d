//! Heterogeneous execution: K-means on the paper's Table III cluster —
//! ten GTX480s, two C2050s, a GTX680, a Titan, an HD7970, seven K20s and
//! a Xeon Phi sharing a K20 node — with the two-phase device load balancer
//! spreading work across all of them.
//!
//! ```text
//! cargo run --release --example heterogeneous_cluster
//! ```

#![forbid(unsafe_code)]

use cashmere::{build_cluster, initialize, ClusterSpec, RuntimeConfig};
use cashmere_apps::kmeans::{run_iterations, KmeansApp, KmeansProblem};
use cashmere_apps::KernelSet;
use cashmere_netsim::NetConfig;
use cashmere_satin::{Counter, SimConfig};
use std::collections::BTreeMap;

fn main() {
    let spec = ClusterSpec::paper_hetero_kmeans();
    println!(
        "cluster: {} nodes — {:?}",
        spec.nodes(),
        spec.distinct_devices()
    );

    // A scaled-down problem so the example finishes instantly; the paper's
    // full 268M-point run is `cargo run --release -p cashmere-bench --bin run -- hetero`.
    let problem = KmeansProblem {
        n: 50_000_000,
        k: 4096,
        d: 4,
        iterations: 3,
    };
    let app = KmeansApp::phantom(problem, 800_000, 8);
    let centroids = app.centroids.clone();
    let registry = KmeansApp::registry(KernelSet::Optimized);

    // The initialization phase (paper Sec. III-B): the master broadcasts
    // run-time information, every node compiles the most specific kernel
    // version for its devices.
    let init = initialize(&registry, &spec, &NetConfig::qdr_infiniband());
    println!(
        "initialization: {} kernels compiled across the cluster, {} virtual time",
        init.kernels_compiled, init.duration
    );
    assert!(init.suggestions.is_empty(), "{:?}", init.suggestions);

    let mut cluster = build_cluster(
        app,
        registry,
        &spec,
        SimConfig {
            max_concurrent_leaves: 2,
            ..SimConfig::default()
        },
        RuntimeConfig::default(),
    )
    .expect("cluster builds");

    let (_, elapsed) = run_iterations(&mut cluster, &problem, &centroids, false);
    let gflops = problem.total_flops() / elapsed.as_secs_f64() / 1e9;

    println!(
        "\n{} iterations in {elapsed} of virtual time — {gflops:.0} GFLOPS\n",
        problem.iterations
    );

    // Which device kinds did the balancer use, and how much?
    let rt = cluster.leaf_runtime();
    let mut per_kind: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for node in &rt.nodes {
        for dev in &node.devices {
            let e = per_kind.entry(dev.sim.level_name.clone()).or_default();
            e.0 += dev.jobs_run;
            e.1 += dev.sim.exec.busy_total().as_secs_f64();
        }
    }
    println!("device            jobs   kernel-busy");
    for (kind, (jobs, busy)) in &per_kind {
        println!("{kind:<16} {jobs:>5}   {busy:>8.2}s");
    }

    // The paper's Fig. 16 observation: on the K20+Phi node the balancer
    // sends roughly 7 jobs to the K20 for every 1 to the Phi.
    let phi_node = rt
        .nodes
        .iter()
        .find(|n| n.devices.len() == 2)
        .expect("the K20+Phi node exists");
    println!(
        "\nK20+Phi node split: K20 = {} jobs, Xeon Phi = {} jobs",
        phi_node.devices[0].jobs_run, phi_node.devices[1].jobs_run
    );

    let report = cluster.report();
    println!(
        "steals: {}/{} ok, network traffic {:.1} MB",
        report[Counter::StealsOk],
        report[Counter::StealAttempts],
        report.bytes_total() as f64 / 1e6
    );
}
