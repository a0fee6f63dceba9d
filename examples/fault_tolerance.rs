//! Fault tolerance, three ways:
//!
//! 1. Satin "recovers from nodes that are no longer responding" (paper
//!    Sec. II-A): a node is crashed in the middle of an n-body step; the
//!    lost subtrees are re-executed on the surviving nodes and the result
//!    is still exactly right.
//! 2. A node's only GPU dies mid-run: the Cashmere runtime drains the
//!    device and degrades that node's device jobs to the `leafCPU`
//!    fallback (the paper's try/catch pattern) — the answer survives.
//! 3. Lossy links: steal messages are dropped and delayed; timed-out
//!    steals retry with backoff, lost result returns are retransmitted,
//!    and the computation still completes exactly.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

#![forbid(unsafe_code)]

use cashmere::{build_cluster, ClusterSpec, RuntimeConfig};
use cashmere_apps::kmeans::{run_iterations, KmeansApp, KmeansProblem};
use cashmere_apps::nbody::{NbodyApp, NbodyProblem};
use cashmere_apps::KernelSet;
use cashmere_des::fault::{DeviceFailure, FaultPlan, LinkFault};
use cashmere_des::SimTime;
use cashmere_satin::{ClusterSim, Counter, CpuLeafRuntime, SimConfig};

/// Build the example's 4-node n-body cluster plus the reference positions
/// to verify against.
fn nbody_cluster(
    faults: FaultPlan,
) -> (ClusterSim<NbodyApp, CpuLeafRuntime>, NbodyProblem, Vec<f64>) {
    let problem = NbodyProblem {
        n: 4_000,
        iterations: 1,
        dt: 0.01,
    };
    let app = NbodyApp::real(problem, 125, 1, 11);
    let (ref_pos, _) = app
        .state
        .read()
        .unwrap()
        .reference_step(0, problem.n, problem.dt);
    let cluster = ClusterSim::new(
        app,
        CpuLeafRuntime,
        SimConfig {
            nodes: 4,
            seed: 3,
            faults,
            ..SimConfig::default()
        },
    );
    (cluster, problem, ref_pos)
}

fn max_error(segs: &[cashmere_apps::nbody::NbSeg], ref_pos: &[f64]) -> f64 {
    let mut got = Vec::new();
    for s in segs {
        got.extend_from_slice(s.pos.as_ref().expect("real mode"));
    }
    got.iter()
        .zip(ref_pos)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
}

/// Demo 1: a whole node dies; its subtrees are re-executed.
fn node_crash_demo() {
    let (mut cluster, problem, ref_pos) = nbody_cluster(FaultPlan::none());
    cluster
        .schedule_crash(2, SimTime::from_millis(2))
        .expect("valid crash request");

    let segs = cluster.run_root((0, problem.n));
    let max_err = max_error(&segs, &ref_pos);

    let r = cluster.report();
    println!(
        "n-body step for {} bodies on 4 nodes, node 2 crashed at 2ms:",
        problem.n
    );
    println!("  crashes observed     : {}", r[Counter::Crashes]);
    println!("  jobs re-executed     : {}", r[Counter::JobsRestarted]);
    println!(
        "  leaves run (total)   : {} (32 needed)",
        r[Counter::Leaves]
    );
    println!("  recovery time cost   : {}", r.time(Counter::RecoveryTime));
    println!("  virtual makespan     : {}", r.makespan);
    println!("  max abs error vs ref : {max_err:.2e}");
    assert_eq!(r[Counter::Crashes], 1);
    assert!(
        r[Counter::JobsRestarted] > 0,
        "the crash must have cost something"
    );
    assert!(max_err < 1e-9, "results identical despite the failure");
    println!("ok — the computation survived the node failure\n");
}

/// Demo 2: a node's only GPU fails; its jobs degrade to `leafCPU`.
fn device_death_demo() {
    let problem = KmeansProblem {
        n: 2_000_000,
        k: 256,
        d: 4,
        iterations: 2,
    };
    let app = KmeansApp::phantom(problem, 100_000, 8);
    let centroids = app.centroids.clone();
    let registry = KmeansApp::registry(KernelSet::Optimized);
    let spec = ClusterSpec::homogeneous(2, "gtx480");
    let faults = FaultPlan {
        device_failures: vec![DeviceFailure {
            node: 1,
            device: 0,
            at: SimTime::from_micros(100),
        }],
        ..FaultPlan::default()
    };
    let mut cluster = build_cluster(
        app,
        registry,
        &spec,
        SimConfig {
            faults,
            ..SimConfig::default()
        },
        RuntimeConfig::default(),
    )
    .expect("cluster builds");

    let (_, elapsed) = run_iterations(&mut cluster, &problem, &centroids, false);
    let r = cluster.report();
    println!("k-means on 2 GTX480 nodes, node 1's GPU dies at 100µs:");
    println!("{}", r.failure_summary());
    println!("  virtual time: {elapsed}");
    assert_eq!(r[Counter::DevicesLost], 1);
    assert!(
        r[Counter::FaultCpuFallbacks] > 0,
        "node 1's jobs must have degraded to the CPU leaf"
    );
    let rt = cluster.leaf_runtime();
    assert!(rt.nodes[1].balancer.is_retired(0));
    println!("ok — the node degraded to leafCPU and kept contributing\n");
}

/// Demo 3: lossy links; steals time out and retry, results retransmit.
fn lossy_link_demo() {
    let faults = FaultPlan {
        link_faults: vec![LinkFault {
            src: None,
            dst: None,
            from: SimTime::ZERO,
            until: SimTime::from_millis(20),
            loss: 0.5,
            spike: SimTime::from_micros(300),
            spike_probability: 0.25,
        }],
        ..FaultPlan::default()
    };
    let (mut cluster, problem, ref_pos) = nbody_cluster(faults);
    let segs = cluster.run_root((0, problem.n));
    let max_err = max_error(&segs, &ref_pos);

    let r = cluster.report();
    println!("the same n-body step with every link 50% lossy for 20ms:");
    println!("{}", r.failure_summary());
    println!("  virtual makespan     : {}", r.makespan);
    println!("  max abs error vs ref : {max_err:.2e}");
    assert!(
        r[Counter::MessagesLost] > 0,
        "the lossy window must have dropped something"
    );
    assert!(
        max_err < 1e-9,
        "results identical despite the lossy network"
    );
    println!("ok — timeouts, backoff and retransmits rode out the bad network");
}

fn main() {
    node_crash_demo();
    device_death_demo();
    lossy_link_demo();
}
