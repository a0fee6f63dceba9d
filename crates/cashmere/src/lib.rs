//! # cashmere — heterogeneous many-core cluster computing
//!
//! Reproduction of *Cashmere: Heterogeneous Many-Core Computing*
//! (Hijma, Jacobs, van Nieuwpoort, Bal — IPDPS 2015): the tight integration
//! of **Satin** (divide-and-conquer with cluster-wide random work stealing,
//! [`cashmere_satin`]) and **MCL** (Many-Core Levels kernels with
//! stepwise-refinement optimization, [`cashmere_mcl`]).
//!
//! What this crate adds on top of the two systems — exactly the paper's
//! contributions:
//!
//! * [`registry`] — kernel versions at multiple hardware-description
//!   levels, with automatic most-specific selection per device and the
//!   "add a hardware description" suggestion for uncovered devices;
//! * [`balancer`] — the two-phase device load balancer of Sec. III-B
//!   (static relative-speed table, then measured-time scenario
//!   minimization); it is the one record of which devices have died;
//! * [`runtime`] — the `enableManyCore()` layer: node-level D&C jobs expand
//!   into device jobs with overlapped PCIe transfers and kernel
//!   executions, automatic device-memory management, and the Fig. 4
//!   try/catch → `leafCPU` fallback. A node-level leaf blocks its managing
//!   core until its last device job returns, as `MCL.launch()` blocks;
//!   the Fig. 4 `getKernel`/`createLaunch`/`launch` glue is
//!   [`KernelRegistry`] plus [`KernelCall`];
//! * [`init`] — master/slave initialization with run-time-info broadcast
//!   and per-device kernel compilation;
//! * [`spec`] — cluster compositions, including the paper's Table III
//!   heterogeneous configurations.
//!
//! ```
//! use cashmere::{build_cluster, ClusterSpec, KernelRegistry, RuntimeConfig};
//! use cashmere_hwdesc::standard_hierarchy;
//! use cashmere_satin::SimConfig;
//! # use cashmere_satin::{ClusterApp, DcStep};
//! # use cashmere::{CashmereApp, KernelCall};
//! # use cashmere_mcl::value::{ArgValue, ArrayArg};
//! # use cashmere_des::SimTime;
//! # struct App;
//! # impl ClusterApp for App {
//! #     type Input = (u64, u64); type Output = f64;
//! #     fn step(&self, &(lo, hi): &(u64, u64)) -> DcStep<(u64, u64)> {
//! #         if hi - lo <= 256 { DcStep::Leaf } else {
//! #             let m = lo + (hi - lo) / 2;
//! #             DcStep::Divide(vec![(lo, m), (m, hi)]) } }
//! #     fn leaf_cpu(&self, &(lo, hi): &(u64, u64)) -> (SimTime, f64) {
//! #         (SimTime::from_micros(hi - lo), (lo..hi).map(|v| 2.0 * v as f64).sum())
//! #     }
//! #     fn combine(&self, _i: &(u64, u64), c: Vec<f64>) -> f64 { c.into_iter().sum() }
//! #     fn input_bytes(&self, _i: &(u64, u64)) -> u64 { 16 }
//! #     fn output_bytes(&self, _o: &f64) -> u64 { 8 }
//! # }
//! # impl CashmereApp for App {
//! #     fn device_jobs(&self, i: &(u64, u64)) -> Vec<(u64, u64)> { vec![*i] }
//! #     fn kernel_call(&self, &(lo, hi): &(u64, u64)) -> KernelCall {
//! #         let n = hi - lo;
//! #         let y: Vec<f64> = (lo..hi).map(|v| v as f64).collect();
//! #         KernelCall::from_args("double_all", vec![
//! #             ArgValue::Int(n as i64),
//! #             ArgValue::Array(ArrayArg::float(&[n], y)),
//! #         ], &[1])
//! #     }
//! #     fn job_output(&self, _i: &(u64, u64), args: Vec<ArgValue>) -> f64 {
//! #         args[1].clone().array().as_f64().iter().sum()
//! #     }
//! # }
//!
//! let mut registry = KernelRegistry::new(standard_hierarchy());
//! registry.register(
//!     "perfect void double_all(int n, float[n] y) {
//!        foreach (int i in n threads) { y[i] = y[i] * 2.0; }
//!      }",
//! ).unwrap();
//!
//! let spec = ClusterSpec::homogeneous(2, "gtx480");
//! let mut cluster = build_cluster(
//!     App,
//!     registry,
//!     &spec,
//!     SimConfig::default(),
//!     RuntimeConfig { functional: true, ..RuntimeConfig::default() },
//! ).unwrap();
//! let sum = cluster.run_root((0, 1024));
//! assert_eq!(sum, (0..1024u64).map(|v| 2.0 * v as f64).sum::<f64>());
//! ```

#![forbid(unsafe_code)]

pub mod balancer;
pub mod counterfactual;
pub mod init;
pub mod registry;
pub mod runtime;
pub mod spec;

pub use balancer::{Balancer, DeviceEstimate, PolicyDesc};
pub use counterfactual::{replay_audit, CounterfactualReplay, PlacementFlip};
pub use init::{initialize, InitReport};
pub use registry::{arg_shape, KernelRegistry};
pub use runtime::{AuditEntry, CashmereApp, CashmereLeafRuntime, KernelCall, RuntimeConfig};
pub use spec::ClusterSpec;

use cashmere_satin::{ClusterSim, SimConfig};

/// Build a simulated Cashmere cluster: `spec.nodes()` nodes, each carrying
/// the devices the spec names, running `app` with the given kernel
/// registry. `sim_cfg.nodes` is overridden by the spec.
pub fn build_cluster<A: CashmereApp>(
    app: A,
    registry: KernelRegistry,
    spec: &ClusterSpec,
    mut sim_cfg: SimConfig,
    rt_cfg: RuntimeConfig,
) -> Result<ClusterSim<A, CashmereLeafRuntime>, String> {
    sim_cfg.nodes = spec.nodes();
    let leaf = CashmereLeafRuntime::new(registry, &spec.node_devices, rt_cfg)?;
    Ok(ClusterSim::new(app, leaf, sim_cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_des::SimTime;
    use cashmere_hwdesc::standard_hierarchy;
    use cashmere_mcl::value::{ArgValue, ArrayArg};
    use cashmere_satin::{ClusterApp, Counter, DcStep, SimConfig};

    /// Test app: double every element of `0..n`; node-level leaves expand
    /// into 8 device jobs each.
    struct DoubleApp {
        node_grain: u64,
        dev_jobs: u64,
    }

    impl ClusterApp for DoubleApp {
        type Input = (u64, u64);
        type Output = f64;

        fn step(&self, &(lo, hi): &(u64, u64)) -> DcStep<(u64, u64)> {
            if hi - lo <= self.node_grain {
                DcStep::Leaf
            } else {
                let mid = lo + (hi - lo) / 2;
                DcStep::Divide(vec![(lo, mid), (mid, hi)])
            }
        }

        fn leaf_cpu(&self, &(lo, hi): &(u64, u64)) -> (SimTime, f64) {
            (
                SimTime::from_micros(hi - lo),
                (lo..hi).map(|v| 2.0 * v as f64).sum(),
            )
        }

        fn combine(&self, _i: &(u64, u64), c: Vec<f64>) -> f64 {
            c.into_iter().sum()
        }

        fn input_bytes(&self, &(lo, hi): &(u64, u64)) -> u64 {
            (hi - lo) * 4
        }

        fn output_bytes(&self, _o: &f64) -> u64 {
            8
        }
    }

    impl CashmereApp for DoubleApp {
        fn device_jobs(&self, &(lo, hi): &(u64, u64)) -> Vec<(u64, u64)> {
            let step = ((hi - lo) / self.dev_jobs).max(1);
            let mut jobs = Vec::new();
            let mut cur = lo;
            while cur < hi {
                let end = (cur + step).min(hi);
                jobs.push((cur, end));
                cur = end;
            }
            jobs
        }

        fn kernel_call(&self, &(lo, hi): &(u64, u64)) -> KernelCall {
            let n = hi - lo;
            let y: Vec<f64> = (lo..hi).map(|v| v as f64).collect();
            KernelCall::from_args(
                "double_all",
                vec![
                    ArgValue::Int(n as i64),
                    ArgValue::Array(ArrayArg::float(&[n], y)),
                ],
                &[1],
            )
        }

        fn job_output(&self, _i: &(u64, u64), args: Vec<ArgValue>) -> f64 {
            args[1].clone().array().as_f64().iter().sum()
        }
    }

    const PERFECT_DOUBLE: &str = "perfect void double_all(int n, float[n] y) {
  foreach (int i in n threads) { y[i] = y[i] * 2.0; }
}";
    const GPU_DOUBLE: &str = "gpu void double_all(int n, float[n] y) {
  foreach (int b in (n + 255) / 256 blocks) {
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      if (i < n) { y[i] = y[i] * 2.0; }
    }
  }
}";

    fn registry() -> KernelRegistry {
        let mut r = KernelRegistry::new(standard_hierarchy());
        r.register(PERFECT_DOUBLE).unwrap();
        r.register(GPU_DOUBLE).unwrap();
        r
    }

    fn expected(n: u64) -> f64 {
        (0..n).map(|v| 2.0 * v as f64).sum()
    }

    #[test]
    fn functional_run_on_homogeneous_cluster() {
        let app = DoubleApp {
            node_grain: 4096,
            dev_jobs: 8,
        };
        let spec = ClusterSpec::homogeneous(4, "gtx480");
        let mut cluster = build_cluster(
            app,
            registry(),
            &spec,
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let n = 64 * 1024;
        let out = cluster.run_root((0, n));
        assert_eq!(out, expected(n));
        let r = cluster.report();
        // 64k / 4k grain = 16 node leaves × 8 device jobs.
        assert_eq!(r[Counter::KernelsRun], 128);
        assert_eq!(r[Counter::CpuFallbacks], 0);
        assert!(r[Counter::StealsOk] > 0, "work distributed");
    }

    #[test]
    fn heterogeneous_cluster_uses_different_devices() {
        let app = DoubleApp {
            node_grain: 8192,
            dev_jobs: 8,
        };
        let spec = ClusterSpec::paper_hetero_small();
        let mut cluster = build_cluster(
            app,
            registry(),
            &spec,
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        // Enough node leaves (n / node_grain = 256) that every one of the
        // 15 nodes sees work regardless of the steal-victim stream; with
        // fewer leaves the set of winning nodes is seed-sensitive.
        let n = 2 * 1024 * 1024;
        let out = cluster.run_root((0, n));
        assert_eq!(out, expected(n));
        let rt = cluster.leaf_runtime();
        // Several distinct device kinds saw work.
        let mut kinds_used = std::collections::BTreeSet::new();
        for node in &rt.nodes {
            for d in &node.devices {
                if d.jobs_run > 0 {
                    kinds_used.insert(d.sim.level_name.clone());
                }
            }
        }
        assert!(
            kinds_used.len() >= 3,
            "expected ≥3 device kinds used, got {kinds_used:?}"
        );
    }

    #[test]
    fn phi_and_k20_share_a_node_with_balanced_split() {
        // One node with a K20 and a Xeon Phi: the balancer should send most
        // (but not all) jobs to the K20 once times are measured — the
        // paper's Fig. 16 discussion (7 K20 / 1 Phi per set of 8).
        let app = DoubleApp {
            node_grain: 64 * 1024,
            dev_jobs: 8,
        };
        let spec = ClusterSpec {
            node_devices: vec![vec!["k20".to_string(), "xeon_phi".to_string()]],
        };
        let mut cluster = build_cluster(
            app,
            registry(),
            &spec,
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let n = 1024 * 1024; // 16 node leaves × 8 device jobs = 128 jobs
        let out = cluster.run_root((0, n));
        assert_eq!(out, expected(n));
        let rt = cluster.leaf_runtime();
        let k20_jobs = rt.nodes[0].devices[0].jobs_run;
        let phi_jobs = rt.nodes[0].devices[1].jobs_run;
        assert_eq!(k20_jobs + phi_jobs, 128);
        assert!(
            k20_jobs > phi_jobs,
            "K20 ({k20_jobs}) should get more work than the Phi ({phi_jobs})"
        );
    }

    #[test]
    fn cpu_fallback_when_no_kernel_version_applies() {
        let app = DoubleApp {
            node_grain: 4096,
            dev_jobs: 4,
        };
        // Register only an AMD version; the GTX480 cluster cannot run it.
        let mut r = KernelRegistry::new(standard_hierarchy());
        r.register(
            "amd void double_all(int n, float[n] y) {
  foreach (int b in (n + 255) / 256 blocks) {
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      if (i < n) { y[i] = y[i] * 2.0; }
    }
  }
}",
        )
        .unwrap();
        let spec = ClusterSpec::homogeneous(2, "gtx480");
        let mut cluster = build_cluster(
            app,
            r,
            &spec,
            SimConfig::default(),
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let n = 16 * 1024;
        let out = cluster.run_root((0, n));
        assert_eq!(out, expected(n), "leafCPU produced the right answer");
        let r = cluster.report();
        assert_eq!(r[Counter::KernelsRun], 0);
        assert!(r[Counter::CpuFallbacks] > 0);
    }

    #[test]
    fn estimated_mode_caches_stats_per_shape() {
        let app = DoubleApp {
            node_grain: 1 << 20,
            dev_jobs: 8,
        };
        let spec = ClusterSpec::homogeneous(2, "gtx480");
        let mut cluster = build_cluster(
            app,
            registry(),
            &spec,
            SimConfig::default(),
            RuntimeConfig {
                functional: false,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let n = 1 << 24; // 16 node leaves, uniform shapes
        let _ = cluster.run_root((0, n));
        let r = cluster.report();
        assert!(r[Counter::KernelsRun] >= 128);
        // All device jobs share one shape ⇒ one interpreted launch.
        assert_eq!(r[Counter::KernelMemoMisses], 1);
        assert_eq!(
            r[Counter::KernelMemoHits] + r[Counter::KernelMemoMisses],
            r[Counter::KernelsRun]
        );
    }

    #[test]
    fn transfers_overlap_with_kernels() {
        let app = DoubleApp {
            node_grain: 1 << 20,
            dev_jobs: 8,
        };
        let spec = ClusterSpec::homogeneous(1, "gtx480");
        let mut cluster = build_cluster(
            app,
            registry(),
            &spec,
            SimConfig::default(),
            RuntimeConfig::default(),
        )
        .unwrap();
        let n = 1 << 24;
        let _ = cluster.run_root((0, n));
        let rt = cluster.leaf_runtime();
        let dev = &rt.nodes[0].devices[0].sim;
        let serial = dev.h2d.busy_total() + dev.exec.busy_total() + dev.d2h.busy_total();
        let makespan = cluster.report().makespan;
        assert!(
            makespan < serial,
            "copies must overlap with kernels: makespan {makespan} vs serial {serial}"
        );
    }

    #[test]
    fn gpu_death_degrades_to_cpu_and_still_answers() {
        use cashmere_des::fault::{DeviceFailure, FaultPlan};
        let app = DoubleApp {
            node_grain: 4096,
            dev_jobs: 8,
        };
        // Node 1's only GPU dies mid-run: its remaining device jobs must
        // degrade to leafCPU and the cluster still produces the exact sum.
        let faults = FaultPlan {
            device_failures: vec![DeviceFailure {
                node: 1,
                device: 0,
                at: SimTime::from_micros(100),
            }],
            ..FaultPlan::default()
        };
        let spec = ClusterSpec::homogeneous(2, "gtx480");
        let mut cluster = build_cluster(
            app,
            registry(),
            &spec,
            SimConfig {
                faults,
                ..SimConfig::default()
            },
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let n = 64 * 1024;
        let out = cluster.run_root((0, n));
        assert_eq!(out, expected(n), "exact answer despite the dead GPU");
        let r = cluster.report().clone();
        assert_eq!(r[Counter::DevicesLost], 1);
        assert!(r.saw_failures());
        assert!(
            r[Counter::FaultCpuFallbacks] > 0,
            "jobs on node 1 after the death must run leafCPU: {}",
            r.failure_summary()
        );
        let rt = cluster.leaf_runtime();
        assert!(rt.nodes[1].balancer.is_retired(0));
        assert!(r[Counter::CpuFallbacks] >= r[Counter::FaultCpuFallbacks]);
    }

    #[test]
    fn dead_device_stays_retired_across_a_node_rejoin() {
        use cashmere_des::fault::{DeviceFailure, FaultPlan, NodeCrash, NodeJoin};
        let app = DoubleApp {
            node_grain: 4096,
            dev_jobs: 8,
        };
        // Node 1 carries two GPUs. Its device 0 dies; later the whole node
        // crashes and rejoins, and its balancer restarts.
        let death = SimTime::from_micros(400);
        let join = SimTime::from_micros(800);
        let faults = FaultPlan {
            device_failures: vec![DeviceFailure {
                node: 1,
                device: 0,
                at: death,
            }],
            node_crashes: vec![NodeCrash {
                node: 1,
                at: SimTime::from_micros(600),
            }],
            node_joins: vec![NodeJoin { node: 1, at: join }],
            ..FaultPlan::default()
        };
        let spec = ClusterSpec {
            node_devices: vec![
                vec!["gtx480".to_string()],
                vec!["gtx480".to_string(), "gtx480".to_string()],
            ],
        };
        let mut cluster = build_cluster(
            app,
            registry(),
            &spec,
            SimConfig {
                faults,
                trace: true,
                ..SimConfig::default()
            },
            RuntimeConfig {
                functional: true,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let n = 256 * 1024;
        let out = cluster.run_root((0, n));
        assert_eq!(out, expected(n), "exact answer despite the faults");
        let r = cluster.report().clone();
        assert_eq!(r[Counter::DevicesLost], 1);
        assert_eq!(r[Counter::Crashes], 1);
        assert_eq!(r[Counter::Joins], 1);
        let rt = cluster.leaf_runtime();
        assert!(
            rt.nodes[1].balancer.is_retired(0),
            "retired after the rejoin"
        );
        // The dead device ran jobs, each placed before its death...
        let placed_on = |dev: usize| {
            rt.audit
                .iter()
                .filter(move |e| e.node == 1 && e.chosen == Some(dev))
                .map(|e| e.submit_ns)
        };
        let ran = rt.nodes[1].devices[0].jobs_run;
        assert!(ran > 0, "device 0 worked before it died");
        assert_eq!(ran, placed_on(0).count() as u64);
        assert!(placed_on(0).all(|t| t < death.as_nanos()));
        // ...while the surviving GPU took work after the rejoin.
        assert!(placed_on(1).any(|t| t >= join.as_nanos()));
        // A second run on the rebooted node leaves the dead device idle.
        assert_eq!(cluster.run_root((0, n)), expected(n));
        let rt = cluster.leaf_runtime();
        assert!(rt.nodes[1].balancer.is_retired(0));
        assert_eq!(rt.nodes[1].devices[0].jobs_run, ran);
    }

    #[test]
    fn deterministic_heterogeneous_run() {
        let run = || {
            let app = DoubleApp {
                node_grain: 16 * 1024,
                dev_jobs: 8,
            };
            let mut cluster = build_cluster(
                app,
                registry(),
                &ClusterSpec::paper_hetero_small(),
                SimConfig::default(),
                RuntimeConfig::default(),
            )
            .unwrap();
            let _ = cluster.run_root((0, 1 << 22));
            (
                cluster.report().makespan,
                cluster.report()[Counter::KernelsRun],
            )
        };
        assert_eq!(run(), run());
    }
}
