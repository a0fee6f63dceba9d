//! Cross-crate integration tests: the full pipeline — MCPL source →
//! registry → simulated heterogeneous cluster → verified results —
//! exercised end to end, plus determinism guarantees across the stack.

use cashmere::{build_cluster, initialize, ClusterSpec, KernelRegistry, RuntimeConfig};
use cashmere_apps::kmeans::{KmeansApp, KmeansProblem};
use cashmere_apps::matmul::{MatmulApp, MatmulProblem};
use cashmere_apps::nbody::{NbodyApp, NbodyProblem};
use cashmere_apps::raytracer::{RaytracerApp, RaytracerProblem};
use cashmere_apps::{AppMode, KernelSet};
use cashmere_netsim::NetConfig;
use cashmere_satin::{Counter, SimConfig};

fn functional() -> RuntimeConfig {
    RuntimeConfig {
        functional: true,
        ..RuntimeConfig::default()
    }
}

/// A mixed cluster exercising every device class at once.
fn mixed_spec() -> ClusterSpec {
    ClusterSpec {
        node_devices: vec![
            vec!["gtx480".to_string()],
            vec!["k20".to_string(), "xeon_phi".to_string()],
            vec!["hd7970".to_string()],
            vec!["titan".to_string()],
        ],
    }
}

#[test]
fn all_four_apps_compile_for_all_devices() {
    let specs = [
        ClusterSpec::paper_hetero_nbody(),
        ClusterSpec::homogeneous(2, "gtx480"),
    ];
    let registries = [
        MatmulApp::registry(KernelSet::Optimized),
        KmeansApp::registry(KernelSet::Optimized),
        NbodyApp::registry(KernelSet::Optimized),
        RaytracerApp::registry(KernelSet::Optimized),
    ];
    for reg in &registries {
        for spec in &specs {
            let rep = initialize(reg, spec, &NetConfig::qdr_infiniband());
            assert!(
                rep.suggestions.is_empty(),
                "uncovered devices: {:?}",
                rep.suggestions
            );
            assert!(rep.kernels_compiled > 0);
        }
    }
}

#[test]
fn matmul_on_mixed_cluster_matches_reference() {
    let pr = MatmulProblem {
        n: 96,
        m: 40,
        p: 56,
    };
    let app = MatmulApp::real(pr, 24, 4, 123);
    let root = app.row_job(0, pr.n);
    let reference = app.data_ref().unwrap().reference_rows(&pr, 0, pr.n);
    let mut cluster = build_cluster(
        app,
        MatmulApp::registry(KernelSet::Optimized),
        &mixed_spec(),
        SimConfig::default(),
        functional(),
    )
    .unwrap();
    let segs = cluster.run_root(root);
    let got = cashmere_apps::matmul::assemble(&segs, pr.n, pr.m);
    assert_eq!(got.len(), reference.len());
    for (g, r) in got.iter().zip(&reference) {
        assert!((g - r).abs() < 1e-3, "{g} vs {r}");
    }
}

#[test]
fn kmeans_iterations_on_mixed_cluster_match_cpu() {
    let pr = KmeansProblem {
        n: 4000,
        k: 12,
        d: 4,
        iterations: 2,
    };
    // CPU-only reference evolution.
    let ref_app = KmeansApp::real(pr, 4000, 1, 77);
    for _ in 0..pr.iterations {
        let out = ref_app.cpu_assign(0, pr.n);
        ref_app.update_centroids(&out);
    }
    let ref_cent = ref_app.centroids.read().unwrap().clone();

    // Cluster evolution on mixed devices.
    let app = KmeansApp::real(pr, 1000, 4, 77);
    let cents = app.centroids.clone();
    let mut cluster = build_cluster(
        app,
        KmeansApp::registry(KernelSet::Optimized),
        &mixed_spec(),
        SimConfig::default(),
        functional(),
    )
    .unwrap();
    let (_, elapsed) = cashmere_apps::kmeans::run_iterations(&mut cluster, &pr, &cents, true);
    assert!(elapsed > cashmere_des::SimTime::ZERO);
    let got = cents.read().unwrap().clone();
    assert_eq!(got.len(), ref_cent.len());
    for (g, r) in got.iter().zip(&ref_cent) {
        assert!((g - r).abs() < 1e-3, "{g} vs {r}");
    }
}

#[test]
fn raytracer_deterministic_across_cluster_shapes() {
    // The same image must come out regardless of how the work is split
    // across nodes and devices.
    let pr = RaytracerProblem {
        width: 24,
        height: 16,
        samples: 4,
        seed: 5,
    };
    let render = |spec: &ClusterSpec, grain: u64| -> Vec<f64> {
        let app = RaytracerApp::new(pr, AppMode::Real, grain, 2);
        let mut cluster = build_cluster(
            app,
            RaytracerApp::registry(KernelSet::Unoptimized),
            spec,
            SimConfig::default(),
            functional(),
        )
        .unwrap();
        let segs = cluster.run_root((0, pr.pixels()));
        let mut out = Vec::new();
        for s in &segs {
            out.extend_from_slice(s.rgb.as_ref().unwrap());
        }
        out
    };
    let a = render(&ClusterSpec::homogeneous(1, "gtx480"), 512);
    let b = render(&ClusterSpec::homogeneous(3, "k20"), 96);
    assert_eq!(a, b, "work division must not change the image");
}

#[test]
fn nbody_hetero_cluster_matches_reference() {
    let pr = NbodyProblem {
        n: 333,
        iterations: 1,
        dt: 0.01,
    };
    let app = NbodyApp::real(pr, 84, 3, 2);
    let (ref_pos, _) = app.state.read().unwrap().reference_step(0, pr.n, pr.dt);
    let mut cluster = build_cluster(
        app,
        NbodyApp::registry(KernelSet::Optimized),
        &mixed_spec(),
        SimConfig::default(),
        functional(),
    )
    .unwrap();
    let segs = cluster.run_root((0, pr.n));
    let mut got = Vec::new();
    for s in &segs {
        got.extend_from_slice(s.pos.as_ref().unwrap());
    }
    for (g, r) in got.iter().zip(&ref_pos) {
        assert!((g - r).abs() <= 1e-4 * (1.0 + r.abs()), "{g} vs {r}");
    }
}

#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let pr = KmeansProblem {
            n: 2_000_000,
            k: 512,
            d: 4,
            iterations: 1,
        };
        let app = KmeansApp::phantom(pr, 250_000, 8);
        let mut cluster = build_cluster(
            app,
            KmeansApp::registry(KernelSet::Optimized),
            &mixed_spec(),
            SimConfig {
                seed: 9,
                max_concurrent_leaves: 2,
                ..SimConfig::default()
            },
            RuntimeConfig::default(),
        )
        .unwrap();
        let _ = cluster.run_root((0, pr.n));
        (
            cluster.report().makespan,
            cluster.report()[Counter::StealsOk],
            cluster.report()[Counter::KernelsRun],
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn registry_rejects_unknown_kernel_gracefully() {
    let reg = KernelRegistry::new(cashmere_hwdesc::standard_hierarchy());
    let h = reg.hierarchy();
    let dev = h.id("gtx480").unwrap();
    assert!(reg.select("nope", dev).is_none());
    let sugg = reg.coverage_suggestions("nope", &[dev]);
    assert_eq!(sugg.len(), 1);
}
