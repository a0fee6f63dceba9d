//! Acceptance tests for the observability subsystem: a seeded
//! heterogeneous K-means run must export a valid Chrome trace with device
//! lanes and steal flow arrows, a balancer audit log that matches actual
//! placement, a critical path that tiles the makespan, and byte-identical
//! exports across identical-seed reruns.

use cashmere::{build_cluster, AuditEntry, ClusterSpec, RuntimeConfig};
use cashmere_apps::kmeans::{self, KmeansApp, KmeansProblem};
use cashmere_apps::KernelSet;
use cashmere_des::obs::CriticalPath;
use cashmere_des::trace::{SpanKind, Trace};
use cashmere_des::{ChromeTrace, SimTime};
use cashmere_satin::SimConfig;
use std::sync::OnceLock;

struct Observed {
    trace: Trace,
    chrome: String,
    audit_json: String,
    audit: Vec<AuditEntry>,
    /// `jobs_run[node][device]` as counted by the device slots.
    jobs_run: Vec<Vec<u64>>,
    horizon: SimTime,
}

/// One traced heterogeneous K-means run (the shape of `run gantt --small`).
fn observed_run(seed: u64) -> Observed {
    let spec = ClusterSpec {
        node_devices: vec![
            vec!["gtx480".to_string()],
            vec!["k20".to_string(), "xeon_phi".to_string()],
            vec!["gtx480".to_string()],
            vec!["gtx480".to_string()],
        ],
    };
    let pr = KmeansProblem {
        n: 4_000_000,
        k: 1024,
        d: 4,
        iterations: 2,
    };
    let app = KmeansApp::phantom(pr, 250_000, 8);
    let cents = app.centroids.clone();
    let cfg = SimConfig {
        cores_per_node: 8,
        max_concurrent_leaves: 2,
        steal_retry: SimTime::from_micros(50),
        seed,
        trace: true,
        ..SimConfig::default()
    };
    let mut cluster = build_cluster(
        app,
        KmeansApp::registry(KernelSet::Optimized),
        &spec,
        cfg,
        RuntimeConfig::default(),
    )
    .unwrap();
    let _ = kmeans::run_iterations(&mut cluster, &pr, &cents, false);
    let rt = cluster.leaf_runtime();
    Observed {
        trace: cluster.trace().clone(),
        chrome: cluster.trace().to_chrome_json(),
        audit_json: serde_json::to_string_pretty(&rt.audit).unwrap(),
        audit: rt.audit.clone(),
        jobs_run: rt
            .nodes
            .iter()
            .map(|n| n.devices.iter().map(|d| d.jobs_run).collect())
            .collect(),
        horizon: cluster.trace().horizon(),
    }
}

fn shared() -> &'static Observed {
    static RUN: OnceLock<Observed> = OnceLock::new();
    RUN.get_or_init(|| observed_run(42))
}

#[test]
fn chrome_export_is_valid_and_has_lanes_and_steal_flows() {
    let o = shared();
    let ct: ChromeTrace = serde_json::from_str(&o.chrome).expect("valid Chrome trace JSON");
    assert_eq!(ct.displayTimeUnit, "ns");
    assert!(
        ct.lane_count() >= 4,
        "expected ≥4 track lanes, got {}",
        ct.lane_count()
    );
    assert!(
        ct.flow_count("steal") >= 1,
        "expected at least one steal flow arrow"
    );
    assert!(!ct.traceEvents.is_empty());
}

#[test]
fn span_tree_is_well_formed_with_full_device_lineage() {
    let o = shared();
    o.trace.check_tree().expect("span tree well-formed");
    let spans = o.trace.spans();
    // At least one kernel span must trace back through its h2d copy to the
    // node-level leaf that submitted it: kernel ← copy ← cpu leaf.
    let lineage_ok = spans.iter().any(|s| {
        if s.kind != SpanKind::Kernel {
            return false;
        }
        let Some(h2d) = s.parent.and_then(|p| o.trace.span(p)) else {
            return false;
        };
        if h2d.kind != SpanKind::CopyToDevice {
            return false;
        }
        matches!(
            h2d.parent.and_then(|p| o.trace.span(p)),
            Some(leaf) if leaf.kind == SpanKind::CpuTask
        )
    });
    assert!(lineage_ok, "no kernel span with full h2d→leaf lineage");
    assert!(spans.iter().any(|s| s.kind == SpanKind::Steal));
    assert!(spans.iter().any(|s| s.kind == SpanKind::CopyFromDevice));
}

#[test]
fn audit_log_matches_actual_placement() {
    let o = shared();
    assert!(!o.audit.is_empty(), "tracing run must record decisions");
    let mut placed = vec![vec![0u64; 2]; o.jobs_run.len()];
    for e in &o.audit {
        match e.chosen {
            Some(d) => {
                assert_eq!(e.reason, "placed", "chosen device implies placement");
                placed[e.node][d] += 1;
            }
            None => assert_ne!(e.reason, "placed"),
        }
        // The audited candidate table must contain the chosen device as an
        // allowed, live candidate with a scenario estimate.
        if let Some(d) = e.chosen {
            let c = &e.candidates[d];
            assert!(c.allowed && !c.dead && c.scenario_s.is_some());
        }
    }
    for (n, devs) in o.jobs_run.iter().enumerate() {
        for (d, &runs) in devs.iter().enumerate() {
            assert_eq!(
                placed[n][d], runs,
                "audit placements for n{n}.dev{d} disagree with jobs_run"
            );
        }
    }
}

#[test]
fn critical_path_tiles_the_makespan() {
    let o = shared();
    let cp = CriticalPath::compute(&o.trace);
    let by_kind_sum: u64 = cp.by_kind.values().map(|t| t.as_nanos()).sum();
    assert_eq!(by_kind_sum, cp.total.as_nanos(), "attribution must tile");
    let horizon = o.horizon.as_nanos() as f64;
    let covered = cp.total.as_nanos() as f64;
    assert!(
        (covered - horizon).abs() <= horizon * 0.01,
        "critical path {covered} vs horizon {horizon} off by more than 1%"
    );
}

#[test]
fn identical_seeds_emit_byte_identical_exports() {
    let a = observed_run(7);
    let b = observed_run(7);
    assert_eq!(a.chrome, b.chrome, "Chrome trace must be deterministic");
    assert_eq!(
        a.audit_json, b.audit_json,
        "audit log must be deterministic"
    );
}
