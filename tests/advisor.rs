//! Acceptance tests for the what-if performance advisor: reports must be
//! byte-identical at any worker count, virtually speeding up the dominant
//! device must never slow the simulated run, the OpenMetrics export must
//! parse line-by-line, and Chrome traces must carry utilization counter
//! tracks for exactly the lanes that did work.

use cashmere::{build_cluster, replay_audit, ClusterSpec, RuntimeConfig};
use cashmere_apps::kmeans::{self, KmeansApp, KmeansProblem};
use cashmere_apps::KernelSet;
use cashmere_bench::{advise, ObsCapture, PerturbSet};
use cashmere_des::{ChromeTrace, SimTime};
use cashmere_satin::{Counter, SimConfig};

/// A small deterministic K-means workload (2 M points, 1 iteration) in the
/// shape the advisor driver expects: re-execute with an optional
/// perturbation applied, return the makespan and (when observing) the
/// capture.
fn small_runner(
    spec: &ClusterSpec,
    seed: u64,
) -> impl Fn(Option<&PerturbSet>, bool) -> (f64, Option<ObsCapture>) + Sync + '_ {
    move |perturb, observe| {
        let pr = KmeansProblem {
            n: 2_000_000,
            k: 512,
            d: 4,
            iterations: 1,
        };
        let app = KmeansApp::phantom(pr, 250_000, 8);
        let cents = app.centroids.clone();
        let mut cfg = SimConfig {
            cores_per_node: 8,
            max_concurrent_leaves: 2,
            steal_retry: SimTime::from_micros(50),
            seed,
            trace: observe,
            ..SimConfig::default()
        };
        if let Some(p) = perturb {
            p.apply_sim_config(&mut cfg);
        }
        let mut cluster = build_cluster(
            app,
            KmeansApp::registry(KernelSet::Optimized),
            spec,
            cfg,
            RuntimeConfig::default(),
        )
        .unwrap();
        if let Some(p) = perturb {
            p.apply_runtime(cluster.leaf_runtime_mut());
        }
        let (_, elapsed) = kmeans::run_iterations(&mut cluster, &pr, &cents, false);
        let cap = observe.then(|| ObsCapture::from_record(cluster.into_record(), |rt| rt.audit));
        (elapsed.as_secs_f64(), cap)
    }
}

#[test]
fn advisor_reports_are_byte_identical_across_jobs() {
    let spec = ClusterSpec::homogeneous(2, "gtx480");
    let run_at = |jobs: usize| {
        let run = advise(
            "kmeans 2n",
            42,
            &spec,
            &[],
            &[0.5, 2.0],
            jobs,
            small_runner(&spec, 42),
        )
        .unwrap();
        (serde_json::to_string_pretty(&run.json).unwrap(), run.text)
    };
    let (json1, text1) = run_at(1);
    let (json4, text4) = run_at(4);
    assert_eq!(json1, json4, "JSON report must not depend on --jobs");
    assert_eq!(text1, text4, "text report must not depend on --jobs");
    assert!(text1.contains("what-if ranking"), "{text1}");
    assert!(text1.contains("resource utilization"), "{text1}");
}

#[test]
fn speeding_the_dominant_device_never_slows_the_run() {
    let spec = ClusterSpec::homogeneous(4, "gtx480");
    let what_if = vec![PerturbSet::parse_list("dev:gtx480:2x").unwrap()];
    let run = advise(
        "kmeans 4n",
        42,
        &spec,
        &what_if,
        &[2.0],
        2,
        small_runner(&spec, 42),
    )
    .unwrap();
    assert_eq!(run.json.report.rows.len(), 1);
    let row = &run.json.report.rows[0];
    assert_eq!(row.spec, "dev:gtx480:2x");
    assert!(
        row.delta_ns <= 0,
        "2x on the only device kind must not increase the makespan, delta {} ns",
        row.delta_ns
    );
    // This workload is kernel-dominated: the win must be substantial, not
    // merely non-negative.
    assert!(
        row.speedup > 1.3,
        "expected a real win on a kernel-dominated run, got {:.3}x",
        row.speedup
    );
    // The counterfactual replay covered the audited placements.
    assert!(!run.json.counterfactuals.is_empty());
    assert!(run.json.counterfactuals[0].replayed > 0);
}

/// The counterfactual replays the balancer's own Sec. III-B rule: with
/// every factor 1, the audit log of a run on nodes carrying two device
/// kinds replays every placed decision to the device it went to.
#[test]
fn an_unperturbed_replay_reproduces_every_placement() {
    let spec = ClusterSpec {
        node_devices: vec![vec!["gtx480".to_string(), "k20".to_string()]; 2],
    };
    let cap = small_runner(&spec, 42)(None, true).1.unwrap();
    let placed = cap
        .audit
        .iter()
        .filter(|e| e.policy.name == "scenario" && e.reason == "placed")
        .count();
    assert_eq!(placed as u64, cap.report[Counter::KernelsRun]);
    // Both device kinds take jobs, so the rule chooses between them.
    let took = |d| cap.audit.iter().any(|e| e.chosen == Some(d));
    assert!(took(0) && took(1));
    let same = replay_audit(&cap.audit, |_, _| 1.0);
    assert_eq!(same.decisions, cap.audit.len());
    assert_eq!(same.replayed, placed);
    assert!(same.flips.is_empty(), "{:?}", same.flips);
    // The replay is not blind to the table: a much faster K20 takes jobs
    // the GTX480 got.
    let fast = replay_audit(&cap.audit, |_, d| if d == 1 { 8.0 } else { 1.0 });
    assert!(!fast.flips.is_empty());
    assert!(fast.flips.iter().all(|f| (f.from, f.to) == (0, 1)));
}

#[test]
fn openmetrics_export_parses_line_by_line() {
    let spec = ClusterSpec::homogeneous(2, "gtx480");
    let (_, cap) = small_runner(&spec, 42)(None, true);
    let cap = cap.unwrap();
    let text = cap.metrics.to_openmetrics(cap.horizon);
    assert!(text.ends_with("# EOF\n"), "must end with the EOF marker");
    let mut families = 0;
    let mut samples = 0;
    for line in text.lines() {
        if line == "# EOF" {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap();
            let kind = parts.next().unwrap();
            assert!(name.starts_with("cashmere_"), "family `{name}`");
            assert!(
                ["counter", "gauge", "summary"].contains(&kind),
                "type `{kind}`"
            );
            families += 1;
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        // Sample line: `name{labels} value` or `name value`, value parses
        // as a finite float.
        let (metric, value) = line.rsplit_once(' ').expect(line);
        let v: f64 = value.parse().unwrap_or_else(|_| panic!("value in {line}"));
        assert!(v.is_finite(), "{line}");
        let name = metric.split('{').next().unwrap();
        assert!(
            name.starts_with("cashmere_")
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "metric name `{name}`"
        );
        samples += 1;
    }
    assert!(families > 0, "no metric families:\n{text}");
    assert!(samples >= families, "every family needs samples:\n{text}");
}

#[test]
fn chrome_export_carries_utilization_counter_tracks() {
    let spec = ClusterSpec::homogeneous(2, "gtx480");
    let (_, cap) = small_runner(&spec, 42)(None, true);
    let cap = cap.unwrap();
    let json = cap.trace.to_chrome_json();
    let ct: ChromeTrace = serde_json::from_str(&json).expect("valid Chrome trace JSON");
    let tracks = ct.counter_tracks();
    assert!(!tracks.is_empty(), "expected utilization counter tracks");
    assert!(tracks.iter().all(|t| t.starts_with("util:")), "{tracks:?}");
    // Only lanes that recorded spans get a counter track, and each track
    // ends back at zero occupancy.
    assert!(tracks.len() <= ct.lane_count());
    for t in &tracks {
        let samples = ct.counter_samples(t);
        assert!(!samples.is_empty());
        assert_eq!(samples.last().unwrap().1, 0, "track {t} must end idle");
    }
    // The device exec lanes did work, so their tracks must exist.
    assert!(
        tracks.iter().any(|t| t.contains(".exec")),
        "no exec counter track in {tracks:?}"
    );
}
