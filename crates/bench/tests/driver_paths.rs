//! Every (application × series) path through `run_scenario`, pinned.
//!
//! Four applications × three series at tiny problem sizes on two nodes,
//! plus matmul under perturbations with a capture and k-means under a
//! fault plan, each on the Satin and a Cashmere path. Each full
//! `RunOutcome` is compared against literal values, so any change to
//! how the driver resolves a problem, builds a cluster, runs a leaf on a
//! CPU or drives an iterative application shows up here as a diff.

use cashmere::ClusterSpec;
use cashmere_bench::{
    run_scenario, AppId, PerturbSet, Problem, RecoverySummary, RunOutcome, Scenario, Series,
};
use cashmere_des::fault::{DeviceFailure, FaultPlan, LinkFault, NodeCrash, NodeJoin};
use cashmere_des::SimTime;
use cashmere_satin::Counter;

/// A tiny problem and node grain per application.
fn tiny(app: AppId) -> (Problem, u64) {
    match app {
        AppId::Raytracer => (
            Problem::Raytracer {
                width: 64,
                height: 32,
                samples: 2,
            },
            256,
        ),
        AppId::Matmul => (
            Problem::Matmul {
                n: 64,
                m: 64,
                p: 64,
            },
            16,
        ),
        AppId::Kmeans => (
            Problem::Kmeans {
                n: 200_000,
                k: 16,
                d: 4,
                iterations: 2,
            },
            25_000,
        ),
        AppId::Nbody => (
            Problem::Nbody {
                bodies: 2_048,
                iterations: 2,
            },
            256,
        ),
    }
}

fn scenario(app: AppId, series: Series) -> Scenario {
    let (problem, grain) = tiny(app);
    Scenario::new(
        format!("driver-{}-{}", app.name(), series.name()),
        app,
        series,
        &ClusterSpec::homogeneous(2, "gtx480"),
    )
    .with_problem(problem)
    .with_grain(grain)
}

/// Node 1 crashes and rejoins, node 0's GPU dies, and links toward the
/// master drop messages for a while.
fn faults() -> FaultPlan {
    FaultPlan {
        node_crashes: vec![NodeCrash {
            node: 1,
            at: SimTime::from_micros(600),
        }],
        node_joins: vec![NodeJoin {
            node: 1,
            at: SimTime::from_micros(1_500),
        }],
        device_failures: vec![DeviceFailure {
            node: 0,
            device: 0,
            at: SimTime::from_micros(900),
        }],
        link_faults: vec![LinkFault {
            src: None,
            dst: Some(0),
            from: SimTime::from_micros(200),
            until: SimTime::from_millis(3),
            loss: 0.2,
            spike: SimTime::from_micros(100),
            spike_probability: 0.2,
        }],
        ..FaultPlan::default()
    }
}

#[allow(clippy::too_many_arguments)]
fn fault_free(
    app: &str,
    series: &str,
    makespan_s: f64,
    gflops: f64,
    kernels_run: u64,
    cpu_fallbacks: u64,
    steals_ok: u64,
    network_bytes: u64,
) -> RunOutcome {
    RunOutcome {
        app: app.to_string(),
        series: series.to_string(),
        nodes: 2,
        makespan_s,
        gflops,
        kernels_run,
        cpu_fallbacks,
        steals_ok,
        network_bytes,
        failure_summary: None,
        recovery: None,
    }
}

#[test]
fn every_app_and_series_reproduces_its_outcome() {
    let expected = [
        fault_free(
            "raytracer",
            "satin",
            0.00084174,
            4.37949960795495,
            0,
            0,
            11,
            18304,
        ),
        fault_free(
            "raytracer",
            "cashmere-unopt",
            0.000785662,
            4.692094055713525,
            64,
            0,
            6,
            15360,
        ),
        fault_free(
            "raytracer",
            "cashmere-opt",
            0.000771472,
            4.778397660576145,
            64,
            0,
            6,
            15360,
        ),
        fault_free(
            "matmul",
            "satin",
            0.00027759800000000005,
            1.8886591401955342,
            0,
            0,
            3,
            21696,
        ),
        fault_free(
            "matmul",
            "cashmere-unopt",
            0.000500268,
            1.048014264354306,
            32,
            0,
            2,
            32896,
        ),
        fault_free(
            "matmul",
            "cashmere-opt",
            0.0005104010000000001,
            1.0272080187930666,
            32,
            0,
            2,
            32896,
        ),
        fault_free(
            "k-means",
            "satin",
            0.002566356,
            29.92570009772611,
            0,
            0,
            16,
            14848,
        ),
        fault_free(
            "k-means",
            "cashmere-unopt",
            0.001463304,
            52.48396778796477,
            128,
            0,
            11,
            5568,
        ),
        fault_free(
            "k-means",
            "cashmere-opt",
            0.001451474,
            52.911729731293846,
            128,
            0,
            11,
            5568,
        ),
        fault_free(
            "n-body",
            "satin",
            0.003167696,
            52.96346619120017,
            0,
            0,
            20,
            167168,
        ),
        fault_free(
            "n-body",
            "cashmere-unopt",
            0.00565933,
            29.64523362306139,
            128,
            0,
            11,
            168640,
        ),
        fault_free(
            "n-body",
            "cashmere-opt",
            0.028824082,
            5.820555187152188,
            128,
            0,
            11,
            168640,
        ),
    ];
    let mut expected = expected.into_iter();
    for app in AppId::ALL {
        for series in Series::ALL {
            let run = run_scenario(&scenario(app, series));
            assert_eq!(run.outcome, expected.next().unwrap());
            assert!(run.cap.is_none(), "nothing observed, nothing captured");
        }
    }
}

/// Perturbations reach the engine on both paths and the device runtime on
/// the Cashmere path; the capture carries the run's report and, for
/// Cashmere, one placement audit entry per device job.
#[test]
fn perturbed_captured_matmul_reproduces_its_outcome() {
    let perturb = PerturbSet::parse_list("dev:*:2x+net:2x").unwrap();
    let expected = [
        (
            fault_free(
                "matmul",
                "satin",
                0.000267246,
                1.9618179505025333,
                0,
                0,
                2,
                20608,
            ),
            0,
            32,
            SimTime::from_nanos(260_036),
            SimTime::from_nanos(267_246),
        ),
        (
            fault_free(
                "matmul",
                "cashmere-opt",
                0.0004941489999999999,
                1.060991725167915,
                32,
                0,
                2,
                32896,
            ),
            32,
            4,
            SimTime::from_nanos(486_939),
            SimTime::from_nanos(494_149),
        ),
    ];
    for (series, (outcome, audit, leaves, makespan, horizon)) in
        [Series::Satin, Series::CashmereOpt]
            .into_iter()
            .zip(expected)
    {
        let sc = scenario(AppId::Matmul, series)
            .with_perturb(perturb.clone())
            .with_capture(true);
        let run = run_scenario(&sc);
        assert_eq!(run.outcome, outcome);
        let cap = run.cap.expect("capture kept");
        assert_eq!(cap.audit.len(), audit);
        assert_eq!(cap.report[Counter::Leaves], leaves);
        assert_eq!(cap.report.makespan, makespan);
        assert_eq!(cap.horizon, horizon);
    }
}

#[test]
fn faulted_kmeans_reproduces_its_outcome() {
    let satin = RunOutcome {
        app: "k-means".to_string(),
        series: "satin".to_string(),
        nodes: 2,
        makespan_s: 0.003527799,
        gflops: 21.769947777636993,
        kernels_run: 0,
        cpu_fallbacks: 0,
        steals_ok: 10,
        network_bytes: 8512,
        failure_summary: Some(
            "failures                    1 crashes, 1 joins, 0 devices lost, 4 jobs re-executed\n\
             orphan results              3 harvested, 3 reused, 0 expired\n\
             device path                 0 launch retries, 0 aborted jobs, 0 CPU fallbacks\n\
             network                     4 messages lost, 4 latency spikes, 0 steal timeouts, 2 retransmits\n\
             recovery virtual-time cost  2.069ms redone work, 734.805µs to recover"
                .to_string(),
        ),
        recovery: Some(RecoverySummary {
            crashes: 1,
            joins: 1,
            jobs_restarted: 4,
            orphans_harvested: 3,
            orphans_reused: 3,
            orphans_expired: 0,
            work_lost_s: 0.00206897,
            time_to_recover_s: 0.000734805,
        }),
    };
    let cashmere = RunOutcome {
        app: "k-means".to_string(),
        series: "cashmere-opt".to_string(),
        nodes: 2,
        makespan_s: 0.003281176,
        gflops: 23.40624215220397,
        kernels_run: 120,
        cpu_fallbacks: 16,
        steals_ok: 12,
        network_bytes: 7104,
        failure_summary: Some(
            "failures                    1 crashes, 1 joins, 1 devices lost, 1 jobs re-executed\n\
             orphan results              0 harvested, 0 reused, 0 expired\n\
             device path                 0 launch retries, 0 aborted jobs, 16 CPU fallbacks\n\
             network                     5 messages lost, 4 latency spikes, 0 steal timeouts, 2 retransmits\n\
             recovery virtual-time cost  190.194µs redone work, 210.194µs to recover"
                .to_string(),
        ),
        recovery: Some(RecoverySummary {
            crashes: 1,
            joins: 1,
            jobs_restarted: 1,
            orphans_harvested: 0,
            orphans_reused: 0,
            orphans_expired: 0,
            work_lost_s: 0.000190194,
            time_to_recover_s: 0.000210194,
        }),
    };
    for (series, expected) in [(Series::Satin, satin), (Series::CashmereOpt, cashmere)] {
        let sc = scenario(AppId::Kmeans, series).with_faults(faults());
        assert_eq!(run_scenario(&sc).outcome, expected);
    }
}

/// A node crash does not hang matmul. Its pre-root broadcast of B advances
/// the clock only to the broadcast's last arrival, so a crash due during
/// or after it fires once, with the root job under way. Makespans are not
/// pinned: they still carry the known fault-timing inflation.
#[test]
fn matmul_finishes_under_an_early_node_crash() {
    let (problem, grain) = tiny(AppId::Matmul);
    for series in [Series::Satin, Series::CashmereOpt] {
        for at_us in [1, 10, 100] {
            let plan = FaultPlan {
                node_crashes: vec![NodeCrash {
                    node: 1,
                    at: SimTime::from_micros(at_us),
                }],
                ..FaultPlan::default()
            };
            let sc = Scenario::new(
                format!("matmul-crash-{}-{at_us}us", series.name()),
                AppId::Matmul,
                series,
                &ClusterSpec::homogeneous(3, "gtx480"),
            )
            .with_problem(problem)
            .with_grain(grain)
            .with_faults(plan)
            .with_capture(true);
            // A hang fails the test instead of stalling the suite.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let cap = run_scenario(&sc).cap.expect("capture kept");
                tx.send(cap.report[Counter::Crashes]).unwrap();
            });
            let crashes = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{} crash at {at_us}µs hangs", series.name()));
            assert_eq!(crashes, 1, "{} crash at {at_us}µs", series.name());
        }
    }
}

/// The memo counters of a captured run: `(hits, misses)`.
fn memo_counts(sc: Scenario) -> (u64, u64) {
    let cap = run_scenario(&sc.with_capture(true))
        .cap
        .expect("capture kept");
    let report = &cap.report;
    (
        report[Counter::KernelMemoHits],
        report[Counter::KernelMemoMisses],
    )
}

/// A run's memo miss is its first sight of a launch: arguments and
/// real-buffer contents under one kernel version and geometry. Pinned on
/// every Cashmere path, and on two nodes that carry different device
/// kinds, where one launch recurs on slots of two nodes: the second slot
/// misses its own cache and the run's memo counts a hit.
#[test]
fn memo_counters_are_pinned_on_every_cashmere_path() {
    let mixed = ClusterSpec {
        node_devices: vec![
            vec!["gtx480".to_string(), "k20".to_string()],
            vec!["k20".to_string(), "hd7970".to_string()],
        ],
    };
    let mut actual = Vec::new();
    for app in AppId::ALL {
        for series in [Series::CashmereUnopt, Series::CashmereOpt] {
            actual.push(memo_counts(scenario(app, series)));
        }
        let (problem, grain) = tiny(app);
        let sc = Scenario::new("driver-mixed", app, Series::CashmereOpt, &mixed);
        actual.push(memo_counts(sc.with_problem(problem).with_grain(grain)));
    }
    // Per application: cashmere-unopt, cashmere-opt, cashmere-opt on the
    // mixed nodes. A node job's device jobs are all of one size, so a
    // path samples one launch per kernel version and geometry. On the
    // mixed nodes the GTX480 and the K20 run the same version at the same
    // geometry and share a launch; the HD7970 adds the second.
    let expected = [
        [(63, 1), (63, 1), (62, 2)],    // raytracer
        [(31, 1), (31, 1), (30, 2)],    // matmul
        [(127, 1), (127, 1), (126, 2)], // k-means
        [(127, 1), (127, 1), (126, 2)], // n-body
    ];
    assert_eq!(actual, expected.concat());
}
