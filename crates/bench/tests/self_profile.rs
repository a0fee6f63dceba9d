//! Self-profiler contract tests: profiling is observer-pure (reports and
//! artifacts are byte-identical with profiling on or off, at any `--jobs`
//! width) and the aggregated tree is structurally stable (merge order
//! never shows). Plus well-formedness of the collapsed-stack export.

use cashmere::ClusterSpec;
use cashmere_apps::KernelSet;
use cashmere_bench::{
    kernel_gflops, measure_kernel, run_scenario, sweep, AppId, Fig6Launch, Problem, Scenario,
    ScenarioReport, Series,
};
use cashmere_des::fault::{FaultPlan, LinkFault, NodeCrash, NodeJoin};
use cashmere_des::obs::{prof, ProfNode, ProfTree};
use cashmere_des::SimTime;
use cashmere_hwdesc::DeviceKind;
use cashmere_satin::Counter;
use std::sync::Mutex;

/// The profiler's enable flag and absorbed-tree accumulator are process
/// globals; serialize the tests that touch them.
static PROF_LOCK: Mutex<()> = Mutex::new(());

/// A small chaos scenario: crash + rejoin + lossy link, the workload whose
/// recovery machinery exercises the most instrumented paths.
fn chaos(crash_ms: u64) -> Scenario {
    Scenario::new(
        format!("prof-chaos-{crash_ms}"),
        AppId::Kmeans,
        Series::CashmereOpt,
        &ClusterSpec::homogeneous(2, "gtx480"),
    )
    .with_problem(Problem::Kmeans {
        n: 1_000_000,
        k: 256,
        d: 4,
        iterations: 1,
    })
    .with_grain(125_000)
    .with_faults(FaultPlan {
        node_crashes: vec![NodeCrash {
            node: 1,
            at: SimTime::from_millis(crash_ms),
        }],
        node_joins: vec![NodeJoin {
            node: 1,
            at: SimTime::from_millis(crash_ms + 5),
        }],
        link_faults: vec![LinkFault {
            src: None,
            dst: Some(0),
            from: SimTime::from_millis(1),
            until: SimTime::from_millis(crash_ms + 8),
            loss: 0.1,
            spike: SimTime::from_micros(200),
            spike_probability: 0.2,
        }],
        ..FaultPlan::default()
    })
}

fn scenarios() -> Vec<Scenario> {
    vec![chaos(2), chaos(4), chaos(6), chaos(8)]
}

/// Run the chaos sweep at the given jobs width, returning the canonical
/// report bytes per point and the drained profile tree.
fn sweep_reports(jobs: usize) -> (Vec<String>, ProfTree) {
    let reports = sweep(scenarios(), jobs, |sc| {
        ScenarioReport::new(&sc, run_scenario(&sc).outcome).to_canonical_json()
    });
    (reports, prof::take())
}

/// The shape of a tree with the host-dependent numbers erased: the
/// structural identity [`prof::take`]'s name-sort guarantees.
fn skeleton(nodes: &[ProfNode]) -> Vec<(String, Vec<(String, usize)>)> {
    nodes
        .iter()
        .map(|n| {
            (
                n.name.clone(),
                n.children
                    .iter()
                    .map(|c| (c.name.clone(), c.children.len()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn profiling_is_observer_pure_at_any_jobs_width() {
    let _guard = PROF_LOCK.lock().unwrap();
    prof::set_enabled(false);
    let _ = prof::take();

    // Profiling off: the baseline bytes.
    let (off, empty) = sweep_reports(1);
    assert!(empty.is_empty(), "disabled profiler records nothing");
    let (off4, _) = sweep_reports(4);
    assert_eq!(off, off4, "sweep is --jobs independent before profiling");

    // Profiling on, sequential and parallel.
    prof::set_enabled(true);
    let (on1, tree1) = sweep_reports(1);
    prof::set_enabled(true); // re-stamp; take() above drained the state
    let (on4, tree4) = sweep_reports(4);
    prof::set_enabled(false);

    assert_eq!(off, on1, "profiling must not change report bytes (jobs=1)");
    assert_eq!(off, on4, "profiling must not change report bytes (jobs=4)");

    // The instrumented layers actually recorded: event dispatch and the
    // scenario driver at minimum. The unprofiled sweeps above already ran
    // these launches, so the process-wide launch table serves them: the
    // memo frame records and the VM is not entered (see
    // `vm_runs_once_per_distinct_launch_at_any_jobs_width`).
    assert!(!tree1.is_empty() && !tree4.is_empty());
    let names1 = tree1.collapsed("t");
    assert!(names1.contains("scenario::run"), "{names1}");
    assert!(names1.contains("event::"), "{names1}");
    assert!(names1.contains("mcl::memo"), "{names1}");

    // Merge determinism: identical structure regardless of which worker
    // ran which point when (values differ — they are host wall times).
    assert_eq!(
        skeleton(&tree1.roots),
        skeleton(&tree4.roots),
        "aggregated tree structure must not depend on --jobs"
    );
}

/// Visits to frame `name` anywhere in the tree.
fn calls(nodes: &[ProfNode], name: &str) -> u64 {
    nodes
        .iter()
        .map(|n| if n.name == name { n.count } else { 0 } + calls(&n.children, name))
        .sum()
}

#[test]
fn vm_runs_once_per_distinct_launch_at_any_jobs_width() {
    let _guard = PROF_LOCK.lock().unwrap();
    prof::set_enabled(false);
    let _ = prof::take();
    // One problem size per width, used by no other test of this process,
    // so every launch is new to the launch table.
    for (jobs, n) in [(1, 640_000), (4, 720_000)] {
        let points: Vec<Scenario> = (0..4)
            .map(|seed| {
                Scenario::new(
                    format!("vm-once-{jobs}-{seed}"),
                    AppId::Kmeans,
                    Series::CashmereOpt,
                    &ClusterSpec::homogeneous(2, "gtx480"),
                )
                .with_problem(Problem::Kmeans {
                    n,
                    k: 256,
                    d: 4,
                    iterations: 1,
                })
                .with_grain(n / 8)
                .with_seed(seed)
                .with_capture(true)
            })
            .collect();
        prof::set_enabled(true);
        let misses = sweep(points, jobs, |sc| {
            let cap = run_scenario(&sc).cap.expect("capture kept");
            cap.report[Counter::KernelMemoMisses]
        });
        prof::set_enabled(false);
        let executed = calls(&prof::take().roots, "mcl::execute");

        // The points launch the same kernels at the same shapes. Each run
        // still counts its own first sights as misses, but the VM runs once
        // per distinct launch in the process.
        assert!(misses[0] > 0, "jobs={jobs}");
        assert!(
            misses.iter().all(|&m| m == misses[0]),
            "jobs={jobs}: {misses:?}"
        );
        assert_eq!(executed, misses[0], "jobs={jobs}");
    }
}

/// Fig. 6 measurements go through the launch table: each equals the GFLOPS
/// of the same launch run outside it by its prepared kernel, bit for bit,
/// and a repeated measurement is answered without entering the VM.
#[test]
fn fig6_measurements_equal_the_direct_run_and_repeat_from_the_table() {
    let _guard = PROF_LOCK.lock().unwrap();
    prof::set_enabled(false);
    let _ = prof::take();
    for set in [KernelSet::Unoptimized, KernelSet::Optimized] {
        for device in DeviceKind::ALL {
            let what = format!("k-means {set:?} on {}", device.level_name());
            let launch = Fig6Launch::new(AppId::Kmeans, set, device).expect("device instantiates");
            let seconds = launch.direct_seconds().expect("the launch runs");
            let direct = launch.flops / seconds / 1e9;
            let gflops = kernel_gflops(AppId::Kmeans, set, device).expect("measured");
            assert_eq!(gflops.to_bits(), direct.to_bits(), "{what}");

            prof::set_enabled(true);
            let again = measure_kernel(AppId::Kmeans, set, device).expect("measured");
            prof::set_enabled(false);
            let tree = prof::take();
            assert_eq!(again.gflops.to_bits(), gflops.to_bits(), "{what}");
            assert!(!again.interpreted, "{what}: the repeat reports a VM run");
            assert_eq!(calls(&tree.roots, "mcl::memo"), 1, "{what}");
            assert_eq!(
                calls(&tree.roots, "mcl::execute"),
                0,
                "{what}: the VM ran again"
            );
        }
    }
}

#[test]
fn collapsed_stacks_are_well_formed() {
    let _guard = PROF_LOCK.lock().unwrap();
    prof::set_enabled(false);
    let _ = prof::take();
    prof::set_enabled(true);
    let _ = run_scenario(&chaos(3));
    prof::set_enabled(false);
    let tree = prof::take();

    let collapsed = tree.collapsed("selftest");
    assert!(!collapsed.is_empty());
    for line in collapsed.lines() {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("line has no count: {line}"));
        let count: u64 = count
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric count: {line}"));
        assert!(count > 0, "counts are positive: {line}");
        let frames: Vec<&str> = stack.split(';').collect();
        assert!(frames.len() >= 2, "program + at least one frame: {line}");
        assert_eq!(frames[0], "selftest", "consistent root frame: {line}");
        assert!(
            frames.iter().all(|f| !f.is_empty()),
            "no empty frames: {line}"
        );
    }
}
