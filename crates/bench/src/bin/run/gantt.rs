//! Figs. 16/17: Gantt charts of a heterogeneous K-means run.
//!
//! Fig. 16 is the zoomed-in view of two nodes — one with a GTX480, one
//! with a Xeon Phi *and* a K20 — showing kernel executions (wide bars)
//! overlapped with transfers and CPU tasks, and the load balancer placing
//! 7 jobs on the K20 for every 1 on the Phi. Fig. 17 is the zoomed-out
//! whole-run view with only the kernel executions.
//!
//! The run is one [`Scenario`] with in-memory capture forced on: the Gantt
//! renderer reads the span trace. `--trace out.json` also writes the run
//! as a Chrome trace-event file plus its balancer audit log, then re-parses
//! the file to validate it. `--small` shrinks the problem for CI and writes
//! its CSV to `fig16_17_gantt.small.csv`, leaving the committed full-run
//! artifact alone.

use cashmere::ClusterSpec;
use cashmere_bench::{
    cli, labeled_path, report_run, write_file, AppId, CommonArgs, Problem, Scenario, ScenarioRun,
    Series,
};
use cashmere_des::trace::SpanKind;
use cashmere_des::{ChromeTrace, SimTime};

/// Name of the `--small` scenario.
const SMALL: &str = "gantt-kmeans-small";

/// The Fig. 16/17 scenario: the two nodes of the paper's figure plus two
/// more GTX480 nodes for realistic stealing traffic. `small` keeps the
/// cluster shape (so the trace still shows all node and device lanes plus
/// steals) at a fraction of the points.
fn gantt_scenario(small: bool) -> Scenario {
    let spec = ClusterSpec {
        node_devices: vec![
            vec!["gtx480".to_string()],
            vec!["k20".to_string(), "xeon_phi".to_string()],
            vec!["gtx480".to_string()],
            vec!["gtx480".to_string()],
        ],
    };
    let (problem, grain, name) = if small {
        (
            Problem::Kmeans {
                n: 4_000_000,
                k: 1024,
                d: 4,
                iterations: 2,
            },
            250_000,
            SMALL,
        )
    } else {
        (
            Problem::Kmeans {
                n: 16_000_000,
                k: 4096,
                d: 4,
                iterations: 3,
            },
            500_000,
            "gantt-kmeans",
        )
    };
    Scenario::new(name, AppId::Kmeans, Series::CashmereOpt, &spec)
        .with_problem(problem)
        .with_grain(grain)
        .with_capture(true)
}

pub fn scenarios(common: &CommonArgs, args: &[String]) -> Vec<Scenario> {
    let small = args.iter().any(|a| a == "--small");
    vec![cli::apply_overrides(gantt_scenario(small), common)]
}

pub fn report(scenarios: &[Scenario], runs: &[ScenarioRun]) {
    let (sc, run) = (&scenarios[0], &runs[0]);
    let cap = run.cap.as_ref().expect("gantt scenario always captures");
    let iterations = match sc.problem {
        Problem::Kmeans { iterations, .. } => iterations,
        _ => 0,
    };
    println!(
        "heterogeneous k-means: {} nodes, {} iterations, {:.3}s virtual time\n",
        sc.nodes.len(),
        iterations,
        run.outcome.makespan_s
    );

    let trace = &cap.trace;

    // Fig. 16: zoom into the first ~1/6 of the run — all activity kinds.
    let horizon = cap.horizon;
    let window = (SimTime::ZERO, SimTime::from_nanos(horizon.as_nanos() / 6));
    println!("Fig. 16 (zoomed view, first sixth of the run, all activities):\n");
    println!("{}", trace.gantt(Some(window), None).render_ascii(100));

    // Fig. 17: the whole run, kernel executions only.
    println!("Fig. 17 (whole run, kernel executions only):\n");
    println!(
        "{}",
        trace
            .gantt(None, Some(&[SpanKind::Kernel]))
            .render_ascii(100)
    );

    // The load-balancer observation from the paper's Fig. 16 discussion,
    // counted from the audit log (every placement is one audit entry).
    let placed = |device: usize| {
        cap.audit
            .iter()
            .filter(|e| e.node == 1 && e.chosen == Some(device))
            .count()
    };
    println!(
        "device jobs on node 1: K20 = {}, Xeon Phi = {} (paper: \"schedules 1 job\n\
         on the Xeon Phi and 7 on the K20 which is the fastest configuration\")\n",
        placed(0),
        placed(1)
    );

    // Observability exports: Chrome trace + audit log, critical path.
    report_run(&sc.outputs, "", cap);
    if let Some(path) = &sc.outputs.trace {
        // Round-trip the written file so CI (and users) know the export is
        // valid Chrome trace JSON before feeding it to Perfetto.
        let text = std::fs::read_to_string(path).expect("trace file just written");
        match serde_json::from_str::<ChromeTrace>(&text) {
            Ok(ct) => println!(
                "chrome trace OK: {} lanes, {} steal flows, {} events",
                ct.lane_count(),
                ct.flow_count("steal"),
                ct.traceEvents.len()
            ),
            Err(e) => {
                eprintln!("chrome trace INVALID: {e}");
                std::process::exit(1);
            }
        }
    }

    // CSV export next to the JSON outputs; the small run's goes to a
    // sibling so it never overwrites the committed artifact.
    let csv = match sc.name.as_str() {
        SMALL => labeled_path("fig16_17_gantt.csv", "small"),
        _ => "fig16_17_gantt.csv".to_string(),
    };
    write_file(cli::out_path(&csv), &trace.to_csv());
}
