//! Table III and Fig. 15: heterogeneous executions.
//!
//! Table III reports the absolute GFLOPS of each application on its
//! heterogeneous configuration; Fig. 15 compares the *efficiency* of those
//! runs — measured performance divided by the sum of single-node
//! performance over every node in the configuration (Sec. IV) — against
//! the efficiency of the homogeneous 16×GTX480 runs of Sec. V-B.
//!
//! Per app, the calibration runs (one single node per distinct
//! composition, 16× and 1× GTX480) take only the `--policy`/`--steal`
//! overrides: they stay fault-free and unobserved. The measured
//! heterogeneous run takes every override, `--faults` and the
//! observability flags included.

use cashmere::ClusterSpec;
use cashmere_bench::{
    cli, hetero_cluster, report_run, write_report, AppId, CommonArgs, Scenario, ScenarioRun,
    Series, Table,
};
use serde::Serialize;

#[derive(Serialize)]
struct HeteroRow {
    app: String,
    configuration: String,
    nodes: usize,
    gflops: f64,
    hetero_efficiency: f64,
    homogeneous_efficiency: f64,
}

/// The distinct node compositions of `spec`, in first-seen order.
fn compositions(spec: &ClusterSpec) -> Vec<&Vec<String>> {
    let mut seen: Vec<&Vec<String>> = Vec::new();
    for devs in &spec.node_devices {
        if !seen.contains(&devs) {
            seen.push(devs);
        }
    }
    seen
}

/// Per app, in declared order: one single-node calibration run per
/// distinct composition, the measured heterogeneous run, then the
/// homogeneous 16× and 1× GTX480 runs.
pub fn scenarios(common: &CommonArgs, _args: &[String]) -> Vec<Scenario> {
    let paper = |app, spec: &ClusterSpec| Scenario::paper(app, Series::CashmereOpt, spec, 42);
    let mut scenarios = Vec::new();
    for app in AppId::ALL {
        let spec = hetero_cluster(app);
        for devs in compositions(&spec) {
            let one = ClusterSpec {
                node_devices: vec![devs.clone()],
            };
            let name = format!("{}-single-{}", app.token(), devs.join("."));
            scenarios.push(cli::apply_policy(paper(app, &one).named(name), common));
        }
        let hetero = paper(app, &spec).named(format!("{}-hetero", app.token()));
        scenarios.push(cli::apply_overrides(hetero, common));
        for nodes in [16, 1] {
            let homo = paper(app, &ClusterSpec::homogeneous(nodes, "gtx480"));
            scenarios.push(cli::apply_policy(homo, common));
        }
    }
    scenarios
}

pub fn report(scenarios: &[Scenario], runs: &[ScenarioRun]) {
    println!("Table III + Fig. 15: heterogeneous executions (optimized kernels)\n");
    let mut json = Vec::new();
    let mut t3 = Table::new(&["application", "GFLOPS", "configuration"]);
    let mut f15 = Table::new(&[
        "application",
        "heterogeneous eff.",
        "homogeneous eff. (16 gtx480)",
    ]);
    // Consume the results in the order `scenarios` declared them.
    let mut runs = scenarios.iter().zip(runs);
    let mut next = || runs.next().expect("one result per scenario");
    for app in AppId::ALL {
        let spec = hetero_cluster(app);
        let desc = spec.device_summary();
        let single: Vec<(&Vec<String>, f64)> = compositions(&spec)
            .into_iter()
            .map(|devs| (devs, next().1.outcome.gflops))
            .collect();
        let attainable: f64 = spec
            .node_devices
            .iter()
            .map(|d| {
                single
                    .iter()
                    .find(|(devs, _)| *devs == d)
                    .expect("calibrated")
                    .1
            })
            .sum();
        let (sc, run) = next();
        let hetero = &run.outcome;
        if let Some(f) = &hetero.failure_summary {
            println!("{} under injected faults:", app.name());
            for line in f.lines() {
                println!("  {line}");
            }
            println!();
        }
        if let Some(cap) = &run.cap {
            report_run(&sc.outputs, app.name(), cap);
        }
        let hetero_eff = hetero.gflops / attainable;
        let homo16 = next().1.outcome.gflops;
        let homo_eff = homo16 / (16.0 * next().1.outcome.gflops);

        t3.row(vec![
            app.name().to_string(),
            format!("{:.0}", hetero.gflops),
            desc.clone(),
        ]);
        f15.row(vec![
            app.name().to_string(),
            format!("{:.1}%", hetero_eff * 100.0),
            format!("{:.1}%", homo_eff * 100.0),
        ]);
        json.push(HeteroRow {
            app: app.name().to_string(),
            configuration: desc,
            nodes: spec.nodes(),
            gflops: hetero.gflops,
            hetero_efficiency: hetero_eff,
            homogeneous_efficiency: homo_eff,
        });
    }

    println!("Table III: performance of the heterogeneous executions\n");
    println!("{}", t3.render());
    println!("Fig. 15: efficiency of heterogeneous executions\n");
    println!("{}", f15.render());
    write_report("table3_fig15_hetero", scenarios, &json);
    println!(
        "expected shape (paper): >90% efficiency for three of the four\n\
         applications, matmul lower (network-bound); heterogeneous efficiency\n\
         comparable to the homogeneous runs."
    );
}
