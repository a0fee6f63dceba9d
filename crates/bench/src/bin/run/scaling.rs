//! Figs. 7–14: scalability (speedup vs 1 node) and absolute performance
//! (GFLOPS) of each application on 1–16 GTX480 nodes, for the paper's
//! three series — Satin, Cashmere with non-optimized kernels, Cashmere
//! with optimized kernels. `run scaling <app>` runs one app and writes
//! `fig7_14_scaling_<app>.json`, so it never clobbers the four-app
//! dataset. A `--faults` plan reaches every run it validates for (a plan
//! crashing node 2 skips the 1- and 2-node runs); each affected run's
//! failure accounting is printed under its row.

use cashmere::ClusterSpec;
use cashmere_bench::{
    cli, report_run, write_report, AppId, CommonArgs, Scenario, ScenarioRun, Series, Table,
};
use serde::Serialize;

const NODE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

#[derive(Serialize)]
struct Point {
    app: String,
    series: String,
    nodes: usize,
    makespan_s: f64,
    speedup: f64,
    gflops: f64,
    steals_ok: u64,
}

fn figure_number(app: AppId) -> (&'static str, &'static str) {
    match app {
        AppId::Raytracer => ("Fig. 7", "Fig. 8"),
        AppId::Matmul => ("Fig. 9", "Fig. 10"),
        AppId::Kmeans => ("Fig. 11", "Fig. 12"),
        AppId::Nbody => ("Fig. 13", "Fig. 14"),
    }
}

/// Render one app's table from its sweep results, consuming them in the
/// declared (series × nodes) order.
fn report_one(scenarios: &[Scenario], runs: &[ScenarioRun], json: &mut Vec<Point>) {
    let app = scenarios[0].app;
    let (fig_scal, fig_abs) = figure_number(app);
    println!(
        "{fig_scal} (scalability) / {fig_abs} (absolute performance): {} up to 16 GTX480 nodes\n",
        app.name()
    );
    let mut t = Table::new(&["series", "nodes", "makespan", "speedup", "GFLOPS", "steals"]);
    let mut base: Option<(String, f64)> = None;
    for (sc, run) in scenarios.iter().zip(runs) {
        let r = &run.outcome;
        if let Some(f) = &r.failure_summary {
            for line in f.lines() {
                println!("    [{} n={}] {line}", r.series, r.nodes);
            }
        }
        if let Some(cap) = &run.cap {
            report_run(&sc.outputs, &sc.name, cap);
        }
        // Speedup baseline is the first (1-node) run of each series.
        let b = match &base {
            Some((s, b)) if *s == r.series => *b,
            _ => {
                base = Some((r.series.clone(), r.makespan_s));
                r.makespan_s
            }
        };
        let speedup = b / r.makespan_s;
        t.row(vec![
            r.series.clone(),
            r.nodes.to_string(),
            format!("{:.2}s", r.makespan_s),
            format!("{speedup:.2}"),
            format!("{:.0}", r.gflops),
            r.steals_ok.to_string(),
        ]);
        json.push(Point {
            app: r.app.clone(),
            series: r.series.clone(),
            nodes: r.nodes,
            makespan_s: r.makespan_s,
            speedup,
            gflops: r.gflops,
            steals_ok: r.steals_ok,
        });
    }
    println!("{}", t.render());
}

/// One scenario per (app, series, nodes) point: every app, or the one
/// named by the figure argument.
pub fn scenarios(common: &CommonArgs, args: &[String]) -> Vec<Scenario> {
    let apps: Vec<AppId> = match args.first() {
        None => AppId::ALL.to_vec(),
        Some(s) => match AppId::parse(s) {
            Some(a) => vec![a],
            None => cli::fail(&format!(
                "unknown app `{s}` (raytracer|matmul|kmeans|nbody)"
            )),
        },
    };
    let mut scenarios = Vec::new();
    for app in apps {
        for series in Series::ALL {
            for nodes in NODE_COUNTS {
                let spec = ClusterSpec::homogeneous(nodes, "gtx480");
                scenarios.push(cli::apply_overrides(
                    Scenario::paper(app, series, &spec, 42),
                    common,
                ));
            }
        }
    }
    scenarios
}

pub fn report(scenarios: &[Scenario], runs: &[ScenarioRun]) {
    let per_app = Series::ALL.len() * NODE_COUNTS.len();
    let mut json = Vec::new();
    for (scs, runs) in scenarios.chunks(per_app).zip(runs.chunks(per_app)) {
        report_one(scs, runs, &mut json);
    }
    let name = match scenarios.len() / per_app {
        1 => format!("fig7_14_scaling_{}", scenarios[0].app.token()),
        _ => "fig7_14_scaling".to_string(),
    };
    write_report(&name, scenarios, &json);
    println!(
        "expected shape (paper): Cashmere scales at least as well as Satin at\n\
         ~an order of magnitude higher absolute performance; optimized matmul\n\
         flattens with node count (network-bound); k-means and n-body scale\n\
         near-linearly."
    );
}
