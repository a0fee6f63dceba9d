//! What-if performance advisor: "optimize this next", answered by
//! deterministic re-execution.
//!
//! The advisor runs the workload once (observed), enumerates perturbation
//! candidates from the span trace and critical path, then re-executes the
//! whole simulation once per candidate with exactly one factor virtually
//! scaled — Coz-style virtual speedup on the DES — and ranks candidates by
//! *measured* makespan delta. Alongside the ranking it prints per-resource
//! utilization timelines and, for the speed-table experiments, an audit-log
//! replay counting how many balancer placements would flip.
//!
//! ```text
//! cargo run --release -p cashmere-bench --bin advisor
//! cargo run --release -p cashmere-bench --bin advisor -- kmeans --nodes 8
//! cargo run --release -p cashmere-bench --bin advisor -- kmeans --hetero
//! cargo run --release -p cashmere-bench --bin advisor -- --what-if dev:*:2x --sweep 0.5,2
//! cargo run --release -p cashmere-bench --bin advisor -- --what-if dev:k20:2x+net:2x
//! cargo run --release -p cashmere-bench --bin advisor -- --jobs 4 --full-json
//! ```
//!
//! * `--what-if <spec>[,<spec>…]` — run these experiments instead of
//!   auto-enumerating; `+` inside one spec applies factors jointly.
//! * `--sweep f1,f2,…` — factor sweep (default `0.5,2`); with `--what-if`,
//!   each experiment is re-run at every factor.
//! * `--hetero` — the app's Table III heterogeneous configuration instead
//!   of homogeneous GTX480 nodes; `--nodes N` sets the homogeneous size.
//! * `--full-json` — additionally dump the complete occupancy step
//!   functions (`advisor_*_full.json`, megabytes at paper scale; the
//!   default artifact carries the compact per-lane summary).
//! * `--series`, `--seed`, `--jobs`, `--trace`, `--explain`,
//!   `--metrics-out`, `--scenario`, `--dump-scenario` — as in the other
//!   bench bins.
//!
//! The baseline is one [`Scenario`]; each experiment is the same scenario
//! with one `perturb` entry set. Experiments fan out over `--jobs` worker
//! threads; the report (text and `bench/out/advisor_*.json`) is
//! byte-identical at any `--jobs`.

#![forbid(unsafe_code)]

use cashmere::ClusterSpec;
use cashmere_bench::cli::fail;
use cashmere_bench::{
    advise, cli, hetero_cluster, report_run, run_experiment, write_json, write_report, AdvisorFull,
    AppId, PerturbSet, Scenario, Series,
};

fn main() {
    let (common, rest) = cli::common_args();
    if cli::handle_scenario(&common) {
        return;
    }

    let mut app = AppId::Kmeans;
    let mut series = Series::CashmereOpt;
    let mut nodes = 4usize;
    let mut hetero = false;
    let mut seed = 42u64;
    let mut what_if: Vec<PerturbSet> = Vec::new();
    let mut factors = vec![0.5, 2.0];
    let mut swept = false;
    let mut full = false;

    let mut it = rest.into_iter().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--hetero" => hetero = true,
            "--full-json" => full = true,
            "--nodes" => {
                nodes = value("--nodes")
                    .parse()
                    .unwrap_or_else(|_| fail("--nodes expects a positive integer"));
                if nodes == 0 {
                    fail("--nodes expects a positive integer");
                }
            }
            "--series" => {
                let v = value("--series");
                series = Series::parse(&v).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown series `{v}` (satin|cashmere-unopt|cashmere-opt)"
                    ))
                });
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed expects an integer"));
            }
            "--what-if" => {
                for part in value("--what-if").split(',') {
                    match PerturbSet::parse_list(part) {
                        Ok(set) => what_if.push(set),
                        Err(e) => fail(&e),
                    }
                }
            }
            "--sweep" => {
                factors = value("--sweep")
                    .split(',')
                    .map(|f| match f.trim().parse::<f64>() {
                        Ok(v) if v.is_finite() && v > 0.0 => v,
                        _ => fail(&format!("bad sweep factor `{f}` (want e.g. 0.5,2)")),
                    })
                    .collect();
                if factors.is_empty() {
                    fail("--sweep expects at least one factor");
                }
                swept = true;
            }
            other => match AppId::parse(other) {
                Some(a) => app = a,
                None => fail(&format!(
                    "unknown argument `{other}` (app name or --hetero|--nodes|--series|--seed|--what-if|--sweep|--full-json|--jobs|--trace|--explain|--metrics-out)"
                )),
            },
        }
    }

    // An explicit --sweep expands the explicit what-ifs too: each
    // experiment re-runs at every factor.
    if swept && !what_if.is_empty() {
        what_if = what_if
            .iter()
            .flat_map(|set| {
                factors.iter().map(|&f| PerturbSet {
                    items: set.items.iter().map(|p| p.with_factor(f)).collect(),
                })
            })
            .collect();
    }

    let (spec, cluster, cfg_slug) = if hetero {
        (
            hetero_cluster(app),
            "hetero (Table III)".to_string(),
            "hetero".to_string(),
        )
    } else {
        (
            ClusterSpec::homogeneous(nodes, "gtx480"),
            format!("{nodes}x gtx480"),
            format!("{nodes}n"),
        )
    };
    let base = cli::apply_overrides(
        Scenario::paper(app, series, &spec, seed).named(format!(
            "advisor-{}-{}",
            app.token(),
            cfg_slug
        )),
        &common,
    );
    if common.dump {
        cli::dump_scenarios(std::slice::from_ref(&base));
        return;
    }
    let workload = format!("{} / {} / {}", app.name(), series.name(), cluster);
    println!(
        "advisor: {workload} — baseline + {} experiment(s), seed {seed}",
        if what_if.is_empty() {
            "auto-enumerated".to_string()
        } else {
            what_if.len().to_string()
        }
    );

    let runner = |p: Option<&PerturbSet>, observe: bool| {
        let run = run_experiment(&base, p, observe);
        // The baseline is the only observed run; honor the shared obs flags
        // for it (Chrome trace with counter tracks, OpenMetrics dump, …).
        if let Some(cap) = &run.cap {
            report_run(&base.outputs, "baseline", cap);
        }
        (run.outcome.makespan_s, run.cap)
    };
    let run = advise(
        &workload,
        seed,
        &spec,
        &what_if,
        &factors,
        common.jobs,
        runner,
    )
    .unwrap_or_else(|e| fail(&e));
    print!("{}", run.text);

    let name = format!("advisor_{}_{}", app.token(), cfg_slug);
    write_report(&name, std::slice::from_ref(&base), &run.json);
    if full {
        // The raw occupancy step functions run to megabytes at paper
        // scale; they stay out of the default artifact and out of git.
        let dump = AdvisorFull {
            report: &run.json.report,
            utilization: &run.timelines,
            counterfactuals: &run.json.counterfactuals,
        };
        write_json(&format!("{name}_full"), &dump);
    }
    let best = run.json.report.rows.first();
    if let Some(b) = best {
        println!(
            "advice: `{}` gives the largest measured win ({:+.4}s, {:.3}x)",
            b.spec,
            b.delta_ns as f64 / 1e9,
            b.speedup
        );
    }
    cli::finish(&common, std::slice::from_ref(&base));
}
