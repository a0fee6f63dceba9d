//! Policy tournament: placement × steal policies × scenario catalog ×
//! fault plans, ranked into one matrix artifact — then the advisor loop is
//! closed: the top what-if recommendation is re-run under every placement
//! policy to see which of them actually realize the predicted win.
//!
//! ```text
//! cargo run --release -p cashmere-bench --bin tournament
//! cargo run --release -p cashmere-bench --bin tournament -- \
//!     bench/scenarios/hetero_table3.json bench/scenarios/chaos_rejoin.json
//! cargo run --release -p cashmere-bench --bin tournament -- \
//!     bench/scenarios/smoke.json --placements scenario,static-table \
//!     --steals uniform-random,round-robin-scan --no-advise --jobs 4
//! cargo run --release -p cashmere-bench --bin tournament -- --dump-scenario
//! ```
//!
//! Positional arguments are scenario files forming the catalog; with none,
//! the built-in catalog runs (`paper_kmeans_4n`, `hetero_table3`,
//! `chaos_rejoin` from `bench/scenarios/`). Each catalog entry is crossed
//! with every `--placements` policy (default: all six) and every
//! `--steals` policy (default: all three). Entries that declare a fault
//! plan run twice — once fault-free (`none`) and once with the plan
//! (`declared`) — so the matrix shows which policies hold up under churn.
//! Rows are ranked by makespan within each `(scenario, faults)` group.
//!
//! Every run is enumerated up front in declared order and fanned out over
//! the sweep executor, so the artifact (`bench/out/tournament.json`, or
//! `tournament_<first-scenario>` for an explicit catalog) is byte-identical
//! at any `--jobs` width.
//!
//! The closing loop (skip with `--no-advise`): the advisor runs on the
//! first catalog entry (fault-free arm), its top measured what-if
//! recommendation is taken, and the same perturbation is re-applied under
//! each placement policy. A policy "realizes" the prediction when its own
//! measured delta reaches the predicted one; policies that route work
//! differently (round-robin, static-table) typically leave part of the
//! predicted win on the table, which is exactly what the section shows.

#![forbid(unsafe_code)]

use cashmere::balancer::Policy;
use cashmere_bench::cli::fail;
use cashmere_bench::{
    advise, cli, report_run, run_experiment, run_scenario, sweep, write_report, PerturbSet,
    RunOutcome, Scenario, ScenarioRun, Table,
};
use cashmere_satin::StealKind;
use serde::Serialize;

#[derive(Serialize)]
struct MatrixRow {
    scenario: String,
    /// `none` (fault-free) or `declared` (the scenario's own plan).
    faults: String,
    placement: String,
    steal: String,
    /// 1-based rank by makespan within the `(scenario, faults)` group.
    rank: usize,
    makespan_s: f64,
    gflops: f64,
    steals_ok: u64,
    cpu_fallbacks: u64,
    jobs_restarted: u64,
}

#[derive(Serialize)]
struct AdvisorCloseRow {
    placement: String,
    baseline_s: f64,
    perturbed_s: f64,
    realized_delta_s: f64,
    /// Realized / predicted delta, in percent (predicted under the
    /// scenario policy).
    realized_pct: f64,
}

#[derive(Serialize)]
struct AdvisorClose {
    scenario: String,
    what_if: String,
    predicted_delta_s: f64,
    rows: Vec<AdvisorCloseRow>,
}

#[derive(Serialize)]
struct TournamentData {
    matrix: Vec<MatrixRow>,
    advisor: Option<AdvisorClose>,
}

fn parse_list<T: Copy>(
    flag: &str,
    value: &str,
    parse: impl Fn(&str) -> Option<T>,
    options: &str,
) -> Vec<T> {
    let items: Vec<T> = value
        .split(',')
        .map(|s| {
            parse(s.trim()).unwrap_or_else(|| fail(&format!("{flag}: unknown `{s}` ({options})")))
        })
        .collect();
    if items.is_empty() {
        fail(&format!("{flag} expects a comma-separated list"));
    }
    items
}

/// Export a run's capture (the observability flags capture every run)
/// under its scenario name, then keep only the outcome.
fn report_and_keep_outcome(sc: &Scenario, run: ScenarioRun) -> RunOutcome {
    if let Some(cap) = &run.cap {
        report_run(&sc.outputs, &sc.name, cap);
    }
    run.outcome
}

fn main() {
    let (common, rest) = cli::common_args();

    let mut placements: Vec<Policy> = Policy::ALL.to_vec();
    let mut steals: Vec<StealKind> = StealKind::ALL.to_vec();
    let mut advisor_loop = true;
    let mut files: Vec<String> = Vec::new();
    let mut it = rest.into_iter().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--placements" => {
                placements = parse_list(
                    "--placements",
                    &value("--placements"),
                    Policy::parse,
                    &cli::policy_names(),
                );
            }
            "--steals" => {
                steals = parse_list(
                    "--steals",
                    &value("--steals"),
                    StealKind::parse,
                    &cli::steal_names(),
                );
            }
            "--no-advise" => advisor_loop = false,
            other if !other.starts_with('-') => files.push(other.to_string()),
            other => fail(&format!(
                "unknown argument `{other}` (tournament takes scenario files, \
                 --placements LIST, --steals LIST, --no-advise)"
            )),
        }
    }

    // The catalog: explicit files, or the built-in trio. `--scenario` (the
    // shared flag) prepends like a positional file, so both spellings work.
    if let Some(path) = &common.scenario {
        files.insert(0, path.clone());
    }
    let default_catalog = files.is_empty();
    if default_catalog {
        for f in [
            "paper_kmeans_4n.json",
            "hetero_table3.json",
            "chaos_rejoin.json",
        ] {
            files.push(
                cli::workspace_path("bench/scenarios")
                    .join(f)
                    .to_string_lossy()
                    .into_owned(),
            );
        }
    }
    let catalog: Vec<Scenario> = files
        .iter()
        .map(|path| match Scenario::load(path) {
            Ok(sc) => {
                let sc = cli::apply_overrides(sc, &common);
                if let Err(e) = sc.validate() {
                    fail(&format!("{path}: invalid scenario: {e}"));
                }
                sc
            }
            Err(e) => fail(&e),
        })
        .collect();

    // Enumerate every cell in declared order: scenario → fault arm →
    // placement → steal. Fault-free arms strip the declared plan.
    let mut cells: Vec<(String, String, Policy, StealKind)> = Vec::new();
    let mut runs: Vec<Scenario> = Vec::new();
    for base in &catalog {
        let mut arms = vec![("none", base.clone().with_faults_cleared())];
        if base.faults.is_some() {
            arms.push(("declared", base.clone()));
        }
        for (arm, arm_sc) in &arms {
            for &p in &placements {
                for &s in &steals {
                    let sc = arm_sc
                        .clone()
                        .named(format!("{}.{}.{}.{}", base.name, arm, p.name(), s.name()))
                        .with_policy(p)
                        .with_steal(s);
                    cells.push((base.name.clone(), arm.to_string(), p, s));
                    runs.push(sc);
                }
            }
        }
    }

    if common.dump {
        cli::dump_scenarios(&runs);
        return;
    }

    println!(
        "Policy tournament: {} scenario(s) x {} placement(s) x {} steal(s) = {} runs",
        catalog.len(),
        placements.len(),
        steals.len(),
        runs.len()
    );

    let outcomes: Vec<_> = sweep(runs.clone(), common.jobs, |sc| run_scenario(&sc))
        .into_iter()
        .zip(&runs)
        .map(|(run, sc)| report_and_keep_outcome(sc, run))
        .collect();

    // Rank within each (scenario, faults) group: stable sort by makespan,
    // ties break toward declared order — deterministic at any --jobs.
    let mut matrix: Vec<MatrixRow> = Vec::new();
    let mut groups: Vec<(String, String)> = Vec::new();
    for (name, arm, _, _) in &cells {
        let key = (name.clone(), arm.clone());
        if !groups.contains(&key) {
            groups.push(key);
        }
    }
    for (gname, garm) in &groups {
        let mut members: Vec<usize> = (0..cells.len())
            .filter(|&i| &cells[i].0 == gname && &cells[i].1 == garm)
            .collect();
        members.sort_by(|&a, &b| {
            outcomes[a]
                .makespan_s
                .total_cmp(&outcomes[b].makespan_s)
                .then(a.cmp(&b))
        });
        for (rank, &i) in members.iter().enumerate() {
            let o = &outcomes[i];
            matrix.push(MatrixRow {
                scenario: gname.clone(),
                faults: garm.clone(),
                placement: cells[i].2.name().to_string(),
                steal: cells[i].3.name().to_string(),
                rank: rank + 1,
                makespan_s: o.makespan_s,
                gflops: o.gflops,
                steals_ok: o.steals_ok,
                cpu_fallbacks: o.cpu_fallbacks,
                jobs_restarted: o.recovery.as_ref().map_or(0, |r| r.jobs_restarted),
            });
        }
    }

    for (gname, garm) in &groups {
        println!("\n{gname} (faults: {garm})\n");
        let mut t = Table::new(&[
            "rank",
            "placement",
            "steal",
            "makespan",
            "GFLOPS",
            "steals",
            "fallbacks",
        ]);
        for r in matrix
            .iter()
            .filter(|r| &r.scenario == gname && &r.faults == garm)
        {
            t.row(vec![
                r.rank.to_string(),
                r.placement.clone(),
                r.steal.clone(),
                format!("{:.3}s", r.makespan_s),
                format!("{:.0}", r.gflops),
                r.steals_ok.to_string(),
                r.cpu_fallbacks.to_string(),
            ]);
        }
        println!("{}", t.render());
    }

    // Close the advisor loop: ask the advisor for its best what-if on one
    // catalog entry (fault-free arm), then re-run that perturbation under
    // every placement policy (default steal) and report how much of the
    // predicted delta each one realizes. A heterogeneous entry is
    // preferred — on single-device nodes every placement routes
    // identically and trivially realizes the full delta.
    let advisor = if advisor_loop {
        let base = catalog
            .iter()
            .find(|sc| sc.cluster().distinct_devices().len() > 1)
            .unwrap_or(&catalog[0])
            .clone()
            .with_faults_cleared();
        let cluster = base.cluster();
        let workload = format!("{} tournament base", base.name);
        let runner = |p: Option<&PerturbSet>, observe: bool| {
            let run = run_experiment(&base, p, observe);
            (run.outcome.makespan_s, run.cap)
        };
        let run = advise(
            &workload,
            base.seed,
            &cluster,
            &[],
            &[0.5, 2.0],
            common.jobs,
            runner,
        )
        .unwrap_or_else(|e| fail(&e));
        // Rows sort by ascending delta (= makespan - baseline), so the
        // first row is the best candidate and a win is a negative delta.
        match run.json.report.rows.first() {
            Some(top) if top.delta_ns < 0 => {
                let spec = top.spec.clone();
                let predicted_s = -top.delta_ns as f64 / 1e9;
                let perturb = PerturbSet::parse_list(&spec)
                    .unwrap_or_else(|e| fail(&format!("advisor spec `{spec}`: {e}")));
                println!(
                    "\nadvisor recommends `{spec}` ({predicted_s:+.4}s predicted under the \
                     scenario policy); re-running it under every placement policy\n"
                );
                let pairs: Vec<Scenario> = placements
                    .iter()
                    .flat_map(|&p| {
                        let plain = base
                            .clone()
                            .named(format!("{}.advise.{}", base.name, p.name()))
                            .with_policy(p);
                        let perturbed = plain
                            .clone()
                            .named(format!("{}.advise.{}.whatif", base.name, p.name()))
                            .with_perturb(perturb.clone());
                        [plain, perturbed]
                    })
                    .collect();
                let measured: Vec<f64> = sweep(pairs.clone(), common.jobs, |sc| run_scenario(&sc))
                    .into_iter()
                    .zip(&pairs)
                    .map(|(run, sc)| report_and_keep_outcome(sc, run).makespan_s)
                    .collect();
                let mut rows = Vec::new();
                let mut t = Table::new(&["placement", "baseline", "what-if", "delta", "realized"]);
                for (k, &p) in placements.iter().enumerate() {
                    let (baseline_s, perturbed_s) = (measured[2 * k], measured[2 * k + 1]);
                    let realized = baseline_s - perturbed_s;
                    let pct = 100.0 * realized / predicted_s;
                    t.row(vec![
                        p.name().to_string(),
                        format!("{baseline_s:.3}s"),
                        format!("{perturbed_s:.3}s"),
                        format!("{realized:+.4}s"),
                        format!("{pct:.0}%"),
                    ]);
                    rows.push(AdvisorCloseRow {
                        placement: p.name().to_string(),
                        baseline_s,
                        perturbed_s,
                        realized_delta_s: realized,
                        realized_pct: pct,
                    });
                }
                println!("{}", t.render());
                Some(AdvisorClose {
                    scenario: base.name.clone(),
                    what_if: spec,
                    predicted_delta_s: predicted_s,
                    rows,
                })
            }
            _ => {
                println!("\nadvisor found no winning what-if; loop not closed");
                None
            }
        }
    } else {
        None
    };

    let name = if default_catalog {
        "tournament".to_string()
    } else {
        format!("tournament_{}", catalog[0].name)
    };
    write_report(&name, &catalog, &TournamentData { matrix, advisor });
    cli::finish(&common, &catalog);
}
