//! Chaos sweep: seeded random fault plans of increasing intensity against
//! one base scenario, reported as a degradation curve (makespan and
//! recovery cost vs fault intensity).
//!
//! ```text
//! cargo run --release -p cashmere-bench --bin chaos
//! cargo run --release -p cashmere-bench --bin chaos -- --levels 3 --seeds 2 --jobs 4
//! cargo run --release -p cashmere-bench --bin chaos -- --scenario bench/scenarios/smoke.json
//! cargo run --release -p cashmere-bench --bin chaos -- --no-orphan-reuse
//! cargo run --release -p cashmere-bench --bin chaos -- --dump-scenario
//! ```
//!
//! Level 0 is the fault-free baseline; it doubles as the probe that fixes
//! the virtual-time horizon fault times are drawn from, so plans always
//! land inside the run. Each level `l >= 1` crashes up to `l` distinct
//! worker nodes (each with a 50% chance of rejoining later) and, from
//! level 2 on, degrades links toward the master; `--seeds S` draws S
//! independent plans per level from [`StreamRng`] streams named by
//! `(level, seed-index)`, so the whole sweep replays byte-for-byte — at
//! any `--jobs` width, since the executor reassembles results in input
//! order.
//!
//! Unlike the other bins, `--scenario file.json` here selects the *base*
//! scenario the chaos plans are layered onto (any fault plan in the file
//! is replaced). `--no-orphan-reuse` runs the ablation arm: orphaned
//! results are always re-executed instead of reused, which is what the
//! degradation curve is measured against.
//!
//! The curve is written to `bench/out/chaos_<base name>.json`
//! (`chaos_<base name>_no_reuse.json` for the ablation), or to the base
//! scenario's `outputs.report` path when it declares one (the ablation
//! arm's file labelled `no_reuse` there, e.g. `curve.no_reuse.json`).

#![forbid(unsafe_code)]

use cashmere::ClusterSpec;
use cashmere_bench::{
    cli, labeled_path, report_run, run_scenario, sweep, write_report_to, AppId, Problem, Scenario,
    Series, Table,
};
use cashmere_des::fault::{FaultPlan, LinkFault, NodeCrash, NodeJoin};
use cashmere_des::{SimTime, StreamRng};
use serde::Serialize;
use std::path::PathBuf;

#[derive(Serialize)]
struct ChaosRow {
    level: usize,
    seed_index: usize,
    scenario: String,
    makespan_s: f64,
    /// Makespan relative to the fault-free baseline.
    degradation: f64,
    crashes: u64,
    joins: u64,
    jobs_restarted: u64,
    orphans_reused: u64,
    orphans_expired: u64,
    work_lost_s: f64,
    time_to_recover_s: f64,
}

/// The default base when no `--scenario` is given: k-means on six GTX480
/// nodes with a fine grain, so work migrates enough that crashes orphan
/// completed subtree results (the recovery path worth measuring) and
/// multi-node crash plans stay survivable.
fn default_base() -> Scenario {
    Scenario::new(
        "chaos-base",
        AppId::Kmeans,
        Series::CashmereOpt,
        &ClusterSpec::homogeneous(6, "gtx480"),
    )
    .with_problem(Problem::Kmeans {
        n: 4_000_000,
        k: 1024,
        d: 4,
        iterations: 2,
    })
    .with_grain(15_625)
}

/// Draw one fault plan of intensity `level` for a `nodes`-node cluster,
/// with event times spread across `[15%, 75%]` of the baseline makespan
/// `horizon`. Deterministic in `(base seed, level, seed_index)`.
fn chaos_plan(
    rng_seed: u64,
    level: usize,
    seed_index: usize,
    nodes: usize,
    horizon: SimTime,
) -> FaultPlan {
    let mut rng = StreamRng::named(rng_seed, &format!("chaos.l{level}.s{seed_index}"));
    let at = |frac: f64| SimTime::from_nanos((frac * horizon.0 as f64) as u64);
    let mut plan = FaultPlan::none();

    // Crash up to `level` distinct workers (never the master, and never all
    // of them): Fisher-Yates over 1..nodes, take the prefix.
    let mut workers: Vec<usize> = (1..nodes).collect();
    for i in (1..workers.len()).rev() {
        workers.swap(i, rng.below(i + 1));
    }
    let victims = level.min(nodes.saturating_sub(1));
    for &node in &workers[..victims] {
        let crash_frac = 0.15 + 0.45 * rng.unit();
        plan.node_crashes.push(NodeCrash {
            node,
            at: at(crash_frac),
        });
        // Half the victims come back (empty), exercising the rejoin path.
        if rng.unit() < 0.5 {
            plan.node_joins.push(NodeJoin {
                node,
                at: at(crash_frac + 0.05 + 0.1 * rng.unit()),
            });
        }
    }

    // From level 2 on, also degrade result-return links toward the master.
    if level >= 2 {
        plan.link_faults.push(LinkFault {
            src: None,
            dst: Some(0),
            from: at(0.2),
            until: at(0.2 + 0.1 * level as f64),
            loss: (0.05 * level as f64).min(0.3),
            spike: SimTime::from_micros(200),
            spike_probability: 0.2,
        });
    }
    plan
}

fn main() {
    let (common, rest) = cli::common_args();

    let mut levels = 4usize;
    let mut seeds = 3usize;
    let mut orphan_reuse = true;
    let mut args = rest.into_iter().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    eprintln!("{flag} requires a positive integer value");
                    std::process::exit(2);
                })
        };
        match a.as_str() {
            "--levels" => levels = value("--levels").max(1),
            "--seeds" => seeds = value("--seeds").max(1),
            "--no-orphan-reuse" => orphan_reuse = false,
            other => {
                eprintln!(
                    "unknown argument `{other}` \
                     (chaos takes --levels N, --seeds N, --no-orphan-reuse)"
                );
                std::process::exit(2);
            }
        }
    }

    // `--scenario` selects the base the chaos plans are layered onto; its
    // own fault plan (if any) is dropped in favor of the generated ones.
    let mut base = match &common.scenario {
        Some(path) => match Scenario::load(path) {
            Ok(sc) => sc,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
        None => default_base(),
    };
    base.faults = None;
    base = cli::apply_overrides(base, &common).with_orphan_reuse(orphan_reuse);
    if let Err(e) = base.validate() {
        eprintln!("invalid base scenario: {e}");
        std::process::exit(2);
    }
    let nodes = base.nodes.len();
    if nodes < 2 {
        eprintln!("chaos needs at least 2 nodes (workers must be crashable)");
        std::process::exit(2);
    }

    // Level 0: the fault-free baseline, run first — it is both the curve's
    // reference point and the probe that fixes the fault-time horizon.
    let baseline_sc = base.clone().named(format!("{}.chaos.l0", base.name));
    let baseline = run_scenario(&baseline_sc);
    let horizon = SimTime::from_secs_f64(baseline.outcome.makespan_s);
    let base_makespan = baseline.outcome.makespan_s;

    // Levels 1..=L × seeds: generate, validate, and enumerate in declared
    // order so any `--jobs` width reports identically.
    let mut scenarios: Vec<Scenario> = vec![baseline_sc.clone()];
    let mut keys: Vec<(usize, usize)> = Vec::new();
    for level in 1..=levels {
        for s in 0..seeds {
            let plan = chaos_plan(base.seed, level, s, nodes, horizon);
            debug_assert!(plan.validate(nodes).is_ok());
            let sc = base
                .clone()
                .named(format!("{}.chaos.l{level}.s{s}", base.name))
                .with_faults(plan);
            scenarios.push(sc);
            keys.push((level, s));
        }
    }

    if common.dump {
        cli::dump_scenarios(&scenarios);
        return;
    }

    let runs = sweep(scenarios[1..].to_vec(), common.jobs, |sc| run_scenario(&sc));
    // The observability flags capture every run: export each under its
    // scenario name, in declared order.
    for (sc, run) in scenarios
        .iter()
        .zip(std::iter::once(&baseline).chain(&runs))
    {
        if let Some(cap) = &run.cap {
            report_run(&sc.outputs, &sc.name, cap);
        }
    }

    let mut json = vec![ChaosRow {
        level: 0,
        seed_index: 0,
        scenario: baseline_sc.name.clone(),
        makespan_s: base_makespan,
        degradation: 1.0,
        crashes: 0,
        joins: 0,
        jobs_restarted: 0,
        orphans_reused: 0,
        orphans_expired: 0,
        work_lost_s: 0.0,
        time_to_recover_s: 0.0,
    }];
    for ((level, s), run) in keys.iter().zip(&runs) {
        let o = &run.outcome;
        let rec = o.recovery.clone().unwrap_or(
            // A plan whose events all land after the run completes injects
            // nothing; report it as a zero-cost row rather than skipping.
            cashmere_bench::RecoverySummary {
                crashes: 0,
                joins: 0,
                jobs_restarted: 0,
                orphans_harvested: 0,
                orphans_reused: 0,
                orphans_expired: 0,
                work_lost_s: 0.0,
                time_to_recover_s: 0.0,
            },
        );
        json.push(ChaosRow {
            level: *level,
            seed_index: *s,
            scenario: format!("{}.chaos.l{level}.s{s}", base.name),
            makespan_s: o.makespan_s,
            degradation: o.makespan_s / base_makespan,
            crashes: rec.crashes,
            joins: rec.joins,
            jobs_restarted: rec.jobs_restarted,
            orphans_reused: rec.orphans_reused,
            orphans_expired: rec.orphans_expired,
            work_lost_s: rec.work_lost_s,
            time_to_recover_s: rec.time_to_recover_s,
        });
    }

    println!(
        "Chaos sweep: {} on {} nodes, {} levels x {} seeds, orphan reuse {}\n",
        base.app.name(),
        nodes,
        levels,
        seeds,
        if orphan_reuse { "on" } else { "off (ablation)" },
    );
    let mut t = Table::new(&[
        "level",
        "mean makespan",
        "degradation",
        "crashes",
        "joins",
        "re-executed",
        "reused",
        "work lost",
        "recover",
    ]);
    t.row(vec![
        "0".into(),
        format!("{base_makespan:.3}s"),
        "1.00x".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        "0.000s".into(),
        "0.000s".into(),
    ]);
    for level in 1..=levels {
        let rows: Vec<&ChaosRow> = json.iter().filter(|r| r.level == level).collect();
        let n = rows.len() as f64;
        let mean = |f: &dyn Fn(&ChaosRow) -> f64| rows.iter().map(|r| f(r)).sum::<f64>() / n;
        let total = |f: &dyn Fn(&ChaosRow) -> u64| rows.iter().map(|r| f(r)).sum::<u64>();
        t.row(vec![
            level.to_string(),
            format!("{:.3}s", mean(&|r| r.makespan_s)),
            format!("{:.2}x", mean(&|r| r.degradation)),
            total(&|r| r.crashes).to_string(),
            total(&|r| r.joins).to_string(),
            total(&|r| r.jobs_restarted).to_string(),
            total(&|r| r.orphans_reused).to_string(),
            format!("{:.3}s", mean(&|r| r.work_lost_s)),
            format!("{:.3}s", mean(&|r| r.time_to_recover_s)),
        ]);
    }
    println!("{}", t.render());

    let path = match (&base.outputs.report, orphan_reuse) {
        (Some(p), true) => PathBuf::from(p),
        (Some(p), false) => PathBuf::from(labeled_path(p, "no_reuse")),
        (None, true) => cli::out_path(&format!("chaos_{}.json", base.name)),
        (None, false) => cli::out_path(&format!("chaos_{}_no_reuse.json", base.name)),
    };
    write_report_to(path, &scenarios, &json);
    cli::finish(&common, &scenarios);
}
