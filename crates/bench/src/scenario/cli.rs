//! Shared command-line front end for the six bench bins.
//!
//! [`common_args`] splits the flags every bin accepts out of argv in one
//! pass — `--faults plan.json`, `--trace out.json`, `--explain`,
//! `--metrics-out m.txt`, `--jobs N`, `--policy P`, `--steal S`,
//! `--self-profile stem`, `--scenario file.json`, `--dump-scenario` —
//! returning the rest (`argv[0]` included) for bin-specific parsing.
//! `--self-profile` enables the host self-profiler immediately (so setup
//! is attributed too); bins call [`finish`] as their last statement to
//! export the collapsed-stack/JSON/digest triple. [`handle_scenario`]
//! implements the declarative entry: when `--scenario` names a spec file
//! it is loaded, overridden by the CLI flags, validated, and either
//! printed (`--dump-scenario`) or run through [`run_scenario`] with a
//! provenance-bearing report written under `bench/out/`. Bins with
//! scenario-shaped presets honor a bare `--dump-scenario` by printing
//! their resolved preset list via [`dump_scenarios`] instead of running.

use super::{run_scenario, OutputSpec, Scenario, ScenarioReport};
use crate::obs::{obs_args, report_run, write_self_profile};
use crate::output::{write_file, Table};
use crate::sweep::jobs_from_args;
use cashmere::balancer::Policy;
use cashmere_des::fault::FaultPlan;
use cashmere_des::obs::prof;
use cashmere_satin::StealKind;
use std::path::{Path, PathBuf};

/// The placement policies' canonical names, `|`-joined in [`Policy::ALL`]
/// order (for error texts).
pub fn policy_names() -> String {
    Policy::ALL.map(Policy::name).join("|")
}

/// The steal policies' canonical names, `|`-joined in [`StealKind::ALL`]
/// order (for error texts).
pub fn steal_names() -> String {
    StealKind::ALL.map(StealKind::name).join("|")
}

/// Flags shared by all bench bins, split out of argv by [`common_args`].
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    /// Worker threads for the sweep executor (`--jobs N`).
    pub jobs: usize,
    /// Observability flags (`--trace`, `--explain`, `--metrics-out`,
    /// `--probe`, `--probe-out`, `--self-profile`), as the outputs they set.
    pub outputs: OutputSpec,
    /// Fault plan (`--faults plan.json`; empty when absent).
    pub faults: FaultPlan,
    /// Placement-policy override (`--policy scenario|round-robin|…`).
    pub policy: Option<Policy>,
    /// Steal-policy override
    /// (`--steal uniform-random|recent-victim|round-robin-scan`).
    pub steal: Option<StealKind>,
    /// Scenario file to run instead of the bin's presets (`--scenario`).
    pub scenario: Option<String>,
    /// Print resolved scenario(s) instead of running (`--dump-scenario`).
    pub dump: bool,
    /// The bin's name (`argv[0]` basename; `run` sets the figure name) —
    /// the root frame of `--self-profile` collapsed stacks.
    pub program: String,
}

/// Print `msg` to stderr and exit 2 — the bins' answer to bad input.
pub fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Load a fault plan from a JSON file (the bench bins' `--faults` flag).
pub fn load_fault_plan(path: &str) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Split the shared flags out of argv. Returns the remaining arguments,
/// `argv[0]` included, for bin-specific parsing. Exits with a message on a
/// malformed flag (missing value, unreadable plan, unknown policy).
pub fn common_args() -> (CommonArgs, Vec<String>) {
    let mut common = CommonArgs::default();
    let mut rest = Vec::new();
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--faults" => {
                let path = value("--faults");
                match load_fault_plan(&path) {
                    Ok(p) => common.faults = p,
                    Err(e) => fail(&e),
                }
            }
            "--policy" => {
                let v = value("--policy");
                common.policy = Some(Policy::parse(&v).unwrap_or_else(|| {
                    fail(&format!("unknown policy `{v}` ({})", policy_names()))
                }));
            }
            "--steal" => {
                let v = value("--steal");
                common.steal = Some(StealKind::parse(&v).unwrap_or_else(|| {
                    fail(&format!("unknown steal policy `{v}` ({})", steal_names()))
                }));
            }
            "--scenario" => common.scenario = Some(value("--scenario")),
            "--dump-scenario" => common.dump = true,
            _ => rest.push(a),
        }
    }
    let (outputs, rest) = obs_args(rest);
    let (jobs, rest) = jobs_from_args(rest);
    common.outputs = outputs;
    common.jobs = jobs;
    common.program = rest
        .first()
        .map(|a| {
            std::path::Path::new(a)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| a.clone())
        })
        .unwrap_or_else(|| "bench".to_string());
    // Start profiling before any work so setup (cluster build, kernel
    // compilation) is attributed too.
    if common.outputs.self_profile.is_some() {
        prof::set_enabled(true);
    }
    (common, rest)
}

/// Write the `--self-profile` exports, if requested — the bins' last call
/// before returning from `main`, passing the scenarios they ran (empty for
/// kernel-corpus bins whose runs are not scenario-shaped).
pub fn finish(common: &CommonArgs, scenarios: &[Scenario]) {
    if let Some(stem) = &common.outputs.self_profile {
        write_self_profile(stem, &common.program, scenarios);
    }
}

/// Apply the policy overrides alone (`--policy`, `--steal`): for runs
/// that must stay fault-free and unobserved, like calibration runs.
pub fn apply_policy(mut sc: Scenario, common: &CommonArgs) -> Scenario {
    if let Some(p) = common.policy {
        sc.policy.placement = p;
    }
    if let Some(s) = common.steal {
        sc.policy.steal = s;
    }
    sc
}

/// Apply the CLI overrides to a preset (or loaded) scenario: the policy
/// overrides, `--faults`, and the observability flags overlaid on its
/// outputs ([`OutputSpec::overlay`]).
pub fn apply_overrides(sc: Scenario, common: &CommonArgs) -> Scenario {
    let mut sc = apply_policy(sc, common);
    sc.outputs.overlay(&common.outputs);
    if !common.faults.is_empty() {
        sc.faults = Some(common.faults.clone());
    }
    sc
}

/// Print a resolved scenario list as a JSON array (the bins'
/// bare `--dump-scenario`).
pub fn dump_scenarios(scenarios: &[Scenario]) {
    let mut s = serde_json::to_string_pretty(scenarios).expect("scenarios serialize");
    s.push('\n');
    print!("{s}");
}

/// `rel` relative to the workspace root (`workspace_root` of the
/// current directory), found at run time so that a binary writes into the
/// checkout it runs in, wherever it was built. Outside a checkout, `rel`
/// resolves in the current directory, as a spec's relative output paths
/// do.
pub fn workspace_path(rel: &str) -> PathBuf {
    let cwd = std::env::current_dir()
        .unwrap_or_else(|e| fail(&format!("cannot read the current directory: {e}")));
    workspace_root(&cwd).unwrap_or(&cwd).join(rel)
}

/// The nearest of `dir` and its ancestors that holds a workspace
/// `Cargo.toml` (one with a `[workspace]` table) and a `bench/` directory.
fn workspace_root(dir: &Path) -> Option<&Path> {
    dir.ancestors().find(|d| {
        d.join("bench").is_dir()
            && std::fs::read_to_string(d.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
    })
}

/// `bench/out/<file>` relative to the workspace root.
pub fn out_path(file: &str) -> PathBuf {
    workspace_path("bench/out").join(file)
}

/// Handle `--scenario file.json`: load, override with the CLI flags,
/// validate, then dump (`--dump-scenario`) or run and write the
/// provenance-bearing report. Returns `true` when the flag was present and
/// handled — the bin should return without running its presets. Exits with
/// a message on load or validation errors.
pub fn handle_scenario(common: &CommonArgs) -> bool {
    let Some(path) = &common.scenario else {
        return false;
    };
    let sc = match Scenario::load(path) {
        Ok(sc) => apply_overrides(sc, common),
        Err(e) => fail(&e),
    };
    if let Err(e) = sc.validate() {
        fail(&format!("{path}: invalid scenario: {e}"));
    }
    if common.dump {
        print!("{}", sc.to_canonical_json());
        return true;
    }
    // The spec itself can ask for a self-profile (outputs.self_profile);
    // the CLI flag already enabled profiling in `common_args`.
    if sc.outputs.self_profile.is_some() {
        prof::set_enabled(true);
    }
    let run = run_scenario(&sc);
    let r = &run.outcome;
    println!(
        "scenario {}: {} / {} on {} node(s)\n",
        sc.name, r.app, r.series, r.nodes
    );
    let mut t = Table::new(&[
        "makespan",
        "GFLOPS",
        "kernels",
        "fallbacks",
        "steals",
        "net bytes",
    ]);
    t.row(vec![
        format!("{:.3}s", r.makespan_s),
        format!("{:.0}", r.gflops),
        r.kernels_run.to_string(),
        r.cpu_fallbacks.to_string(),
        r.steals_ok.to_string(),
        r.network_bytes.to_string(),
    ]);
    println!("{}", t.render());
    if let Some(f) = &r.failure_summary {
        for line in f.lines() {
            println!("  {line}");
        }
        println!();
    }
    if let Some(cap) = &run.cap {
        report_run(&sc.outputs, &sc.name, cap);
    }
    let report = ScenarioReport::new(&sc, run.outcome);
    let path = match &sc.outputs.report {
        Some(p) => PathBuf::from(p),
        None => out_path(&format!("scenario_{}.json", sc.name)),
    };
    write_file(path, &report.to_canonical_json());
    if let Some(stem) = &sc.outputs.self_profile {
        write_self_profile(stem, &common.program, std::slice::from_ref(&sc));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_des::SimTime;

    #[test]
    fn workspace_root_is_found_from_below() {
        let tmp = std::env::temp_dir().join(format!("cashmere-root-test-{}", std::process::id()));
        let ws = tmp.join("ws");
        let member = ws.join("crates/app");
        // A nested package with its own `[workspace]` but no `bench/`, and
        // a `bench/` with no manifest: neither is the root.
        let nested = ws.join("bench/benchmark");
        std::fs::create_dir_all(&member).unwrap();
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(ws.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
        std::fs::write(member.join("Cargo.toml"), "[package]\nname = \"app\"\n").unwrap();
        std::fs::write(nested.join("Cargo.toml"), "[package]\n\n[workspace]\n").unwrap();
        assert_eq!(workspace_root(&ws), Some(ws.as_path()));
        assert_eq!(workspace_root(&member), Some(ws.as_path()));
        assert_eq!(workspace_root(&nested), Some(ws.as_path()));
        let outside = tmp.join("elsewhere");
        std::fs::create_dir_all(outside.join("bench")).unwrap();
        assert_eq!(workspace_root(&outside), None);
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn fault_plan_loads_and_reports_errors() {
        assert!(load_fault_plan("/nonexistent/plan.json")
            .unwrap_err()
            .contains("cannot read"));
        let dir = std::env::temp_dir().join("cashmere-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, r#"{"node_crashes":[{"node":1,"at":5000000}]}"#).unwrap();
        let plan = load_fault_plan(good.to_str().unwrap()).unwrap();
        assert_eq!(plan.node_crashes.len(), 1);
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        assert!(load_fault_plan(bad.to_str().unwrap())
            .unwrap_err()
            .contains("cannot parse"));
    }

    #[test]
    fn overrides_apply_policy_faults_capture() {
        use crate::runners::{AppId, Series};
        use cashmere::ClusterSpec;
        let sc = Scenario::new(
            "t",
            AppId::Kmeans,
            Series::CashmereOpt,
            &ClusterSpec::homogeneous(1, "gtx480"),
        );
        let common = CommonArgs {
            policy: Some(Policy::RoundRobin),
            steal: Some(StealKind::RecentVictim),
            outputs: OutputSpec {
                explain: true,
                ..OutputSpec::default()
            },
            ..CommonArgs::default()
        };
        let out = apply_overrides(sc.clone(), &common);
        assert_eq!(out.policy.placement, Policy::RoundRobin);
        assert_eq!(out.policy.steal, StealKind::RecentVictim);
        assert!(out.outputs.observe());
        assert!(out.outputs.explain);
        assert!(out.faults.is_none(), "empty plan stays None");

        // The flags overlay the spec's own outputs: a set flag beats the
        // spec's field, an unset one keeps it, and `--explain` ORs.
        let mut declared = sc;
        declared.outputs = OutputSpec {
            trace: Some("spec.json".into()),
            metrics_out: Some("spec.txt".into()),
            probe_out: Some("spec.csv".into()),
            explain: true,
            ..OutputSpec::default()
        };
        let flags = |outputs| CommonArgs {
            outputs,
            ..CommonArgs::default()
        };
        let out = apply_overrides(
            declared.clone(),
            &flags(OutputSpec {
                trace: Some("flag.json".into()),
                probe_interval: Some(SimTime::from_millis(1)),
                ..OutputSpec::default()
            }),
        );
        assert_eq!(out.outputs.trace.as_deref(), Some("flag.json"));
        assert_eq!(out.outputs.metrics_out.as_deref(), Some("spec.txt"));
        assert_eq!(out.outputs.probe_out.as_deref(), Some("spec.csv"));
        assert_eq!(out.outputs.probe_interval, Some(SimTime::from_millis(1)));
        assert!(out.outputs.explain, "an unset --explain keeps the spec's");
        let out = apply_overrides(declared.clone(), &CommonArgs::default());
        assert_eq!(out.outputs, declared.outputs, "no flags change nothing");
        declared.outputs.explain = false;
        let explain = flags(OutputSpec {
            explain: true,
            ..OutputSpec::default()
        });
        assert!(apply_overrides(declared, &explain).outputs.explain);
    }
}
