//! # cashmere-bench — figure and table regeneration harnesses
//!
//! | binary       | does |
//! |--------------|------|
//! | `run`        | the paper's evaluation (Sec. V), one figure per call: `tables` (Tables I/II, Fig. 2), `fig6`, `scaling` (Figs. 7–14), `hetero` (Table III, Fig. 15), `ablation`, `gantt` (Figs. 16/17); `--scenario` runs one spec file |
//! | `chaos`      | seeded crash/rejoin fault plans — the degradation curve |
//! | `tournament` | scenario catalog × placement/steal policies, ranked |
//! | `advisor`    | What-if ranking: virtual-speedup re-executions, utilization, counterfactuals |
//! | `diff`       | Regression explainer — re-runs two scenarios/artifacts and attributes the makespan delta |
//! | `selfbench`  | host-time benchmark of the simulator itself (`BENCH_sim.json`) |
//!
//! All binaries print the series the paper plots and write JSON to
//! `bench/out/`. Runs are deterministic (fixed seeds, virtual time).

#![forbid(unsafe_code)]

pub mod advisor;
pub mod engine_load;
pub mod obs;
pub mod output;
pub mod runners;
pub mod scenario;
pub mod sweep;

pub use advisor::{
    advise, run_experiment, AdvisorFull, AdvisorJson, AdvisorRun, CounterfactualSummary,
    LaneSummary, PerturbSet, UtilizationSummary,
};
pub use obs::{
    fingerprint, labeled_path, obs_args, parse_simtime, report_run, subsystem_rows,
    write_self_profile, ObsCapture, SelfProfileReport, SubsystemShare,
};
pub use output::{write_file, write_json, write_report, write_report_to, Table};
pub use runners::{
    hetero_cluster, kernel_gflops, AppId, Fig6Launch, RecoverySummary, RunOutcome, Series,
};
pub use scenario::cli::{self, load_fault_plan, CommonArgs};
pub use scenario::{run_scenario, PolicySpec, Problem, Scenario, ScenarioReport, ScenarioRun};
pub use sweep::{default_jobs, jobs_from_args, sweep};
