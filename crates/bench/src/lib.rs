//! # cashmere-bench — figure and table regeneration harnesses
//!
//! One binary per experiment of the paper's evaluation (Sec. V):
//!
//! | binary    | regenerates |
//! |-----------|-------------|
//! | `tables`  | Table I (TOP500 background), Table II (app classes), Fig. 2 (hierarchy) |
//! | `fig6`    | Fig. 6 — kernel GFLOPS, unoptimized vs optimized, 4 apps × 7 devices |
//! | `scaling` | Figs. 7–14 — speedup + absolute GFLOPS, 1..16 GTX480 nodes, three series |
//! | `hetero`  | Table III + Fig. 15 — heterogeneous GFLOPS and efficiency |
//! | `gantt`   | Figs. 16/17 — Gantt charts of the heterogeneous K-means run |
//! | `advisor` | What-if ranking: virtual-speedup re-executions, utilization, counterfactuals |
//! | `diff`    | Regression explainer — re-runs two scenarios/artifacts and attributes the makespan delta |
//!
//! All binaries print the series the paper plots and write JSON to
//! `bench/out/`. Runs are deterministic (fixed seeds, virtual time).

pub mod advisor;
pub mod obs;
pub mod output;
pub mod runners;
pub mod scenario;
pub mod sweep;

pub use advisor::{
    advise, AdvisorFull, AdvisorJson, AdvisorRun, CounterfactualSummary, LaneSummary, PerturbSet,
    UtilizationSummary,
};
pub use obs::{
    fingerprint, labeled_path, obs_args, parse_simtime, report_run, subsystem_rows,
    write_self_profile, ObsArgs, ObsCapture, SelfProfileReport, SubsystemShare,
};
pub use output::{write_json, write_report, Table};
pub use runners::{kernel_gflops, AppId, Fig6Launch, RecoverySummary, RunOutcome, Series};
pub use scenario::cli::{self, load_fault_plan, CommonArgs};
pub use scenario::{run_scenario, PolicySpec, Problem, Scenario, ScenarioReport, ScenarioRun};
pub use sweep::{default_jobs, jobs_from_args, sweep, sweep_fns};
