//! What-if advisor driver: apply perturbations to live simulations and fan
//! the re-executions out over the deterministic sweep executor.
//!
//! The vocabulary (specs, candidate enumeration, ranked report) lives in
//! `cashmere_des::obs::advisor`; this module supplies the two things the
//! DES layer cannot know: *how* each perturbation maps onto the stack
//! ([`PerturbSet::apply_sim_config`] for cluster-wide knobs,
//! [`PerturbSet::apply_runtime`] for per-device ones) and *how* to re-run a
//! workload ([`advise`] takes a runner closure, so paper-scale bins and
//! small test problems share the driver).
//!
//! Every experiment is a full deterministic re-execution with one factor
//! scaled; results are reassembled in declared order after [`sweep`]
//! returns, so the report — text and JSON — is byte-identical at any
//! `--jobs`.

use crate::obs::ObsCapture;
use crate::scenario::{run_scenario, OutputSpec, Scenario, ScenarioRun};
use crate::sweep::sweep;
use cashmere::counterfactual::replay_audit;
use cashmere::{CashmereLeafRuntime, ClusterSpec};
use cashmere_des::obs::{
    critical_share_pct, enumerate_candidates, CriticalPath, PerturbTarget, Perturbation,
    UtilizationTimelines, WhatIfReport,
};
use cashmere_des::SimTime;
use cashmere_satin::SimConfig;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A set of perturbations applied to one re-execution. Auto-enumerated
/// experiments are always singletons; `--what-if dev:k20:2x+net:2x` builds
/// a joint set whose factors apply together in one run. Serializes
/// transparently as the perturbation list, so a `Scenario`'s `perturb`
/// field reads as a plain JSON array.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerturbSet {
    pub items: Vec<Perturbation>,
}

// Hand-written transparent (de)serialization: a set IS its perturbation
// list in JSON.
impl Serialize for PerturbSet {
    fn to_content(&self) -> serde::Content {
        self.items.to_content()
    }
}

impl Deserialize for PerturbSet {
    fn from_content(content: &serde::Content) -> Result<PerturbSet, serde::DeError> {
        Vec::<Perturbation>::from_content(content).map(|items| PerturbSet { items })
    }
}

impl PerturbSet {
    pub fn single(p: Perturbation) -> PerturbSet {
        PerturbSet { items: vec![p] }
    }

    /// Parse a `+`-joined joint spec (`dev:k20:2x+net:2x`); a plain spec
    /// parses to a singleton set.
    pub fn parse_list(s: &str) -> Result<PerturbSet, String> {
        let items = s
            .split('+')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(Perturbation::parse)
            .collect::<Result<Vec<_>, _>>()?;
        if items.is_empty() {
            return Err(format!("no perturbations in `{s}`"));
        }
        Ok(PerturbSet { items })
    }

    /// Canonical joint spec (`dev:k20:2x+net:*:2x`).
    pub fn spec(&self) -> String {
        self.items
            .iter()
            .map(Perturbation::spec)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Apply the cluster-wide perturbations (network fabric, steal pacing)
    /// to the engine configuration, before the cluster is built.
    pub fn apply_sim_config(&self, cfg: &mut SimConfig) {
        let div = |t: SimTime, f: f64| SimTime::from_secs_f64(t.as_secs_f64() / f);
        for p in &self.items {
            match p.target {
                PerturbTarget::Network => cfg.net = cfg.net.scaled(p.factor),
                PerturbTarget::StealRetry => {
                    cfg.steal_retry = div(cfg.steal_retry, p.factor);
                    cfg.steal_retry_max = div(cfg.steal_retry_max, p.factor);
                    cfg.steal_timeout = div(cfg.steal_timeout, p.factor);
                }
                _ => {}
            }
        }
    }

    /// Apply the per-device perturbations (compute speed, PCIe link,
    /// balancer table belief) to a built Cashmere leaf runtime, before the
    /// run starts.
    pub fn apply_runtime(&self, rt: &mut CashmereLeafRuntime) {
        for p in &self.items {
            match p.target {
                PerturbTarget::DeviceSpeed => {
                    rt.scale_device_speed(&p.selector, p.factor);
                }
                PerturbTarget::PcieLink => {
                    rt.scale_pcie(&p.selector, p.factor);
                }
                PerturbTarget::BalancerTable => {
                    rt.scale_balancer_table(&p.selector, p.factor);
                }
                _ => {}
            }
        }
    }
}

/// One audit-log replay under a perturbed speed table (see
/// `cashmere::counterfactual`): how many recorded placements would flip.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterfactualSummary {
    /// The perturbation whose table the audit was replayed under.
    pub spec: String,
    pub decisions: usize,
    pub replayed: usize,
    pub flips: usize,
    pub flip_pct: f64,
}

/// Compact per-lane occupancy: everything in
/// [`LaneUsage`](cashmere_des::obs::LaneUsage) except the
/// step-function points. The full timelines of a paper-scale run serialize
/// to megabytes of `(time, count)` pairs — this summary is what the default
/// advisor artifact carries; the points stay available behind `--full-json`
/// (see [`AdvisorFull`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LaneSummary {
    pub lane: usize,
    pub name: String,
    pub spans: usize,
    pub busy: SimTime,
    pub busy_pct: f64,
}

/// Compact form of [`UtilizationTimelines`]: per-lane busy fractions
/// without the occupancy step functions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilizationSummary {
    pub horizon: SimTime,
    pub lanes: Vec<LaneSummary>,
}

impl UtilizationSummary {
    pub fn of(full: &UtilizationTimelines) -> UtilizationSummary {
        UtilizationSummary {
            horizon: full.horizon,
            lanes: full
                .lanes
                .iter()
                .map(|l| LaneSummary {
                    lane: l.lane,
                    name: l.name.clone(),
                    spans: l.spans,
                    busy: l.busy,
                    busy_pct: l.busy_pct,
                })
                .collect(),
        }
    }
}

/// Everything one advisor invocation produces, JSON-serializable. Field
/// order (and therefore the pretty-printed bytes) is deterministic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdvisorJson {
    /// Ranked what-if table, best measured improvement first.
    pub report: WhatIfReport,
    /// Per-lane occupancy of the *baseline* run (compact; the step
    /// functions live in [`AdvisorRun::timelines`]).
    pub utilization: UtilizationSummary,
    /// Audit replays for the device-speed / table experiments.
    pub counterfactuals: Vec<CounterfactualSummary>,
}

/// The full-fidelity advisor dump (`--full-json`): the ranked report with
/// the complete occupancy step functions instead of the compact summary.
#[derive(Debug, Clone)]
pub struct AdvisorFull<'a> {
    pub report: &'a WhatIfReport,
    pub utilization: &'a UtilizationTimelines,
    pub counterfactuals: &'a [CounterfactualSummary],
}

// Hand-written: the shim's derive rejects lifetime-generic types.
impl Serialize for AdvisorFull<'_> {
    fn to_content(&self) -> serde::Content {
        use serde::Content;
        Content::Map(vec![
            (Content::Str("report".to_string()), self.report.to_content()),
            (
                Content::Str("utilization".to_string()),
                self.utilization.to_content(),
            ),
            (
                Content::Str("counterfactuals".to_string()),
                self.counterfactuals.to_content(),
            ),
        ])
    }
}

/// Advisor output: the serializable report, the rendered text digest, and
/// the full baseline timelines (for `--full-json` dumps).
#[derive(Debug, Clone)]
pub struct AdvisorRun {
    pub json: AdvisorJson,
    pub text: String,
    /// Full occupancy step functions of the baseline run.
    pub timelines: UtilizationTimelines,
}

/// One advisor re-execution of scenario `base`, for [`advise`] runners:
/// the baseline (`observe`) keeps the scenario's outputs and captures; an
/// experiment runs with every output off, so the flags that trace the
/// baseline never trace the experiments.
pub fn run_experiment(base: &Scenario, perturb: Option<&PerturbSet>, observe: bool) -> ScenarioRun {
    let mut sc = base.clone();
    if observe {
        sc.outputs.capture = true;
    } else {
        sc.outputs = OutputSpec::default();
    }
    if let Some(p) = perturb {
        sc.perturb = Some(p.clone());
    }
    run_scenario(&sc)
}

/// Run the full advisor workflow over one workload.
///
/// `runner(perturb, observe)` must deterministically re-execute the
/// workload — same seed, same problem — returning the makespan in seconds
/// and, when `observe` is set, the observability capture. The baseline runs
/// first (observed, unperturbed); then either the explicit `what_if`
/// experiments or, when that list is empty, every enumerated candidate ×
/// every `factors` entry, fanned out over `jobs` worker threads.
pub fn advise<F>(
    workload: &str,
    seed: u64,
    spec: &ClusterSpec,
    what_if: &[PerturbSet],
    factors: &[f64],
    jobs: usize,
    runner: F,
) -> Result<AdvisorRun, String>
where
    F: Fn(Option<&PerturbSet>, bool) -> (f64, Option<ObsCapture>) + Sync,
{
    let (baseline_s, cap) = runner(None, true);
    let cap = cap.ok_or("advisor runner returned no capture for the baseline run")?;
    let cp = CriticalPath::compute(&cap.trace);

    // Experiment list: explicit what-ifs verbatim, otherwise enumerated
    // candidates swept over the factor list. `cp_share_pct` records what
    // pure critical-path extrapolation would credit each experiment.
    let experiments: Vec<(PerturbSet, f64)> = if what_if.is_empty() {
        enumerate_candidates(&cap.trace, &spec.distinct_devices())
            .iter()
            .flat_map(|c| {
                factors.iter().map(|&f| {
                    (
                        PerturbSet::single(c.perturbation.with_factor(f)),
                        c.cp_share_pct,
                    )
                })
            })
            .collect()
    } else {
        what_if
            .iter()
            .map(|set| {
                let share = set
                    .items
                    .iter()
                    .map(|p| critical_share_pct(&cp, p.target))
                    .fold(0.0f64, f64::max);
                (set.clone(), share)
            })
            .collect()
    };

    // One full deterministic re-execution per experiment; results come back
    // in declared order, so the report is identical at any `jobs`.
    let sets: Vec<PerturbSet> = experiments.iter().map(|(s, _)| s.clone()).collect();
    let makespans = sweep(sets, jobs, |set| runner(Some(&set), false).0);

    let baseline_ns = SimTime::from_secs_f64(baseline_s).as_nanos();
    let mut report = WhatIfReport::new(workload, seed, baseline_ns);
    for ((set, share), m) in experiments.iter().zip(&makespans) {
        report.push(&set.items[0], *share, SimTime::from_secs_f64(*m).as_nanos());
        // A joint set is one experiment; report it under its joint spec.
        if set.items.len() > 1 {
            report.rows.last_mut().expect("just pushed").spec = set.spec();
        }
    }
    report.rank();

    // Baseline-side context: occupancy timelines and, for the experiments
    // that change what the balancer believes about device speed, an audit
    // replay showing which recorded placements would flip.
    let utilization = UtilizationTimelines::compute(&cap.trace);
    let mut counterfactuals = Vec::new();
    if !cap.audit.is_empty() {
        for (set, _) in &experiments {
            for p in &set.items {
                if !matches!(
                    p.target,
                    PerturbTarget::DeviceSpeed | PerturbTarget::BalancerTable
                ) {
                    continue;
                }
                let replay = replay_audit(&cap.audit, |node, didx| {
                    match spec.node_devices[node].get(didx) {
                        Some(name) if p.matches_device(name) => p.factor,
                        _ => 1.0,
                    }
                });
                counterfactuals.push(CounterfactualSummary {
                    spec: p.spec(),
                    decisions: replay.decisions,
                    replayed: replay.replayed,
                    flips: replay.flips.len(),
                    flip_pct: replay.flip_pct(),
                });
            }
        }
    }

    let mut text = report.to_text();
    text.push('\n');
    text.push_str(&utilization.text_digest());
    if !counterfactuals.is_empty() {
        text.push_str("\nbalancer counterfactuals (audit replay under the perturbed table):\n");
        let w = counterfactuals
            .iter()
            .map(|c| c.spec.len())
            .max()
            .unwrap_or(4);
        for c in &counterfactuals {
            let _ = writeln!(
                text,
                "  {:<w$}  {}/{} placements flip ({:.1}%)",
                c.spec, c.flips, c.replayed, c.flip_pct
            );
        }
    }

    Ok(AdvisorRun {
        json: AdvisorJson {
            report,
            utilization: UtilizationSummary::of(&utilization),
            counterfactuals,
        },
        text,
        timelines: utilization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_list_splits_and_validates() {
        let set = PerturbSet::parse_list("dev:*:2x+ net:0.5").unwrap();
        assert_eq!(set.items.len(), 2);
        assert_eq!(set.spec(), "dev:*:2x+net:*:0.5x");
        assert_eq!(PerturbSet::parse_list("steal:2x").unwrap().items.len(), 1);
        assert!(PerturbSet::parse_list("").is_err());
        assert!(PerturbSet::parse_list("dev:*:zero").is_err());
    }

    #[test]
    fn sim_config_perturbations_scale_the_right_knobs() {
        let mut cfg = SimConfig::default();
        let base = cfg.clone();
        PerturbSet::parse_list("net:2x+steal:2x")
            .unwrap()
            .apply_sim_config(&mut cfg);
        assert!((cfg.net.bandwidth_gbs - base.net.bandwidth_gbs * 2.0).abs() < 1e-12);
        assert_eq!(
            cfg.net.latency,
            SimTime::from_secs_f64(base.net.latency.as_secs_f64() / 2.0)
        );
        assert_eq!(
            cfg.steal_retry,
            SimTime::from_secs_f64(base.steal_retry.as_secs_f64() / 2.0)
        );
        assert_eq!(
            cfg.steal_timeout,
            SimTime::from_secs_f64(base.steal_timeout.as_secs_f64() / 2.0)
        );
        // Device-level perturbations leave the engine config alone.
        let mut cfg2 = SimConfig::default();
        PerturbSet::parse_list("dev:*:2x+pcie:*:2x+table:*:2x")
            .unwrap()
            .apply_sim_config(&mut cfg2);
        assert_eq!(cfg2.net, SimConfig::default().net);
        assert_eq!(cfg2.steal_retry, SimConfig::default().steal_retry);
    }

    #[test]
    fn runtime_perturbations_reach_the_device_slots() {
        use cashmere::RuntimeConfig;
        use cashmere_apps::kmeans::KmeansApp;
        let reg = KmeansApp::registry(cashmere_apps::KernelSet::Optimized);
        let spec = vec![vec!["gtx480".to_string(), "k20".to_string()]];
        let mut rt = CashmereLeafRuntime::new(reg, &spec, RuntimeConfig::default()).unwrap();
        PerturbSet::parse_list("dev:k20:2x+pcie:*:4x")
            .unwrap()
            .apply_runtime(&mut rt);
        assert_eq!(rt.nodes[0].devices[0].sim.speed_scale, 1.0);
        assert_eq!(rt.nodes[0].devices[1].sim.speed_scale, 2.0);
        assert_eq!(rt.nodes[0].devices[0].sim.pcie_scale, 4.0);
        assert_eq!(rt.nodes[0].devices[1].sim.pcie_scale, 4.0);
    }
}
