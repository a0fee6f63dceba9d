//! Declarative experiment scenarios: one serializable spec drives the
//! whole stack.
//!
//! The paper's contributions are scenario-shaped — the Sec. III-B balancer
//! minimizes a "scenario" of per-device times, and the entire Sec. IV
//! evaluation is a matrix of cluster topologies × applications × device
//! mixes. [`Scenario`] is the single declarative surface for that matrix:
//! cluster topology with per-node device lists, application with problem
//! size and measurement series, seeds, balancer policy, Satin
//! steal/backoff knobs, the interconnect model, optional fault plan,
//! optional advisor perturbations, and observability outputs. Every field
//! serializes to a
//! canonical JSON form, so a spec can be stored, diffed, shipped in CI, and
//! — crucially — embedded as the `provenance` block of every report, making
//! any published number re-runnable byte-identically from its own output
//! file.
//!
//! [`run_scenario`] is the one driver behind every bench binary: it threads
//! the spec through `satin::SimConfig`, `cashmere::RuntimeConfig`,
//! `netsim::NetConfig`, and the DES fault/observability hooks. The bins are
//! thin presets that *construct* scenarios (see [`Scenario::paper`]) and
//! hand them to this driver and the sweep executor.
//!
//! The checked-in `bench/scenarios/` directory is the executable catalog of
//! supported configurations; `--scenario file.json` on any bench bin loads
//! and runs an arbitrary spec, `--dump-scenario` prints the fully-resolved
//! spec(s) without running (see [`cli`]).

pub mod cli;

use crate::advisor::PerturbSet;
use crate::obs::ObsCapture;
use crate::runners::{kernel_set, node_grain, AppId, RecoverySummary, RunOutcome, Series};
use cashmere::balancer::Policy;
use cashmere::{
    build_cluster, AuditEntry, CashmereApp, ClusterSpec, KernelRegistry, RuntimeConfig,
};
use cashmere_apps::kmeans::{self, KmeansApp, KmeansProblem};
use cashmere_apps::matmul::{MatmulApp, MatmulProblem};
use cashmere_apps::nbody::{self, NbodyApp, NbodyProblem};
use cashmere_apps::raytracer::{RaytracerApp, RaytracerProblem};
use cashmere_apps::{AppMode, KernelSet};
use cashmere_des::fault::FaultPlan;
use cashmere_des::obs::{prof, PerturbTarget};
use cashmere_des::SimTime;
use cashmere_hwdesc::DeviceKind;
use cashmere_netsim::NetConfig;
use cashmere_satin::{
    ClusterSim, Counter, CpuLeafRuntime, LeafRuntime, RunReport, SimConfig, StealKind,
};
use serde::{Content, DeError, Deserialize, Serialize};

// The offline serde shim's derive supports no `#[serde(...)]` attributes,
// so the JSON forms below (internally-tagged `Problem`, defaulted fields,
// unknown-field rejection) are hand-written against its `Content` model.

fn skey(name: &str) -> Content {
    Content::Str(name.to_string())
}

fn map_get<'a>(m: &'a [(Content, Content)], key: &str) -> Option<&'a Content> {
    m.iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| v)
}

/// Reject unknown (and non-string) keys so typos fail loudly instead of
/// silently running the default.
fn check_fields<'a>(
    m: impl IntoIterator<Item = &'a (Content, Content)>,
    known: &[&str],
    ty: &str,
) -> Result<(), DeError> {
    for (k, _) in m {
        let Some(k) = k.as_str() else {
            return Err(DeError::custom(format!("non-string key in `{ty}`")));
        };
        if !known.contains(&k) {
            return Err(DeError::custom(format!("unknown field `{k}` in `{ty}`")));
        }
    }
    Ok(())
}

fn req_field<T: Deserialize>(m: &[(Content, Content)], key: &str, ty: &str) -> Result<T, DeError> {
    match map_get(m, key) {
        Some(v) => T::from_content(v),
        None => Err(DeError::missing_field(key, ty)),
    }
}

/// Absent and `null` both mean "take the default".
fn opt_field<T: Deserialize>(m: &[(Content, Content)], key: &str) -> Result<Option<T>, DeError> {
    match map_get(m, key) {
        None | Some(Content::Null) => Ok(None),
        Some(v) => T::from_content(v).map(Some),
    }
}

/// Problem size of one scenario. `Paper` resolves to the application's
/// Sec. V measurement scale; the per-app variants pin explicit dimensions
/// (the ablation and Gantt experiments shrink or reshape the paper
/// problems).
///
/// JSON form is internally tagged: `{"kind": "paper"}`,
/// `{"kind": "kmeans", "n": …, "k": …, "d": …, "iterations": …}`, ….
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Problem {
    /// The application's paper-scale problem (Table II / Sec. V).
    #[default]
    Paper,
    Raytracer {
        width: u64,
        height: u64,
        samples: u64,
    },
    Matmul {
        n: u64,
        m: u64,
        p: u64,
    },
    Kmeans {
        n: u64,
        k: u64,
        d: u64,
        iterations: u32,
    },
    Nbody {
        bodies: u64,
        iterations: u32,
    },
}

impl Problem {
    /// Which application the explicit variants belong to; `None` for
    /// [`Problem::Paper`] (valid for every app).
    pub fn app(&self) -> Option<AppId> {
        match self {
            Problem::Paper => None,
            Problem::Raytracer { .. } => Some(AppId::Raytracer),
            Problem::Matmul { .. } => Some(AppId::Matmul),
            Problem::Kmeans { .. } => Some(AppId::Kmeans),
            Problem::Nbody { .. } => Some(AppId::Nbody),
        }
    }
}

impl Serialize for Problem {
    fn to_content(&self) -> Content {
        let kind = |k: &str| (skey("kind"), skey(k));
        match *self {
            Problem::Paper => Content::Map(vec![kind("paper")]),
            Problem::Raytracer {
                width,
                height,
                samples,
            } => Content::Map(vec![
                kind("raytracer"),
                (skey("width"), width.to_content()),
                (skey("height"), height.to_content()),
                (skey("samples"), samples.to_content()),
            ]),
            Problem::Matmul { n, m, p } => Content::Map(vec![
                kind("matmul"),
                (skey("n"), n.to_content()),
                (skey("m"), m.to_content()),
                (skey("p"), p.to_content()),
            ]),
            Problem::Kmeans {
                n,
                k,
                d,
                iterations,
            } => Content::Map(vec![
                kind("kmeans"),
                (skey("n"), n.to_content()),
                (skey("k"), k.to_content()),
                (skey("d"), d.to_content()),
                (skey("iterations"), iterations.to_content()),
            ]),
            Problem::Nbody { bodies, iterations } => Content::Map(vec![
                kind("nbody"),
                (skey("bodies"), bodies.to_content()),
                (skey("iterations"), iterations.to_content()),
            ]),
        }
    }
}

impl Deserialize for Problem {
    fn from_content(content: &Content) -> Result<Problem, DeError> {
        const TY: &str = "Problem";
        let m = content
            .as_map()
            .ok_or_else(|| DeError::expected("map", TY, content))?;
        let kind: String = req_field(m, "kind", TY)?;
        match kind.as_str() {
            "paper" => {
                check_fields(m, &["kind"], TY)?;
                Ok(Problem::Paper)
            }
            "raytracer" => {
                check_fields(m, &["kind", "width", "height", "samples"], TY)?;
                Ok(Problem::Raytracer {
                    width: req_field(m, "width", TY)?,
                    height: req_field(m, "height", TY)?,
                    samples: req_field(m, "samples", TY)?,
                })
            }
            "matmul" => {
                check_fields(m, &["kind", "n", "m", "p"], TY)?;
                Ok(Problem::Matmul {
                    n: req_field(m, "n", TY)?,
                    m: req_field(m, "m", TY)?,
                    p: req_field(m, "p", TY)?,
                })
            }
            "kmeans" => {
                check_fields(m, &["kind", "n", "k", "d", "iterations"], TY)?;
                Ok(Problem::Kmeans {
                    n: req_field(m, "n", TY)?,
                    k: req_field(m, "k", TY)?,
                    d: req_field(m, "d", TY)?,
                    iterations: req_field(m, "iterations", TY)?,
                })
            }
            "nbody" => {
                check_fields(m, &["kind", "bodies", "iterations"], TY)?;
                Ok(Problem::Nbody {
                    bodies: req_field(m, "bodies", TY)?,
                    iterations: req_field(m, "iterations", TY)?,
                })
            }
            other => Err(DeError::unknown_variant(other, TY)),
        }
    }
}

/// Observability outputs of one scenario. All off by default; a scenario
/// with outputs off runs untraced (zero observability overhead).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutputSpec {
    /// Keep the span trace / metrics / audit capture in memory even when no
    /// file output is requested (the advisor and the Gantt renderer read
    /// the capture directly).
    pub capture: bool,
    /// Chrome trace-event output path (plus `<path>.audit.json`).
    pub trace: Option<String>,
    /// Print critical-path / metrics / audit summaries after the run.
    pub explain: bool,
    /// OpenMetrics text exposition output path.
    pub metrics_out: Option<String>,
    /// Flight-recorder cadence: sample cluster state into a probe series
    /// every this much virtual time (nanoseconds in JSON). Implies capture.
    pub probe_interval: Option<SimTime>,
    /// Probe series CSV output path (`.om` / `.trace.json` siblings are
    /// derived from it).
    pub probe_out: Option<String>,
    /// Provenance-bearing report path; `None` uses
    /// `bench/out/scenario_<name>.json` (under `chaos`, where the spec is
    /// the base, the degradation curve's `bench/out/chaos_<name>.json`).
    pub report: Option<String>,
    /// Host self-profiler output stem: writes `<stem>.collapsed` (flamegraph
    /// input), `<stem>.json` and `<stem>.txt`. Profiles the *simulator host*,
    /// never the simulated cluster — observer-pure by construction, so it is
    /// deliberately excluded from [`OutputSpec::observe`].
    pub self_profile: Option<String>,
}

impl OutputSpec {
    /// Does the run need tracing enabled at all?
    pub fn observe(&self) -> bool {
        self.capture
            || self.trace.is_some()
            || self.explain
            || self.metrics_out.is_some()
            || self.probe_interval.is_some()
            || self.probe_out.is_some()
    }

    /// Overlay the command-line flags (`flags`, parsed into a spec of their
    /// own) on this spec: a field the flags set beats the spec's, an unset
    /// one leaves it alone, and a switch is on if either turns it on. A
    /// `--probe` with no path from the flags or the spec writes `probes.csv`.
    pub fn overlay(&mut self, flags: &OutputSpec) {
        fn set<T: Clone>(field: &mut Option<T>, flag: &Option<T>) {
            if flag.is_some() {
                field.clone_from(flag);
            }
        }
        self.capture |= flags.capture;
        self.explain |= flags.explain;
        set(&mut self.trace, &flags.trace);
        set(&mut self.metrics_out, &flags.metrics_out);
        set(&mut self.probe_interval, &flags.probe_interval);
        set(&mut self.probe_out, &flags.probe_out);
        set(&mut self.report, &flags.report);
        set(&mut self.self_profile, &flags.self_profile);
        if flags.probe_interval.is_some() && self.probe_out.is_none() {
            self.probe_out = Some("probes.csv".to_string());
        }
    }
}

impl Serialize for OutputSpec {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (skey("capture"), self.capture.to_content()),
            (skey("trace"), self.trace.to_content()),
            (skey("explain"), self.explain.to_content()),
            (skey("metrics_out"), self.metrics_out.to_content()),
            (skey("probe_interval"), self.probe_interval.to_content()),
            (skey("probe_out"), self.probe_out.to_content()),
            (skey("report"), self.report.to_content()),
            (skey("self_profile"), self.self_profile.to_content()),
        ])
    }
}

impl Deserialize for OutputSpec {
    fn from_content(content: &Content) -> Result<OutputSpec, DeError> {
        const TY: &str = "OutputSpec";
        let m = content
            .as_map()
            .ok_or_else(|| DeError::expected("map", TY, content))?;
        check_fields(
            m,
            &[
                "capture",
                "trace",
                "explain",
                "metrics_out",
                "probe_interval",
                "probe_out",
                "report",
                "self_profile",
            ],
            TY,
        )?;
        Ok(OutputSpec {
            capture: opt_field(m, "capture")?.unwrap_or_default(),
            trace: opt_field(m, "trace")?,
            explain: opt_field(m, "explain")?.unwrap_or_default(),
            metrics_out: opt_field(m, "metrics_out")?,
            probe_interval: opt_field(m, "probe_interval")?,
            probe_out: opt_field(m, "probe_out")?,
            report: opt_field(m, "report")?,
            self_profile: opt_field(m, "self_profile")?,
        })
    }
}

fn default_device_jobs() -> u64 {
    8
}
fn default_seed() -> u64 {
    42
}
fn default_cores() -> usize {
    8
}
fn default_job_overhead() -> SimTime {
    SimTime::from_micros(20)
}
/// Ibis/Satin's steal round trip on QDR IB is tens of microseconds; a
/// 50 µs retry keeps fast devices fed on heterogeneous clusters.
fn default_steal_retry() -> SimTime {
    SimTime::from_micros(50)
}
fn default_steal_retry_max() -> SimTime {
    SimTime::from_secs(10)
}
fn default_steal_timeout() -> SimTime {
    SimTime::from_millis(5)
}
fn default_net() -> NetConfig {
    NetConfig::qdr_infiniband()
}
fn default_overlap() -> bool {
    true
}
fn default_orphan_reuse() -> bool {
    true
}

/// The structured scheduling-policy spec: device placement (the Cashmere
/// balancer) plus steal-victim selection (the Satin engine). Two JSON
/// forms parse:
///
/// - the legacy bare string, e.g. `"scenario"` — placement only, steal at
///   the default (aliases like `greedy` normalize on load);
/// - the structured map, e.g.
///   `{"placement": "heft", "steal": "recent-victim"}` — either field may
///   be omitted and defaults.
///
/// The canonical form stays a fixed point for both: specs with the default
/// steal policy serialize as the compact string (so every pre-arena
/// artifact and catalog file remains canonical byte-for-byte), and specs
/// with a non-default steal policy serialize as the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicySpec {
    pub placement: Policy,
    pub steal: StealKind,
}

impl PolicySpec {
    pub fn new(placement: Policy, steal: StealKind) -> PolicySpec {
        PolicySpec { placement, steal }
    }

    /// A spec with the given placement policy and the default steal policy.
    pub fn placement(placement: Policy) -> PolicySpec {
        PolicySpec {
            placement,
            steal: StealKind::default(),
        }
    }

    /// Compact display label, `<placement>` or `<placement>+<steal>`.
    pub fn label(&self) -> String {
        if self.steal == StealKind::default() {
            self.placement.name().to_string()
        } else {
            format!("{}+{}", self.placement.name(), self.steal.name())
        }
    }
}

const POLICY_SPEC_FIELDS: [&str; 2] = ["placement", "steal"];

impl Serialize for PolicySpec {
    fn to_content(&self) -> Content {
        if self.steal == StealKind::default() {
            self.placement.to_content()
        } else {
            Content::Map(vec![
                (skey("placement"), self.placement.to_content()),
                (skey("steal"), self.steal.to_content()),
            ])
        }
    }
}

impl Deserialize for PolicySpec {
    fn from_content(content: &Content) -> Result<PolicySpec, DeError> {
        const TY: &str = "PolicySpec";
        match content {
            Content::Str(_) => Ok(PolicySpec::placement(Policy::from_content(content)?)),
            Content::Map(m) => {
                check_fields(m, &POLICY_SPEC_FIELDS, TY)?;
                Ok(PolicySpec {
                    placement: opt_field(m, "placement")?.unwrap_or_default(),
                    steal: opt_field(m, "steal")?.unwrap_or_default(),
                })
            }
            other => Err(DeError::expected("string or map", TY, other)),
        }
    }
}

/// One fully-described experiment. Serializable (canonical JSON via
/// [`Scenario::to_canonical_json`]); `name`, `app`, `series` and `nodes`
/// are required in JSON form, everything else defaults to the paper's
/// setup. Unknown fields are rejected, so typos fail loudly instead of
/// silently running the default.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Label; used in report paths (`bench/out/scenario_<name>.json`), so
    /// restricted to `[A-Za-z0-9._-]`.
    pub name: String,
    pub app: AppId,
    pub series: Series,
    /// Cluster topology: one device-name list per node (Table III style).
    /// Satin runs ignore the device lists but keep the node count.
    pub nodes: Vec<Vec<String>>,
    pub problem: Problem,
    /// Node-level job grain override; `None` resolves to the app's paper
    /// grain (≈1024 node jobs at paper scale).
    pub grain: Option<u64>,
    /// Device jobs per node-level leaf (the paper runs 8).
    pub device_jobs: u64,
    pub seed: u64,
    /// Scheduling policies: device placement (paper Sec. III-B default)
    /// and steal-victim selection (uniform-random default). Accepts the
    /// legacy bare-string form for placement-only specs.
    pub policy: PolicySpec,
    pub cores_per_node: usize,
    /// Concurrent node-level leaves per node; `None` resolves to the series
    /// default (Satin: one per core, Cashmere: 2 so transfers of one job
    /// set overlap kernels of the other — paper Sec. II-C3).
    pub leaf_slots: Option<usize>,
    /// CPU time to create/manage one job.
    pub job_overhead: SimTime,
    /// Back-off after an unsuccessful steal attempt (doubles up to
    /// `steal_retry_max`).
    pub steal_retry: SimTime,
    pub steal_retry_max: SimTime,
    /// Steal round-trip timeout (armed only under an active fault plan).
    pub steal_timeout: SimTime,
    /// Interconnect model (default: DAS-4's QDR InfiniBand).
    pub net: NetConfig,
    /// Overlap PCIe transfers with kernel execution (paper Sec. II-C3).
    pub overlap: bool,
    /// Injected faults, replayed deterministically from the seed.
    pub faults: Option<FaultPlan>,
    /// Satin-style orphan-result reuse on crash recovery (default on).
    /// `false` is the ablation: every orphaned result is re-executed.
    pub orphan_reuse: bool,
    /// Advisor perturbations applied to the whole re-execution
    /// (virtual-speed what-ifs).
    pub perturb: Option<PerturbSet>,
    pub outputs: OutputSpec,
}

/// Field names of the JSON form, in canonical (declaration) order.
const SCENARIO_FIELDS: [&str; 21] = [
    "name",
    "app",
    "series",
    "nodes",
    "problem",
    "grain",
    "device_jobs",
    "seed",
    "policy",
    "cores_per_node",
    "leaf_slots",
    "job_overhead",
    "steal_retry",
    "steal_retry_max",
    "steal_timeout",
    "net",
    "overlap",
    "faults",
    "orphan_reuse",
    "perturb",
    "outputs",
];

impl Serialize for Scenario {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (skey("name"), self.name.to_content()),
            (skey("app"), self.app.to_content()),
            (skey("series"), self.series.to_content()),
            (skey("nodes"), self.nodes.to_content()),
            (skey("problem"), self.problem.to_content()),
            (skey("grain"), self.grain.to_content()),
            (skey("device_jobs"), self.device_jobs.to_content()),
            (skey("seed"), self.seed.to_content()),
            (skey("policy"), self.policy.to_content()),
            (skey("cores_per_node"), self.cores_per_node.to_content()),
            (skey("leaf_slots"), self.leaf_slots.to_content()),
            (skey("job_overhead"), self.job_overhead.to_content()),
            (skey("steal_retry"), self.steal_retry.to_content()),
            (skey("steal_retry_max"), self.steal_retry_max.to_content()),
            (skey("steal_timeout"), self.steal_timeout.to_content()),
            (skey("net"), self.net.to_content()),
            (skey("overlap"), self.overlap.to_content()),
            (skey("faults"), self.faults.to_content()),
            (skey("orphan_reuse"), self.orphan_reuse.to_content()),
            (skey("perturb"), self.perturb.to_content()),
            (skey("outputs"), self.outputs.to_content()),
        ])
    }
}

impl Deserialize for Scenario {
    fn from_content(content: &Content) -> Result<Scenario, DeError> {
        const TY: &str = "Scenario";
        let m = content
            .as_map()
            .ok_or_else(|| DeError::expected("map", TY, content))?;
        // Scenarios written while the kernel engine was a run option carry
        // `"interp": "vm"`; read it and drop it. Kernels only run on the VM,
        // so any other value cannot be honoured.
        let current = m.iter().filter(|(k, _)| k.as_str() != Some("interp"));
        check_fields(current, &SCENARIO_FIELDS, TY)?;
        if let Some(v) = map_get(m, "interp").filter(|v| v.as_str() != Some("vm")) {
            let got = v
                .as_str()
                .map_or(v.kind().to_string(), |s| format!("\"{s}\""));
            return Err(DeError::custom(format!(
                "field `interp` in `{TY}`: kernels always run on the VM, so only \"vm\" is accepted, got {got}"
            )));
        }
        Ok(Scenario {
            name: req_field(m, "name", TY)?,
            app: req_field(m, "app", TY)?,
            series: req_field(m, "series", TY)?,
            nodes: req_field(m, "nodes", TY)?,
            problem: opt_field(m, "problem")?.unwrap_or_default(),
            grain: opt_field(m, "grain")?,
            device_jobs: opt_field(m, "device_jobs")?.unwrap_or_else(default_device_jobs),
            seed: opt_field(m, "seed")?.unwrap_or_else(default_seed),
            policy: opt_field(m, "policy")?.unwrap_or_default(),
            cores_per_node: opt_field(m, "cores_per_node")?.unwrap_or_else(default_cores),
            leaf_slots: opt_field(m, "leaf_slots")?,
            job_overhead: opt_field(m, "job_overhead")?.unwrap_or_else(default_job_overhead),
            steal_retry: opt_field(m, "steal_retry")?.unwrap_or_else(default_steal_retry),
            steal_retry_max: opt_field(m, "steal_retry_max")?
                .unwrap_or_else(default_steal_retry_max),
            steal_timeout: opt_field(m, "steal_timeout")?.unwrap_or_else(default_steal_timeout),
            net: opt_field(m, "net")?.unwrap_or_else(default_net),
            overlap: opt_field(m, "overlap")?.unwrap_or_else(default_overlap),
            faults: opt_field(m, "faults")?,
            orphan_reuse: opt_field(m, "orphan_reuse")?.unwrap_or_else(default_orphan_reuse),
            perturb: opt_field(m, "perturb")?,
            outputs: opt_field(m, "outputs")?.unwrap_or_default(),
        })
    }
}

impl Scenario {
    /// A scenario with every knob at the paper default.
    pub fn new(
        name: impl Into<String>,
        app: AppId,
        series: Series,
        cluster: &ClusterSpec,
    ) -> Scenario {
        Scenario {
            name: name.into(),
            app,
            series,
            nodes: cluster.node_devices.clone(),
            problem: Problem::default(),
            grain: None,
            device_jobs: default_device_jobs(),
            seed: default_seed(),
            policy: PolicySpec::default(),
            cores_per_node: default_cores(),
            leaf_slots: None,
            job_overhead: default_job_overhead(),
            steal_retry: default_steal_retry(),
            steal_retry_max: default_steal_retry_max(),
            steal_timeout: default_steal_timeout(),
            net: default_net(),
            overlap: default_overlap(),
            faults: None,
            orphan_reuse: default_orphan_reuse(),
            perturb: None,
            outputs: OutputSpec::default(),
        }
    }

    /// The paper-scale preset every figure/table run starts from:
    /// `<app>-<series>-<N>n`, paper problem, paper knobs.
    pub fn paper(app: AppId, series: Series, cluster: &ClusterSpec, seed: u64) -> Scenario {
        let name = format!(
            "{}-{}-{}n",
            app.name().replace('-', ""),
            series.name(),
            cluster.nodes()
        );
        Scenario::new(name, app, series, cluster).with_seed(seed)
    }

    pub fn named(mut self, name: impl Into<String>) -> Scenario {
        self.name = name.into();
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    pub fn with_problem(mut self, problem: Problem) -> Scenario {
        self.problem = problem;
        self
    }

    pub fn with_grain(mut self, grain: u64) -> Scenario {
        self.grain = Some(grain);
        self
    }

    /// Set the placement policy (the steal policy is untouched).
    pub fn with_policy(mut self, policy: Policy) -> Scenario {
        self.policy.placement = policy;
        self
    }

    /// Set the steal-victim policy (the placement policy is untouched).
    pub fn with_steal(mut self, steal: StealKind) -> Scenario {
        self.policy.steal = steal;
        self
    }

    pub fn with_leaf_slots(mut self, slots: usize) -> Scenario {
        self.leaf_slots = Some(slots);
        self
    }

    pub fn with_net(mut self, net: NetConfig) -> Scenario {
        self.net = net;
        self
    }

    pub fn with_overlap(mut self, overlap: bool) -> Scenario {
        self.overlap = overlap;
        self
    }

    pub fn with_faults(mut self, faults: FaultPlan) -> Scenario {
        self.faults = if faults.is_empty() {
            None
        } else {
            Some(faults)
        };
        self
    }

    /// Drop any declared fault plan (the tournament's fault-free arm).
    pub fn with_faults_cleared(mut self) -> Scenario {
        self.faults = None;
        self
    }

    pub fn with_orphan_reuse(mut self, on: bool) -> Scenario {
        self.orphan_reuse = on;
        self
    }

    pub fn with_perturb(mut self, perturb: PerturbSet) -> Scenario {
        self.perturb = if perturb.items.is_empty() {
            None
        } else {
            Some(perturb)
        };
        self
    }

    /// Keep the observability capture in memory after the run.
    pub fn with_capture(mut self, capture: bool) -> Scenario {
        self.outputs.capture = capture;
        self
    }

    /// Run the flight recorder at the given cadence (implies capture).
    pub fn with_probe(mut self, interval: SimTime) -> Scenario {
        self.outputs.probe_interval = Some(interval);
        self
    }

    /// The scenario as embedded in provenance blocks: outputs stripped,
    /// because the generating invocation's observability flags are not part
    /// of the experiment (and must not change artifact bytes).
    pub fn provenance_form(&self) -> Scenario {
        Scenario {
            outputs: OutputSpec::default(),
            ..self.clone()
        }
    }

    /// The cluster topology as the runtime's [`ClusterSpec`].
    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec {
            node_devices: self.nodes.clone(),
        }
    }

    /// Canonical JSON form: pretty-printed with every field present in
    /// declaration order, trailing newline. Parsing and re-serializing a
    /// canonical spec is byte-identical — the property the provenance
    /// machinery rests on.
    pub fn to_canonical_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("scenario serializes");
        s.push('\n');
        s
    }

    /// Parse a scenario from JSON (canonical or terse — omitted optional
    /// fields take the paper defaults).
    pub fn from_json(text: &str) -> Result<Scenario, String> {
        serde_json::from_str(text).map_err(|e| format!("cannot parse scenario: {e}"))
    }

    /// Load and parse a scenario file.
    pub fn load(path: &str) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Scenario::from_json(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Cross-field validation: everything a spec can get wrong *before*
    /// building a cluster — unknown device names, fault plans that target
    /// absent nodes, perturbation selectors that name devices the cluster
    /// does not carry, degenerate problem sizes.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".into());
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return Err(format!(
                "scenario name `{}` must match [A-Za-z0-9._-]+ (it names the report file)",
                self.name
            ));
        }
        if self.nodes.is_empty() {
            return Err("cluster has no nodes".into());
        }
        for (i, devs) in self.nodes.iter().enumerate() {
            if devs.is_empty() && self.series != Series::Satin {
                return Err(format!(
                    "node {i} has no devices (Cashmere series need at least one per node)"
                ));
            }
            for d in devs {
                if DeviceKind::from_level_name(d).is_none() {
                    return Err(format!(
                        "node {i} names unknown device `{d}` (known: {})",
                        DeviceKind::ALL
                            .iter()
                            .map(|k| k.level_name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
            }
        }
        if let Some(app) = self.problem.app() {
            if app != self.app {
                return Err(format!(
                    "problem is for {} but the scenario runs {}",
                    app.name(),
                    self.app.name()
                ));
            }
        }
        match self.problem {
            Problem::Paper => {}
            Problem::Raytracer {
                width,
                height,
                samples,
            } => {
                if width == 0 || height == 0 || samples == 0 {
                    return Err("raytracer problem dimensions must be positive".into());
                }
            }
            Problem::Matmul { n, m, p } => {
                if n == 0 || m == 0 || p == 0 {
                    return Err("matmul problem dimensions must be positive".into());
                }
            }
            Problem::Kmeans {
                n,
                k,
                d,
                iterations,
            } => {
                if n == 0 || k == 0 || d == 0 || iterations == 0 {
                    return Err("k-means problem dimensions must be positive".into());
                }
            }
            Problem::Nbody { bodies, iterations } => {
                if bodies == 0 || iterations == 0 {
                    return Err("n-body problem dimensions must be positive".into());
                }
            }
        }
        if self.grain == Some(0) {
            return Err("grain must be positive".into());
        }
        if self.device_jobs == 0 {
            return Err("device_jobs must be positive".into());
        }
        if self.cores_per_node == 0 {
            return Err("cores_per_node must be positive".into());
        }
        if self.leaf_slots == Some(0) {
            return Err("leaf_slots must be positive".into());
        }
        if !(self.net.bandwidth_gbs.is_finite() && self.net.bandwidth_gbs > 0.0) {
            return Err(format!(
                "network bandwidth must be positive and finite, got {}",
                self.net.bandwidth_gbs
            ));
        }
        if !(self.net.cpu_contention.is_finite() && self.net.cpu_contention >= 0.0) {
            return Err("network cpu_contention must be finite and non-negative".into());
        }
        if let Some(plan) = &self.faults {
            plan.validate(self.nodes.len())
                .map_err(|e| format!("fault plan: {e}"))?;
        }
        if self.outputs.probe_interval == Some(SimTime::ZERO) {
            return Err("outputs.probe_interval must be positive".into());
        }
        if let Some(set) = &self.perturb {
            for p in &set.items {
                if !(p.factor.is_finite() && p.factor > 0.0) {
                    return Err(format!(
                        "perturbation `{}` has a non-positive factor",
                        p.spec()
                    ));
                }
                let device_scoped = matches!(
                    p.target,
                    PerturbTarget::DeviceSpeed
                        | PerturbTarget::PcieLink
                        | PerturbTarget::BalancerTable
                );
                if device_scoped && p.selector != "*" {
                    if DeviceKind::from_level_name(&p.selector).is_none() {
                        return Err(format!(
                            "perturbation `{}` names unknown device `{}`",
                            p.spec(),
                            p.selector
                        ));
                    }
                    if !self.nodes.iter().flatten().any(|d| p.matches_device(d)) {
                        return Err(format!(
                            "perturbation `{}` selects device `{}` but no node carries one",
                            p.spec(),
                            p.selector
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The engine configuration this scenario resolves to. `nodes` is left
    /// at 1 — the Satin path overrides it with the cluster size and
    /// `build_cluster` derives it from the spec.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig {
            cores_per_node: self.cores_per_node,
            net: self.net,
            seed: self.seed,
            job_overhead: self.job_overhead,
            steal_retry: self.steal_retry,
            steal_retry_max: self.steal_retry_max,
            steal_timeout: self.steal_timeout,
            // Cashmere pipelines two sets of device jobs per node (kernels
            // of one overlap transfers of the other); Satin leaves are
            // one-core jobs, so every core may run one.
            max_concurrent_leaves: self.leaf_slots.unwrap_or(match self.series {
                Series::Satin => usize::MAX,
                _ => 2,
            }),
            orphan_reuse: self.orphan_reuse,
            trace: self.outputs.observe(),
            probe_interval: self.outputs.probe_interval,
            steal: self.policy.steal,
            ..SimConfig::default()
        };
        // Fault plans that do not validate for this cluster size (e.g.
        // crashing a node the spec does not have) are skipped with a note,
        // so one plan can ride through a whole node sweep.
        if let Some(plan) = &self.faults {
            match plan.validate(self.nodes.len()) {
                Ok(()) => cfg.faults = plan.clone(),
                Err(e) => {
                    if !plan.is_empty() {
                        eprintln!(
                            "note: fault plan skipped for the {}-node {} run: {e}",
                            self.nodes.len(),
                            self.series.name()
                        );
                    }
                }
            }
        }
        if let Some(p) = &self.perturb {
            p.apply_sim_config(&mut cfg);
        }
        cfg
    }

    /// The Cashmere runtime configuration this scenario resolves to.
    pub fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            balancer_policy: self.policy.placement,
            overlap: self.overlap,
            ..RuntimeConfig::default()
        }
    }

    /// Node-level grain: the explicit override or the app's paper grain.
    pub fn node_grain(&self) -> u64 {
        self.grain.unwrap_or_else(|| node_grain(self.app))
    }
}

/// Everything one scenario run produces: the measured outcome and, when the
/// scenario's outputs ask for observability, the capture.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    pub outcome: RunOutcome,
    pub cap: Option<ObsCapture>,
}

/// A provenance-bearing report: the resolved scenario next to its measured
/// outcome. Any published number can be re-run byte-identically from this
/// block alone ([`ScenarioReport::rerun`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    pub schema: u32,
    /// The fully-resolved scenario that produced `outcome`.
    pub provenance: Scenario,
    pub outcome: RunOutcome,
}

impl ScenarioReport {
    pub fn new(scenario: &Scenario, outcome: RunOutcome) -> ScenarioReport {
        ScenarioReport {
            schema: 1,
            provenance: scenario.provenance_form(),
            outcome,
        }
    }

    pub fn to_canonical_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }

    pub fn from_json(text: &str) -> Result<ScenarioReport, String> {
        serde_json::from_str(text).map_err(|e| format!("cannot parse scenario report: {e}"))
    }

    /// Re-execute the embedded provenance scenario. The returned report
    /// serializes byte-identically to `self` — the reproducibility
    /// guarantee the scenario layer exists for.
    pub fn rerun(&self) -> ScenarioReport {
        ScenarioReport::new(&self.provenance, run_scenario(&self.provenance).outcome)
    }
}

/// Failure accounting of one run: the human-readable summary plus the
/// structured recovery counters. Both `None` for fault-free runs, keeping
/// their artifact bytes unchanged.
fn failures_of(r: &RunReport) -> (Option<String>, Option<RecoverySummary>) {
    if !r.saw_failures() {
        return (None, None);
    }
    (
        Some(r.failure_summary()),
        Some(RecoverySummary::from_report(r)),
    )
}

/// What the scenario driver knows of one application: the problem a
/// scenario resolves to, the phantom-mode app, its kernels, its flop count
/// and how a built cluster runs the measured computation. One impl per
/// app, dispatched statically; `measure` is generic over the leaf runtime,
/// so the Satin and Cashmere clusters are driven by the same code.
trait ScenarioApp: CashmereApp + Sized {
    type Problem: Copy;

    /// The explicit problem of `p`, or the paper-scale one.
    fn resolve(p: Problem) -> Self::Problem;

    /// The phantom-mode app at node grain `grain`, expanding each
    /// node-level leaf into `device_jobs` device jobs.
    fn build(pr: Self::Problem, grain: u64, device_jobs: u64) -> Self;

    fn kernels(set: KernelSet) -> KernelRegistry;

    fn flops(pr: &Self::Problem) -> f64;

    /// Run the measured computation; returns its virtual seconds.
    fn measure<L: LeafRuntime<Self>>(cs: &mut ClusterSim<Self, L>, pr: &Self::Problem) -> f64;
}

impl ScenarioApp for RaytracerApp {
    type Problem = RaytracerProblem;

    fn resolve(p: Problem) -> RaytracerProblem {
        match p {
            Problem::Raytracer {
                width,
                height,
                samples,
            } => RaytracerProblem {
                width,
                height,
                samples,
                seed: 1,
            },
            _ => RaytracerProblem::paper(),
        }
    }

    fn build(pr: RaytracerProblem, grain: u64, device_jobs: u64) -> Self {
        RaytracerApp::new(pr, AppMode::Phantom, grain, device_jobs)
    }

    fn kernels(set: KernelSet) -> KernelRegistry {
        RaytracerApp::registry(set)
    }

    fn flops(pr: &RaytracerProblem) -> f64 {
        pr.flops()
    }

    fn measure<L: LeafRuntime<Self>>(cs: &mut ClusterSim<Self, L>, pr: &RaytracerProblem) -> f64 {
        let _ = cs.run_root((0, pr.pixels()));
        cs.report().makespan.as_secs_f64()
    }
}

impl ScenarioApp for MatmulApp {
    type Problem = MatmulProblem;

    fn resolve(p: Problem) -> MatmulProblem {
        match p {
            Problem::Matmul { n, m, p } => MatmulProblem { n, m, p },
            _ => MatmulProblem::paper(),
        }
    }

    fn build(pr: MatmulProblem, grain: u64, device_jobs: u64) -> Self {
        MatmulApp::phantom(pr, grain, device_jobs)
    }

    fn kernels(set: KernelSet) -> KernelRegistry {
        MatmulApp::registry(set)
    }

    fn flops(pr: &MatmulProblem) -> f64 {
        pr.flops()
    }

    fn measure<L: LeafRuntime<Self>>(cs: &mut ClusterSim<Self, L>, pr: &MatmulProblem) -> f64 {
        // Strong scaling includes distributing B to every node — the
        // O(n²) traffic that makes matmul communication-heavy.
        let start = cs.now();
        cs.broadcast(pr.p * pr.m * 4);
        let bcast = (cs.now() - start).as_secs_f64();
        let root = cs.app().row_job(0, pr.n);
        let _ = cs.run_root(root);
        bcast + cs.report().makespan.as_secs_f64()
    }
}

impl ScenarioApp for KmeansApp {
    type Problem = KmeansProblem;

    fn resolve(p: Problem) -> KmeansProblem {
        match p {
            Problem::Kmeans {
                n,
                k,
                d,
                iterations,
            } => KmeansProblem {
                n,
                k,
                d,
                iterations,
            },
            _ => KmeansProblem::paper(),
        }
    }

    fn build(pr: KmeansProblem, grain: u64, device_jobs: u64) -> Self {
        KmeansApp::phantom(pr, grain, device_jobs)
    }

    fn kernels(set: KernelSet) -> KernelRegistry {
        KmeansApp::registry(set)
    }

    fn flops(pr: &KmeansProblem) -> f64 {
        pr.total_flops()
    }

    fn measure<L: LeafRuntime<Self>>(cs: &mut ClusterSim<Self, L>, pr: &KmeansProblem) -> f64 {
        let cents = cs.app().centroids.clone();
        let (_, elapsed) = kmeans::run_iterations(cs, pr, &cents, false);
        elapsed.as_secs_f64()
    }
}

impl ScenarioApp for NbodyApp {
    type Problem = NbodyProblem;

    fn resolve(p: Problem) -> NbodyProblem {
        match p {
            Problem::Nbody { bodies, iterations } => NbodyProblem {
                n: bodies,
                iterations,
                dt: 0.01,
            },
            _ => NbodyProblem::paper(),
        }
    }

    fn build(pr: NbodyProblem, grain: u64, device_jobs: u64) -> Self {
        NbodyApp::phantom(pr, grain, device_jobs)
    }

    fn kernels(set: KernelSet) -> KernelRegistry {
        NbodyApp::registry(set)
    }

    fn flops(pr: &NbodyProblem) -> f64 {
        pr.total_flops()
    }

    fn measure<L: LeafRuntime<Self>>(cs: &mut ClusterSim<Self, L>, pr: &NbodyProblem) -> f64 {
        nbody::run_iterations(cs, pr, |_| {}).as_secs_f64()
    }
}

/// Build the scenario's cluster for app `A` — plain Satin on CPU leaves,
/// or Cashmere with the series' kernels — and run it: the measured
/// seconds, flops, run report and capture.
fn run_as<A: ScenarioApp>(sc: &Scenario) -> (f64, f64, RunReport, Option<ObsCapture>) {
    /// Drive a built cluster and collect its report and, when observing,
    /// its capture (`audit` takes the leaf runtime's placement audit log).
    fn drive<A: ScenarioApp, L: LeafRuntime<A>>(
        mut cs: ClusterSim<A, L>,
        pr: &A::Problem,
        observe: bool,
        audit: fn(L) -> Vec<AuditEntry>,
    ) -> (f64, RunReport, Option<ObsCapture>) {
        let makespan_s = A::measure(&mut cs, pr);
        let rec = cs.into_record();
        if !observe {
            return (makespan_s, rec.report, None);
        }
        let cap = ObsCapture::from_record(rec, audit);
        (makespan_s, cap.report.clone(), Some(cap))
    }

    let pr = A::resolve(sc.problem);
    let spec = sc.cluster();
    let cfg = sc.sim_config();
    let (makespan_s, report, cap) = match sc.series {
        Series::Satin => {
            // Satin: leaves sized for a single core (8× more jobs per node).
            let app = A::build(pr, (sc.node_grain() / 8).max(1), 1);
            let cfg = SimConfig {
                nodes: spec.nodes(),
                ..cfg
            };
            let cs = ClusterSim::new(app, CpuLeafRuntime, cfg);
            drive(cs, &pr, sc.outputs.observe(), |_| Vec::new())
        }
        _ => {
            let app = A::build(pr, sc.node_grain(), sc.device_jobs);
            let reg = A::kernels(kernel_set(sc.series));
            let mut cs = build_cluster(app, reg, &spec, cfg, sc.runtime_config()).unwrap();
            if let Some(p) = &sc.perturb {
                p.apply_runtime(cs.leaf_runtime_mut());
            }
            drive(cs, &pr, sc.outputs.observe(), |rt| rt.audit)
        }
    };
    (makespan_s, A::flops(&pr), report, cap)
}

/// Run one scenario end to end — the single driver behind every bench bin.
///
/// Deterministic: two calls with equal scenarios produce identical
/// outcomes (and identical captures), which is what makes the embedded
/// provenance block of a report re-runnable byte-for-byte at any `--jobs`.
pub fn run_scenario(sc: &Scenario) -> ScenarioRun {
    let _prof = prof::scope("scenario::run");
    let (makespan_s, total_flops, report, cap) = match sc.app {
        AppId::Raytracer => run_as::<RaytracerApp>(sc),
        AppId::Matmul => run_as::<MatmulApp>(sc),
        AppId::Kmeans => run_as::<KmeansApp>(sc),
        AppId::Nbody => run_as::<NbodyApp>(sc),
    };

    let (failure_summary, recovery) = failures_of(&report);
    let outcome = RunOutcome {
        app: sc.app.name().to_string(),
        series: sc.series.name().to_string(),
        nodes: sc.nodes.len(),
        makespan_s,
        gflops: total_flops / makespan_s / 1e9,
        kernels_run: report[Counter::KernelsRun],
        cpu_fallbacks: report[Counter::CpuFallbacks],
        steals_ok: report[Counter::StealsOk],
        network_bytes: report.bytes_total(),
        failure_summary,
        recovery,
    };
    ScenarioRun { outcome, cap }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        Scenario::new(
            "test-small",
            AppId::Kmeans,
            Series::CashmereOpt,
            &ClusterSpec::homogeneous(2, "gtx480"),
        )
        .with_problem(Problem::Kmeans {
            n: 1_000_000,
            k: 256,
            d: 4,
            iterations: 1,
        })
        .with_grain(125_000)
    }

    #[test]
    fn canonical_json_round_trips() {
        let sc = small()
            .with_faults(FaultPlan {
                device_failures: vec![cashmere_des::fault::DeviceFailure {
                    node: 1,
                    device: 0,
                    at: SimTime::from_millis(5),
                }],
                ..FaultPlan::default()
            })
            .with_perturb(PerturbSet::parse_list("dev:gtx480:2x").unwrap());
        let json = sc.to_canonical_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, sc);
        assert_eq!(back.to_canonical_json(), json);
    }

    #[test]
    fn terse_json_takes_defaults() {
        let sc = Scenario::from_json(
            r#"{"name":"t","app":"kmeans","series":"cashmere-opt","nodes":[["gtx480"]]}"#,
        )
        .unwrap();
        assert_eq!(sc.seed, 42);
        assert_eq!(sc.device_jobs, 8);
        assert_eq!(sc.problem, Problem::Paper);
        assert_eq!(sc.policy, PolicySpec::default());
        assert!(sc.overlap);
        assert!(sc.validate().is_ok());
    }

    #[test]
    fn policy_spec_parses_both_forms_and_normalizes_aliases() {
        // Legacy bare string, alias spelling: `greedy` normalizes to
        // `fastest-only` on load, so the canonical form is a fixed point.
        let sc = Scenario::from_json(
            r#"{"name":"t","app":"kmeans","series":"cashmere-opt","nodes":[["gtx480"]],"policy":"greedy"}"#,
        )
        .unwrap();
        assert_eq!(sc.policy.placement, Policy::FastestOnly);
        assert_eq!(sc.policy.steal, StealKind::UniformRandom);
        let canonical = sc.to_canonical_json();
        assert!(canonical.contains("\"fastest-only\""), "{canonical}");
        assert!(!canonical.contains("greedy"), "{canonical}");
        let back = Scenario::from_json(&canonical).unwrap();
        assert_eq!(back, sc);
        assert_eq!(back.to_canonical_json(), canonical);

        // Structured map form; omitted fields default.
        let sc = Scenario::from_json(
            r#"{"name":"t","app":"kmeans","series":"cashmere-opt","nodes":[["gtx480"]],"policy":{"placement":"heft","steal":"recent-victim"}}"#,
        )
        .unwrap();
        assert_eq!(
            sc.policy,
            PolicySpec::new(Policy::Heft, StealKind::RecentVictim)
        );
        assert_eq!(sc.policy.label(), "heft+recent-victim");
        let canonical = sc.to_canonical_json();
        let back = Scenario::from_json(&canonical).unwrap();
        assert_eq!(back.policy, sc.policy);
        assert_eq!(back.to_canonical_json(), canonical);

        // A default-steal spec collapses to the compact string form, so
        // every pre-arena artifact stays canonical byte-for-byte.
        let sc = Scenario::from_json(
            r#"{"name":"t","app":"kmeans","series":"cashmere-opt","nodes":[["gtx480"]],"policy":{"placement":"round-robin"}}"#,
        )
        .unwrap();
        assert!(sc
            .to_canonical_json()
            .contains("\"policy\": \"round-robin\""));

        // Unknown placement names and unknown map fields fail loudly.
        assert!(Scenario::from_json(
            r#"{"name":"t","app":"kmeans","series":"cashmere-opt","nodes":[["gtx480"]],"policy":"bogus"}"#,
        )
        .is_err());
        assert!(Scenario::from_json(
            r#"{"name":"t","app":"kmeans","series":"cashmere-opt","nodes":[["gtx480"]],"policy":{"stealing":"scan"}}"#,
        )
        .is_err());
    }

    #[test]
    fn unknown_fields_rejected() {
        assert!(Scenario::from_json(
            r#"{"name":"t","app":"kmeans","series":"cashmere-opt","nodes":[["gtx480"]],"sede":7}"#,
        )
        .is_err());
    }

    #[test]
    fn retired_interp_field_reads_vm_and_rejects_the_rest() {
        const TERSE: &str =
            r#"{"name":"t","app":"kmeans","series":"cashmere-opt","nodes":[["gtx480"]]"#;
        let plain = Scenario::from_json(&format!("{TERSE}}}")).unwrap();
        let vm = Scenario::from_json(&format!(r#"{TERSE},"interp":"vm"}}"#)).unwrap();
        assert_eq!(vm, plain);
        let canonical = vm.to_canonical_json();
        assert!(!canonical.contains("interp"), "{canonical}");
        assert_eq!(Scenario::from_json(&canonical).unwrap(), plain);
        for bad in [r#""tree""#, "42"] {
            let err = Scenario::from_json(&format!(r#"{TERSE},"interp":{bad}}}"#)).unwrap_err();
            assert!(err.contains("`interp`"), "{err}");
        }
    }

    #[test]
    fn validate_catches_cross_field_errors() {
        assert!(small().validate().is_ok());
        // Unknown device.
        let mut sc = small();
        sc.nodes[0][0] = "gtx9000".into();
        assert!(sc.validate().unwrap_err().contains("unknown device"));
        // Perturbation selecting a device no node carries.
        let sc = small().with_perturb(PerturbSet::parse_list("dev:k20:2x").unwrap());
        assert!(sc.validate().unwrap_err().contains("no node carries"));
        // Fault plan targeting an absent node.
        let sc = small().with_faults(FaultPlan {
            node_crashes: vec![cashmere_des::fault::NodeCrash {
                node: 9,
                at: SimTime::from_millis(1),
            }],
            ..FaultPlan::default()
        });
        assert!(sc.validate().unwrap_err().contains("fault plan"));
        // Problem/app mismatch.
        let sc = small().with_problem(Problem::Matmul {
            n: 64,
            m: 64,
            p: 64,
        });
        assert!(sc.validate().unwrap_err().contains("matmul"));
        // Degenerate knobs.
        let mut sc = small();
        sc.device_jobs = 0;
        assert!(sc.validate().is_err());
        let mut sc = small();
        sc.nodes.clear();
        assert!(sc.validate().is_err());
        let mut sc = small();
        sc.name = "no spaces allowed".into();
        assert!(sc.validate().is_err());
    }

    #[test]
    fn run_scenario_is_deterministic() {
        let sc = small();
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(
            serde_json::to_string(&a.outcome).unwrap(),
            serde_json::to_string(&b.outcome).unwrap()
        );
        assert!(a.outcome.makespan_s > 0.0);
        assert!(a.cap.is_none(), "outputs off => no capture");
        let observed = run_scenario(&sc.clone().with_capture(true));
        assert!(observed.cap.is_some());
        // Tracing must not change the measured physics.
        assert_eq!(observed.outcome.makespan_s, a.outcome.makespan_s);
    }

    #[test]
    fn faulted_sweep_is_byte_identical_at_any_jobs_width() {
        // The chaos bin's contract: a sweep of fault scenarios (crashes,
        // rejoins, lossy links) reassembled by the parallel executor is
        // byte-identical between --jobs 1 and --jobs 4, and the faulted
        // outcomes carry the recovery-cost section.
        use cashmere_des::fault::{LinkFault, NodeCrash, NodeJoin};
        let faulted = |crash_ms: u64| {
            small()
                .named(format!("test-chaos-{crash_ms}"))
                .with_faults(FaultPlan {
                    node_crashes: vec![NodeCrash {
                        node: 1,
                        at: SimTime::from_millis(crash_ms),
                    }],
                    node_joins: vec![NodeJoin {
                        node: 1,
                        at: SimTime::from_millis(crash_ms + 5),
                    }],
                    link_faults: vec![LinkFault {
                        src: None,
                        dst: Some(0),
                        from: SimTime::from_millis(1),
                        until: SimTime::from_millis(crash_ms + 8),
                        loss: 0.1,
                        spike: SimTime::from_micros(200),
                        spike_probability: 0.2,
                    }],
                    ..FaultPlan::default()
                })
        };
        let scenarios: Vec<Scenario> = vec![small(), faulted(2), faulted(4), faulted(6)];
        let outcomes = |jobs: usize| -> Vec<String> {
            crate::sweep(scenarios.clone(), jobs, |sc| run_scenario(&sc))
                .into_iter()
                .map(|r| serde_json::to_string(&r.outcome).unwrap())
                .collect()
        };
        let serial = outcomes(1);
        assert_eq!(serial, outcomes(4), "sweep must not depend on --jobs");
        let faulted_outcome: RunOutcome = serde_json::from_str(&serial[1]).unwrap();
        let rec = faulted_outcome.recovery.expect("faulted run has recovery");
        assert_eq!(rec.crashes, 1);
        assert_eq!(rec.joins, 1);
        let clean: RunOutcome = serde_json::from_str(&serial[0]).unwrap();
        assert!(clean.recovery.is_none(), "fault-free run reports none");
    }
}
