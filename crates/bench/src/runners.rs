//! Shared experiment vocabulary: applications, measurement series, run
//! outcomes, and the Fig. 6 kernel-only measurement.
//!
//! Cluster execution lives in [`crate::scenario`]: every bench bin builds
//! [`crate::scenario::Scenario`] values and hands them to
//! [`crate::scenario::run_scenario`].
//!
//! Grain choices (node-level jobs ≈ 1024, device jobs = 8 per leaf, Satin
//! leaves 8× finer) mirror the paper's setup: "Satin has more overhead in
//! job creation because it needs to create 8 times more jobs to keep one
//! node busy" (Sec. V-B).

use cashmere::{ClusterSpec, KernelCall, KernelRegistry, PreparedKernel};
use cashmere_apps::kmeans::{KmeansApp, KmeansProblem};
use cashmere_apps::matmul::{MatmulApp, MatmulProblem};
use cashmere_apps::nbody::{NbodyApp, NbodyProblem};
use cashmere_apps::raytracer::{RaytracerApp, RaytracerProblem};
use cashmere_apps::{AppMode, KernelSet};
use cashmere_devsim::SimDevice;
use cashmere_hwdesc::DeviceKind;
use cashmere_satin::{Counter, RunReport};
use serde::{Deserialize, Serialize};

/// The four applications (Table II order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    Raytracer,
    Matmul,
    Kmeans,
    Nbody,
}

// Hand-written so the JSON form is the stable CLI token (`raytracer`,
// `matmul`, `kmeans`, `nbody`), with the paper's display spellings
// (`k-means`, `n-body`) accepted on input via [`AppId::parse`].
impl Serialize for AppId {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.token().to_string())
    }
}

impl Deserialize for AppId {
    fn from_content(content: &serde::Content) -> Result<AppId, serde::DeError> {
        match content.as_str() {
            Some(s) => AppId::parse(s).ok_or_else(|| serde::DeError::unknown_variant(s, "AppId")),
            None => Err(serde::DeError::expected("string", "AppId", content)),
        }
    }
}

impl AppId {
    pub const ALL: [AppId; 4] = [AppId::Raytracer, AppId::Matmul, AppId::Kmeans, AppId::Nbody];

    pub fn name(self) -> &'static str {
        match self {
            AppId::Raytracer => "raytracer",
            AppId::Matmul => "matmul",
            AppId::Kmeans => "k-means",
            AppId::Nbody => "n-body",
        }
    }

    /// The undashed CLI/JSON token (`kmeans` where [`AppId::name`] says
    /// `k-means`).
    pub fn token(self) -> &'static str {
        match self {
            AppId::Raytracer => "raytracer",
            AppId::Matmul => "matmul",
            AppId::Kmeans => "kmeans",
            AppId::Nbody => "nbody",
        }
    }

    pub fn parse(s: &str) -> Option<AppId> {
        match s.to_ascii_lowercase().as_str() {
            "raytracer" | "rt" => Some(AppId::Raytracer),
            "matmul" | "mm" => Some(AppId::Matmul),
            "kmeans" | "k-means" | "km" => Some(AppId::Kmeans),
            "nbody" | "n-body" | "nb" => Some(AppId::Nbody),
            _ => None,
        }
    }
}

/// The paper's three measurement series (Sec. IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    Satin,
    CashmereUnopt,
    CashmereOpt,
}

// Hand-written: the JSON form is [`Series::name`] (`satin`,
// `cashmere-unopt`, `cashmere-opt`).
impl Serialize for Series {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.name().to_string())
    }
}

impl Deserialize for Series {
    fn from_content(content: &serde::Content) -> Result<Series, serde::DeError> {
        match content.as_str() {
            Some(s) => Series::parse(s).ok_or_else(|| serde::DeError::unknown_variant(s, "Series")),
            None => Err(serde::DeError::expected("string", "Series", content)),
        }
    }
}

impl Series {
    pub const ALL: [Series; 3] = [Series::Satin, Series::CashmereUnopt, Series::CashmereOpt];

    pub fn name(self) -> &'static str {
        match self {
            Series::Satin => "satin",
            Series::CashmereUnopt => "cashmere-unopt",
            Series::CashmereOpt => "cashmere-opt",
        }
    }

    pub fn parse(s: &str) -> Option<Series> {
        Series::ALL.into_iter().find(|x| x.name() == s)
    }
}

/// Recovery-cost accounting of one faulted run: how gracefully the cluster
/// degraded. Present on a [`RunOutcome`] only when the run observed
/// injected faults, so fault-free artifacts keep their exact bytes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoverySummary {
    pub crashes: u64,
    /// Nodes that (re)joined mid-run.
    pub joins: u64,
    /// Subtree roots re-queued for re-execution after crashes.
    pub jobs_restarted: u64,
    /// Orphan results salvaged into the global result table.
    pub orphans_harvested: u64,
    /// Salvaged results reused instead of re-executing their subtree.
    pub orphans_reused: u64,
    /// Salvaged results that expired unused (holder crashed or run ended).
    pub orphans_expired: u64,
    /// Virtual time spent redoing lost work (re-executed leaf compute plus
    /// aborted device time).
    pub work_lost_s: f64,
    /// Wall (virtual) time with at least one restarted subtree outstanding.
    pub time_to_recover_s: f64,
}

impl RecoverySummary {
    pub fn from_report(r: &RunReport) -> RecoverySummary {
        RecoverySummary {
            crashes: r[Counter::Crashes],
            joins: r[Counter::Joins],
            jobs_restarted: r[Counter::JobsRestarted],
            orphans_harvested: r[Counter::OrphansHarvested],
            orphans_reused: r[Counter::OrphansReused],
            orphans_expired: r[Counter::OrphansExpired],
            work_lost_s: r.time(Counter::RecoveryTime).as_secs_f64(),
            time_to_recover_s: r.time(Counter::TimeToRecover).as_secs_f64(),
        }
    }
}

/// Result of one measured run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    pub app: String,
    pub series: String,
    pub nodes: usize,
    pub makespan_s: f64,
    pub gflops: f64,
    pub kernels_run: u64,
    pub cpu_fallbacks: u64,
    pub steals_ok: u64,
    pub network_bytes: u64,
    /// Failure-accounting section of the run report; present only when the
    /// run observed injected faults (`--faults`).
    pub failure_summary: Option<String>,
    /// Recovery-cost counters; present only alongside `failure_summary`.
    pub recovery: Option<RecoverySummary>,
}

/// The application's Table III heterogeneous cluster.
pub fn hetero_cluster(app: AppId) -> ClusterSpec {
    match app {
        AppId::Raytracer | AppId::Matmul => ClusterSpec::paper_hetero_small(),
        AppId::Kmeans => ClusterSpec::paper_hetero_kmeans(),
        AppId::Nbody => ClusterSpec::paper_hetero_nbody(),
    }
}

/// Node-level grain at paper scale. The light-communication applications
/// use ≈1024 node jobs so the end-of-run tail (in-flight leaves cannot
/// migrate) stays a small fraction of the makespan even on the 22-node
/// heterogeneous configurations; matmul uses ≈256 taller jobs because each
/// device job re-ships a `B` column panel, so smaller jobs would multiply
/// PCIe traffic.
pub(crate) fn node_grain(app: AppId) -> u64 {
    match app {
        AppId::Raytracer => RaytracerProblem::paper().pixels() / 1024,
        AppId::Matmul => 128,     // 32768 rows / 128 = 256 jobs
        AppId::Kmeans => 262_144, // ≈1024 jobs of 268 M points
        AppId::Nbody => 1_954,    // 2 M bodies / 1024
    }
}

pub(crate) const DEVICE_JOBS: u64 = 8;

pub(crate) fn kernel_set(series: Series) -> KernelSet {
    match series {
        Series::CashmereOpt => KernelSet::Optimized,
        _ => KernelSet::Unoptimized,
    }
}

/// One Fig. 6 launch: a device, the application's kernel registry, the
/// kernel prepared for the device, and the kernel call one representative
/// device job of the paper-scale problem makes, with that job's flop
/// count.
pub struct Fig6Launch {
    pub device: SimDevice,
    pub registry: KernelRegistry,
    pub kernel: PreparedKernel,
    pub call: KernelCall,
    pub flops: f64,
}

impl Fig6Launch {
    /// The launch [`kernel_gflops`] measures; `None` if the device cannot
    /// be instantiated or no kernel version applies to it.
    pub fn new(app: AppId, set: KernelSet, device: DeviceKind) -> Option<Fig6Launch> {
        let job = (0u64, node_grain(app) / DEVICE_JOBS);

        let (registry, call, flops) = match app {
            AppId::Raytracer => {
                let pr = RaytracerProblem::paper();
                let a = RaytracerApp::new(pr, AppMode::Phantom, node_grain(app), DEVICE_JOBS);
                (
                    RaytracerApp::registry(set),
                    cashmere::CashmereApp::kernel_call(&a, &job),
                    pr.job_flops(job.1),
                )
            }
            AppId::Matmul => {
                let pr = MatmulProblem::paper();
                let a = MatmulApp::phantom(pr, node_grain(app), DEVICE_JOBS);
                // One device job exactly as the cluster runs produce them: a
                // node-grain row stripe × one of the 8 column panels.
                let djob =
                    cashmere::CashmereApp::device_jobs(&a, &a.row_job(0, node_grain(app)))[0];
                (
                    MatmulApp::registry(set),
                    cashmere::CashmereApp::kernel_call(&a, &djob),
                    pr.block_flops(djob.rows(), djob.cols()),
                )
            }
            AppId::Kmeans => {
                let pr = KmeansProblem::paper();
                let a = KmeansApp::phantom(pr, node_grain(app), DEVICE_JOBS);
                (
                    KmeansApp::registry(set),
                    cashmere::CashmereApp::kernel_call(&a, &job),
                    pr.job_flops(job.1),
                )
            }
            AppId::Nbody => {
                let pr = NbodyProblem::paper();
                let a = NbodyApp::phantom(pr, node_grain(app), DEVICE_JOBS);
                (
                    NbodyApp::registry(set),
                    cashmere::CashmereApp::kernel_call(&a, &job),
                    pr.job_flops(job.1),
                )
            }
        };
        let h = registry.hierarchy();
        let device = SimDevice::new(h, device.level(h)).ok()?;
        let kernel = registry.prepare(call.kernel, &device)?;
        Some(Fig6Launch {
            device,
            registry,
            kernel,
            call,
            flops,
        })
    }

    /// Modelled seconds of the launch run by its prepared kernel outside
    /// the process-wide launch table, scaled by the call's calibration
    /// factor: the oracle [`kernel_gflops`] is checked against, and a VM
    /// run on every call. `None` when the launch fails.
    pub fn direct_seconds(&self) -> Option<f64> {
        let stats = self.kernel.run_sampled(&self.call.args).ok()?;
        Some(
            self.kernel
                .seconds(stats, self.call.extra_scale, &self.device.params),
        )
    }
}

/// One Fig. 6 measurement.
#[derive(Debug, Clone, Copy)]
pub struct KernelMeasurement {
    pub gflops: f64,
    /// This measurement ran the VM: the process-wide launch table did not
    /// hold the launch yet.
    pub interpreted: bool,
}

/// Fig. 6 measurement: kernel execution time alone (no transfers) for one
/// representative device job of the paper-scale problem. The launch goes
/// through the registry and the process-wide launch table, as a cluster
/// run's first launch of a shape does, so devices that select the same
/// version at the same geometry share one VM run.
pub fn measure_kernel(app: AppId, set: KernelSet, device: DeviceKind) -> Option<KernelMeasurement> {
    let _prof = cashmere_des::obs::prof::scope("kernel::measure");
    let mut launch = Fig6Launch::new(app, set, device)?;
    let (seconds, sight) = launch.registry.sampled_seconds(
        &launch.kernel,
        &launch.call.args,
        launch.call.extra_scale,
        &launch.device.params,
    );
    Some(KernelMeasurement {
        gflops: launch.flops / seconds.ok()? / 1e9,
        interpreted: sight.interpreted,
    })
}

/// The GFLOPS of [`measure_kernel`].
pub fn kernel_gflops(app: AppId, set: KernelSet, device: DeviceKind) -> Option<f64> {
    measure_kernel(app, set, device).map(|m| m.gflops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_and_series_parse() {
        assert_eq!(AppId::parse("matmul"), Some(AppId::Matmul));
        assert_eq!(AppId::parse("K-MEANS"), Some(AppId::Kmeans));
        assert_eq!(AppId::parse("bogus"), None);
        assert_eq!(Series::ALL.len(), 3);
        assert_eq!(Series::parse("cashmere-opt"), Some(Series::CashmereOpt));
    }

    #[test]
    fn ids_serialize_kebab_case() {
        assert_eq!(
            serde_json::to_string(&AppId::Kmeans).unwrap(),
            r#""kmeans""#
        );
        assert_eq!(
            serde_json::from_str::<AppId>(r#""k-means""#).unwrap(),
            AppId::Kmeans
        );
        assert_eq!(
            serde_json::to_string(&Series::CashmereUnopt).unwrap(),
            r#""cashmere-unopt""#
        );
        assert_eq!(
            serde_json::from_str::<Series>(r#""satin""#).unwrap(),
            Series::Satin
        );
    }

    #[test]
    fn kernel_gflops_sane_for_matmul() {
        let un = kernel_gflops(AppId::Matmul, KernelSet::Unoptimized, DeviceKind::Gtx480).unwrap();
        let opt = kernel_gflops(AppId::Matmul, KernelSet::Optimized, DeviceKind::Gtx480).unwrap();
        assert!(opt > un * 2.0, "opt {opt:.0} vs unopt {un:.0}");
        assert!(opt < 1345.0, "below GTX480 peak");
    }
}
