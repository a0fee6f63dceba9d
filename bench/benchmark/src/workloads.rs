//! The benchmark's workloads: seeded operation lists built from the public
//! scenario layer, and the one call that executes an operation.
//!
//! An operation is one `kernel_gflops` call or one `run_scenario` call.
//! Seed 42 reproduces the committed `bench/out` artifacts; any other seed
//! draws a different but equally valid op list.

use cashmere::ClusterSpec;
use cashmere_apps::KernelSet;
use cashmere_bench::{kernel_gflops, run_scenario, AppId, Problem, RunOutcome, Scenario, Series};
use cashmere_des::fault::{FaultPlan, LinkFault, NodeCrash, NodeJoin};
use cashmere_des::{SimTime, StreamRng};
use cashmere_hwdesc::DeviceKind;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Kernels,
    Scaling,
    Hetero,
    Chaos,
    /// Committed non-terminating fault plans; outside the default set.
    Repro,
}

impl Workload {
    /// The workloads a run measures when none is named.
    pub const DEFAULT: [Workload; 4] = [
        Workload::Kernels,
        Workload::Scaling,
        Workload::Hetero,
        Workload::Chaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::Scaling => "scaling",
            Workload::Hetero => "hetero",
            Workload::Chaos => "chaos",
            Workload::Repro => "repro",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        [
            Workload::Kernels,
            Workload::Scaling,
            Workload::Hetero,
            Workload::Chaos,
            Workload::Repro,
        ]
        .into_iter()
        .find(|w| w.name() == s)
    }

    /// Sweep workers inside one child. Only `hetero` has uneven point sizes
    /// for the parallel sweep executor to balance; the rest run on the
    /// calling thread.
    pub fn jobs(self) -> usize {
        match self {
            Workload::Hetero => cashmere_bench::default_jobs().min(2),
            _ => 1,
        }
    }

    /// The operation list for `seed`, in execution order.
    pub fn ops(self, seed: u64) -> Result<Vec<Op>, String> {
        Ok(match self {
            Workload::Kernels => kernel_ops(seed),
            Workload::Scaling => scaling_ops(seed),
            Workload::Hetero => hetero_ops(seed),
            Workload::Chaos => chaos_ops(seed),
            Workload::Repro => repro_ops()?,
        })
    }
}

/// One operation: what to run, under a name unique within its workload.
// At most 60 ops per list, built once per child: the unboxed scenario
// costs nothing worth an indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Op {
    Kernel {
        app: AppId,
        set: KernelSet,
        device: DeviceKind,
    },
    Cluster(Scenario),
}

/// The simulated result of one operation. Checked bit for bit: `f64`
/// fields serialize in shortest round-trip form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// Fig. 6 kernel GFLOPS (`None` when the device has no usable version).
    Kernel(Option<f64>),
    Run(RunOutcome),
}

impl Outcome {
    pub fn json(&self) -> String {
        serde_json::to_string(self).expect("outcome serializes")
    }

    pub fn run(&self) -> Option<&RunOutcome> {
        match self {
            Outcome::Run(r) => Some(r),
            Outcome::Kernel(_) => None,
        }
    }

    /// The facts of this outcome that no seed can change: the kernel result
    /// itself, and for a cluster run its shape, its total work and, when no
    /// fault struck, the kernels it launched. Used to check ops at seeds
    /// without a golden file against the seed-42 golden of the same name.
    pub fn invariant(&self) -> String {
        match self {
            Outcome::Kernel(_) => self.json(),
            Outcome::Run(r) => {
                let gflop = r.gflops * r.makespan_s;
                let mut s = format!("{} {} {} work={:.9e}", r.app, r.series, r.nodes, gflop);
                if r.recovery.is_none() {
                    s.push_str(&format!(
                        " kernels={} fallbacks={}",
                        r.kernels_run, r.cpu_fallbacks
                    ));
                }
                s
            }
        }
    }
}

impl Op {
    pub fn name(&self) -> String {
        match self {
            Op::Kernel { app, set, device } => format!(
                "fig6.{}.{}.{}",
                app.token(),
                device.level_name(),
                match set {
                    KernelSet::Unoptimized => "unopt",
                    KernelSet::Optimized => "opt",
                }
            ),
            Op::Cluster(sc) => sc.name.clone(),
        }
    }

    /// Canonical text of the op's full input, for the generator tests.
    #[cfg(test)]
    pub fn spec(&self) -> String {
        match self {
            Op::Kernel { .. } => self.name(),
            Op::Cluster(sc) => sc.to_canonical_json(),
        }
    }

    pub fn run(&self) -> Outcome {
        match self {
            Op::Kernel { app, set, device } => Outcome::Kernel(kernel_gflops(*app, *set, *device)),
            Op::Cluster(sc) => Outcome::Run(run_scenario(sc).outcome),
        }
    }
}

/// Fig. 6: 4 apps × 7 devices × {unopt, opt}. Kernel measurements take no
/// seed, so the seed permutes the launch order instead.
fn kernel_ops(seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for app in AppId::ALL {
        for device in DeviceKind::ALL {
            for set in [KernelSet::Unoptimized, KernelSet::Optimized] {
                ops.push(Op::Kernel { app, set, device });
            }
        }
    }
    let mut rng = StreamRng::named(seed, "benchmark.kernels");
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i + 1));
    }
    ops
}

/// Figs. 7–14, exactly as the `scaling` bin enumerates them.
fn scaling_ops(seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for app in AppId::ALL {
        for series in Series::ALL {
            for nodes in [1, 2, 4, 8, 16] {
                let spec = ClusterSpec::homogeneous(nodes, "gtx480");
                ops.push(Op::Cluster(Scenario::paper(app, series, &spec, seed)));
            }
        }
    }
    ops
}

/// Table III configurations, as the `hetero` bin builds them.
fn hetero_config(app: AppId) -> ClusterSpec {
    match app {
        AppId::Raytracer | AppId::Matmul => ClusterSpec::paper_hetero_small(),
        AppId::Kmeans => ClusterSpec::paper_hetero_kmeans(),
        AppId::Nbody => ClusterSpec::paper_hetero_nbody(),
    }
}

/// Paper Table III GFLOPS, in `AppId::ALL` order.
pub const PAPER_TABLE3_GFLOPS: [f64; 4] = [1883.0, 3927.0, 10644.0, 13517.0];

/// Mean |measured − paper| / paper over the four Table III rows, in
/// percent, given each app's heterogeneous-run GFLOPS.
pub fn paper_err_pct(hetero_gflops: &[f64; 4]) -> f64 {
    let sum: f64 = hetero_gflops
        .iter()
        .zip(PAPER_TABLE3_GFLOPS)
        .map(|(m, p)| (m - p).abs() / p)
        .sum();
    100.0 * sum / 4.0
}

/// Name of the measured heterogeneous run of `app` in the `hetero` list.
pub fn hetero_run_name(app: AppId) -> String {
    format!("{}-hetero", app.token())
}

/// Table III + Fig. 15: per app, one single-node calibration per distinct
/// node composition, the heterogeneous run, and 16× / 1× GTX480 runs.
fn hetero_ops(seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for app in AppId::ALL {
        let spec = hetero_config(app);
        let mut seen: Vec<&Vec<String>> = Vec::new();
        for devs in &spec.node_devices {
            if !seen.contains(&devs) {
                seen.push(devs);
                let one = ClusterSpec {
                    node_devices: vec![devs.clone()],
                };
                ops.push(Op::Cluster(
                    Scenario::paper(app, Series::CashmereOpt, &one, seed).named(format!(
                        "{}-single-{}",
                        app.token(),
                        devs.join(".")
                    )),
                ));
            }
        }
        ops.push(Op::Cluster(
            Scenario::paper(app, Series::CashmereOpt, &spec, seed).named(hetero_run_name(app)),
        ));
        for nodes in [16, 1] {
            let homo = ClusterSpec::homogeneous(nodes, "gtx480");
            ops.push(Op::Cluster(Scenario::paper(
                app,
                Series::CashmereOpt,
                &homo,
                seed,
            )));
        }
    }
    ops
}

/// Fault times are drawn from the committed fault-free makespan of the
/// chaos base, so plans need no baseline run before they exist.
pub const CHAOS_HORIZON_S: f64 = 0.056673046;

/// Fault-plan draws per seed. Only level 1 (crashes and rejoins, healthy
/// links) is measured: plans of levels 2–4 combine crashes with lossy
/// links, and about 2% of them never terminate (see `repro/`).
pub const CHAOS_PLANS: usize = 48;

/// The `chaos` bin's default base: k-means on six GTX480 nodes with a fine
/// grain, so crashes orphan completed subtree results.
pub fn chaos_base(seed: u64) -> Scenario {
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
    .with_seed(seed)
}

/// One fault plan of intensity `level`, drawn exactly as the `chaos` bin
/// draws it: crash up to `level` distinct workers at [15%, 60%] of the
/// horizon, half of them rejoining, and from level 2 on degrade the links
/// toward the master.
pub fn chaos_plan(
    rng_seed: u64,
    level: usize,
    seed_index: usize,
    nodes: usize,
    horizon: SimTime,
) -> FaultPlan {
    let mut rng = StreamRng::named(rng_seed, &format!("chaos.l{level}.s{seed_index}"));
    let at = |frac: f64| SimTime::from_nanos((frac * horizon.0 as f64) as u64);
    let mut plan = FaultPlan::none();
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
        if rng.unit() < 0.5 {
            plan.node_joins.push(NodeJoin {
                node,
                at: at(crash_frac + 0.05 + 0.1 * rng.unit()),
            });
        }
    }
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

/// The chaos-named scenario of one plan, as the `chaos` bin names it.
pub fn chaos_scenario(seed: u64, level: usize, seed_index: usize) -> Scenario {
    let base = chaos_base(seed);
    let plan = chaos_plan(
        seed,
        level,
        seed_index,
        base.nodes.len(),
        SimTime::from_secs_f64(CHAOS_HORIZON_S),
    );
    base.named(format!("chaos-base.chaos.l{level}.s{seed_index}"))
        .with_faults(plan)
}

/// The fault-free baseline plus `CHAOS_PLANS` level-1 plans.
fn chaos_ops(seed: u64) -> Vec<Op> {
    let mut ops = vec![Op::Cluster(chaos_base(seed).named("chaos-base.chaos.l0"))];
    for s in 0..CHAOS_PLANS {
        ops.push(Op::Cluster(chaos_scenario(seed, 1, s)));
    }
    ops
}

/// The benchmark's own directory (goldens, repro scenarios).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root the simulator is built from.
pub fn repo_root() -> &'static Path {
    bench_dir()
        .parent()
        .and_then(Path::parent)
        .expect("the benchmark lives two levels below the repository root")
}

/// Every `repro/*.json` scenario, by file name. The seed does not apply:
/// each file pins the exact spec that misbehaved.
fn repro_ops() -> Result<Vec<Op>, String> {
    let dir = bench_dir().join("repro");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let sc = Scenario::load(&p.to_string_lossy())?;
            sc.validate().map_err(|e| format!("{}: {e}", p.display()))?;
            Ok(Op::Cluster(sc))
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use serde::Content;

    /// Any JSON value, for reading the committed artifacts.
    pub(crate) struct Json(pub(crate) Content);

    impl Deserialize for Json {
        fn from_content(c: &Content) -> Result<Json, serde::DeError> {
            Ok(Json(c.clone()))
        }
    }

    pub(crate) fn field<'a>(c: &'a Content, key: &str) -> &'a Content {
        c.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k.as_str() == Some(key)))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing `{key}`"))
    }

    pub(crate) fn artifact(file: &str) -> Content {
        let text = std::fs::read_to_string(repo_root().join("bench/out").join(file)).unwrap();
        let Json(doc) = serde_json::from_str(&text).unwrap();
        doc
    }

    fn artifact_provenance(file: &str) -> Vec<Scenario> {
        Vec::<Scenario>::from_content(field(&artifact(file), "provenance")).unwrap()
    }

    fn specs(ops: &[Op]) -> Vec<String> {
        ops.iter().map(Op::spec).collect()
    }

    #[test]
    fn same_seed_same_list_other_seed_other_list() {
        for w in Workload::DEFAULT {
            let a = specs(&w.ops(42).unwrap());
            assert_eq!(a, specs(&w.ops(42).unwrap()), "{}", w.name());
            assert_ne!(a, specs(&w.ops(7).unwrap()), "{}", w.name());
            let names: std::collections::BTreeSet<String> =
                w.ops(42).unwrap().iter().map(Op::name).collect();
            assert_eq!(names.len(), a.len(), "{}: op names are unique", w.name());
        }
    }

    #[test]
    fn op_counts_match_the_paper_experiments() {
        let n = |w: Workload| w.ops(42).unwrap().len();
        assert_eq!(n(Workload::Kernels), 56);
        assert_eq!(n(Workload::Scaling), 60);
        assert_eq!(n(Workload::Hetero), 36);
        assert_eq!(n(Workload::Chaos), 1 + CHAOS_PLANS);
    }

    #[test]
    fn scaling_and_hetero_lists_equal_the_artifact_provenance() {
        for (w, file) in [
            (Workload::Scaling, "fig7_14_scaling.json"),
            (Workload::Hetero, "table3_fig15_hetero.json"),
        ] {
            let ours: Vec<Scenario> = w
                .ops(42)
                .unwrap()
                .into_iter()
                .map(|op| match op {
                    Op::Cluster(sc) => sc,
                    Op::Kernel { .. } => unreachable!(),
                })
                .collect();
            assert_eq!(ours, artifact_provenance(file), "{file}");
        }
    }

    #[test]
    fn chaos_plans_equal_the_artifact_provenance() {
        let prov = artifact_provenance("chaos_chaos-base.json");
        assert_eq!(prov.len(), 13);
        let Op::Cluster(l0) = &Workload::Chaos.ops(42).unwrap()[0] else {
            unreachable!()
        };
        assert_eq!(l0, &prov[0]);
        for level in 1..=4 {
            for s in 0..3 {
                let committed = &prov[(level - 1) * 3 + s + 1];
                assert_eq!(&chaos_scenario(42, level, s), committed, "l{level}.s{s}");
            }
        }
    }

    #[test]
    fn repro_scenarios_are_the_seed42_level4_plans() {
        let ops = repro_ops().unwrap();
        let names: Vec<String> = ops.iter().map(Op::name).collect();
        assert_eq!(
            names,
            ["chaos-base.chaos.l4.s11", "chaos-base.chaos.l4.s6"],
            "sorted by file name"
        );
        for op in &ops {
            let Op::Cluster(sc) = op else { unreachable!() };
            let s: usize = sc.name.rsplit_once(".s").unwrap().1.parse().unwrap();
            assert_eq!(sc, &chaos_scenario(42, 4, s));
        }
    }

    #[test]
    fn paper_error_of_the_committed_table3_is_20_1_percent() {
        let doc = artifact("table3_fig15_hetero.json");
        let rows = field(&doc, "data").as_seq().unwrap();
        let mut g = [0.0; 4];
        for (i, row) in rows.iter().enumerate() {
            g[i] = f64::from_content(field(row, "gflops")).unwrap();
        }
        let err = paper_err_pct(&g);
        assert!((err - 20.1).abs() < 0.05, "{err}");
    }
}
