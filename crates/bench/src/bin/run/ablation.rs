//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Load balancer** — the paper's Sec. III-B scenario minimization vs
//!    round-robin vs greedy-fastest, on the K20+Phi heterogeneous node.
//! 2. **Transfer/kernel overlap** — the paper's Sec. II-C3 claim that
//!    Cashmere overlaps PCIe copies with kernels.
//! 3. **Interconnect** — QDR InfiniBand vs gigabit Ethernet for the
//!    communication-bound application (the paper's "skewed
//!    computation/communication ratio" discussion, Sec. I).
//! 4. **Management-thread concurrency** — how many node-level leaves a
//!    node runs at once (1 = no pipelining, 2 = the paper's overlap).
//!
//! Every variant is one [`Scenario`] differing from its baseline in
//! exactly the ablated knob. `--policy` and `--faults` are *not* honored
//! here — the balancer study sweeps the policy itself. The observability
//! flags reach the measured variants, never the baseline re-runs.

use cashmere::balancer::Policy;
use cashmere::ClusterSpec;
use cashmere_bench::{
    report_run, write_report, AppId, CommonArgs, Problem, Scenario, ScenarioRun, Series, Table,
};
use cashmere_netsim::NetConfig;
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    study: String,
    variant: String,
    makespan_s: f64,
    relative: f64,
}

/// The balancer/leaf-slot study workload: k-means shrunk until the
/// per-job device choice actually binds.
fn kmeans_on(name: &str, spec: &ClusterSpec, policy: Policy, slots: usize, n: u64) -> Scenario {
    Scenario::new(name, AppId::Kmeans, Series::CashmereOpt, spec)
        .with_problem(Problem::Kmeans {
            n,
            k: 4096,
            d: 4,
            iterations: 3,
        })
        .with_grain(262_144)
        .with_policy(policy)
        .with_leaf_slots(slots)
}

fn k20_phi_node() -> ClusterSpec {
    ClusterSpec {
        node_devices: vec![vec!["k20".to_string(), "xeon_phi".to_string()]],
    }
}

/// The overlap/network study workload: communication-bound matmul.
fn matmul_run(name: &str, net: NetConfig, overlap: bool) -> Scenario {
    Scenario::new(
        name,
        AppId::Matmul,
        Series::CashmereOpt,
        &ClusterSpec::homogeneous(8, "gtx480"),
    )
    .with_problem(Problem::Matmul {
        n: 16384,
        m: 16384,
        p: 16384,
    })
    .with_grain(128)
    .with_net(net)
    .with_overlap(overlap)
}

/// The balancer study's policies: table label, scenario slug, policy.
const BALANCER: [(&str, &str, Policy); 3] = [
    ("scenario (paper III-B)", "scenario", Policy::Scenario),
    ("round-robin", "round-robin", Policy::RoundRobin),
    ("greedy-fastest", "greedy", Policy::FastestOnly),
];

/// The overlap study's variants: table label, scenario slug, overlap.
const OVERLAP: [(&str, &str, bool); 2] = [("on (paper II-C3)", "on", true), ("off", "off", false)];

/// The interconnect study's variants: table label, scenario slug, network.
fn networks() -> [(&'static str, &'static str, NetConfig); 2] {
    [
        ("QDR InfiniBand", "qdr-ib", NetConfig::qdr_infiniband()),
        ("gigabit Ethernet", "gbe", NetConfig::gigabit_ethernet()),
    ]
}

/// The leaf-slot study's management-slot counts.
const SLOTS: [usize; 3] = [1, 2, 4];

/// The thirteen runs in declared order: each study's baseline re-run,
/// then its measured variants (the network study is measured against the
/// overlap baseline).
pub fn scenarios(common: &CommonArgs, _args: &[String]) -> Vec<Scenario> {
    let measured = |mut sc: Scenario| {
        sc.outputs.overlay(&common.outputs);
        sc
    };
    let k20_phi = k20_phi_node();
    let balancer = |name: &str, policy| kmeans_on(name, &k20_phi, policy, 2, 16_000_000);
    let hetero = ClusterSpec::paper_hetero_kmeans();
    let leaf_slots = |name: &str, n| kmeans_on(name, &hetero, Policy::Scenario, n, 67_000_000);
    let qdr = NetConfig::qdr_infiniband;

    let mut scenarios = vec![balancer("balancer.base", Policy::Scenario)];
    for (_, slug, policy) in BALANCER {
        scenarios.push(measured(balancer(&format!("balancer.{slug}"), policy)));
    }
    scenarios.push(matmul_run("overlap.base", qdr(), true));
    for (_, slug, overlap) in OVERLAP {
        let name = format!("overlap.{slug}");
        scenarios.push(measured(matmul_run(&name, qdr(), overlap)));
    }
    for (_, slug, net) in networks() {
        scenarios.push(measured(matmul_run(&format!("network.{slug}"), net, true)));
    }
    scenarios.push(leaf_slots("leaf-slots.base", 2));
    for n in SLOTS {
        scenarios.push(measured(leaf_slots(&format!("leaf-slots.{n}"), n)));
    }
    scenarios
}

/// Print one study's table — each variant's makespan relative to `base` —
/// and add its rows to the artifact.
fn study(
    json: &mut Vec<AblationRow>,
    name: &str,
    header: [&str; 3],
    base: f64,
    variants: impl IntoIterator<Item = (String, f64)>,
) {
    let mut t = Table::new(&header);
    for (variant, m) in variants {
        t.row(vec![
            variant.clone(),
            format!("{m:.2}s"),
            format!("{:.2}x", m / base),
        ]);
        json.push(AblationRow {
            study: name.into(),
            variant,
            makespan_s: m,
            relative: m / base,
        });
    }
    println!("{}", t.render());
}

pub fn report(scenarios: &[Scenario], runs: &[ScenarioRun]) {
    // Read the results in declared order; a measured variant writes its
    // trace/audit files as it is read, before its study's table.
    let mut results = scenarios.iter().zip(runs);
    let mut makespan = || {
        let (sc, run) = results.next().expect("one result per scenario");
        if let Some(cap) = &run.cap {
            report_run(&sc.outputs, &sc.name, cap);
        }
        run.outcome.makespan_s
    };
    let mut json = Vec::new();

    println!(
        "Ablation 1: device load balancer (k-means on one K20 + Xeon Phi node,\n\
         where the per-job device choice actually binds)\n"
    );
    let base = makespan();
    let variants = BALANCER.map(|(label, ..)| (label.to_string(), makespan()));
    study(
        &mut json,
        "balancer",
        ["policy", "makespan", "vs scenario"],
        base,
        variants,
    );

    println!("Ablation 2: PCIe transfer/kernel overlap (matmul 16384³, 8 gtx480)\n");
    let on = makespan();
    let variants = OVERLAP.map(|(label, ..)| (label.to_string(), makespan()));
    study(
        &mut json,
        "overlap",
        ["overlap", "makespan", "vs overlapped"],
        on,
        variants,
    );

    println!("Ablation 3: interconnect (same matmul)\n");
    let variants = networks().map(|(label, ..)| (label.to_string(), makespan()));
    study(
        &mut json,
        "network",
        ["network", "makespan", "vs QDR IB"],
        on,
        variants,
    );

    println!(
        "Ablation 4: concurrent node-leaves per node (heterogeneous k-means, 22\n\
         nodes — light transfers, so pipelining trades against hoarding)\n"
    );
    let base = makespan();
    let variants = SLOTS.map(|slots| (slots.to_string(), makespan()));
    study(
        &mut json,
        "leaf-slots",
        ["management slots", "makespan", "vs 2 slots"],
        base,
        variants,
    );

    write_report("ablation", scenarios, &json);
}
