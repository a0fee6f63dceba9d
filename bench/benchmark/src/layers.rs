//! The per-layer ledger of one traced pass: host time and calls per
//! self-profiler frame, plus the simulated counts each layer produces.

use cashmere_bench::RunOutcome;
use cashmere_des::obs::{ProfNode, ProfTree};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Metric name prefix → self-profiler frame. The simulator names its
/// frames `crate::scope`; the ledger spells them `crate.scope`.
const LAYERS: [(&str, &str); 20] = [
    ("des.heap", "des::heap"),
    ("des.schedule", "des::schedule"),
    ("des.cancel", "des::cancel"),
    ("satin.run_root", "satin::run-root"),
    ("satin.tick", "event::tick"),
    ("satin.process_job", "event::process-job"),
    ("satin.steal", "event::steal"),
    ("satin.steal_retry", "event::steal-retry"),
    ("satin.finish_divide", "event::finish-divide"),
    ("satin.combine", "event::combine"),
    ("satin.leaf_done", "event::leaf-done"),
    ("cashmere.place", "cashmere::place"),
    ("mcl.compile", "mcl::compile"),
    ("mcl.execute", "mcl::execute"),
    ("mcl.memo", "mcl::memo"),
    ("devsim.kernel_measure", "kernel::measure"),
    ("netsim.transfer", "net::transfer"),
    ("bench.scenario_run", "scenario::run"),
    ("bench.setup", "bench::setup"),
    ("bench.op", "bench::op"),
];

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerMetric {
    pub name: String,
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    pub value: f64,
}

/// What the traced pass measured, besides its profile.
#[derive(Debug, Clone, Default)]
pub struct TracedPass {
    pub prof: ProfTree,
    /// Outcomes of the cluster ops that completed.
    pub runs: Vec<RunOutcome>,
    /// Sum of per-op host time; this and the walls are scaled to the
    /// reference host (see `host`).
    pub op_ns: f64,
    /// Op time of the busiest sweep worker.
    pub wall_ns: f64,
    pub jobs: usize,
    /// Median untraced pass wall, for the tracing overhead.
    pub untraced_wall_ns: f64,
}

#[derive(Default, Clone, Copy)]
struct Frame {
    calls: u64,
    self_ns: u64,
    total_ns: u64,
}

fn frames(tree: &ProfTree) -> BTreeMap<String, Frame> {
    fn walk(n: &ProfNode, acc: &mut BTreeMap<String, Frame>) {
        let f = acc.entry(n.name.clone()).or_default();
        f.calls += n.count;
        f.self_ns += n.self_ns();
        f.total_ns += n.total_ns;
        for c in &n.children {
            walk(c, acc);
        }
    }
    let mut acc = BTreeMap::new();
    for r in &tree.roots {
        walk(r, &mut acc);
    }
    acc
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, in a fixed order.
pub fn ledger(t: &TracedPass) -> Vec<LayerMetric> {
    let frames = frames(&t.prof);
    let get = |frame: &str| frames.get(frame).copied().unwrap_or_default();
    let mut out = Vec::new();
    let mut push = |name: String, unit: &str, better: &str, value: f64| {
        out.push(LayerMetric {
            name,
            unit: unit.into(),
            better: better.into(),
            value,
        })
    };
    for (name, frame) in LAYERS {
        let f = get(frame);
        push(format!("{name}.calls"), "count", "lower", f.calls as f64);
        push(
            format!("{name}.self_ms"),
            "ms",
            "lower",
            f.self_ns as f64 / 1e6,
        );
        push(
            format!("{name}.ns_per_call"),
            "ns",
            "lower",
            ratio(f.self_ns as f64, f.calls as f64),
        );
    }
    let sum = |f: fn(&RunOutcome) -> u64| t.runs.iter().map(f).sum::<u64>() as f64;
    let recovery = |f: fn(&cashmere_bench::RecoverySummary) -> u64| {
        t.runs
            .iter()
            .filter_map(|r| r.recovery.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let events: u64 = frames
        .iter()
        .filter(|(n, _)| n.starts_with("event::"))
        .map(|(_, f)| f.calls)
        .sum();
    push("satin.events.calls".into(), "count", "lower", events as f64);
    push(
        "satin.steal.ok_ratio".into(),
        "ratio",
        "higher",
        ratio(sum(|r| r.steals_ok), get("event::steal").calls as f64),
    );
    let reused = recovery(|r| r.orphans_reused);
    push(
        "satin.recovery.jobs_restarted".into(),
        "count",
        "lower",
        recovery(|r| r.jobs_restarted),
    );
    push(
        "satin.recovery.orphans_reused".into(),
        "count",
        "higher",
        reused,
    );
    push(
        "satin.recovery.orphan_reuse_ratio".into(),
        "ratio",
        "higher",
        ratio(reused, recovery(|r| r.orphans_harvested)),
    );
    push(
        "cashmere.kernels_run".into(),
        "count",
        "lower",
        sum(|r| r.kernels_run),
    );
    push(
        "cashmere.cpu_fallbacks".into(),
        "count",
        "lower",
        sum(|r| r.cpu_fallbacks),
    );
    // Every interpreted launch is a miss; launches that bypass the memo
    // (the Fig. 6 measurements) miss by definition.
    let (execute, memo) = (
        get("mcl::execute").calls as f64,
        get("mcl::memo").calls as f64,
    );
    push(
        "mcl.memo.miss_ratio".into(),
        "ratio",
        "lower",
        ratio(execute, execute.max(memo)),
    );
    push(
        "netsim.bytes".into(),
        "bytes",
        "lower",
        sum(|r| r.network_bytes),
    );
    push(
        "bench.sweep.busy_ratio".into(),
        "ratio",
        "higher",
        ratio(t.op_ns, t.jobs as f64 * t.wall_ns),
    );
    // Share of op time the simulator's own frames explain.
    let op = get("bench::op");
    push(
        "bench.prof.attributed_share".into(),
        "ratio",
        "higher",
        ratio((op.total_ns - op.self_ns) as f64, op.total_ns as f64),
    );
    push(
        "bench.trace_overhead".into(),
        "ratio",
        "lower",
        ratio(t.wall_ns, t.untraced_wall_ns),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, count: u64, total_ns: u64, children: Vec<ProfNode>) -> ProfNode {
        ProfNode {
            name: name.into(),
            count,
            total_ns,
            children,
        }
    }

    #[test]
    fn frames_aggregate_by_name_across_contexts() {
        let tree = ProfTree {
            roots: vec![node(
                "bench::op",
                2,
                1000,
                vec![
                    node(
                        "event::tick",
                        3,
                        300,
                        vec![node("des::schedule", 4, 40, vec![])],
                    ),
                    node(
                        "event::steal",
                        2,
                        100,
                        vec![node("des::schedule", 1, 10, vec![])],
                    ),
                ],
            )],
        };
        let t = TracedPass {
            prof: tree,
            jobs: 1,
            wall_ns: 1000.0,
            op_ns: 1000.0,
            untraced_wall_ns: 800.0,
            ..TracedPass::default()
        };
        let m: BTreeMap<String, f64> = ledger(&t).into_iter().map(|m| (m.name, m.value)).collect();
        assert_eq!(m["des.schedule.calls"], 5.0);
        assert_eq!(m["des.schedule.self_ms"], 50.0 / 1e6);
        assert_eq!(m["des.schedule.ns_per_call"], 10.0);
        assert_eq!(m["satin.tick.self_ms"], 260.0 / 1e6);
        assert_eq!(m["satin.events.calls"], 5.0);
        assert_eq!(m["bench.prof.attributed_share"], 0.4);
        assert_eq!(m["bench.trace_overhead"], 1.25);
        assert_eq!(m["bench.sweep.busy_ratio"], 1.0);
        assert_eq!(m["des.heap.ns_per_call"], 0.0, "absent layers read 0");
    }
}
