//! The divide-and-conquer application interface for the simulated cluster.
//!
//! An application is expressed exactly as in the paper's Fig. 1 skeleton:
//! a `step` decides whether a job is small enough for a leaf computation or
//! divides into child jobs; `combine` merges child results after the
//! `sync`. Inputs/outputs carry their serialized sizes so the engine can
//! charge the network for steals and result returns.
//!
//! A leaf's sequential computation is declared once, as
//! [`ClusterApp::leaf_cpu`] (the paper's `leafCPU`). Where a leaf runs is
//! pluggable via [`LeafRuntime`]: plain Satin runs every leaf's `leaf_cpu`
//! on one CPU core ([`CpuLeafRuntime`]); Cashmere (in the `cashmere` crate)
//! plans leaves onto the node's many-core devices and returns an
//! asynchronous completion time, which is how transfer/kernel overlap and
//! the device load balancer enter the simulation. It falls back to the same
//! `leaf_cpu` when a device cannot run a job.

use crate::sim::report::RunReport;
use cashmere_des::fault::FaultInjector;
use cashmere_des::obs::MetricsRegistry;
use cashmere_des::trace::{LaneId, SpanId, Trace};
use cashmere_des::SimTime;

/// Outcome of inspecting a job: divide further or run a leaf.
#[derive(Debug, Clone)]
pub enum DcStep<I> {
    Divide(Vec<I>),
    Leaf,
}

/// A divide-and-conquer application.
pub trait ClusterApp: 'static {
    type Input: Clone + 'static;
    type Output: Clone + 'static;

    /// Decide whether `input` divides (into child inputs) or is a leaf.
    fn step(&self, input: &Self::Input) -> DcStep<Self::Input>;

    /// Cheap classification used by the node scheduler to limit concurrent
    /// leaf executions. Must agree with [`ClusterApp::step`].
    fn is_leaf(&self, input: &Self::Input) -> bool {
        matches!(self.step(input), DcStep::Leaf)
    }

    /// The leaf's sequential computation (the paper's `leafCPU`): its
    /// modelled single-core time and its output. Plain Satin runs every
    /// leaf this way; Cashmere runs it for a device job no device can take.
    fn leaf_cpu(&self, input: &Self::Input) -> (SimTime, Self::Output);

    /// Combine child outputs (in child order) into this job's output.
    fn combine(&self, input: &Self::Input, children: Vec<Self::Output>) -> Self::Output;

    /// Serialized size of a job input (charged when the job is stolen).
    fn input_bytes(&self, input: &Self::Input) -> u64;

    /// Serialized size of a job output (charged when returned to the
    /// parent's node).
    fn output_bytes(&self, output: &Self::Output) -> u64;

    /// CPU time to divide a job (spawning is cheap but not free).
    fn divide_cost(&self, _input: &Self::Input) -> SimTime {
        SimTime::from_micros(5)
    }

    /// CPU time to combine child outputs.
    fn combine_cost(&self, _input: &Self::Input) -> SimTime {
        SimTime::from_micros(5)
    }
}

/// How a leaf executes, as planned by a [`LeafRuntime`].
#[derive(Debug, Clone)]
pub enum LeafPlan<O> {
    /// Occupies one CPU core for `compute`, then completes.
    Cpu { compute: SimTime, output: O },
    /// Occupies one CPU core for `submit` (management thread), then
    /// completes asynchronously at absolute time `done` (device path).
    Async {
        submit: SimTime,
        done: SimTime,
        output: O,
    },
}

/// Everything the engine hands a [`LeafRuntime`] for one leaf plan: where
/// and when the leaf starts, tracing hooks, the fault injector the runtime
/// must consult (device deaths, transient launch faults), and the run
/// report it accounts failures to.
pub struct LeafCtx<'a> {
    /// Node the leaf executes on.
    pub node: usize,
    /// Virtual time at which planning starts.
    pub now: SimTime,
    pub trace: &'a mut Trace,
    /// Metrics registry (latency histograms, device queue gauges).
    pub metrics: &'a mut MetricsRegistry,
    /// The node's CPU trace lane.
    pub cpu_lane: LaneId,
    /// The node-level leaf span; device spans recorded by the runtime
    /// should parent to it ([`SpanId::NONE`] when tracing is off).
    pub parent_span: SpanId,
    /// Injected-fault decisions (deterministic; inactive when the plan is
    /// empty).
    pub faults: &'a mut FaultInjector,
    /// Failure accounting (device losses, retries, fallbacks).
    pub report: &'a mut RunReport,
}

/// Pluggable leaf executor: decides where and when a leaf runs; the
/// application decides what it computes.
pub trait LeafRuntime<A: ClusterApp>: 'static {
    /// Plan the execution of leaf `input` in context `ctx`. `app` gives
    /// access to application callbacks ([`ClusterApp::leaf_cpu`], and for
    /// Cashmere device-level division and kernel descriptions).
    fn plan(&mut self, app: &A, input: &A::Input, ctx: LeafCtx<'_>) -> LeafPlan<A::Output>;

    /// Node `node` crashed at `at`: discard any per-node runtime state
    /// (device timelines, pending work, resident buffers). Default: no-op,
    /// correct for stateless CPU leaf runtimes.
    fn on_node_crash(&mut self, _node: usize, _at: SimTime) {}

    /// Node `node` (re)joined at `at`: bring its per-node runtime state
    /// back up (re-register devices, rebuild the balancer). Default: no-op.
    fn on_node_join(&mut self, _node: usize, _at: SimTime) {}

    /// Flight-recorder hook: append runtime-specific `(column, value)`
    /// gauges to one probe sample (e.g. Cashmere's cumulative placement
    /// mix per device class). Must be read-only — no randomness, no state
    /// mutation — and emit the same columns every call so the series stays
    /// rectangular. Default: no extra columns, correct for plain CPU leaf
    /// runtimes. `report` is the run's counter table so far.
    fn probe(&self, _report: &RunReport, _out: &mut Vec<(String, f64)>) {}
}

/// Plain Satin: every leaf is its [`ClusterApp::leaf_cpu`] on one CPU core.
pub struct CpuLeafRuntime;

impl<A: ClusterApp> LeafRuntime<A> for CpuLeafRuntime {
    fn plan(&mut self, app: &A, input: &A::Input, _ctx: LeafCtx<'_>) -> LeafPlan<A::Output> {
        let (compute, output) = app.leaf_cpu(input);
        LeafPlan::Cpu { compute, output }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Summing a range by divide-and-conquer — the test app used across the
    /// engine's test suite.
    pub struct SumApp {
        pub grain: u64,
    }

    impl ClusterApp for SumApp {
        type Input = (u64, u64);
        type Output = u64;

        fn step(&self, &(lo, hi): &(u64, u64)) -> DcStep<(u64, u64)> {
            if hi - lo <= self.grain {
                DcStep::Leaf
            } else {
                let mid = lo + (hi - lo) / 2;
                DcStep::Divide(vec![(lo, mid), (mid, hi)])
            }
        }

        fn leaf_cpu(&self, &(lo, hi): &(u64, u64)) -> (SimTime, u64) {
            (SimTime::from_micros(hi - lo), (lo..hi).sum())
        }

        fn combine(&self, _i: &(u64, u64), children: Vec<u64>) -> u64 {
            children.into_iter().sum()
        }

        fn input_bytes(&self, _i: &(u64, u64)) -> u64 {
            16
        }

        fn output_bytes(&self, _o: &u64) -> u64 {
            8
        }
    }

    #[test]
    fn sum_app_divides_and_combines() {
        let app = SumApp { grain: 10 };
        match app.step(&(0, 100)) {
            DcStep::Divide(ch) => assert_eq!(ch, vec![(0, 50), (50, 100)]),
            DcStep::Leaf => panic!("should divide"),
        }
        assert!(matches!(app.step(&(0, 10)), DcStep::Leaf));
        assert_eq!(app.combine(&(0, 100), vec![3, 4]), 7);
    }

    #[test]
    fn cpu_leaf_runtime_runs_leaf_cpu() {
        let mut trace = Trace::new();
        let mut metrics = MetricsRegistry::new();
        let lane = trace.add_lane("cpu");
        let mut faults = FaultInjector::disabled(0);
        let mut report = RunReport::new(1);
        let app = SumApp { grain: 10 };
        let plan = CpuLeafRuntime.plan(
            &app,
            &(0, 4),
            LeafCtx {
                node: 0,
                now: SimTime::ZERO,
                trace: &mut trace,
                metrics: &mut metrics,
                cpu_lane: lane,
                parent_span: SpanId::NONE,
                faults: &mut faults,
                report: &mut report,
            },
        );
        match plan {
            LeafPlan::Cpu { compute, output } => {
                assert_eq!(compute, SimTime::from_micros(4));
                assert_eq!(output, 6);
            }
            LeafPlan::Async { .. } => panic!("cpu runtime must be sync"),
        }
    }
}
