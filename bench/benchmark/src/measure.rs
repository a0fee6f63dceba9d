//! Passes of one workload turned into checked, summarized metrics.

use crate::child::{run_pass, Done, OpResult, PassOutput, OP_DEADLINE};
use crate::golden::{Checker, Status};
use crate::host::PROBE_REF_NS;
use crate::layers::{ledger, LayerMetric, TracedPass};
use crate::stats::{self, summarize, Summary};
use crate::workloads::{hetero_run_name, paper_err_pct, Op, Outcome, Workload};
use cashmere_bench::AppId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// An end-to-end metric and the bound by which it may worsen before a
/// change counts as a regression.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Regression bound as a share of the baseline value; 0 means any
    /// worsening counts.
    pub bound: f64,
    /// Listed in `BENCHMARK.json`. Of the others, `fail_rate` reads exactly
    /// 0, `paper_err_pct` exists on `hetero` only, and `op_ms_p95` tracks
    /// host hiccups more than code (see README), so they are reported but
    /// not gated there.
    pub gated: bool,
}

/// Every end-to-end metric is lower-better. A host-time bound is about
/// three times the largest spread (interquartile range ÷ median) measured
/// over ten seeds of one workload, so that unchanged code stays within it
/// from one set of runs to the next; `README.md` gives the measurements.
pub const END_TO_END: [MetricDef; 7] = [
    MetricDef {
        name: "wall_s",
        unit: "s",
        bound: 0.20,
        gated: true,
    },
    MetricDef {
        name: "op_ms_p50",
        unit: "ms",
        bound: 0.25,
        gated: true,
    },
    MetricDef {
        name: "op_ms_p95",
        unit: "ms",
        bound: 0.25,
        gated: false,
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        gated: true,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.10,
        gated: true,
    },
    MetricDef {
        name: "fail_rate",
        unit: "ratio",
        bound: 0.0,
        gated: false,
    },
    MetricDef {
        name: "paper_err_pct",
        unit: "%",
        bound: 0.0,
        gated: false,
    },
];

pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Attempted ops by how they ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub unchecked: u64,
    pub mismatch: u64,
    pub panic: u64,
    pub timeout: u64,
}

impl Tally {
    pub fn record(&mut self, s: Status) {
        self.attempted += 1;
        *match s {
            Status::Ok => &mut self.ok,
            Status::Unchecked => &mut self.unchecked,
            Status::Mismatch => &mut self.mismatch,
            Status::Panic => &mut self.panic,
            Status::Timeout => &mut self.timeout,
        } += 1;
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.unchecked += o.unchecked;
        self.mismatch += o.mismatch;
        self.panic += o.panic;
        self.timeout += o.timeout;
    }

    pub fn failed(&self) -> u64 {
        self.mismatch + self.panic + self.timeout
    }

    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailureRecord {
    pub pass: usize,
    pub op: String,
    pub status: Status,
    pub detail: String,
}

/// One op of the traced pass: where and how long it ran, and what the
/// simulation counted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanRecord {
    pub op: usize,
    pub name: String,
    pub worker: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub status: Status,
    pub kernels_run: u64,
    pub cpu_fallbacks: u64,
    pub steals_ok: u64,
    pub network_bytes: u64,
}

/// Host times of one pass, scaled to the reference host (see `host`):
/// each op by the probe timed just before it, so drift within a pass is
/// corrected too.
struct Pass {
    /// The probe before each completed op, as measured.
    probes_ms: Vec<f64>,
    /// `(op index, ms)` of every op that completed.
    op_ms: Vec<(usize, f64)>,
    /// Op time of the busiest sweep worker: the pass wall, probes left out.
    wall_s: f64,
    /// Each child's set-up, scaled by the pass's median probe.
    setup_s: Vec<f64>,
    rss_mb: Option<f64>,
    tally: Tally,
    paper_err_pct: Option<f64>,
}

impl Pass {
    fn new(out: &PassOutput, tally: Tally, paper_err_pct: Option<f64>) -> Pass {
        let scale = |d: &Done| PROBE_REF_NS / d.probe_ns.max(1) as f64;
        let mut busy: BTreeMap<usize, f64> = BTreeMap::new();
        for d in &out.done {
            *busy.entry(d.worker).or_default() += d.dur_ns as f64 * scale(d) / 1e9;
        }
        let probes_ms: Vec<f64> = out.done.iter().map(|d| d.probe_ns as f64 / 1e6).collect();
        // Without a completed op there is no probe; set-up stays unscaled.
        let setup_scale = stats::median(&probes_ms).map_or(1.0, |ms| PROBE_REF_NS / 1e6 / ms);
        Pass {
            op_ms: out
                .done
                .iter()
                .map(|d| (d.op, d.dur_ns as f64 * scale(d) / 1e6))
                .collect(),
            probes_ms,
            wall_s: busy.values().copied().fold(0.0, f64::max),
            setup_s: out
                .setup_ns
                .iter()
                .map(|&ns| ns as f64 / 1e9 * setup_scale)
                .collect(),
            rss_mb: out.vmhwm_kb.map(|kb| kb as f64 / 1024.0),
            tally,
            paper_err_pct,
        }
    }

    fn op_ns(&self) -> f64 {
        self.op_ms.iter().map(|&(_, ms)| ms * 1e6).sum()
    }
}

pub struct WorkloadRun {
    pub workload: Workload,
    seed: u64,
    names: Vec<String>,
    checker: Checker,
    /// Ops that hit the deadline or killed their child, with how they
    /// failed; later passes count them again without re-running them.
    given_up: BTreeMap<usize, Status>,
    passes: Vec<Pass>,
    traced: Option<(Pass, TracedPass, Vec<SpanRecord>)>,
    pub failures: Vec<FailureRecord>,
}

impl WorkloadRun {
    pub fn new(workload: Workload, seed: u64) -> Result<WorkloadRun, String> {
        let names = workload.ops(seed)?.iter().map(Op::name).collect();
        Ok(WorkloadRun {
            workload,
            seed,
            names,
            checker: Checker::new(workload, seed)?,
            given_up: BTreeMap::new(),
            passes: Vec::new(),
            traced: None,
            failures: Vec::new(),
        })
    }

    pub fn op_samples(&self) -> usize {
        self.passes.iter().map(|p| p.op_ms.len()).sum()
    }

    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Some op is still run by a pass; the rest have been given up.
    fn runnable(&self) -> bool {
        self.given_up.len() < self.names.len()
    }

    /// Fewer passes or op samples than the quartiles and `op_ms_p95` need.
    fn short_of_samples(&self) -> bool {
        self.passes() < MIN_PASSES || self.op_samples() < stats::P95_MIN_SAMPLES
    }

    /// Run one pass in fresh children and check every outcome.
    pub fn pass(&mut self, traced: bool) -> Result<(), String> {
        let todo: Vec<usize> = (0..self.names.len())
            .filter(|i| !self.given_up.contains_key(i))
            .collect();
        let skipped: Vec<Status> = self.given_up.values().copied().collect();
        let out = run_pass(self.workload, self.seed, &todo, traced, OP_DEADLINE)?;
        let (pass, spans) = self.check(&out, &skipped);
        if traced {
            let t = TracedPass {
                prof: out.prof.clone().unwrap_or_default(),
                runs: out
                    .done
                    .iter()
                    .filter_map(|d| match &d.result {
                        OpResult::Completed(Outcome::Run(r)) => Some(r.clone()),
                        _ => None,
                    })
                    .collect(),
                op_ns: pass.op_ns(),
                wall_ns: pass.wall_s * 1e9,
                jobs: self.workload.jobs(),
                untraced_wall_ns: stats::median(&self.walls()).unwrap_or(0.0) * 1e9,
            };
            self.traced = Some((pass, t, spans));
        } else {
            self.passes.push(pass);
        }
        Ok(())
    }

    /// Pass walls of the untraced passes.
    fn walls(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.wall_s).collect()
    }

    fn check(&mut self, out: &PassOutput, skipped: &[Status]) -> (Pass, Vec<SpanRecord>) {
        let pass_no = self.passes.len() + self.traced.is_some() as usize;
        let mut tally = Tally::default();
        let mut spans = Vec::new();
        let mut hetero = [None; 4];
        let mut failures = Vec::new();
        let mut record = |tally: &mut Tally, op: &str, status: Status, detail: String| {
            tally.record(status);
            if status.failed() {
                failures.push(FailureRecord {
                    pass: pass_no,
                    op: op.to_string(),
                    status,
                    detail,
                });
            }
        };
        for d in &out.done {
            let name = &self.names[d.op];
            let (status, run) = match &d.result {
                OpResult::Completed(o) => (self.checker.check(name, o), o.run()),
                OpResult::Panicked(msg) => {
                    record(&mut tally, name, Status::Panic, msg.clone());
                    spans.push(span(d, name, Status::Panic));
                    continue;
                }
            };
            record(
                &mut tally,
                name,
                status,
                "outcome differs from its reference".into(),
            );
            spans.push(span(d, name, status));
            if let Some(i) = AppId::ALL.iter().position(|&a| hetero_run_name(a) == *name) {
                hetero[i] = run.map(|r| r.gflops);
            }
        }
        for &op in &out.timeouts {
            self.given_up.insert(op, Status::Timeout);
            let detail = format!("no result within {} s", OP_DEADLINE.as_secs());
            record(&mut tally, &self.names[op], Status::Timeout, detail);
        }
        for &op in &out.crashed {
            self.given_up.insert(op, Status::Panic);
            record(
                &mut tally,
                &self.names[op],
                Status::Panic,
                "child process died".into(),
            );
        }
        for &s in skipped {
            tally.record(s);
        }
        self.failures.extend(failures);
        let err = (self.workload == Workload::Hetero && hetero.iter().all(Option::is_some))
            .then(|| paper_err_pct(&hetero.map(Option::unwrap)));
        (Pass::new(out, tally, err), spans)
    }

    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for p in self
            .passes
            .iter()
            .chain(self.traced.as_ref().map(|(p, _, _)| p))
        {
            t.add(&p.tally);
        }
        t
    }

    pub fn blessed(&self) -> bool {
        self.checker.blessed()
    }

    pub fn ops(&self) -> usize {
        self.names.len()
    }

    /// End-to-end metrics over the untraced passes, in [`END_TO_END`]
    /// order, host times scaled to the reference probe (see `host`).
    /// `None` for a metric this run cannot report: `op_ms_p95` with too few
    /// samples beyond it, `paper_err_pct` outside `hetero`.
    pub fn end_to_end(&self) -> Vec<(&'static MetricDef, Option<Summary>)> {
        let per_pass = |f: &dyn Fn(&Pass) -> Option<f64>| -> Vec<f64> {
            self.passes.iter().filter_map(f).collect()
        };
        let times = |p: &Pass| -> Vec<f64> { p.op_ms.iter().map(|&(_, ms)| ms).collect() };
        let pooled: Vec<f64> = self.passes.iter().flat_map(times).collect();
        // Each op's median over the passes: a host hiccup during one pass
        // moves no op's typical time.
        let mut by_op: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(op, ms) in self.passes.iter().flat_map(|p| &p.op_ms) {
            by_op.entry(op).or_default().push(ms);
        }
        let typical: Vec<f64> = by_op.values().filter_map(|v| stats::median(v)).collect();
        // Op time per second of pass wall: the sweep workers' parallelism,
        // 1 with one job.
        let parallelism = per_pass(&|p| (p.wall_s > 0.0).then(|| p.op_ns() / 1e9 / p.wall_s));
        let setups: Vec<f64> = self.passes.iter().flat_map(|p| p.setup_s.clone()).collect();
        let walls = self.walls();
        let rss = per_pass(&|p| p.rss_mb);
        let fail_rates = per_pass(&|p| Some(p.tally.fail_rate()));
        let errs = per_pass(&|p| p.paper_err_pct);
        let median_summary = |xs: &[f64]| stats::median(xs).map(|v| summarize(v, xs));
        END_TO_END
            .iter()
            .map(|m| {
                let s = match m.name {
                    // The pass wall at typical speed: each op's median time,
                    // summed, over the median parallelism. The pass walls'
                    // own median shifts with how many passes a hiccup
                    // happens to hit; on `chaos` it spread twice as wide
                    // over ten seeds. Spread from the pass walls.
                    "wall_s" => stats::median(&parallelism).map(|par| Summary {
                        samples: walls.len(),
                        ..summarize(typical.iter().sum::<f64>() / 1e3 / par, &walls)
                    }),
                    // Spread from per-pass values; the count is every op
                    // sample behind the value.
                    "op_ms_p50" => stats::median(&typical).map(|v| Summary {
                        samples: pooled.len(),
                        ..summarize(v, &per_pass(&|p| stats::median(&times(p))))
                    }),
                    "op_ms_p95" => stats::p95(&pooled).map(|v| Summary {
                        samples: pooled.len(),
                        ..summarize(v, &per_pass(&|p| stats::nearest_rank(&times(p), 0.95)))
                    }),
                    "setup_s" => median_summary(&setups),
                    "peak_rss_mb" => median_summary(&rss),
                    "fail_rate" => Some(summarize(self.tally().fail_rate(), &fail_rates)),
                    "paper_err_pct" => median_summary(&errs),
                    other => unreachable!("unknown metric {other}"),
                };
                (m, s)
            })
            .collect()
    }

    /// The host-speed probe over the untraced passes, in ms.
    pub fn probe_ms(&self) -> Option<Summary> {
        let ms: Vec<f64> = self
            .passes
            .iter()
            .flat_map(|p| p.probes_ms.clone())
            .collect();
        stats::median(&ms).map(|v| summarize(v, &ms))
    }

    pub fn per_layer(&self) -> Option<Vec<LayerMetric>> {
        self.traced.as_ref().map(|(_, t, _)| ledger(t))
    }

    pub fn spans(&self) -> &[SpanRecord] {
        self.traced.as_ref().map_or(&[], |(_, _, s)| s)
    }
}

fn span(d: &Done, name: &str, status: Status) -> SpanRecord {
    let run = match &d.result {
        OpResult::Completed(Outcome::Run(r)) => Some(r),
        _ => None,
    };
    let count = |f: fn(&cashmere_bench::RunOutcome) -> u64| run.map_or(0, f);
    SpanRecord {
        op: d.op,
        name: name.to_string(),
        worker: d.worker,
        start_ns: d.start_ns,
        dur_ns: d.dur_ns,
        status,
        kernels_run: count(|r| r.kernels_run),
        cpu_fallbacks: count(|r| r.cpu_fallbacks),
        steals_ok: count(|r| r.steals_ok),
        network_bytes: count(|r| r.network_bytes),
    }
}

/// A timed run keeps going past its budget until every workload has at
/// least this many passes, so quartiles rest on more than one or two samples.
pub const MIN_PASSES: usize = 3;

/// Whether a run limited to `budget` starts another round: while the budget
/// lasts, and past it while a workload lacks the passes or op samples its
/// quartiles and `op_ms_p95` need. Only ops that have not been given up add
/// samples, so the run stops once no workload has one left.
pub fn another_round(runs: &[WorkloadRun], elapsed: Duration, budget: Duration) -> bool {
    let live: Vec<&WorkloadRun> = runs.iter().filter(|r| r.runnable()).collect();
    !live.is_empty() && (elapsed < budget || live.iter().any(|r| r.short_of_samples()))
}

/// Run rounds until `more` says stop: round `r` runs pass `r` of every
/// workload, in order, before any workload runs pass `r + 1`. Returns the
/// number of rounds run.
pub fn round_robin<S>(
    state: &mut S,
    workloads: usize,
    more: impl Fn(&S, usize) -> bool,
    mut pass: impl FnMut(&mut S, usize, usize) -> Result<(), String>,
) -> Result<usize, String> {
    let mut round = 0;
    while more(state, round) {
        for w in 0..workloads {
            pass(state, round, w)?;
        }
        round += 1;
    }
    Ok(round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_interleave_round_robin() {
        let mut log: Vec<(usize, usize)> = Vec::new();
        let rounds = round_robin(
            &mut log,
            3,
            |_, round| round < 2,
            |log, round, w| {
                log.push((round, w));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(rounds, 2);
        assert_eq!(log, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        // The stop rule sees the state the previous rounds left.
        let mut n = 0usize;
        round_robin(
            &mut n,
            2,
            |n, _| *n < 5,
            |n, _, _| {
                *n += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(n, 6, "a started round always completes");
    }

    #[test]
    fn a_timed_run_stops_once_every_op_is_given_up() {
        let budget = Duration::from_secs(1);
        let (during, after) = (Duration::ZERO, Duration::from_secs(2));
        let mut runs = vec![WorkloadRun::new(Workload::Repro, 42).unwrap()];
        assert!(another_round(&runs, during, budget));
        assert!(another_round(&runs, after, budget), "no passes yet");
        let n = runs[0].ops();
        runs[0].given_up = (0..n).map(|op| (op, Status::Timeout)).collect();
        runs[0].given_up.insert(0, Status::Panic);
        assert!(!another_round(&runs, during, budget));
        assert!(!another_round(&runs, after, budget));
        // A pass counts given-up ops again, as they failed, without a child.
        runs[0].pass(false).unwrap();
        let t = runs[0].tally();
        assert_eq!(
            (t.attempted, t.panic, t.timeout),
            (n as u64, 1, n as u64 - 1)
        );
        assert_eq!(runs[0].op_samples(), 0);
        // A workload with ops left keeps the run going past its budget
        // until it has its samples.
        runs.push(WorkloadRun::new(Workload::Chaos, 42).unwrap());
        assert!(another_round(&runs, after, budget));
    }

    #[test]
    fn fail_rate_counts_panics_timeouts_and_mismatches_not_unchecked() {
        let mut t = Tally::default();
        for s in [
            Status::Ok,
            Status::Ok,
            Status::Unchecked,
            Status::Mismatch,
            Status::Panic,
            Status::Timeout,
            Status::Ok,
            Status::Unchecked,
        ] {
            t.record(s);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed(), 3);
        assert_eq!(t.unchecked, 2);
        assert_eq!(t.fail_rate(), 3.0 / 8.0);
        let mut sum = Tally::default();
        sum.add(&t);
        sum.add(&t);
        assert_eq!((sum.attempted, sum.failed()), (16, 6));
        assert_eq!(Tally::default().fail_rate(), 0.0);
    }
}
