//! The result file of one run, its printed tables, and `--compare`.

use crate::host::PROBE_REF_NS;
use crate::layers::LayerMetric;
use crate::measure::{metric_def, FailureRecord, MetricDef, SpanRecord, Tally, WorkloadRun};
use crate::stats::{self, Summary};
use cashmere_bench::Table;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricResult {
    pub name: String,
    pub unit: String,
    /// `None` when the run could not report the metric.
    pub summary: Option<Summary>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    pub ops: usize,
    pub jobs: usize,
    pub passes: usize,
    /// Checked bit for bit against a golden file of this seed.
    pub golden: bool,
    pub tally: Tally,
    /// The host-speed probe before each op of the untraced passes, in ms;
    /// each op's host time is scaled by the reference probe time over its
    /// probe.
    pub probe_ms: Option<Summary>,
    pub end_to_end: Vec<MetricResult>,
    /// Empty when the run had no traced pass.
    pub per_layer: Vec<LayerMetric>,
    pub failures: Vec<FailureRecord>,
    /// One per op of the traced pass.
    pub spans: Vec<SpanRecord>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    pub schema: u32,
    pub seed: u64,
    pub host_cores: usize,
    pub workloads: Vec<WorkloadResult>,
}

impl WorkloadResult {
    pub fn of(run: &WorkloadRun) -> WorkloadResult {
        WorkloadResult {
            name: run.workload.name().to_string(),
            ops: run.ops(),
            jobs: run.workload.jobs(),
            passes: run.passes(),
            golden: run.blessed(),
            tally: run.tally(),
            probe_ms: run.probe_ms(),
            end_to_end: run
                .end_to_end()
                .into_iter()
                .map(|(m, summary)| MetricResult {
                    name: m.name.to_string(),
                    unit: m.unit.to_string(),
                    summary,
                })
                .collect(),
            per_layer: run.per_layer().unwrap_or_default(),
            failures: run.failures.clone(),
            spans: run.spans().to_vec(),
        }
    }

    pub fn print(&self) {
        println!(
            "== {}: {} ops/pass, jobs {}, {} passes, outcomes checked {} ==",
            self.name,
            self.ops,
            self.jobs,
            self.passes,
            if self.golden {
                "bit for bit against this seed's golden file"
            } else {
                "for repeatability across passes and against seed-42 invariants"
            }
        );
        let mut t = Table::new(&["metric", "unit", "value", "n", "q1", "median", "q3"]);
        for m in &self.end_to_end {
            let mut row = vec![m.name.clone(), m.unit.clone()];
            match &m.summary {
                Some(s) => row.extend([
                    format!("{:.6}", s.value),
                    s.samples.to_string(),
                    format!("{:.6}", s.q1),
                    format!("{:.6}", s.median),
                    format!("{:.6}", s.q3),
                ]),
                None => row.extend(["n/a".into(), "-".into(), "-".into(), "-".into(), "-".into()]),
            }
            t.row(row);
        }
        println!("{}", t.render());
        if let Some(p) = &self.probe_ms {
            println!(
                "host times scaled to a {} ms probe; the host's probe read {:.3} ms (q1 {:.3}, q3 {:.3})",
                PROBE_REF_NS / 1e6,
                p.median,
                p.q1,
                p.q3
            );
        }
        let c = &self.tally;
        println!(
            "attempted {}, failed {} ({} mismatch, {} panic, {} timeout), unchecked {}",
            c.attempted,
            c.failed(),
            c.mismatch,
            c.panic,
            c.timeout,
            c.unchecked
        );
        for f in self.failures.iter().take(10) {
            println!("  pass {} {}: {:?} ({})", f.pass, f.op, f.status, f.detail);
        }
        if !self.per_layer.is_empty() {
            println!("\nper-layer ledger (traced pass):");
            let mut t = Table::new(&["metric", "unit", "value"]);
            for m in &self.per_layer {
                t.row(vec![
                    m.name.clone(),
                    m.unit.clone(),
                    format!("{:.6}", m.value),
                ]);
            }
            println!("{}", t.render());
        }
        println!();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload on one side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The run's value, or the median over the side's runs.
    pub value: f64,
    /// Relative spread of `value`. Over several runs, their interquartile
    /// range ÷ median. From one run, the spread of its median estimated
    /// from its passes: the median of `n` samples spreads about
    /// 1.25 / √n times as wide as the samples.
    pub spread: f64,
    /// Each run's value.
    pub runs: Vec<f64>,
}

impl Estimate {
    /// `runs` holds each run's summary and its number of passes.
    pub fn of(runs: &[(&Summary, usize)]) -> Option<Estimate> {
        match runs {
            [] => None,
            [(s, passes)] => Some(Estimate {
                value: s.value,
                spread: 1.25 * s.rel_iqr() / ((*passes).max(1) as f64).sqrt(),
                runs: vec![s.value],
            }),
            _ => {
                let values: Vec<f64> = runs.iter().map(|(s, _)| s.value).collect();
                let value = stats::median(&values)?;
                let (q1, q3) = stats::quartiles(&values)?;
                Some(Estimate {
                    value,
                    spread: if value == 0.0 {
                        0.0
                    } else {
                        (q3 - q1) / value.abs()
                    },
                    runs: values,
                })
            }
        }
    }
}

/// Judge `b` against the baseline `a` for a lower-is-better metric.
pub fn verdict(def: &MetricDef, a: &Estimate, b: &Estimate) -> Verdict {
    if def.bound == 0.0 || a.value == 0.0 {
        return match b.value.total_cmp(&a.value) {
            std::cmp::Ordering::Greater => Verdict::Worse,
            std::cmp::Ordering::Less => Verdict::Better,
            std::cmp::Ordering::Equal => Verdict::WithinBound,
        };
    }
    let change = (b.value - a.value) / a.value;
    let spread = a.spread.max(b.spread);
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    if spread > def.bound {
        // Unless every run of `b` reads better than every run of `a`.
        if max(&b.runs) < min(&a.runs) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if change > def.bound {
        Verdict::Worse
    } else if -change > spread {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

pub fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Load one side of a comparison: a comma-separated list of result files.
fn load_side(paths: &str) -> Result<Vec<ResultFile>, String> {
    paths
        .split(',')
        .filter(|p| !p.is_empty())
        .map(load)
        .collect()
}

/// `metric` of `workload` in every run of one side.
fn side_estimate(side: &[ResultFile], workload: &str, metric: &str) -> Option<Estimate> {
    let runs: Vec<(&Summary, usize)> = side
        .iter()
        .filter_map(|r| r.workloads.iter().find(|w| w.name == workload))
        .filter_map(|w| {
            let m = w.end_to_end.iter().find(|m| m.name == metric)?;
            Some((m.summary.as_ref()?, w.passes))
        })
        .collect();
    Estimate::of(&runs)
}

/// Print both sides' values and spreads with a verdict per workload and
/// end-to-end metric. Each side is one result file or a comma-separated
/// list of them (for instance the parent's and the change's runs of an
/// A/B experiment).
pub fn compare(a_paths: &str, b_paths: &str) -> Result<(), String> {
    let (a, b) = (load_side(a_paths)?, load_side(b_paths)?);
    let (Some(first), false) = (a.first(), b.is_empty()) else {
        return Err("--compare needs at least one result file per side".into());
    };
    println!("A = {} run(s), B = {} run(s)\n", a.len(), b.len());
    let mut t = Table::new(&[
        "workload", "metric", "unit", "A value", "A spread", "B value", "B spread", "change",
        "bound", "verdict",
    ]);
    let pct = |x: f64| format!("{:+.1}%", x * 100.0);
    for w in &first.workloads {
        for m in &w.end_to_end {
            let Some(def) = metric_def(&m.name) else {
                continue;
            };
            let (Some(ea), Some(eb)) = (
                side_estimate(&a, &w.name, &m.name),
                side_estimate(&b, &w.name, &m.name),
            ) else {
                continue;
            };
            let change = if ea.value == 0.0 {
                "-".to_string()
            } else {
                pct((eb.value - ea.value) / ea.value)
            };
            t.row(vec![
                w.name.clone(),
                m.name.clone(),
                m.unit.clone(),
                format!("{:.6}", ea.value),
                pct(ea.spread),
                format!("{:.6}", eb.value),
                pct(eb.spread),
                change,
                pct(def.bound),
                verdict(def, &ea, &eb).label().to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    fn runs(values: &[f64]) -> Estimate {
        let sums: Vec<Summary> = values.iter().map(|&v| summarize(v, &[v])).collect();
        let pairs: Vec<(&Summary, usize)> = sums.iter().map(|s| (s, 12)).collect();
        Estimate::of(&pairs).unwrap()
    }

    #[test]
    fn one_run_spreads_by_its_passes_several_by_their_values() {
        let s = summarize(1.0, &[0.8, 1.0, 1.2]);
        let one = Estimate::of(&[(&s, 4)]).unwrap();
        assert_eq!(one.value, 1.0);
        assert!((one.spread - 1.25 * s.rel_iqr() / 2.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let many = runs(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(many.value, 2.5);
        assert_eq!(many.spread, 2.5 / 2.5);
        assert_eq!(Estimate::of(&[]), None);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let wall = metric_def("wall_s").unwrap();
        let tight = |v: f64| runs(&[v * 0.99, v, v * 1.01]);
        assert_eq!(
            verdict(wall, &tight(1.0), &tight(1.05)),
            Verdict::WithinBound
        );
        assert_eq!(verdict(wall, &tight(1.0), &tight(1.3)), Verdict::Worse);
        assert_eq!(verdict(wall, &tight(1.0), &tight(0.9)), Verdict::Better);
        let wide = runs(&[0.6, 1.0, 1.4]);
        assert_eq!(verdict(wall, &wide, &tight(1.0)), Verdict::Unresolved);
        assert_eq!(
            verdict(wall, &wide, &tight(0.5)),
            Verdict::Better,
            "every run of B beats every run of A"
        );
        assert_eq!(wall.bound, 0.20);
        let fail = metric_def("fail_rate").unwrap();
        assert_eq!(
            verdict(fail, &runs(&[0.0]), &runs(&[0.0])),
            Verdict::WithinBound
        );
        assert_eq!(verdict(fail, &runs(&[0.0]), &runs(&[0.01])), Verdict::Worse);
        assert_eq!(
            verdict(fail, &runs(&[0.04]), &runs(&[0.0])),
            Verdict::Better
        );
    }
}
