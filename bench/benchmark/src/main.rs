//! Host-time benchmark of the cashmere-rs simulator: four seeded workloads
//! measured end to end with tracing off, then once more traced for a
//! per-layer ledger. Every simulated outcome is checked.
//!
//! ```text
//! cargo run --release --manifest-path bench/benchmark/Cargo.toml --
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! ... -- --bless [--seed N] [--workload NAME]...
//! ... -- --compare A.json[,A2.json...] B.json[,B2.json...]
//! ```
//!
//! Each pass runs one workload's ops in a fresh child process (every bin a
//! user runs is a fresh process, so nothing is warmed), with passes of the
//! workloads interleaved round-robin. The last stdout line is a JSON
//! summary; `target/benchmark/<seed>.json` holds the full results. See
//! `README.md` for the metrics and workloads.

mod child;
mod golden;
mod host;
mod layers;
mod measure;
mod report;
mod stats;
mod workloads;

use golden::{GoldenFile, GoldenOp};
use measure::{another_round, round_robin, WorkloadRun};
use report::{ResultFile, WorkloadResult};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::{repo_root, Workload};

/// Passes per workload of a run without `--seconds`.
const DEFAULT_PASSES: usize = 12;

enum Mode {
    Measure,
    Bless,
    Compare(String, String),
    Child { ops: Vec<usize>, traced: bool },
}

struct Args {
    mode: Mode,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Measure,
        workloads: Vec::new(),
        seed: 42,
        seconds: None,
        trace: true,
    };
    let mut it = argv.iter();
    fn value(it: &mut std::slice::Iter<String>, flag: &str) -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    }
    fn number(v: String, flag: &str) -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{flag} expects a whole number, got `{v}`"))
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let v = value(&mut it, a)?;
                let w = Workload::parse(&v).ok_or_else(|| {
                    format!("unknown workload `{v}` (kernels|scaling|hetero|chaos|repro)")
                })?;
                args.workloads.push(w);
            }
            "--seed" => args.seed = number(value(&mut it, a)?, a)?,
            "--seconds" => {
                let v = value(&mut it, a)?;
                let s: f64 = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got `{v}`"))?;
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--bless" => args.mode = Mode::Bless,
            "--compare" => {
                args.mode = Mode::Compare(value(&mut it, a)?, value(&mut it, a)?);
            }
            "--child" => {
                args.mode = Mode::Child {
                    ops: Vec::new(),
                    traced: false,
                }
            }
            "--ops" => {
                let v = value(&mut it, a)?;
                let ops = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().map_err(|_| format!("bad op index `{s}`")))
                    .collect::<Result<Vec<usize>, String>>()?;
                match &mut args.mode {
                    Mode::Child { ops: o, .. } => *o = ops,
                    _ => return Err("--ops is internal to --child".into()),
                }
            }
            "--traced" => match &mut args.mode {
                Mode::Child { traced, .. } => *traced = true,
                _ => return Err("--traced is internal to --child".into()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::DEFAULT.to_vec();
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match &args.mode {
        Mode::Child { ops, traced } => match args.workloads[..] {
            [w] => child::child_main(w, args.seed, ops.clone(), *traced),
            _ => Err("a child runs exactly one workload".into()),
        },
        Mode::Compare(a, b) => report::compare(a, b),
        Mode::Bless => bless(&args),
        Mode::Measure => measure(&args),
    });
    if let Err(e) = result {
        eprintln!("benchmark: {e}");
        std::process::exit(2);
    }
}

/// One untraced pass per workload; write each golden file. Ops that never
/// complete are recorded without an outcome.
fn bless(args: &Args) -> Result<(), String> {
    for &w in &args.workloads {
        let path = golden::golden_path(w, args.seed);
        if path.exists() {
            return Err(format!("refusing to bless: {} exists", path.display()));
        }
    }
    for &w in &args.workloads {
        let ops = w.ops(args.seed)?;
        let all: Vec<usize> = (0..ops.len()).collect();
        let out = child::run_pass(w, args.seed, &all, false, child::OP_DEADLINE)?;
        let mut outcomes: BTreeMap<usize, workloads::Outcome> = BTreeMap::new();
        for d in out.done {
            if let child::OpResult::Completed(o) = d.result {
                outcomes.insert(d.op, o);
            }
        }
        let file = GoldenFile {
            workload: w.name().to_string(),
            seed: args.seed,
            ops: ops
                .iter()
                .enumerate()
                .map(|(i, op)| GoldenOp {
                    name: op.name(),
                    outcome: outcomes.remove(&i),
                })
                .collect(),
        };
        let missing = file.ops.iter().filter(|g| g.outcome.is_none()).count();
        let path = golden::bless(&file)?;
        println!(
            "[wrote {}] {} ops, {missing} without an outcome",
            path.display(),
            file.ops.len()
        );
    }
    Ok(())
}

fn measure(args: &Args) -> Result<(), String> {
    let mut runs = args
        .workloads
        .iter()
        .map(|&w| WorkloadRun::new(w, args.seed))
        .collect::<Result<Vec<_>, String>>()?;
    let cores = cashmere_bench::default_jobs();
    println!(
        "benchmark: seed {}, {cores} cores, per-op deadline {} s, {}",
        args.seed,
        child::OP_DEADLINE.as_secs(),
        match args.seconds {
            Some(s) => format!("passes for {s} s per run"),
            None => format!("{DEFAULT_PASSES} passes per workload"),
        }
    );
    let started = Instant::now();
    let budget = args.seconds.map(Duration::from_secs_f64);
    round_robin(
        &mut runs,
        args.workloads.len(),
        |runs, round| match budget {
            Some(b) => another_round(runs, started.elapsed(), b),
            None => round < DEFAULT_PASSES,
        },
        |runs, _, w| runs[w].pass(false),
    )?;
    if args.trace {
        for r in &mut runs {
            r.pass(true)?;
        }
    }

    let results = ResultFile {
        schema: 1,
        seed: args.seed,
        host_cores: cores,
        workloads: runs.iter().map(WorkloadResult::of).collect(),
    };
    println!();
    for w in &results.workloads {
        w.print();
    }
    let dir = repo_root().join("target/benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.json", args.seed));
    let mut json = serde_json::to_string_pretty(&results).expect("results serialize");
    json.push('\n');
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("[wrote {}]", path.display());
    println!("{}", summary_line(&results, args.trace));
    Ok(())
}

/// The machine-readable last line: gated end-to-end metrics untraced, or
/// the per-layer ledger traced. Names are prefixed with the workload when
/// a run measures more than one.
fn summary_line(results: &ResultFile, traced: bool) -> String {
    let prefix = results.workloads.len() > 1;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for w in &results.workloads {
        attempted += w.tally.attempted;
        failed += w.tally.failed();
        let key = |name: &str| {
            if prefix {
                format!("{}.{name}", w.name)
            } else {
                name.to_string()
            }
        };
        let entry = |name: &str, value: f64, unit: &str| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                serde_json::to_string(&key(name)).expect("string"),
                serde_json::to_string(&value).expect("number"),
                serde_json::to_string(unit).expect("string")
            )
        };
        if traced {
            for m in &w.per_layer {
                metrics.push(entry(&m.name, m.value, &m.unit));
            }
        } else {
            // A metric the run could not report (printed as n/a above) is
            // left out rather than invented.
            for m in &w.end_to_end {
                let gated = measure::metric_def(&m.name).is_some_and(|d| d.gated);
                if let (Some(s), true) = (&m.summary, gated) {
                    metrics.push(entry(&m.name, s.value, &m.unit));
                }
            }
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = args(&[
            "--workload",
            "hetero",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads, [Workload::Hetero]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        let a = args(&[]).unwrap();
        assert_eq!(a.workloads, Workload::DEFAULT);
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(
            args(&["--ops", "1"]).is_err(),
            "internal flag outside --child"
        );
    }

    /// `BENCHMARK.json` names exactly the metrics the summary line carries.
    #[test]
    fn manifest_lists_the_reported_metrics() {
        use serde::Deserialize;
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let workloads::tests::Json(doc) = serde_json::from_str(&text).unwrap();
        let field = workloads::tests::field;
        let list = |key: &str| -> Vec<(String, String, String)> {
            field(&doc, key)
                .as_seq()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| String::from_content(field(m, k)).unwrap();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<(String, String, String)> = measure::END_TO_END
            .iter()
            .filter(|m| m.gated)
            .map(|m| (m.name.into(), m.unit.into(), "lower".into()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        for m in field(&doc, "end_to_end").as_seq().unwrap() {
            let name = String::from_content(field(m, "name")).unwrap();
            let bound = f64::from_content(field(m, "bound")).unwrap();
            assert_eq!(bound, measure::metric_def(&name).unwrap().bound, "{name}");
        }
        let layers: Vec<(String, String, String)> = layers::ledger(&Default::default())
            .into_iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect();
        assert_eq!(list("per_layer"), layers);
        let names: Vec<String> = field(&doc, "workloads")
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| String::from_content(field(w, "name")).unwrap())
            .collect();
        let ours: Vec<String> = Workload::DEFAULT.iter().map(|w| w.name().into()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn summary_line_is_one_json_object() {
        let results = ResultFile {
            schema: 1,
            seed: 42,
            host_cores: 2,
            workloads: Vec::new(),
        };
        assert_eq!(
            summary_line(&results, false),
            r#"{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}"#
        );
    }
}
