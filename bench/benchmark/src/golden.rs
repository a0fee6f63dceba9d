//! Golden outcomes and the per-op correctness check.
//!
//! `golden/<workload>.seed<N>.json` holds the simulated outcome of every op
//! of one workload at one seed. At a blessed seed each op must match its
//! record bit for bit. At any other seed an op must repeat its own first
//! outcome in every later pass (each pass is a fresh process) and keep the
//! seed-independent facts of the seed-42 record of the same name.

use crate::workloads::{bench_dir, Outcome, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GoldenOp {
    pub name: String,
    /// `None` when the op did not complete while blessing.
    pub outcome: Option<Outcome>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GoldenFile {
    pub workload: String,
    pub seed: u64,
    pub ops: Vec<GoldenOp>,
}

pub fn golden_path(workload: Workload, seed: u64) -> PathBuf {
    bench_dir()
        .join("golden")
        .join(format!("{}.seed{seed}.json", workload.name()))
}

/// Records by op name; `None` when no golden file exists for the seed.
pub fn load(
    workload: Workload,
    seed: u64,
) -> Result<Option<BTreeMap<String, Option<Outcome>>>, String> {
    let path = golden_path(workload, seed);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let file: GoldenFile =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if file.workload != workload.name() || file.seed != seed {
        return Err(format!(
            "{} is for another workload or seed",
            path.display()
        ));
    }
    Ok(Some(
        file.ops.into_iter().map(|g| (g.name, g.outcome)).collect(),
    ))
}

/// Write a golden file; an existing one is never overwritten.
pub fn bless(file: &GoldenFile) -> Result<PathBuf, String> {
    let workload = Workload::parse(&file.workload).expect("blessed workloads are known");
    let path = golden_path(workload, file.seed);
    let mut json = serde_json::to_string_pretty(file).expect("golden serializes");
    json.push('\n');
    std::fs::create_dir_all(path.parent().expect("golden dir"))
        .map_err(|e| format!("cannot create golden dir: {e}"))?;
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(|e| format!("refusing to bless {}: {e}", path.display()))?;
    std::io::Write::write_all(&mut f, json.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// How one attempted op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Status {
    Ok,
    /// Completed, but nothing to check it against.
    Unchecked,
    Mismatch,
    Panic,
    Timeout,
}

impl Status {
    pub fn failed(self) -> bool {
        matches!(self, Status::Mismatch | Status::Panic | Status::Timeout)
    }
}

type Records = BTreeMap<String, Option<Outcome>>;

pub struct Checker {
    exact: Option<Records>,
    seed42: Option<Records>,
    /// First outcome of each op in this run, when no exact golden exists.
    seen: BTreeMap<String, String>,
}

impl Checker {
    pub fn new(workload: Workload, seed: u64) -> Result<Checker, String> {
        let exact = load(workload, seed)?;
        let seed42 = if exact.is_some() {
            None
        } else {
            load(workload, 42)?
        };
        Ok(Checker::from_records(exact, seed42))
    }

    pub fn from_records(exact: Option<Records>, seed42: Option<Records>) -> Checker {
        Checker {
            exact,
            seed42,
            seen: BTreeMap::new(),
        }
    }

    pub fn blessed(&self) -> bool {
        self.exact.is_some()
    }

    pub fn check(&mut self, name: &str, outcome: &Outcome) -> Status {
        if let Some(exact) = &self.exact {
            return match exact.get(name) {
                Some(Some(g)) if g.json() == outcome.json() => Status::Ok,
                Some(Some(_)) => Status::Mismatch,
                _ => Status::Unchecked,
            };
        }
        let json = outcome.json();
        let repeats = match self.seen.get(name) {
            Some(first) => *first == json,
            None => {
                self.seen.insert(name.to_string(), json);
                true
            }
        };
        let invariant = self
            .seed42
            .as_ref()
            .and_then(|g| g.get(name))
            .and_then(Option::as_ref)
            .map(|g| g.invariant() == outcome.invariant());
        match (repeats, invariant) {
            (false, _) | (_, Some(false)) => Status::Mismatch,
            (true, Some(true)) => Status::Ok,
            (true, None) => Status::Unchecked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::{artifact, field};
    use crate::workloads::{chaos_scenario, hetero_run_name, Op};
    use cashmere_bench::{run_scenario, AppId, RunOutcome};
    use serde::Content;

    fn golden(w: Workload, seed: u64) -> Records {
        load(w, seed).unwrap().expect("golden file is committed")
    }

    fn run(g: &Records, name: &str) -> RunOutcome {
        match g[name].as_ref().expect("blessed op completed") {
            Outcome::Run(r) => r.clone(),
            Outcome::Kernel(_) => panic!("{name} is a cluster op"),
        }
    }

    fn num(c: &Content, key: &str) -> f64 {
        f64::from_content(field(c, key)).unwrap()
    }

    fn text(c: &Content, key: &str) -> String {
        String::from_content(field(c, key)).unwrap()
    }

    fn rows(file: &str) -> Vec<Content> {
        field(&artifact(file), "data").as_seq().unwrap().to_vec()
    }

    #[test]
    fn goldens_cover_every_op_of_both_seeds() {
        for w in Workload::DEFAULT {
            for seed in [42, 7] {
                let g = golden(w, seed);
                let names: Vec<String> = w.ops(seed).unwrap().iter().map(Op::name).collect();
                assert_eq!(g.len(), names.len(), "{} seed {seed}", w.name());
                for n in &names {
                    assert!(g[n].is_some(), "{} seed {seed}: {n} completed", w.name());
                }
            }
        }
    }

    #[test]
    fn seed42_kernels_golden_matches_fig6() {
        let g = golden(Workload::Kernels, 42);
        let data = rows("fig6_kernel_performance.json");
        assert_eq!(data.len() * 2, 56);
        for row in &data {
            let app = AppId::parse(&text(row, "app")).unwrap().token();
            let dev = text(row, "device");
            for (set, key) in [("unopt", "unoptimized_gflops"), ("opt", "optimized_gflops")] {
                let name = format!("fig6.{app}.{dev}.{set}");
                let Some(Outcome::Kernel(gflops)) = &g[&name] else {
                    panic!("{name}")
                };
                // fig6 records a missing kernel version as 0 GFLOPS.
                assert_eq!(
                    gflops.unwrap_or(0.0).to_bits(),
                    num(row, key).to_bits(),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn seed42_scaling_golden_matches_fig7_14() {
        let g = golden(Workload::Scaling, 42);
        let data = rows("fig7_14_scaling.json");
        assert_eq!(data.len(), 60);
        for (op, row) in Workload::Scaling.ops(42).unwrap().iter().zip(&data) {
            let r = run(&g, &op.name());
            assert_eq!(r.app, text(row, "app"));
            assert_eq!(r.series, text(row, "series"));
            assert_eq!(r.nodes as f64, num(row, "nodes"));
            assert_eq!(r.makespan_s.to_bits(), num(row, "makespan_s").to_bits());
            assert_eq!(r.gflops.to_bits(), num(row, "gflops").to_bits());
            assert_eq!(r.steals_ok as f64, num(row, "steals_ok"));
        }
    }

    #[test]
    fn seed42_hetero_golden_matches_table3_fig15() {
        let g = golden(Workload::Hetero, 42);
        let data = rows("table3_fig15_hetero.json");
        assert_eq!(data.len(), 4);
        let ops = Workload::Hetero.ops(42).unwrap();
        for (app, row) in AppId::ALL.into_iter().zip(&data) {
            let hetero = run(&g, &hetero_run_name(app));
            assert_eq!(hetero.app, text(row, "app"));
            assert_eq!(hetero.nodes as f64, num(row, "nodes"));
            assert_eq!(hetero.gflops.to_bits(), num(row, "gflops").to_bits());
            // Efficiencies summed in the hetero bin's order: one single-node
            // calibration per node of the configuration.
            let Some(Op::Cluster(sc)) = ops.iter().find(|o| o.name() == hetero_run_name(app))
            else {
                panic!()
            };
            let attainable: f64 = sc
                .nodes
                .iter()
                .map(|d| run(&g, &format!("{}-single-{}", app.token(), d.join("."))).gflops)
                .sum();
            let eff = hetero.gflops / attainable;
            assert_eq!(eff.to_bits(), num(row, "hetero_efficiency").to_bits());
            let homo = |n: usize| run(&g, &format!("{}-cashmere-opt-{n}n", app.token())).gflops;
            let homo_eff = homo(16) / (16.0 * homo(1));
            assert_eq!(
                homo_eff.to_bits(),
                num(row, "homogeneous_efficiency").to_bits()
            );
        }
    }

    #[test]
    fn seed42_chaos_golden_matches_the_committed_rows() {
        // The workload measures the fault-free baseline and level-1 plans,
        // so the golden covers the committed level-0 and level-1 rows. The
        // level-2–4 rows are checked by running their plans here.
        let g = golden(Workload::Chaos, 42);
        let data = rows("chaos_chaos-base.json");
        assert_eq!(data.len(), 13);
        let base = run(&g, "chaos-base.chaos.l0");
        let mut covered = 0;
        for row in &data {
            let name = text(row, "scenario");
            let r = match g.get(&name) {
                Some(Some(Outcome::Run(r))) => {
                    covered += 1;
                    r.clone()
                }
                _ => {
                    let level = num(row, "level") as usize;
                    assert!(level >= 2, "{name} is in the workload");
                    let s: usize = name.rsplit_once(".s").unwrap().1.parse().unwrap();
                    run_scenario(&chaos_scenario(42, level, s)).outcome
                }
            };
            assert_eq!(
                r.makespan_s.to_bits(),
                num(row, "makespan_s").to_bits(),
                "{name}"
            );
            let degradation = r.makespan_s / base.makespan_s;
            assert_eq!(
                degradation.to_bits(),
                num(row, "degradation").to_bits(),
                "{name}"
            );
            let rec = r.recovery;
            let count = |f: fn(&cashmere_bench::RecoverySummary) -> u64| {
                rec.as_ref().map_or(0.0, |x| f(x) as f64)
            };
            assert_eq!(count(|x| x.crashes), num(row, "crashes"), "{name}");
            assert_eq!(count(|x| x.joins), num(row, "joins"), "{name}");
            assert_eq!(
                count(|x| x.jobs_restarted),
                num(row, "jobs_restarted"),
                "{name}"
            );
            assert_eq!(
                count(|x| x.orphans_reused),
                num(row, "orphans_reused"),
                "{name}"
            );
            assert_eq!(
                count(|x| x.orphans_expired),
                num(row, "orphans_expired"),
                "{name}"
            );
            let secs = |f: fn(&cashmere_bench::RecoverySummary) -> f64| {
                rec.as_ref().map_or(0.0, f).to_bits()
            };
            assert_eq!(
                secs(|x| x.work_lost_s),
                num(row, "work_lost_s").to_bits(),
                "{name}"
            );
            assert_eq!(
                secs(|x| x.time_to_recover_s),
                num(row, "time_to_recover_s").to_bits(),
                "{name}"
            );
        }
        assert_eq!(covered, 4, "l0 and l1.s0–s2 are workload ops");
    }

    #[test]
    fn invariants_hold_across_the_two_blessed_seeds() {
        for w in Workload::DEFAULT {
            let (a, b) = (golden(w, 42), golden(w, 7));
            for (name, outcome) in &a {
                let (Some(x), Some(Some(y))) = (outcome, b.get(name)) else {
                    panic!("{} {name} blessed at both seeds", w.name())
                };
                assert_eq!(x.invariant(), y.invariant(), "{} {name}", w.name());
            }
        }
    }

    #[test]
    fn checker_statuses() {
        let k = |v: f64| Outcome::Kernel(Some(v));
        let recs = |pairs: &[(&str, Option<f64>)]| -> Records {
            pairs
                .iter()
                .map(|(n, v)| (n.to_string(), v.map(k)))
                .collect()
        };
        let mut exact = Checker::from_records(Some(recs(&[("a", Some(1.0)), ("b", None)])), None);
        assert_eq!(exact.check("a", &k(1.0)), Status::Ok);
        assert_eq!(exact.check("a", &k(1.0000000000000002)), Status::Mismatch);
        assert_eq!(exact.check("b", &k(3.0)), Status::Unchecked);
        assert_eq!(exact.check("c", &k(3.0)), Status::Unchecked);

        let mut other = Checker::from_records(None, Some(recs(&[("a", Some(1.0))])));
        assert_eq!(other.check("a", &k(1.0)), Status::Ok);
        assert_eq!(
            other.check("a", &k(2.0)),
            Status::Mismatch,
            "kernels keep the seed-42 value"
        );
        assert_eq!(
            other.check("z", &k(5.0)),
            Status::Unchecked,
            "first sight, no reference"
        );
        assert_eq!(other.check("z", &k(5.0)), Status::Unchecked);
        assert_eq!(
            other.check("z", &k(6.0)),
            Status::Mismatch,
            "must repeat its first outcome"
        );
    }

    #[test]
    fn bless_refuses_to_overwrite() {
        let file = GoldenFile {
            workload: "kernels".into(),
            seed: 42,
            ops: Vec::new(),
        };
        let err = bless(&file).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
    }
}
