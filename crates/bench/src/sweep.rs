//! Deterministic parallel sweep executor.
//!
//! Every bench binary enumerates independent simulation points (app × series
//! × node-count, ablation variants, …). Each point owns its `Sim`, seed and
//! observability capture, so points can run on separate OS threads with no
//! shared state — the outer mirror of Cashmere's own two-level parallelism
//! (`enableManyCore()` inside a node, Satin-style distribution across
//! nodes).
//!
//! Determinism is preserved by construction: workers only *compute*; all
//! printing, table building and JSON writing happens after [`sweep`]
//! returns, iterating results in the declared point order. A sweep with
//! `--jobs 4` therefore produces byte-identical stdout and files to
//! `--jobs 1` (covered by `tests/sweep_determinism.rs`).

use crate::cli;
use cashmere_des::obs::prof;
use std::sync::mpsc;
use std::sync::Mutex;

/// Default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Strip `--jobs N` / `--jobs=N` from `args`, returning the worker count and
/// the remaining arguments. Without the flag, defaults to
/// [`default_jobs`]. `--jobs 0` is rejected.
pub fn jobs_from_args(args: Vec<String>) -> (usize, Vec<String>) {
    let mut jobs = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let value = if a == "--jobs" {
            let missing = || cli::fail("--jobs requires a worker count (e.g. --jobs 4)");
            Some(it.next().unwrap_or_else(missing))
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            Some(v.to_string())
        } else {
            rest.push(a);
            None
        };
        if let Some(v) = value {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => jobs = Some(n),
                _ => cli::fail(&format!("--jobs expects a positive integer, got `{v}`")),
            }
        }
    }
    (jobs.unwrap_or_else(default_jobs), rest)
}

/// Run `f` over every point, using up to `jobs` worker threads, and return
/// the results **in input order** regardless of completion order.
///
/// `jobs <= 1` (or a single point) degenerates to a plain sequential map on
/// the calling thread — no threads are spawned, so `--jobs 1` is exactly
/// the pre-parallel code path.
pub fn sweep<I, O, F>(points: Vec<I>, jobs: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = points.len();
    if jobs <= 1 || n <= 1 {
        // Sequential points profile straight into the calling thread's
        // collector, visiting points in declared order by definition.
        return points.into_iter().map(f).collect();
    }
    let profiling = prof::enabled();
    let queue = Mutex::new(points.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, O, Option<prof::ProfTree>)>();
    let mut slots: Vec<Option<(O, Option<prof::ProfTree>)>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            scope.spawn(move || loop {
                // Hold the lock only to pull the next point; the sim runs
                // lock-free.
                let next = queue.lock().unwrap().next();
                let Some((idx, point)) = next else { break };
                let out = f(point);
                // Drain this worker's context tree per point, so trees can
                // be merged in declared point order below — which worker
                // ran the point when never shows in the aggregate.
                let tree = profiling.then(prof::take_local);
                if tx.send((idx, out, tree)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Reassemble in declared order while workers are still running.
        for (idx, out, tree) in rx {
            slots[idx] = Some((out, tree));
        }
    });
    slots
        .into_iter()
        .map(|s| {
            let (out, tree) = s.expect("every sweep point produces a result");
            if let Some(tree) = tree {
                prof::absorb(tree);
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        for jobs in [1, 2, 4, 8] {
            let points: Vec<u64> = (0..100).collect();
            let out = sweep(points, jobs, |i| {
                // Make later points cheaper so completion order inverts.
                let spin = (100 - i) * 500;
                let mut acc = 0u64;
                for k in 0..spin {
                    acc = acc.wrapping_add(k ^ i);
                }
                std::hint::black_box(acc);
                i * 10
            });
            assert_eq!(
                out,
                (0..100).map(|i| i * 10).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let f = |i: u64| i.wrapping_mul(2654435761).rotate_left(7);
        let seq = sweep((0..257).collect(), 1, f);
        let par = sweep((0..257).collect(), 4, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_point_sweeps_work() {
        let empty: Vec<u64> = sweep(Vec::new(), 4, |i| i);
        assert!(empty.is_empty());
        assert_eq!(sweep(vec![7u64], 4, |i| i + 1), vec![8]);
    }

    #[test]
    fn jobs_from_args_parses_both_forms() {
        let to = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (jobs, rest) = jobs_from_args(to(&["bin", "--jobs", "3", "kmeans"]));
        assert_eq!(jobs, 3);
        assert_eq!(rest, to(&["bin", "kmeans"]));
        let (jobs, rest) = jobs_from_args(to(&["bin", "--jobs=8"]));
        assert_eq!(jobs, 8);
        assert_eq!(rest, to(&["bin"]));
        let (jobs, _) = jobs_from_args(to(&["bin"]));
        assert_eq!(jobs, default_jobs());
    }
}
