//! Self-benchmarking harness: measures the simulator's own hot paths and
//! writes `BENCH_sim.json` at the repo root so the perf trajectory of the
//! substrate is tracked alongside the code.
//!
//! ```text
//! cargo run --release -p cashmere-bench --bin selfbench
//! cargo run --release -p cashmere-bench --bin selfbench -- --quick
//! cargo run --release -p cashmere-bench --bin selfbench -- --quick --check
//! cargo run --release -p cashmere-bench --bin selfbench -- --dump-scenario
//! ```
//!
//! The shared `--scenario file.json` flag runs an arbitrary cluster
//! scenario through the common driver; `--dump-scenario` prints the
//! in-process scaling sweep's resolved specs (the engine microbenchmarks
//! are not cluster runs and have none).
//!
//! Measured quantities:
//!
//! - **engine events/sec** over a representative workload mix — bulk
//!   schedule+run, steady-state event chains with realistic payload sizes,
//!   and schedule+cancel churn (the work-stealing engine arms and disarms
//!   timeouts constantly);
//! - **schedule/cancel ops/sec** in isolation;
//! - **sweep wall time** of an in-process scaling sweep (k-means, three
//!   series, 1–16 nodes) at `--jobs 1` vs all cores;
//! - **per-subsystem wall shares** from a self-profiled pass over the same
//!   workloads (see `cashmere_des::obs::prof`), plus host provenance
//!   (logical cores, repetition counts, quick-vs-full) so the numbers'
//!   context is machine-readable.
//!
//! With `--check`, the previously committed `BENCH_sim.json` is read
//! *before* being overwritten and the run fails (exit 1) if engine
//! events/sec or kernel measurements/sec regressed more than 30% against
//! it — the CI smoke gate. Both are compared per unit of a host reference
//! loop timed in the same process (when the baseline recorded one), so a
//! slower or busier host does not read as a regression. A failure prints
//! a counters-only [`RunDiff`] digest ranking which measured quantity
//! moved the most, so the log explains the regression instead of just
//! flagging it. `--quick` shrinks repetition counts for CI.

#![forbid(unsafe_code)]

use cashmere::ClusterSpec;
use cashmere_apps::KernelSet;
use cashmere_bench::engine_load::{churn, schedule_cancel, schedule_run};
use cashmere_bench::{
    cli, default_jobs, run_scenario, subsystem_rows, sweep, write_file, AppId, Fig6Launch,
    Scenario, Series, SubsystemShare,
};
use cashmere_des::obs::{prof, RunDiff, RunFingerprint};
use cashmere_hwdesc::DeviceKind;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize, Deserialize)]
struct EngineNumbers {
    /// Aggregate events/sec over the representative mix below — the
    /// regression-gated headline number.
    events_per_sec: f64,
    schedule_run_events_per_sec: f64,
    churn_events_per_sec: f64,
    schedule_cancel_ops_per_sec: f64,
}

#[derive(Serialize, Deserialize)]
struct SweepNumbers {
    points: usize,
    jobs: usize,
    wall_s_jobs1: f64,
    wall_s_jobs_n: f64,
    speedup: f64,
    host_cores: usize,
}

#[derive(Serialize, Deserialize, Default)]
struct KernelNumbers {
    /// Sampled kernel measurements/sec over the fig6 corpus (4 apps × 7
    /// devices, optimized kernel set) on the register-bytecode VM — the
    /// regression-gated kernel-path floor.
    vm_measurements_per_sec: f64,
}

/// What kind of host produced the numbers, machine-readable: the "1-core
/// CI runner, sweep parallelism not observable" caveat as data instead of
/// a prose note, plus the iteration counts the measurements used.
#[derive(Serialize, Deserialize)]
struct HostProvenance {
    /// Logical cores available to the process — the ceiling on
    /// `sweep.speedup`.
    logical_cores: usize,
    /// Quick (CI) or full repetition counts.
    mode: String,
    /// Best-of repetitions for the engine microbenchmarks.
    engine_reps: usize,
    /// Events per engine microbenchmark repetition.
    engine_events: u64,
    /// Best-of repetitions for the kernel-corpus passes.
    kernel_reps: usize,
    /// Un-timed warm-up sweeps before the jobs=1 / jobs=N measurements.
    sweep_warmup_runs: usize,
    /// Speed of the host reference loop ([`reference_work`]), units/sec:
    /// the best of the samples taken before every gated repetition. The
    /// `--check` gates divide by it. `None` in baselines that predate it.
    reference_per_sec: Option<f64>,
}

#[derive(Serialize, Deserialize)]
struct SelfBench {
    schema: u32,
    quick: bool,
    engine: EngineNumbers,
    sweep: SweepNumbers,
    /// Kernel-interpretation throughput (`None` in pre-VM baselines; the
    /// offline serde shim maps a missing field to `None`).
    kernels: Option<KernelNumbers>,
    /// Host description and measurement knobs (`None` in old baselines).
    host: Option<HostProvenance>,
    /// Per-subsystem wall share of a profiled pass (in-process scaling
    /// sweep + fig6 kernel corpus), heaviest first — so a regression
    /// report can say "mcl::execute grew 2.1x" instead of "events/sec
    /// dropped". `None` in pre-profiler baselines.
    subsystems: Option<Vec<SubsystemShare>>,
    /// Free-form history lines (e.g. the measured before/after of the engine
    /// rewrite that introduced this file). Carried forward verbatim from the
    /// committed baseline on every rewrite so the record survives re-runs.
    provenance: Vec<String>,
}

/// Host speed reference: a fixed mix of branchy register-machine
/// dispatch (integer and float arithmetic, like the kernel VM) and a hash
/// map of short vectors that grow and are freed (like the engine's
/// tables). No simulator change touches it, so its speed measures only
/// the host. Returns work units done.
fn reference_work() -> u64 {
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }
    const STEPS: u64 = 1_000_000;
    let mut x = 0x1234_5678_9ABC_DEF1;
    let program: Vec<u8> = (0..64).map(|_| (xorshift(&mut x) % 6) as u8).collect();
    let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut pc = 0usize;
    for _ in 0..STEPS {
        let (a, b) = ((pc * 3) & 7, (pc * 5 + 1) & 7);
        match program[pc] {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] = r[a].wrapping_mul(r[b] | 1),
            2 => r[a] ^= r[b].rotate_left(7),
            3 if r[a] & 1 == 1 => pc = (pc + 1) & 63,
            4 => r[a] = (r[a] as f64 * 1.000001 + r[b] as f64).to_bits() >> 12,
            _ => r[b] = r[a].min(r[b]).wrapping_add(3),
        }
        pc = (pc + 1) & 63;
    }
    black_box(r);
    let mut map: std::collections::HashMap<u64, Vec<u64>> = Default::default();
    for i in 0..STEPS / 20 {
        let k = xorshift(&mut x) % 4096;
        let v = map.entry(k).or_default();
        v.push(i);
        if v.len() > 8 {
            map.remove(&k);
        }
    }
    black_box(map.len());
    STEPS + STEPS / 20
}

/// The host's best speed on [`reference_work`] seen so far, sampled next
/// to every gated repetition so that it sees the host as those did.
#[derive(Default)]
struct HostReference {
    per_sec: f64,
}

impl HostReference {
    fn sample(&mut self) {
        let t0 = Instant::now();
        let units = reference_work();
        self.per_sec = self.per_sec.max(units as f64 / t0.elapsed().as_secs_f64());
    }
}

/// Best-of-`reps` wall time for `f`, returning (best_seconds, payload);
/// samples the host reference before each repetition.
fn best_of<F: FnMut() -> u64>(reps: usize, host: &mut HostReference, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut units = 0;
    for _ in 0..reps {
        host.sample();
        let t0 = Instant::now();
        units = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, units)
}

fn engine_reps(quick: bool) -> usize {
    if quick {
        3
    } else {
        7
    }
}

fn engine_events(quick: bool) -> u64 {
    if quick {
        50_000
    } else {
        200_000
    }
}

fn kernel_reps(quick: bool) -> usize {
    // best-of-2 even in quick mode: the first corpus pass pays allocator
    // and cache warmup, and the VM gate below compares quick CI runs
    // against a committed full-run baseline.
    if quick {
        2
    } else {
        3
    }
}

fn measure_engine(quick: bool, host: &mut HostReference) -> EngineNumbers {
    let reps = engine_reps(quick);
    let n: u64 = engine_events(quick);
    let (t_sr, ev_sr) = best_of(reps, host, || schedule_run(n));
    let (t_ch, ev_ch) = best_of(reps, host, || churn(1_000, n));
    let (t_sc, ops_sc) = best_of(reps, host, || schedule_cancel(n));
    EngineNumbers {
        // Headline: total events (cancel pairs count as one event's worth
        // of queue work) over total best-case time across the mix.
        events_per_sec: (ev_sr + ev_ch + ops_sc / 2) as f64 / (t_sr + t_ch + t_sc),
        schedule_run_events_per_sec: ev_sr as f64 / t_sr,
        churn_events_per_sec: ev_ch as f64 / t_ch,
        schedule_cancel_ops_per_sec: ops_sc as f64 / t_sc,
    }
}

fn scaling_points(quick: bool) -> Vec<(Series, usize)> {
    let nodes: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let mut points = Vec::new();
    for series in Series::ALL {
        for &n in nodes {
            points.push((series, n));
        }
    }
    points
}

/// The in-process scaling sweep, phrased as [`Scenario`]s — the same specs
/// a `--dump-scenario` prints.
fn sweep_scenarios(points: &[(Series, usize)]) -> Vec<Scenario> {
    points
        .iter()
        .map(|&(series, nodes)| {
            let spec = ClusterSpec::homogeneous(nodes, "gtx480");
            Scenario::paper(AppId::Kmeans, series, &spec, 42)
        })
        .collect()
}

fn run_sweep(points: &[(Series, usize)], jobs: usize) -> f64 {
    let scenarios = sweep_scenarios(points);
    let t0 = Instant::now();
    let out = sweep(scenarios, jobs, |sc| run_scenario(&sc).outcome.makespan_s);
    black_box(out);
    t0.elapsed().as_secs_f64()
}

fn measure_sweep(quick: bool) -> SweepNumbers {
    let points = scaling_points(quick);
    let jobs = default_jobs();
    // Warm-up run so neither measured pass pays first-touch costs.
    run_sweep(&points, 1);
    let wall1 = run_sweep(&points, 1);
    let wall_n = run_sweep(&points, jobs);
    SweepNumbers {
        points: points.len(),
        jobs,
        wall_s_jobs1: wall1,
        wall_s_jobs_n: wall_n,
        speedup: wall1 / wall_n,
        host_cores: default_jobs(),
    }
}

/// One timed pass over the fig6 corpus (every app × device, optimized
/// kernels); returns measurements performed. Each launch runs on the VM
/// through [`Fig6Launch::direct_seconds`], outside the process-wide launch
/// table, so every pass (and every repetition of one) times the VM rather
/// than table hits.
fn fig6_corpus_pass() -> u64 {
    let mut n = 0u64;
    for app in AppId::ALL {
        for dev in DeviceKind::ALL {
            let _prof = prof::scope("kernel::measure");
            let launch = Fig6Launch::new(app, KernelSet::Optimized, dev);
            black_box(launch.and_then(|l| l.direct_seconds()));
            n += 1;
        }
    }
    n
}

/// A profiled pass over the hot paths (one in-process scaling sweep plus
/// one kernel-corpus pass), reduced to per-subsystem wall shares. Run
/// *after* the timed measurements so profiling overhead — near-zero, but
/// not zero — never skews the gated numbers.
fn measure_subsystems(quick: bool, jobs: usize, keep_profiling: bool) -> Vec<SubsystemShare> {
    prof::set_enabled(true);
    let _ = prof::take(); // fresh slate: only this pass is attributed
    run_sweep(&scaling_points(quick), jobs);
    fig6_corpus_pass();
    let rows = subsystem_rows(&prof::take());
    prof::set_enabled(keep_profiling);
    rows
}

fn measure_kernels(quick: bool, host: &mut HostReference) -> KernelNumbers {
    let reps = kernel_reps(quick);
    let (t, n) = best_of(reps, host, fig6_corpus_pass);
    KernelNumbers {
        vm_measurements_per_sec: n as f64 / t,
    }
}

/// The measured quantities as a flat counter map, for the regression
/// explainer's counters-only diff on a failed `--check`.
fn perf_counters(b: &SelfBench) -> std::collections::BTreeMap<String, f64> {
    [
        ("engine.events_per_sec", b.engine.events_per_sec),
        (
            "engine.schedule_run_events_per_sec",
            b.engine.schedule_run_events_per_sec,
        ),
        ("engine.churn_events_per_sec", b.engine.churn_events_per_sec),
        (
            "engine.schedule_cancel_ops_per_sec",
            b.engine.schedule_cancel_ops_per_sec,
        ),
        ("sweep.wall_s_jobs1", b.sweep.wall_s_jobs1),
        ("sweep.wall_s_jobs_n", b.sweep.wall_s_jobs_n),
        (
            "kernels.vm_measurements_per_sec",
            b.kernels
                .as_ref()
                .map_or(0.0, |k| k.vm_measurements_per_sec),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .chain(b.subsystems.iter().flatten().map(|s| {
        // Shares, not milliseconds: host-speed-independent, so the diff
        // ranks redistribution of wall time, not machine noise.
        (format!("prof.{}.share", s.name), s.share)
    }))
    .collect()
}

/// The subsystem whose wall share moved most between two breakdowns:
/// `(name, old_share, new_share)`.
fn most_moved_subsystem(
    old: &[SubsystemShare],
    new: &[SubsystemShare],
) -> Option<(String, f64, f64)> {
    let share = |rows: &[SubsystemShare], name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.share)
    };
    old.iter()
        .map(|r| r.name.clone())
        .chain(new.iter().map(|r| r.name.clone()))
        .map(|name| {
            let (o, n) = (share(old, &name), share(new, &name));
            (name, o, n)
        })
        .max_by(|a, b| {
            let (da, db) = ((a.2 - a.1).abs(), (b.2 - b.1).abs());
            da.partial_cmp(&db).unwrap()
        })
}

fn bench_path() -> PathBuf {
    cli::workspace_path("BENCH_sim.json")
}

fn main() {
    let (common, rest) = cli::common_args();
    if cli::handle_scenario(&common) {
        return;
    }
    let quick = rest.iter().any(|a| a == "--quick");
    let check = rest.iter().any(|a| a == "--check");
    if common.dump {
        // The engine microbenchmarks are not cluster runs; the in-process
        // scaling sweep is, so that is what a dump shows.
        cli::dump_scenarios(&sweep_scenarios(&scaling_points(quick)));
        return;
    }
    let path = bench_path();

    // Read the committed baseline *before* overwriting it.
    let baseline: Option<SelfBench> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());

    let mut host = HostReference::default();
    println!(
        "selfbench: measuring engine throughput ({} mode)",
        if quick { "quick" } else { "full" }
    );
    let engine = measure_engine(quick, &mut host);
    println!("  events/sec (mix):      {:>12.0}", engine.events_per_sec);
    println!(
        "  schedule+run:          {:>12.0} ev/s",
        engine.schedule_run_events_per_sec
    );
    println!(
        "  churn chains:          {:>12.0} ev/s",
        engine.churn_events_per_sec
    );
    println!(
        "  schedule+cancel:       {:>12.0} op/s",
        engine.schedule_cancel_ops_per_sec
    );

    println!("selfbench: measuring parallel sweep (k-means scaling, in-process)");
    let sweep_n = measure_sweep(quick);
    println!(
        "  {} points: jobs=1 {:.2}s, jobs={} {:.2}s ({:.2}x, {} host cores)",
        sweep_n.points,
        sweep_n.wall_s_jobs1,
        sweep_n.jobs,
        sweep_n.wall_s_jobs_n,
        sweep_n.speedup,
        sweep_n.host_cores
    );

    println!("selfbench: kernel execution (fig6 corpus)");
    let kernels = measure_kernels(quick, &mut host);
    println!(
        "  vm:   {:>8.1} measurements/s",
        kernels.vm_measurements_per_sec
    );

    let reference_per_sec = host.per_sec;
    println!(
        "  host reference: {reference_per_sec:>10.0} units/s (best of the samples before each rep)"
    );

    println!("selfbench: per-subsystem wall shares (profiled pass)");
    let subsystems =
        measure_subsystems(quick, default_jobs(), common.outputs.self_profile.is_some());
    for s in subsystems.iter().take(6) {
        println!("  {:>5.1}%  {}", s.share * 100.0, s.name);
    }

    let result = SelfBench {
        schema: 2,
        quick,
        engine,
        sweep: sweep_n,
        kernels: Some(kernels),
        host: Some(HostProvenance {
            logical_cores: default_jobs(),
            mode: if quick { "quick" } else { "full" }.to_string(),
            engine_reps: engine_reps(quick),
            engine_events: engine_events(quick),
            kernel_reps: kernel_reps(quick),
            sweep_warmup_runs: 1,
            reference_per_sec: Some(reference_per_sec),
        }),
        subsystems: Some(subsystems),
        provenance: baseline
            .as_ref()
            .map(|b| b.provenance.clone())
            .unwrap_or_default(),
    };
    let json = serde_json::to_string_pretty(&result).expect("selfbench serializes");
    write_file(&path, &(json + "\n"));

    if check {
        match baseline {
            Some(base) => {
                // Throughput ratios are divided by the host's speed ratio
                // on the reference loop, so they compare the code, not the
                // machines (raw ratios against a baseline without one).
                let base_ref = base.host.as_ref().and_then(|h| h.reference_per_sec);
                let (host, unit) = match base_ref {
                    Some(b) if b > 0.0 => {
                        let host = reference_per_sec / b;
                        println!(
                            "check: host reference {reference_per_sec:.0} vs committed baseline {b:.0} ({host:.2}x); gated ratios are divided by it"
                        );
                        (host, "x host-normalized")
                    }
                    _ => (1.0, "x"),
                };
                let old = base.engine.events_per_sec;
                let new = result.engine.events_per_sec;
                let ratio = new / old / host;
                println!(
                    "check: events/sec {new:.0} vs committed baseline {old:.0} ({ratio:.2}{unit})"
                );
                // The kernel path is gated like the engine: the VM floor
                // must not regress more than 30% against the committed
                // baseline (skipped against pre-VM baselines, whose
                // `kernels` section deserializes as zeros).
                let base_kernels = base
                    .kernels
                    .as_ref()
                    .map_or(0.0, |k| k.vm_measurements_per_sec);
                let new_kernels = result
                    .kernels
                    .as_ref()
                    .map_or(0.0, |k| k.vm_measurements_per_sec);
                let kernel_ratio = if base_kernels > 0.0 {
                    new_kernels / base_kernels / host
                } else {
                    1.0
                };
                if base_kernels > 0.0 {
                    println!(
                        "check: kernel measurements/sec {new_kernels:.1} vs committed baseline {base_kernels:.1} ({kernel_ratio:.2}{unit})"
                    );
                }
                // >30% regression fails the build. Headroom below that is
                // noise on shared CI runners.
                if ratio < 0.70 || kernel_ratio < 0.70 {
                    if ratio < 0.70 {
                        eprintln!("check FAILED: engine events/sec regressed more than 30%");
                    }
                    if kernel_ratio < 0.70 {
                        eprintln!("check FAILED: kernel measurements/sec regressed more than 30%");
                    }
                    // Explain the failure: which measured quantity moved
                    // the most, ranked — the same digest the `diff` bin
                    // prints for cluster runs.
                    let d = RunDiff::compute(
                        &RunFingerprint::counters_only("committed baseline", perf_counters(&base)),
                        &RunFingerprint::counters_only("this run", perf_counters(&result)),
                    );
                    eprint!("{}", d.digest());
                    // Name the subsystem behind the regression: where the
                    // wall share redistributed to.
                    if let Some((name, old_share, new_share)) = most_moved_subsystem(
                        base.subsystems.as_deref().unwrap_or_default(),
                        result.subsystems.as_deref().unwrap_or_default(),
                    ) {
                        eprintln!(
                            "check: subsystem `{name}` moved most: {:.1}% -> {:.1}% of attributed wall",
                            old_share * 100.0,
                            new_share * 100.0
                        );
                    }
                    std::process::exit(1);
                }
                println!("check OK");
            }
            None => {
                // First run ever (or unreadable baseline): the freshly
                // written file becomes the baseline; nothing to compare.
                println!("check: no committed baseline, wrote initial BENCH_sim.json");
            }
        }
    }
    cli::finish(&common, &[]);
}
