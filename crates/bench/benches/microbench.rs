//! Criterion microbenchmarks of the substrate hot paths: the
//! discrete-event engine, the MCPL interpreter and the device load
//! balancer.
//!
//! ```text
//! cargo bench -p cashmere-bench
//! ```
//!
//! Sample sizes are kept small: these exist to catch order-of-magnitude
//! regressions in the simulation substrate, not to microtune.

#![forbid(unsafe_code)]

use cashmere::Balancer;
use cashmere_bench::engine_load::{churn, schedule_cancel, schedule_run, scheduled, BenchWorld};
use cashmere_des::SimTime;
use cashmere_hwdesc::standard_hierarchy;
use cashmere_mcl::value::{ArgValue, ArrayArg};
use cashmere_mcl::{compile, CheckedKernel, ExecOptions};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_des(c: &mut Criterion) {
    c.bench_function("des/100k_events", |b| {
        b.iter_batched(
            || scheduled(100_000),
            |mut sim| {
                sim.run(&mut BenchWorld::default());
                black_box(sim.events_fired())
            },
            BatchSize::SmallInput,
        )
    });
    // End-to-end schedule + run: includes the storage side, which the
    // slab's by-value event slots keep allocation-free.
    c.bench_function("des/100k_schedule_run", |b| {
        b.iter(|| schedule_run(100_000))
    });
    // Steady-state churn, the pattern cluster simulations actually produce:
    // a bounded set of in-flight chains, each event scheduling a successor.
    c.bench_function("des/churn_1k_chains_100k_events", |b| {
        b.iter(|| churn(1_000, 100_000))
    });
    // Schedule/cancel throughput: the work-stealing engine arms and disarms
    // steal-timeout and retry events constantly.
    c.bench_function("des/100k_schedule_cancel", |b| {
        b.iter(|| schedule_cancel(100_000))
    });
}

fn saxpy_kernel() -> (CheckedKernel, Vec<String>) {
    let h = standard_hierarchy();
    let ck = compile(
        "perfect void saxpy(int n, float alpha, float[n] y, float[n] x) {
  foreach (int i in n threads) { y[i] += alpha * x[i]; }
}",
        &h,
    )
    .expect("saxpy compiles");
    (ck, vec!["threads".to_string()])
}

/// A tiled matmul with deep uniform `for` nests and a shared scratch tile —
/// the shape that dominates the fig6 corpus (the XeonPhi optimized kernel).
fn tiled_kernel() -> (CheckedKernel, Vec<String>) {
    let h = standard_hierarchy();
    let ck = compile(
        "perfect void matmul(int n, int m, int p, float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int j in m threads) {
    local float tile[64];
    for (int kt = 0; kt < (p + 63) / 64; kt = kt + 1) {
      for (int kk = 0; kk < 64; kk = kk + 1) {
        int k = kt * 64 + kk;
        if (k < p) { tile[kk] = 1.0; }
      }
      for (int i = 0; i < n; i = i + 1) {
        float acc = 0.0;
        for (int kk = 0; kk < 64; kk = kk + 1) {
          int k = kt * 64 + kk;
          if (k < p) { acc = acc + a[i,k] * tile[kk]; }
        }
        c[i,j] = c[i,j] + acc * b[0,j];
      }
    }
  }
}",
        &h,
    )
    .expect("tiled matmul compiles");
    (ck, vec!["threads".to_string()])
}

/// Bench one (kernel, engine, mode) cell: tree vs register VM, full vs
/// sampled. Both engines produce bit-identical stats; only wall time may
/// differ.
fn bench_engines(
    c: &mut Criterion,
    name: &str,
    ck: &CheckedKernel,
    units: &[String],
    args: &dyn Fn() -> Vec<ArgValue>,
    sampled: bool,
) {
    let opts = ExecOptions {
        sample: sampled.then(Default::default),
        ..ExecOptions::default()
    };
    let mode = if sampled { "sampled" } else { "full" };
    c.bench_function(&format!("mcl_interp/{name}_{mode}_tree"), |b| {
        b.iter_batched(
            args,
            |a| {
                let r = cashmere_mcl::interp::execute(ck, a, units, &opts).expect("runs");
                black_box(r.stats.flops)
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function(&format!("mcl_interp/{name}_{mode}_vm"), |b| {
        b.iter_batched(
            args,
            |a| {
                let r = cashmere_mcl::vm::execute(ck, a, units, &opts).expect("runs");
                black_box(r.stats.flops)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_interpreter(c: &mut Criterion) {
    // Small kernel: per-launch overhead (compile-to-bytecode included on
    // the VM side) dominates.
    let (ck, units) = saxpy_kernel();
    let small = 4 * 1024u64;
    let small_args = move || {
        vec![
            ArgValue::Int(small as i64),
            ArgValue::Float(2.0),
            ArgValue::Array(ArrayArg::float(&[small], vec![1.0; small as usize])),
            ArgValue::Array(ArrayArg::float(&[small], vec![2.0; small as usize])),
        ]
    };
    bench_engines(c, "saxpy_4k", &ck, &units, &small_args, false);
    bench_engines(c, "saxpy_4k", &ck, &units, &small_args, true);

    // Large kernel: per-lane interpretation dominates; this is where the
    // register VM's uniformity fast paths pay off.
    let n = 64 * 1024u64;
    let large_args = move || {
        vec![
            ArgValue::Int(n as i64),
            ArgValue::Float(2.0),
            ArgValue::Array(ArrayArg::float(&[n], vec![1.0; n as usize])),
            ArgValue::Array(ArrayArg::float(&[n], vec![2.0; n as usize])),
        ]
    };
    bench_engines(c, "saxpy_64k", &ck, &units, &large_args, false);

    let (tk, tunits) = tiled_kernel();
    let (tn, tm, tp) = (64i64, 256i64, 256i64);
    let tiled_args = move || {
        vec![
            ArgValue::Int(tn),
            ArgValue::Int(tm),
            ArgValue::Int(tp),
            ArgValue::Array(ArrayArg::float(
                &[tn as u64, tm as u64],
                vec![0.0; (tn * tm) as usize],
            )),
            ArgValue::Array(ArrayArg::float(
                &[tn as u64, tp as u64],
                vec![1.0; (tn * tp) as usize],
            )),
            ArgValue::Array(ArrayArg::float(
                &[tp as u64, tm as u64],
                vec![1.0; (tp * tm) as usize],
            )),
        ]
    };
    bench_engines(c, "tiled_matmul", &tk, &tunits, &tiled_args, false);
    bench_engines(c, "tiled_matmul", &tk, &tunits, &tiled_args, true);
}

fn bench_balancer(c: &mut Criterion) {
    c.bench_function("balancer/choose_among_4_devices", |b| {
        let mut bal = Balancer::new(&[40.0, 20.0, 30.0, 10.0]);
        for d in 0..4 {
            bal.on_submit(d);
            bal.on_complete("k", d, SimTime::from_millis(100 + d as u64 * 25));
        }
        for _ in 0..5 {
            bal.on_submit(0);
        }
        b.iter(|| black_box(bal.choose_among("k", &[true; 4])))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_des, bench_interpreter, bench_balancer
}
criterion_main!(benches);
