//! Fig. 6: kernel performance (GFLOPS, execution only — no transfer
//! overhead) for the four applications on the seven devices, unoptimized
//! (`perfect`-level kernel) vs optimized (stepwise-refined lower-level
//! kernels). The app × device measurements are isolated kernel launches,
//! not cluster scenarios. They share the process-wide launch table with
//! every other sampled launch, so devices that select the same version at
//! the same geometry (the five NVIDIA GPUs, say) interpret it once; the
//! table is exact, so which point fills an entry never shows in the
//! results. `--jobs N` spreads the points over N worker threads without
//! changing the output order.

use cashmere_apps::KernelSet;
use cashmere_bench::{measure_kernel, sweep, write_report, AppId, Table};
use cashmere_hwdesc::DeviceKind;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    app: String,
    device: String,
    unoptimized_gflops: f64,
    optimized_gflops: f64,
    speedup: f64,
}

/// One sampled-launch measurement in the `fig6_breakdown` artifact: which
/// kernel, how long the measurement took, and how many VM runs that wall
/// time covers (1 for the point that interpreted the launch, 0 for one the
/// launch table answered).
#[derive(Serialize)]
struct BreakdownRow {
    app: String,
    device: String,
    kernel_set: String,
    gflops: f64,
    wall_ms: f64,
    measurements: u64,
}

#[derive(Serialize)]
struct Breakdown {
    total_wall_ms: f64,
    total_measurements: u64,
    rows: Vec<BreakdownRow>,
}

pub fn report(jobs: usize) {
    println!("Fig. 6: kernel GFLOPS, unoptimized vs optimized\n");
    // Each (app, device) point measures both kernel sets.
    let mut points = Vec::new();
    for app in AppId::ALL {
        for dev in DeviceKind::ALL {
            points.push((app, dev));
        }
    }
    let results = sweep(points, jobs, |(app, dev)| {
        let timed = |set| {
            let t0 = Instant::now();
            let m = measure_kernel(app, set, dev);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let (gflops, vm_runs) = m.map_or((0.0, 0), |m| (m.gflops, u64::from(m.interpreted)));
            (gflops, ms, vm_runs)
        };
        (timed(KernelSet::Unoptimized), timed(KernelSet::Optimized))
    });
    let mut json = Vec::new();
    let mut breakdown = Vec::new();
    let mut results = results.into_iter();
    for app in AppId::ALL {
        let mut t = Table::new(&["device", "unoptimized", "optimized", "speedup", "wall"]);
        for dev in DeviceKind::ALL {
            let ((un, un_ms, un_runs), (opt, opt_ms, opt_runs)) =
                results.next().expect("one result per app x device");
            let speedup = if un > 0.0 { opt / un } else { 0.0 };
            t.row(vec![
                dev.display_name().to_string(),
                format!("{un:.0}"),
                format!("{opt:.0}"),
                format!("{speedup:.2}x"),
                format!("{:.1}ms", un_ms + opt_ms),
            ]);
            json.push(Row {
                app: app.name().to_string(),
                device: dev.level_name().to_string(),
                unoptimized_gflops: un,
                optimized_gflops: opt,
                speedup,
            });
            for (set, gflops, ms, vm_runs) in [
                ("unoptimized", un, un_ms, un_runs),
                ("optimized", opt, opt_ms, opt_runs),
            ] {
                breakdown.push(BreakdownRow {
                    app: app.name().to_string(),
                    device: dev.level_name().to_string(),
                    kernel_set: set.to_string(),
                    gflops,
                    wall_ms: ms,
                    measurements: vm_runs,
                });
            }
        }
        println!("{}:", app.name());
        println!("{}", t.render());
    }
    // Same schema/provenance/data envelope as the cluster figures; the
    // provenance list is empty because these are isolated kernel runs, not
    // cluster scenarios.
    write_report("fig6_kernel_performance", &[], &json);
    // Kernel-execution cost breakdown: which kernels the wall time went to,
    // and `total_measurements` = the distinct launches interpreted. Wall
    // times are machine-dependent, and with `--jobs` above 1 which point
    // fills a shared launch varies — this artifact is diagnostic (CI
    // uploads it), not part of the canonical result set.
    let total_wall_ms: f64 = breakdown.iter().map(|r| r.wall_ms).sum();
    let total_measurements: u64 = breakdown.iter().map(|r| r.measurements).sum();
    write_report(
        "fig6_breakdown",
        &[],
        &Breakdown {
            total_wall_ms,
            total_measurements,
            rows: breakdown,
        },
    );
    println!(
        "expected shape (paper): optimization helps drastically for matmul /\n\
         k-means / n-body; the raytracer barely moves (divergence-bound)."
    );
}
