//! Fig. 6: kernel performance (GFLOPS, execution only — no transfer
//! overhead) for the four applications on the seven devices, unoptimized
//! (`perfect`-level kernel) vs optimized (stepwise-refined lower-level
//! kernels). The app × device measurements are isolated kernel runs, not
//! cluster scenarios; `--jobs N` spreads them over N worker threads
//! without changing the output order.

use cashmere_apps::KernelSet;
use cashmere_bench::{kernel_gflops, sweep, write_report, AppId, Table};
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
/// kernel, how long the kernel VM took, and how many kernel measurements
/// (launches) that wall time covers.
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
    // Each (app, device) point interprets both kernel sets independently.
    let mut points = Vec::new();
    for app in AppId::ALL {
        for dev in DeviceKind::ALL {
            points.push((app, dev));
        }
    }
    let results = sweep(points, jobs, |(app, dev)| {
        let t0 = Instant::now();
        let un = kernel_gflops(app, KernelSet::Unoptimized, dev).unwrap_or(0.0);
        let un_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let opt = kernel_gflops(app, KernelSet::Optimized, dev).unwrap_or(0.0);
        let opt_ms = t1.elapsed().as_secs_f64() * 1e3;
        (un, opt, un_ms, opt_ms)
    });
    let mut json = Vec::new();
    let mut breakdown = Vec::new();
    let mut results = results.into_iter();
    for app in AppId::ALL {
        let mut t = Table::new(&["device", "unoptimized", "optimized", "speedup", "wall"]);
        for dev in DeviceKind::ALL {
            let (un, opt, un_ms, opt_ms) = results.next().expect("one result per app x device");
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
            for (set, gflops, ms) in [("unoptimized", un, un_ms), ("optimized", opt, opt_ms)] {
                breakdown.push(BreakdownRow {
                    app: app.name().to_string(),
                    device: dev.level_name().to_string(),
                    kernel_set: set.to_string(),
                    gflops,
                    wall_ms: ms,
                    measurements: 1,
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
    // Kernel-execution cost breakdown: which kernels the wall time went to.
    // Wall times are machine-dependent — this artifact is diagnostic (CI
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
