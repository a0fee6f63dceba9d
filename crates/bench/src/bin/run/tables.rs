//! The paper's background tables and Fig. 2: everything, or the one item
//! (`table1`, `table2`, `fig2`) named by the figure argument.

use cashmere_bench::Table;
use cashmere_hwdesc::library::das4_inventory;
use cashmere_hwdesc::{standard_hierarchy, DeviceKind};

fn table1() {
    println!("Table I: TOP500 supercomputers with heterogeneous many-core devices");
    println!("(as of November 2014, reproduced from the paper)\n");
    let rows: &[(&str, &str, u32, &str)] = &[
        (
            "Quartetto",
            "Kyushu University",
            49,
            "K20, K20X, Xeon Phi 5110P",
        ),
        (
            "Lomonosov",
            "Moscow State University",
            58,
            "2070, PowerXCell 8i",
        ),
        (
            "HYDRA",
            "Max-Planck-Gesellschaft MPI/IPP",
            77,
            "K20X, Xeon Phi",
        ),
        (
            "SuperMIC",
            "Louisiana State University",
            88,
            "Xeon Phi 7110P, K20X",
        ),
        ("Palmetto2", "Clemson University", 89, "K20m, M2075, M2070"),
        ("Armstrong", "Navy DSRC", 103, "Xeon Phi 5120D, K40"),
        (
            "Loewe-CSC",
            "Universitaet Frankfurt",
            179,
            "HD5870, FirePro S10000",
        ),
        (
            "Inspur TS10000",
            "Shanghai Jiaotong University",
            310,
            "K20m, Xeon Phi 5110P",
        ),
        (
            "Tsubame 2.5",
            "Tokyo Institute of Technology",
            392,
            "K20X, S1070, S2070",
        ),
        (
            "El Gato",
            "University of Arizona",
            465,
            "K20, K20X, Xeon Phi 5110P",
        ),
    ];
    let mut t = Table::new(&["name", "institute", "ranking", "configuration"]);
    for (n, i, r, c) in rows {
        t.row(vec![
            n.to_string(),
            i.to_string(),
            r.to_string(),
            c.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn table2() {
    println!("Table II: application classes used to evaluate Cashmere\n");
    let mut t = Table::new(&["application", "type", "computation", "communication"]);
    for (a, ty, co, cm) in [
        ("raytracer", "irregular", "heavy", "light"),
        ("matmul", "regular", "heavy", "heavy"),
        ("k-means", "iterative", "moderate", "light"),
        ("n-body", "iterative", "heavy", "moderate"),
    ] {
        t.row(vec![a.into(), ty.into(), co.into(), cm.into()]);
    }
    println!("{}", t.render());
}

fn fig2() {
    println!("Fig. 2: hierarchy of hardware descriptions\n");
    let h = standard_hierarchy();
    println!("{}", h.render_tree());
    println!("device database (published specs):\n");
    let mut t = Table::new(&[
        "device",
        "units",
        "simd",
        "GHz",
        "peak SP GFLOPS",
        "mem GB/s",
        "rel. speed",
    ]);
    for d in DeviceKind::ALL {
        let p = h.device_params(d.level(&h)).expect("device resolves");
        t.row(vec![
            d.display_name().to_string(),
            p.compute_units.to_string(),
            p.simd_width.to_string(),
            format!("{:.3}", p.clock_ghz),
            format!("{:.0}", p.peak_sp_gflops()),
            format!("{:.0}", p.mem_bandwidth_gbs),
            format!("{:.0}", p.relative_speed),
        ]);
    }
    println!("{}", t.render());
    println!("DAS-4 many-core inventory (Sec. IV):");
    for (d, n) in das4_inventory() {
        println!("  {n:>2} × {}", d.display_name());
    }
}

pub fn report(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("table1") => table1(),
        Some("table2") => table2(),
        Some("fig2") => fig2(),
        None => {
            table1();
            table2();
            fig2();
        }
        Some(other) => cashmere_bench::cli::fail(&format!(
            "unknown item `{other}` (expected table1|table2|fig2)"
        )),
    }
}
