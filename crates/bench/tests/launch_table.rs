//! The process-wide launch table is exact. Every catalog scenario
//! (`bench/scenarios/*.json`) is run twice in this process, the second
//! time against a table warm with its own launches and those of the whole
//! catalog, and once in a fresh process by the `run` bin, whose table
//! starts empty. All three canonical reports must be identical. An input
//! the VM reads but the launch key leaves out would let a scenario reuse
//! statistics measured for another one's launch and show here.
//!
//! The Fig. 6 corpus shares the table too: run twice in a process of its
//! own, every point equals the same launch run outside the table, and the
//! VM runs once per distinct launch.
//!
//! The process-wide compiled-version cache is covered the same way: the
//! warm catalog runs register every version from that cache, and the
//! Fig. 6 corpus compiles each kernel source once, however many
//! registries register it.
//!
//! The catalog and the corpus are paper-scale, slow in a debug build, so
//! the tests are ignored by default. Run them with
//!
//! ```text
//! cargo test --release -p cashmere-bench --test launch_table -- --ignored
//! ```

use cashmere_apps::KernelSet;
use cashmere_bench::scenario::cli::out_path;
use cashmere_bench::{kernel_gflops, run_scenario, AppId, Fig6Launch, Scenario, ScenarioReport};
use cashmere_des::obs::{prof, ProfNode};
use cashmere_hwdesc::DeviceKind;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn report(sc: &Scenario) -> String {
    ScenarioReport::new(sc, run_scenario(sc).outcome).to_canonical_json()
}

/// The report of `file` run by the `run` bin in a process of its own.
/// The bin writes it to `bench/out/scenario_<name>.json`; the working
/// directory is a scratch one, so a spec's relative output paths land
/// there.
fn cold_report(file: &Path, sc: &Scenario) -> String {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("launch_table");
    std::fs::create_dir_all(scratch.join("bench/out")).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_run"))
        .arg("--scenario")
        .arg(file)
        .current_dir(&scratch)
        .stdout(Stdio::null())
        .status()
        .expect("run runs");
    assert!(status.success(), "{}: run failed", file.display());
    let path = out_path(&format!("scenario_{}.json", sc.name));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
#[ignore = "runs the paper-scale scenario catalog three times; run with --release -- --ignored"]
fn catalog_reports_are_identical_cold_and_warm() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "empty catalog");
    let load = |file: &PathBuf| {
        Scenario::load(file.to_str().unwrap()).unwrap_or_else(|e| panic!("{}: {e}", file.display()))
    };
    let first: Vec<String> = files.iter().map(|f| report(&load(f))).collect();
    for (file, first) in files.iter().zip(&first) {
        let sc = load(file);
        let what = file.display();
        let warm = report(&sc);
        assert!(
            *first == warm,
            "{what}: the warm run differs\nfirst: {first}\nwarm:  {warm}"
        );
        let cold = cold_report(file, &sc);
        assert!(
            *first == cold,
            "{what}: the fresh process differs\nhere: {first}\ncold: {cold}"
        );
    }
}

/// Set in the child process that runs the Fig. 6 corpus test's body.
const FRESH_PROCESS: &str = "LAUNCH_TABLE_FRESH_PROCESS";

/// Visits to frame `name` anywhere in the tree.
fn calls(nodes: &[ProfNode], name: &str) -> u64 {
    nodes
        .iter()
        .map(|n| if n.name == name { n.count } else { 0 } + calls(&n.children, name))
        .sum()
}

#[test]
#[ignore = "runs the paper-scale fig6 corpus three times; run with --release -- --ignored"]
fn fig6_corpus_matches_the_direct_run_and_interprets_each_launch_once() {
    // The catalog test fills the table with paper-scale launches, some of
    // them Fig. 6's, so the counts below need a process of their own: this
    // test runs itself again in a child and checks there.
    if std::env::var_os(FRESH_PROCESS).is_none() {
        let status = Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "fig6_corpus_matches_the_direct_run_and_interprets_each_launch_once",
                "--ignored",
                "--nocapture",
            ])
            .env(FRESH_PROCESS, "1")
            .status()
            .expect("the test binary runs");
        assert!(status.success(), "the fresh-process run failed");
        return;
    }

    // The launch table key's inputs, found without the table: the selected
    // version's source (as its syntax tree), the executor geometry and the
    // arguments. Direct runs (`Fig6Launch::direct_seconds`) bypass the
    // table.
    prof::set_enabled(false);
    let _ = prof::take();
    prof::set_enabled(true);
    let mut points = Vec::new();
    let mut distinct = HashSet::new();
    for app in AppId::ALL {
        for device in DeviceKind::ALL {
            for set in [KernelSet::Unoptimized, KernelSet::Optimized] {
                let what = format!("{} {set:?} on {}", app.name(), device.level_name());
                let l = Fig6Launch::new(app, set, device).expect("device and version");
                let ck = l.kernel.checked();
                distinct.insert(format!(
                    "{:?} {:?} {:?} {:?}",
                    ck.kernel,
                    ck.par_units,
                    l.kernel.config().exec_sampled(),
                    l.call.args
                ));
                let seconds = l
                    .direct_seconds()
                    .unwrap_or_else(|| panic!("{what}: launch fails"));
                points.push((app, set, device, what, l.flops / seconds / 1e9));
            }
        }
    }
    assert_eq!(points.len(), 4 * 7 * 2);
    prof::set_enabled(false);
    let tree = prof::take();
    // Each app's optimized set holds every version of its kernels (the
    // unoptimized set is its `perfect` subset), and no two apps share a
    // source.
    let sources: usize = AppId::ALL
        .into_iter()
        .map(|app| {
            let r = Fig6Launch::new(app, KernelSet::Optimized, DeviceKind::Gtx480)
                .expect("device instantiates")
                .registry;
            let names = r.kernel_names();
            names.iter().map(|k| r.versions_of(k).len()).sum::<usize>()
        })
        .sum();
    assert_eq!(
        calls(&tree.roots, "mcl::compile"),
        sources as u64,
        "56 launches' registries compile each source once"
    );
    assert_eq!(sources, 11);

    prof::set_enabled(true);
    for pass in 0..2 {
        for (app, set, device, what, direct) in &points {
            let gflops = kernel_gflops(*app, *set, *device).expect("measured");
            assert_eq!(gflops.to_bits(), direct.to_bits(), "pass {pass}: {what}");
        }
    }
    prof::set_enabled(false);
    let tree = prof::take();
    assert_eq!(calls(&tree.roots, "kernel::measure"), 2 * 56);
    assert_eq!(calls(&tree.roots, "mcl::memo"), 2 * 56);
    assert_eq!(
        calls(&tree.roots, "mcl::compile"),
        0,
        "every registry of the passes is served by the compiled-version cache"
    );
    assert_eq!(
        calls(&tree.roots, "mcl::execute"),
        distinct.len() as u64,
        "one VM run per distinct launch"
    );
    // The five NVIDIA GPUs share their launches, and the raytracer's two
    // kernel sets both select `perfect` on the Xeon Phi.
    assert_eq!(distinct.len(), 23);
}
