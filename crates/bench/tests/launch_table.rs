//! The process-wide launch table is exact. Every catalog scenario
//! (`bench/scenarios/*.json`) is run twice in this process, the second
//! time against a table warm with its own launches and those of the whole
//! catalog, and once in a fresh process by the `run` bin, whose table
//! starts empty. All three canonical reports must be identical. An input
//! the VM reads but the launch key leaves out would let a scenario reuse
//! statistics measured for another one's launch and show here.
//!
//! The catalog holds paper-scale runs, slow in a debug build, so the test
//! is ignored by default. Run it with
//!
//! ```text
//! cargo test --release -p cashmere-bench --test launch_table -- --ignored
//! ```

use cashmere_bench::scenario::cli::out_path;
use cashmere_bench::{run_scenario, Scenario, ScenarioReport};
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
