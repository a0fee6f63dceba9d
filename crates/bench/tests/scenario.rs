//! The declarative scenario layer, end to end: the checked-in catalog
//! parses and validates, canonical JSON round-trips, invalid specs are
//! rejected with a real exit code, the figure presets equal the provenance
//! of the committed artifacts, an unwritable report fails the run, a spec's
//! declared outputs are all written (and a bare `--probe` keeps its probe
//! path), `chaos` exports every run its flags capture, and the provenance
//! block embedded in every report re-runs byte-identically at any `--jobs`.

use cashmere_bench::{labeled_path, run_scenario, Scenario, ScenarioReport};
use serde::Deserialize;
use std::path::PathBuf;
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

fn catalog() -> Vec<(PathBuf, Scenario)> {
    let dir = repo_root().join("bench/scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("bench/scenarios exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 3,
        "expected the checked-in catalog (paper, hetero, fault demo), found {files:?}"
    );
    files
        .into_iter()
        .map(|p| {
            let sc = Scenario::load(p.to_str().unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p, sc)
        })
        .collect()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run"))
        .args(args)
        .output()
        .expect("run binary runs")
}

/// What one `run … --dump-scenario` invocation must do.
enum Expect {
    /// Print exactly the scenarios in the `provenance` block of this
    /// committed `bench/out` artifact, this many of them.
    Provenance(&'static str, usize),
    /// Exit 2 naming the problem.
    Exit2(&'static str),
}

/// The part of a committed artifact the presets must reproduce.
#[derive(Deserialize)]
struct Artifact {
    provenance: Vec<Scenario>,
}

/// Preset drift shows here without running a simulation: each figure's
/// resolved scenario list, stripped to provenance form, must equal the one
/// its committed artifact was generated from.
#[test]
fn figure_presets_match_committed_provenance() {
    let smoke = repo_root().join("bench/scenarios/smoke.json");
    let cases: [(&[&str], Expect); 7] = [
        (&["scaling"], Expect::Provenance("fig7_14_scaling.json", 60)),
        (
            &["hetero"],
            Expect::Provenance("table3_fig15_hetero.json", 36),
        ),
        (&["ablation"], Expect::Provenance("ablation.json", 13)),
        (&["fig7"], Expect::Exit2("unknown figure `fig7`")),
        (
            &["scaling", "quicksort"],
            Expect::Exit2("unknown app `quicksort`"),
        ),
        (&[], Expect::Exit2("usage: run <figure>")),
        (
            &["scaling", "--scenario", smoke.to_str().unwrap()],
            Expect::Exit2("drop `scaling`"),
        ),
    ];
    for (args, expect) in cases {
        let out = run(&[args, &["--dump-scenario"]].concat());
        match expect {
            Expect::Provenance(file, count) => {
                assert!(out.status.success(), "{args:?} failed");
                let dumped: Vec<Scenario> =
                    serde_json::from_slice(&out.stdout).expect("dump is a scenario list");
                let dumped: Vec<Scenario> = dumped.iter().map(Scenario::provenance_form).collect();
                let path = repo_root().join("bench/out").join(file);
                let text = std::fs::read_to_string(&path).expect("committed artifact");
                let committed: Artifact = serde_json::from_str(&text).expect("artifact parses");
                assert_eq!(committed.provenance.len(), count, "{file}");
                assert!(
                    dumped == committed.provenance,
                    "{args:?}: presets differ from the provenance of {file}"
                );
            }
            Expect::Exit2(msg) => {
                assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
                let err = String::from_utf8_lossy(&out.stderr);
                assert!(err.contains(msg), "{args:?}: expected `{msg}`, got: {err}");
            }
        }
    }
}

/// A report that cannot be written fails the run instead of warning.
#[test]
fn unwritable_report_exits_nonzero() {
    let dir = std::env::temp_dir().join("cashmere-scenario-test");
    std::fs::create_dir_all(&dir).unwrap();
    // A regular file where the report's directory should be.
    let blocker = dir.join("not_a_dir");
    std::fs::write(&blocker, "").unwrap();
    let mut sc = Scenario::load(
        repo_root()
            .join("bench/scenarios/smoke.json")
            .to_str()
            .unwrap(),
    )
    .expect("smoke scenario loads");
    sc.outputs.report = Some(blocker.join("report.json").to_str().unwrap().to_string());
    let spec = dir.join("unwritable.spec.json");
    std::fs::write(&spec, sc.to_canonical_json()).unwrap();
    let out = run(&["--scenario", spec.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "an unwritten report must fail the run"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write"), "got: {err}");
}

/// The outputs a spec file declares take effect without any flag: the
/// Chrome trace with its audit log, the OpenMetrics dump, the explain
/// digest on stdout, and the report.
#[test]
fn spec_declared_outputs_are_written() {
    let dir = std::env::temp_dir().join("cashmere-scenario-outputs");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let mut sc = Scenario::load(
        repo_root()
            .join("bench/scenarios/smoke.json")
            .to_str()
            .unwrap(),
    )
    .expect("smoke scenario loads");
    sc.outputs.trace = Some(path("t.json"));
    sc.outputs.metrics_out = Some(path("m.txt"));
    sc.outputs.explain = true;
    sc.outputs.report = Some(path("report.json"));
    let spec = dir.join("outputs.spec.json");
    std::fs::write(&spec, sc.to_canonical_json()).unwrap();
    let out = run(&["--scenario", spec.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Per-run files carry the scenario name as their label.
    let trace = labeled_path(&path("t.json"), &sc.name);
    for file in [
        trace.clone(),
        labeled_path(&trace, "audit"),
        labeled_path(&path("m.txt"), &sc.name),
        path("report.json"),
    ] {
        let bytes = std::fs::read(&file).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(!bytes.is_empty(), "{file} is empty");
    }
    let metrics = std::fs::read_to_string(labeled_path(&path("m.txt"), &sc.name)).unwrap();
    assert!(
        metrics.ends_with("# EOF\n"),
        "OpenMetrics terminator missing"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("--- explain: {} ---", sc.name)),
        "no explain digest in: {stdout}"
    );
}

/// `chaos` exports what its observability flags ask for, once per run,
/// under each run's scenario name.
#[test]
fn chaos_observability_flags_write_labelled_files() {
    let dir = std::env::temp_dir().join("cashmere-chaos-outputs");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A two-node base under a name of its own whose `outputs.report` puts
    // the chaos curve in the temp dir.
    let mut base = Scenario::load(
        repo_root()
            .join("bench/scenarios/smoke.json")
            .to_str()
            .unwrap(),
    )
    .expect("smoke scenario loads");
    base.name = "chaos-outputs-test".into();
    let curve = dir.join("curve.json");
    base.outputs.report = Some(curve.to_str().unwrap().to_string());
    let spec = dir.join("base.spec.json");
    std::fs::write(&spec, base.to_canonical_json()).unwrap();
    let metrics = dir.join("m.txt").to_str().unwrap().to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["--levels", "1", "--seeds", "1", "--jobs", "1"])
        .args(["--scenario", spec.to_str().unwrap()])
        .args(["--metrics-out", &metrics])
        .output()
        .expect("chaos binary runs");
    assert!(
        out.status.success(),
        "chaos failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&curve).expect("curve at the spec's report path");
    assert!(report.contains("\"degradation\""), "{report}");
    assert!(
        !repo_root()
            .join("bench/out/chaos_chaos-outputs-test.json")
            .exists(),
        "no curve under bench/out"
    );
    for label in [
        "chaos-outputs-test.chaos.l0",
        "chaos-outputs-test.chaos.l1.s0",
    ] {
        let file = labeled_path(&metrics, label);
        let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(
            text.ends_with("# EOF\n"),
            "{file}: OpenMetrics terminator missing"
        );
    }
}

/// `--probe` without `--probe-out` keeps the spec's declared
/// `outputs.probe_out`; `probes.csv` is only the default when neither
/// names a path.
#[test]
fn probe_flag_keeps_the_spec_probe_path() {
    let dir = std::env::temp_dir().join("cashmere-probe-path");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = repo_root().join("bench/scenarios/probe_chaos.json");
    // The spec's `probe_out` is relative, so it resolves in `dir`.
    let out = Command::new(env!("CARGO_BIN_EXE_run"))
        .args(["--scenario", spec.to_str().unwrap(), "--probe", "1ms"])
        .current_dir(&dir)
        .output()
        .expect("run binary runs");
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let declared = dir.join("bench/out/probe_chaos.probe-chaos.csv");
    let csv = std::fs::read_to_string(&declared)
        .unwrap_or_else(|e| panic!("{}: {e}", declared.display()));
    assert!(csv.lines().count() > 1, "probe CSV has no samples");
    assert!(
        !dir.join("probes.probe-chaos.csv").exists(),
        "the default path must not win over the spec's"
    );
}

#[test]
fn catalog_scenarios_parse_and_validate() {
    for (path, sc) in catalog() {
        sc.validate()
            .unwrap_or_else(|e| panic!("{}: invalid: {e}", path.display()));
    }
}

#[test]
fn catalog_scenarios_round_trip_canonically() {
    for (path, sc) in catalog() {
        let canonical = sc.to_canonical_json();
        let back = Scenario::from_json(&canonical)
            .unwrap_or_else(|e| panic!("{}: canonical form rejected: {e}", path.display()));
        assert_eq!(
            sc,
            back,
            "{}: round trip changed the scenario",
            path.display()
        );
        // Canonical JSON is a fixed point: serializing the round-tripped
        // value reproduces the exact bytes.
        assert_eq!(
            canonical,
            back.to_canonical_json(),
            "{}: canonical JSON is not a fixed point",
            path.display()
        );
    }
}

#[test]
fn invalid_scenario_fails_with_exit_2() {
    let dir = std::env::temp_dir().join("cashmere-scenario-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad_device.json");
    std::fs::write(
        &bad,
        r#"{"name":"bad","app":"kmeans","series":"cashmere-opt","nodes":[["gtx9999"]]}"#,
    )
    .unwrap();
    let out = run(&["--scenario", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "invalid spec must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown device"),
        "error should name the problem, got: {err}"
    );
}

#[test]
fn report_provenance_reruns_byte_identically() {
    let path = repo_root().join("bench/scenarios/smoke.json");
    let sc = Scenario::load(path.to_str().unwrap()).expect("smoke scenario loads");
    let report = ScenarioReport::new(&sc, run_scenario(&sc).outcome);
    let first = report.to_canonical_json();
    // Parse the report back as a consumer would (from the JSON alone) and
    // re-execute its embedded provenance block.
    let parsed = ScenarioReport::from_json(&first).expect("report parses");
    let second = parsed.rerun().to_canonical_json();
    assert_eq!(first, second, "provenance re-run is not byte-identical");
}

#[test]
fn scenario_run_is_byte_identical_at_any_jobs() {
    let spec = repo_root().join("bench/scenarios/smoke.json");
    let run = |jobs: &str| {
        let report = std::env::temp_dir()
            .join("cashmere-scenario-test")
            .join(format!("smoke_jobs{jobs}.json"));
        std::fs::create_dir_all(report.parent().unwrap()).unwrap();
        // Point the report at a temp file via the outputs.report field so
        // parallel test runs don't race on bench/out/.
        let mut sc = Scenario::load(spec.to_str().unwrap()).unwrap();
        sc.outputs.report = Some(report.to_str().unwrap().to_string());
        let patched = report.with_extension("spec.json");
        std::fs::write(&patched, sc.to_canonical_json()).unwrap();
        let out = run(&["--scenario", patched.to_str().unwrap(), "--jobs", jobs]);
        assert!(
            out.status.success(),
            "--jobs {jobs} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read(&report).expect("report written");
        (out.stdout, json)
    };
    let (stdout_seq, json_seq) = run("1");
    let (stdout_par, json_par) = run("4");
    // stdout includes the [wrote …] path, which differs by file name; the
    // table block above it must match.
    let table = |b: &[u8]| {
        String::from_utf8_lossy(b)
            .lines()
            .filter(|l| !l.starts_with("[wrote"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(table(&stdout_seq), table(&stdout_par));
    assert_eq!(json_seq, json_par, "report bytes differ across --jobs");
}
