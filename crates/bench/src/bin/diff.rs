//! Regression explainer: diff two runs and attribute the delta.
//!
//! Takes two inputs — each either a provenance-bearing report artifact
//! (`bench/out/*.json`, as written by every bin) or a scenario spec
//! (`bench/scenarios/*.json`) — re-executes both with full observability
//! (span trace, run report, flight-recorder probes), and prints a ranked
//! "what changed" digest: makespan delta attributed by critical-path kind,
//! the probe-series phase window where the runs diverge most, per-node busy
//! divergence, and the counters that moved.
//!
//! ```text
//! cargo run --release -p cashmere-bench --bin diff -- a.json b.json
//! cargo run --release -p cashmere-bench --bin diff -- \
//!     bench/scenarios/chaos_rejoin.json bench/scenarios/chaos_rejoin.json --assert-zero
//! cargo run --release -p cashmere-bench --bin diff -- \
//!     bench/scenarios/smoke.json bench/scenarios/smoke.json --perturb-b dev:gtx480:2x
//! ```
//!
//! * `--perturb-b <spec>` — apply a perturbation set (advisor syntax, e.g.
//!   `dev:k20:2x+net:0.5`) to the second input before running: "what did
//!   this factor change?" without editing a spec file.
//! * `--assert-zero` / `--assert-nonzero` — exit 1 unless the diff is
//!   exactly zero / nonzero (CI smoke hooks).
//! * `--probe <interval>` — flight-recorder cadence for both runs
//!   (default: the spec's own `outputs.probe_interval`, else 1ms).
//! * `--out <path>` — where to write the structured diff JSON
//!   (default `bench/out/diff_<a>_vs_<b>.json`).
//! * `--jobs`, `--seed` — as in the other bench bins; both runs execute
//!   concurrently under `--jobs 2+` with byte-identical output.
//!
//! Both re-executions are deterministic, so diffing an artifact against its
//! own provenance is exactly zero — and any nonzero diff is a real change,
//! not noise.

#![forbid(unsafe_code)]

use cashmere_bench::cli::fail;
use cashmere_bench::{cli, fingerprint, run_scenario, sweep, write_file, PerturbSet, Scenario};
use cashmere_des::obs::{RunDiff, RunFingerprint};
use cashmere_des::SimTime;

/// Load one diff input: a report artifact (its embedded provenance
/// scenario) or a bare scenario spec.
fn load_input(path: &str) -> Scenario {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    if let Ok(report) = cashmere_bench::ScenarioReport::from_json(&text) {
        return report.provenance;
    }
    match Scenario::from_json(&text) {
        Ok(sc) => sc,
        Err(e) => fail(&format!(
            "{path}: neither a scenario report artifact nor a scenario spec ({e})"
        )),
    }
}

/// A filesystem-safe slug of a run label for the default output path.
fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn main() {
    let (common, rest) = cli::common_args();
    if cli::handle_scenario(&common) {
        return;
    }

    let mut inputs: Vec<String> = Vec::new();
    let mut perturb_b: Option<PerturbSet> = None;
    let mut assert_zero = false;
    let mut assert_nonzero = false;
    let mut seed: Option<u64> = None;
    let mut out: Option<String> = None;

    let mut it = rest.into_iter().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--perturb-b" => {
                let v = value("--perturb-b");
                perturb_b = Some(PerturbSet::parse_list(&v).unwrap_or_else(|e| fail(&e)));
            }
            "--assert-zero" => assert_zero = true,
            "--assert-nonzero" => assert_nonzero = true,
            "--seed" => {
                seed = Some(
                    value("--seed")
                        .parse()
                        .unwrap_or_else(|_| fail("--seed expects an integer")),
                );
            }
            "--out" => out = Some(value("--out")),
            other if !other.starts_with("--") => inputs.push(other.to_string()),
            other => fail(&format!(
                "unknown argument `{other}` (want two inputs plus --perturb-b|--assert-zero|--assert-nonzero|--seed|--out|--probe|--jobs)"
            )),
        }
    }
    if inputs.len() != 2 {
        fail(
            "diff needs exactly two inputs: report artifacts (bench/out/*.json) or scenario specs",
        );
    }
    if assert_zero && assert_nonzero {
        fail("--assert-zero and --assert-nonzero are mutually exclusive");
    }

    let mut scenarios: Vec<Scenario> = inputs.iter().map(|p| load_input(p)).collect();
    let mut labels: Vec<String> = scenarios.iter().map(|sc| sc.name.clone()).collect();
    if let Some(p) = &perturb_b {
        scenarios[1].perturb = Some(p.clone());
        labels[1] = format!("{}+perturb", labels[1]);
    }
    if labels[0] == labels[1] {
        labels[0].push_str(" (a)");
        labels[1].push_str(" (b)");
    }
    for sc in &mut scenarios {
        if let Some(s) = seed {
            sc.seed = s;
        }
        sc.outputs.capture = true;
        // CLI cadence beats the spec's own; 1ms is the fallback so the
        // phase-window attribution always has a series to work with.
        sc.outputs.probe_interval = common
            .outputs
            .probe_interval
            .or(sc.outputs.probe_interval)
            .or(Some(SimTime::from_millis(1)));
        if let Err(e) = sc.validate() {
            fail(&format!("invalid scenario `{}`: {e}", sc.name));
        }
    }

    println!(
        "diff: {} ({}) vs {} ({})",
        labels[0], inputs[0], labels[1], inputs[1]
    );
    let runs = sweep(scenarios, common.jobs.min(2), |sc| run_scenario(&sc));
    let prints: Vec<RunFingerprint> = runs
        .iter()
        .zip(&labels)
        .map(|(run, label)| {
            let cap = run.cap.as_ref().expect("capture was requested");
            fingerprint(label, run.outcome.makespan_s, cap)
        })
        .collect();

    let d = RunDiff::compute(&prints[0], &prints[1]);
    println!();
    print!("{}", d.digest());

    let path = match &out {
        Some(p) => std::path::PathBuf::from(p),
        None => cli::out_path(&format!(
            "diff_{}_vs_{}.json",
            slug(&labels[0]),
            slug(&labels[1])
        )),
    };
    let mut json = serde_json::to_string_pretty(&d).expect("diff serializes");
    json.push('\n');
    println!();
    write_file(path, &json);

    // Before the assertion exits, so a failing diff still leaves a profile.
    cli::finish(&common, &[]);
    if assert_zero && !d.is_zero() {
        eprintln!("diff: FAILED --assert-zero: the runs differ");
        std::process::exit(1);
    }
    if assert_nonzero && d.is_zero() {
        eprintln!("diff: FAILED --assert-nonzero: the runs are indistinguishable");
        std::process::exit(1);
    }
}
