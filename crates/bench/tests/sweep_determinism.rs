//! Parallel sweeps must be invisible: `--jobs 4` and `--jobs 1` produce
//! byte-identical stdout (tables) and JSON output for the same invocation.
//!
//! Runs the real `run scaling` figure (one app to keep CI fast) twice and
//! compares both channels byte-for-byte.

use std::path::PathBuf;
use std::process::Command;

fn run_scaling(jobs: &str) -> (Vec<u8>, Vec<u8>) {
    let out = Command::new(env!("CARGO_BIN_EXE_run"))
        .args(["scaling", "kmeans", "--jobs", jobs])
        .output()
        .expect("run binary runs");
    assert!(
        out.status.success(),
        "scaling --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The JSON lands in bench/out/ at the repo root.
    let mut json = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    json.pop();
    json.pop();
    json.push("bench/out/fig7_14_scaling_kmeans.json");
    let json = std::fs::read(&json).expect("scaling wrote its JSON");
    (out.stdout, json)
}

#[test]
fn scaling_jobs_4_is_byte_identical_to_jobs_1() {
    let (stdout_seq, json_seq) = run_scaling("1");
    let (stdout_par, json_par) = run_scaling("4");
    assert_eq!(
        stdout_seq, stdout_par,
        "stdout differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        json_seq, json_par,
        "JSON output differs between --jobs 1 and --jobs 4"
    );
    // Sanity: the run actually produced the paper's table, not an error.
    let text = String::from_utf8(stdout_seq).expect("stdout is UTF-8");
    assert!(text.contains("Fig. 11"), "expected the k-means figures");
    assert!(text.contains("cashmere-opt"), "expected all three series");
}
