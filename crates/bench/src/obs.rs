//! Observability exports shared by the bench bins.
//!
//! What a run exports is one [`OutputSpec`]: a scenario file's `outputs`
//! block with the command-line flags overlaid on it. Each flag sets the
//! field of its name (`--probe` sets `probe_interval`), and a flag that
//! is set wins over the spec ([`OutputSpec::overlay`]). Every experiment
//! binary accepts
//!
//! * `--trace <out.json>` — run with tracing on and write a Chrome
//!   trace-event file (open in Perfetto or `chrome://tracing`) plus a
//!   balancer audit log next to it (`<out>.audit.json`);
//! * `--explain` — print the critical-path analysis, the metrics summary,
//!   and a balancer-decision digest after the run;
//! * `--metrics-out <out.txt>` — dump the metrics registry in OpenMetrics
//!   text exposition format for scrape-style tooling;
//! * `--probe <interval>` — run the flight recorder at the given
//!   virtual-time cadence (`500us`, `1ms`, `2s`, or raw nanoseconds) and
//!   write the sampled series as CSV plus OpenMetrics (`.om`) and Chrome
//!   counter-track (`.trace.json`) siblings;
//! * `--probe-out <path>` — where the probe CSV goes (when only `--probe`
//!   is given: the spec's `probe_out`, else `probes.csv`);
//! * `--self-profile <stem>` — profile the *simulator host* and write
//!   `<stem>.collapsed` (flamegraph input), `<stem>.json`
//!   (provenance-enveloped context tree) and `<stem>.txt` (top-N digest).
//!   Unlike every flag above it observes the simulator, not the simulated
//!   cluster, so it implies no tracing and never changes artifact bytes.
//!
//! Bins that execute several runs (scaling sweeps, ablations) derive one
//! trace file per run by inserting the run label before the extension of
//! the file name.

use crate::cli::fail;
use crate::output::write_file;
use crate::scenario::{OutputSpec, Scenario};
use cashmere::AuditEntry;
use cashmere_des::obs::{
    prof, CriticalPath, MetricsRegistry, ProbeSeries, ProfTree, RunFingerprint,
};
use cashmere_des::trace::Trace;
use cashmere_des::SimTime;
use cashmere_satin::{critical_path_summary, RunRecord, RunReport};
use serde::{Deserialize, Serialize};

/// Parse a virtual-time span: `120ns`, `500us`, `1ms`, `2s`, or a raw
/// nanosecond count. Zero is rejected (a zero-cadence probe would never
/// let the run finish).
pub fn parse_simtime(s: &str) -> Option<SimTime> {
    let (digits, scale) = if let Some(v) = s.strip_suffix("ns") {
        (v, 1)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1_000)
    } else if let Some(v) = s.strip_suffix("ms") {
        (v, 1_000_000)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1_000_000_000)
    } else {
        (s, 1)
    };
    let n: u64 = digits.parse().ok()?;
    let ns = n.checked_mul(scale)?;
    (ns > 0).then(|| SimTime::from_nanos(ns))
}

/// Split the observability flags out of `args` (`argv[0]` included) into
/// the [`OutputSpec`] they set. Usually reached through
/// [`crate::cli::common_args`], which keeps the spec in the shared
/// [`crate::CommonArgs`]. Exits with a message when a flag lacks its value.
pub fn obs_args(args: Vec<String>) -> (OutputSpec, Vec<String>) {
    let mut obs = OutputSpec::default();
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => {
                let Some(path) = it.next() else {
                    fail("--trace requires an output path (e.g. --trace out.json)")
                };
                obs.trace = Some(path);
            }
            "--explain" => obs.explain = true,
            "--metrics-out" => {
                let Some(path) = it.next() else {
                    fail("--metrics-out requires an output path (e.g. --metrics-out m.txt)")
                };
                obs.metrics_out = Some(path);
            }
            "--probe" => {
                let Some(iv) = it.next().as_deref().and_then(parse_simtime) else {
                    fail("--probe requires a positive interval (e.g. --probe 1ms)")
                };
                obs.probe_interval = Some(iv);
            }
            "--probe-out" => {
                let Some(path) = it.next() else {
                    fail("--probe-out requires an output path (e.g. --probe-out probes.csv)")
                };
                obs.probe_out = Some(path);
            }
            "--self-profile" => {
                let Some(stem) = it.next() else {
                    fail("--self-profile requires an output stem (e.g. --self-profile prof)")
                };
                obs.self_profile = Some(stem);
            }
            _ => rest.push(a),
        }
    }
    (obs, rest)
}

/// Everything one observed run exports, moved out of the finished cluster
/// by [`ObsCapture::from_record`] so the bins can emit files and summaries.
#[derive(Debug, Clone)]
pub struct ObsCapture {
    pub trace: Trace,
    pub metrics: MetricsRegistry,
    pub audit: Vec<AuditEntry>,
    /// The run's end-of-run counters (makespan, steals, recovery, per-node
    /// busy time) — the scalar side of a run fingerprint.
    pub report: RunReport,
    /// Flight-recorder series (`Some` when a probe interval was set).
    pub probes: Option<ProbeSeries>,
    /// The virtual-time horizon summaries are measured against: the run
    /// end (total time across every iteration), never shorter than the
    /// last recorded span — so time-weighted gauges include the closing
    /// segment between their last update and the finish.
    pub horizon: SimTime,
}

impl ObsCapture {
    /// Build the capture of a finished run from its record
    /// ([`cashmere_satin::ClusterSim::into_record`]), moving everything out;
    /// `audit` takes the placement audit log off the leaf runtime.
    pub fn from_record<L>(rec: RunRecord<L>, audit: fn(L) -> Vec<AuditEntry>) -> ObsCapture {
        ObsCapture {
            // Finalize against the run end, not just the last recorded
            // span: time-weighted gauge means must include the closing
            // segment between their last update and the finish.
            horizon: rec.trace.horizon().max(rec.report.total_time),
            trace: rec.trace,
            metrics: rec.metrics,
            audit: audit(rec.leaf),
            report: rec.report,
            probes: rec.probes,
        }
    }
}

/// Build a [`RunFingerprint`] for the regression explainer from one
/// captured run: makespan, critical-path kind breakdown, per-node busy
/// time, every counter of the report's table under its static name, and
/// the probe series if one was recorded. `makespan_s` comes from the
/// outcome (it covers every iteration, unlike the report's last-root
/// makespan).
pub fn fingerprint(label: &str, makespan_s: f64, cap: &ObsCapture) -> RunFingerprint {
    let cp = CriticalPath::compute(&cap.trace);
    let r = &cap.report;
    let counters = r
        .counters()
        .map(|(c, v)| (c.name().to_string(), v as f64))
        .collect();
    RunFingerprint {
        label: label.to_string(),
        makespan: SimTime::from_secs_f64(makespan_s),
        crit: cp.by_kind,
        node_busy: r.node_busy.clone(),
        counters,
        probes: cap.probes.clone(),
    }
}

/// Insert `label` before the extension of the file name of `base`:
/// `out.json` + `4n` → `out.4n.json`, `runs.d/trace` + `4n` →
/// `runs.d/trace.4n`. Empty labels return `base` as is.
pub fn labeled_path(base: &str, label: &str) -> String {
    if label.is_empty() {
        return base.to_string();
    }
    let name = base.rfind(std::path::is_separator).map_or(0, |i| i + 1);
    match base[name..].rfind('.') {
        Some(dot) => {
            let (stem, ext) = base.split_at(name + dot);
            format!("{stem}.{label}{ext}")
        }
        None => format!("{base}.{label}"),
    }
}

/// Audit-log digest: how many decisions went where, and why any degraded
/// to the CPU leaf.
fn audit_digest(audit: &[AuditEntry]) -> String {
    use std::collections::BTreeMap;
    let mut placed: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut fallbacks: BTreeMap<&str, u64> = BTreeMap::new();
    for e in audit {
        match e.chosen {
            Some(d) => *placed.entry((e.node, d)).or_insert(0) += 1,
            None => *fallbacks.entry(e.reason.as_str()).or_insert(0) += 1,
        }
    }
    let mut parts: Vec<String> = placed
        .iter()
        .map(|((n, d), c)| format!("n{n}.dev{d}={c}"))
        .collect();
    parts.extend(fallbacks.iter().map(|(r, c)| format!("{r}={c}")));
    format!(
        "balancer audit: {} decisions ({})",
        audit.len(),
        parts.join(", ")
    )
}

/// Emit everything a run's outputs ask for: the Chrome trace and audit
/// JSON (`trace`), the OpenMetrics dump (`metrics_out`) and the probe
/// series (`probe_out`) at per-run paths derived from `label`, and the
/// critical-path / metrics / audit summaries (`explain`).
pub fn report_run(obs: &OutputSpec, label: &str, cap: &ObsCapture) {
    let _prof = prof::scope("obs::export");
    if let Some(base) = &obs.trace {
        let path = labeled_path(base, label);
        write_file(&path, &cap.trace.to_chrome_json());
        let audit = serde_json::to_string_pretty(&cap.audit).expect("audit log serializes");
        write_file(labeled_path(&path, "audit"), &audit);
    }
    if let Some(base) = &obs.metrics_out {
        let path = labeled_path(base, label);
        write_file(path, &cap.metrics.to_openmetrics(cap.horizon));
    }
    if let (Some(base), Some(p)) = (&obs.probe_out, &cap.probes) {
        let path = labeled_path(base, label);
        write_file(&path, &p.to_csv());
        write_file(format!("{path}.om"), &p.to_openmetrics());
        write_file(format!("{path}.trace.json"), &p.to_chrome_json());
    }
    if obs.explain {
        let header = if label.is_empty() {
            "--- explain ---".to_string()
        } else {
            format!("--- explain: {label} ---")
        };
        println!("{header}");
        let cp = CriticalPath::compute(&cap.trace);
        println!("{}", critical_path_summary(&cp, cap.horizon));
        if !cap.metrics.is_empty() {
            println!("{}", cap.metrics.summary(cap.horizon));
        }
        if !cap.audit.is_empty() {
            println!("{}", audit_digest(&cap.audit));
        }
        if let Some(p) = &cap.probes {
            println!(
                "flight recorder: {} ticks x {} columns @ {}",
                p.len(),
                p.columns.len(),
                p.interval
            );
        }
    }
}

/// One row of the per-subsystem breakdown: exclusive host time aggregated
/// by frame name, as a share of [`ProfTree::total_ns`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsystemShare {
    pub name: String,
    pub share: f64,
    pub self_ms: f64,
}

pub fn subsystem_rows(tree: &ProfTree) -> Vec<SubsystemShare> {
    let total = tree.total_ns() as f64;
    tree.subsystem_shares()
        .into_iter()
        .map(|(name, share)| SubsystemShare {
            name,
            share,
            self_ms: share * total / 1e6,
        })
        .collect()
}

/// The provenance-enveloped JSON form of one self-profile: which program
/// ran which scenarios, how much host wall elapsed, and where it went.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelfProfileReport {
    pub schema: u32,
    /// The profiled bin; also the collapsed-stack root frame.
    pub program: String,
    /// The scenarios the profiled process ran (empty for kernel-corpus
    /// bins) — same envelope as every other provenance-bearing artifact.
    pub provenance: Vec<Scenario>,
    /// Host wall nanoseconds between profiler enable and export.
    pub wall_ns: u64,
    /// Wall attributed to named frames (sum of root inclusive times; can
    /// exceed `wall_ns` with parallel sweep workers, like CPU time).
    pub attributed_ns: u64,
    /// `attributed_ns / wall_ns`.
    pub attributed_share: f64,
    /// Exclusive-time share per frame name, heaviest first.
    pub subsystems: Vec<SubsystemShare>,
    /// The full calling-context tree.
    pub tree: ProfTree,
}

/// Drain the profiler and write the three `--self-profile` exports:
/// `<stem>.collapsed`, `<stem>.json`, `<stem>.txt`. Prints the top-N
/// digest so a profiled run explains itself without opening a file.
pub fn write_self_profile(stem: &str, program: &str, scenarios: &[Scenario]) {
    let tree = prof::take();
    let wall_ns = prof::wall_ns();
    let attributed_ns = tree.total_ns();
    let report = SelfProfileReport {
        schema: 1,
        program: program.to_string(),
        provenance: scenarios.iter().map(Scenario::provenance_form).collect(),
        wall_ns,
        attributed_ns,
        attributed_share: attributed_ns as f64 / wall_ns.max(1) as f64,
        subsystems: subsystem_rows(&tree),
        tree,
    };
    write_file(format!("{stem}.collapsed"), &report.tree.collapsed(program));
    let mut json = serde_json::to_string_pretty(&report).expect("self-profile serializes");
    json.push('\n');
    write_file(format!("{stem}.json"), &json);
    let digest = report.tree.digest(12);
    write_file(format!("{stem}.txt"), &digest);
    print!("{digest}");
    println!(
        "self-profile: {:.1}% of {:.1}ms host wall attributed",
        report.attributed_share * 100.0,
        wall_ns as f64 / 1e6
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_carries_every_counter_under_its_name() {
        use cashmere_satin::Counter;
        let mut report = RunReport::new(2);
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            report[c] = i as u64 + 1;
        }
        let names: std::collections::BTreeSet<&str> =
            Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT, "counter names must be unique");

        let rec = RunRecord {
            report: report.clone(),
            trace: Trace::new(),
            metrics: MetricsRegistry::new(),
            probes: None,
            leaf: (),
        };
        let cap = ObsCapture::from_record(rec, |()| Vec::new());
        let fp = fingerprint("all", 1.0, &cap);
        assert_eq!(fp.counters.len(), Counter::COUNT, "{:?}", fp.counters);
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(
                fp.counters.get(c.name()),
                Some(&(i as f64 + 1.0)),
                "{}",
                c.name()
            );
        }

        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report, "{json}");
    }

    #[test]
    fn labeled_paths() {
        assert_eq!(labeled_path("out.json", "4n"), "out.4n.json");
        assert_eq!(labeled_path("out.json", ""), "out.json");
        assert_eq!(labeled_path("trace", "x"), "trace.x");
        assert_eq!(labeled_path("a/b.c.json", "audit"), "a/b.c.audit.json");
        // Only the file name's extension counts, never a directory's.
        assert_eq!(labeled_path("runs.d/trace", "4n"), "runs.d/trace.4n");
        assert_eq!(labeled_path("../t", "x"), "../t.x");
    }

    #[test]
    fn obs_args_split() {
        let argv = vec![
            "bin".to_string(),
            "--trace".to_string(),
            "t.json".to_string(),
            "--small".to_string(),
            "--explain".to_string(),
            "--metrics-out".to_string(),
            "m.txt".to_string(),
        ];
        let (obs, rest) = obs_args(argv);
        assert_eq!(obs.trace.as_deref(), Some("t.json"));
        assert_eq!(obs.metrics_out.as_deref(), Some("m.txt"));
        assert!(obs.explain);
        assert!(obs.observe());
        assert_eq!(rest, vec!["bin".to_string(), "--small".to_string()]);
    }

    #[test]
    fn parse_simtime_units_and_rejects() {
        assert_eq!(parse_simtime("500us"), Some(SimTime::from_micros(500)));
        assert_eq!(parse_simtime("1ms"), Some(SimTime::from_millis(1)));
        assert_eq!(parse_simtime("2s"), Some(SimTime::from_secs(2)));
        assert_eq!(parse_simtime("120ns"), Some(SimTime::from_nanos(120)));
        assert_eq!(parse_simtime("123456"), Some(SimTime::from_nanos(123_456)));
        assert_eq!(parse_simtime("0"), None, "zero cadence is rejected");
        assert_eq!(parse_simtime("0ms"), None);
        assert_eq!(parse_simtime("abc"), None);
        assert_eq!(parse_simtime("1.5ms"), None, "whole numbers only");
    }

    #[test]
    fn probe_flag_defaults_its_output_path() {
        let argv = vec!["bin".to_string(), "--probe".to_string(), "1ms".to_string()];
        let (obs, rest) = obs_args(argv);
        assert_eq!(obs.probe_interval, Some(SimTime::from_millis(1)));
        assert_eq!(obs.probe_out, None, "the default waits for the spec");
        assert!(obs.observe());
        assert_eq!(rest, vec!["bin".to_string()]);
        // A spec naming no path gets the default; a declared path stays.
        let mut bare = OutputSpec::default();
        bare.overlay(&obs);
        assert_eq!(bare.probe_out.as_deref(), Some("probes.csv"));
        let mut declared = OutputSpec {
            probe_out: Some("spec.csv".into()),
            ..OutputSpec::default()
        };
        declared.overlay(&obs);
        assert_eq!(declared.probe_out.as_deref(), Some("spec.csv"));
    }

    #[test]
    fn audit_digest_counts_outcomes() {
        use cashmere::balancer::PolicyDesc;
        let e = |chosen: Option<usize>, reason: &str| AuditEntry {
            seq: 0,
            node: 0,
            kernel: "k".into(),
            submit_ns: 0,
            policy: PolicyDesc::default(),
            candidates: vec![],
            chosen,
            reason: reason.into(),
        };
        let digest = audit_digest(&[
            e(Some(0), "placed"),
            e(Some(0), "placed"),
            e(None, "no-usable-device"),
        ]);
        assert!(digest.contains("3 decisions"), "{digest}");
        assert!(digest.contains("n0.dev0=2"), "{digest}");
        assert!(digest.contains("no-usable-device=1"), "{digest}");
    }
}
