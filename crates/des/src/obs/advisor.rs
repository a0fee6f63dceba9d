//! What-if performance advisor: perturbation model and ranked report.
//!
//! The paper's workflow is stepwise refinement guided by performance
//! feedback (Secs. II-B, V): the programmer needs to know *what to optimize
//! next*. Critical-path attribution alone cannot answer that on this system
//! — transfers overlap kernels and the balancer re-routes work when a
//! device speeds up, so the makespan is not a sum of segment times. The
//! advisor therefore answers counterfactuals by *experiment*, Coz-style:
//! re-execute the whole deterministic simulation with exactly one factor
//! virtually scaled, and report the measured makespan delta.
//!
//! This module owns the experiment vocabulary — [`Perturbation`] specs like
//! `dev:k20:2x`, candidate enumeration from a baseline trace, and the
//! ranked [`WhatIfReport`]. Applying a perturbation to a live simulation
//! and re-running it is the bench layer's job (`cashmere-bench`'s `advisor`
//! bin), which fans the re-executions out over the deterministic sweep
//! executor so reports are byte-identical at any `--jobs`.

use crate::obs::critical::CriticalPath;
use crate::time::SimTime;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// What a perturbation scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PerturbTarget {
    /// A device's compute rate: kernel times divide by the factor.
    DeviceSpeed,
    /// A device's PCIe link: bandwidth multiplies, latency divides.
    PcieLink,
    /// The cluster interconnect: bandwidth multiplies, latency divides.
    Network,
    /// Steal retry/timeout pacing: intervals divide by the factor.
    StealRetry,
    /// The balancer's static relative-speed table entry only — placement
    /// changes, actual device speed does not (a miscalibration probe).
    BalancerTable,
}

impl PerturbTarget {
    /// Spec-string prefix (`dev:`, `pcie:`, …).
    pub fn prefix(self) -> &'static str {
        match self {
            PerturbTarget::DeviceSpeed => "dev",
            PerturbTarget::PcieLink => "pcie",
            PerturbTarget::Network => "net",
            PerturbTarget::StealRetry => "steal",
            PerturbTarget::BalancerTable => "table",
        }
    }

    fn parse(s: &str) -> Option<PerturbTarget> {
        match s {
            "dev" => Some(PerturbTarget::DeviceSpeed),
            "pcie" => Some(PerturbTarget::PcieLink),
            "net" => Some(PerturbTarget::Network),
            "steal" => Some(PerturbTarget::StealRetry),
            "table" => Some(PerturbTarget::BalancerTable),
            _ => None,
        }
    }

    /// Does this target select per-device (vs. cluster-wide)?
    pub fn is_per_device(self) -> bool {
        matches!(
            self,
            PerturbTarget::DeviceSpeed | PerturbTarget::PcieLink | PerturbTarget::BalancerTable
        )
    }
}

/// One virtual-speedup experiment: scale `target` (restricted to devices
/// matching `selector`) by `factor` and re-execute.
///
/// Spec syntax: `<target>:<selector>:<factor>` — `dev:k20:2x`,
/// `pcie:*:0.5x`, `table:xeon_phi:4x`. Cluster-wide targets may omit the
/// selector (`net:2x` ≡ `net:*:2x`). A factor of `2` means "twice as
/// fast"; `0.5` means "half as fast". The trailing `x` is optional.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Perturbation {
    pub target: PerturbTarget,
    /// Device level name, or `*` for every device. Ignored (and kept as
    /// `*`) for cluster-wide targets.
    pub selector: String,
    /// Virtual speed factor; must be finite and positive.
    pub factor: f64,
}

impl Perturbation {
    /// Parse a spec string (see the type docs for the syntax).
    pub fn parse(spec: &str) -> Result<Perturbation, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let (target_s, selector, factor_s) = match parts.as_slice() {
            [t, f] => (*t, "*", *f),
            [t, s, f] => (*t, *s, *f),
            _ => {
                return Err(format!(
                    "bad perturbation `{spec}` (want <target>:<selector>:<factor>, e.g. dev:*:2x)"
                ))
            }
        };
        let target = PerturbTarget::parse(target_s).ok_or_else(|| {
            format!("unknown perturbation target `{target_s}` (dev|pcie|net|steal|table)")
        })?;
        let factor: f64 = factor_s
            .strip_suffix('x')
            .unwrap_or(factor_s)
            .parse()
            .map_err(|_| format!("bad factor `{factor_s}` in `{spec}` (e.g. 2x, 0.5)"))?;
        if !(factor.is_finite() && factor > 0.0) {
            return Err(format!("factor in `{spec}` must be finite and > 0"));
        }
        if selector.is_empty() {
            return Err(format!("empty selector in `{spec}`"));
        }
        Ok(Perturbation {
            target,
            selector: if target.is_per_device() {
                selector.to_string()
            } else {
                "*".to_string()
            },
            factor,
        })
    }

    /// The same experiment at a different factor.
    pub fn with_factor(&self, factor: f64) -> Perturbation {
        Perturbation {
            factor,
            ..self.clone()
        }
    }

    /// Canonical spec string (`dev:k20:2x`); parses back to `self`.
    pub fn spec(&self) -> String {
        format!(
            "{}:{}:{}x",
            self.target.prefix(),
            self.selector,
            self.factor
        )
    }

    /// Does this perturbation select the device level named `device`?
    pub fn matches_device(&self, device: &str) -> bool {
        self.selector == "*" || self.selector == device
    }
}

/// A candidate experiment enumerated from a baseline run, annotated with
/// the share of the critical path its span kind occupies (the extrapolation
/// a re-execution will confirm or refute).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Candidate {
    pub perturbation: Perturbation,
    /// Percent of the baseline critical path spent in the span kind this
    /// perturbation accelerates.
    pub cp_share_pct: f64,
}

/// Percent of the critical path attributable to the span kinds `target`
/// accelerates (0 when the path is empty).
pub fn critical_share_pct(cp: &CriticalPath, target: PerturbTarget) -> f64 {
    if cp.total.as_nanos() == 0 {
        return 0.0;
    }
    let kinds: &[&str] = match target {
        PerturbTarget::DeviceSpeed | PerturbTarget::BalancerTable => &["kernel"],
        PerturbTarget::PcieLink => &["copy_to_device", "copy_from_device"],
        PerturbTarget::Network => &["network"],
        PerturbTarget::StealRetry => &["steal"],
    };
    let ns: u64 = kinds
        .iter()
        .filter_map(|k| cp.by_kind.get(*k))
        .map(|t| t.as_nanos())
        .sum();
    100.0 * ns as f64 / cp.total.as_nanos() as f64
}

/// Enumerate perturbation candidates from a baseline trace: one device and
/// one PCIe candidate per device kind that recorded spans, balancer-table
/// candidates when the cluster mixes device kinds, and network / steal
/// candidates when those span kinds occurred. `device_kinds` is the cluster
/// spec's distinct device inventory (lane names alone cannot distinguish
/// `gtx480` from `gtx4800`). Order is deterministic.
pub fn enumerate_candidates(trace: &Trace, device_kinds: &[String]) -> Vec<Candidate> {
    let cp = CriticalPath::compute(trace);
    let mut kinds: Vec<&String> = device_kinds.iter().collect();
    kinds.sort();
    kinds.dedup();
    // Which device kinds actually recorded work, and which cluster-wide
    // span kinds occurred.
    let mut lane_has_spans = vec![false; trace.lane_count()];
    let (mut saw_net, mut saw_steal) = (false, false);
    for s in trace.spans() {
        lane_has_spans[s.lane.0] = true;
        match s.kind {
            crate::trace::SpanKind::Network => saw_net = true,
            crate::trace::SpanKind::Steal => saw_steal = true,
            _ => {}
        }
    }
    let kind_active = |kind: &str| {
        let infix = format!(".{kind}");
        trace.lane_names().iter().enumerate().any(|(i, name)| {
            lane_has_spans[i]
                && name.find(&infix).is_some_and(|at| {
                    // The infix must be followed by the device index
                    // digits (`n0.gtx4800.exec` matches `gtx480` at the
                    // device position, not by accident mid-name).
                    name[at + infix.len()..].starts_with(|c: char| c.is_ascii_digit())
                })
        })
    };
    let active: Vec<&String> = kinds.into_iter().filter(|k| kind_active(k)).collect();

    let mut out = Vec::new();
    let mut push = |target: PerturbTarget, selector: &str| {
        out.push(Candidate {
            perturbation: Perturbation {
                target,
                selector: selector.to_string(),
                factor: 2.0,
            },
            cp_share_pct: critical_share_pct(&cp, target),
        });
    };
    for k in &active {
        push(PerturbTarget::DeviceSpeed, k);
    }
    for k in &active {
        push(PerturbTarget::PcieLink, k);
    }
    if active.len() > 1 {
        // Table entries only matter relative to other devices.
        for k in &active {
            push(PerturbTarget::BalancerTable, k);
        }
    }
    if saw_net {
        push(PerturbTarget::Network, "*");
    }
    if saw_steal {
        push(PerturbTarget::StealRetry, "*");
    }
    out
}

/// One measured what-if experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfRow {
    /// Canonical perturbation spec (`dev:k20:2x`).
    pub spec: String,
    pub target: PerturbTarget,
    pub selector: String,
    pub factor: f64,
    /// Critical-path share of the accelerated span kind in the *baseline*
    /// (what pure extrapolation would credit).
    pub cp_share_pct: f64,
    /// Measured makespan of the perturbed re-execution, ns.
    pub makespan_ns: u64,
    /// `makespan - baseline`: negative means the perturbation helped.
    pub delta_ns: i64,
    /// `baseline / makespan`.
    pub speedup: f64,
}

/// Ranked what-if table over one baseline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfReport {
    pub workload: String,
    pub seed: u64,
    /// Baseline makespan, ns.
    pub baseline_ns: u64,
    /// Rows sorted by ascending `delta_ns` (best improvement first) after
    /// [`WhatIfReport::rank`]; ties break on the spec string.
    pub rows: Vec<WhatIfRow>,
}

impl WhatIfReport {
    pub fn new(workload: impl Into<String>, seed: u64, baseline_ns: u64) -> WhatIfReport {
        WhatIfReport {
            workload: workload.into(),
            seed,
            baseline_ns,
            rows: Vec::new(),
        }
    }

    /// Record one measured experiment.
    pub fn push(&mut self, p: &Perturbation, cp_share_pct: f64, makespan_ns: u64) {
        self.rows.push(WhatIfRow {
            spec: p.spec(),
            target: p.target,
            selector: p.selector.clone(),
            factor: p.factor,
            cp_share_pct,
            makespan_ns,
            delta_ns: makespan_ns as i64 - self.baseline_ns as i64,
            speedup: self.baseline_ns as f64 / makespan_ns as f64,
        });
    }

    /// Sort best-first (most negative delta), deterministically.
    pub fn rank(&mut self) {
        self.rows
            .sort_by(|a, b| a.delta_ns.cmp(&b.delta_ns).then(a.spec.cmp(&b.spec)));
    }

    /// The ranked "optimize this next" table.
    pub fn to_text(&self) -> String {
        let secs = |ns: u64| ns as f64 / 1e9;
        let mut out = format!(
            "what-if ranking: {} (seed {}), baseline {:.4}s\n",
            self.workload,
            self.seed,
            secs(self.baseline_ns)
        );
        let spec_w = self
            .rows
            .iter()
            .map(|r| r.spec.len())
            .max()
            .unwrap_or(4)
            .max(12);
        let _ = writeln!(
            out,
            "  {:>4}  {:<spec_w$}  {:>6}  {:>10}  {:>10}  {:>8}",
            "rank", "perturbation", "cp%", "makespan", "delta", "speedup"
        );
        for (i, r) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>4}  {:<spec_w$}  {:>6.1}  {:>9.4}s  {:>+9.4}s  {:>7.3}x",
                i + 1,
                r.spec,
                r.cp_share_pct,
                secs(r.makespan_ns),
                r.delta_ns as f64 / 1e9,
                r.speedup
            );
        }
        out
    }

    /// Baseline makespan as virtual time.
    pub fn baseline(&self) -> SimTime {
        SimTime::from_nanos(self.baseline_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanKind;

    #[test]
    fn perturbation_specs_round_trip() {
        for spec in ["dev:k20:2x", "pcie:*:0.5x", "table:xeon_phi:4x", "net:*:2x"] {
            let p = Perturbation::parse(spec).unwrap();
            assert_eq!(p.spec(), spec, "{spec}");
            assert_eq!(Perturbation::parse(&p.spec()).unwrap(), p);
        }
        // Short forms and optional `x`.
        let p = Perturbation::parse("net:2").unwrap();
        assert_eq!(p.target, PerturbTarget::Network);
        assert_eq!(p.selector, "*");
        assert_eq!(p.factor, 2.0);
        let p = Perturbation::parse("steal:0.5").unwrap();
        assert_eq!(p.target, PerturbTarget::StealRetry);
        assert_eq!(p.factor, 0.5);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(Perturbation::parse("dev").is_err());
        assert!(Perturbation::parse("gpu:*:2x").is_err());
        assert!(Perturbation::parse("dev:*:fast").is_err());
        assert!(Perturbation::parse("dev:*:0").is_err());
        assert!(Perturbation::parse("dev:*:-2").is_err());
        assert!(Perturbation::parse("dev::2x").is_err());
        assert!(Perturbation::parse("a:b:c:d").is_err());
    }

    #[test]
    fn matches_device_honors_wildcard() {
        let p = Perturbation::parse("dev:*:2x").unwrap();
        assert!(p.matches_device("k20") && p.matches_device("gtx480"));
        let p = Perturbation::parse("dev:k20:2x").unwrap();
        assert!(p.matches_device("k20"));
        assert!(!p.matches_device("gtx480"));
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn demo_trace() -> Trace {
        let mut tr = Trace::new();
        tr.set_enabled(true);
        let cpu = tr.add_lane("node0.cpu");
        let net = tr.add_lane("node0.net");
        let h2d = tr.add_lane("n0.gtx4800.h2d");
        let exec = tr.add_lane("n0.gtx4800.exec");
        let _unused = tr.add_lane("n0.k200.exec"); // registered, no spans
        let root = tr.record(cpu, SpanKind::CpuTask, "divide", t(0), t(10));
        let steal = tr.record_child(net, SpanKind::Steal, "steal", t(10), t(20), root);
        let copy = tr.record_child(h2d, SpanKind::CopyToDevice, "k", t(20), t(40), steal);
        tr.record_child(exec, SpanKind::Kernel, "k", t(40), t(100), copy);
        tr
    }

    #[test]
    fn candidates_cover_active_devices_only() {
        let tr = demo_trace();
        let kinds = vec!["gtx480".to_string(), "k20".to_string()];
        let cands = enumerate_candidates(&tr, &kinds);
        let specs: Vec<String> = cands.iter().map(|c| c.perturbation.spec()).collect();
        // k20 registered a lane but never ran: no candidates for it, and
        // with one active kind there are no table candidates either.
        assert_eq!(
            specs,
            vec!["dev:gtx480:2x", "pcie:gtx480:2x", "steal:*:2x"],
            "{specs:?}"
        );
        // The kernel dominates this critical path.
        let dev = &cands[0];
        assert!(dev.cp_share_pct > 50.0, "{}", dev.cp_share_pct);
    }

    #[test]
    fn report_ranks_best_delta_first() {
        let mut rep = WhatIfReport::new("demo", 42, 1_000_000);
        let a = Perturbation::parse("dev:a:2x").unwrap();
        let b = Perturbation::parse("dev:b:2x").unwrap();
        let c = Perturbation::parse("net:*:2x").unwrap();
        rep.push(&a, 50.0, 900_000);
        rep.push(&b, 10.0, 1_100_000);
        rep.push(&c, 5.0, 700_000);
        rep.rank();
        let specs: Vec<&str> = rep.rows.iter().map(|r| r.spec.as_str()).collect();
        assert_eq!(specs, vec!["net:*:2x", "dev:a:2x", "dev:b:2x"]);
        assert_eq!(rep.rows[0].delta_ns, -300_000);
        assert!((rep.rows[0].speedup - 1_000_000.0 / 700_000.0).abs() < 1e-9);
        let text = rep.to_text();
        assert!(text.contains("baseline 0.0010s"), "{text}");
        assert!(text.contains("net:*:2x"), "{text}");
    }
}
