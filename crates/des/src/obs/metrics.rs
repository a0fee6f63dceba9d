//! Metrics registry: time-weighted gauges and log-scaled latency
//! histograms. Run counters live in the simulation's run report, not here.
//!
//! Everything here is deterministic: storage is `BTreeMap`-keyed, histogram
//! buckets are powers of two of simulated nanoseconds, and no wall-clock or
//! RNG state is consulted, so two identical seeded runs render byte-identical
//! summaries. Recording is gated by an `enabled` flag (set alongside trace
//! recording) so the hot path costs one branch when observability is off.

use crate::stats::TimeWeighted;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log2 buckets: bucket `i` holds durations with bit length `i`,
/// i.e. `[2^(i-1), 2^i)` ns (bucket 0 holds exact zeros).
const BUCKETS: usize = 65;

/// A latency histogram with logarithmic (power-of-two) buckets.
///
/// Quantiles interpolate linearly *within* the resolved log₂ bucket (the
/// `histogram_quantile` rule), positioned by the rank's offset into the
/// bucket, then clamp into the observed `[min, max]` range — exact for
/// single-valued distributions and far closer than the bucket upper bound
/// (which over-reported by up to 2× when the mass sat at a bucket's lower
/// edge) otherwise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

fn bucket_index(ns: u64) -> usize {
    (u64::BITS - ns.leading_zeros()) as usize
}

fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1).min(63)
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, value: SimTime) {
        let ns = value.as_nanos();
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn min(&self) -> SimTime {
        SimTime::from_nanos(if self.count == 0 { 0 } else { self.min_ns })
    }

    pub fn max(&self) -> SimTime {
        SimTime::from_nanos(self.max_ns)
    }

    pub fn mean(&self) -> SimTime {
        SimTime::from_nanos(self.sum_ns.checked_div(self.count).unwrap_or(0))
    }

    /// Sum of every recorded value.
    pub fn sum(&self) -> SimTime {
        SimTime::from_nanos(self.sum_ns)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded values, interpolated
    /// linearly within the resolved log₂ bucket by the rank's offset into
    /// that bucket's population.
    pub fn quantile(&self, q: f64) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                let lower = bucket_lower_bound(i);
                let upper = bucket_upper_bound(i);
                // Rank position inside this bucket, in (0, 1].
                let before = cumulative - n;
                let pos = (target - before) as f64 / *n as f64;
                let est = lower as f64 + (upper - lower) as f64 * pos;
                return SimTime::from_nanos((est as u64).clamp(self.min_ns, self.max_ns));
            }
        }
        SimTime::from_nanos(self.max_ns)
    }

    pub fn p50(&self) -> SimTime {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> SimTime {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> SimTime {
        self.quantile(0.99)
    }
}

/// Central registry of named metrics, owned by the simulated world next to
/// its [`crate::Trace`]. Names are dotted paths such as `node1.busy_cores`
/// or `pcie.h2d`.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    gauges: BTreeMap<String, TimeWeighted>,
    histograms: BTreeMap<String, LatencyHistogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn recording on or off (mirrors [`crate::Trace::set_enabled`]).
    #[inline]
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Set a time-weighted gauge to `value` at simulated time `now`.
    /// Out-of-order timestamps (overlapping leaves submit into the future)
    /// are clamped to the gauge's last update time.
    #[inline]
    pub fn gauge_set(&mut self, name: &str, now: SimTime, value: f64) {
        if !self.enabled {
            return;
        }
        match self.gauges.get_mut(name) {
            Some(g) => g.update_clamped(now, value),
            None => {
                self.gauges
                    .insert(name.to_string(), TimeWeighted::new(now, value));
            }
        }
    }

    /// Record a latency observation into a histogram.
    #[inline]
    pub fn observe(&mut self, name: &str, value: SimTime) {
        if !self.enabled {
            return;
        }
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = LatencyHistogram::new();
                h.record(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    pub fn gauge(&self, name: &str) -> Option<&TimeWeighted> {
        self.gauges.get(name)
    }

    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(name)
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&str, &TimeWeighted)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LatencyHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn is_empty(&self) -> bool {
        self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Deterministic text rendering of every metric; `now` closes out the
    /// time-weighted gauges.
    pub fn summary(&self, now: SimTime) -> String {
        let mut out = String::new();
        for (name, g) in self.gauges() {
            let _ = writeln!(
                out,
                "gauge     {name}: mean {:.2}, max {:.2}",
                g.mean(now),
                g.max()
            );
        }
        for (name, h) in self.histograms() {
            let _ = writeln!(
                out,
                "histogram {name}: n={} p50 {} p95 {} p99 {} max {}",
                h.count(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max()
            );
        }
        out
    }

    /// OpenMetrics / Prometheus text exposition of every metric.
    ///
    /// Time-weighted gauges become `gauge` families with a `stat` label
    /// (`last`, `max`, `mean` — in that fixed order), and latency
    /// histograms become
    /// `summary` families with ascending `quantile` labels plus `_count` /
    /// `_sum` samples in seconds. Names are prefixed `cashmere_` with
    /// non-alphanumeric characters mapped to `_`; when that mangling makes
    /// two metric names collide (`a.b` vs `a_b`), the `# TYPE` / `# HELP`
    /// metadata is emitted once per family, not once per metric — parsers
    /// reject duplicate metadata lines. Family order follows the registry's
    /// sorted storage, so the output is byte-deterministic. `now` closes
    /// out the time-weighted gauges, as in [`MetricsRegistry::summary`].
    pub fn to_openmetrics(&self, now: SimTime) -> String {
        fn family(name: &str) -> String {
            let mut out = String::from("cashmere_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut meta = |out: &mut String, f: &str, kind: &str, help: &str| {
            if seen.insert(f.to_string()) {
                let _ = writeln!(out, "# TYPE {f} {kind}");
                let _ = writeln!(out, "# HELP {f} {help}");
            }
        };
        let mut out = String::new();
        for (name, g) in self.gauges() {
            let f = family(name);
            meta(
                &mut out,
                &f,
                "gauge",
                &format!("Time-weighted gauge `{name}`."),
            );
            let _ = writeln!(out, "{f}{{stat=\"last\"}} {}", g.value());
            let _ = writeln!(out, "{f}{{stat=\"max\"}} {}", g.max());
            let _ = writeln!(out, "{f}{{stat=\"mean\"}} {:.6}", g.mean(now));
        }
        for (name, h) in self.histograms() {
            let f = family(name);
            meta(
                &mut out,
                &f,
                "summary",
                &format!("Latency histogram `{name}`, seconds."),
            );
            for (label, q) in [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)] {
                let _ = writeln!(
                    out,
                    "{f}{{quantile=\"{label}\"}} {:.9}",
                    h.quantile(q).as_secs_f64()
                );
            }
            let _ = writeln!(out, "{f}_count {}", h.count());
            let _ = writeln!(out, "{f}_sum {:.9}", h.sum().as_secs_f64());
        }
        out.push_str("# EOF\n");
        out
    }
}

/// Escape a string for use inside an OpenMetrics label value: backslash,
/// double quote, and newline must be backslash-escaped per the exposition
/// format. Shared by every exporter that emits labels (this registry and
/// [`crate::obs::ProbeSeries::to_openmetrics`]).
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn histogram_single_value_quantiles_are_exact() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(t(1500));
        }
        assert_eq!(h.p50(), t(1500));
        assert_eq!(h.p95(), t(1500));
        assert_eq!(h.p99(), t(1500));
        assert_eq!(h.min(), t(1500));
        assert_eq!(h.max(), t(1500));
        assert_eq!(h.mean(), t(1500));
    }

    #[test]
    fn histogram_quantiles_on_known_distribution() {
        // 90 values of ~1 µs, 9 of ~1 ms, 1 of ~1 s: p50 must sit in the µs
        // decade, p95 in the ms decade, p99+ reaches the outlier's bucket.
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(t(1_000));
        }
        for _ in 0..9 {
            h.record(t(1_000_000));
        }
        h.record(t(1_000_000_000));
        assert_eq!(h.count(), 100);
        let p50 = h.p50().as_nanos();
        assert!((1_000..2_048).contains(&p50), "p50 = {p50}");
        // p95 lands in the 1 ms value's log2 bucket [2^19, 2^20); the
        // interpolated estimate stays inside it instead of snapping to the
        // upper bound.
        let p95 = h.p95().as_nanos();
        assert!((524_288..1_048_576).contains(&p95), "p95 = {p95}");
        let p995 = h.quantile(0.995).as_nanos();
        assert!(p995 >= 1_000_000_000, "p99.5 = {p995}");
        // Quantiles never exceed the observed maximum.
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn histogram_is_within_a_factor_of_two() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(t(v * 1_000));
        }
        let exact_p50 = 500_000u64;
        let got = h.p50().as_nanos();
        assert!(
            got >= exact_p50 / 2 && got <= exact_p50 * 2,
            "p50 {got} vs exact {exact_p50}"
        );
    }

    #[test]
    fn quantiles_interpolate_within_the_bucket() {
        // Uniform 1..=1000 µs: linear interpolation within the log2 bucket
        // lands within 10% of the exact quantile; the old upper-bound
        // readout was off by up to 2×.
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(t(v * 1_000));
        }
        for (q, exact) in [(0.50, 500_000.0), (0.95, 950_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q).as_nanos() as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.10, "q{q}: got {got}, exact {exact}, rel {rel:.3}");
        }
    }

    #[test]
    fn bucket_edge_mass_no_longer_over_reports() {
        // The regression case: every sample sits exactly on a bucket's
        // lower edge (1024 ns opens the [1024, 2048) bucket). The old
        // readout returned the bucket upper bound 2047 — a 2× over-report;
        // interpolation + min/max clamping recovers the exact value.
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(t(1024));
        }
        assert_eq!(h.p50(), t(1024));
        assert_eq!(h.p95(), t(1024));
        assert_eq!(h.p99(), t(1024));
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50(), SimTime::ZERO);
        let mut h = LatencyHistogram::new();
        h.record(SimTime::ZERO);
        assert_eq!(h.p50(), SimTime::ZERO);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_gates_on_enabled() {
        let mut m = MetricsRegistry::new();
        m.observe("h", t(5));
        m.gauge_set("g", t(0), 1.0);
        assert!(m.is_empty());
        m.set_enabled(true);
        m.observe("h", t(5));
        m.gauge_set("g", t(0), 1.0);
        assert_eq!(m.histogram("h").unwrap().count(), 1);
        assert!(m.gauge("g").is_some());
    }

    #[test]
    fn gauge_tolerates_out_of_order_updates() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.gauge_set("g", t(100), 2.0);
        // An earlier timestamp (overlapping submission) must not panic and
        // clamps to the last update time.
        m.gauge_set("g", t(50), 4.0);
        m.gauge_set("g", t(200), 0.0);
        let g = m.gauge("g").unwrap();
        assert_eq!(g.max(), 4.0);
        // Weighted mean over [100, 300): 2.0 held 0 ns, 4.0 held 100 ns,
        // 0.0 held 100 ns.
        assert!((g.mean(t(300)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn openmetrics_exposition_has_type_help_and_eof() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.gauge_set("n0.dev0.queue", t(0), 2.0);
        m.gauge_set("n0.dev0.queue", t(100), 4.0);
        m.observe("pcie.h2d", t(1_000_000));
        let text = m.to_openmetrics(t(200));
        assert!(text.ends_with("# EOF\n"));
        assert!(text.contains("# TYPE cashmere_n0_dev0_queue gauge"));
        assert!(text.contains("# HELP cashmere_n0_dev0_queue "));
        assert!(text.contains("cashmere_n0_dev0_queue{stat=\"last\"} 4"));
        assert!(text.contains("# TYPE cashmere_pcie_h2d summary"));
        assert!(text.contains("cashmere_pcie_h2d{quantile=\"0.5\"} 0.001000000"));
        assert!(text.contains("cashmere_pcie_h2d_count 1"));
        assert!(text.contains("cashmere_pcie_h2d_sum 0.001000000"));
        // `stat` labels render in fixed last < max < mean order.
        let last = text.find("stat=\"last\"").unwrap();
        let max = text.find("stat=\"max\"").unwrap();
        let mean = text.find("stat=\"mean\"").unwrap();
        assert!(last < max && max < mean);
        assert_eq!(text, m.to_openmetrics(t(200)), "byte-deterministic");
    }

    /// Minimal line-level OpenMetrics validator: metadata lines carry a
    /// family name and a payload, sample lines are `name[{labels}] value
    /// [timestamp]` with a sane name and parseable numbers, `# EOF` is the
    /// final line, and no family repeats its `# TYPE` / `# HELP` metadata.
    fn check_openmetrics_lines(text: &str) {
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(*lines.last().unwrap(), "# EOF", "must end with # EOF");
        let mut typed = std::collections::BTreeSet::new();
        for (i, line) in lines.iter().enumerate() {
            if *line == "# EOF" {
                assert_eq!(i, lines.len() - 1, "# EOF must be the last line");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                let (kw, rest) = rest.split_once(' ').expect("metadata keyword");
                assert!(kw == "TYPE" || kw == "HELP", "bad metadata line: {line}");
                let (fam, payload) = rest.split_once(' ').expect("family + payload");
                assert!(!payload.is_empty(), "empty metadata payload: {line}");
                if kw == "TYPE" {
                    assert!(typed.insert(fam.to_string()), "duplicate # TYPE {fam}");
                }
                continue;
            }
            // Sample line: split off labels if present, then value [+ ts].
            let (name, tail) = match line.split_once('{') {
                Some((n, rest)) => {
                    let (labels, tail) = rest.split_once('}').expect("unclosed label set");
                    for pair in labels.split(',') {
                        let (_, v) = pair.split_once('=').expect("label pair");
                        assert!(
                            v.starts_with('"') && v.ends_with('"'),
                            "unquoted label value: {line}"
                        );
                    }
                    (n, tail.trim_start())
                }
                None => {
                    let (n, tail) = line.split_once(' ').expect("sample needs a value");
                    (n, tail)
                }
            };
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad sample name: {name}"
            );
            for num in tail.split_whitespace() {
                num.parse::<f64>()
                    .unwrap_or_else(|_| panic!("unparseable number `{num}` in: {line}"));
            }
        }
    }

    #[test]
    fn openmetrics_parses_line_by_line() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.gauge_set("n0.dev0.queue", t(0), 2.0);
        m.observe("pcie.h2d", t(1_000_000));
        check_openmetrics_lines(&m.to_openmetrics(t(200)));

        // Probe exports pass the same validator (labels get escaped).
        let mut p = crate::obs::ProbeSeries::new(t(1000));
        p.sample(t(1000), &[("n0.busy".to_string(), 3.0)]);
        check_openmetrics_lines(&p.to_openmetrics());
    }

    #[test]
    fn openmetrics_dedupes_metadata_for_colliding_families() {
        // `steals.ok` and `steals_ok` both mangle to `cashmere_steals_ok`;
        // the exposition must carry that family's metadata exactly once.
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.gauge_set("steals.ok", t(0), 7.0);
        m.gauge_set("steals_ok", t(0), 3.0);
        let text = m.to_openmetrics(t(0));
        let type_lines = text
            .lines()
            .filter(|l| *l == "# TYPE cashmere_steals_ok gauge")
            .count();
        assert_eq!(type_lines, 1, "metadata must be deduped:\n{text}");
        assert_eq!(
            text.lines()
                .filter(|l| l.starts_with("cashmere_steals_ok{stat=\"last\"} "))
                .count(),
            2,
            "both samples survive:\n{text}"
        );
        check_openmetrics_lines(&text);
    }

    #[test]
    fn label_values_escape_specials() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn summary_is_deterministic_and_sorted() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.gauge_set("z.last", t(0), 1.0);
        m.gauge_set("a.first", t(0), 1.0);
        m.observe("lat", t(1000));
        let s1 = m.summary(t(2000));
        let s2 = m.summary(t(2000));
        assert_eq!(s1, s2);
        let a = s1.find("a.first").unwrap();
        let z = s1.find("z.last").unwrap();
        assert!(a < z, "gauges render in sorted order");
    }
}
