//! Run statistics reported by the simulated cluster, plus the shared text
//! renderers for the report printouts (failure accounting, critical path).

use cashmere_des::obs::CriticalPath;
use cashmere_des::SimTime;
use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt::Write as _;
use std::ops::{Index, IndexMut};

/// Minimal aligned label/value table used by every textual report section
/// (failure summary, critical-path summary): labels padded to a common
/// width, one row per line, no trailing newline.
pub fn text_table(rows: &[(String, String)]) -> String {
    let w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (i, (label, value)) in rows.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = write!(out, "{label:<w$}  {value}");
    }
    out
}

/// Render a critical-path analysis against the run's makespan: a per-kind
/// breakdown plus the one-line attribution ("62% kernel / 23% ...") the
/// paper-style result readout uses.
pub fn critical_path_summary(cp: &CriticalPath, makespan: SimTime) -> String {
    if cp.total == SimTime::ZERO {
        return "critical path: no spans recorded".to_string();
    }
    let coverage = if makespan == SimTime::ZERO {
        100.0
    } else {
        cp.total.as_nanos() as f64 / makespan.as_nanos() as f64 * 100.0
    };
    let mut rows = vec![(
        "critical path".to_string(),
        format!(
            "{} over {} segments ({coverage:.1}% of makespan {makespan})",
            cp.total,
            cp.segments.len()
        ),
    )];
    let attribution = cp.attribution();
    for (kind, time, pct) in &attribution {
        rows.push((format!("  {kind}"), format!("{time:>12} {pct:5.1}%")));
    }
    let one_liner = attribution
        .iter()
        .map(|(kind, _, pct)| format!("{pct:.0}% {kind}"))
        .collect::<Vec<_>>()
        .join(" / ");
    rows.push(("  =".to_string(), one_liner));
    text_table(&rows)
}

macro_rules! counters {
    ($($(#[doc = $doc:literal])* $variant:ident = $name:literal,)+) => {
        /// One run counter: an index into [`RunReport`]'s counter table.
        /// Each variant carries one static name, its key in the serialized
        /// report and in run-diff fingerprints; adding a counter is one
        /// line here.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])* $variant,)+
        }

        impl Counter {
            /// Number of counters (the table length).
            pub const COUNT: usize = [$($name),+].len();

            /// Every counter, in table (and serialization) order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),+];

            /// The counter's static name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    JobsCreated = "jobs_created",
    Divides = "divides",
    Leaves = "leaves",
    StealAttempts = "steal_attempts",
    StealsOk = "steals_ok",
    BytesStolen = "bytes_stolen",
    BytesResults = "bytes_results",
    BytesBroadcast = "bytes_broadcast",
    Crashes = "crashes",
    JobsRestarted = "jobs_restarted",
    /// Nodes that (re)joined the cluster mid-run.
    Joins = "joins",
    // --- device path ---
    /// Device jobs executed on devices.
    KernelsRun = "kernels_run",
    /// Device jobs that fell back to the CPU leaf, for any reason.
    CpuFallbacks = "cpu_fallbacks",
    /// Sampled kernel measurements of a launch the run had already seen.
    /// A launch is a kernel version at one geometry on one argument
    /// signature: scalars, array shapes and real buffers' contents.
    KernelMemoHits = "kernel_memo_hits",
    /// Sampled kernel measurements that were the run's first sight of a
    /// launch. Not a count of VM runs: the kernel VM runs only on the
    /// process's first sight of the launch
    /// (`cashmere::registry::LaunchSight::interpreted`), which another
    /// run may already have paid for.
    KernelMemoMisses = "kernel_memo_misses",
    // --- orphan-result reuse (graceful recovery) ---
    /// Completed subtree results salvaged into the global result table
    /// when their subtree was orphaned by a crash.
    OrphansHarvested = "orphans_harvested",
    /// Salvaged results reused instead of re-executing their subtree.
    OrphansReused = "orphans_reused",
    /// Salvaged results dropped because their holder crashed (or the run
    /// ended) before they could be reused.
    OrphansExpired = "orphans_expired",
    /// Bytes moved to fetch reused orphan results from their holders.
    BytesOrphans = "bytes_orphans",
    // --- failure accounting (fault-injection subsystem) ---
    /// Devices permanently lost to injected failures.
    DevicesLost = "devices_lost",
    /// Transient kernel-launch faults the device runtime retried.
    LaunchRetries = "launch_retries",
    /// Device jobs aborted in flight by a device death.
    DeviceAborts = "device_aborts",
    /// Device jobs degraded to the CPU leaf because faults left no usable
    /// device (all devices dead, or the launch-retry budget exhausted).
    FaultCpuFallbacks = "fault_cpu_fallbacks",
    /// Messages dropped by injected link faults.
    MessagesLost = "messages_lost",
    /// Latency spikes applied to delivered messages.
    LatencySpikes = "latency_spikes",
    /// Steal attempts abandoned by timeout (request or reply lost).
    StealTimeouts = "steal_timeouts",
    /// Retransmissions of result-return messages after a loss.
    ResultRetransmits = "result_retransmits",
    /// Steal-loop polls that found no live victim (most of the cluster
    /// dead); these back off exponentially rather than busy-poll.
    NoVictimPolls = "no_victim_polls",
    // --- recovery cost, virtual nanoseconds (read with `RunReport::time`) ---
    /// Virtual nanoseconds spent redoing work: compute of re-executed
    /// subtrees plus device time lost in aborted jobs.
    RecoveryTime = "recovery_time_ns",
    /// Virtual nanoseconds during which at least one crash-restarted
    /// subtree was still outstanding: how long the run took to return to
    /// a fully recovered state.
    TimeToRecover = "time_to_recover_ns",
}

/// Statistics collected over one or more root runs: the counter table,
/// indexed by [`Counter`] (`report[Counter::StealsOk] += 1`), plus the
/// values that are set rather than accumulated.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Wall time of the most recent root run.
    pub makespan: SimTime,
    /// Virtual time at the end of the last run (accumulates across
    /// iterations).
    pub total_time: SimTime,
    /// Accumulated compute-busy time per node.
    pub node_busy: Vec<SimTime>,
    counters: [u64; Counter::COUNT],
}

impl Index<Counter> for RunReport {
    type Output = u64;

    #[inline]
    fn index(&self, c: Counter) -> &u64 {
        &self.counters[c as usize]
    }
}

impl IndexMut<Counter> for RunReport {
    #[inline]
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.counters[c as usize]
    }
}

// Hand-written so the JSON stays one flat object: the set fields, then
// every counter under its static name.
impl Serialize for RunReport {
    fn to_content(&self) -> Content {
        let field = |name: &str, v: Content| (Content::Str(name.to_string()), v);
        let mut map = vec![
            field("makespan", self.makespan.to_content()),
            field("total_time", self.total_time.to_content()),
        ];
        map.extend(
            self.counters()
                .map(|(c, v)| field(c.name(), Content::U64(v))),
        );
        map.push(field("node_busy", self.node_busy.to_content()));
        Content::Map(map)
    }
}

impl Deserialize for RunReport {
    fn from_content(content: &Content) -> Result<RunReport, DeError> {
        let mut r = RunReport {
            makespan: serde::__field(content, "makespan", "RunReport")?,
            total_time: serde::__field(content, "total_time", "RunReport")?,
            node_busy: serde::__field(content, "node_busy", "RunReport")?,
            counters: [0; Counter::COUNT],
        };
        for c in Counter::ALL {
            r[c] = serde::__field(content, c.name(), "RunReport")?;
        }
        Ok(r)
    }
}

impl RunReport {
    pub fn new(nodes: usize) -> RunReport {
        RunReport {
            makespan: SimTime::ZERO,
            total_time: SimTime::ZERO,
            node_busy: vec![SimTime::ZERO; nodes],
            counters: [0; Counter::COUNT],
        }
    }

    /// Every counter with its value, in table order.
    pub fn counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.into_iter().map(|c| (c, self[c]))
    }

    /// A nanosecond counter ([`Counter::RecoveryTime`],
    /// [`Counter::TimeToRecover`]) read back as virtual time.
    pub fn time(&self, c: Counter) -> SimTime {
        SimTime::from_nanos(self[c])
    }

    /// Did the run observe any injected failure at all?
    pub fn saw_failures(&self) -> bool {
        use Counter::*;
        [
            Crashes,
            Joins,
            DevicesLost,
            LaunchRetries,
            MessagesLost,
            StealTimeouts,
        ]
        .into_iter()
        .any(|c| self[c] > 0)
    }

    /// Human-readable failure-accounting section (run-report printout).
    pub fn failure_summary(&self) -> String {
        use Counter::*;
        text_table(&[
            (
                "failures".to_string(),
                format!(
                    "{} crashes, {} joins, {} devices lost, {} jobs re-executed",
                    self[Crashes], self[Joins], self[DevicesLost], self[JobsRestarted]
                ),
            ),
            (
                "orphan results".to_string(),
                format!(
                    "{} harvested, {} reused, {} expired",
                    self[OrphansHarvested], self[OrphansReused], self[OrphansExpired]
                ),
            ),
            (
                "device path".to_string(),
                format!(
                    "{} launch retries, {} aborted jobs, {} CPU fallbacks",
                    self[LaunchRetries], self[DeviceAborts], self[FaultCpuFallbacks]
                ),
            ),
            (
                "network".to_string(),
                format!(
                    "{} messages lost, {} latency spikes, {} steal timeouts, {} retransmits",
                    self[MessagesLost],
                    self[LatencySpikes],
                    self[StealTimeouts],
                    self[ResultRetransmits]
                ),
            ),
            (
                "recovery virtual-time cost".to_string(),
                format!(
                    "{} redone work, {} to recover",
                    self.time(RecoveryTime),
                    self.time(TimeToRecover)
                ),
            ),
        ])
    }

    /// Steal success rate.
    pub fn steal_success_rate(&self) -> f64 {
        match self[Counter::StealAttempts] {
            0 => 0.0,
            attempts => self[Counter::StealsOk] as f64 / attempts as f64,
        }
    }

    /// Total bytes that crossed the interconnect.
    pub fn bytes_total(&self) -> u64 {
        self[Counter::BytesStolen] + self[Counter::BytesResults] + self[Counter::BytesBroadcast]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_totals() {
        let mut r = RunReport::new(2);
        assert_eq!(r.steal_success_rate(), 0.0);
        r[Counter::StealAttempts] = 10;
        r[Counter::StealsOk] = 4;
        r[Counter::BytesStolen] = 100;
        r[Counter::BytesResults] = 50;
        r[Counter::BytesBroadcast] = 25;
        assert!((r.steal_success_rate() - 0.4).abs() < 1e-12);
        assert_eq!(r.bytes_total(), 175);
        assert_eq!(r.node_busy.len(), 2);
    }

    #[test]
    fn failure_accounting_starts_clean() {
        let mut r = RunReport::new(1);
        assert!(!r.saw_failures());
        r[Counter::DevicesLost] = 1;
        r[Counter::LaunchRetries] = 2;
        assert!(r.saw_failures());
        let s = r.failure_summary();
        assert!(s.contains("1 devices lost"), "{s}");
        assert!(s.contains("2 launch retries"), "{s}");
    }

    #[test]
    fn text_table_aligns_labels() {
        let s = text_table(&[
            ("a".to_string(), "1".to_string()),
            ("long label".to_string(), "2".to_string()),
        ]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        let col = lines[0].find('1').unwrap();
        assert_eq!(lines[1].find('2').unwrap(), col, "{s}");
        assert!(!s.ends_with('\n'));
    }

    #[test]
    fn critical_path_summary_reads_like_the_paper() {
        use cashmere_des::trace::{SpanKind, Trace};
        let mut tr = Trace::new();
        tr.set_enabled(true);
        let l = tr.add_lane("l");
        tr.record(
            l,
            SpanKind::Kernel,
            "k",
            SimTime::ZERO,
            SimTime::from_micros(70),
        );
        tr.record(
            l,
            SpanKind::Network,
            "n",
            SimTime::from_micros(70),
            SimTime::from_micros(100),
        );
        let cp = CriticalPath::compute(&tr);
        let s = critical_path_summary(&cp, SimTime::from_micros(100));
        assert!(s.contains("critical path"), "{s}");
        assert!(s.contains("kernel"), "{s}");
        assert!(s.contains("70% kernel / 30% network"), "{s}");
        assert!(s.contains("100.0% of makespan"), "{s}");
    }

    #[test]
    fn empty_critical_path_summary() {
        let cp = CriticalPath::default();
        let s = critical_path_summary(&cp, SimTime::ZERO);
        assert!(s.contains("no spans"), "{s}");
    }
}
