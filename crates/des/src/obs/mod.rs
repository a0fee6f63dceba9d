//! Observability layer: metrics registry, Chrome trace-event export, and
//! critical-path analysis over the causal span tree.
//!
//! The paper reads every result off a Gantt chart or a measured-time table;
//! this module makes that the default workflow for the simulator. The
//! [`crate::Trace`] span tree (ids + parent links, recorded by the Satin and
//! Cashmere layers) feeds three consumers:
//!
//! - [`metrics`]: time-weighted gauges and log-scaled latency
//!   histograms, owned (like the trace) by the simulated world.
//! - [`chrome`]: `Trace::to_chrome_json()` export, openable in Perfetto or
//!   `chrome://tracing`, with lanes as tracks and flow arrows for the causal
//!   edges that cross lanes (steals, result transfers, PCIe copies).
//! - [`critical`]: the longest dependency chain from the root spawn to the
//!   final combine, attributed per [`crate::SpanKind`], so "makespan = X,
//!   critical path = 62% kernel / 23% PCIe / 15% steal" is how a run reads.
//! - [`timeline`]: per-lane occupancy step functions and busy fractions,
//!   exported as Chrome counter tracks and a text digest.
//! - [`advisor`]: the what-if vocabulary — perturbation specs
//!   (`dev:k20:2x`), candidate enumeration from a baseline trace, and the
//!   ranked virtual-speedup report the bench `advisor` bin fills by
//!   deterministic re-execution.
//! - [`probe`]: the flight recorder — a columnar time series filled by
//!   engine-scheduled periodic sampling (busy cores, queue depth, steal
//!   rate, in-flight bytes, placement mix), exported as CSV, timestamped
//!   OpenMetrics, or Chrome counter tracks.
//! - [`diff`]: the regression explainer — compares two run fingerprints
//!   (makespan, critical path, counters, probe series) and emits a ranked
//!   "what changed" attribution digest.
//! - [`prof`]: the host self-profiler — RAII scoped timers aggregating
//!   into a calling-context tree of *host* wall time (never simulated
//!   time), exported as collapsed stacks for flamegraphs, JSON, and a
//!   top-N digest. The one `obs` module that observes the simulator
//!   itself instead of the simulated cluster.

pub mod advisor;
pub mod chrome;
pub mod critical;
pub mod diff;
pub mod metrics;
pub mod probe;
pub mod prof;
pub mod timeline;

pub use advisor::{
    critical_share_pct, enumerate_candidates, Candidate, PerturbTarget, Perturbation, WhatIfReport,
    WhatIfRow,
};
pub use chrome::{ChromeArgs, ChromeEvent, ChromeTrace};
pub use critical::{CriticalPath, CriticalSegment};
pub use diff::{DiffFactor, NodeDivergence, PhaseWindow, RunDiff, RunFingerprint};
pub use metrics::{LatencyHistogram, MetricsRegistry};
pub use probe::{ProbeColumn, ProbeSeries};
pub use prof::{ProfNode, ProfTree};
pub use timeline::{LaneUsage, UtilizationTimelines};
