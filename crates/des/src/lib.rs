//! # cashmere-des — deterministic discrete-event simulation engine
//!
//! This crate is the timing substrate for the cashmere-rs reproduction of
//! *Cashmere: Heterogeneous Many-Core Computing* (Hijma et al., IPDPS 2015).
//! The paper's evaluation ran on the DAS-4 cluster; this repository replaces
//! the physical cluster with a deterministic discrete-event simulation, so
//! every experiment is bit-reproducible.
//!
//! Design:
//!
//! * Virtual time is [`SimTime`], a `u64` count of nanoseconds.
//! * Events are typed: a world implementing [`Handler`] names its event
//!   type (usually a closed enum) and dispatches each fired event with one
//!   `match`, scheduling follow-ups through the engine it is handed.
//! * The engine [`Sim<E>`] is only the event queue and the clock: a safe
//!   slab arena of reusable slots holding events by value (no per-event
//!   allocation in steady state) ordered by an index-based 4-ary min-heap,
//!   with O(1) tombstone cancellation.
//! * Ties are broken by insertion sequence number, which (together with seeded
//!   RNG streams from [`rng`]) makes runs deterministic.
//! * [`trace`] records activity spans per lane and renders the Gantt charts of
//!   the paper's Figs. 16/17; [`obs`] holds the metrics registry and the
//!   exports. The world owns its trace and metrics: its handler records
//!   into them as it dispatches events.
//!
//! ```
//! use cashmere_des::{Handler, Sim, SimTime};
//!
//! struct Counter(u64);
//!
//! enum Ev {
//!     Add(u64),
//!     AddThenLater(u64),
//! }
//!
//! impl Handler for Counter {
//!     type Event = Ev;
//!
//!     fn handle(&mut self, ev: Ev, sim: &mut Sim<Ev>) {
//!         match ev {
//!             Ev::Add(v) => self.0 += v,
//!             Ev::AddThenLater(v) => {
//!                 self.0 += v;
//!                 sim.schedule_in(SimTime::from_micros(5), Ev::Add(10));
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new();
//! let mut world = Counter(0);
//! sim.schedule_in(SimTime::from_micros(5), Ev::AddThenLater(1));
//! sim.run(&mut world);
//! assert_eq!(world.0, 11);
//! assert_eq!(sim.now(), SimTime::from_micros(10));
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod obs;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{EventHandle, Handler, Sim};
pub use fault::{
    DeviceFailure, FaultInjector, FaultPlan, LaunchFaultWindow, LinkFault, MessageFate, NodeCrash,
    NodeJoin,
};
pub use obs::{
    ChromeTrace, CriticalPath, LatencyHistogram, MetricsRegistry, ProbeSeries, RunDiff,
    RunFingerprint,
};
pub use rng::StreamRng;
pub use stats::TimeWeighted;
pub use time::SimTime;
pub use trace::{Gantt, LaneId, Span, SpanId, SpanKind, Trace};
