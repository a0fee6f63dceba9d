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
//! * The engine [`Sim<W>`] owns the event queue: a slab arena of reusable
//!   event slots (closures up to 48 bytes stored inline, no per-event
//!   allocation in steady state) ordered by an index-based 4-ary min-heap,
//!   with O(1) tombstone cancellation. Events are `FnOnce` closures
//!   receiving the user *world* (`&mut W`) and the engine itself so they
//!   can schedule follow-up events.
//! * Ties are broken by insertion sequence number, which (together with seeded
//!   RNG streams from [`rng`]) makes runs deterministic.
//! * [`trace`] records activity spans per lane and renders the Gantt charts of
//!   the paper's Figs. 16/17.
//!
//! ```
//! use cashmere_des::{Sim, SimTime};
//!
//! let mut sim: Sim<u64> = Sim::new(42);
//! let mut world = 0u64;
//! sim.schedule_in(SimTime::from_micros(5), |w: &mut u64, sim: &mut Sim<u64>| {
//!     *w += 1;
//!     sim.schedule_in(SimTime::from_micros(5), |w: &mut u64, _: &mut Sim<u64>| *w += 10);
//! });
//! sim.run(&mut world);
//! assert_eq!(world, 11);
//! assert_eq!(sim.now(), SimTime::from_micros(10));
//! ```

pub mod engine;
pub mod fault;
pub mod obs;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Event, EventHandle, Sim};
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
