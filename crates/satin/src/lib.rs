//! # cashmere-satin — the Satin divide-and-conquer runtime
//!
//! Satin (paper Sec. II-A) is a Cilk-inspired programming system for
//! clusters: programmers express computations as recursive `spawnable`
//! functions with a `sync` barrier (Fig. 1), and the runtime load-balances
//! the resulting job tree with random work stealing, hides network latency,
//! and recovers from node failures.
//!
//! [`sim`] is the simulated cluster used for every paper experiment:
//! nodes, cores, random work stealing over the modelled interconnect,
//! CPU-contention-coupled message handling, fault tolerance, and pluggable
//! leaf execution (plain CPU leaves here; Cashmere's many-core leaves in
//! the `cashmere` crate).

#![forbid(unsafe_code)]

pub mod sim;

pub use sim::{
    critical_path_summary, text_table, ClusterApp, ClusterSim, Counter, CpuLeafRuntime, DcStep,
    LeafCtx, LeafRuntime, RunRecord, RunReport, SimConfig, StealKind,
};
