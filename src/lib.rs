//! # cashmere-repro — umbrella crate
//!
//! Re-exports the whole reproduction stack of *Cashmere: Heterogeneous
//! Many-Core Computing* (Hijma et al., IPDPS 2015) under one roof, for the
//! examples and cross-crate integration tests. See the individual crates:
//!
//! * [`des`] — deterministic discrete-event simulation engine
//! * [`hwdesc`] — MCL hardware-description hierarchy + HDL
//! * [`mcl`] — MCPL kernel language, SIMT interpreter, analyzer, cost model
//! * [`devsim`] — many-core device simulator
//! * [`netsim`] — cluster interconnect model
//! * [`satin`] — divide-and-conquer runtime (real threads + simulated cluster)
//! * [`cashmere`] — the paper's contribution: the integration
//! * [`apps`] — the four evaluation applications

#![forbid(unsafe_code)]

pub use cashmere;
pub use cashmere_apps as apps;
pub use cashmere_des as des;
pub use cashmere_devsim as devsim;
pub use cashmere_hwdesc as hwdesc;
pub use cashmere_mcl as mcl;
pub use cashmere_netsim as netsim;
pub use cashmere_satin as satin;
