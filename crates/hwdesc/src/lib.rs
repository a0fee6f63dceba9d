//! # cashmere-hwdesc — MCL hardware descriptions
//!
//! MCL (Many-Core Levels) organizes *hardware descriptions* in a hierarchy
//! (paper Fig. 2): at the root sits `perfect` — idealized hardware with
//! unlimited compute units and 1-cycle memory — and each child level adds
//! detail, down to concrete devices such as `gtx480` or `xeon_phi`. Kernels
//! are written against a level's *programming abstractions* (e.g. `threads`,
//! `blocks`) and the most specific kernel version available is selected for
//! each physical device.
//!
//! This crate provides:
//!
//! * [`hierarchy::Hierarchy`] — the level tree with parameter inheritance and
//!   most-specific-version resolution;
//! * [`params::HwParams`] — per-level hardware parameters (compute units,
//!   SIMD width, clock, memory system, PCIe), partial at inner levels and
//!   fully resolved at leaves;
//! * [`hdl`] — the textual Hardware Description Language and its parser;
//! * [`library`] — the built-in hierarchy used throughout the paper, written
//!   in HDL and parsed at startup, covering the seven DAS-4 devices
//!   (GTX480, C2050, GTX680, K20, Titan, HD7970, Xeon Phi) plus the host CPU.

#![forbid(unsafe_code)]

pub mod hdl;
pub mod hierarchy;
pub mod library;
pub mod params;

pub use hierarchy::{Hierarchy, LevelId};
pub use library::{standard_hierarchy, DeviceKind};
pub use params::{HwParams, MemSpace, ParUnit};
