//! # cashmere-apps — the four evaluation applications
//!
//! The paper evaluates Cashmere with four applications, each representing a
//! class (Table II):
//!
//! | application | type      | computation | communication |
//! |-------------|-----------|-------------|---------------|
//! | raytracer   | irregular | heavy       | light         |
//! | matmul      | regular   | heavy       | heavy         |
//! | k-means     | iterative | moderate    | light         |
//! | n-body      | iterative | heavy       | moderate      |
//!
//! Every application provides: MCPL kernels (unoptimized `perfect` version
//! plus optimized lower-level versions), a divide-and-conquer driver
//! implementing [`cashmere_satin::ClusterApp`] (whose `leaf_cpu` is the
//! sequential leaf that plain Satin runs and Cashmere falls back to) +
//! [`cashmere::CashmereApp`], a CPU reference for correctness, and
//! phantom-mode calibration for paper-scale measurement.

#![forbid(unsafe_code)]

pub mod common;
pub mod kmeans;
pub mod matmul;
pub mod nbody;
pub mod raytracer;

pub use common::{AppMode, CpuLeafModel, KernelSet};
