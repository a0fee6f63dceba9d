//! # cashmere-mcl — Many-Core Levels
//!
//! MCL is the kernel-programming half of Cashmere (paper Sec. II-B, III-A).
//! Programmers write computational kernels in **MCPL**, a C-like language
//! with multi-dimensional arrays that carry their sizes and `foreach`
//! statements expressing parallelism in terms of a hardware description's
//! parallelism units. Kernels target a level of the hardware-description
//! hierarchy from [`cashmere_hwdesc`]; the compiler:
//!
//! * **checks** the kernel against the level ([`check`](mod@check)) and
//!   records the level's parallelism units on the [`CheckedKernel`]: every
//!   later stage reads them from there, so a launch passes only what
//!   varies per launch (geometry and arguments);
//! * **analyzes** it and produces *stepwise-refinement* performance
//!   feedback ([`analyze`](mod@analyze)) — uncoalesced accesses, missing local-memory
//!   reuse, branch divergence, occupancy hazards;
//! * **translates** it to lower levels without optimizing ([`translate`])
//!   and emits OpenCL C for inspection ([`codegen`]);
//! * **selects launch geometry** per device ([`launch`]);
//! * **executes** it on the register-bytecode VM ([`vm`]) — full runs for
//!   correctness, sampled runs for paper-scale measurement (the first
//!   [`exec::SAMPLED_ITERS`] iterations of every `foreach`, extrapolated) — whose
//!   reference semantics is the tree-walking interpreter ([`interp`]), kept
//!   only as the oracle the VM's tests compare against; and
//! * **estimates execution time** on a concrete device from the collected
//!   statistics with a roofline cost model ([`cost`]).

#![forbid(unsafe_code)]

pub mod analyze;
pub mod ast;
pub mod check;
pub mod codegen;
pub mod compile;
pub mod cost;
pub mod exec;
pub mod fmt;
pub mod interp;
pub mod launch;
pub mod parse;
pub mod stats;
pub mod translate;
pub mod value;
pub mod vm;

pub use analyze::{analyze, Feedback, FeedbackKind};
pub use ast::{ElemTy, Kernel};
pub use check::{check, CheckError, CheckedKernel};
pub use cost::{estimate_time, CostBreakdown, DeviceClass};
pub use exec::{ExecError, ExecOptions, ExecResult};
pub use fmt::{expr_to_string, kernel_to_string};
pub use launch::{LaunchConfig, LaunchKey};
pub use parse::{parse, ParseError};
pub use stats::KernelStats;
pub use translate::translate_to;
pub use value::{ArgValue, ArrayArg, Buffer};
pub use vm::execute;

/// Parse + check in one step against a hierarchy.
pub fn compile(
    src: &str,
    hierarchy: &cashmere_hwdesc::Hierarchy,
) -> Result<CheckedKernel, CheckError> {
    let kernel = parse(src).map_err(|e| CheckError {
        line: e.line,
        message: e.message,
    })?;
    check(&kernel, hierarchy)
}
