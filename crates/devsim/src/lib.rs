//! # cashmere-devsim — many-core device simulator
//!
//! Substitutes for the paper's physical accelerators (GTX480 … Xeon Phi).
//! A [`SimDevice`] owns three timelines — host→device DMA, device→host DMA,
//! and kernel execution — mirroring how real GPUs overlap PCIe transfers
//! with compute (paper Sec. II-C3), plus a [`memory::DeviceMemory`] manager
//! ("Cashmere automatically manages the available memory on a device").
//!
//! Kernel execution is functional *and* timed: the MCPL interpreter from
//! [`cashmere_mcl`] runs the kernel (fully for correctness, sampled for
//! paper-scale measurement) and the roofline cost model converts the
//! collected statistics into virtual execution time on this specific
//! device.

#![forbid(unsafe_code)]

pub mod device;
pub mod memory;
pub mod timeline;

pub use device::{ExecMode, KernelRun, SimDevice};
pub use memory::{AllocError, BufferId, DeviceMemory};
pub use timeline::Timeline;
