//! # cashmere-devsim — many-core device simulator
//!
//! Substitutes for the paper's physical accelerators (GTX480 … Xeon Phi).
//! A [`SimDevice`] owns three timelines — host→device DMA, device→host DMA,
//! and kernel execution — mirroring how real GPUs overlap PCIe transfers
//! with compute (paper Sec. II-C3), plus a [`memory::DeviceMemory`] manager
//! ("Cashmere automatically manages the available memory on a device").
//!
//! This crate is the hardware model only: the three engine timelines,
//! memory, the PCIe link and the virtual speed and link scales. It does
//! not run kernels. A kernel launch is run and costed by the prepared
//! kernel of the `cashmere` registry; the runtime then schedules the
//! modelled time onto [`SimDevice::schedule_exec`], dividing it by the
//! device's [`SimDevice::speed_scale`].

#![forbid(unsafe_code)]

pub mod device;
pub mod memory;
pub mod timeline;

pub use device::SimDevice;
pub use memory::{AllocError, BufferId, DeviceMemory};
pub use timeline::Timeline;
