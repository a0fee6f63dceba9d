//! # cashmere-netsim — cluster interconnect model
//!
//! Models the DAS-4's QDR InfiniBand fabric at the level the paper's
//! evaluation depends on: per-message latency, per-byte bandwidth,
//! full-duplex NIC serialization per node, and the CPU-contention coupling
//! the paper identifies as Satin's second scaling problem ("since all cores
//! on the CPUs are fully occupied with computation, communication and
//! load-balancing tasks suffer from the lack of available compute-power",
//! Sec. V-B).
//!
//! The model is deliberately topology-free (a non-blocking fat tree, which
//! QDR IB on DAS-4 approximates): contention happens at the endpoints, not
//! in the core.

#![forbid(unsafe_code)]

pub mod nic;

pub use nic::{NodeNic, Transfer};

use cashmere_des::SimTime;
use serde::{Deserialize, Serialize};

/// Interconnect parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct NetConfig {
    /// One-way small-message latency.
    pub latency: SimTime,
    /// Per-direction link bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Per-message CPU handling cost on each endpoint (serialization,
    /// progress engine) when the host CPU is idle.
    pub cpu_handling: SimTime,
    /// How strongly busy CPU cores inflate message handling: handling time
    /// is multiplied by `1 + cpu_contention * busy_fraction`.
    pub cpu_contention: f64,
}

impl NetConfig {
    /// QDR InfiniBand as measured on DAS-4-class hardware: ~1.3 µs latency,
    /// ~3.2 GB/s sustained per direction (of the 4 GB/s signal rate).
    pub fn qdr_infiniband() -> NetConfig {
        NetConfig {
            latency: SimTime::from_nanos(1_300),
            bandwidth_gbs: 3.2,
            cpu_handling: SimTime::from_micros(2),
            cpu_contention: 4.0,
        }
    }

    /// Gigabit Ethernet, for slow-network ablations.
    pub fn gigabit_ethernet() -> NetConfig {
        NetConfig {
            latency: SimTime::from_micros(50),
            bandwidth_gbs: 0.117,
            cpu_handling: SimTime::from_micros(10),
            cpu_contention: 4.0,
        }
    }

    /// The same fabric virtually scaled by `factor` (advisor what-if):
    /// bandwidth multiplies, latency divides; endpoint CPU handling is a
    /// host-side cost and stays untouched.
    pub fn scaled(&self, factor: f64) -> NetConfig {
        assert!(factor.is_finite() && factor > 0.0, "bad network factor");
        NetConfig {
            latency: SimTime::from_secs_f64(self.latency.as_secs_f64() / factor),
            bandwidth_gbs: self.bandwidth_gbs * factor,
            ..*self
        }
    }

    /// Pure wire time of `bytes` (latency + serialization), no endpoint
    /// contention.
    pub fn wire_time(&self, bytes: u64) -> SimTime {
        let ser = bytes as f64 / (self.bandwidth_gbs * 1e9);
        self.latency + SimTime::from_secs_f64(ser)
    }

    /// Endpoint CPU handling time given the fraction of busy cores on that
    /// node. This is the mechanism behind Satin's reduced scalability: with
    /// all 8 cores computing, every steal request and reply is served late.
    pub fn handling_time(&self, busy_fraction: f64) -> SimTime {
        let f = busy_fraction.clamp(0.0, 1.0);
        SimTime::from_secs_f64(self.cpu_handling.as_secs_f64() * (1.0 + self.cpu_contention * f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_scales_with_bytes() {
        let net = NetConfig::qdr_infiniband();
        let small = net.wire_time(0);
        assert_eq!(small, SimTime::from_nanos(1_300));
        let mb = net.wire_time(1_000_000);
        // 1 MB at 3.2 GB/s ≈ 312 µs + latency
        let expect = 1e6 / 3.2e9;
        assert!((mb.as_secs_f64() - (1.3e-6 + expect)).abs() < 1e-9);
    }

    #[test]
    fn handling_time_grows_with_cpu_business() {
        let net = NetConfig::qdr_infiniband();
        let idle = net.handling_time(0.0);
        let busy = net.handling_time(1.0);
        assert_eq!(idle, net.cpu_handling);
        assert_eq!(busy, net.cpu_handling * 5);
        // clamped
        assert_eq!(net.handling_time(7.0), busy);
    }

    #[test]
    fn scaled_fabric_halves_wire_time() {
        let net = NetConfig::qdr_infiniband();
        let fast = net.scaled(2.0);
        assert_eq!(fast.latency, SimTime::from_nanos(650));
        assert!((fast.bandwidth_gbs - 6.4).abs() < 1e-12);
        let w = net.wire_time(1_000_000).as_secs_f64();
        let wf = fast.wire_time(1_000_000).as_secs_f64();
        assert!((w / wf - 2.0).abs() < 1e-9, "{w} vs {wf}");
        // Handling cost is a CPU property, not a fabric one.
        assert_eq!(fast.cpu_handling, net.cpu_handling);
    }

    #[test]
    fn ethernet_is_much_slower() {
        let ib = NetConfig::qdr_infiniband();
        let eth = NetConfig::gigabit_ethernet();
        assert!(eth.wire_time(1_000_000) > ib.wire_time(1_000_000) * 20);
    }
}
