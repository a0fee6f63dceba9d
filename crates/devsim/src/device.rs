//! A simulated many-core device: PCIe DMA engines, execution engine,
//! memory, and the virtual speed and link scales.

use crate::memory::DeviceMemory;
use crate::timeline::Timeline;
use cashmere_des::SimTime;
use cashmere_hwdesc::params::ResolvedParams;
use cashmere_hwdesc::{Hierarchy, LevelId};

/// Device global-memory capacities in GiB (published card specs).
fn memory_gib(level_name: &str) -> u64 {
    match level_name {
        "gtx480" => 1, // 1.5 GiB rounded down
        "c2050" => 3,
        "gtx680" => 2,
        "k20" => 5,
        "titan" => 6,
        "hd7970" => 3,
        "xeon_phi" => 8,
        _ => 2,
    }
}

/// A simulated many-core device instance.
#[derive(Debug, Clone)]
pub struct SimDevice {
    pub level: LevelId,
    pub level_name: String,
    pub params: ResolvedParams,
    /// Host→device DMA engine.
    pub h2d: Timeline,
    /// Device→host DMA engine.
    pub d2h: Timeline,
    /// Kernel execution engine.
    pub exec: Timeline,
    pub memory: DeviceMemory,
    /// Virtual compute-speed scale (advisor what-if experiments): kernel
    /// times divide by this. 1.0 = the device as described.
    pub speed_scale: f64,
    /// Virtual PCIe scale: transfer bandwidth multiplies by this, latency
    /// divides. 1.0 = the link as described.
    pub pcie_scale: f64,
}

impl SimDevice {
    /// Instantiate the device described by leaf level `level`.
    pub fn new(h: &Hierarchy, level: LevelId) -> Result<SimDevice, String> {
        let params = h.device_params(level)?;
        let name = h.name(level).to_string();
        let mem = DeviceMemory::new(memory_gib(&name) << 30);
        Ok(SimDevice {
            level,
            level_name: name,
            params,
            h2d: Timeline::new(),
            d2h: Timeline::new(),
            exec: Timeline::new(),
            memory: mem,
            speed_scale: 1.0,
            pcie_scale: 1.0,
        })
    }

    /// Virtually scale this device's compute rate (advisor what-if):
    /// `factor` 2.0 halves every kernel time from now on. Compounds with
    /// earlier calls.
    pub fn scale_speed(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "bad speed factor");
        self.speed_scale *= factor;
    }

    /// Virtually scale this device's PCIe link (advisor what-if):
    /// bandwidth × `factor`, latency ÷ `factor`. Compounds.
    pub fn scale_pcie(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "bad pcie factor");
        self.pcie_scale *= factor;
    }

    /// Construct by level name (convenience).
    pub fn by_name(h: &Hierarchy, name: &str) -> Result<SimDevice, String> {
        let level = h
            .id(name)
            .ok_or_else(|| format!("unknown device level `{name}`"))?;
        SimDevice::new(h, level)
    }

    /// Duration of a PCIe transfer of `bytes` (either direction), under the
    /// current virtual link scale.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        let lat = SimTime::from_secs_f64(self.params.pcie_latency_us * 1e-6 / self.pcie_scale);
        lat + SimTime::from_secs_f64(bytes as f64 / (self.params.pcie_gbs * self.pcie_scale * 1e9))
    }

    /// Enqueue a host→device copy requested at `now`; returns `(start, end)`.
    pub fn schedule_h2d(&mut self, now: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let d = self.transfer_time(bytes);
        self.h2d.schedule(now, d)
    }

    /// Enqueue a device→host copy requested at `now`.
    pub fn schedule_d2h(&mut self, now: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let d = self.transfer_time(bytes);
        self.d2h.schedule(now, d)
    }

    /// Enqueue a kernel of known duration at `now`.
    pub fn schedule_exec(&mut self, now: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        self.exec.schedule(now, duration)
    }

    /// The device fails permanently at `at`: every in-flight or queued
    /// segment on all three engines is cut back to `at`, so work past the
    /// failure never happens.
    pub fn abort_after(&mut self, at: SimTime) {
        self.h2d.truncate_at(at);
        self.exec.truncate_at(at);
        self.d2h.truncate_at(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_hwdesc::{standard_hierarchy, DeviceKind};

    fn gtx480() -> SimDevice {
        SimDevice::by_name(&standard_hierarchy(), "gtx480").unwrap()
    }

    #[test]
    fn devices_instantiate_with_published_memory() {
        let h = standard_hierarchy();
        for kind in DeviceKind::ALL {
            let d = SimDevice::new(&h, kind.level(&h)).unwrap();
            assert!(d.memory.capacity() >= 1 << 30, "{kind}");
            assert!(d.params.peak_sp_gflops() > 100.0);
        }
        assert!(SimDevice::by_name(&h, "bogus").is_err());
    }

    #[test]
    fn transfer_time_matches_pcie_params() {
        let d = gtx480();
        // 8 GB/s, 10 µs latency: 80 MB takes 10 ms + 10 µs.
        let t = d.transfer_time(80_000_000);
        assert!((t.as_secs_f64() - (0.010 + 10e-6)).abs() < 1e-9, "{t}");
    }

    #[test]
    fn dma_engines_are_independent_but_internally_fifo() {
        let mut d = gtx480();
        let now = SimTime::ZERO;
        let (s1, e1) = d.schedule_h2d(now, 8_000_000); // 1 ms + lat
        let (s2, _e2) = d.schedule_h2d(now, 8_000_000);
        assert_eq!(s1, now);
        assert_eq!(s2, e1, "same engine serializes");
        // d2h engine is free: copies overlap (paper Sec. II-C3)
        let (s3, _) = d.schedule_d2h(now, 8_000_000);
        assert_eq!(s3, now, "opposite direction overlaps");
        // exec engine also independent
        let (s4, _) = d.schedule_exec(now, SimTime::from_millis(5));
        assert_eq!(s4, now);
    }

    #[test]
    fn virtual_scales_divide_transfer_times_and_compound() {
        let mut d = gtx480();
        let base_xfer = d.transfer_time(80_000_000);
        d.scale_speed(2.0);
        d.scale_pcie(2.0);
        // Transfers: bandwidth × 2 and latency ÷ 2 exactly halve the time.
        let fast_xfer = d.transfer_time(80_000_000);
        let xr = base_xfer.as_secs_f64() / fast_xfer.as_secs_f64();
        assert!((xr - 2.0).abs() < 1e-9, "xfer ratio {xr}");
        // Scales compound; a 0.5 undoes a 2.0.
        d.scale_speed(0.5);
        assert!((d.speed_scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn abort_after_cuts_every_engine_back() {
        let mut d = gtx480();
        let ms = SimTime::from_millis;
        d.schedule_h2d(SimTime::ZERO, 80_000_000);
        d.schedule_exec(SimTime::ZERO, ms(30));
        d.schedule_d2h(SimTime::ZERO, 8_000);
        d.abort_after(ms(5));
        assert_eq!(d.h2d.free_at(), ms(5));
        assert_eq!(d.exec.free_at(), ms(5));
        // The d2h copy had drained by then: nothing to cut.
        assert!(d.d2h.free_at() < ms(5));
    }
}
