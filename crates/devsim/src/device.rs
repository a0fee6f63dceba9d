//! A simulated many-core device: PCIe DMA engines, execution engine,
//! memory, and functional+timed kernel execution.

use crate::memory::DeviceMemory;
use crate::timeline::Timeline;
use cashmere_des::obs::prof;
use cashmere_des::SimTime;
use cashmere_hwdesc::params::ResolvedParams;
use cashmere_hwdesc::{Hierarchy, LevelId};
use cashmere_mcl::cost::{estimate_time, CostBreakdown, DeviceClass};
use cashmere_mcl::launch::LaunchConfig;
use cashmere_mcl::stats::KernelStats;
use cashmere_mcl::value::ArgValue;
use cashmere_mcl::{CheckedKernel, ExecError};

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

/// How a kernel run should execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecMode {
    /// Interpret every lane; arguments are really computed.
    Full,
    /// Interpret a sample and extrapolate
    /// ([`cashmere_mcl::exec::SAMPLED_ITERS`]); `extra_scale` additionally
    /// multiplies all counters (for calibration runs whose inner dimensions
    /// were shrunk relative to the real problem).
    Sampled { extra_scale: f64 },
}

impl ExecMode {
    pub fn sampled() -> ExecMode {
        ExecMode::Sampled { extra_scale: 1.0 }
    }
}

/// Result of one kernel execution on a device.
#[derive(Debug)]
pub struct KernelRun {
    /// Arguments after execution (mutated in `Full` mode).
    pub args: Vec<ArgValue>,
    pub stats: KernelStats,
    pub cost: CostBreakdown,
    /// Virtual execution time on this device.
    pub time: SimTime,
}

/// A simulated many-core device instance.
#[derive(Debug, Clone)]
pub struct SimDevice {
    pub level: LevelId,
    pub level_name: String,
    pub params: ResolvedParams,
    pub class: DeviceClass,
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
        let class = DeviceClass::of(h, level);
        let mem = DeviceMemory::new(memory_gib(&name) << 30);
        Ok(SimDevice {
            level,
            level_name: name,
            params,
            class,
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
    /// segment on all three engines is aborted. Returns the total aborted
    /// engine time (the virtual-time cost of the work that was cut short),
    /// so callers can account it as recovery cost.
    pub fn abort_after(&mut self, at: SimTime) -> SimTime {
        self.h2d.truncate_at(at) + self.exec.truncate_at(at) + self.d2h.truncate_at(at)
    }

    /// When would a job whose transfers and kernel are already known finish,
    /// if submitted now? (Used by the load balancer for what-if queries —
    /// does not mutate the timelines.)
    pub fn completion_estimate(&self, now: SimTime, kernel_time: SimTime) -> SimTime {
        now.max(self.exec.free_at()) + kernel_time
    }

    /// Execute a checked kernel on this device: functional execution on the
    /// kernel VM plus cost-model timing. The caller is responsible for
    /// scheduling the returned `time` onto [`SimDevice::schedule_exec`] (the
    /// Cashmere runtime does this so transfers can overlap).
    pub fn run_kernel(
        &self,
        h: &Hierarchy,
        ck: &CheckedKernel,
        args: Vec<ArgValue>,
        mode: ExecMode,
    ) -> Result<KernelRun, ExecError> {
        let _prof = prof::scope("mcl::execute");
        let config = LaunchConfig::for_device(ck, h, self.level);
        let opts = match mode {
            ExecMode::Full => config.exec_full(),
            ExecMode::Sampled { .. } => config.exec_sampled(),
        };
        let result = cashmere_mcl::execute(ck, args, &opts)?;
        let mut stats = result.stats;
        if let ExecMode::Sampled { extra_scale } = mode {
            if extra_scale != 1.0 {
                stats.scale(extra_scale);
            }
        }
        let cost = estimate_time(&stats, &self.params, config.class);
        Ok(KernelRun {
            args: result.args,
            // The cost model describes the physical device; the virtual
            // speed scale (advisor what-if) applies to simulated time only.
            time: SimTime::from_secs_f64(cost.total_s / self.speed_scale),
            stats,
            cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_hwdesc::{standard_hierarchy, DeviceKind};
    use cashmere_mcl::compile;
    use cashmere_mcl::value::ArrayArg;
    use cashmere_mcl::ElemTy;

    fn gtx480() -> (cashmere_hwdesc::Hierarchy, SimDevice) {
        let h = standard_hierarchy();
        let d = SimDevice::by_name(&h, "gtx480").unwrap();
        (h, d)
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
        let (_, d) = gtx480();
        // 8 GB/s, 10 µs latency: 80 MB takes 10 ms + 10 µs.
        let t = d.transfer_time(80_000_000);
        assert!((t.as_secs_f64() - (0.010 + 10e-6)).abs() < 1e-9, "{t}");
    }

    #[test]
    fn dma_engines_are_independent_but_internally_fifo() {
        let (_, mut d) = gtx480();
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
    fn run_kernel_full_computes_and_times() {
        let (h, d) = gtx480();
        let ck = compile(
            "perfect void scale2(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = a[i] * 2.0; }
}",
            &h,
        )
        .unwrap();
        let n = 1024u64;
        let a = ArrayArg::float(&[n], (0..n).map(|i| i as f64).collect());
        let run = d
            .run_kernel(
                &h,
                &ck,
                vec![ArgValue::Int(n as i64), ArgValue::Array(a)],
                ExecMode::Full,
            )
            .unwrap();
        let a = run.args[1].clone().array();
        assert_eq!(a.as_f64()[3], 6.0);
        assert!(run.time > SimTime::ZERO);
        assert!(run.cost.total_s >= 6e-6, "launch overhead floor");
    }

    #[test]
    fn sampled_run_scales_like_full() {
        let (h, d) = gtx480();
        let ck = compile(
            "perfect void scale2(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = a[i] * 2.0; }
}",
            &h,
        )
        .unwrap();
        let n = 1 << 20;
        let mk = || {
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ]
        };
        let full = d.run_kernel(&h, &ck, mk(), ExecMode::Full).unwrap();
        let sampled = d.run_kernel(&h, &ck, mk(), ExecMode::sampled()).unwrap();
        let rel = (sampled.cost.total_s - full.cost.total_s).abs() / full.cost.total_s;
        assert!(
            rel < 0.01,
            "sampled {} vs full {}",
            sampled.cost.total_s,
            full.cost.total_s
        );
        // and the sample interpreted far fewer lanes
        assert!(sampled.stats.raw_lanes * 100.0 < full.stats.raw_lanes);
    }

    #[test]
    fn extra_scale_multiplies_time() {
        let (h, d) = gtx480();
        let ck = compile(
            "perfect void touch(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = a[i] + 1.0; }
}",
            &h,
        )
        .unwrap();
        let n = 1 << 22; // large enough that overhead is negligible
        let mk = || {
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ]
        };
        let base = d.run_kernel(&h, &ck, mk(), ExecMode::sampled()).unwrap();
        let scaled = d
            .run_kernel(&h, &ck, mk(), ExecMode::Sampled { extra_scale: 10.0 })
            .unwrap();
        let ratio =
            (scaled.cost.total_s - scaled.cost.launch_s) / (base.cost.total_s - base.cost.launch_s);
        assert!((ratio - 10.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn faster_devices_run_the_same_kernel_faster() {
        let h = standard_hierarchy();
        let ck = compile(
            "perfect void work(int n, float[n] a) {
  foreach (int i in n threads) {
    float x = a[i];
    for (int k = 0; k < 256; k++) { x += x * 0.5; }
    a[i] = x;
  }
}",
            &h,
        )
        .unwrap();
        let n = 1u64 << 22;
        let time_on = |name: &str| {
            let d = SimDevice::by_name(&h, name).unwrap();
            let args = vec![
                ArgValue::Int(n as i64),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ];
            d.run_kernel(&h, &ck, args, ExecMode::sampled())
                .unwrap()
                .cost
                .total_s
        };
        let gtx480 = time_on("gtx480");
        let k20 = time_on("k20");
        let titan = time_on("titan");
        assert!(k20 < gtx480, "k20 {k20} vs gtx480 {gtx480}");
        assert!(titan <= k20, "titan {titan} vs k20 {k20}");
    }

    #[test]
    fn virtual_scales_divide_kernel_and_transfer_times() {
        let (h, mut d) = gtx480();
        let ck = compile(
            "perfect void scale2(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = a[i] * 2.0; }
}",
            &h,
        )
        .unwrap();
        let n = 1u64 << 20;
        let mk = || {
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ]
        };
        let base = d.run_kernel(&h, &ck, mk(), ExecMode::sampled()).unwrap();
        let base_xfer = d.transfer_time(80_000_000);
        d.scale_speed(2.0);
        d.scale_pcie(2.0);
        let fast = d.run_kernel(&h, &ck, mk(), ExecMode::sampled()).unwrap();
        // Kernel time halves; the cost breakdown itself stays physical.
        let ratio = base.time.as_secs_f64() / fast.time.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
        assert!((fast.cost.total_s - base.cost.total_s).abs() < 1e-12);
        // Transfers: bandwidth × 2 and latency ÷ 2 exactly halve the time.
        let fast_xfer = d.transfer_time(80_000_000);
        let xr = base_xfer.as_secs_f64() / fast_xfer.as_secs_f64();
        assert!((xr - 2.0).abs() < 1e-9, "xfer ratio {xr}");
        // Scales compound; a 0.5 undoes a 2.0.
        d.scale_speed(0.5);
        assert!((d.speed_scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn completion_estimate_accounts_for_queue() {
        let (_, mut d) = gtx480();
        let kt = SimTime::from_millis(10);
        assert_eq!(d.completion_estimate(SimTime::ZERO, kt), kt);
        d.schedule_exec(SimTime::ZERO, SimTime::from_millis(30));
        assert_eq!(
            d.completion_estimate(SimTime::ZERO, kt),
            SimTime::from_millis(40)
        );
    }
}
