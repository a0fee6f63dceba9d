//! The Cashmere leaf runtime: node-level jobs expand into device jobs that
//! are balanced across the node's many-core devices with overlapping PCIe
//! transfers and kernel executions (paper Sec. II-C, III-B).
//!
//! In the paper, a node-level job below the `enableManyCore()` threshold
//! keeps dividing through the same spawnable/sync mechanism, but into
//! *threads* that each drive one device job: copy input to the device, run
//! the kernel, copy the output back. `MCL.launch()` blocks the managing
//! thread, which is exactly how the model gets backpressure — a node only
//! commits to as many node-level jobs as it has cores to manage.
//!
//! Here [`CashmereLeafRuntime`] implements [`LeafRuntime`]: when the
//! cluster engine hands it a node-level leaf it
//!
//! 1. expands it via [`CashmereApp::device_jobs`] (typically 8 jobs);
//! 2. for each device job picks a device with the two-phase balancer
//!    (static speed table → measured kernel times, Sec. III-B);
//! 3. schedules host→device copy, kernel, device→host copy on the device's
//!    three timelines, so copies overlap with kernels automatically;
//! 4. runs the kernel through the MCL interpreter (fully in functional
//!    mode, sampled + cached in estimation mode) to get both the result
//!    and the modelled kernel time;
//! 5. falls back to the CPU leaf when no kernel version applies or device
//!    memory is exhausted (the paper's try/catch → `leafCPU` pattern).

use crate::balancer::{Balancer, DeviceEstimate, PolicyDesc, MAX_DEVICES};
use crate::registry::{arg_shape, KernelRegistry, PreparedKernel};
use cashmere_des::fault::FaultInjector;
use cashmere_des::obs::{prof, MetricsRegistry};
use cashmere_des::trace::{LaneId, SpanId, SpanKind, Trace};
use cashmere_des::SimTime;
use cashmere_devsim::{ExecMode, SimDevice};
use cashmere_mcl::cost::estimate_time;
use cashmere_mcl::launch::arg_shape_matches;
use cashmere_mcl::value::ArgValue;
use cashmere_satin::{ClusterApp, Counter, LeafCtx, LeafRuntime, RunReport};
use serde::{Deserialize, Serialize};

/// Description of one kernel invocation (the paper's
/// `Cashmere.getKernel()` / `createLaunch()` / `MCL.launch(kl, a, b)`).
#[derive(Debug, Clone)]
pub struct KernelCall {
    /// Registered kernel name (an application's kernels are named in its
    /// source, so a call borrows the name instead of owning a copy).
    pub kernel: &'static str,
    /// Arguments, in kernel-parameter order.
    pub args: Vec<ArgValue>,
    /// Bytes copied host→device before launch.
    pub h2d_bytes: u64,
    /// Bytes copied device→host after completion.
    pub d2h_bytes: u64,
    /// Bytes of *resident* input shared by every job of this kernel on a
    /// device (the paper's `Kernel.getDevice()` / `Device.copy()` feature):
    /// allocated and transferred once per device, then reused.
    pub resident_bytes: u64,
    /// Extra multiplier applied to sampled statistics (for calibration
    /// workloads whose inner dimensions were shrunk); 1.0 = none.
    pub extra_scale: f64,
}

impl KernelCall {
    /// Build a call with transfer sizes derived from the arguments:
    /// everything is copied in; arrays flagged in `out_args` are copied
    /// back.
    pub fn from_args(kernel: &'static str, args: Vec<ArgValue>, out_args: &[usize]) -> Self {
        let h2d_bytes = args.iter().map(ArgValue::device_bytes).sum();
        let d2h_bytes = out_args.iter().map(|&i| args[i].device_bytes()).sum();
        KernelCall {
            kernel,
            args,
            h2d_bytes,
            d2h_bytes,
            resident_bytes: 0,
            extra_scale: 1.0,
        }
    }
}

/// A Cashmere application: a [`ClusterApp`] whose leaves know how to run on
/// many-core devices.
pub trait CashmereApp: ClusterApp {
    /// Expand a node-level leaf into device jobs (the paper's "sets of 8
    /// jobs"). Must be non-empty; [`ClusterApp::combine`] must accept the
    /// outputs of this division.
    fn device_jobs(&self, input: &Self::Input) -> Vec<Self::Input>;

    /// Describe the kernel launch for one device job.
    fn kernel_call(&self, input: &Self::Input) -> KernelCall;

    /// Build the device-job output from the post-execution arguments.
    /// A device job no device can run falls back to
    /// [`ClusterApp::leaf_cpu`] instead (the paper's `leafCPU`).
    fn job_output(&self, input: &Self::Input, args: Vec<ArgValue>) -> Self::Output;
}

/// CPU cost of submitting one device job (thread creation + driver).
const SUBMIT_OVERHEAD: SimTime = SimTime::from_micros(20);

/// Runtime knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Run kernels fully (real results) instead of sampled (estimates).
    pub functional: bool,
    /// Device-selection policy (ablation knob; paper's Sec. III-B default).
    pub balancer_policy: crate::balancer::Policy,
    /// Overlap PCIe transfers with kernel execution (paper Sec. II-C3).
    /// Disabled, everything serializes on one engine — ablation knob.
    pub overlap: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            functional: false,
            balancer_policy: crate::balancer::Policy::Scenario,
            overlap: true,
        }
    }
}

/// One balancer decision, recorded for the audit log (tracing runs only):
/// the candidate table the Sec. III-B rule evaluated and where the job
/// actually went. Terminal outcomes only — a transient launch fault or a
/// mid-flight device death re-enters the decision loop and produces a fresh
/// entry instead.
#[derive(Debug, Clone, Serialize)]
pub struct AuditEntry {
    /// Decision sequence number (audit-log index).
    pub seq: u64,
    pub node: usize,
    pub kernel: String,
    /// Virtual submission time of the device job, in ns.
    pub submit_ns: u64,
    /// Name + parameters of the policy instance that made this decision
    /// (tournament artifacts are self-describing).
    pub policy: PolicyDesc,
    /// Per-device estimates and scenario makespans at decision time.
    pub candidates: Vec<DeviceEstimate>,
    /// Device the job ran on; `None` when it degraded to the CPU leaf.
    pub chosen: Option<usize>,
    /// `"placed"`, or why the job fell back to the CPU
    /// (`"no-usable-device"`, `"launch-fault-budget"`, `"memory-exhausted"`).
    pub reason: String,
}

// Hand-written so old audit artifacts — which either stored the policy as
// a bare name string or (older still) omitted the field — keep loading:
// a missing `policy` backfills the default scenario descriptor.
impl Deserialize for AuditEntry {
    fn from_content(content: &serde::Content) -> Result<AuditEntry, serde::DeError> {
        let Some(m) = content.as_map() else {
            return Err(serde::DeError::expected("map", "AuditEntry", content));
        };
        let known = [
            "seq",
            "node",
            "kernel",
            "submit_ns",
            "policy",
            "candidates",
            "chosen",
            "reason",
        ];
        for (k, _) in m {
            match k.as_str() {
                Some(k) if known.contains(&k) => {}
                Some(k) => {
                    return Err(serde::DeError::custom(format!(
                        "unknown AuditEntry field `{k}`"
                    )))
                }
                None => return Err(serde::DeError::expected("string key", "AuditEntry", k)),
            }
        }
        let field = |name: &str| {
            m.iter()
                .find(|(k, _)| k.as_str() == Some(name))
                .map(|(_, v)| v)
        };
        let req = |name: &'static str| {
            field(name).ok_or_else(|| serde::DeError::missing_field(name, "AuditEntry"))
        };
        Ok(AuditEntry {
            seq: u64::from_content(req("seq")?)?,
            node: usize::from_content(req("node")?)?,
            kernel: String::from_content(req("kernel")?)?,
            submit_ns: u64::from_content(req("submit_ns")?)?,
            policy: match field("policy") {
                Some(v) => PolicyDesc::from_content(v)?,
                None => PolicyDesc::default(),
            },
            candidates: Vec::from_content(req("candidates")?)?,
            chosen: Option::from_content(req("chosen")?)?,
            reason: String::from_content(req("reason")?)?,
        })
    }
}

/// Trace lanes of one device (mirrors the paper's Gantt queues, Fig. 16).
#[derive(Debug, Clone, Copy)]
struct DevLanes {
    h2d: LaneId,
    exec: LaneId,
    d2h: LaneId,
}

/// How one device runs one kernel (paper Sec. III-A): the most specific
/// version prepared for the device, the modelled kernel seconds of every
/// sampled launch shape seen so far, and the kernel's resident buffer.
struct KernelPlan {
    kernel: PreparedKernel,
    /// `(arg shape, extra_scale bits, estimate_time(..).total_s)` per
    /// sampled launch seen, seconds before the device's virtual speed
    /// scale. A plan sees few shapes, so a launch is matched against them
    /// in place. Exact and never invalidated: version and geometry are
    /// fixed per plan, so the shape fixes the launch; launch-table entries
    /// are never replaced; and the device parameters the cost model reads
    /// never change.
    seconds: Vec<(Vec<u64>, u64, f64)>,
    /// Resident (kernel-shared) input already on the device.
    resident: Option<cashmere_devsim::BufferId>,
}

impl KernelPlan {
    /// Modelled seconds of a launch on `args` at `scale_bits`, if seen.
    fn seconds(&self, args: &[ArgValue], scale_bits: u64) -> Option<f64> {
        self.seconds
            .iter()
            .find(|(shape, bits, _)| *bits == scale_bits && arg_shape_matches(args, shape))
            .map(|&(_, _, total_s)| total_s)
    }
}

/// A device's kernel plans by kernel id ([`CashmereLeafRuntime::kernels`]),
/// resolved on first sight: the outer `None` is "not resolved yet", the
/// inner one "no version of the kernel applies to the device".
#[derive(Default)]
struct KernelPlans(Vec<Option<Option<KernelPlan>>>);

impl KernelPlans {
    fn resolve(
        &mut self,
        registry: &KernelRegistry,
        device: &SimDevice,
        kernel: usize,
        name: &str,
    ) -> Option<&mut KernelPlan> {
        if self.0.len() <= kernel {
            self.0.resize_with(kernel + 1, || None);
        }
        self.0[kernel]
            .get_or_insert_with(|| {
                registry.prepare(name, device).map(|kernel| KernelPlan {
                    kernel,
                    seconds: Vec::new(),
                    resident: None,
                })
            })
            .as_mut()
    }

    /// The plan of a kernel already resolved to one.
    fn get(&mut self, kernel: usize) -> &mut KernelPlan {
        self.0[kernel]
            .as_mut()
            .and_then(Option::as_mut)
            .expect("allowed device has a version")
    }
}

/// One device attached to a node.
pub struct DeviceSlot {
    pub sim: SimDevice,
    lanes: Option<DevLanes>,
    /// Live allocations expiring when their job's d2h completes.
    allocations: Vec<(SimTime, cashmere_devsim::BufferId)>,
    plans: KernelPlans,
    pub jobs_run: u64,
}

impl DeviceSlot {
    /// Free every buffer on the device: job allocations and resident data.
    fn release_buffers(&mut self) {
        for (_, id) in self.allocations.drain(..) {
            self.sim.memory.free(id);
        }
        for plan in self.plans.0.iter_mut().flatten().flatten() {
            if let Some(id) = plan.resident.take() {
                self.sim.memory.free(id);
            }
        }
    }
}

/// Devices + balancer of one node.
pub struct NodeDevices {
    pub devices: Vec<DeviceSlot>,
    pub balancer: Balancer,
    /// Pending completions: (kernel id, device, kernel_time, finish_time).
    pending: Vec<(usize, usize, SimTime, SimTime)>,
}

impl NodeDevices {
    /// Report to the balancer every job that has finished by `now`;
    /// `kernels` names the kernel ids.
    fn reap(&mut self, now: SimTime, kernels: &[&'static str]) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].3 <= now {
                let (kernel, d, t, _) = self.pending.swap_remove(i);
                self.balancer.on_complete(kernels[kernel], d, t);
            } else {
                i += 1;
            }
        }
    }
}

/// The Cashmere leaf runtime (one per simulated cluster).
pub struct CashmereLeafRuntime {
    pub registry: KernelRegistry,
    pub nodes: Vec<NodeDevices>,
    pub config: RuntimeConfig,
    /// Balancer decision audit log (populated only when tracing is on).
    pub audit: Vec<AuditEntry>,
    /// Kernel names by id, in first-sight order. A run launches a few
    /// kernels, so a name is found by comparison, never hashed.
    kernels: Vec<&'static str>,
}

impl CashmereLeafRuntime {
    /// Build for a cluster where node `n` carries the devices named in
    /// `spec[n]` (level names in the registry's hierarchy).
    pub fn new(
        registry: KernelRegistry,
        spec: &[Vec<String>],
        config: RuntimeConfig,
    ) -> Result<CashmereLeafRuntime, String> {
        let mut nodes = Vec::with_capacity(spec.len());
        for names in spec {
            if names.is_empty() {
                return Err("every node needs at least one device".into());
            }
            if names.len() > MAX_DEVICES {
                return Err(format!("a node carries at most {MAX_DEVICES} devices"));
            }
            let mut devices = Vec::new();
            let mut speeds = Vec::new();
            for name in names {
                let sim = SimDevice::by_name(registry.hierarchy(), name)?;
                speeds.push(sim.params.relative_speed);
                devices.push(DeviceSlot {
                    sim,
                    lanes: None,
                    allocations: Vec::new(),
                    plans: KernelPlans::default(),
                    jobs_run: 0,
                });
            }
            let mut balancer = Balancer::new(&speeds);
            balancer.set_policy(config.balancer_policy);
            nodes.push(NodeDevices {
                devices,
                balancer,
                pending: Vec::new(),
            });
        }
        Ok(CashmereLeafRuntime {
            registry,
            nodes,
            config,
            audit: Vec::new(),
            kernels: Vec::new(),
        })
    }

    /// The id of kernel `name`, assigned on first sight.
    fn kernel_id(&mut self, name: &'static str) -> usize {
        match self.kernels.iter().position(|&k| k == name) {
            Some(id) => id,
            None => {
                self.kernels.push(name);
                self.kernels.len() - 1
            }
        }
    }

    /// Virtually scale the compute speed of every device whose level name
    /// matches `selector` (`*` matches all) by `factor`. Returns how many
    /// devices matched. Advisor what-if hook: kernels finish `factor`×
    /// sooner, and because the balancer learns *measured* times, its
    /// estimates follow automatically.
    pub fn scale_device_speed(&mut self, selector: &str, factor: f64) -> usize {
        let mut matched = 0;
        for nd in &mut self.nodes {
            for slot in &mut nd.devices {
                if selector == "*" || selector == slot.sim.level_name {
                    slot.sim.scale_speed(factor);
                    matched += 1;
                }
            }
        }
        matched
    }

    /// Virtually scale the PCIe link (bandwidth × `factor`, latency ÷
    /// `factor`) of every device matching `selector`. Returns the match
    /// count.
    pub fn scale_pcie(&mut self, selector: &str, factor: f64) -> usize {
        let mut matched = 0;
        for nd in &mut self.nodes {
            for slot in &mut nd.devices {
                if selector == "*" || selector == slot.sim.level_name {
                    slot.sim.scale_pcie(factor);
                    matched += 1;
                }
            }
        }
        matched
    }

    /// Scale the balancer's *belief* about matching devices without making
    /// them actually faster: the static speed-table entry is multiplied by
    /// `factor`, but kernels still take their physical time. Isolates how
    /// much of performance is placement quality vs raw device speed.
    pub fn scale_balancer_table(&mut self, selector: &str, factor: f64) -> usize {
        let mut matched = 0;
        for nd in &mut self.nodes {
            for (didx, slot) in nd.devices.iter().enumerate() {
                if selector == "*" || selector == slot.sim.level_name {
                    nd.balancer.scale_speed(didx, factor);
                    matched += 1;
                }
            }
        }
        matched
    }

    fn lanes_for(trace: &mut Trace, node: usize, dev_name: &str, dev_idx: usize) -> DevLanes {
        let base = format!("n{node}.{dev_name}{dev_idx}");
        DevLanes {
            h2d: trace.add_lane(format!("{base}.h2d")),
            exec: trace.add_lane(format!("{base}.exec")),
            d2h: trace.add_lane(format!("{base}.d2h")),
        }
    }

    /// Permanently retire device `didx` of `nd` at virtual time `at`: pull
    /// its engine timelines back to `at` (work beyond the failure never
    /// happens), release every buffer, forget pending completions, and
    /// retire it in the balancer, which alone records retirement.
    fn kill_device(nd: &mut NodeDevices, didx: usize, at: SimTime, report: &mut RunReport) {
        let slot = &mut nd.devices[didx];
        slot.sim.abort_after(at);
        slot.release_buffers();
        nd.pending.retain(|p| p.1 != didx);
        nd.balancer.retire_device(didx);
        report[Counter::DevicesLost] += 1;
    }

    /// Append one decision to the audit log (tracing runs only).
    fn push_audit(
        &mut self,
        node: usize,
        call: &KernelCall,
        submit_at: SimTime,
        candidates: Vec<DeviceEstimate>,
        chosen: Option<usize>,
        reason: &str,
    ) {
        self.audit.push(AuditEntry {
            seq: self.audit.len() as u64,
            node,
            kernel: call.kernel.to_string(),
            submit_ns: submit_at.as_nanos(),
            policy: self.nodes[node].balancer.describe_policy(),
            candidates,
            chosen,
            reason: reason.to_string(),
        });
    }

    /// Execute one device job: balancer choice, transfers, kernel. Returns
    /// `(completion_time, output)`.
    ///
    /// Faults enter here in three ways: devices whose injected death is due
    /// are retired before the choice; a transient launch fault costs a
    /// retry (bounded budget, then `leafCPU`); and a job that would still
    /// be on a device when that device dies is aborted and resubmitted to
    /// the survivors (or the CPU).
    #[allow(clippy::too_many_arguments)]
    fn run_device_job<A: CashmereApp>(
        &mut self,
        app: &A,
        node: usize,
        job: &A::Input,
        submit_at: SimTime,
        cpu_cursor: &mut SimTime,
        trace: &mut Trace,
        metrics: &mut MetricsRegistry,
        parent_span: SpanId,
        faults: &mut FaultInjector,
        report: &mut RunReport,
    ) -> (SimTime, A::Output) {
        const LAUNCH_RETRY_BUDGET: u32 = 3;
        let launch_retry_penalty = SimTime::from_micros(50);

        let mut call = app.kernel_call(job);
        let kernel = self.kernel_id(call.kernel);
        // Devices that actually have an applicable kernel version.
        let ndev = self.nodes[node].devices.len();
        let mut kernel_ok = [false; MAX_DEVICES];
        for (ok, d) in kernel_ok.iter_mut().zip(&mut self.nodes[node].devices) {
            *ok = d
                .plans
                .resolve(&self.registry, &d.sim, kernel, call.kernel)
                .is_some();
        }
        let kernel_ok = &kernel_ok[..ndev];
        let mut submit_at = submit_at;
        let mut launch_attempts = 0u32;
        loop {
            let nd = &mut self.nodes[node];
            // Retire every device whose injected death is due by now.
            for d in 0..nd.devices.len() {
                if !nd.balancer.is_retired(d) {
                    if let Some(death) = faults.device_death(node, d) {
                        if death <= submit_at {
                            Self::kill_device(nd, d, death, report);
                        }
                    }
                }
            }
            nd.reap(submit_at, &self.kernels);
            let mut allowed = [false; MAX_DEVICES];
            for (d, (a, ok)) in allowed.iter_mut().zip(kernel_ok).enumerate() {
                *a = *ok && !nd.balancer.is_retired(d);
            }
            let allowed = &allowed[..ndev];

            // Snapshot the candidate table before the choice (the audit log
            // must show what the rule saw, not the post-submit queues).
            let candidates = trace
                .enabled()
                .then(|| nd.balancer.explain(call.kernel, allowed));

            let chosen = nd.balancer.choose_among(call.kernel, allowed);
            let Some(didx) = chosen else {
                // No device can run this kernel: leafCPU fallback,
                // serialized on the managing core. Attribute it to faults
                // when a lost device would otherwise have qualified.
                if (0..ndev).any(|d| kernel_ok[d] && nd.balancer.is_retired(d)) {
                    report[Counter::FaultCpuFallbacks] += 1;
                }
                if let Some(candidates) = candidates {
                    self.push_audit(node, &call, submit_at, candidates, None, "no-usable-device");
                }
                return leaf_cpu_fallback(app, job, submit_at, cpu_cursor, report);
            };

            // Transient launch fault (the paper's try/catch around
            // MCL.launch()): pay a driver round-trip and retry; degrade to
            // the CPU leaf once the budget is spent.
            if faults.launch_fault(node, didx, submit_at) {
                report[Counter::LaunchRetries] += 1;
                launch_attempts += 1;
                if launch_attempts >= LAUNCH_RETRY_BUDGET {
                    report[Counter::FaultCpuFallbacks] += 1;
                    if let Some(candidates) = candidates {
                        self.push_audit(
                            node,
                            &call,
                            submit_at,
                            candidates,
                            None,
                            "launch-fault-budget",
                        );
                    }
                    return leaf_cpu_fallback(app, job, submit_at, cpu_cursor, report);
                }
                submit_at += launch_retry_penalty;
                continue;
            }

            let (done, out, placed) = match self.schedule_on_device(
                app,
                node,
                didx,
                kernel,
                job,
                &mut call,
                submit_at,
                cpu_cursor,
                trace,
                metrics,
                parent_span,
                faults,
                report,
            ) {
                Ok(done_out) => done_out,
                Err(resubmit_at) => {
                    // The chosen device dies while this job would still be
                    // on it: the job is lost and resubmitted to survivors.
                    submit_at = submit_at.max(resubmit_at);
                    continue;
                }
            };
            if let Some(candidates) = candidates {
                if placed {
                    self.push_audit(node, &call, submit_at, candidates, Some(didx), "placed");
                } else {
                    self.push_audit(node, &call, submit_at, candidates, None, "memory-exhausted");
                }
            }
            return (done, out);
        }
    }

    /// Place one device job on the chosen device. Returns
    /// `Err(death_time)` when the device's injected death aborts the job
    /// in flight; `Ok((completion, output, placed))` otherwise, where
    /// `placed` is false when memory exhaustion degraded the job to the CPU
    /// leaf (pre-existing model behavior). A job placed in estimation mode
    /// hands `call.args` to its output; until then they are untouched, so
    /// a resubmission sees them intact.
    #[allow(clippy::too_many_arguments)]
    fn schedule_on_device<A: CashmereApp>(
        &mut self,
        app: &A,
        node: usize,
        didx: usize,
        kernel: usize,
        job: &A::Input,
        call: &mut KernelCall,
        submit_at: SimTime,
        cpu_cursor: &mut SimTime,
        trace: &mut Trace,
        metrics: &mut MetricsRegistry,
        parent_span: SpanId,
        faults: &mut FaultInjector,
        report: &mut RunReport,
    ) -> Result<(SimTime, A::Output, bool), SimTime> {
        let _prof = prof::scope("cashmere::place");
        let nd = &mut self.nodes[node];
        // Device memory for inputs and outputs. "Cashmere automatically
        // manages the available memory on a device": under memory pressure
        // a job waits until earlier jobs' buffers are released (their d2h
        // finished); only a job that cannot fit even on an idle device
        // falls back to the CPU leaf.
        let needed = call.h2d_bytes + call.d2h_bytes;
        let mut effective_submit = submit_at;
        let mut resident_upload = 0u64;
        {
            let slot = &mut nd.devices[didx];
            // First job of this kernel on this device uploads the resident
            // data (kept for the rest of the run).
            let resident_needed =
                if call.resident_bytes > 0 && slot.plans.get(kernel).resident.is_none() {
                    call.resident_bytes
                } else {
                    0
                };
            loop {
                // Reclaim everything that has drained by now.
                let mut i = 0;
                while i < slot.allocations.len() {
                    if slot.allocations[i].0 <= effective_submit {
                        let (_, id) = slot.allocations.swap_remove(i);
                        slot.sim.memory.free(id);
                    } else {
                        i += 1;
                    }
                }
                if slot.sim.memory.fits(needed + resident_needed) {
                    break;
                }
                // Wait for the earliest in-flight job to leave the device.
                match slot.allocations.iter().map(|(t, _)| *t).min() {
                    Some(t) => effective_submit = effective_submit.max(t),
                    None => {
                        // Even an idle device cannot hold this job.
                        let (done, out) =
                            leaf_cpu_fallback(app, job, submit_at, cpu_cursor, report);
                        return Ok((done, out, false));
                    }
                }
            }
            if resident_needed > 0 {
                let id = slot
                    .sim
                    .memory
                    .alloc(resident_needed)
                    .expect("checked fit above");
                slot.plans.get(kernel).resident = Some(id);
                resident_upload = resident_needed;
            }
        }

        // Interpret the kernel: fully (functional), or sampled through the
        // slot's plan and the process-wide launch table.
        let slot = &mut nd.devices[didx];
        let plan = slot.plans.get(kernel);
        let (args_back, total_s) = if !self.config.functional {
            let scale_bits = call.extra_scale.to_bits();
            let total_s = match plan.seconds(&call.args, scale_bits) {
                Some(total_s) => {
                    report[Counter::KernelMemoHits] += 1;
                    total_s
                }
                None => {
                    // The launch table holds *unscaled* statistics;
                    // calibration scaling is applied per call (jobs with
                    // the same shape may calibrate differently).
                    let (measured, first_sight) =
                        self.registry.sampled_stats(&plan.kernel, &call.args);
                    report[if first_sight {
                        Counter::KernelMemoMisses
                    } else {
                        Counter::KernelMemoHits
                    }] += 1;
                    let mut stats =
                        measured.unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", call.kernel));
                    if call.extra_scale != 1.0 {
                        stats.scale(call.extra_scale);
                    }
                    let total_s =
                        estimate_time(&stats, &slot.sim.params, plan.kernel.launch.config.class)
                            .total_s;
                    plan.seconds
                        .push((arg_shape(&call.args), scale_bits, total_s));
                    total_s
                }
            };
            (None, total_s)
        } else {
            let run = slot
                .sim
                .run_kernel(
                    self.registry.hierarchy(),
                    plan.kernel.checked(),
                    call.args.clone(),
                    ExecMode::Full,
                )
                .unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", call.kernel));
            let total_s = estimate_time(
                &run.stats,
                &slot.sim.params,
                plan.kernel.launch.config.class,
            )
            .total_s;
            (Some(run.args), total_s)
        };

        // Costs are physical; the advisor's virtual speed scale applies at
        // readout, same as `SimDevice::run_kernel` (the cached paths bypass
        // it).
        let kernel_time = SimTime::from_secs_f64(total_s / slot.sim.speed_scale);

        // Reserve memory until the job leaves the device.
        // Timelines: h2d from submission; exec after the copy; d2h after.
        // With overlap disabled (ablation), every phase runs on the exec
        // engine, so transfers block kernels of other jobs.
        let (h2d_s, h2d_e, ex_s, ex_e, dh_s, dh_e) = if self.config.overlap {
            let (h2d_s, h2d_e) = slot
                .sim
                .schedule_h2d(effective_submit, call.h2d_bytes + resident_upload);
            let (ex_s, ex_e) = slot.sim.schedule_exec(h2d_e, kernel_time);
            let (dh_s, dh_e) = slot.sim.schedule_d2h(ex_e, call.d2h_bytes);
            (h2d_s, h2d_e, ex_s, ex_e, dh_s, dh_e)
        } else {
            let h2d_time = slot.sim.transfer_time(call.h2d_bytes + resident_upload);
            let d2h_time = slot.sim.transfer_time(call.d2h_bytes);
            let (h2d_s, h2d_e) = slot.sim.schedule_exec(effective_submit, h2d_time);
            let (ex_s, ex_e) = slot.sim.schedule_exec(h2d_e, kernel_time);
            let (dh_s, dh_e) = slot.sim.schedule_exec(ex_e, d2h_time);
            (h2d_s, h2d_e, ex_s, ex_e, dh_s, dh_e)
        };

        // The device dies before this job drains: the partial device time
        // is recovery cost, the device is retired, and the caller resubmits
        // the job to the survivors.
        if let Some(death) = faults.device_death(node, didx) {
            if death < dh_e {
                report[Counter::DeviceAborts] += 1;
                report[Counter::RecoveryTime] += death.saturating_sub(h2d_s).as_nanos();
                Self::kill_device(nd, didx, death, report);
                return Err(death);
            }
        }

        let slot = &mut nd.devices[didx];
        if let Ok(id) = slot.sim.memory.alloc(needed) {
            slot.allocations.push((dh_e, id));
        }
        slot.jobs_run += 1;
        report[Counter::KernelsRun] += 1;

        if trace.enabled() {
            let lanes = match slot.lanes {
                Some(l) => l,
                None => {
                    let l = Self::lanes_for(trace, node, &slot.sim.level_name, didx);
                    slot.lanes = Some(l);
                    l
                }
            };
            // Causal chain of the device job: the node-level leaf span
            // fathers the h2d copy, which fathers the kernel, which fathers
            // the d2h copy — lineage a flow arrow can follow end to end.
            let h2d_span = trace.record_child(
                lanes.h2d,
                SpanKind::CopyToDevice,
                call.kernel,
                h2d_s,
                h2d_e,
                parent_span,
            );
            let exec_span = trace.record_child(
                lanes.exec,
                SpanKind::Kernel,
                call.kernel,
                ex_s,
                ex_e,
                h2d_span,
            );
            trace.record_child(
                lanes.d2h,
                SpanKind::CopyFromDevice,
                call.kernel,
                dh_s,
                dh_e,
                exec_span,
            );
        }
        metrics.observe("pcie.h2d", h2d_e - h2d_s);
        metrics.observe("kernel.exec", ex_e - ex_s);
        metrics.observe("pcie.d2h", dh_e - dh_s);

        nd.balancer.on_submit(didx);
        if metrics.enabled() {
            metrics.gauge_set(
                &format!("n{node}.dev{didx}.queue"),
                effective_submit,
                nd.balancer.queued(didx) as f64,
            );
        }
        nd.pending.push((kernel, didx, kernel_time, dh_e));

        // Estimation mode leaves the arguments as they came: the job's
        // output takes them over, since a placed job is never retried.
        let args = args_back.unwrap_or_else(|| std::mem::take(&mut call.args));
        Ok((dh_e, app.job_output(job, args), true))
    }
}

/// The paper's try/catch → `leafCPU` fallback for a device job no device
/// takes: [`ClusterApp::leaf_cpu`] runs on the managing core, serialized
/// after earlier fallbacks of the same node-level leaf (`cpu_cursor`), and
/// is counted as a CPU fallback. Returns `(completion_time, output)`.
fn leaf_cpu_fallback<A: CashmereApp>(
    app: &A,
    job: &A::Input,
    submit_at: SimTime,
    cpu_cursor: &mut SimTime,
    report: &mut RunReport,
) -> (SimTime, A::Output) {
    report[Counter::CpuFallbacks] += 1;
    let (cpu, out) = app.leaf_cpu(job);
    let done = (*cpu_cursor).max(submit_at) + cpu;
    *cpu_cursor = done;
    (done, out)
}

impl<A: CashmereApp> LeafRuntime<A> for CashmereLeafRuntime {
    fn plan(&mut self, app: &A, input: &A::Input, ctx: LeafCtx<'_>) -> (SimTime, A::Output) {
        let LeafCtx {
            node,
            now,
            trace,
            metrics,
            parent_span,
            faults,
            report,
        } = ctx;
        let jobs = app.device_jobs(input);
        assert!(!jobs.is_empty(), "device_jobs must be non-empty");
        let mut submit = now;
        let mut done = now;
        let mut cpu_cursor = now;
        let mut outputs = Vec::with_capacity(jobs.len());
        for job in &jobs {
            submit += SUBMIT_OVERHEAD;
            let (d, out) = self.run_device_job(
                app,
                node,
                job,
                submit,
                &mut cpu_cursor,
                trace,
                metrics,
                parent_span,
                faults,
                report,
            );
            done = done.max(d);
            outputs.push(out);
        }
        let output = if jobs.len() == 1 {
            outputs.pop().expect("one output")
        } else {
            app.combine(input, outputs)
        };
        // The managing core blocks until the last device job returns
        // (MCL.launch() is blocking), giving natural backpressure.
        (done - now, output)
    }

    /// Node crash: the node's device state dies with it. Pull every engine
    /// timeline back to the crash instant (work past it never happens),
    /// release all buffers, and forget pending completions. Injected device
    /// deaths are permanent hardware facts: the balancer keeps them.
    fn on_node_crash(&mut self, node: usize, at: SimTime) {
        let Some(nd) = self.nodes.get_mut(node) else {
            return;
        };
        for slot in &mut nd.devices {
            slot.sim.abort_after(at);
            slot.release_buffers();
        }
        nd.pending.clear();
    }

    /// Node (re)join: the node's runtime process restarts, so its balancer
    /// restarts too ([`Balancer::reset`]): measured kernel times are
    /// deliberately forgotten (the restarted process re-measures), while
    /// the static speed table, including an advisor's table perturbation,
    /// and the devices killed by an injected death carry over.
    fn on_node_join(&mut self, node: usize, _at: SimTime) {
        let Some(nd) = self.nodes.get_mut(node) else {
            return;
        };
        nd.balancer.reset();
        nd.pending.clear();
    }

    /// Flight-recorder gauges: the balancer's cumulative placement mix —
    /// device jobs run per device class across the cluster, plus CPU
    /// fallbacks. Aggregated through a sorted map so column order is
    /// independent of node/slot enumeration order.
    fn probe(&self, report: &RunReport, out: &mut Vec<(String, f64)>) {
        let mut per_class: std::collections::BTreeMap<&str, u64> =
            std::collections::BTreeMap::new();
        for nd in &self.nodes {
            for slot in &nd.devices {
                *per_class.entry(slot.sim.level_name.as_str()).or_insert(0) += slot.jobs_run;
            }
        }
        for (class, jobs) in per_class {
            out.push((format!("placed.{class}"), jobs as f64));
        }
        out.push(("placed.cpu".into(), report[Counter::CpuFallbacks] as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_hwdesc::standard_hierarchy;
    use cashmere_mcl::value::ArrayArg;
    use cashmere_mcl::{ElemTy, Sampling};
    use cashmere_satin::DcStep;
    use std::collections::BTreeSet;

    /// `(n, extra_scale)`: one `double_all` launch over `n` floats.
    type Job = (u64, f64);

    struct ShapeApp;

    impl ClusterApp for ShapeApp {
        type Input = Job;
        type Output = ();

        fn step(&self, _: &Job) -> DcStep<Job> {
            DcStep::Leaf
        }

        fn leaf_cpu(&self, _: &Job) -> (SimTime, ()) {
            panic!("every device has a version of `double_all`")
        }

        fn combine(&self, _: &Job, _: Vec<()>) {}

        fn input_bytes(&self, &(n, _): &Job) -> u64 {
            n * 4
        }

        fn output_bytes(&self, _: &()) -> u64 {
            0
        }
    }

    impl CashmereApp for ShapeApp {
        fn device_jobs(&self, job: &Job) -> Vec<Job> {
            vec![*job]
        }

        fn kernel_call(&self, &(n, extra_scale): &Job) -> KernelCall {
            let args = vec![
                ArgValue::Int(n as i64),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n])),
            ];
            KernelCall {
                extra_scale,
                ..KernelCall::from_args("double_all", args, &[1])
            }
        }

        fn job_output(&self, _: &Job, _: Vec<ArgValue>) {}
    }

    /// One node carrying `devices`. A K20 runs the `gpu` version of the
    /// kernel, a Xeon Phi the `perfect` one.
    fn runtime(devices: &[&str]) -> CashmereLeafRuntime {
        let mut registry = KernelRegistry::new(standard_hierarchy());
        registry
            .register(
                "perfect void double_all(int n, float[n] y) {
  foreach (int i in n threads) { y[i] = y[i] * 2.0; }
}",
            )
            .unwrap();
        registry
            .register(
                "gpu void double_all(int n, float[n] y) {
  foreach (int b in (n + 255) / 256 blocks) {
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      if (i < n) { y[i] = y[i] * 2.0; }
    }
  }
}",
            )
            .unwrap();
        let spec = vec![devices.iter().map(|d| d.to_string()).collect()];
        CashmereLeafRuntime::new(registry, &spec, RuntimeConfig::default()).unwrap()
    }

    /// Submit `job` to node 0 at `at`: the device it ran on and its kernel
    /// time.
    fn run(
        rt: &mut CashmereLeafRuntime,
        job: Job,
        at: SimTime,
        report: &mut RunReport,
    ) -> (usize, SimTime) {
        let mut cpu_cursor = at;
        rt.run_device_job(
            &ShapeApp,
            0,
            &job,
            at,
            &mut cpu_cursor,
            &mut Trace::new(),
            &mut MetricsRegistry::new(),
            SpanId::NONE,
            &mut FaultInjector::disabled(0),
            report,
        );
        let &(_, didx, kernel_time, _) = rt.nodes[0].pending.last().expect("job ran on a device");
        (didx, kernel_time)
    }

    /// The uncached derivation: run the job's sampled launch on the device
    /// directly, bypassing plans and the launch table. Also names the
    /// launch shape the run's memo counts: (device, arg shape).
    fn uncached(rt: &CashmereLeafRuntime, didx: usize, job: Job) -> ((String, Vec<u64>), SimTime) {
        let sim = &rt.nodes[0].devices[didx].sim;
        let call = ShapeApp.kernel_call(&job);
        let ck = rt.registry.select(call.kernel, sim.level).unwrap();
        let shape = (sim.level_name.clone(), arg_shape(&call.args));
        let mode = ExecMode::Sampled {
            sampling: Sampling::default(),
            extra_scale: call.extra_scale,
        };
        let run = sim
            .run_kernel(rt.registry.hierarchy(), ck, call.args, mode)
            .unwrap();
        (shape, run.time)
    }

    /// Kernel time of `job` on a fresh one-device runtime, sped up by
    /// `speed`: every cache cold.
    fn cold(device: &str, speed: f64, job: Job) -> SimTime {
        let mut rt = runtime(&[device]);
        rt.scale_device_speed("*", speed);
        run(&mut rt, job, SimTime::ZERO, &mut RunReport::new(1)).1
    }

    #[test]
    fn a_node_holds_at_most_max_devices() {
        let build = |count: usize| {
            let spec = vec![vec!["k20".to_string(); count]];
            let registry = KernelRegistry::new(standard_hierarchy());
            CashmereLeafRuntime::new(registry, &spec, RuntimeConfig::default()).map(|_| ())
        };
        assert_eq!(build(MAX_DEVICES), Ok(()));
        let err = build(MAX_DEVICES + 1).unwrap_err();
        assert!(err.contains("at most 64 devices"), "{err}");
    }

    #[test]
    fn table_perturbation_survives_a_rejoin() {
        // An advisor `table:k20:2x` perturbation is part of the static
        // table, which a rebooted node's balancer keeps.
        let mut rt = runtime(&["k20", "xeon_phi"]);
        let (k20, phi) = (rt.nodes[0].balancer.speed(0), rt.nodes[0].balancer.speed(1));
        assert_eq!(rt.scale_balancer_table("k20", 2.0), 1);
        let at = SimTime::from_micros(1000);
        <CashmereLeafRuntime as LeafRuntime<ShapeApp>>::on_node_crash(&mut rt, 0, at);
        <CashmereLeafRuntime as LeafRuntime<ShapeApp>>::on_node_join(&mut rt, 0, at);
        assert_eq!(rt.nodes[0].balancer.speed(0), 2.0 * k20);
        assert_eq!(rt.nodes[0].balancer.speed(1), phi);
    }

    #[test]
    fn slot_cache_reproduces_the_uncached_kernel_time() {
        let mut rt = runtime(&["k20", "xeon_phi"]);
        let mut report = RunReport::new(1);
        // Two shapes; one shape under two calibrations.
        let jobs: [Job; 3] = [(4096, 2.5), (16384, 2.5), (4096, 0.75)];
        let mut keys = BTreeSet::new();
        let mut devices = BTreeSet::new();
        // Submitted together, the jobs queue up and spill onto the Phi.
        for i in 0..24 {
            let job = jobs[i % jobs.len()];
            let (didx, t) = run(&mut rt, job, SimTime::ZERO, &mut report);
            let (key, expected) = uncached(&rt, didx, job);
            assert_eq!(t, expected, "job {i} on device {didx}");
            keys.insert(key);
            devices.insert(didx);
        }
        assert_eq!(devices.len(), 2, "both kernel versions ran");
        assert_eq!(
            report[Counter::KernelMemoHits] + report[Counter::KernelMemoMisses],
            report[Counter::KernelsRun]
        );
        assert_eq!(report[Counter::KernelMemoMisses], keys.len() as u64);
        assert!(
            report[Counter::KernelsRun] > keys.len() as u64,
            "jobs repeated"
        );

        // A virtual speed-up between jobs applies at readout.
        rt.scale_device_speed("*", 2.0);
        let (didx, t) = run(&mut rt, jobs[0], SimTime::ZERO, &mut report);
        let device = rt.nodes[0].devices[didx].sim.level_name.clone();
        assert_eq!(t, cold(&device, 2.0, jobs[0]));

        // A crash and rejoin reset the node's timelines and balancer; the
        // next job still costs what a cold runtime computes.
        let at = SimTime::from_micros(1000);
        <CashmereLeafRuntime as LeafRuntime<ShapeApp>>::on_node_crash(&mut rt, 0, at);
        <CashmereLeafRuntime as LeafRuntime<ShapeApp>>::on_node_join(&mut rt, 0, at);
        let (didx, t) = run(&mut rt, jobs[1], at, &mut report);
        let device = rt.nodes[0].devices[didx].sim.level_name.clone();
        assert_eq!(t, cold(&device, 2.0, jobs[1]));
    }
}
