//! Cashmere's per-node device load balancer: the bookkeeping a placement
//! reads, plus the placement decision itself — one `match` over the
//! configured [`Policy`] (the placement half of the policy arena).
//!
//! The paper's two-phase algorithm (Sec. III-B) is the default policy:
//!
//! "Initially, Cashmere uses a heuristic based on a static table of relative
//! many-core device speeds to schedule the first jobs. […] When these jobs
//! have completed, we know the execution time for each kernel for a specific
//! device. Based on this time Cashmere submits the jobs to the different
//! queues for each device trying to minimize the overall execution time for
//! all jobs."
//!
//! The worked example from the paper is reproduced verbatim in the tests:
//! a K20 queue holding 3×100 ms and a GTX480 queue holding 1×125 ms receive
//! a new job; `scenario1 = max(4·100, 1·125)`, `scenario2 = max(3·100,
//! 2·125)`, and since `scenario2` is smaller the job goes to the GTX480.
//!
//! [`Balancer`] owns everything a decision reads — the static speed table,
//! per-device queue depths, retired devices and measured kernel times —
//! and the little state the stateful policies keep: the `round-robin`
//! cursor and the `dynamic-chunk` grant. A placement picks a *device
//! within one node*; it is a deterministic function of that state and
//! draws no randomness. A new contender is one more [`Policy`] variant and
//! one more arm in [`Balancer::choose_among`].

use cashmere_des::SimTime;
use serde::{Content, DeError, Deserialize, Serialize};

/// Device-selection policy. [`Policy::Scenario`] is the paper's algorithm;
/// the others are arena contenders and ablation baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Sec. III-B: minimize the scenario makespan over per-device time
    /// estimates (static table until measured).
    #[default]
    Scenario,
    /// Ignore speeds entirely: rotate over the devices, skipping retired
    /// and excluded ones.
    RoundRobin,
    /// Greedy: always the device with the best time estimate, ignoring
    /// queue depths.
    FastestOnly,
    /// HEFT-style lookahead: minimize this job's estimated finish time
    /// `(queued_d + 1) · t_d` over the outstanding estimates. Unlike the
    /// scenario rule it ignores the *other* queues, so a long queue
    /// elsewhere never masks the local choice.
    Heft,
    /// EngineCL-style dynamic chunking: the device with the least
    /// outstanding backlog claims a run ("chunk") of consecutive jobs,
    /// `round(4 · t_min / t_d)` long (1 to 16), so fast devices get long
    /// runs and slow devices short ones. A completion on the chunk's
    /// device ends the chunk early, so lengths follow the estimates as
    /// they migrate from the static table to measured times.
    DynamicChunk,
    /// Ablation baseline: the scenario rule on the static-table
    /// reciprocals — the paper's first phase made permanent, never
    /// switching to measured times.
    StaticTable,
}

// Hand-written so the JSON form is the stable kebab-case CLI name
// (`scenario`, `round-robin`, `fastest-only`, …, with aliases like
// `greedy` accepted and normalized on load).
impl Serialize for Policy {
    fn to_content(&self) -> Content {
        Content::Str(self.name().to_string())
    }
}

impl Deserialize for Policy {
    fn from_content(content: &Content) -> Result<Policy, DeError> {
        match content.as_str() {
            Some(s) => Policy::parse(s).ok_or_else(|| DeError::unknown_variant(s, "Policy")),
            None => Err(DeError::expected("string", "Policy", content)),
        }
    }
}

impl Policy {
    pub const ALL: [Policy; 6] = [
        Policy::Scenario,
        Policy::RoundRobin,
        Policy::FastestOnly,
        Policy::Heft,
        Policy::DynamicChunk,
        Policy::StaticTable,
    ];

    /// Stable CLI/JSON name (`scenario`, `round-robin`, `fastest-only`,
    /// `heft`, `dynamic-chunk`, `static-table`).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Scenario => "scenario",
            Policy::RoundRobin => "round-robin",
            Policy::FastestOnly => "fastest-only",
            Policy::Heft => "heft",
            Policy::DynamicChunk => "dynamic-chunk",
            Policy::StaticTable => "static-table",
        }
    }

    /// Parse a policy name. Aliases (`greedy`, `heft-lookahead`, …) are
    /// normalized: the parsed value round-trips through [`Policy::name`]
    /// as the canonical spelling.
    pub fn parse(s: &str) -> Option<Policy> {
        match s.to_ascii_lowercase().as_str() {
            "scenario" => Some(Policy::Scenario),
            "round-robin" | "roundrobin" => Some(Policy::RoundRobin),
            "fastest-only" | "fastestonly" | "greedy" => Some(Policy::FastestOnly),
            "heft" | "heft-lookahead" => Some(Policy::Heft),
            "dynamic-chunk" | "dynamicchunk" | "chunk" => Some(Policy::DynamicChunk),
            "static-table" | "statictable" => Some(Policy::StaticTable),
            _ => None,
        }
    }
}

/// Self-description of the policy instance that made a placement decision:
/// canonical name plus the instance's tuning parameters. Recorded in every
/// audit-log entry so tournament artifacts are self-describing.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDesc {
    pub name: String,
    /// Tuning parameters, in a stable declared order (empty for the
    /// parameterless policies).
    pub params: Vec<(String, f64)>,
}

impl PolicyDesc {
    pub fn named(name: &str) -> PolicyDesc {
        PolicyDesc {
            name: name.to_string(),
            params: Vec::new(),
        }
    }
}

impl Default for PolicyDesc {
    fn default() -> PolicyDesc {
        PolicyDesc::named(Policy::Scenario.name())
    }
}

impl Serialize for PolicyDesc {
    fn to_content(&self) -> Content {
        let params = self
            .params
            .iter()
            .map(|(k, v)| (Content::Str(k.clone()), Content::F64(*v)))
            .collect();
        Content::Map(vec![
            (
                Content::Str("name".to_string()),
                Content::Str(self.name.clone()),
            ),
            (Content::Str("params".to_string()), Content::Map(params)),
        ])
    }
}

impl Deserialize for PolicyDesc {
    fn from_content(content: &Content) -> Result<PolicyDesc, DeError> {
        // Legacy audit logs stored the bare policy name; normalize known
        // aliases through `Policy::parse` and keep unknown names verbatim.
        if let Some(s) = content.as_str() {
            let name = Policy::parse(s).map_or_else(|| s.to_string(), |p| p.name().to_string());
            return Ok(PolicyDesc::named(&name));
        }
        let Some(m) = content.as_map() else {
            return Err(DeError::expected("string or map", "PolicyDesc", content));
        };
        let mut name = None;
        let mut params = Vec::new();
        for (k, v) in m {
            match k.as_str() {
                Some("name") => {
                    name = Some(
                        v.as_str()
                            .ok_or_else(|| DeError::expected("string", "PolicyDesc.name", v))?
                            .to_string(),
                    )
                }
                Some("params") => {
                    let pm = v
                        .as_map()
                        .ok_or_else(|| DeError::expected("map", "PolicyDesc.params", v))?;
                    for (pk, pv) in pm {
                        let pk = pk.as_str().ok_or_else(|| {
                            DeError::expected("string key", "PolicyDesc.params", pk)
                        })?;
                        params.push((pk.to_string(), f64::from_content(pv)?));
                    }
                }
                Some(other) => {
                    return Err(DeError::custom(format!(
                        "unknown PolicyDesc field `{other}`"
                    )))
                }
                None => return Err(DeError::expected("string key", "PolicyDesc", k)),
            }
        }
        let name = name.ok_or_else(|| DeError::missing_field("name", "PolicyDesc"))?;
        Ok(PolicyDesc { name, params })
    }
}

/// One device's candidacy for a kernel call, as seen by the balancer at
/// decision time. Rows of the audit log's candidate tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceEstimate {
    pub device: usize,
    /// Jobs queued or running on the device when the choice was made.
    pub queued: usize,
    /// Per-job time estimate in seconds (measured, extrapolated from a
    /// measured reference, or the static-table reciprocal).
    pub estimate_s: f64,
    /// Whether the estimate comes from a measured execution of this kernel
    /// on this device (the paper's second phase) rather than the static
    /// speed table.
    pub measured: bool,
    pub dead: bool,
    /// Whether the device has an applicable kernel version.
    pub allowed: bool,
    /// Scenario makespan `max_e (queued_e + [e==d])·t_e` if the job were
    /// sent here; `None` when the device is not a candidate.
    pub scenario_s: Option<f64>,
}

/// Most devices one node's balancer can hold: a decision keeps its
/// per-device times in a stack array of this length.
pub const MAX_DEVICES: usize = 64;

/// Per-device times of one decision; entries past the device count unused.
type Times = [f64; MAX_DEVICES];

/// `dynamic-chunk`: chunk length granted to a device at relative speed 1.0.
const CHUNK_BASE: usize = 4;
/// `dynamic-chunk`: cap on any single chunk.
const CHUNK_MAX: usize = 16;

/// The per-node balancer: static speed table seeding + measured kernel
/// times per device, deciding by the configured [`Policy`].
#[derive(Debug, Clone)]
pub struct Balancer {
    speeds: Vec<f64>,
    queued: Vec<usize>,
    /// Devices permanently retired (failed); never chosen again.
    dead: Vec<bool>,
    /// Measured execution time per kernel: one slot per device, rows in
    /// first-completion order. A node runs a few kernels, so rows are
    /// found by comparing names.
    measured: Vec<(String, Vec<Option<SimTime>>)>,
    policy: Policy,
    /// `round-robin`: the device the rotation tries next.
    rr_next: usize,
    /// `dynamic-chunk`: the device consuming the current chunk, and how
    /// many jobs remain in it.
    chunk_device: Option<usize>,
    chunk_left: usize,
}

impl Balancer {
    /// Build from the devices' static relative speeds, with the paper's
    /// scenario policy.
    pub fn new(relative_speeds: &[f64]) -> Balancer {
        assert!(!relative_speeds.is_empty(), "a node needs ≥1 device");
        assert!(
            relative_speeds.len() <= MAX_DEVICES,
            "a node holds at most {MAX_DEVICES} devices"
        );
        Balancer {
            speeds: relative_speeds.to_vec(),
            queued: vec![0; relative_speeds.len()],
            dead: vec![false; relative_speeds.len()],
            measured: Vec::new(),
            policy: Policy::Scenario,
            rr_next: 0,
            chunk_device: None,
            chunk_left: 0,
        }
    }

    /// Switch to `kind`, starting from fresh policy state.
    pub fn set_policy(&mut self, kind: Policy) {
        self.policy = kind;
        self.rr_next = 0;
        self.chunk_device = None;
        self.chunk_left = 0;
    }

    /// Restart the balancer as a rebooted node's runtime process would:
    /// queues, measured kernel times and policy state are cleared (the
    /// process re-measures), while the static speed table, the retired
    /// devices and the policy itself are facts about the node and stay.
    pub fn reset(&mut self) {
        self.queued.fill(0);
        self.measured.clear();
        self.set_policy(self.policy);
    }

    /// The active policy.
    pub fn policy_kind(&self) -> Policy {
        self.policy
    }

    /// Name + parameters of the active policy, for the audit log.
    pub fn describe_policy(&self) -> PolicyDesc {
        let mut desc = PolicyDesc::named(self.policy.name());
        if self.policy == Policy::DynamicChunk {
            desc.params = vec![
                ("base".to_string(), CHUNK_BASE as f64),
                ("max".to_string(), CHUNK_MAX as f64),
            ];
        }
        desc
    }

    /// Permanently retire a failed device: it is never chosen again, its
    /// queue no longer contributes to scenario makespans, and its
    /// measurements are dropped (they must not seed extrapolation for the
    /// survivors).
    pub fn retire_device(&mut self, device: usize) {
        self.dead[device] = true;
        self.queued[device] = 0;
        for (_, row) in &mut self.measured {
            row[device] = None;
        }
    }

    /// Is `device` retired?
    pub fn is_retired(&self, device: usize) -> bool {
        self.dead[device]
    }

    /// Are any devices still usable?
    pub fn any_alive(&self) -> bool {
        self.dead.iter().any(|d| !d)
    }

    pub fn device_count(&self) -> usize {
        self.speeds.len()
    }

    /// The static relative-speed table entry of `device`.
    pub fn speed(&self, device: usize) -> f64 {
        self.speeds[device]
    }

    /// Scale the static relative-speed table entry of `device` by `factor`
    /// (advisor what-if: perturb the balancer's *belief* about a device
    /// without touching the device itself). Affects first-phase placement
    /// and the extrapolation ratio for unmeasured devices; measured kernel
    /// times still win, exactly as a miscalibrated seed table would behave.
    pub fn scale_speed(&mut self, device: usize, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "bad table factor");
        self.speeds[device] *= factor;
    }

    pub fn queued(&self, device: usize) -> usize {
        self.queued[device]
    }

    /// Record that a job was submitted to `device`.
    pub fn on_submit(&mut self, device: usize) {
        self.queued[device] += 1;
    }

    /// Record that a job completed on `device` with the given kernel time —
    /// from now on the balancer knows this kernel's speed on this device.
    pub fn on_complete(&mut self, kernel: &str, device: usize, time: SimTime) {
        debug_assert!(self.queued[device] > 0);
        self.queued[device] -= 1;
        match self.measured.iter_mut().find(|(k, _)| k == kernel) {
            Some((_, row)) => row[device] = Some(time),
            None => {
                let mut row = vec![None; self.speeds.len()];
                row[device] = Some(time);
                self.measured.push((kernel.to_string(), row));
            }
        }
        // `dynamic-chunk`: fresh measurements may have landed, so end the
        // completing device's chunk early and let the next decision
        // re-read the estimates instead of riding a stale grant.
        if self.chunk_device == Some(device) {
            self.chunk_left = 0;
        }
    }

    /// Has any device measured this kernel yet?
    pub fn has_measurement(&self, kernel: &str) -> bool {
        self.row(kernel)
            .is_some_and(|row| row.iter().any(Option::is_some))
    }

    /// The measured-times row of `kernel`, if any device completed it.
    fn row(&self, kernel: &str) -> Option<&[Option<SimTime>]> {
        self.measured
            .iter()
            .find(|(k, _)| k == kernel)
            .map(|(_, row)| row.as_slice())
    }

    /// Per-device time estimate for `kernel`, in seconds. Measured times
    /// win; unmeasured devices are extrapolated from the lowest-index
    /// measured one via the static speed ratio; with no measurements at
    /// all, times are the pure reciprocal of the static speeds (arbitrary
    /// unit — only ratios matter for the choice).
    pub fn estimates(&self, kernel: &str) -> Vec<f64> {
        self.estimate_times(kernel)[..self.speeds.len()].to_vec()
    }

    /// [`Balancer::estimates`] without allocating.
    fn estimate_times(&self, kernel: &str) -> Times {
        let row = self.row(kernel);
        let measured = |d: usize| row.and_then(|r| r[d]).map(SimTime::as_secs_f64);
        let reference = (0..self.speeds.len()).find_map(|d| measured(d).map(|t| (d, t)));
        let mut times = [0.0; MAX_DEVICES];
        for (d, t) in times[..self.speeds.len()].iter_mut().enumerate() {
            *t = match (measured(d), reference) {
                (Some(t), _) => t,
                (None, Some((rd, rt))) => rt * self.speeds[rd] / self.speeds[d],
                (None, None) => 1.0 / self.speeds[d],
            };
        }
        times
    }

    /// The per-device times the scenario rule and the audit table read:
    /// for `static-table`, which never learns, the static reciprocals (the
    /// first-phase times); [`Balancer::estimates`] for every other policy.
    fn policy_times(&self, kernel: &str) -> Times {
        if self.policy == Policy::StaticTable {
            let mut times = [0.0; MAX_DEVICES];
            for (t, s) in times.iter_mut().zip(&self.speeds) {
                *t = 1.0 / s;
            }
            times
        } else {
            self.estimate_times(kernel)
        }
    }

    fn is_candidate(&self, allowed: &[bool], d: usize) -> bool {
        allowed[d] && !self.dead[d]
    }

    /// The Sec. III-B scenario makespan `max_e (queued_e + [e == d]) · t_e`
    /// over live devices, if the next job went to `d`.
    fn scenario_s(&self, times: &Times, d: usize) -> f64 {
        let mut scenario: f64 = 0.0;
        for (e, t) in times[..self.speeds.len()].iter().enumerate() {
            if !self.dead[e] {
                let q = self.queued[e] + usize::from(e == d);
                scenario = scenario.max(q as f64 * t);
            }
        }
        scenario
    }

    /// The candidate minimizing `cost`; ties break toward the lower index.
    fn argmin(&self, allowed: &[bool], cost: impl Fn(usize) -> f64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for d in (0..self.speeds.len()).filter(|&d| self.is_candidate(allowed, d)) {
            let c = cost(d);
            match best {
                Some((_, v)) if v <= c => {}
                _ => best = Some((d, c)),
            }
        }
        best.map(|(d, _)| d)
    }

    /// Choose the device for the next job of `kernel` by the active policy,
    /// among live devices where `allowed` holds (devices without an
    /// applicable kernel version are excluded). Returns `None` when no
    /// device qualifies. Ties break toward the lower device index.
    pub fn choose_among(&mut self, kernel: &str, allowed: &[bool]) -> Option<usize> {
        assert_eq!(allowed.len(), self.speeds.len());
        match self.policy {
            Policy::Scenario | Policy::StaticTable => {
                let times = self.policy_times(kernel);
                self.argmin(allowed, |d| self.scenario_s(&times, d))
            }
            Policy::RoundRobin => {
                let n = self.speeds.len();
                let d = (0..n)
                    .map(|k| (self.rr_next + k) % n)
                    .find(|&d| self.is_candidate(allowed, d))?;
                self.rr_next = (d + 1) % n;
                Some(d)
            }
            Policy::FastestOnly => {
                let times = self.estimate_times(kernel);
                self.argmin(allowed, |d| times[d])
            }
            Policy::Heft => {
                let times = self.estimate_times(kernel);
                self.argmin(allowed, |d| (self.queued[d] + 1) as f64 * times[d])
            }
            Policy::DynamicChunk => {
                if let Some(c) = self.chunk_device {
                    if self.chunk_left > 0 && self.is_candidate(allowed, c) {
                        self.chunk_left -= 1;
                        return Some(c);
                    }
                }
                // Start a new chunk: least outstanding backlog wins, sized
                // by the winner's speed relative to the fastest candidate.
                let times = self.estimate_times(kernel);
                let d = self.argmin(allowed, |d| self.queued[d] as f64 * times[d])?;
                let t_min = (0..self.speeds.len())
                    .filter(|&e| self.is_candidate(allowed, e))
                    .map(|e| times[e])
                    .fold(f64::INFINITY, f64::min);
                let ratio = if times[d] > 0.0 {
                    t_min / times[d]
                } else {
                    1.0
                };
                let chunk = ((CHUNK_BASE as f64 * ratio).round() as usize).clamp(1, CHUNK_MAX);
                self.chunk_device = Some(d);
                self.chunk_left = chunk - 1;
                Some(d)
            }
        }
    }

    /// Explain a decision for the audit log: the candidate table (one row
    /// per device, including excluded ones) over the times the active
    /// policy reads — the static reciprocals, never flagged as measured,
    /// for `static-table`; the estimates for every other policy.
    /// `scenario_s` is the Sec. III-B makespan over those times, so under
    /// `scenario` and `static-table` the row with the smallest `scenario_s`
    /// (lowest index on ties) is the device [`Balancer::choose_among`]
    /// picks.
    pub fn explain(&self, kernel: &str, allowed: &[bool]) -> Vec<DeviceEstimate> {
        assert_eq!(allowed.len(), self.speeds.len());
        let times = self.policy_times(kernel);
        let row = self
            .row(kernel)
            .filter(|_| self.policy != Policy::StaticTable);
        (0..self.speeds.len())
            .map(|d| DeviceEstimate {
                device: d,
                queued: self.queued[d],
                estimate_s: times[d],
                measured: row.is_some_and(|r| r[d].is_some()),
                dead: self.dead[d],
                allowed: allowed[d],
                scenario_s: self
                    .is_candidate(allowed, d)
                    .then(|| self.scenario_s(&times, d)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Choose among all devices and submit there.
    fn submit(b: &mut Balancer, kernel: &str) -> usize {
        let d = b
            .choose_among(kernel, &vec![true; b.device_count()])
            .expect("a live device");
        b.on_submit(d);
        d
    }

    /// The verbatim example from Sec. III-B.
    #[test]
    fn paper_example_k20_vs_gtx480() {
        // Devices: 0 = K20 (speed 40), 1 = GTX480 (speed 20).
        let mut b = Balancer::new(&[40.0, 20.0]);
        // Make both devices measured: K20 jobs take 100 ms, GTX480 125 ms.
        b.on_submit(0);
        b.on_complete("k", 0, ms(100));
        b.on_submit(1);
        b.on_complete("k", 1, ms(125));
        // Queue state from the example: K20 has 3 jobs, GTX480 has 1.
        for _ in 0..3 {
            b.on_submit(0);
        }
        b.on_submit(1);
        // scenario1 = max(4·100, 1·125) = 400; scenario2 = max(3·100, 2·125)
        // = 300 ⇒ GTX480 wins.
        assert_eq!(
            b.choose_among("k", &[true, true]),
            Some(1),
            "the paper's example submits to the GTX480"
        );
    }

    #[test]
    fn static_speeds_seed_the_first_jobs() {
        // Unmeasured: estimates are 1/speed, so the faster device is chosen
        // first, and queues fill ~proportionally to speed.
        let mut b = Balancer::new(&[40.0, 20.0]);
        let mut counts = [0usize; 2];
        for _ in 0..12 {
            let d = submit(&mut b, "k");
            counts[d] += 1;
        }
        assert_eq!(counts[0] + counts[1], 12);
        // K20 (2× faster) should get about 2× the jobs.
        assert_eq!(counts[0], 8);
        assert_eq!(counts[1], 4);
    }

    #[test]
    fn measured_time_on_one_device_extrapolates_to_others() {
        let mut b = Balancer::new(&[40.0, 10.0]);
        b.on_submit(0);
        b.on_complete("k", 0, ms(50));
        let est = b.estimates("k");
        assert!((est[0] - 0.050).abs() < 1e-12);
        // 4× slower by the static table ⇒ 200 ms.
        assert!((est[1] - 0.200).abs() < 1e-12);
    }

    #[test]
    fn slow_device_skipped_when_it_would_lengthen_the_run() {
        // One fast device (t=10ms) and one very slow (t=1000ms): for a
        // handful of jobs everything goes to the fast device.
        let mut b = Balancer::new(&[100.0, 1.0]);
        b.on_submit(0);
        b.on_complete("k", 0, ms(10));
        b.on_submit(1);
        b.on_complete("k", 1, ms(1000));
        let mut counts = [0usize; 2];
        for _ in 0..20 {
            counts[submit(&mut b, "k")] += 1;
        }
        assert_eq!(counts[1], 0, "slow device would dominate the makespan");
        assert_eq!(counts[0], 20);
    }

    #[test]
    fn slow_device_used_when_queues_grow_long_enough() {
        // Phi-vs-K20 situation from the Gantt discussion (Fig. 16): with 8
        // jobs per set and a 4× slower Phi, the best split is 7 / 1.
        let mut b = Balancer::new(&[40.0, 10.0]);
        b.on_submit(0);
        b.on_complete("kmeans", 0, ms(100));
        b.on_submit(1);
        b.on_complete("kmeans", 1, ms(400));
        let mut counts = [0usize; 2];
        for _ in 0..8 {
            counts[submit(&mut b, "kmeans")] += 1;
        }
        assert_eq!(counts, [7, 1], "paper: 7 on the K20, 1 on the Xeon Phi");
    }

    #[test]
    fn per_kernel_measurements_are_independent() {
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.on_submit(0);
        b.on_complete("fast_kernel", 0, ms(1));
        assert!(b.has_measurement("fast_kernel"));
        assert!(!b.has_measurement("other_kernel"));
        // `other_kernel` still uses the static table.
        let est = b.estimates("other_kernel");
        assert!((est[0] - 1.0 / 40.0).abs() < 1e-12);
        assert!((est[1] - 1.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "≥1 device")]
    fn empty_device_list_rejected() {
        let _ = Balancer::new(&[]);
    }

    #[test]
    fn scaled_table_entry_shifts_first_phase_placement() {
        // Unmeasured phase: doubling a device's table entry doubles its
        // share of the seeded jobs (8/4 → 10/2 for speeds 80 vs 20).
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.scale_speed(0, 2.0);
        assert_eq!(b.speed(0), 80.0);
        let mut counts = [0usize; 2];
        for _ in 0..12 {
            counts[submit(&mut b, "k")] += 1;
        }
        assert_eq!(counts, [10, 2]);
        // Once measured, real times win over the (mis)scaled table.
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.scale_speed(1, 100.0);
        b.on_submit(0);
        b.on_complete("k", 0, ms(10));
        b.on_submit(1);
        b.on_complete("k", 1, ms(1000));
        let mut counts = [0usize; 2];
        for _ in 0..20 {
            counts[submit(&mut b, "k")] += 1;
        }
        assert_eq!(counts[1], 0, "measured 1000ms beats a flattering table");
    }

    #[test]
    fn retired_devices_are_never_chosen() {
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.on_submit(0);
        b.on_complete("k", 0, ms(100));
        // A long queue on the dead device must not distort scenarios either.
        for _ in 0..5 {
            b.on_submit(0);
        }
        b.retire_device(0);
        assert!(b.is_retired(0));
        assert!(b.any_alive());
        // Its measurement is gone, so the survivor falls back to the static
        // table rather than extrapolating from a dead device.
        assert!(!b.has_measurement("k"));
        for _ in 0..4 {
            assert_eq!(b.choose_among("k", &[true, true]), Some(1));
            b.on_submit(1);
        }
        b.retire_device(1);
        assert!(!b.any_alive());
        assert_eq!(b.choose_among("k", &[true, true]), None);
    }

    #[test]
    fn explain_reproduces_the_paper_scenarios() {
        // Same setup as `paper_example_k20_vs_gtx480`.
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.on_submit(0);
        b.on_complete("k", 0, ms(100));
        b.on_submit(1);
        b.on_complete("k", 1, ms(125));
        for _ in 0..3 {
            b.on_submit(0);
        }
        b.on_submit(1);
        let rows = b.explain("k", &[true, true]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].measured && rows[1].measured);
        assert_eq!(rows[0].queued, 3);
        assert_eq!(rows[1].queued, 1);
        // scenario1 = max(4·100, 1·125) = 400 ms; scenario2 = 300 ms.
        assert!((rows[0].scenario_s.unwrap() - 0.400).abs() < 1e-12);
        assert!((rows[1].scenario_s.unwrap() - 0.300).abs() < 1e-12);
        // The row with the smallest scenario is what choose_among picks.
        assert_eq!(b.choose_among("k", &[true, true]), Some(1));
        // Excluded devices keep their estimate but get no scenario.
        let rows = b.explain("k", &[true, false]);
        assert!(rows[0].scenario_s.is_some());
        assert!(rows[1].scenario_s.is_none());
        assert!(!rows[1].allowed);
    }

    #[test]
    fn round_robin_policy_rotates() {
        let mut b = Balancer::new(&[40.0, 10.0, 20.0]);
        b.set_policy(Policy::RoundRobin);
        let picks: Vec<usize> = (0..6)
            .map(|_| b.choose_among("k", &[true, true, true]).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // disallowed devices are skipped
        let p = b.choose_among("k", &[false, true, false]).unwrap();
        assert_eq!(p, 1);
    }

    #[test]
    fn fastest_only_policy_ignores_queues() {
        let mut b = Balancer::new(&[40.0, 10.0]);
        b.set_policy(Policy::FastestOnly);
        for _ in 0..10 {
            let d = b.choose_among("k", &[true, true]).unwrap();
            assert_eq!(d, 0, "greedy always picks the fastest");
            b.on_submit(d);
        }
        // and respects the allowed mask
        assert_eq!(b.choose_among("k", &[false, true]), Some(1));
    }

    #[test]
    fn heft_minimizes_local_finish_time() {
        // Measured: device 0 takes 100 ms, device 1 takes 150 ms.
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.set_policy(Policy::Heft);
        b.on_submit(0);
        b.on_complete("k", 0, ms(100));
        b.on_submit(1);
        b.on_complete("k", 1, ms(150));
        // Empty queues: finish(0) = 100 < finish(1) = 150.
        assert_eq!(b.choose_among("k", &[true, true]), Some(0));
        // Load device 0 with 2 jobs: finish(0) = 3·100 = 300 > finish(1)
        // = 1·150.
        b.on_submit(0);
        b.on_submit(0);
        assert_eq!(b.choose_among("k", &[true, true]), Some(1));
        // Unlike the scenario rule, a huge queue elsewhere is invisible:
        // with 9 more jobs on device 0, HEFT still compares only the
        // candidates' own finish times.
        for _ in 0..9 {
            b.on_submit(0);
        }
        assert_eq!(b.choose_among("k", &[true, true]), Some(1));
    }

    #[test]
    fn dynamic_chunk_grants_runs_sized_by_speed() {
        // Static phase, speeds 40 vs 10: the fast device opens with a
        // full base-length chunk (4 jobs) before the policy reconsiders.
        let mut b = Balancer::new(&[40.0, 10.0]);
        b.set_policy(Policy::DynamicChunk);
        let mut picks = Vec::new();
        for _ in 0..5 {
            let d = b.choose_among("k", &[true, true]).unwrap();
            b.on_submit(d);
            picks.push(d);
        }
        assert_eq!(picks, vec![0, 0, 0, 0, 1], "4-chunk on fast, then slow");
        // The slow device's chunk is scaled down by its 4× slower
        // estimate: round(4 · ¼) = 1 job only.
        let d = b.choose_among("k", &[true, true]).unwrap();
        b.on_submit(d);
        assert_eq!(d, 0, "slow chunk was a single job; back to the fast one");
    }

    #[test]
    fn dynamic_chunk_reconsiders_on_completion() {
        let mut b = Balancer::new(&[40.0, 40.0]);
        b.set_policy(Policy::DynamicChunk);
        // Open a chunk on device 0.
        assert_eq!(b.choose_among("k", &[true, true]), Some(0));
        b.on_submit(0);
        // A completion lands: the chunk ends early and the next decision
        // re-reads the (now measured) estimates.
        b.on_complete("k", 0, ms(500));
        b.on_submit(0);
        // Device 0 measured slow (500 ms), device 1 extrapolates to the
        // same 500 ms but has no backlog → least backlog wins.
        assert_eq!(b.choose_among("k", &[true, true]), Some(1));
    }

    #[test]
    fn static_table_never_learns() {
        // Measured times say device 1 is far faster, but the static table
        // says device 0: the baseline keeps trusting the table.
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.set_policy(Policy::StaticTable);
        b.on_submit(0);
        b.on_complete("k", 0, ms(1000));
        b.on_submit(1);
        b.on_complete("k", 1, ms(10));
        let mut counts = [0usize; 2];
        for _ in 0..12 {
            let d = b.choose_among("k", &[true, true]).unwrap();
            b.on_submit(d);
            counts[d] += 1;
        }
        assert_eq!(counts, [8, 4], "8/4 split exactly as in the static phase");
        // Its audit rows show the static reciprocals, never `measured`.
        let rows = b.explain("k", &[true, true]);
        assert!(rows.iter().all(|r| !r.measured));
        assert!((rows[0].estimate_s - 1.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn policy_parse_normalizes_aliases() {
        // Satellite: every alias round-trips to one canonical name.
        for (alias, canonical) in [
            ("greedy", "fastest-only"),
            ("fastestonly", "fastest-only"),
            ("roundrobin", "round-robin"),
            ("heft-lookahead", "heft"),
            ("chunk", "dynamic-chunk"),
            ("statictable", "static-table"),
            ("SCENARIO", "scenario"),
        ] {
            let p = Policy::parse(alias).unwrap_or_else(|| panic!("alias {alias} must parse"));
            assert_eq!(p.name(), canonical, "alias {alias}");
            assert_eq!(Policy::parse(p.name()), Some(p), "name is a fixed point");
        }
        assert!(Policy::parse("nonsense").is_none());
        for p in Policy::ALL {
            assert_eq!(Policy::parse(p.name()), Some(p));
        }
    }

    #[test]
    fn policy_desc_serde_accepts_legacy_strings() {
        // Structured form round-trips.
        let d = PolicyDesc {
            name: "dynamic-chunk".to_string(),
            params: vec![("base".to_string(), 4.0), ("max".to_string(), 16.0)],
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: PolicyDesc = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        // Legacy audit logs stored the bare (possibly aliased) name.
        let legacy: PolicyDesc = serde_json::from_str("\"greedy\"").unwrap();
        assert_eq!(legacy.name, "fastest-only", "aliases normalize on load");
        assert!(legacy.params.is_empty());
        // Unknown fields are rejected.
        assert!(serde_json::from_str::<PolicyDesc>("{\"name\":\"x\",\"bogus\":1}").is_err());
    }

    #[test]
    fn every_policy_decides_deterministically() {
        // Same history ⇒ same decisions, for every built-in policy: run
        // the identical submit/complete script twice and compare picks.
        let script = |kind: Policy| {
            let mut b = Balancer::new(&[40.0, 10.0, 20.0]);
            b.set_policy(kind);
            let mut picks = Vec::new();
            for i in 0..24 {
                let d = b.choose_among("k", &[true, true, true]).unwrap();
                b.on_submit(d);
                picks.push(d);
                if i % 5 == 4 {
                    b.on_complete("k", d, ms(10 + 7 * (i as u64 % 3)));
                }
            }
            picks
        };
        // Literal picks: any decision drift fails here, not only in the
        // committed tournament artifact.
        let expected: [(Policy, [usize; 24]); 6] = [
            (
                Policy::Scenario,
                [
                    0, 0, 2, 0, 0, 0, 1, 2, 0, 0, 0, 2, 0, 0, 1, 1, 1, 2, 0, 1, 1, 1, 0, 2,
                ],
            ),
            (
                Policy::RoundRobin,
                [
                    0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2,
                ],
            ),
            (Policy::FastestOnly, [0; 24]),
            (
                Policy::Heft,
                [
                    0, 0, 2, 0, 0, 0, 1, 2, 0, 0, 0, 2, 0, 0, 1, 1, 1, 2, 0, 1, 1, 1, 0, 2,
                ],
            ),
            (
                Policy::DynamicChunk,
                [
                    0, 0, 0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                ],
            ),
            (
                Policy::StaticTable,
                [
                    0, 0, 2, 0, 0, 0, 1, 2, 0, 0, 0, 2, 0, 0, 1, 1, 2, 0, 0, 2, 2, 0, 0, 1,
                ],
            ),
        ];
        for (kind, picks) in expected {
            assert_eq!(script(kind), picks, "{} picks drifted", kind.name());
        }
        let mut chunk = Balancer::new(&[1.0]);
        chunk.set_policy(Policy::DynamicChunk);
        assert_eq!(
            chunk.describe_policy().params,
            vec![("base".to_string(), 4.0), ("max".to_string(), 16.0)]
        );
        for kind in Policy::ALL {
            assert_eq!(script(kind), script(kind), "{} must be pure", kind.name());
            assert_eq!(Balancer::new(&[1.0]).describe_policy().name, "scenario");
            let mut b = Balancer::new(&[1.0, 2.0]);
            b.set_policy(kind);
            assert_eq!(b.policy_kind(), kind);
            assert_eq!(b.describe_policy().name, kind.name());
        }
    }
}
