//! Declarative fault plans and their deterministic injector.
//!
//! The paper's systems survive real failures: Satin "recovers from nodes
//! that are no longer responding" (Sec. II-A) and Cashmere degrades to the
//! `leafCPU` fallback when a device cannot run a kernel (Sec. II-C). To
//! exercise those paths reproducibly, a [`FaultPlan`] describes *what goes
//! wrong and when* — node crashes, permanent device deaths, transient
//! kernel-launch faults, lossy or degraded links — and a [`FaultInjector`]
//! turns the plan into per-event decisions.
//!
//! Two invariants keep the simulation deterministic:
//!
//! * Randomness comes from named [`StreamRng`] streams derived from the
//!   master seed, so the same `(plan, seed)` pair replays byte-for-byte.
//! * The injector draws from a stream **only when an active fault window
//!   matches the query**. An empty plan therefore consumes no randomness at
//!   all, and a run with an empty plan is byte-identical to a run without
//!   one.
//!
//! Plans are serde-serializable, so a scenario can be stored as JSON (the
//! bench `--faults <plan.json>` flag) and replayed exactly.

use crate::rng::StreamRng;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A whole node stops responding at `at` (absolute virtual time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct NodeCrash {
    pub node: usize,
    pub at: SimTime,
}

/// A node (re)joins the cluster at `at` (absolute virtual time). If the
/// node's first plan event is a join it starts the run offline (a fresh
/// join of a node the cluster knows about but that is not up yet);
/// otherwise the join must follow a crash (a rejoin). A rejoined node comes
/// back empty — no jobs, no steal state — and re-enters steal victim sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct NodeJoin {
    pub node: usize,
    pub at: SimTime,
}

/// One device on a node dies permanently at `at`: in-flight timeline
/// segments abort, resident buffers drain, and the device never comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DeviceFailure {
    pub node: usize,
    pub device: usize,
    pub at: SimTime,
}

/// Transient kernel-launch faults: inside `[from, until)` every launch on
/// the matching device fails with `probability` (and is retried by the
/// runtime up to its budget). `device: None` matches every device of the
/// node; `node: None` matches every node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LaunchFaultWindow {
    pub node: Option<usize>,
    pub device: Option<usize>,
    pub from: SimTime,
    pub until: SimTime,
    pub probability: f64,
}

/// A degraded link: inside `[from, until)` messages from `src` to `dst`
/// (`None` = any node) are dropped with probability `loss`, and delivered
/// messages suffer an extra `spike` of latency with probability
/// `spike_probability`. The window end is required and must be finite so
/// retransmit loops are guaranteed to terminate once the window closes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LinkFault {
    pub src: Option<usize>,
    pub dst: Option<usize>,
    pub from: SimTime,
    pub until: SimTime,
    pub loss: f64,
    pub spike: SimTime,
    pub spike_probability: f64,
}

impl LinkFault {
    fn matches(&self, src: usize, dst: usize, at: SimTime) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && at >= self.from
            && at < self.until
    }
}

/// Everything that goes wrong in one run. Serializable so a scenario can
/// be stored and replayed byte-for-byte. Plan files and scenarios may list
/// only the fault kinds they use (absent arrays are empty), and unknown
/// keys are rejected so a misspelled fault kind fails loudly instead of
/// injecting nothing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct FaultPlan {
    pub node_crashes: Vec<NodeCrash>,
    pub node_joins: Vec<NodeJoin>,
    pub device_failures: Vec<DeviceFailure>,
    pub launch_faults: Vec<LaunchFaultWindow>,
    pub link_faults: Vec<LinkFault>,
}

impl FaultPlan {
    /// A fault-free plan (injector never draws randomness).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.node_crashes.is_empty()
            && self.node_joins.is_empty()
            && self.device_failures.is_empty()
            && self.launch_faults.is_empty()
            && self.link_faults.is_empty()
    }

    /// Nodes whose *first* plan event is a join: they start the run offline
    /// (a fresh join) rather than rejoining after a crash. Assumes the plan
    /// validates.
    pub fn initially_offline(&self, nodes: usize) -> Vec<usize> {
        (1..nodes)
            .filter(|&n| {
                let first_join = self
                    .node_joins
                    .iter()
                    .filter(|j| j.node == n)
                    .map(|j| j.at)
                    .min();
                let first_crash = self
                    .node_crashes
                    .iter()
                    .filter(|c| c.node == n)
                    .map(|c| c.at)
                    .min();
                matches!((first_join, first_crash),
                    (Some(j), Some(c)) if j < c)
                    || (first_join.is_some() && first_crash.is_none())
            })
            .collect()
    }

    /// Check the plan against a cluster of `nodes` nodes. Node 0 is the
    /// master and must not crash; windows must be non-empty; probabilities
    /// must be in `[0, 1]`; each node's crash/join events must strictly
    /// alternate in time (a node cannot crash twice without a join in
    /// between, or join while already up unless it is its first event).
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        for c in &self.node_crashes {
            if c.node == 0 {
                return Err("node 0 (the master) cannot crash".into());
            }
            if c.node >= nodes {
                return Err(format!(
                    "crash of node {} but cluster has {nodes} nodes",
                    c.node
                ));
            }
        }
        for j in &self.node_joins {
            if j.node == 0 {
                return Err("node 0 (the master) cannot leave or join".into());
            }
            if j.node >= nodes {
                return Err(format!(
                    "join of node {} but cluster has {nodes} nodes",
                    j.node
                ));
            }
        }
        // Per-node lifecycle: merge the node's crashes and joins, sort by
        // time, and require strict alternation at distinct times. The first
        // event may be either kind — a leading join means the node starts
        // the run offline.
        for n in 1..nodes {
            let mut events: Vec<(SimTime, bool)> = self
                .node_crashes
                .iter()
                .filter(|c| c.node == n)
                .map(|c| (c.at, true))
                .chain(
                    self.node_joins
                        .iter()
                        .filter(|j| j.node == n)
                        .map(|j| (j.at, false)),
                )
                .collect();
            events.sort_by_key(|&(at, _)| at);
            for w in events.windows(2) {
                let ((t0, crash0), (t1, crash1)) = (w[0], w[1]);
                if t0 == t1 {
                    return Err(format!(
                        "node {n} has two lifecycle events at the same time {t0}"
                    ));
                }
                if crash0 == crash1 {
                    let kind = if crash0 { "crashes" } else { "joins" };
                    return Err(format!(
                        "node {n} has two consecutive {kind} ({t0}, {t1}) — crash and \
                         join events must alternate"
                    ));
                }
            }
        }
        for f in &self.device_failures {
            if f.node >= nodes {
                return Err(format!(
                    "device failure on node {} but cluster has {nodes} nodes",
                    f.node
                ));
            }
        }
        for w in &self.launch_faults {
            if !(0.0..=1.0).contains(&w.probability) {
                return Err(format!(
                    "launch-fault probability {} outside [0, 1]",
                    w.probability
                ));
            }
            if w.until <= w.from {
                return Err(format!(
                    "empty launch-fault window [{}, {})",
                    w.from, w.until
                ));
            }
        }
        for l in &self.link_faults {
            if !(0.0..=1.0).contains(&l.loss) {
                return Err(format!("link loss {} outside [0, 1]", l.loss));
            }
            if !(0.0..=1.0).contains(&l.spike_probability) {
                return Err(format!(
                    "spike probability {} outside [0, 1]",
                    l.spike_probability
                ));
            }
            if l.until <= l.from {
                return Err(format!("empty link-fault window [{}, {})", l.from, l.until));
            }
            if let (Some(s), Some(d)) = (l.src, l.dst) {
                if s == d {
                    return Err(format!("link fault from node {s} to itself"));
                }
            }
            if l.src.is_some_and(|s| s >= nodes) || l.dst.is_some_and(|d| d >= nodes) {
                return Err(format!(
                    "link fault endpoint out of range (cluster has {nodes} nodes)"
                ));
            }
        }
        Ok(())
    }
}

/// What happened to one message on a (possibly faulty) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Delivered after an extra `delay` (zero when no spike applied).
    Delivered { delay: SimTime },
    /// Lost in transit; the sender must time out and recover.
    Dropped,
}

/// Draws per-event fault decisions from a [`FaultPlan`], deterministically.
///
/// Link and launch decisions each have their own named stream, so adding a
/// fault of one kind never perturbs the sequence another kind sees.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    link_rng: StreamRng,
    launch_rng: StreamRng,
    active: bool,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, master_seed: u64) -> FaultInjector {
        let active = !plan.is_empty();
        FaultInjector {
            link_rng: StreamRng::named(master_seed, "fault.link"),
            launch_rng: StreamRng::named(master_seed, "fault.launch"),
            plan,
            active,
        }
    }

    /// An injector that never injects anything.
    pub fn disabled(master_seed: u64) -> FaultInjector {
        FaultInjector::new(FaultPlan::none(), master_seed)
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Does the plan contain any fault at all? Callers may skip arming
    /// recovery machinery (e.g. steal timeouts) when it does not.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Decide the fate of a message sent `src → dst` at time `at`. Draws
    /// randomness only for link-fault windows that match, so fault-free
    /// links (and empty plans) consume none.
    pub fn message_fate(&mut self, src: usize, dst: usize, at: SimTime) -> MessageFate {
        let mut dropped = false;
        let mut delay = SimTime::ZERO;
        for f in &self.plan.link_faults {
            if !f.matches(src, dst, at) {
                continue;
            }
            // Draw for every matching window even once dropped: the number
            // of draws then depends only on (plan, query), never on earlier
            // outcomes, which keeps replays aligned.
            if f.loss > 0.0 && self.link_rng.unit() < f.loss {
                dropped = true;
            }
            if f.spike_probability > 0.0
                && f.spike > SimTime::ZERO
                && self.link_rng.unit() < f.spike_probability
            {
                delay += f.spike;
            }
        }
        if dropped {
            MessageFate::Dropped
        } else {
            MessageFate::Delivered { delay }
        }
    }

    /// The (earliest) time at which `device` on `node` dies permanently,
    /// if the plan kills it. Pure lookup — no randomness.
    pub fn device_death(&self, node: usize, device: usize) -> Option<SimTime> {
        self.plan
            .device_failures
            .iter()
            .filter(|f| f.node == node && f.device == device)
            .map(|f| f.at)
            .min()
    }

    /// Does a kernel launch on `device` of `node` at time `at` fail
    /// transiently? Draws only for matching windows.
    pub fn launch_fault(&mut self, node: usize, device: usize, at: SimTime) -> bool {
        let mut faulted = false;
        for w in &self.plan.launch_faults {
            let m = w.node.is_none_or(|n| n == node)
                && w.device.is_none_or(|d| d == device)
                && at >= w.from
                && at < w.until;
            if m && w.probability > 0.0 && self.launch_rng.unit() < w.probability {
                faulted = true;
            }
        }
        faulted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn lossy_plan() -> FaultPlan {
        FaultPlan {
            node_crashes: vec![NodeCrash { node: 2, at: ms(5) }],
            node_joins: vec![],
            device_failures: vec![DeviceFailure {
                node: 1,
                device: 0,
                at: ms(3),
            }],
            launch_faults: vec![LaunchFaultWindow {
                node: Some(1),
                device: None,
                from: ms(0),
                until: ms(10),
                probability: 0.5,
            }],
            link_faults: vec![LinkFault {
                src: None,
                dst: Some(0),
                from: ms(1),
                until: ms(9),
                loss: 0.5,
                spike: SimTime::from_micros(300),
                spike_probability: 0.25,
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let plan = lossy_plan();
        let json = serde_json::to_string_pretty(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // And the serialized form itself is stable.
        assert_eq!(json, serde_json::to_string_pretty(&back).unwrap());
    }

    #[test]
    fn empty_plan_draws_nothing() {
        let mut inj = FaultInjector::disabled(42);
        assert!(!inj.is_active());
        for i in 0..100 {
            assert_eq!(
                inj.message_fate(i % 3, (i + 1) % 3, ms(i as u64)),
                MessageFate::Delivered {
                    delay: SimTime::ZERO
                }
            );
            assert!(!inj.launch_fault(0, 0, ms(i as u64)));
            assert_eq!(inj.device_death(0, 0), None);
        }
        // The streams were never advanced: a fresh injector's next draw
        // matches this one's.
        let mut fresh = FaultInjector::disabled(42);
        assert_eq!(
            inj.link_rng.unit().to_bits(),
            fresh.link_rng.unit().to_bits()
        );
        assert_eq!(
            inj.launch_rng.unit().to_bits(),
            fresh.launch_rng.unit().to_bits()
        );
    }

    #[test]
    fn same_plan_same_seed_replays_identically() {
        let decisions = |seed: u64| {
            let mut inj = FaultInjector::new(lossy_plan(), seed);
            let mut out = Vec::new();
            for i in 0..200u64 {
                out.push(inj.message_fate(1, 0, ms(i % 12)));
                out.push(if inj.launch_fault(1, 0, ms(i % 12)) {
                    MessageFate::Dropped
                } else {
                    MessageFate::Delivered {
                        delay: SimTime::ZERO,
                    }
                });
            }
            out
        };
        assert_eq!(decisions(7), decisions(7));
        assert_ne!(decisions(7), decisions(8), "seed must matter");
    }

    #[test]
    fn windows_gate_both_loss_and_launch_faults() {
        let mut inj = FaultInjector::new(lossy_plan(), 1);
        // Outside the window or to a non-matching destination: never lost.
        for i in 0..50 {
            assert_eq!(
                inj.message_fate(0, 1, ms(i % 20)),
                MessageFate::Delivered {
                    delay: SimTime::ZERO
                },
                "dst 1 never matches the plan"
            );
            assert_eq!(
                inj.message_fate(1, 0, ms(20)),
                MessageFate::Delivered {
                    delay: SimTime::ZERO
                },
                "window closed at 9ms"
            );
            assert!(
                !inj.launch_fault(0, 0, ms(5)),
                "launch window is node 1 only"
            );
        }
        // Inside the window losses do occur.
        let lost = (0..200)
            .filter(|_| inj.message_fate(1, 0, ms(4)) == MessageFate::Dropped)
            .count();
        assert!(lost > 50, "~50% loss expected, got {lost}/200");
    }

    #[test]
    fn device_death_is_a_pure_lookup() {
        let inj = FaultInjector::new(lossy_plan(), 1);
        assert_eq!(inj.device_death(1, 0), Some(ms(3)));
        assert_eq!(inj.device_death(1, 1), None);
        assert_eq!(inj.device_death(0, 0), None);
    }

    #[test]
    fn validate_catches_bad_plans() {
        let mut p = FaultPlan::none();
        assert!(p.validate(4).is_ok());
        p.node_crashes.push(NodeCrash { node: 0, at: ms(1) });
        assert!(p.validate(4).is_err(), "master crash rejected");
        p.node_crashes[0].node = 9;
        assert!(p.validate(4).is_err(), "out-of-range node rejected");
        p.node_crashes[0].node = 2;
        assert!(p.validate(4).is_ok());
        p.link_faults.push(LinkFault {
            src: Some(1),
            dst: Some(1),
            from: ms(0),
            until: ms(1),
            loss: 0.1,
            spike: SimTime::ZERO,
            spike_probability: 0.0,
        });
        assert!(p.validate(4).is_err(), "self-link rejected");
        p.link_faults[0].dst = Some(0);
        p.link_faults[0].loss = 1.5;
        assert!(p.validate(4).is_err(), "loss > 1 rejected");
        p.link_faults[0].loss = 0.5;
        p.link_faults[0].until = ms(0);
        assert!(p.validate(4).is_err(), "empty window rejected");
    }

    #[test]
    fn join_lifecycle_must_alternate() {
        let mut p = FaultPlan::none();
        p.node_joins.push(NodeJoin { node: 0, at: ms(1) });
        assert!(p.validate(4).is_err(), "master join rejected");
        p.node_joins[0].node = 9;
        assert!(p.validate(4).is_err(), "out-of-range join rejected");
        // A leading join (node starts offline) is fine on its own.
        p.node_joins[0].node = 2;
        assert!(p.validate(4).is_ok());
        assert_eq!(p.initially_offline(4), vec![2]);
        // crash @5 then join @1 means the join leads: still offline start.
        p.node_crashes.push(NodeCrash { node: 2, at: ms(5) });
        assert!(p.validate(4).is_ok());
        assert_eq!(p.initially_offline(4), vec![2]);
        // crash @5 then join @9: a rejoin; node starts alive.
        p.node_joins[0].at = ms(9);
        assert!(p.validate(4).is_ok());
        assert!(p.initially_offline(4).is_empty());
        // Two crashes with no join in between: rejected.
        p.node_crashes.push(NodeCrash { node: 2, at: ms(7) });
        assert!(p.validate(4).is_err(), "consecutive crashes rejected");
        // Crash and join at the same instant: rejected.
        p.node_crashes[1].at = ms(9);
        assert!(p.validate(4).is_err(), "simultaneous events rejected");
        // crash @5, join @9, crash @12, join @20: a full rejoin cycle.
        p.node_crashes[1].at = ms(12);
        p.node_joins.push(NodeJoin {
            node: 2,
            at: ms(20),
        });
        assert!(p.validate(4).is_ok());
    }

    #[test]
    fn join_plan_roundtrips_and_absent_field_is_empty() {
        let mut p = lossy_plan();
        p.node_joins.push(NodeJoin { node: 2, at: ms(8) });
        let json = serde_json::to_string_pretty(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
        // Plans written before `node_joins` existed still parse.
        let legacy: FaultPlan =
            serde_json::from_str(r#"{ "node_crashes": [ { "node": 1, "at": 1000 } ] }"#).unwrap();
        assert!(legacy.node_joins.is_empty());
        assert!(!legacy.is_empty());
    }
}
