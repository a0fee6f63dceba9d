//! Randomized failure injection: whatever node crashes at whatever time,
//! and whatever a (survivable) fault plan throws at the cluster — crashed
//! nodes, lossy links, latency spikes — Satin's recovery must still deliver
//! the exact answer (paper Sec. II-A: "Satin recovers from nodes that are
//! no longer responding"), and fault runs must replay byte-for-byte.

use cashmere_des::fault::{FaultPlan, LinkFault, NodeCrash, NodeJoin};
use cashmere_des::SimTime;
use cashmere_satin::{ClusterApp, ClusterSim, Counter, CpuLeafRuntime, DcStep, SimConfig};
use proptest::prelude::*;

struct SumApp {
    grain: u64,
}

impl ClusterApp for SumApp {
    type Input = (u64, u64);
    type Output = u64;

    fn step(&self, &(lo, hi): &(u64, u64)) -> DcStep<(u64, u64)> {
        if hi - lo <= self.grain {
            DcStep::Leaf
        } else {
            let mid = lo + (hi - lo) / 2;
            DcStep::Divide(vec![(lo, mid), (mid, hi)])
        }
    }

    fn leaf_cpu(&self, &(lo, hi): &(u64, u64)) -> (SimTime, u64) {
        (SimTime::from_micros(hi - lo), (lo..hi).sum())
    }

    fn combine(&self, _: &(u64, u64), c: Vec<u64>) -> u64 {
        c.into_iter().sum()
    }

    fn input_bytes(&self, _: &(u64, u64)) -> u64 {
        1024
    }

    fn output_bytes(&self, _: &u64) -> u64 {
        8
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_single_crash_preserves_the_answer(
        nodes in 2usize..7,
        victim_sel in 1usize..100,
        crash_ms in 0u64..60,
        seed in 0u64..500,
    ) {
        let victim = 1 + victim_sel % (nodes - 1).max(1);
        let total = 100_000u64;
        let mut cs = ClusterSim::new(
            SumApp { grain: 2_000 },
            CpuLeafRuntime,
            SimConfig { nodes, seed, ..SimConfig::default() },
        );
        if victim < nodes {
            cs.schedule_crash(victim, SimTime::from_millis(crash_ms)).unwrap();
        }
        let out = cs.run_root((0, total));
        prop_assert_eq!(out, total * (total - 1) / 2);
    }

    #[test]
    fn two_crashes_preserve_the_answer(
        nodes in 4usize..8,
        crash_a_ms in 0u64..40,
        crash_b_ms in 0u64..40,
        seed in 0u64..200,
    ) {
        let total = 80_000u64;
        let mut cs = ClusterSim::new(
            SumApp { grain: 1_000 },
            CpuLeafRuntime,
            SimConfig { nodes, seed, ..SimConfig::default() },
        );
        cs.schedule_crash(1, SimTime::from_millis(crash_a_ms)).unwrap();
        cs.schedule_crash(2, SimTime::from_millis(crash_b_ms)).unwrap();
        let out = cs.run_root((0, total));
        prop_assert_eq!(out, total * (total - 1) / 2);
    }
}

#[test]
fn crash_storm_leaves_only_the_master() {
    // Every slave dies almost immediately; the master alone must finish.
    let total = 50_000u64;
    let mut cs = ClusterSim::new(
        SumApp { grain: 1_000 },
        CpuLeafRuntime,
        SimConfig {
            nodes: 6,
            seed: 11,
            ..SimConfig::default()
        },
    );
    for n in 1..6 {
        cs.schedule_crash(n, SimTime::from_millis(2 + n as u64))
            .unwrap();
    }
    let out = cs.run_root((0, total));
    assert_eq!(out, total * (total - 1) / 2);
    assert_eq!(cs.report()[Counter::Crashes], 5);
}

#[test]
fn crash_after_completion_is_harmless() {
    let total = 10_000u64;
    let mut cs = ClusterSim::new(
        SumApp { grain: 1_000 },
        CpuLeafRuntime,
        SimConfig {
            nodes: 3,
            seed: 1,
            ..SimConfig::default()
        },
    );
    // Far beyond the end of the run.
    cs.schedule_crash(1, SimTime::from_secs(3600)).unwrap();
    let out = cs.run_root((0, total));
    assert_eq!(out, total * (total - 1) / 2);
}

/// Run the sum app under `cfg` and return the answer plus the full report,
/// serialized (the serde shim emits canonical output, so string equality is
/// byte equality).
fn run_to_json(cfg: SimConfig) -> (u64, String) {
    let total = 60_000u64;
    let mut cs = ClusterSim::new(SumApp { grain: 1_000 }, CpuLeafRuntime, cfg);
    let out = cs.run_root((0, total));
    assert_eq!(out, total * (total - 1) / 2);
    (out, serde_json::to_string(cs.report()).unwrap())
}

#[test]
fn empty_fault_plan_is_byte_identical_to_no_plan() {
    // An explicitly-supplied empty plan must consume no randomness and arm
    // no timers: the run is indistinguishable from one that never heard of
    // fault injection.
    let base = SimConfig {
        nodes: 4,
        seed: 42,
        ..SimConfig::default()
    };
    let with_empty_plan = SimConfig {
        faults: FaultPlan::none(),
        ..base.clone()
    };
    assert_eq!(run_to_json(base), run_to_json(with_empty_plan));
}

fn lossy_plan() -> FaultPlan {
    FaultPlan {
        node_crashes: vec![NodeCrash {
            node: 2,
            at: SimTime::from_millis(5),
        }],
        link_faults: vec![LinkFault {
            src: None,
            dst: None,
            from: SimTime::from_millis(1),
            until: SimTime::from_millis(30),
            loss: 0.4,
            spike: SimTime::from_micros(500),
            spike_probability: 0.3,
        }],
        ..FaultPlan::default()
    }
}

#[test]
fn same_plan_and_seed_replays_byte_for_byte() {
    let run = || {
        run_to_json(SimConfig {
            nodes: 4,
            seed: 7,
            faults: lossy_plan(),
            ..SimConfig::default()
        })
    };
    let (out, report) = run();
    assert_eq!(
        (out, report.clone()),
        run(),
        "fault runs must replay exactly"
    );
    // ... and the plan was no placebo: this seed observes real failures.
    let parsed: cashmere_satin::RunReport = serde_json::from_str(&report).unwrap();
    assert!(parsed.saw_failures(), "{}", parsed.failure_summary());
    assert_eq!(parsed[Counter::Crashes], 1);
    assert!(
        parsed[Counter::MessagesLost] > 0,
        "{}",
        parsed.failure_summary()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any plan that leaves the master and at least one worker path alive —
    /// crashes only on nodes ≥ 2, link faults bounded in time — still
    /// produces the exact divide-and-conquer result, and the run
    /// terminates (lost steal messages time out and retry; finite fault
    /// windows guarantee eventual delivery).
    #[test]
    fn any_survivable_fault_plan_preserves_the_answer(
        nodes in 3usize..6,
        crash_victim in 2usize..6,
        crash_ms in 1u64..50,
        with_crash in 0usize..2,
        loss in 0.0f64..1.0,
        from_ms in 0u64..20,
        len_ms in 1u64..40,
        spike_us in 0u64..2_000,
        spike_p in 0.0f64..1.0,
        seed in 0u64..200,
    ) {
        let mut plan = FaultPlan::default();
        if with_crash == 1 && crash_victim < nodes {
            plan.node_crashes.push(NodeCrash {
                node: crash_victim,
                at: SimTime::from_millis(crash_ms),
            });
        }
        plan.link_faults.push(LinkFault {
            src: None,
            dst: None,
            from: SimTime::from_millis(from_ms),
            until: SimTime::from_millis(from_ms + len_ms),
            loss,
            spike: SimTime::from_micros(spike_us),
            spike_probability: spike_p,
        });
        let total = 60_000u64;
        let mut cs = ClusterSim::new(
            SumApp { grain: 1_000 },
            CpuLeafRuntime,
            SimConfig { nodes, seed, faults: plan, ..SimConfig::default() },
        );
        let out = cs.run_root((0, total));
        prop_assert_eq!(out, total * (total - 1) / 2);
        // Every harvested orphan result is either reused or expires.
        let r = cs.report();
        prop_assert_eq!(
            r[Counter::OrphansHarvested],
            r[Counter::OrphansReused] + r[Counter::OrphansExpired],
            "orphan results must be conserved: {}",
            r.failure_summary()
        );
    }

    /// Random survivable crash/join interleavings: each worker node gets an
    /// independent lifecycle (up; crash; crash then rejoin; crash, rejoin,
    /// crash again; or start offline and join late). Whatever the
    /// interleaving, the answer is exact — each leaf range contributes to
    /// the sum exactly once (any double-count or drop changes the total,
    /// because every range sums to a distinct value).
    #[test]
    fn any_crash_join_interleaving_counts_each_leaf_once(
        nodes in 3usize..6,
        lifecycles in prop::collection::vec(0usize..5, 5..6),
        t_base in prop::collection::vec(1u64..25, 5..6),
        seed in 0u64..200,
    ) {
        let mut plan = FaultPlan::default();
        for n in 1..nodes {
            let t0 = SimTime::from_millis(t_base[n - 1]);
            let t1 = t0 + SimTime::from_millis(4);
            let t2 = t1 + SimTime::from_millis(4);
            match lifecycles[n - 1] {
                // 0: stays up the whole run.
                1 => plan.node_crashes.push(NodeCrash { node: n, at: t0 }),
                2 => {
                    plan.node_crashes.push(NodeCrash { node: n, at: t0 });
                    plan.node_joins.push(NodeJoin { node: n, at: t1 });
                }
                3 => {
                    plan.node_crashes.push(NodeCrash { node: n, at: t0 });
                    plan.node_joins.push(NodeJoin { node: n, at: t1 });
                    plan.node_crashes.push(NodeCrash { node: n, at: t2 });
                }
                4 => plan.node_joins.push(NodeJoin { node: n, at: t0 }),
                _ => {}
            }
        }
        prop_assert!(plan.validate(nodes).is_ok());
        let total = 60_000u64;
        let mut cs = ClusterSim::new(
            SumApp { grain: 1_000 },
            CpuLeafRuntime,
            SimConfig { nodes, seed, faults: plan, ..SimConfig::default() },
        );
        let out = cs.run_root((0, total));
        prop_assert_eq!(out, total * (total - 1) / 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Crashes under a Cashmere-style leaf cap. Blocked leaves wait in the
    /// deques, including leaves just stolen by a node already at the cap;
    /// a crash of the leaves' home turns such waiting entries stale, and a
    /// node at the cap must still start (and so discard) them. The answer
    /// stays exact, and debug builds check every pick of the engine's
    /// startable-task index against a full deque scan.
    #[test]
    fn crashes_under_the_leaf_cap_preserve_the_answer(
        nodes in 3usize..6,
        cap in 1usize..3,
        crash_a in 1usize..6,
        crash_a_ms in 1u64..30,
        crash_b in 1usize..6,
        crash_b_ms in 1u64..30,
        rejoin in 0usize..2,
        seed in 0u64..200,
    ) {
        let mut plan = FaultPlan::default();
        let a = 1 + crash_a % (nodes - 1);
        let b = 1 + crash_b % (nodes - 1);
        plan.node_crashes.push(NodeCrash { node: a, at: SimTime::from_millis(crash_a_ms) });
        if b != a {
            plan.node_crashes.push(NodeCrash { node: b, at: SimTime::from_millis(crash_b_ms) });
        }
        if rejoin == 1 {
            let at = SimTime::from_millis(crash_a_ms + 3);
            plan.node_joins.push(NodeJoin { node: a, at });
        }
        prop_assert!(plan.validate(nodes).is_ok());
        let total = 60_000u64;
        let mut cs = ClusterSim::new(
            SumApp { grain: 1_000 },
            CpuLeafRuntime,
            SimConfig {
                nodes,
                cores_per_node: 4,
                max_concurrent_leaves: cap,
                seed,
                faults: plan,
                ..SimConfig::default()
            },
        );
        let out = cs.run_root((0, total));
        prop_assert_eq!(out, total * (total - 1) / 2);
    }
}

/// A fixed chaos-style plan — two crashes, one rejoin, a lossy window —
/// replays byte-for-byte, and this seed actually exercises the orphan
/// table (harvested and reused results both non-zero).
#[test]
fn fixed_chaos_seed_replays_byte_for_byte() {
    let plan = FaultPlan {
        node_crashes: vec![
            NodeCrash {
                node: 2,
                at: SimTime::from_millis(3),
            },
            NodeCrash {
                node: 3,
                at: SimTime::from_millis(5),
            },
        ],
        node_joins: vec![NodeJoin {
            node: 2,
            at: SimTime::from_millis(8),
        }],
        link_faults: vec![LinkFault {
            src: None,
            dst: None,
            from: SimTime::from_millis(1),
            until: SimTime::from_millis(12),
            loss: 0.15,
            spike: SimTime::from_micros(300),
            spike_probability: 0.2,
        }],
        ..FaultPlan::default()
    };
    // A longer run than `run_to_json`'s so the crashes land mid-tree and
    // actually orphan completed subtree results.
    let run = || {
        let total = 200_000u64;
        let mut cs = ClusterSim::new(
            SumApp { grain: 1_000 },
            CpuLeafRuntime,
            SimConfig {
                nodes: 4,
                seed: 2,
                faults: plan.clone(),
                ..SimConfig::default()
            },
        );
        let out = cs.run_root((0, total));
        assert_eq!(out, total * (total - 1) / 2);
        (out, serde_json::to_string(cs.report()).unwrap())
    };
    let (out, report) = run();
    assert_eq!(
        (out, report.clone()),
        run(),
        "chaos runs must replay exactly"
    );
    let parsed: cashmere_satin::RunReport = serde_json::from_str(&report).unwrap();
    assert_eq!(parsed[Counter::Crashes], 2, "{}", parsed.failure_summary());
    assert_eq!(parsed[Counter::Joins], 1, "{}", parsed.failure_summary());
    assert!(
        parsed[Counter::OrphansHarvested] > 0 && parsed[Counter::OrphansReused] > 0,
        "this seed must exercise the orphan table: {}",
        parsed.failure_summary()
    );
    assert_eq!(
        parsed[Counter::OrphansHarvested],
        parsed[Counter::OrphansReused] + parsed[Counter::OrphansExpired],
        "orphan results must be conserved: {}",
        parsed.failure_summary()
    );
}
