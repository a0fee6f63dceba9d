//! Property-based tests over the core data structures and invariants,
//! spanning the whole stack: virtual time, the event engine, the
//! interconnect, both MCPL kernel engines, the load balancer and the D&C
//! engine.

use cashmere::Balancer;
use cashmere_des::{Handler, Sim, SimTime};
use cashmere_hwdesc::standard_hierarchy;
use cashmere_mcl::value::{ArgValue, ArrayArg};
use cashmere_mcl::{compile, CheckedKernel, ElemTy, ExecError, ExecOptions, ExecResult};
use cashmere_netsim::nic::{schedule_transfer, NodeNic};
use cashmere_netsim::NetConfig;
use cashmere_satin::{ClusterApp, ClusterSim, CpuLeafRuntime, DcStep, SimConfig};
use proptest::prelude::*;

type Execute = fn(&CheckedKernel, Vec<ArgValue>, &ExecOptions) -> Result<ExecResult, ExecError>;

/// Both kernel engines: the VM every run uses and the reference tree
/// walker it must agree with.
const ENGINES: [(&str, Execute); 2] = [
    ("vm", cashmere_mcl::vm::execute),
    ("tree", cashmere_mcl::interp::execute),
];

/// An event world that records the virtual time of every event it fires.
#[derive(Default)]
struct FiringTimes(Vec<u64>);

/// An event that fires at the time (ns) it carries.
struct Fired(u64);

impl Handler for FiringTimes {
    type Event = Fired;

    fn handle(&mut self, Fired(t): Fired, _: &mut Sim<Fired>) {
        self.0.push(t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simtime_add_sub_roundtrip(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
        prop_assert_eq!(ta + tb - tb, ta);
        prop_assert_eq!((ta + tb).saturating_sub(ta + tb), SimTime::ZERO);
        prop_assert!(ta.max(tb) >= ta.min(tb));
    }

    #[test]
    fn simtime_secs_f64_roundtrip(ns in 0u64..u64::MAX / 1024) {
        let t = SimTime::from_nanos(ns);
        let back = SimTime::from_secs_f64(t.as_secs_f64());
        // f64 has 52 bits of mantissa; allow relative error.
        let err = back.as_nanos().abs_diff(ns);
        prop_assert!(err as f64 <= 1.0 + ns as f64 * 1e-12, "{} vs {}", back.as_nanos(), ns);
    }

    #[test]
    fn des_fires_in_nondecreasing_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Sim::new();
        let mut world = FiringTimes::default();
        for t in &times {
            sim.schedule_at(SimTime::from_nanos(*t), Fired(*t));
        }
        sim.run(&mut world);
        prop_assert_eq!(world.0.len(), times.len());
        prop_assert!(world.0.windows(2).all(|w| w[0] <= w[1]), "events out of order");
    }

    #[test]
    fn nic_transfers_never_overlap_in_tx(sizes in prop::collection::vec(1u64..10_000_000, 1..20)) {
        let net = NetConfig::qdr_infiniband();
        let mut a = NodeNic::default();
        let mut b = NodeNic::default();
        let mut spans: Vec<(SimTime, SimTime)> = Vec::new();
        let mut now = SimTime::ZERO;
        for s in sizes {
            let tr = schedule_transfer(&net, now, &mut a, &mut b, s, 0.0, 0.0);
            let ser = SimTime::from_secs_f64(s as f64 / (net.bandwidth_gbs * 1e9));
            spans.push((tr.start, tr.start + ser));
            now += SimTime::from_nanos(137); // requests arrive faster than the wire drains
        }
        for w in spans.windows(2) {
            prop_assert!(w[1].0 >= w[0].1, "TX serialization violated: {w:?}");
        }
    }

    #[test]
    fn interpreter_saxpy_matches_reference(
        n in 1u64..300,
        alpha_x10 in -50i64..50,
        group in prop::sample::select(vec![16usize, 64, 256]),
    ) {
        let alpha = alpha_x10 as f64 / 10.0;
        let h = standard_hierarchy();
        let ck = compile(
            "perfect void saxpy(int n, float alpha, float[n] y, float[n] x) {
  foreach (int i in n threads) { y[i] += alpha * x[i]; }
}",
            &h,
        ).unwrap();
        let xs: Vec<f64> = (0..n).map(|i| f64::from((i as f32) * 0.25 - 8.0)).collect();
        let ys: Vec<f64> = (0..n).map(|i| f64::from(i as f32 * 0.5)).collect();
        for (engine, execute) in ENGINES {
            let r = execute(
                &ck,
                vec![
                    ArgValue::Int(n as i64),
                    ArgValue::Float(alpha),
                    ArgValue::Array(ArrayArg::float(&[n], ys.clone())),
                    ArgValue::Array(ArrayArg::float(&[n], xs.clone())),
                ],
                &ExecOptions { group_size: group, simd_width: 32, sampled: false },
            ).unwrap();
            let got = r.args[2].clone().array();
            for i in 0..n as usize {
                let want = f64::from((ys[i] + alpha * xs[i]) as f32);
                prop_assert!((got.as_f64()[i] - want).abs() < 1e-9, "{engine}: i={i}");
            }
            // flops: one fused multiply-add per element.
            prop_assert!((r.stats.flops - 2.0 * n as f64).abs() < 1e-9, "{engine}");
        }
    }

    #[test]
    fn sampled_stats_scale_invariance(n_log2 in 10u32..18) {
        // Sampled runs must report the same totals as full runs for a
        // uniform kernel.
        let n = 1u64 << n_log2;
        let h = standard_hierarchy();
        let ck = compile(
            "perfect void touch(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = a[i] * 2.0 + 1.0; }
}",
            &h,
        ).unwrap();
        for (engine, execute) in ENGINES {
            let run = |sampled: bool| {
                let r = execute(
                    &ck,
                    vec![
                        ArgValue::Int(n as i64),
                        ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
                    ],
                    &ExecOptions { group_size: 256, simd_width: 32, sampled },
                ).unwrap();
                r.stats
            };
            let full = run(false);
            let sampled = run(true);
            let rel = |a: f64, b: f64| if b == 0.0 { 0.0 } else { (a - b).abs() / b };
            prop_assert!(rel(sampled.flops, full.flops) < 1e-6, "{engine}");
            prop_assert!(rel(sampled.issue_cycles, full.issue_cycles) < 1e-6, "{engine}");
            prop_assert!(rel(sampled.global_bytes, full.global_bytes) < 1e-6, "{engine}");
            prop_assert_eq!(sampled.total_threads, full.total_threads, "{}", engine);
        }
    }

    #[test]
    fn balancer_choice_is_optimal(
        speeds in prop::collection::vec(1.0f64..50.0, 1..5),
        queued in prop::collection::vec(0usize..6, 1..5),
    ) {
        let k = speeds.len().min(queued.len());
        let speeds = &speeds[..k];
        let queued = &queued[..k];
        let mut b = Balancer::new(speeds);
        for (d, q) in queued.iter().enumerate() {
            for _ in 0..*q {
                b.on_submit(d);
            }
        }
        let choice = b.choose_among("k", &vec![true; k]).unwrap();
        // Brute force the scenario minimum.
        let times = b.estimates("k");
        let scenario = |d: usize| -> f64 {
            (0..k)
                .map(|e| (queued[e] + usize::from(e == d)) as f64 * times[e])
                .fold(0.0, f64::max)
        };
        let best = (0..k).map(scenario).fold(f64::INFINITY, f64::min);
        prop_assert!(scenario(choice) <= best * (1.0 + 1e-12), "choice {choice} not optimal");
    }

    #[test]
    fn cluster_sum_is_exact_for_any_shape(
        total in 1u64..40_000,
        grain in 1u64..5_000,
        nodes in 1usize..6,
        seed in 0u64..1000,
    ) {
        struct Sum {
            grain: u64,
        }
        impl ClusterApp for Sum {
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
                (SimTime::from_micros(1 + hi - lo), (lo..hi).sum())
            }
            fn combine(&self, _: &(u64, u64), c: Vec<u64>) -> u64 {
                c.into_iter().sum()
            }
            fn input_bytes(&self, _: &(u64, u64)) -> u64 {
                64
            }
            fn output_bytes(&self, _: &u64) -> u64 {
                8
            }
        }
        let mut cs = ClusterSim::new(
            Sum { grain },
            CpuLeafRuntime,
            SimConfig { nodes, seed, ..SimConfig::default() },
        );
        let out = cs.run_root((0, total));
        prop_assert_eq!(out, total * (total - 1) / 2);
    }
}
