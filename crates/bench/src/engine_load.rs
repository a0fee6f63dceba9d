//! Synthetic workloads for the discrete-event engine alone, shared by
//! `selfbench`'s regression-gated `engine` block and the criterion
//! microbenchmarks: bulk schedule + run, steady-state event chains, and
//! schedule + cancel churn (the work-stealing engine arms and disarms
//! timeouts constantly).

use cashmere_des::{Handler, Sim, SimTime};
use std::hint::black_box;

/// The workloads' world: a running sum and a link count toward a total.
#[derive(Default)]
pub struct BenchWorld {
    sum: u64,
    links: u64,
    total: u64,
}

pub enum BenchEvent {
    /// Add to the running sum.
    Add(u64),
    /// One link of a chain; schedules its successor until `total` links
    /// ran. Carries a node/job/generation payload like the work-stealing
    /// engine's events, so the per-event storage cost is representative.
    Link {
        node: usize,
        job: usize,
        generation: u64,
    },
}

impl Handler for BenchWorld {
    type Event = BenchEvent;

    fn handle(&mut self, ev: BenchEvent, sim: &mut Sim<BenchEvent>) {
        match ev {
            BenchEvent::Add(i) => self.sum = self.sum.wrapping_add(i),
            BenchEvent::Link {
                node,
                job,
                generation,
            } => {
                self.links += 1;
                if self.links < self.total {
                    let next = BenchEvent::Link {
                        node: node ^ 1,
                        job: job + 1,
                        generation,
                    };
                    sim.schedule_in(SimTime::from_nanos(997), next);
                }
            }
        }
    }
}

/// `n` events over 977 distinct times, scheduled and not yet run.
pub fn scheduled(n: u64) -> Sim<BenchEvent> {
    let mut sim = Sim::new();
    for i in 0..n {
        sim.schedule_at(SimTime::from_nanos(i % 977), BenchEvent::Add(i));
    }
    sim
}

/// Bulk schedule + drain of `n` events; returns events fired.
pub fn schedule_run(n: u64) -> u64 {
    let mut sim = scheduled(n);
    let mut world = BenchWorld::default();
    sim.run(&mut world);
    black_box(world.sum);
    sim.events_fired()
}

/// Steady-state chains: `chains` in flight, `total` events overall;
/// returns events fired.
pub fn churn(chains: u64, total: u64) -> u64 {
    let mut sim = Sim::new();
    for i in 0..chains {
        let link = BenchEvent::Link {
            node: i as usize,
            job: 0,
            generation: i,
        };
        sim.schedule_at(SimTime::from_nanos(i), link);
    }
    let mut world = BenchWorld {
        total,
        ..BenchWorld::default()
    };
    sim.run(&mut world);
    sim.events_fired()
}

/// Schedule `n` events and cancel every one; returns ops (schedules +
/// cancels).
pub fn schedule_cancel(n: u64) -> u64 {
    let mut sim = Sim::new();
    let handles: Vec<_> = (0..n)
        .map(|i| sim.schedule_at(SimTime::from_nanos(1 + i % 977), BenchEvent::Add(i)))
        .collect();
    for h in handles {
        assert!(sim.cancel(h));
    }
    sim.run(&mut BenchWorld::default());
    2 * n
}
