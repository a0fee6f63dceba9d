//! Synthetic workloads for the discrete-event engine alone, timed by
//! `selfbench`'s regression-gated `engine` block: bulk schedule + run,
//! steady-state event chains, and schedule + cancel churn (the
//! work-stealing engine arms and disarms timeouts constantly).

use cashmere_des::{Handler, Sim, SimTime};
use std::hint::black_box;

/// The workloads' world: a running sum and a count of the links
/// scheduled so far toward a total.
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
    /// were scheduled. Carries a node/job/generation payload like the
    /// work-stealing engine's events, so the per-event storage cost is
    /// representative.
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
                if self.links < self.total {
                    self.links += 1;
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

/// Bulk schedule + drain of `n` events over 977 distinct times; returns
/// events fired.
pub fn schedule_run(n: u64) -> u64 {
    let mut sim = Sim::new();
    for i in 0..n {
        sim.schedule_at(SimTime::from_nanos(i % 977), BenchEvent::Add(i));
    }
    let mut world = BenchWorld::default();
    sim.run(&mut world);
    black_box(world.sum);
    sim.events_fired()
}

/// Steady-state chains: `chains` in flight, `total` events overall (at
/// least one per chain); returns events fired.
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
        links: chains,
        total,
        ..BenchWorld::default()
    };
    sim.run(&mut world);
    sim.events_fired()
}

/// Schedule `n` events and cancel every one; returns ops (schedules +
/// cancels). Panics unless every cancel succeeds and none of the events
/// is left pending or fires.
pub fn schedule_cancel(n: u64) -> u64 {
    let mut sim = Sim::new();
    let handles: Vec<_> = (0..n)
        .map(|i| sim.schedule_at(SimTime::from_nanos(1 + i % 977), BenchEvent::Add(i)))
        .collect();
    for h in handles {
        assert!(sim.cancel(h));
    }
    assert_eq!(sim.pending(), 0);
    sim.run(&mut BenchWorld::default());
    assert_eq!(sim.events_fired(), 0);
    2 * n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_do_the_work_they_report() {
        assert_eq!(schedule_run(2_000), 2_000);
        assert_eq!(churn(10, 1_000), 1_000);
        // Chains still in flight when the total is reached do not run over.
        assert_eq!(churn(7, 1_000), 1_000);
        assert_eq!(churn(1_000, 1_000), 1_000);
        assert_eq!(schedule_cancel(2_000), 4_000);
    }
}
