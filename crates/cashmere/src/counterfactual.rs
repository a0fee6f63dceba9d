//! Balancer counterfactuals: replay the audit log under a perturbed speed
//! table and report which placements flip.
//!
//! The audit log (PR 2) records, for every device-job decision, the exact
//! candidate table the Sec. III-B scenario rule evaluated — per-device
//! queue depths and time estimates at decision time. That is enough to
//! re-run the *decision* (not the whole simulation) under a counterfactual
//! "device X is f× faster" table: divide X's estimates by f, recompute each
//! candidate's scenario makespan `max_e (queued_e + [e==d]) · t_e`, and
//! take the argmin again. A flip means the placement was sensitive to that
//! device's speed — the advisor prints these next to its measured what-if
//! deltas, because a large measured delta with many flips says "the win
//! comes from re-routing", while a large delta with zero flips says "the
//! same jobs simply run faster".

use crate::balancer::{argmin, scenario_makespan, Policy};
use crate::runtime::AuditEntry;
use serde::{Deserialize, Serialize};

/// One decision that would have gone elsewhere under the perturbed table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementFlip {
    /// Audit sequence number of the decision.
    pub seq: u64,
    pub node: usize,
    pub kernel: String,
    /// Device the job actually ran on.
    pub from: usize,
    /// Device the perturbed table would have chosen.
    pub to: usize,
}

/// Outcome of replaying one audit log under one perturbed table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterfactualReplay {
    /// Audit entries seen.
    pub decisions: usize,
    /// Entries actually replayed: scenario-policy decisions that placed a
    /// job on a device (CPU fallbacks and ablation policies are skipped —
    /// their choice does not depend on the speed table).
    pub replayed: usize,
    /// Decisions whose argmin moved, in audit order.
    pub flips: Vec<PlacementFlip>,
}

impl CounterfactualReplay {
    /// `flips / replayed` in percent (0 when nothing was replayable).
    pub fn flip_pct(&self) -> f64 {
        if self.replayed == 0 {
            0.0
        } else {
            100.0 * self.flips.len() as f64 / self.replayed as f64
        }
    }
}

/// Replay every scenario-policy decision of `audit` with each device's time
/// estimate divided by `factor(node, device)` (1.0 = unperturbed), and
/// collect the placements that flip. The decision is the balancer's own
/// Sec. III-B rule (the scenario makespan and its lowest-index argmin), so
/// an unperturbed replay reproduces every recorded choice.
pub fn replay_audit(
    audit: &[AuditEntry],
    factor: impl Fn(usize, usize) -> f64,
) -> CounterfactualReplay {
    let mut replayed = 0usize;
    let mut flips = Vec::new();
    for e in audit {
        // Only scenario-policy decisions depend on the speed table; match
        // on the recorded descriptor name so legacy string-form entries
        // (normalized on load) replay too.
        if e.policy.name != Policy::Scenario.name() {
            continue;
        }
        let Some(chosen) = e.chosen else {
            continue;
        };
        if e.candidates.is_empty() {
            continue;
        }
        replayed += 1;
        // Perturbed per-device estimates; dead devices keep no estimate.
        let live: Vec<(usize, usize, f64)> = e
            .candidates
            .iter()
            .filter(|c| !c.dead)
            .map(|c| {
                let f = factor(e.node, c.device);
                debug_assert!(f.is_finite() && f > 0.0, "bad counterfactual factor");
                (c.device, c.queued, c.estimate_s / f)
            })
            .collect();
        let candidates = e.candidates.iter().filter(|c| !c.dead && c.allowed);
        let best = argmin(candidates.map(|c| c.device), |d| {
            scenario_makespan(live.iter().copied(), d)
        });
        if let Some(to) = best {
            if to != chosen {
                flips.push(PlacementFlip {
                    seq: e.seq,
                    node: e.node,
                    kernel: e.kernel.clone(),
                    from: chosen,
                    to,
                });
            }
        }
    }
    CounterfactualReplay {
        decisions: audit.len(),
        replayed,
        flips,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{DeviceEstimate, PolicyDesc};

    fn entry(seq: u64, candidates: Vec<DeviceEstimate>, chosen: Option<usize>) -> AuditEntry {
        AuditEntry {
            seq,
            node: 0,
            kernel: "k".into(),
            submit_ns: 0,
            policy: PolicyDesc::default(),
            candidates,
            chosen,
            reason: "placed".into(),
        }
    }

    fn cand(device: usize, queued: usize, estimate_s: f64) -> DeviceEstimate {
        DeviceEstimate {
            device,
            queued,
            estimate_s,
            measured: true,
            dead: false,
            allowed: true,
            scenario_s: None,
        }
    }

    /// The paper's Sec. III-B example: K20 queue 3 × 100 ms, GTX480 queue
    /// 1 × 125 ms → the job goes to the GTX480. Make the K20 2× faster and
    /// the decision flips back to it.
    #[test]
    fn paper_example_flips_when_k20_doubles() {
        let audit = vec![entry(
            0,
            vec![cand(0, 3, 0.100), cand(1, 1, 0.125)],
            Some(1),
        )];
        // Unperturbed replay reproduces the recorded choice: no flips.
        let same = replay_audit(&audit, |_, _| 1.0);
        assert_eq!(same.replayed, 1);
        assert!(same.flips.is_empty());
        // K20 (device 0) 2× faster: scenario0 = max(4·50, 125) = 200 vs
        // scenario1 = max(3·50, 2·125) = 250 → flip to device 0.
        let fast = replay_audit(&audit, |_, d| if d == 0 { 2.0 } else { 1.0 });
        assert_eq!(fast.flips.len(), 1);
        let f = &fast.flips[0];
        assert_eq!((f.from, f.to), (1, 0));
        assert!((fast.flip_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fallbacks_and_dead_devices_are_skipped() {
        let mut dead = cand(0, 0, 0.1);
        dead.dead = true;
        dead.allowed = false;
        let audit = vec![
            entry(0, vec![], None), // CPU fallback: nothing to replay
            entry(1, vec![dead, cand(1, 0, 0.2)], Some(1)),
        ];
        // Even an extreme factor on the dead device cannot flip anything.
        let r = replay_audit(&audit, |_, d| if d == 0 { 100.0 } else { 1.0 });
        assert_eq!(r.decisions, 2);
        assert_eq!(r.replayed, 1);
        assert!(r.flips.is_empty());
    }
}
