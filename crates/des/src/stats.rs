//! Small statistics helpers used across the simulation stack.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Time-weighted average of a piecewise-constant quantity (queue length,
/// number of busy cores, …). Call [`TimeWeighted::update`] whenever the value
/// changes; the mean over `[start, now]` is then available.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    start: SimTime,
    max: f64,
}

impl TimeWeighted {
    /// Start tracking at `now` with initial `value`.
    pub fn new(now: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: now,
            last_value: value,
            weighted_sum: 0.0,
            start: now,
            max: value,
        }
    }

    /// Record that the value changed to `value` at time `now`.
    pub fn update(&mut self, now: SimTime, value: f64) {
        debug_assert!(now >= self.last_time, "time went backwards");
        let dt = (now - self.last_time).as_secs_f64();
        self.weighted_sum += self.last_value * dt;
        self.last_time = now;
        self.last_value = value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Like [`TimeWeighted::update`], but tolerates out-of-order timestamps
    /// by clamping `now` to the last update time. Used by the metrics layer,
    /// where overlapping leaf submissions can observe a gauge slightly in the
    /// past relative to its latest update.
    pub fn update_clamped(&mut self, now: SimTime, value: f64) {
        self.update(now.max(self.last_time), value);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.last_value
    }

    /// Maximum value observed.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time-weighted mean over `[start, now]`, including the tail segment
    /// between the last update and `now` at the current value — so
    /// finalizing at run end (makespan) weights the closing quiet period,
    /// not just the recorded transitions. Returns the current value when no
    /// time has elapsed; a `now` before the last update (a gauge finalized
    /// against a horizon shorter than its history) clamps the tail to zero
    /// instead of underflowing.
    pub fn mean(&self, now: SimTime) -> f64 {
        let total = now.saturating_sub(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.last_value;
        }
        let tail = now.saturating_sub(self.last_time).as_secs_f64();
        (self.weighted_sum + self.last_value * tail) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new(t(0), 0.0);
        tw.update(t(1_000_000_000), 10.0); // value 0 for 1s
        tw.update(t(3_000_000_000), 0.0); // value 10 for 2s
                                          // mean over 4s: (0*1 + 10*2 + 0*1) / 4 = 5
        let m = tw.mean(t(4_000_000_000));
        assert!((m - 5.0).abs() < 1e-9, "mean = {m}");
        assert_eq!(tw.max(), 10.0);
        assert_eq!(tw.value(), 0.0);
    }

    #[test]
    fn time_weighted_zero_elapsed() {
        let tw = TimeWeighted::new(t(5), 7.0);
        assert_eq!(tw.mean(t(5)), 7.0);
    }

    #[test]
    fn time_weighted_mean_includes_tail_to_run_end() {
        // Gauge finalization: the segment between the last update and run
        // end must be weighted. 0.0 for 2s, then 4.0 for the remaining 8s
        // of a 10s run — the mean is exactly (0*2 + 4*8)/10 = 3.2, not the
        // 0.0 a last-update cutoff would report.
        let mut tw = TimeWeighted::new(t(0), 0.0);
        tw.update(t(2_000_000_000), 4.0);
        assert_eq!(tw.mean(t(10_000_000_000)), 3.2);
    }

    #[test]
    fn time_weighted_mean_clamps_a_short_horizon() {
        // Finalizing at a horizon before the last update must not
        // underflow: the tail clamps to zero, leaving the recorded
        // segment (1.0 over 8s) divided by the 5s window.
        let mut tw = TimeWeighted::new(t(0), 1.0);
        tw.update(t(8_000_000_000), 2.0);
        assert_eq!(tw.mean(t(5_000_000_000)), 1.6);
    }
}
