//! Virtual time for the simulation: a `u64` count of nanoseconds.
//!
//! `SimTime` doubles as a point in time and as a duration; the simulation
//! starts at `SimTime::ZERO` and durations are added with `+`. Using integer
//! nanoseconds (rather than `f64` seconds) keeps event ordering exact and the
//! whole simulation deterministic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time (or a duration), in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond
    /// (halves away from zero, as `f64::round` does).
    ///
    /// Negative or NaN inputs saturate to zero: durations in the simulation
    /// are never negative. Infinite or too-large inputs saturate to `MAX`.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let ns = s * 1e9;
        if !ns.is_finite() || ns >= u64::MAX as f64 {
            return SimTime::MAX;
        }
        // Integer rounding: `f64::round` is a library call on the baseline
        // x86-64 target, and this runs once per simulated kernel and
        // transfer. The fraction is exact: below 2^53 both `ns` and its
        // truncation share an exponent range, and from 2^53 on every f64
        // is a whole number, so the fraction is 0.
        let whole = ns as u64;
        SimTime(whole + u64::from(ns - whole as f64 >= 0.5))
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero if `b > a`.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("SimTime overflow"))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    /// Human-readable rendering with an adaptive unit (ns/µs/ms/s).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t, SimTime::from_millis(1500));
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_saturates() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn from_secs_f64_rounds_like_f64_round() {
        // The rounding rule this replaced, kept as the oracle.
        fn oracle(s: f64) -> SimTime {
            if s.is_nan() || s <= 0.0 {
                return SimTime::ZERO;
            }
            let ns = s * 1e9;
            if !ns.is_finite() || ns >= u64::MAX as f64 {
                SimTime::MAX
            } else {
                SimTime(ns.round() as u64)
            }
        }
        let p52 = (1u64 << 52) as f64;
        let p53 = (1u64 << 53) as f64;
        let below_half = f64::from_bits(0.5f64.to_bits() - 1); // 0.49999999999999994
        let mut cases = vec![
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            below_half,
            below_half / 1e9,
            1e-9,
            0.3,
            1.0 / 3.0,
            1e300,
            f64::MAX,
        ];
        // A value and its two neighbouring floats.
        let around = |cases: &mut Vec<f64>, s: f64| {
            cases.extend([
                f64::from_bits(s.to_bits() - 1),
                s,
                f64::from_bits(s.to_bits() + 1),
            ]);
        };
        // Ties (x.5 ns), and u64::MAX ns (~1.8e10 s) with its neighbours.
        for k in [0u64, 1, 2, 3, 1_000_001, 123_456_789_012] {
            around(&mut cases, (k as f64 + 0.5) / 1e9);
        }
        around(&mut cases, u64::MAX as f64 / 1e9);
        // Nanosecond counts around 2^52 (spacing 0.5: every other one a
        // tie) and 2^53 (spacing 1, then 2).
        for edge in [p52, p53] {
            let mut ns = edge;
            for _ in 0..4 {
                ns = f64::from_bits(ns.to_bits() - 1);
            }
            for _ in 0..9 {
                around(&mut cases, ns / 1e9);
                ns = f64::from_bits(ns.to_bits() + 1);
            }
        }
        // Seeded sweep over many magnitudes (splitmix64 bits).
        let mut state = 0x5EED_u64;
        for _ in 0..100_000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let mantissa = (z >> 11) as f64 / (1u64 << 53) as f64;
            let exponent = (z & 0x3f) as i32 - 30;
            cases.push(mantissa * 2f64.powi(exponent));
        }
        for s in cases {
            assert_eq!(SimTime::from_secs_f64(s), oracle(s), "{s:e}");
        }
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(3);
        let b = SimTime::from_micros(2);
        assert_eq!(a + b, SimTime::from_micros(5));
        assert_eq!(a - b, SimTime::from_micros(1));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a * 2, SimTime::from_micros(6));
        assert_eq!(a / 3, SimTime::from_micros(1));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000µs");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_iterates() {
        let total: SimTime = (1..=4).map(SimTime::from_nanos).sum();
        assert_eq!(total, SimTime::from_nanos(10));
    }
}
