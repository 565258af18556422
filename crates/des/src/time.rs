//! Simulation time.
//!
//! [`SimTime`] wraps an `f64` number of seconds since simulation start. The
//! wrapper enforces the two properties a DES clock needs and a bare `f64`
//! lacks: values are always finite (so `Ord` is total) and never negative.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulation time, in seconds since simulation start.
///
/// `SimTime` is also used for durations; the engine does not distinguish
/// instants from spans, matching common DES practice where both live on the
/// same axis. All arithmetic debug-asserts that results stay finite and
/// non-negative.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Largest representable time; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(f64::MAX);

    /// Creates a time from a number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or infinite.
    #[inline]
    pub fn from_secs(secs: f64) -> SimTime {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        // `+ 0.0` turns -0.0 into +0.0 so IEEE total order (`Ord`) agrees
        // with numeric equality.
        SimTime(secs + 0.0)
    }

    /// The raw number of seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// This time's position in the `f64::total_cmp` order as a signed
    /// integer: `a.cmp(&b) == a.order_key().cmp(&b.order_key())` for every
    /// pair, `-0.0` included. Lets the event queue keep its ordering key
    /// inline and compare it as a plain integer.
    #[inline]
    pub(crate) fn order_key(self) -> i64 {
        let bits = self.0.to_bits() as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }

    /// Inverse of [`SimTime::order_key`] (the transform is its own
    /// inverse: it flips the low 63 bits of negative keys only).
    #[inline]
    pub(crate) fn from_order_key(key: i64) -> SimTime {
        SimTime(f64::from_bits(
            (key ^ (((key >> 63) as u64) >> 1) as i64) as u64,
        ))
    }

    /// Saturating subtraction: returns zero instead of going negative.
    ///
    /// Useful when decomposing measured spans where floating-point noise can
    /// push a nominally non-negative difference slightly below zero.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        // `+ 0.0` normalises a -0.0 clamp result for `total_cmp`-based `Ord`.
        SimTime((self.0 - rhs.0).max(0.0) + 0.0)
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

// `SimTime` construction forbids NaN and negative values, so IEEE total
// order coincides with the numeric order and gives a branch-free `Ord`.
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        let out = self.0 + rhs.0;
        debug_assert!(out.is_finite());
        SimTime(out)
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
    /// Exact subtraction.
    ///
    /// # Panics
    ///
    /// Debug-panics if the result would be negative; use
    /// [`SimTime::saturating_sub`] when decomposing measured values.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        let out = self.0 - rhs.0;
        debug_assert!(
            out >= 0.0,
            "SimTime subtraction underflow: {} - {}",
            self.0,
            rhs.0
        );
        SimTime(out.max(0.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}s", prec, self.0)
        } else {
            write!(f, "{:.3}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_secs(12.5);
        assert_eq!(t.as_secs(), 12.5);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_nan() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(3.0);
        let b = SimTime::from_secs(1.5);
        assert_eq!((a + b).as_secs(), 4.5);
        assert_eq!((a - b).as_secs(), 1.5);
        assert_eq!((a * 2.0).as_secs(), 6.0);
        assert_eq!((a / 2.0).as_secs(), 1.5);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn display_formatting() {
        let t = SimTime::from_secs(1.23456);
        assert_eq!(format!("{t}"), "1.235s");
        assert_eq!(format!("{t:.1}"), "1.2s");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mul_by_nan_panics() {
        let _ = SimTime::from_secs(1.0) * f64::NAN;
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mul_by_infinity_panics() {
        let _ = SimTime::from_secs(1.0) * f64::INFINITY;
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn mul_by_negative_panics() {
        let _ = SimTime::from_secs(1.0) * -2.0;
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn div_by_zero_panics() {
        let _ = SimTime::from_secs(1.0) / 0.0;
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn div_by_nan_panics() {
        let _ = SimTime::from_secs(1.0) / f64::NAN;
    }

    #[test]
    fn negative_zero_is_normalised() {
        // -0.0 passes the `>= 0.0` gate; the `+ 0.0` canonicalisation must
        // keep `total_cmp`-based Ord consistent with numeric equality.
        let z = SimTime::from_secs(-0.0);
        assert_eq!(z.cmp(&SimTime::ZERO), std::cmp::Ordering::Equal);
        assert_eq!(z.max(SimTime::ZERO), z.min(SimTime::ZERO));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `saturating_sub` never goes negative and agrees with exact
        /// subtraction whenever the exact result is non-negative — even
        /// when cancellation would nudge a float difference below zero.
        #[test]
        fn saturating_sub_never_negative(a in 0.0f64..1e12, b in 0.0f64..1e12) {
            let (ta, tb) = (SimTime::from_secs(a), SimTime::from_secs(b));
            let d = ta.saturating_sub(tb);
            prop_assert!(d >= SimTime::ZERO);
            if a >= b {
                prop_assert_eq!(d.as_secs(), a - b);
            } else {
                prop_assert_eq!(d, SimTime::ZERO);
            }
            // Never below the exact clamp, and ordering stays total.
            prop_assert_eq!(d.cmp(&d), std::cmp::Ordering::Equal);
        }

        /// The integer order key reproduces `Ord` (IEEE total order) and
        /// round-trips every bit, `-0.0` and `SimTime::MAX` included.
        #[test]
        fn order_key_matches_ord_and_round_trips(a in 0.0f64..1e12, b in 0.0f64..1e12, sign in any::<bool>()) {
            let a = if sign { -0.0 } else { a };
            for x in [a, b, f64::MAX] {
                let key = SimTime(x).order_key();
                prop_assert_eq!(SimTime::from_order_key(key).as_secs().to_bits(), x.to_bits());
            }
            let (ta, tb) = (SimTime(a), SimTime(b));
            prop_assert_eq!(ta.order_key().cmp(&tb.order_key()), ta.cmp(&tb));
            prop_assert_eq!(ta.order_key().cmp(&SimTime::MAX.order_key()), ta.cmp(&SimTime::MAX));
        }

        /// Ord agrees with the underlying numeric order for all valid
        /// values, including equal ones arriving via different expressions.
        #[test]
        fn ord_matches_numeric_order(a in 0.0f64..1e12, b in 0.0f64..1e12) {
            let (ta, tb) = (SimTime::from_secs(a), SimTime::from_secs(b));
            prop_assert_eq!(ta.cmp(&tb), a.partial_cmp(&b).unwrap());
            prop_assert_eq!(ta.max(tb).as_secs(), a.max(b));
            prop_assert_eq!(ta.min(tb).as_secs(), a.min(b));
        }
    }
}
