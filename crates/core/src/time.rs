//! Time points and durations.
//!
//! The paper's constructions use irrational constants (the golden ratio `φ`,
//! `1 + √2/2`, `1 + √(2/3)`), so exact rational arithmetic buys nothing.
//! Instead [`Time`] and [`Dur`] are thin newtypes over `f64` that enforce
//! *finiteness* at construction, which makes a total order sound. All
//! interval logic in this workspace is half-open (`[s, s + p)`), matching the
//! paper's convention, so equality comparisons only ever happen between
//! values produced by identical arithmetic (e.g. a completion event created
//! as `start + length` compared against itself).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in (simulated) time. Finite, totally ordered.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Time(f64);

/// A duration (difference of two [`Time`]s). Finite, totally ordered, may be
/// negative in intermediate arithmetic but job processing lengths are
/// validated to be strictly positive at [`crate::job::Job`] construction.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Dur(f64);

macro_rules! impl_finite_newtype {
    ($name:ident) => {
        impl $name {
            /// The zero value.
            pub const ZERO: $name = $name(0.0);

            /// Wraps a raw `f64`.
            ///
            /// # Panics
            /// Panics if `v` is NaN or infinite; finiteness is the invariant
            /// that makes [`Ord`] sound.
            #[inline]
            #[track_caller]
            pub fn new(v: f64) -> Self {
                assert!(
                    v.is_finite(),
                    concat!(stringify!($name), " must be finite, got {}"),
                    v
                );
                Self(v)
            }

            /// The raw `f64` value.
            #[inline]
            pub fn get(self) -> f64 {
                self.0
            }

            /// Element-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                if self <= other {
                    self
                } else {
                    other
                }
            }

            /// Element-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                if self >= other {
                    self
                } else {
                    other
                }
            }
        }

        impl Eq for $name {}

        #[allow(clippy::derive_ord_xor_partial_ord)]
        impl Ord for $name {
            #[inline]
            fn cmp(&self, other: &Self) -> Ordering {
                // Finiteness is enforced at construction, so partial_cmp is
                // total; the fallback is unreachable but keeps this panic-free.
                self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
            }
        }

        impl PartialOrd for $name {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }

        impl From<f64> for $name {
            #[inline]
            #[track_caller]
            fn from(v: f64) -> Self {
                Self::new(v)
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v as f64)
            }
        }

        impl From<i32> for $name {
            #[inline]
            fn from(v: i32) -> Self {
                Self(v as f64)
            }
        }
    };
}

impl_finite_newtype!(Time);
impl_finite_newtype!(Dur);

impl Time {
    /// Converts a duration measured from the epoch into a time point.
    #[inline]
    pub fn from_dur(d: Dur) -> Time {
        Time(d.0)
    }

    /// The duration from the epoch to this time point.
    #[inline]
    pub fn as_dur(self) -> Dur {
        Dur(self.0)
    }
}

impl Dur {
    /// Ratio of two durations.
    ///
    /// Prefer [`Dur::checked_ratio`] when `other` may legitimately be zero
    /// (e.g. degenerate workloads with equal min/max lengths of zero laxity).
    ///
    /// # Panics
    /// Panics if `other` is zero.
    #[inline]
    #[track_caller]
    pub fn ratio(self, other: Dur) -> f64 {
        match self.checked_ratio(other) {
            Some(r) => r,
            None => panic!("division by zero duration"),
        }
    }

    /// Ratio of two durations, or `None` when `other` is zero (the checked
    /// companion of [`Dur::ratio`]). Use this wherever the denominator comes
    /// from data — e.g. `μ = max/min` over a workload whose minimum length
    /// could be arbitrarily small or a degenerate zero.
    #[inline]
    pub fn checked_ratio(self, other: Dur) -> Option<f64> {
        (other.0 != 0.0).then(|| self.0 / other.0)
    }

    /// Whether this duration is strictly positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 > 0.0
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time::new(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time::new(self.0 - rhs.0)
    }
}

impl SubAssign<Dur> for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        Dur::new(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur::new(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur::new(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Neg for Dur {
    type Output = Dur;
    #[inline]
    fn neg(self) -> Dur {
        Dur::new(-self.0)
    }
}

impl Mul<f64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: f64) -> Dur {
        Dur::new(self.0 * rhs)
    }
}

impl Mul<Dur> for f64 {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: Dur) -> Dur {
        Dur::new(self * rhs.0)
    }
}

impl Div<f64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: f64) -> Dur {
        Dur::new(self.0 / rhs)
    }
}

impl std::iter::Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |acc, d| acc + d)
    }
}

/// Convenience constructor for a [`Time`].
#[inline]
#[track_caller]
pub fn t(v: f64) -> Time {
    Time::new(v)
}

/// Convenience constructor for a [`Dur`].
#[inline]
#[track_caller]
pub fn dur(v: f64) -> Dur {
    Dur::new(v)
}

/// `10^k` for the fast path's decimal places.
const POW10: [f64; 4] = [1.0, 10.0, 100.0, 1000.0];

/// The fast path's bound on `m`: decimals of at most 15 digits
/// (`DBL_DIG`).
const FAST_LIMIT: u64 = 1_000_000_000_000_000;

/// `x` as `±m / 10^k` with `m < 10^15`, `k ≤ 3` and no trailing zero in
/// the `k` decimals, when such a decimal rounds to `x`; `None` otherwise
/// (including NaN and infinities).
///
/// Exactness: `m` and `10^k` are exact in `f64`, so the correctly rounded
/// division `m / 10^k == |x|` proves that the decimal `m·10^-k` rounds to
/// `|x|`. That decimal has at most 15 significant digits, and by
/// `DBL_DIG = 15` no other decimal of at most 15 digits rounds to the
/// same double, so it is `x`'s unique shortest round-trip form: the
/// digits `Display` prints. The candidate `m` only decides the hit rate;
/// the division check decides correctness.
#[inline]
fn fixed_decimal(x: f64) -> Option<(bool, u64, usize)> {
    let a = x.abs();
    let mut k = POW10.len() - 1;
    loop {
        // `as` saturates (NaN → 0), and the check below rejects the
        // candidate then.
        let m = (a * POW10[k] + 0.5) as u64;
        if m < FAST_LIMIT {
            if m as f64 / POW10[k] != a {
                return None;
            }
            let (mut m, mut k) = (m, k);
            while k > 0 && m % 10 == 0 {
                m /= 10;
                k -= 1;
            }
            return Some((x.is_sign_negative(), m, k));
        }
        // Too many digits at this scale; fewer decimals may still fit.
        k = k.checked_sub(1)?;
    }
}

/// Number of decimal digits of `n`.
#[inline]
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Appends the decimal digits of `n`.
#[inline]
pub fn push_u64(out: &mut Vec<u8>, n: u64) {
    push_padded(out, n, digits(n));
}

/// Appends the last `width` decimal digits of `n`, zero-padded.
#[inline]
fn push_padded(out: &mut Vec<u8>, mut n: u64, width: usize) {
    let start = out.len();
    out.resize(start + width, b'0');
    for slot in out[start..].iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
}

/// Appends `x` exactly as `Display` renders it (`format!("{x}")`): the
/// shortest decimal that round-trips, never in exponent form, with the
/// sign of `-0` kept. Values that are `m / 10^k` for `m < 10^15` and
/// `k ≤ 3` (see `fixed_decimal` for why that is exact) are written
/// directly; every other value goes through `core::fmt`.
pub fn push_decimal(out: &mut Vec<u8>, x: f64) {
    let Some((negative, m, k)) = fixed_decimal(x) else {
        use std::io::Write;
        // Writing to a `Vec` cannot fail.
        let _ = write!(out, "{x}");
        return;
    };
    if negative {
        out.push(b'-');
    }
    let scale = 10u64.pow(k as u32);
    push_u64(out, m / scale);
    if k > 0 {
        out.push(b'.');
        push_padded(out, m % scale, k);
    }
}

/// The byte length of `x`'s `Display` rendering, without rendering it
/// when the fast path of [`push_decimal`] applies.
pub fn decimal_len(x: f64) -> u64 {
    match fixed_decimal(x) {
        Some((negative, m, k)) => {
            let int = digits(m / 10u64.pow(k as u32));
            (usize::from(negative) + int + if k > 0 { k + 1 } else { 0 }) as u64
        }
        None => {
            use std::io::Write;
            let mut buf = Vec::new();
            let _ = write!(buf, "{x}");
            buf.len() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_on_finite_values() {
        let a = t(1.0);
        let b = t(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(t(3.5), t(3.5));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_time_rejected() {
        let _ = Time::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn infinite_dur_rejected() {
        let _ = Dur::new(f64::INFINITY);
    }

    #[test]
    fn time_dur_arithmetic_roundtrips() {
        let s = t(5.0);
        let p = dur(3.0);
        let e = s + p;
        assert_eq!(e, t(8.0));
        assert_eq!(e - s, p);
        assert_eq!(e - p, s);
    }

    #[test]
    fn dur_scaling_and_ratio() {
        assert_eq!(dur(3.0) * 2.0, dur(6.0));
        assert_eq!(2.0 * dur(3.0), dur(6.0));
        assert_eq!(dur(6.0) / 2.0, dur(3.0));
        assert!((dur(6.0).ratio(dur(3.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_ratio_panics() {
        let _ = dur(1.0).ratio(Dur::ZERO);
    }

    #[test]
    fn checked_ratio_guards_zero() {
        assert_eq!(dur(1.0).checked_ratio(Dur::ZERO), None);
        assert_eq!(dur(6.0).checked_ratio(dur(3.0)), Some(2.0));
        assert_eq!(Dur::ZERO.checked_ratio(dur(3.0)), Some(0.0));
    }

    #[test]
    fn sum_of_durs() {
        let total: Dur = [dur(1.0), dur(2.5), dur(0.5)].into_iter().sum();
        assert_eq!(total, dur(4.0));
    }

    #[test]
    fn negative_dur_allowed_in_arithmetic() {
        let d = t(1.0) - t(4.0);
        assert_eq!(d, dur(-3.0));
        assert!(!d.is_positive());
        assert_eq!(-d, dur(3.0));
    }

    /// `push_decimal` and `decimal_len` against `Display` on one value.
    fn check_decimal(x: f64) {
        let want = format!("{x}");
        let mut got = Vec::new();
        push_decimal(&mut got, x);
        assert_eq!(
            std::str::from_utf8(&got).unwrap(),
            want,
            "bits {:#018x}",
            x.to_bits()
        );
        assert_eq!(decimal_len(x), want.len() as u64, "{want}");
    }

    /// Random bit patterns (every exponent, NaN and infinities included)
    /// plus, for the fast path, `±m / 10^k` around the `10^15` digit
    /// limit and short decimals at every scale.
    fn sweep_decimal(samples: u64, seed: u64) {
        let mut rng = fjs_prng::SmallRng::seed_from_u64(seed);
        for i in 0..samples {
            check_decimal(f64::from_bits(rng.next_u64()));
            let k = (i % 6) as i32;
            let m = match i % 3 {
                0 => FAST_LIMIT - 1 - rng.next_u64() % 4096,
                1 => FAST_LIMIT + rng.next_u64() % 4096,
                _ => rng.next_u64() % 10u64.pow(1 + (i / 3 % 16) as u32),
            };
            let x = m as f64 / 10f64.powi(k);
            check_decimal(x);
            check_decimal(-x);
        }
    }

    #[test]
    fn decimal_matches_display_on_edge_values() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.001,
            0.0001,
            0.1 + 0.2,
            1e15,
            1e15 - 1.0,
            999_999_999_999.999,
            999_999_999_999_999.9,
            1e16,
            1e21,
            123_456_789_012_345_680.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            check_decimal(x);
        }
        for m in [0u64, 1, 9, 10, 99, 100, 12_345, FAST_LIMIT - 1, FAST_LIMIT] {
            for k in 0..=5 {
                check_decimal(m as f64 / 10f64.powi(k));
            }
        }
        let mut out = Vec::new();
        push_u64(&mut out, 0);
        out.push(b' ');
        push_u64(&mut out, u64::MAX);
        assert_eq!(out, format!("0 {}", u64::MAX).as_bytes());
    }

    #[test]
    fn decimal_matches_display_on_random_values() {
        sweep_decimal(100_000, 0xDEC1_0001);
    }

    /// The long sweep (run in release: `cargo test --release -p fjs-core
    /// decimal -- --ignored`).
    #[test]
    #[ignore]
    fn decimal_matches_display_sweep() {
        sweep_decimal(10_000_000, 0xDEC1_0002);
    }

    #[test]
    fn conversions() {
        assert_eq!(Time::from(3u32), t(3.0));
        assert_eq!(Dur::from(-2i32), dur(-2.0));
        assert_eq!(Time::from_dur(dur(7.0)), t(7.0));
        assert_eq!(t(7.0).as_dur(), dur(7.0));
    }
}
