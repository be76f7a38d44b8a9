//! The [`F16`] storage type.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::convert::{f16_bits_to_f32, f32_to_f16_bits};

/// An IEEE-754 binary16 floating-point number.
///
/// `F16` is a pure storage type: arithmetic converts to `f32`, operates, and
/// rounds back to binary16, which matches the behaviour of scalar
/// half-precision units. Conversion from `f32` is correctly rounded
/// (round-to-nearest, ties-to-even); conversion from `f64` goes through
/// `f32` and so rounds twice (see [`F16::from_f64`]); conversions to
/// `f32` and `f64` are exact.
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3c00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xbc00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7e00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7bff);
    /// Most negative finite value, -65504.
    pub const MIN: F16 = F16(0xfbff);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, 2^-24.
    pub const MIN_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon: the difference between 1.0 and the next value, 2^-10.
    pub const EPSILON: F16 = F16(0x1400);

    /// Creates an `F16` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with correct rounding.
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        F16(f32_to_f16_bits(x))
    }

    /// Converts from `f64`, rounding twice.
    ///
    /// The value is first rounded to `f32` and then to binary16, each time
    /// to nearest, ties to even. That double rounding differs from rounding
    /// the `f64` to binary16 directly when the `f32` rounding lands exactly
    /// on a binary16 tie that the `f64` value was not on: `1 + 2^-11 +
    /// 2^-40` is just above the tie between 1 and `1 + 2^-10`, so it rounds
    /// up directly, but its `f32` rounding is the tie itself, which rounds
    /// to the even 1.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        F16(f32_to_f16_bits(x as f32))
    }

    /// Converts to `f32`, exactly.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Converts to `f64`, exactly.
    #[inline]
    pub fn to_f64(self) -> f64 {
        f16_bits_to_f32(self.0) as f64
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x03ff) != 0
    }

    /// Returns `true` if this value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7fff) == 0x7c00
    }

    /// Returns `true` if this value is neither NaN nor infinite.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7c00) != 0x7c00
    }

    /// Returns `true` for subnormal values (non-zero, exponent field 0).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7c00) == 0 && (self.0 & 0x03ff) != 0
    }

    /// Returns `true` for positive or negative zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & 0x7fff) == 0
    }

    /// Returns `true` if the sign bit is set (including -0.0 and NaNs with
    /// the sign bit set).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & 0x8000) != 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & 0x7fff)
    }

    /// Square root, computed in `f32` and rounded once.
    #[inline]
    pub fn sqrt(self) -> Self {
        F16::from_f32(self.to_f32().sqrt())
    }

    /// Reciprocal, computed in `f32` and rounded once.
    #[inline]
    pub fn recip(self) -> Self {
        F16::from_f32(self.to_f32().recip())
    }

    /// The smaller of two values; NaN loses against any number (matching
    /// `f32::min`).
    #[inline]
    pub fn min(self, other: F16) -> Self {
        F16::from_f32(self.to_f32().min(other.to_f32()))
    }

    /// The larger of two values; NaN loses against any number.
    #[inline]
    pub fn max(self, other: F16) -> Self {
        F16::from_f32(self.to_f32().max(other.to_f32()))
    }

    /// Clamps into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: F16, hi: F16) -> Self {
        self.max(lo).min(hi)
    }

    /// A total order over all bit patterns (IEEE `totalOrder`), usable as a
    /// sort key where `partial_cmp` falls short: -NaN < -inf < ... <
    /// -0 < +0 < ... < +inf < +NaN.
    #[inline]
    pub fn total_cmp(&self, other: &F16) -> core::cmp::Ordering {
        // Flip the representation so two's-complement ordering matches the
        // numeric order (the classic trick used by f32::total_cmp).
        let key = |h: u16| -> i16 {
            let bits = h as i16;
            bits ^ (((bits >> 15) as u16) >> 1) as i16
        };
        key(self.0).cmp(&key(other.0))
    }

    /// Multiply-add computed in `f32`: `self * a + b`, rounded twice.
    ///
    /// The product of two binary16 values is exact in `f32`. The sum is
    /// rounded to `f32`, and that result is rounded again to binary16, so
    /// this is not a fused multiply-add: when the `f32` sum lands exactly
    /// on a binary16 tie the exact sum was not on, the result can differ
    /// from rounding `self * a + b` once.
    #[inline]
    pub fn mul_add(self, a: F16, b: F16) -> Self {
        F16::from_f32(self.to_f32() * a.to_f32() + b.to_f32())
    }
}

impl PartialEq for F16 {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        // +0 == -0
        if self.is_zero() && other.is_zero() {
            return true;
        }
        self.0 == other.0
    }
}

impl PartialOrd for F16 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for F16 {
            #[inline]
            fn $assign_method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, +);
impl_binop!(Sub, sub, SubAssign, sub_assign, -);
impl_binop!(Mul, mul, MulAssign, mul_assign, *);
impl_binop!(Div, div, DivAssign, div_assign, /);

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl From<f32> for F16 {
    #[inline]
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    #[inline]
    fn from(x: F16) -> Self {
        x.to_f32()
    }
}

impl From<F16> for f64 {
    #[inline]
    fn from(x: F16) -> Self {
        x.to_f64()
    }
}

impl core::str::FromStr for F16 {
    type Err = core::num::ParseFloatError;
    /// Parses through `f32` and rounds once to binary16.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(F16::from_f32(s.parse::<f32>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 6.103_515_6e-5);
        assert_eq!(F16::EPSILON.to_f32(), 9.765_625e-4);
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(!F16::INFINITY.is_finite());
    }

    #[test]
    fn arithmetic_rounds_like_hardware() {
        let a = F16::from_f32(1.0);
        let eps_half = F16::from_f32(4.8828125e-4); // 2^-11, half of F16 epsilon
                                                    // 1.0 + 2^-11 rounds back to 1.0 (tie to even).
        assert_eq!(a + eps_half, a);
        // 1.0 + 2^-10 is exactly representable.
        let next = F16::from_bits(0x3c01);
        assert_eq!(a + F16::EPSILON, next);
        assert_eq!(F16::from_f32(3.0) * F16::from_f32(0.5), F16::from_f32(1.5));
        assert_eq!(
            F16::from_f32(1.0) / F16::from_f32(3.0),
            F16::from_f32(1.0 / 3.0)
        );
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(F16::MAX + F16::MAX, F16::INFINITY);
        assert_eq!(F16::MIN + F16::MIN, F16::NEG_INFINITY);
        assert_eq!(F16::MAX * F16::from_f32(2.0), F16::INFINITY);
    }

    #[test]
    fn zeros_compare_equal() {
        assert_eq!(F16::ZERO, -F16::ZERO);
        assert_ne!(F16::NAN, F16::NAN);
        assert!(F16::from_f32(-0.0).is_sign_negative());
    }

    #[test]
    fn ordering_follows_f32() {
        let mut vals: Vec<F16> = [-3.0f32, 2.5, 0.0, -0.5, 100.0]
            .iter()
            .map(|&v| F16::from_f32(v))
            .collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let back: Vec<f32> = vals.iter().map(|v| v.to_f32()).collect();
        assert_eq!(back, vec![-3.0, -0.5, 0.0, 2.5, 100.0]);
    }

    #[test]
    fn neg_flips_only_the_sign_bit() {
        for bits in [0x0000u16, 0x3c00, 0x7bff, 0x0001, 0x7c00] {
            let v = F16::from_bits(bits);
            assert_eq!((-v).to_bits(), bits ^ 0x8000);
        }
    }

    #[test]
    fn mul_add_rounds_the_f32_sum_then_to_f16() {
        // 255.875 * 1 + 0.0625: the product is exact, the sum 255.9375 needs
        // rounding once, to binary16.
        let a = F16::from_f32(255.875);
        let b = F16::ONE;
        let c = F16::from_f32(0.0625);
        let fused = a.mul_add(b, c);
        assert_eq!(fused.to_f32(), (255.875f32 + 0.0625).round_ties_even_like());

        // 1.5 * (1 + 2^-10) - 2^-24: the product 1.5 + 3 * 2^-11 is exact in
        // f32 and is the binary16 tie between 0x3e01 and 0x3e02. The exact
        // result lies 2^-24 below that tie, so rounding once gives 0x3e01.
        // But 2^-24 is half an f32 ulp here, so the f32 sum rounds (to
        // even) back onto the tie, which then rounds to the even 0x3e02.
        let a = F16::from_bits(0x3e00);
        let b = F16::from_bits(0x3c01);
        let c = -F16::MIN_SUBNORMAL;
        assert_eq!(a.to_f32() * b.to_f32() + c.to_f32(), 1.5 + 3.0 / 2048.0);
        assert_eq!(a.mul_add(b, c).to_bits(), 0x3e02);
    }

    #[test]
    fn from_f64_rounds_through_f32() {
        // 1 + 2^-11 + 2^-40 is just above the binary16 tie 1 + 2^-11, so
        // rounding it once to binary16 would give 1 + 2^-10 (0x3c01). Its
        // f32 rounding is the tie itself, which rounds to the even 1.0.
        let x = 1.0 + 2f64.powi(-11) + 2f64.powi(-40);
        assert_eq!(x as f32, 1.0 + 2f32.powi(-11));
        assert_eq!(F16::from_f64(x).to_bits(), 0x3c00);
        assert_eq!(F16::from_f64(x + 2f64.powi(-24)).to_bits(), 0x3c01);
    }

    trait RoundTiesEvenLike {
        fn round_ties_even_like(self) -> f32;
    }
    impl RoundTiesEvenLike for f32 {
        fn round_ties_even_like(self) -> f32 {
            F16::from_f32(self).to_f32()
        }
    }

    #[test]
    fn sqrt_recip_and_minmax() {
        assert_eq!(F16::from_f32(9.0).sqrt().to_f32(), 3.0);
        assert_eq!(F16::from_f32(4.0).recip().to_f32(), 0.25);
        assert!(F16::from_f32(-1.0).sqrt().is_nan());
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(-2.0);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        // NaN loses
        assert_eq!(F16::NAN.min(a), a);
        assert_eq!(F16::NAN.max(a), a);
        assert_eq!(a.clamp(F16::ZERO, F16::ONE), F16::ONE);
    }

    #[test]
    fn total_cmp_orders_all_classes() {
        let seq = [
            F16::NEG_INFINITY,
            F16::MIN,
            -F16::ONE,
            -F16::MIN_SUBNORMAL,
            F16::from_f32(-0.0),
            F16::ZERO,
            F16::MIN_SUBNORMAL,
            F16::ONE,
            F16::MAX,
            F16::INFINITY,
            F16::NAN,
        ];
        for w in seq.windows(2) {
            assert!(
                w[0].total_cmp(&w[1]) == core::cmp::Ordering::Less,
                "{:?} !< {:?}",
                w[0],
                w[1]
            );
        }
        // -NaN sorts below everything.
        let neg_nan = F16::from_bits(0xfe00);
        assert_eq!(
            neg_nan.total_cmp(&F16::NEG_INFINITY),
            core::cmp::Ordering::Less
        );
    }

    #[test]
    fn parses_from_strings() {
        assert_eq!("1.5".parse::<F16>().unwrap(), F16::from_f32(1.5));
        assert_eq!("-0.25".parse::<F16>().unwrap(), F16::from_f32(-0.25));
        assert!("inf".parse::<F16>().unwrap().is_infinite());
        assert!("bogus".parse::<F16>().is_err());
        // Display round-trips for exactly representable values.
        let v = F16::from_f32(3.25);
        assert_eq!(v.to_string().parse::<F16>().unwrap(), v);
    }

    #[test]
    fn subnormal_classification() {
        assert!(F16::MIN_SUBNORMAL.is_subnormal());
        assert!(!F16::MIN_POSITIVE.is_subnormal());
        assert!(!F16::ZERO.is_subnormal());
        assert!(F16::MIN_SUBNORMAL.is_finite());
    }
}
