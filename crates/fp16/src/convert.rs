//! Bit-level conversions between binary32 and binary16.
//!
//! `f32 -> f16` rounds to nearest, ties to even, including the subnormal
//! range; `f16 -> f32` is exact (every binary16 value is representable in
//! binary32). Both sit on the hot path of every FP16 kernel (the decode
//! twice per nonzero, the encode once per output row), so both are built
//! to inline into the caller without data-dependent branches:
//!
//! * decoding is one load from a 64 Ki-entry table of `f32` bit patterns
//!   (256 KiB of read-only data), filled at compile time by a `const fn`
//!   that decodes each pattern on its IEEE-754 bit fields;
//! * encoding branches only on the magnitude class of the input (NaN or
//!   infinity or overflow, f16 subnormal, f16 normal), which is stable
//!   across a matrix, and rounds with integer or FP arithmetic instead of
//!   comparing the discarded bits against the halfway point.

/// Converts an `f32` to the nearest binary16 bit pattern.
///
/// Rounding is round-to-nearest, ties-to-even. Values whose magnitude exceeds
/// the binary16 maximum (65504) round to infinity; values below the smallest
/// subnormal round to (signed) zero. NaNs map to a quiet NaN that preserves
/// the sign and sets a payload bit so the result stays a NaN.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    let mag = if abs >= 0x4780_0000 {
        // |x| >= 65536, infinity or NaN. NaN gets a payload bit so it
        // stays NaN.
        if abs > 0x7f80_0000 {
            0x7e00
        } else {
            0x7c00
        }
    } else if abs >= 0x3880_0000 {
        // |x| >= 2^-14, an f16 normal. Adding 0xc800_0000 re-biases the
        // exponent (127 -> 15, i.e. subtracts 112 << 23). Adding 0xfff plus
        // the lowest kept mantissa bit before dropping the 13 low bits
        // rounds to nearest, ties to even: only a tie with an odd kept bit,
        // or anything above a tie, carries into bit 13. A carry out of the
        // mantissa moves up the exponent, ending at 0x7c00 (infinity) from
        // 65520 on.
        let odd = (abs >> 13) & 1;
        (abs.wrapping_add(0xc800_0fff).wrapping_add(odd) >> 13) as u16
    } else {
        // |x| < 2^-14: the result is an f16 subnormal k * 2^-24 (k = 1024
        // is the smallest normal, reached by carry). In 0.5 + |x| the
        // f32 lattice spacing is exactly 2^-24, so the FP add itself
        // rounds |x| to nearest, ties to even (the default FP environment,
        // which Rust assumes), and leaves k in the low mantissa bits of the
        // sum.
        ((f32::from_bits(abs) + 0.5).to_bits() - 0x3f00_0000) as u16
    };
    sign | mag
}

/// Converts a binary16 bit pattern to the exactly-equal `f32`.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    f32::from_bits(F16_TO_F32_BITS[h as usize])
}

/// `f32` bit pattern of every binary16 bit pattern, indexed by the latter.
static F16_TO_F32_BITS: [u32; 1 << 16] = {
    let mut table = [0u32; 1 << 16];
    let mut h = 0;
    while h < table.len() {
        table[h] = decode_bits(h as u16);
        h += 1;
    }
    table
};

/// Decodes one binary16 bit pattern on its bit fields; fills the table.
const fn decode_bits(h: u16) -> u32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x03ff) as u32;

    if exp == 0x1f {
        // Infinity or NaN; shift the payload up to the binary32 field.
        return sign | 0x7f80_0000 | (man << 13);
    }
    if exp == 0 {
        if man == 0 {
            return sign; // signed zero
        }
        // Subnormal: value is man * 2^-24, exact in f32.
        let v = man as f32 * f32::from_bits(0x3380_0000); // 2^-24
        return sign | v.to_bits();
    }
    // Normal: re-bias exponent (15 -> 127 is +112) and widen the mantissa.
    sign | ((exp as u32 + 112) << 23) | (man << 13)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values_round_trip() {
        let cases: &[(f32, u16)] = &[
            (0.0, 0x0000),
            (-0.0, 0x8000),
            (1.0, 0x3c00),
            (-1.0, 0xbc00),
            (2.0, 0x4000),
            (0.5, 0x3800),
            (65504.0, 0x7bff), // largest finite f16
            (-65504.0, 0xfbff),
            (f32::INFINITY, 0x7c00),
            (f32::NEG_INFINITY, 0xfc00),
            (6.103_515_6e-5, 0x0400), // smallest normal, 2^-14
            (5.960_464_5e-8, 0x0001), // smallest subnormal, 2^-24
            (0.333_251_95, 0x3555),   // nearest f16 to 1/3
        ];
        for &(f, bits) in cases {
            assert_eq!(f32_to_f16_bits(f), bits, "encoding {f}");
            assert_eq!(f16_bits_to_f32(bits), f, "decoding {bits:#06x}");
        }
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        // Halfway point between 65504 (max) and 65536 ("next" value) is
        // 65520; at and above it, round-to-nearest-even gives infinity.
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00);
        assert_eq!(f32_to_f16_bits(65519.996), 0x7bff);
        assert_eq!(f32_to_f16_bits(1e30), 0x7c00);
        assert_eq!(f32_to_f16_bits(-1e30), 0xfc00);
    }

    #[test]
    fn underflow_rounds_to_zero() {
        // Half the smallest subnormal is 2^-25; exactly there, ties-to-even
        // rounds to zero. Just above, it rounds up to the smallest subnormal.
        let half_min = f32::from_bits(0x3300_0000); // 2^-25
        assert_eq!(f32_to_f16_bits(half_min), 0x0000);
        assert_eq!(f32_to_f16_bits(half_min * 1.0001), 0x0001);
        assert_eq!(f32_to_f16_bits(-half_min), 0x8000);
        assert_eq!(f32_to_f16_bits(1e-20), 0x0000);
    }

    #[test]
    fn nan_is_preserved() {
        let enc = f32_to_f16_bits(f32::NAN);
        assert_eq!(enc & 0x7c00, 0x7c00);
        assert_ne!(enc & 0x03ff, 0);
        assert!(f16_bits_to_f32(enc).is_nan());
        assert!(f16_bits_to_f32(0x7c01).is_nan());
        assert!(f16_bits_to_f32(0xfe00).is_nan());
    }

    #[test]
    fn ties_round_to_even_mantissa() {
        // 1 + 2^-11 is exactly halfway between 1.0 (even mantissa) and
        // 1 + 2^-10; it must round down to 1.0.
        let tie = 1.0 + f32::from_bits(0x3a00_0000); // 1 + 2^-11
        assert_eq!(f32_to_f16_bits(tie), 0x3c00);
        // (1 + 2^-10) + 2^-11 is halfway between odd-mantissa 0x3c01 and
        // even-mantissa 0x3c02; it must round up.
        let tie_up = 1.0 + 3.0 * f32::from_bits(0x3a00_0000);
        assert_eq!(f32_to_f16_bits(tie_up), 0x3c02);
    }

    #[test]
    fn exhaustive_bits_round_trip_through_f32() {
        // Every non-NaN f16 bit pattern must survive a trip through f32.
        for h in 0..=u16::MAX {
            let f = f16_bits_to_f32(h);
            if f.is_nan() {
                assert!(f16_bits_to_f32(f32_to_f16_bits(f)).is_nan());
            } else {
                assert_eq!(f32_to_f16_bits(f), h, "bit pattern {h:#06x}");
            }
        }
    }

    #[test]
    fn exhaustive_rounding_is_correct() {
        // For every pair of adjacent finite positive f16 values, probe the
        // interval between them: below the midpoint rounds down, above it
        // rounds up, and exactly at it we round to the even mantissa.
        for h in 0..0x7bff_u16 {
            let lo = f16_bits_to_f32(h) as f64;
            let hi = f16_bits_to_f32(h + 1) as f64;
            let mid = (lo + hi) / 2.0;
            let below = (mid - (hi - lo) * 0.01) as f32;
            let above = (mid + (hi - lo) * 0.01) as f32;
            assert_eq!(f32_to_f16_bits(below), h, "below midpoint of {h:#06x}");
            assert_eq!(f32_to_f16_bits(above), h + 1, "above midpoint of {h:#06x}");
            // The midpoint itself is exactly representable in f32 for all
            // f16 intervals, so the tie rule is observable.
            let even = if h & 1 == 0 { h } else { h + 1 };
            assert_eq!(f32_to_f16_bits(mid as f32), even, "tie at {h:#06x}");
        }
    }
}
