//! The table decoder and branch-free encoder against the bit-level
//! conversions they replaced, kept below verbatim as the oracle.
//!
//! The two must agree bit for bit. Decoding is checked on all 2^16
//! binary16 patterns: both zeros, every subnormal, both infinities and
//! every NaN payload. Encoding is checked on every f32 that lies on or
//! one ulp either side of a binary16 midpoint (both signs), where the
//! rounding rule decides. Release builds then check all 2^32 f32 bit
//! patterns, split over the host's cores; debug builds, where that would
//! take many minutes, check a strided sweep that visits every f32
//! exponent with both signs instead.

use std::thread;

use dasp_fp16::{f16_bits_to_f32, f32_to_f16_bits};

/// Converts an `f32` to the nearest binary16 bit pattern.
///
/// Rounding is round-to-nearest, ties-to-even. Values whose magnitude exceeds
/// the binary16 maximum (65504) round to infinity; values below the smallest
/// subnormal round to (signed) zero. NaNs map to a quiet NaN that preserves
/// the sign and sets a payload bit so the result stays a NaN.
fn branchy_f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp32 = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;

    if exp32 == 0xff {
        // Infinity or NaN. Force a payload bit for NaN so it stays NaN.
        return if man != 0 {
            sign | 0x7e00
        } else {
            sign | 0x7c00
        };
    }

    // Re-bias the exponent from binary32 (127) to binary16 (15).
    let exp = exp32 - 127 + 15;

    if exp >= 0x1f {
        // Overflow: round to infinity.
        return sign | 0x7c00;
    }

    if exp <= 0 {
        // Result is subnormal (or rounds to zero). The binary16 subnormal
        // lattice is k * 2^-24; shift the 24-bit significand into place.
        if exp < -10 {
            // Magnitude < 2^-25: below half the smallest subnormal => 0.
            // (exp == -10 can still round up to the smallest subnormal.)
            return sign;
        }
        let significand = man | 0x0080_0000; // add the implicit leading 1
        let shift = (14 - exp) as u32; // in 15..=24
        let halfway = 1u32 << (shift - 1);
        let rem = significand & ((1u32 << shift) - 1);
        let mut m = significand >> shift;
        if rem > halfway || (rem == halfway && (m & 1) == 1) {
            m += 1; // may carry into the exponent field: smallest normal, still correct
        }
        return sign | m as u16;
    }

    // Normal range: round the 23-bit mantissa down to 10 bits.
    let rem = man & 0x1fff;
    let mut m = man >> 13;
    let mut e = exp as u32;
    if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
        m += 1;
        if m == 0x400 {
            // Mantissa overflowed into the exponent.
            m = 0;
            e += 1;
            if e >= 0x1f {
                return sign | 0x7c00;
            }
        }
    }
    sign | ((e as u16) << 10) | m as u16
}

/// Converts a binary16 bit pattern to the exactly-equal `f32`.
fn branchy_f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x03ff) as u32;

    if exp == 0x1f {
        // Infinity or NaN; shift the payload up to the binary32 field.
        return f32::from_bits(sign | 0x7f80_0000 | (man << 13));
    }
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign); // signed zero
        }
        // Subnormal: value is man * 2^-24, exact in f32.
        let v = man as f32 * f32::from_bits(0x3380_0000); // 2^-24
        return if sign != 0 { -v } else { v };
    }
    // Normal: re-bias exponent (15 -> 127 is +112) and widen the mantissa.
    f32::from_bits(sign | ((exp as u32 + 112) << 23) | (man << 13))
}

/// Returns the first f32 bit pattern in `bits` the two encoders disagree on.
fn first_encode_mismatch(bits: impl IntoIterator<Item = u32>) -> Option<u32> {
    bits.into_iter().find(|&b| {
        let x = f32::from_bits(b);
        f32_to_f16_bits(x) != branchy_f32_to_f16_bits(x)
    })
}

fn assert_encodes_agree(bits: impl IntoIterator<Item = u32>) {
    if let Some(b) = first_encode_mismatch(bits) {
        let x = f32::from_bits(b);
        panic!(
            "f32 {b:#010x} ({x:e}): encoded {:#06x}, oracle {:#06x}",
            f32_to_f16_bits(x),
            branchy_f32_to_f16_bits(x)
        );
    }
}

#[test]
fn decode_matches_oracle_on_every_pattern() {
    for h in 0..=u16::MAX {
        assert_eq!(
            f16_bits_to_f32(h).to_bits(),
            branchy_f16_bits_to_f32(h).to_bits(),
            "f16 {h:#06x}"
        );
    }
}

#[test]
fn encode_matches_oracle_around_every_midpoint() {
    // The midpoint between two adjacent finite f16 magnitudes is exact in
    // f32 (it needs at most 12 significant bits); 65520 lies between the
    // largest finite value and where the next would be, 65536. Below the
    // smallest subnormal the midpoint with zero is 2^-25.
    let mut bits = Vec::new();
    for h in 0..0x7c00u16 {
        let lo = branchy_f16_bits_to_f32(h) as f64;
        let hi = if h == 0x7bff {
            65536.0
        } else {
            branchy_f16_bits_to_f32(h + 1) as f64
        };
        let mid = ((lo + hi) / 2.0) as f32;
        assert_eq!(mid as f64, (lo + hi) / 2.0, "midpoint above {h:#06x}");
        for b in [mid.to_bits() - 1, mid.to_bits(), mid.to_bits() + 1] {
            bits.extend([b, b | 0x8000_0000]);
        }
    }
    assert_encodes_agree(bits);
}

#[test]
fn encode_matches_oracle() {
    if cfg!(debug_assertions) {
        // Every exponent and sign, 2^16 mantissas each on an odd stride
        // (so both parities of every mantissa bit occur), plus the ends
        // of each binade.
        assert_encodes_agree((0..=0x1ffu32).flat_map(|sign_exp| {
            let base = sign_exp << 23;
            (0..1u32 << 16)
                .map(move |i| base | ((i * 0x7f) & 0x7f_ffff))
                .chain([base, base | 0x7f_ffff])
        }));
    } else {
        // All 2^32 patterns, one contiguous share per core.
        let cores = thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let share = (1u64 << 32).div_ceil(cores);
        thread::scope(|s| {
            let workers: Vec<_> = (0..cores)
                .map(|i| {
                    let lo = i * share;
                    let hi = ((i + 1) * share).min(1 << 32);
                    s.spawn(move || first_encode_mismatch((lo..hi).map(|b| b as u32)))
                })
                .collect();
            for w in workers {
                if let Some(b) = w.join().expect("encode sweep worker panicked") {
                    assert_encodes_agree([b]);
                }
            }
        });
    }
}
