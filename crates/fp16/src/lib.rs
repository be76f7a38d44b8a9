//! Software IEEE-754 binary16 ("half precision") arithmetic and the [`Scalar`]
//! abstraction shared by every SpMV kernel in the DASP reproduction.
//!
//! The DASP paper evaluates SpMV in both FP64 and FP16 precision, using the
//! GPU's native half-precision tensor cores for the latter. Rust has no
//! built-in `f16` on stable, and this reproduction deliberately avoids
//! third-party numeric crates, so this crate implements binary16 from
//! scratch:
//!
//! * [`F16`] — a 16-bit storage type with a correctly-rounded (round to
//!   nearest, ties to even) conversion from `f32`, a conversion from `f64`
//!   that rounds through `f32`, exact conversions to `f32`/`f64`, full
//!   arithmetic operators (computed in `f32`, as GPU half-precision ALUs
//!   effectively do for fused sequences), and the usual classification
//!   predicates.
//! * [`f32_to_f16_bits`] / [`f16_bits_to_f32`] — the two conversions on raw
//!   bit patterns that everything above goes through. Each runs at least
//!   once per nonzero in an FP16 SpMV, so both inline into the caller: the
//!   decode is one load from a 64 Ki-entry table built at compile time
//!   (256 KiB of read-only data), the encode rounds to nearest even without
//!   a data-dependent branch. `tests/convert_oracle.rs` checks both bit for
//!   bit against the branchy bit-level conversions they replaced, on every
//!   binary16 pattern and, in release builds, every `f32` pattern.
//! * [`Scalar`] — the numeric abstraction the kernels are generic over. It
//!   separates the *storage* type (what lives in the matrix arrays, and what
//!   gets counted as memory traffic) from the *accumulator* type used inside
//!   the MMA unit (`f64` for FP64, `f32` for FP16 — mirroring how real HMMA
//!   instructions accumulate in a wider format).
//!
//! # Example
//!
//! ```
//! use dasp_fp16::{F16, Scalar};
//!
//! let a = F16::from_f32(1.5);
//! let b = F16::from_f32(2.0);
//! assert_eq!((a * b).to_f32(), 3.0);
//!
//! // The Scalar abstraction, as the kernels use it:
//! let acc = <F16 as Scalar>::mul_to_acc(a, b); // f32 accumulator
//! assert_eq!(acc, 3.0f32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod f16;
mod scalar;

pub use convert::{f16_bits_to_f32, f32_to_f16_bits};
pub use f16::F16;
pub use scalar::Scalar;
