//! Output checks. Every operation the harness times is checked here, and
//! every failed check counts against the run's `failed` total.
//!
//! Numeric results are judged against a rigorous per-row rounding bound,
//! not a hand-picked tolerance: for row `i` with `k_i` stored terms,
//!
//! ```text
//! |y_i - ref_i| <= (γ_{k+1}(u_acc) + γ_{k+1}(u_64)) · s_i · (1 + u_out) + u_out·|ref_i| + η
//! ```
//!
//! where `s_i = Σ_j |a_ij · x_j|`, `γ_n(u) = n·u / (1 - n·u)`, `u_acc` is
//! the unit roundoff of the kernel's accumulator (f64 for FP64 storage,
//! f32 for FP16), `u_64` covers the f64 reference itself, `u_out` the
//! final rounding of `y` to storage precision (0 for FP64, 2^-11 for FP16)
//! and `η` half the smallest subnormal of the storage type.

use dasp_fp16::Scalar;
use dasp_sparse::Csr;

/// `γ_n(u) = n·u / (1 - n·u)`, the classic bound on `n` rounded
/// operations in unit roundoff `u`.
pub fn gamma(n: usize, u: f64) -> f64 {
    let nu = n as f64 * u;
    nu / (1.0 - nu)
}

/// Unit roundoffs for one storage precision: `(u_acc, u_out, eta)`.
fn roundoffs<S: Scalar>() -> (f64, f64, f64) {
    match S::BYTES {
        // FP16 storage: f32 accumulators, y rounded to binary16.
        2 => (2f64.powi(-24), 2f64.powi(-11), 2f64.powi(-25)),
        // FP32 storage: f32 accumulators and f32 y.
        4 => (2f64.powi(-24), 0.0, 2f64.powi(-150)),
        _ => (2f64.powi(-53), 0.0, 2f64.powi(-1075)),
    }
}

/// Checks `y` against the exact-in-f64 reference of `csr · x` within the
/// per-row rounding bound. Returns a description of the first row that
/// breaks it.
pub fn check_product<S: Scalar>(csr: &Csr<S>, x: &[S], y: &[S]) -> Result<(), String> {
    if y.len() != csr.rows {
        return Err(format!("y has {} rows, matrix {}", y.len(), csr.rows));
    }
    let (u_acc, u_out, eta) = roundoffs::<S>();
    let u64_ = 2f64.powi(-53);
    for (i, yi) in y.iter().enumerate() {
        let (lo, hi) = (csr.row_ptr[i], csr.row_ptr[i + 1]);
        let (mut r, mut s) = (0.0f64, 0.0f64);
        for j in lo..hi {
            let p = csr.vals[j].to_f64() * x[csr.col_idx[j] as usize].to_f64();
            r += p;
            s += p.abs();
        }
        let k = hi - lo + 1;
        let bound = (gamma(k, u_acc) + gamma(k, u64_)) * s * (1.0 + u_out) + u_out * r.abs() + eta;
        let err = (yi.to_f64() - r).abs();
        if err.is_nan() || err > bound {
            return Err(format!(
                "row {i}: |y - ref| = {err:e} exceeds bound {bound:e} (ref {r:e}, {} terms)",
                hi - lo
            ));
        }
    }
    Ok(())
}

/// A 64-bit fingerprint of the bit patterns of `v` (word-wise
/// multiply-rotate mixing): equal fingerprints mean bit-identical vectors,
/// up to a ~2^-64 collision.
pub fn fingerprint<S: Scalar>(v: &[S]) -> u64 {
    let mut h = v.len() as u64;
    for x in v {
        h = (h.rotate_left(5) ^ x.to_f64().to_bits()).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h
}

/// Operation and failure tallies of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (timed operations plus untimed cross-checks).
    pub attempted: u64,
    /// Operations that errored, were rejected, or failed a check.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation whose outcome is `r`.
    pub fn record(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{what}: {e}"));
            }
        }
    }

    /// Counts one operation that passes iff `ok`.
    pub fn expect(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.record(what, if ok { Ok(()) } else { Err(detail()) });
    }

    /// Counts one operation whose result must equal `want` bit for bit.
    pub fn same_bits<S: Scalar>(&mut self, what: &str, got: &[S], want: u64) {
        let got = fingerprint(got);
        self.expect(what, got == want, || {
            format!("fingerprint {got:016x} != {want:016x}")
        });
    }

    /// Merges another tally (e.g. from a generator thread).
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_core::DaspMatrix;
    use dasp_fp16::F16;
    use dasp_simt::{Executor, NoProbe};

    fn sample() -> (Csr<f64>, Vec<f64>) {
        let csr = dasp_matgen::circuit_like(600, 3, 300, 7);
        let x = dasp_matgen::dense_vector(csr.cols, 8);
        (csr, x)
    }

    #[test]
    fn dasp_results_pass_at_fp64_and_fp16() {
        let (csr, x) = sample();
        let d = DaspMatrix::from_csr(&csr);
        let y = d.spmv_with(&x, &mut NoProbe, &Executor::seq());
        assert_eq!(check_product(&csr, &x, &y), Ok(()));

        let h: Csr<F16> = csr.cast();
        let xh: Vec<F16> = x.iter().map(|&v| F16::from_f64(v)).collect();
        let yh = DaspMatrix::from_csr(&h).spmv_with(&xh, &mut NoProbe, &Executor::seq());
        assert_eq!(check_product(&h, &xh, &yh), Ok(()));
    }

    #[test]
    fn planted_wrong_output_is_counted_as_failed() {
        let (csr, x) = sample();
        let d = DaspMatrix::from_csr(&csr);
        let mut y = d.spmv_with(&x, &mut NoProbe, &Executor::seq());
        let good = fingerprint(&y);
        let mut tally = Tally::default();
        tally.record("spmv", check_product(&csr, &x, &y));
        tally.same_bits("spmv", &y, good);
        assert_eq!((tally.attempted, tally.failed), (2, 0));

        // One row off by far less than a percent, but far more than the
        // rounding bound allows.
        let row = csr.rows / 2;
        y[row] += 1e-9 * (1.0 + y[row].abs());
        tally.record("spmv", check_product(&csr, &x, &y));
        tally.same_bits("spmv", &y, good);
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert!(
            tally.notes[0].contains(&format!("row {row}")),
            "{:?}",
            tally.notes
        );
    }

    #[test]
    fn bound_grows_with_row_length() {
        assert!(gamma(10, 2f64.powi(-53)) < gamma(100, 2f64.powi(-53)));
    }
}
