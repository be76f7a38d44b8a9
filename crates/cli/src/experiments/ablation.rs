//! Ablations of DASP's three fixed design choices (DESIGN.md calls these
//! out), each as the modeled A100 FP64 SpMV time across a sweep:
//!
//! * the medium-rows fill `threshold` (paper fixes 0.75),
//! * the `MAX_LEN` long/medium boundary (paper fixes 256),
//! * short-row piecing vs padding everything to length-4 blocks (§3.3.3).

use dasp_core::{DaspMatrix, DaspParams};
use dasp_matgen::{dense_vector, uniform_random_var};
use dasp_perf::{a100, estimate, DeviceModel, Precision};
use dasp_simt::{CountingProbe, KernelStats};
use dasp_sparse::Csr;

/// One point of one sweep.
pub struct Row {
    /// Which design choice is swept: `threshold`, `max_len` or
    /// `short_piecing`.
    pub sweep: &'static str,
    /// The swept parameter's value, as printed.
    pub value: String,
    /// Modeled A100 time of one FP64 SpMV, microseconds.
    pub modeled_us: f64,
    /// Bytes of matrix values read, zero padding included.
    pub bytes_val: u64,
}

/// The experiment result.
pub struct Ablation {
    /// Every sweep point, in sweep order.
    pub rows: Vec<Row>,
    /// Modeled time of padding-only over piecing on the short-row matrix.
    pub piecing_speedup: f64,
}

/// Modeled FP64 time, in seconds, of one DASP SpMV of `csr` converted
/// with `params` on `dev`.
pub fn modeled_time(csr: &Csr<f64>, params: DaspParams, dev: &DeviceModel) -> f64 {
    estimate(&counted(csr, params, dev).1, dev, Precision::Fp64).seconds
}

/// Runs one counted SpMV of `csr` converted with `params`, returning `y`
/// and the kernel counters.
fn counted(csr: &Csr<f64>, params: DaspParams, dev: &DeviceModel) -> (Vec<f64>, KernelStats) {
    let d = DaspMatrix::with_params(csr, params);
    let x = dense_vector(csr.cols, 42);
    let mut probe = CountingProbe::new(dev.l2_cache());
    let y = d.spmv(&x, &mut probe);
    (y, probe.stats())
}

/// One verified sweep point: `y` must match the exact reference.
fn point(sweep: &'static str, value: String, csr: &Csr<f64>, params: DaspParams) -> Row {
    let dev = a100();
    let (y, stats) = counted(csr, params, &dev);
    let want = csr.spmv_reference(&dense_vector(csr.cols, 42));
    for (i, (&a, &b)) in y.iter().zip(&want).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "ablation {sweep}={value} row {i}: got {a} want {b}"
        );
    }
    Row {
        sweep,
        value,
        modeled_us: estimate(&stats, &dev, Precision::Fp64).seconds * 1e6,
        bytes_val: stats.bytes_val,
    }
}

/// The short-row matrix of the piecing sweep: rows of 1..3 nonzeros.
fn short_rows(n: usize) -> Csr<f64> {
    uniform_random_var(n, n, 1, 3, 703)
}

/// Runs the experiment.
pub fn run() -> Ablation {
    let mut rows = Vec::new();

    // Varied medium-row lengths: the trailing 8x4 window of each sorted
    // row-block lands at different fill levels, so the threshold decides
    // how much becomes zero-padded regular blocks vs irregular remainder.
    let csr = uniform_random_var(20_000, 20_000, 6, 40, 701);
    for th in [0.1, 0.3, 0.5, 0.75, 0.9, 1.0] {
        let params = DaspParams {
            max_len: 256,
            threshold: th,
            ..DaspParams::default()
        };
        rows.push(point("threshold", format!("{th:.3}"), &csr, params));
    }

    // Rows spread across 32..768 nonzeros: MAX_LEN decides which are cut
    // into long-row groups vs processed as (very ragged) medium row-blocks.
    let skew = uniform_random_var(5_000, 5_000, 32, 768, 702);
    for ml in [64usize, 128, 256, 512, 1024] {
        let params = DaspParams {
            max_len: ml,
            ..DaspParams::default()
        };
        rows.push(point("max_len", ml.to_string(), &skew, params));
    }

    // Short-row piecing vs plain zero-padding: the paper's §3.3.3 claim
    // that piecing "effectively reduces the data transfer overhead".
    let shorts = short_rows(150_000);
    let [pieced, padded] = [true, false].map(|short_piecing| {
        let params = DaspParams {
            short_piecing,
            ..DaspParams::default()
        };
        point("short_piecing", short_piecing.to_string(), &shorts, params)
    });
    let piecing_speedup = padded.modeled_us / pieced.modeled_us;
    rows.extend([pieced, padded]);
    Ablation {
        rows,
        piecing_speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_row_piecing_moves_fewer_value_bytes_and_models_faster() {
        let shorts = short_rows(20_000);
        let [pieced, padded] = [true, false].map(|short_piecing| {
            let params = DaspParams {
                short_piecing,
                ..DaspParams::default()
            };
            point("short_piecing", short_piecing.to_string(), &shorts, params)
        });
        assert!(
            pieced.bytes_val < padded.bytes_val,
            "piecing read {} value bytes, padding {}",
            pieced.bytes_val,
            padded.bytes_val
        );
        assert!(
            pieced.modeled_us < padded.modeled_us,
            "piecing modeled {} us, padding {} us",
            pieced.modeled_us,
            padded.modeled_us
        );
    }
}
