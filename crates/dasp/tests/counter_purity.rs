//! The counter-purity contract of [`CountingProbe`]: a fresh probe's
//! [`KernelStats`] (and, for SpMM, its [`PanelTraffic`]) depend on the
//! sparsity pattern, format parameters, right-hand-side width, executor and
//! cache geometry only — never on the matrix values or the contents of `x`.
//!
//! `dasp-serve` memoizes each resident matrix's modeled batch time on this
//! invariant: it counts the first batch of each width and runs the rest
//! uninstrumented, including after value refreshes. Each case builds two
//! matrices on one random pattern with independent random values, runs
//! both against independent random inputs, and requires the counters to be
//! bit-equal.

use dasp_core::{DaspMatrix, DaspParams};
use dasp_fp16::{Scalar, F16};
use dasp_simt::{CountingProbe, Executor, KernelStats, PanelTraffic, ParExecutor};
use dasp_sparse::{Coo, Csr, DenseMat};
use dasp_trace::Tracer;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The batch widths the server coalesces to, plus a multi-panel width.
const WIDTHS: [usize; 5] = [1, 2, 3, 8, 20];

/// A parallel executor that always threads, even on tiny grids.
fn forced_par() -> Executor {
    Executor::Par(
        ParExecutor::new()
            .with_threads(Some(2))
            .with_seq_threshold(0),
    )
}

/// A random pattern with a steerable short/medium/long row-length mix, so
/// every DASP kernel runs. Values are placeholders; see [`revalue`].
fn random_pattern(rows: usize, cols: usize, mix: (u32, u32, u32), seed: u64) -> Csr<f64> {
    let (short_w, medium_w, long_w) = mix;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, cols);
    let total = (short_w + medium_w + long_w).max(1);
    for r in 0..rows {
        let dice = rng.gen_range(0..total);
        let len = if dice < short_w {
            rng.gen_range(0..=4usize)
        } else if dice < short_w + medium_w {
            rng.gen_range(5..=256usize)
        } else {
            rng.gen_range(257..=600usize)
        };
        let mut cs: Vec<usize> = Vec::with_capacity(len.min(cols));
        while cs.len() < len.min(cols) {
            let c = rng.gen_range(0..cols);
            if !cs.contains(&c) {
                cs.push(c);
            }
        }
        for c in cs {
            coo.push(r, c, 1.0);
        }
    }
    coo.to_csr()
}

/// `csr`'s pattern with fresh nonzero values drawn from `seed`.
fn revalue<S: Scalar>(csr: &Csr<f64>, seed: u64) -> Csr<S> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out: Csr<S> = csr.cast();
    for v in out.vals.iter_mut() {
        let mag = rng.gen_range(0.25..4.0);
        *v = S::from_f64(if rng.gen_bool(0.5) { mag } else { -mag });
    }
    out
}

fn random_vector<S: Scalar>(n: usize, rng: &mut SmallRng) -> Vec<S> {
    (0..n)
        .map(|_| S::from_f64(rng.gen_range(-2.0..2.0)))
        .collect()
}

/// What a fresh probe records for one call.
type Counters = (KernelStats, Option<PanelTraffic>);

/// Counters of one single-vector SpMV and of one `spmv_batch` per width in
/// [`WIDTHS`], each under a fresh probe.
fn counters<S: Scalar>(m: &DaspMatrix<S>, seed: u64, exec: &Executor) -> Vec<Counters> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let x = random_vector::<S>(m.cols, &mut rng);
    let mut p = CountingProbe::a100();
    m.spmv_with(&x, &mut p, exec);
    out.push((p.stats(), p.panel_traffic().cloned()));

    let (mut b, mut y) = (DenseMat::zeros(0, 0), DenseMat::zeros(0, 0));
    for w in WIDTHS {
        let xs: Vec<Vec<S>> = (0..w).map(|_| random_vector(m.cols, &mut rng)).collect();
        let cols: Vec<&[S]> = xs.iter().map(Vec::as_slice).collect();
        let mut p = CountingProbe::a100();
        m.spmv_batch_into_traced_with(&cols, &mut b, &mut y, &mut p, &Tracer::disabled(), exec);
        out.push((p.stats(), p.panel_traffic().cloned()));
    }
    out
}

/// Two value sets and two input sets on one pattern give bit-equal
/// counters, under both executors and both reorder settings.
fn assert_pure<S: Scalar>(pattern: &Csr<f64>, seed: u64) {
    for reorder in [false, true] {
        let params = DaspParams {
            reorder,
            ..DaspParams::default()
        };
        let a = DaspMatrix::with_params(&revalue::<S>(pattern, seed), params);
        let b = DaspMatrix::with_params(&revalue::<S>(pattern, seed ^ 0xB0B), params);
        for exec in [Executor::seq(), forced_par()] {
            let ca = counters(&a, seed ^ 0x11, &exec);
            let cb = counters(&b, seed ^ 0x22, &exec);
            for (i, (x, y)) in ca.iter().zip(&cb).enumerate() {
                let call = match i {
                    0 => "spmv".to_string(),
                    i => format!("spmv_batch width {}", WIDTHS[i - 1]),
                };
                assert_eq!(
                    x.0, y.0,
                    "{call} (reorder {reorder}): stats moved with data"
                );
                assert_eq!(x.1, y.1, "{call} (reorder {reorder}): panel traffic moved");
                if i > 1 {
                    assert!(x.1.is_some(), "{call}: SpMM must report panel traffic");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fp64_counters_ignore_values_and_x(
        rows in 1usize..120,
        cols in 601usize..900,
        short_w in 0u32..10,
        medium_w in 0u32..10,
        long_w in 0u32..3,
        seed in any::<u64>(),
    ) {
        let pattern = random_pattern(rows, cols, (short_w, medium_w, long_w), seed);
        assert_pure::<f64>(&pattern, seed);
    }

    #[test]
    fn fp32_counters_ignore_values_and_x(
        rows in 1usize..100,
        short_w in 0u32..8,
        medium_w in 0u32..8,
        long_w in 0u32..3,
        seed in any::<u64>(),
    ) {
        let pattern = random_pattern(rows, 700, (short_w, medium_w, long_w), seed);
        assert_pure::<f32>(&pattern, seed);
    }

    #[test]
    fn fp16_counters_ignore_values_and_x(
        rows in 1usize..100,
        short_w in 0u32..8,
        medium_w in 0u32..8,
        long_w in 0u32..3,
        seed in any::<u64>(),
    ) {
        let pattern = random_pattern(rows, 700, (short_w, medium_w, long_w), seed);
        assert_pure::<F16>(&pattern, seed);
    }
}
