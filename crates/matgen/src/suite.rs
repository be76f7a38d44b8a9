//! The fixed four-class matrix set shared by the benchmark suite, the
//! observatory snapshots and the verifier's corpus test.

use dasp_sparse::Csr;

/// The representative workload set: one matrix per structural class, big
/// enough to be in the paper's bandwidth-bound regime but small enough to
/// time many repetitions of.
pub fn bench_matrices() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        ("banded", crate::banded(20_000, 40, 24, 901)),
        ("stencil", crate::stencil2d(180, 180, 5, 902)),
        ("rmat", crate::rmat(14, 8, 903)),
        ("circuit", crate::circuit_like(30_000, 6, 4000, 904)),
    ]
}

/// The observatory suite's workload matrices: the same four structural
/// classes as [`bench_matrices`], at full size (`quick == false`) or
/// scaled down (`quick == true`) for CI runs and the committed
/// `BENCH_*.json` trajectory, where wall-clock budget matters more than
/// the bandwidth-bound regime. Class names are identical across the two
/// profiles so snapshot workload ids stay comparable; only the noise on a
/// given machine decides which profile a diff should compare.
pub fn suite_matrices(quick: bool) -> Vec<(&'static str, Csr<f64>)> {
    if quick {
        vec![
            ("banded", crate::banded(2_000, 24, 16, 901)),
            ("stencil", crate::stencil2d(48, 48, 5, 902)),
            ("rmat", crate::rmat(10, 8, 903)),
            ("circuit", crate::circuit_like(3_000, 6, 400, 904)),
        ]
    } else {
        bench_matrices()
    }
}
