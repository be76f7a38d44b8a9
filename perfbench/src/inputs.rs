//! Seeded workload inputs. One `--seed` drives every generator here: the
//! matrices (through `dasp_matgen`), the x vectors, the admission stream
//! and the serve schedule. The program under test only ever sees the
//! generated inputs.

use dasp_fp16::Scalar;
use dasp_sparse::{Coo, Csr};

/// SplitMix64: a small, well-mixed seeded stream for schedule decisions.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(mix(seed, salt))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for one generator call, derived from the run seed and a salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut r = Rng(seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93));
    r.next_u64()
}

/// A seeded x vector in `[-1, 1)`, converted to storage precision.
pub fn vector<S: Scalar>(n: usize, seed: u64, salt: u64) -> Vec<S> {
    dasp_matgen::dense_vector(n, mix(seed, salt))
        .into_iter()
        .map(S::from_f64)
        .collect()
}

/// The four structural classes of `dasp_bench::bench_matrices()` at the
/// same sizes (banded 480k nnz, stencil 161k, rmat ~120k, circuit ~112k).
/// Seed 0 reproduces `bench_matrices()` exactly; other seeds redraw each
/// class's random structure and values.
pub fn steady_matrices(seed: u64) -> Vec<(&'static str, Csr<f64>)> {
    let s = seed.wrapping_mul(1000);
    vec![
        (
            "banded",
            dasp_matgen::banded(20_000, 40, 24, s.wrapping_add(901)),
        ),
        (
            "stencil",
            dasp_matgen::stencil2d(180, 180, 5, s.wrapping_add(902)),
        ),
        ("rmat", dasp_matgen::rmat(14, 8, s.wrapping_add(903))),
        (
            "circuit",
            dasp_matgen::circuit_like(30_000, 6, 4000, s.wrapping_add(904)),
        ),
    ]
}

/// The three quick-suite matrices the serving workload keeps resident
/// (the observatory's `--quick` banded, rmat and circuit classes).
pub fn serve_matrices(seed: u64) -> Vec<(&'static str, Csr<f64>)> {
    let s = seed.wrapping_mul(1000);
    vec![
        (
            "banded",
            dasp_matgen::banded(2_000, 24, 16, s.wrapping_add(901)),
        ),
        ("rmat", dasp_matgen::rmat(10, 8, s.wrapping_add(903))),
        (
            "circuit",
            dasp_matgen::circuit_like(3_000, 6, 400, s.wrapping_add(904)),
        ),
    ]
}

/// The 5-point 2-D Laplacian on an `n x n` grid (4 on the diagonal, -1 to
/// each grid neighbour): symmetric positive definite.
pub fn laplacian2d(n: usize) -> Csr<f64> {
    let mut coo = Coo::new(n * n, n * n);
    for i in 0..n {
        for j in 0..n {
            let r = i * n + j;
            if i > 0 {
                coo.push(r, r - n, -1.0);
            }
            if j > 0 {
                coo.push(r, r - 1, -1.0);
            }
            coo.push(r, r, 4.0);
            if j + 1 < n {
                coo.push(r, r + 1, -1.0);
            }
            if i + 1 < n {
                coo.push(r, r + n, -1.0);
            }
        }
    }
    coo.to_csr()
}

/// The admission stream's pattern families.
pub const FAMILIES: [&str; 7] = [
    "banded",
    "stencil2d",
    "rmat",
    "circuit_like",
    "uniform_random",
    "block_dense",
    "rectangular_long",
];

/// Pattern `i` of an `n`-pattern admission pool: family `FAMILIES[i % 7]`
/// at roughly `10k * 12^(i / (n - 1))` nonzeros, a fixed log-spaced ladder
/// from 10k to 120k. The seed redraws each pattern's structure and values
/// but not its family or size, so the pool costs about the same to admit
/// under every seed.
pub fn admit_pattern(seed: u64, i: usize, n: usize) -> (&'static str, Csr<f64>) {
    let mut r = Rng::new(seed, 0xad00 + i as u64);
    let target = (10_000f64 * 12f64.powf(i as f64 / (n - 1).max(1) as f64)) as usize;
    let g = r.next_u64();
    let family = FAMILIES[i % FAMILIES.len()];
    let csr = match family {
        "banded" => {
            let npr = 8 + r.below(17);
            dasp_matgen::banded(target / npr, 2 * npr, npr, g)
        }
        "stencil2d" => {
            let side = ((target / 5) as f64).sqrt() as usize;
            dasp_matgen::stencil2d(side, side, 5, g)
        }
        "rmat" => {
            let ef = 6 + r.below(7);
            let scale = ((target / ef) as f64).log2().round() as u32;
            dasp_matgen::rmat(scale, ef, g)
        }
        "circuit_like" => {
            let n = target / 4;
            dasp_matgen::circuit_like(n, 2 + r.below(6), n / 10, g)
        }
        "uniform_random" => {
            let npr = 3 + r.below(30);
            let rows = target / npr;
            dasp_matgen::uniform_random(rows, rows, npr, g)
        }
        "block_dense" => {
            let block = 4 + r.below(5);
            let off = 1 + r.below(3);
            dasp_matgen::block_dense(target / (block * (1 + off)), block, off, g)
        }
        _ => {
            let row_len = 300 + r.below(1200);
            dasp_matgen::rectangular_long(target / row_len, 4 * row_len, row_len, g)
        }
    };
    (family, csr)
}

/// `csr` with every value scaled by `f`: a value refresh that keeps the
/// pattern.
pub fn scaled(csr: &Csr<f64>, f: f64) -> Csr<f64> {
    Csr {
        vals: csr.vals.iter().map(|v| v * f).collect(),
        ..csr.clone()
    }
}

/// `csr` serialized as MatrixMarket coordinate text.
pub fn matrix_market(csr: &Csr<f64>) -> Vec<u8> {
    let mut coo = Coo::new(csr.rows, csr.cols);
    for i in 0..csr.rows {
        for (c, v) in csr.row(i) {
            coo.push(i, c as usize, v);
        }
    }
    let mut out = Vec::new();
    dasp_sparse::mm::write_matrix_market(&coo, &mut out).expect("write to a Vec");
    out
}
