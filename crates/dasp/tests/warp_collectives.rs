//! The DASP kernels compute every warp collective in closed form on the
//! lane that consumes its result. This file keeps the paper's shuffle
//! formulations verbatim as the oracle and checks, over random accumulators
//! rich in `±0.0`, subnormals and mixed signs, that each closed form is
//! **bit-equal** to it at f64 and f32 accumulators:
//!
//! * the diagonal extraction (Algorithms 3/4): two variable-source shuffles
//!   with `target = ((laneid - i*8) >> 1) * 9`;
//! * the long kernel's phase-1 collapse (Algorithm 2): `shfl_down 9, 18`
//!   plus `shfl(fragY[1], 4)`, and SpMM's per-column `shfl_down 8, 16, 4`;
//! * phase 2's 5-step `warpReduceSum`.
//!
//! Every oracle shuffle runs under the full mask, so the checked variants
//! report no event — the premise that lets the kernels skip them. The
//! second half pins the shuffle *issues* the kernels still charge, which
//! feed the modeled time.

use dasp_core::kernels::{
    collapse_partials, extract_diagonals, spmv_long, spmv_medium, spmv_short1, spmv_short13,
    spmv_short22, spmv_short4,
};
use dasp_core::spmm::{
    spmm_long_with, spmm_medium_with, spmm_short13_with, spmm_short1_with, spmm_short22_with,
    spmm_short4_with,
};
use dasp_core::DaspMatrix;
use dasp_fp16::{Scalar, F16};
use dasp_simt::mma::{diag_position, AccFrag, MMA_M};
use dasp_simt::shuffle::{checked, warp_reduce_lane0, ShflEvent, WARP_REDUCE_SHFLS};
use dasp_simt::warp::{full_mask, per_lane, WARP_SIZE};
use dasp_simt::{CountingProbe, Executor, NoProbe, Probe, SharedSlice};
use dasp_sparse::{Coo, Csr, DenseMat};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A sanitizing probe that records every shuffle event.
#[derive(Default)]
struct Recorder(Vec<ShflEvent>);

impl Probe for Recorder {
    fn kernel_launch(&mut self, _: u64, _: u64) {}
    fn load_val(&mut self, _: u64, _: u64) {}
    fn load_idx(&mut self, _: u64, _: u64) {}
    fn load_meta(&mut self, _: u64, _: u64) {}
    fn store_y(&mut self, _: u64, _: u64) {}
    fn load_x(&mut self, _: usize, _: u64) {}
    fn mma(&mut self) {}
    fn fma(&mut self, _: u64) {}
    fn shfl(&mut self, _: u64) {}
    fn sanitizing(&self) -> bool {
        true
    }
    fn san_shfl(&mut self, event: &ShflEvent) {
        self.0.push(*event);
    }
}

/// Accumulator types: random draws with the awkward cases, and bit access.
trait AccBits: Copy {
    fn draw(rng: &mut SmallRng) -> Self;
    fn bits(self) -> u64;
}

impl AccBits for f64 {
    fn draw(rng: &mut SmallRng) -> f64 {
        let sign = rng.gen::<u64>() << 63;
        let frac = rng.gen::<u64>() >> 12;
        let exp: u64 = match rng.gen_range(0..5u32) {
            0 => return f64::from_bits(sign), // ±0.0
            1 => 0,                           // subnormal (or ±0.0)
            2 => rng.gen_range(1..4u64),      // smallest normals
            _ => rng.gen_range(1013..1033u64),
        };
        f64::from_bits(sign | exp << 52 | frac)
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl AccBits for f32 {
    fn draw(rng: &mut SmallRng) -> f32 {
        let sign = rng.gen::<u32>() << 31;
        let frac = rng.gen::<u32>() >> 9;
        let exp: u32 = match rng.gen_range(0..5u32) {
            0 => return f32::from_bits(sign),
            1 => 0,
            2 => rng.gen_range(1..4u32),
            _ => rng.gen_range(117..137u32),
        };
        f32::from_bits(sign | exp << 23 | frac)
    }
    fn bits(self) -> u64 {
        self.to_bits() as u64
    }
}

/// A fully populated random accumulator fragment.
fn random_acc<S: Scalar>(rng: &mut SmallRng) -> AccFrag<S>
where
    S::Acc: AccBits,
{
    per_lane(|_| [S::Acc::draw(rng), S::Acc::draw(rng)])
}

fn assert_bits_eq<A: AccBits>(got: &[A], want: &[A], what: &str) {
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.bits(), w.bits(), "{what}: slot {k}");
    }
}

/// Algorithms 3/4, lines 13-18 / 15-20, as the paper writes them.
fn oracle_extract<S: Scalar>(
    acc: &AccFrag<S>,
    i: usize,
    res: &mut [S::Acc; WARP_SIZE],
    rec: &mut Recorder,
) {
    let y0: [S::Acc; WARP_SIZE] = per_lane(|l| acc[l][0]);
    let y1: [S::Acc; WARP_SIZE] = per_lane(|l| acc[l][1]);
    let target: [i32; WARP_SIZE] = per_lane(|l| ((l as i32 - (i as i32) * 8) >> 1) * 9);
    let target4: [i32; WARP_SIZE] = per_lane(|l| target[l] + 4);
    let used = 0xffu32 << (i * 8);
    let t0 = checked::shfl_sync_var(rec, full_mask(), y0, &target, used);
    let t1 = checked::shfl_sync_var(rec, full_mask(), y1, &target4, used);
    for lane in 0..WARP_SIZE {
        if lane >> 3 == i {
            res[lane] = if lane & 1 == 0 { t0[lane] } else { t1[lane] };
        }
    }
}

/// The register pair after a `shfl_down` tree over `deltas` (each step
/// adds the shuffled value on every lane, both registers).
fn oracle_down_tree<S: Scalar>(
    acc: &AccFrag<S>,
    deltas: &[usize],
    rec: &mut Recorder,
) -> [[S::Acc; WARP_SIZE]; 2] {
    let mut y = [per_lane(|l| acc[l][0]), per_lane(|l| acc[l][1])];
    for &delta in deltas {
        for reg in &mut y {
            let d = checked::shfl_down_sync(rec, full_mask(), *reg, delta);
            for l in 0..WARP_SIZE {
                reg[l] = S::acc_add(reg[l], d[l]);
            }
        }
    }
    y
}

/// Algorithm 2, lines 10-14: lane 0's value after `shfl_down 9, 18` and
/// `fragY[0] += shfl(fragY[1], 4)`.
fn oracle_long_phase1<S: Scalar>(acc: &AccFrag<S>, rec: &mut Recorder) -> S::Acc {
    let [y0, y1] = oracle_down_tree::<S>(acc, &[9, 18], rec);
    let b = checked::shfl_sync(rec, full_mask(), y1, 4);
    let y0: [S::Acc; WARP_SIZE] = per_lane(|l| S::acc_add(y0[l], b[l]));
    y0[0]
}

fn check_extraction<S: Scalar>(seed: u64)
where
    S::Acc: AccBits,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..200 {
        let acc = random_acc::<S>(&mut rng);
        for i in 0..4 {
            let init: [S::Acc; WARP_SIZE] = per_lane(|_| S::Acc::draw(&mut rng));
            let (mut want, mut got) = (init, init);
            let mut rec = Recorder::default();
            oracle_extract::<S>(&acc, i, &mut want, &mut rec);
            assert!(
                rec.0.is_empty(),
                "full-mask extraction reported {:?}",
                rec.0
            );
            extract_diagonals::<S, _>(&acc, i, &mut got, &mut NoProbe);
            assert_bits_eq(&got, &want, &format!("extraction i={i}"));
        }
    }
}

fn check_long_phase1<S: Scalar>(seed: u64)
where
    S::Acc: AccBits,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..500 {
        let acc = random_acc::<S>(&mut rng);
        let mut rec = Recorder::default();
        let want = oracle_long_phase1::<S>(&acc, &mut rec);
        assert!(rec.0.is_empty(), "full-mask collapse reported {:?}", rec.0);
        let d = std::array::from_fn(|r| {
            let (lane, reg) = diag_position(r);
            acc[lane][reg]
        });
        assert_bits_eq(&[collapse_partials::<S>(&d)], &[want], "SpMV phase 1");
    }
}

fn check_spmm_phase1<S: Scalar>(seed: u64)
where
    S::Acc: AccBits,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..300 {
        let acc = random_acc::<S>(&mut rng);
        let mut rec = Recorder::default();
        let y = oracle_down_tree::<S>(&acc, &[8, 16, 4], &mut rec);
        assert!(
            rec.0.is_empty(),
            "full-mask SpMM collapse reported {:?}",
            rec.0
        );
        for j in 0..MMA_M {
            // Column j of row segment r sits at lane r*4 + (j>>1), reg j&1.
            let d = std::array::from_fn(|r| acc[r * 4 + (j >> 1)][j & 1]);
            let want = y[j & 1][j >> 1];
            assert_bits_eq(
                &[collapse_partials::<S>(&d)],
                &[want],
                &format!("column {j}"),
            );
        }
    }
}

fn check_warp_reduce<S: Scalar>(seed: u64)
where
    S::Acc: AccBits,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..500 {
        let v: [S::Acc; WARP_SIZE] = per_lane(|_| S::Acc::draw(&mut rng));
        let mut rec = Recorder::default();
        let want = checked::warp_reduce(&mut rec, full_mask(), v, S::acc_add)[0];
        assert!(
            rec.0.is_empty(),
            "full-mask warp_reduce reported {:?}",
            rec.0
        );
        assert_bits_eq(&[warp_reduce_lane0(v, S::acc_add)], &[want], "warp_reduce");
    }
}

#[test]
fn extraction_matches_the_paper_shuffle_pair() {
    check_extraction::<f64>(1);
    check_extraction::<f32>(2);
    check_extraction::<F16>(3);
}

#[test]
fn long_phase1_matches_shfl_down_9_18_and_broadcast_4() {
    check_long_phase1::<f64>(4);
    check_long_phase1::<f32>(5);
    check_long_phase1::<F16>(6);
}

#[test]
fn spmm_long_phase1_matches_shfl_down_8_16_4() {
    check_spmm_phase1::<f64>(7);
    check_spmm_phase1::<f32>(8);
}

#[test]
fn long_phase2_matches_warp_reduce() {
    check_warp_reduce::<f64>(9);
    check_warp_reduce::<f32>(10);
}

/// The oracle draws must actually contain the awkward cases.
#[test]
fn draws_cover_signed_zeros_and_subnormals() {
    let mut rng = SmallRng::seed_from_u64(11);
    let v: Vec<f64> = (0..2000).map(|_| f64::draw(&mut rng)).collect();
    assert!(v.iter().any(|x| x.to_bits() == (-0.0f64).to_bits()));
    assert!(v.iter().any(|x| x.to_bits() == 0));
    assert!(v.iter().any(|x| x.is_subnormal()));
    assert!(v.iter().any(|x| *x < 0.0) && v.iter().any(|x| *x > 0.0));
    let v: Vec<f32> = (0..2000).map(|_| f32::draw(&mut rng)).collect();
    assert!(v.iter().any(|x| x.is_subnormal()));
}

// ---- shuffle charges ---------------------------------------------------

/// Every category at once: three long rows (5, 16 and 40 groups, the last
/// past one phase-2 stride), 100 medium rows and a mix of short lengths.
fn all_categories() -> Csr<f64> {
    let mut lens: Vec<usize> = vec![300, 1000, 2500];
    lens.extend((0..100).map(|i| 5 + (i * 37) % 200));
    for (len, count) in [(1, 45), (3, 40), (4, 70), (2, 66)] {
        lens.extend(std::iter::repeat_n(len, count));
    }
    let cols = 3000;
    let mut coo = Coo::new(lens.len(), cols);
    for (r, &len) in lens.iter().enumerate() {
        for k in 0..len {
            coo.push(r, (r * 7 + k) % cols, 1.0 + (k % 5) as f64);
        }
    }
    coo.to_csr()
}

fn shfl_ops(run: impl FnOnce(&mut CountingProbe)) -> u64 {
    let mut probe = CountingProbe::a100();
    run(&mut probe);
    probe.stats().shfl_ops
}

#[test]
fn spmv_kernels_charge_the_paper_shuffle_issues() {
    let csr = all_categories();
    let m = DaspMatrix::from_csr(&csr);
    let (long, medium, short) = (&m.long, &m.medium, &m.short);
    assert!(long.rows.len() == 3 && medium.num_rowblocks() > 0);
    assert!(short.n13_warps > 0 && short.n4_warps > 0 && short.n22_warps > 0 && short.n1 > 0);
    let x = vec![1.0f64; csr.cols];
    let mut y = vec![0.0f64; csr.rows];
    // Long: 5 per group (9/18 tree + broadcast), WARP_REDUCE_SHFLS per row.
    assert_eq!(
        shfl_ops(|p| spmv_long(long, &x, &mut y, p)),
        5 * long.num_groups() as u64 + WARP_REDUCE_SHFLS * long.rows.len() as u64
    );
    // Medium and the three MMA short kernels: 2 per extraction.
    assert_eq!(
        shfl_ops(|p| spmv_medium(medium, &x, &mut y, p)),
        2 * medium.num_rowblocks() as u64
    );
    let per_warp = 2 * 4; // four extractions per short warp
    assert_eq!(
        shfl_ops(|p| spmv_short13(short, &x, &mut y, p)),
        per_warp * short.n13_warps as u64
    );
    assert_eq!(
        shfl_ops(|p| spmv_short4(short, &x, &mut y, p)),
        per_warp * short.n4_warps as u64
    );
    assert_eq!(
        shfl_ops(|p| spmv_short22(short, &x, &mut y, p)),
        per_warp * short.n22_warps as u64
    );
    assert_eq!(shfl_ops(|p| spmv_short1(short, &x, &mut y, p)), 0);
    let want = csr.spmv_reference(&x);
    assert_eq!(
        m.spmv(&x, &mut NoProbe),
        want,
        "small-integer sums are exact"
    );
}

#[test]
fn spmm_kernels_charge_the_paper_shuffle_issues_per_panel() {
    let csr = all_categories();
    let m = DaspMatrix::from_csr(&csr);
    let (long, medium, short) = (&m.long, &m.medium, &m.short);
    let width = 11; // one full panel and a 3-wide tail
    let b = DenseMat::from_columns(&vec![vec![1.0f64; csr.cols]; width]);
    let panels = b.num_panels() as u64;
    assert_eq!(panels, 2);
    let mut y = DenseMat::<f64>::zeros(csr.rows, width);
    let ys = SharedSlice::new(y.data_mut());
    let (rows, seq) = (csr.rows, Executor::seq());
    // Long: 6 per group and panel (8/16/4 tree on both registers), and
    // WARP_REDUCE_SHFLS per row and live column.
    assert_eq!(
        shfl_ops(|p| spmm_long_with(long, &b, &ys, rows, p, &seq)),
        6 * long.num_groups() as u64 * panels
            + WARP_REDUCE_SHFLS * (long.rows.len() * width) as u64
    );
    // 2 per extraction and panel.
    assert_eq!(
        shfl_ops(|p| spmm_medium_with(medium, &b, &ys, rows, p, &seq)),
        2 * medium.num_rowblocks() as u64 * panels
    );
    let per_warp = 2 * 4 * panels;
    assert_eq!(
        shfl_ops(|p| spmm_short13_with(short, &b, &ys, rows, p, &seq)),
        per_warp * short.n13_warps as u64
    );
    assert_eq!(
        shfl_ops(|p| spmm_short4_with(short, &b, &ys, rows, p, &seq)),
        per_warp * short.n4_warps as u64
    );
    assert_eq!(
        shfl_ops(|p| spmm_short22_with(short, &b, &ys, rows, p, &seq)),
        per_warp * short.n22_warps as u64
    );
    assert_eq!(
        shfl_ops(|p| spmm_short1_with(short, &b, &ys, rows, p, &seq)),
        0
    );
}
