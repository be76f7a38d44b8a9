//! Shared pieces of the DASP kernels.

#![allow(clippy::needless_range_loop)]

use dasp_fp16::Scalar;
use dasp_simt::mma::{diag_position, AccFrag, MMA_M};
use dasp_simt::warp::{per_lane, WARP_SIZE};
use dasp_simt::{space, Probe, SharedSlice};

use crate::format::NO_ROW;

/// Contiguous whole-block load: the paper's per-lane block index
/// `idx = (3 & laneid) + (laneid >> 2) * MMA_K` is the identity permutation
/// (`(3 & t) + (t >> 2) * 4 == t`), so lane `t`'s block element is
/// `src[offset + t]` and a coalesced 8×4 block load is one 32-element
/// slice copy the compiler vectorizes.
#[inline]
pub(crate) fn load_block<T: Copy>(src: &[T], offset: usize) -> [T; WARP_SIZE] {
    src[offset..offset + WARP_SIZE]
        .try_into()
        .expect("block slice is WARP_SIZE long")
}

/// Gathers each lane's `x[cids[lane]]` for one block, issuing a single
/// batched probe access (lane order, so cache classification is
/// bit-identical to 32 per-element `load_x` calls).
#[inline]
pub(crate) fn gather_x<S: Scalar, P: Probe>(
    x: &[S],
    cids: &[u32; WARP_SIZE],
    probe: &mut P,
) -> [S; WARP_SIZE] {
    let xi: [usize; WARP_SIZE] = per_lane(|l| cids[l] as usize);
    probe.load_x_warp(&xi, S::BYTES);
    per_lane(|l| x[xi[l]])
}

/// Permuted warp write-back shared by the short kernels: each lane whose
/// permutation slot names a real row (`!= NO_ROW`) writes its result to
/// `y[perm[lane]]`; padding lanes are predicated off and counted as one
/// divergent region. The shadow-write probe and the store-traffic bump
/// are issued once for the whole warp.
#[inline]
pub(crate) fn write_permuted<S: Scalar, P: Probe>(
    perm: &[u32],
    res: &[S::Acc; WARP_SIZE],
    y: &SharedSlice<S>,
    probe: &mut P,
) {
    let mut writes = [0usize; WARP_SIZE];
    let mut nw = 0;
    for (lane, &row) in perm.iter().enumerate() {
        if row != NO_ROW {
            y.write(row as usize, S::from_acc(res[lane]));
            writes[nw] = row as usize;
            nw += 1;
        }
    }
    probe.san_write_warp(space::Y, &writes[..nw]);
    probe.store_y(nw as u64, S::BYTES);
    let inactive = (perm.len() - nw) as u64;
    if inactive > 0 {
        probe.divergence(inactive);
    }
}

/// The diagonal extraction of Algorithms 3 and 4 (lines 13-18 / 15-20):
/// row `r`'s result, on the accumulator diagonal after iteration `i`'s
/// MMA, lands in `res[i*8 + r]`. The paper's full-mask shuffle pair
/// (`target = ((laneid - i*8) >> 1) * 9`) reduces to these eight copies;
/// its two issues are still charged.
#[inline]
pub fn extract_diagonals<S: Scalar, P: Probe>(
    acc: &AccFrag<S>,
    i: usize,
    res: &mut [S::Acc; WARP_SIZE],
    probe: &mut P,
) {
    for r in 0..MMA_M {
        let (lane, reg) = diag_position(r);
        probe.san_frag_read(lane, reg);
        res[i * MMA_M + r] = acc[lane][reg];
    }
    probe.shfl(2);
}

/// The long kernel's eight-partial collapse, `((d0+d2)+(d4+d6)) +
/// ((d1+d3)+(d5+d7))`: lane 0's chain of Algorithm 2's full-mask
/// `shfl_down 9, 18` / `shfl(fragY[1], 4)`, and lane `j>>1`'s chain of
/// SpMM's per-column `shfl_down 8, 16, 4`. Callers charge the issues.
#[inline]
pub fn collapse_partials<S: Scalar>(d: &[S::Acc; MMA_M]) -> S::Acc {
    let add = S::acc_add;
    add(
        add(add(d[0], d[2]), add(d[4], d[6])),
        add(add(d[1], d[3]), add(d[5], d[7])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_simt::mma::{acc_zero, diag_position};
    use dasp_simt::NoProbe;

    #[test]
    fn mma_idx_covers_one_block_row_major() {
        // The paper's per-lane block index is the identity permutation —
        // the invariant that lets [`load_block`] be a contiguous copy.
        let idx: [usize; WARP_SIZE] = per_lane(|lane| (3 & lane) + (lane >> 2) * 4);
        let mut seen = [false; 32];
        for (lane, &i) in idx.iter().enumerate() {
            assert_eq!(i, lane);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn extraction_places_rows_for_every_iteration() {
        for i in 0..4usize {
            let mut acc = acc_zero::<f64>();
            for r in 0..8 {
                let (lane, reg) = diag_position(r);
                acc[lane][reg] = (100 * i + r) as f64;
            }
            let mut res = [0.0f64; WARP_SIZE];
            extract_diagonals::<f64, _>(&acc, i, &mut res, &mut NoProbe);
            for r in 0..8 {
                assert_eq!(res[i * 8 + r], (100 * i + r) as f64, "i={i} r={r}");
            }
            // Other lanes untouched.
            for lane in 0..WARP_SIZE {
                if lane >> 3 != i {
                    assert_eq!(res[lane], 0.0);
                }
            }
        }
    }
}
