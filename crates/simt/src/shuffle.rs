//! Warp shuffle instructions.
//!
//! These reproduce the semantics of the CUDA `__shfl_*_sync` intrinsics with
//! the default width of 32:
//!
//! * `shfl_sync(mask, var, src)` — every lane reads lane `src % 32`.
//! * `shfl_down_sync(mask, var, delta)` — lane `i` reads lane `i + delta`;
//!   lanes for which `i + delta >= 32` keep their own value.
//! * `shfl_up_sync(mask, var, delta)` — lane `i` reads lane `i - delta`;
//!   lanes for which `i < delta` keep their own value.
//! * `shfl_xor_sync(mask, var, lane_mask)` — lane `i` reads lane
//!   `i ^ lane_mask`.
//!
//! The `mask` argument names the participating lanes. Reading from a lane
//! outside the mask is undefined behaviour on hardware; the simulator makes
//! it loud instead (a debug assertion), which catches divergence bugs the
//! paper's kernels must not contain. Lanes not named in the mask keep their
//! input value.

use crate::warp::WARP_SIZE;

#[inline]
fn in_mask(mask: u32, lane: usize) -> bool {
    mask & (1u32 << lane) != 0
}

/// How a shuffle variant disposes of out-of-mask source reads — the only
/// place the plain and [`checked`] variants differ. The lane movement
/// itself exists once, in [`shfl_with`].
trait MaskPolicy {
    /// Receives the instruction's out-of-mask read set (`oob` has one bit
    /// per active lane that read an inactive source; possibly zero).
    fn resolve(&mut self, op: ShflOp, mask: u32, oob: u32);
}

/// Plain-variant policy: out-of-mask reads trip a debug assertion;
/// release builds keep the hardware's keep-own-value resolution at full
/// speed (the bookkeeping is dead code the optimizer removes).
struct AssertOob;

impl MaskPolicy for AssertOob {
    #[inline(always)]
    fn resolve(&mut self, op: ShflOp, mask: u32, oob: u32) {
        debug_assert!(
            oob == 0,
            "{} reads out-of-mask source lanes (reading lanes {:#010x}, mask {:#010x})",
            op.name(),
            oob,
            mask
        );
        let _ = (op, mask, oob);
    }
}

/// Policy of the plain [`shfl_sync_var`]: out-of-mask reads are expected
/// (the paper's kernels compute negative shuffle targets on lanes whose
/// results are discarded), so nothing is checked. The [`checked`] variant
/// exists for callers that can name the consumed lanes.
struct IgnoreOob;

impl MaskPolicy for IgnoreOob {
    #[inline(always)]
    fn resolve(&mut self, _: ShflOp, _: u32, _: u32) {}
}

/// The generic shuffle implementation every variant wraps: each active
/// lane gathers `var[src_of(lane)]` (`None` keeps its own value — the
/// *defined* resolution for down/up/xor shifts past the warp edge);
/// inactive lanes keep their input. Out-of-mask sources resolve as
/// keep-read (the simulator's pinned stand-in for hardware UB) and are
/// handed to `policy`.
#[inline(always)]
fn shfl_with<T: Copy, M: MaskPolicy>(
    op: ShflOp,
    mask: u32,
    var: [T; WARP_SIZE],
    mut policy: M,
    src_of: impl Fn(usize) -> Option<usize>,
) -> [T; WARP_SIZE] {
    let mut out = var;
    let mut oob = 0u32;
    for lane in 0..WARP_SIZE {
        if in_mask(mask, lane) {
            if let Some(src) = src_of(lane) {
                if !in_mask(mask, src) {
                    oob |= 1 << lane;
                }
                out[lane] = var[src];
            }
        }
    }
    policy.resolve(op, mask, oob);
    out
}

/// `__shfl_sync`: broadcast from `src_lane` (mod 32) to all lanes in `mask`.
#[inline]
pub fn shfl_sync<T: Copy>(mask: u32, var: [T; WARP_SIZE], src_lane: usize) -> [T; WARP_SIZE] {
    let src = src_lane % WARP_SIZE;
    shfl_with(ShflOp::Sync, mask, var, AssertOob, |_| Some(src))
}

/// `__shfl_sync` with a *per-lane* source operand, as CUDA allows: lane `i`
/// reads lane `src[i]`. Sources are reduced modulo 32 (matching the
/// hardware's treatment of out-of-range `srcLane`), and may be negative —
/// the paper's Algorithms 3/4 compute `((laneid - i*8) >> 1) * 9`, which is
/// negative on lanes below `i*8` whose results are discarded by the
/// subsequent predicate.
#[inline]
pub fn shfl_sync_var<T: Copy>(
    mask: u32,
    var: [T; WARP_SIZE],
    src: &[i32; WARP_SIZE],
) -> [T; WARP_SIZE] {
    shfl_with(ShflOp::SyncVar, mask, var, IgnoreOob, |lane| {
        Some(src[lane].rem_euclid(WARP_SIZE as i32) as usize)
    })
}

/// `__shfl_down_sync`: lane `i` reads lane `i + delta`; out-of-range lanes
/// keep their own value.
#[inline]
pub fn shfl_down_sync<T: Copy>(mask: u32, var: [T; WARP_SIZE], delta: usize) -> [T; WARP_SIZE] {
    shfl_with(ShflOp::Down, mask, var, AssertOob, |lane| {
        (lane + delta < WARP_SIZE).then_some(lane + delta)
    })
}

/// `__shfl_up_sync`: lane `i` reads lane `i - delta`; lanes `< delta` keep
/// their own value.
#[inline]
pub fn shfl_up_sync<T: Copy>(mask: u32, var: [T; WARP_SIZE], delta: usize) -> [T; WARP_SIZE] {
    shfl_with(ShflOp::Up, mask, var, AssertOob, |lane| {
        lane.checked_sub(delta)
    })
}

/// `__shfl_xor_sync`: lane `i` reads lane `i ^ lane_mask` (the butterfly
/// pattern used by tree reductions).
#[inline]
pub fn shfl_xor_sync<T: Copy>(mask: u32, var: [T; WARP_SIZE], lane_mask: usize) -> [T; WARP_SIZE] {
    shfl_with(ShflOp::Xor, mask, var, AssertOob, |lane| {
        (lane ^ lane_mask < WARP_SIZE).then_some(lane ^ lane_mask)
    })
}

/// The shared body of the plain and checked [`warp_reduce`]s: the 5-step
/// shuffle-down tree over whichever shuffle `step` supplies.
#[inline(always)]
fn warp_reduce_with<T: Copy, F: Fn(T, T) -> T>(
    mask: u32,
    mut var: [T; WARP_SIZE],
    combine: F,
    mut step: impl FnMut([T; WARP_SIZE], usize) -> [T; WARP_SIZE],
) -> [T; WARP_SIZE] {
    let mut offset = WARP_SIZE / 2;
    while offset > 0 {
        let shifted = step(var, offset);
        for lane in 0..WARP_SIZE {
            if in_mask(mask, lane) {
                var[lane] = combine(var[lane], shifted[lane]);
            }
        }
        offset /= 2;
    }
    var
}

/// The classic 5-step shuffle-down tree reduction (`warpReduceSum` in the
/// paper's Algorithm 2). After the call, **lane 0** holds
/// `combine` applied over all 32 lanes; other lanes hold partial sums.
///
/// Returns the full lane array so callers can also use partials.
#[inline]
pub fn warp_reduce<T: Copy, F: Fn(T, T) -> T>(
    mask: u32,
    var: [T; WARP_SIZE],
    combine: F,
) -> [T; WARP_SIZE] {
    warp_reduce_with(mask, var, combine, |v, o| shfl_down_sync(mask, v, o))
}

/// Lane 0's result of a full-mask [`warp_reduce`], on lane 0's dependence
/// chain alone: `var[l] = combine(var[l], var[l + d])` over lanes `0..d`
/// for `d = 16, 8, 4, 2, 1`. Bit-identical for any `combine`.
#[inline]
pub fn warp_reduce_lane0<T: Copy>(mut var: [T; WARP_SIZE], combine: impl Fn(T, T) -> T) -> T {
    let mut d = WARP_SIZE / 2;
    while d > 0 {
        for lane in 0..d {
            var[lane] = combine(var[lane], var[lane + d]);
        }
        d /= 2;
    }
    var[0]
}

/// Number of shuffle instructions issued by one [`warp_reduce`] call.
pub const WARP_REDUCE_SHFLS: u64 = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{full_mask, per_lane};

    #[test]
    fn shfl_broadcasts_single_lane() {
        let v = per_lane(|l| l as i64 * 10);
        let out = shfl_sync(full_mask(), v, 7);
        assert!(out.iter().all(|&x| x == 70));
        // src_lane wraps mod 32 like the hardware
        let out = shfl_sync(full_mask(), v, 35);
        assert!(out.iter().all(|&x| x == 30));
    }

    #[test]
    fn shfl_down_shifts_and_clamps() {
        let v = per_lane(|l| l as i64);
        let out = shfl_down_sync(full_mask(), v, 9);
        for lane in 0..WARP_SIZE {
            let expect = if lane + 9 < WARP_SIZE {
                (lane + 9) as i64
            } else {
                lane as i64
            };
            assert_eq!(out[lane], expect, "lane {lane}");
        }
    }

    #[test]
    fn shfl_up_shifts_and_clamps() {
        let v = per_lane(|l| l as i64);
        let out = shfl_up_sync(full_mask(), v, 4);
        for lane in 0..WARP_SIZE {
            let expect = if lane >= 4 {
                (lane - 4) as i64
            } else {
                lane as i64
            };
            assert_eq!(out[lane], expect, "lane {lane}");
        }
    }

    #[test]
    fn shfl_xor_is_a_butterfly() {
        let v = per_lane(|l| l as i64);
        let out = shfl_xor_sync(full_mask(), v, 1);
        for lane in 0..WARP_SIZE {
            assert_eq!(out[lane], (lane ^ 1) as i64);
        }
        // xor with 16 swaps halves
        let out = shfl_xor_sync(full_mask(), v, 16);
        assert_eq!(out[0], 16);
        assert_eq!(out[31], 15);
    }

    #[test]
    fn warp_reduce_sums_all_lanes_into_lane0() {
        let v = per_lane(|l| l as i64);
        let out = warp_reduce(full_mask(), v, |a, b| a + b);
        assert_eq!(out[0], (0..32).sum::<i64>());
    }

    #[test]
    fn warp_reduce_with_max() {
        let v = per_lane(|l| ((l * 7) % 31) as i64);
        let out = warp_reduce(full_mask(), v, |a, b| a.max(b));
        assert_eq!(out[0], *v.iter().max().unwrap());
    }

    #[test]
    fn partial_mask_leaves_inactive_lanes_untouched() {
        // Only lanes 0..8 active.
        let mask = 0xff;
        let v = per_lane(|l| l as i64);
        let out = shfl_sync(mask, v, 3);
        for lane in 0..8 {
            assert_eq!(out[lane], 3);
        }
        for lane in 8..WARP_SIZE {
            assert_eq!(out[lane], lane as i64);
        }
    }

    #[test]
    fn paper_diagonal_reduction_pattern() {
        // The exact shuffle sequence of Algorithm 2, lines 10-14: partial
        // sums live on lanes {0, 9, 18, 27} (fragY[0]) and {4, 13, 22, 31}
        // (fragY[1]); the sequence must gather all eight into lane 0.
        let mut y0 = [0.0f64; WARP_SIZE];
        let mut y1 = [0.0f64; WARP_SIZE];
        for (k, &lane) in [0usize, 9, 18, 27].iter().enumerate() {
            y0[lane] = (k + 1) as f64; // 1,2,3,4
        }
        for (k, &lane) in [4usize, 13, 22, 31].iter().enumerate() {
            y1[lane] = (k + 10) as f64; // 10,11,12,13
        }
        let m = full_mask();
        let d = shfl_down_sync(m, y0, 9);
        for l in 0..WARP_SIZE {
            y0[l] += d[l];
        }
        let d = shfl_down_sync(m, y0, 18);
        for l in 0..WARP_SIZE {
            y0[l] += d[l];
        }
        let d = shfl_down_sync(m, y1, 9);
        for l in 0..WARP_SIZE {
            y1[l] += d[l];
        }
        let d = shfl_down_sync(m, y1, 18);
        for l in 0..WARP_SIZE {
            y1[l] += d[l];
        }
        let b = shfl_sync(m, y1, 4);
        for l in 0..WARP_SIZE {
            y0[l] += b[l];
        }
        assert_eq!(y0[0], (1 + 2 + 3 + 4 + 10 + 11 + 12 + 13) as f64);
    }
}

#[cfg(test)]
mod var_tests {
    use super::*;
    use crate::warp::{full_mask, per_lane};

    #[test]
    fn per_lane_sources_gather_arbitrarily() {
        let v = per_lane(|l| l as i64 * 3);
        let src: [i32; WARP_SIZE] = core::array::from_fn(|l| (31 - l) as i32);
        let out = shfl_sync_var(full_mask(), v, &src);
        for lane in 0..WARP_SIZE {
            assert_eq!(out[lane], (31 - lane) as i64 * 3);
        }
    }

    #[test]
    fn negative_sources_wrap_modulo_32() {
        let v = per_lane(|l| l as i64);
        let src = [-9i32; WARP_SIZE]; // -9 mod 32 = 23
        let out = shfl_sync_var(full_mask(), v, &src);
        assert!(out.iter().all(|&x| x == 23));
    }

    #[test]
    fn paper_target_extraction_pattern() {
        // Algorithm 3 lines 13-15 for i = 0: lanes 0..8 must receive the 8
        // diagonal values from lanes {0,9,18,27} (reg0) and {4,13,22,31}
        // (reg1).
        let mut y0 = [0.0f64; WARP_SIZE];
        let mut y1 = [0.0f64; WARP_SIZE];
        for (r, &lane) in [0usize, 9, 18, 27].iter().enumerate() {
            y0[lane] = (2 * r) as f64; // diagonals of even rows 0,2,4,6
        }
        for (r, &lane) in [4usize, 13, 22, 31].iter().enumerate() {
            y1[lane] = (2 * r + 1) as f64; // odd rows 1,3,5,7
        }
        let i = 0usize;
        let target: [i32; WARP_SIZE] =
            core::array::from_fn(|l| ((l as i32 - (i as i32) * 8) >> 1) * 9);
        let t0 = shfl_sync_var(full_mask(), y0, &target);
        let t1 = shfl_sync_var(full_mask(), y1, &core::array::from_fn(|l| target[l] + 4));
        for lane in 0..8 {
            let res = if lane & 1 == 0 { t0[lane] } else { t1[lane] };
            assert_eq!(res, lane as f64, "lane {lane}");
        }
    }
}

/// `__ballot_sync`: returns the bitmask of active lanes whose predicate is
/// true (every active lane receives the same mask).
#[inline]
pub fn ballot_sync(mask: u32, pred: [bool; WARP_SIZE]) -> u32 {
    let mut out = 0u32;
    for (lane, &p) in pred.iter().enumerate() {
        if in_mask(mask, lane) && p {
            out |= 1 << lane;
        }
    }
    out
}

/// `__any_sync`: true iff any active lane's predicate is true.
#[inline]
pub fn any_sync(mask: u32, pred: [bool; WARP_SIZE]) -> bool {
    ballot_sync(mask, pred) != 0
}

/// `__all_sync`: true iff every active lane's predicate is true.
#[inline]
pub fn all_sync(mask: u32, pred: [bool; WARP_SIZE]) -> bool {
    ballot_sync(mask, pred) == mask
}

/// Which shuffle/vote instruction a [`ShflEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShflOp {
    /// `shfl_sync` (single-source broadcast).
    Sync,
    /// `shfl_sync_var` (per-lane source operand).
    SyncVar,
    /// `shfl_down_sync`.
    Down,
    /// `shfl_up_sync`.
    Up,
    /// `shfl_xor_sync`.
    Xor,
    /// `ballot_sync` (vote).
    Ballot,
}

impl ShflOp {
    /// Instruction mnemonic for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ShflOp::Sync => "shfl_sync",
            ShflOp::SyncVar => "shfl_sync_var",
            ShflOp::Down => "shfl_down_sync",
            ShflOp::Up => "shfl_up_sync",
            ShflOp::Xor => "shfl_xor_sync",
            ShflOp::Ballot => "ballot_sync",
        }
    }
}

/// The mask-check outcome of one shuffle/vote issue, reported through
/// [`crate::Probe::san_shfl`] by the [`checked`] variants whenever at least
/// one lane read a source lane outside the active mask.
///
/// On hardware an out-of-mask source read is undefined behaviour; the
/// simulator resolves it as keep-own-value. `used_lanes` distinguishes the
/// two severities: an out-of-mask read whose result the kernel consumes is
/// a real bug, while one discarded by a subsequent predicate (the paper's
/// Algorithms 3/4 compute negative shuffle targets on lanes whose results
/// are never used) is benign and only reported informationally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShflEvent {
    /// The instruction that produced the event.
    pub op: ShflOp,
    /// The active-lane mask the instruction was issued with.
    pub mask: u32,
    /// Lanes that read a source lane outside `mask` (bit per lane).
    pub oob_lanes: u32,
    /// Subset of `oob_lanes` whose shuffled value the kernel consumes.
    pub used_lanes: u32,
}

/// Checked shuffle/vote variants: identical lane semantics to the plain
/// functions, but out-of-mask source reads are *reported* instead of
/// (only) debug-asserted.
///
/// Each variant takes a [`crate::Probe`]. When [`crate::Probe::sanitizing`]
/// is true, a non-zero out-of-mask lane set is delivered as a
/// [`ShflEvent`] through [`crate::Probe::san_shfl`] — in `--release`
/// builds too, which is what the plain functions' `debug_assert!`s cannot
/// do. When the probe is not sanitizing, an out-of-mask read whose value
/// would be consumed trips the same `debug_assert!` as the plain path, and
/// release builds keep the hardware's UB-as-keep-own-value semantics at
/// full speed (the mask bookkeeping is dead code the optimizer removes).
///
/// The variants deliberately do **not** bump [`crate::Probe::shfl`]
/// counters: kernels keep their existing issue accounting, so migrating a
/// kernel to the checked calls changes no statistics.
pub mod checked {
    use super::*;
    use crate::probe::Probe;

    /// Which lanes' shuffled values the kernel consumes — determines the
    /// `used` subset a reported event carries.
    enum Used {
        /// Every reading lane consumes its value (down/up/xor/broadcast).
        Reads,
        /// Only the given lane set is consumed (`shfl_sync_var` callers
        /// name it); out-of-mask reads elsewhere are benign.
        Only(u32),
        /// No out-of-mask value is ever consumed (ballot drops votes).
        None,
    }

    /// The checked variants' mask policy: a non-empty out-of-mask set is
    /// delivered as a [`ShflEvent`] through [`Probe::san_shfl`] when the
    /// probe is sanitizing (release builds included); otherwise a
    /// *consumed* out-of-mask read trips the same `debug_assert!` as the
    /// plain path.
    struct ReportOob<'p, P> {
        probe: &'p mut P,
        used: Used,
    }

    impl<P: Probe> MaskPolicy for ReportOob<'_, P> {
        #[inline]
        fn resolve(&mut self, op: ShflOp, mask: u32, oob: u32) {
            if oob == 0 {
                return;
            }
            let used = match self.used {
                Used::Reads => oob,
                Used::Only(u) => oob & u,
                Used::None => 0,
            };
            if self.probe.sanitizing() {
                self.probe.san_shfl(&ShflEvent {
                    op,
                    mask,
                    oob_lanes: oob,
                    used_lanes: used,
                });
            } else {
                debug_assert!(
                    used == 0,
                    "{} reads out-of-mask lanes {:#010x} (mask {:#010x}) whose values are used",
                    op.name(),
                    oob,
                    mask
                );
            }
        }
    }

    /// Checked [`shfl_sync`](super::shfl_sync): broadcast from `src_lane`.
    /// An out-of-mask source is read by *every* active lane.
    #[inline]
    pub fn shfl_sync<T: Copy, P: Probe>(
        probe: &mut P,
        mask: u32,
        var: [T; WARP_SIZE],
        src_lane: usize,
    ) -> [T; WARP_SIZE] {
        let src = src_lane % WARP_SIZE;
        let policy = ReportOob {
            probe,
            used: Used::Reads,
        };
        shfl_with(ShflOp::Sync, mask, var, policy, |_| Some(src))
    }

    /// Checked [`shfl_sync_var`](super::shfl_sync_var). `used` names the
    /// lanes whose shuffled values the kernel consumes afterwards: an
    /// out-of-mask read on a used lane is an error, on any other lane it
    /// is reported as discarded (benign).
    #[inline]
    pub fn shfl_sync_var<T: Copy, P: Probe>(
        probe: &mut P,
        mask: u32,
        var: [T; WARP_SIZE],
        src: &[i32; WARP_SIZE],
        used: u32,
    ) -> [T; WARP_SIZE] {
        let policy = ReportOob {
            probe,
            used: Used::Only(used),
        };
        shfl_with(ShflOp::SyncVar, mask, var, policy, |lane| {
            Some(src[lane].rem_euclid(WARP_SIZE as i32) as usize)
        })
    }

    /// Checked [`shfl_down_sync`](super::shfl_down_sync). In-range reads
    /// from inactive lanes are reported; lanes shifted past the warp end
    /// keep their own value (defined behaviour, not reported).
    #[inline]
    pub fn shfl_down_sync<T: Copy, P: Probe>(
        probe: &mut P,
        mask: u32,
        var: [T; WARP_SIZE],
        delta: usize,
    ) -> [T; WARP_SIZE] {
        let policy = ReportOob {
            probe,
            used: Used::Reads,
        };
        shfl_with(ShflOp::Down, mask, var, policy, |lane| {
            (lane + delta < WARP_SIZE).then_some(lane + delta)
        })
    }

    /// Checked [`shfl_up_sync`](super::shfl_up_sync).
    #[inline]
    pub fn shfl_up_sync<T: Copy, P: Probe>(
        probe: &mut P,
        mask: u32,
        var: [T; WARP_SIZE],
        delta: usize,
    ) -> [T; WARP_SIZE] {
        let policy = ReportOob {
            probe,
            used: Used::Reads,
        };
        shfl_with(ShflOp::Up, mask, var, policy, |lane| {
            lane.checked_sub(delta)
        })
    }

    /// Checked [`shfl_xor_sync`](super::shfl_xor_sync).
    #[inline]
    pub fn shfl_xor_sync<T: Copy, P: Probe>(
        probe: &mut P,
        mask: u32,
        var: [T; WARP_SIZE],
        lane_mask: usize,
    ) -> [T; WARP_SIZE] {
        let policy = ReportOob {
            probe,
            used: Used::Reads,
        };
        shfl_with(ShflOp::Xor, mask, var, policy, |lane| {
            (lane ^ lane_mask < WARP_SIZE).then_some(lane ^ lane_mask)
        })
    }

    /// Checked [`ballot_sync`](super::ballot_sync). The result never
    /// includes out-of-mask lanes (defined behaviour), but a true
    /// predicate on an inactive lane usually means a diverged lane's vote
    /// is being silently dropped — reported as a discarded (benign)
    /// event, never asserted.
    #[inline]
    pub fn ballot_sync<P: Probe>(probe: &mut P, mask: u32, pred: [bool; WARP_SIZE]) -> u32 {
        let mut dropped = 0u32;
        for (lane, &p) in pred.iter().enumerate() {
            if p && !in_mask(mask, lane) {
                dropped |= 1 << lane;
            }
        }
        ReportOob {
            probe,
            used: Used::None,
        }
        .resolve(ShflOp::Ballot, mask, dropped);
        super::ballot_sync(mask, pred)
    }

    /// Checked [`warp_reduce`](super::warp_reduce): the same 5-step
    /// shuffle-down tree, with each step's mask check reported.
    #[inline]
    pub fn warp_reduce<T: Copy, F: Fn(T, T) -> T, P: Probe>(
        probe: &mut P,
        mask: u32,
        var: [T; WARP_SIZE],
        combine: F,
    ) -> [T; WARP_SIZE] {
        warp_reduce_with(mask, var, combine, |v, o| shfl_down_sync(probe, mask, v, o))
    }
}

#[cfg(test)]
mod checked_tests {
    use super::*;
    use crate::probe::{NoProbe, Probe};
    use crate::warp::{full_mask, per_lane};

    /// Minimal sanitizing probe that records shuffle events.
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

    #[test]
    fn checked_variants_match_plain_semantics() {
        let v = per_lane(|l| l as i64);
        let m = full_mask();
        let mut p = NoProbe;
        assert_eq!(checked::shfl_sync(&mut p, m, v, 7), shfl_sync(m, v, 7));
        assert_eq!(
            checked::shfl_down_sync(&mut p, m, v, 9),
            shfl_down_sync(m, v, 9)
        );
        assert_eq!(
            checked::shfl_up_sync(&mut p, m, v, 4),
            shfl_up_sync(m, v, 4)
        );
        assert_eq!(
            checked::shfl_xor_sync(&mut p, m, v, 16),
            shfl_xor_sync(m, v, 16)
        );
        let src: [i32; WARP_SIZE] = core::array::from_fn(|l| (31 - l) as i32);
        assert_eq!(
            checked::shfl_sync_var(&mut p, m, v, &src, m),
            shfl_sync_var(m, v, &src)
        );
        let pred = per_lane(|l| l % 3 == 0);
        assert_eq!(checked::ballot_sync(&mut p, m, pred), ballot_sync(m, pred));
        assert_eq!(
            checked::warp_reduce(&mut p, m, v, |a, b| a + b),
            warp_reduce(m, v, |a, b| a + b)
        );
    }

    // This test is the release-mode regression for the promoted mask
    // checks: it runs under `cargo test --release` (where the plain
    // functions' debug_assert!s compile away) and must still observe the
    // diagnostic.
    #[test]
    fn out_of_mask_read_fires_even_in_release() {
        let v = per_lane(|l| l as i64);
        let mut rec = Recorder::default();
        // Lanes 0..8 active; lane 7 reads lane 7+1=8, which is inactive.
        let out = checked::shfl_down_sync(&mut rec, 0xff, v, 1);
        assert_eq!(rec.0.len(), 1);
        let ev = rec.0[0];
        assert_eq!(ev.op, ShflOp::Down);
        assert_eq!(ev.oob_lanes, 1 << 7);
        assert_eq!(ev.used_lanes, 1 << 7);
        // UB-as-keep-own-value semantics preserved: lane 7 read lane 8's
        // value (the simulator's defined resolution).
        assert_eq!(out[7], 8);
    }

    #[test]
    fn discarded_var_sources_are_benign() {
        let v = per_lane(|l| l as i64);
        let mut rec = Recorder::default();
        // Lanes 0..16 active; lanes 8..16 read lanes 16..24 (inactive) but
        // their results are not in the used set.
        let src: [i32; WARP_SIZE] = core::array::from_fn(|l| (l + 8) as i32);
        let _ = checked::shfl_sync_var(&mut rec, 0xffff, v, &src, 0x00ff);
        assert_eq!(rec.0.len(), 1);
        let ev = rec.0[0];
        assert_eq!(ev.op, ShflOp::SyncVar);
        assert_eq!(ev.oob_lanes, 0xff00);
        assert_eq!(ev.used_lanes, 0, "discarded reads must not count as used");
    }

    #[test]
    fn broadcast_from_inactive_lane_flags_all_active_lanes() {
        let v = per_lane(|l| l as i64);
        let mut rec = Recorder::default();
        let _ = checked::shfl_sync(&mut rec, 0x0f, v, 20);
        assert_eq!(rec.0.len(), 1);
        assert_eq!(rec.0[0].oob_lanes, 0x0f);
        assert_eq!(rec.0[0].used_lanes, 0x0f);
    }

    #[test]
    fn in_mask_shuffles_report_nothing() {
        let v = per_lane(|l| l as i64);
        let mut rec = Recorder::default();
        let _ = checked::warp_reduce(&mut rec, full_mask(), v, |a, b| a + b);
        let _ = checked::shfl_sync(&mut rec, full_mask(), v, 3);
        assert!(rec.0.is_empty());
    }
}

#[cfg(test)]
mod vote_tests {
    use super::*;
    use crate::warp::{full_mask, per_lane};

    #[test]
    fn ballot_collects_predicate_lanes() {
        let pred = per_lane(|l| l % 3 == 0);
        let mask = ballot_sync(full_mask(), pred);
        for lane in 0..WARP_SIZE {
            assert_eq!(mask >> lane & 1 == 1, lane % 3 == 0, "lane {lane}");
        }
    }

    #[test]
    fn ballot_respects_active_mask() {
        let pred = [true; WARP_SIZE];
        assert_eq!(ballot_sync(0x0000_00ff, pred), 0xff);
    }

    #[test]
    fn ballot_never_sets_bits_outside_mask() {
        // All-true predicates on every lane: only masked lanes may vote,
        // regardless of the mask's shape.
        let pred = [true; WARP_SIZE];
        for mask in [
            0x0000_0001,
            0x8000_0000,
            0x0f0f_0f0f,
            0xffff_0000,
            0x5555_5555,
        ] {
            let got = ballot_sync(mask, pred);
            assert_eq!(got, mask, "mask {mask:#010x}");
            assert_eq!(got & !mask, 0, "out-of-mask bit set for {mask:#010x}");
        }
        // Mixed predicates: the result is exactly the intersection.
        let pred = per_lane(|l| l % 2 == 0);
        let got = ballot_sync(0x0000_ffff, pred);
        assert_eq!(got, 0x0000_5555);
    }

    #[test]
    fn ballot_with_empty_mask_is_zero() {
        // Full divergence: no lane participates, so no predicate — however
        // emphatic — contributes a bit.
        assert_eq!(ballot_sync(0, [true; WARP_SIZE]), 0);
        assert_eq!(ballot_sync(0, [false; WARP_SIZE]), 0);
        assert!(!any_sync(0, [true; WARP_SIZE]));
        // Degenerate but consistent: ballot(0) == mask(0), so all_sync
        // over an empty mask is vacuously true (CUDA leaves this UB; the
        // simulator pins the vacuous-truth reading).
        assert!(all_sync(0, [false; WARP_SIZE]));
    }

    #[test]
    fn any_and_all_follow_ballot() {
        let none = [false; WARP_SIZE];
        let all = [true; WARP_SIZE];
        let one = per_lane(|l| l == 17);
        let m = full_mask();
        assert!(!any_sync(m, none));
        assert!(any_sync(m, one));
        assert!(any_sync(m, all));
        assert!(!all_sync(m, none));
        assert!(!all_sync(m, one));
        assert!(all_sync(m, all));
        // With a partial mask, inactive lanes don't matter.
        assert!(all_sync(0xff, per_lane(|l| l < 8)));
    }
}
