//! `steady-kernels`: resident matrices, compute only.
//!
//! The four `bench_matrices()` classes at FP64 and FP16, width-32 SpMM and
//! a CG solve on a 200x200 Laplacian. Set-up (parse, analyze, fill,
//! verify) happens before the measured phase and shows only in `setup_s`;
//! it is repeated, unrecorded, at points spread over the measured phase.
//! Every counted call starts from a fresh `CountingProbe`, so the modeled
//! L2 starts empty, and runs on `Executor::seq()`.

use std::cell::Cell;
use std::time::Instant;

use dasp_core::{kernels, DaspMatrix, DaspParams, DaspPlan};
use dasp_fp16::{Scalar, F16};
use dasp_perf::{a100, estimate, measure_with, precision_of, Estimate, MethodKind};
use dasp_simt::{CountingProbe, Executor, KernelStats, NoProbe};
use dasp_solver::{cg, CgOptions, LinearOperator};
use dasp_sparse::{Csr, DenseMat};
use dasp_trace::{Span, Tracer};

use crate::check::{check_product, fingerprint};
use crate::report::{KERNELS, STEADY};
use crate::stats::{geomean, mean, median, quantile};
use crate::Run;
use crate::{host, inputs};

/// x vectors per (matrix, precision), rotated through the timed calls.
const X_POOL: usize = 4;
/// SpMM width: four 8-wide panels, so the multi-panel sweep runs.
const SPMM_WIDTH: usize = 32;
/// CG grid side (40k rows, 199k nonzeros: above the solver's 100k
/// parallel-executor cutoff).
const CG_GRID: usize = 200;
/// CG target relative residual.
const CG_TOL: f64 = 1e-8;
/// Share of the measured phase spent in CG solves.
const CG_SHARE: f64 = 0.3;
/// Set-ups before the measured phase (one round); the last one's matrices
/// stay resident.
const SETUPS: usize = 3;
/// Further set-ups spread evenly over the measured phase, a round of one
/// each; `setup_s` is the mean of the round medians (see
/// [`crate::stats::mean`]).
const SPREAD_SETUPS: usize = 8;
/// Repetitions of each per-layer probe in a traced run.
const LAYER_REPS: usize = 9;

/// One resident matrix at one precision with its checked inputs.
struct Resident<S: Scalar> {
    name: &'static str,
    csr: Csr<S>,
    dasp: DaspMatrix<S>,
    xs: Vec<Vec<S>>,
    /// Fingerprint of the checked result for each x.
    want: Vec<u64>,
    /// Counters of the first counted call (every later one must match).
    stats: Option<KernelStats>,
    y: Vec<S>,
}

impl<S: Scalar> Resident<S> {
    fn new(name: &'static str, csr: Csr<S>, dasp: DaspMatrix<S>, seed: u64, salt: u64) -> Self {
        let xs = (0..X_POOL)
            .map(|i| inputs::vector(csr.cols, seed, salt + i as u64))
            .collect();
        let y = vec![S::zero(); csr.rows];
        Resident {
            name,
            csr,
            dasp,
            xs,
            want: Vec::new(),
            stats: None,
            y,
        }
    }

    fn class(&self) -> String {
        format!("{}.{}", self.name, S::NAME)
    }

    /// Runs one uninstrumented SpMV per x and checks each against the
    /// rounding bound, recording the fingerprints later calls must match.
    fn check_first(&mut self, run: &mut Run) {
        let seq = Executor::seq();
        for x in &self.xs {
            self.dasp.spmv_into_with(x, &mut self.y, &mut NoProbe, &seq);
            run.tally
                .record(&self.class(), check_product(&self.csr, x, &self.y));
            self.want.push(fingerprint(&self.y));
        }
    }

    /// Timed uninstrumented SpMV on x number `i`.
    fn spmv(&mut self, run: &mut Run, i: usize) {
        let name = format!("spmv.{}", self.class());
        let (x, seq) = (&self.xs[i % X_POOL], Executor::seq());
        let (d, y) = (&self.dasp, &mut self.y);
        run.rec
            .time(&name, || d.spmv_into_with(x, y, &mut NoProbe, &seq));
        run.tally
            .same_bits(&self.class(), &self.y, self.want[i % X_POOL]);
    }

    /// Timed SpMV under a fresh counting probe; `y` must be bit-identical
    /// to the uninstrumented result and the counters to the first call's.
    fn counted(&mut self, run: &mut Run, i: usize) -> KernelStats {
        let name = format!("counted.{}", self.class());
        let (x, seq) = (&self.xs[i % X_POOL], Executor::seq());
        let (d, y) = (&self.dasp, &mut self.y);
        let stats = run.rec.time(&name, || {
            let mut p = CountingProbe::a100();
            d.spmv_into_with(x, y, &mut p, &seq);
            p.stats()
        });
        let what = format!("counted {}", self.class());
        run.tally.same_bits(&what, &self.y, self.want[i % X_POOL]);
        let first = *self.stats.get_or_insert(stats);
        run.tally.expect(&what, stats == first, || {
            "counters differ between calls".into()
        });
        stats
    }

    fn modeled(&self) -> Estimate {
        estimate(
            &self.stats.expect("counted once"),
            &a100(),
            precision_of::<S>(),
        )
    }
}

/// The width-32 SpMM operand of one matrix and its checked result.
struct Spmm {
    b: DenseMat<f64>,
    want: u64,
}

/// A `LinearOperator` that times every apply of the wrapped DASP matrix
/// (the solver layer's split between operator and solver self time).
struct TimedOp<'a> {
    inner: &'a DaspMatrix<f64>,
    parent: &'a Span,
    apply_s: Cell<f64>,
    applies: Cell<usize>,
}

impl LinearOperator for TimedOp<'_> {
    fn rows(&self) -> usize {
        self.inner.rows
    }
    fn cols(&self) -> usize {
        self.inner.cols
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let _sp = self.parent.child("solver.apply");
        let t = Instant::now();
        self.inner.apply(x, y);
        self.apply_s
            .set(self.apply_s.get() + t.elapsed().as_secs_f64());
        self.applies.set(self.applies.get() + 1);
    }
}

type Admitted = (
    Csr<f64>,
    DaspMatrix<f64>,
    Option<(Csr<F16>, DaspMatrix<F16>)>,
);

/// One set-up: every resident matrix made resident at FP64 and FP16, and
/// the CG matrix at FP64. Returns its time and the matrices.
fn set_up(run: &mut Run, blobs: &[Vec<u8>], lap_blob: &[u8]) -> (f64, (Vec<Admitted>, Admitted)) {
    let t = Instant::now();
    let root = run.rec.root("setup");
    let admitted = blobs
        .iter()
        .map(|blob| make_resident(run, blob, true, &root))
        .collect();
    let lap = make_resident(run, lap_blob, false, &root);
    drop(root);
    (t.elapsed().as_secs_f64(), (admitted, lap))
}

/// Parse, convert, analyze, fill and verify one matrix at FP64 (and FP16
/// when `fp16`): what making it resident costs.
fn make_resident(run: &mut Run, mm: &[u8], fp16: bool, root: &Span) -> Admitted {
    let rec = &run.rec;
    let coo = rec.time_in(root, "sparse.mm_parse", || {
        dasp_sparse::mm::read_matrix_market::<f64, _>(mm).expect("generated MatrixMarket parses")
    });
    let csr = rec.time_in(root, "sparse.to_csr", || coo.to_csr());
    let plan = rec.time_in(root, "dasp.analyze", || {
        DaspPlan::analyze(&csr, DaspParams::default())
    });
    let d64 = rec.time_in(root, "dasp.fill", || plan.fill(&csr));
    let report = rec.time_in(root, "verify.full", || dasp_verify::verify_full(&d64));
    run.tally
        .expect("verify_full", report.is_clean(), || report.summary());
    let half = fp16.then(|| {
        let h: Csr<F16> = csr.cast();
        let d16 = run.rec.time_in(root, "dasp.fill", || plan.fill(&h));
        let report = run
            .rec
            .time_in(root, "verify.full", || dasp_verify::verify_full(&d16));
        run.tally
            .expect("verify_full fp16", report.is_clean(), || report.summary());
        (h, d16)
    });
    (csr, d64, half)
}

pub fn run(run: &mut Run) {
    let seed = run.seed;
    // Inputs (not timed: matrix generation is not part of any metric).
    let sources = inputs::steady_matrices(seed);
    let lap_src = inputs::laplacian2d(CG_GRID);
    let blobs: Vec<Vec<u8>> = sources
        .iter()
        .map(|(_, c)| inputs::matrix_market(c))
        .collect();
    let lap_blob = inputs::matrix_market(&lap_src);
    drop(lap_src);

    // Set-up, repeated; the last copy stays resident.
    let mut setups = Vec::new();
    let mut resident = None;
    for _ in 0..SETUPS {
        let (t, admitted) = set_up(run, &blobs, &lap_blob);
        setups.push(t);
        resident = Some(admitted);
    }
    let mut setup_rounds = vec![median(&setups)];
    for (name, layer) in [
        ("sparse.mm_parse_ms", "sparse.mm_parse"),
        ("sparse.to_csr_ms", "sparse.to_csr"),
        ("dasp.analyze_ms", "dasp.analyze"),
        ("dasp.fill_ms", "dasp.fill"),
        ("verify.full_ms", "verify.full"),
    ] {
        run.report(name, run.rec.median(layer) * 1e3, "ms", "host");
    }
    let (admitted, (lap_csr, lap_dasp, _)) = resident.expect("set up at least once");

    // `fill` must build exactly what `from_csr` builds.
    let mut r64 = Vec::new();
    let mut r16 = Vec::new();
    let mut spmm = Vec::new();
    for (i, (c64, d64, half)) in admitted.into_iter().enumerate() {
        let name = STEADY[i];
        let (c16, d16) = half.expect("steady residents are built at FP16 too");
        run.tally
            .expect(name, d64 == DaspMatrix::from_csr(&c64), || {
                "fill != from_csr".into()
            });
        run.tally
            .expect(name, d16 == DaspMatrix::from_csr(&c16), || {
                "fp16 fill != from_csr".into()
            });
        let cols: Vec<Vec<f64>> = (0..SPMM_WIDTH)
            .map(|j| inputs::vector(c64.cols, seed, 0x5000 + 100 * i as u64 + j as u64))
            .collect();
        r64.push(Resident::new(name, c64, d64, seed, 0x1000 + 100 * i as u64));
        r16.push(Resident::new(name, c16, d16, seed, 0x2000 + 100 * i as u64));
        spmm.push(Spmm {
            b: DenseMat::from_columns(&cols),
            want: 0,
        });
    }

    // Warm-up: every operation once, checked against the rounding bound.
    for r in &mut r64 {
        r.check_first(run);
    }
    for r in &mut r16 {
        r.check_first(run);
    }
    for (r, s) in r64.iter().zip(&mut spmm) {
        let y = r.dasp.spmm_with(&s.b, &mut NoProbe, &Executor::seq());
        for j in 0..SPMM_WIDTH {
            let res = check_product(&r.csr, &s.b.column(j), &y.column(j));
            run.tally.record(&format!("spmm {} col {j}", r.name), res);
        }
        s.want = fingerprint(y.data());
    }
    for i in 0..X_POOL {
        for r in &mut r64 {
            r.spmv(run, i);
            r.counted(run, i);
        }
        for r in &mut r16 {
            r.spmv(run, i);
            r.counted(run, i);
        }
    }
    run.rec.clear();

    // Measured phase: kernel rounds interleaved with CG solves.
    let bs: Vec<Vec<f64>> = (0..2)
        .map(|i| inputs::vector(lap_csr.rows, seed, 0x3000 + i))
        .collect();
    let mut cg_seen: Vec<Option<(usize, u64)>> = vec![None; bs.len()];
    let start = Instant::now();
    let end = run.deadline(1.0);
    let (mut cg_s, mut kernel_ops, mut round, mut solves) = (0.0, 0usize, 0usize, 0usize);
    let mut setup_spent = 0.0;
    while Instant::now() < end {
        let share = start.elapsed().as_secs_f64() / run.measure.as_secs_f64();
        if setup_rounds.len() <= SPREAD_SETUPS
            && share >= (setup_rounds.len() - 1) as f64 / SPREAD_SETUPS as f64
        {
            run.rec.set_recording(false);
            let (t, _) = set_up(run, &blobs, &lap_blob);
            run.rec.set_recording(true);
            setup_rounds.push(t);
            setup_spent += t;
            continue;
        }
        if cg_s < CG_SHARE * start.elapsed().as_secs_f64() {
            let t = Instant::now();
            let k = solves % bs.len();
            let (iters, fp) = cg_solve(run, &lap_dasp, &lap_csr, &bs[k]);
            let prev = *cg_seen[k].get_or_insert((iters, fp));
            run.tally
                .expect("cg", prev == (iters, fp), || "CG not deterministic".into());
            cg_s += t.elapsed().as_secs_f64();
            solves += 1;
            continue;
        }
        // In a traced run, every other round runs with spans off so the
        // harness's own tracing overhead can be read off.
        run.rec.set_live(round % 2 == 0);
        for r in &mut r64 {
            r.spmv(run, round);
            r.counted(run, round);
        }
        for r in &mut r16 {
            r.spmv(run, round);
            r.counted(run, round);
        }
        for (r, s) in r64.iter().zip(&spmm) {
            let y = run.rec.time(&format!("spmm.{}", r.name), || {
                r.dasp.spmm_with(&s.b, &mut NoProbe, &Executor::seq())
            });
            run.tally
                .same_bits(&format!("spmm {}", r.name), y.data(), s.want);
        }
        run.rec.set_live(true);
        kernel_ops += 2 * (r64.len() + r16.len()) + spmm.len();
        round += 1;
    }
    let kernel_s = start.elapsed().as_secs_f64() - cg_s - setup_spent;
    println!(
        "measured {round} kernel rounds and {solves} CG solves; {} set-up rounds",
        setup_rounds.len()
    );
    run.report("setup_s", mean(&setup_rounds), "s", "host");

    // End-to-end figures.
    let classes: Vec<String> = r64
        .iter()
        .map(|r| r.class())
        .chain(r16.iter().map(|r| r.class()))
        .collect();
    let per_class = |prefix: &str, q: f64| -> Vec<f64> {
        classes
            .iter()
            .map(|c| quantile(&run.rec.samples(&format!("{prefix}.{c}")), q) * 1e6)
            .collect()
    };
    let spmm_q = |q: f64| -> Vec<f64> {
        r64.iter()
            .map(|r| quantile(&run.rec.samples(&format!("spmm.{}", r.name)), q) * 1e6)
            .collect()
    };
    let (spmv0, spmv50, spmv90) = (
        per_class("spmv", 0.0),
        per_class("spmv", 0.5),
        per_class("spmv", 0.9),
    );
    let counted50 = per_class("counted", 0.5);
    let (spmm50, spmm90) = (spmm_q(0.5), spmm_q(0.9));
    let modeled: Vec<f64> = r64
        .iter()
        .map(|r| r.modeled().seconds)
        .chain(r16.iter().map(|r| r.modeled().seconds))
        .map(|s| s * 1e6)
        .collect();
    for (c, (w, m)) in classes.iter().zip(spmv50.iter().zip(&modeled)) {
        println!("class {c} spmv_p50_us {w:.3} modeled_us {m:.4}");
    }
    run.detail("spmv_p50_us", geomean(&spmv50), "us", "host");
    run.detail("counted_spmv_p50_us", geomean(&counted50), "us", "host");
    run.detail("spmm_p50_us", geomean(&spmm50), "us", "host");
    run.detail("modeled_spmv_us", geomean(&modeled), "us", "modeled");
    run.detail(
        "kernel_ops_per_s",
        kernel_ops as f64 / kernel_s,
        "1/s",
        "host",
    );
    run.detail("spmv_min_us", geomean(&spmv0), "us", "host");
    run.detail("spmm_p90_us", geomean(&spmm90), "us", "host");
    run.detail("spmv_p90_us", geomean(&spmv90), "us", "host");
    run.report("op_us", geomean(&spmv90), "us", "host");
    run.report("modeled_us", geomean(&modeled), "us", "modeled");
    run.report("dasp.spmm_p50_us", geomean(&spmm50), "us", "host");
    run.report(
        "simt.counted_spmv_p50_us",
        geomean(&counted50),
        "us",
        "host",
    );
    let (cg_solve, cg_iters) = (
        run.rec.median("solver.cg"),
        run.rec.median("solver.cg_iters"),
    );
    run.detail("cg_solve_s", cg_solve, "s", "host");
    run.detail("cg_iters", cg_iters, "count", "exact");
    run.report("solver.cg_solve_s", cg_solve, "s", "host");
    run.report("solver.cg_iters", cg_iters, "count", "exact");
    run.report(
        "solver.apply_s",
        run.rec.median("solver.apply_total"),
        "s",
        "host",
    );
    run.report("solver.self_s", run.rec.median("solver.self"), "s", "host");
    run.report(
        "solver.applies",
        run.rec.median("solver.applies"),
        "count",
        "exact",
    );

    // Deterministic cross-checks and the modeled per-layer figures.
    cross_check(run, &r64);
    cross_check(run, &r16);
    let dev = a100();
    let mut modeled_spmm = Vec::new();
    for (r, s) in r64.iter().zip(&spmm) {
        let mut p = CountingProbe::a100();
        let y = r.dasp.spmm_with(&s.b, &mut p, &Executor::seq());
        run.tally
            .same_bits(&format!("counted spmm {}", r.name), y.data(), s.want);
        modeled_spmm.push(estimate(&p.stats(), &dev, precision_of::<f64>()).seconds * 1e6);
    }
    run.detail("modeled_spmm_us", geomean(&modeled_spmm), "us", "modeled");
    run.report(
        "perf.modeled_spmm_us",
        geomean(&modeled_spmm),
        "us",
        "modeled",
    );
    for r in &r64 {
        let m = r.name;
        let st = r.dasp.category_stats();
        let stored = st.stored_long + st.stored_medium + st.stored_short;
        run.report(
            format!("dasp.fill_rate.{m}"),
            stored as f64 / st.nnz as f64,
            "ratio",
            "exact",
        );
        let (random, compute, misc) = r.modeled().shares();
        run.report(
            format!("perf.compute_share.{m}"),
            compute,
            "ratio",
            "modeled",
        );
        run.report(format!("perf.random_share.{m}"), random, "ratio", "modeled");
        run.report(format!("perf.misc_share.{m}"), misc, "ratio", "modeled");
        let s = r.stats.expect("counted");
        run.report(
            format!("simt.x_hit_rate.{m}"),
            s.x_hits as f64 / s.x_requests as f64,
            "ratio",
            "modeled",
        );
    }
    let mut probe = (0.0, 0.0);
    for r in &r64 {
        let (plain, counted) = (
            run.rec.median(&format!("spmv.{}", r.class())),
            run.rec.median(&format!("counted.{}", r.class())),
        );
        run.report(
            format!("dasp.spmv_us.{}", r.name),
            plain * 1e6,
            "us",
            "host",
        );
        run.report(
            format!("simt.probe_us.{}", r.name),
            (counted - plain) * 1e6,
            "us",
            "host",
        );
        probe = (probe.0 + counted - plain, probe.1 + counted);
    }
    run.report("simt.probe_share", probe.0 / probe.1, "ratio", "host");
    let ratios: Vec<f64> = r16
        .iter()
        .zip(&r64)
        .map(|(h, d)| {
            run.rec.median(&format!("spmv.{}", h.class()))
                / run.rec.median(&format!("spmv.{}", d.class()))
        })
        .collect();
    run.report("fp16.spmv_ratio", geomean(&ratios), "ratio", "host");

    // Per-layer probes that only a traced run pays for.
    if run.rec.traced() {
        layer_sweep(run, &r64, &lap_dasp);
        // Measured rounds alternate spans on (even) and off (odd).
        let overhead: Vec<f64> = classes
            .iter()
            .map(|c| {
                let s = run.rec.samples(&format!("spmv.{c}"));
                let on: Vec<f64> = s.iter().step_by(2).copied().collect();
                let off: Vec<f64> = s.iter().skip(1).step_by(2).copied().collect();
                median(&on) / median(&off)
            })
            .collect();
        run.report(
            "harness.trace_overhead_frac",
            geomean(&overhead) - 1.0,
            "ratio",
            "host",
        );
    }
}

/// One CG solve from zero on the resident Laplacian; checks the true
/// residual and returns the iteration count and a fingerprint of `x`.
fn cg_solve(run: &mut Run, a: &DaspMatrix<f64>, csr: &Csr<f64>, b: &[f64]) -> (usize, u64) {
    let root = run.rec.root("solver.cg");
    let op = TimedOp {
        inner: a,
        parent: &root,
        apply_s: Cell::new(0.0),
        applies: Cell::new(0),
    };
    let opts = CgOptions {
        tol: CG_TOL,
        max_iters: 20_000,
    };
    let t = Instant::now();
    let sol = cg(&op, b, opts);
    let total = t.elapsed().as_secs_f64();
    let (apply_s, applies) = (op.apply_s.get(), op.applies.get());
    drop(root);
    let sol = match sol {
        Ok(s) => s,
        Err(e) => {
            run.tally.record("cg", Err(format!("{e:?}")));
            return (0, 0);
        }
    };
    run.rec.push("solver.cg", total);
    run.rec.push("solver.cg_iters", sol.iterations as f64);
    run.rec.push("solver.apply_total", apply_s);
    run.rec.push("solver.self", total - apply_s);
    run.rec.push("solver.applies", applies as f64);
    let ax = csr.spmv_reference(&sol.x);
    let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|x| x * x).sum::<f64>().sqrt();
    let res = norm(&mut ax.iter().zip(b).map(|(p, q)| q - p)) / norm(&mut b.iter().copied());
    run.tally.expect("cg residual", res <= CG_TOL, || {
        format!("true residual {res:e} > {CG_TOL:e}")
    });
    (sol.iterations, fingerprint(&sol.x))
}

/// The deterministic cross-checks of one precision's residents:
/// * the modeled time equals `dasp_perf::measure_with`'s estimate;
/// * the six kernels called directly sum, in every order-independent
///   counter except those `kernel_launch` sets, to the whole call, and
///   write the same `y`.
fn cross_check<S: Scalar>(run: &mut Run, rs: &[Resident<S>]) {
    let dev = a100();
    for r in rs {
        let what = format!("cross-check {}", r.class());
        let m = measure_with(MethodKind::Dasp, &r.csr, &r.xs[0], &dev, &Executor::seq());
        let mine = r.modeled().seconds;
        run.tally.expect(&what, m.estimate.seconds == mine, || {
            format!("modeled {mine:e} s != measure {:e} s", m.estimate.seconds)
        });
        let mut y = vec![S::zero(); r.csr.rows];
        let mut sum = KernelStats::default();
        for k in KERNELS {
            let mut p = CountingProbe::a100();
            direct_kernel(&r.dasp, k, &r.xs[0], &mut y, &mut p);
            sum.merge(&p.stats().order_independent());
        }
        let unlaunched = |s: KernelStats| KernelStats {
            launches: 0,
            blocks: 0,
            warps: 0,
            ..s.order_independent()
        };
        let whole = r.stats.expect("counted");
        run.tally
            .expect(&what, unlaunched(sum) == unlaunched(whole), || {
                format!("kernel counters {sum:?} do not sum to {whole:?}")
            });
        run.tally.same_bits(&what, &y, r.want[0]);
    }
}

/// Calls one category kernel of `m` directly (not through the `spmv`
/// funnel), on the sequential executor.
fn direct_kernel<S: Scalar, P: dasp_simt::ShardableProbe>(
    m: &DaspMatrix<S>,
    k: &str,
    x: &[S],
    y: &mut [S],
    p: &mut P,
) {
    let seq = Executor::seq();
    match k {
        "long" => kernels::spmv_long_with(&m.long, x, y, p, &seq),
        "medium" => kernels::spmv_medium_with(&m.medium, x, y, p, &seq),
        "short13" => kernels::spmv_short13_with(&m.short, x, y, p, &seq),
        "short4" => kernels::spmv_short4_with(&m.short, x, y, p, &seq),
        "short22" => kernels::spmv_short22_with(&m.short, x, y, p, &seq),
        _ => kernels::spmv_short1_with(&m.short, x, y, p, &seq),
    }
}

/// The traced run's extra per-layer probes on the FP64 residents: the
/// native floor, each kernel called directly (wall and modeled), the
/// tracer's and the sanitizer's cost, and the parallel executor.
fn layer_sweep(run: &mut Run, rs: &[Resident<f64>], lap: &DaspMatrix<f64>) {
    let seq = Executor::seq();
    let dev = a100();
    let mut kernel_wall = [0.0f64; 6];
    let mut kernel_modeled = [0.0f64; 6];
    let mut trace_over = Vec::new();
    let mut san_ratio = Vec::new();
    for r in rs {
        let (m, x) = (r.name, &r.xs[0]);
        let mut y = vec![0.0; r.csr.rows];
        for _ in 0..LAYER_REPS {
            run.rec.time(&format!("native.{m}"), || {
                host::native_spmv(&r.csr, x, &mut y)
            });
            for k in KERNELS {
                run.rec.time(&format!("kernel.{k}.{m}"), || {
                    direct_kernel(&r.dasp, k, x, &mut y, &mut NoProbe)
                });
            }
            run.rec.time(&format!("plain.{m}"), || {
                r.dasp.spmv_into_with(x, &mut y, &mut NoProbe, &seq)
            });
            let tracer = Tracer::new();
            run.rec.time(&format!("traced.{m}"), || {
                r.dasp
                    .spmv_into_traced_with(x, &mut y, &mut NoProbe, &tracer, &seq)
            });
            run.tally.same_bits(&format!("traced {m}"), &y, r.want[0]);
            run.rec.time(&format!("counted1.{m}"), || {
                r.dasp
                    .spmv_into_with(x, &mut y, &mut CountingProbe::a100(), &seq)
            });
            let mut sp = dasp_sanitize::SanitizeProbe::new(CountingProbe::a100());
            run.rec.time(&format!("sanitized.{m}"), || {
                r.dasp.spmv_into_with(x, &mut y, &mut sp, &seq)
            });
            run.tally
                .same_bits(&format!("sanitized {m}"), &y, r.want[0]);
            let report = sp.report();
            run.tally
                .expect(&format!("sanitize {m}"), report.is_clean(), || {
                    report.to_json()
                });
        }
        run.report(
            format!("native.csr_spmv_us.{m}"),
            run.rec.median(&format!("native.{m}")) * 1e6,
            "us",
            "host",
        );
        for (i, k) in KERNELS.iter().enumerate() {
            kernel_wall[i] += run.rec.median(&format!("kernel.{k}.{m}")) * 1e6;
            let mut p = CountingProbe::a100();
            direct_kernel(&r.dasp, k, x, &mut y, &mut p);
            kernel_modeled[i] += estimate(&p.stats(), &dev, precision_of::<f64>()).seconds * 1e6;
        }
        let plain = run.rec.median(&format!("plain.{m}"));
        trace_over.push((run.rec.median(&format!("traced.{m}")) - plain) * 1e6);
        san_ratio.push(
            run.rec.median(&format!("sanitized.{m}")) / run.rec.median(&format!("counted1.{m}")),
        );
    }
    for (i, k) in KERNELS.iter().enumerate() {
        run.report(
            format!("dasp.kernel.{k}.wall_us"),
            kernel_wall[i],
            "us",
            "host",
        );
        run.report(
            format!("dasp.kernel.{k}.modeled_us"),
            kernel_modeled[i],
            "us",
            "modeled",
        );
    }
    run.report(
        "trace.spmv_overhead_us",
        trace_over.iter().sum::<f64>() / trace_over.len() as f64,
        "us",
        "host",
    );
    run.report(
        "sanitize.overhead_ratio",
        geomean(&san_ratio),
        "ratio",
        "host",
    );
    let x = inputs::vector::<f64>(lap.cols, run.seed, 0x3100);
    let mut y = vec![0.0; lap.rows];
    let par = Executor::par();
    for _ in 0..LAYER_REPS {
        run.rec.time("par_spmv", || {
            lap.spmv_into_with(&x, &mut y, &mut NoProbe, &par)
        });
    }
    run.report(
        "simt.par_spmv_us",
        run.rec.median("par_spmv") * 1e6,
        "us",
        "host",
    );
}
