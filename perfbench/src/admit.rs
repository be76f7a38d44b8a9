//! `admit-churn`: a seeded stream of MatrixMarket arrivals.
//!
//! Each admission runs MatrixMarket bytes → `read_matrix_market` →
//! `to_csr` → `PlanCache::plan_for` → `fill` → `verify_full` → one
//! uninstrumented SpMV whose output is checked. Arrivals draw from a pool
//! of patterns larger than the plan cache, each with fresh values, so the
//! cache both hits and misses. Value refreshes of resident matrices
//! (`update_values` plus one checked SpMV) are mixed in as the write path.

use std::time::Instant;

use dasp_core::{DaspMatrix, DaspParams, PlanCache, DEFAULT_PLAN_CACHE_CAP};
use dasp_perf::{a100, estimate, precision_of};
use dasp_simt::{CountingProbe, Executor, NoProbe};
use dasp_sparse::Csr;

use crate::check::check_product;
use crate::inputs::{self, Rng};
use crate::stats::{geomean, mean, median, quantile};
use crate::Run;

/// Distinct patterns in the arrival pool (more than the plan cache holds).
const POOL: usize = 12;
/// Value variants per pattern.
const VARIANTS: usize = 2;
/// Pool patterns (small, middle, large) kept resident for the refresh
/// path.
const RESIDENTS: [usize; 3] = [2, 6, 10];
/// Value refreshes after each admission.
const REFRESHES_PER_ADMISSION: usize = 2;
/// Distinct value sets a resident cycles through.
const VERSIONS: usize = 5;
/// Set-ups per round. One round runs before the measured phase (its last
/// set-up's cache and residents stay) and [`SPREAD_ROUNDS`] more, with the
/// layer recorder off, at points spread evenly over it; `setup_s` is the
/// mean of the round medians (see [`crate::stats::mean`]).
const SETUPS_PER_ROUND: usize = 3;
/// Set-up rounds spread over the measured phase.
const SPREAD_ROUNDS: usize = 12;

/// One arrival: its bytes and the x vector its check SpMV uses.
struct Blob {
    pattern: usize,
    bytes: Vec<u8>,
    x: Vec<f64>,
}

/// A resident matrix on the refresh path.
struct Resident {
    /// The matrix under each of its [`VERSIONS`] value sets.
    versions: Vec<Csr<f64>>,
    dasp: DaspMatrix<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    refreshes: usize,
}

/// Admits one MatrixMarket blob: every step timed as its own layer call
/// under an `admit` span. Returns the parsed CSR and the admitted matrix,
/// with `y` holding the check SpMV's result.
fn admit(
    run: &mut Run,
    cache: &PlanCache,
    blob: &Blob,
    y: &mut Vec<f64>,
) -> Option<(Csr<f64>, DaspMatrix<f64>)> {
    let class = format!("admit.p{}", blob.pattern);
    let rec = &run.rec;
    let root = rec.root("admit");
    let t = Instant::now();
    let coo = match rec.time_in(&root, "sparse.mm_parse", || {
        dasp_sparse::mm::read_matrix_market::<f64, _>(&blob.bytes[..])
    }) {
        Ok(c) => c,
        Err(e) => {
            run.tally.record("admit parse", Err(e.to_string()));
            return None;
        }
    };
    let csr = rec.time_in(&root, "sparse.to_csr", || coo.to_csr());
    let misses = cache.misses();
    let plan = rec.time_in(&root, "dasp.plan_for", || {
        cache.plan_for(&csr, DaspParams::default())
    });
    if cache.misses() > misses {
        let last = rec
            .samples("dasp.plan_for")
            .last()
            .copied()
            .unwrap_or(f64::NAN);
        rec.push("dasp.analyze", last);
    }
    let m = rec.time_in(&root, "dasp.fill", || plan.fill(&csr));
    let report = rec.time_in(&root, "verify.full", || dasp_verify::verify_full(&m));
    y.resize(csr.rows, 0.0);
    rec.time_in(&root, "dasp.check_spmv", || {
        m.spmv_into_with(&blob.x, y, &mut NoProbe, &Executor::seq())
    });
    let took = t.elapsed().as_secs_f64();
    drop(root);
    rec.push(if rec.live() { "admit.on" } else { "admit.off" }, took);
    rec.push(&class, took);
    run.tally
        .expect("admit verify_full", report.is_clean(), || report.summary());
    Some((csr, m))
}

/// One set-up: the residents admitted through the full path from a cold
/// plan cache. Returns its time, the cache and each resident's CSR,
/// admitted matrix, blob and check-SpMV result.
#[allow(clippy::type_complexity)]
fn set_up<'a>(
    run: &mut Run,
    blobs: &'a [Blob],
) -> (
    f64,
    PlanCache,
    Vec<(Csr<f64>, DaspMatrix<f64>, &'a Blob, Vec<f64>)>,
) {
    let cache = PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAP);
    let mut y = Vec::new();
    let t = Instant::now();
    let admitted = RESIDENTS
        .iter()
        .filter_map(|&p| {
            let blob = &blobs[p * VARIANTS];
            admit(run, &cache, blob, &mut y).map(|(csr, dasp)| (csr, dasp, blob, y.clone()))
        })
        .collect();
    (t.elapsed().as_secs_f64(), cache, admitted)
}

/// Checks an admission: the SpMV output against the rounding bound, and
/// the filled matrix against a from-scratch `from_csr` build.
fn check_admission(run: &mut Run, csr: &Csr<f64>, m: &DaspMatrix<f64>, x: &[f64], y: &[f64]) {
    run.tally.record("admit spmv", check_product(csr, x, y));
    run.tally
        .expect("admit fill", *m == DaspMatrix::from_csr(csr), || {
            "fill != from_csr".into()
        });
}

pub fn run(run: &mut Run) {
    let seed = run.seed;
    // Inputs (not timed): the pattern pool with its value variants.
    let mut rng = Rng::new(seed, 0xa0);
    let mut pool = Vec::new();
    let mut blobs = Vec::new();
    for i in 0..POOL {
        let (family, csr) = inputs::admit_pattern(seed, i, POOL);
        println!(
            "pattern {i} {family} rows {} cols {} nnz {}",
            csr.rows,
            csr.cols,
            csr.nnz()
        );
        let x = inputs::vector(csr.cols, seed, 0xb000 + i as u64);
        for _ in 0..VARIANTS {
            let f = 0.5 + rng.unit();
            let bytes = inputs::matrix_market(&inputs::scaled(&csr, f));
            blobs.push(Blob {
                pattern: i,
                bytes,
                x: x.clone(),
            });
        }
        pool.push(csr);
    }

    // Set-up: admit the resident matrices through the full path, from a
    // cold plan cache; the last set-up's cache and residents stay.
    let mut round = Vec::new();
    let mut cache = PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAP);
    let mut residents: Vec<Resident> = Vec::new();
    for _ in 0..SETUPS_PER_ROUND {
        let (t, c, admitted) = set_up(run, &blobs);
        round.push(t);
        cache = c;
        residents = admitted
            .into_iter()
            .map(|(csr, dasp, blob, y)| Resident {
                versions: (0..VERSIONS)
                    .map(|v| inputs::scaled(&csr, 1.0 + 0.25 * v as f64))
                    .collect(),
                dasp,
                x: blob.x.clone(),
                y,
                refreshes: 0,
            })
            .collect();
    }
    let mut setup_rounds = vec![median(&round)];
    for r in &residents {
        check_admission(run, &r.versions[0], &r.dasp, &r.x, &r.y);
    }
    run.rec.clear();

    // Measured phase: each admission is followed by value refreshes of
    // seeded residents.
    let (mut admissions, mut refreshes) = (0usize, 0usize);
    let (mut y, mut setup_spent) = (Vec::new(), 0.0);
    let start = Instant::now();
    let end = run.deadline(1.0);
    while Instant::now() < end {
        let share = start.elapsed().as_secs_f64() / run.measure.as_secs_f64();
        if setup_rounds.len() <= SPREAD_ROUNDS
            && share >= (setup_rounds.len() - 1) as f64 / SPREAD_ROUNDS as f64
        {
            run.rec.set_recording(false);
            round.clear();
            for _ in 0..SETUPS_PER_ROUND {
                round.push(set_up(run, &blobs).0);
            }
            run.rec.set_recording(true);
            setup_rounds.push(median(&round));
            setup_spent += round.iter().sum::<f64>();
            continue;
        }
        // In a traced run, every other admission runs with spans off.
        run.rec.set_live(admissions % 2 == 0);
        let blob = &blobs[rng.below(blobs.len())];
        if let Some((csr, m)) = admit(run, &cache, blob, &mut y) {
            check_admission(run, &csr, &m, &blob.x, &y);
        }
        admissions += 1;
        for _ in 0..REFRESHES_PER_ADMISSION {
            let k = rng.below(residents.len());
            let r = &mut residents[k];
            r.refreshes += 1;
            let next = &r.versions[r.refreshes % r.versions.len()];
            let rec = &run.rec;
            let root = rec.root("refresh");
            let t = Instant::now();
            let res = rec.time_in(&root, "dasp.update_values", || {
                r.dasp.update_values(&next.vals)
            });
            rec.time_in(&root, "dasp.check_spmv", || {
                r.dasp
                    .spmv_into_with(&r.x, &mut r.y, &mut NoProbe, &Executor::seq())
            });
            rec.push(&format!("refresh.r{k}"), t.elapsed().as_secs_f64());
            drop(root);
            let out = res
                .map_err(|e| e.to_string())
                .and_then(|_| check_product(next, &r.x, &r.y));
            run.tally.record("refresh", out);
            refreshes += 1;
        }
    }
    run.rec.set_live(true);
    let secs = start.elapsed().as_secs_f64() - setup_spent;
    println!(
        "measured {admissions} admissions and {refreshes} refreshes; {} set-up rounds",
        setup_rounds.len()
    );
    run.report("setup_s", mean(&setup_rounds), "s", "host");

    // Geomeans over the pool of each pattern's own quantiles: robust to
    // how often the seeded stream happened to draw each size.
    let per_pattern = |q: f64| -> Vec<f64> {
        (0..POOL)
            .map(|i| quantile(&run.rec.samples(&format!("admit.p{i}")), q))
            .collect()
    };
    let per_resident = |q: f64| -> Vec<f64> {
        (0..residents.len())
            .map(|k| quantile(&run.rec.samples(&format!("refresh.r{k}")), q))
            .collect()
    };
    let (p0, p50, p90) = (
        geomean(&per_pattern(0.0)),
        geomean(&per_pattern(0.5)),
        geomean(&per_pattern(0.9)),
    );
    let (refresh50, refresh90) = (geomean(&per_resident(0.5)), geomean(&per_resident(0.9)));
    run.detail("admit_p50_ms", p50 * 1e3, "ms", "host");
    run.detail("admit_p90_ms", p90 * 1e3, "ms", "host");
    run.detail("refresh_p50_ms", refresh50 * 1e3, "ms", "host");
    run.detail(
        "ops_per_s",
        (admissions + refreshes) as f64 / secs,
        "1/s",
        "host",
    );
    run.detail("admit_min_ms", p0 * 1e3, "ms", "host");
    run.detail("refresh_p90_ms", refresh90 * 1e3, "ms", "host");
    run.report("op_us", p90 * 1e6, "us", "host");
    run.report("dasp.refresh_p50_ms", refresh50 * 1e3, "ms", "host");

    // Modeled SpMV time over the whole pattern pool: deterministic per
    // seed, whichever arrivals the timed phase happened to draw.
    let dev = a100();
    let modeled: Vec<f64> = pool
        .iter()
        .enumerate()
        .map(|(i, csr)| {
            let m = DaspMatrix::from_csr(csr);
            let x = &blobs[i * VARIANTS].x;
            let mut p = CountingProbe::a100();
            let y = m.spmv_with(x, &mut p, &Executor::seq());
            run.tally.record("modeled spmv", check_product(csr, x, &y));
            estimate(&p.stats(), &dev, precision_of::<f64>()).seconds * 1e6
        })
        .collect();
    run.report("modeled_us", geomean(&modeled), "us", "modeled");

    // Per-layer figures.
    let (hits, misses) = (cache.hits(), cache.misses());
    println!(
        "plan_cache hits {hits} misses {misses} evictions {}",
        cache.evictions()
    );
    run.report(
        "dasp.plan_cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        "exact",
    );
    for (name, layer) in [
        ("sparse.mm_parse_ms", "sparse.mm_parse"),
        ("sparse.to_csr_ms", "sparse.to_csr"),
        ("dasp.analyze_ms", "dasp.analyze"),
        ("dasp.fill_ms", "dasp.fill"),
        ("verify.full_ms", "verify.full"),
        ("dasp.update_values_ms", "dasp.update_values"),
        ("dasp.check_spmv_ms", "dasp.check_spmv"),
    ] {
        run.report(name, run.rec.median(layer) * 1e3, "ms", "host");
    }
    if run.rec.traced() {
        let on = median(&run.rec.samples("admit.on"));
        let off = median(&run.rec.samples("admit.off"));
        run.report(
            "harness.trace_overhead_frac",
            on / off - 1.0,
            "ratio",
            "host",
        );
    }
}
