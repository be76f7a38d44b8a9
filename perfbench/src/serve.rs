//! `serve-mixed`: a `Server<f64>` in the configuration the `dasp-serve`
//! CLI uses (A100 model on, 2 workers, sequential executor, default 200 µs
//! batching window) holding the three quick-suite matrices.
//!
//! Closed loop: in the coalescing phase each of up to `nproc` (at most 2)
//! generator threads submits bursts of 8 SpMVs to one matrix and waits
//! for all 8; about 1 burst in 50 is instead a value refresh of the matrix
//! the thread owns, the write barrier beside the reads. In the solo phase
//! one request is in flight at a time, so nothing can coalesce.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dasp_core::DaspMatrix;
use dasp_perf::{a100, estimate, precision_of};
use dasp_serve::{metrics as sm, ServeConfig, Server, ServerHandle};
use dasp_simt::{CountingProbe, Executor, NoProbe};
use dasp_sparse::{Csr, DenseMat};
use dasp_trace::{Histogram, MetricValue, Tracer};

use crate::check::{check_product, fingerprint, Tally};
use crate::host;
use crate::inputs::{self, Rng};
use crate::stats::{geomean, mean, median, quantile};
use crate::Run;

/// Requests per burst (the server's `max_batch`).
const BURST: usize = 8;
/// One burst in this many is a refresh.
const REFRESH_EVERY: usize = 50;
/// x vectors per matrix.
const X_POOL: usize = 8;
/// Share of the measured phase spent in the coalescing phases.
const COALESCE_SHARE: f64 = 0.75;
/// Coalescing/solo cycles per run.
const CYCLES: usize = 16;
/// Set-ups per round. A round runs at the start and after each coalescing
/// phase; `setup_s` is the mean of the round medians (see
/// [`crate::stats::mean`]).
const SETUPS_PER_ROUND: usize = 6;

/// Draws of the served matrix classes the modeled figure is taken over
/// (the first is the served matrices).
const MODEL_DRAWS: usize = 16;

/// Distinct value sets a served matrix cycles through.
const VERSIONS: usize = 5;

/// The values of a served matrix after `v` refreshes.
fn version(base: &Csr<f64>, v: usize) -> Vec<f64> {
    let f = 1.0 + 0.25 * (v % VERSIONS) as f64;
    base.vals.iter().map(|x| x * f).collect()
}

/// One answered request, checked after the run: its reply must be
/// bit-identical to a direct SpMV on some matrix version that was current
/// while it was in flight (`lo..=hi`).
struct Answer {
    matrix: usize,
    x: usize,
    lo: usize,
    hi: usize,
    fp: u64,
}

/// What one generator thread measured.
#[derive(Default)]
struct Gen {
    lat_on: Vec<f64>,
    lat_off: Vec<f64>,
    submit: Vec<f64>,
    refresh: Vec<f64>,
    answers: Vec<Answer>,
    tally: Tally,
}

/// Per-matrix refresh versions: `started` counts refreshes submitted,
/// `done` refreshes answered. Each counter is written only by the thread
/// that owns the matrix (`AcqRel` increments) and read with `Acquire`, so a
/// reader that sees a count also sees that the refresh was submitted or
/// answered.
struct Versions {
    started: Vec<AtomicUsize>,
    done: Vec<AtomicUsize>,
}

/// One set-up: start a server and register the matrices. Returns its
/// time and the server.
fn set_up(run: &Run, mats: &[(&str, Csr<f64>)]) -> (f64, Server<f64>) {
    let t = Instant::now();
    let s = run
        .rec
        .time("serve.start", || Server::<f64>::start(config()));
    for (name, csr) in mats {
        run.rec.time("serve.register", || s.register(name, csr));
    }
    (t.elapsed().as_secs_f64(), s)
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: host::nproc().min(2),
        model: Some(a100()),
        executor: Executor::seq(),
        ..ServeConfig::default()
    }
}

pub fn run(run: &mut Run) {
    let seed = run.seed;
    let mats = inputs::serve_matrices(seed);
    let names: Vec<&str> = mats.iter().map(|(n, _)| *n).collect();
    let xs: Vec<Vec<Vec<f64>>> = mats
        .iter()
        .enumerate()
        .map(|(m, (_, c))| {
            (0..X_POOL)
                .map(|i| inputs::vector(c.cols, seed, 0x6000 + 100 * m as u64 + i as u64))
                .collect()
        })
        .collect();

    // Set-up: start the server and register the matrices. Repeated in
    // rounds spread over the run (see `SETUPS_PER_ROUND`); the first round's
    // last server is the one that serves.
    let mut rounds = Vec::new();
    let mut round = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS_PER_ROUND {
        if let Some(s) = server.take() {
            let _ = Server::<f64>::shutdown(s);
        }
        let (t, s) = set_up(run, &mats);
        round.push(t);
        server = Some(s);
    }
    rounds.push(median(&round));
    let server = server.expect("started");

    let versions = Versions {
        started: (0..mats.len()).map(|_| AtomicUsize::new(0)).collect(),
        done: (0..mats.len()).map(|_| AtomicUsize::new(0)).collect(),
    };
    let threads = host::nproc().clamp(1, 2);

    // Warm-up, then cycles of a coalescing phase followed by a solo phase
    // (one request in flight at a time), so both phases sample the host
    // across the whole run.
    let warm = run.deadline(0.05);
    generate(
        &server.handle(),
        &mats,
        &xs,
        &versions,
        threads,
        warm,
        seed ^ 0x77,
        &Tracer::disabled(),
        false,
    );
    let handle = server.handle();
    let (mut gens, mut windows, mut secs) = (Vec::new(), Vec::new(), 0.0);
    let (mut solo, mut answers, mut i) = (Vec::new(), Vec::new(), 0usize);
    let mut solo_by: Vec<Vec<f64>> = vec![Vec::new(); mats.len()];
    for c in 0..CYCLES {
        let before = server.registry().snapshot();
        let start = Instant::now();
        let end = run.deadline(COALESCE_SHARE / CYCLES as f64);
        let cycle_seed = inputs::mix(seed, c as u64);
        gens.extend(generate(
            &handle,
            &mats,
            &xs,
            &versions,
            threads,
            end,
            cycle_seed,
            run.rec.tracer(),
            run.rec.traced(),
        ));
        secs += start.elapsed().as_secs_f64();
        windows.push((before, server.registry().snapshot()));

        // A round of set-ups while the serving server is idle: extra
        // servers are started, filled and shut down again.
        round.clear();
        for _ in 0..SETUPS_PER_ROUND {
            let (t, s) = set_up(run, &mats);
            round.push(t);
            let _ = Server::<f64>::shutdown(s);
        }
        rounds.push(median(&round));

        let end = run.deadline((1.0 - COALESCE_SHARE) / CYCLES as f64);
        while Instant::now() < end {
            let (m, xi) = (i % mats.len(), (i / mats.len()) % X_POOL);
            i += 1;
            let lo = versions.done[m].load(Ordering::Acquire);
            let x = xs[m][xi].clone();
            let t = Instant::now();
            let reply = handle
                .spmv("solo", names[m], x)
                .and_then(|t| t.wait_vector());
            let took = t.elapsed().as_secs_f64();
            solo.push(took);
            solo_by[m].push(took);
            match reply {
                Ok(y) => answers.push(Answer {
                    matrix: m,
                    x: xi,
                    lo,
                    hi: versions.started[m].load(Ordering::Acquire),
                    fp: fingerprint(&y),
                }),
                Err(e) => run.tally.record("solo spmv", Err(e.to_string())),
            }
        }
    }
    drop(handle);
    let report = server.shutdown();
    run.report("setup_s", mean(&rounds), "s", "host");
    run.report(
        "serve.register_ms",
        run.rec.median("serve.register") * 1e3,
        "ms",
        "host",
    );
    let rejected = report.registry.counter(sm::REJECTED).unwrap_or(0);
    let failed = report.registry.counter(sm::FAILED).unwrap_or(0);
    run.tally
        .expect("server", rejected == 0 && failed == 0, || {
            format!("{rejected} rejected, {failed} failed")
        });

    // Merge the generators and check every answer.
    let mut lat_on = Vec::new();
    let mut lat_off = Vec::new();
    let mut submit = Vec::new();
    let mut refresh = Vec::new();
    for g in gens {
        lat_on.extend(g.lat_on);
        lat_off.extend(g.lat_off);
        submit.extend(g.submit);
        refresh.extend(g.refresh);
        answers.extend(g.answers);
        run.tally.merge(g.tally);
    }
    check_answers(run, &mats, &xs, &answers);

    let lat: Vec<f64> = lat_on.iter().chain(&lat_off).copied().collect();
    let (p0, p50, p90, p99) = (
        quantile(&lat, 0.0),
        quantile(&lat, 0.5),
        quantile(&lat, 0.9),
        quantile(&lat, 0.99),
    );
    let rps = lat.len() as f64 / secs;
    let solo50 = median(&solo);
    println!(
        "measured {} coalesced requests in {secs:.3} s, {} refreshes, {} solo requests",
        lat.len(),
        refresh.len(),
        solo.len()
    );
    run.detail("serve_rps", rps, "1/s", "host");
    run.detail("serve_p50_us", p50 * 1e6, "us", "host");
    run.detail("serve_p99_us", p99 * 1e6, "us", "host");
    run.detail("serve_solo_p50_us", solo50 * 1e6, "us", "host");
    run.detail("serve_min_us", p0 * 1e6, "us", "host");
    run.detail(
        "serve_solo_p90_us",
        quantile(&solo, 0.9) * 1e6,
        "us",
        "host",
    );
    run.detail("serve_p90_us", p90 * 1e6, "us", "host");
    // The gated figure is the solo median: with one request in flight the
    // host is far from saturated, so it repeats across runs where every
    // coalesced-phase figure swings with the neighbours' load. It is taken
    // per matrix and combined as a geomean: the three matrices' latencies
    // differ by up to 2x, and a median pooled over them lands wherever the
    // mix of the three modes puts it, which spread 26% across runs where
    // the geomean spread 7%.
    let solo_geo = geomean(&solo_by.iter().map(|v| median(v)).collect::<Vec<_>>());
    for (name, v) in names.iter().zip(&solo_by) {
        println!("matrix {name} solo_p50_us {:.3}", median(v) * 1e6);
    }
    run.report("op_us", solo_geo * 1e6, "us", "host");
    run.report("serve.rps", rps, "1/s", "host");
    run.report("serve.solo_p50_us", solo50 * 1e6, "us", "host");
    let modeled_us = full_batch_modeled_us(run, &mats, &xs);
    run.report("modeled_us", modeled_us, "us", "modeled");

    // Server-side figures over the coalescing phases (registry deltas).
    let counter = |snap: &[(String, MetricValue)], name: &str| -> f64 {
        match snap.iter().find(|(n, _)| n == name) {
            Some((_, MetricValue::Counter(c))) => *c as f64,
            _ => 0.0,
        }
    };
    let delta = |name: &str| -> f64 {
        windows
            .iter()
            .map(|(b, a)| counter(a, name) - counter(b, name))
            .sum()
    };
    let hist = |name: &str| coalescing_hist(&windows, name);
    let modeled = hist(sm::MODELED_BATCH_US);
    let completed = delta(sm::COMPLETED);
    run.detail(
        "serve_modeled_per_request_us",
        modeled.sum / completed,
        "us",
        "modeled",
    );
    run.report("serve.modeled_busy_s", modeled.sum * 1e-6, "s", "modeled");
    run.report(
        "serve.modeled_rps",
        completed / (modeled.sum * 1e-6),
        "1/s",
        "modeled",
    );
    run.report(
        "serve.batch_width_mean",
        hist(sm::BATCH_WIDTH).mean(),
        "count",
        "host",
    );
    run.report(
        "serve.queue_wait_p50_us",
        hist(sm::QUEUE_WAIT_US).quantile(0.5),
        "us",
        "host",
    );
    let flushes: Vec<f64> = [
        sm::FLUSH_FULL,
        sm::FLUSH_WINDOW,
        sm::FLUSH_BARRIER,
        sm::FLUSH_SOLO,
        sm::FLUSH_DRAIN,
    ]
    .iter()
    .map(|n| delta(n))
    .collect();
    let total: f64 = flushes.iter().sum();
    for (name, v) in ["full", "window", "barrier", "solo"].iter().zip(&flushes) {
        run.report(
            format!("serve.flush.{name}_frac"),
            v / total,
            "ratio",
            "host",
        );
    }
    run.report("serve.submit_us", median(&submit) * 1e6, "us", "host");
    run.report("serve.refresh_p50_us", median(&refresh) * 1e6, "us", "host");
    run.report("serve.p99_us", p99 * 1e6, "us", "host");
    if run.rec.traced() {
        run.report(
            "harness.trace_overhead_frac",
            median(&lat_on) / median(&lat_off) - 1.0,
            "ratio",
            "host",
        );
    }
}

/// Modeled A100 time per request of a full coalesced batch: each matrix
/// runs one `max_batch`-wide batch through the server's kernel entry point
/// under a fresh counting probe, priced per request and combined as a
/// geomean. Deterministic per seed, unlike the measured busy time, which
/// follows the batch widths the timing produced. Every batch column must
/// be bit-identical to a solo SpMV.
///
/// The geomean runs over the served matrices and [`MODEL_DRAWS`] - 1
/// further draws of the same classes from the seed: the 1024-row rmat
/// crosses a row-category threshold on a few seeds, which moves its
/// modeled time by about a third, and more draws keep that from moving
/// the figure between seeds by more than a percent or so.
fn full_batch_modeled_us(run: &mut Run, mats: &[(&str, Csr<f64>)], xs: &[Vec<Vec<f64>>]) -> f64 {
    let mut per_request: Vec<f64> = mats
        .iter()
        .zip(xs)
        .map(|((name, csr), xs)| batch_modeled_us(run, name, csr, xs))
        .collect();
    for d in 1..MODEL_DRAWS {
        let draw_seed = inputs::mix(run.seed, 0x7000 + d as u64);
        for (m, (name, csr)) in inputs::serve_matrices(draw_seed).iter().enumerate() {
            let xs: Vec<Vec<f64>> = (0..BURST)
                .map(|i| inputs::vector(csr.cols, draw_seed, 0x6000 + 100 * m as u64 + i as u64))
                .collect();
            per_request.push(batch_modeled_us(run, name, csr, &xs));
        }
    }
    for (m, (name, _)) in mats.iter().enumerate() {
        let own: Vec<f64> = per_request
            .iter()
            .skip(m)
            .step_by(mats.len())
            .copied()
            .collect();
        println!(
            "matrix {name} modeled_per_request_us {:.6} (served draw {:.6})",
            geomean(&own),
            own[0]
        );
    }
    geomean(&per_request)
}

/// [`full_batch_modeled_us`] for one matrix.
fn batch_modeled_us(run: &mut Run, name: &str, csr: &Csr<f64>, xs: &[Vec<f64>]) -> f64 {
    let dev = a100();
    let m = DaspMatrix::from_csr(csr);
    let cols: Vec<&[f64]> = xs.iter().take(BURST).map(Vec::as_slice).collect();
    let (mut b, mut y) = (DenseMat::zeros(0, 0), DenseMat::zeros(0, 0));
    let mut p = CountingProbe::new(dev.l2_cache());
    m.spmv_batch_into_traced_with(
        &cols,
        &mut b,
        &mut y,
        &mut p,
        &Tracer::disabled(),
        &Executor::seq(),
    );
    for (j, x) in cols.iter().enumerate() {
        let solo = m.spmv_with(x, &mut NoProbe, &Executor::seq());
        run.tally.same_bits(
            &format!("batch column {name}"),
            &y.column(j),
            fingerprint(&solo),
        );
    }
    estimate(&p.stats(), &dev, precision_of::<f64>()).seconds * 1e6 / cols.len() as f64
}

type Snapshot = Vec<(String, MetricValue)>;

/// Histogram `name` over the coalescing phases: the sum of its changes
/// across each `(before, after)` snapshot pair. `min`/`max` stay the
/// cumulative extremes, which only clamp interpolation in `quantile`.
fn coalescing_hist(windows: &[(Snapshot, Snapshot)], name: &str) -> Histogram {
    let find = |snap: &Snapshot| match snap.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Histogram(h))) => Some(h.clone()),
        _ => None,
    };
    let mut total: Option<Histogram> = None;
    for (before, after) in windows {
        let Some(mut h) = find(after) else { continue };
        if let Some(b) = find(before) {
            for (c, o) in h.counts.iter_mut().zip(&b.counts) {
                *c -= o;
            }
            h.count -= b.count;
            h.sum -= b.sum;
        }
        match &mut total {
            None => total = Some(h),
            Some(t) => {
                for (c, o) in t.counts.iter_mut().zip(&h.counts) {
                    *c += o;
                }
                t.count += h.count;
                t.sum += h.sum;
                t.max = t.max.max(h.max);
            }
        }
    }
    total.unwrap_or_else(|| Histogram::new(&[1.0]))
}

/// Runs `threads` closed-loop generators until `end`. Thread `t` owns
/// matrix `t` for refreshes; in a traced run bursts alternate between
/// spans on and off.
#[allow(clippy::too_many_arguments)]
fn generate(
    handle: &ServerHandle<f64>,
    mats: &[(&str, Csr<f64>)],
    xs: &[Vec<Vec<f64>>],
    versions: &Versions,
    threads: usize,
    end: Instant,
    seed: u64,
    tracer: &Tracer,
    traced: bool,
) -> Vec<Gen> {
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                let handle = handle.clone();
                let tracer = tracer.clone();
                s.spawn(move || {
                    let mut g = Gen::default();
                    let mut rng = Rng::new(seed, 0x7000 + t as u64);
                    let tenant = format!("gen{t}");
                    let off = Tracer::disabled();
                    let mut burst = 0usize;
                    while Instant::now() < end {
                        let live = traced && burst.is_multiple_of(2);
                        burst += 1;
                        let tr = if live { &tracer } else { &off };
                        if rng.below(REFRESH_EVERY) == 0 {
                            let (name, csr) = &mats[t];
                            let v = versions.started[t].fetch_add(1, Ordering::AcqRel) + 1;
                            let _sp = tr.span("serve.refresh");
                            let t0 = Instant::now();
                            let r = handle
                                .refresh(&tenant, name, version(csr, v))
                                .and_then(|k| k.wait());
                            g.refresh.push(t0.elapsed().as_secs_f64());
                            versions.done[t].fetch_add(1, Ordering::AcqRel);
                            g.tally
                                .record("refresh", r.map(|_| ()).map_err(|e| e.to_string()));
                            continue;
                        }
                        let m = rng.below(mats.len());
                        let lo = versions.done[m].load(Ordering::Acquire);
                        let root = tr.span("serve.burst");
                        let mut tickets = Vec::with_capacity(BURST);
                        for _ in 0..BURST {
                            let xi = rng.below(X_POOL);
                            let x = xs[m][xi].clone();
                            let t0 = Instant::now();
                            let sub = {
                                let _sp = root.child("serve.submit");
                                handle.spmv(&tenant, mats[m].0, x)
                            };
                            g.submit.push(t0.elapsed().as_secs_f64());
                            tickets.push((xi, t0, sub));
                        }
                        let wait = root.child("serve.wait");
                        for (xi, t0, sub) in tickets {
                            match sub.and_then(|k| k.wait_vector()) {
                                Ok(y) => {
                                    let l = t0.elapsed().as_secs_f64();
                                    if live {
                                        g.lat_on.push(l)
                                    } else {
                                        g.lat_off.push(l)
                                    }
                                    let hi = versions.started[m].load(Ordering::Acquire);
                                    g.answers.push(Answer {
                                        matrix: m,
                                        x: xi,
                                        lo,
                                        hi,
                                        fp: fingerprint(&y),
                                    });
                                }
                                Err(e) => g.tally.record("spmv", Err(e.to_string())),
                            }
                        }
                        drop(wait);
                    }
                    g
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("generator thread"))
            .collect()
    })
}

/// Checks every answer against a direct solo SpMV on the matrix version
/// it may have seen; each direct result is itself checked against the
/// rounding bound once.
fn check_answers(
    run: &mut Run,
    mats: &[(&str, Csr<f64>)],
    xs: &[Vec<Vec<f64>>],
    answers: &[Answer],
) {
    // `version` depends on `v % VERSIONS` only.
    let mut direct: HashMap<(usize, usize), DaspMatrix<f64>> = HashMap::new();
    let mut want: HashMap<(usize, usize, usize), u64> = HashMap::new();
    for a in answers {
        let ok = (a.lo..=a.hi).any(|v| {
            let v = v % VERSIONS;
            let fp = want.entry((a.matrix, v, a.x)).or_insert_with(|| {
                let csr = Csr {
                    vals: version(&mats[a.matrix].1, v),
                    ..mats[a.matrix].1.clone()
                };
                let d = direct
                    .entry((a.matrix, v))
                    .or_insert_with(|| DaspMatrix::from_csr(&csr));
                let x = &xs[a.matrix][a.x];
                let y = d.spmv_with(x, &mut NoProbe, &Executor::seq());
                run.tally.record("direct spmv", check_product(&csr, x, &y));
                fingerprint(&y)
            });
            *fp == a.fp
        });
        run.tally.expect("served reply", ok, || {
            format!(
                "matrix {} x {} versions {}..={}: reply differs from every direct SpMV",
                a.matrix, a.x, a.lo, a.hi
            )
        });
    }
}
