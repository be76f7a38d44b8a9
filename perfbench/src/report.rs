//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the single list of every metric the
//! harness reports; `BENCHMARK.json` declares the same names and units (a
//! unit test keeps the two in step). A run with `--trace 0` reports every
//! end-to-end metric, a run with `--trace 1` every per-layer metric. A
//! per-layer metric of a layer the workload does not exercise reads 0.

use std::collections::BTreeMap;

/// Steady-kernels matrices, in report order.
pub const STEADY: [&str; 4] = ["banded", "stencil", "rmat", "circuit"];

/// DASP's six category kernels, in launch order.
pub const KERNELS: [&str; 6] = ["long", "medium", "short13", "short4", "short22", "short1"];

/// End-to-end metrics: `(name, unit)`. Every workload reports each one for
/// its own reference operation (see the README's metric table).
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("op_us", "us"), ("modeled_us", "us")];

/// Per-layer metrics, before the per-matrix and per-kernel expansion:
/// `(name, unit)`, where `<m>` expands over [`STEADY`] and `<k>` over
/// [`KERNELS`].
const PER_LAYER_TEMPLATE: [(&str, &str); 46] = [
    ("native.csr_spmv_us.<m>", "us"),
    ("dasp.spmv_us.<m>", "us"),
    ("dasp.spmm_p50_us", "us"),
    ("dasp.kernel.<k>.wall_us", "us"),
    ("dasp.kernel.<k>.modeled_us", "us"),
    ("dasp.fill_rate.<m>", "ratio"),
    ("perf.compute_share.<m>", "ratio"),
    ("perf.random_share.<m>", "ratio"),
    ("perf.misc_share.<m>", "ratio"),
    ("simt.probe_us.<m>", "us"),
    ("simt.probe_share", "ratio"),
    ("simt.x_hit_rate.<m>", "ratio"),
    ("simt.counted_spmv_p50_us", "us"),
    ("simt.par_spmv_us", "us"),
    ("fp16.spmv_ratio", "ratio"),
    ("perf.modeled_spmm_us", "us"),
    ("trace.spmv_overhead_us", "us"),
    ("sanitize.overhead_ratio", "ratio"),
    ("solver.cg_solve_s", "s"),
    ("solver.cg_iters", "count"),
    ("solver.apply_s", "s"),
    ("solver.self_s", "s"),
    ("solver.applies", "count"),
    ("sparse.mm_parse_ms", "ms"),
    ("sparse.to_csr_ms", "ms"),
    ("dasp.analyze_ms", "ms"),
    ("dasp.plan_cache.hit_frac", "ratio"),
    ("dasp.fill_ms", "ms"),
    ("verify.full_ms", "ms"),
    ("dasp.update_values_ms", "ms"),
    ("dasp.refresh_p50_ms", "ms"),
    ("dasp.check_spmv_ms", "ms"),
    ("serve.register_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.batch_width_mean", "count"),
    ("serve.flush.full_frac", "ratio"),
    ("serve.flush.window_frac", "ratio"),
    ("serve.flush.barrier_frac", "ratio"),
    ("serve.flush.solo_frac", "ratio"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.modeled_busy_s", "s"),
    ("serve.modeled_rps", "1/s"),
    ("serve.refresh_p50_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.rps", "1/s"),
    ("serve.solo_p50_us", "us"),
];

/// The harness's own tracing overhead, reported with the per-layer set.
pub const TRACE_OVERHEAD: (&str, &str) = ("harness.trace_overhead_frac", "ratio");

/// Every per-layer metric, expanded: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER_TEMPLATE {
        if name.contains("<m>") {
            out.extend(STEADY.iter().map(|m| (name.replace("<m>", m), unit)));
        } else if name.contains("<k>") {
            out.extend(KERNELS.iter().map(|k| (name.replace("<k>", k), unit)));
        } else {
            out.push((name.to_string(), unit));
        }
    }
    out.push((TRACE_OVERHEAD.0.to_string(), TRACE_OVERHEAD.1));
    out
}

/// Metric values collected during one run.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.values.insert(name.into(), v);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The JSON `metrics` object for `catalogue`. Unset per-layer metrics
    /// read 0 (the layer did no work on this workload); a missing or
    /// non-finite value is returned as an error.
    pub fn to_json(
        &self,
        catalogue: &[(String, &'static str)],
        zero_if_unset: bool,
    ) -> Result<String, String> {
        let mut parts = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let v = match self.get(name) {
                Some(v) => v,
                None if zero_if_unset => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// The end-to-end catalogue in [`Metrics::to_json`]'s form.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the harness's catalogue.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("array end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &entry[at..];
                        let q = rest.find('"').expect("value quote") + 1;
                        rest[q..q + rest[q..].find('"').expect("close")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), want(end_to_end()));
        assert_eq!(section("per_layer"), want(per_layer()));
    }

    #[test]
    fn unset_end_to_end_metric_is_an_error() {
        let m = Metrics::default();
        assert!(m.to_json(&end_to_end(), false).is_err());
        assert!(m.to_json(&per_layer(), true).is_ok());
    }
}
