//! End-to-end and per-layer benchmark of the DASP stack.
//!
//! ```text
//! dasp-perfbench --workload <steady-kernels|admit-churn|serve-mixed>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one human-readable line per reported figure, then, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` for the workloads
//! and the metric catalogue.

mod admit;
mod check;
mod host;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;
mod steady;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use check::Tally;
use layers::Recorder;
use report::Metrics;

/// Everything one workload run shares: its settings, the layer recorder,
/// the failure tally and the metrics it fills in.
pub struct Run {
    /// The run seed.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub measure: Duration,
    /// Layer timings and (when traced) spans.
    pub rec: Recorder,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Reported metric values.
    pub metrics: Metrics,
}

impl Run {
    /// Records a figure for the log and, if it is in the catalogue, the
    /// result line. `clock` names the clock the figure was read from.
    pub fn report(&mut self, name: impl Into<String>, value: f64, unit: &str, clock: &str) {
        let name = name.into();
        self.detail(&name, value, unit, clock);
        self.metrics.set(name, value);
    }

    /// Logs a figure that is not in the catalogue (a workload's named
    /// figure such as `spmv_p50_us`, for instance).
    pub fn detail(&self, name: &str, value: f64, unit: &str, clock: &str) {
        println!("metric {name} {value:.6} {unit} [{clock}]");
    }

    /// A deadline `share` of the way through a measured phase that
    /// starts now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + self.measure.mul_f64(share)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dasp-perfbench: {e}");
            std::process::exit(2);
        }
    };
    for var in [
        "DASP_SANITIZE",
        "DASP_EXECUTOR",
        "DASP_THREADS",
        "DASP_PLAN_CACHE_CAP",
    ] {
        if std::env::var_os(var).is_some() {
            eprintln!("dasp-perfbench: {var} is set; unset it for comparable numbers");
            std::process::exit(2);
        }
    }
    host::print_context();

    let mut run = Run {
        seed: args.seed,
        measure: Duration::from_secs_f64(args.seconds),
        rec: Recorder::new(args.trace),
        tally: Tally::default(),
        metrics: Metrics::default(),
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    match args.workload.as_str() {
        "steady-kernels" => steady::run(&mut run),
        "admit-churn" => admit::run(&mut run),
        "serve-mixed" => serve::run(&mut run),
        w => {
            eprintln!("dasp-perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    }

    if args.trace {
        write_trace(&run, &args);
    }
    for note in &run.tally.notes {
        println!("FAILED {note}");
    }
    let metrics = if args.trace {
        run.metrics.to_json(&report::per_layer(), true)
    } else {
        run.metrics.to_json(&report::end_to_end(), false)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("dasp-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let t = &run.tally;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        t.failed == 0,
        t.attempted,
        t.failed
    );
}

/// Writes the traced run's spans as a Chrome trace plus a per-span
/// self-time table under `perfbench/out/`, and logs the table.
fn write_trace(run: &Run, args: &Args) {
    let trace = run.rec.take_trace();
    let table = layers::self_times(&trace);
    let mut tsv = String::from("span\tcalls\tinclusive_us\tself_us\n");
    for (name, (calls, incl, selft)) in &table {
        println!("span {name} calls {calls} inclusive_us {incl} self_us {selft}");
        tsv.push_str(&format!("{name}\t{calls}\t{incl}\t{selft}\n"));
    }
    let dir = PathBuf::from("perfbench").join("out");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| {
            std::fs::write(
                dir.join(format!("{stem}.trace.json")),
                dasp_trace::chrome_trace_json(&trace),
            )
        })
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.self.tsv")), tsv));
    match written {
        Ok(()) => println!("trace written to {}/{stem}.*", dir.display()),
        Err(e) => eprintln!("dasp-perfbench: could not write the trace: {e}"),
    }
}
