//! Host context printed with every result, for reading numbers across
//! machines: core count, CPU model, last-level cache size and the native
//! CSR floor. Read from the CPU itself (`cpuid`), so the harness touches
//! no file outside its checkout.

use std::time::Instant;

use dasp_sparse::Csr;

use crate::stats::median;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_arch = "x86_64")]
fn cpuid(leaf: u32, sub: u32) -> [u32; 4] {
    // SAFETY: `cpuid` exists on every x86_64 CPU and only reads
    // identification registers; leaves beyond the supported maximum return
    // zeros or the highest leaf's data, which the callers tolerate.
    #[allow(unused_unsafe)]
    let r = unsafe { std::arch::x86_64::__cpuid_count(leaf, sub) };
    [r.eax, r.ebx, r.ecx, r.edx]
}

/// The CPU brand string, e.g. `Intel(R) Xeon(R) Processor`.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        if cpuid(0x8000_0000, 0)[0] >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002..=0x8000_0004u32 {
                for reg in cpuid(leaf, 0) {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".to_string()
}

/// Size of the largest data/unified cache in MiB (deterministic cache
/// parameters, `cpuid` leaf 4), or 0 when unknown.
pub fn llc_mib() -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if cpuid(0, 0)[0] >= 4 {
            let mut best = 0u64;
            for sub in 0..16 {
                let [a, b, c, _] = cpuid(4, sub);
                if a & 0x1f == 0 {
                    break;
                }
                let ways = ((b >> 22) & 0x3ff) as u64 + 1;
                let parts = ((b >> 12) & 0x3ff) as u64 + 1;
                let line = (b & 0xfff) as u64 + 1;
                let sets = c as u64 + 1;
                best = best.max(ways * parts * line * sets);
            }
            return best as f64 / (1024.0 * 1024.0);
        }
    }
    0.0
}

/// A plain-Rust CSR SpMV: the host floor every simulated figure is read
/// against.
pub fn native_spmv(csr: &Csr<f64>, x: &[f64], y: &mut [f64]) {
    for (i, out) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for j in csr.row_ptr[i]..csr.row_ptr[i + 1] {
            acc += csr.vals[j] * x[csr.col_idx[j] as usize];
        }
        *out = acc;
    }
}

/// Median native CSR SpMV time (µs) on a fixed, seed-independent
/// calibration matrix (`bench_matrices()`'s banded class, 480k nnz): the
/// per-host floor for reading wall figures across machines.
pub fn native_floor_us() -> f64 {
    let csr = dasp_matgen::banded(20_000, 40, 24, 901);
    let x = dasp_matgen::dense_vector(csr.cols, 42);
    let mut y = vec![0.0; csr.rows];
    let times: Vec<f64> = (0..16)
        .map(|_| {
            let t = Instant::now();
            native_spmv(&csr, &x, &mut y);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times[1..])
}

/// Prints the host context line. The calibration matrix's arrays (about
/// 6 MiB) fit in the last-level cache of the hosts this was tuned on, so
/// the floor (and `native.*`) is a per-matrix floor, not a DRAM bandwidth
/// figure.
pub fn print_context() {
    println!(
        "host nproc {} cpu \"{}\" llc_mib {:.1} native_floor_us {:.3} (host arrays fit in the last-level cache: a per-matrix floor, not a bandwidth figure)",
        nproc(),
        cpu_model(),
        llc_mib(),
        native_floor_us()
    );
}
