//! Host fingerprint, calibration loop and process memory.

use std::hint::black_box;
use std::time::Instant;

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPU model name.
    pub cpu: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// SIMD backend the PHY kernels dispatch to.
    pub simd: &'static str,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
}

impl Fingerprint {
    /// Fingerprint of the running host.
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| std::env::consts::ARCH.to_string());
        Fingerprint {
            cpu,
            nproc: nproc(),
            simd: wgtt_simd::Backend::active().name(),
            rustc: env!("SIMBENCH_RUSTC"),
        }
    }

    /// One JSON line: the fingerprint plus a calibration reading.
    pub fn to_json(&self, calib_ns: f64) -> String {
        format!(
            "{{\"host\": {{\"cpu\": \"{}\", \"nproc\": {}, \"simd\": \"{}\", \"rustc\": \"{}\", \"calib_ns\": {calib_ns}}}}}",
            self.cpu.replace(['"', '\\'], "'"),
            self.nproc,
            self.simd,
            self.rustc.replace(['"', '\\'], "'")
        )
    }
}

/// Hardware threads available to the process (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The frozen calibration kernel: an xorshift integer chain feeding a
/// dependent floating-point chain. Its cost per iteration depends only on
/// the host (clock, core, contention), so a change in `host.calib_ns`
/// between two runs is a change of host, not of the simulator. Do not
/// edit it: doing so breaks comparison with every earlier reading.
fn calib_kernel(iters: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut f = 1.0f64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        f = f * 0.999_999_9 + (x >> 40) as f64 * 1e-12;
    }
    x ^ f.to_bits()
}

/// Host time per calibration iteration, ns: median of 15 samples of
/// 200,000 iterations each.
pub fn calib_ns() -> f64 {
    const ITERS: u64 = 200_000;
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            black_box(calib_kernel(black_box(ITERS)));
            t.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    median(&mut samples)
}

/// Peak resident memory of this process, MB (`VmHWM`; 0 if unknown).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (sorts it); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (sorts it); 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let idx = ((q * (v.len() - 1) as f64).round() as usize).min(v.len() - 1);
    v[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive_and_fingerprint_renders() {
        assert!(calib_ns() > 0.0);
        let line = Fingerprint::detect().to_json(1.5);
        assert!(line.starts_with("{\"host\": {\"cpu\": "));
        assert!(line.contains("\"calib_ns\": 1.5"));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v = vec![3.0, 1.0, 2.0, 4.0, 5.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.9), 5.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
