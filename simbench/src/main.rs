//! `wgtt-simbench --workload <corridor|drive> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint on one line and the result as the last
//! line of standard output. A traced run also writes its spans, one JSON
//! object per line, under `$CARGO_TARGET_DIR/simbench-spans/` (default
//! `.bench_build/simbench-spans/`).

use std::path::PathBuf;
use std::process::ExitCode;
use wgtt_simbench::host::{calib_ns, peak_rss_mb, Fingerprint};
use wgtt_simbench::metrics::{END_TO_END, PER_LAYER};
use wgtt_simbench::workloads::{run, run_scenario, Params, Scale, Workload};

/// Flag of the child mode: run one scenario and print the process's peak
/// resident memory, MB, and the scenario's digest.
const RSS_PROBE: &str = "--rss-probe";

fn parse() -> Result<(Params, Option<usize>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut probe = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            RSS_PROBE => {
                probe = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("{RSS_PROBE}: {e}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let params = Params {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::Full,
    };
    Ok((params, probe))
}

/// Peak resident memory, MB, of a child process that runs only the
/// `i`-th scenario of `p`'s workload, and the scenario's digest; `None`
/// if the child fails.
fn rss_probe(p: Params, i: usize) -> Option<(f64, u64)> {
    let output = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["--workload", p.workload.name()])
            .args(["--seed", &p.seed.to_string()])
            .args(["--seconds", "0", "--trace", "0"])
            .args([RSS_PROBE, &i.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
    });
    let o = output.ok().filter(|o| o.status.success())?;
    let text = String::from_utf8_lossy(&o.stdout);
    let (mb, digest) = text.trim().split_once(' ')?;
    Some((mb.parse().ok()?, u64::from_str_radix(digest, 16).ok()?))
}

fn main() -> ExitCode {
    let (p, probe) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("wgtt-simbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(i) = probe {
        let Some(digest) = run_scenario(p, i) else {
            return ExitCode::FAILURE;
        };
        println!("{} {digest:016x}", peak_rss_mb());
        return ExitCode::SUCCESS;
    }
    println!("{}", Fingerprint::detect().to_json(calib_ns()));
    let (outcome, tracer) = run(p, |i| rss_probe(p, i));
    if p.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
        let path =
            dir.join("simbench-spans")
                .join(format!("{}-seed{}.jsonl", p.workload.name(), p.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("wgtt-simbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wgtt-simbench: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let defs = if p.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.to_json(defs));
    ExitCode::SUCCESS
}
