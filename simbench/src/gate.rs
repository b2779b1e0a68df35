//! The correctness gate every scenario run passes through.
//!
//! A run fails when it panics, when a report field is NaN or infinite,
//! when a robustness counter (`backhaul_misaddressed`,
//! `missing_packet_refs`) is nonzero, or when its digest differs from
//! the first run of the same scenario in this process (a peak-memory
//! probe's child process reports its digest back for this). Runs of one
//! scenario share a key: every `run_sharded` call of the shard
//! measurement carries the key `shard`, so a 1-worker and an
//! `nproc`-worker run that disagree fail the gate.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wgtt_scenario::{FleetReport, RunReport};

/// What a passing run hands back: its result and its digest.
pub struct Checked<T> {
    /// The run's result.
    pub value: T,
    /// Digest of everything the run produced.
    pub digest: u64,
}

/// Attempted and failed scenario runs of one benchmark process.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Scenario runs attempted.
    pub attempted: u64,
    /// Scenario runs that failed the gate.
    pub failed: u64,
    first: HashMap<String, u64>,
}

impl Ledger {
    /// Digest of the first passing run of `key`, if any.
    pub fn digest(&self, key: &str) -> Option<u64> {
        self.first.get(key).copied()
    }

    /// Run one scenario under the gate. `key` names the scenario for the
    /// digest comparison; `f` receives the run id.
    /// Returns the result only if the run passed.
    pub fn op<T>(
        &mut self,
        key: &str,
        f: impl FnOnce(u64) -> Result<Checked<T>, String>,
    ) -> Option<T> {
        let run = self.attempted;
        self.attempted += 1;
        let verdict = match catch_unwind(AssertUnwindSafe(|| f(run))) {
            Ok(Ok(c)) => match self.first.get(key) {
                Some(&d) if d != c.digest => Err(format!(
                    "digest {:016x} differs from the first run's {d:016x}",
                    c.digest
                )),
                Some(_) => Ok(c.value),
                None => {
                    self.first.insert(key.to_string(), c.digest);
                    Ok(c.value)
                }
            },
            Ok(Err(e)) => Err(e),
            Err(_) => Err("panicked".to_string()),
        };
        verdict
            .map_err(|e| {
                self.failed += 1;
                eprintln!("simbench: run {run} ({key}) failed: {e}");
            })
            .ok()
    }
}

/// FNV-1a, 64 bit.
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn finite(what: &str, v: f64) -> Result<(), String> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(format!("{what} is {v}"))
    }
}

fn robust(misaddressed: u64, missing: u64) -> Result<(), String> {
    if misaddressed != 0 || missing != 0 {
        return Err(format!(
            "backhaul_misaddressed = {misaddressed}, missing_packet_refs = {missing}"
        ));
    }
    Ok(())
}

/// Gate a fleet report; returns its digest (every aggregate, bit-exact,
/// plus the event count).
pub fn check_fleet(r: &FleetReport) -> Result<u64, String> {
    robust(r.backhaul_misaddressed, r.missing_packet_refs)?;
    finite(
        "switch_rate_per_vehicle_minute",
        r.switch_rate_per_vehicle_minute,
    )?;
    for v in &r.per_vehicle {
        finite("outage_s", v.outage_s)?;
        for b in [v.bitrate_p50_mbps, v.bitrate_p99_mbps]
            .into_iter()
            .flatten()
        {
            finite("bitrate", b)?;
        }
    }
    for &(v, f) in &r.outage_cdf {
        finite("outage_cdf", v)?;
        finite("outage_cdf", f)?;
    }
    Ok(fnv64(&format!(
        "{} events={}",
        r.equivalence_digest(),
        r.events_handled
    )))
}

/// Gate a single world's report; returns its digest (every counter and
/// every float the experiments read, bit-exact, in a fixed order).
pub fn check_run(r: &RunReport) -> Result<u64, String> {
    robust(r.backhaul_misaddressed, r.missing_packet_refs)?;
    let mut s = String::new();
    let _ = write!(
        s,
        "dur={} events={} frames={} switches={} maxload={} ba={}/{} dedup={:?} handshakes={}",
        r.duration.as_nanos(),
        r.events_handled,
        r.frames_on_air,
        r.switches,
        r.max_ap_load,
        r.ba_collisions.get(),
        r.ba_responses.get(),
        r.uplink_dedup,
        r.failed_handshakes
    );
    for (what, v) in [
        ("accuracy_hits", r.accuracy_hits),
        ("accuracy_total", r.accuracy_total),
    ] {
        finite(what, v)?;
        let _ = write!(s, " {what}={:016x}", v.to_bits());
    }
    for v in [r.switch_durations.mean(), r.switch_durations.median()]
        .into_iter()
        .flatten()
    {
        finite("switch_durations", v)?;
        let _ = write!(s, " sw={:016x}", v.to_bits());
    }
    let mut flows: Vec<_> = r
        .flow_meters
        .iter()
        .map(|(f, m)| (f.0, m.total_bytes(), m.count()))
        .collect();
    flows.sort_unstable();
    let mut timeouts: Vec<_> = r.tcp_timeouts.iter().map(|(f, n)| (f.0, *n)).collect();
    timeouts.sort_unstable();
    let mut uplink: Vec<_> = r.uplink_mpdus.iter().map(|(c, n)| (c.0, *n)).collect();
    uplink.sort_unstable();
    let mut last: Vec<_> = r
        .last_delivery
        .iter()
        .map(|(c, t)| (c.0, t.as_nanos()))
        .collect();
    last.sort_unstable();
    let _ = write!(
        s,
        " flows={flows:?} timeouts={timeouts:?} uplink={uplink:?} last={last:?}"
    );
    let mut clients: Vec<_> = r
        .bitrate_series
        .keys()
        .chain(r.outage_durations.keys())
        .map(|c| c.0)
        .collect();
    clients.sort_unstable();
    clients.dedup();
    for c in clients {
        let id = wgtt_mac::frame::NodeId(c);
        if let Some(d) = r.bitrate_series.get(&id) {
            for v in [d.quantile(0.5), d.quantile(0.99)].into_iter().flatten() {
                finite("bitrate", v)?;
                let _ = write!(s, " b{c}={:016x}", v.to_bits());
            }
        }
        if let Some(d) = r.outage_durations.get(&id) {
            for (v, _) in d.cdf() {
                finite("outage", v)?;
                let _ = write!(s, " o{c}={:016x}", v.to_bits());
            }
        }
    }
    Ok(fnv64(&s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(d: u64) -> impl FnOnce(u64) -> Result<Checked<()>, String> {
        move |_| {
            Ok(Checked {
                value: (),
                digest: d,
            })
        }
    }

    #[test]
    fn ledger_counts_panics_errors_and_digest_drift() {
        let mut l = Ledger::default();
        assert!(l.op("a", ok(1)).is_some());
        assert!(l.op("a", ok(1)).is_some());
        assert!(
            l.op("b", ok(2)).is_some(),
            "another key keeps its own digest"
        );
        assert!(l.op("a", ok(3)).is_none(), "digest drift fails");
        assert!(l.op("a", |_| Err::<Checked<()>, _>("bad".into())).is_none());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let panicked = l.op("a", |_| -> Result<Checked<()>, String> { panic!("boom") });
        std::panic::set_hook(prev);
        assert!(panicked.is_none());
        assert_eq!((l.attempted, l.failed), (6, 3));
    }

    #[test]
    fn robustness_counters_and_nan_fail() {
        assert!(robust(0, 0).is_ok());
        assert!(robust(1, 0).is_err());
        assert!(robust(0, 1).is_err());
        assert!(finite("x", f64::NAN).is_err());
        assert!(finite("x", f64::INFINITY).is_err());
        assert_ne!(fnv64("a"), fnv64("b"));
    }
}
