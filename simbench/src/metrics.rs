//! Metric names and units, and the result line the benchmark prints.
//!
//! The two tables here are the contract with `BENCHMARK.json`: an
//! untraced run prints every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric, in table order.

use std::collections::HashMap;
use std::fmt::Write as _;

/// One metric: its name as printed and its unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the simulator sees. Host-time metrics say what the
/// simulator costs; simulated metrics say what the model produces.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("veh_s_per_s", "veh.s/s"),
    m("peak_rss_mb", "MB"),
    m("goodput_mbps", "Mbit/s"),
    m("outage_frac", "ratio"),
    m("ok_frac", "ratio"),
];

/// Metrics of single layers, from the traced run. A metric that does not
/// apply to a workload reads 0 (see `README.md`).
pub const PER_LAYER: &[MetricDef] = &[
    m("scenario.generate_ms", "ms"),
    m("scenario.world_new_ms", "ms"),
    m("scenario.slice_ms_p50", "ms"),
    m("scenario.slice_ms_p90", "ms"),
    m("scenario.long_slice_ms_p90", "ms"),
    m("scenario.reduce_ms", "ms"),
    m("sim.events", "count"),
    m("sim.events_per_frame", "ratio"),
    m("sim.long_events", "count"),
    m("sim.ns_per_event", "ns"),
    m("sim.queue_ns", "ns"),
    m("radio.esnr_map_ns", "ns"),
    m("mac.frames", "count"),
    m("mac.uplink_retx_frac", "ratio"),
    m("mac.ba_collision_frac", "ratio"),
    m("mac.build_ampdu_ns", "ns"),
    m("core.switches", "count"),
    m("core.switch_ms_p50", "ms"),
    m("core.uplink_dup_frac", "ratio"),
    m("core.max_ap_load", "count"),
    m("core.csi_ns", "ns"),
    m("core.downlink_ns", "ns"),
    m("net.tcp_timeouts", "count"),
    m("net.failed_handshakes", "count"),
    m("net.tcp_ns", "ns"),
    m("shard.speedup", "ratio"),
    m("host.calib_ns", "ns"),
    m("host.trace_overhead", "ratio"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The benchmark's verdict and measurements for one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every operation passed the correctness gate.
    pub correct: bool,
    /// Scenario runs attempted.
    pub attempted: u64,
    /// Scenario runs that failed the gate.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: HashMap<&'static str, f64>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `defs`. A metric missing from
    /// `values`, or one that is not finite, makes the result incorrect
    /// and prints as 0.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let mut correct = self.correct;
        let mut metrics = String::new();
        for (i, d) in defs.iter().enumerate() {
            let v = match self.values.get(d.name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name), "duplicate metric name {:?}", d.name);
            assert!(
                !d.unit.is_empty() && d.unit.len() <= 16,
                "bad unit {:?}",
                d.unit
            );
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = text.matches("\"why\": ").count();
        let listed = text.matches("\"name\": ").count();
        assert_eq!(listed, workloads + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn missing_or_nan_metric_makes_result_incorrect() {
        let mut o = Outcome {
            correct: true,
            attempted: 2,
            failed: 0,
            values: HashMap::new(),
        };
        o.values.insert("setup_s", 0.5);
        let line = o.to_json(&END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.values.insert("setup_s", f64::NAN);
        assert!(o
            .to_json(&END_TO_END[..1])
            .starts_with("{\"correct\": false"));
        assert!(o
            .to_json(&END_TO_END[..2])
            .starts_with("{\"correct\": false"));
    }
}
