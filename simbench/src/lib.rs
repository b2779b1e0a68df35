//! End-to-end and per-layer benchmark of the WGTT simulator.
//!
//! Two workloads drive the simulator through the public
//! `wgtt-scenario` entry points (see `README.md` for why each exists):
//!
//! * `corridor` — 200-vehicle, 32-AP fleet corridors on the monolithic
//!   [`wgtt_scenario::World`]; its traced run also times
//!   [`wgtt_scenario::shard::run_sharded`] on the same fleet split into
//!   four districts;
//! * `drive` — the paper's fig13 matrix of single-car drives through
//!   [`wgtt_scenario::experiments::common::drive`].
//!
//! An untraced run reports the end-to-end metrics; a traced run records
//! spans around the benchmark's own calls into each layer and reports
//! the per-layer metrics. Nothing here probes inside the program.

pub mod gate;
pub mod host;
pub mod metrics;
pub mod replay;
pub mod trace;
pub mod workloads;
