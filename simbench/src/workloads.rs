//! The workloads, their passes and their metrics.
//!
//! A *pass* runs every scenario of a workload once. A run repeats passes
//! until the next one would end past `--seconds` (at least one pass),
//! and reports host-time metrics as medians over passes. Every pass of
//! one seed runs the same scenarios, so simulated metrics and counts are
//! taken from the first pass and the gate checks that the later passes
//! reproduce it digest for digest.
//!
//! An untraced run also measures `peak_rss_mb` per scenario, each in a
//! process of its own (see [`run_scenario`]); the gate holds each of
//! those runs to the digest of the same scenario's first run too.
//!
//! In a traced run every pass records spans, which give the per-layer
//! numbers. The first [`TRACE_TWINS`] scenarios are then run twice more,
//! traced and untraced, for `host.trace_overhead`. A traced `corridor`
//! run also runs one long corridor, for the event storms a one-second
//! corridor never reaches, and times `run_sharded` on a districted fleet
//! for `shard.speedup`.

use crate::gate::{check_fleet, check_run, fnv64, Checked, Ledger};
use crate::host::{median, quantile};
use crate::metrics::Outcome;
use crate::replay;
use crate::trace::{Span, Tracer};
use std::time::{Duration, Instant};
use wgtt::WgttConfig;
use wgtt_apps::mix::AppKind;
use wgtt_net::packet::FlowId;
use wgtt_radio::Position;
use wgtt_scenario::experiments::common::drive;
use wgtt_scenario::fleet::FleetConfig;
use wgtt_scenario::shard::run_sharded;
use wgtt_scenario::testbed::{ClientPlan, TestbedConfig};
use wgtt_scenario::world::FlowSpec;
use wgtt_scenario::{FleetReport, RunReport, SystemKind, World};
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::{SimDuration, SimTime};

/// Simulated time per advance slice.
const SLICE: SimDuration = SimDuration::from_millis(100);

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 200 × 32 corridors on the monolithic world.
    Corridor,
    /// The fig13 matrix of single-car drives.
    Drive,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Corridor, Workload::Drive];

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Corridor => "corridor",
            Workload::Drive => "drive",
        }
    }
}

/// Full size for measurement, tiny for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `README.md` documents.
    Full,
    /// A few vehicles for a few hundred simulated milliseconds.
    Tiny,
}

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
}

fn wgtt() -> SystemKind {
    SystemKind::Wgtt(WgttConfig::default())
}

/// Seed of the `i`-th fleet of a run seeded with `seed`.
fn instance_seed(seed: u64, i: usize) -> u64 {
    RngStream::root(seed)
        .derive_indexed("fleet", i as u64)
        .rng()
        .next_u64()
}

/// Corridors per pass, vehicles, APs and simulated length of each.
fn corridor_cfg(scale: Scale) -> (usize, FleetConfig) {
    let (n, mut cfg, ms) = match scale {
        Scale::Full => (36, FleetConfig::corridor(200, 32), 1_000),
        Scale::Tiny => (2, FleetConfig::corridor(6, 4), 300),
    };
    cfg.duration = SimDuration::from_millis(ms);
    (n, cfg)
}

/// The long corridor of the traced `corridor` run: the first corridor's
/// fleet for 4 s simulated, long enough to reach the event storms of
/// simulated seconds 2–4 that one-second corridors never see.
fn long_corridor_cfg(scale: Scale) -> FleetConfig {
    let mut cfg = corridor_cfg(scale).1;
    cfg.duration = cfg.duration * 4;
    cfg
}

/// The districted fleet `shard.speedup` runs through `run_sharded`: the
/// corridor's 200 × 32 fleet split into four districts, 1 s simulated.
fn shard_cfg(scale: Scale) -> FleetConfig {
    let (mut cfg, districts, ms) = match scale {
        Scale::Full => (FleetConfig::corridor(200, 32), 4, 1_000),
        Scale::Tiny => (FleetConfig::corridor(8, 8), 2, 400),
    };
    cfg.districts = districts;
    cfg.duration = SimDuration::from_millis(ms);
    cfg
}

/// One drive of the fig13 matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    system: SystemKind,
    flow: FlowSpec,
    speed_mph: f64,
}

impl Cell {
    fn label(&self) -> String {
        let system = match self.system {
            SystemKind::Wgtt(_) => "wgtt",
            _ => "80211r",
        };
        let flow = match self.flow {
            FlowSpec::DownlinkTcpBulk => "tcp",
            _ => "udp",
        };
        format!("drive.{system}.{flow}.{}mph", self.speed_mph)
    }
}

fn drive_cells(scale: Scale) -> Vec<Cell> {
    let speeds: &[f64] = match scale {
        Scale::Full => &[5.0, 10.0, 15.0, 20.0, 25.0],
        Scale::Tiny => &[25.0],
    };
    let mut cells = Vec::new();
    for &speed_mph in speeds {
        for system in [wgtt(), SystemKind::Enhanced80211r] {
            for flow in [
                FlowSpec::DownlinkTcpBulk,
                FlowSpec::DownlinkUdp { rate_mbps: 30.0 },
            ] {
                cells.push(Cell {
                    system,
                    flow,
                    speed_mph,
                });
            }
        }
    }
    if scale == Scale::Tiny {
        cells.truncate(2);
        cells[1].system = SystemKind::Enhanced80211r;
    }
    cells
}

/// Digest of every input a workload generates from `seed`: the same
/// seed gives the same digest, another seed another one.
pub fn workload_digest(workload: Workload, seed: u64, scale: Scale) -> u64 {
    let text = match workload {
        Workload::Corridor => {
            let (n, cfg) = corridor_cfg(scale);
            (0..n)
                .map(|i| format!("{:?}", cfg.generate(instance_seed(seed, i))))
                .collect::<Vec<_>>()
                .join("|")
        }
        Workload::Drive => format!("{:?} seed={seed}", drive_cells(scale)),
    };
    fnv64(&text)
}

fn is_downlink(spec: &FlowSpec) -> bool {
    matches!(
        spec,
        FlowSpec::DownlinkUdp { .. }
            | FlowSpec::DownlinkTcpBulk
            | FlowSpec::DownlinkTcpBytes { .. }
            | FlowSpec::DownlinkConference { .. }
    )
}

/// Simulated outputs and exact counts, summed over a pass's scenarios.
#[derive(Debug, Default, Clone)]
struct Totals {
    dl_bits: f64,
    dl_secs: f64,
    outage_s: f64,
    dl_vehicle_s: f64,
    events: u64,
    frames: u64,
    up_sent: u64,
    up_retx: u64,
    ba_collisions: u64,
    ba_responses: u64,
    switches: u64,
    switch_ms_p50s: Vec<f64>,
    dup: u64,
    forwarded: u64,
    max_ap_load: u64,
    tcp_timeouts: u64,
    failed_handshakes: u64,
}

impl Totals {
    /// Fold in the counters of one world's report.
    fn add_counts(&mut self, r: &RunReport) {
        self.events += r.events_handled;
        self.frames += r.frames_on_air;
        for &(sent, retx) in r.uplink_mpdus.values() {
            self.up_sent += sent;
            self.up_retx += retx;
        }
        self.ba_collisions += r.ba_collisions.get();
        self.ba_responses += r.ba_responses.get();
        self.switches += r.switches;
        if let Some(p50) = r.switch_durations.median() {
            self.switch_ms_p50s.push(p50 * 1e3);
        }
        self.forwarded += r.uplink_dedup.0;
        self.dup += r.uplink_dedup.1;
        self.max_ap_load = self.max_ap_load.max(r.max_ap_load);
        self.tcp_timeouts += r.tcp_timeouts.values().sum::<u64>();
        self.failed_handshakes += r.failed_handshakes;
    }

    /// Fold in one fleet world: the downlink bytes of the flows whose
    /// spec is downlink, and its counters.
    fn add_world(&mut self, r: &RunReport, downlink: &[bool]) {
        let bytes: u64 = downlink
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .filter_map(|(i, _)| r.flow_meters.get(&FlowId(i as u32)))
            .map(|m| m.total_bytes())
            .sum();
        self.dl_bits += bytes as f64 * 8.0;
        self.add_counts(r);
    }

    /// Fold in a fleet report: its length and its ≥ 200 ms downlink
    /// outage time over its downlink vehicle-time.
    fn add_fleet(&mut self, fleet: &FleetReport) {
        let dl = fleet.per_vehicle.iter().filter(|v| v.has_downlink).count();
        self.dl_secs += fleet.duration.as_secs_f64();
        self.outage_s += fleet.outage_time_over(0.2);
        self.dl_vehicle_s += dl as f64 * fleet.duration.as_secs_f64();
    }

    /// Fold in another scenario's totals.
    fn absorb(&mut self, t: Totals) {
        self.dl_bits += t.dl_bits;
        self.dl_secs += t.dl_secs;
        self.outage_s += t.outage_s;
        self.dl_vehicle_s += t.dl_vehicle_s;
        self.events += t.events;
        self.frames += t.frames;
        self.up_sent += t.up_sent;
        self.up_retx += t.up_retx;
        self.ba_collisions += t.ba_collisions;
        self.ba_responses += t.ba_responses;
        self.switches += t.switches;
        self.switch_ms_p50s.extend(t.switch_ms_p50s);
        self.dup += t.dup;
        self.forwarded += t.forwarded;
        self.max_ap_load = self.max_ap_load.max(t.max_ap_load);
        self.tcp_timeouts += t.tcp_timeouts;
        self.failed_handshakes += t.failed_handshakes;
    }

    fn ratio(a: u64, b: u64) -> f64 {
        if b == 0 {
            0.0
        } else {
            a as f64 / b as f64
        }
    }
}

/// Scenarios a traced run reruns, traced and untraced, for
/// `host.trace_overhead`.
const TRACE_TWINS: usize = 3;

/// What one pass measured.
#[derive(Debug, Default)]
struct Pass {
    setup_s: Vec<f64>,
    /// Host seconds of each scenario's run phase, in pass order.
    scenario_run_s: Vec<f64>,
    /// Simulated vehicle-seconds the run phases produced.
    veh_s: f64,
    /// Simulated outputs; `None` if any scenario of the pass failed.
    totals: Option<Totals>,
}

impl Pass {
    /// Host seconds of the pass's run phases.
    fn run_s(&self) -> f64 {
        self.scenario_run_s.iter().sum()
    }

    fn veh_s_per_s(&self) -> f64 {
        self.veh_s / self.run_s()
    }
}

/// Per-process state threaded through every pass.
struct Ctx {
    p: Params,
    ledger: Ledger,
    tr: Tracer,
}

/// The scenarios whose peak resident memory an untraced run measures,
/// each in a process of its own: every drive (a few of them jump with
/// the seed), and the first eight corridors (they do not).
fn rss_probes(p: Params) -> usize {
    match p.workload {
        Workload::Corridor => corridor_cfg(p.scale).0.min(8),
        Workload::Drive => drive_cells(p.scale).len(),
    }
}

/// Run one workload and reduce it to its metrics. `probe(i)` runs only
/// the `i`-th scenario of a pass in a process of its own (see
/// [`run_scenario`]) and returns that process's peak resident memory,
/// MB, and the scenario's digest; `None` if the process failed.
pub fn run(p: Params, probe: impl Fn(usize) -> Option<(f64, u64)>) -> (Outcome, Tracer) {
    let mut ctx = Ctx {
        p,
        ledger: Ledger::default(),
        tr: Tracer::new(p.trace),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds.max(0.0));
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = match p.workload {
            Workload::Corridor => corridor_pass(&mut ctx),
            Workload::Drive => drive_pass(&mut ctx),
        };
        // The next pass repeats this one's set-ups and scenario runs.
        let next: f64 = pass.setup_s.iter().chain(&pass.scenario_run_s).sum();
        passes.push(pass);
        // A failed run times as NaN; its pass then estimates as zero.
        let next = Duration::try_from_secs_f64(next).unwrap_or(Duration::ZERO);
        if Instant::now() + next > deadline {
            break;
        }
    }
    // Per-layer metrics come from the passes' spans only.
    let mark = ctx.tr.spans().len();
    let mut extra: Vec<(&'static str, f64)> = Vec::new();
    if p.trace {
        extra.push(("host.trace_overhead", trace_overhead(&mut ctx)));
        // The storm regime and the shard layer are measured on the side
        // of the corridor; they do not apply to the drives.
        let (long_events, long_p90, speedup) = match p.workload {
            Workload::Corridor => {
                let (events, p90) = long_corridor(&mut ctx);
                (events, p90, shard_speedup(&mut ctx))
            }
            Workload::Drive => (0.0, 0.0, 0.0),
        };
        extra.push(("sim.long_events", long_events));
        extra.push(("scenario.long_slice_ms_p90", long_p90));
        extra.push(("shard.speedup", speedup));
    } else {
        // One scenario's peak, not the process's: the process peak is
        // the heaviest scenario's, and the heaviest drive's peak moves
        // by up to 60 % with the seed. Each probe is a run of the
        // scenario under the gate: it fails if its process fails or
        // reads no peak, and its digest must match the first run's.
        let mut peaks: Vec<f64> = (0..rss_probes(p))
            .filter_map(|i| {
                ctx.ledger.op(&scenario_key(p, i), |_| match probe(i) {
                    Some((mb, digest)) if mb.is_finite() && mb > 0.0 => {
                        Ok(Checked { value: mb, digest })
                    }
                    other => Err(format!("peak RSS probe {i} returned {other:?}")),
                })
            })
            .collect();
        extra.push(("peak_rss_mb", median(&mut peaks)));
    }
    let mut outcome = reduce(&mut ctx, &passes, mark);
    outcome.values.extend(extra);
    (outcome, ctx.tr)
}

/// The long corridor ([`long_corridor_cfg`]) once under the gate: its
/// event count and the 90th percentile of its slices' host ms. NaN if
/// it fails.
fn long_corridor(ctx: &mut Ctx) -> (f64, f64) {
    let cfg = long_corridor_cfg(ctx.p.scale);
    let mark = ctx.tr.spans().len();
    let Some(out) = corridor_instance(ctx, &cfg, 0, "corridor.long", "scenario.long_slice") else {
        return (f64::NAN, f64::NAN);
    };
    let mut slices: Vec<f64> = ctx.tr.spans()[mark..]
        .iter()
        .filter(|s| s.name == "scenario.long_slice")
        .map(Span::ms)
        .collect();
    (out.totals.events as f64, quantile(&mut slices, 0.9))
}

/// `run_sharded` on a districted fleet ([`shard_cfg`]) at one and at
/// `nproc` workers, three times each, alternating: median wall time at
/// one worker ÷ at `nproc`. The gate holds all six runs to one digest.
fn shard_speedup(ctx: &mut Ctx) -> f64 {
    let cfg = shard_cfg(ctx.p.scale);
    let nproc = crate::host::nproc();
    let (mut w1, mut wn) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        w1.push(sharded(ctx, &cfg, 1).unwrap_or(f64::NAN));
        wn.push(sharded(ctx, &cfg, nproc).unwrap_or(f64::NAN));
    }
    median(&mut w1) / median(&mut wn)
}

/// Run the `i`-th scenario of a pass once, untraced, under the gate;
/// returns its digest if it passed.
pub fn run_scenario(p: Params, i: usize) -> Option<u64> {
    let mut ctx = Ctx {
        p,
        ledger: Ledger::default(),
        tr: Tracer::new(false),
    };
    rerun(&mut ctx, i)?;
    ctx.ledger.digest(&scenario_key(p, i))
}

/// The gate's key of the `i`-th scenario of a pass (cycling when a pass
/// has fewer).
fn scenario_key(p: Params, i: usize) -> String {
    match p.workload {
        Workload::Corridor => format!("corridor.{}", i % corridor_cfg(p.scale).0),
        Workload::Drive => {
            let cells = drive_cells(p.scale);
            cells[i % cells.len()].label()
        }
    }
}

/// Traced ÷ untraced `veh_s_per_s` over the first [`TRACE_TWINS`]
/// scenarios, each run once traced and once untraced, back to back in
/// alternating order. NaN if any of those runs fails the gate.
fn trace_overhead(ctx: &mut Ctx) -> f64 {
    let (mut traced, mut untraced) = (0.0, 0.0);
    for i in 0..TRACE_TWINS {
        let order = if i % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for on in order {
            ctx.tr.set_on(on);
            let secs = rerun(ctx, i).unwrap_or(f64::NAN);
            *(if on { &mut traced } else { &mut untraced }) += secs;
        }
    }
    ctx.tr.set_on(true);
    untraced / traced
}

/// Run the `i`-th scenario of a pass once more (cycling when a pass has
/// fewer); returns its run-phase host seconds. The gate compares its
/// digest with the first run's.
fn rerun(ctx: &mut Ctx, i: usize) -> Option<f64> {
    match ctx.p.workload {
        Workload::Corridor => {
            let (n, cfg) = corridor_cfg(ctx.p.scale);
            let key = scenario_key(ctx.p, i);
            corridor_instance(ctx, &cfg, i % n, &key, "scenario.slice").map(|o| o.run_s)
        }
        Workload::Drive => {
            let cells = drive_cells(ctx.p.scale);
            drive_cell(ctx, cells[i % cells.len()]).map(|(host, _, _)| host)
        }
    }
}

struct InstanceOut {
    setup_s: f64,
    run_s: f64,
    veh_s: f64,
    totals: Totals,
}

/// Build a fleet world the way `FleetConfig::build_world` does, with the
/// generation and construction steps timed apart.
fn build_fleet_world(
    tr: &mut Tracer,
    run: u64,
    cfg: &FleetConfig,
    seed: u64,
) -> (World, Vec<AppKind>, Vec<bool>) {
    let ((testbed, kinds, flows), _) = tr.time("scenario.generate", run, |_| cfg.generate(seed));
    let downlink: Vec<bool> = flows.iter().map(|(_, f)| is_downlink(f)).collect();
    let (world, _) = tr.time("scenario.world_new", run, |_| {
        let mut w = World::new_multi(testbed, wgtt(), flows, seed);
        w.sample_lean = true;
        w
    });
    (world, kinds, downlink)
}

/// Advance `world` in [`SLICE`] steps, each a span named `slice`, to
/// its horizon, then finish it.
fn advance(tr: &mut Tracer, run: u64, slice: &str, world: &mut World) {
    let end = world.end_at();
    let mut t = SimTime::ZERO;
    while t < end {
        t += SLICE;
        let open = tr.begin(slice, run);
        world.advance_until(t);
        tr.end(open);
    }
    world.finish();
}

/// One corridor on `cfg`, seeded like the `i`-th of a pass, under the
/// gate with `key`; its slices are spans named `slice`.
fn corridor_instance(
    ctx: &mut Ctx,
    cfg: &FleetConfig,
    i: usize,
    key: &str,
    slice: &str,
) -> Option<InstanceOut> {
    let seed = instance_seed(ctx.p.seed, i);
    let tr = &mut ctx.tr;
    ctx.ledger.op(key, |run| {
        let ((mut world, kinds, downlink), setup_s) = tr.time("scenario.setup", run, |tr| {
            let (mut world, kinds, downlink) = build_fleet_world(tr, run, cfg, seed);
            tr.time("scenario.begin", run, |_| world.begin(cfg.duration));
            (world, kinds, downlink)
        });
        let (_, run_s) = tr.time("scenario.run", run, |tr| {
            advance(tr, run, slice, &mut world)
        });
        let (fleet, _) = tr.time("scenario.reduce", run, |_| {
            FleetReport::from_world(&world, &kinds, cfg)
        });
        let digest = check_fleet(&fleet)?;
        let mut totals = Totals::default();
        totals.add_world(&world.report, &downlink);
        totals.add_fleet(&fleet);
        Ok(Checked {
            value: InstanceOut {
                setup_s,
                run_s,
                veh_s: fleet.vehicles as f64 * cfg.duration.as_secs_f64(),
                totals,
            },
            digest,
        })
    })
}

fn corridor_pass(ctx: &mut Ctx) -> Pass {
    let (n, cfg) = corridor_cfg(ctx.p.scale);
    let mut pass = Pass::default();
    let mut totals = Some(Totals::default());
    for i in 0..n {
        let key = scenario_key(ctx.p, i);
        match corridor_instance(ctx, &cfg, i, &key, "scenario.slice") {
            Some(out) => {
                pass.setup_s.push(out.setup_s);
                pass.scenario_run_s.push(out.run_s);
                pass.veh_s += out.veh_s;
                if let Some(t) = totals.as_mut() {
                    t.absorb(out.totals);
                }
            }
            None => totals = None,
        }
    }
    pass.totals = totals;
    pass
}

/// One `run_sharded` call on `cfg` under the gate; returns its wall
/// time.
fn sharded(ctx: &mut Ctx, cfg: &FleetConfig, workers: usize) -> Option<f64> {
    let seed = instance_seed(ctx.p.seed, 0);
    let tr = &mut ctx.tr;
    let name = format!("shard.run_sharded.w{workers}");
    ctx.ledger.op("shard", |run| {
        let (report, secs) = tr.time(&name, run, |_| {
            run_sharded(cfg, wgtt(), seed, workers, None)
        });
        Ok(Checked {
            value: secs,
            digest: check_fleet(&report)?,
        })
    })
}

/// The world `drive` builds for `cell`, begun and ready to advance;
/// mirrors `experiments::common::drive` for a single car.
fn drive_world(tr: &mut Tracer, run: u64, cell: Cell, seed: u64) -> World {
    let ((testbed, start, end), _) = tr.time("scenario.generate", run, |_| {
        let testbed = TestbedConfig::paper_array();
        let plan = ClientPlan::following(cell.speed_mph, 0.0);
        // Traffic starts 8 m before AP0 and ends 15 m past the array
        // plus the 8 m lead and a 3 m car length.
        let start = SimTime::from_secs_f64((-plan.start.x - 8.0).max(0.0) / plan.speed_mps);
        let end = start + SimDuration::from_secs_f64((testbed.road_len() + 26.0) / plan.speed_mps);
        (testbed.with_clients(vec![plan]), start, end)
    });
    let (mut world, _) = tr.time("scenario.world_new", run, |_| {
        World::new_multi(testbed, cell.system, vec![(0, cell.flow)], seed)
    });
    world.traffic_start = start;
    tr.time("scenario.begin", run, |_| {
        world.begin(end.saturating_since(SimTime::ZERO))
    });
    world
}

/// One drive under the gate; returns (host s, simulated s, totals).
fn drive_cell(ctx: &mut Ctx, cell: Cell) -> Option<(f64, f64, Totals)> {
    let seed = ctx.p.seed;
    let tr = &mut ctx.tr;
    let label = cell.label();
    ctx.ledger.op(&label, |run| {
        let (d, secs) = tr.time(&label, run, |_| {
            drive(cell.system, cell.speed_mph, cell.flow, seed)
        });
        let r = &d.world.report;
        let digest = check_run(r)?;
        let window = d.window().as_secs_f64();
        let client = d.world.client_ids()[0];
        let mut totals = Totals::default();
        totals.add_counts(r);
        totals.dl_bits = d.mean_mbps() * 1e6 * window;
        totals.dl_secs = window;
        totals.outage_s = if r.last_delivery.contains_key(&client) {
            r.outage_durations
                .get(&client)
                .map_or(0.0, |o| o.cdf().iter().map(|&(v, _)| v).sum())
        } else {
            window
        };
        totals.dl_vehicle_s = window;
        Ok(Checked {
            value: (secs, r.duration.as_secs_f64(), totals),
            digest,
        })
    })
}

/// Set-up rounds per drive pass: one round builds only 20 small worlds.
const DRIVE_SETUP_ROUNDS: usize = 10;

fn drive_pass(ctx: &mut Ctx) -> Pass {
    let cells = drive_cells(ctx.p.scale);
    let mut pass = Pass::default();
    for _ in 0..DRIVE_SETUP_ROUNDS {
        let run = ctx.ledger.attempted;
        let (_, secs) = ctx.tr.time("scenario.setup", run, |tr| {
            for &cell in &cells {
                drop(drive_world(tr, run, cell, ctx.p.seed));
            }
        });
        pass.setup_s.push(secs);
    }
    let mut totals = Some(Totals::default());
    for &cell in &cells {
        match drive_cell(ctx, cell) {
            Some((host, sim, t)) => {
                pass.scenario_run_s.push(host);
                pass.veh_s += sim;
                if let Some(all) = totals.as_mut() {
                    all.absorb(t);
                }
            }
            None => totals = None,
        }
    }
    pass.totals = totals;
    pass
}

/// Reduce the passes to the metrics of the run's kind.
fn reduce(ctx: &mut Ctx, passes: &[Pass], mark: usize) -> Outcome {
    let p = ctx.p;
    let first = passes.first().and_then(|x| x.totals.clone());
    let mut out = Outcome {
        correct: ctx.ledger.failed == 0 && first.is_some(),
        attempted: ctx.ledger.attempted,
        failed: ctx.ledger.failed,
        ..Outcome::default()
    };
    let t = first.unwrap_or_default();
    let v = &mut out.values;
    if !p.trace {
        let mut setups: Vec<f64> = passes
            .iter()
            .flat_map(|x| x.setup_s.iter().copied())
            .collect();
        v.insert("setup_s", median(&mut setups));
        let mut rates: Vec<f64> = passes.iter().map(Pass::veh_s_per_s).collect();
        v.insert("veh_s_per_s", median(&mut rates));
        v.insert("goodput_mbps", t.dl_bits / 1e6 / t.dl_secs);
        v.insert("outage_frac", t.outage_s / t.dl_vehicle_s);
        v.insert(
            "ok_frac",
            (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        );
        return out;
    }

    let spans = &ctx.tr.spans()[..mark];
    let durations_ms = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    };
    let med = |name: &str| median(&mut durations_ms(name));
    let mut slices = durations_ms("scenario.slice");
    v.insert("scenario.generate_ms", med("scenario.generate"));
    v.insert("scenario.world_new_ms", med("scenario.world_new"));
    v.insert("scenario.slice_ms_p50", quantile(&mut slices, 0.5));
    v.insert("scenario.slice_ms_p90", quantile(&mut slices, 0.9));
    v.insert("scenario.reduce_ms", med("scenario.reduce"));
    v.insert("sim.events", t.events as f64);
    v.insert("sim.events_per_frame", Totals::ratio(t.events, t.frames));
    let mut ns_per_event: Vec<f64> = passes
        .iter()
        .map(|x| x.run_s() * 1e9 / t.events as f64)
        .collect();
    v.insert("sim.ns_per_event", median(&mut ns_per_event));
    v.insert("mac.frames", t.frames as f64);
    v.insert("mac.uplink_retx_frac", Totals::ratio(t.up_retx, t.up_sent));
    v.insert(
        "mac.ba_collision_frac",
        Totals::ratio(t.ba_collisions, t.ba_responses),
    );
    v.insert("core.switches", t.switches as f64);
    v.insert("core.switch_ms_p50", median(&mut t.switch_ms_p50s.clone()));
    v.insert(
        "core.uplink_dup_frac",
        Totals::ratio(t.dup, t.dup + t.forwarded),
    );
    v.insert("core.max_ap_load", t.max_ap_load as f64);
    v.insert("net.tcp_timeouts", t.tcp_timeouts as f64);
    v.insert("net.failed_handshakes", t.failed_handshakes as f64);

    // Replays, shaped like the workload: pending-event entities, links
    // within the 120 m decode horizon, and the controller's client and
    // AP counts.
    let (entities, clients, aps, ap_positions, speed_mps) = replay_shape(p);
    let run = ctx.ledger.attempted;
    let tr = &mut ctx.tr;
    let replays = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let (calib, _) = tr.time("replay.host_calib", run, |_| crate::host::calib_ns());
        let (queue, _) = tr.time("replay.sim_queue", run, |_| replay::queue_ns(entities));
        let (esnr, _) = tr.time("replay.radio_esnr_map", run, |_| {
            replay::esnr_map_ns(&replay::links(&ap_positions, speed_mps, p.seed))
        });
        let (ampdu, _) = tr.time("replay.mac_build_ampdu", run, |_| replay::build_ampdu_ns());
        let ((csi, downlink), _) = tr.time("replay.core_controller", run, |_| {
            replay::controller_ns(clients, aps)
        });
        let (tcp, _) = tr.time("replay.net_tcp", run, |_| replay::tcp_ns());
        [
            ("host.calib_ns", calib),
            ("sim.queue_ns", queue),
            ("radio.esnr_map_ns", esnr),
            ("mac.build_ampdu_ns", ampdu),
            ("core.csi_ns", csi),
            ("core.downlink_ns", downlink),
            ("net.tcp_ns", tcp),
        ]
    }));
    match replays {
        Ok(values) => v.extend(values),
        Err(_) => out.correct = false,
    }
    out
}

/// (pending-event entities, controller clients, controller APs, AP
/// positions within 120 m of one client, client speed m/s) of a
/// workload.
fn replay_shape(p: Params) -> (usize, usize, usize, Vec<Position>, f64) {
    const MPH: f64 = 0.44704;
    match p.workload {
        Workload::Corridor => {
            let (_, cfg) = corridor_cfg(p.scale);
            let (testbed, _, _) = cfg.generate(instance_seed(p.seed, 0));
            let aps = testbed.ap_positions();
            (
                cfg.n_vehicles + cfg.n_aps,
                cfg.n_vehicles,
                cfg.n_aps,
                aps,
                cfg.speed_mean_mph * MPH,
            )
        }
        Workload::Drive => {
            let aps = TestbedConfig::paper_array().ap_positions();
            let n = aps.len();
            (n + 1, 1, n, aps, 15.0 * MPH)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            for scale in [Scale::Tiny, Scale::Full] {
                let a = workload_digest(w, 1, scale);
                assert_eq!(a, workload_digest(w, 1, scale), "{w:?} {scale:?}");
                assert_ne!(a, workload_digest(w, 2, scale), "{w:?} {scale:?}");
            }
        }
    }

    #[test]
    fn full_drive_matrix_is_fig13() {
        let cells = drive_cells(Scale::Full);
        assert_eq!(cells.len(), 20);
        let labels: std::collections::HashSet<String> = cells.iter().map(Cell::label).collect();
        assert_eq!(labels.len(), 20, "every drive is distinct");
    }

    fn smoke(workload: Workload, trace: bool) {
        let p = Params {
            workload,
            seed: 3,
            seconds: 0.0,
            trace,
            scale: Scale::Tiny,
        };
        let (out, tr) = run(p, |i| {
            Some((crate::host::peak_rss_mb(), run_scenario(p, i)?))
        });
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let line = out.to_json(defs);
        assert!(out.correct && out.failed == 0, "{workload:?}: {line}");
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        assert!(out.attempted >= 2, "the gate compared at least two runs");
        assert_eq!(tr.spans().is_empty(), !trace);
    }

    #[test]
    fn tiny_corridor_passes_the_gate() {
        smoke(Workload::Corridor, false);
        smoke(Workload::Corridor, true);
    }

    #[test]
    fn tiny_drive_passes_the_gate() {
        smoke(Workload::Drive, false);
        smoke(Workload::Drive, true);
    }

    #[test]
    fn failed_or_drifting_probe_fails_the_run() {
        let p = Params {
            workload: Workload::Corridor,
            seed: 3,
            seconds: 0.0,
            trace: false,
            scale: Scale::Tiny,
        };
        // Probe 0 reports a digest no run produced; probe 1's process fails.
        let (out, _) = run(p, |i| (i == 0).then_some((1.0, 0)));
        assert!(!out.correct);
        assert_eq!(out.failed, 2);
        assert!(!out.to_json(END_TO_END).starts_with("{\"correct\": true"));
    }
}
