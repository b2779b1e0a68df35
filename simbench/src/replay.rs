//! Unit-cost replays of one layer's public functions on inputs shaped
//! like a workload: entity, client and AP counts come from the
//! workload, so a replay prices the layer at the scale the workload runs
//! it. A replay is a unit cost, not an in-situ share of a run.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;
use wgtt::messages::BackhaulMsg;
use wgtt::{ActionBuf, Controller, WgttConfig};
use wgtt_mac::aggregation::{build_ampdu, AggregationPolicy};
use wgtt_mac::frame::{Mpdu, NodeId, PacketRef};
use wgtt_mac::Mcs;
use wgtt_net::packet::{FlowId, PacketFactory};
use wgtt_net::tcp::{TcpConfig, TcpSender};
use wgtt_net::wire::Ipv4Addr;
use wgtt_radio::{batch, FadingProcess, Link, LinkBudget, Modulation, ParabolicAntenna};
use wgtt_radio::{PathLossModel, Position};
use wgtt_sim::queue::EventQueue;
use wgtt_sim::rng::RngStream;
use wgtt_sim::time::{SimDuration, SimTime};

/// Host time each sample aims to occupy.
const SAMPLE_NS: u128 = 1_000_000;
/// Samples per replay; the median is reported.
const SAMPLES: usize = 15;

/// Median host ns per call of `op`, over [`SAMPLES`] samples of a
/// calibrated number of calls each.
pub fn ns_per_op<O>(mut op: impl FnMut() -> O) -> f64 {
    let probe = Instant::now();
    for _ in 0..16 {
        black_box(op());
    }
    let per = (probe.elapsed().as_nanos() / 16).max(1);
    let iters = (SAMPLE_NS / per).clamp(1, 10_000_000) as usize;
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(op());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::host::median(&mut samples)
}

/// `EventQueue::pop_until` + `schedule` with `entities` events pending:
/// each popped entity re-arms itself 1–1000 µs later, the pattern of the
/// world's per-node timers.
pub fn queue_ns(entities: usize) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for e in 0..entities as u32 {
        q.schedule(SimTime::from_micros(1 + u64::from(e)), e);
    }
    ns_per_op(|| {
        let (now, e) = q.pop_until(SimTime::MAX).expect("every entity re-arms");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        q.schedule(now + SimDuration::from_micros(1 + x % 1000), e);
        e
    })
}

/// Links from each AP position to one client moving at `speed_mps`,
/// built the way the world builds them.
pub fn links(ap_positions: &[Position], speed_mps: f64, seed: u64) -> Vec<Link> {
    let root = RngStream::root(seed);
    ap_positions
        .iter()
        .enumerate()
        .map(|(ai, &ap_pos)| Link {
            ap_pos,
            ap_boresight_rad: -std::f64::consts::FRAC_PI_2,
            ap_antenna: ParabolicAntenna::laird_gd24bp(),
            client_antenna_dbi: 0.0,
            budget: LinkBudget::default(),
            pathloss: PathLossModel::roadside(),
            fading: FadingProcess::new(
                root.derive("link")
                    .derive_indexed("ap", ai as u64)
                    .derive_indexed("client", 0),
                speed_mps.max(0.3),
                9.0,
            ),
            shadowing: None,
            memo: Default::default(),
        })
        .collect()
}

/// One `batch::esnr_map` over `links` for a client in the middle of the
/// AP span. The instant advances every call, so every call misses the
/// per-link memo, as each new uplink frame does.
pub fn esnr_map_ns(links: &[Link]) -> f64 {
    let n = links.len().max(1) as f64;
    let x = links.iter().map(|l| l.ap_pos.x).sum::<f64>() / n;
    let pos = Position::new(x, 0.0);
    let mut t = 0u64;
    let mut out = Vec::with_capacity(links.len());
    ns_per_op(|| {
        t += 1_387;
        batch::esnr_map(
            links,
            SimTime::from_nanos(t),
            pos,
            Modulation::Qam16,
            &mut out,
        );
        out.len()
    })
}

/// `build_ampdu` from a queue holding a full Block ACK window (64
/// MPDUs of 1500 bytes) at MCS 7; the taken MPDUs are re-queued with
/// fresh sequence numbers so every call sees a full window.
pub fn build_ampdu_ns() -> f64 {
    let policy = AggregationPolicy::default();
    let mut retries: Vec<Mpdu> = Vec::new();
    let mut fresh: VecDeque<Mpdu> = VecDeque::new();
    let mut next: u64 = 0;
    let mpdu = |n: u64| Mpdu {
        seq: (n % 4096) as u16,
        packet: PacketRef { id: n, len: 1500 },
        retries: 0,
    };
    while fresh.len() < 64 {
        fresh.push_back(mpdu(next));
        next += 1;
    }
    ns_per_op(|| {
        let out = build_ampdu(&mut retries, &mut fresh, &policy, Mcs::Mcs7);
        assert!(!out.is_empty(), "a full window always yields an A-MPDU");
        for _ in 0..out.len() {
            fresh.push_back(mpdu(next));
            next += 1;
        }
        out.len()
    })
}

/// `Controller::on_msg(CsiReport)` and `Controller::on_downlink` with
/// `clients` clients spread over `aps` APs, each client steadily heard
/// best by its home AP (no switches). Returns (csi ns, downlink ns).
pub fn controller_ns(clients: usize, aps: usize) -> (f64, f64) {
    let clients = clients.max(1);
    let ap_ids: Vec<NodeId> = (0..aps.max(1) as u32).map(NodeId).collect();
    let client = |i: usize| NodeId(10_000 + i as u32);
    let home = |i: usize| ap_ids[i % ap_ids.len()];
    let mut c = Controller::new(WgttConfig::default(), ap_ids.clone());
    c.reserve_clients(clients);
    let mut buf = ActionBuf::new();
    let t0 = SimTime::from_millis(1);
    for i in 0..clients {
        buf.clear();
        c.on_client_associated(client(i), home(i), t0, &mut buf);
    }
    // Clients report round-robin, each about every 100 µs (an uplink frame
    // overheard by a handful of APs), and at least 1 µs apart.
    let step = SimDuration::from_nanos((100_000 / clients as u64).max(1_000));
    let mut now = t0;
    let mut i = 0usize;
    let csi = ns_per_op(|| {
        now += step;
        i = (i + 1) % clients;
        buf.clear();
        let msg = BackhaulMsg::CsiReport {
            client: client(i),
            ap: home(i),
            esnr_db: 20.0,
            at: now,
        };
        c.on_msg(msg, now, &mut buf);
        buf.len()
    });
    assert_eq!(c.stats.switches_started, 0, "steady CSI never switches");
    // Downlinks 1 ns apart stay well inside the fan-out grace period.
    let base = now.as_nanos();
    let mut k = 0u64;
    let mut factory = PacketFactory::new();
    let server = Ipv4Addr::new(8, 8, 8, 8);
    let dst = Ipv4Addr::new(172, 16, 0, 100);
    let downlink = ns_per_op(|| {
        k += 1;
        let at = SimTime::from_nanos(base + k);
        let idx = (k as usize) % clients;
        let p = factory.udp(FlowId(0), server, dst, k as u32, 1500, at);
        buf.clear();
        c.on_downlink(client(idx), p, at, &mut buf);
        assert!(!buf.is_empty(), "every downlink has a serving AP");
        buf.len()
    });
    (csi, downlink)
}

/// `TcpSender::on_ack` for one more MSS followed by `poll_send`, on a
/// bulk sender whose window is already open.
pub fn tcp_ns() -> f64 {
    let cfg = TcpConfig::default();
    let mut snd = TcpSender::bulk(cfg);
    let mut now = SimTime::from_millis(1);
    let mut acked = 0u64;
    let mut sent = snd
        .poll_send(now)
        .iter()
        .map(|s| s.seq + s.len)
        .max()
        .unwrap_or(0);
    ns_per_op(|| {
        now += SimDuration::from_micros(100);
        acked = (acked + cfg.mss).min(sent);
        snd.on_ack(acked, now);
        let segs = snd.poll_send(now);
        if let Some(end) = segs.iter().map(|s| s.seq + s.len).max() {
            sent = sent.max(end);
        }
        segs.len()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_replay_reports_a_positive_cost() {
        assert!(queue_ns(9) > 0.0);
        let aps: Vec<Position> = (0..8).map(|i| Position::new(8.0 * i as f64, 5.0)).collect();
        assert!(esnr_map_ns(&links(&aps, 6.7, 1)) > 0.0);
        assert!(build_ampdu_ns() > 0.0);
        let (csi, dl) = controller_ns(4, 8);
        assert!(csi > 0.0 && dl > 0.0);
        assert!(tcp_ns() > 0.0);
    }
}
