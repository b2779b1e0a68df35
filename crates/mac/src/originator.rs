//! The A-MPDU originator: one transmitter's send loop toward one peer.
//!
//! Every transmitter in the simulation — a WGTT AP, an 802.11r AP, a
//! vehicle sending uplink — runs the same 802.11n cycle per peer (paper
//! §3.2): stage MPDUs, aggregate retries ahead of staged MPDUs into one
//! A-MPDU at the rate controller's pick, then settle the window on its
//! Block ACK or timeout and feed the outcome back to the rate controller.
//! [`AmpduOriginator`] is that cycle. Callers keep only their own policy:
//! where staged MPDUs come from, and whether a failed MPDU retries or is
//! dropped (a WGTT AP draining after `stop` drops, §3.1.2).
//!
//! Invariant: the rate meta of the in-flight A-MPDU is set exactly while
//! a window is in flight, so each window yields exactly one rate-feedback
//! call, on its Block ACK or on its timeout.

use crate::aggregation::{build_ampdu, AggregationPolicy};
use crate::blockack::{BaOriginator, BaResult};
use crate::frame::{Mpdu, NodeId, PacketRef};
use crate::mcs::Mcs;
use crate::rate::RateController;
use crate::seq::seq_next;
use std::collections::VecDeque;

/// What one Block ACK (or its timeout) meant for the sender — consumed
/// by the caller for delivery bookkeeping.
#[derive(Debug, Default)]
pub struct BaFeedback {
    /// Packets confirmed delivered.
    pub delivered: Vec<PacketRef>,
    /// Packets dropped: retries exhausted, or failed while the caller
    /// asked for failures to be dropped.
    pub dropped: Vec<PacketRef>,
    /// Whether the Block ACK changed nothing: a copy of the last one
    /// applied, or a stale one for an earlier window.
    pub duplicate: bool,
}

/// Per-peer A-MPDU transmit state: staged MPDUs, the retry list, the
/// Block ACK scoreboard, the rate controller and the in-flight rate meta.
#[derive(Debug)]
pub struct AmpduOriginator {
    staged: VecDeque<Mpdu>,
    retries: Vec<Mpdu>,
    ba: BaOriginator,
    rate: RateController,
    /// MCS and MPDU count of the in-flight A-MPDU (for rate feedback).
    in_flight_meta: Option<(Mcs, usize)>,
    /// Next sequence number for [`Self::stage_next`].
    next_seq: u16,
}

impl AmpduOriginator {
    /// An idle originator driven by `rate`.
    pub fn new(rate: RateController) -> Self {
        AmpduOriginator {
            staged: VecDeque::new(),
            retries: Vec::new(),
            ba: BaOriginator::default(),
            rate,
            in_flight_meta: None,
            next_seq: 0,
        }
    }

    /// Whether an A-MPDU is awaiting its Block ACK.
    pub fn has_in_flight(&self) -> bool {
        self.ba.has_in_flight()
    }

    /// MPDUs staged for aggregation.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// MPDUs waiting to go out: staged plus retries.
    pub fn queued(&self) -> usize {
        self.staged.len() + self.retries.len()
    }

    /// Whether a transmit opportunity could send: nothing in flight, and
    /// retries or staged MPDUs wait here or `upstream` has more to stage.
    pub fn ready(&self, upstream: bool) -> bool {
        !self.ba.has_in_flight()
            && (upstream || !self.staged.is_empty() || !self.retries.is_empty())
    }

    /// Stage a packet under a sequence number the caller assigns (a WGTT
    /// AP uses the packet's cyclic index).
    pub fn stage(&mut self, seq: u16, packet: PacketRef) {
        self.staged.push_back(Mpdu {
            seq,
            packet,
            retries: 0,
        });
    }

    /// Stage a packet under this originator's own next sequence number.
    pub fn stage_next(&mut self, packet: PacketRef) {
        let seq = self.next_seq;
        self.next_seq = seq_next(seq);
        self.stage(seq, packet);
    }

    /// Aggregate retries then staged MPDUs at the rate controller's pick
    /// and mark the window in flight. `None` while a window is in flight
    /// or when nothing is queued.
    pub fn build(&mut self) -> Option<(Vec<Mpdu>, Mcs)> {
        if self.ba.has_in_flight() {
            return None;
        }
        let mcs = self.rate.select();
        let mpdus = build_ampdu(
            &mut self.retries,
            &mut self.staged,
            &AggregationPolicy::default(),
            mcs,
        );
        if mpdus.is_empty() {
            return None;
        }
        self.in_flight_meta = Some((mcs, mpdus.len()));
        self.ba.on_ampdu_sent(mpdus.clone());
        Some((mpdus, mcs))
    }

    /// Apply a Block ACK — from our own radio or forwarded by a
    /// neighbour. With nothing in flight it is still recorded for
    /// duplicate detection. A stale Block ACK (one that covers no
    /// in-flight MPDU) or a copy of the last one applied changes nothing.
    /// Failed MPDUs retry if `retry_failed`, else they are dropped.
    pub fn on_block_ack(&mut self, start_seq: u16, bitmap: u64, retry_failed: bool) -> BaFeedback {
        if self.ba.has_in_flight() && !self.ba.covers_in_flight(start_seq) {
            return BaFeedback {
                duplicate: true,
                ..BaFeedback::default()
            };
        }
        let result = self.ba.on_block_ack(start_seq, bitmap);
        if result.duplicate {
            return BaFeedback {
                duplicate: true,
                ..BaFeedback::default()
            };
        }
        self.settle(result, retry_failed)
    }

    /// No Block ACK arrived for the in-flight window: every MPDU failed.
    /// A no-op with nothing in flight.
    pub fn on_ba_timeout(&mut self, retry_failed: bool) -> BaFeedback {
        if !self.ba.has_in_flight() {
            return BaFeedback::default();
        }
        let result = self.ba.on_ba_timeout();
        self.settle(result, retry_failed)
    }

    /// Abandon the in-flight window and the retry list; staged MPDUs stay.
    pub fn reset(&mut self) {
        self.retries.clear();
        self.ba.clear();
        self.in_flight_meta = None;
    }

    /// [`Self::reset`] and drop every staged MPDU too.
    pub fn flush(&mut self) {
        self.staged.clear();
        self.reset();
    }

    fn settle(&mut self, result: BaResult, retry_failed: bool) -> BaFeedback {
        if let Some((mcs, attempted)) = self.in_flight_meta.take() {
            self.rate.on_feedback(mcs, attempted, result.acked.len());
        }
        let mut dropped = result.dropped;
        if retry_failed {
            self.retries.extend(result.to_retry);
        } else {
            dropped.extend(result.to_retry.iter().map(|m| m.packet));
        }
        BaFeedback {
            delivered: result.acked,
            dropped,
            duplicate: false,
        }
    }
}

/// Round-robin pick over a transmitter's ready peers, so multi-peer
/// airtime shares fairly.
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// The next peer from `ready`, which the caller keeps in a stable
    /// (sorted) order.
    pub fn pick(&mut self, ready: &[NodeId]) -> Option<NodeId> {
        if ready.is_empty() {
            return None;
        }
        let pick = ready[self.cursor % ready.len()];
        self.cursor = self.cursor.wrapping_add(1);
        Some(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockack::DEFAULT_RETRY_LIMIT;
    use crate::mcs::ALL_MCS;
    use wgtt_sim::rng::RngStream;

    fn originator() -> AmpduOriginator {
        AmpduOriginator::new(RateController::new(RngStream::root(5).rng()))
    }

    fn pkt(id: u64) -> PacketRef {
        PacketRef { id, len: 1000 }
    }

    /// An originator with `n` MPDUs staged from sequence number `seq0`.
    fn staged(seq0: u16, n: u16) -> AmpduOriginator {
        let mut o = originator();
        for i in 0..n {
            o.stage(seq0 + i, pkt(u64::from(i)));
        }
        o
    }

    fn probs(rate: &RateController) -> [f64; 8] {
        ALL_MCS.map(|m| rate.probability(m))
    }

    fn ids(refs: &[PacketRef]) -> Vec<u64> {
        refs.iter().map(|p| p.id).collect()
    }

    #[test]
    fn stale_window_block_ack_leaves_state_untouched() {
        let mut o = staged(100, 4);
        let (mpdus, mcs) = o.build().unwrap();
        let before = probs(&o.rate);
        // A forwarded copy of an old window, 100 sequence numbers back.
        let fb = o.on_block_ack(0, u64::MAX, true);
        assert!(fb.duplicate);
        assert!(fb.delivered.is_empty() && fb.dropped.is_empty());
        assert_eq!(o.ba.in_flight(), &mpdus[..]);
        assert_eq!(o.in_flight_meta, Some((mcs, 4)));
        assert_eq!(o.queued(), 0);
        assert_eq!(probs(&o.rate), before);
        // The stale copy was not recorded: the live Block ACK applies.
        let fb = o.on_block_ack(100, 0b1111, true);
        assert!(!fb.duplicate);
        assert_eq!(ids(&fb.delivered), vec![0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_block_ack_is_a_no_op_and_the_window_stays_in_flight() {
        let mut o = staged(0, 8);
        o.build().unwrap();
        // Window 1 = seqs 0..8, all acked; stage and send window 2.
        assert_eq!(ids(&o.on_block_ack(0, 0xFF, true).delivered).len(), 8);
        for i in 8..12 {
            o.stage(i, pkt(u64::from(i)));
        }
        let (second, mcs) = o.build().unwrap();
        let before = probs(&o.rate);
        // The recipient's window did not move: the same Block ACK again.
        let fb = o.on_block_ack(0, 0xFF, true);
        assert!(fb.duplicate);
        assert!(fb.delivered.is_empty() && fb.dropped.is_empty());
        assert!(o.has_in_flight());
        assert_eq!(o.ba.in_flight(), &second[..]);
        assert_eq!(o.in_flight_meta, Some((mcs, second.len())));
        assert_eq!(probs(&o.rate), before);
    }

    #[test]
    fn exactly_one_rate_feedback_per_window() {
        // On the Block ACK: half the window delivered.
        let mut o = staged(0, 4);
        let mut expect = o.rate.clone();
        let (_, mcs) = o.build().unwrap();
        expect.select();
        o.on_block_ack(0, 0b0101, true);
        expect.on_feedback(mcs, 4, 2);
        assert_eq!(probs(&o.rate), probs(&expect));
        // Later copies and a late timeout for the same window feed nothing.
        o.on_block_ack(0, 0b0101, true);
        o.on_block_ack(0, 0b0111, true);
        o.on_ba_timeout(true);
        assert_eq!(probs(&o.rate), probs(&expect));

        // On the timeout: the retried pair, nothing delivered.
        let (again, mcs) = o.build().unwrap();
        expect.select();
        assert_eq!(again.len(), 2);
        o.on_ba_timeout(true);
        expect.on_feedback(mcs, 2, 0);
        assert_eq!(probs(&o.rate), probs(&expect));
        o.on_ba_timeout(true);
        o.on_block_ack(1, 0b1, true);
        assert_eq!(probs(&o.rate), probs(&expect));
    }

    #[test]
    fn timeout_retries_until_the_retry_limit_then_drops() {
        let mut o = staged(0, 2);
        for attempt in 0..=DEFAULT_RETRY_LIMIT {
            let (mpdus, _) = o.build().expect("window retries");
            assert!(mpdus.iter().all(|m| m.retries == attempt));
            let fb = o.on_ba_timeout(true);
            assert!(fb.delivered.is_empty() && !fb.duplicate);
            if attempt < DEFAULT_RETRY_LIMIT {
                assert!(fb.dropped.is_empty());
                assert_eq!(o.queued(), 2);
            } else {
                assert_eq!(ids(&fb.dropped), vec![0, 1]);
                assert_eq!(o.queued(), 0);
            }
        }
        assert!(o.build().is_none());
        // Without retries, a failed MPDU is dropped at once.
        let mut o = staged(0, 3);
        o.build().unwrap();
        let fb = o.on_block_ack(0, 0b010, false);
        assert_eq!(ids(&fb.delivered), vec![1]);
        assert_eq!(ids(&fb.dropped), vec![0, 2]);
        assert_eq!(o.queued(), 0);
    }

    #[test]
    fn reset_clears_window_and_rate_meta_together() {
        let mut o = staged(0, 6);
        o.build().unwrap();
        o.stage(40, pkt(40));
        o.reset();
        assert!(!o.has_in_flight());
        assert_eq!(o.in_flight_meta, None);
        assert_eq!(o.staged_len(), 1, "reset keeps staged MPDUs");
        let fb = o.on_ba_timeout(true);
        assert!(fb.delivered.is_empty() && fb.dropped.is_empty());
        let (mpdus, mcs) = o.build().expect("a fresh window may go out");
        assert_eq!(mpdus[0].seq, 40);
        assert_eq!(o.in_flight_meta, Some((mcs, 1)));
        o.stage(41, pkt(41));
        o.flush();
        assert!(!o.has_in_flight() && o.in_flight_meta.is_none());
        assert_eq!(o.queued(), 0);
    }

    #[test]
    fn round_robin_cycles_through_ready_peers() {
        let mut rr = RoundRobin::default();
        let ready = [NodeId(1), NodeId(2), NodeId(3)];
        let picks: Vec<NodeId> = (0..4).map(|_| rr.pick(&ready).unwrap()).collect();
        assert_eq!(picks, vec![NodeId(1), NodeId(2), NodeId(3), NodeId(1)]);
        assert_eq!(rr.pick(&[]), None);
    }
}
