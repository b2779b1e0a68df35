//! # wgtt-mac — 802.11n link-layer substrate
//!
//! WGTT's second headline contribution is integrating rapid AP switching
//! with *frame aggregation and block acknowledgements* — the 802.11n
//! machinery that keeps per-frame overhead amortized at modern bit rates
//! (paper §1, §3.2). Reproducing that requires an actual MAC model, which
//! this crate provides:
//!
//! * [`mcs`] — the MCS 0–7 rate table (20 MHz, one spatial stream, as the
//!   splitter-fed testbed AP radiates), with an ESNR→PER error model;
//! * [`airtime`] — µs-accurate frame/TXOP durations (preambles, SIFS,
//!   DIFS, backoff slots, Block ACK responses);
//! * [`aggregation`] — A-MPDU assembly under count/byte limits;
//! * [`blockack`] — originator & recipient Block ACK scoreboards over the
//!   12-bit, mod-4096 sequence space;
//! * [`originator`] — the per-peer A-MPDU send loop every transmitter
//!   runs (stage, aggregate, settle on Block ACK or timeout, feed the
//!   rate controller), plus the round-robin pick over ready peers;
//! * [`rate`] — Minstrel-style rate adaptation (the paper keeps each AP's
//!   default rate control; so do we);
//! * [`medium`] — a slotted CSMA/CA single-channel medium with collision
//!   detection and capture, shared by all APs and clients (the testbed
//!   runs every AP on channel 11);
//! * [`queues`] — the per-AP queue stack of paper Fig. 7 (mac80211
//!   software queue and NIC hardware queue; the WGTT-specific *cyclic*
//!   queue lives in the `wgtt` core crate).
//!
//! Everything is an explicit state machine driven by the caller's event
//! loop; nothing here schedules events itself.

pub mod aggregation;
pub mod airtime;
pub mod blockack;
pub mod frame;
pub mod mcs;
pub mod medium;
pub mod originator;
pub mod queues;
pub mod rate;
pub mod seq;

pub use frame::{Frame, FrameKind, NodeId, PacketRef};
pub use mcs::Mcs;
pub use medium::{Medium, TxOutcome};
