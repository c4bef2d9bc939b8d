//! Transaction-shaped traffic: a seeded stream of reads, writes,
//! atomics and broadcasts for the `noc-txn` layer.
//!
//! The generator is a pure function of a [`SimRng`] stream and the
//! device list, so the same seed replays the same transaction sequence
//! on every engine — the property the lockstep differential tests and
//! the CI transaction-fuzz sweep are built on. Burst sizes come from
//! [`sample_burst_bytes`], log-uniform from one data flit up to a full
//! packet, so short control transfers and maximum-length DMA packets
//! both appear.

use noc_core::NodeId;
use noc_sim::fuzz::{sample_burst_bytes, TrafficPattern};
use noc_sim::SimRng;
use noc_txn::{AtomicKind, TxnOp};
use serde::{Deserialize, Serialize};

/// The request type lives with its driver (`noc_txn::drive`).
pub use noc_txn::TxnRequest;

/// Mix of a transaction workload. Fractions are cumulative-sampled in
/// field order; whatever probability mass remains after `read_frac`,
/// `write_frac`, `atomic_frac` and `bcast_frac` falls back to reads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TxnMix {
    /// Fraction of non-posted reads.
    pub read_frac: f64,
    /// Fraction of writes (split by `posted_frac`).
    pub write_frac: f64,
    /// Fraction of remote atomics.
    pub atomic_frac: f64,
    /// Fraction of broadcasts to a sampled station subset.
    pub bcast_frac: f64,
    /// Among writes, the posted share.
    pub posted_frac: f64,
}

impl Default for TxnMix {
    /// A DMA-flavoured default: mostly bulk reads/writes, a sprinkle
    /// of atomics and collectives.
    fn default() -> Self {
        TxnMix {
            read_frac: 0.40,
            write_frac: 0.40,
            atomic_frac: 0.12,
            bcast_frac: 0.08,
            posted_frac: 0.5,
        }
    }
}

/// Seeded generator of [`TxnRequest`]s over a fixed device list.
#[derive(Debug, Clone)]
pub struct TxnWorkload {
    devices: Vec<NodeId>,
    mix: TxnMix,
    pattern: TrafficPattern,
    flit_bytes: u32,
    max_data_flits: u32,
}

impl TxnWorkload {
    /// A workload over `devices` (must hold at least two endpoints).
    /// `flit_bytes`/`max_data_flits` bound sampled burst sizes and
    /// should match the fabric's (`noc_txn::FLIT_BYTES` and
    /// `TxnConfig::max_data_flits`).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two devices are given.
    pub fn new(
        devices: Vec<NodeId>,
        mix: TxnMix,
        pattern: TrafficPattern,
        flit_bytes: u32,
        max_data_flits: u32,
    ) -> Self {
        assert!(devices.len() >= 2, "transactions need two endpoints");
        TxnWorkload {
            devices,
            mix,
            pattern,
            flit_bytes,
            max_data_flits,
        }
    }

    /// The device list.
    pub fn devices(&self) -> &[NodeId] {
        &self.devices
    }

    /// Draw the next request from `rng`.
    pub fn next(&self, rng: &mut SimRng) -> TxnRequest {
        let n = self.devices.len();
        let src_i = rng.gen_index(n);
        let src = self.devices[src_i];
        let roll = rng.gen_f64();
        let m = &self.mix;
        if roll < m.read_frac + m.write_frac + m.atomic_frac {
            let dst = self.devices[self.pattern.pick_dest(rng, n, src_i)];
            let op = if roll < m.read_frac {
                TxnOp::Read {
                    bytes: sample_burst_bytes(rng, self.flit_bytes, self.max_data_flits),
                }
            } else if roll < m.read_frac + m.write_frac {
                TxnOp::Write {
                    bytes: sample_burst_bytes(rng, self.flit_bytes, self.max_data_flits),
                    posted: rng.gen_bool(m.posted_frac),
                }
            } else {
                TxnOp::Atomic(match rng.gen_index(4) {
                    0 => AtomicKind::Accumulate(rng.gen_range(1..1000)),
                    1 => AtomicKind::Swap(rng.gen_range(0..1000)),
                    2 => AtomicKind::Increment,
                    _ => AtomicKind::CompareSwap {
                        expected: 0,
                        desired: rng.gen_range(1..1000),
                    },
                })
            };
            TxnRequest::Point { src, dst, op }
        } else if roll < m.read_frac + m.write_frac + m.atomic_frac + m.bcast_frac {
            // Broadcast to a sampled subset (everyone with p=0.5,
            // minimum one target), payload bounded to one packet.
            let mut targets: Vec<NodeId> = self
                .devices
                .iter()
                .copied()
                .filter(|&d| d != src && rng.gen_bool(0.5))
                .collect();
            if targets.is_empty() {
                targets.push(self.devices[self.pattern.pick_dest(rng, n, src_i)]);
            }
            let bytes = sample_burst_bytes(rng, self.flit_bytes, self.max_data_flits);
            TxnRequest::Broadcast {
                src,
                targets,
                bytes,
            }
        } else {
            let dst = self.devices[self.pattern.pick_dest(rng, n, src_i)];
            TxnRequest::Point {
                src,
                dst,
                op: TxnOp::Read {
                    bytes: sample_burst_bytes(rng, self.flit_bytes, self.max_data_flits),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devs(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        let w = TxnWorkload::new(devs(8), TxnMix::default(), TrafficPattern::Uniform, 64, 256);
        let a: Vec<TxnRequest> = {
            let mut rng = SimRng::seed_from(42);
            (0..200).map(|_| w.next(&mut rng)).collect()
        };
        let b: Vec<TxnRequest> = {
            let mut rng = SimRng::seed_from(42);
            (0..200).map(|_| w.next(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn mix_produces_every_kind() {
        let w = TxnWorkload::new(devs(8), TxnMix::default(), TrafficPattern::Uniform, 64, 256);
        let mut rng = SimRng::seed_from(7);
        let (mut reads, mut writes, mut atomics, mut bcasts) = (0, 0, 0, 0);
        for _ in 0..2000 {
            match w.next(&mut rng) {
                TxnRequest::Point {
                    op: TxnOp::Read { .. },
                    ..
                } => reads += 1,
                TxnRequest::Point {
                    op: TxnOp::Write { .. },
                    ..
                } => writes += 1,
                TxnRequest::Point {
                    op: TxnOp::Atomic(_),
                    ..
                } => atomics += 1,
                TxnRequest::Broadcast { .. } => bcasts += 1,
            }
        }
        assert!(reads > 0 && writes > 0 && atomics > 0 && bcasts > 0);
    }

    #[test]
    fn requests_are_well_formed() {
        let d = devs(6);
        let w = TxnWorkload::new(
            d.clone(),
            TxnMix::default(),
            TrafficPattern::Uniform,
            64,
            256,
        );
        let mut rng = SimRng::seed_from(9);
        for _ in 0..1000 {
            match w.next(&mut rng) {
                TxnRequest::Point { src, dst, op } => {
                    assert_ne!(src, dst);
                    assert!(d.contains(&src) && d.contains(&dst));
                    if let TxnOp::Write { bytes, .. } | TxnOp::Read { bytes } = op {
                        assert!((1..=64 * 256).contains(&bytes));
                    }
                }
                TxnRequest::Broadcast {
                    src,
                    targets,
                    bytes,
                } => {
                    assert!(!targets.is_empty());
                    assert!(!targets.contains(&src));
                    assert!((1..=64 * 256).contains(&bytes));
                }
            }
        }
    }
}
