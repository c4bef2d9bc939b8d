//! Packetization: carving a transaction's byte stream into packets of
//! header + data flits, and the per-packet descriptor and assembly
//! bitmap the fabric keeps while a packet is in flight.
//!
//! The layout follows the Tenstorrent Blackhole NoC exemplar: every
//! packet is one header flit (sequence 0) followed by up to
//! [`TxnConfig::max_data_flits`] data flits, each carrying up to
//! [`TxnConfig::flit_bytes`] of payload. A transfer larger than one
//! packet's capacity is split into several packets, all belonging to
//! the same transaction.

use crate::types::TxnConfig;
use noc_core::{FlitClass, NodeId, PacketToken};
use serde::{Deserialize, Serialize};

/// Header flit size in bytes, charged to bandwidth accounting.
const HEADER_BYTES: u32 = 16;

/// Number of data flits needed for `bytes` of payload (0 for an empty
/// payload — control packets are header-only).
pub fn data_flits(bytes: u32, flit_bytes: u32) -> u32 {
    assert!(flit_bytes > 0, "flit_bytes must be positive");
    bytes.div_ceil(flit_bytes)
}

/// Split a transfer into per-packet byte counts. Always yields at
/// least one packet, so zero-byte transfers still produce a header
/// flit (a pure control packet).
pub fn split_packets(bytes: u32, cfg: &TxnConfig) -> impl ExactSizeIterator<Item = u32> {
    let cap = cfg.packet_capacity();
    (0..bytes.div_ceil(cap).max(1)).map(move |i| (bytes - i * cap).min(cap))
}

/// What a packet is doing for its transaction. The direction check in
/// the fabric (`arrived at txn.dst` vs `arrived at txn.src`)
/// distinguishes request data from response data, so one `Data` kind
/// serves both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketKind {
    /// Header-only read request; `resp_bytes` is returned by the
    /// destination as `Data` packets.
    ReadReq {
        /// Bytes the destination must send back.
        resp_bytes: u32,
    },
    /// Bulk payload: write request data (towards `txn.dst`) or read
    /// response data (towards `txn.src`).
    Data,
    /// Header-only write acknowledgement (non-posted writes).
    Ack,
    /// Header-only atomic request.
    AtomicReq,
    /// Header-only atomic response; the fetch result rides in the
    /// transaction state.
    AtomicResp,
    /// One hop of a broadcast fan-out tree.
    Bcast,
    /// A one-way datagram carrying an opaque user token (the CHI
    /// transport rides on these).
    Msg {
        /// Token handed back by `recv` on delivery.
        token: u64,
    },
}

/// The fabric's in-flight record of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketDesc {
    /// Owning transaction.
    pub txn: u64,
    /// Role of the packet.
    pub kind: PacketKind,
    /// Injecting endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// Flit class every flit of the packet travels in.
    pub class: FlitClass,
    /// Payload bytes (excluding the header flit).
    pub bytes: u32,
    /// Number of data flits (`data_flits(bytes, flit_bytes)`).
    pub n_data: u32,
}

/// One flit of a packet, staged for injection: everything
/// `Network::enqueue` needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedFlit {
    /// Destination endpoint.
    pub dst: NodeId,
    /// Flit class.
    pub class: FlitClass,
    /// Payload bytes charged to this flit.
    pub bytes: u32,
    /// Encoded [`PacketToken`].
    pub token: u64,
}

impl PacketDesc {
    /// Every flit of this packet (header first, then data in sequence
    /// order), staged for injection at its source.
    pub fn flits(&self, packet_id: u64, cfg: &TxnConfig) -> impl Iterator<Item = StagedFlit> {
        assert!(
            self.n_data <= u32::from(cfg.max_data_flits),
            "packet of {} data flits exceeds the {}-flit cap",
            self.n_data,
            cfg.max_data_flits
        );
        let (dst, class, bytes) = (self.dst, self.class, self.bytes);
        let flit_bytes = cfg.flit_bytes;
        (0..=self.n_data as u16).map(move |seq| StagedFlit {
            dst,
            class,
            bytes: match seq {
                0 => HEADER_BYTES,
                _ => bytes
                    .saturating_sub(u32::from(seq - 1) * flit_bytes)
                    .min(flit_bytes),
            },
            token: PacketToken {
                packet: packet_id,
                seq,
            }
            .encode(),
        })
    }
}

/// Outcome of feeding one flit to a packet's [`Assembly`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Accept {
    /// The flit completed its packet.
    Complete,
    /// The flit was absorbed; the packet is still missing pieces.
    Partial,
    /// The flit's sequence was already received (dropped).
    Duplicate,
}

/// Which flits of one packet have reached its destination. The
/// deflection fabric gives no ordering guarantee: flits of one packet
/// may deflect, overtake each other, or interleave with any other
/// packet's, so a packet completes only once its header *and* every
/// data flit its descriptor announces are in. The data-flit count comes
/// from the descriptor (a hardware NIU would read it off the header and
/// buffer early data flits optimistically, which this models).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Assembly {
    have_header: bool,
    received: u32,
    /// Received data sequences (seq 1 → bit 0); 256 data flits fit in
    /// four words.
    seen: [u64; 4],
}

impl Assembly {
    /// Whether any flit has arrived: the packet holds a place in its
    /// destination's reassembly buffer.
    pub(crate) fn is_open(&self) -> bool {
        self.have_header || self.received > 0
    }

    /// Feed one flit of a packet of `n_data` data flits.
    ///
    /// # Panics
    ///
    /// Panics if a data sequence exceeds the 256-flit packet bound the
    /// bitmap is sized for.
    pub(crate) fn accept(&mut self, tok: PacketToken, n_data: u32) -> Accept {
        if tok.is_header() {
            if self.have_header {
                return Accept::Duplicate;
            }
            self.have_header = true;
        } else {
            let bit = u32::from(tok.seq) - 1;
            assert!(bit < 256, "data seq {} beyond packet bound", tok.seq);
            let (word, mask) = ((bit / 64) as usize, 1u64 << (bit % 64));
            if self.seen[word] & mask != 0 {
                return Accept::Duplicate;
            }
            self.seen[word] |= mask;
            self.received += 1;
        }
        if self.have_header && self.received == n_data {
            Accept::Complete
        } else {
            Accept::Partial
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TxnConfig {
        TxnConfig::default()
    }

    #[test]
    fn data_flit_counts() {
        assert_eq!(data_flits(0, 64), 0);
        assert_eq!(data_flits(1, 64), 1);
        assert_eq!(data_flits(64, 64), 1);
        assert_eq!(data_flits(65, 64), 2);
        assert_eq!(data_flits(16 * 1024, 64), 256);
    }

    #[test]
    fn split_respects_packet_capacity() {
        let c = cfg();
        let split = |bytes| split_packets(bytes, &c).collect::<Vec<_>>();
        assert_eq!(split(0), vec![0]);
        assert_eq!(split(100), vec![100]);
        assert_eq!(split(16 * 1024), vec![16 * 1024]);
        assert_eq!(split(16 * 1024 + 1), vec![16 * 1024, 1]);
        let big = split(3 * 16 * 1024 + 7);
        assert_eq!(big, vec![16 * 1024, 16 * 1024, 16 * 1024, 7]);
        assert_eq!(big.iter().sum::<u32>(), 3 * 16 * 1024 + 7);
    }

    #[test]
    fn staged_flits_cover_header_and_tail() {
        let c = cfg();
        let desc = PacketDesc {
            txn: 7,
            kind: PacketKind::Data,
            src: NodeId(0),
            dst: NodeId(3),
            class: FlitClass::Data,
            bytes: 130,
            n_data: data_flits(130, c.flit_bytes),
        };
        let flits: Vec<_> = desc.flits(42, &c).collect();
        assert_eq!(flits.len(), 4); // header + 3 data (64+64+2)
        let head = PacketToken::decode(flits[0].token);
        assert!(head.is_header());
        assert_eq!(head.packet, 42);
        assert_eq!(flits[0].bytes, HEADER_BYTES);
        assert_eq!(flits[3].bytes, 2);
        let total: u32 = flits[1..].iter().map(|f| f.bytes).sum();
        assert_eq!(total, 130);
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(PacketToken::decode(f.token).seq as usize, i);
            assert_eq!(f.dst, NodeId(3));
        }
    }

    #[test]
    fn control_packet_is_header_only() {
        let c = cfg();
        let desc = PacketDesc {
            txn: 1,
            kind: PacketKind::Ack,
            src: NodeId(2),
            dst: NodeId(5),
            class: FlitClass::Response,
            bytes: 0,
            n_data: 0,
        };
        let flits: Vec<_> = desc.flits(9, &c).collect();
        assert_eq!(flits.len(), 1);
        assert!(PacketToken::decode(flits[0].token).is_header());
    }

    fn tok(seq: u16) -> PacketToken {
        PacketToken { packet: 0, seq }
    }

    #[test]
    fn header_only_packet_completes_immediately() {
        let mut a = Assembly::default();
        assert!(!a.is_open());
        assert_eq!(a.accept(tok(0), 0), Accept::Complete);
    }

    #[test]
    fn out_of_order_data_before_header() {
        let mut a = Assembly::default();
        assert_eq!(a.accept(tok(2), 2), Accept::Partial);
        assert!(a.is_open());
        assert_eq!(a.accept(tok(1), 2), Accept::Partial);
        assert_eq!(a.accept(tok(0), 2), Accept::Complete);
    }

    #[test]
    fn interleaved_packets_from_multiple_sources() {
        // Three packets' flits arrive fully interleaved; each packet's
        // assembly sees only its own.
        let (mut p10, mut p11, mut p12) = Default::default();
        let step = |a: &mut Assembly, seq, n| a.accept(tok(seq), n);
        assert_eq!(step(&mut p10, 0, 2), Accept::Partial);
        assert_eq!(step(&mut p11, 1, 1), Accept::Partial);
        assert_eq!(step(&mut p12, 0, 0), Accept::Complete);
        assert_eq!(step(&mut p10, 2, 2), Accept::Partial);
        assert_eq!(step(&mut p11, 0, 1), Accept::Complete);
        assert_eq!(step(&mut p10, 1, 2), Accept::Complete);
    }

    #[test]
    fn duplicates_are_rejected_not_double_counted() {
        let mut a = Assembly::default();
        assert_eq!(a.accept(tok(1), 2), Accept::Partial);
        assert_eq!(a.accept(tok(1), 2), Accept::Duplicate);
        assert_eq!(a.accept(tok(0), 2), Accept::Partial);
        assert_eq!(a.accept(tok(0), 2), Accept::Duplicate);
        // Still needs the real second data flit.
        assert_eq!(a.accept(tok(2), 2), Accept::Complete);
    }

    #[test]
    fn full_size_packet_reassembles() {
        let mut a = Assembly::default();
        // 256 data flits, header arriving in the middle, evens then odds.
        for seq in (2..=256u16).step_by(2) {
            assert_eq!(a.accept(tok(seq), 256), Accept::Partial);
        }
        assert_eq!(a.accept(tok(0), 256), Accept::Partial);
        for seq in (1..=253u16).step_by(2) {
            assert_eq!(a.accept(tok(seq), 256), Accept::Partial);
        }
        assert_eq!(a.accept(tok(255), 256), Accept::Complete);
    }
}
