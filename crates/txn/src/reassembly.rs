//! Per-endpoint reassembly of packets whose flits arrive in arbitrary
//! order.
//!
//! The deflection fabric gives no ordering guarantee: flits of one
//! packet may deflect, overtake each other, or interleave with flits of
//! any other packet bound for the same endpoint. Reassembly therefore
//! keeps one `PartialPacket` per in-flight packet id, tracks received
//! data sequences in a bitmask, and completes a packet only once the
//! header *and* every data flit announced by the descriptor have
//! arrived. Duplicate sequences are rejected and counted by the fabric.

use noc_core::PacketToken;
use noc_sim::IdMap;

/// Outcome of feeding one flit to the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// The flit completed its packet; the packet's state was removed.
    Complete,
    /// The flit was absorbed; the packet is still missing pieces.
    Partial,
    /// The flit's sequence was already received (dropped).
    Duplicate,
}

/// Assembly state of one packet.
#[derive(Debug, Clone)]
struct PartialPacket {
    /// Data flits expected; known from the packet descriptor when the
    /// first flit arrives.
    expect_data: u32,
    have_header: bool,
    received_data: u32,
    /// Bitmask of received data sequences (seq 1 → bit 0). 256 data
    /// flits fit in four words.
    seen: [u64; 4],
}

impl PartialPacket {
    fn new(expect_data: u32) -> Self {
        PartialPacket {
            expect_data,
            have_header: false,
            received_data: 0,
            seen: [0; 4],
        }
    }

    fn complete(&self) -> bool {
        self.have_header && self.received_data == self.expect_data
    }
}

/// Reassembly buffer of one endpoint.
#[derive(Debug, Clone, Default)]
pub struct ReassemblyBuffer {
    /// Open packets by id. Keyed lookups only (`open_packet_ids` sorts).
    parts: IdMap<u64, PartialPacket>,
    /// Flits ever absorbed (headers + data, duplicates excluded;
    /// monotonic) — the wait-graph detector's progress counter for
    /// this buffer: open packets with no absorption across consecutive
    /// samples mean every missing flit is stuck upstream.
    accepted: u64,
}

impl ReassemblyBuffer {
    /// Fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets currently mid-assembly at this endpoint.
    pub fn open_packets(&self) -> usize {
        self.parts.len()
    }

    /// Flits ever absorbed since construction (monotonic).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Ids of packets currently mid-assembly, ascending (sorted, so the
    /// id map's iteration order never shows).
    pub fn open_packet_ids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.parts.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Feed one flit. `expect_data` is the packet's data-flit count
    /// from its descriptor (the fabric is omniscient; a hardware
    /// implementation would read it off the header flit and buffer
    /// early data flits optimistically, which this models).
    ///
    /// # Panics
    ///
    /// Panics if a data sequence exceeds the 256-flit packet bound the
    /// token encoding is sized for.
    pub fn accept(&mut self, tok: PacketToken, expect_data: u32) -> Accept {
        let part = self
            .parts
            .entry(tok.packet)
            .or_insert_with(|| PartialPacket::new(expect_data));
        debug_assert_eq!(
            part.expect_data, expect_data,
            "descriptor changed mid-flight"
        );
        if tok.is_header() {
            if part.have_header {
                return Accept::Duplicate;
            }
            part.have_header = true;
        } else {
            let bit = u32::from(tok.seq) - 1;
            assert!(bit < 256, "data seq {} beyond packet bound", tok.seq);
            let (word, mask) = ((bit / 64) as usize, 1u64 << (bit % 64));
            if part.seen[word] & mask != 0 {
                return Accept::Duplicate;
            }
            part.seen[word] |= mask;
            part.received_data += 1;
        }
        let done = part.complete();
        if done {
            self.parts.remove(&tok.packet);
        }
        self.accepted += 1;
        if done {
            Accept::Complete
        } else {
            Accept::Partial
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(packet: u64, seq: u16) -> PacketToken {
        PacketToken { packet, seq }
    }

    #[test]
    fn header_only_packet_completes_immediately() {
        let mut b = ReassemblyBuffer::new();
        assert_eq!(b.accept(tok(5, 0), 0), Accept::Complete);
        assert_eq!(b.open_packets(), 0);
    }

    #[test]
    fn out_of_order_data_before_header() {
        let mut b = ReassemblyBuffer::new();
        assert_eq!(b.accept(tok(1, 2), 2), Accept::Partial);
        assert_eq!(b.accept(tok(1, 1), 2), Accept::Partial);
        assert_eq!(b.accept(tok(1, 0), 2), Accept::Complete);
        assert_eq!(b.open_packets(), 0);
    }

    #[test]
    fn interleaved_packets_from_multiple_sources() {
        let mut b = ReassemblyBuffer::new();
        // Three packets' flits arrive fully interleaved.
        assert_eq!(b.accept(tok(10, 0), 2), Accept::Partial);
        assert_eq!(b.accept(tok(11, 1), 1), Accept::Partial);
        assert_eq!(b.accept(tok(12, 0), 0), Accept::Complete);
        assert_eq!(b.accept(tok(10, 2), 2), Accept::Partial);
        assert_eq!(b.accept(tok(11, 0), 1), Accept::Complete);
        assert_eq!(b.open_packets(), 1);
        assert_eq!(b.accept(tok(10, 1), 2), Accept::Complete);
        assert_eq!(b.open_packets(), 0);
    }

    #[test]
    fn duplicates_are_rejected_not_double_counted() {
        let mut b = ReassemblyBuffer::new();
        assert_eq!(b.accept(tok(3, 1), 2), Accept::Partial);
        assert_eq!(b.accept(tok(3, 1), 2), Accept::Duplicate);
        assert_eq!(b.accept(tok(3, 0), 2), Accept::Partial);
        assert_eq!(b.accept(tok(3, 0), 2), Accept::Duplicate);
        // Still needs the real second data flit.
        assert_eq!(b.accept(tok(3, 2), 2), Accept::Complete);
    }

    #[test]
    fn full_size_packet_reassembles() {
        let mut b = ReassemblyBuffer::new();
        // 256 data flits, header arriving in the middle, evens then odds.
        for seq in (2..=256u16).step_by(2) {
            assert_eq!(b.accept(tok(9, seq), 256), Accept::Partial);
        }
        assert_eq!(b.accept(tok(9, 0), 256), Accept::Partial);
        for seq in (1..=253u16).step_by(2) {
            assert_eq!(b.accept(tok(9, seq), 256), Accept::Partial);
        }
        assert_eq!(b.accept(tok(9, 255), 256), Accept::Complete);
    }
}
