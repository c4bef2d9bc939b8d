//! Where a flit lives: one slab of flit bodies per network.
//!
//! A flit's body ([`Flit`], 104 bytes) is written once, into a slot of
//! the network's [`FlitSlab`], when `Network::enqueue` accepts it, and
//! is copied out once, by `Network::pop_delivered`, which frees the
//! slot. In between, every place the flit waits — a lane slot, an
//! Inject or Eject Queue, a bridge escape's pipeline or reserved
//! buffers — holds an 8-byte [`FlitRef`]: the slot plus the flit's
//! destination, which is all that routing reads (the head-intent cache,
//! an arrival's eject target, the calendar's debug check). Moving a
//! flit from one container to the next moves the handle; the cycle's
//! per-event writes (hops, I-tag wait, injection cycle, ring changes,
//! the E-tag and deflection fields) update the one body in place.
//!
//! Freed slots are reused last in, first out, so the slab never holds
//! more slots than the most flits ever resident at once: it is bounded
//! by load, not by run length. Debug builds check at the end of every
//! cycle that each live slot is held by exactly one container and no
//! container holds a free one ([`FlitSlab::debug_check_owners`]).

use crate::flit::Flit;
use crate::ids::NodeId;
use std::ops::{Index, IndexMut};

/// A flit waiting somewhere in the network: its slab slot and its
/// destination (the body's `dst`, copied so routing stays off the
/// slab).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlitRef {
    /// Index of the body in the slab.
    pub slot: u32,
    /// The flit's destination.
    pub dst: NodeId,
}

/// Every resident flit's body, plus the free slots. See the module
/// docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlitSlab {
    /// Bodies by slot; a free slot's body is stale and never read.
    bodies: Vec<Flit>,
    /// Free slots, most recently freed last.
    free: Vec<u32>,
}

impl FlitSlab {
    /// Store `flit` and return the handle that now stands for it.
    #[inline]
    pub fn alloc(&mut self, flit: Flit) -> FlitRef {
        let dst = flit.dst;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.bodies[slot as usize] = flit;
                slot
            }
            None => {
                let slot = u32::try_from(self.bodies.len()).expect("under 2^32 resident flits");
                self.bodies.push(flit);
                slot
            }
        };
        FlitRef { slot, dst }
    }

    /// Free `r`'s slot and return its body.
    #[inline]
    pub fn free(&mut self, r: FlitRef) -> Flit {
        self.free.push(r.slot);
        self.bodies[r.slot as usize].clone()
    }

    /// Slots holding a resident flit.
    pub fn live(&self) -> usize {
        self.bodies.len() - self.free.len()
    }

    /// Slots ever allocated, live or free: the most flits resident at
    /// once so far.
    pub fn slots(&self) -> usize {
        self.bodies.len()
    }

    /// Debug builds: `held` — every handle the containers hold, walked
    /// from the containers themselves — names each live slot exactly
    /// once, no free slot, and each body's own destination.
    pub fn debug_check_owners(&self, held: impl IntoIterator<Item = FlitRef>) {
        if !cfg!(debug_assertions) {
            return;
        }
        const FREE: u8 = 2;
        let mut owners = vec![0u8; self.bodies.len()];
        for &slot in &self.free {
            let o = &mut owners[slot as usize];
            assert_eq!(*o, 0, "slot {slot} is on the free list twice");
            *o = FREE;
        }
        for r in held {
            let o = &mut owners[r.slot as usize];
            assert_ne!(*o, FREE, "slot {} is free but held", r.slot);
            assert_eq!(*o, 0, "slot {} is held twice", r.slot);
            *o = 1;
            let dst = self.bodies[r.slot as usize].dst;
            assert_eq!(r.dst, dst, "slot {}: handle and body disagree", r.slot);
        }
        if let Some(slot) = owners.iter().position(|&o| o == 0) {
            panic!("slot {slot} is live but nothing holds it");
        }
    }
}

impl Index<FlitRef> for FlitSlab {
    type Output = Flit;

    #[inline]
    fn index(&self, r: FlitRef) -> &Flit {
        &self.bodies[r.slot as usize]
    }
}

impl IndexMut<FlitRef> for FlitSlab {
    #[inline]
    fn index_mut(&mut self, r: FlitRef) -> &mut Flit {
        &mut self.bodies[r.slot as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitClass;
    use noc_sim::Cycle;

    fn flit(id: u64, dst: u32) -> Flit {
        Flit::new(id, NodeId(0), NodeId(dst), FlitClass::Data, 64, 0, Cycle(0))
    }

    #[test]
    fn a_handle_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<FlitRef>(), 8);
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut slab = FlitSlab::default();
        let a = slab.alloc(flit(1, 5));
        let b = slab.alloc(flit(2, 6));
        assert_eq!((a.dst, b.dst), (NodeId(5), NodeId(6)));
        assert_eq!((slab.live(), slab.slots()), (2, 2));
        slab[b].hops = 7;
        assert_eq!(slab.free(b).hops, 7);
        assert_eq!(slab.free(a).id, 1);
        assert_eq!((slab.live(), slab.slots()), (0, 2));
        let c = slab.alloc(flit(3, 7));
        assert_eq!(c.slot, a.slot);
        assert_eq!(slab[c].id, 3);
        assert_eq!(slab.slots(), 2);
        slab.debug_check_owners([c]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "held twice")]
    fn a_slot_held_twice_is_caught() {
        let mut slab = FlitSlab::default();
        let a = slab.alloc(flit(1, 5));
        slab.debug_check_owners([a, a]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "free but held")]
    fn a_free_slot_held_is_caught() {
        let mut slab = FlitSlab::default();
        let a = slab.alloc(flit(1, 5));
        slab.free(a);
        slab.debug_check_owners([a]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nothing holds it")]
    fn a_leaked_slot_is_caught() {
        let mut slab = FlitSlab::default();
        slab.alloc(flit(1, 5));
        slab.debug_check_owners([]);
    }
}
