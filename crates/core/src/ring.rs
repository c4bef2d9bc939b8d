//! Rings, lanes and slots.
//!
//! A lane is a circular conveyor of slots, one slot per cross station.
//! Every cycle the whole lane shifts one station in its direction. Slots
//! may carry a flit and/or an **I-tag** reservation riding on the slot
//! itself (paper §4.1.2): a tagged slot may only be used by the starving
//! node interface that placed the tag.
//!
//! Slot contents are only reachable through the mutators below, which
//! keep the lane's station-space indices in sync with the slot arrays:
//! two [`BitRing`]s (occupied slots, I-tagged slots) and the **exit
//! calendar**. The event-indexed tick reads the calendar and the I-tag
//! bits to visit only stations where something happens this cycle.
//!
//! # Exit calendar
//!
//! A flit riding a ring interacts with exactly one station: the one it
//! leaves at. That station is known when the flit boards
//! (`Lane::put_flit` takes it), and so is the number of advances until
//! the slot gets there. The calendar has one station-space bit row per
//! value of the rotation offset; boarding at distance `d` from the exit
//! sets bit `exit` in row `(offset + d) mod n`, so the flits arriving
//! *this* cycle are exactly row `offset` (`Lane::arrivals`) and a
//! passing flit is never looked at. Distance 0 means "here, one full lap
//! from now" and lands in the current row again — which is why a
//! deflected flit needs no special case: taking it
//! (`Lane::take_arrival`) clears its bit, putting it back sets the
//! same bit in the same row, and the row comes round after `n` advances.
//!
//! # Lazy hops
//!
//! [`Lane::advance`] is two bit rotations and two counter increments;
//! it touches no flit. The lane counts its own advances, a slot
//! remembers the count at boarding, and the difference is added to
//! [`Flit::hops`] when the flit leaves the slot. `hops` of a flit still
//! on a ring ([`Lane::flits`]) therefore excludes its current ride.
//!
//! # Struct-of-arrays slot storage
//!
//! Slot state is stored as parallel dense arrays, not an
//! array-of-`Option` structs: the flit payload array, the
//! boarding-count array, the I-tag owner array, and the two occupancy
//! word arrays ([`BitRing`]s) that are the *sole* authority on which
//! entries are live. A vacant slot's payload bytes are garbage (a
//! placeholder or departed flit / owner id) and are never read, because
//! every accessor consults the occupancy word first.

use crate::bits::BitRing;
use crate::flit::{Flit, FlitClass};
use crate::ids::{ChipletId, Direction, NodeId, RingId, RingKind};
use noc_sim::Cycle;

/// Garbage filler for never-yet-occupied flit slots. Never observable:
/// the occupancy bitset gates every read.
fn vacant_flit() -> Flit {
    Flit::new(
        u64::MAX,
        NodeId(u32::MAX),
        NodeId(u32::MAX),
        FlitClass::Request,
        0,
        0,
        Cycle(0),
    )
}

/// One unidirectional lane of a ring.
#[derive(Debug, Clone)]
pub struct Lane {
    dir: Direction,
    /// Flit payload per slot, indexed by slot position (not station).
    /// Live iff the slot's station bit is set in `flit_bits`.
    flits: Vec<Flit>,
    /// Value of `advances` when the flit in each slot boarded (live
    /// with `flits`).
    boarded: Vec<u32>,
    /// I-tag owner per slot: the node interface the slot is reserved
    /// for. Live iff the slot's station bit is set in `itag_bits`.
    itags: Vec<NodeId>,
    /// Rotation offset in `[0, n)`: slot `i` currently sits at station
    /// `(i + offset) mod n` (Cw) or `(i - offset) mod n` (Ccw).
    offset: usize,
    /// Advances so far (wrapping), for lazy hop charging.
    advances: u32,
    /// Station-space occupancy bits, rotated alongside `offset`.
    flit_bits: BitRing,
    /// Station-space I-tag bits, rotated alongside `offset`.
    itag_bits: BitRing,
    /// The exit calendar: `n` rows of `row_words` words; bit `e` of row
    /// `r` is set iff an occupied slot will stand at its exit station
    /// `e` when `offset == r` next.
    calendar: Vec<u64>,
    /// Words per calendar row (= words of a station-space bitset).
    row_words: usize,
}

impl Lane {
    /// Create an empty lane with `stations` slots.
    pub fn new(dir: Direction, stations: u16) -> Self {
        let n = stations as usize;
        let row_words = n.div_ceil(64);
        Lane {
            dir,
            flits: (0..stations).map(|_| vacant_flit()).collect(),
            boarded: vec![0; n],
            itags: vec![NodeId(u32::MAX); n],
            offset: 0,
            advances: 0,
            flit_bits: BitRing::new(n),
            itag_bits: BitRing::new(n),
            calendar: vec![0; n * row_words],
            row_words,
        }
    }

    /// The lane's travel direction.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// Number of slots (= stations).
    pub fn len(&self) -> usize {
        self.flits.len()
    }

    /// Whether the lane has zero slots (never true for built networks).
    pub fn is_empty(&self) -> bool {
        self.flits.is_empty()
    }

    #[inline]
    fn index_of_station(&self, station: u16) -> usize {
        let n = self.flits.len();
        // `offset < n` and `station < n`, so one conditional subtract
        // replaces the modulo.
        let i = match self.dir {
            Direction::Cw => station as usize + n - self.offset,
            Direction::Ccw => station as usize + self.offset,
        };
        if i >= n {
            i - n
        } else {
            i
        }
    }

    /// Calendar word index and bit mask of `exit` for a slot now at
    /// `station`.
    #[inline]
    fn calendar_bit(&self, station: u16, exit: u16) -> (usize, u64) {
        let n = self.flits.len();
        let (s, e) = (station as usize, exit as usize);
        debug_assert!(s < n && e < n, "station {s} / exit {e} outside 0..{n}");
        // Advances until the slot stands at `exit`, in `[0, n)`; 0 is a
        // full lap, which is the current row again.
        let (from, to) = match self.dir {
            Direction::Cw => (s, e),
            Direction::Ccw => (e, s),
        };
        let distance = if to >= from { to - from } else { to + n - from };
        let mut row = self.offset + distance;
        if row >= n {
            row -= n;
        }
        (row * self.row_words + e / 64, 1u64 << (e % 64))
    }

    /// The flit in the slot currently at `station`, if any. Its `hops`
    /// excludes the ride it is on (see the module docs).
    #[inline]
    pub(crate) fn flit_at(&self, station: u16) -> Option<&Flit> {
        if !self.flit_bits.test(station as usize) {
            return None;
        }
        Some(&self.flits[self.index_of_station(station)])
    }

    /// Station-space bits of the flits standing at their exit station
    /// this cycle (64 stations per word).
    #[inline]
    pub(crate) fn arrivals(&self) -> &[u64] {
        &self.calendar[self.offset * self.row_words..][..self.row_words]
    }

    /// Calendar word index and bit mask of `station` in the current row.
    #[inline]
    fn arrival_bit(&self, station: u16) -> (usize, u64) {
        let s = station as usize;
        (self.offset * self.row_words + s / 64, 1u64 << (s % 64))
    }

    /// Whether the slot currently at `station` carries a flit that
    /// exits there.
    #[inline]
    pub(crate) fn arrives(&self, station: u16) -> bool {
        let (w, bit) = self.arrival_bit(station);
        self.calendar[w] & bit != 0
    }

    /// Remove and return the flit standing at its exit `station`,
    /// charging it the hops of the ride.
    ///
    /// The caller must know the flit is there and exits here — from
    /// [`Lane::arrives`], or from the flit itself.
    #[inline]
    pub(crate) fn take_arrival(&mut self, station: u16) -> Flit {
        debug_assert!(
            self.flit_bits.test(station as usize),
            "no flit at station {station}"
        );
        debug_assert!(
            self.arrives(station),
            "calendar misses arrival at station {station}"
        );
        let i = self.index_of_station(station);
        self.flit_bits.clear(station as usize);
        let (w, bit) = self.arrival_bit(station);
        self.calendar[w] &= !bit;
        // Copy out; the stale bytes left behind are gated by the
        // occupancy bit like any vacant slot.
        let mut flit = self.flits[i].clone();
        flit.hops += self.advances.wrapping_sub(self.boarded[i]);
        flit
    }

    /// Place `flit`, which leaves the ring at station `exit`, into the
    /// slot currently at `station`.
    ///
    /// Panics if the slot is occupied.
    #[inline]
    pub(crate) fn put_flit(&mut self, station: u16, flit: Flit, exit: u16) {
        assert!(
            !self.flit_bits.test(station as usize),
            "slot at station {station} occupied"
        );
        let i = self.index_of_station(station);
        self.flits[i] = flit;
        self.boarded[i] = self.advances;
        self.flit_bits.set(station as usize);
        let (w, bit) = self.calendar_bit(station, exit);
        self.calendar[w] |= bit;
    }

    /// The I-tag on the slot currently at `station`, if any.
    #[inline]
    pub fn itag_at(&self, station: u16) -> Option<NodeId> {
        if !self.itag_bits.test(station as usize) {
            return None;
        }
        Some(self.itags[self.index_of_station(station)])
    }

    /// Reserve the slot currently at `station` for `owner`.
    ///
    /// Panics if the slot already carries an I-tag.
    #[inline]
    pub fn set_itag(&mut self, station: u16, owner: NodeId) {
        assert!(
            !self.itag_bits.test(station as usize),
            "slot at station {station} already tagged"
        );
        let i = self.index_of_station(station);
        self.itags[i] = owner;
        self.itag_bits.set(station as usize);
    }

    /// Remove and return the I-tag on the slot currently at `station`.
    #[inline]
    pub fn take_itag(&mut self, station: u16) -> Option<NodeId> {
        if !self.itag_bits.test(station as usize) {
            return None;
        }
        self.itag_bits.clear(station as usize);
        Some(self.itags[self.index_of_station(station)])
    }

    /// Shift every slot one station in the lane's direction. Costs
    /// O(words): the bitsets rotate with the slots, the calendar's
    /// current row moves on by one, and hops are charged lazily.
    pub fn advance(&mut self) {
        let n = self.flits.len();
        if n == 0 {
            return;
        }
        self.offset += 1;
        if self.offset == n {
            self.offset = 0;
        }
        self.advances = self.advances.wrapping_add(1);
        match self.dir {
            Direction::Cw => {
                self.flit_bits.rotate_up();
                self.itag_bits.rotate_up();
            }
            Direction::Ccw => {
                self.flit_bits.rotate_down();
                self.itag_bits.rotate_down();
            }
        }
    }

    /// Number of occupied slots.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.flit_bits.count_ones()
    }

    /// Number of I-tag-reserved slots currently circulating.
    #[inline]
    pub fn itag_count(&self) -> usize {
        self.itag_bits.count_ones()
    }

    /// Station-space occupancy bitset.
    #[inline]
    pub fn flit_bits(&self) -> &BitRing {
        &self.flit_bits
    }

    /// Station-space I-tag bitset.
    #[inline]
    pub fn itag_bits(&self) -> &BitRing {
        &self.itag_bits
    }

    /// Iterate over all in-flight flits (arbitrary positional order).
    /// Their `hops` excludes the ride they are on.
    pub fn flits(&self) -> impl Iterator<Item = &Flit> {
        let (dir, n, off) = (self.dir, self.flits.len(), self.offset);
        let bits = &self.flit_bits;
        self.flits
            .iter()
            .enumerate()
            .filter_map(move |(i, f)| bits.test(station_of_index(dir, n, off, i)).then_some(f))
    }

    /// Iterate mutably over all in-flight flits together with the
    /// station each currently sits at (positional slot order — callers
    /// needing a canonical order must impose it themselves).
    pub fn flits_mut(&mut self) -> impl Iterator<Item = (u16, &mut Flit)> {
        let (dir, n, off) = (self.dir, self.flits.len(), self.offset);
        let bits = &self.flit_bits;
        self.flits.iter_mut().enumerate().filter_map(move |(i, f)| {
            let s = station_of_index(dir, n, off, i);
            bits.test(s).then_some((s as u16, f))
        })
    }
}

/// The inverse of `Lane::index_of_station`: the station slot `i` sits
/// at after `offset` (`< n`) advances.
#[inline]
fn station_of_index(dir: Direction, n: usize, offset: usize, i: usize) -> usize {
    let s = match dir {
        Direction::Cw => i + offset,
        Direction::Ccw => i + n - offset,
    };
    if s >= n {
        s - n
    } else {
        s
    }
}

/// A ring: metadata plus one or two lanes.
#[derive(Debug, Clone)]
pub struct Ring {
    /// The ring's id.
    pub id: RingId,
    /// The chiplet the ring lives on.
    pub chiplet: ChipletId,
    /// Half or full.
    pub kind: RingKind,
    /// Station count.
    pub stations: u16,
    /// Lanes: `[Cw]` for half rings, `[Cw, Ccw]` for full rings.
    pub lanes: Vec<Lane>,
}

impl Ring {
    /// Create an empty ring.
    pub fn new(id: RingId, chiplet: ChipletId, kind: RingKind, stations: u16) -> Self {
        let lanes = match kind {
            RingKind::Half => vec![Lane::new(Direction::Cw, stations)],
            RingKind::Full => vec![
                Lane::new(Direction::Cw, stations),
                Lane::new(Direction::Ccw, stations),
            ],
        };
        Ring {
            id,
            chiplet,
            kind,
            stations,
            lanes,
        }
    }

    /// Total flits currently on the ring.
    pub fn occupancy(&self) -> usize {
        self.lanes.iter().map(Lane::occupancy).sum()
    }

    /// Total slot capacity across lanes.
    pub fn capacity(&self) -> usize {
        self.lanes.iter().map(Lane::len).sum()
    }

    /// I-tag-reserved slots across lanes.
    pub fn itag_count(&self) -> usize {
        self.lanes.iter().map(Lane::itag_count).sum()
    }

    /// Occupied fraction of the ring's slots, `0.0..=1.0` (zero for a
    /// ring with no capacity). Telemetry's per-ring utilization
    /// timeline reports the same ratio from sampled trace records.
    pub fn utilization(&self) -> f64 {
        let cap = self.capacity();
        if cap == 0 {
            0.0
        } else {
            self.occupancy() as f64 / cap as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitClass;
    use noc_sim::Cycle;
    use proptest::prelude::*;

    fn test_flit(id: u64) -> Flit {
        Flit::new(
            id,
            NodeId(0),
            NodeId(1),
            FlitClass::Request,
            64,
            0,
            Cycle(0),
        )
    }

    #[test]
    fn cw_lane_moves_flit_forward() {
        let mut lane = Lane::new(Direction::Cw, 4);
        lane.put_flit(0, test_flit(1), 3);
        lane.advance();
        assert!(lane.flit_at(0).is_none());
        assert!(lane.flit_at(1).is_some());
        assert!(lane.flit_bits().test(1));
        assert!(!lane.flit_bits().test(0));
        lane.advance();
        assert!(lane.flit_at(2).is_some());
        // Wrap-around.
        lane.advance();
        lane.advance();
        assert!(lane.flit_at(0).is_some());
        assert!(lane.flit_bits().test(0));
    }

    #[test]
    fn ccw_lane_moves_flit_backward() {
        let mut lane = Lane::new(Direction::Ccw, 4);
        lane.put_flit(2, test_flit(1), 3);
        lane.advance();
        assert!(lane.flit_at(1).is_some());
        assert!(lane.flit_bits().test(1));
        lane.advance();
        assert!(lane.flit_at(0).is_some());
        lane.advance();
        assert!(lane.flit_at(3).is_some());
        assert!(lane.flit_bits().test(3));
        assert!(lane.arrives(3));
        assert_eq!(lane.take_arrival(3).hops, 3);
    }

    #[test]
    fn itag_rides_the_slot() {
        let mut lane = Lane::new(Direction::Cw, 4);
        lane.set_itag(0, NodeId(9));
        lane.advance();
        assert_eq!(lane.itag_at(1), Some(NodeId(9)));
        assert!(lane.itag_at(0).is_none());
        assert!(lane.itag_bits().test(1));
        assert_eq!(lane.take_itag(1), Some(NodeId(9)));
        assert_eq!(lane.itag_count(), 0);
        assert!(!lane.itag_bits().test(1));
    }

    #[test]
    fn occupancy_counts() {
        let mut lane = Lane::new(Direction::Cw, 4);
        assert_eq!(lane.occupancy(), 0);
        lane.put_flit(0, test_flit(1), 1);
        lane.put_flit(2, test_flit(2), 1);
        assert_eq!(lane.occupancy(), 2);
        assert_eq!(lane.flits().count(), 2);
        assert_eq!(lane.flits_mut().count(), 2);
    }

    /// What the brute-force model knows about an occupied slot.
    #[derive(Debug, Clone, Copy)]
    struct Rider {
        id: u64,
        exit: usize,
        /// `hops` the flit must show when it next leaves a slot.
        hops_due: u32,
    }

    /// The lane as a plain array of stations, rotated by hand.
    struct Model {
        n: usize,
        cw: bool,
        riders: Vec<Option<Rider>>,
        itags: Vec<Option<NodeId>>,
    }

    impl Model {
        fn advance(&mut self) {
            if self.cw {
                self.riders.rotate_right(1);
                self.itags.rotate_right(1);
            } else {
                self.riders.rotate_left(1);
                self.itags.rotate_left(1);
            }
            for r in self.riders.iter_mut().flatten() {
                r.hops_due += 1;
            }
        }

        /// Stations whose slot is occupied by a flit exiting there.
        fn arrivals(&self) -> Vec<usize> {
            (0..self.n)
                .filter(|&s| self.riders[s].is_some_and(|r| r.exit == s))
                .collect()
        }
    }

    fn ones(words: &[u64]) -> Vec<usize> {
        (0..words.len() * 64)
            .filter(|&s| words[s / 64] & (1u64 << (s % 64)) != 0)
            .collect()
    }

    fn assert_matches(lane: &Lane, model: &Model) {
        let due = model.arrivals();
        assert_eq!(ones(lane.arrivals()), due, "arrivals");
        let occupied: Vec<usize> = (0..model.n)
            .filter(|&s| model.riders[s].is_some())
            .collect();
        assert_eq!(lane.flit_bits().iter_ones().collect::<Vec<_>>(), occupied);
        let tagged: Vec<usize> = (0..model.n).filter(|&s| model.itags[s].is_some()).collect();
        assert_eq!(lane.itag_bits().iter_ones().collect::<Vec<_>>(), tagged);
        for s in 0..model.n {
            assert_eq!(lane.arrives(s as u16), due.contains(&s));
            assert_eq!(
                lane.flit_at(s as u16).map(|f| f.id),
                model.riders[s].map(|r| r.id)
            );
            assert_eq!(lane.itag_at(s as u16), model.itags[s]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random put / take-arrival / deflect-put-back / I-tag /
        /// advance sequences on single- and multi-word lanes: after
        /// every step the calendar's current row is exactly the set of
        /// occupied slots standing at their exit, the occupancy bits
        /// match, and a taken flit has been charged one hop per advance
        /// it was aboard for. A put whose exit is the station it boards
        /// at (the SWAP case) is one full lap, not an arrival now.
        #[test]
        fn calendar_matches_brute_force(
            size in 0usize..8,
            cw in any::<bool>(),
            ops in collection::vec((0u8..8, any::<u16>(), any::<u16>()), 1..600),
        ) {
            let n = [1usize, 2, 5, 16, 63, 64, 65, 130][size];
            let dir = if cw { Direction::Cw } else { Direction::Ccw };
            let mut lane = Lane::new(dir, n as u16);
            let mut model = Model { n, cw, riders: vec![None; n], itags: vec![None; n] };
            let mut next_id = 0u64;
            for &(op, x, y) in &ops {
                let s = x as usize % n;
                match op {
                    // Board a flit; every fourth exits where it boards.
                    0 | 1 => {
                        if model.riders[s].is_none() {
                            let exit = if y % 4 == 0 { s } else { y as usize % n };
                            lane.put_flit(s as u16, test_flit(next_id), exit as u16);
                            model.riders[s] = Some(Rider { id: next_id, exit, hops_due: 0 });
                            next_id += 1;
                        }
                    }
                    // Take an arrival; odd `y` deflects it back.
                    2 | 3 => {
                        let due = model.arrivals();
                        if !due.is_empty() {
                            let s = due[x as usize % due.len()];
                            let rider = model.riders[s].take().expect("arrival");
                            let flit = lane.take_arrival(s as u16);
                            prop_assert_eq!(flit.id, rider.id);
                            prop_assert_eq!(flit.hops, rider.hops_due);
                            if y % 2 == 1 {
                                lane.put_flit(s as u16, flit, s as u16);
                                model.riders[s] = Some(rider);
                            }
                        }
                    }
                    4 => match model.itags[s].take() {
                        Some(owner) => prop_assert_eq!(lane.take_itag(s as u16), Some(owner)),
                        None => {
                            lane.set_itag(s as u16, NodeId(u32::from(y)));
                            model.itags[s] = Some(NodeId(u32::from(y)));
                        }
                    },
                    _ => {
                        lane.advance();
                        model.advance();
                    }
                }
                assert_matches(&lane, &model);
            }
        }
    }

    #[test]
    fn ring_lane_counts() {
        let half = Ring::new(RingId(0), ChipletId(0), RingKind::Half, 6);
        let full = Ring::new(RingId(1), ChipletId(0), RingKind::Full, 6);
        assert_eq!(half.lanes.len(), 1);
        assert_eq!(full.lanes.len(), 2);
        assert_eq!(half.capacity(), 6);
        assert_eq!(full.capacity(), 12);
        assert_eq!(full.lanes[1].direction(), Direction::Ccw);
    }

    #[test]
    fn utilization_is_occupied_fraction() {
        let mut ring = Ring::new(RingId(0), ChipletId(0), RingKind::Full, 4);
        assert_eq!(ring.utilization(), 0.0);
        ring.lanes[0].put_flit(0, test_flit(1), 1);
        ring.lanes[1].put_flit(2, test_flit(2), 1);
        assert_eq!(ring.utilization(), 2.0 / 8.0);
    }
}
