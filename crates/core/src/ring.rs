//! Rings, lanes and slots.
//!
//! A lane is a circular conveyor of slots, one slot per cross station.
//! Every cycle the whole lane shifts one station in its direction. Slots
//! may carry a flit and/or an **I-tag** reservation riding on the slot
//! itself (paper §4.1.2): a tagged slot may only be used by the starving
//! node interface that placed the tag.
//!
//! Slot contents are only reachable through the mutators below, which
//! keep the lane's indices in sync with the slot arrays: two
//! [`BitRing`]s over slots (occupied, I-tagged) and the station-space
//! **exit calendar**. The event-indexed tick reads the calendar and the
//! I-tags to visit only stations where something happens this cycle.
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
//! # Lanes that stand still
//!
//! [`Lane::advance`] is two counter increments; it touches no flit and
//! no bit. Every per-slot array — payloads, boarding counts, I-tag
//! owners and both bitsets — is indexed by slot, and slot `i` stands at
//! station `(i ± offset) mod n`, so moving the lane is moving `offset`.
//! The calendar needs no rotation either: its rows are already indexed
//! by `offset`. The one reader that wants I-tags by station — the sweep
//! merge — gets a word at a time from `Lane::itag_word`, which reads
//! the slot bits at the station offset, and only on a lane with a live
//! I-tag.
//!
//! Hops are charged lazily: the lane counts its own advances, a slot
//! remembers the count at boarding, and the difference is added to
//! [`Flit::hops`] when the flit leaves the slot. `hops` of a flit still
//! on a ring ([`Lane::flits`]) therefore excludes its current ride.
//!
//! # Struct-of-arrays slot storage
//!
//! Slot state is stored as parallel dense arrays, not an
//! array-of-`Option` structs: the flit payload array, the
//! boarding-count array, the I-tag owner array, and the two slot-space
//! word arrays ([`BitRing`]s) that are the *sole* authority on which
//! entries are live. A vacant slot's payload bytes are garbage (a
//! placeholder or departed flit / owner id) and are never read, because
//! every accessor consults the occupancy word first.

use crate::bits::BitRing;
use crate::flit::{Flit, FlitClass};
use crate::ids::{ChipletId, Direction, NodeId, RingId, RingKind};
use crate::route::RouteTable;
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
    /// Live iff the slot's bit is set in `flit_bits`.
    flits: Vec<Flit>,
    /// Value of `advances` when the flit in each slot boarded (live
    /// with `flits`).
    boarded: Vec<u32>,
    /// I-tag owner per slot: the node interface the slot is reserved
    /// for. Live iff the slot's bit is set in `itag_bits`.
    itags: Vec<NodeId>,
    /// Rotation offset in `[0, n)`: slot `i` currently sits at station
    /// `(i + offset) mod n` (Cw) or `(i - offset) mod n` (Ccw).
    offset: usize,
    /// Advances so far (wrapping), for lazy hop charging.
    advances: u32,
    /// Occupied slots.
    flit_bits: BitRing,
    /// I-tagged slots.
    itag_bits: BitRing,
    /// Set bits of `itag_bits`: the sweep derives station-space I-tag
    /// words only while this is non-zero.
    itags_live: u32,
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
            itags_live: 0,
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

    /// Whether the slot currently at `station` carries a flit.
    #[inline]
    pub(crate) fn occupied(&self, station: u16) -> bool {
        self.flit_bits.test(self.index_of_station(station))
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
    /// The caller must know the flit is there and exits here, from
    /// [`Lane::arrives`].
    #[inline]
    pub(crate) fn take_arrival(&mut self, station: u16) -> Flit {
        let i = self.index_of_station(station);
        debug_assert!(self.flit_bits.test(i), "no flit at station {station}");
        self.flit_bits.clear(i);
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
        let i = self.index_of_station(station);
        assert!(
            !self.flit_bits.test(i),
            "slot at station {station} occupied"
        );
        self.flits[i] = flit;
        self.boarded[i] = self.advances;
        self.flit_bits.set(i);
        let (w, bit) = self.calendar_bit(station, exit);
        self.calendar[w] |= bit;
    }

    /// The I-tag on the slot currently at `station`, if any.
    #[inline]
    pub fn itag_at(&self, station: u16) -> Option<NodeId> {
        let i = self.index_of_station(station);
        self.itag_bits.test(i).then(|| self.itags[i])
    }

    /// Reserve the slot currently at `station` for `owner`.
    ///
    /// Panics if the slot already carries an I-tag.
    #[inline]
    pub fn set_itag(&mut self, station: u16, owner: NodeId) {
        let i = self.index_of_station(station);
        assert!(
            !self.itag_bits.test(i),
            "slot at station {station} already tagged"
        );
        self.itags[i] = owner;
        self.itag_bits.set(i);
        self.itags_live += 1;
    }

    /// Remove and return the I-tag on the slot currently at `station`.
    #[inline]
    pub fn take_itag(&mut self, station: u16) -> Option<NodeId> {
        let i = self.index_of_station(station);
        if !self.itag_bits.test(i) {
            return None;
        }
        self.itag_bits.clear(i);
        self.itags_live -= 1;
        Some(self.itags[i])
    }

    /// Station-space word `wi` of the I-tags: bit `k` is set iff the
    /// slot now at station `64 * wi + k` carries one. Zero without
    /// reading a bit while no I-tag circulates on this lane.
    #[inline]
    pub(crate) fn itag_word(&self, wi: usize) -> u64 {
        if self.itags_live == 0 {
            return 0;
        }
        let s = wi * 64;
        // Consecutive stations stand on consecutive slots (mod n) in
        // either direction, so the word is one circular run of slots.
        let len = (self.flits.len() - s).min(64);
        self.itag_bits.window(self.index_of_station(s as u16), len)
    }

    /// Shift every slot one station in the lane's direction. O(1): the
    /// slots and their bits stay where they are, `offset` moves (which
    /// also selects the calendar's next row), and hops are charged
    /// lazily.
    #[inline]
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
    }

    /// Number of occupied slots.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.flit_bits.count_ones()
    }

    /// Number of I-tag-reserved slots currently circulating.
    #[inline]
    pub fn itag_count(&self) -> usize {
        self.itags_live as usize
    }

    /// The stations whose slot carries a flit, in slot order.
    pub(crate) fn occupied_stations(&self) -> impl Iterator<Item = usize> + '_ {
        let (dir, n, off) = (self.dir, self.flits.len(), self.offset);
        self.flit_bits
            .iter_ones()
            .map(move |i| station_of_index(dir, n, off, i))
    }

    /// Debug builds: the calendar holds exactly one bit per occupied
    /// slot — the one for the exit `route` gives its flit on `ring` —
    /// and the derived I-tag words hold exactly the tagged slots. Costs
    /// one route lookup per flit and one pass over the calendar words.
    pub(crate) fn debug_check(&self, route: &RouteTable, ring: RingId) {
        if !cfg!(debug_assertions) {
            return;
        }
        let station = |i| station_of_index(self.dir, self.flits.len(), self.offset, i);
        for i in self.flit_bits.iter_ones() {
            let exit = route.exit(ring, self.flits[i].dst).expect("routed").station;
            let (w, bit) = self.calendar_bit(station(i) as u16, exit);
            assert!(self.calendar[w] & bit != 0, "{ring}: exit missing");
        }
        // One bit per flit: two slots never share a (row, exit) bit.
        let bits: u32 = self.calendar.iter().map(|w| w.count_ones()).sum();
        assert_eq!(bits as usize, self.occupancy(), "{ring}: calendar");
        let tags = self.itags_live as usize;
        assert_eq!(tags, self.itag_bits.count_ones(), "{ring}: I-tags");
        for s in self.itag_bits.iter_ones().map(station) {
            let word = self.itag_word(s / 64);
            assert_eq!(word >> (s % 64) & 1, 1, "{ring}: I-tag word");
        }
        let words: u32 = (0..self.row_words)
            .map(|wi| self.itag_word(wi).count_ones())
            .sum();
        assert_eq!(words as usize, tags, "{ring}: I-tag words");
    }

    /// Iterate over all in-flight flits (positional slot order).
    /// Their `hops` excludes the ride they are on.
    pub fn flits(&self) -> impl Iterator<Item = &Flit> {
        self.flit_bits.iter_ones().map(|i| &self.flits[i])
    }

    /// Iterate mutably over all in-flight flits together with the
    /// station each currently sits at (positional slot order — callers
    /// needing a canonical order must impose it themselves).
    pub fn flits_mut(&mut self) -> impl Iterator<Item = (u16, &mut Flit)> {
        let (dir, n, off) = (self.dir, self.flits.len(), self.offset);
        let bits = &self.flit_bits;
        self.flits
            .iter_mut()
            .enumerate()
            .filter(move |(i, _)| bits.test(*i))
            .map(move |(i, f)| (station_of_index(dir, n, off, i) as u16, f))
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

    /// The flit in the slot currently at `station`, if any.
    fn flit_at(lane: &Lane, station: u16) -> Option<&Flit> {
        let i = lane.index_of_station(station);
        lane.flit_bits.test(i).then(|| &lane.flits[i])
    }

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
        assert!(flit_at(&lane, 0).is_none());
        assert!(flit_at(&lane, 1).is_some());
        assert!(lane.occupied(1));
        assert!(!lane.occupied(0));
        lane.advance();
        assert!(flit_at(&lane, 2).is_some());
        // Wrap-around.
        lane.advance();
        lane.advance();
        assert!(flit_at(&lane, 0).is_some());
        assert!(lane.occupied(0));
    }

    #[test]
    fn ccw_lane_moves_flit_backward() {
        let mut lane = Lane::new(Direction::Ccw, 4);
        lane.put_flit(2, test_flit(1), 3);
        lane.advance();
        assert!(flit_at(&lane, 1).is_some());
        assert!(lane.occupied(1));
        lane.advance();
        assert!(flit_at(&lane, 0).is_some());
        lane.advance();
        assert!(flit_at(&lane, 3).is_some());
        assert!(lane.occupied(3));
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
        assert_eq!(lane.itag_word(0), 0b10);
        assert_eq!(lane.take_itag(1), Some(NodeId(9)));
        assert_eq!(lane.itag_count(), 0);
        assert_eq!(lane.itag_word(0), 0);
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

    /// The lane's station-space I-tag words, as [`Lane::itag_word`]
    /// derives them for the sweep merge.
    fn itag_words(lane: &Lane) -> Vec<u64> {
        (0..lane.len().div_ceil(64))
            .map(|wi| lane.itag_word(wi))
            .collect()
    }

    fn assert_matches(lane: &Lane, model: &Model) {
        let due = model.arrivals();
        assert_eq!(ones(lane.arrivals()), due, "arrivals");
        let tagged: Vec<usize> = (0..model.n).filter(|&s| model.itags[s].is_some()).collect();
        assert_eq!(ones(&itag_words(lane)), tagged, "derived I-tag words");
        assert_eq!(lane.itag_count(), tagged.len());
        for s in 0..model.n {
            assert_eq!(lane.arrives(s as u16), due.contains(&s));
            assert_eq!(lane.occupied(s as u16), model.riders[s].is_some());
            assert_eq!(
                flit_at(lane, s as u16).map(|f| f.id),
                model.riders[s].map(|r| r.id)
            );
            assert_eq!(lane.itag_at(s as u16), model.itags[s]);
        }
        let mut stations: Vec<usize> = lane.occupied_stations().collect();
        stations.sort_unstable();
        let occupied: Vec<usize> = (0..model.n)
            .filter(|&s| model.riders[s].is_some())
            .collect();
        assert_eq!(stations, occupied, "occupied stations");
    }

    /// The derived station-space I-tag word against the model over at
    /// least two full laps, with several live tags, on single- and
    /// multi-word lanes in both directions — a word read at the wrong
    /// offset, or across the wrong word boundary, shows as a moved bit.
    #[test]
    fn itag_words_follow_the_slots() {
        for n in [1usize, 63, 64, 65, 130] {
            for dir in [Direction::Cw, Direction::Ccw] {
                let mut lane = Lane::new(dir, n as u16);
                let mut model = Model {
                    n,
                    cw: dir == Direction::Cw,
                    riders: vec![None; n],
                    itags: vec![None; n],
                };
                let tag = |lane: &mut Lane, model: &mut Model, s: usize| {
                    if model.itags[s].is_none() {
                        lane.set_itag(s as u16, NodeId(s as u32));
                        model.itags[s] = Some(NodeId(s as u32));
                    }
                };
                for s in [0, n / 2, n - 1, 63 % n, 64 % n] {
                    tag(&mut lane, &mut model, s);
                }
                for step in 0..2 * n + 3 {
                    assert_matches(&lane, &model);
                    if step % 7 == 3 {
                        // Retire one tag and place another mid-lap.
                        let s = step % n;
                        if let Some(owner) = model.itags[s].take() {
                            assert_eq!(lane.take_itag(s as u16), Some(owner));
                        }
                        tag(&mut lane, &mut model, (s + n / 3) % n);
                    }
                    lane.advance();
                    model.advance();
                }
                assert!(lane.itag_count() > 0, "n={n} {dir:?}: tags stayed live");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random put / take-arrival / deflect-put-back / I-tag /
        /// advance sequences on single- and multi-word lanes: after
        /// every step the calendar's current row is exactly the set of
        /// occupied slots standing at their exit, occupancy and I-tags
        /// read by station match the model (and so does the derived
        /// I-tag word), and a taken flit has been charged one hop per
        /// advance it was aboard for. A put whose exit is the station it boards
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
