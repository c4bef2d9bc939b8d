//! Floorplan-level area accounting for a ring NoC on a chiplet
//! (paper §3.3, Figure 6 and the area-efficiency KPI of §2.2).

use crate::wire::{OverlapUse, WireFabric};
use serde::{Deserialize, Serialize};

/// Geometry and NoC parameters of one chiplet, input to the estimator.
///
/// # Example
///
/// ```
/// use noc_fabric::{FloorplanSpec, WireFabric};
/// let spec = FloorplanSpec {
///     width_mm: 20.0,
///     height_mm: 15.0,
///     ring_lanes: 2,
///     bus_bits: 512,
///     base_pitch_um: 0.08,
///     station_area_mm2: 0.05,
///     freq_ghz: 3.0,
/// };
/// let hd = spec.estimate(&WireFabric::high_dense());
/// let hs = spec.estimate(&WireFabric::high_speed());
/// // The high-speed fabric blocks less usable silicon overall.
/// assert!(hs.net_blocked_mm2() < hd.net_blocked_mm2());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FloorplanSpec {
    /// Chiplet width in mm.
    pub width_mm: f64,
    /// Chiplet height in mm.
    pub height_mm: f64,
    /// Number of ring lanes routed around the chiplet (2 for a full
    /// ring, 1 for a half ring).
    pub ring_lanes: u32,
    /// Data bus width in bits per lane.
    pub bus_bits: u32,
    /// Base (high-dense) track pitch in µm for the technology node.
    pub base_pitch_um: f64,
    /// Silicon area of one cross station in mm².
    pub station_area_mm2: f64,
    /// Target clock frequency in GHz.
    pub freq_ghz: f64,
}

impl FloorplanSpec {
    /// Ring path length: we route the ring as a loop at half-width /
    /// half-height (a typical spine route), so one lap is `w + h` mm.
    pub fn ring_length_mm(&self) -> f64 {
        self.width_mm + self.height_mm
    }

    /// Estimate the floorplan cost of routing the ring on `fabric`.
    ///
    /// # Panics
    ///
    /// Panics if geometry or frequency is non-positive.
    pub fn estimate(&self, fabric: &WireFabric) -> FloorplanEstimate {
        assert!(self.width_mm > 0.0 && self.height_mm > 0.0);
        assert!(self.freq_ghz > 0.0 && self.ring_lanes > 0);
        let length_mm = self.ring_length_mm();
        let length_um = length_mm * 1000.0;

        let stations = fabric.stations_for(length_um, self.freq_ghz).max(1);
        let bus_width_um = fabric.bus_routing_width_um(self.bus_bits, self.base_pitch_um);
        let total_width_um = bus_width_um * self.ring_lanes as f64;

        // Footprint of the metal fabric projected onto the floorplan.
        let wire_mm2 = length_mm * total_width_um / 1000.0;
        // Stride slots reclaimable for SRAM (Figure 6, right).
        let reclaimed_mm2 = match fabric.over() {
            OverlapUse::Nothing => 0.0,
            OverlapUse::Sram => wire_mm2 * fabric.stride_fraction(),
        };
        // Repeater/station logic area.
        let station_mm2 = stations as f64 * self.station_area_mm2 * self.ring_lanes as f64;

        let die_mm2 = self.width_mm * self.height_mm;
        let bandwidth_bytes_per_cycle = (self.bus_bits as f64 / 8.0) * self.ring_lanes as f64;
        let bandwidth_gbs = bandwidth_bytes_per_cycle * self.freq_ghz;

        FloorplanEstimate {
            fabric: fabric.name().to_string(),
            stations,
            ring_length_mm: length_mm,
            wire_area_mm2: wire_mm2,
            reclaimed_area_mm2: reclaimed_mm2,
            station_area_mm2: station_mm2,
            die_area_mm2: die_mm2,
            distance_per_cycle_mm: fabric.distance_per_cycle_mm(self.freq_ghz),
            lap_latency_cycles: stations,
            bandwidth_gbs,
        }
    }
}

/// Output of [`FloorplanSpec::estimate`]: the area and latency cost of
/// one ring on one fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FloorplanEstimate {
    /// Fabric name.
    pub fabric: String,
    /// Pipeline stations (repeater stages) around the loop.
    pub stations: u32,
    /// Routed loop length in mm.
    pub ring_length_mm: f64,
    /// Metal footprint projected on the floorplan, mm².
    pub wire_area_mm2: f64,
    /// Footprint reclaimed by SRAM-in-stride placement, mm².
    pub reclaimed_area_mm2: f64,
    /// Cross-station / repeater logic area, mm².
    pub station_area_mm2: f64,
    /// Total die area, mm².
    pub die_area_mm2: f64,
    /// Distance per clock cycle (the paper's co-design metric), mm.
    pub distance_per_cycle_mm: f64,
    /// Cycles for one full lap of the ring.
    pub lap_latency_cycles: u32,
    /// Raw ring bandwidth in GB/s (bus bytes/cycle × lanes × freq).
    pub bandwidth_gbs: f64,
}

impl FloorplanEstimate {
    /// Floorplan area actually lost to the NoC: wires that block
    /// placement plus station logic, minus area reclaimed by SRAM.
    pub fn net_blocked_mm2(&self) -> f64 {
        self.wire_area_mm2 + self.station_area_mm2 - self.reclaimed_area_mm2
    }

    /// Area-efficiency KPI (§2.2): GB/s of ring bandwidth per mm² of
    /// blocked silicon. Higher is better.
    pub fn bandwidth_per_mm2(&self) -> f64 {
        let blocked = self.net_blocked_mm2();
        if blocked <= 0.0 {
            f64::INFINITY
        } else {
            self.bandwidth_gbs / blocked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FloorplanSpec {
        FloorplanSpec {
            width_mm: 20.0,
            height_mm: 15.0,
            ring_lanes: 2,
            bus_bits: 512,
            base_pitch_um: 0.08,
            station_area_mm2: 0.05,
            freq_ghz: 3.0,
        }
    }

    #[test]
    fn high_speed_uses_fewer_stations() {
        let hd = spec().estimate(&WireFabric::high_dense());
        let hs = spec().estimate(&WireFabric::high_speed());
        assert!(hs.stations < hd.stations);
        // 35 mm loop: 35000/600 = 59 vs 35000/1800 = 20.
        assert_eq!(hd.stations, 59);
        assert_eq!(hs.stations, 20);
    }

    #[test]
    fn high_speed_has_better_distance_per_cycle() {
        let hd = spec().estimate(&WireFabric::high_dense());
        let hs = spec().estimate(&WireFabric::high_speed());
        assert!(hs.distance_per_cycle_mm > hd.distance_per_cycle_mm);
        assert!(hs.lap_latency_cycles < hd.lap_latency_cycles);
    }

    #[test]
    fn high_speed_blocks_less_net_area() {
        // Per-bit footprint is 1.4x, but stride reclaim + 3x fewer
        // stations give high-speed the lower net blocked area, matching
        // the paper's conclusion that it is "a better choice for NoC".
        let hd = spec().estimate(&WireFabric::high_dense());
        let hs = spec().estimate(&WireFabric::high_speed());
        assert!(hs.net_blocked_mm2() < hd.net_blocked_mm2());
        assert!(hs.bandwidth_per_mm2() > hd.bandwidth_per_mm2());
    }

    #[test]
    fn reclaimed_area_zero_for_high_dense() {
        let hd = spec().estimate(&WireFabric::high_dense());
        assert_eq!(hd.reclaimed_area_mm2, 0.0);
        let hs = spec().estimate(&WireFabric::high_speed());
        assert!(hs.reclaimed_area_mm2 > 0.0);
    }

    #[test]
    fn blocked_fraction_reasonable() {
        let hs = spec().estimate(&WireFabric::high_speed());
        let f = hs.net_blocked_mm2() / hs.die_area_mm2;
        assert!(f > 0.0 && f < 0.2, "fraction {f}");
    }

    #[test]
    fn bandwidth_scales_with_lanes() {
        let one = FloorplanSpec {
            ring_lanes: 1,
            ..spec()
        }
        .estimate(&WireFabric::high_speed());
        let two = spec().estimate(&WireFabric::high_speed());
        assert!((two.bandwidth_gbs - 2.0 * one.bandwidth_gbs).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_frequency() {
        let mut s = spec();
        s.freq_ghz = 0.0;
        let _ = s.estimate(&WireFabric::high_dense());
    }
}
