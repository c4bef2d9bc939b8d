//! Wire fabric parameters (paper Table 4) and per-link budgets.

use serde::{Deserialize, Serialize};

/// What may be placed underneath/over a wire fabric region (Table 4's
/// "Over" column; see also Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OverlapUse {
    /// High-dense wires are nearly continuous metal: nothing can be
    /// placed beneath them — they block the floorplan.
    Nothing,
    /// High-speed wires only occupy intermittent regions; SRAM blocks
    /// fit into the stride slots.
    Sram,
}

/// A metal wire fabric available to the NoC's physical implementation.
///
/// All relative quantities (`rel_*`) are normalised to the high-dense
/// Mx-My fabric, exactly as Table 4 reports them.
///
/// # Example
///
/// ```
/// use noc_fabric::WireFabric;
/// let hs = WireFabric::high_speed();
/// assert_eq!(hs.jump_um(3.0), 1800.0);
/// // Halving the frequency doubles the reachable distance.
/// assert_eq!(hs.jump_um(1.5), 3600.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireFabric {
    name: String,
    /// Metal layer description ("Mx-My" or "My").
    metal: String,
    /// Wire width relative to the high-dense fabric.
    rel_width: f64,
    /// Wire pitch relative to the high-dense fabric.
    rel_pitch: f64,
    /// Bus width (bits carried per unit routing width) relative to the
    /// high-dense fabric.
    rel_bus_width: f64,
    /// Distance a signal travels in one cycle at 3 GHz, in µm.
    jump_um_at_3ghz: f64,
    /// Length of the stride slot between wire segments, in µm.
    stride_um: f64,
    /// What can live underneath the fabric.
    over: OverlapUse,
}

impl WireFabric {
    /// The high-density Mx-My fabric from Table 4.
    pub fn high_dense() -> Self {
        WireFabric {
            name: "high-dense".into(),
            metal: "Mx-My".into(),
            rel_width: 1.0,
            rel_pitch: 1.0,
            rel_bus_width: 1.0,
            jump_um_at_3ghz: 600.0,
            stride_um: 0.0,
            over: OverlapUse::Nothing,
        }
    }

    /// The high-speed My fabric from Table 4.
    pub fn high_speed() -> Self {
        WireFabric {
            name: "high-speed".into(),
            metal: "My".into(),
            rel_width: 3.0,
            rel_pitch: 3.5,
            rel_bus_width: 2.5,
            jump_um_at_3ghz: 1800.0,
            stride_um: 200.0,
            over: OverlapUse::Sram,
        }
    }

    /// Fabric name ("high-dense" or "high-speed").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Metal layer label.
    pub fn metal(&self) -> &str {
        &self.metal
    }

    /// Relative wire width (Table 4 "Width").
    pub fn rel_width(&self) -> f64 {
        self.rel_width
    }

    /// Relative wire pitch (Table 4 "Pitch").
    pub fn rel_pitch(&self) -> f64 {
        self.rel_pitch
    }

    /// Relative bus width (Table 4 "Bus Width").
    pub fn rel_bus_width(&self) -> f64 {
        self.rel_bus_width
    }

    /// Stride slot length in µm (Table 4 "Stride").
    pub fn stride_um(&self) -> f64 {
        self.stride_um
    }

    /// What can be placed over/under the fabric (Table 4 "Over").
    pub fn over(&self) -> OverlapUse {
        self.over
    }

    /// Distance one cycle covers at frequency `freq_ghz`, in µm.
    ///
    /// Wire delay is dominated by RC through repeated segments, so
    /// reachable distance scales inversely with frequency around the
    /// calibration point.
    ///
    /// # Panics
    ///
    /// Panics if `freq_ghz` is not positive.
    pub fn jump_um(&self, freq_ghz: f64) -> f64 {
        assert!(freq_ghz > 0.0, "frequency must be positive");
        self.jump_um_at_3ghz * 3.0 / freq_ghz
    }

    /// The paper's co-design metric: **distance per clock cycle**, in mm.
    pub fn distance_per_cycle_mm(&self, freq_ghz: f64) -> f64 {
        self.jump_um(freq_ghz) / 1000.0
    }

    /// Physical routing width, in µm, of a bus carrying `bits` signals,
    /// given the technology's base track pitch for the high-dense fabric.
    ///
    /// The high-speed fabric needs `rel_pitch` times more pitch per wire
    /// but carries `rel_bus_width` more bits per unit area budget, so the
    /// net footprint ratio is `rel_pitch / rel_bus_width`.
    pub fn bus_routing_width_um(&self, bits: u32, base_pitch_um: f64) -> f64 {
        assert!(base_pitch_um > 0.0);
        bits as f64 * base_pitch_um * self.rel_pitch / self.rel_bus_width
    }

    /// Number of repeater/pipeline stations a straight link of
    /// `length_um` needs at `freq_ghz` (at least 1 cycle for any
    /// non-zero length).
    pub fn stations_for(&self, length_um: f64, freq_ghz: f64) -> u32 {
        if length_um <= 0.0 {
            return 0;
        }
        (length_um / self.jump_um(freq_ghz)).ceil() as u32
    }

    /// Fraction of a link's footprint available as stride slots (usable
    /// for SRAM under the high-speed fabric; zero for high-dense).
    pub fn stride_fraction(&self) -> f64 {
        let segment = self.jump_um_at_3ghz;
        if self.stride_um <= 0.0 {
            0.0
        } else {
            self.stride_um / (segment + self.stride_um)
        }
    }
}

/// The cycle/station budget of one physical link on a given fabric.
///
/// # Example
///
/// ```
/// use noc_fabric::{LinkBudget, WireFabric};
/// let b = LinkBudget::for_length(&WireFabric::high_dense(), 1500.0, 3.0);
/// assert_eq!(b.cycles, 3); // 1500 µm at 600 µm/cycle → 3 pipeline jumps
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Link length in µm.
    pub length_um: f64,
    /// Pipeline cycles (= repeater stations) needed for timing closure.
    pub cycles: u32,
    /// Distance actually covered per cycle for this link, in mm.
    pub distance_per_cycle_mm: f64,
}

impl LinkBudget {
    /// Budget a straight link of `length_um` at `freq_ghz`.
    pub fn for_length(fabric: &WireFabric, length_um: f64, freq_ghz: f64) -> Self {
        let cycles = fabric.stations_for(length_um, freq_ghz).max(1);
        LinkBudget {
            length_um,
            cycles,
            distance_per_cycle_mm: length_um / cycles as f64 / 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_constants() {
        let hd = WireFabric::high_dense();
        let hs = WireFabric::high_speed();
        assert_eq!(hd.jump_um(3.0), 600.0);
        assert_eq!(hs.jump_um(3.0), 1800.0);
        assert_eq!(hd.stride_um(), 0.0);
        assert_eq!(hs.stride_um(), 200.0);
        assert_eq!(hd.over(), OverlapUse::Nothing);
        assert_eq!(hs.over(), OverlapUse::Sram);
        assert_eq!(hs.rel_width(), 3.0);
        assert_eq!(hs.rel_pitch(), 3.5);
        assert_eq!(hs.rel_bus_width(), 2.5);
    }

    #[test]
    fn jump_scales_with_frequency() {
        let hs = WireFabric::high_speed();
        assert!((hs.jump_um(6.0) - 900.0).abs() < 1e-9);
        assert!((hs.distance_per_cycle_mm(3.0) - 1.8).abs() < 1e-12);
    }

    #[test]
    fn stations_round_up() {
        let hd = WireFabric::high_dense();
        assert_eq!(hd.stations_for(0.0, 3.0), 0);
        assert_eq!(hd.stations_for(600.0, 3.0), 1);
        assert_eq!(hd.stations_for(601.0, 3.0), 2);
        assert_eq!(hd.stations_for(6000.0, 3.0), 10);
    }

    #[test]
    fn high_speed_needs_three_times_fewer_stations() {
        let hd = WireFabric::high_dense();
        let hs = WireFabric::high_speed();
        let l = 18_000.0;
        assert_eq!(hd.stations_for(l, 3.0), 3 * hs.stations_for(l, 3.0));
    }

    #[test]
    fn bus_width_footprint_ratio() {
        // The high-speed fabric's footprint per bit is 3.5/2.5 = 1.4x the
        // high-dense fabric's.
        let hd = WireFabric::high_dense();
        let hs = WireFabric::high_speed();
        let ratio = hs.bus_routing_width_um(512, 0.1) / hd.bus_routing_width_um(512, 0.1);
        assert!((ratio - 1.4).abs() < 1e-9);
    }

    #[test]
    fn stride_fraction() {
        assert_eq!(WireFabric::high_dense().stride_fraction(), 0.0);
        let f = WireFabric::high_speed().stride_fraction();
        assert!((f - 0.1).abs() < 1e-9); // 200 / (1800 + 200)
    }

    #[test]
    fn link_budget_minimum_one_cycle() {
        let b = LinkBudget::for_length(&WireFabric::high_speed(), 10.0, 3.0);
        assert_eq!(b.cycles, 1);
    }
}
