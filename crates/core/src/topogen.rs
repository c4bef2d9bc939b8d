//! Generative topology builders: grids, tori, hierarchical rings.
//!
//! The paper's "application defined" flow (§2.1) snaps chiplet
//! primitives into arbitrary fabrics, but hand-writing a [`SocSpec`]
//! caps every test at a couple of topologies. This module generates
//! whole *families* of fabrics from a handful of parameters and a seed:
//!
//! * [`GridParams`] — K×M chiplet grids (one ring per die, RBRG-L2
//!   d2d links to the east/south neighbours), with optional torus
//!   wrap-around;
//! * [`HierRingParams`] — hierarchical rings: N local rings joined by
//!   one global transit ring via RBRG-L2 bridges (the deflection-ring
//!   hierarchy of Ausavarungnirun et al.).
//!
//! Every generator emits a **validated** [`SocSpec`]: bridge endpoints
//! are packed one-per-station from the top of each ring, devices are
//! placed deterministically from the seed on the remaining stations,
//! and [`SocSpec::validate`] (port occupancy + reachability) runs
//! before the spec is handed out. Its `network` is
//! [`NetworkConfig::default`]. Degenerate parameters come back as
//! typed [`TopoGenError`]s, never panics — which is what lets a
//! property-fuzz harness sample the parameter space blindly.
//!
//! # Example
//!
//! ```
//! use noc_core::topogen::GridParams;
//!
//! let (net, names) = GridParams::torus(4, 4).with_seed(7).build()?;
//! assert_eq!(net.topology().chiplets().len(), 16);
//! assert_eq!(net.topology().bridges().len(), 32); // 2·rows·cols wrap links
//! assert_eq!(names.len(), 32); // 2 devices per chiplet by default
//! # Ok::<(), noc_core::topogen::TopoGenError>(())
//! ```

use crate::config::{BridgeLevel, NetworkConfig};
use crate::ids::{NodeId, RingKind};
use crate::network::Network;
use crate::spec::{BridgeDef, ChipletDef, DeviceDef, EndpointRef, RingDef, SocSpec, SpecError};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Hard cap on generated chiplets ([`crate::ChipletId`] is a `u8`).
pub const MAX_CHIPLETS: usize = 256;

/// Errors from topology generators. Everything a fuzz harness can
/// provoke with degenerate parameters is a typed variant here — the
/// generators never panic on bad input.
#[derive(Debug)]
pub enum TopoGenError {
    /// A grid dimension was zero.
    EmptyGrid {
        /// Requested rows.
        rows: u16,
        /// Requested columns.
        cols: u16,
    },
    /// The fabric would exceed [`MAX_CHIPLETS`] dies.
    TooManyChiplets {
        /// Requested chiplet count.
        count: usize,
    },
    /// A ring is too small for its bridge endpoints plus requested
    /// devices (endpoints take one station each; devices two per
    /// remaining station).
    StationsTooSmall {
        /// The offending chiplet.
        chiplet: String,
        /// Stations the ring has.
        stations: u16,
        /// Stations the bridge endpoints alone consume.
        endpoints: u16,
        /// Devices requested on the ring.
        devices: u16,
    },
    /// No devices anywhere in the fabric — nothing could inject.
    NoDevices,
    /// The global ring has fewer stations than local rings to attach.
    GlobalRingTooSmall {
        /// Stations on the global ring.
        stations: u16,
        /// Local rings needing an endpoint each.
        locals: u16,
    },
    /// A hierarchy with zero local rings.
    EmptyHierarchy,
    /// The generated spec failed compilation (a generator bug if it
    /// ever surfaces from valid parameters; preserved for fuzzing).
    Spec(SpecError),
}

impl fmt::Display for TopoGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoGenError::EmptyGrid { rows, cols } => {
                write!(f, "empty grid: {rows}x{cols}")
            }
            TopoGenError::TooManyChiplets { count } => {
                write!(f, "{count} chiplets exceeds the {MAX_CHIPLETS} cap")
            }
            TopoGenError::StationsTooSmall {
                chiplet,
                stations,
                endpoints,
                devices,
            } => write!(
                f,
                "chiplet '{chiplet}': {stations} stations cannot host \
                 {endpoints} bridge endpoints + {devices} devices"
            ),
            TopoGenError::NoDevices => write!(f, "generated fabric has no devices"),
            TopoGenError::GlobalRingTooSmall { stations, locals } => write!(
                f,
                "global ring: {stations} stations < {locals} local-ring endpoints"
            ),
            TopoGenError::EmptyHierarchy => write!(f, "hierarchy has zero local rings"),
            TopoGenError::Spec(e) => write!(f, "generated spec failed validation: {e}"),
        }
    }
}

impl Error for TopoGenError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TopoGenError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for TopoGenError {
    fn from(e: SpecError) -> Self {
        TopoGenError::Spec(e)
    }
}

/// splitmix64 step — the workspace-standard deterministic stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stable per-chiplet seed derived from the master seed.
fn derive_seed(master: u64, salt: u64) -> u64 {
    let mut s = master ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix(&mut s)
}

/// Fisher–Yates-shuffled (station, port) slots over stations
/// `[0, free_stations)` — each station contributes its two node
/// interfaces, so the multiset holds every station twice.
fn shuffled_slots(free_stations: u16, seed: u64) -> Vec<u16> {
    let mut slots: Vec<u16> = (0..free_stations).flat_map(|s| [s, s]).collect();
    let mut state = seed;
    for i in (1..slots.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        slots.swap(i, j);
    }
    slots
}

/// Deterministic device placement: `count` devices named
/// `{prefix}.dev{i}` on seeded-shuffled slots below `free_stations`.
fn place_devices(prefix: &str, count: u16, free_stations: u16, seed: u64) -> Vec<DeviceDef> {
    let slots = shuffled_slots(free_stations, seed);
    (0..count as usize)
        .map(|i| DeviceDef {
            name: format!("{prefix}.dev{i}"),
            station: slots[i],
        })
        .collect()
}

/// Stations a ring must reserve for `endpoints` bridge endpoints plus
/// `devices` devices; `Err` carries the typed shortfall.
fn check_capacity(
    chiplet: &str,
    stations: u16,
    endpoints: u16,
    devices: u16,
) -> Result<(), TopoGenError> {
    let device_stations = devices.div_ceil(2);
    if stations < endpoints + device_stations {
        return Err(TopoGenError::StationsTooSmall {
            chiplet: chiplet.to_string(),
            stations,
            endpoints,
            devices,
        });
    }
    Ok(())
}

/// Parameters for a K×M chiplet grid (optionally a torus).
///
/// Each grid cell is one chiplet carrying one ring. Neighbouring cells
/// are joined by d2d bridges: east-west links along rows, north-south
/// links along columns, and (when `wrap` is set) wrap-around links
/// closing each row and column into a torus. Wrap links on a dimension
/// of size 1 would be self-bridges and are skipped; on a dimension of
/// size 2 they form legal parallel bridges (a doubled link, as in real
/// 2-ary tori).
///
/// Bridge endpoints occupy stations `stations-1, stations-2, …` of
/// each ring (one endpoint per station); devices are placed on the
/// stations below that region, shuffled deterministically from `seed`.
/// Every bridge is an RBRG-L2 at the level's defaults; a fabric with,
/// say, slower wrap-around links sets `latency` on those entries of the
/// generated spec's [`SocSpec::bridges`].
#[derive(Debug, Clone)]
pub struct GridParams {
    /// Fabric name (becomes [`SocSpec::name`]).
    pub name: String,
    /// Grid rows.
    pub rows: u16,
    /// Grid columns.
    pub cols: u16,
    /// Stations per ring.
    pub stations: u16,
    /// Ring kind for every die.
    pub kind: RingKind,
    /// Devices per chiplet.
    pub devices_per_chiplet: u16,
    /// Close rows and columns into a torus.
    pub wrap: bool,
    /// Seed for deterministic device placement.
    pub seed: u64,
}

impl GridParams {
    /// A plain (non-wrapping) grid with workable defaults: 8 stations
    /// per full ring, 2 devices per chiplet, L2 links everywhere.
    pub fn grid(rows: u16, cols: u16) -> Self {
        GridParams {
            name: format!("grid-{rows}x{cols}"),
            rows,
            cols,
            stations: 8,
            kind: RingKind::Full,
            devices_per_chiplet: 2,
            wrap: false,
            seed: 1,
        }
    }

    /// Like [`GridParams::grid`] but with torus wrap-around.
    pub fn torus(rows: u16, cols: u16) -> Self {
        let mut p = Self::grid(rows, cols);
        p.name = format!("torus-{rows}x{cols}");
        p.wrap = true;
        p
    }

    /// Set stations per ring.
    pub fn with_stations(mut self, stations: u16) -> Self {
        self.stations = stations;
        self
    }

    /// Set the ring kind for every die.
    pub fn with_kind(mut self, kind: RingKind) -> Self {
        self.kind = kind;
        self
    }

    /// Set devices per chiplet.
    pub fn with_devices(mut self, devices_per_chiplet: u16) -> Self {
        self.devices_per_chiplet = devices_per_chiplet;
        self
    }

    /// Set the placement seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Canonical name of the chiplet at `(row, col)`.
    pub fn chiplet_name(row: u16, col: u16) -> String {
        format!("d{row}x{col}")
    }

    /// Bridge endpoints the chiplet at `(row, col)` hosts.
    fn degree(&self, row: u16, col: u16) -> u16 {
        let axis = |pos: u16, len: u16| -> u16 {
            if len < 2 {
                0
            } else if self.wrap {
                2
            } else {
                let mut d = 0;
                if pos > 0 {
                    d += 1;
                }
                if pos + 1 < len {
                    d += 1;
                }
                d
            }
        };
        axis(col, self.cols) + axis(row, self.rows)
    }

    /// Generate and validate the grid spec.
    ///
    /// # Errors
    ///
    /// Typed [`TopoGenError`]s for every degenerate parameter
    /// combination; never panics.
    pub fn generate(&self) -> Result<SocSpec, TopoGenError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(TopoGenError::EmptyGrid {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let count = self.rows as usize * self.cols as usize;
        if count > MAX_CHIPLETS {
            return Err(TopoGenError::TooManyChiplets { count });
        }
        if self.devices_per_chiplet == 0 {
            return Err(TopoGenError::NoDevices);
        }
        for row in 0..self.rows {
            for col in 0..self.cols {
                check_capacity(
                    &Self::chiplet_name(row, col),
                    self.stations,
                    self.degree(row, col),
                    self.devices_per_chiplet,
                )?;
            }
        }

        let mut chiplets = Vec::with_capacity(count);
        for row in 0..self.rows {
            for col in 0..self.cols {
                let name = Self::chiplet_name(row, col);
                let deg = self.degree(row, col);
                let free = self.stations - deg;
                let salt = row as u64 * self.cols as u64 + col as u64;
                let devices = place_devices(
                    &name,
                    self.devices_per_chiplet,
                    free,
                    derive_seed(self.seed, salt),
                );
                chiplets.push(ChipletDef {
                    name,
                    rings: vec![RingDef {
                        kind: self.kind,
                        stations: self.stations,
                        devices,
                    }],
                });
            }
        }

        // Endpoint stations are handed out from the top of each ring,
        // one per station, in the deterministic edge order below.
        let mut next_ep = vec![self.stations; count];
        let mut endpoint = |idx: usize| -> EndpointRef {
            next_ep[idx] -= 1;
            EndpointRef {
                chiplet: chiplets[idx].name.clone(),
                ring: 0,
                station: next_ep[idx],
            }
        };
        let at = |row: u16, col: u16| -> usize { row as usize * self.cols as usize + col as usize };

        let mut bridges = Vec::new();
        let mut link = |a: usize, b: usize| {
            let (a, b) = (endpoint(a), endpoint(b));
            bridges.push(BridgeDef::new(BridgeLevel::L2, a, b));
        };
        for row in 0..self.rows {
            for col in 0..self.cols {
                if col + 1 < self.cols {
                    link(at(row, col), at(row, col + 1));
                }
                if row + 1 < self.rows {
                    link(at(row, col), at(row + 1, col));
                }
            }
        }
        if self.wrap {
            if self.cols >= 2 {
                for row in 0..self.rows {
                    link(at(row, self.cols - 1), at(row, 0));
                }
            }
            if self.rows >= 2 {
                for col in 0..self.cols {
                    link(at(self.rows - 1, col), at(0, col));
                }
            }
        }

        let spec = SocSpec {
            name: self.name.clone(),
            chiplets,
            bridges,
            network: NetworkConfig::default(),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Generate, validate and instantiate the fabric.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`GridParams::generate`].
    pub fn build(&self) -> Result<(Network, HashMap<String, NodeId>), TopoGenError> {
        Ok(self.generate()?.build()?)
    }
}

/// Ring kind of a hierarchy's global transit ring.
const GLOBAL_KIND: RingKind = RingKind::Full;

/// Parameters for a hierarchical-ring fabric: `locals` local rings
/// (one chiplet each) joined by one global transit ring on a hub
/// chiplet via RBRG-L2 bridges — the hierarchical deflection-ring
/// arrangement of Ausavarungnirun et al.
///
/// Each local ring's bridge endpoint sits at its last station; the
/// matching global-ring endpoints are spread evenly around the global
/// ring. Devices live only on local rings (the global ring is pure
/// transit), placed deterministically from `seed`.
#[derive(Debug, Clone)]
pub struct HierRingParams {
    /// Fabric name (becomes [`SocSpec::name`]).
    pub name: String,
    /// Number of local rings.
    pub locals: u16,
    /// Stations per local ring.
    pub local_stations: u16,
    /// Stations on the global ring (must be ≥ `locals`).
    pub global_stations: u16,
    /// Devices per local ring.
    pub devices_per_local: u16,
    /// Ring kind for local rings.
    pub local_kind: RingKind,
    /// Seed for deterministic device placement.
    pub seed: u64,
}

impl HierRingParams {
    /// A hierarchy with workable defaults: 8-station full local rings,
    /// 2 devices each, a full global ring just big enough for the
    /// endpoints, L2 bridges.
    pub fn new(locals: u16) -> Self {
        HierRingParams {
            name: format!("hier-{locals}"),
            locals,
            local_stations: 8,
            global_stations: locals.max(4),
            devices_per_local: 2,
            local_kind: RingKind::Full,
            seed: 1,
        }
    }

    /// Set stations per local ring.
    pub fn with_local_stations(mut self, stations: u16) -> Self {
        self.local_stations = stations;
        self
    }

    /// Set stations on the global ring.
    pub fn with_global_stations(mut self, stations: u16) -> Self {
        self.global_stations = stations;
        self
    }

    /// Set devices per local ring.
    pub fn with_devices(mut self, devices_per_local: u16) -> Self {
        self.devices_per_local = devices_per_local;
        self
    }

    /// Set the placement seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generate and validate the hierarchy spec.
    ///
    /// # Errors
    ///
    /// Typed [`TopoGenError`]s for every degenerate parameter
    /// combination; never panics.
    pub fn generate(&self) -> Result<SocSpec, TopoGenError> {
        if self.locals == 0 {
            return Err(TopoGenError::EmptyHierarchy);
        }
        let count = self.locals as usize + 1;
        if count > MAX_CHIPLETS {
            return Err(TopoGenError::TooManyChiplets { count });
        }
        if self.global_stations < self.locals {
            return Err(TopoGenError::GlobalRingTooSmall {
                stations: self.global_stations,
                locals: self.locals,
            });
        }
        if self.devices_per_local == 0 {
            return Err(TopoGenError::NoDevices);
        }
        for i in 0..self.locals {
            check_capacity(
                &format!("cluster{i}"),
                self.local_stations,
                1,
                self.devices_per_local,
            )?;
        }

        let mut chiplets = vec![ChipletDef {
            name: "hub".to_string(),
            rings: vec![RingDef {
                kind: GLOBAL_KIND,
                stations: self.global_stations,
                devices: Vec::new(),
            }],
        }];
        let mut bridges = Vec::with_capacity(self.locals as usize);
        for i in 0..self.locals {
            let name = format!("cluster{i}");
            let devices = place_devices(
                &name,
                self.devices_per_local,
                self.local_stations - 1,
                derive_seed(self.seed, i as u64),
            );
            chiplets.push(ChipletDef {
                name: name.clone(),
                rings: vec![RingDef {
                    kind: self.local_kind,
                    stations: self.local_stations,
                    devices,
                }],
            });
            // Even spread: strictly increasing while global ≥ locals.
            let g_station = (i as u64 * self.global_stations as u64 / self.locals as u64) as u16;
            bridges.push(BridgeDef::new(
                BridgeLevel::L2,
                EndpointRef {
                    chiplet: name,
                    ring: 0,
                    station: self.local_stations - 1,
                },
                EndpointRef {
                    chiplet: "hub".to_string(),
                    ring: 0,
                    station: g_station,
                },
            ));
        }

        let spec = SocSpec {
            name: self.name.clone(),
            chiplets,
            bridges,
            network: NetworkConfig::default(),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Generate, validate and instantiate the fabric.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`HierRingParams::generate`].
    pub fn build(&self) -> Result<(Network, HashMap<String, NodeId>), TopoGenError> {
        Ok(self.generate()?.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_3x3_shape() {
        let spec = GridParams::grid(3, 3).generate().unwrap();
        assert_eq!(spec.chiplets.len(), 9);
        // 2·rows·cols − rows − cols internal edges.
        assert_eq!(spec.bridges.len(), 12);
        assert_eq!(spec.total_stations(), 9 * 8);
        assert_eq!(spec.total_devices(), 18);
        let topo = spec.validate().unwrap();
        assert_eq!(topo.total_stations(), 72);
    }

    #[test]
    fn torus_3x3_adds_wrap_links() {
        let spec = GridParams::torus(3, 3).generate().unwrap();
        assert_eq!(spec.bridges.len(), 18); // 2·rows·cols
        let topo = spec.validate().unwrap();
        // Uniform degree 4 on a torus.
        for ring in topo.rings() {
            assert_eq!(topo.ring_degree(ring.id), 4);
        }
    }

    #[test]
    fn torus_2x2_uses_parallel_wrap_links() {
        let spec = GridParams::torus(2, 2).generate().unwrap();
        assert_eq!(spec.bridges.len(), 8);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn one_by_k_grid_is_a_chain() {
        let spec = GridParams::grid(1, 4).generate().unwrap();
        assert_eq!(spec.bridges.len(), 3);
        assert!(spec.validate().is_ok());
        // Wrap on the length-1 dimension is skipped, the length-4 one kept.
        let torus = GridParams::torus(1, 4).generate().unwrap();
        assert_eq!(torus.bridges.len(), 4);
    }

    #[test]
    fn single_cell_grid_has_no_bridges() {
        let spec = GridParams::grid(1, 1).generate().unwrap();
        assert!(spec.bridges.is_empty());
        let (net, names) = GridParams::grid(1, 1).build().unwrap();
        assert_eq!(names.len(), 2);
        assert_eq!(net.topology().rings().len(), 1);
    }

    #[test]
    fn placement_is_seed_deterministic() {
        let a = GridParams::torus(3, 2).with_seed(42).generate().unwrap();
        let b = GridParams::torus(3, 2).with_seed(42).generate().unwrap();
        assert_eq!(a, b);
        let c = GridParams::torus(3, 2).with_seed(43).generate().unwrap();
        let stations = |s: &SocSpec| -> Vec<u16> {
            s.chiplets
                .iter()
                .flat_map(|c| c.rings[0].devices.iter().map(|d| d.station))
                .collect()
        };
        assert_ne!(stations(&a), stations(&c), "seed must move devices");
    }

    #[test]
    fn rejects_empty_grid() {
        assert!(matches!(
            GridParams::grid(0, 4).generate(),
            Err(TopoGenError::EmptyGrid { rows: 0, cols: 4 })
        ));
        assert!(matches!(
            GridParams::grid(4, 0).generate(),
            Err(TopoGenError::EmptyGrid { .. })
        ));
    }

    #[test]
    fn rejects_too_many_chiplets() {
        assert!(matches!(
            GridParams::grid(17, 17).generate(),
            Err(TopoGenError::TooManyChiplets { count: 289 })
        ));
    }

    #[test]
    fn rejects_stations_too_small_for_endpoints() {
        // Interior torus die needs 4 endpoint stations + 1 device station.
        let err = GridParams::torus(3, 3)
            .with_stations(4)
            .generate()
            .unwrap_err();
        assert!(matches!(err, TopoGenError::StationsTooSmall { .. }));
    }

    #[test]
    fn rejects_zero_devices() {
        assert!(matches!(
            GridParams::grid(2, 2).with_devices(0).generate(),
            Err(TopoGenError::NoDevices)
        ));
    }

    #[test]
    fn grid_traffic_crosses_the_fabric() {
        let (mut net, names) = GridParams::torus(2, 3).with_seed(5).build().unwrap();
        let src = names["d0x0.dev0"];
        let dst = names["d1x2.dev1"];
        net.enqueue(src, dst, crate::FlitClass::Data, 64, 77)
            .unwrap();
        for _ in 0..500 {
            net.tick();
        }
        let got = net.pop_delivered(dst).expect("delivered across the grid");
        assert_eq!(got.token, 77);
        assert!(got.ring_changes >= 1);
    }

    #[test]
    fn hierarchy_shape_and_traffic() {
        let params = HierRingParams::new(4).with_seed(9);
        let spec = params.generate().unwrap();
        assert_eq!(spec.chiplets.len(), 5);
        assert_eq!(spec.bridges.len(), 4);
        assert!(
            spec.chiplets[0].rings[0].devices.is_empty(),
            "hub is transit"
        );
        let (mut net, names) = params.build().unwrap();
        let src = names["cluster0.dev0"];
        let dst = names["cluster3.dev1"];
        net.enqueue(src, dst, crate::FlitClass::Data, 64, 5)
            .unwrap();
        for _ in 0..500 {
            net.tick();
        }
        let got = net.pop_delivered(dst).expect("delivered via global ring");
        // local → global → local.
        assert_eq!(got.ring_changes, 2);
    }

    #[test]
    fn hierarchy_rejects_degenerates() {
        assert!(matches!(
            HierRingParams::new(0).generate(),
            Err(TopoGenError::EmptyHierarchy)
        ));
        assert!(matches!(
            HierRingParams::new(8).with_global_stations(4).generate(),
            Err(TopoGenError::GlobalRingTooSmall {
                stations: 4,
                locals: 8
            })
        ));
        assert!(matches!(
            HierRingParams::new(2).with_devices(0).generate(),
            Err(TopoGenError::NoDevices)
        ));
        assert!(matches!(
            HierRingParams::new(2).with_local_stations(1).generate(),
            Err(TopoGenError::StationsTooSmall { .. })
        ));
        assert!(matches!(
            HierRingParams::new(300).generate(),
            Err(TopoGenError::TooManyChiplets { count: 301 })
        ));
    }

    #[test]
    fn error_display_and_source() {
        let e = GridParams::grid(0, 1).generate().unwrap_err();
        assert!(e.to_string().contains("empty grid"));
        assert!(e.source().is_none());
        let spec_err = TopoGenError::from(SpecError::UnknownChiplet("x".into()));
        assert!(spec_err.source().is_some());
    }

    #[test]
    fn acceptance_scale_64_chiplets_1024_stations() {
        let spec = GridParams::torus(8, 8)
            .with_stations(16)
            .with_seed(2022)
            .generate()
            .unwrap();
        assert_eq!(spec.chiplets.len(), 64);
        assert_eq!(spec.total_stations(), 1024);
        assert_eq!(spec.bridges.len(), 128);
        assert!(spec.validate().is_ok());
    }
}
