//! Application-defined SoC specifications.
//!
//! The paper's title promise — *application defined* on-chip networks —
//! is a Lego-like flow (§2.1): application teams pick chiplet
//! primitives and snap them together. This module is that flow as data:
//! a serializable [`SocSpec`] describing chiplets, rings, devices and
//! bridges, compiled into a validated [`Network`].
//!
//! # Example
//!
//! ```
//! use noc_core::spec::SocSpec;
//!
//! let json = r#"{
//!   "name": "mini-nic",
//!   "chiplets": [
//!     { "name": "cpu-die", "rings": [
//!       { "kind": "Full", "stations": 4,
//!         "devices": [ { "name": "cpu0", "station": 0 },
//!                      { "name": "ddr", "station": 2 } ] } ] },
//!     { "name": "io-die", "rings": [
//!       { "kind": "Half", "stations": 4,
//!         "devices": [ { "name": "eth", "station": 1 } ] } ] }
//!   ],
//!   "bridges": [
//!     { "level": "L2",
//!       "a": { "chiplet": "cpu-die", "ring": 0, "station": 3 },
//!       "b": { "chiplet": "io-die", "ring": 0, "station": 0 } }
//!   ]
//! }"#;
//!
//! let spec = SocSpec::from_json(json)?;
//! let (mut net, names) = spec.build()?;
//! let cpu = names["cpu0"];
//! let eth = names["eth"];
//! net.enqueue(cpu, eth, noc_core::FlitClass::Data, 64, 1).unwrap();
//! while net.in_flight() > 0 { net.tick(); }
//! assert!(net.pop_delivered(eth).is_some());
//! # Ok::<(), noc_core::spec::SpecError>(())
//! ```

use crate::config::{BridgeConfig, BridgeLevel, NetworkConfig};
use crate::error::TopologyError;
use crate::ids::{NodeId, RingKind};
use crate::network::Network;
use crate::topology::{Topology, TopologyBuilder};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A device placed on a ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceDef {
    /// Unique device name (the key into the built name map).
    pub name: String,
    /// Station index on the owning ring.
    pub station: u16,
}

/// One ring of a chiplet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingDef {
    /// Half or Full.
    pub kind: RingKind,
    /// Station count.
    pub stations: u16,
    /// Devices attached to this ring.
    #[serde(default)]
    pub devices: Vec<DeviceDef>,
}

/// One chiplet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChipletDef {
    /// Chiplet name (referenced by bridges).
    pub name: String,
    /// The chiplet's rings.
    pub rings: Vec<RingDef>,
}

/// One end of a bridge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EndpointRef {
    /// Chiplet name.
    pub chiplet: String,
    /// Ring index within the chiplet.
    pub ring: usize,
    /// Station on that ring.
    pub station: u16,
}

/// A bridge between two rings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BridgeDef {
    /// RBRG level; defaults (latency, buffering, SWAP) follow
    /// [`BridgeConfig::l1`]/[`BridgeConfig::l2`].
    pub level: BridgeLevel,
    /// First endpoint.
    pub a: EndpointRef,
    /// Second endpoint.
    pub b: EndpointRef,
    /// Optional latency override (cycles).
    #[serde(default)]
    pub latency: Option<u32>,
    /// Optional buffer-capacity override (flits).
    #[serde(default)]
    pub buffer_cap: Option<usize>,
    /// Optional transfer-width override (flits per cycle).
    #[serde(default)]
    pub width: Option<u32>,
}

impl BridgeDef {
    /// A bridge between `a` and `b` with every parameter at `level`'s
    /// defaults.
    pub fn new(level: BridgeLevel, a: EndpointRef, b: EndpointRef) -> Self {
        BridgeDef {
            level,
            a,
            b,
            latency: None,
            buffer_cap: None,
            width: None,
        }
    }
}

/// A complete application-defined SoC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocSpec {
    /// SoC name.
    pub name: String,
    /// Chiplets in placement order.
    pub chiplets: Vec<ChipletDef>,
    /// Bridges between rings.
    #[serde(default)]
    pub bridges: Vec<BridgeDef>,
    /// Network parameters (queue capacities and the I-tag threshold).
    #[serde(default)]
    pub network: NetworkConfig,
}

/// The largest `network.inject_queue_cap` / `eject_queue_cap` a spec
/// may ask for: 65 536 flits. The engine allocates every node's queues
/// up front, so a cap is memory spent per device; this bound keeps a
/// mistyped capacity from aborting the process on allocation, and sits
/// far above any queue depth the paper's interfaces model (2–16).
pub const MAX_QUEUE_CAP: usize = 1 << 16;

/// Errors from parsing or compiling a [`SocSpec`].
#[derive(Debug)]
pub enum SpecError {
    /// The JSON was malformed.
    Parse(serde_json::Error),
    /// A bridge referenced an unknown chiplet name.
    UnknownChiplet(String),
    /// A bridge referenced a ring index a chiplet doesn't have.
    UnknownRing {
        /// The chiplet.
        chiplet: String,
        /// The out-of-range ring index.
        ring: usize,
    },
    /// Two devices share a name.
    DuplicateDevice(String),
    /// A `network` queue capacity (`inject_queue_cap` or
    /// `eject_queue_cap`) is 0: no node interface could hold a flit.
    ZeroQueueCap(&'static str),
    /// A `network` queue capacity exceeds [`MAX_QUEUE_CAP`]: more than
    /// the engine will allocate per node.
    QueueCapTooLarge(&'static str),
    /// The underlying topology was invalid.
    Topology(TopologyError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "spec parse error: {e}"),
            SpecError::UnknownChiplet(name) => write!(f, "unknown chiplet '{name}'"),
            SpecError::UnknownRing { chiplet, ring } => {
                write!(f, "chiplet '{chiplet}' has no ring {ring}")
            }
            SpecError::DuplicateDevice(name) => write!(f, "duplicate device name '{name}'"),
            SpecError::ZeroQueueCap(field) => write!(f, "network.{field} must be at least 1"),
            SpecError::QueueCapTooLarge(field) => {
                write!(f, "network.{field} must be at most {MAX_QUEUE_CAP}")
            }
            SpecError::Topology(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl Error for SpecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpecError::Parse(e) => Some(e),
            SpecError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for SpecError {
    fn from(e: TopologyError) -> Self {
        SpecError::Topology(e)
    }
}

impl SocSpec {
    /// Parse a spec from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on malformed input.
    pub fn from_json(s: &str) -> Result<Self, SpecError> {
        serde_json::from_str(s).map_err(SpecError::Parse)
    }

    /// Serialize the spec to pretty JSON.
    ///
    /// # Errors
    ///
    /// Practically infallible for this type.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Total cross stations across every ring of the spec (before
    /// compilation — the sum of the declared `stations` fields).
    pub fn total_stations(&self) -> u64 {
        self.chiplets
            .iter()
            .flat_map(|c| c.rings.iter())
            .map(|r| r.stations as u64)
            .sum()
    }

    /// Total devices declared across every ring of the spec.
    pub fn total_devices(&self) -> usize {
        self.chiplets
            .iter()
            .flat_map(|c| c.rings.iter())
            .map(|r| r.devices.len())
            .sum()
    }

    /// Compile and validate the topology only — every check
    /// [`SocSpec::build`] performs (dangling bridge references,
    /// duplicate device names, port occupancy, reachability, zero queue
    /// or bridge capacities) without
    /// instantiating the runtime network. This is what generators call
    /// to certify a spec before handing it out.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SocSpec::build`].
    pub fn validate(&self) -> Result<Topology, SpecError> {
        self.compile().map(|(topo, _)| topo)
    }

    /// Compile the spec into a validated [`Topology`] plus a
    /// device-name → [`NodeId`] map.
    ///
    /// Devices are numbered `NodeId(0)..NodeId(n)` in declaration order
    /// (chiplet by chiplet, ring by ring, device by device); bridge
    /// endpoints follow, two per bridge in `bridges` order. A generator
    /// that declares devices may therefore record their ids as it goes.
    ///
    /// # Errors
    ///
    /// Fails on a zero or over-[`MAX_QUEUE_CAP`] queue capacity in
    /// `network`, dangling bridge
    /// references, duplicate device names, or any topology-level
    /// violation (occupied ports, unreachable rings, zero bridge
    /// capacity).
    pub fn compile(&self) -> Result<(Topology, HashMap<String, NodeId>), SpecError> {
        for (field, cap) in [
            ("inject_queue_cap", self.network.inject_queue_cap),
            ("eject_queue_cap", self.network.eject_queue_cap),
        ] {
            if cap == 0 {
                return Err(SpecError::ZeroQueueCap(field));
            }
            if cap > MAX_QUEUE_CAP {
                return Err(SpecError::QueueCapTooLarge(field));
            }
        }
        let mut b = TopologyBuilder::new();
        let mut names = HashMap::new();
        // chiplet name -> ring handles
        let mut rings: HashMap<&str, Vec<crate::ids::RingId>> = HashMap::new();
        for chiplet in &self.chiplets {
            let cid = b.add_chiplet(chiplet.name.clone());
            let mut handles = Vec::new();
            for ring in &chiplet.rings {
                let rid = b.add_ring(cid, ring.kind, ring.stations)?;
                handles.push(rid);
                for dev in &ring.devices {
                    let node = b.add_node(dev.name.clone(), rid, dev.station)?;
                    if names.insert(dev.name.clone(), node).is_some() {
                        return Err(SpecError::DuplicateDevice(dev.name.clone()));
                    }
                }
            }
            rings.insert(chiplet.name.as_str(), handles);
        }
        let resolve = |ep: &EndpointRef| -> Result<crate::ids::RingId, SpecError> {
            let handles = rings
                .get(ep.chiplet.as_str())
                .ok_or_else(|| SpecError::UnknownChiplet(ep.chiplet.clone()))?;
            handles.get(ep.ring).copied().ok_or(SpecError::UnknownRing {
                chiplet: ep.chiplet.clone(),
                ring: ep.ring,
            })
        };
        for bridge in &self.bridges {
            let mut cfg = match bridge.level {
                BridgeLevel::L1 => BridgeConfig::l1(),
                BridgeLevel::L2 => BridgeConfig::l2(),
            };
            if let Some(lat) = bridge.latency {
                cfg = cfg.with_latency(lat);
            }
            if let Some(cap) = bridge.buffer_cap {
                cfg = cfg.with_buffer_cap(cap);
            }
            if let Some(width) = bridge.width {
                cfg = cfg.with_width(width);
            }
            let ra = resolve(&bridge.a)?;
            let rb = resolve(&bridge.b)?;
            b.add_bridge(cfg, ra, bridge.a.station, rb, bridge.b.station)?;
        }
        let topo = b.build()?;
        Ok((topo, names))
    }

    /// Compile the spec into a live [`Network`] plus a device-name →
    /// [`NodeId`] map.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SocSpec::compile`].
    pub fn build(&self) -> Result<(Network, HashMap<String, NodeId>), SpecError> {
        let (topo, names) = self.compile()?;
        Ok((Network::new(topo, self.network.clone()), names))
    }
}

/// The ids of a device-name map ([`SocSpec::compile`]'s second half) in
/// name order: a traffic schedule over this list does not depend on
/// the map's iteration order.
pub fn devices_by_name(names: &HashMap<String, NodeId>) -> Vec<NodeId> {
    let mut named: Vec<(&String, NodeId)> = names.iter().map(|(k, &v)| (k, v)).collect();
    named.sort_unstable();
    named.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_die_spec() -> SocSpec {
        SocSpec {
            name: "test".into(),
            chiplets: vec![
                ChipletDef {
                    name: "a".into(),
                    rings: vec![RingDef {
                        kind: RingKind::Full,
                        stations: 4,
                        devices: vec![
                            DeviceDef {
                                name: "cpu".into(),
                                station: 0,
                            },
                            DeviceDef {
                                name: "mem".into(),
                                station: 2,
                            },
                        ],
                    }],
                },
                ChipletDef {
                    name: "b".into(),
                    rings: vec![RingDef {
                        kind: RingKind::Half,
                        stations: 4,
                        devices: vec![DeviceDef {
                            name: "nic".into(),
                            station: 1,
                        }],
                    }],
                },
            ],
            bridges: vec![BridgeDef {
                level: BridgeLevel::L2,
                a: EndpointRef {
                    chiplet: "a".into(),
                    ring: 0,
                    station: 3,
                },
                b: EndpointRef {
                    chiplet: "b".into(),
                    ring: 0,
                    station: 0,
                },
                latency: Some(4),
                buffer_cap: None,
                width: None,
            }],
            network: NetworkConfig::default(),
        }
    }

    #[test]
    fn json_roundtrip_and_build() {
        let spec = two_die_spec();
        let json = spec.to_json().unwrap();
        let back = SocSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
        let (net, names) = back.build().unwrap();
        assert_eq!(names.len(), 3);
        assert_eq!(net.topology().chiplets().len(), 2);
        assert_eq!(net.topology().bridges().len(), 1);
        assert_eq!(net.topology().bridges()[0].config.latency, 4);
    }

    #[test]
    fn traffic_flows_through_built_network() {
        let (mut net, names) = two_die_spec().build().unwrap();
        net.enqueue(names["cpu"], names["nic"], crate::FlitClass::Data, 64, 9)
            .unwrap();
        for _ in 0..200 {
            net.tick();
        }
        let f = net.pop_delivered(names["nic"]).expect("arrived");
        assert_eq!(f.token, 9);
        assert_eq!(f.ring_changes, 1);
    }

    #[test]
    fn rejects_unknown_chiplet_reference() {
        let mut spec = two_die_spec();
        spec.bridges[0].a.chiplet = "nope".into();
        assert!(matches!(spec.build(), Err(SpecError::UnknownChiplet(_))));
    }

    #[test]
    fn rejects_unknown_ring_index() {
        let mut spec = two_die_spec();
        spec.bridges[0].b.ring = 7;
        assert!(matches!(spec.build(), Err(SpecError::UnknownRing { .. })));
    }

    #[test]
    fn rejects_duplicate_device_names() {
        let mut spec = two_die_spec();
        spec.chiplets[1].rings[0].devices.push(DeviceDef {
            name: "cpu".into(),
            station: 2,
        });
        assert!(matches!(spec.build(), Err(SpecError::DuplicateDevice(_))));
    }

    #[test]
    fn topology_errors_propagate() {
        let mut spec = two_die_spec();
        spec.chiplets[0].rings[0].devices[0].station = 99;
        assert!(matches!(spec.build(), Err(SpecError::Topology(_))));
    }

    #[test]
    fn rejects_zero_bridge_buffer() {
        let json = two_die_spec().to_json().unwrap();
        let zeroed = json.replace("\"buffer_cap\": null", "\"buffer_cap\": 0");
        assert_ne!(zeroed, json);
        let spec = SocSpec::from_json(&zeroed).unwrap();
        assert!(matches!(
            spec.validate(),
            Err(SpecError::Topology(TopologyError::ZeroBridgeCapacity {
                field: "buffer_cap"
            }))
        ));
    }

    #[test]
    fn rejects_zero_inject_queue_cap() {
        let mut spec = two_die_spec();
        spec.network.inject_queue_cap = 0;
        assert!(matches!(
            spec.validate(),
            Err(SpecError::ZeroQueueCap("inject_queue_cap"))
        ));
    }

    #[test]
    fn rejects_zero_eject_queue_cap() {
        let json = two_die_spec().to_json().unwrap();
        let zeroed = json.replace("\"eject_queue_cap\": 4", "\"eject_queue_cap\": 0");
        assert_ne!(zeroed, json);
        let spec = SocSpec::from_json(&zeroed).unwrap();
        assert!(matches!(
            spec.build(),
            Err(SpecError::ZeroQueueCap("eject_queue_cap"))
        ));
    }

    #[test]
    fn rejects_queue_caps_the_engine_will_not_allocate() {
        for cap in [usize::MAX, 1 << 34, MAX_QUEUE_CAP + 1] {
            let mut spec = two_die_spec();
            spec.network.inject_queue_cap = cap;
            assert!(matches!(
                spec.build(),
                Err(SpecError::QueueCapTooLarge("inject_queue_cap"))
            ));
            let mut spec = two_die_spec();
            spec.network.eject_queue_cap = cap;
            assert!(matches!(
                spec.build(),
                Err(SpecError::QueueCapTooLarge("eject_queue_cap"))
            ));
        }
        let mut spec = two_die_spec();
        spec.network.inject_queue_cap = MAX_QUEUE_CAP;
        spec.network.eject_queue_cap = MAX_QUEUE_CAP;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn width_override_reaches_the_bridge() {
        let width = |spec: &SocSpec| {
            spec.validate().unwrap().bridges()[0]
                .config
                .width_flits_per_cycle
        };
        let mut spec = two_die_spec();
        assert_eq!(width(&spec), 2, "absent: the L2 default");
        spec.bridges[0].width = Some(4);
        assert_eq!(
            width(&SocSpec::from_json(&spec.to_json().unwrap()).unwrap()),
            4
        );
    }

    #[test]
    fn devices_are_numbered_in_declaration_order() {
        let spec = two_die_spec();
        let (topo, names) = spec.compile().unwrap();
        let declared = spec
            .chiplets
            .iter()
            .flat_map(|c| &c.rings)
            .flat_map(|r| &r.devices);
        for (i, dev) in declared.enumerate() {
            assert_eq!(names[&dev.name], NodeId(i as u32), "{}", dev.name);
        }
        let bridge = &topo.bridges()[0];
        assert_eq!((bridge.a, bridge.b), (NodeId(3), NodeId(4)));
    }

    #[test]
    fn more_chiplets_than_ids_is_a_typed_error() {
        // 300 one-ring dies in a chain: ring 299 would otherwise be
        // attributed to chiplet 299 mod 256.
        let chiplets: Vec<String> = (0..300)
            .map(|i| {
                format!(
                    r#"{{ "name": "c{i}", "rings": [ {{ "kind": "Full", "stations": 4,
                       "devices": [ {{ "name": "dev{i}", "station": 0 }} ] }} ] }}"#
                )
            })
            .collect();
        let bridges: Vec<String> = (1..300)
            .map(|i| {
                format!(
                    r#"{{ "level": "L2", "a": {{ "chiplet": "c{}", "ring": 0, "station": 2 }},
                       "b": {{ "chiplet": "c{i}", "ring": 0, "station": 3 }} }}"#,
                    i - 1
                )
            })
            .collect();
        let json = format!(
            r#"{{ "name": "wide", "chiplets": [{}], "bridges": [{}] }}"#,
            chiplets.join(","),
            bridges.join(",")
        );
        let spec = SocSpec::from_json(&json).unwrap();
        assert!(matches!(
            spec.compile(),
            Err(SpecError::Topology(TopologyError::TooMany {
                what: "chiplets",
                max: 256
            }))
        ));
    }

    #[test]
    fn parse_error_is_reported() {
        assert!(matches!(
            SocSpec::from_json("{not json"),
            Err(SpecError::Parse(_))
        ));
    }
}
