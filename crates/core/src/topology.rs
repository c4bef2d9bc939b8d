//! Topology construction: chiplets, rings, nodes and bridges.
//!
//! A topology is a set of **rings** (each living on a chiplet), with
//! **device nodes** and **bridge endpoints** attached to cross stations.
//! Each cross station exposes two node interfaces (paper Figure 7A), so
//! at most two agents share a station.

use crate::config::BridgeConfig;
use crate::error::TopologyError;
use crate::ids::{BridgeId, ChipletId, NodeId, Port, RingId, RingKind};

/// Specification of one ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSpec {
    /// The ring's id.
    pub id: RingId,
    /// Chiplet the ring lives on.
    pub chiplet: ChipletId,
    /// Half (one lane) or full (two lanes).
    pub kind: RingKind,
    /// Number of cross stations (= slots per lane).
    pub stations: u16,
}

/// What kind of agent a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A device (CPU cluster, cache slice, memory controller, …).
    Device,
    /// One side of a ring bridge. Side 0 is the first ring passed to
    /// [`TopologyBuilder::add_bridge`], side 1 the second.
    BridgeEndpoint {
        /// The bridge this endpoint belongs to.
        bridge: BridgeId,
        /// Which side of the bridge (0 or 1).
        side: u8,
    },
}

/// Specification of one attached agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// The node's id.
    pub id: NodeId,
    /// Human-readable name for diagnostics.
    pub name: String,
    /// Ring the node is attached to.
    pub ring: RingId,
    /// Station index on the ring.
    pub station: u16,
    /// Which of the station's two interfaces (0 or 1).
    pub port: Port,
    /// Device or bridge endpoint.
    pub kind: NodeKind,
}

/// Specification of one bridge (RBRG-L1/L2).
#[derive(Debug, Clone, PartialEq)]
pub struct BridgeSpec {
    /// The bridge's id.
    pub id: BridgeId,
    /// Bridge parameters.
    pub config: BridgeConfig,
    /// Endpoint node on the first ring (side 0).
    pub a: NodeId,
    /// Endpoint node on the second ring (side 1).
    pub b: NodeId,
}

/// A validated topology, ready to instantiate a
/// [`Network`](crate::Network).
#[derive(Debug, Clone)]
pub struct Topology {
    pub(crate) chiplets: Vec<String>,
    pub(crate) rings: Vec<RingSpec>,
    pub(crate) nodes: Vec<NodeSpec>,
    pub(crate) bridges: Vec<BridgeSpec>,
}

impl Topology {
    /// Chiplet names, indexed by [`ChipletId`].
    pub fn chiplets(&self) -> &[String] {
        &self.chiplets
    }

    /// All rings.
    pub fn rings(&self) -> &[RingSpec] {
        &self.rings
    }

    /// All nodes (devices and bridge endpoints).
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// All bridges.
    pub fn bridges(&self) -> &[BridgeSpec] {
        &self.bridges
    }

    /// Device nodes only (the addressable agents).
    pub fn devices(&self) -> impl Iterator<Item = &NodeSpec> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Device))
    }

    /// Total cross stations across all rings.
    pub fn total_stations(&self) -> u64 {
        self.rings.iter().map(|r| r.stations as u64).sum()
    }

    /// Number of bridge endpoints attached to `ring` — the ring's
    /// degree in the inter-ring graph (parallel bridges counted).
    pub fn ring_degree(&self, ring: RingId) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.ring == ring && matches!(n.kind, NodeKind::BridgeEndpoint { .. }))
            .count()
    }
}

/// Incrementally builds a [`Topology`].
///
/// # Example
///
/// ```
/// use noc_core::{TopologyBuilder, RingKind, BridgeConfig};
///
/// let mut b = TopologyBuilder::new();
/// let die = b.add_chiplet("compute");
/// let ring = b.add_ring(die, RingKind::Full, 8)?;
/// let cpu = b.add_node("cpu0", ring, 0)?;
/// let mem = b.add_node("ddr0", ring, 4)?;
/// let topo = b.build()?;
/// assert_eq!(topo.devices().count(), 2);
/// # Ok::<(), noc_core::TopologyError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    chiplets: Vec<String>,
    rings: Vec<RingSpec>,
    nodes: Vec<NodeSpec>,
    bridges: Vec<BridgeSpec>,
}

impl TopologyBuilder {
    /// Start an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a chiplet (die). Past 256 chiplets the id wraps and
    /// [`TopologyBuilder::build`] returns [`TopologyError::TooMany`].
    pub fn add_chiplet(&mut self, name: impl Into<String>) -> ChipletId {
        let id = ChipletId(self.chiplets.len() as u8);
        self.chiplets.push(name.into());
        id
    }

    /// Add a ring with `stations` cross stations on `chiplet`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyRing`] for zero stations,
    /// [`TopologyError::UnknownChiplet`] for an unregistered chiplet and
    /// [`TopologyError::TooMany`] past 65 536 rings.
    pub fn add_ring(
        &mut self,
        chiplet: ChipletId,
        kind: RingKind,
        stations: u16,
    ) -> Result<RingId, TopologyError> {
        if chiplet.index() >= self.chiplets.len() {
            return Err(TopologyError::UnknownChiplet { chiplet: chiplet.0 });
        }
        let id = RingId(u16::try_from(self.rings.len()).map_err(|_| too_many("rings", u16::BITS))?);
        if stations == 0 {
            return Err(TopologyError::EmptyRing { ring: id });
        }
        self.rings.push(RingSpec {
            id,
            chiplet,
            kind,
            stations,
        });
        Ok(id)
    }

    fn free_port(&self, ring: RingId, station: u16) -> Option<Port> {
        let used: Vec<Port> = self
            .nodes
            .iter()
            .filter(|n| n.ring == ring && n.station == station)
            .map(|n| n.port)
            .collect();
        [0u8, 1u8].into_iter().find(|p| !used.contains(p))
    }

    fn attach(
        &mut self,
        name: String,
        ring: RingId,
        station: u16,
        kind: NodeKind,
    ) -> Result<NodeId, TopologyError> {
        let spec = self
            .rings
            .get(ring.index())
            .ok_or(TopologyError::UnknownRing { ring })?;
        if station >= spec.stations {
            return Err(TopologyError::StationOutOfRange {
                ring,
                station,
                stations: spec.stations,
            });
        }
        let port = self
            .free_port(ring, station)
            .ok_or(TopologyError::PortsFull { ring, station })?;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSpec {
            id,
            name,
            ring,
            station,
            port,
            kind,
        });
        Ok(id)
    }

    /// Attach a device node to `station` on `ring`, taking the first
    /// free interface of the station.
    ///
    /// # Errors
    ///
    /// Fails if the ring or station doesn't exist or both interfaces of
    /// the station are occupied.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        ring: RingId,
        station: u16,
    ) -> Result<NodeId, TopologyError> {
        self.attach(name.into(), ring, station, NodeKind::Device)
    }

    /// Connect two rings with a bridge whose endpoints sit at the given
    /// stations. Endpoint interfaces are allocated like device nodes.
    ///
    /// # Errors
    ///
    /// Fails on unknown rings/stations, occupied stations, if both
    /// endpoints are on the same ring, if `config` has a zero
    /// `buffer_cap` or `width_flits_per_cycle`, or past 65 536 bridges.
    pub fn add_bridge(
        &mut self,
        config: BridgeConfig,
        ring_a: RingId,
        station_a: u16,
        ring_b: RingId,
        station_b: u16,
    ) -> Result<BridgeId, TopologyError> {
        if ring_a == ring_b {
            return Err(TopologyError::SelfBridge { ring: ring_a });
        }
        if config.buffer_cap == 0 {
            return Err(TopologyError::ZeroBridgeCapacity {
                field: "buffer_cap",
            });
        }
        if config.width_flits_per_cycle == 0 {
            return Err(TopologyError::ZeroBridgeCapacity {
                field: "width_flits_per_cycle",
            });
        }
        let id = BridgeId(
            u16::try_from(self.bridges.len()).map_err(|_| too_many("bridges", u16::BITS))?,
        );
        let a = self.attach(
            format!("{id}.a"),
            ring_a,
            station_a,
            NodeKind::BridgeEndpoint {
                bridge: id,
                side: 0,
            },
        )?;
        let b = match self.attach(
            format!("{id}.b"),
            ring_b,
            station_b,
            NodeKind::BridgeEndpoint {
                bridge: id,
                side: 1,
            },
        ) {
            Ok(b) => b,
            Err(e) => {
                // Roll back endpoint A so the builder stays consistent.
                self.nodes.pop();
                return Err(e);
            }
        };
        self.bridges.push(BridgeSpec { id, config, a, b });
        Ok(id)
    }

    /// Validate and freeze the topology.
    ///
    /// # Errors
    ///
    /// Fails past 256 chiplets, if there are no device nodes, or if any
    /// pair of rings that both host devices is not connected by a
    /// bridge path.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.chiplets.len() > 1 << u8::BITS {
            return Err(too_many("chiplets", u8::BITS));
        }
        let topo = Topology {
            chiplets: self.chiplets,
            rings: self.rings,
            nodes: self.nodes,
            bridges: self.bridges,
        };
        if topo.devices().next().is_none() {
            return Err(TopologyError::NoDevices);
        }
        // Reachability: BFS over the ring graph.
        let n = topo.rings.len();
        let mut adj = vec![Vec::new(); n];
        for br in &topo.bridges {
            let ra = topo.nodes[br.a.index()].ring.index();
            let rb = topo.nodes[br.b.index()].ring.index();
            adj[ra].push(rb);
            adj[rb].push(ra);
        }
        let device_rings: Vec<usize> = {
            let mut v: Vec<usize> = topo.devices().map(|d| d.ring.index()).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        if let Some(&start) = device_rings.first() {
            let mut seen = vec![false; n];
            let mut queue = std::collections::VecDeque::from([start]);
            seen[start] = true;
            while let Some(r) = queue.pop_front() {
                for &next in &adj[r] {
                    if !seen[next] {
                        seen[next] = true;
                        queue.push_back(next);
                    }
                }
            }
            for &r in &device_rings {
                if !seen[r] {
                    return Err(TopologyError::Unreachable {
                        from: RingId(start as u16),
                        to: RingId(r as u16),
                    });
                }
            }
        }
        Ok(topo)
    }
}

/// The error for an id space of `bits` bits that is one id short.
fn too_many(what: &'static str, bits: u32) -> TopologyError {
    TopologyError::TooMany {
        what,
        max: 1 << bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_ring_topo() -> TopologyBuilder {
        let mut b = TopologyBuilder::new();
        let d0 = b.add_chiplet("die0");
        let d1 = b.add_chiplet("die1");
        let r0 = b.add_ring(d0, RingKind::Full, 8).unwrap();
        let r1 = b.add_ring(d1, RingKind::Half, 6).unwrap();
        b.add_node("a", r0, 0).unwrap();
        b.add_node("b", r1, 0).unwrap();
        b.add_bridge(BridgeConfig::l2(), r0, 4, r1, 3).unwrap();
        b
    }

    #[test]
    fn build_valid_topology() {
        let topo = two_ring_topo().build().unwrap();
        assert_eq!(topo.rings().len(), 2);
        assert_eq!(topo.bridges().len(), 1);
        assert_eq!(topo.devices().count(), 2);
        assert_eq!(topo.nodes().len(), 4); // 2 devices + 2 endpoints
    }

    #[test]
    fn rejects_empty_ring() {
        let mut b = TopologyBuilder::new();
        let d = b.add_chiplet("die");
        assert!(matches!(
            b.add_ring(d, RingKind::Half, 0),
            Err(TopologyError::EmptyRing { .. })
        ));
    }

    #[test]
    fn rejects_unknown_chiplet() {
        let mut b = TopologyBuilder::new();
        assert!(matches!(
            b.add_ring(ChipletId(9), RingKind::Half, 4),
            Err(TopologyError::UnknownChiplet { .. })
        ));
    }

    #[test]
    fn rejects_station_out_of_range() {
        let mut b = TopologyBuilder::new();
        let d = b.add_chiplet("die");
        let r = b.add_ring(d, RingKind::Full, 4).unwrap();
        assert!(matches!(
            b.add_node("x", r, 4),
            Err(TopologyError::StationOutOfRange { .. })
        ));
    }

    #[test]
    fn two_ports_per_station() {
        let mut b = TopologyBuilder::new();
        let d = b.add_chiplet("die");
        let r = b.add_ring(d, RingKind::Full, 4).unwrap();
        let n0 = b.add_node("p0", r, 1).unwrap();
        let n1 = b.add_node("p1", r, 1).unwrap();
        assert_ne!(n0, n1);
        assert!(matches!(
            b.add_node("p2", r, 1),
            Err(TopologyError::PortsFull { .. })
        ));
    }

    #[test]
    fn rejects_self_bridge() {
        let mut b = TopologyBuilder::new();
        let d = b.add_chiplet("die");
        let r = b.add_ring(d, RingKind::Full, 4).unwrap();
        assert!(matches!(
            b.add_bridge(BridgeConfig::l1(), r, 0, r, 2),
            Err(TopologyError::SelfBridge { .. })
        ));
    }

    #[test]
    fn rejects_zero_capacity_bridge() {
        let mut b = TopologyBuilder::new();
        let d = b.add_chiplet("die");
        let r0 = b.add_ring(d, RingKind::Full, 4).unwrap();
        let r1 = b.add_ring(d, RingKind::Full, 4).unwrap();
        let no_buffer = BridgeConfig::l2().with_buffer_cap(0);
        let no_width = BridgeConfig::l1().with_width(0);
        for (cfg, field) in [
            (no_buffer, "buffer_cap"),
            (no_width, "width_flits_per_cycle"),
        ] {
            assert_eq!(
                b.add_bridge(cfg, r0, 0, r1, 0),
                Err(TopologyError::ZeroBridgeCapacity { field })
            );
        }
        assert!(b.nodes.is_empty(), "a rejected bridge attaches nothing");
        assert!(b.add_bridge(BridgeConfig::l1(), r0, 0, r1, 0).is_ok());
    }

    #[test]
    fn bridge_rollback_on_second_endpoint_failure() {
        let mut b = TopologyBuilder::new();
        let d = b.add_chiplet("die");
        let r0 = b.add_ring(d, RingKind::Full, 4).unwrap();
        let r1 = b.add_ring(d, RingKind::Full, 4).unwrap();
        // Fill station 0 on r1 completely.
        b.add_node("x", r1, 0).unwrap();
        b.add_node("y", r1, 0).unwrap();
        let before = b.nodes.len();
        assert!(b.add_bridge(BridgeConfig::l1(), r0, 0, r1, 0).is_err());
        assert_eq!(b.nodes.len(), before, "endpoint A must be rolled back");
    }

    #[test]
    fn ring_ids_do_not_wrap() {
        let mut b = TopologyBuilder::new();
        let d = b.add_chiplet("die");
        for _ in 0..1 << 16 {
            b.add_ring(d, RingKind::Half, 1).unwrap();
        }
        assert_eq!(
            b.add_ring(d, RingKind::Half, 1),
            Err(TopologyError::TooMany {
                what: "rings",
                max: 65_536
            })
        );
    }

    #[test]
    fn rejects_no_devices() {
        let b = TopologyBuilder::new();
        assert!(matches!(b.build(), Err(TopologyError::NoDevices)));
    }

    #[test]
    fn rejects_unreachable_rings() {
        let mut b = TopologyBuilder::new();
        let d = b.add_chiplet("die");
        let r0 = b.add_ring(d, RingKind::Full, 4).unwrap();
        let r1 = b.add_ring(d, RingKind::Full, 4).unwrap();
        b.add_node("a", r0, 0).unwrap();
        b.add_node("b", r1, 0).unwrap();
        assert!(matches!(b.build(), Err(TopologyError::Unreachable { .. })));
    }

    #[test]
    fn multi_hop_reachability_ok() {
        let mut b = TopologyBuilder::new();
        let d = b.add_chiplet("die");
        let r0 = b.add_ring(d, RingKind::Full, 4).unwrap();
        let r1 = b.add_ring(d, RingKind::Full, 4).unwrap();
        let r2 = b.add_ring(d, RingKind::Full, 4).unwrap();
        b.add_node("a", r0, 0).unwrap();
        b.add_node("c", r2, 0).unwrap();
        b.add_bridge(BridgeConfig::l1(), r0, 1, r1, 1).unwrap();
        b.add_bridge(BridgeConfig::l1(), r1, 2, r2, 2).unwrap();
        assert!(b.build().is_ok());
    }
}
