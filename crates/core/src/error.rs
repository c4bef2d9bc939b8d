//! Error types for topology construction and network use.

use crate::ids::{NodeId, RingId};
use std::error::Error;
use std::fmt;

/// Errors raised while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A station index exceeded the ring's station count.
    StationOutOfRange {
        /// The offending ring.
        ring: RingId,
        /// The requested station index.
        station: u16,
        /// Number of stations the ring actually has.
        stations: u16,
    },
    /// Both node interfaces of the cross station are already occupied.
    PortsFull {
        /// The ring holding the station.
        ring: RingId,
        /// The full station.
        station: u16,
    },
    /// A ring was declared with no stations.
    EmptyRing {
        /// The offending ring.
        ring: RingId,
    },
    /// A bridge was requested between a ring and itself.
    SelfBridge {
        /// The ring on both ends.
        ring: RingId,
    },
    /// A referenced ring does not exist.
    UnknownRing {
        /// The missing ring id.
        ring: RingId,
    },
    /// A referenced chiplet does not exist.
    UnknownChiplet {
        /// The missing chiplet index.
        chiplet: u8,
    },
    /// No bridge path exists between two rings that host agents.
    Unreachable {
        /// Source ring.
        from: RingId,
        /// Destination ring.
        to: RingId,
    },
    /// The topology has no device nodes.
    NoDevices,
    /// A bridge was configured with a zero `buffer_cap` or
    /// `width_flits_per_cycle`: its pipeline could never move a flit.
    ZeroBridgeCapacity {
        /// The [`BridgeConfig`](crate::BridgeConfig) field that is 0.
        field: &'static str,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::StationOutOfRange {
                ring,
                station,
                stations,
            } => write!(
                f,
                "station {station} out of range on {ring} (has {stations} stations)"
            ),
            TopologyError::PortsFull { ring, station } => {
                write!(f, "both ports occupied at {ring} station {station}")
            }
            TopologyError::EmptyRing { ring } => write!(f, "{ring} has zero stations"),
            TopologyError::SelfBridge { ring } => {
                write!(f, "bridge endpoints must be on different rings ({ring})")
            }
            TopologyError::UnknownRing { ring } => write!(f, "unknown ring {ring}"),
            TopologyError::UnknownChiplet { chiplet } => {
                write!(f, "unknown chiplet d{chiplet}")
            }
            TopologyError::Unreachable { from, to } => {
                write!(f, "no bridge path from {from} to {to}")
            }
            TopologyError::NoDevices => write!(f, "topology has no device nodes"),
            TopologyError::ZeroBridgeCapacity { field } => {
                write!(f, "bridge {field} must be at least 1")
            }
        }
    }
}

impl Error for TopologyError {}

/// Errors raised when enqueueing a new transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnqueueError {
    /// The source node's Inject Queue is full; retry next cycle.
    InjectQueueFull {
        /// The node whose queue is full.
        node: NodeId,
    },
    /// The given source node id does not exist.
    UnknownNode {
        /// The missing node id.
        node: NodeId,
    },
    /// Source and destination are the same agent.
    SelfSend {
        /// The node sending to itself.
        node: NodeId,
    },
    /// The destination is a bridge endpoint, which is not addressable.
    NotAddressable {
        /// The bridge-endpoint node.
        node: NodeId,
    },
}

impl fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnqueueError::InjectQueueFull { node } => {
                write!(f, "inject queue full at {node}")
            }
            EnqueueError::UnknownNode { node } => write!(f, "unknown node {node}"),
            EnqueueError::SelfSend { node } => write!(f, "{node} cannot send to itself"),
            EnqueueError::NotAddressable { node } => {
                write!(f, "{node} is a bridge endpoint and not addressable")
            }
        }
    }
}

impl Error for EnqueueError {}

/// Errors raised by [`Network::tick_epoch`](crate::Network::tick_epoch)
/// when it validates `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The requested epoch length exceeds the minimum bridge traversal
    /// latency ([`Network::max_epoch`](crate::Network::max_epoch)).
    EpochTooLong {
        /// The rejected epoch length.
        requested: u64,
        /// The largest valid epoch for this topology.
        max: u64,
    },
    /// An epoch of zero cycles was requested.
    EmptyEpoch,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::EpochTooLong { requested, max } => write!(
                f,
                "epoch of {requested} cycles exceeds the minimum bridge \
                 latency bound of {max}"
            ),
            EngineError::EmptyEpoch => write!(f, "epoch must span at least one cycle"),
        }
    }
}

impl Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TopologyError::PortsFull {
            ring: RingId(1),
            station: 3,
        };
        assert_eq!(e.to_string(), "both ports occupied at r1 station 3");
        let e = EnqueueError::InjectQueueFull { node: NodeId(2) };
        assert_eq!(e.to_string(), "inject queue full at n2");
    }

    #[test]
    fn errors_are_std_error() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(TopologyError::NoDevices);
        takes_err(EnqueueError::SelfSend { node: NodeId(0) });
        takes_err(EngineError::EmptyEpoch);
    }

    #[test]
    fn engine_error_messages() {
        let e = EngineError::EpochTooLong {
            requested: 9,
            max: 2,
        };
        assert_eq!(
            e.to_string(),
            "epoch of 9 cycles exceeds the minimum bridge latency bound of 2"
        );
    }
}
