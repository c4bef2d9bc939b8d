//! Configuration of the network and its bridges.

use serde::{Deserialize, Serialize};

/// Global network parameters.
///
/// Defaults reflect the paper's design points: small per-interface
/// queues (the bufferless design keeps node-side buffering minimal and
/// reuses CHI transaction buffers, §3.4.3), an I-tag starvation
/// threshold of a handful of cycles, and 32-byte header-bearing flits
/// with 64-byte cache-line data flits.
///
/// # Example
///
/// ```
/// use noc_core::NetworkConfig;
/// let cfg = NetworkConfig::default();
/// assert!(cfg.itag_threshold > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Capacity of each node interface's Inject Queue.
    pub inject_queue_cap: usize,
    /// Capacity of each node interface's Eject Queue.
    pub eject_queue_cap: usize,
    /// Consecutive failed injection cycles before an I-tag is placed on
    /// a passing slot (§4.1.2).
    pub itag_threshold: u32,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            inject_queue_cap: 8,
            eject_queue_cap: 4,
            itag_threshold: 8,
        }
    }
}

/// Bridge level: intra-die (L1) or inter-die (L2), paper §4.1.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BridgeLevel {
    /// RBRG-L1: resides at every intra-chiplet ring intersection.
    L1,
    /// RBRG-L2: inter-chiplet bridge over the die-to-die parallel IO
    /// PHY; adds deadlock resolution (§4.4).
    L2,
}

/// Parameters of one ring bridge.
///
/// # Example
///
/// ```
/// use noc_core::{BridgeConfig, BridgeLevel};
/// let l1 = BridgeConfig::l1();
/// let l2 = BridgeConfig::l2();
/// assert_eq!(l1.level, BridgeLevel::L1);
/// assert!(l2.latency > l1.latency); // die-to-die PHY is slower
/// assert!(l2.swap_enabled);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BridgeConfig {
    /// L1 (intra-die) or L2 (inter-die).
    pub level: BridgeLevel,
    /// Internal buffer capacity per direction (flits).
    pub buffer_cap: usize,
    /// Traversal latency in cycles (route generation + buffering for
    /// L1; plus the die-to-die parallel-IO PHY for L2).
    pub latency: u32,
    /// Flits accepted per direction per cycle.
    pub width_flits_per_cycle: u32,
    /// Reserved escape (Tx) buffers used only during deadlock
    /// resolution mode. L2 only; ignored for L1.
    pub reserved_cap: usize,
    /// Whether the SWAP deadlock-resolution mechanism is armed.
    pub swap_enabled: bool,
    /// Escape-buffer mode (the escape-virtual-channel analogue §4.4
    /// argues against): the reserved Tx buffers are permanently active
    /// instead of being gated on deadlock detection, and one Eject
    /// Queue entry stays reserved for escaping flits. Deadlock-free
    /// without detection, but pays buffer/latency cost in normal
    /// operation.
    pub escape_always: bool,
    /// Consecutive failed-injection cycles at the bridge's cross
    /// station before deadlock is declared and DRM entered.
    pub deadlock_threshold: u32,
}

impl BridgeConfig {
    /// Default intra-die RBRG-L1: short latency, modest buffering, no
    /// deadlock machinery (single-die ring crossings cannot form the
    /// §4.4 cycle in our topologies, but SWAP can be armed manually).
    pub fn l1() -> Self {
        BridgeConfig {
            level: BridgeLevel::L1,
            buffer_cap: 4,
            latency: 2,
            width_flits_per_cycle: 1,
            reserved_cap: 0,
            swap_enabled: false,
            escape_always: false,
            deadlock_threshold: u32::MAX,
        }
    }

    /// Default inter-die RBRG-L2: deeper buffers, die-to-die PHY
    /// latency, SWAP armed.
    pub fn l2() -> Self {
        BridgeConfig {
            level: BridgeLevel::L2,
            buffer_cap: 8,
            latency: 8,
            width_flits_per_cycle: 2,
            reserved_cap: 2,
            swap_enabled: true,
            escape_always: false,
            deadlock_threshold: 64,
        }
    }

    /// Builder-style: set traversal latency.
    pub fn with_latency(mut self, latency: u32) -> Self {
        self.latency = latency;
        self
    }

    /// Builder-style: set internal buffer capacity.
    pub fn with_buffer_cap(mut self, cap: usize) -> Self {
        self.buffer_cap = cap;
        self
    }

    /// Builder-style: set per-cycle transfer width.
    pub fn with_width(mut self, flits_per_cycle: u32) -> Self {
        self.width_flits_per_cycle = flits_per_cycle;
        self
    }

    /// Builder-style: enable or disable SWAP.
    pub fn with_swap(mut self, enabled: bool) -> Self {
        self.swap_enabled = enabled;
        self
    }

    /// Builder-style: set the deadlock detection threshold.
    pub fn with_deadlock_threshold(mut self, cycles: u32) -> Self {
        self.deadlock_threshold = cycles;
        self
    }

    /// Builder-style: set the reserved escape buffer count.
    pub fn with_reserved_cap(mut self, cap: usize) -> Self {
        self.reserved_cap = cap;
        self
    }

    /// Builder-style: switch to always-on escape buffers (the
    /// escape-VC-style alternative to SWAP).
    pub fn with_escape_always(mut self, enabled: bool) -> Self {
        self.escape_always = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = NetworkConfig::default();
        assert!(cfg.inject_queue_cap > 0);
        assert!(cfg.eject_queue_cap > 0);
        assert!(cfg.itag_threshold > 0);
    }

    #[test]
    fn a_network_config_serialises_only_the_fields_the_engine_reads() {
        let json = serde_json::to_string(&NetworkConfig::default()).expect("serialises");
        assert_eq!(
            json,
            r#"{"inject_queue_cap":8,"eject_queue_cap":4,"itag_threshold":8}"#
        );
    }

    #[test]
    fn l1_vs_l2() {
        let l1 = BridgeConfig::l1();
        let l2 = BridgeConfig::l2();
        assert!(!l1.swap_enabled);
        assert!(l2.swap_enabled);
        assert!(l2.buffer_cap >= l1.buffer_cap);
        assert!(l2.reserved_cap > 0);
    }

    #[test]
    fn builder_chain() {
        let b = BridgeConfig::l2()
            .with_latency(20)
            .with_buffer_cap(16)
            .with_width(4)
            .with_swap(false)
            .with_deadlock_threshold(100)
            .with_reserved_cap(3);
        assert_eq!(b.latency, 20);
        assert_eq!(b.buffer_cap, 16);
        assert_eq!(b.width_flits_per_cycle, 4);
        assert!(!b.swap_enabled);
        assert_eq!(b.deadlock_threshold, 100);
        assert_eq!(b.reserved_cap, 3);
    }
}
