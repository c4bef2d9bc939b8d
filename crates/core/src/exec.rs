//! Execution and tick modes, kept for source compatibility only.

/// Accepted by [`Network::with_exec`](crate::Network::with_exec) and
/// ignored: every variant runs the network on the calling thread, one
/// cycle at a time. A host runs many networks side by side instead of
/// splitting one over threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The calling thread runs the network.
    #[default]
    Sequential,
    /// Also the calling thread; the thread count is ignored.
    Parallel(usize),
}

/// Accepted by [`Network::with_exec`](crate::Network::with_exec) and
/// ignored: the network has one tick, the event-indexed sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TickMode {
    /// Visit only stations where a flit arrives at its exit, an I-tag
    /// rides the slot, or a queue head wants the lane.
    #[default]
    Fast,
}
