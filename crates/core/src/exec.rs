//! Execution modes, kept for source compatibility only.

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
