//! Execution modes: which threads run the engine's cycle loop.

/// Who runs the cycle loop of [`Network::tick`](crate::Network::tick)
/// and [`Network::tick_epoch`](crate::Network::tick_epoch).
///
/// Both modes produce bit-identical results — delivery order, every
/// [`NetStats`](crate::NetStats) counter and histogram, and the
/// telemetry event stream — for every thread count, because ring
/// shards own all the state they touch and exchange bridge traffic
/// only at the loop's two per-cycle barriers. The differential fuzz in
/// `tests/tick_equivalence.rs` holds this to
/// [`NetStats::fingerprint`](crate::NetStats::fingerprint) equality
/// over random topologies. Choose by wall-clock alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The calling thread runs the loop over every ring shard, with
    /// every bridge exchanged inline.
    #[default]
    Sequential,
    /// Partition the ring shards over `n` threads (the calling thread
    /// plus `n - 1` pooled workers); each runs the same loop on its
    /// partition for the whole epoch, exchanging cross-partition bridge
    /// traffic over lock-free SPSC mailboxes (see the `epoch` module
    /// source and DESIGN.md §19). `Parallel(0)` and `Parallel(1)` *are*
    /// `Sequential`: one partition, no pool, nothing moved. The pool
    /// handoff — two channel hops per worker — is paid once per
    /// [`tick_epoch`](crate::Network::tick_epoch) call, so
    /// [`tick`](crate::Network::tick), a one-cycle epoch, pays it every
    /// cycle and longer epochs amortize it over K cycles
    /// (`sim.par2_k1_ratio` vs `sim.par2_kmax_ratio` in
    /// `noc-benchmark`).
    Parallel(usize),
}

impl ExecMode {
    /// Worker threads this mode wants alongside the calling thread.
    pub(crate) fn workers(self) -> usize {
        match self {
            ExecMode::Sequential => 0,
            ExecMode::Parallel(n) => n.max(1) - 1,
        }
    }
}
