//! The drivers: one per fabric, each turning generated requests into
//! calls on a layer's public functions, slice by slice.
//!
//! A driver receives the traffic seed and the exact counts, builds its
//! fabric (fabric seeds are fixed), generates every request up front —
//! the program sees only the generated requests, and the timed loop
//! holds nothing but calls into the program and the bookkeeping that
//! checks them — warms up, then runs the timed section in fixed-work
//! slices. Everything before the first slice is set-up.

pub mod ai;
pub mod flit;
pub mod server;
pub mod txn;

use crate::report::{Check, ChildReport, Size};
use noc_core::NetStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// A run ends — it never hangs — when no operation completes for this
/// many simulated cycles; everything still outstanding counts as failed.
pub const STALL_CYCLES: u64 = 200_000;

/// After an open-loop timed section, flits still in the network get
/// this many cycles to arrive before they count as failed.
pub const DRAIN_CYCLES: u64 = 50_000;

/// Cuts the timed section into slices.
#[derive(Debug)]
pub struct Slicer {
    last: Instant,
    last_cycle: u64,
    first_cycle: u64,
    /// Wall time per slice (ns).
    pub ns: Vec<u64>,
    /// Simulated cycles per slice.
    pub cycles: Vec<u64>,
}

impl Slicer {
    /// Start the timed section at simulated cycle `cycle`.
    pub fn start(cycle: u64, slices: u64) -> Self {
        Slicer {
            last: Instant::now(),
            last_cycle: cycle,
            first_cycle: cycle,
            ns: Vec::with_capacity(slices as usize),
            cycles: Vec::with_capacity(slices as usize),
        }
    }

    /// End the current slice at simulated cycle `cycle`.
    pub fn cut(&mut self, cycle: u64) {
        let now = Instant::now();
        self.ns
            .push(now.duration_since(self.last).as_nanos() as u64);
        self.cycles.push(cycle - self.last_cycle);
        self.last = now;
        self.last_cycle = cycle;
    }

    /// Simulated cycles covered so far.
    pub fn total_cycles(&self) -> u64 {
        self.last_cycle - self.first_cycle
    }
}

/// A report with the identity filled in and everything else empty.
pub fn blank_report(workload: &str, seed: u64, size: Size) -> ChildReport {
    ChildReport {
        workload: workload.to_string(),
        seed,
        size,
        ..ChildReport::default()
    }
}

/// `a ÷ b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `core.*` counts of the timed section: `NetStats` after minus
/// `NetStats` at the end of warm-up, per delivered / injected /
/// enqueued flit.
pub fn core_counters(
    out: &mut BTreeMap<String, f64>,
    before: &NetStats,
    after: &NetStats,
    profile: (noc_core::TickProfile, noc_core::TickProfile),
) {
    let d = |f: fn(&NetStats) -> u64| (f(after) - f(before)) as f64;
    let delivered = d(|s| s.delivered.get());
    let injected = d(|s| s.injected.get());
    let enqueued = d(|s| s.enqueued.get());
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    put(
        "core.deflections_per_delivered",
        ratio(d(|s| s.deflections.get()), delivered),
    );
    put(
        "core.etag_laps_per_delivered",
        ratio(d(|s| s.etag_laps.get()), delivered),
    );
    put(
        "core.itag_wait_cycles_per_injected",
        ratio(d(|s| s.itag_wait_cycles.get()), injected),
    );
    put("core.swaps", d(|s| s.swaps.get()));
    put("core.drm_entries", d(|s| s.drm_entries.get()));
    put(
        "core.bridge_crossings_per_delivered",
        ratio(d(|s| s.bridge_crossings.get()), delivered),
    );
    put(
        "core.inject_losses_per_enqueued",
        ratio(d(|s| s.inject_losses.get()), enqueued),
    );
    put(
        "core.mean_hops",
        ratio(d(|s| s.hops.sum()), d(|s| s.hops.count())),
    );
    let (p0, p1) = profile;
    let ticks = (p1.ticks - p0.ticks) as f64;
    let visited = (p1.stations_visited - p0.stations_visited) as f64;
    let total = (p1.stations_total - p0.stations_total) as f64;
    put("core.stations_visited_per_cycle", ratio(visited, ticks));
    put("core.skip_fraction", 1.0 - ratio(visited, total.max(1.0)));
    put(
        "core.full_lane_sweeps_per_cycle",
        ratio((p1.full_lane_sweeps - p0.full_lane_sweeps) as f64, ticks),
    );
}

/// Flit conservation: every flit the network accepted was delivered or
/// is still physically inside it (`count_resident_flits` walks queues,
/// ring slots and bridges; it shares nothing with the counters).
pub fn conservation_check(stats: &NetStats, resident: u64) -> Check {
    let (enq, del) = (stats.enqueued.get(), stats.delivered.get());
    Check::new(
        "flit_conservation",
        enq == del + resident,
        format!("enqueued {enq} = delivered {del} + resident {resident}"),
    )
}

/// Every attempted operation is accounted for.
pub fn accounting_check(attempted: u64, completed: u64, failed: u64) -> Check {
    Check::new(
        "operation_accounting",
        attempted == completed + failed,
        format!("attempted {attempted} = completed {completed} + failed {failed}"),
    )
}

/// `VmHWM` of this process in KiB (0 where `/proc` is unavailable).
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Mix the user's seed with a per-workload constant, so workloads that
/// share a seed do not share a stream by accident.
pub fn stream_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt
}
