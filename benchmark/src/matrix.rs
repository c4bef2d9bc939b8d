//! The fixed workload matrix: names, reasons, and the exact counts.
//!
//! Names are the contract with `BENCHMARK.json`. Counts are *work*, not
//! time: every run of a workload at a given sizing simulates the same
//! thing, so simulated statistics repeat exactly and slices line up
//! across runs.

use crate::report::Size;

/// One row of the matrix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name (the contract).
    pub name: &'static str,
    /// What the counts count.
    pub unit: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// Closed or open loop, with its client count or rate.
    pub loop_kind: &'static str,
    /// Why it is in the matrix.
    pub why: &'static str,
    /// Default counts (≈ 5–7 s timed section on the 2-core host this
    /// was sized on, 100 slices).
    pub default: Size,
    /// Units of timed work per second of host time on that host in its
    /// fast state; `--seconds` sizes from it.
    pub per_second: u64,
}

/// Slices a `--seconds`-sized or smoke run is cut into.
pub const SCALED_SLICES: u64 = 50;
/// Share of `--seconds` that goes to the timed sections of the runs;
/// the rest pays for their set-up, so that one command takes about the
/// seconds it was given when the host is in its fast state.
pub const TIMED_SHARE: f64 = 0.6;
/// The divisor `--smoke` applies to the default counts.
pub const SMOKE_DIVISOR: u64 = 50;

/// The five workloads, in matrix order.
pub const MATRIX: [Workload; 5] = [
    Workload {
        name: "server_chi_mix",
        unit: "requests",
        op: "CHI request",
        loop_kind: "closed loop, 4 outstanding per cluster (96 in all)",
        why: "The paper's latency-bound Server-CPU at low ring occupancy: chi carries the work, \
              core runs its occupancy-indexed fast path.",
        default: Size {
            warmup: 50_000,
            measured: 1_000_000,
            slice: 10_000,
        },
        per_second: 140_000,
    },
    Workload {
        name: "ai_stream_sat",
        unit: "cycles",
        op: "64 B line moved",
        loop_kind: "closed loop, 16 outstanding per core, plus Bernoulli(0.27) DMA per HBM stack",
        why: "The paper's bandwidth-bound AI-Processor at saturation: core's full-sweep ring \
              cycle and the RBRG-L1 exchange do nearly all the work.",
        default: Size {
            warmup: 10_000,
            measured: 200_000,
            slice: 2_000,
        },
        per_second: 32_000,
    },
    Workload {
        name: "torus8_flit_knee",
        unit: "cycles",
        op: "delivered flit",
        loop_kind: "open loop, Bernoulli 0.08 flits/device/cycle over 256 devices",
        why: "Raw flits at the injection knee of the largest generated fabric (64 rings, 1 024 \
              stations): core alone, working set past L2.",
        default: Size {
            warmup: 5_000,
            measured: 100_000,
            slice: 1_000,
        },
        per_second: 22_000,
    },
    Workload {
        name: "torus4_txn_mix",
        unit: "transactions",
        op: "transaction",
        loop_kind: "closed loop, 64 transactions outstanding",
        why: "The txn layer (packetise, windows, credited reassembly, admission pump) does the \
              marginal work; reads run beside writes so a gain for one direction shows in the \
              other.",
        default: Size {
            warmup: 15_000,
            measured: 240_000,
            slice: 2_400,
        },
        per_second: 50_000,
    },
    Workload {
        name: "torus4_txn_observed",
        unit: "transactions",
        op: "transaction",
        loop_kind: "closed loop, 64 transactions outstanding",
        why: "torus4_txn_mix byte for byte with every telemetry plane on: the only workload \
              where telemetry is a large share of host time, and the check that observing never \
              perturbs the simulation.",
        default: Size {
            warmup: 15_000,
            measured: 240_000,
            slice: 2_400,
        },
        per_second: 37_000,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    MATRIX.iter().find(|w| w.name == name)
}

/// How the counts of a command were chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sizing {
    /// The defaults above.
    Default,
    /// Defaults ÷ [`SMOKE_DIVISOR`].
    Smoke,
    /// Timed sections sized so that `runs` of them, set-up included,
    /// take about this many seconds on the sizing host.
    Seconds(f64),
}

impl Sizing {
    /// Label for the result file.
    pub fn label(&self) -> String {
        match self {
            Sizing::Default => "default".into(),
            Sizing::Smoke => "smoke".into(),
            Sizing::Seconds(s) => format!("seconds={s}"),
        }
    }
}

impl Workload {
    /// The exact counts of one run under `sizing` with `runs` runs.
    pub fn size(&self, sizing: Sizing, runs: usize) -> Size {
        let scaled = |warmup: u64, measured: u64| {
            let slice = (measured / SCALED_SLICES).max(1);
            Size {
                warmup,
                measured: slice * SCALED_SLICES,
                slice,
            }
        };
        match sizing {
            Sizing::Default => self.default,
            Sizing::Smoke => scaled(
                self.default.warmup / SMOKE_DIVISOR,
                self.default.measured / SMOKE_DIVISOR,
            ),
            Sizing::Seconds(s) => scaled(
                self.default.warmup,
                (self.per_second as f64 * s * TIMED_SHARE / runs.max(1) as f64) as u64,
            ),
        }
    }

    /// Counts of the side runs (`sim` variants, telemetry planes alone)
    /// that go with a main run of `size`: a fifth of its timed work.
    pub fn side_size(&self, size: Size) -> Size {
        let slice = (size.measured / 5 / SCALED_SLICES).max(1);
        Size {
            warmup: size.warmup / 5,
            measured: slice * SCALED_SLICES,
            slice,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sizing_keeps_fifty_whole_slices() {
        for w in &MATRIX {
            for sizing in [Sizing::Default, Sizing::Smoke, Sizing::Seconds(10.0)] {
                let s = w.size(sizing, 5);
                assert_eq!(s.measured % s.slice, 0, "{} {sizing:?}", w.name);
                assert!(s.slices() >= 50, "{} {sizing:?}: {}", w.name, s.slices());
            }
            let side = w.side_size(w.default);
            assert_eq!(side.slices(), SCALED_SLICES);
        }
        assert_eq!(find("ai_stream_sat").unwrap().unit, "cycles");
        assert!(find("nope").is_none());
    }

    #[test]
    fn seconds_scale_the_work_not_the_slices() {
        let w = find("torus8_flit_knee").unwrap();
        let a = w.size(Sizing::Seconds(10.0), 5);
        let b = w.size(Sizing::Seconds(20.0), 5);
        assert_eq!(a.slices(), b.slices());
        assert_eq!(b.slice, 2 * a.slice);
        assert_eq!(a.warmup, w.default.warmup);
    }
}
