//! Health watchdogs: explainable, cycle-stamped verdicts over the
//! snapshot stream.
//!
//! A [`HealthMonitor`] consumes [`MetricsSnapshot`]s in order and
//! evaluates four rules, each tied to one of the paper's §4 guarantees:
//!
//! * **Starvation onset** — a ring's I-tag placement rate (or the
//!   largest current injection wait) exceeds its threshold: the
//!   starvation-relief mechanism is being leaned on hard.
//! * **Congestion knee** — the windowed deflection rate is both high
//!   and rising across the last few snapshots: the network is past the
//!   non-linear degradation point of deflection routing.
//! * **SWAP storm** — one RBRG-L2 side re-entered deadlock resolution
//!   mode repeatedly within a single window: the inter-die dependency
//!   cycle keeps reforming.
//! * **Liveness stall** — the network has made no progress for K
//!   cycles while flits are in flight: no flit injected, ejected or
//!   crossed a bridge. The monitor reads that count, the network's one
//!   progress stamp (`Network::stalled_for()`), beside each snapshot.
//!   If this fires, the E-tag one-lap guarantee is being defeated (in
//!   practice: a device stopped draining its eject queue, a resource
//!   cycle wedged, or an engine bug).
//!
//! A fifth rule, **deadlock suspected**, is fed from outside the
//! snapshot stream: the transaction fabric's wedge latch hands it each
//! [`WedgeReport`] it finds ([`HealthMonitor::observe_wait`]).
//!
//! Rules latch on a rising edge: a verdict is emitted when a condition
//! first becomes true and not again until it has cleared. Evaluation is
//! a pure function of the snapshot stream and the stamp, so verdicts
//! are exactly as deterministic as the snapshots themselves.

use crate::metrics::MetricsSnapshot;
use crate::waitgraph::{WaitEdge, WedgeReport};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Starvation onset: I-tags placed per cycle on one ring (§4.1.2).
const STARVATION_ITAG_RATE: f64 = 0.25;
/// Starvation onset: absolute current injection wait (cycles) of any
/// single node.
const STARVATION_MAX_WAIT: u64 = 512;
/// Congestion knee: snapshots in the slope window.
const KNEE_WINDOW: usize = 4;
/// Congestion knee: minimum deflection rate before the slope is even
/// considered (keeps cold-start noise out).
const KNEE_MIN_RATE: f64 = 0.5;
/// Congestion knee: deflection-rate increase per snapshot that counts
/// as "rising".
const KNEE_SLOPE: f64 = 0.05;
/// SWAP storm: DRM entries on one bridge side within one window (§4.4).
const SWAP_STORM_ENTRIES: u64 = 3;

/// Thresholds for the watchdog rules that callers vary; the fixed ones
/// are the `STARVATION_*`, `KNEE_*` and `SWAP_STORM_ENTRIES` consts.
/// Defaults are deliberately conservative: quiet on the repository's
/// standard workloads, loud on genuine pathologies (the regression
/// tests hold both directions).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Liveness: cycles without progress (`Network::stalled_for()`)
    /// before the stall verdict fires.
    pub liveness_cycles: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            liveness_cycles: 512,
        }
    }
}

/// Which watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealthRule {
    /// Per-ring I-tag pressure above threshold.
    StarvationOnset,
    /// Deflection rate high and rising.
    CongestionKnee,
    /// Repeated DRM entries on one bridge side.
    SwapStorm,
    /// No progress for K cycles with flits in flight.
    LivenessStall,
    /// The wedge latch certified a frozen cyclic wait: a resource cycle
    /// in a network that stopped making progress.
    DeadlockSuspected,
}

impl fmt::Display for HealthRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthRule::StarvationOnset => "starvation-onset",
            HealthRule::CongestionKnee => "congestion-knee",
            HealthRule::SwapStorm => "swap-storm",
            HealthRule::LivenessStall => "liveness-stall",
            HealthRule::DeadlockSuspected => "deadlock-suspected",
        })
    }
}

/// How bad a verdict is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Degraded but progressing.
    Warning,
    /// Forward progress is in doubt.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "WARN",
            Severity::Critical => "CRIT",
        })
    }
}

/// One cycle-stamped watchdog finding: which rule fired where, the
/// observed value against its threshold, and a human-readable
/// explanation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Cycle of the snapshot that triggered the rule.
    pub cycle: u64,
    /// The rule that fired.
    pub rule: HealthRule,
    /// Severity of the finding.
    pub severity: Severity,
    /// Ring the finding is about, if ring-scoped.
    pub ring: Option<u16>,
    /// `(bridge, side)` the finding is about, if bridge-scoped.
    pub bridge: Option<(u16, u8)>,
    /// The observed value that crossed the threshold.
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// Explanation of what was observed and why it matters.
    pub message: String,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} cycle {:>8}] {}: {}",
            self.severity, self.cycle, self.rule, self.message
        )
    }
}

/// Runs the watchdog rules over a snapshot stream. Feed every snapshot
/// to [`HealthMonitor::observe`] in order; collected verdicts stay
/// available on [`HealthMonitor::verdicts`].
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    verdicts: Vec<Verdict>,
    /// Rings currently latched for starvation.
    starving: BTreeSet<u16>,
    /// Deflection rates of the most recent snapshots (≤ `KNEE_WINDOW`).
    rate_history: VecDeque<f64>,
    knee_latched: bool,
    /// Previous monotonic DRM-entry reading per (bridge, side).
    drm_prev: BTreeMap<(u16, u8), u64>,
    /// Bridge sides currently latched for SWAP storms.
    storming: BTreeSet<(u16, u8)>,
    stall_latched: bool,
}

impl HealthMonitor {
    /// Create a monitor with the given thresholds.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthMonitor {
            cfg,
            verdicts: Vec::new(),
            starving: BTreeSet::new(),
            rate_history: VecDeque::new(),
            knee_latched: false,
            drm_prev: BTreeMap::new(),
            storming: BTreeSet::new(),
            stall_latched: false,
        }
    }

    /// The thresholds in effect.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Evaluate every rule against the next snapshot, taken when the
    /// network had made no progress for `stalled_for` cycles
    /// (`Network::stalled_for()`). Returns how many new verdicts fired.
    pub fn observe(&mut self, snap: &MetricsSnapshot, stalled_for: u64) -> usize {
        let before = self.verdicts.len();
        self.check_starvation(snap);
        self.check_knee(snap);
        self.check_swap_storm(snap);
        self.check_liveness(snap, stalled_for);
        self.verdicts.len() - before
    }

    /// Fire the `deadlock-suspected` verdict for one wedge report. The
    /// wedge latch is its rising edge: it hands over one report per
    /// stall episode whose wait graph has a cycle.
    pub fn observe_wait(&mut self, report: &WedgeReport) {
        let resources = |edges: &[WaitEdge]| edges.iter().map(|e| e.from).collect::<BTreeSet<_>>();
        let cycle_len = resources(&report.chain).len();
        let chain: Vec<String> = report
            .chain
            .iter()
            .map(|e| format!("{} -[{}]-> {}", e.from, e.holder, e.to))
            .collect();
        self.verdicts.push(Verdict {
            cycle: report.cycle,
            rule: HealthRule::DeadlockSuspected,
            severity: Severity::Critical,
            ring: None,
            bridge: None,
            value: cycle_len as f64,
            threshold: 0.0,
            message: format!(
                "wait-graph cycle of {cycle_len} resource(s) frozen for {} cycles ({} pinned \
                 behind it): {}; SWAP resolves intra-bridge deadlock only — this cyclic wait \
                 spans resources it cannot reorder",
                report.stalled_for,
                resources(&report.pinned).len(),
                chain.join(", ")
            ),
        });
    }

    fn check_starvation(&mut self, snap: &MetricsSnapshot) {
        for r in &snap.rings {
            let rate = if snap.window == 0 {
                0.0
            } else {
                r.counters.itags_placed as f64 / snap.window as f64
            };
            let wait = r.gauges.max_starve;
            let rate_high = rate > STARVATION_ITAG_RATE;
            let wait_high = wait >= STARVATION_MAX_WAIT;
            if rate_high || wait_high {
                if self.starving.insert(r.ring) {
                    let (value, threshold, what) = if rate_high {
                        (
                            rate,
                            STARVATION_ITAG_RATE,
                            format!("I-tag rate {rate:.3}/cycle"),
                        )
                    } else {
                        (
                            wait as f64,
                            STARVATION_MAX_WAIT as f64,
                            format!("a node has waited {wait} cycles to inject"),
                        )
                    };
                    self.verdicts.push(Verdict {
                        cycle: snap.cycle,
                        rule: HealthRule::StarvationOnset,
                        severity: Severity::Warning,
                        ring: Some(r.ring),
                        bridge: None,
                        value,
                        threshold,
                        message: format!(
                            "ring {}: {what} (threshold {threshold}); injection \
                             starvation relief is under sustained pressure",
                            r.ring
                        ),
                    });
                }
            } else {
                self.starving.remove(&r.ring);
            }
        }
    }

    fn check_knee(&mut self, snap: &MetricsSnapshot) {
        let rate = snap.totals.deflection_rate();
        if self.rate_history.len() == KNEE_WINDOW {
            self.rate_history.pop_front();
        }
        self.rate_history.push_back(rate);
        if self.rate_history.len() < KNEE_WINDOW {
            return;
        }
        let first = *self.rate_history.front().expect("non-empty");
        let slope = (rate - first) / (self.rate_history.len() - 1) as f64;
        if rate >= KNEE_MIN_RATE && slope >= KNEE_SLOPE {
            if !self.knee_latched {
                self.knee_latched = true;
                self.verdicts.push(Verdict {
                    cycle: snap.cycle,
                    rule: HealthRule::CongestionKnee,
                    severity: Severity::Warning,
                    ring: None,
                    bridge: None,
                    value: slope,
                    threshold: KNEE_SLOPE,
                    message: format!(
                        "deflection rate {rate:.3} rising {slope:+.3}/window over the \
                         last {} windows; the network is past the congestion knee",
                        self.rate_history.len()
                    ),
                });
            }
        } else if rate < KNEE_MIN_RATE {
            self.knee_latched = false;
        }
    }

    fn check_swap_storm(&mut self, snap: &MetricsSnapshot) {
        for b in snap.bridges() {
            let key = (b.bridge, b.side);
            let prev = self.drm_prev.insert(key, b.drm_entries).unwrap_or(0);
            let delta = b.drm_entries.saturating_sub(prev);
            if delta >= SWAP_STORM_ENTRIES {
                if self.storming.insert(key) {
                    self.verdicts.push(Verdict {
                        cycle: snap.cycle,
                        rule: HealthRule::SwapStorm,
                        severity: Severity::Warning,
                        ring: Some(b.ring),
                        bridge: Some(key),
                        value: delta as f64,
                        threshold: SWAP_STORM_ENTRIES as f64,
                        message: format!(
                            "bridge {} side {} re-entered deadlock resolution {delta} \
                             times in one window; the cross-die dependency cycle keeps \
                             reforming",
                            b.bridge, b.side
                        ),
                    });
                }
            } else {
                self.storming.remove(&key);
            }
        }
    }

    fn check_liveness(&mut self, snap: &MetricsSnapshot, stalled_for: u64) {
        if stalled_for < self.cfg.liveness_cycles {
            self.stall_latched = false;
            return;
        }
        if !self.stall_latched {
            self.stall_latched = true;
            self.verdicts.push(Verdict {
                cycle: snap.cycle,
                rule: HealthRule::LivenessStall,
                severity: Severity::Critical,
                ring: None,
                bridge: None,
                value: stalled_for as f64,
                threshold: self.cfg.liveness_cycles as f64,
                message: format!(
                    "no progress for {stalled_for} cycles with {} flits in flight; \
                     a device stopped draining its eject queue or the E-tag one-lap \
                     guarantee is being defeated",
                    snap.in_flight
                ),
            });
        }
    }

    /// Every verdict fired so far, in firing order.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// Whether no rule has ever fired.
    pub fn is_healthy(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Render the verdict log as a human-readable report.
    pub fn report(&self) -> String {
        if self.verdicts.is_empty() {
            return "health: OK — no watchdog fired\n".to_string();
        }
        let mut out = format!("health: {} verdict(s)\n", self.verdicts.len());
        for v in &self.verdicts {
            out.push_str(&format!("  {v}\n"));
        }
        out
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self::new(HealthConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{BridgeGauges, RingGauges, RingWindow, WindowCounters};

    fn snap(cycle: u64, window: u64, in_flight: u64, rings: Vec<RingWindow>) -> MetricsSnapshot {
        let mut totals = WindowCounters::default();
        for r in &rings {
            totals.add(&r.counters);
        }
        MetricsSnapshot {
            seq: 0,
            cycle,
            window,
            in_flight,
            totals,
            cumulative: totals,
            rings,
        }
    }

    fn ring(id: u16, counters: WindowCounters) -> RingWindow {
        RingWindow {
            ring: id,
            counters,
            ..RingWindow::default()
        }
    }

    #[test]
    fn starvation_latches_per_ring() {
        let mut m = HealthMonitor::default();
        let hot = WindowCounters {
            itags_placed: 32,
            delivered: 1,
            ..WindowCounters::default()
        };
        let s = snap(
            64,
            64,
            5,
            vec![ring(0, hot), ring(1, WindowCounters::default())],
        );
        assert_eq!(m.observe(&s, 0), 1);
        assert_eq!(m.verdicts()[0].rule, HealthRule::StarvationOnset);
        assert_eq!(m.verdicts()[0].ring, Some(0));
        // Still starving: latched, no second verdict.
        assert_eq!(m.observe(&snap(128, 64, 5, vec![ring(0, hot)]), 0), 0);
        // Recovers, then starves again: fires again.
        let quiet = WindowCounters {
            delivered: 4,
            ..WindowCounters::default()
        };
        assert_eq!(m.observe(&snap(192, 64, 5, vec![ring(0, quiet)]), 0), 0);
        assert_eq!(m.observe(&snap(256, 64, 5, vec![ring(0, hot)]), 0), 1);
    }

    #[test]
    fn knee_requires_high_and_rising() {
        let mut m = HealthMonitor::default();
        let at = |deflections, delivered| WindowCounters {
            deflections,
            delivered,
            ..WindowCounters::default()
        };
        // Rising from 0.0 to 0.75 over four windows: fires once at the top.
        let mut fired = 0;
        for (i, (d, ok)) in [(0, 10), (20, 10), (60, 10), (90, 10)].iter().enumerate() {
            fired += m.observe(
                &snap((i as u64 + 1) * 64, 64, 50, vec![ring(0, at(*d, *ok))]),
                0,
            );
        }
        assert_eq!(fired, 1);
        assert_eq!(m.verdicts()[0].rule, HealthRule::CongestionKnee);
        // Stays saturated (high but flat): latched, silent.
        assert_eq!(
            m.observe(&snap(320, 64, 50, vec![ring(0, at(90, 10))]), 0),
            0
        );
    }

    #[test]
    fn flat_high_rate_alone_is_not_a_knee() {
        let mut m = HealthMonitor::default();
        let sat = WindowCounters {
            deflections: 90,
            delivered: 10,
            ..WindowCounters::default()
        };
        // History fills already at the plateau — no slope, no verdict.
        let mut fired = 0;
        for i in 1..=6u64 {
            fired += m.observe(&snap(i * 64, 64, 50, vec![ring(0, sat)]), 0);
        }
        assert_eq!(fired, 0, "{:?}", m.verdicts());
    }

    #[test]
    fn swap_storm_watches_per_side_deltas() {
        let mut m = HealthMonitor::default();
        let side = |drm_entries| RingWindow {
            ring: 0,
            counters: WindowCounters {
                delivered: 1,
                ..WindowCounters::default()
            },
            gauges: RingGauges::default(),
            bridges: vec![BridgeGauges {
                bridge: 2,
                side: 1,
                ring: 0,
                drm_entries,
                ..BridgeGauges::default()
            }],
            ..RingWindow::default()
        };
        // First observation: the whole monotonic count is the delta.
        assert_eq!(m.observe(&snap(64, 64, 3, vec![side(1)]), 0), 0);
        assert_eq!(m.observe(&snap(128, 64, 3, vec![side(2)]), 0), 0);
        // +3 in one window: storm.
        assert_eq!(m.observe(&snap(192, 64, 3, vec![side(5)]), 0), 1);
        let v = &m.verdicts()[0];
        assert_eq!(v.rule, HealthRule::SwapStorm);
        assert_eq!(v.bridge, Some((2, 1)));
    }

    #[test]
    fn liveness_fires_once_and_recovers() {
        let cfg = HealthConfig {
            liveness_cycles: 128,
        };
        let mut m = HealthMonitor::new(cfg);
        let idle = |cycle, in_flight| snap(cycle, 64, in_flight, vec![]);
        assert_eq!(m.observe(&idle(64, 4), 64), 0); // below K
        assert_eq!(m.observe(&idle(128, 4), 128), 1); // 128 cycles stalled
        assert_eq!(m.verdicts()[0].rule, HealthRule::LivenessStall);
        assert_eq!(m.verdicts()[0].severity, Severity::Critical);
        assert_eq!(m.observe(&idle(192, 4), 192), 0); // latched
                                                      // Progress resumes → unlatched; a fresh stall fires again.
        assert_eq!(m.observe(&idle(256, 4), 30), 0);
        assert_eq!(m.observe(&idle(512, 4), 286), 1);
    }

    #[test]
    fn liveness_reads_the_stamp_not_the_deliveries() {
        // No delivery in any window: below the stamp window nothing
        // fires, at it exactly one verdict does.
        let mut m = HealthMonitor::default();
        let k = m.config().liveness_cycles;
        let idle = |cycle| snap(cycle, 64, 12, vec![]);
        for i in 1..k / 64 {
            assert_eq!(m.observe(&idle(i * 64), k - 1), 0, "window {i}");
        }
        assert!(m.is_healthy());
        assert_eq!(m.observe(&idle(k), k), 1);
        assert_eq!(m.observe(&idle(k + 64), k + 64), 0, "latched");
        let stalls = m
            .verdicts()
            .iter()
            .filter(|v| v.rule == HealthRule::LivenessStall);
        assert_eq!(stalls.count(), 1);
        assert_eq!(m.verdicts()[0].value, k as f64);
    }

    #[test]
    fn empty_network_never_stalls() {
        let mut m = HealthMonitor::default();
        for i in 1..100u64 {
            assert_eq!(m.observe(&snap(i * 64, 64, 0, vec![]), 0), 0);
        }
        assert!(m.is_healthy());
        assert!(m.report().contains("OK"));
    }

    #[test]
    fn deadlock_suspected_names_the_chain() {
        use crate::waitgraph::ResourceId;
        let ring = |r| ResourceId::Ring { ring: r };
        let window = ResourceId::Window { node: 3 };
        let edges = vec![
            WaitEdge {
                from: ring(0),
                to: ring(1),
                holder: 7,
            },
            WaitEdge {
                from: ring(1),
                to: ring(0),
                holder: 9,
            },
            WaitEdge {
                from: window,
                to: ring(0),
                holder: 4,
            },
        ];
        let report = WedgeReport::from_edges(320, 140, edges).expect("a 2-cycle");
        let mut m = HealthMonitor::default();
        m.observe_wait(&report);
        let v = &m.verdicts()[0];
        assert_eq!((v.cycle, v.rule), (320, HealthRule::DeadlockSuspected));
        assert_eq!((v.severity, v.value), (Severity::Critical, 2.0));
        assert!(
            v.message.contains("ring:r0 -[7]-> ring:r1"),
            "{}",
            v.message
        );
        assert!(
            v.message.contains("frozen for 140 cycles (1 pinned"),
            "{}",
            v.message
        );
    }

    #[test]
    fn report_renders_verdicts() {
        let mut m = HealthMonitor::new(HealthConfig {
            liveness_cycles: 64,
        });
        m.observe(&snap(64, 64, 9, vec![]), 64);
        let r = m.report();
        assert!(r.contains("liveness-stall"), "{r}");
        assert!(r.contains("CRIT"), "{r}");
        assert!(r.contains("9 flits in flight"), "{r}");
    }
}
