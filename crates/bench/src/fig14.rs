//! Figure 14: NoC bandwidth equilibrium — every AI core should receive
//! >80% of the per-window maximum.

use crate::report::{fnum, ExperimentResult, Scale};
use noc_ai::{AiConfig, AiEngine, AiProcessor, AiTraffic};

/// One delivery stream cut into cycle-aligned windows: window `k` holds
/// the bytes delivered in cycles `[kW, (k + 1)W)`.
struct Windows {
    width: u64,
    bytes: Vec<u64>,
}

impl Windows {
    fn new(width: u64) -> Self {
        assert!(width > 0, "window width must be positive");
        Windows {
            width,
            bytes: Vec::new(),
        }
    }

    /// Count `bytes` delivered at cycle `now`; windows that a sparse
    /// stream skips stay empty.
    fn record(&mut self, now: u64, bytes: u64) {
        let k = (now / self.width) as usize;
        if self.bytes.len() <= k {
            self.bytes.resize(k + 1, 0);
        }
        self.bytes[k] += bytes;
    }

    /// The windows of a run whose last cycle was `end`: `end / W` whole
    /// ones, then a partial one through cycle `end` if `end % W != 0`.
    /// When `end % W == 0`, cycle `end` alone would open a window, and
    /// its bytes are dropped.
    fn finish(mut self, end: u64) -> Vec<u64> {
        self.bytes.resize(end.div_ceil(self.width) as usize, 0);
        self.bytes
    }
}

/// Reproduce Figure 14: the bytes each AI core receives per window
/// during a balanced run.
pub fn run(scale: Scale) -> ExperimentResult {
    let width = scale.pick(1_000, 2_000);
    let cycles = scale.pick(1_000, 3_000) + scale.pick(5_000, 16_000);
    let proc = AiProcessor::build(AiConfig::default()).expect("builds");
    let mut engine = AiEngine::new(proc, AiTraffic::from_ratio(1, 1));
    // The paper's claim is "a balanced bandwidth supply to all
    // AI-cores": window what each core consumes, cores in ascending
    // node id.
    let mut cores: Vec<usize> = (0..engine.processor().map.cores.len()).collect();
    cores.sort_by_key(|&i| engine.processor().map.cores[i]);
    let mut seen = vec![0u64; cores.len()];
    let mut per_core: Vec<Windows> = cores.iter().map(|_| Windows::new(width)).collect();
    for _ in 0..cycles {
        engine.tick().expect("AI engine run");
        let now = engine.processor().net.now().raw();
        for (j, &i) in cores.iter().enumerate() {
            let total = engine.core_bytes()[i];
            if total > seen[j] {
                per_core[j].record(now, total - seen[j]);
                seen[j] = total;
            }
        }
    }
    let end = engine.processor().net.now().raw();
    let series: Vec<Vec<u64>> = per_core.into_iter().map(|w| w.finish(end)).collect();
    let windows = series.first().map_or(0, Vec::len);

    let mut r = ExperimentResult::new(
        "fig14",
        "NoC bandwidth equilibrium across AI-core probes (fraction of per-window max)",
    )
    .with_header(vec![
        "window",
        "min/max ratio",
        "mean/max ratio",
        "probes ≥80%",
    ]);

    let mut all_ratios: Vec<f64> = Vec::new();
    // Skip the first and last (partial / warmup-tail) windows.
    for w in 1..windows.saturating_sub(1) {
        let bytes: Vec<u64> = series.iter().map(|v| v[w]).collect();
        // Reference "maximum bandwidth": the 95th-percentile core, so a
        // single lucky slice doesn't set the bar for everyone.
        let mut sorted = bytes.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as f64 * 0.95) as usize).min(sorted.len() - 1);
        let max = sorted[idx] as f64;
        if max == 0.0 {
            continue;
        }
        let ratios: Vec<f64> = bytes.iter().map(|&b| (b as f64 / max).min(1.0)).collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let above = ratios.iter().filter(|&&x| x >= 0.8).count();
        r.push_row(vec![
            w.to_string(),
            fnum(min, 2),
            fnum(mean, 2),
            format!("{}/{}", above, ratios.len()),
        ]);
        all_ratios.extend(ratios);
    }
    let frac_above = if all_ratios.is_empty() {
        0.0
    } else {
        all_ratios.iter().filter(|&&x| x >= 0.8).count() as f64 / all_ratios.len() as f64
    };
    r.note(format!(
        "equilibrium check: {:.0}% of probe-windows at ≥80% of max (paper: 'for most of the time, all probes can get more than 80%') — {}",
        frac_above * 100.0,
        if frac_above >= 0.8 { "PASS" } else { "FAIL" }
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sparse_stream_leaves_the_windows_it_skips_empty() {
        let mut w = Windows::new(10);
        w.record(0, 5);
        w.record(25, 5);
        assert_eq!(w.finish(30), vec![5, 0, 5]);
    }

    #[test]
    fn the_last_window_is_partial_and_keeps_its_last_cycle() {
        let mut w = Windows::new(10);
        for c in 0..=35 {
            w.record(c, 2);
        }
        assert_eq!(w.finish(35), vec![20, 20, 20, 12]);
    }

    #[test]
    fn a_run_ending_on_a_window_edge_drops_its_last_cycle() {
        let mut w = Windows::new(10);
        for c in 1..=30 {
            w.record(c, 2);
        }
        // Cycle 30 opens window 3, which never completes.
        assert_eq!(w.finish(30), vec![18, 20, 20]);
        // Windows after the last delivery stay, empty.
        let mut w = Windows::new(10);
        w.record(3, 7);
        assert_eq!(w.finish(25), vec![7, 0, 0]);
    }
}
