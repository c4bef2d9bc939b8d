//! Seeded transaction fuzz over generated fabrics, wired into the same
//! `NOC_TOPO_FUZZ_*` seed-matrix plumbing the topology fuzz uses: CI
//! pins `{SEED_BASE, SEEDS}`, and any violated invariant drops a JSON
//! transaction trace into the artifact directory
//! (`NOC_TOPO_FUZZ_ARTIFACT_DIR`, default `target/topo-fuzz`) for the
//! workflow to upload — enough to replay the exact run offline.
//!
//! Invariants per seed:
//! * the fabric quiesces within a generous cycle bound;
//! * conservation — accepted transactions all complete, exactly once,
//!   with zero stray/duplicate/late counters.

use noc_core::{GridParams, Network, NetworkConfig, NodeId};
use noc_sim::fuzz::{save_failing_artifact, SeedMatrix, TrafficPattern};
use noc_sim::SimRng;
use noc_txn::{TxnConfig, TxnCounters, TxnFabric};
use noc_workloads::{TxnMix, TxnRequest, TxnWorkload};
use serde::Serialize;

const TXNS_PER_SEED: usize = 40;

/// Replayable record of one fuzz run, dumped on failure.
#[derive(Debug, Serialize)]
struct TxnTrace {
    seed: u64,
    grid: (u16, u16),
    devices: usize,
    window: usize,
    max_data_flits: u16,
    submitted: Vec<TxnRequest>,
    counters: TxnCounters,
    fingerprint: Vec<u64>,
    violation: String,
}

/// Grid shape and per-chiplet device count derived from the seed.
fn shape(seed: u64) -> (u16, u16, u16) {
    let mut rng = SimRng::seed_from(seed ^ 0x7A57_F00D);
    let x = 2 + rng.gen_index(2) as u16; // 2..=3
    let y = 2 + rng.gen_index(2) as u16;
    let devices_per_chiplet = 2 + rng.gen_index(3) as u16; // 2..=4
    (x, y, devices_per_chiplet)
}

/// Run one seed to quiescence and check its invariants, recording into
/// `trace` what it submitted and where it ended.
fn run(seed: u64, trace: &mut TxnTrace) -> Result<(), String> {
    let (x, y, devices) = shape(seed);
    let (topo, names) = GridParams::torus(x, y)
        .with_devices(devices)
        .with_seed(seed)
        .generate()
        .map_err(|e| format!("generate: {e}"))?
        .compile()
        .map_err(|e| format!("compile: {e}"))?;
    // Sorted-by-name device order — the HashMap from `compile` must not
    // leak its iteration order into the traffic schedule.
    let mut named: Vec<(String, NodeId)> = names.into_iter().collect();
    named.sort();
    let devs: Vec<NodeId> = named.into_iter().map(|(_, id)| id).collect();
    let net = Network::new(topo, NetworkConfig::default());
    let cfg = TxnConfig {
        window: trace.window,
        max_data_flits: trace.max_data_flits,
        ..TxnConfig::default()
    };
    let mut fab = TxnFabric::new(net, cfg);
    let wl = TxnWorkload::new(devs, TxnMix::default(), TrafficPattern::Uniform, 64, 32);
    let mut rng = SimRng::seed_from(seed);
    let mut pending: Option<TxnRequest> = None;
    let mut guard = 0u64;
    while trace.submitted.len() < TXNS_PER_SEED {
        let req = pending.take().unwrap_or_else(|| wl.next(&mut rng));
        let accepted = match &req {
            TxnRequest::Point { src, dst, op } => fab
                .submit(*src, *dst, *op)
                .map_err(|e| format!("submit: {e}"))?
                .is_some(),
            TxnRequest::Broadcast {
                src,
                targets,
                bytes,
            } => fab
                .submit_broadcast(*src, targets, *bytes)
                .map_err(|e| format!("broadcast: {e}"))?
                .is_some(),
        };
        if accepted {
            trace.submitted.push(req);
        } else {
            pending = Some(req);
        }
        fab.tick();
        guard += 1;
        if guard > 1_000_000 {
            return Err("workload starved: nothing accepted for 1M cycles".into());
        }
    }
    let quiet = fab.run_until_quiet(2_000_000);
    trace.counters = *fab.counters();
    trace.fingerprint = fab.fingerprint();
    if !quiet {
        return Err(format!(
            "failed to quiesce: {} txns in flight at cycle {}",
            fab.in_flight_txns(),
            fab.now().raw()
        ));
    }
    let completions = fab.drain_completions();
    let c = trace.counters;
    if c.stray_flits != 0 || c.duplicate_flits != 0 || c.late_responses != 0 {
        return Err(format!(
            "anomaly counters nonzero: stray={} dup={} late={}",
            c.stray_flits, c.duplicate_flits, c.late_responses
        ));
    }
    if completions.len() != TXNS_PER_SEED {
        return Err(format!(
            "conservation: {} accepted, {} completed",
            TXNS_PER_SEED,
            completions.len()
        ));
    }
    let mut ids: Vec<_> = completions.iter().map(|t| t.txn).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != TXNS_PER_SEED {
        return Err("conservation: a transaction completed twice".into());
    }
    Ok(())
}

#[test]
fn seeded_transaction_fuzz_with_artifact_drop() {
    let matrix = SeedMatrix::from_env(0x7001_BA5E, 3);
    for seed in matrix.seeds() {
        let (x, y, devices) = shape(seed);
        let mut trace = TxnTrace {
            seed,
            grid: (x, y),
            devices: devices as usize,
            window: 4,
            max_data_flits: 32,
            submitted: Vec::new(),
            counters: TxnCounters::default(),
            fingerprint: Vec::new(),
            violation: String::new(),
        };
        if let Err(violation) = run(seed, &mut trace) {
            trace.violation = violation.clone();
            let json = serde_json::to_string(&trace).expect("trace serializes");
            let path = save_failing_artifact(&format!("txn-fuzz-seed-{seed}"), &json)
                .expect("artifact dir writable");
            panic!(
                "transaction fuzz violation at seed {seed}: {violation}\n\
                 trace saved to {} — replay with NOC_TOPO_FUZZ_SEED_BASE={seed} \
                 NOC_TOPO_FUZZ_SEEDS=1",
                path.display()
            );
        }
    }
}
