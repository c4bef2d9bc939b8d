//! Cross-commit anchors for the protocol layers above `core`:
//! `CoherentSystem` (through `ServerCpu`), `AiEngine`, and
//! `CoherentSystem` over packets (`CoherentSystem<TxnFabric>`).
//!
//! `engine_goldens` pins `core` and `TXN_GOLDENS` (in `txn_lockstep`)
//! pins `txn`; every other check of the CHI and AI layers compares two
//! runs of one build against each other, so a refactor that moves both
//! together would pass. `SERVER_GOLDENS` and `AI_GOLDENS` were produced
//! at commit 2fec607 — before the layers' side tables moved from
//! SipHash maps to dense slots and `noc_sim::idmap` — and
//! `CHI_TXN_GOLDENS` at 7ce9597, before the layers stopped polling
//! every agent for deliveries. None may be regenerated in a change that
//! claims to preserve behaviour.

use noc_ai::{AiConfig, AiEngine, AiProcessor, AiTraffic};
use noc_chi::system::ChiTransport;
use noc_chi::{CoherentSystem, LineAddr, ReadKind, SystemSpec, TxnKind};
use noc_core::{Network, NodeId};
use noc_server_cpu::{build_topology, ServerCpu, ServerCpuConfig};
use noc_sim::SimRng;
use noc_txn::{TxnConfig, TxnFabric};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, continuing from `state`.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()))
}

fn kind_code(kind: TxnKind) -> u64 {
    match kind {
        TxnKind::Read(ReadKind::Shared) => 0,
        TxnKind::Read(ReadKind::Unique) => 1,
        TxnKind::Read(ReadKind::NoSnp) => 2,
        TxnKind::Write => 3,
        TxnKind::WriteBack => 4,
    }
}

/// The reduced Server-CPU both coherent runs are built from.
fn server_cfg() -> ServerCpuConfig {
    ServerCpuConfig {
        clusters_per_ccd: 4,
        hn_per_ccd: 2,
        ddr_per_ccd: 2,
        ..Default::default()
    }
}

/// A seeded mix of every requester-side operation over a hot set (line
/// contention: busy queues, snoops, migratory ownership) and a wide set
/// (LLC misses to memory), then a full drain until `idle`. Returns
/// `(completions, completion-stream hash)`.
fn chi_run<T: ChiTransport>(
    sys: &mut CoherentSystem<T>,
    clusters: &[NodeId],
    seed: u64,
    idle: impl Fn(&T) -> bool,
) -> (u64, u64) {
    let mut rng = SimRng::seed_from(seed);
    let mut stream = FNV_OFFSET;
    let mut completions = 0u64;
    let mut absorb = |sys: &mut CoherentSystem<T>| {
        for c in sys.take_completions() {
            completions += 1;
            for w in [
                c.txn.0,
                u64::from(c.rn.0),
                c.addr.0,
                kind_code(c.kind),
                c.start.raw(),
                c.end.raw(),
            ] {
                stream = fnv1a(stream, &w.to_le_bytes());
            }
        }
    };
    for _ in 0..3_000u64 {
        for _ in 0..2 {
            if !rng.gen_bool(0.35) {
                continue;
            }
            let rn = clusters[rng.gen_index(clusters.len())];
            let addr = if rng.gen_bool(0.6) {
                LineAddr(rng.gen_range(0..48))
            } else {
                LineAddr(0x1_0000 + rng.gen_range(0..4096) * 3)
            };
            match rng.gen_range(0..20) {
                0..=8 => {
                    sys.read(rn, addr, ReadKind::Shared);
                }
                9..=13 => {
                    sys.write(rn, addr);
                }
                14..=15 => {
                    sys.read(rn, addr, ReadKind::Unique);
                }
                16 => {
                    sys.read(rn, addr, ReadKind::NoSnp);
                }
                _ => {
                    sys.write_back(rn, addr);
                }
            }
        }
        sys.tick();
        absorb(sys);
    }
    for _ in 0..300_000 {
        if sys.outstanding() == 0 && idle(sys.network()) {
            break;
        }
        sys.tick();
        absorb(sys);
    }
    assert_eq!(sys.outstanding(), 0, "seed {seed}: transactions stuck");
    (completions, stream)
}

/// [`chi_run`] on `ServerCpu` (CHI over the bare network). Returns
/// `(completions, completion-stream hash, NetStats fingerprint hash)`.
fn server_run(seed: u64) -> (u64, u64, u64) {
    let mut s = ServerCpu::build(server_cfg()).expect("builds");
    let clusters = s.map.clusters.clone();
    let (n, stream) = chi_run(&mut s.sys, &clusters, seed, |net| net.in_flight() == 0);
    let net = fnv_words(s.sys.network().stats().fingerprint());
    (n, stream, net)
}

/// [`chi_run`] on the same topology and agents with every CHI message
/// packetised by a [`TxnFabric`] (chi/src/txn_transport.rs). Same
/// return shape as [`server_run`].
fn chi_txn_run(seed: u64) -> (u64, u64, u64) {
    let cfg = server_cfg();
    let (topo, map) = build_topology(&cfg).expect("builds");
    let fab = TxnFabric::new(Network::new(topo, cfg.net.clone()), TxnConfig::default());
    let mut sys = CoherentSystem::new(
        fab,
        SystemSpec {
            requesters: map.clusters.clone(),
            home_nodes: map.home_nodes.clone(),
            memories: map.ddrs.clone(),
            mem_params: cfg.mem_params,
            llc: cfg.llc,
            line_bytes: 64,
            local_hit_latency: 10,
            hn_latency: 12,
            snoop_latency: 6,
        },
    );
    let (n, stream) = chi_run(&mut sys, &map.clusters, seed, TxnFabric::quiet);
    let net = fnv_words(sys.network().network().stats().fingerprint());
    (n, stream, net)
}

/// Fixed warm-up/measure on the reduced AI SoC; `via_llc`
/// on the second seed so the directory path is pinned too. Returns
/// `(read, write, dma bytes, NetStats fingerprint hash)`.
fn ai_run(seed: u64, via_llc: bool) -> (u64, u64, u64, u64) {
    let proc = AiProcessor::build(AiConfig {
        v_rings: 4,
        cores_per_vring: 4,
        h_rings: 3,
        l2_per_hring: 4,
        hbm_count: 3,
        dma_count: 3,
        llc_count: 3,
        ..Default::default()
    })
    .expect("builds");
    let mut e = AiEngine::new(
        proc,
        AiTraffic {
            seed,
            via_llc,
            ..AiTraffic::from_ratio(2, 1)
        },
    );
    let rep = e.run(400, 2_500).expect("runs");
    let net = fnv_words(e.processor().net.stats().fingerprint());
    (rep.read_bytes, rep.write_bytes, rep.dma_bytes, net)
}

/// `(seed, completions, completion-stream hash, net fingerprint hash)`.
#[rustfmt::skip]
const SERVER_GOLDENS: &[(u64, u64, u64, u64)] = &[
    (3, 1757, 0x652a25f8bcf02787, 0xefd8bdc93466d08b),
    (7, 1788, 0x2c721f98ecacdc43, 0x0dc8a40cc2f5f27f),
    (11, 1760, 0xd64ea9e1a0bf510b, 0x65959f342e8e2b97),
];

/// `(seed, completions, completion-stream hash, net fingerprint hash)`,
/// pinned at 7ce9597.
#[rustfmt::skip]
const CHI_TXN_GOLDENS: &[(u64, u64, u64, u64)] = &[
    (5, 1747, 0x068e22b52cc0bbdb, 0xaa7e0aac3c01ac06),
    (13, 1769, 0xec5a783d31d71575, 0x7a4d8d3f67b02eb1),
];

/// `(seed, via_llc, read bytes, write bytes, dma bytes, net fingerprint hash)`.
#[rustfmt::skip]
const AI_GOLDENS: &[(u64, bool, u64, u64, u64, u64)] = &[
    (161, false, 2662400, 1309184, 1032192, 0x9dea2aa2595e4e59),
    (5, true, 2613760, 1370112, 1059840, 0x3dcc0fe9e2d8e311),
];

#[test]
fn coherent_system_matches_goldens_pinned_at_2fec607() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for seed in [3u64, 7, 11] {
        let (n, stream, net) = server_run(seed);
        if !SERVER_GOLDENS.contains(&(seed, n, stream, net)) {
            moved.push(format!(
                "seed {seed}: now ({n}, {stream:#018x}, {net:#018x})"
            ));
        }
        table.push_str(&format!(
            "    ({seed}, {n}, {stream:#018x}, {net:#018x}),\n"
        ));
    }
    assert!(
        moved.is_empty(),
        "CoherentSystem output moved against the pinned goldens:\n{}\n\nfull table as the \
         system produces it now (paste over SERVER_GOLDENS only if the change is intended):\n{table}",
        moved.join("\n")
    );
}

#[test]
fn ai_engine_matches_goldens_pinned_at_2fec607() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for (seed, via_llc) in [(0xA1u64, false), (5, true)] {
        let (r, w, d, net) = ai_run(seed, via_llc);
        if !AI_GOLDENS.contains(&(seed, via_llc, r, w, d, net)) {
            moved.push(format!(
                "seed {seed} via_llc={via_llc}: now ({r}, {w}, {d}, {net:#018x})"
            ));
        }
        table.push_str(&format!(
            "    ({seed}, {via_llc}, {r}, {w}, {d}, {net:#018x}),\n"
        ));
    }
    assert!(
        moved.is_empty(),
        "AiEngine output moved against the pinned goldens:\n{}\n\nfull table as the engine \
         produces it now (paste over AI_GOLDENS only if the change is intended):\n{table}",
        moved.join("\n")
    );
}

#[test]
fn coherent_system_over_txn_matches_goldens_pinned_at_7ce9597() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for seed in [5u64, 13] {
        let (n, stream, net) = chi_txn_run(seed);
        if !CHI_TXN_GOLDENS.contains(&(seed, n, stream, net)) {
            moved.push(format!(
                "seed {seed}: now ({n}, {stream:#018x}, {net:#018x})"
            ));
        }
        table.push_str(&format!(
            "    ({seed}, {n}, {stream:#018x}, {net:#018x}),\n"
        ));
    }
    assert!(
        moved.is_empty(),
        "CoherentSystem<TxnFabric> output moved against the pinned goldens:\n{}\n\nfull table \
         as the system produces it now (paste over CHI_TXN_GOLDENS only if the change is \
         intended):\n{table}",
        moved.join("\n")
    );
}
