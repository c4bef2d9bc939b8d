//! Cross-commit anchor for the tick engine.
//!
//! Every other identity suite recomputes its "golden" in-process, so a
//! refactor that changes behaviour *consistently* across engine
//! variants passes all of them. The constants below were generated at
//! the commit before the engines were collapsed into one (PR 13) — with
//! K = 1 driven through the per-cycle `tick()` that no longer exists as
//! a separate path — and must never be regenerated by a change that
//! claims to preserve behaviour.
//!
//! Per case and epoch length K the table pins three FNV-1a hashes:
//!
//! * `state` — enqueue outcomes, the delivered-flit stream and
//!   [`NetStats::fingerprint`](noc_core::NetStats::fingerprint);
//! * `trace` — the full [`RingBufferSink`] record stream as JSONL;
//! * `obs` — the observatory snapshot JSONL (the whole series, read
//!   as it is committed: the recorder bounds what the registry keeps)
//!   plus the flight recorder's postmortem bundle (retained events,
//!   flow table, link heat).
//!
//! Traffic and drains happen only at epoch-aligned cycles, so a K-cycle
//! epoch and K one-cycle epochs are the same schedule: the K > 1 rows,
//! pinned when a K-cycle epoch still deferred its drains to the epoch
//! boundary, now pin `tick_epoch(k)` as `k` calls of `tick()`.

mod common;

use common::{chain_topology, digest, fnv1a, random_topology, Rng, SnapshotStream, FNV_OFFSET};
use noc_core::telemetry::{HealthConfig, RecorderConfig, RingBufferSink};
use noc_core::topogen::GridParams;
use noc_core::{FlitClass, Network, NetworkConfig, NodeId, Topology};

/// Simulated cycles per run; divisible by every K the table uses.
const CYCLES: u64 = 600;
/// Cycles during which traffic is offered.
const INJECT_CYCLES: u64 = 300;
/// Observatory sampling period: not a multiple of 4, so K = 4 epochs
/// stage every other sample mid-epoch.
const SAMPLE_PERIOD: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    state: u64,
    trace: u64,
    obs: u64,
}

const fn g(state: u64, trace: u64, obs: u64) -> Golden {
    Golden { state, trace, obs }
}

/// `(case, K, golden)`, generated at commit 56c2f59.
#[rustfmt::skip]
const GOLDENS: &[(&str, u64, Golden)] = &[
    ("chain0", 1, g(0x5e026d569b270651, 0x11ab16aafff4679e, 0x430ab3936c1ad724)),
    ("chain4", 1, g(0xac7d9bed33c86757, 0x6f6c6aadc513be3b, 0x2f8eae32fdb488e8)),
    ("chain4", 2, g(0xd68d577ae1ca4ad1, 0xec9f65fcb467d147, 0x0f33ad8c977c4c9c)),
    ("chain5", 1, g(0xc3b371ed23edd9c8, 0x6dad259f010010a2, 0x9462f8fceaae1597)),
    ("chain5", 4, g(0x2bf9994ed3402c01, 0x3ff668d6beb77cd4, 0x212fa65d6b728ec9)),
    ("chain8", 1, g(0x40f769893c98112d, 0x69ce4a2589470005, 0x7738879ccc0ee179)),
    ("random0", 1, g(0x2afdc1d01f3fb441, 0x7db3ac47ec0d44cf, 0xc5e0a6d20c7f9339)),
    ("random0", 4, g(0xf08288f7c74ed0e6, 0x44d68704edeecb52, 0x7d1996f7acad8d28)),
    ("random1", 1, g(0xa228c47bb46cecb8, 0xf2c4847da8668d2f, 0xebc87663f74189ad)),
    ("random1", 4, g(0x272cb2e32a83713c, 0x120568df83726ec2, 0x11650691f421b361)),
    ("random2", 1, g(0xaa6535b28684d551, 0x84f9b674baf68197, 0x2206950180f5b74c)),
    ("random3", 1, g(0x4f43968eb38746c4, 0xd3215d70064ee96c, 0x9ee4a9527c8d253d)),
    ("random3", 2, g(0xd8f660e36a627bef, 0x75222dd2317493ec, 0x0e9528ac820b093c)),
    ("torus4x4", 1, g(0x6a0845f56a590c58, 0x0e25ec912ae52f2f, 0x3527b436e692923e)),
    ("torus4x4", 4, g(0x3934bfca9c362813, 0xc0b5c3a2f819834d, 0x04aa4c549ba80d9b)),
];

/// The pinned fabrics: four `chain_topology` seeds, four
/// `random_topology` seeds under `tick_equivalence`'s epoch-axis
/// derivation, and one generated 4×4 torus.
fn cases() -> Vec<(String, Topology, Vec<NodeId>, u64)> {
    let mut out = Vec::new();
    for seed in [0u64, 4, 5, 8] {
        let mut rng = Rng(seed.wrapping_mul(0xd605_0bb5_9b44_2b5d) ^ 0x1c69_b3f7_4ac4_ab57);
        let (topo, devs) = chain_topology(&mut rng);
        out.push((format!("chain{seed}"), topo, devs, rng.next()));
    }
    for seed in [0u64, 1, 2, 3] {
        let mut rng = Rng(seed.wrapping_mul(0x6c62_272e_07bb_0142) ^ 0x27d4_eb2f_1656_67c5);
        let (topo, devs) = random_topology(&mut rng);
        out.push((format!("random{seed}"), topo, devs, rng.next()));
    }
    let (topo, names) = GridParams::torus(4, 4)
        .with_stations(12)
        .with_devices(2)
        .with_seed(13)
        .generate()
        .expect("4x4 torus generates")
        .compile()
        .expect("generated spec compiles");
    let mut named: Vec<(String, NodeId)> = names.into_iter().collect();
    named.sort();
    let devs = named.into_iter().map(|(_, id)| id).collect();
    out.push(("torus4x4".to_string(), topo, devs, 0x7013_5eed));
    out
}

fn run(topo: &Topology, devs: &[NodeId], traffic_seed: u64, k: u64) -> Golden {
    let mut net = Network::with_sink(
        topo.clone(),
        NetworkConfig::default(),
        RingBufferSink::new(1 << 20),
    );
    net.enable_flight_recorder(
        SAMPLE_PERIOD,
        HealthConfig::default(),
        RecorderConfig::default(),
    );
    assert!(k <= net.max_epoch());
    let mut rng = Rng(traffic_seed);
    let mut state = FNV_OFFSET;
    let mut token = 0u64;
    let mut snapshots = SnapshotStream::default();
    for step in 0..CYCLES / k {
        if step * k < INJECT_CYCLES {
            for si in 0..devs.len() {
                if rng.below(3) != 0 {
                    continue;
                }
                let di = (si + 1 + rng.below(devs.len() as u64 - 1) as usize) % devs.len();
                token += 1;
                let ok = net
                    .enqueue(devs[si], devs[di], FlitClass::Data, 64, token)
                    .is_ok();
                state = fnv1a(state, &[u8::from(ok)]);
            }
        }
        if k == 1 {
            net.tick();
        } else {
            net.tick_epoch(k).expect("k bounded by max_epoch");
        }
        snapshots.read(&net);
        for &d in devs {
            while let Some(f) = net.pop_delivered(d) {
                state = fnv1a(state, format!("{:?}", digest(&f)).as_bytes());
            }
        }
    }
    net.finish_metrics();
    snapshots.read(&net);
    assert!(net.stats().delivered.get() > 0, "nothing was delivered");
    for word in net.fingerprint() {
        state = fnv1a(state, &word.to_le_bytes());
    }
    let bundle = net.dump_postmortem("golden").expect("observatory on");
    let obs = fnv1a(
        fnv1a(FNV_OFFSET, snapshots.jsonl.as_bytes()),
        bundle.comparable_jsonl().as_bytes(),
    );
    let sink = net.into_sink();
    assert_eq!(sink.dropped(), 0, "sink too small for an exact stream hash");
    let trace = sink.to_vec().iter().fold(FNV_OFFSET, |h, r| {
        let line = serde_json::to_string(r).expect("record serializes");
        fnv1a(fnv1a(h, line.as_bytes()), b"\n")
    });
    Golden { state, trace, obs }
}

#[test]
fn engine_matches_goldens_pinned_before_the_engines_were_collapsed() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    let mut deep = 0u32;
    for (name, topo, devs, traffic_seed) in cases() {
        let kmax = Network::new(topo.clone(), NetworkConfig::default())
            .max_epoch()
            .min(4);
        deep += u32::from(kmax > 1);
        let mut ks = vec![1, kmax];
        ks.dedup();
        for k in ks {
            let row = run(&topo, &devs, traffic_seed, k);
            let pinned = GOLDENS
                .iter()
                .find(|(n, gk, _)| *n == name && *gk == k)
                .map(|(_, _, g)| *g);
            if pinned != Some(row) {
                mismatches.push(format!(
                    "{name} k={k}: pinned {pinned:x?}, engine now produces {row:x?}"
                ));
            }
            table.push_str(&format!(
                "    (\"{name}\", {k}, g({:#018x}, {:#018x}, {:#018x})),\n",
                row.state, row.trace, row.obs
            ));
        }
    }
    assert!(deep >= 5, "only {deep}/9 cases exercised K > 1");
    assert!(
        mismatches.is_empty(),
        "engine output moved against the pinned goldens:\n{}\n\nfull table as the engine \
         produces it now (paste over GOLDENS only if the behaviour change is intended):\n{table}",
        mismatches.join("\n")
    );
}
