//! End-to-end Server-CPU integration: the full stack (topology → NoC →
//! CHI coherence → workload) across compute dies, I/O dies and packages.

use noc_chi::drive::{settle, Verdict::Drained};
use noc_chi::{CoherentSystem, Completion, LineAddr, MesiState, ReadKind, TxnId};
use noc_server_cpu::soc::CCD_COUNT;
use noc_server_cpu::{ServerCpu, ServerCpuConfig};
use noc_sim::SimRng;
use std::collections::BTreeSet;

fn small() -> ServerCpuConfig {
    ServerCpuConfig {
        clusters_per_ccd: 4,
        hn_per_ccd: 2,
        ddr_per_ccd: 2,
        ..Default::default()
    }
}

/// The coherence invariants on `lines` (see
/// [`CoherentSystem::check_coherent`]), which the load tests below
/// check after every tick.
fn assert_coherent(sys: &CoherentSystem, lines: &BTreeSet<u64>) {
    if let Err(e) = sys.check_coherent(lines.iter().map(|&l| LineAddr(l))) {
        panic!("{e}");
    }
}

/// One tick, then [`assert_coherent`].
fn tick_checked(s: &mut ServerCpu, lines: &BTreeSet<u64>) {
    s.sys.tick();
    assert_coherent(&s.sys, lines);
}

/// `run_until_complete`, with [`assert_coherent`] after every tick.
fn run_checked(
    s: &mut ServerCpu,
    txn: TxnId,
    budget: u64,
    lines: &BTreeSet<u64>,
) -> Option<Completion> {
    (0..budget).find_map(|_| {
        let done = s.sys.run_until_complete(txn, 1);
        assert_coherent(&s.sys, lines);
        done
    })
}

#[test]
fn migratory_sharing_across_dies() {
    // A line bounces between writers on alternating dies — the
    // migratory pattern that stresses snoop + bridge paths.
    let mut s = ServerCpu::build(small()).expect("builds");
    let addr = LineAddr(0x777);
    for round in 0..6 {
        let writer = s.map.clusters_of_ccd(round % 2)[round % 4];
        let t = s.sys.write(writer, addr);
        let c = s.sys.run_until_complete(t, 100_000).expect("write");
        assert!(c.latency() > 0);
        assert_eq!(s.sys.rn_state(writer, addr), MesiState::Modified);
        // All other clusters must not hold a writable copy.
        let writable = s
            .map
            .clusters
            .iter()
            .filter(|&&rn| s.sys.rn_state(rn, addr).writable())
            .count();
        assert_eq!(writable, 1, "round {round}");
    }
}

#[test]
fn many_clusters_hammer_shared_lines() {
    let mut s = ServerCpu::build(small()).expect("builds");
    let clusters = s.map.clusters.clone();
    let mut rng = SimRng::seed_from(99);
    let lines: BTreeSet<u64> = (0..16).collect();
    let mut issued = 0u64;
    for step in 0..300 {
        let rn = clusters[rng.gen_index(clusters.len())];
        let addr = LineAddr(rng.gen_range(0..16));
        match step % 3 {
            0 => {
                s.sys.write(rn, addr);
                issued += 1;
            }
            _ => {
                s.sys.read(rn, addr, ReadKind::Shared);
                issued += 1;
            }
        }
        for _ in 0..4 {
            tick_checked(&mut s, &lines);
        }
    }
    // Everything settles.
    let verdict = settle(&mut s.sys, 200_000, |sys| {
        assert_coherent(sys, &lines);
        Ok(())
    });
    assert!(
        matches!(verdict, Ok(Drained(_))),
        "transactions stuck: {verdict:?}"
    );
    let done = s.sys.take_completions();
    assert_eq!(done.len() as u64, issued);
    // Coherence invariant at quiescence.
    for line in 0..16u64 {
        let writable = clusters
            .iter()
            .filter(|&&rn| s.sys.rn_state(rn, LineAddr(line)).writable())
            .count();
        assert!(writable <= 1, "line {line} has {writable} writers");
    }
}

#[test]
fn four_package_system_stays_coherent() {
    let mut s = ServerCpu::build(ServerCpuConfig {
        packages: 4,
        clusters_per_ccd: 2,
        hn_per_ccd: 2,
        ddr_per_ccd: 2,
    })
    .expect("4P builds");
    let per_pkg = CCD_COUNT * 2; // × clusters_per_ccd
    let addr = LineAddr(0xBEEF);
    let lines = BTreeSet::from([addr.0]);
    // A writer in package 0, readers in packages 1..4.
    let writer = s.map.clusters[0];
    let t = s.sys.write(writer, addr);
    run_checked(&mut s, t, 500_000, &lines).expect("write");
    for pkg in 1..4 {
        let reader = s.map.clusters[pkg * per_pkg];
        let t = s.sys.read(reader, addr, ReadKind::Shared);
        let c = run_checked(&mut s, t, 500_000, &lines)
            .unwrap_or_else(|| panic!("package {pkg} read stuck"));
        assert!(
            c.latency() > 40,
            "cross-package read must pay SerDes latency, got {}",
            c.latency()
        );
    }
    assert_eq!(s.sys.rn_state(writer, addr), MesiState::Shared);
}

#[test]
fn network_statistics_are_consistent_after_run() {
    let mut s = ServerCpu::build(small()).expect("builds");
    let clusters = s.map.clusters.clone();
    for (i, &rn) in clusters.iter().enumerate() {
        s.sys
            .read(rn, LineAddr(0x4000 + i as u64), ReadKind::Shared);
    }
    let verdict = settle(&mut s.sys, 100_000, |_| Ok(()));
    assert!(matches!(verdict, Ok(Drained(_))), "{verdict:?}");
    // CompAck flits may still be in flight after the last requester
    // completion; drain them too.
    for _ in 0..10_000 {
        if s.sys.network().in_flight() == 0 {
            break;
        }
        s.sys.tick();
    }
    let stats = s.sys.network().stats();
    assert_eq!(
        stats.enqueued.get(),
        stats.delivered.get(),
        "all protocol flits must be delivered"
    );
    assert!(
        stats.bridge_crossings.get() > 0,
        "cross-die traffic happened"
    );
}

#[test]
fn zipfian_server_application_runs_coherently() {
    // The §3.1.1 workload shape: Zipfian-popular objects, read-heavy,
    // served by several front-end clusters over the coherent NoC.
    use noc_workloads::ServerApp;

    let mut s = ServerCpu::build(small()).expect("builds");
    let clusters = s.map.clusters.clone();
    let mut apps: Vec<ServerApp> = (0..clusters.len())
        .map(|i| ServerApp::new(i as u64 + 1))
        .collect();
    let mut issued = 0u64;
    let mut lines = BTreeSet::new();
    for _ in 0..4_000u64 {
        for (i, app) in apps.iter_mut().enumerate() {
            for op in app.cycle_ops() {
                lines.insert(op.line);
                let addr = LineAddr(op.line);
                if op.is_write {
                    s.sys.write(clusters[i], addr);
                } else {
                    s.sys.read(clusters[i], addr, ReadKind::Shared);
                }
                issued += 1;
            }
        }
        tick_checked(&mut s, &lines);
    }
    let verdict = settle(&mut s.sys, 300_000, |sys| {
        assert_coherent(sys, &lines);
        Ok(())
    });
    assert!(
        matches!(verdict, Ok(Drained(_))),
        "server workload: {verdict:?}"
    );
    assert_eq!(s.sys.take_completions().len() as u64, issued);
    // The hot Zipfian head is shared read-mostly: several clusters end
    // up with readable copies of some line.
    let hot_shared = (0..64u64).any(|l| {
        clusters
            .iter()
            .filter(|&&rn| s.sys.rn_state(rn, LineAddr(l)).readable())
            .count()
            >= 2
    });
    assert!(hot_shared, "hot objects should be shared across clusters");
}
