//! The paper's Server-CPU scenario: a 96-core, two-compute-die package
//! running the AMBA5-CHI-style coherence protocol over the bufferless
//! multi-ring NoC. Demonstrates dirty-line transfer between chiplets
//! and the intra/inter-chiplet latency difference of Table 5.
//!
//! ```text
//! cargo run --release --example server_cpu
//! ```

use noc_chi::{LineAddr, ReadKind};
use noc_server_cpu::experiments::{coherence_ping, lines_homed_at, PreparedState};
use noc_server_cpu::soc::IOD_COUNT;
use noc_server_cpu::{ServerCpu, ServerCpuConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ServerCpuConfig::default();
    println!(
        "building Server-CPU: {} cores in {} clusters over {} compute dies + {} I/O dies",
        cfg.cores(),
        cfg.ccd_count * cfg.clusters_per_ccd,
        cfg.ccd_count,
        IOD_COUNT
    );
    let mut server = ServerCpu::build(cfg)?;

    // A cluster on die 0 writes a line; a cluster on die 1 reads it.
    let writer = server.map.clusters_of_ccd(0)[0];
    let remote_reader = server.map.clusters_of_ccd(1)[0];
    let addr = LineAddr(0xCAFE);

    let txn = server.sys.write(writer, addr);
    let w = server.sys.run_until_complete(txn, 100_000).expect("write");
    println!("write at {writer}: {} cycles (cold DDR fill)", w.latency());

    let txn = server.sys.read(remote_reader, addr, ReadKind::Shared);
    let r = server
        .sys
        .run_until_complete(txn, 100_000)
        .expect("cross-die read");
    println!(
        "cross-die dirty read at {remote_reader}: {} cycles (snooped from {writer})",
        r.latency()
    );
    println!(
        "states after: writer={:?} reader={:?}",
        server.sys.rn_state(writer, addr),
        server.sys.rn_state(remote_reader, addr)
    );

    // Mini Table 5: M-state ping latencies, intra vs inter chiplet.
    let hn_local: Vec<_> = server.map.home_nodes[..server.cfg.hn_per_ccd].to_vec();
    let addrs = lines_homed_at(&server.sys, &hn_local, 32, 0x1_0000);
    let helper = server.map.clusters_of_ccd(0)[2];
    let intra_reader = server.map.clusters_of_ccd(0)[1];
    let intra = coherence_ping(
        &mut server.sys,
        writer,
        helper,
        intra_reader,
        PreparedState::M,
        &addrs,
    );
    let mut server2 = ServerCpu::build(ServerCpuConfig::default())?;
    let writer2 = server2.map.clusters_of_ccd(0)[0];
    let helper2 = server2.map.clusters_of_ccd(0)[2];
    let inter_reader = server2.map.clusters_of_ccd(1)[0];
    let addrs2 = lines_homed_at(
        &server2.sys,
        &server2.map.home_nodes[..server2.cfg.hn_per_ccd],
        32,
        0x1_0000,
    );
    let inter = coherence_ping(
        &mut server2.sys,
        writer2,
        helper2,
        inter_reader,
        PreparedState::M,
        &addrs2,
    );
    println!("\nTable-5-style M-state ping: intra-chiplet {intra:.0} cycles, inter-chiplet {inter:.0} cycles");
    println!("(paper: 44 intra, 65 inter)");
    Ok(())
}
