//! # noc-txn — the transaction layer over the deflection fabric
//!
//! The base engine in `noc-core` moves independent single flits, as the
//! paper's §3.4.3 fabric does. Real traffic is transactions: DMA bursts,
//! coherence messages, collectives. This crate packetizes transactions
//! the way the Tenstorrent Blackhole NoC does — one header flit plus up
//! to 256 × 64 B data flits per packet — and layers the protocol state
//! machines above the network:
//!
//! * [`TxnOp`] — reads, posted/non-posted writes, remote atomics
//!   ([`AtomicKind`]); plus rectangle [broadcast](TxnFabric::submit_broadcast)
//!   to a station set and one-way [messages](TxnFabric::submit_message)
//!   (the CHI transport rail);
//! * packetization ([`packet`]) and out-of-order reassembly that
//!   survive arbitrary per-flit deflection and reordering: the fabric
//!   keeps one record per live packet — its descriptor, its reassembly
//!   credit and a seq bitmap of the flits its destination has;
//! * bounded per-endpoint request/response windows with backpressure
//!   (`Ok(None)` — retry later) instead of unbounded buffering: a
//!   window slot is a live non-posted transaction, counted at its
//!   source;
//! * [broadcast fan-out trees](broadcast::BroadcastTree) derived from
//!   the topology: one bridge crossing per foreign ring, bounded
//!   fanout per hop;
//! * an observatory hook: per-transaction latency percentiles and
//!   in-flight gauges sampled into
//!   [`TxnSnapshot`](noc_core::telemetry::TxnSnapshot)s.
//!
//! Everything above the network runs in deterministic endpoint order,
//! so the engine's run-to-run byte identity extends to transactions —
//! see the module docs of [`fabric`].
//!
//! # Quickstart
//!
//! ```
//! use noc_core::{GridParams, Network, NetworkConfig};
//! use noc_txn::{TxnConfig, TxnFabric, TxnOp};
//!
//! let (topo, names) = GridParams::torus(2, 2)
//!     .with_devices(8)
//!     .with_seed(7)
//!     .generate()?
//!     .compile()?;
//! let mut devs: Vec<_> = names.values().copied().collect();
//! devs.sort_unstable();
//!
//! let net = Network::new(topo, NetworkConfig::default());
//! let mut fab = TxnFabric::new(net, TxnConfig::default());
//! fab.submit(devs[0], devs[5], TxnOp::Read { bytes: 4096 })?;
//! assert!(fab.run_until_quiet(50_000));
//! assert_eq!(fab.drain_completions().len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod broadcast;
pub mod fabric;
pub mod packet;

mod types;

pub use broadcast::BroadcastTree;
pub use fabric::TxnFabric;
pub use packet::{data_flits, split_packets, PacketDesc, PacketKind, StagedFlit};
pub use types::{
    AtomicKind, TxnCompletion, TxnConfig, TxnCounters, TxnError, TxnId, TxnKind, TxnOp,
};

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::{
        FlitClass, Network, NetworkConfig, NodeId, PacketToken, RingKind, TopologyBuilder,
    };

    /// One full ring, six devices.
    fn ring_fabric(cfg: TxnConfig) -> (TxnFabric, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("die");
        let r = b.add_ring(die, RingKind::Full, 12).unwrap();
        let devs: Vec<NodeId> = (0..6u16)
            .map(|i| b.add_node(format!("d{i}"), r, i * 2).unwrap())
            .collect();
        let net = Network::new(b.build().unwrap(), NetworkConfig::default());
        (TxnFabric::new(net, cfg), devs)
    }

    #[test]
    fn read_write_atomic_round_trip() {
        let (mut fab, d) = ring_fabric(TxnConfig::default());
        let r = fab
            .submit(d[0], d[3], TxnOp::Read { bytes: 300 })
            .unwrap()
            .unwrap();
        let w = fab
            .submit(
                d[1],
                d[4],
                TxnOp::Write {
                    bytes: 128,
                    posted: false,
                },
            )
            .unwrap()
            .unwrap();
        let p = fab
            .submit(
                d[2],
                d[5],
                TxnOp::Write {
                    bytes: 64,
                    posted: true,
                },
            )
            .unwrap()
            .unwrap();
        let a = fab
            .submit(d[0], d[5], TxnOp::Atomic(AtomicKind::Accumulate(41)))
            .unwrap()
            .unwrap();
        assert!(fab.run_until_quiet(100_000), "fabric wedged");
        let done = fab.drain_completions();
        assert_eq!(done.len(), 4);
        let by_id = |id| done.iter().find(|c| c.txn == id).unwrap();
        assert_eq!(by_id(r).kind, TxnKind::Read);
        assert_eq!(by_id(r).bytes, 300);
        assert_eq!(by_id(w).kind, TxnKind::WriteNonPosted);
        assert_eq!(by_id(p).kind, TxnKind::WritePosted);
        assert_eq!(by_id(a).kind, TxnKind::Atomic);
        assert_eq!(by_id(a).atomic_result, Some(0), "fetch result pre-op");
        assert_eq!(fab.atomic_cell(d[5]), Some(41));
        assert!(done.iter().all(|c| c.latency() > 0));
        assert_eq!(fab.counters().late_responses, 0);
        assert_eq!(fab.counters().stray_flits, 0);
        assert_eq!(fab.window_occupancy(), 0, "all slots released");
    }

    #[test]
    fn window_full_backpressures_with_ok_none() {
        let cfg = TxnConfig {
            window: 2,
            ..TxnConfig::default()
        };
        let (mut fab, d) = ring_fabric(cfg);
        assert!(fab
            .submit(d[0], d[1], TxnOp::Read { bytes: 64 })
            .unwrap()
            .is_some());
        assert!(fab
            .submit(d[0], d[2], TxnOp::Read { bytes: 64 })
            .unwrap()
            .is_some());
        // Third non-posted submission: full window → Ok(None), no panic.
        assert!(fab
            .submit(d[0], d[3], TxnOp::Read { bytes: 64 })
            .unwrap()
            .is_none());
        assert_eq!(fab.counters().backpressured, 1);
        // Posted writes bypass the window but not the staging bound.
        assert!(fab
            .submit(
                d[0],
                d[3],
                TxnOp::Write {
                    bytes: 64,
                    posted: true
                }
            )
            .unwrap()
            .is_some());
        assert!(fab.run_until_quiet(100_000));
        // Freed slots accept again.
        assert!(fab
            .submit(d[0], d[3], TxnOp::Read { bytes: 64 })
            .unwrap()
            .is_some());
        assert!(fab.run_until_quiet(100_000));
        assert_eq!(fab.drain_completions().len(), 4);
    }

    #[test]
    fn staging_bound_backpressures() {
        let cfg = TxnConfig {
            max_staged_flits: 4,
            ..TxnConfig::default()
        };
        let (mut fab, d) = ring_fabric(cfg);
        // 256-byte posted write = header + 4 data flits > bound once staged.
        assert!(fab
            .submit(
                d[0],
                d[3],
                TxnOp::Write {
                    bytes: 256,
                    posted: true
                }
            )
            .unwrap()
            .is_some());
        assert!(fab
            .submit(
                d[0],
                d[4],
                TxnOp::Write {
                    bytes: 256,
                    posted: true
                }
            )
            .unwrap()
            .is_none());
        assert!(fab.run_until_quiet(100_000));
    }

    #[test]
    fn admission_throttle_bounds_outstanding_flits() {
        let cfg = TxnConfig {
            max_outstanding_flits: 4,
            ..TxnConfig::default()
        };
        let (mut fab, d) = ring_fabric(cfg);
        assert_eq!(fab.outstanding_cap(), 4);
        // Two 1 KiB posted writes stage 2 × (1 header + 16 data) flits —
        // far more than the cap allows into the network at once.
        fab.submit(
            d[0],
            d[3],
            TxnOp::Write {
                bytes: 1024,
                posted: true,
            },
        )
        .unwrap()
        .unwrap();
        fab.submit(
            d[1],
            d[4],
            TxnOp::Write {
                bytes: 1024,
                posted: true,
            },
        )
        .unwrap()
        .unwrap();
        let mut peak = 0u64;
        let mut cycles = 0u64;
        while !fab.quiet() {
            fab.tick();
            peak = peak.max(fab.outstanding());
            cycles += 1;
            assert!(cycles < 100_000, "throttled fabric wedged");
        }
        assert!(peak > 0, "nothing ever entered the network");
        assert!(peak <= 4, "admission cap exceeded: peak {peak}");
        assert_eq!(fab.outstanding(), 0, "all flits accounted for on drain");
        assert_eq!(fab.drain_completions().len(), 2, "writes still complete");
    }

    #[test]
    fn auto_admission_cap_derives_from_ring_slots() {
        // The test ring has 12 stations × 2 lanes = 24 slots; the auto
        // cap is half that.
        let (fab, _) = ring_fabric(TxnConfig::default());
        assert_eq!(fab.outstanding_cap(), 12);
    }

    #[test]
    fn bad_endpoints_error() {
        let (mut fab, d) = ring_fabric(TxnConfig::default());
        assert_eq!(
            fab.submit(d[0], d[0], TxnOp::Read { bytes: 1 }),
            Err(TxnError::SelfSend(d[0]))
        );
        assert_eq!(
            fab.submit(d[0], NodeId(999), TxnOp::Read { bytes: 1 }),
            Err(TxnError::BadEndpoint(NodeId(999)))
        );
        // One past the topology's last node: the endpoint table is
        // indexed by node id, and every keyed entry point must answer
        // "no such endpoint" rather than index out of bounds.
        let past = NodeId(d.len() as u32);
        assert_eq!(
            fab.submit(past, d[0], TxnOp::Read { bytes: 1 }),
            Err(TxnError::BadEndpoint(past))
        );
        assert_eq!(
            fab.submit_broadcast(d[0], &[past], 64),
            Err(TxnError::BadEndpoint(past))
        );
        assert!(!fab.submit_message(d[0], past, FlitClass::Data, 8, 1));
        assert_eq!(fab.recv_message(past), None);
        assert_eq!(fab.window_of(past), None);
        assert_eq!(fab.atomic_cell(past), None);
        assert_eq!(
            fab.inject_raw(past, d[0], FlitClass::Data, 8, 1),
            Err(noc_core::EnqueueError::UnknownNode { node: past })
        );
        assert_eq!(
            fab.submit_broadcast(d[0], &[d[0]], 64),
            Err(TxnError::EmptyBroadcast)
        );
        assert!(matches!(
            fab.submit_broadcast(d[0], &[d[1]], 1 << 30),
            Err(TxnError::BroadcastTooLarge { .. })
        ));
    }

    #[test]
    fn broadcast_reaches_every_target_once() {
        let (mut fab, d) = ring_fabric(TxnConfig::default());
        let id = fab.submit_broadcast(d[0], &d[1..], 512).unwrap().unwrap();
        assert!(fab.run_until_quiet(200_000), "broadcast wedged");
        let done = fab.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].txn, id);
        assert_eq!(done[0].kind, TxnKind::Broadcast);
        assert_eq!(fab.counters().broadcasts, 1);
        // 5 targets × (1 header + 8 data flits) reassembled, plus nothing
        // else: conservation of copies.
        assert_eq!(fab.counters().packets_reassembled, 5);
        assert_eq!(fab.counters().stray_flits, 0);
        assert_eq!(fab.counters().duplicate_flits, 0);
    }

    #[test]
    fn messages_ride_packets_and_preserve_tokens() {
        let (mut fab, d) = ring_fabric(TxnConfig::default());
        assert!(fab.submit_message(d[0], d[3], FlitClass::Request, 80, 0xAA));
        assert!(fab.submit_message(d[1], d[3], FlitClass::Data, 64, 0xBB));
        assert!(fab.run_until_quiet(100_000));
        let mut got = Vec::new();
        while let Some(t) = fab.recv_message(d[3]) {
            got.push(t);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0xAA, 0xBB]);
        assert_eq!(fab.counters().messages, 2);
        // Messages don't surface as transaction completions.
        assert!(fab.drain_completions().is_empty());
    }

    #[test]
    fn stray_flits_are_counted_and_dropped() {
        let (mut fab, d) = ring_fabric(TxnConfig::default());
        // A token whose packet id was never allocated.
        let bogus = PacketToken {
            packet: 1 << 40,
            seq: 0,
        }
        .encode();
        fab.inject_raw(d[0], d[2], FlitClass::Data, 64, bogus)
            .unwrap();
        assert!(fab.run_until_quiet(100_000));
        assert_eq!(fab.counters().stray_flits, 1);
        assert!(fab.drain_completions().is_empty());
    }

    #[test]
    fn duplicate_data_flit_is_rejected_end_to_end() {
        let (mut fab, d) = ring_fabric(TxnConfig::default());
        // Start a 2-packet-capacity write so a live packet id exists,
        // then race a counterfeit duplicate of its first data flit.
        fab.submit(
            d[0],
            d[3],
            TxnOp::Write {
                bytes: 1024,
                posted: true,
            },
        )
        .unwrap()
        .unwrap();
        // Packet ids allocate from 0; seq 1 is the first data flit.
        let dup = PacketToken { packet: 0, seq: 1 }.encode();
        fab.inject_raw(d[1], d[3], FlitClass::Data, 64, dup)
            .unwrap();
        assert!(fab.run_until_quiet(200_000));
        assert_eq!(fab.drain_completions().len(), 1, "write still completes");
        assert_eq!(
            fab.counters().duplicate_flits + fab.counters().stray_flits,
            1,
            "counterfeit dropped either as duplicate (race won) or stray (packet already done)"
        );
    }

    #[test]
    fn late_response_is_a_stray_and_frees_no_slot() {
        let (mut fab, d) = ring_fabric(TxnConfig::default());
        let write = TxnOp::Write {
            bytes: 64,
            posted: false,
        };
        fab.submit(d[0], d[3], write).unwrap().unwrap();
        fab.submit(d[0], d[4], TxnOp::Read { bytes: 64 })
            .unwrap()
            .unwrap();
        assert_eq!(fab.window_of(d[0]), Some(2), "one slot per non-posted txn");
        assert!(fab.run_until_quiet(100_000));
        assert_eq!(fab.window_of(d[0]), Some(0));
        // Packet ids allocate in staging order: the write's data is 0,
        // the read request 1, and the two responses 2 and 3. Replay
        // both response headers once their transactions are gone.
        for packet in [2, 3] {
            let late = PacketToken { packet, seq: 0 }.encode();
            fab.inject_raw(d[3], d[0], FlitClass::Response, 0, late)
                .unwrap();
        }
        assert!(fab.run_until_quiet(100_000));
        assert_eq!(fab.counters().stray_flits, 2);
        assert_eq!(fab.counters().late_responses, 0, "never counts");
        assert_eq!(fab.window_of(d[0]), Some(0), "no slot released twice");
        assert_eq!(fab.drain_completions().len(), 2);
    }

    #[test]
    fn observatory_snapshots_report_percentiles_and_gauge() {
        let cfg = TxnConfig {
            metrics_period: 64,
            ..TxnConfig::default()
        };
        let (mut fab, d) = ring_fabric(cfg);
        for i in 0..4 {
            fab.submit(d[i], d[(i + 3) % 6], TxnOp::Read { bytes: 512 })
                .unwrap()
                .unwrap();
        }
        assert!(fab.run_until_quiet(100_000));
        // Pad to the next sampling boundary so the last window closes.
        while fab.now().raw() % 64 != 0 {
            fab.tick();
        }
        let snaps = fab.txn_snapshots();
        assert!(!snaps.is_empty());
        let last = snaps.last().unwrap();
        assert_eq!(last.completed_total, 4);
        assert_eq!(last.inflight_txns, 0);
        assert_eq!(last.window_occupancy, 0);
        let total_delta: u64 = snaps.iter().map(|s| s.completed_delta).sum();
        assert_eq!(total_delta, 4, "every completion lands in some window");
        let busy = snaps.iter().find(|s| s.completed_delta > 0).unwrap();
        assert!(busy.p50 > 0 && busy.p99 >= busy.p50);
        assert_eq!(fab.latency().count(), 4);
    }

    #[test]
    fn span_trees_cover_completions_and_reconcile_exactly() {
        use noc_core::telemetry::{critical_path, SpanCollector, SpanRole};

        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("die");
        let r = b.add_ring(die, RingKind::Full, 12).unwrap();
        let devs: Vec<NodeId> = (0..6u16)
            .map(|i| b.add_node(format!("d{i}"), r, i * 2).unwrap())
            .collect();
        let net = Network::new(b.build().unwrap(), NetworkConfig::default());
        let mut fab = TxnFabric::with_spans(net, TxnConfig::default(), SpanCollector::new(64, 4));

        let d = &devs;
        fab.submit(d[0], d[3], TxnOp::Read { bytes: 300 }).unwrap();
        fab.submit(
            d[1],
            d[4],
            TxnOp::Write {
                bytes: 128,
                posted: false,
            },
        )
        .unwrap();
        fab.submit(
            d[2],
            d[5],
            TxnOp::Write {
                bytes: 64,
                posted: true,
            },
        )
        .unwrap();
        fab.submit(d[0], d[5], TxnOp::Atomic(AtomicKind::Swap(9)))
            .unwrap();
        fab.submit_broadcast(d[5], &d[..5], 256).unwrap();
        // Messages are not transactions and must not produce trees.
        assert!(fab.submit_message(d[3], d[0], FlitClass::Request, 32, 0xC0));
        assert!(fab.run_until_quiet(200_000), "fabric wedged");

        let done = fab.drain_completions();
        assert_eq!(done.len(), 5);
        let trees: Vec<_> = fab.span_sink().recent().cloned().collect();
        assert_eq!(trees.len(), 5, "one tree per completed transaction");
        assert_eq!(fab.span_sink().recorded(), 5);

        for c in &done {
            let tree = trees.iter().find(|t| t.txn == c.txn.0).unwrap();
            assert_eq!(tree.issued_at, c.issued_at.raw());
            assert_eq!(tree.completed_at, c.completed_at.raw());
            // Every cycle of the transaction's life is attributed to a
            // named phase, and the attribution is exact.
            let cp = critical_path(tree);
            assert!(
                cp.reconciles(),
                "txn {} phases {:?} != latency {}",
                tree.txn,
                cp.phases,
                tree.latency()
            );
            assert_eq!(cp.total, tree.latency());
            // The chain starts at a submit-time packet and ends at the
            // finishing one.
            assert_eq!(cp.links.last().unwrap().packet, tree.final_packet);
            assert!(tree.packet(cp.links[0].packet).unwrap().parent.is_none());
        }

        // Causal edges: the read's response data packets point at the
        // request packet; the broadcast has relay spans.
        let read = trees.iter().find(|t| t.op == 0).unwrap();
        let req = read
            .packets
            .iter()
            .find(|p| p.role == SpanRole::Request)
            .unwrap();
        let responses: Vec<_> = read
            .packets
            .iter()
            .filter(|p| p.role == SpanRole::Response)
            .collect();
        assert!(!responses.is_empty());
        assert!(responses.iter().all(|p| p.parent == Some(req.packet)));
        assert!(read.req_done_at.is_some());
        assert_eq!(req.reassembled_at, read.req_done_at.unwrap());

        let bcast = trees.iter().find(|t| t.op == 4).unwrap();
        assert!(bcast
            .packets
            .iter()
            .any(|p| p.role == SpanRole::Relay && p.parent.is_some()));
        assert!(bcast.req_done_at.is_none());

        // The tail reservoir holds the 4 slowest, slowest first.
        let ex = fab.tail_exemplars();
        assert_eq!(ex.len(), 4);
        assert!(ex.windows(2).all(|w| w[0].latency() >= w[1].latency()));
    }

    #[test]
    fn null_span_sink_fabric_matches_default_fabric() {
        use noc_core::telemetry::NullSpanSink;

        // `TxnFabric::new` is `with_spans(.., NullSpanSink)`: same
        // monomorphization, so the spans-off overhead is zero by
        // construction. Check behavior anyway.
        let (mut a, d) = ring_fabric(TxnConfig::default());
        let topo = {
            let mut b = TopologyBuilder::new();
            let die = b.add_chiplet("die");
            let r = b.add_ring(die, RingKind::Full, 12).unwrap();
            for i in 0..6u16 {
                b.add_node(format!("d{i}"), r, i * 2).unwrap();
            }
            b.build().unwrap()
        };
        let net = Network::new(topo, NetworkConfig::default());
        let mut bfab = TxnFabric::with_spans(net, TxnConfig::default(), NullSpanSink);
        for fab in [&mut a, &mut bfab] {
            fab.submit(d[0], d[3], TxnOp::Read { bytes: 512 }).unwrap();
            fab.submit(d[1], d[4], TxnOp::Atomic(AtomicKind::Accumulate(3)))
                .unwrap();
            assert!(fab.run_until_quiet(100_000));
        }
        assert_eq!(a.fingerprint(), bfab.fingerprint());
        assert!(bfab.tail_exemplars().is_empty());
    }

    #[test]
    fn fingerprint_extends_network_fingerprint() {
        let (mut fab, d) = ring_fabric(TxnConfig::default());
        let before = fab.fingerprint();
        assert!(before.len() > fab.network().fingerprint().len());
        fab.submit(d[0], d[1], TxnOp::Read { bytes: 64 }).unwrap();
        assert!(fab.run_until_quiet(100_000));
        assert_ne!(fab.fingerprint(), before);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_is_rejected_at_construction() {
        ring_fabric(TxnConfig {
            window: 0,
            ..TxnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "max_staged_flits must be at least 1")]
    fn zero_staging_cap_is_rejected_at_construction() {
        ring_fabric(TxnConfig {
            max_staged_flits: 0,
            ..TxnConfig::default()
        });
    }
}
