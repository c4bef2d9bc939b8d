//! The I-tag bound (§4.1.2), derived from the topology and judged on
//! the trace, over the paper-SoC matrix and a sample of generated
//! fabrics (DESIGN.md "The I-tag bound").
//!
//! Each run offers the same open-loop load as `topogen_properties`'
//! matrix and drains. It traces every I-tag placement (`ITagSet`),
//! claim (`ITagClaimed`) and lost injection (`InjectLost`), and reads
//! every node's starve count after every tick. A node's *episode*
//! opens the cycle its starve count reaches `itag_threshold` and closes
//! when it injects. On a ring that deflects nothing a tag lives exactly
//! one lap, so the tag at each (lane, station, cycle) follows from the
//! placements alone, and every episode there is held to three rules:
//!
//! * **placement**: every cycle the node loses between the threshold
//!   and its tag, the passing slot already carries another node's tag
//!   or the node's own earlier tag is still out;
//! * **return**: a claim comes one circumference after the placement,
//!   at the owner's station, and the episode ends no later (on every
//!   ring, a claim comes at the owner's station after whole laps);
//! * **bound**: on a ring of `C` stations whose other interfaces
//!   number `K < C + itag_threshold`, the placement delay is at most
//!   `K + max(0, C − itag_threshold)`, and the episode lasts at most
//!   one lap longer.

use noc_core::drive::{drain, OpenLoop, Verdict};
use noc_core::spec::{devices_by_name, SocSpec};
use noc_core::telemetry::{FlitEvent, TraceRecord, TraceSink};
use noc_core::topogen::{GridParams, HierRingParams};
use noc_core::{Network, Topology};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;

/// The I-tag events of a run, in trace order.
#[derive(Default)]
struct ITagLog(Vec<TraceRecord>);

impl TraceSink for ITagLog {
    fn emit(&mut self, r: TraceRecord) {
        use FlitEvent::{ITagClaimed, ITagSet, InjectLost};
        if matches!(
            r.event,
            ITagSet { .. } | ITagClaimed { .. } | InjectLost { .. }
        ) {
            self.0.push(r);
        }
    }
}

/// Starvation of one node: the cycle its starve count reached
/// `itag_threshold`, and the cycle it injected (the count fell).
struct Episode {
    node: usize,
    start: u64,
    end: Option<u64>,
}

/// The closed-form placement-delay bound of ring `ring` for threshold
/// `thr`: `K + max(0, C − thr)` for `K` other interfaces on a ring of
/// `C` stations, or `None` if `K ≥ C + thr` (DESIGN.md "The I-tag
/// bound").
fn placement_bound(topo: &Topology, ring: usize, thr: u32) -> Option<u64> {
    let (c, thr) = (u64::from(topo.rings()[ring].stations), u64::from(thr));
    let on_ring = topo.nodes().iter().filter(|n| n.ring.index() == ring);
    let others = on_ring.count() as u64 - 1;
    (others < c + thr).then(|| others + c.saturating_sub(thr))
}

/// Offer `spec` `topogen_properties`' matrix load (`rate` per device for
/// `cycles` cycles, mail popped every `1 + seed % 3` cycles, then every
/// cycle of the drain), then judge its I-tags. Returns the episodes
/// judged against the bound and the longest of them; `Err` names the
/// first broken rule.
fn judge(
    spec: &SocSpec,
    seed: u64,
    pattern: TrafficPattern,
    cycles: u64,
    rate: f64,
) -> Result<(usize, u64), String> {
    let (topo, names) = spec.compile().map_err(|e| e.to_string())?;
    let thr = spec.network.itag_threshold;
    let mut net = Network::with_sink(topo.clone(), spec.network.clone(), ITagLog::default());
    let mut offers = OpenLoop::new(devices_by_name(&names), pattern, rate);
    let mut rng = SimRng::seed_from(seed);
    let mut starve = vec![0u32; topo.nodes().len()];
    let mut open: Vec<Option<usize>> = vec![None; topo.nodes().len()];
    let mut episodes: Vec<Episode> = Vec::new();
    let mut poll = |net: &mut Network<ITagLog>| {
        let now = net.now().raw();
        for (i, n) in topo.nodes().iter().enumerate() {
            let s = net.starve_of(n.id);
            if s < starve[i] {
                if let Some(e) = open[i].take() {
                    episodes[e].end = Some(now);
                }
            } else if s >= thr && starve[i] < thr {
                open[i] = Some(episodes.len());
                let (node, start, end) = (i, now, None);
                episodes.push(Episode { node, start, end });
            }
            starve[i] = s;
        }
    };
    for cycle in 0..cycles {
        offers.offer(&mut net, &mut rng);
        net.tick();
        poll(&mut net);
        if cycle % (1 + seed % 3) == 0 {
            offers.pop_all(&mut net);
        }
    }
    let verdict = drain(&mut net, 20_000, |net| {
        poll(net);
        offers.pop_all(net);
        Ok(())
    })?;
    if !matches!(verdict, Verdict::Drained(_)) {
        return Ok((0, 0));
    }
    // A deflected flit can hold a tagged slot past its lap: the one-lap
    // rules apply on the rings that deflected nothing.
    let deflections = net.deflection_cells();
    let clean = |ring: usize| deflections[ring].iter().all(|&d| d == 0);
    let trace = &net.sink().0;
    let lap = |ring: u16| u64::from(topo.rings()[usize::from(ring)].stations);
    let mut sets_of = vec![Vec::new(); topo.nodes().len()];
    let mut lost_of = vec![Vec::new(); topo.nodes().len()];
    for r in trace {
        match r.event {
            FlitEvent::ITagSet { node } => sets_of[node as usize].push(r),
            FlitEvent::InjectLost { node } => lost_of[node as usize].push(r),
            FlitEvent::ITagClaimed { node } => {
                let set = sets_of[node as usize]
                    .last()
                    .ok_or("a claim with no tag out")?;
                let (laps, c) = (r.cycle - set.cycle, lap(r.ring));
                let whole = laps % c == 0 && (laps == c || !clean(r.ring.into()));
                if r.station != set.station || !whole {
                    return Err(format!(
                        "node {node}: tag placed c{} at station {} claimed c{} at station {}",
                        set.cycle, set.station, r.cycle, r.station
                    ));
                }
            }
            _ => {}
        }
    }
    // Whether another node's tag stands where `r` lost at its cycle: a
    // tag placed at `t` on station `p` moves one station a cycle in its
    // lane's direction (lane 0 clockwise) and is gone back at `p`.
    let tagged = |node: usize, r: &TraceRecord| {
        let c = lap(r.ring);
        let others = sets_of.iter().enumerate().filter(|&(o, _)| o != node);
        others.flat_map(|(_, sets)| sets).any(|set| {
            let moved = r.cycle.wrapping_sub(set.cycle);
            let step = if r.lane == 0 { moved } else { c - moved % c };
            (set.ring, set.lane) == (r.ring, r.lane)
                && moved < c
                && (u64::from(set.station) + step) % c == u64::from(r.station)
        })
    };
    let (mut judged, mut longest) = (0, 0);
    for e in episodes.iter() {
        let ring = topo.nodes()[e.node].ring;
        if !clean(ring.index()) {
            continue;
        }
        let end = e
            .end
            .ok_or_else(|| format!("node {} starving at the end", e.node))?;
        let own = &sets_of[e.node];
        let placed = own
            .iter()
            .map(|r| r.cycle)
            .find(|&c| c >= e.start && c < end);
        let stop = placed.unwrap_or(end);
        let own_out = |c: u64| {
            own.iter()
                .any(|r| r.cycle < e.start && c <= r.cycle + lap(ring.0))
        };
        let mut lost = lost_of[e.node]
            .iter()
            .filter(|r| r.cycle >= e.start && r.cycle < stop);
        if let Some(r) = lost.find(|r| !own_out(r.cycle) && !tagged(e.node, r)) {
            return Err(format!(
                "node {} (ring {ring}): starving since c{}, lost c{} on lane {} to an \
                 untagged slot and placed no tag",
                e.node, e.start, r.cycle, r.lane
            ));
        }
        if placed.is_some_and(|p| end - p > lap(ring.0)) {
            return Err(format!(
                "node {}: tag placed c{stop}, injected c{end}",
                e.node
            ));
        }
        let Some(bound) = placement_bound(&topo, ring.index(), thr) else {
            continue;
        };
        if stop - e.start > bound || end - e.start > bound + lap(ring.0) {
            return Err(format!(
                "node {} (ring {ring}): threshold c{}, tag c{stop}, injection c{end}: \
                 past the derived bound {bound} + one lap",
                e.node, e.start
            ));
        }
        judged += 1;
        longest = longest.max(end - e.start);
    }
    Ok((judged, longest))
}

/// Seeds 0–39 × {uniform, hotspot} at 0.2 flits per device for 120
/// cycles on a committed paper-SoC spec, known defects included: every
/// run keeps the rules.
fn paper_soc(json: &str) {
    let spec = SocSpec::from_json(json).expect("committed spec parses");
    let hotspot = TrafficPattern::Hotspot {
        target: 0,
        bias: 0.5,
    };
    for seed in 0..40u64 {
        for pattern in [TrafficPattern::Uniform, hotspot] {
            if let Err(e) = judge(&spec, seed, pattern, 120, 0.2) {
                panic!("{} {pattern:?} seed {seed}: {e}", spec.name);
            }
        }
    }
}

/// Most Server-CPU rings deflect under this load, so mostly the claim
/// rule (the owner's station, after whole laps) judges these runs; the
/// 15-station CCD rings (`K` = 23 = `C + thr`) have no closed-form
/// bound.
#[test]
fn server_cpu_itags_are_claimed_by_their_owners() {
    paper_soc(include_str!("../../../specs/server_cpu.json"));
}

/// Every AI-Processor ring but the ones that deflect in a run is judged
/// by all three rules; each has a closed-form bound (`K` = 13 or 18).
#[test]
fn ai_processor_itags_keep_the_derived_bound() {
    paper_soc(include_str!("../../../specs/ai_processor.json"));
}

/// The two AI runs `topogen_properties` pins as I-tag defects (uniform
/// seeds 35 and 36: starve 20 and 21 against threshold + circumference
/// = 19) keep the derived bound, with an episode that outlasts one lap
/// of the 11-station ring: placement delay behind other nodes' tags.
/// This pins today's outcome of two runs; it is not a rule check.
#[test]
fn the_pinned_ai_itag_rows_keep_the_derived_bound() {
    let json = include_str!("../../../specs/ai_processor.json");
    let spec = SocSpec::from_json(json).expect("committed spec parses");
    for seed in [35, 36] {
        let got = judge(&spec, seed, TrafficPattern::Uniform, 120, 0.2);
        assert!(
            matches!(got, Ok((n, longest)) if n > 0 && longest > 11),
            "seed {seed}: {got:?}"
        );
    }
}

/// Generated tori and hierarchies under uniform load, mail popped
/// every cycle (traffic seeds divisible by 3).
#[test]
fn generated_fabric_itags_keep_the_derived_bound() {
    let mut judged = 0;
    for seed in 0..8u16 {
        let torus = GridParams::torus(2 + seed % 3, 3)
            .with_stations(6 + seed)
            .with_devices(1 + seed % 3)
            .with_seed(u64::from(seed));
        let hier = HierRingParams::new(2 + seed % 4)
            .with_local_stations(5 + seed)
            .with_devices(1 + seed % 3)
            .with_seed(u64::from(seed));
        for spec in [torus.generate(), hier.generate()] {
            let spec = spec.expect("the fabric generates");
            match judge(
                &spec,
                3 * u64::from(seed),
                TrafficPattern::Uniform,
                200,
                0.3,
            ) {
                Ok((n, _)) => judged += n,
                Err(e) => panic!("{} seed {seed}: {e}", spec.name),
            }
        }
    }
    assert!(judged > 0, "no episode on a deflection-free ring");
}
