//! Generate fabrics instead of hand-wiring them: the `topogen` layer
//! turns a handful of parameters into a validated `SocSpec`. This
//! example builds a 4×4 chiplet torus (the paper's grid-of-dies shape
//! with wrap-around links), drives hotspot traffic across it (70 % of
//! flits to one device, at 0.2 flit per device per cycle), drains it —
//! this load wedges the fabric, and the example prints what holds it —
//! and renders a deflection heatmap; then it assembles a
//! hierarchical-ring SoC (local rings joined by a global ring over
//! RBRG-L2 bridges) and shows a cross-cluster flit paying exactly two
//! ring changes.

use noc_core::drive::{drain, OpenLoop, Verdict};
use noc_core::render::{ascii_heatmap, summary};
use noc_core::spec::devices_by_name;
use noc_core::topogen::{GridParams, HierRingParams};
use noc_core::FlitClass;
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4×4 torus: 16 chiplets, one 12-station ring each, 2 devices per
    // die, every cross-die edge an L2 bridge. The seed fixes device
    // placement, so the run is reproducible end to end.
    let params = GridParams::torus(4, 4)
        .with_stations(12)
        .with_devices(2)
        .with_seed(42);
    let spec = params.generate()?;
    println!(
        "generated {}: {} chiplets, {} stations, {} devices, {} bridges\n",
        spec.name,
        spec.chiplets.len(),
        spec.total_stations(),
        spec.total_devices(),
        spec.bridges.len()
    );

    let (mut net, names) = params.build()?;
    println!("{}", summary(net.topology()));

    // Devices in name order make the traffic schedule independent of
    // hash-map iteration — the same discipline the fuzz harness uses.
    // Hotspot traffic: most flits chase device 0, so ejection pressure
    // piles up around one station and the deflection heatmap lights up.
    let pattern = TrafficPattern::Hotspot {
        target: 0,
        bias: 0.7,
    };
    let mut offers = OpenLoop::new(devices_by_name(&names), pattern, 0.2);
    let mut rng = SimRng::seed_from(2022);
    for _ in 0..6_000 {
        offers.offer(&mut net, &mut rng);
        net.tick();
        offers.pop_all(&mut net);
    }
    let verdict = drain(&mut net, 24_000, |net| {
        offers.pop_all(net);
        Ok(())
    })?;
    println!("torus drain verdict: {verdict:?}");

    if let Verdict::Wedged(_) = verdict {
        println!("the torus fabric wedged:\n{}", net.stall_report());
    } else {
        let s = net.stats();
        println!(
            "torus after drain: {} delivered, mean latency {:.1} cycles, \
             {} bridge crossings, {} deflections\n",
            s.delivered.get(),
            s.mean_total_latency(),
            s.bridge_crossings.get(),
            s.deflections.get()
        );
    }
    println!(
        "{}",
        ascii_heatmap(net.topology(), "torus deflections", &net.deflection_cells())
    );

    // Hierarchical rings: 4 local clusters, each a ring of devices,
    // federated by a station-matched global ring on a hub die.
    let hier = HierRingParams::new(4)
        .with_local_stations(8)
        .with_devices(3)
        .with_seed(7);
    let hspec = hier.generate()?;
    println!(
        "generated {}: {} chiplets, {} stations, {} devices, {} bridges",
        hspec.name,
        hspec.chiplets.len(),
        hspec.total_stations(),
        hspec.total_devices(),
        hspec.bridges.len()
    );

    let (mut hnet, hnames) = hier.build()?;
    let src = hnames["cluster0.dev0"];
    let dst = hnames["cluster3.dev0"];
    hnet.enqueue(src, dst, FlitClass::Data, 64, 1)?;
    for _ in 0..2_000 {
        hnet.tick();
        if hnet.pop_delivered(dst).is_some() {
            break;
        }
    }
    let hs = hnet.stats();
    println!(
        "cluster0 → cluster3: delivered {} flit(s) with {} bridge crossings \
         (local ring → global ring → local ring)",
        hs.delivered.get(),
        hs.bridge_crossings.get()
    );
    Ok(())
}
