//! One run in its own process: `noc-benchmark child …` (spawned by
//! `run`, not meant to be typed). A fresh process per run gives every
//! run the same cold allocator and caches, and makes `VmHWM` the run's
//! own peak.

use crate::drive::{
    self,
    txn::{Job, Planes, TxnParams},
};
use crate::report::{ChildReport, Size};
use crate::trace::{self, NoTrace, SpanTracer, Tracer};
use crate::Args;
use std::process::ExitCode;

fn drive_workload<T: Tracer>(name: &str, seed: u64, size: Size, tr: &mut T) -> Option<ChildReport> {
    tr.open(trace::RUN);
    let rep = match name {
        "server_chi_mix" => drive::server::run(seed, size, tr),
        "ai_stream_sat" => drive::ai::run(seed, size, tr),
        "torus8_flit_knee" => drive::flit::run(seed, size, tr),
        "torus4_txn_mix" | "torus4_txn_observed" => drive::txn::run(
            Job {
                name,
                seed,
                size,
                planes: if name == "torus4_txn_mix" {
                    Planes::default()
                } else {
                    Planes::ALL
                },
                params: TxnParams::BENCH,
            },
            tr,
        ),
        _ => return None,
    };
    tr.close();
    Some(rep)
}

/// Entry point of the `child` command.
pub fn main(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        raw,
        &[
            "workload",
            "side",
            "seed",
            "warmup",
            "measured",
            "slice",
            "trace-out",
        ],
        &[],
        &[],
    )?;
    let need = |name: &str| -> Result<u64, String> {
        args.num(name)?
            .ok_or(format!("child: --{name} is required"))
    };
    let seed = need("seed")?;
    let size = Size {
        warmup: need("warmup")?,
        measured: need("measured")?,
        slice: need("slice")?,
    };
    if size.slice == 0 || !size.measured.is_multiple_of(size.slice) {
        return Err("child: --measured must be a positive multiple of --slice".into());
    }

    let json = if let Some(side) = args.get("side") {
        let rep = match side.split_once(':') {
            Some(("sim", v)) => drive::flit::side_run(v, seed, size.measured, size.slices()),
            Some(("telemetry", v)) => {
                drive::txn::side_run(v, seed, size.warmup, size.measured, size.slices())
            }
            _ => return Err(format!("child: unknown side run `{side}`")),
        };
        serde_json::to_string(&rep)
    } else {
        let name = args
            .get("workload")
            .ok_or("child: --workload is required")?;
        let unknown = || format!("unknown workload `{name}`");
        let mut rep = match args.get("trace-out") {
            None => {
                drive_workload(name, seed, size, &mut NoTrace::default()).ok_or_else(unknown)?
            }
            Some(path) => {
                let cost = SpanTracer::calibrate();
                let mut tr = SpanTracer::default();
                let mut rep = drive_workload(name, seed, size, &mut tr).ok_or_else(unknown)?;
                rep.traced = true;
                rep.spans = tr.aggregates();
                rep.span_cost = cost;
                std::fs::write(path, tr.chrome_trace(name, &format!("seed{seed}")))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                rep.trace_file = Some(path.to_string());
                rep
            }
        };
        rep.peak_rss_kib = drive::peak_rss_kib();
        serde_json::to_string(&rep)
    };
    println!("{}", json.map_err(|e| e.to_string())?);
    Ok(ExitCode::SUCCESS)
}

/// Entry point of the `wedge` command: the 4×4 torus of
/// `torus4_txn_mix` under a mix the matrix leaves out, run until it
/// drains or the no-progress guard ends it. Exit code 0 either way; the
/// row says which.
pub fn wedge(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        raw,
        &[
            "mix",
            "outstanding",
            "slots",
            "max-data-flits",
            "txns",
            "seed",
        ],
        &[],
        &[],
    )?;
    let bench = TxnParams::BENCH;
    let mix = match args.get("mix").unwrap_or("default") {
        "default" => noc_workloads::TxnMix::default(),
        "bench" => bench.mix,
        other => return Err(format!("--mix takes default or bench, not `{other}`")),
    };
    let max_data_flits: u16 = args.num("max-data-flits")?.unwrap_or(bench.max_data_flits);
    if !(1..=256).contains(&max_data_flits) {
        return Err("--max-data-flits must be in 1..=256".into());
    }
    let params = TxnParams {
        mix,
        outstanding: args.num("outstanding")?.unwrap_or(bench.outstanding),
        max_data_flits,
        reassembly_slots: args.num("slots")?.unwrap_or(bench.reassembly_slots),
    };
    let txns: u64 = args.num("txns")?.unwrap_or(100_000);
    let seed: u64 = args.num("seed")?.unwrap_or(1);
    let size = Size {
        warmup: 0,
        measured: txns.max(1),
        slice: txns.max(1),
    };
    let job = Job {
        name: "wedge",
        seed,
        size,
        planes: Planes::default(),
        params,
    };
    let rep = drive::txn::run(job, &mut NoTrace::default());
    println!(
        "mix {} outstanding {} slots {} max_data_flits {} seed {}: {} after {} of {} transactions, \
         {} cycles, {} failed, fingerprint {}",
        args.get("mix").unwrap_or("default"),
        params.outstanding,
        params.reassembly_slots,
        params.max_data_flits,
        seed,
        if rep.stalled { "WEDGED" } else { "drained" },
        rep.ops,
        txns,
        rep.cycles,
        rep.failed,
        rep.sim_fingerprint
    );
    Ok(ExitCode::SUCCESS)
}
