//! `noc-benchmark`: the repository's fixed yardstick.
//!
//! ```text
//! noc-benchmark run [--workload NAME] [--seed N] [--runs N] [--trace [0|1]]
//!                   [--smoke | --seconds S] [--out FILE]
//! noc-benchmark compare A.json B.json
//! noc-benchmark wedge [--mix default|bench] [--outstanding N] [--slots N]
//!                     [--max-data-flits N] [--txns N] [--seed N]
//! ```
//!
//! `run` measures every workload of the matrix (or one) as fixed
//! simulated work, each run in a fresh child process, and prints every
//! metric by name with its unit; with `--seconds` (the form
//! `BENCHMARK.json`'s command takes) the timed sections are sized to
//! that many seconds and the last line of standard output is the one
//! JSON object the contract asks for. `compare` applies the bounds of
//! `BENCHMARK.json` to two result files. `wedge` replays the
//! transaction mixes the matrix leaves out because they stop completing
//! (README, *Known exclusions*). See `benchmark/README.md`.

mod child;
mod compare;
mod drive;
mod estimate;
mod matrix;
mod metrics;
mod report;
mod run;
mod trace;

use std::process::ExitCode;

/// Minimal `--flag value` parser: every flag takes one value except the
/// ones in `switches`; `optional` flags take a value only when the next
/// argument does not start with `--`.
pub struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(
        raw: &[String],
        known: &[&str],
        switches: &[&str],
        optional: &[&str],
    ) -> Result<Self, String> {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                args.positional.push(a.clone());
                continue;
            };
            if switches.contains(&name) {
                args.flags.push((name.to_string(), "1".to_string()));
            } else if optional.contains(&name) {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                    _ => "1".to_string(),
                };
                args.flags.push((name.to_string(), value));
            } else if known.contains(&name) {
                let value = it.next().ok_or(format!("--{name} needs a value"))?;
                args.flags.push((name.to_string(), value.clone()));
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read `{v}` as a number"))
            })
            .transpose()
    }
}

const USAGE: &str = "usage:
  noc-benchmark run [--workload NAME] [--seed N] [--runs N] [--trace [0|1]]
                    [--smoke | --seconds S] [--out FILE]
  noc-benchmark compare A.json B.json
  noc-benchmark wedge [--mix default|bench] [--outstanding N] [--slots N]
                      [--max-data-flits N] [--txns N] [--seed N]";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = match cmd.as_str() {
        "run" => run::main(rest),
        "compare" => compare::main(rest),
        "child" => child::main(rest),
        "wedge" => child::wedge(rest),
        _ => Err(format!("unknown command `{cmd}`\n{USAGE}")),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("noc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
