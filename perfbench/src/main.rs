//! The qem benchmark: one workload per process, from a seed, for a fixed
//! time, with its outputs checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload census --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  See `README.md`
//! next to this crate for the workloads and what each metric should move.

#![forbid(unsafe_code)]

mod runner;
mod stats;
mod trace;
mod workloads;

use runner::{run, Args};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <census|ce_under_load|longitudinal_store|netbench> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "census" => run::<workloads::Census>(&args),
        "ce_under_load" => run::<workloads::CeUnderLoad>(&args),
        "longitudinal_store" => run::<workloads::LongitudinalStore>(&args),
        "netbench" => run::<workloads::Netbench>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
