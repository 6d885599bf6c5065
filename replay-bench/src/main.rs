//! `replay-bench` — replay-throughput benchmark of the FlexFetch simulator.
//!
//! ```text
//! cargo run --release --manifest-path replay-bench/Cargo.toml -- \
//!     --workload flexfetch|baselines|export|chaos \
//!     [--seed 42] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Prints one line per metric with its unit, then, as the last line, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones from a traced run.

use replay_bench::workload::Workload;
use replay_bench::Options;
use std::process::ExitCode;

const USAGE: &str =
    "usage: replay-bench --workload flexfetch|baselines|export|chaos [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut args = args;
    let mut workload = None;
    let mut opts = Options::new(Workload::FlexFetch);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).map_err(|e| e.to_string())?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !opts.seconds.is_finite() || opts.seconds < 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match replay_bench::run(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
