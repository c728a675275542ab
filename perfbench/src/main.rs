//! `perfbench`: a same-host benchmark of the TileLink reproduction, driven
//! only through the public API of its crates.
//!
//! ```text
//! perfbench --workload <figures|tune_sweep|serve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process. With `--trace 0` the run measures
//! the end-to-end metrics with the span profiler off; with `--trace 1` it
//! replays the workload's inputs through each layer's public calls and
//! reports per-layer timings and exact work counters. The last line of
//! standard output is the JSON result; any failed operation or output check
//! makes the exit code nonzero. See `README.md` for the metric definitions.

mod figures;
mod host;
mod layers;
mod metrics;
mod report;
mod rng;
mod serve;
mod stats;
mod tune_sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use host::Host;
use report::Bench;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["figures", "tune_sweep", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The repository root (the benchmark's package sits one level below it).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark package has a parent directory")
        .to_path_buf()
}

/// Runs every workload, each in a child process of this binary, and exits
/// nonzero if any of them failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    for workload in WORKLOADS {
        println!("== workload {workload} ==");
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn a workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == args.workload)
        .expect("workload validated");
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let host = Host::probe(&repo_root());
    let mut bench = Bench::new(workload, args.seed, args.seconds, args.trace, out_dir);
    bench.input("nproc", host.nproc);
    if args.trace {
        layers::run(&mut bench);
    } else {
        match workload {
            "figures" => figures::run(&mut bench),
            "tune_sweep" => tune_sweep::run(&mut bench),
            _ => serve::run(&mut bench),
        }
    }
    let defs = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    if bench.finish(defs, &host) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
