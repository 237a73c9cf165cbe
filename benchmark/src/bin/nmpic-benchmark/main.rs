//! # nmpic-benchmark — the repo's benchmark
//!
//! ```text
//! nmpic-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! nmpic-benchmark compare A.json B.json
//! nmpic-benchmark workloads      # the workload names, one per line
//! nmpic-benchmark manifest       # BENCHMARK.json
//! ```
//!
//! Normally reached through `benchmark/run.sh`, which builds it in
//! release mode and pins the environment. `run` measures one workload in
//! this process, checks every result against golden `Csr::spmv` bit for
//! bit, prints each metric by name with its unit, and ends with one JSON
//! object on the last line of standard output; it exits non-zero, without
//! that line, if anything it attempted failed to measure, and with the
//! line and `"correct": false` if an operation gave a wrong result.
//!
//! Host time and simulated time are never mixed: every simulated
//! quantity has `sim`, `cycles` or a model name in its metric name.

mod clock;
mod compare;
mod harness;
mod inputs;
mod json;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use harness::{Cfg, Report};
use std::process::ExitCode;
use workloads::{analytic, cycle, native, service, solve};

type Runner = fn(&Cfg) -> Result<Report, String>;

/// The measured pass of each workload declared in [`metrics::WORKLOADS`].
const RUNNERS: [(&str, Runner); 6] = [
    ("cycle_pack", harness::run::<cycle::CyclePack>),
    ("cycle_base", harness::run::<cycle::CycleBase>),
    ("solve_sharded", harness::run::<solve::SolveSharded>),
    ("analytic_sweep", harness::run::<analytic::AnalyticSweep>),
    ("native_spmv", harness::run::<native::NativeSpmv>),
    ("service_mix", harness::run::<service::ServiceMix>),
];

fn parse_run(args: &[String]) -> Result<Cfg, String> {
    let mut cfg = Cfg {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => cfg.out = Some(value.into()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(cfg)
}

fn run(args: &[String]) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: build with --release".to_string());
    }
    let cfg = parse_run(args)?;
    let (_, runner) = RUNNERS
        .iter()
        .find(|(name, _)| *name == cfg.workload)
        .ok_or_else(|| {
            format!(
                "unknown workload {:?}; `workloads` lists them",
                cfg.workload
            )
        })?;
    harness::emit(&cfg, &runner(&cfg)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest).map(|()| true),
        Some((cmd, [a, b])) if cmd == "compare" => compare::compare(a, b),
        Some((cmd, [])) if cmd == "workloads" => {
            for (name, _) in metrics::WORKLOADS {
                println!("{name}");
            }
            Ok(true)
        }
        Some((cmd, [])) if cmd == "manifest" => {
            println!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err(
            "usage: nmpic-benchmark run --workload NAME [--seed N] [--seconds S] \
                  [--trace 0|1] [--out FILE] | compare A.json B.json | workloads | manifest"
                .to_string(),
        ),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nmpic-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_workload_has_a_runner() {
        let declared = metrics::WORKLOADS.map(|(name, _)| name);
        assert_eq!(RUNNERS.map(|(name, _)| name), declared);
    }

    #[test]
    fn run_arguments_follow_the_driver_contract() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cfg = parse_run(&args(
            "--workload cycle_pack --seed 7 --seconds 8 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("cycle_pack", 7, 8.0, true)
        );
        let cfg = parse_run(&args("--workload native_spmv")).unwrap();
        assert_eq!((cfg.seed, cfg.trace), (1, false));
        assert_eq!(cfg.seconds, f64::from(metrics::RUN_SECONDS));
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--frobnicate 1",
            "--seed",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }
}
