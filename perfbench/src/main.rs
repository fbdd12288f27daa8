//! Command-line entry point of the benchmark; see the crate docs.

use std::process::ExitCode;

use warpstl_perfbench::{run, RunConfig, Size, Workload};

const USAGE: &str = "usage: warpstl-perfbench --workload stl_cold|du_trace|serve_mix --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt-output]";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut corrupt = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-output" {
            corrupt = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds must be positive")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            "--size" => size = Size::parse(value).ok_or_else(|| format!("unknown size {value}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        corrupt,
        work_dir: std::path::PathBuf::from(".perfbench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg);
    // Runs remove their own directory; drop the shared parent once empty.
    if let Some(parent) = cfg.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    for error in &outcome.errors {
        eprintln!("check failed: {error}");
    }
    for (name, value) in &outcome.metrics {
        let unit = warpstl_perfbench::metrics::unit_of(name).unwrap_or("");
        println!("{name:<24} {value:>16.6} {unit}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<24} {error_rate:>16.6} ratio ({} failed of {} attempted)",
        "error_rate", outcome.failed, outcome.attempted
    );
    println!("{}", outcome.info_json());
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
