//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <sweep|mc_droop|resim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance, check results and every metric with its unit, then
//! one JSON object as the last line. Exits 0 when every correctness check
//! passed, 1 when one failed (the JSON line still reports the run), and 2
//! on a usage or set-up error (no JSON line).

use perfbench::host;
use perfbench::workload::{self, Config, Size, Workload};
use std::path::Path;
use std::process::ExitCode;

/// Engine worker threads: at most two, and one CPU is left to the rest of
/// the host. On a 2-CPU host two engine threads made launch times
/// several times less steady (every level barrier waits for a worker
/// that another process preempted), so there the engine runs on one.
const MAX_THREADS: usize = 2;

fn main() -> ExitCode {
    let config = match parse(std::env::args().skip(1).collect()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sweep|mc_droop|resim> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    for (k, v) in host::provenance() {
        println!("provenance {k}: {v}");
    }
    let result = match workload::run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &result.log {
        println!("{line}");
    }
    for (spec, value) in &result.outcome.metrics {
        println!("metric {} = {value} {}", spec.name, spec.unit);
    }
    if let (Some(trace), Some(layers)) = (&result.trace, &result.layers) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        let stem = format!("{}-seed{}", config.workload.name(), config.seed);
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}.trace.json")),
                    trace.to_string_pretty(),
                )
            })
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}.layers.json")),
                    layers.to_string_pretty(),
                )
            });
        match written {
            Ok(()) => println!(
                "trace written to {}",
                dir.join(format!("{stem}.*.json")).display()
            ),
            Err(e) => eprintln!("perfbench: writing the trace failed: {e}"),
        }
    }
    println!("{}", result.outcome.json_line());
    if result.outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`, all required.
fn parse(args: Vec<String>) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads: host::nproc().saturating_sub(1).clamp(1, MAX_THREADS),
        size: Size::paper(),
    })
}
