//! The repository benchmark: generated traffic and rule updates offered
//! to an `mtl-runtime` runtime through its public API, every answer
//! checked against `reference_classify`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf-hot --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `perfbench/README.md`). Every metric is printed by name
//! with its unit and direction; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.

mod cpu;
mod loadgen;
mod oracle;
mod replay;
mod run;
mod stats;
mod workload;

use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <zipf-hot|uniform-cold|churn-16k> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<run::Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::spec(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(run::Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run::run(&args);
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for m in report.metrics.iter().chain(&report.extra) {
        println!("{:<30} {:>16.6} {:<8} ({} is better)", m.name, m.value, m.unit, m.better);
    }
    for c in &report.checks {
        println!("check: {} {}", if c.pass { "PASS" } else { "FAIL" }, c.line);
    }
    for line in &report.notes {
        println!("note: {line}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.correct();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a check failed (see the check: FAIL lines)");
        ExitCode::FAILURE
    }
}

/// JSON has no NaN or infinity; a metric that could not be computed is
/// reported as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
