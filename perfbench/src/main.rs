//! `perfbench`: the live benchmark of the Monge solver stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady [--runs k] [--seconds s] [--seed n] [--trace 0|1] [--workloads a,b]
//! ```
//!
//! The first form runs one workload in this process, so `peak_rss_mb`
//! belongs to that workload alone. It prints a host stamp, readable
//! notes (sample counts, and with `--trace 1` the span table), and as
//! its last line one JSON record: with `--trace 0` the end-to-end
//! metrics, with `--trace 1` the per-layer metrics and the tracing
//! overhead. A wrong answer exits with code 1 and prints no record.
//!
//! The second form is the steadiness check (see `steady.rs`).
//!
//! Workloads, sizes and the layer-to-metric table: `perfbench/README.md`.

mod gen;
mod host;
mod report;
mod run;
mod stats;
mod steady;
mod trace;
mod workloads;

use report::Report;
use std::process::ExitCode;

/// A validated `--workload/--seed/--seconds/--trace` invocation.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Keeps the injected-fault panics of `fault_burst` off stderr; every
/// other panic still reaches the default hook.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("injected fault:") {
            default_hook(info);
        }
    }));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("steady") {
        return match steady::main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench steady: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    quiet_injected_panics();
    println!("{}", host::stamp(&args.workload, args.seed, args.trace));
    let outcome = match workloads::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("# {:<36} {:>20} {}", m.name, m.value, m.unit);
    }
    let record = Report {
        correct: true,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome.metrics,
    };
    match record.to_json() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse_args(&argv(
            "--workload fault_burst --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fault_burst".into(),
                seed: 3,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload solve_large --seconds 1",
            "--workload solve_large --seed -1 --seconds 1",
            "--workload solve_large --seed 1 --seconds 0",
            "--workload solve_large --seed 1 --seconds 1 --trace 2",
            "--workload solve_large --seed 1 --seconds 1 --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
