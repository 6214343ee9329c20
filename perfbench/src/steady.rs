//! The steadiness check: runs each workload `k` times, each run in its
//! own process with its own seed, and prints every metric's median,
//! quartiles and spread (inter-quartile distance over median). When a
//! `BENCHMARK.json` sits in the working directory it also prints each
//! end-to-end metric's bound and whether the spread stays under a third
//! of it; the bounds recorded there come from this command's output.
//! Each row ends with the per-run values, in seed order; a last line
//! gives each run's host steal share.
//!
//! ```text
//! perfbench steady --runs 10 --seconds 25 --seed 1 --trace 0 --workloads solve_large,fault_burst
//! ```

use crate::report::{Json, Report};
use crate::run::STEAL_NOTE;
use crate::stats::{quartiles, relative_spread};
use crate::workloads::NAMES;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

struct Options {
    runs: usize,
    seconds: String,
    seed: u64,
    trace: String,
    workloads: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        runs: 5,
        seconds: "25".into(),
        seed: 1,
        trace: "0".into(),
        workloads: NAMES.iter().map(|s| s.to_string()).collect(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => o.runs = v.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => o.seconds = v.clone(),
            "--seed" => o.seed = v.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace" => o.trace = v.clone(),
            "--workloads" => o.workloads = v.split(',').map(str::to_string).collect(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if o.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    Ok(o)
}

/// `end_to_end` bounds from `BENCHMARK.json`, if present and readable.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return BTreeMap::new();
    };
    match doc.get("end_to_end") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|m| {
                let name = m.get("name")?.as_str()?.to_string();
                Some((name, m.get("bound")?.as_f64()?))
            })
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Runs one workload in a child process; returns its record and the
/// host steal share its notes report.
fn run_once(o: &Options, workload: &str, seed: u64) -> Result<(Report, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds, "--trace", &o.trace])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} seed {seed} printed nothing"))?;
    let report = Report::parse(last)?;
    if !report.correct {
        return Err(format!("{workload} seed {seed} reported incorrect output"));
    }
    if report.failed != 0 {
        // Every workload is built so that no operation fails.
        return Err(format!(
            "{workload} seed {seed}: {} of {} operations failed",
            report.failed, report.attempted
        ));
    }
    let steal = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# ")?.strip_prefix(STEAL_NOTE)?.parse().ok())
        .unwrap_or(f64::NAN);
    Ok((report, steal))
}

pub fn main(args: &[String]) -> Result<(), String> {
    let o = parse(args)?;
    let bounds = bounds();
    for w in &o.workloads {
        let mut series: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let seeds: Vec<u64> = (0..o.runs as u64).map(|r| o.seed + r).collect();
        let mut steals = Vec::new();
        for &seed in &seeds {
            let (report, steal) = run_once(&o, w, seed)?;
            steals.push(format!("{:.1}%", steal * 100.0));
            eprintln!("steady: {w} seed {seed} done");
            for m in report.metrics {
                series
                    .entry(m.name)
                    .or_insert((m.unit, Vec::new()))
                    .1
                    .push(m.value);
            }
        }
        println!(
            "== {w}: {} runs, seeds {:?}, {} s each",
            o.runs, seeds, o.seconds
        );
        println!(
            "{:<34} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (name, (unit, values)) in &series {
            let (q1, q2, q3) = quartiles(values);
            let spread = relative_spread(values);
            let (bound, verdict) = match bounds.get(name) {
                Some(&b) if spread <= b / 3.0 => (format!("{b:.3}"), "steady"),
                Some(&b) if spread <= b => (format!("{b:.3}"), "within bound, above a third"),
                Some(&b) => (format!("{b:.3}"), "TOO NOISY"),
                None => ("-".into(), ""),
            };
            let runs: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<34} {:>14.6} {:>14.6} {:>14.6} {:>8.2}% {:>7}  {verdict} [{unit}] runs: {}",
                name,
                q2,
                q1,
                q3,
                spread * 100.0,
                bound,
                runs.join(" ")
            );
        }
        println!("host steal share per run: {}", steals.join(" "));
    }
    Ok(())
}
