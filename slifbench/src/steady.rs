//! The steadiness report: runs each workload N times, each with its own
//! seed, and prints per metric the median, the quartiles, their spread
//! as a share of the median, and the gap between the medians of the
//! first and second halves of the runs.

use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 3] = ["cold_report", "edit_session", "serve_store"];

/// The metric values in one result line, with `correct` and `failed`.
fn parse_result(line: &str) -> Option<(bool, u64, BTreeMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let failed = line
        .split("\"failed\": ")
        .nth(1)?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    let metrics = line.split("\"metrics\": {").nth(1)?;
    let mut out = BTreeMap::new();
    for part in metrics.split("}, ") {
        let (name, rest) = part
            .trim_start_matches('"')
            .split_once("\": {\"value\": ")?;
        let value = rest.split(',').next()?.parse().ok()?;
        out.insert(name.to_owned(), value);
    }
    Some((correct, failed, out))
}

pub fn main(argv: &[String]) -> ExitCode {
    let mut runs = 0usize;
    let mut workloads: Vec<String> = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    let (mut seconds, mut trace, mut first_seed) = (String::from("40"), String::from("0"), 1u64);
    let mut it = argv.iter();
    if let Some(n) = it.next().and_then(|n| n.parse().ok()) {
        runs = n;
    }
    while let Some(flag) = it.next() {
        let value = it.next().cloned().unwrap_or_default();
        match flag.as_str() {
            "--workloads" => workloads = value.split(',').map(str::to_owned).collect(),
            "--seconds" => seconds = value,
            "--trace" => trace = value,
            "--first-seed" => first_seed = value.parse().unwrap_or(1),
            _ => {
                eprintln!("slifbench --steadiness: unknown argument {flag}");
                return ExitCode::from(2);
            }
        }
    }
    if runs < 2 {
        eprintln!("slifbench --steadiness <runs ≥ 2> [--workloads a,b] [--seconds s] [--trace 0|1] [--first-seed n]");
        return ExitCode::from(2);
    }
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("slifbench --steadiness: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for workload in &workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..runs {
            let seed = (first_seed + i as u64).to_string();
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed])
                .args(["--seconds", &seconds, "--trace", &trace])
                .output();
            let parsed = output.ok().filter(|o| o.status.success()).and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                text.lines().last().and_then(parse_result)
            });
            match parsed {
                Some((true, 0, metrics)) => {
                    for (name, v) in metrics {
                        values.entry(name).or_default().push(v);
                    }
                }
                _ => {
                    ok = false;
                    eprintln!("{workload} seed {seed}: run failed or was not correct");
                }
            }
        }
        println!("{workload}: {runs} runs, seeds {first_seed}..");
        println!(
            "  {:<32} {:>12} {:>12} {:>12} {:>8} {:>8}",
            "metric", "median", "q1", "q3", "iqr%", "halves%"
        );
        for (name, xs) in &values {
            let Some((q1, q2, q3)) = quartiles(xs) else {
                continue;
            };
            let half = xs.len() / 2;
            let (a, b) = (median(&xs[..half]), median(&xs[half..]));
            let share = |d: f64| if q2 != 0.0 { 100.0 * d / q2.abs() } else { 0.0 };
            println!(
                "  {name:<32} {q2:>12.4} {q1:>12.4} {q3:>12.4} {:>8.2} {:>8.2}",
                share(q3 - q1),
                share(b - a)
            );
            let runs: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
            println!("    runs in order: {}", runs.join(" "));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
                    \"op_min_ms\": {\"value\": 41.5, \"unit\": \"ms\"}}}";
        let (correct, failed, m) = parse_result(line).expect("parses");
        assert!(correct);
        assert_eq!(failed, 0);
        assert_eq!(m["setup_s"], 0.25);
        assert_eq!(m["op_min_ms"], 41.5);
    }
}
