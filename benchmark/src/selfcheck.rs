//! `--all` and `--selfcheck`: the benchmark run by itself, each
//! workload run a process of its own (clean `VmHWM`, clean registries).
//!
//! `--selfcheck` is the same-code repeatability check the bounds in
//! `BENCHMARK.json` come from: two sets of runs, each run on another
//! seed, and per workload and metric both sets' medians and quartiles
//! beside the bound.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::metrics::{self, Metric};
use crate::stats::quartiles;

/// The value of metric `name` in a result line this program printed.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs one workload in a child process; returns its metrics and
/// whether it was correct. `show` passes the child's table through.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    show: bool,
) -> Result<(BTreeMap<&'static str, f64>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    if show {
        println!("{table}");
    }
    let values: BTreeMap<&'static str, f64> = metrics::expected(trace)
        .iter()
        .filter_map(|m| Some((m.name, metric_value(last, m.name)?)))
        .collect();
    if values.len() != metrics::expected(trace).len() {
        return Err(format!(
            "{workload}: no complete result line; exit {}",
            output.status
        ));
    }
    let correct = last.starts_with("{\"correct\":true,") && output.status.success();
    Ok((values, correct))
}

/// Every workload once untraced and once traced: every metric by name
/// with its unit. `Ok(false)` if any run failed an output check.
pub fn run_all(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in metrics::workload_names() {
        for trace in [false, true] {
            let (_, correct) = run_child(workload, seed, seconds, trace, true)?;
            all_correct &= correct;
        }
    }
    Ok(all_correct)
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(m: &Metric, first: f64, second: f64) -> f64 {
    if m.higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// Two sets of `runs` untraced runs per workload (seeds `seed..`), and
/// for every end-to-end metric: each set's quartiles, the spread
/// (quartile distance over median) and how much worse the second
/// median is than the first, beside the bound. `Ok(false)` if a run was
/// incorrect, a spread exceeds its bound (`setup_s` exempt, as in the
/// driver) or the second median is worse than the first by more than
/// the bound.
pub fn run(only: Option<&str>, runs: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    for workload in metrics::workload_names() {
        if only.is_some_and(|w| w != workload) {
            continue;
        }
        let mut sets: [Vec<BTreeMap<&'static str, f64>>; 2] = [Vec::new(), Vec::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for i in 0..runs {
                let (values, correct) =
                    run_child(workload, seed + i as u64, seconds, false, false)?;
                if !correct {
                    println!("{workload}: set {} run {i} FAILED its output checks", s + 1);
                    ok = false;
                }
                set.push(values);
            }
        }
        println!("{workload}: two sets of {runs} runs, --seconds {seconds}");
        println!(
            "  {:<28} {:>12} {:>12} {:>12} {:>7}   {:>12} {:>12} {:>12} {:>7}   {:>7} {:>6}",
            "metric",
            "q1",
            "median",
            "q3",
            "spread",
            "q1",
            "median",
            "q3",
            "spread",
            "worse",
            "bound"
        );
        for m in &metrics::END_TO_END {
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let column = |set: &[BTreeMap<&'static str, f64>]| {
                let values: Vec<f64> = set.iter().map(|run| run[m.name]).collect();
                quartiles(&values).expect("at least two runs")
            };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let spread = |q: (f64, f64, f64)| (q.2 - q.0) / q.1;
            let worse = worsening(m, a.1, b.1);
            let noisy = m.name != "setup_s" && spread(a).max(spread(b)) > bound;
            let flag = if noisy || worse > bound {
                ok = false;
                "  EXCEEDS ITS BOUND"
            } else if spread(a).max(spread(b)) > bound / 3.0 || worse.abs() > bound / 2.0 {
                "  (close)"
            } else {
                ""
            };
            println!(
                "  {:<28} {:>12.4} {:>12.4} {:>12.4} {:>6.2}%   {:>12.4} {:>12.4} {:>12.4} {:>6.2}%   {:>6.2}% {:>5.1}%{flag}",
                m.name,
                a.0, a.1, a.2, 100.0 * spread(a),
                b.0, b.1, b.2, 100.0 * spread(b),
                100.0 * worse,
                100.0 * bound
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_values_back_from_a_result_line() {
        let line = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":3.25,"unit":"s"},"work_per_s":{"value":1200,"unit":"1/s"}}}"#;
        assert_eq!(metric_value(line, "setup_s"), Some(3.25));
        assert_eq!(metric_value(line, "work_per_s"), Some(1200.0));
        assert_eq!(metric_value(line, "read_ms_p50"), None);
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        let rate = &metrics::END_TO_END[1];
        let latency = &metrics::END_TO_END[2];
        assert!(rate.higher_is_better && !latency.higher_is_better);
        assert!((worsening(rate, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(latency, 100.0, 90.0) + 0.1).abs() < 1e-12);
    }
}
