//! The repository benchmark: four closed-loop workloads from a
//! `log_metric` call to a replicated, queryable document, five
//! end-to-end metrics each, and per-layer probes taken from outside in
//! a traced run. See README.md.
//!
//! Contract mode (what the driver runs, one workload per process):
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints a table and, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//! `--all` runs every workload untraced then traced; `--selfcheck`
//! runs two sets of untraced runs of the same code and prints both
//! sets' medians and quartiles beside each metric's bound.

mod gen;
mod harness;
mod metrics;
mod rng;
mod selfcheck;
mod service;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use harness::{Config, Outcome, RUN_SECONDS};
use trace::Recorder;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    runs: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names = metrics::workload_names().join("|");
    format!(
        "usage: benchmark --workload <{names}> [--seed N] [--seconds S] [--trace 0|1]\n       benchmark --all [--seed N] [--seconds S]\n       benchmark --selfcheck [--runs N] [--workload W] [--seed N] [--seconds S]"
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        selfcheck: false,
        runs: 5,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !metrics::workload_names().contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}\n{}", usage()));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            "--all" => args.all = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let modes = usize::from(args.all) + usize::from(args.selfcheck);
    if modes > 1 || (modes == 0 && args.workload.is_none()) || (args.all && args.workload.is_some())
    {
        return Err(format!(
            "give one of --workload, --all and --selfcheck\n{}",
            usage()
        ));
    }
    Ok(args)
}

/// Where runs keep their data and traces: inside the benchmark's own
/// directory, so nothing outside the checkout is touched.
pub fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Removes the run's data directory when the run ends, however it ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(args: &Args, workload: &str, started: Instant) -> Result<Outcome, String> {
    let dir = DataDir(out_root().join(format!("data-{workload}-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("create {}: {e}", dir.0.display()))?;
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        small: false,
        data_dir: dir.0.clone(),
        started,
    };
    let rec = Recorder::new(false);
    let mut outcome = workloads::run(workload, &cfg, &rec)?;
    outcome.note(format!(
        "seed {}, --seconds {}, nproc {}; deps: std-only stand-ins (benchmark/standins), baseline provisional",
        cfg.seed,
        cfg.seconds,
        harness::nproc()
    ));
    if cfg.trace {
        let path = out_root().join(format!("{workload}.trace.json"));
        rec.write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let spans = rec.spans();
        outcome.note(format!(
            "trace: {} spans in {}",
            spans.len(),
            path.display()
        ));
        let table = trace::layer_self_ns(&spans);
        let total: u64 = table.values().map(|(_, ns)| ns).sum();
        outcome.note("self time per layer (span minus its children):".into());
        for (layer, (count, ns)) in &table {
            outcome.note(format!(
                "  {layer:<12} {count:>8} spans {:>10.3} ms self {:>5.1} %",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            ));
        }
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.all || args.selfcheck {
        let result = if args.all {
            selfcheck::run_all(args.seed, args.seconds)
        } else {
            selfcheck::run(args.workload.as_deref(), args.runs, args.seed, args.seconds)
        };
        return match result {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.clone().expect("checked by parse_args");
    let line = run_workload(&args, &workload, started).and_then(|outcome| {
        harness::print_outcome(&workload, &outcome, args.trace);
        harness::result_line(&outcome, args.trace).map(|line| (line, outcome.correct()))
    });
    match line {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&[
            "--workload",
            "track_run",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("track_run"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "track_run", "--trace", "2"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--all", "--workload", "track_run"]).is_err());
        assert!(parse(&["--all", "--selfcheck"]).is_err());
        let s = parse(&["--selfcheck", "--runs", "3", "--workload", "serve_docs"]).unwrap();
        assert_eq!((s.selfcheck, s.runs), (true, 3));
    }
}
