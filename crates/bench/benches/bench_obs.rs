//! Ops-plane overhead: what one scrape tick costs against a populated
//! registry, and what recording a request into the slow-request log
//! costs on the hot path.
//!
//! Three cells land in `BENCH_obs.json` at the repo root:
//!
//! * `scrape_tick` — `Ops::tick` (snapshot + tsdb record + alert
//!   evaluation) over a registry carrying a few hundred series, vs the
//!   same tick over an empty registry (the tick's fixed cost);
//! * `slowlog_record` — `SlowLog::record` against the loop baseline;
//! * `instrument_hot_path` — the counter increment a request handler
//!   pays, for scale.
//!
//! Each figure is the median of [`RUNS`] runs in one process, with the
//! lowest and highest run beside it (`_min`, `_max`), so a reader can
//! see how far apart two runs of the same binary land.
//!
//! `YPROV_BENCH_SMOKE=1` shrinks iteration counts so CI can exercise
//! the harness cheaply.

use json::json;
use obs::alerts::{AlertRule, Cmp};
use std::time::Instant;
use yprov_service::{Ops, OpsConfig, SlowEntry, SlowLog};

/// Runs of each cell; its figure is their median.
const RUNS: u64 = 7;

/// Mean nanoseconds per call of one run, over [`RUNS`] runs.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

/// Times [`RUNS`] runs of `iters` calls of `f`. The call index keeps
/// counting across runs, so a clock derived from it never stands still.
fn time_ns(iters: u64, mut f: impl FnMut(u64)) -> Spread {
    let mut runs: Vec<f64> = (0..RUNS)
        .map(|run| {
            let start = Instant::now();
            for i in run * iters..(run + 1) * iters {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    Spread {
        median: runs[runs.len() / 2],
        min: runs[0],
        max: runs[runs.len() - 1],
    }
}

/// A registry that looks like a busy server's: labelled request
/// counters, a few gauges, and latency histograms with samples.
fn populated_registry(series: usize) -> obs::Registry {
    let registry = obs::Registry::new();
    for i in 0..series {
        registry
            .counter(&format!(
                "http_requests_total{{route=\"/r{i}\",status=\"200\"}}"
            ))
            .add(i as u64 + 1);
    }
    for i in 0..series / 8 {
        registry
            .gauge(&format!("pool_size{{shard=\"{i}\"}}"))
            .set(4);
        let h = registry.histogram(&format!("latency_seconds{{shard=\"{i}\"}}"));
        for k in 0..64u64 {
            h.record_ns(1_000 * (k + 1));
        }
    }
    registry
}

fn bench_scrape_tick(ticks: u64, series: usize) -> json::Value {
    let cfg = OpsConfig {
        self_scrape: false,
        alert_rules: vec![AlertRule::new(
            "hot",
            "http_requests_total{route=\"/r0\",status=\"200\"}",
            Cmp::Gt,
            1e12,
            5.0,
        )],
    };

    let populated_reg = populated_registry(series);
    let ops = Ops::new(&cfg, &populated_reg);
    // Drive the counters between ticks so deltas are non-empty, the
    // way a live server's scrape sees them.
    let hot = populated_reg.counter("http_requests_total{route=\"/r0\",status=\"200\"}");
    let populated_ns = time_ns(ticks, |i| {
        hot.add(3);
        ops.tick(i as f64, &[&populated_reg]);
    });

    let empty_reg = obs::Registry::new();
    let empty_ops = Ops::new(&cfg, &empty_reg);
    let empty_ns = time_ns(ticks, |i| {
        empty_ops.tick(i as f64, &[&empty_reg]);
    });

    eprintln!(
        "scrape_tick ({series} series): populated {:.0} ns, empty {:.0} ns",
        populated_ns.median, empty_ns.median
    );
    json!({
        "series": series,
        "ticks": ticks,
        "populated_ns_per_tick": populated_ns.median,
        "populated_ns_per_tick_min": populated_ns.min,
        "populated_ns_per_tick_max": populated_ns.max,
        "empty_ns_per_tick": empty_ns.median,
        "empty_ns_per_tick_min": empty_ns.min,
        "empty_ns_per_tick_max": empty_ns.max,
    })
}

fn bench_slowlog(iters: u64) -> json::Value {
    // The server moves the method and path it already owns into the
    // entry, so the entry here carries none: building it allocates
    // nothing, and what is timed is the log.
    let entry = |i: u64| SlowEntry {
        route: "/api/v0/documents/{id}",
        status: 200,
        latency_ns: 1_000 + (i % 97) * 13,
        ..Default::default()
    };
    let log = SlowLog::new(8);
    let record_ns = time_ns(iters, |i| log.record(entry(i)));

    let baseline_ns = time_ns(iters, |i| {
        std::hint::black_box(1_000 + (i % 97) * 13);
    });

    eprintln!(
        "slowlog_record: {:.1} ns, baseline {:.1} ns",
        record_ns.median, baseline_ns.median
    );
    json!({
        "iters": iters,
        "ns_per_record": record_ns.median,
        "ns_per_record_min": record_ns.min,
        "ns_per_record_max": record_ns.max,
        "loop_baseline_ns": baseline_ns.median,
        "loop_baseline_ns_min": baseline_ns.min,
        "loop_baseline_ns_max": baseline_ns.max,
    })
}

fn bench_instrument(iters: u64) -> json::Value {
    let registry = obs::Registry::new();
    let counter = registry.counter("requests_total");
    let inc_ns = time_ns(iters, |_| counter.inc());

    eprintln!("counter_inc: {:.2} ns", inc_ns.median);
    json!({
        "iters": iters,
        "ns_per_inc": inc_ns.median,
        "ns_per_inc_min": inc_ns.min,
        "ns_per_inc_max": inc_ns.max,
    })
}

fn main() {
    let smoke = matches!(std::env::var("YPROV_BENCH_SMOKE"), Ok(v) if v != "0");
    let (ticks, series, iters) = if smoke {
        (100, 128, 20_000)
    } else {
        (1_000, 512, 2_000_000)
    };

    let out = json!({
        "bench": "bench_obs",
        "description": "Ops-plane overhead: scrape-tick cost over a populated \
                        vs empty registry, slowlog record cost, and the \
                        instrument hot path. Each figure is the median of \
                        `runs` runs; `_min`/`_max` are the lowest and \
                        highest run.",
        "runs": RUNS,
        // CI's bench-smoke guard greps for this: a committed file that
        // still says "pending" fails the job.
        "status": "measured",
        "smoke": smoke,
        "scrape_tick": bench_scrape_tick(ticks, series),
        "slowlog_record": bench_slowlog(iters),
        "instrument_hot_path": bench_instrument(iters),
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, format!("{out:#}\n")).unwrap();
    eprintln!("wrote {path}");
}
